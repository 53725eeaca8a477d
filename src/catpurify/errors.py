"""Exception types shared across the package.

Validation problems (bad ranges, malformed configs) raise ``ValueError``
subclasses; situations that are numerically well formed but physically
meaningless raise ``PhysicsError`` subclasses.  The command line maps the
former to exit code 2 and the latter to exit code 3.
"""


class PhysicsError(Exception):
    """A physically ill-posed request on otherwise valid inputs."""


class DegenerateStateError(PhysicsError):
    """A superposition of zero norm was required: alpha = 0 with phase pi,
    or an odd cat whose alpha^2 underflows."""


class ZeroDensityError(PhysicsError):
    """Conditioning on an outcome whose probability density vanishes."""


class StateFamilyError(PhysicsError):
    """A density operator lies outside the two-component model family."""


class ConfigError(ValueError):
    """Malformed command-line or config-file input."""
