"""Parameter records for the two-component cat-state model.

Every state handled by the closed-form layer is a convex mixture

    rho = p * rho_css(alpha, phi) + (1 - p) * rho_0(alpha),

where rho_css is the normalized superposition |alpha> + e^{i phi}|-alpha>
and rho_0 is the even weight mixture of |alpha><alpha| and |-alpha><-alpha|.
The records below carry the numbers that pin such a state down, plus the
two kinds of channel settings (a lossy line, and a tap-and-measure stage).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DegenerateStateError

__all__ = ["CssParams", "MixedCss", "TapSetting", "ChannelSetting", "TWO_PI"]

TWO_PI = 2.0 * math.pi
# seed and draw counts of `catpurify verify`; kept here so the CLI can show
# them without importing the numpy-backed oracle
DEFAULT_SEED = 20260814
DEFAULT_DRAWS = 200
DEFAULT_AMP_DRAWS = 50


# The domain of every parameter, declared once: (lowest value, highest value,
# what a value must do). An open end is the nearest float inside it:
# x >= 5e-324 holds iff x > 0, and |x| <= 1.8e308 iff x is finite. NaN
# fails every comparison, so it lies in no domain.
_UNIT = (0.0, 1.0, "lie in [0, 1]")  # fractions, reflectivities
_POSITIVE_UNIT = (math.ulp(0.0), 1.0, "lie in (0, 1]")  # transmittances, efficiencies
_FINITE = (-sys.float_info.max, sys.float_info.max, "be finite")  # phases, outcomes
_NONNEGATIVE = (0.0, sys.float_info.max, "be a finite real >= 0")  # amplitudes


def _checked(value, label: str, domain: tuple[float, float, str]) -> float:
    """`value` as a float if it lies in `domain`; otherwise a ValueError that
    names `label` and shows the value as given. A value that float()
    rejects lies in no domain."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    lo, hi, must = domain
    if lo <= x <= hi:
        return x
    raise ValueError(f"{label} must {must}, got {value!r}")


def _required(value, label: str, record: type):
    """`value` if it is a `record`; otherwise a ValueError that names `label`
    and shows the value as given."""
    if type(value) is not record:
        raise ValueError(f"{label} must be a {record.__name__}, got {value!r}")
    return value


# beyond y = 1 - ln(5e-324) the weight e^{-y} is below half the least
# subnormal and rounds to 0
_WEIGHTLESS = 1.0 - math.log(math.ulp(0.0))


def _pair_norm(phi: float, y: float) -> float:
    """1 + cos(phi) e^{-y}, half the squared norm of |a> + e^{i phi}|-a> at
    y = 2 a^2. Written (1 + c) + c expm1(-y): >= 0 for every input, exactly
    0 at (pi, 0), and free of cancellation for small odd cats. A cosine of
    weight 0 is never evaluated, so phi may be an overflowed phase there."""
    if y > _WEIGHTLESS:
        return 1.0
    c = math.cos(phi)
    return (1.0 + c) + c * math.expm1(-y)


def _nonzero_norm(alpha: float, phi: float) -> float:
    """N(phi, 2 alpha^2), the norm every closed form divides by, or a
    DegenerateStateError where it is 0."""
    norm = _pair_norm(phi, 2.0 * (alpha * alpha))
    if norm == 0.0:
        raise DegenerateStateError(f"the superposition at alpha={alpha!r}, phi={phi!r} has zero norm")
    return norm


def _reduce_phase(phi: float) -> float:
    """Map an angle into [0, 2*pi), a zero to +0.0. The reduction is exact
    for inputs already in range, so round-tripping never perturbs a stored
    phase."""
    if 0.0 < phi < TWO_PI:
        return phi
    phi %= TWO_PI
    return phi if phi < TWO_PI else 0.0  # a tiny negative phi rounds up to 2*pi


# Each record declares its fields for `dataclasses` (repr, ==, hash,
# frozenness, `replace`, `fields`) but writes its own __init__, which stores
# each field once: an exact float inside its domain as given, after one
# comparison, and any other value as `_checked` converts it or raises.
_set = object.__setattr__


@dataclass(frozen=True, init=False)
class CssParams:
    """Amplitude and relative phase of a coherent-state superposition.

    alpha : real field amplitude, >= 0
    phi   : relative phase in radians, stored reduced to [0, 2*pi); a zero
            phase, -0.0 or a multiple of 2*pi included, is stored as +0.0

    A pair whose superposition norm is 0 in floating point, such as
    (alpha=0, phi=pi) or an odd cat whose alpha^2 underflows, is
    constructible. Operations that need a normalized state reject it
    where they compute the norm.
    """

    alpha: float
    phi: float = 0.0

    def __init__(self, alpha: float, phi: float = 0.0) -> None:
        inside = type(alpha) is float and _NONNEGATIVE[0] <= alpha <= _NONNEGATIVE[1]
        _set(self, "alpha", alpha if inside else _checked(alpha, "alpha", _NONNEGATIVE))
        if not (type(phi) is float and 0.0 < phi < TWO_PI):  # else phi is its own reduction
            inside = type(phi) is float and _FINITE[0] <= phi <= _FINITE[1]
            phi = _reduce_phase(phi if inside else _checked(phi, "phi", _FINITE))
        _set(self, "phi", phi)


@dataclass(frozen=True, init=False)
class MixedCss:
    """A decohered superposition: fraction p of the pure state, the rest
    fully dephased at the same amplitude."""

    params: CssParams
    p: float = 1.0

    def __init__(self, params: CssParams, p: float = 1.0) -> None:
        _set(self, "params", params if type(params) is CssParams else _required(params, "params", CssParams))
        _set(self, "p", p if type(p) is float and _UNIT[0] <= p <= _UNIT[1] else _checked(p, "fraction p", _UNIT))


@dataclass(frozen=True, init=False)
class TapSetting:
    """Tap-and-measure stage: a beam splitter of transmittance T whose
    reflected arm is read out by a homodyne detector at local-oscillator
    phase pi/2, reporting the quadrature value k.

    The reflectivity is always 1 - T; it is exposed as a property and
    never stored, so the two cannot drift apart. eta_H is the detector
    efficiency (1 means ideal).
    """

    T: float
    k: float = 0.0
    eta_H: float = 1.0

    def __init__(self, T: float, k: float = 0.0, eta_H: float = 1.0) -> None:
        inside = type(T) is float and _POSITIVE_UNIT[0] <= T <= _POSITIVE_UNIT[1]
        _set(self, "T", T if inside else _checked(T, "transmittance T", _POSITIVE_UNIT))
        inside = type(k) is float and _FINITE[0] <= k <= _FINITE[1]
        _set(self, "k", k if inside else _checked(k, "homodyne outcome k", _FINITE))
        inside = type(eta_H) is float and _POSITIVE_UNIT[0] <= eta_H <= _POSITIVE_UNIT[1]
        _set(self, "eta_H", eta_H if inside else _checked(eta_H, "detector efficiency eta_H", _POSITIVE_UNIT))

    @property
    def R(self) -> float:
        return 1.0 - self.T


@dataclass(frozen=True, init=False)
class ChannelSetting:
    """A lossy transmission line of intensity transmittance eta."""

    eta: float

    def __init__(self, eta: float) -> None:
        inside = type(eta) is float and _POSITIVE_UNIT[0] <= eta <= _POSITIVE_UNIT[1]
        _set(self, "eta", eta if inside else _checked(eta, "channel transmittance eta", _POSITIVE_UNIT))
