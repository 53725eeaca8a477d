"""catpurify: decoherence, conditional purification and linear
amplification of coherent-state superpositions.

The closed-form layer (:mod:`catpurify.analytic`) covers states of the
form p * rho_css(alpha, phi) + (1 - p) * rho_0(alpha); the dyad layer
(:mod:`catpurify.dyads`) simulates the same protocols exactly on finite
sums of coherent dyads and serves as the independent oracle;
:mod:`catpurify.sweeps` regenerates the figure datasets and
:mod:`catpurify.verify` runs the randomized cross-checks.

Importing the package loads only the standard library: ``dyads``,
``verify`` and ``run_suite`` need numpy and are imported on first use.
"""

import importlib

from . import analytic, sweeps
from ._version import __version__
from .analytic import (
    amplification_threshold,
    amplify,
    apply_loss,
    concat_stages,
    detection_ratio,
    effective_loss_fraction,
    homodyne_density_css,
    homodyne_density_mix,
    loss_fraction,
    normalization,
    optimal_k,
    purify,
    purify_with_inefficiency,
    purity_mixed_css,
    success_region,
    theta_of_k,
    window_acceptance,
)
from .errors import (
    ConfigError,
    DegenerateStateError,
    PhysicsError,
    StateFamilyError,
    ZeroDensityError,
)
from .states import ChannelSetting, CssParams, MixedCss, TapSetting

__all__ = [
    "__version__",
    "analytic",
    "dyads",
    "sweeps",
    "verify",
    "CssParams",
    "MixedCss",
    "TapSetting",
    "ChannelSetting",
    "PhysicsError",
    "DegenerateStateError",
    "ZeroDensityError",
    "StateFamilyError",
    "ConfigError",
    "normalization",
    "apply_loss",
    "loss_fraction",
    "effective_loss_fraction",
    "homodyne_density_css",
    "homodyne_density_mix",
    "theta_of_k",
    "detection_ratio",
    "purify",
    "purify_with_inefficiency",
    "success_region",
    "optimal_k",
    "window_acceptance",
    "amplify",
    "amplification_threshold",
    "concat_stages",
    "purity_mixed_css",
    "run_suite",
]


def __getattr__(name: str):
    if name in ("dyads", "verify"):
        return importlib.import_module(f".{name}", __name__)
    if name == "run_suite":
        return importlib.import_module(".verify", __name__).run_suite
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
