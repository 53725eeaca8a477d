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

from . import analytic, errors, sweeps
from ._version import __version__
from .analytic import *  # the closed forms, as analytic.__all__ lists them
from .errors import *  # the exception types, as errors.__all__ lists them
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
    *errors.__all__,
    *analytic.__all__,
    "run_suite",
]


def __getattr__(name: str):
    if name in ("dyads", "verify"):
        return importlib.import_module(f".{name}", __name__)
    if name == "run_suite":
        return importlib.import_module(".verify", __name__).run_suite
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
