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
# seed of `catpurify verify`; kept here so the CLI can show it without
# importing the numpy-backed oracle
DEFAULT_SEED = 20260814


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
    names `label` and shows the value as given."""
    x = float(value)
    lo, hi, must = domain
    if lo <= x <= hi:
        return x
    raise ValueError(f"{label} must {must}, got {value!r}")


def _pair_norm(phi: float, y: float) -> float:
    """1 + cos(phi) e^{-y}, half the squared norm of |a> + e^{i phi}|-a> at
    y = 2 a^2. Written (1 + c) + c expm1(-y): >= 0 for every input, exactly
    0 at (pi, 0), and free of cancellation for small odd cats."""
    c = math.cos(phi)
    return (1.0 + c) + c * math.expm1(-y)


def _reduce_phase(phi: float) -> float:
    """Map an angle into [0, 2*pi). The reduction is exact for inputs
    already in range, so round-tripping never perturbs a stored phase."""
    if 0.0 <= phi < TWO_PI:
        return phi
    phi = math.fmod(phi, TWO_PI)
    if phi < 0.0:
        phi += TWO_PI
    if phi >= TWO_PI:  # fmod rounding can land exactly on 2*pi
        phi = 0.0
    return phi


# Each record declares its fields for `dataclasses` (repr, ==, hash,
# frozenness, `replace`, `fields`) but writes its own __init__, which
# converts, validates and stores every field once through `_checked`.
_set = object.__setattr__


@dataclass(frozen=True, init=False)
class CssParams:
    """Amplitude and relative phase of a coherent-state superposition.

    alpha : real field amplitude, >= 0
    phi   : relative phase in radians, stored reduced to [0, 2*pi)

    A pair whose superposition norm is 0 in floating point, such as
    (alpha=0, phi=pi) or an odd cat whose alpha^2 underflows, is
    constructible but degenerate. Operations that need a normalized state
    check `is_degenerate` and reject it.
    """

    alpha: float
    phi: float = 0.0

    def __init__(self, alpha: float, phi: float = 0.0) -> None:
        _set(self, "alpha", _checked(alpha, "alpha", _NONNEGATIVE))
        _set(self, "phi", _reduce_phase(_checked(phi, "phi", _FINITE)))

    @property
    def is_degenerate(self) -> bool:
        return _pair_norm(self.phi, 2.0 * (self.alpha * self.alpha)) == 0.0


def _require_normalizable(params: CssParams) -> None:
    if params.is_degenerate:
        raise DegenerateStateError(
            f"the superposition at alpha={params.alpha!r}, phi={params.phi!r} has zero norm"
        )


@dataclass(frozen=True, init=False)
class MixedCss:
    """A decohered superposition: fraction p of the pure state, the rest
    fully dephased at the same amplitude."""

    params: CssParams
    p: float = 1.0

    def __init__(self, params: CssParams, p: float = 1.0) -> None:
        _set(self, "params", params)
        _set(self, "p", _checked(p, "fraction p", _UNIT))


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
        _set(self, "T", _checked(T, "transmittance T", _POSITIVE_UNIT))
        _set(self, "k", _checked(k, "homodyne outcome k", _FINITE))
        _set(self, "eta_H", _checked(eta_H, "detector efficiency eta_H", _POSITIVE_UNIT))

    @property
    def R(self) -> float:
        return 1.0 - self.T


@dataclass(frozen=True, init=False)
class ChannelSetting:
    """A lossy transmission line of intensity transmittance eta."""

    eta: float

    def __init__(self, eta: float) -> None:
        _set(self, "eta", _checked(eta, "channel transmittance eta", _POSITIVE_UNIT))
