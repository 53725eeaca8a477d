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
from dataclasses import dataclass

__all__ = ["CssParams", "MixedCss", "TapSetting", "ChannelSetting", "TWO_PI"]

TWO_PI = 2.0 * math.pi
# seed of `catpurify verify`; kept here so the CLI can show it without
# importing the numpy-backed oracle
DEFAULT_SEED = 20260814


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


@dataclass(frozen=True)
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

    def __post_init__(self) -> None:
        alpha = float(self.alpha)
        phi = float(self.phi)
        if not math.isfinite(alpha) or alpha < 0.0:
            raise ValueError(f"alpha must be a finite real >= 0, got {self.alpha!r}")
        if not math.isfinite(phi):
            raise ValueError(f"phi must be finite, got {self.phi!r}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "phi", _reduce_phase(phi))

    @property
    def is_degenerate(self) -> bool:
        return _pair_norm(self.phi, 2.0 * self.alpha**2) == 0.0


@dataclass(frozen=True)
class MixedCss:
    """A decohered superposition: fraction p of the pure state, the rest
    fully dephased at the same amplitude."""

    params: CssParams
    p: float = 1.0

    def __post_init__(self) -> None:
        p = float(self.p)
        if not math.isfinite(p) or not 0.0 <= p <= 1.0:
            raise ValueError(f"fraction p must lie in [0, 1], got {self.p!r}")
        object.__setattr__(self, "p", p)


@dataclass(frozen=True)
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

    def __post_init__(self) -> None:
        T = float(self.T)
        k = float(self.k)
        eta = float(self.eta_H)
        if not math.isfinite(T) or not 0.0 < T <= 1.0:
            raise ValueError(f"transmittance T must lie in (0, 1], got {self.T!r}")
        if not math.isfinite(k):
            raise ValueError(f"homodyne outcome k must be finite, got {self.k!r}")
        if not math.isfinite(eta) or not 0.0 < eta <= 1.0:
            raise ValueError(f"detector efficiency eta_H must lie in (0, 1], got {self.eta_H!r}")
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "eta_H", eta)

    @property
    def R(self) -> float:
        return 1.0 - self.T


@dataclass(frozen=True)
class ChannelSetting:
    """A lossy transmission line of intensity transmittance eta."""

    eta: float

    def __post_init__(self) -> None:
        eta = float(self.eta)
        if not math.isfinite(eta) or not 0.0 < eta <= 1.0:
            raise ValueError(f"channel transmittance eta must lie in (0, 1], got {self.eta!r}")
        object.__setattr__(self, "eta", eta)
