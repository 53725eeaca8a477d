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


# Each record declares its fields for `dataclasses` (repr, ==, hash,
# frozenness, `replace`, `fields`) but writes its own __init__, which
# converts, validates and stores every field once; the messages show the
# caller's input as given.
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
        a = float(alpha)
        f = float(phi)
        if not 0.0 <= a < math.inf:
            raise ValueError(f"alpha must be a finite real >= 0, got {alpha!r}")
        if not math.isfinite(f):
            raise ValueError(f"phi must be finite, got {phi!r}")
        _set(self, "alpha", a)
        _set(self, "phi", _reduce_phase(f))

    @property
    def is_degenerate(self) -> bool:
        return _pair_norm(self.phi, 2.0 * self.alpha**2) == 0.0


@dataclass(frozen=True, init=False)
class MixedCss:
    """A decohered superposition: fraction p of the pure state, the rest
    fully dephased at the same amplitude."""

    params: CssParams
    p: float = 1.0

    def __init__(self, params: CssParams, p: float = 1.0) -> None:
        q = float(p)
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"fraction p must lie in [0, 1], got {p!r}")
        _set(self, "params", params)
        _set(self, "p", q)


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
        t = float(T)
        x = float(k)
        eta = float(eta_H)
        if not 0.0 < t <= 1.0:
            raise ValueError(f"transmittance T must lie in (0, 1], got {T!r}")
        if not math.isfinite(x):
            raise ValueError(f"homodyne outcome k must be finite, got {k!r}")
        if not 0.0 < eta <= 1.0:
            raise ValueError(f"detector efficiency eta_H must lie in (0, 1], got {eta_H!r}")
        _set(self, "T", t)
        _set(self, "k", x)
        _set(self, "eta_H", eta)

    @property
    def R(self) -> float:
        return 1.0 - self.T


@dataclass(frozen=True, init=False)
class ChannelSetting:
    """A lossy transmission line of intensity transmittance eta."""

    eta: float

    def __init__(self, eta: float) -> None:
        e = float(eta)
        if not 0.0 < e <= 1.0:
            raise ValueError(f"channel transmittance eta must lie in (0, 1], got {eta!r}")
        _set(self, "eta", e)
