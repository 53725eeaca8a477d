"""Closed-form results for cat-state decoherence, purification and
amplification.

All functions here are pure algebra on the parameters of the mixture
p * rho_css(alpha, phi) + (1 - p) * rho_0(alpha): linear loss keeps the
mixture in that family, a tap-and-homodyne stage conditions the fraction
on the outcome, and the two-copy amplifier maps the family onto itself at
amplitude sqrt(2) alpha. Every formula is cross-validated against the
exact dyad simulation in :mod:`catpurify.dyads` by the test suite and by
``catpurify verify``.
"""

from __future__ import annotations

import math
import sys
import warnings

from .errors import DegenerateStateError, PhysicsError, ZeroDensityError
from .states import (
    _FINITE, _NONNEGATIVE, _POSITIVE_UNIT, _UNIT, TWO_PI, ChannelSetting, CssParams,
    MixedCss, TapSetting, _checked, _pair_norm, _require_normalizable,
)

__all__ = [
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
]

_SQRT_PI = math.sqrt(math.pi)
# alpha^2 is written alpha * alpha, which past alpha = 1.34e154 is inf where
# alpha**2 raises OverflowError; every e^{-c alpha^2} is then 0. A
# coefficient c that can be 0 is guarded, since 0 * inf is NaN.

# beyond |k| = sqrt(-ln(5e-324)) the Gaussian factor e^{-k^2} of both
# outcome densities underflows to 0
_K_REPRESENTABLE = math.sqrt(-math.log(5e-324))


def _posterior(p: float, ratio: float) -> float:
    """p / (p + ratio (1 - p)): the fraction after an event `ratio` times as
    likely for the dephased component as for the superposition."""
    return p / (p + ratio * (1.0 - p))


def _surviving_fraction(phi: float, kept: float, lost: float) -> float:
    """(1 + cos(phi) e^{-kept}) e^{-lost} / (1 + cos(phi) e^{-kept-lost}),
    the part of a pure cat left by a loss (kept = 2 eta a^2, lost =
    2 (1 - eta) a^2). The denominator is the numerator plus 1 - e^{-lost},
    so the fraction never exceeds 1."""
    survived = _pair_norm(phi, kept) * math.exp(-lost)
    return survived / (survived - math.expm1(-lost))


def normalization(params: CssParams) -> float:
    """Squared norm of |alpha> + e^{i phi}|-alpha>: 2(1 + cos(phi) e^{-2 alpha^2}).

    Returns 0 exactly for a degenerate pair (see `CssParams.is_degenerate`);
    callers that need a normalized state must check for that themselves.
    """
    return 2.0 * _pair_norm(params.phi, 2.0 * (params.alpha * params.alpha))


def loss_fraction(eta: float, params: CssParams) -> float:
    """Fraction of the superposition that survives a loss channel of
    transmittance eta, for a pure cat input.

    Equals [1 + cos(phi) e^{-2 eta alpha^2}] e^{-2(1-eta) alpha^2}
    / [1 + cos(phi) e^{-2 alpha^2}]; the surviving amplitude is
    sqrt(eta) alpha with the phase unchanged.
    """
    _require_normalizable(params)
    eta = _checked(eta, "transmittance", _POSITIVE_UNIT)
    a2 = params.alpha * params.alpha
    lost = 2.0 * (1.0 - eta) * a2 if eta < 1.0 else 0.0
    return _surviving_fraction(params.phi, 2.0 * eta * a2, lost)


def apply_loss(state: MixedCss, ch: ChannelSetting) -> MixedCss:
    """Send the mixture through a lossy line.

    The dephased component rho_0 maps to rho_0(sqrt(eta) alpha), so the
    cat fraction composes multiplicatively with the pure-state fraction.
    """
    factor = loss_fraction(ch.eta, state.params)
    out_params = CssParams(math.sqrt(ch.eta) * state.params.alpha, state.params.phi)
    return MixedCss(out_params, state.p * factor)


def effective_loss_fraction(
    eta: float, params: CssParams, T: float, eta_H: float
) -> float:
    """Heuristic surviving fraction for a lossy line followed by a tap with
    an imperfect detector, obtained by replacing eta with
    eta * (T + eta_H * (1 - T)) in the pure-loss formula.

    This is a rough comparator only; the package's detector model is
    `purify`, which treats the detector loss physically (attenuation on the
    tapped mode before an ideal projection). The two do not agree in
    general.
    """
    T = _checked(T, "transmittance", _POSITIVE_UNIT)
    eta_H = _checked(eta_H, "detector efficiency", _POSITIVE_UNIT)
    eta = _checked(eta, "transmittance", _POSITIVE_UNIT)
    return loss_fraction(eta * (T + eta_H * (1.0 - T)), params)


def theta_of_k(k: float, alpha: float, R: float) -> float:
    """Phase shift theta = 2 sqrt(2 R) alpha k imprinted on the kept mode by
    a homodyne outcome k on the reflected arm. Reported unreduced; compare
    phases mod 2 pi."""
    return _theta(
        _checked(k, "homodyne outcome", _FINITE),
        _checked(alpha, "amplitude", _NONNEGATIVE),
        _checked(R, "reflectivity", _UNIT),
    )


def _theta(k: float, alpha: float, R: float) -> float:
    return 2.0 * math.sqrt(2.0 * R) * alpha * k


def homodyne_density_css(k: float, params: CssParams, T: float) -> float:
    """Outcome density of the pi/2-quadrature on the tapped arm when the
    input is the pure superposition and the tap transmits T. An outcome
    whose Gaussian factor e^{-k^2} is 0 has density 0, whatever phase it
    would imprint."""
    _require_normalizable(params)
    T = _checked(T, "transmittance", _POSITIVE_UNIT)
    k = _checked(k, "homodyne outcome", _FINITE)
    density_mix = _gaussian(k)
    if density_mix == 0.0:
        return 0.0
    theta = _theta(k, params.alpha, 1.0 - T)
    a2 = params.alpha * params.alpha
    kept = _pair_norm(params.phi + theta, 2.0 * T * a2)
    return density_mix * kept / _pair_norm(params.phi, 2.0 * a2)


def homodyne_density_mix(k: float) -> float:
    """Outcome density for the dephased component: a unit Gaussian
    e^{-k^2}/sqrt(pi), independent of alpha, phi and T."""
    return _gaussian(_checked(k, "homodyne outcome", _FINITE))


def _gaussian(k: float) -> float:
    return math.exp(-k * k) / _SQRT_PI


def detection_ratio(params: CssParams, T: float, theta: float) -> float:
    """Ratio P_0 / P_C of the dephased and superposition outcome densities
    at the outcome that imprints phase theta.

    Purification succeeds iff the ratio is below 1; over theta it is
    minimized at theta = -phi (mod 2 pi).
    """
    return _ratio(
        params,
        _checked(T, "transmittance", _POSITIVE_UNIT),
        _checked(theta, "phase", _FINITE),
    )


def _ratio(params: CssParams, T: float, theta: float) -> float:
    a2 = params.alpha * params.alpha
    kept = _pair_norm(params.phi + theta, 2.0 * T * a2)
    if kept <= 0.0:
        raise ZeroDensityError(
            "event of zero density: the superposition never produces this outcome"
        )
    return _pair_norm(params.phi, 2.0 * a2) / kept


def _warn_if_blind_tap(T: float) -> None:
    if T == 1.0:
        # name the first caller outside this module, whichever entry point it called
        level, frame = 2, sys._getframe(1)
        while frame.f_globals["__name__"] == __name__:
            level, frame = level + 1, frame.f_back
        warnings.warn(
            "a tap with T=1 reflects nothing; the outcome carries no "
            "information and the fraction is returned unchanged",
            stacklevel=level,
        )


def purify(state: MixedCss, tap: TapSetting) -> tuple[MixedCss, float, float]:
    """Condition the mixture on homodyne outcome k behind a tap of
    transmittance T, read out by a detector of efficiency eta_H.

    Returns the output mixture together with the two point densities
    (superposition component P_C, dephased component P_0) at the outcome,
    so callers can report joint acceptance likelihoods. P_0 is the unit
    Gaussian for every eta_H.

    The detector is one more linear loss, on the tapped arm, and the light
    it misses might as well have stayed in the line: the stage is the ideal
    conditioning behind a tap of reflectivity eta_H R, whose outcome
    density is P_C, followed by a lossy line of transmittance
    T / (1 - eta_H R) on the kept mode. The output has amplitude
    sqrt(T) alpha, phase shift 2 sqrt(2 eta_H R) alpha k and a fraction in
    [0, 1] by construction (nothing is clamped); an outcome of zero density
    raises ZeroDensityError. At eta_H = 1 the line loss is none.
    """
    _warn_if_blind_tap(tap.T)
    params = state.params
    _require_normalizable(params)
    k = tap.k
    density_mix = _gaussian(k)
    if density_mix == 0.0:
        # no component produces k, and theta(k) may overflow there
        raise _never_occurs(k)
    missed = (1.0 - tap.eta_H) * tap.R
    theta = _checked(_theta(k, params.alpha, tap.eta_H * tap.R), "phase", _FINITE)
    ratio = _ratio(params, tap.T + missed, theta)
    density_css = density_mix / ratio
    p = state.p
    if p * density_css + (1.0 - p) * density_mix == 0.0:
        raise _never_occurs(k)
    phi = (params.phi + theta) % TWO_PI
    a2 = params.alpha * params.alpha
    lost = 2.0 * missed * a2 if missed else 0.0
    survived = _surviving_fraction(phi, 2.0 * tap.T * a2, lost)
    out = MixedCss(CssParams(math.sqrt(tap.T) * params.alpha, phi), _posterior(p, ratio) * survived)
    return out, density_css, density_mix


def _never_occurs(k: float) -> ZeroDensityError:
    return ZeroDensityError(f"event of zero density: the outcome k={k!r} never occurs")


def purify_with_inefficiency(state: MixedCss, tap: TapSetting) -> MixedCss:
    """The output mixture of `purify`, without the outcome densities."""
    return purify(state, tap)[0]


def success_region(params: CssParams, R: float) -> tuple[tuple[float, float], ...]:
    """Open intervals of theta in [0, 2 pi) where the detection ratio is
    below 1, i.e. where conditioning purifies.

    The condition cos(phi + theta) > cos(phi) e^{-2 R alpha^2} describes a
    single arc centered on theta = -phi; the arc is returned split at the
    wrap-around point when necessary, ordered by lower endpoint. An empty
    tuple means no outcome helps.
    """
    R = _checked(R, "reflectivity", _UNIT)
    if params.alpha <= 0.0:
        raise DegenerateStateError(
            "alpha=0 leaves nothing to purify; the region degenerates"
        )
    y = 2.0 * R * (params.alpha * params.alpha) if R else 0.0
    bound = math.cos(params.phi) * math.exp(-y)
    if bound >= 1.0:
        return ()
    if bound <= -1.0:
        return ((0.0, TWO_PI),)
    half_width = math.acos(bound)
    center = (-params.phi) % TWO_PI
    lo = center - half_width
    hi = center + half_width
    if lo < 0.0:
        pieces = ((0.0, hi), (lo + TWO_PI, TWO_PI))
    elif hi > TWO_PI:
        pieces = ((0.0, hi - TWO_PI), (lo, TWO_PI))
    else:
        return ((lo, hi),)
    return tuple(sorted(p for p in pieces if p[0] < p[1]))


def optimal_k(params: CssParams, R: float) -> float:
    """Smallest-|k| outcome whose imprinted phase cancels phi.

    Solves theta(k) = -phi (mod 2 pi) with the representative in
    (-pi, pi], which maximizes the Gaussian envelope e^{-k^2}; the sign
    tie at phi = pi resolves to +k.
    """
    R = _checked(R, "reflectivity", _UNIT)
    if params.alpha <= 0.0 or R == 0.0:
        raise PhysicsError(
            "no outcome can imprint a phase when alpha=0 or R=0"
        )
    target = (-params.phi) % TWO_PI
    if target > math.pi:
        target -= TWO_PI
    return target / _theta(1.0, params.alpha, R)


def _gauss_legendre(n: int) -> tuple[tuple[float, float], ...]:
    """(node, weight) pairs of the n-point Gauss-Legendre rule on [-1, 1],
    n even: the roots of P_n by Newton's method, weights
    2 / ((1 - x^2) P_n'(x)^2), mirrored so the rule is exactly symmetric."""
    rule = []
    for i in range(n // 2):
        x = math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(10):
            p0, p1 = 1.0, x
            for j in range(2, n + 1):
                p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
            slope = n * (x * p1 - p0) / (x * x - 1.0)
            step = p1 / slope
            x -= step
            if abs(step) < 1e-15:
                break
        weight = 2.0 / ((1.0 - x * x) * slope * slope)
        rule += [(-x, weight), (x, weight)]
    return tuple(rule)


# 20 nodes per panel integrate e^{-k^2} to ~1e-13 relative on unit panels
# out to |k| = 27.28, and cos(c k) on panels a third of its period wide
_GAUSS_LEGENDRE_20 = _gauss_legendre(20)


def window_acceptance(
    state: MixedCss, T: float, center: float, half_width: float
) -> float:
    """Probability that the homodyne outcome lands in
    [center - half_width, center + half_width].

    Reporting plumbing only: the purification results themselves condition
    on exact outcomes (densities), not windows. The joint outcome density
    p P_C + (1-p) P_0 is e^{-k^2} (1 - p + p N(phi + c k) / N(phi)) /
    sqrt(pi), with N the pair norm and c = 2 sqrt(2 R) alpha the phase per
    unit outcome. It is integrated by a fixed 20-point Gauss-Legendre rule
    on equal panels no wider than min(1, 2/c) (1 once the oscillating term's
    weight e^{-2 T alpha^2} is below e^{-40}), over the part of the window
    where e^{-k^2} is representable (|k| <= 27.28) and within e^{-40} of
    its largest value in the window, so far tails keep their relative
    precision. A window wholly outside |k| <= 27.28 accepts nothing. The
    sum is >= 0 term by term; it is capped at 1, which a window holding
    the whole peak can pass by a rounding error.
    """
    params = state.params
    _require_normalizable(params)
    T = _checked(T, "transmittance", _POSITIVE_UNIT)
    center = _checked(center, "window center", _FINITE)
    if not half_width >= 0.0:
        raise ValueError("window half-width must be >= 0")
    lo = max(center - half_width, -_K_REPRESENTABLE)
    hi = min(center + half_width, _K_REPRESENTABLE)
    if lo >= hi:
        return 0.0
    nearest = 0.0 if lo < 0.0 < hi else min(abs(lo), abs(hi))
    reach = math.sqrt(nearest * nearest + 40.0)
    lo, hi = max(lo, -reach), min(hi, reach)

    c = _theta(1.0, params.alpha, 1.0 - T)
    a2 = params.alpha * params.alpha
    kept_y = 2.0 * T * a2
    # cos(c k) enters with weight e^{-kept_y}; past e^{-40} it is below
    # rounding and unit panels suffice
    resolved = 0.5 * c if kept_y < 40.0 else 0.0
    panels = math.ceil((hi - lo) * max(1.0, resolved))
    half = 0.5 * (hi - lo) / panels
    norm = _pair_norm(params.phi, 2.0 * a2)
    p = state.p
    total = 0.0
    for i in range(panels):
        mid = lo + (2 * i + 1) * half
        for x, weight in _GAUSS_LEGENDRE_20:
            k = mid + half * x
            kept = _pair_norm(params.phi + c * k, kept_y)
            total += weight * math.exp(-k * k) * (1.0 - p + p * (kept / norm))
    return min(total * half / _SQRT_PI, 1.0)


def amplify(state: MixedCss) -> MixedCss:
    """Two-copy linear amplification conditioned on both comparison
    detectors clicking; closed form for phi in {0, pi}.

    The output is in the (sqrt(2) alpha, phi=0) family with fraction

        p_out = A p^2 / [A p^2 + 2 p (1-p)/(1 +- g2) + (1-p)^2],
        A = (1 + g4) / (1 +- g2)^2,   g2 = e^{-2 alpha^2}, g4 = e^{-4 alpha^2},

    upper signs for phi=0, lower for phi=pi. For phi=pi the odd gate
    1 - g2 vanishes with alpha, so it is cleared from the denominator:
    p_out = (1 + g4) / (1 + g4 + x (2 + x)) with x = (1-p)(1 - g2)/p,
    which stays finite where (1 - g2)^2 underflows. A degenerate odd pair
    raises DegenerateStateError.
    """
    params = state.params
    if params.alpha <= 0.0:
        raise ValueError("amplification needs alpha > 0")
    if params.phi != 0.0 and params.phi != math.pi:
        raise ValueError(
            "the closed form covers phi in {0, pi} only; simulate other "
            "phases with catpurify.dyads.amplifier_sim"
        )
    a2 = params.alpha * params.alpha
    g4 = math.exp(-4.0 * a2)
    p = state.p
    if params.phi == 0.0:
        gate = 1.0 + math.exp(-2.0 * a2)
        coeff = (1.0 + g4) / (gate * gate)
        den = coeff * p * p + 2.0 * p * (1.0 - p) / gate + (1.0 - p) ** 2
        p_out = coeff * p * p / den
    else:
        _require_normalizable(params)
        x = (1.0 - p) * -math.expm1(-2.0 * a2) / p if p > 0.0 else math.inf
        p_out = (1.0 + g4) / (1.0 + g4 + x * (2.0 + x))
    return MixedCss(CssParams(math.sqrt(2.0) * params.alpha, 0.0), p_out)


def amplification_threshold(alpha: float) -> float:
    """Input fraction above which the phi=pi amplifier improves the state:
    (e^{2 alpha^2} - 1)^2 / 2. Below 1 iff alpha^2 < ln(1 + sqrt(2))/2.

    Returns math.inf where the threshold exceeds the float range
    (alpha >~ 13.3): no input fraction gains there."""
    alpha = _checked(alpha, "amplitude", _NONNEGATIVE)
    try:
        return 0.5 * math.expm1(2.0 * alpha * alpha) ** 2
    except OverflowError:
        return math.inf


def concat_stages(p_in: float, alpha: float) -> tuple[float, float]:
    """Fractions after each stage of the purify-then-amplify concatenation:
    (after conditioning two copies at T=1/2, k=0; after amplifying back)."""
    p_in = _checked(p_in, "fraction", _UNIT)
    if alpha <= 0.0:
        raise ValueError("concatenation needs alpha > 0")
    p_mid = _posterior(p_in, _ratio(CssParams(alpha, 0.0), 0.5, 0.0))
    boosted = amplify(MixedCss(CssParams(alpha / math.sqrt(2.0), 0.0), p_mid))
    return p_mid, boosted.p


def purity_mixed_css(state: MixedCss) -> float:
    """Tr[rho^2] of the mixture, in closed form from coherent overlaps.

    With g = e^{-2 alpha^2}: the cross term uses the overlap of the
    superposition with the dephased pair, tr[rho_css rho_0] =
    (1 + 2 g cos(phi) + g^2) / (2 (1 + g cos(phi))), and
    tr[rho_0^2] = (1 + g^2)/2.
    """
    _require_normalizable(state.params)
    p = state.p
    g = math.exp(-2.0 * (state.params.alpha * state.params.alpha))
    cos_phi = math.cos(state.params.phi)
    cross = (1.0 + 2.0 * g * cos_phi + g * g) / normalization(state.params)
    return p * p + 2.0 * p * (1.0 - p) * cross + (1.0 - p) ** 2 * (1.0 + g * g) / 2.0
