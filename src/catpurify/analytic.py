"""Closed-form results for cat-state decoherence, purification and
amplification.

All functions here are pure algebra on the parameters of the mixture
p * rho_css(alpha, phi) + (1 - p) * rho_0(alpha), and every stage moves one
coordinate of it, the decoherence L = ln(1 + (1 - p) N(phi, 2 alpha^2) / p):
e^{-L} is the cross weight of the state over its diagonal weight, L = 0 is
the pure cat and L = inf the dephased pair. The code carries L as its odds
x = expm1(L) = (1 - p) N / p and never takes the logarithm. A line of
transmittance eta adds d = 2 (1 - eta) alpha^2 to L, x -> x e^d + expm1(d);
a tap-and-homodyne stage conditions on its outcome at fixed L, x -> x (its
detector's missed light adds d = 2 (1 - eta_H) R alpha^2 as a line does);
and the two-copy amplifier doubles L at amplitude sqrt(2) alpha and phase
2 phi, x -> x (2 + x). Every formula is cross-validated against the exact
dyad simulation in :mod:`catpurify.dyads` by the test suite and by
``catpurify verify``.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings

from .errors import DegenerateStateError, PhysicsError, ZeroDensityError
from .states import (
    _FINITE, _NONNEGATIVE, _POSITIVE_UNIT, _UNIT, _WEIGHTLESS, TWO_PI, ChannelSetting,
    CssParams, MixedCss, TapSetting, _checked, _nonzero_norm, _pair_norm, _required,
)

__all__ = [
    "apply_loss",
    "loss_fraction",
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


def _odds(p: float, norm: float) -> float:
    """x = expm1(L) = (1 - p) norm / p of fraction p at pair norm `norm`:
    inf at p = 0, and wherever the odds overflow (p below about 1e-308),
    so such a p reads as 0 after any stage."""
    return (1.0 - p) * norm / p if p > 0.0 else math.inf


def _fraction_at(norm: float, x: float, lost: float) -> float:
    """p = norm / (norm + expm1(L + lost)) at pair norm `norm`, for odds
    x = expm1(L) and an added decoherence lost >= 0. Written over e^{-lost},
    p = n e^{-lost} / (n e^{-lost} + x - expm1(-lost)): exactly n / (n + x)
    at lost = 0, with no overflow at any lost, and never above 1."""
    survived = norm * math.exp(-lost)
    return survived / (survived + x - math.expm1(-lost))


def loss_fraction(eta: float, params: CssParams) -> float:
    """Fraction of the superposition that survives a loss channel of
    transmittance eta, for a pure cat input.

    Equals [1 + cos(phi) e^{-2 eta alpha^2}] e^{-2(1-eta) alpha^2}
    / [1 + cos(phi) e^{-2 alpha^2}]; the surviving amplitude is
    sqrt(eta) alpha with the phase unchanged.
    """
    norm = _nonzero_norm(_required(params, "params", CssParams).alpha, params.phi)
    return _lossy(params, 1.0, norm, _checked(eta, "transmittance", _POSITIVE_UNIT))


def apply_loss(state: MixedCss, ch: ChannelSetting) -> MixedCss:
    """Send the mixture through a lossy line.

    The dephased component rho_0 maps to rho_0(sqrt(eta) alpha), and the
    line adds 2 (1 - eta) alpha^2 to the decoherence L of the mixture.
    """
    params = _required(state, "state", MixedCss).params
    eta = _required(ch, "ch", ChannelSetting).eta
    p = _lossy(params, state.p, _nonzero_norm(params.alpha, params.phi), eta)
    return MixedCss(CssParams(math.sqrt(eta) * params.alpha, params.phi), p)


def _lossy(params: CssParams, p: float, norm: float, eta: float) -> float:
    """The fraction after a line of transmittance eta, which adds 2 (1 - eta) alpha^2 to L."""
    a2 = params.alpha * params.alpha
    lost = 2.0 * (1.0 - eta) * a2 if eta < 1.0 else 0.0
    return _fraction_at(_pair_norm(params.phi, 2.0 * eta * a2), _odds(p, norm), lost)


def theta_of_k(k: float, alpha: float, R: float) -> float:
    """Phase shift theta = 2 sqrt(2 R) alpha k imprinted on the kept mode by
    a homodyne outcome k on the reflected arm. Reported unreduced; compare
    phases mod 2 pi. A theta beyond the float range is a ValueError."""
    k, alpha = _checked(k, "homodyne outcome", _FINITE), _checked(alpha, "amplitude", _NONNEGATIVE)
    return _imprinted(k, alpha, _checked(R, "reflectivity", _UNIT))


def _theta(k: float, alpha: float, R: float) -> float:
    return 2.0 * math.sqrt(2.0 * R) * alpha * k


def _imprinted(k: float, alpha: float, R: float) -> float:
    """theta(k) as a float: 0 at k = 0 for every alpha, else a ValueError
    where it is beyond the float range."""
    theta = _theta(k, alpha, R)
    if not math.isfinite(theta):  # past alpha ~ 9e307 2 sqrt(2 R) alpha alone overflows
        theta = 2.0 * math.sqrt(2.0 * R) * k * alpha
        if math.isinf(theta):
            raise ValueError(f"the imprinted phase 2 sqrt(2R) alpha k overflows at k={k!r}, alpha={alpha!r}")
    return theta


def homodyne_density_css(k: float, params: CssParams, T: float) -> float:
    """Outcome density of the pi/2-quadrature on the tapped arm when the
    input is the pure superposition and the tap transmits T. An outcome
    whose Gaussian factor e^{-k^2} is 0 has density 0, whatever phase it
    would imprint."""
    T = _checked(T, "transmittance", _POSITIVE_UNIT)
    k = _checked(k, "homodyne outcome", _FINITE)
    return _homodyne_density(k, _required(params, "params", CssParams).alpha, params.phi, T)


def _homodyne_density(k: float, alpha: float, phi: float, T: float) -> float:
    """P_C of `homodyne_density_css` on checked floats."""
    norm = _nonzero_norm(alpha, phi)
    density_mix = _gaussian(k)
    if density_mix == 0.0:
        return 0.0
    return _density_css(density_mix, _kept_norm(alpha, phi, T, _theta(k, alpha, 1.0 - T)), norm)


def _kept_norm(alpha: float, phi: float, T: float, theta: float) -> float:
    """N(phi + theta, 2 T alpha^2): P_C is P_0 times it over N(phi, 2 alpha^2),
    and the detection ratio is the inverse of that quotient."""
    return _pair_norm(phi + theta, 2.0 * T * (alpha * alpha))


def _density_css(density_mix: float, kept: float, norm: float) -> float:
    """P_0 kept / norm; the quotient comes first where the product is
    subnormal and has lost bits."""
    product = density_mix * kept
    return product / norm if product >= sys.float_info.min else density_mix * (kept / norm)


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
    T = _checked(T, "transmittance", _POSITIVE_UNIT)
    return _ratio(_required(params, "params", CssParams).alpha, params.phi, T, _checked(theta, "phase", _FINITE))


def _ratio(alpha: float, phi: float, T: float, theta: float) -> float:
    norm, kept = _nonzero_norm(alpha, phi), _kept_norm(alpha, phi, T, theta)
    if kept <= 0.0:
        raise ZeroDensityError("event of zero density: the superposition never produces this outcome")
    return norm / kept


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
    it misses might as well have stayed in the line: the tap, of
    reflectivity eta_H R and outcome density P_C, keeps the decoherence L,
    and the missed light adds 2 (1 - eta_H) R alpha^2 to it. The output has
    amplitude sqrt(T) alpha, phase shift theta = 2 sqrt(2 eta_H R) alpha k
    and the fraction n / (n + expm1(L)) at its pair norm n = N(phi + theta,
    2 T alpha^2), in [0, 1] by construction; an outcome that only the
    dephased component produces leaves fraction 0. An outcome of zero joint
    density raises ZeroDensityError.
    """
    params = _required(state, "state", MixedCss).params
    _warn_if_blind_tap(_required(tap, "tap", TapSetting).T)
    norm = _nonzero_norm(params.alpha, params.phi)
    k = tap.k
    density_mix = _gaussian(k)
    if density_mix == 0.0:
        # no component produces k, and theta(k) may overflow there
        raise _never_occurs(k)
    missed = (1.0 - tap.eta_H) * tap.R
    theta = _imprinted(k, params.alpha, tap.eta_H * tap.R)
    kept = _kept_norm(params.alpha, params.phi, tap.T + missed, theta)
    density_css, p = _density_css(density_mix, kept, norm), state.p
    if p * density_css + (1.0 - p) * density_mix == 0.0:
        raise _never_occurs(k)
    # (2 missed alpha) alpha is 0, not 0 * inf, at missed = 0
    lost = 2.0 * missed * params.alpha * params.alpha
    fraction = _fraction_at(_kept_norm(params.alpha, params.phi, tap.T, theta), _odds(p, norm), lost) if kept else 0.0
    out = MixedCss(CssParams(math.sqrt(tap.T) * params.alpha, params.phi + theta), fraction)
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
    if _required(params, "params", CssParams).alpha <= 0.0:
        raise DegenerateStateError("alpha=0 leaves nothing to purify; the region degenerates")
    _nonzero_norm(params.alpha, params.phi)
    y = 2.0 * R * (params.alpha * params.alpha) if R else 0.0
    bound = math.cos(params.phi) * math.exp(-y)
    if bound >= 1.0:
        return ()
    if bound <= -1.0:
        return ((0.0, TWO_PI),)
    half_width = math.acos(bound)
    center = (-params.phi) % TWO_PI
    lo, hi = center - half_width, center + half_width
    if lo < 0.0:
        pieces = ((0.0, hi), (lo + TWO_PI, TWO_PI))
    elif hi > TWO_PI:
        pieces = ((0.0, hi - TWO_PI), (lo, TWO_PI))
    else:
        return ((lo, hi),)
    return tuple(p for p in pieces if p[0] < p[1])


def optimal_k(params: CssParams, R: float) -> float:
    """Smallest-|k| outcome whose imprinted phase cancels phi.

    Solves theta(k) = -phi (mod 2 pi) with the representative in
    (-pi, pi], which maximizes the Gaussian envelope e^{-k^2}; the sign
    tie at phi = pi resolves to +k. An outcome beyond the float range has
    e^{-k^2} = 0 and never occurs: ZeroDensityError.
    """
    R = _checked(R, "reflectivity", _UNIT)
    if _required(params, "params", CssParams).alpha <= 0.0 or R == 0.0:
        raise PhysicsError("no outcome can imprint a phase when alpha=0 or R=0")
    target = (-params.phi) % TWO_PI
    if target > math.pi:
        target -= TWO_PI
    per_outcome = _theta(1.0, params.alpha, R)
    if math.isinf(per_outcome):  # past alpha ~ 6e307 the phase per unit outcome overflows
        return target / (2.0 * math.sqrt(2.0 * R)) / params.alpha
    # a phase per unit outcome that underflows to 0 reaches a zero target only
    k = target / per_outcome if per_outcome else (math.inf if target else 0.0)
    if math.isinf(k):
        raise ZeroDensityError(
            f"event of zero density: the outcome that cancels the phase at "
            f"alpha={params.alpha!r}, R={R!r} is beyond the float range and never occurs"
        )
    return k


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


# 20 nodes per panel integrate e^{-k^2} to ~1e-14 relative on panels no wider
# than min(3, 9 / |k|) out to |k| = 27.28, below the rounding of e^{-k^2}
# itself there, and cos(c k) on panels up to one period 2 pi / c wide
_GAUSS_LEGENDRE_20 = _gauss_legendre(20)


def window_acceptance(state: MixedCss, T: float, center: float, half_width: float) -> float:
    """Probability that the homodyne outcome lands in
    [center - half_width, center + half_width].

    Reporting plumbing only: the purification results themselves condition
    on exact outcomes (densities), not windows. The joint outcome density
    p P_C + (1-p) P_0 is e^{-k^2} (1 - p + p N(phi + c k) / N(phi)) /
    sqrt(pi), with N the pair norm and c = 2 sqrt(2 R) alpha the phase per
    unit outcome. It is integrated over the part of the window where
    e^{-k^2} is representable (|k| <= 27.28) and within e^{-40} of its
    largest value in the window, by a fixed 20-point Gauss-Legendre rule on
    equal panels no wider than min(3, 9 / K), K the window's largest |k|:
    across such a panel e^{-k^2} changes by at most e^{18}, and past
    |k| = 9 the panels narrow so far tails keep their relative precision.
    While the oscillating term's weight e^{-2 T alpha^2} is above e^{-40}
    a panel is also no wider than one period 2 pi / c. A window wholly
    outside |k| <= 27.28 accepts nothing. The sum is >= 0 term by term; it
    is capped at 1, which a window holding the whole peak can pass by a
    rounding error.
    """
    params = _required(state, "state", MixedCss).params
    norm = _nonzero_norm(params.alpha, params.phi)
    T = _checked(T, "transmittance", _POSITIVE_UNIT)
    center = _checked(center, "window center", _FINITE)
    half_width = _checked(half_width, "window half-width", (0.0, math.inf, "be >= 0"))  # inf spans the whole line
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
    width = min(3.0, 9.0 / max(abs(lo), abs(hi)))
    if kept_y < 40.0 and c > 0.0:
        width = min(width, TWO_PI / c)
    panels = math.ceil((hi - lo) / width)
    half = 0.5 * (hi - lo) / panels
    p, phi = state.p, params.phi
    q = 1.0 - p
    fade = math.expm1(-kept_y)
    weightless = kept_y > _WEIGHTLESS
    total = 0.0
    for i in range(panels):
        mid = lo + (2 * i + 1) * half
        for x, weight in _GAUSS_LEGENDRE_20:
            k = mid + half * x
            if weightless:
                kept = 1.0
            else:  # _pair_norm's arithmetic, in its order
                cos = math.cos(phi + c * k)
                kept = (1.0 + cos) + cos * fade
            total += weight * math.exp(-k * k) * (q + p * (kept / norm))
    return min(total * half / _SQRT_PI, 1.0)


def amplify(state: MixedCss) -> MixedCss:
    """Two-copy linear amplification conditioned on both comparison
    detectors clicking, for any phase.

    Only terms with equal copies survive both clicks, so the output lies in
    the (sqrt(2) alpha, 2 phi) family with fraction

        p_out = M / (M + x (2 + x)),   x = (1-p) N / p,

    where N = 1 + cos(phi) e^{-2 alpha^2} and M = 1 + cos(2 phi) e^{-4 alpha^2}
    are the pair norms of the input and the output cat. x = expm1(L) for
    the input's decoherence L, and x (2 + x) = expm1(2 L): the amplifier
    doubles L as it doubles alpha^2. N only multiplies, so a small odd
    cat, whose N vanishes with alpha, stays finite where N^2 underflows. A
    degenerate input or output pair raises DegenerateStateError.

    The output record and the two pair norms depend on (alpha, phi) alone
    and are computed once per amplitude through a small bounded memo, so a
    scan that holds alpha while p varies pays for them once.
    """
    params = (state if type(state) is MixedCss else _required(state, "state", MixedCss)).params
    if params.alpha <= 0.0:
        raise ValueError("amplification needs alpha > 0")
    out_params, norm_in, norm_out = _amplifier(params.alpha, params.phi)
    x = _odds(state.p, norm_in)
    return MixedCss(out_params, norm_out / (norm_out + x * (2.0 + x)))


# Each memo below holds a handful of amplitudes: a scan holds alpha while the
# fraction varies, so one sweep computes each amplitude's constants once, and
# a second sweep of the same grid starts cold. Exceptions are not cached.
_AMPLITUDES_KEPT = 4


@functools.lru_cache(maxsize=_AMPLITUDES_KEPT)
def _amplifier(alpha: float, phi: float) -> tuple[CssParams, float, float]:
    """(CssParams(sqrt(2) alpha, 2 phi), N, M) of `amplify` at alpha > 0."""
    out_alpha = math.sqrt(2.0) * alpha
    if out_alpha == math.inf:
        raise ValueError(f"amplified amplitude sqrt(2) alpha overflows at alpha={alpha!r}")
    out = CssParams(out_alpha, 2.0 * phi)
    return out, _nonzero_norm(alpha, phi), _nonzero_norm(out_alpha, out.phi)


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
    """Fractions after each stage of the purify-then-amplify concatenation
    of an even cat: (after conditioning two copies at T=1/2, k=0; after
    `amplify` takes the copies, at alpha / sqrt(2) and phase 0, back to alpha).

    As in `amplify`, the constants of an amplitude (here the detection
    ratio and the record of a copy) come from a small bounded memo."""
    if not (type(p_in) is float and _UNIT[0] <= p_in <= _UNIT[1]):
        p_in = _checked(p_in, "fraction", _UNIT)
    if not (type(alpha) is float and _FINITE[0] <= alpha <= _FINITE[1]):
        alpha = _checked(alpha, "alpha", (*_FINITE[:2], "be a finite real >= 0"))
    if alpha <= 0.0:
        raise ValueError("concatenation needs alpha > 0")
    ratio, copy = _concat_constants(alpha)
    p_mid = _posterior(p_in, ratio)
    return p_mid, amplify(MixedCss(copy, p_mid)).p


@functools.lru_cache(maxsize=_AMPLITUDES_KEPT)
def _concat_constants(alpha: float) -> tuple[float, CssParams]:
    """The T=1/2, theta=0 detection ratio of `concat_stages` at alpha, and
    the record CssParams(alpha / sqrt(2), 0) of one copy."""
    return _ratio(alpha, 0.0, 0.5, 0.0), CssParams(alpha / math.sqrt(2.0), 0.0)


def purity_mixed_css(state: MixedCss) -> float:
    """Tr[rho^2] of the mixture, in closed form from coherent overlaps.

    With g = e^{-2 alpha^2}: the cross term uses the overlap of the
    superposition with the dephased pair, tr[rho_css rho_0] =
    (1 + 2 g cos(phi) + g^2) / (2 (1 + g cos(phi))), and
    tr[rho_0^2] = (1 + g^2)/2.
    """
    params, p = _required(state, "state", MixedCss).params, state.p
    norm = _nonzero_norm(params.alpha, params.phi)
    g = math.exp(-2.0 * (params.alpha * params.alpha))
    cross = (1.0 + 2.0 * g * math.cos(params.phi) + g * g) / (2.0 * norm)
    return p * p + 2.0 * p * (1.0 - p) * cross + (1.0 - p) ** 2 * (1.0 + g * g) / 2.0
