"""High-precision references for the paper's formulas.

Written from the physics with mpmath at 50 significant digits and sharing
no code with catpurify, so a check against them does not inherit the
package's float cancellation or its quadrature. Every function takes and
returns plain numbers; arguments are converted exactly (a float is a
binary fraction, which mpmath represents without rounding).

The model: a mixture p |psi><psi| + (1-p) rho_0 with
|psi> = (|a> + e^{i phi}|-a>)/sqrt(N), N = 2(1 + cos(phi) e^{-2a^2}) and
rho_0 = (|a><a| + |-a><-a|)/2. A beam splitter of transmittance T sends
|+-a>|0> to |+-sqrt(T) a>|+-sqrt(R) a>, R = 1 - T; the pi/2 quadrature
of a real coherent amplitude b has amplitude pi^{-1/4} e^{-k^2/2}
e^{-i sqrt(2) k b}, so the two branches of the tapped arm differ by the
phase theta = 2 sqrt(2 R) a k.
"""

from __future__ import annotations

import math

import mpmath
from mpmath import mp, mpf

mp.dps = 50

__all__ = [
    "loss_fraction",
    "density_css",
    "density_mix",
    "ideal_fraction",
    "detector_fraction",
    "amplify",
    "amplification_threshold",
    "concat_stages",
    "purity",
    "window_acceptance",
    "optimal_theta_offset",
    "success_half_width",
    "close",
    "close_phase",
]


def _m(x) -> mpf:
    return x if isinstance(x, mpf) else mpf(x)


def _norm(a: mpf, phi: mpf) -> mpf:
    """1 + cos(phi) e^{-2a^2}: half the squared norm of |a> + e^{i phi}|-a>."""
    return 1 + mpmath.cos(phi) * mpmath.exp(-2 * a * a)


def loss_fraction(eta, alpha, phi) -> float:
    """Surviving cat fraction of a pure cat after a line of transmittance eta.

    The environment picks up |+-sqrt(1-eta) a>; tracing it out multiplies the
    cross terms by <-b|b> = e^{-2 b^2}, b^2 = (1-eta) a^2, while the kept
    amplitude shrinks to sqrt(eta) a. Matching the cross-term weight of the
    output family gives the fraction below.
    """
    eta, a, phi = _m(eta), _m(alpha), _m(phi)
    kept = 1 + mpmath.cos(phi) * mpmath.exp(-2 * eta * a * a)
    return float(kept / _norm(a, phi) * mpmath.exp(-2 * (1 - eta) * a * a))


def _density_css(k: mpf, a: mpf, phi: mpf, T: mpf) -> mpf:
    theta = 2 * mpmath.sqrt(2 * (1 - T)) * a * k
    gauss = mpmath.exp(-k * k) / mpmath.sqrt(mpmath.pi)
    return gauss * (1 + mpmath.cos(phi + theta) * mpmath.exp(-2 * T * a * a)) / _norm(a, phi)


def density_css(k, alpha, phi, T) -> float:
    """Outcome density P_C(k) of the pi/2 quadrature on the tapped arm for
    the pure cat: the two branch amplitudes interfere with relative phase
    phi + theta and overlap e^{-2 T a^2} on the kept arm."""
    return float(_density_css(_m(k), _m(alpha), _m(phi), _m(T)))


def density_mix(k) -> float:
    """Outcome density P_0(k) of the dephased pair: a unit Gaussian."""
    k = _m(k)
    return float(mpmath.exp(-k * k) / mpmath.sqrt(mpmath.pi))


def ideal_fraction(p, alpha, phi, T, k) -> float:
    """Conditional cat fraction after an ideal quadrature outcome k:
    Bayes' rule on the two component densities."""
    p, k = _m(p), _m(k)
    pc = _density_css(k, _m(alpha), _m(phi), _m(T))
    p0 = mpmath.exp(-k * k) / mpmath.sqrt(mpmath.pi)
    return float(p * pc / (p * pc + (1 - p) * p0))


def detector_fraction(p, alpha, phi, T, k, eta_H) -> float:
    """Conditional cat fraction with detector efficiency eta_H, modeled as a
    loss eta_H on the tapped arm before an ideal projection.

    In the branch basis {|+>, |->} the tapped arm's loss damps the cross
    terms by D = e^{-2 (1-eta_H) R a^2} and rescales the imprinted phase to
    theta = 2 sqrt(2 eta_H R) a k. The kept-arm cross coefficient is then
    p D e^{-i(phi+theta)} / N against a trace of
    p (1 + D cos(phi+theta) e^{-2Ta^2}) / (N/2) + (1 - p); the output family
    at phase phi + theta has cross coefficient p' / N'.
    """
    p, a, phi, T, k, eta = _m(p), _m(alpha), _m(phi), _m(T), _m(k), _m(eta_H)
    R = 1 - T
    theta = 2 * mpmath.sqrt(2 * eta * R) * a * k
    damp = mpmath.exp(-2 * (1 - eta) * R * a * a)
    env = mpmath.exp(-2 * T * a * a)
    c = mpmath.cos(phi + theta)
    n = _norm(a, phi)
    joint = p * (1 + damp * c * env) / n + (1 - p)
    return float(p * damp * (1 + c * env) / n / joint)


def _amplify(p: mpf, a: mpf, s: int) -> mpf:
    gate = 1 + s * mpmath.exp(-2 * a * a)
    coeff = (1 + mpmath.exp(-4 * a * a)) / (gate * gate)
    den = coeff * p * p + 2 * p * (1 - p) / gate + (1 - p) ** 2
    return coeff * p * p / den


def amplify(p, alpha, phi) -> float:
    """Two-copy coincidence amplifier for phi in {0, pi}: with
    g2 = e^{-2a^2}, g4 = e^{-4a^2} and s = +1 (phi=0) or -1 (phi=pi),
    p' = A p^2 / (A p^2 + 2p(1-p)/(1 + s g2) + (1-p)^2),
    A = (1 + g4)/(1 + s g2)^2."""
    if phi == 0.0:
        s = 1
    elif phi == math.pi:
        s = -1
    else:
        raise ValueError("the amplifier reference covers phi in {0, pi}")
    return float(_amplify(_m(p), _m(alpha), s))


def amplification_threshold(alpha) -> float:
    """Input fraction at which the phi=pi amplifier maps p to itself:
    (e^{2a^2} - 1)^2 / 2."""
    a = _m(alpha)
    return float(mpmath.expm1(2 * a * a) ** 2 / 2)


def concat_stages(p, alpha) -> tuple[float, float]:
    """Purify two copies at T=1/2 on the outcome k=0 (phi=0), then amplify
    them back: the first stage multiplies the odds p/(1-p) by
    P_C(0)/P_0(0) = (1 + e^{-a^2}) / (1 + e^{-2a^2}); the second is the
    amplifier at amplitude a/sqrt(2)."""
    p, a = _m(p), _m(alpha)
    gain = (1 + mpmath.exp(-a * a)) / (1 + mpmath.exp(-2 * a * a))
    mid = p * gain / (p * gain + 1 - p)
    return float(mid), float(_amplify(mid, a / mpmath.sqrt(2), 1))


def purity(p, alpha, phi) -> float:
    """Tr rho^2 from coherent overlaps: tr(rho_css^2) = 1,
    tr(rho_css rho_0) = (1 + 2g cos(phi) + g^2) / (2(1 + g cos(phi))) and
    tr(rho_0^2) = (1 + g^2)/2 with g = e^{-2a^2}."""
    p, a, phi = _m(p), _m(alpha), _m(phi)
    g = mpmath.exp(-2 * a * a)
    c = mpmath.cos(phi)
    cross = (1 + 2 * g * c + g * g) / (2 * (1 + g * c))
    return float(p * p + 2 * p * (1 - p) * cross + (1 - p) ** 2 * (1 + g * g) / 2)


def window_acceptance(p, alpha, phi, T, center, half_width) -> float:
    """Probability of an outcome in [center - w, center + w], by
    mpmath.quad of p P_C + (1-p) P_0 on unit sub-intervals (30 digits are
    ample for a double-precision comparison and keep the cost down)."""
    with mp.workdps(30):
        p, a, phi, T = _m(p), _m(alpha), _m(phi), _m(T)
        lo, hi = _m(center) - _m(half_width), _m(center) + _m(half_width)
        pieces = max(1, int(math.ceil(float(hi - lo))))
        nodes = [lo + (hi - lo) * i / pieces for i in range(pieces + 1)]
        n = _norm(a, phi)
        theta_per_k = 2 * mpmath.sqrt(2 * (1 - T)) * a
        env = mpmath.exp(-2 * T * a * a)
        root_pi = mpmath.sqrt(mpmath.pi)

        def joint(k):
            gauss = mpmath.exp(-k * k) / root_pi
            return gauss * (p * (1 + mpmath.cos(phi + theta_per_k * k) * env) / n + 1 - p)

        return float(mpmath.quad(joint, nodes))


def optimal_theta_offset(phi, alpha, R, k) -> float:
    """Distance, mod 2 pi, between phi + theta(k) and 0: zero at an outcome
    that cancels the superposition phase."""
    phi, a, R, k = _m(phi), _m(alpha), _m(R), _m(k)
    total = mpmath.fmod(phi + 2 * mpmath.sqrt(2 * R) * a * k, 2 * mpmath.pi)
    if total < 0:
        total += 2 * mpmath.pi
    return float(min(total, 2 * mpmath.pi - total))


def success_half_width(alpha, phi, R) -> float:
    """Half-width of the arc of theta around -phi where P_0/P_C < 1:
    cos(phi + theta) > cos(phi) e^{-2 R a^2}."""
    a, phi, R = _m(alpha), _m(phi), _m(R)
    return float(mpmath.acos(mpmath.cos(phi) * mpmath.exp(-2 * R * a * a)))


def close(value: float, ref: float, rel: float = 1e-10, abs_: float = 1e-12) -> bool:
    """|value - ref| within abs_ + rel |ref|; NaN and infinities never pass."""
    return math.isfinite(value) and abs(value - ref) <= abs_ + rel * abs(ref)


def close_phase(value: float, ref: float, tol: float = 1e-10) -> bool:
    """Angles equal modulo 2 pi."""
    if not math.isfinite(value):
        return False
    d = math.fmod(abs(value - ref), 2.0 * math.pi)
    return min(d, 2.0 * math.pi - d) <= tol
