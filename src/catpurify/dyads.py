"""Exact simulation of cat-state protocols on coherent dyads.

Every state that the protocols here can produce is a finite sum

    rho = sum_i c_i |k_i1 ... k_im><b_i1 ... b_im|

of multimode coherent dyads. Linear loss, beam splitters, quadrature
projections and on/off photodetection each map such sums to such sums,
so the whole pipeline can be evaluated in closed form with no Fock-space
truncation. A state is held as three arrays (coefficients, ket and bra
amplitudes) and every operation acts on all terms at once. This module is
the brute-force oracle used to cross-check the formulas in
:mod:`catpurify.analytic`; it shares no derivation with them beyond the
coherent-state overlap.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateStateError, StateFamilyError, ZeroDensityError
from .states import TWO_PI, CssParams, MixedCss

__all__ = [
    "DyadState",
    "overlap",
    "make_coherent",
    "make_incoherent",
    "make_css",
    "make_mixed",
    "tensor",
    "attach_vacuum",
    "trace",
    "normalize",
    "merge_terms",
    "loss_on_dyad",
    "bs_on_product",
    "homodyne_amplitude",
    "project_quadrature",
    "project_click",
    "extract_fraction",
    "purity",
    "gram_norm",
    "expect_coherent",
    "hermiticity_defect",
    "amplifier_sim",
]

PRUNE_TOL = 1e-15
_QUARTIC_ROOT_PI = math.pi ** (-0.25)
_MIN_DENSITY = 1e-300


@dataclass(frozen=True, eq=False)
class DyadState:
    """sum_i coeff[i] |ket[i]><bra[i]|: `coeff` has shape [n], `ket` and
    `bra` have shape [n, m] with one column per mode.

    No operation here changes these arrays in place, and derived states
    may share them, so treat them as read-only.
    """

    coeff: np.ndarray
    ket: np.ndarray
    bra: np.ndarray

    def __post_init__(self) -> None:
        coeff = np.asarray(self.coeff, dtype=complex)
        ket = np.asarray(self.ket, dtype=complex)
        bra = np.asarray(self.bra, dtype=complex)
        if ket.ndim != 2 or ket.shape != bra.shape or ket.shape[1] < 1:
            raise ValueError("ket and bra must list the same nonzero number of modes")
        if coeff.shape != ket.shape[:1]:
            raise ValueError("one coefficient per dyad is required")
        if not np.isfinite(coeff).all():
            raise ValueError("dyad coefficients must be finite")
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "ket", ket)
        object.__setattr__(self, "bra", bra)

    @property
    def mode_count(self) -> int:
        return self.ket.shape[1]


def _overlap(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """<left|right> across the last (mode) axis, broadcast over the others."""
    # sum_j conj(l_j) (r_j - l_j/2) - |r_j|^2/2; vecdot conjugates its first argument
    return np.exp(np.vecdot(left, right - 0.5 * left) - 0.5 * np.vecdot(right, right))


def _gram(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """G[i, j] = <left[i]|right[j]> for two [n, m] amplitude arrays."""
    return _overlap(left[:, None], right[None])


def overlap(beta: complex, gamma: complex) -> complex:
    """Coherent overlap <beta|gamma> = exp(-|beta|^2/2 - |gamma|^2/2 + conj(beta)*gamma)."""
    return complex(_overlap(np.array([beta], complex), np.array([gamma], complex)))


def _weighted_sum(*parts: tuple[float, DyadState]) -> DyadState:
    """sum_k w_k * state_k with all terms kept as they are."""
    return DyadState(
        np.concatenate([w * s.coeff for w, s in parts]),
        np.concatenate([s.ket for _, s in parts]),
        np.concatenate([s.bra for _, s in parts]),
    )


def merge_terms(state: DyadState, tol: float = PRUNE_TOL) -> DyadState:
    """Combine terms with identical dyads and drop those below `tol`.

    Dyads match on exact amplitude equality (so -0.0 and +0.0 match), and
    terms keep the order of each dyad's first occurrence.
    """
    rows = np.concatenate([state.ket, state.bra], axis=1).tolist()
    first: dict[tuple[complex, ...], int] = {}
    owner = [first.setdefault(tuple(row), i) for i, row in enumerate(rows)]
    summed = state.coeff
    if len(first) < len(owner):
        summed = np.zeros_like(summed)
        np.add.at(summed, owner, state.coeff)  # each sum lands on its first occurrence
    lead = np.fromiter(first.values(), dtype=np.intp, count=len(first))
    kept = lead[np.abs(summed[lead]) >= tol]
    if len(kept) == len(owner):
        return state
    return DyadState(summed[kept], state.ket[kept], state.bra[kept])


def trace(state: DyadState) -> complex:
    """Trace; the trace of c|k><b| is c * prod_j <b_j|k_j>."""
    return complex(state.coeff @ _overlap(state.bra, state.ket))


def normalize(state: DyadState) -> DyadState:
    """Rescale to unit trace. Rejects states of (near-)zero weight, which
    arise when conditioning on an impossible measurement record."""
    tr = trace(state).real
    if tr < _MIN_DENSITY:
        raise ZeroDensityError("cannot normalize a state of vanishing trace")
    return merge_terms(DyadState(state.coeff / tr, state.ket, state.bra))


def make_coherent(*amplitudes: complex) -> DyadState:
    """Density operator of a product coherent state, one amplitude per mode."""
    if not amplitudes:
        raise ValueError("at least one mode amplitude is required")
    return DyadState([1.0], [amplitudes], [amplitudes])


def _dephased_dyads(alpha: float) -> DyadState:
    """(|alpha><alpha| + |-alpha><-alpha|)/2, its two terms unmerged."""
    amps = [[alpha], [-alpha]]
    return DyadState([0.5, 0.5], amps, amps)


def make_incoherent(alpha: float) -> DyadState:
    """The fully dephased pair: equal mixture of |alpha> and |-alpha>."""
    return merge_terms(_dephased_dyads(alpha))


def _css_dyads(params: CssParams) -> DyadState:
    """The unnormalized density of |alpha> + e^{i phi}|-alpha>; its trace
    is the squared norm of that superposition."""
    a = params.alpha
    phase = cmath.exp(1j * params.phi)
    return DyadState(
        [1.0, phase.conjugate(), phase, 1.0],
        [[a], [a], [-a], [-a]],
        [[a], [-a], [a], [-a]],
    )


def make_css(params: CssParams) -> DyadState:
    """Normalized density of the superposition |alpha> + e^{i phi}|-alpha>."""
    if params.is_degenerate:
        raise DegenerateStateError(
            f"the superposition at alpha={params.alpha!r}, phi={params.phi!r} has zero norm"
        )
    return normalize(_css_dyads(params))


def make_mixed(state: MixedCss) -> DyadState:
    """Dyad form of p * rho_css + (1 - p) * rho_0.

    The dyads of rho_0 are two of those of rho_css, so the merged sum
    lists the terms of rho_css."""
    if state.p == 0.0:
        return make_incoherent(state.params.alpha)
    return merge_terms(
        _weighted_sum(
            (state.p, make_css(state.params)),
            (1.0 - state.p, _dephased_dyads(state.params.alpha)),
        )
    )


def tensor(left: DyadState, right: DyadState) -> DyadState:
    """Product of every term of `left` with every term of `right`, left-major."""
    i, j = np.divmod(np.arange(len(left.coeff) * len(right.coeff)), len(right.coeff))
    return DyadState(
        left.coeff[i] * right.coeff[j],
        np.concatenate([left.ket[i], right.ket[j]], axis=1),
        np.concatenate([left.bra[i], right.bra[j]], axis=1),
    )


def attach_vacuum(state: DyadState) -> DyadState:
    """Append one vacuum mode."""
    return tensor(state, make_coherent(0.0))


def _check_mode(state: DyadState, mode: int) -> None:
    if not 0 <= mode < state.mode_count:
        raise ValueError(f"mode index {mode} out of range for {state.mode_count} modes")


def loss_on_dyad(state: DyadState, mode: int, eta: float) -> DyadState:
    """Linear loss of transmittance eta on one mode.

    On a single dyad |a1><a2| the environment trace leaves the amplitudes
    scaled by sqrt(eta) and multiplies the coefficient by
    exp[-(1-eta)/2 * (|a1|^2 + |a2|^2 - 2 a1 conj(a2))], which is 1 on the
    diagonal, so the channel is trace preserving.
    """
    _check_mode(state, mode)
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"loss transmittance must lie in (0, 1], got {eta!r}")
    if eta == 1.0:
        return state
    a1 = state.ket[:, mode]
    a2 = state.bra[:, mode]
    factor = np.exp(
        -0.5 * (1.0 - eta) * (np.abs(a1) ** 2 + np.abs(a2) ** 2 - 2.0 * a1 * a2.conj())
    )
    sides = np.array((state.ket, state.bra))
    sides[..., mode] *= math.sqrt(eta)
    return DyadState(state.coeff * factor, *sides)


def bs_on_product(state: DyadState, modes: tuple[int, int], T: float) -> DyadState:
    """Beam splitter of transmittance T across two modes.

    Coherent amplitudes mix as (a, b) -> (sqrt(T) a - sqrt(R) b,
    sqrt(R) a + sqrt(T) b) with R = 1 - T, so |alpha>|0> goes to
    |sqrt(T) alpha>|sqrt(R) alpha> and coefficients are unchanged.
    """
    ma, mb = modes
    _check_mode(state, ma)
    _check_mode(state, mb)
    if ma == mb:
        raise ValueError("beam splitter needs two distinct modes")
    if not 0.0 <= T <= 1.0:
        raise ValueError(f"transmittance must lie in [0, 1], got {T!r}")
    ct = math.sqrt(T)
    cr = math.sqrt(1.0 - T)
    sides = np.array((state.ket, state.bra))
    a, b = sides[..., ma], sides[..., mb]
    sides[..., ma], sides[..., mb] = ct * a - cr * b, cr * a + ct * b
    return DyadState(state.coeff, *sides)


def homodyne_amplitude(beta: complex, x: float, lam: float) -> complex:
    """Amplitude <x_lam|beta> of finding quadrature value x at local
    oscillator phase lam on a coherent state; `beta` may also be an array
    of amplitudes.

    Convention: x_lam = (a e^{-i lam} + a^dagger e^{i lam}) / sqrt(2), so

        <x_lam|beta> = pi^{-1/4} exp(-x^2/2 + sqrt(2) e^{-i lam} x beta
                                     - e^{-2 i lam} beta^2 / 2 - |beta|^2 / 2).

    For real beta this satisfies <x_{pi/2}|-beta> =
    e^{i 2 sqrt(2) x beta} <x_{pi/2}|beta> identically.
    """
    beta = np.asarray(beta, dtype=complex)
    rot = cmath.exp(-1j * lam)
    return _QUARTIC_ROOT_PI * np.exp(
        -0.5 * x * x
        + math.sqrt(2.0) * rot * x * beta
        - 0.5 * rot * rot * beta * beta
        - 0.5 * (beta.real**2 + beta.imag**2)
    )


def _drop_mode(state: DyadState, mode: int, coeff: np.ndarray) -> DyadState:
    """The terms with new coefficients and one mode's column removed."""
    if state.mode_count < 2:
        raise ValueError("projection would leave no modes; keep at least one")
    kept = [j for j in range(state.mode_count) if j != mode]
    return DyadState(coeff, state.ket[:, kept], state.bra[:, kept])


def project_quadrature(
    state: DyadState, mode: int, x: float, lam: float
) -> tuple[DyadState, float]:
    """Condition on a homodyne outcome x (local-oscillator phase lam) on one mode.

    The measured mode collapses to scalar amplitudes on ket and bra sides;
    the function returns the remaining modes renormalized to unit trace,
    together with the outcome density (trace of the unnormalized result).
    """
    _check_mode(state, mode)
    sides = np.array((state.ket[:, mode], state.bra[:, mode]))
    amp_k, amp_b = homodyne_amplitude(sides, x, lam)
    reduced = _drop_mode(state, mode, state.coeff * amp_k * amp_b.conj())
    density = trace(reduced).real
    if density < _MIN_DENSITY:
        raise ZeroDensityError(f"homodyne density vanishes at x={x!r}")
    return normalize(reduced), density


def project_click(state: DyadState, mode: int) -> tuple[DyadState, float]:
    """Apply the on/off POVM element 1 - |0><0| on a mode and trace it out.

    Per dyad, tr_mode[(1 - |0><0|) |k><b|] = <b|k> - <b|0><0|k>, so the
    result stays a finite dyad combination. Returns the unnormalized
    conditional state (its trace is the click weight relative to the
    input) and the click probability. Probability 0 is a valid return;
    normalizing the conditional state then raises.
    """
    _check_mode(state, mode)
    k = state.ket[:, mode]
    b = state.bra[:, mode]
    # <b|k> - <b|0><0|k> = <b|0><0|k> (e^{conj(b) k} - 1)
    weight = np.exp(-0.5 * (np.abs(b) ** 2 + np.abs(k) ** 2)) * np.expm1(b.conj() * k)
    reduced = merge_terms(_drop_mode(state, mode, state.coeff * weight))
    probability = trace(reduced).real
    return reduced, max(probability, 0.0)


def gram_norm(state: DyadState) -> float:
    """Hilbert-Schmidt norm sqrt(tr[X^dagger X]) evaluated through coherent
    Gram overlaps, valid for arbitrary (non-Hermitian) dyad combinations:
    tr[X^dagger X] = sum_ij conj(c_i) c_j <k_i|k_j> <b_j|b_i>."""
    pairs = _gram(state.ket, state.ket) * _gram(state.bra, state.bra).T
    return math.sqrt(max((state.coeff.conj() @ pairs @ state.coeff).real, 0.0))


def expect_coherent(state: DyadState, gammas: Sequence[complex]) -> float:
    """Diagonal expectation <gamma_1 ... gamma_m| rho |gamma_1 ... gamma_m>."""
    if len(gammas) != state.mode_count:
        raise ValueError("one probe amplitude per mode is required")
    probe = np.asarray(gammas, dtype=complex)
    weights = state.coeff * _overlap(probe, state.ket) * _overlap(state.bra, probe)
    return float(weights.sum().real)


def hermiticity_defect(state: DyadState) -> float:
    """Largest coefficient mismatch between each dyad and its conjugate."""
    merged = merge_terms(state, tol=0.0)
    ket, bra = merged.ket, merged.bra
    mirrors = (ket[:, None] == bra[None]).all(-1) & (bra[:, None] == ket[None]).all(-1)
    mirror = mirrors @ merged.coeff  # merged dyads are distinct: one match at most
    return float(np.abs(merged.coeff - mirror.conj()).max(initial=0.0))


def purity(state: DyadState) -> float:
    """Tr[rho^2] through the pairwise Gram overlaps of the dyad terms."""
    tr = trace(state).real
    if abs(tr - 1.0) > 1e-8:
        raise StateFamilyError(f"purity expects a unit-trace state, trace was {tr!r}")
    # tr[rho^2] = sum_ij c_i c_j <b_i|k_j> <b_j|k_i>
    cross = _gram(state.bra, state.ket)
    return float((state.coeff @ (cross * cross.T) @ state.coeff).real)


def _css_fidelity(params: CssParams, norm: float, state: DyadState) -> float:
    """<psi|rho|psi> for psi = (|alpha> + e^{i phi}|-alpha>)/sqrt(norm) and
    a single-mode rho, from the amplitudes <psi|beta> of its kets and bras."""
    branches = np.array([params.alpha, -params.alpha])[:, None, None]
    weights = np.array([1.0, cmath.exp(-1j * params.phi)])
    sides = np.array((state.ket, state.bra))[:, None]
    on_ket, on_bra = weights @ _overlap(branches, sides)
    return float((state.coeff @ (on_ket * on_bra.conj())).real) / norm


def extract_fraction(state: DyadState, params: CssParams) -> float:
    """Recover p from rho = p * rho_css(params) + (1 - p) * rho_0(alpha).

    Inverts the decomposition through the fidelity F = <psi|rho|psi>:
    with F0 the fidelity of rho_0 against the superposition,
    p = (F - F0)/(1 - F0). Both come from coherent overlaps, with the
    norm of psi taken from the trace of its unnormalized density. A
    residual check in the dyad Gram norm confirms the input actually lies
    in the two-component family; failure signals a physics bug upstream
    rather than a recoverable condition.
    """
    if state.mode_count != 1:
        raise ValueError("fraction extraction expects a single-mode state")
    if params.is_degenerate:
        raise DegenerateStateError("cannot extract against the zero-norm superposition")
    if params.alpha == 0.0:
        raise StateFamilyError(
            "the two-component family collapses at alpha=0; the fraction is undefined"
        )
    css = _css_dyads(params)
    dephased = _dephased_dyads(params.alpha)
    norm = trace(css).real
    f0 = _css_fidelity(params, norm, dephased)
    p = (_css_fidelity(params, norm, state) - f0) / (1.0 - f0)

    rest = _weighted_sum((1.0, state), (-p / norm, css), (p - 1.0, dephased))
    residual = gram_norm(merge_terms(rest, tol=0.0))
    if residual > 1e-9:
        raise StateFamilyError(
            f"state outside model family: residual {residual:.3e} exceeds 1e-9"
        )
    return min(max(p, 0.0), 1.0)


def amplifier_sim(state_fraction: float, params: CssParams) -> float:
    """Simulate the two-copy linear amplifier on dyads and return the
    output CSS fraction.

    Two copies of the input mixture interfere on a balanced beam splitter;
    the difference port is compared against a coherent ancilla of amplitude
    sqrt(2) alpha on a second balanced beam splitter, and both comparison
    ports must register a click. The surviving mode is then a mixture in
    the (sqrt(2) alpha, 2 phi) family, whose fraction is extracted exactly.
    """
    if not 0.0 <= state_fraction <= 1.0:
        raise ValueError(f"state fraction must lie in [0, 1], got {state_fraction!r}")
    if params.alpha <= 0.0:
        raise ValueError("amplification needs alpha > 0")
    copy = make_mixed(MixedCss(params, state_fraction))
    joint = tensor(copy, copy)
    joint = bs_on_product(joint, (0, 1), 0.5)  # mode 0 difference, mode 1 sum
    joint = tensor(joint, make_coherent(math.sqrt(2.0) * params.alpha))
    joint = bs_on_product(joint, (0, 2), 0.5)
    joint, _ = project_click(joint, 2)
    joint, _ = project_click(joint, 0)
    weight = trace(joint).real
    if weight < _MIN_DENSITY:
        raise ZeroDensityError("both-click coincidence has vanishing probability")
    conditioned = normalize(joint)
    out_params = CssParams(math.sqrt(2.0) * params.alpha, (2.0 * params.phi) % TWO_PI)
    return extract_fraction(conditioned, out_params)
