"""Exact simulation of cat-state protocols on coherent dyads.

Every state that the protocols here can produce is a finite sum

    rho = sum_i c_i |k_i1 ... k_im><b_i1 ... b_im|

of multimode coherent dyads. Linear loss, beam splitters, quadrature
projections and on/off photodetection each map such sums to such sums,
so the whole pipeline can be evaluated in closed form with no Fock-space
truncation. A state is held as three arrays (coefficients, ket and bra
amplitudes) and every operation acts on all terms at once. A leading
batch axis holds many states of one term layout, one per batch member,
and every operation then acts on all members at once. This module is
the brute-force oracle used to cross-check the formulas in
:mod:`catpurify.analytic`; it shares no derivation with them beyond the
coherent-state overlap.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Sequence

import numpy as np

from .errors import DegenerateStateError, StateFamilyError, ZeroDensityError
from .states import (
    _FINITE, _POSITIVE_UNIT, _UNIT, TWO_PI, CssParams, MixedCss, _checked, _nonzero_norm,
)

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

    A batch of B such states with one term layout adds a leading axis:
    `coeff` [B, n], `ket` and `bra` [B, n, m]. Member b (coeff[b], ket[b],
    bra[b]) goes through every operation as it would alone, except that
    `merge_terms` merges or drops a term only where it may in every member.
    Functions that return a number return one per member, as an array.
    Parameters that take one value per member (transmittances, outcomes)
    also take a single value for all of them.

    The constructor converts and checks what it is given; a state that this
    module builds has only its coefficients checked, for finiteness. Such
    states may share arrays, never changed in place, so treat them as read-only.
    """

    coeff: np.ndarray
    ket: np.ndarray
    bra: np.ndarray

    def __post_init__(self) -> None:
        coeff = np.asarray(self.coeff, dtype=complex)
        ket = np.asarray(self.ket, dtype=complex)
        bra = np.asarray(self.bra, dtype=complex)
        if ket.ndim not in (2, 3) or ket.shape != bra.shape or ket.shape[-1] < 1:
            raise ValueError(
                "ket and bra must share one shape, [n, m] or [batch, n, m], with m >= 1 modes"
            )
        if coeff.shape != ket.shape[:-1]:
            raise ValueError("one coefficient per dyad and batch member is required")
        _derived(coeff, ket, bra, self)

    @property
    def mode_count(self) -> int:
        return self.ket.shape[-1]


def _derived(coeff: np.ndarray, ket: np.ndarray, bra: np.ndarray, state=None) -> DyadState:
    """A state (`state` if given) of complex arrays that match: only the coefficients are checked."""
    if not all(np.isfinite(coeff).ravel().tolist()):  # for a few terms, faster than .all()
        raise ValueError("dyad coefficients must be finite")
    state = object.__new__(DyadState) if state is None else state
    vars(state).update(coeff=coeff, ket=ket, bra=bra)
    return state


def _stack_last(*parts: np.ndarray) -> np.ndarray:
    """Equal-shape arrays of at most one (batch) axis, stacked as complex along a new last axis."""
    return np.array(parts, dtype=complex).T


def _scalar_or_batch(values: np.ndarray) -> complex | float | np.ndarray:
    """A Python scalar for an unbatched state, one array entry per member otherwise."""
    return values.item() if values.ndim == 0 else values


def _first(values, where: np.ndarray):
    """The first entry of `values`, broadcast to `where`, at which `where` holds."""
    return np.broadcast_to(values, where.shape)[where][0].item()


def _require_in(values: np.ndarray, name: str, domain: tuple[float, float, str]) -> None:
    """The array form of `states._checked`: the error names the first
    value outside the domain."""
    lo, hi, must = domain
    outside = ~((lo <= values) & (values <= hi))
    if outside.any():
        raise ValueError(f"{name} must {must}, got {_first(values, outside)!r}")


def _per_member(
    state: DyadState, value, name: str, domain: tuple[float, float, str]
) -> float | np.ndarray:
    """A setting in `domain`: a Python float as it is, or else a float array
    with a trailing term axis, a scalar or one value per batch member."""
    if type(value) is float:
        return _checked(value, name, domain)
    values = np.asarray(value, dtype=float)
    if values.ndim and values.shape != state.coeff.shape[:-1]:
        raise ValueError(f"{name} takes one value, or one per batch member")
    _require_in(values, name, domain)
    return values[..., None]


def _overlap(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """<left|right> across the last (mode) axis, broadcast over the others."""
    # sum_j conj(l_j) (r_j - l_j/2) - |r_j|^2/2; vecdot conjugates its first argument
    return np.exp(np.vecdot(left, right - 0.5 * left) - 0.5 * np.vecdot(right, right))


def _gram(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """G[..., i, j] = <left[..., i]|right[..., j]> for two [..., n, m] amplitude arrays."""
    return _overlap(left[..., :, None, :], right[..., None, :, :])


def _bilinear(left: np.ndarray, matrix: np.ndarray, right: np.ndarray) -> np.ndarray:
    """sum_ij left_i matrix_ij right_j for each batch member."""
    return (left[..., None, :] @ matrix @ right[..., :, None])[..., 0, 0]


def overlap(beta: complex, gamma: complex) -> complex:
    """Coherent overlap <beta|gamma> = exp(-|beta|^2/2 - |gamma|^2/2 + conj(beta)*gamma)."""
    return complex(_overlap(np.array([beta], complex), np.array([gamma], complex)))


def _weighted_sum(*parts: tuple[object, DyadState]) -> DyadState:
    """sum_k w_k * state_k with all terms kept as they are; a weight is a
    scalar or one value per batch member."""
    return _derived(
        np.concatenate([np.asarray(w)[..., None] * s.coeff for w, s in parts], axis=-1),
        np.concatenate([s.ket for _, s in parts], axis=-2),
        np.concatenate([s.bra for _, s in parts], axis=-2),
    )


def _members(*parts: tuple[DyadState, slice]) -> DyadState:
    """The chosen members of each batch, joined in order into one batch;
    the batches must share one term layout."""
    return _derived(*(
        np.concatenate([getattr(state, side)[chosen] for state, chosen in parts])
        for side in ("coeff", "ket", "bra")
    ))


def merge_terms(state: DyadState, tol: float = PRUNE_TOL) -> DyadState:
    """Combine terms with identical dyads and drop those below `tol`.

    Dyads match on exact amplitude equality (-0.0 matches +0.0, NaN
    nothing), and terms keep the order of each dyad's first occurrence.
    In a batch, two terms merge only if their amplitudes match in every
    member, and a term is dropped only if it is below `tol` in every member.
    """
    terms = state.coeff.shape[-1]
    if not state.coeff.size:  # no terms, or no member to keep one in
        return _derived(state.coeff[..., :0], state.ket[..., :0, :], state.bra[..., :0, :])
    amps = np.concatenate([state.ket, state.bra], axis=-1)
    # one row per term; adding 0.0 turns -0.0 into +0.0, so equal rows hold equal bytes
    rows = np.add(amps.swapaxes(0, -2), 0.0, order="C").reshape(terms, -1)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().tolist()
    first: dict[bytes | int, int] = {}
    owner = [first.setdefault(key, i) for i, key in enumerate(keys)]
    if len(first) < terms and np.isnan(rows).any():  # a row holding NaN matches none
        first, nan = {}, np.isnan(rows).any(axis=1).tolist()
        owner = [first.setdefault(i if nan[i] else key, i) for i, key in enumerate(keys)]
    summed = state.coeff
    if len(first) < terms:
        summed = np.zeros_like(summed)
        np.add.at(summed.T, owner, state.coeff.T)  # each sum lands on its first occurrence
    large = (np.abs(summed) >= tol).reshape(-1, terms).any(axis=0).tolist()
    kept = [i for i in first.values() if large[i]]
    if len(kept) == terms:
        return state
    return _derived(summed[..., kept], state.ket[..., kept, :], state.bra[..., kept, :])


def _traces(state: DyadState) -> np.ndarray:
    """The trace of each batch member (a numpy scalar for a single
    state); the trace of c|k><b| is c * prod_j <b_j|k_j>."""
    return (state.coeff * _overlap(state.bra, state.ket)).sum(axis=-1)


def trace(state: DyadState) -> complex | np.ndarray:
    """Trace: a complex number, or an array of one per batch member."""
    return _scalar_or_batch(_traces(state))


def _unit_trace_coeff(state: DyadState) -> np.ndarray:
    """The coefficients rescaled to unit trace. Rejects states of
    (near-)zero weight, which arise when conditioning on an impossible
    measurement record."""
    tr = _traces(state).real
    if (tr < _MIN_DENSITY).any():
        raise ZeroDensityError("cannot normalize a state of vanishing trace")
    return state.coeff / tr[..., None]


def normalize(state: DyadState) -> DyadState:
    """Rescale to unit trace; rejects states of vanishing trace."""
    return merge_terms(_derived(_unit_trace_coeff(state), state.ket, state.bra))


def make_coherent(*amplitudes: complex) -> DyadState:
    """Density operator of a product coherent state, one amplitude per mode.
    Amplitude arrays, one entry per batch member, give a batch."""
    if not amplitudes:
        raise ValueError("at least one mode amplitude is required")
    amps = _stack_last(*np.broadcast_arrays(*amplitudes))[..., None, :]
    return DyadState(np.ones(amps.shape[:-1]), amps, amps)


def _unpack(records, *attributes: str) -> tuple[list, list[np.ndarray]]:
    """One record, or a sequence of them with one per batch member, as a
    list; and each named attribute as a float array, 0-d for one record."""
    if isinstance(records, (CssParams, MixedCss)):
        return [records], [np.array(attrgetter(a)(records)) for a in attributes]
    rows = list(records)
    return rows, [np.array([attrgetter(a)(r) for r in rows]) for a in attributes]


def _dephased_dyads(alpha: np.ndarray) -> DyadState:
    """(|alpha><alpha| + |-alpha><-alpha|)/2, its two terms unmerged."""
    amps = _stack_last(alpha, -alpha)[..., None]
    return _derived(np.full(amps.shape[:-1], 0.5 + 0j), amps, amps)


def make_incoherent(alpha: float) -> DyadState:
    """The fully dephased pair: equal mixture of |alpha> and |-alpha>; an
    array of amplitudes gives one pair per batch member."""
    return merge_terms(_dephased_dyads(np.asarray(alpha, dtype=float)))


def _css_dyads(alpha: np.ndarray, phase: np.ndarray) -> DyadState:
    """The unnormalized density of |alpha> + phase |-alpha>; its trace
    is the squared norm of that superposition."""
    one = np.ones_like(phase)
    return _derived(
        _stack_last(one, phase.conj(), phase, one),
        _stack_last(alpha, alpha, -alpha, -alpha)[..., None],
        _stack_last(alpha, -alpha, alpha, -alpha)[..., None],
    )


def _normalizable_css(rows: list[CssParams], alpha: np.ndarray, phi: np.ndarray) -> DyadState:
    """The unnormalized superposition dyads, once every pair is known to
    have a nonzero norm."""
    for params in rows:
        _nonzero_norm(params.alpha, params.phi)
    return _css_dyads(alpha, np.exp(1j * phi))


def make_css(params: CssParams | Sequence[CssParams]) -> DyadState:
    """Normalized density of the superposition |alpha> + e^{i phi}|-alpha>;
    a sequence of parameters gives one state per batch member."""
    rows, (alpha, phi) = _unpack(params, "alpha", "phi")
    return normalize(_normalizable_css(rows, alpha, phi))


# the dephased pair as weights on the four superposition dyads
_DEPHASED_WEIGHTS = np.array([0.5, 0.0, 0.0, 0.5])


def _mixture(rows: list[CssParams], p: np.ndarray, alpha: np.ndarray, phi: np.ndarray) -> DyadState:
    """p * rho_css + (1 - p) * rho_0 on the four dyads of rho_css."""
    if not p.any():
        return make_incoherent(alpha)
    css = _normalizable_css(rows, alpha, phi)
    coeff = p[..., None] * _unit_trace_coeff(css) + (1.0 - p)[..., None] * _DEPHASED_WEIGHTS
    return merge_terms(_derived(coeff, css.ket, css.bra))


def make_mixed(state: MixedCss | Sequence[MixedCss]) -> DyadState:
    """Dyad form of p * rho_css + (1 - p) * rho_0; a sequence of mixtures
    gives one state per batch member.

    The dyads of rho_0 are two of those of rho_css, so the merged sum
    lists the terms of rho_css. A batch needs every member's
    superposition to be normalizable unless p = 0 for all of them."""
    rows, (p, alpha, phi) = _unpack(state, "p", "params.alpha", "params.phi")
    return _mixture([s.params for s in rows], p, alpha, phi)


def tensor(left: DyadState, right: DyadState) -> DyadState:
    """Product of every term of `left` with every term of `right`, left-major.
    An unbatched operand is shared by every member of a batched one."""
    n_right = right.coeff.shape[-1]
    i, j = np.divmod(np.arange(left.coeff.shape[-1] * n_right), n_right)
    coeff = left.coeff[..., i] * right.coeff[..., j]

    def joined(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = np.empty(coeff.shape + (a.shape[-1] + b.shape[-1],), dtype=complex)
        out[..., : a.shape[-1]] = a[..., i, :]  # assignment broadcasts an unbatched side
        out[..., a.shape[-1] :] = b[..., j, :]
        return out

    return _derived(coeff, joined(left.ket, right.ket), joined(left.bra, right.bra))


def _with_mode(state: DyadState, amplitude) -> DyadState:
    """`state` with one more mode in the coherent state `amplitude`, one or one per member."""
    sides = np.empty((2, *state.coeff.shape, state.mode_count + 1), complex)
    sides[..., :-1], sides[..., -1] = (state.ket, state.bra), np.asarray(amplitude)[..., None]
    return _derived(state.coeff, *sides)


def attach_vacuum(state: DyadState) -> DyadState:
    """Append one vacuum mode."""
    return _with_mode(state, 0.0)


def _check_mode(state: DyadState, mode: int) -> None:
    if not 0 <= mode < state.mode_count:
        raise ValueError(f"mode index {mode} out of range for {state.mode_count} modes")


def loss_on_dyad(state: DyadState, mode: int, eta: float) -> DyadState:
    """Linear loss of transmittance eta in (0, 1] on one mode.

    On a single dyad |a1><a2| the environment trace leaves the amplitudes
    scaled by sqrt(eta) and multiplies the coefficient by
    exp[-(1-eta)/2 * (|a1|^2 + |a2|^2 - 2 a1 conj(a2))], which is 1 on the
    diagonal, so the channel is trace preserving.
    """
    _check_mode(state, mode)
    eta = _per_member(state, eta, "loss transmittance", _POSITIVE_UNIT)
    if np.all(eta == 1.0):
        return state
    a1 = state.ket[..., mode]
    a2 = state.bra[..., mode]
    factor = np.exp(
        -0.5 * (1.0 - eta) * (np.abs(a1) ** 2 + np.abs(a2) ** 2 - 2.0 * a1 * a2.conj())
    )
    sides = np.array((state.ket, state.bra))
    sides[..., mode] *= np.sqrt(eta)
    return _derived(state.coeff * factor, *sides)


def bs_on_product(state: DyadState, modes: tuple[int, int], T: float) -> DyadState:
    """Beam splitter of transmittance T in [0, 1] across two modes.

    Coherent amplitudes mix as (a, b) -> (sqrt(T) a - sqrt(R) b,
    sqrt(R) a + sqrt(T) b) with R = 1 - T, so |alpha>|0> goes to
    |sqrt(T) alpha>|sqrt(R) alpha> and coefficients are unchanged.
    """
    ma, mb = modes
    _check_mode(state, ma)
    _check_mode(state, mb)
    if ma == mb:
        raise ValueError("beam splitter needs two distinct modes")
    T = _per_member(state, T, "transmittance", _UNIT)
    ct = np.sqrt(T)
    cr = np.sqrt(1.0 - T)
    sides = np.array((state.ket, state.bra))
    a, b = sides[..., ma], sides[..., mb]
    sides[..., ma], sides[..., mb] = ct * a - cr * b, cr * a + ct * b
    return _derived(state.coeff, *sides)


def homodyne_amplitude(beta: complex, x: float, lam: float) -> complex:
    """Amplitude <x_lam|beta> of finding quadrature value x at local
    oscillator phase lam on a coherent state; `beta` and `x` may also be
    arrays that broadcast against each other.

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
    kept = np.arange(state.mode_count) != mode
    return _derived(coeff, state.ket[..., kept], state.bra[..., kept])


def project_quadrature(
    state: DyadState, mode: int, x: float, lam: float
) -> tuple[DyadState, float | np.ndarray]:
    """Condition on a homodyne outcome x (local-oscillator phase lam) on one
    mode; a batch takes one outcome per member, or one for all.

    The measured mode collapses to scalar amplitudes on ket and bra sides;
    the function returns the remaining modes renormalized to unit trace,
    together with the outcome density (trace of the unnormalized result).
    """
    _check_mode(state, mode)
    x = _per_member(state, x, "homodyne outcome", _FINITE)
    sides = np.array((state.ket[..., mode], state.bra[..., mode]))
    amp_k, amp_b = homodyne_amplitude(sides, x, lam)
    reduced = _drop_mode(state, mode, state.coeff * amp_k * amp_b.conj())
    density = _traces(reduced).real
    vanishing = density < _MIN_DENSITY
    if vanishing.any():
        raise ZeroDensityError(f"homodyne density vanishes at x={_first(x, vanishing[..., None])!r}")
    unit = _derived(reduced.coeff / density[..., None], reduced.ket, reduced.bra)
    return merge_terms(unit), _scalar_or_batch(density)  # normalize(reduced), its trace known


def project_click(state: DyadState, mode: int) -> tuple[DyadState, float | np.ndarray]:
    """Apply the on/off POVM element 1 - |0><0| on a mode and trace it out.

    Per dyad, tr_mode[(1 - |0><0|) |k><b|] = <b|k> - <b|0><0|k>, so the
    result stays a finite dyad combination. Returns the unnormalized
    conditional state (its trace is the click weight relative to the
    input) and the click probability. Probability 0 is a valid return;
    normalizing the conditional state then raises.
    """
    _check_mode(state, mode)
    k = state.ket[..., mode]
    b = state.bra[..., mode]
    # <b|k> - <b|0><0|k> = <b|0><0|k> (e^{conj(b) k} - 1)
    weight = np.exp(-0.5 * (np.abs(b) ** 2 + np.abs(k) ** 2)) * np.expm1(b.conj() * k)
    reduced = merge_terms(_drop_mode(state, mode, state.coeff * weight))
    return reduced, _scalar_or_batch(np.maximum(_traces(reduced).real, 0.0))


def gram_norm(state: DyadState) -> float | np.ndarray:
    """Hilbert-Schmidt norm sqrt(tr[X^dagger X]) evaluated through coherent
    Gram overlaps, valid for arbitrary (non-Hermitian) dyad combinations:
    tr[X^dagger X] = sum_ij conj(c_i) c_j <k_i|k_j> <b_j|b_i>."""
    pairs = _gram(state.ket, state.ket) * np.swapaxes(_gram(state.bra, state.bra), -1, -2)
    square = _bilinear(state.coeff.conj(), pairs, state.coeff).real
    return _scalar_or_batch(np.sqrt(np.maximum(square, 0.0)))


def expect_coherent(state: DyadState, gammas: Sequence[complex]) -> float | np.ndarray:
    """Diagonal expectation <gamma_1 ... gamma_m| rho |gamma_1 ... gamma_m>."""
    if len(gammas) != state.mode_count:
        raise ValueError("one probe amplitude per mode is required")
    probe = np.asarray(gammas, dtype=complex)
    weights = state.coeff * _overlap(probe, state.ket) * _overlap(state.bra, probe)
    return _scalar_or_batch(weights.sum(axis=-1).real)


def hermiticity_defect(state: DyadState) -> float:
    """Largest coefficient mismatch between each dyad and its conjugate, for
    an unbatched state."""
    if state.coeff.ndim != 1:
        raise ValueError("hermiticity_defect takes one state, not a batch")
    merged = merge_terms(state, tol=0.0)
    ket, bra = merged.ket, merged.bra
    mirrors = (ket[:, None] == bra[None]).all(-1) & (bra[:, None] == ket[None]).all(-1)
    mirror = mirrors @ merged.coeff  # merged dyads are distinct: one match at most
    return float(np.abs(merged.coeff - mirror.conj()).max(initial=0.0))


def purity(state: DyadState) -> float | np.ndarray:
    """Tr[rho^2] through the pairwise Gram overlaps of the dyad terms."""
    tr = _traces(state).real
    off = np.abs(tr - 1.0) > 1e-8
    if off.any():
        raise StateFamilyError(f"purity expects a unit-trace state, trace was {_first(tr, off)!r}")
    # tr[rho^2] = sum_ij c_i c_j <b_i|k_j> <b_j|k_i>
    cross = _gram(state.bra, state.ket)
    square = _bilinear(state.coeff, cross * np.swapaxes(cross, -1, -2), state.coeff)
    return _scalar_or_batch(square.real)


def _css_fidelity(alpha: np.ndarray, phase: np.ndarray, norm, state: DyadState) -> np.ndarray:
    """<psi|rho|psi> for psi = (|alpha> + phase |-alpha>)/sqrt(norm) and
    a single-mode rho, from the amplitudes <psi|beta> of its kets and bras."""
    branches = np.array([alpha, -alpha])[..., None, None]
    sides = np.array((state.ket, state.bra))[:, None]
    amps = _overlap(branches, sides)  # [side, branch, ..., term]
    on_ket, on_bra = amps[:, 0] + phase.conj()[..., None] * amps[:, 1]
    return (state.coeff * (on_ket * on_bra.conj())).sum(axis=-1).real / norm


def extract_fraction(
    state: DyadState, params: CssParams | Sequence[CssParams]
) -> float | np.ndarray:
    """Recover p from rho = p * rho_css(params) + (1 - p) * rho_0(alpha);
    a batch takes one CssParams per member.

    Inverts the decomposition through the fidelity F = <psi|rho|psi>:
    with F0 the fidelity of rho_0 against the superposition,
    p = (F - F0)/(1 - F0). Both come from coherent overlaps, with the
    norm of psi taken from the trace of its unnormalized density. A
    residual check in the dyad Gram norm confirms the input actually lies
    in the two-component family, and p must lie in [0, 1] up to 1e-9 (it
    is clipped there); failure signals a physics bug upstream rather than
    a recoverable condition.
    """
    if state.mode_count != 1:
        raise ValueError("fraction extraction expects a single-mode state")
    rows, (alpha, phi) = _unpack(params, "alpha", "phi")
    if alpha.shape != state.coeff.shape[:-1]:
        raise ValueError("fraction extraction needs one CssParams per batch member")
    for target in rows:
        if target.is_degenerate:
            raise DegenerateStateError("cannot extract against the zero-norm superposition")
        if target.alpha == 0.0:
            raise StateFamilyError(
                "the two-component family collapses at alpha=0; the fraction is undefined"
            )
    phase = np.exp(1j * phi)
    css = _css_dyads(alpha, phase)
    dephased = _dephased_dyads(alpha)
    norm = _traces(css).real
    f0 = _css_fidelity(alpha, phase, norm, dephased)
    p = (_css_fidelity(alpha, phase, norm, state) - f0) / (1.0 - f0)

    rest = _weighted_sum((1.0, state), (-p / norm, css), (p - 1.0, dephased))
    residual = np.max(gram_norm(merge_terms(rest, tol=0.0)))
    if residual > 1e-9:
        raise StateFamilyError(
            f"state outside model family: residual {residual:.3e} exceeds 1e-9"
        )
    # rounding may carry p just past 0 or 1; a larger excursion is a signed
    # combination of the two components, not a mixture
    clipped = np.clip(p, 0.0, 1.0)
    outside = np.abs(p - clipped) > 1e-9
    if outside.any():
        raise StateFamilyError(
            f"state outside model family: fraction {_first(p, outside)!r} lies beyond [0, 1] by more than 1e-9"
        )
    return _scalar_or_batch(clipped)


def amplifier_sim(
    state_fraction: float | Sequence[float], params: CssParams | Sequence[CssParams]
) -> float | np.ndarray:
    """Simulate the two-copy linear amplifier on dyads and return the
    output CSS fraction; a batch takes a sequence of fractions and one
    CssParams per fraction.

    Two copies of the input mixture interfere on a balanced beam splitter;
    the difference port is compared against a coherent ancilla of amplitude
    sqrt(2) alpha on a second balanced beam splitter, and both comparison
    ports must register a click. The surviving mode is then a mixture in
    the (sqrt(2) alpha, 2 phi) family, whose fraction is extracted exactly.
    """
    rows, (alpha, phi) = _unpack(params, "alpha", "phi")
    fraction = np.asarray(state_fraction, dtype=float)
    if fraction.shape != alpha.shape:
        raise ValueError("one state fraction per CssParams is required")
    _require_in(fraction, "state fraction", _UNIT)
    if (alpha <= 0.0).any():
        raise ValueError("amplification needs alpha > 0")
    copy = _mixture(rows, fraction, alpha, phi)
    joint = tensor(copy, copy)
    joint = bs_on_product(joint, (0, 1), 0.5)  # mode 0 difference, mode 1 sum
    joint = _with_mode(joint, math.sqrt(2.0) * alpha)  # the coherent ancilla
    joint = bs_on_product(joint, (0, 2), 0.5)
    joint, _ = project_click(joint, 2)
    joint, coincidence = project_click(joint, 0)  # the trace of joint, unless negative
    if np.any(coincidence < _MIN_DENSITY):
        raise ZeroDensityError("both-click coincidence has vanishing probability")
    conditioned = merge_terms(_derived(joint.coeff / np.asarray(coincidence)[..., None], joint.ket, joint.bra))
    out = [CssParams(math.sqrt(2.0) * r.alpha, (2.0 * r.phi) % TWO_PI) for r in rows]
    return extract_fraction(conditioned, out if alpha.ndim else out[0])
