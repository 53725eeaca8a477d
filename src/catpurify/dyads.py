"""Exact simulation of cat-state protocols on coherent dyads.

Every state that the protocols here can produce is a finite sum

    rho = sum_i c_i |k_i1 ... k_im><b_i1 ... b_im|

of multimode coherent dyads. Linear loss, beam splitters, quadrature
projections and on/off photodetection each map such sums to such sums,
so the whole pipeline can be evaluated in closed form with no Fock-space
truncation. Each operation keeps the terms as it builds them, except that
a click, and a mixture at p = 0, drop the terms that are exactly 0. A
state is three arrays (coefficients, ket and bra amplitudes), and every
operation acts on all terms at once. A leading batch axis holds many
states of one term layout, and every operation acts on all members at
once, each as it would alone. This module is the brute-force oracle used
to cross-check the formulas in :mod:`catpurify.analytic`; it shares no
derivation with them beyond the coherent-state overlap, and it reads a
mixture's record (amplitude, fraction, phase) off the state's coefficients.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from operator import attrgetter
from typing import Sequence

import numpy as np

from .errors import DegenerateStateError, StateFamilyError, ZeroDensityError
from .states import (
    _FINITE, _POSITIVE_UNIT, _UNIT, TWO_PI, CssParams, MixedCss, _checked, _nonzero_norm, _pair_norm, _required,
)

__all__ = [
    "DyadState",
    "make_coherent",
    "make_mixed",
    "tensor",
    "attach_vacuum",
    "trace",
    "normalize",
    "loss_on_dyad",
    "bs_on_product",
    "homodyne_amplitude",
    "project_quadrature",
    "project_click",
    "extract_fraction",
    "purity",
    "hermiticity_defect",
    "amplifier_sim",
]

_QUARTIC_ROOT_PI = math.pi ** (-0.25)
_MIN_DENSITY = 1e-300
_MAX_AMPLITUDE = math.sqrt(sys.float_info.max)  # the largest modulus whose square stays finite


@dataclass(frozen=True, eq=False)
class DyadState:
    """sum_i coeff[i] |ket[i]><bra[i]|: `coeff` has shape [n], `ket` and
    `bra` have shape [n, m] with one column per mode.

    A batch of B such states with one term layout adds a leading axis:
    `coeff` [B, n], `ket` and `bra` [B, n, m]. Member b (coeff[b], ket[b],
    bra[b]) goes through every operation bit for bit as it would alone, except
    that a term is dropped only where it is 0 in every member.
    Functions that return a number return one per member, as an array.
    Parameters that take one value per member (transmittances, outcomes)
    also take a single value for all of them.

    The constructor converts what it is given and checks its shapes and that
    every number is finite; a state that this module builds has only its
    coefficients checked, for finiteness. Such states may share arrays, never
    changed in place, so treat them as read-only.
    """

    coeff: np.ndarray
    ket: np.ndarray
    bra: np.ndarray

    def __post_init__(self) -> None:
        try:
            coeff, ket, bra = (np.asarray(part, dtype=complex) for part in (self.coeff, self.ket, self.bra))
        except (TypeError, ValueError):
            raise ValueError("coeff, ket and bra must be arrays of complex numbers") from None
        if ket.ndim not in (2, 3) or ket.shape != bra.shape or ket.shape[-1] < 1:
            raise ValueError(
                "ket and bra must share one shape, [n, m] or [batch, n, m], with m >= 1 modes"
            )
        if coeff.shape != ket.shape[:-1]:
            raise ValueError("one coefficient per dyad and batch member is required")
        if not (np.isfinite(ket).all() and np.isfinite(bra).all()):
            raise ValueError("ket and bra amplitudes must be finite")
        if (np.abs(ket) > _MAX_AMPLITUDE).any() or (np.abs(bra) > _MAX_AMPLITUDE).any():
            raise ValueError("ket and bra amplitudes must not exceed sqrt(sys.float_info.max) in modulus")
        _derived(coeff, ket, bra, self)

    @property
    def mode_count(self) -> int:
        return self.ket.shape[-1]


def _derived(coeff: np.ndarray, ket: np.ndarray, bra: np.ndarray, state=None) -> DyadState:
    """A state (`state` if given) of complex arrays that match: only the coefficients are checked.
    They are stored C-contiguous, so a batch member's sums round as the member's alone would."""
    if not all(np.isfinite(coeff).ravel().tolist()):  # for a few terms, faster than .all()
        raise ValueError("dyad coefficients must be finite")
    state = object.__new__(DyadState) if state is None else state
    contiguous = np.ascontiguousarray
    vars(state).update(coeff=contiguous(coeff), ket=contiguous(ket), bra=contiguous(bra))
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


def _floats(value, name: str, domain: tuple[float, float, str]) -> np.ndarray:
    """The array form of `states._checked`: `value` as a float array in
    `domain`; the error shows the first element outside it as given (a
    numpy number as a Python one), or the value itself where it is not real
    numbers (complex ones and None included: numpy would read None as NaN)."""
    lo, hi, must = domain
    try:
        values = None if value is None or np.iscomplexobj(value) else np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        values = None
    if values is None:
        raise ValueError(f"{name} must {must}, got {value!r}")
    inside = (lo <= values) & (values <= hi)
    if not inside.all():
        given = np.asarray(value, dtype=object)[~inside][0]
        raise ValueError(f"{name} must {must}, got {given.item() if isinstance(given, np.generic) else given!r}")
    return values


def _per_member(
    state: DyadState, value, name: str, domain: tuple[float, float, str]
) -> np.ndarray:
    """A setting in `domain` as a float array with a trailing term axis:
    one value for all members, or one per batch member."""
    values = _floats(value, name, domain)
    if values.ndim and values.shape != state.coeff.shape[:-1]:
        raise ValueError(f"{name} takes one value, or one per batch member")
    return values[..., None]


def _overlap(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """<left|right> across the last (mode) axis, broadcast over the others."""
    # sum_j conj(l_j) (r_j - l_j/2) - |r_j|^2/2; vecdot conjugates its first argument
    return np.exp(np.vecdot(left, right - 0.5 * left) - 0.5 * np.vecdot(right, right))


def _members(*parts: tuple[DyadState, slice]) -> DyadState:
    """The chosen members of each batch, joined in order into one batch;
    the batches must share one term layout. One part is a view of its batch."""
    def joined(side: str) -> np.ndarray:
        chosen = [getattr(state, side)[where] for state, where in parts]
        return chosen[0] if len(parts) == 1 else np.concatenate(chosen)

    return _derived(joined("coeff"), joined("ket"), joined("bra"))


def _kept(coeff: np.ndarray) -> np.ndarray:
    """Which terms have a coefficient that is not exactly 0 in some member."""
    return (coeff != 0.0).any(axis=tuple(range(coeff.ndim - 1)))


def _nonzero(state: DyadState) -> DyadState:
    """`state` without the terms whose coefficient is exactly 0 in every member."""
    kept = _kept(state.coeff)
    if kept.all():
        return state
    return _derived(state.coeff[..., kept], state.ket[..., kept, :], state.bra[..., kept, :])


def _traces(state: DyadState) -> np.ndarray:
    """The trace of each batch member (a numpy scalar for a single
    state); the trace of c|k><b| is c * prod_j <b_j|k_j>."""
    return (state.coeff * _overlap(state.bra, state.ket)).sum(axis=-1)


def trace(state: DyadState) -> complex | np.ndarray:
    """Trace: a complex number, or an array of one per batch member."""
    return _scalar_or_batch(_traces(_required(state, "state", DyadState)))


def _unit_trace_coeff(state: DyadState, vanishing: str = "cannot normalize a state of vanishing trace") -> np.ndarray:
    """The coefficients rescaled to unit trace. Rejects states of
    (near-)zero weight, which arise when conditioning on an impossible
    measurement record, with the message `vanishing`."""
    tr = _traces(state).real
    if (tr < _MIN_DENSITY).any():
        raise ZeroDensityError(vanishing)
    return state.coeff / tr[..., None]


def normalize(state: DyadState) -> DyadState:
    """Rescale to unit trace, term by term; rejects states of vanishing trace."""
    return _derived(_unit_trace_coeff(_required(state, "state", DyadState)), state.ket, state.bra)


def make_coherent(*amplitudes: complex) -> DyadState:
    """Density operator of a product coherent state, one amplitude per mode.
    Amplitude arrays, one entry per batch member, give a batch."""
    if not amplitudes:
        raise ValueError("at least one mode amplitude is required")
    try:
        amps = _stack_last(*np.broadcast_arrays(*amplitudes))[..., None, :]
        finite = np.isfinite(amps).all()
    except (TypeError, ValueError):
        finite = False
    if not finite:
        raise ValueError(f"amplitudes must be finite complex numbers, or arrays of them that broadcast, got {amplitudes!r}")
    return DyadState(np.ones(amps.shape[:-1]), amps, amps)


def _unpack(records, name: str, record: type, *attributes: str) -> list[np.ndarray]:
    """Each named attribute of one `record`, or of a sequence of them with one
    per batch member, as a float array (0-d for one record); anything else
    is a ValueError naming the argument `name`."""
    if type(records) is record:
        return [np.array(attrgetter(a)(records)) for a in attributes]
    members = list(records) if np.iterable(records) else [records]
    if not set(map(type, members)) <= {record}:
        raise ValueError(f"{name} must be a {record.__name__} or a sequence of them, got {records!r}")
    return [np.array(list(map(attrgetter(a), members))) for a in attributes]


def _pairs(alpha: np.ndarray, phi: np.ndarray) -> zip:
    """The (alpha, phi) floats of each member, or of one state."""
    return zip(alpha.ravel().tolist(), phi.ravel().tolist())


def _mixture(p: np.ndarray, alpha: np.ndarray, phi: np.ndarray) -> DyadState:
    """p * rho_css + (1 - p) * rho_0 on the four dyads of rho_css, from float
    arrays with one entry per batch member (0-d for one state). Every
    superposition must be normalizable unless p = 0 for all of them."""
    phase, one = np.exp(1j * phi), np.ones_like(phi)
    # |alpha> + e^{i phi} |-alpha> unnormalized, and rho_0 as weights on its dyads
    css = _derived(
        _stack_last(one, phase.conj(), phase, one),
        _stack_last(alpha, alpha, -alpha, -alpha)[..., None],
        _stack_last(alpha, -alpha, alpha, -alpha)[..., None],
    )
    coeff = (1.0 - p)[..., None] * np.array([0.5, 0.0, 0.0, 0.5], dtype=complex)
    if p.any():  # rho_0 alone needs no norm, so a degenerate pair still builds at p = 0
        for a, f in _pairs(alpha, phi):
            _nonzero_norm(a, f)
        coeff = p[..., None] * _unit_trace_coeff(css) + coeff
    return _nonzero(_derived(coeff, css.ket, css.bra))


def make_mixed(state: MixedCss | Sequence[MixedCss]) -> DyadState:
    """Dyad form of p * rho_css + (1 - p) * rho_0; a sequence of mixtures
    gives one state per batch member.

    The dyads of rho_0 are two of those of rho_css, so the sum lists the
    terms of rho_css, less the cross terms where p = 0 for every member. A
    batch needs every member's superposition to be normalizable unless p = 0
    for all of them."""
    return _mixture(*_unpack(state, "state", MixedCss, "p", "params.alpha", "params.phi"))


def _product_indices(n_left: int, n_right: int) -> tuple[np.ndarray, np.ndarray]:
    """The left and right term of each term of a left-major product."""
    return np.divmod(np.arange(n_left * n_right), n_right)


def tensor(left: DyadState, right: DyadState) -> DyadState:
    """Product of every term of `left` with every term of `right`, left-major.
    An unbatched operand is shared by every member of a batched one."""
    _required(left, "left", DyadState)
    _required(right, "right", DyadState)
    i, j = _product_indices(left.coeff.shape[-1], right.coeff.shape[-1])
    coeff = left.coeff[..., i] * right.coeff[..., j]

    def joined(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = np.empty(coeff.shape + (a.shape[-1] + b.shape[-1],), dtype=complex)
        out[..., : a.shape[-1]] = a[..., i, :]  # assignment broadcasts an unbatched side
        out[..., a.shape[-1] :] = b[..., j, :]
        return out

    return _derived(coeff, joined(left.ket, right.ket), joined(left.bra, right.bra))


def attach_vacuum(state: DyadState) -> DyadState:
    """Append one vacuum mode."""
    sides = np.zeros((2, *_required(state, "state", DyadState).coeff.shape, state.mode_count + 1), complex)
    sides[..., :-1] = state.ket, state.bra
    return _derived(state.coeff, *sides)


def _check_mode(state: DyadState, mode: int, name: str = "mode") -> None:
    """`state` must be a DyadState and `mode` the index of one of its modes
    (not a bool, which numpy would read as a mask)."""
    _required(state, "state", DyadState)
    if type(mode) is bool or not isinstance(mode, (int, np.integer)) or not 0 <= mode < state.mode_count:
        raise ValueError(f"{name} must be an index in [0, {state.mode_count}), got {mode!r}")


def loss_on_dyad(state: DyadState, mode: int, eta: float) -> DyadState:
    """Linear loss of transmittance eta in (0, 1] on one mode.

    On a single dyad |a1><a2| the environment trace leaves the amplitudes
    scaled by sqrt(eta) and multiplies the coefficient by
    exp[-(1-eta)/2 * (|a1|^2 + |a2|^2 - 2 a1 conj(a2))], which is 1 on the
    diagonal, so the channel is trace preserving.
    """
    _check_mode(state, mode)
    eta = _per_member(state, eta, "loss transmittance", _POSITIVE_UNIT)
    a1 = state.ket[..., mode]
    a2 = state.bra[..., mode]
    factor = np.exp(
        -0.5 * (1.0 - eta) * (np.abs(a1) ** 2 + np.abs(a2) ** 2 - 2.0 * a1 * a2.conj())
    )
    sides = np.array((state.ket, state.bra))
    sides[..., mode] *= np.sqrt(eta)
    return _derived(state.coeff * factor, *sides)


def _mix(a: np.ndarray, b: np.ndarray, ct, cr) -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes (a, b) after a beam splitter of amplitude transmittance ct and reflectance cr."""
    return ct * a - cr * b, cr * a + ct * b


def bs_on_product(state: DyadState, modes: tuple[int, int], T: float) -> DyadState:
    """Beam splitter of transmittance T in [0, 1] across two modes.

    Coherent amplitudes mix as (a, b) -> (sqrt(T) a - sqrt(R) b,
    sqrt(R) a + sqrt(T) b) with R = 1 - T, so |alpha>|0> goes to
    |sqrt(T) alpha>|sqrt(R) alpha> and coefficients are unchanged.
    """
    try:
        ma, mb = modes
    except (TypeError, ValueError):
        raise ValueError(f"modes must be a pair of mode indices, got {modes!r}") from None
    _check_mode(state, ma, "modes")
    _check_mode(state, mb, "modes")
    if ma == mb:
        raise ValueError("beam splitter needs two distinct modes")
    T = _per_member(state, T, "transmittance", _UNIT)
    sides = np.array((state.ket, state.bra))
    sides[..., ma], sides[..., mb] = _mix(sides[..., ma], sides[..., mb], np.sqrt(T), np.sqrt(1.0 - T))
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
    try:
        beta = np.asarray(beta, dtype=complex)
    except (TypeError, ValueError):
        beta = np.asarray(math.nan)
    if not np.isfinite(beta).all():
        raise ValueError("beta must be finite complex amplitudes")
    x = _floats(x, "homodyne outcome", _FINITE)
    return _homodyne(beta, x, _checked(lam, "local-oscillator phase", _FINITE))


def _homodyne(beta: np.ndarray, x, lam: float) -> np.ndarray:
    """`homodyne_amplitude` of a complex array `beta`, its arguments unchecked."""
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
    ket, bra = (np.concatenate((s[..., :mode], s[..., mode + 1 :]), axis=-1) for s in (state.ket, state.bra))
    return _derived(coeff, ket, bra)


def project_quadrature(
    state: DyadState, mode: int, x: float, lam: float
) -> tuple[DyadState, float | np.ndarray]:
    """Condition on a homodyne outcome x (local-oscillator phase lam) on one
    mode; a batch takes one outcome per member, or one for all.

    The measured mode collapses to scalar amplitudes on ket and bra sides;
    the function returns the remaining modes renormalized to unit trace,
    term by term, together with the outcome density (trace of the
    unnormalized result).
    """
    _check_mode(state, mode)
    x = _per_member(state, x, "homodyne outcome", _FINITE)
    sides = np.array((state.ket[..., mode], state.bra[..., mode]))
    amp_k, amp_b = _homodyne(sides, x, _checked(lam, "local-oscillator phase", _FINITE))
    reduced = _drop_mode(state, mode, state.coeff * amp_k * amp_b.conj())
    density = _traces(reduced).real
    vanishing = density < _MIN_DENSITY
    if vanishing.any():
        raise ZeroDensityError(f"homodyne density vanishes at x={_first(x, vanishing[..., None])!r}")
    unit = _derived(reduced.coeff / density[..., None], reduced.ket, reduced.bra)
    return unit, _scalar_or_batch(density)  # normalize(reduced), its trace known


def _click_weight(k: np.ndarray, b: np.ndarray) -> np.ndarray:
    """tr[(1 - |0><0|) |k><b|] = <b|k> - <b|0><0|k> of each dyad, from its ket and bra amplitudes."""
    # = e^s (e^{conj(b) k} - 1) with s = -(|b|^2 + |k|^2)/2
    s, bk = -0.5 * (np.abs(b) ** 2 + np.abs(k) ** 2), b.conj() * k
    large = np.abs(bk) > 1.0  # add a large exponent to s first: e^s underflows as e^{conj(b) k} overflows
    small = np.exp(s) * np.expm1(bk * ~large)
    return np.where(large, np.exp(s + bk * large) - np.exp(s), small) if large.any() else small


def project_click(state: DyadState, mode: int) -> tuple[DyadState, float | np.ndarray]:
    """Apply the on/off POVM element 1 - |0><0| on a mode and trace it out.

    Per dyad, tr_mode[(1 - |0><0|) |k><b|] = <b|k> - <b|0><0|k>, so the
    result stays a finite dyad combination. Returns the unnormalized
    conditional state, less the terms the click leaves exactly 0 in every
    member (its trace is the click weight relative to the input), and the
    click probability. Probability 0 is a valid return; normalizing the
    conditional state then raises.
    """
    _check_mode(state, mode)
    weight = _click_weight(state.ket[..., mode], state.bra[..., mode])
    reduced = _nonzero(_drop_mode(state, mode, state.coeff * weight))
    return reduced, _scalar_or_batch(np.maximum(_traces(reduced).real, 0.0))


def hermiticity_defect(state: DyadState) -> float:
    """Largest mismatch between the summed coefficients of each dyad and the
    conjugate sum of its mirror dyads, for an unbatched state. Dyads match on
    exact amplitude equality (-0.0 matches +0.0), one holding NaN only itself."""
    if _required(state, "state", DyadState).coeff.ndim != 1:
        raise ValueError("hermiticity_defect takes one state, not a batch")
    dyads = np.concatenate([state.ket, state.bra], axis=-1)
    same = (dyads[:, None] == dyads[None]).all(-1) | np.eye(len(dyads), dtype=bool)
    mirrors = (dyads[:, None] == np.concatenate([state.bra, state.ket], axis=-1)[None]).all(-1)
    return float(np.abs(same @ state.coeff - (mirrors @ state.coeff).conj()).max(initial=0.0))


def purity(state: DyadState) -> float | np.ndarray:
    """Tr[rho^2] through the pairwise Gram overlaps of the dyad terms."""
    tr = _traces(_required(state, "state", DyadState)).real
    off = ~(np.abs(tr - 1.0) <= 1e-8)  # a NaN trace is off too
    if off.any():
        raise StateFamilyError(f"purity expects a unit-trace state, trace was {_first(tr, off)!r}")
    # tr[rho^2] = sum_ij c_i c_j <b_i|k_j> <b_j|k_i>, summed elementwise so that
    # each batch member rounds as it would alone
    cross = _overlap(state.bra[..., :, None, :], state.ket[..., None, :, :])  # <b_i|k_j>
    square = state.coeff[..., :, None] * (cross * np.swapaxes(cross, -1, -2)) * state.coeff[..., None, :]
    return _scalar_or_batch(square.sum(axis=(-2, -1)).real)


def _record(state: DyadState, unit: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(beta, z, defect) of each member of a one-mode state read as
    p * rho_css(beta, phi) + (1 - p) * rho_0(beta), which is d = p/N + (1 - p)/2
    on |+-beta><+-beta| and c = p e^{i phi}/N on |-beta><beta|, with
    N = 2 (1 + cos(phi) e^{-2 beta^2}): so p = 1 + 2 (Re(c e^{-i phi}) - d).
    By default e^{i phi} = c/|c|, where p >= 0, and z = p e^{i phi}. Given
    `unit` = e^{i phi}, one per member, z = 1 + 2 (c e^{-i phi} - d): its real
    part is p at that phase, signed, and its imaginary part twice the part of
    c across it. Terms sum by the signs of their amplitudes, in any order. The
    defect is the largest distance of an amplitude from +-beta, of the two
    diagonal sums, of the two cross sums as conjugates and of the trace from 1."""
    ket, bra = state.ket[..., 0], state.bra[..., 0]
    beta = np.abs(ket).max(axis=-1, initial=0.0)
    amps = np.concatenate([ket, bra], axis=-1)
    negative = amps.real < 0.0
    spread = np.abs(np.where(negative, -amps, amps) - beta[..., None]).max(axis=-1, initial=0.0)
    pattern = 2 * negative[..., : ket.shape[-1]] + negative[..., ket.shape[-1] :]  # ++, +-, -+, -- as (ket, bra)
    sums = (state.coeff[..., None, :] * (pattern[..., None, :] == np.arange(4)[:, None])).sum(axis=-1)
    d_pp, c_pm, c_mp, d_mm = sums.T
    trace = d_pp + d_mm + np.exp(-2.0 * (beta * beta)) * (c_pm + c_mp)
    defect = np.maximum.reduce([spread, np.abs(d_pp - d_mm), np.abs(c_pm - c_mp.conj()), np.abs(trace - 1.0)])
    if unit is not None:  # the ufunc: numpy's scalar `*` rounds complex products otherwise
        return beta, 1.0 + (2.0 * np.multiply(c_mp, unit.conj()) - (d_pp + d_mm).real), defect
    size = np.abs(c_mp)
    return beta, (1.0 + (2.0 * size - (d_pp + d_mm).real)) * c_mp / np.where(size > 0.0, size, 1.0), defect


def extract_fraction(
    state: DyadState, params: CssParams | Sequence[CssParams]
) -> float | np.ndarray:
    """Recover p from rho = p * rho_css(params) + (1 - p) * rho_0(alpha);
    a batch takes one CssParams per member (no members give an empty array).

    The state's record is read at phase phi (`_record`), so p is signed. The
    state must lie in the family, at amplitude alpha and with no part across
    that phase, to 1e-9, and p in [0, 1] up to 1e-9 (it is clipped there);
    failure signals a physics bug upstream rather than a recoverable
    condition.
    """
    if _required(state, "state", DyadState).mode_count != 1:
        raise ValueError("fraction extraction expects a single-mode state")
    alpha, phi = _unpack(params, "params", CssParams, "alpha", "phi")
    if alpha.shape != state.coeff.shape[:-1]:
        raise ValueError("fraction extraction needs one CssParams per batch member")
    for a, f in _pairs(alpha, phi):
        if _pair_norm(f, 2.0 * (a * a)) == 0.0:
            raise DegenerateStateError("cannot extract against the zero-norm superposition")
        if a == 0.0:
            raise StateFamilyError(
                "the two-component family collapses at alpha=0; the fraction is undefined"
            )
    return _fraction(state, alpha, phi)


def _fraction(state: DyadState, alpha: np.ndarray, phi: np.ndarray) -> float | np.ndarray:
    """`extract_fraction` on float arrays alpha and phi in [0, 2 pi), one per member, unchecked."""
    beta, along, defect = _record(state, np.exp(1j * phi))
    residual = np.max(np.maximum.reduce([np.abs(beta - alpha), np.abs(along.imag), defect]), initial=0.0)
    if residual > 1e-9:
        raise StateFamilyError(
            f"state outside model family: residual {residual:.3e} exceeds 1e-9"
        )
    # rounding may carry p just past 0 or 1; a larger excursion is a signed
    # combination of the two components, not a mixture
    p = along.real
    clipped = np.minimum(np.maximum(p, 0.0), 1.0)
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

    The network runs in one pass over the products of the copy's terms, bit
    for bit as composing the primitives would (`tensor`, `bs_on_product`
    on modes (0, 1), the ancilla, `bs_on_product` on (0, 2), `project_click`
    on modes 2 and 0, `normalize`, `extract_fraction`), and it calls their
    own code for each step: the beam splitters' mixing, the click weight, the
    rescaling to unit trace and the reading of the fraction. Its stages, with
    their terms for a mixed copy: the 16 products, 9 left after the
    ancilla's click, 4 after the difference's, 4 normalized; a pure or fully
    dephased copy has 4, 3, 2 and 2.
    """
    alpha, phi = _unpack(params, "params", CssParams, "alpha", "phi")
    fraction = _floats(state_fraction, "state fraction", _UNIT)
    if fraction.shape != alpha.shape:
        raise ValueError("one state fraction per CssParams is required")
    if (alpha <= 0.0).any():
        raise ValueError("amplification needs alpha > 0")
    copy = _mixture(fraction, alpha, phi)
    i, j = _product_indices(copy.coeff.shape[-1], copy.coeff.shape[-1])
    half, ancilla = math.sqrt(0.5), np.asarray(math.sqrt(2.0) * alpha, complex)[..., None]
    amps = np.array((copy.ket[..., 0], copy.bra[..., 0]))  # [side (ket, bra), ..., term]
    difference, total = _mix(amps[..., i], amps[..., j], half, half)
    ports = np.array(_mix(difference, ancilla, half, half))  # [port (difference, ancilla), side, ..., term]
    compared_weight, ancilla_weight = _click_weight(ports[:, 0], ports[:, 1])
    ancilla_click = copy.coeff[..., i] * copy.coeff[..., j] * ancilla_weight  # its probability is not needed
    first = np.flatnonzero(_kept(ancilla_click))
    both_clicks = ancilla_click[..., first] * compared_weight[..., first]
    second = _kept(both_clicks)
    joint = _derived(both_clicks[..., second], *total[..., first[second], None])
    conditioned = _derived(_unit_trace_coeff(joint, "both-click coincidence has vanishing probability"), joint.ket, joint.bra)
    return _fraction(conditioned, math.sqrt(2.0) * alpha, np.mod(2.0 * phi, TWO_PI))  # reduced exactly, as CssParams does
