"""Randomized cross-validation of the closed forms against the dyad oracle.

Each check draws random parameters, runs the same physical situation
through :mod:`catpurify.analytic` and through the exact simulation in
:mod:`catpurify.dyads`, and records the largest absolute difference.
The parameters come from the standard library's ``random.Random`` seeded
per suite; numpy carries only the oracle's arrays.
The closed forms run draw by draw; the oracle runs on batches of dyad
states built from the drawn columns. The loss, density, both detector
and purity checks share one batch of mixtures, laid out by the stage
where members leave the paper's setup (a lossy line, a tap and a
homodyne detector); purity reads its members before the line. The
amplifier check runs a batch of its own. The purified-fraction and
inefficient-detector checks run one conditioning comparison, of the
output record and the joint outcome density; the first draws no
detector efficiency and so tests the ideal detector.
The oracle takes no derivation and no record from the closed forms beyond
the coherent-state overlap. It reads each output record, the amplitude and
p e^{i phi}, off its own state (the amplifier's family, (sqrt(2) alpha,
2 phi), is its own physics), and the whole record enters the error, so a
wrong closed-form record fails its own check and ``catpurify verify``
exits 1. Agreement at 1e-10 (1e-9 for the amplifier cascade) is strong
evidence both are right.
"""

from __future__ import annotations

import cmath
import math
import numbers
import random
from dataclasses import dataclass

import numpy as np

from . import analytic, dyads
from .states import DEFAULT_AMP_DRAWS, DEFAULT_DRAWS, DEFAULT_SEED
from .states import ChannelSetting, CssParams, MixedCss, TapSetting

__all__ = ["CheckResult", "run_suite", "DEFAULT_SEED"]

_HALF_PI = math.pi / 2.0
_AMPLIFIER = "amplifier coincidence fraction"
# parameter ranges of the draws; alpha is bounded away from 0 so the
# superposition norm cannot underflow
_ALPHA = (0.02, 2.0)
_PHI = (0.0, 2.0 * math.pi)
_UNIT = (0.0, 1.0)
_TAP = (0.02, 0.98)
_OUTCOME = (-3.0, 3.0)
_TRANSMISSION = (0.02, 1.0)


@dataclass(frozen=True, slots=True)
class CheckResult:
    name: str
    draws: int
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tolerance

    def describe(self) -> str:
        verdict = "ok  " if self.passed else "FAIL"
        return (
            f"{verdict} {self.name}: max |analytic - oracle| = "
            f"{self.max_error:.3e} (tolerance {self.tolerance:g}, "
            f"{self.draws} draws)"
        )


_Table = dict[str, list[float]]


def _draw(rng: random.Random, draws: int, bounds: dict[str, tuple[float, float]]) -> _Table:
    """`draws` values of each named parameter, uniform within its bounds.
    The table fills row by row, one rng.uniform(low, high) call per draw
    and parameter, in the order of `bounds`."""
    rows = [[rng.uniform(low, high) for low, high in bounds.values()] for _ in range(draws)]
    return dict(zip(bounds, map(list, zip(*rows))))


def _mixtures(drawn: _Table) -> list[MixedCss]:
    return [MixedCss(CssParams(a, f), p) for a, f, p in zip(drawn["alpha"], drawn["phi"], drawn["p"])]


def _column(parts: list[_Table], name: str) -> list[float]:
    """One parameter of several tables, joined in order."""
    return [value for part in parts for value in part[name]]


def _detected(drawn: _Table) -> list[tuple[MixedCss, float, float]]:
    """purify's result for each draw of a detector check."""
    taps = map(TapSetting, drawn["T"], drawn["k"], drawn["eta_H"])
    return [analytic.purify(s, tap) for s, tap in zip(_mixtures(drawn), taps)]


def _record_errors(closed: list[MixedCss], beta, z, defect=0.0) -> np.ndarray:
    """The largest difference of each closed-form output record from the oracle's
    amplitude beta and coefficient z = p e^{i phi}, or the oracle state's family defect."""
    alpha = np.array([s.params.alpha for s in closed])
    coeff = np.array([s.p * cmath.exp(1j * s.params.phi) for s in closed])
    return np.maximum(np.maximum(np.abs(beta - alpha), np.abs(z - coeff)), defect)


def _line_and_detector(
    lossy: _Table, densities: _Table, purified: _Table, inefficient: _Table, pure: _Table
) -> list[np.ndarray]:
    """The errors of the four checks on the paper's setup (a lossy line, a
    tap and a homodyne detector) and of purity, from one batch of mixtures
    built from the drawn columns. Its members come in the order they leave
    the chain. The tapped ones, the density check's superpositions and
    dephased pairs, then the purified and inefficient-detector draws, skip
    the line and leave at the detector, a loss of eta_H on the tapped arm,
    with every density. Only the loss draws cross the line, and they leave
    after it; a tap of T = 1 would move their rounding. Purity's leave
    before the line. One reading of the output records serves all but the
    density members, whose records are not checked."""
    ones = [1.0] * len(densities["k"])
    purified = dict(purified, eta_H=ones)  # an ideal detector
    unextracted = [dict(densities, p=p, eta_H=ones) for p in (ones, [0.0] * len(ones))]
    tapped = unextracted + [purified, inefficient]
    T, k, eta_H = (_column(tapped, name) for name in ("T", "k", "eta_H"))
    unchecked, at_tap = len(_column(unextracted, "k")), len(k)
    at_line = at_tap + len(lossy["eta"])

    outs = [analytic.apply_loss(s, ChannelSetting(eta)) for s, eta in zip(_mixtures(lossy), lossy["eta"])]
    closed_css = [
        analytic.homodyne_density_css(x, CssParams(a, f), t) for a, f, t, x in zip(*densities.values())
    ]
    closed_mix = [analytic.homodyne_density_mix(x) for x in densities["k"]]
    detected = _detected(purified) + _detected(inefficient)
    joint = [p * d_css + (1.0 - p) * d_mix for p, (_, d_css, d_mix) in zip(_column(tapped[2:], "p"), detected)]

    mixed = dyads._mixture(*(np.array(_column(tapped + [lossy, pure], c)) for c in ("p", "alpha", "phi")))
    line = dyads.loss_on_dyad(dyads._members((mixed, slice(at_tap, at_line))), 0, lossy["eta"])
    split = dyads.bs_on_product(dyads.attach_vacuum(dyads._members((mixed, slice(at_tap)))), (0, 1), T)
    cond, density = dyads.project_quadrature(dyads.loss_on_dyad(split, 1, eta_H), 1, k, _HALF_PI)
    read = dyads._record(dyads._members((cond, slice(unchecked, None)), (line, slice(None))))
    errors = _record_errors([out for out, _, _ in detected] + outs, *read)
    errors[: len(joint)] = np.maximum(errors[: len(joint)], np.abs(density[unchecked:] - joint))
    purity = dyads.purity(dyads._members((mixed, slice(at_line, None))))
    css, mix = density[:unchecked].reshape(2, -1)
    ideal, noisy, lossy_error = errors.reshape(3, -1)
    return [
        lossy_error,
        np.maximum(np.abs(css - closed_css), np.abs(mix - closed_mix)),
        ideal,
        noisy,
        np.abs(np.subtract([analytic.purity_mixed_css(s) for s in _mixtures(pure)], purity)),
    ]


def _amplifier(drawn: _Table) -> np.ndarray:
    states = _mixtures(drawn)
    oracle = dyads.amplifier_sim(drawn["p"], [s.params for s in states])
    alpha, phi = np.array(drawn["alpha"]), np.array(drawn["phi"])  # the oracle's own (sqrt(2) alpha, 2 phi)
    return _record_errors([analytic.amplify(s) for s in states], math.sqrt(2.0) * alpha, oracle * np.exp(2j * phi))


# name, tolerance, parameter bounds in drawing order; the first five checks
# share one oracle pass (_line_and_detector), the amplifier runs its own
_CHECKS = (
    ("loss fraction", 1e-10, dict(alpha=_ALPHA, phi=_PHI, p=_UNIT, eta=_TRANSMISSION)),
    ("homodyne densities", 1e-10, dict(alpha=_ALPHA, phi=_PHI, T=_TAP, k=_OUTCOME)),
    ("purified fraction", 1e-10, dict(alpha=_ALPHA, phi=_PHI, p=_UNIT, T=_TAP, k=_OUTCOME)),
    (
        "inefficient-detector fraction",
        1e-10,
        dict(alpha=_ALPHA, phi=_PHI, p=_UNIT, T=_TAP, k=_OUTCOME, eta_H=_TRANSMISSION),
    ),
    ("purity", 1e-10, dict(alpha=_ALPHA, phi=_PHI, p=_UNIT)),
    (_AMPLIFIER, 1e-9, dict(alpha=(0.05, 1.5), phi=_PHI, p=_UNIT)),
)


_MAX_DRAWS = 10**5  # per check; the draw tables and the oracle's batches grow with it


def _count(value: object, name: str, least: int, most: float = math.inf) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    if value > most:
        raise ValueError(f"{name} must be at most {most}, got {value!r}")
    return int(value)


def run_suite(
    draws: int = DEFAULT_DRAWS, amp_draws: int = DEFAULT_AMP_DRAWS, seed: int = DEFAULT_SEED
) -> list[CheckResult]:
    """Run every analytic-vs-oracle check and return their results. The
    parameters of every check are drawn first, in check order, from the
    suite's own `random.Random(seed)`; the oracle then runs one batched
    pass for the five checks on the lossy line, the detector and purity,
    and one for the amplifier."""
    draws = _count(draws, "draws", 1, _MAX_DRAWS)
    amp_draws = _count(amp_draws, "amp_draws", 1, _MAX_DRAWS)
    rng = random.Random(_count(seed, "seed", 0))
    tables = [_draw(rng, amp_draws if name == _AMPLIFIER else draws, bounds) for name, _, bounds in _CHECKS]
    errors = [*_line_and_detector(*tables[:5]), _amplifier(tables[5])]
    # max() keeps a NaN error, so a check that produced one fails
    results = [CheckResult(name, e.size, float(e.max()), tol) for (name, tol, _), e in zip(_CHECKS, errors)]
    return results[:]  # an exact-size copy: long runs keep every suite's results
