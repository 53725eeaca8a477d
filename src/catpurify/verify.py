"""Randomized cross-validation of the closed forms against the dyad oracle.

Each check draws random parameters, runs the same physical situation
through :mod:`catpurify.analytic` and through the exact simulation in
:mod:`catpurify.dyads`, and records the largest absolute difference.
The parameters come from the standard library's ``random.Random`` seeded
per suite; numpy carries only the oracle's arrays.
The closed forms run draw by draw; the oracle runs on batches of dyad
states. The loss, density and both detector checks share one batch, which
crosses the paper's setup once: a lossy line, a tap and a homodyne
detector. The purity and amplifier checks run one batch each. The
purified-fraction and inefficient-detector checks run one conditioning
comparison, of the output fraction and the joint outcome density; the
first draws no detector efficiency and so tests the ideal detector.
The two paths share nothing beyond the coherent-state overlap, so
agreement at 1e-10 (1e-9 for the amplifier cascade) is strong evidence
both are right. The command line exposes this as ``catpurify verify``.
"""

from __future__ import annotations

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


def _detected(drawn: _Table) -> tuple[list[MixedCss], list[float], list[tuple[MixedCss, float, float]]]:
    """The mixtures of a detector check, their detector efficiencies (1, an
    ideal detector, where the check draws none) and purify's result for each."""
    states = _mixtures(drawn)
    eta_H = drawn.get("eta_H", [1.0] * len(states))
    taps = [TapSetting(*tap) for tap in zip(drawn["T"], drawn["k"], eta_H)]
    return states, eta_H, [analytic.purify(s, tap) for s, tap in zip(states, taps)]


def _detector_errors(states, closed, fraction: np.ndarray, density: np.ndarray) -> np.ndarray:
    joint = [s.p * d_css + (1.0 - s.p) * d_mix for s, (_, d_css, d_mix) in zip(states, closed)]
    return np.maximum(
        np.abs(np.subtract([out.p for out, _, _ in closed], fraction)), np.abs(density - joint)
    )


def _line_and_detector(
    lossy: _Table, densities: _Table, purified: _Table, inefficient: _Table
) -> list[np.ndarray]:
    """The errors of the four checks on the paper's setup, a lossy line, a
    tap and a homodyne detector, whose oracle is one batch of n members for
    each of: the superposition and the dephased pair (densities), the
    purified and inefficient-detector mixtures, and the lossy mixtures.

    Every member crosses the line, lossless but for the last n. Those are
    taken from the line as they are; a tap of T = 1 would move their
    rounding. The others go on through the tap and the detector, itself a
    loss of eta_H on the tapped arm (none for the first 3n), to a
    quadrature outcome, which yields every density. One extraction serves
    the detector checks' conditioned states and the line's lossy ones; the
    density members stay out of it, as their fractions are not checked."""
    n = len(lossy["eta"])
    losses = _mixtures(lossy)
    outs = [analytic.apply_loss(s, ChannelSetting(eta)) for s, eta in zip(losses, lossy["eta"])]
    params = [CssParams(a, f) for a, f in zip(densities["alpha"], densities["phi"])]
    T, k = densities["T"], densities["k"]
    closed_css = [analytic.homodyne_density_css(x, pa, t) for x, pa, t in zip(k, params, T)]
    closed_mix = [analytic.homodyne_density_mix(x) for x in k]
    ideal, _, ideal_out = _detected(purified)
    noisy, eta_H, noisy_out = _detected(inefficient)

    members = [MixedCss(pa, p) for p in (1.0, 0.0) for pa in params] + ideal + noisy
    line = dyads.loss_on_dyad(dyads.make_mixed(members + losses), 0, [1.0] * 4 * n + lossy["eta"])
    tapped = dyads.bs_on_product(
        dyads.attach_vacuum(dyads._members((line, slice(0, 4 * n)))),
        (0, 1),
        T + T + purified["T"] + inefficient["T"],
    )
    detected = dyads.loss_on_dyad(tapped, 1, [1.0] * 3 * n + eta_H)
    cond, density = dyads.project_quadrature(
        detected, 1, k + k + purified["k"] + inefficient["k"], _HALF_PI
    )
    fraction = dyads.extract_fraction(
        dyads._members((cond, slice(2 * n, None)), (line, slice(4 * n, None))),
        [out.params for out, _, _ in ideal_out + noisy_out] + [out.params for out in outs],
    )
    return [
        np.abs(np.subtract([out.p for out in outs], fraction[2 * n :])),
        np.maximum(np.abs(density[:n] - closed_css), np.abs(density[n : 2 * n] - closed_mix)),
        _detector_errors(ideal, ideal_out, fraction[:n], density[2 * n : 3 * n]),
        _detector_errors(noisy, noisy_out, fraction[n : 2 * n], density[3 * n :]),
    ]


def _purity(drawn: _Table) -> np.ndarray:
    states = _mixtures(drawn)
    closed = [analytic.purity_mixed_css(s) for s in states]
    return np.abs(np.subtract(closed, dyads.purity(dyads.make_mixed(states))))


def _amplifier(drawn: _Table) -> np.ndarray:
    states = _mixtures(drawn)
    closed = [analytic.amplify(s).p for s in states]
    oracle = dyads.amplifier_sim(drawn["p"], [s.params for s in states])
    return np.abs(np.subtract(closed, oracle))


# name, tolerance, parameter bounds in drawing order; the first four checks
# share one oracle pass (_line_and_detector), the last two run their own
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


def _checked(value: object, name: str, least: int) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def run_suite(
    draws: int = DEFAULT_DRAWS, amp_draws: int = DEFAULT_AMP_DRAWS, seed: int = DEFAULT_SEED
) -> list[CheckResult]:
    """Run every analytic-vs-oracle check and return their results. The
    parameters of every check are drawn first, in check order, from the
    suite's own `random.Random(seed)`; the oracle then runs one batched
    pass for the four checks on the lossy line and the detector, and one
    for each of the other two."""
    draws = _checked(draws, "draws", 1)
    amp_draws = _checked(amp_draws, "amp_draws", 1)
    rng = random.Random(_checked(seed, "seed", 0))
    tables = [_draw(rng, amp_draws if name == _AMPLIFIER else draws, bounds) for name, _, bounds in _CHECKS]
    errors = [*_line_and_detector(*tables[:4]), _purity(tables[4]), _amplifier(tables[5])]
    # max() keeps a NaN error, so a check that produced one fails
    results = [CheckResult(name, e.size, float(e.max()), tol) for (name, tol, _), e in zip(_CHECKS, errors)]
    return results[:]  # an exact-size copy: long runs keep every suite's results
