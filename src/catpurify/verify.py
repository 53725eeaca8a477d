"""Randomized cross-validation of the closed forms against the dyad oracle.

Each check draws random parameters, runs the same physical situation
through :mod:`catpurify.analytic` and through the exact simulation in
:mod:`catpurify.dyads`, and records the largest absolute difference.
The closed forms run draw by draw; the oracle runs once per check, on all
draws as one batch of dyad states. The purified-fraction and
inefficient-detector checks run one conditioning comparison, of the output
fraction and the joint outcome density; the first draws no detector
efficiency and so tests the ideal detector.
The two paths share nothing beyond the coherent-state overlap, so
agreement at 1e-10 (1e-9 for the amplifier cascade) is strong evidence
both are right. The command line exposes this as ``catpurify verify``.
"""

from __future__ import annotations

import math
import numbers
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


def _draw(rng: np.random.Generator, draws: int, bounds: dict[str, tuple[float, float]]) -> _Table:
    """`draws` values of each named parameter, uniform within its bounds,
    from one generator call. The table fills row by row, so it holds the
    numbers that one rng.uniform(low, high) call per draw and parameter,
    in the order of `bounds`, would return."""
    lows, highs = zip(*bounds.values())
    table = rng.uniform(lows, highs, size=(draws, len(bounds)))
    return dict(zip(bounds, table.T.tolist()))


def _mixtures(drawn: _Table) -> list[MixedCss]:
    return [MixedCss(CssParams(a, f), p) for a, f, p in zip(drawn["alpha"], drawn["phi"], drawn["p"])]


def _tapped_mixture(states: list[MixedCss], T: list[float]) -> dyads.DyadState:
    joint = dyads.attach_vacuum(dyads.make_mixed(states))
    return dyads.bs_on_product(joint, (0, 1), T)


# Each check maps its table of draws to the error of every draw.


def _loss_fraction(drawn: _Table) -> np.ndarray:
    states = _mixtures(drawn)
    outs = [analytic.apply_loss(s, ChannelSetting(eta)) for s, eta in zip(states, drawn["eta"])]
    lossy = dyads.loss_on_dyad(dyads.make_mixed(states), 0, drawn["eta"])
    oracle = dyads.extract_fraction(lossy, [out.params for out in outs])
    return np.abs(np.subtract([out.p for out in outs], oracle))


def _densities(drawn: _Table) -> np.ndarray:
    params = [CssParams(a, f) for a, f in zip(drawn["alpha"], drawn["phi"])]
    T, k = drawn["T"], drawn["k"]
    closed_css = [analytic.homodyne_density_css(x, pa, t) for x, pa, t in zip(k, params, T)]
    closed_mix = [analytic.homodyne_density_mix(x) for x in k]
    errors = []
    for p, closed in ((1.0, closed_css), (0.0, closed_mix)):
        tapped = _tapped_mixture([MixedCss(pa, p) for pa in params], T)
        _, dens = dyads.project_quadrature(tapped, 1, k, _HALF_PI)
        errors.append(np.abs(dens - closed))
    return np.maximum(*errors)


def _purified_fraction(drawn: _Table) -> np.ndarray:
    # the oracle's detector is a loss of eta_H on the tapped arm, none at eta_H = 1
    states = _mixtures(drawn)
    eta_H = drawn.get("eta_H", [1.0] * len(states))
    taps = [TapSetting(*tap) for tap in zip(drawn["T"], drawn["k"], eta_H)]
    closed = [analytic.purify(s, tap) for s, tap in zip(states, taps)]
    attenuated = dyads.loss_on_dyad(_tapped_mixture(states, drawn["T"]), 1, eta_H)
    cond, dens = dyads.project_quadrature(attenuated, 1, drawn["k"], _HALF_PI)
    oracle = dyads.extract_fraction(cond, [out.params for out, _, _ in closed])
    joint = [s.p * d_css + (1.0 - s.p) * d_mix for s, (_, d_css, d_mix) in zip(states, closed)]
    return np.maximum(
        np.abs(np.subtract([out.p for out, _, _ in closed], oracle)), np.abs(dens - joint)
    )


def _purity(drawn: _Table) -> np.ndarray:
    states = _mixtures(drawn)
    closed = [analytic.purity_mixed_css(s) for s in states]
    return np.abs(np.subtract(closed, dyads.purity(dyads.make_mixed(states))))


def _amplifier(drawn: _Table) -> np.ndarray:
    # the closed form covers phi in {0, pi}: the first number of a draw picks one
    phis = [0.0 if u < 0.5 else math.pi for u in drawn["branch"]]
    states = [MixedCss(CssParams(a, f), p) for f, a, p in zip(phis, drawn["alpha"], drawn["p"])]
    closed = [analytic.amplify(s).p for s in states]
    oracle = dyads.amplifier_sim(drawn["p"], [s.params for s in states])
    return np.abs(np.subtract(closed, oracle))


# name, tolerance, parameter bounds in drawing order, errors of a table
_CHECKS = (
    ("loss fraction", 1e-10, dict(alpha=_ALPHA, phi=_PHI, p=_UNIT, eta=_TRANSMISSION), _loss_fraction),
    ("homodyne densities", 1e-10, dict(alpha=_ALPHA, phi=_PHI, T=_TAP, k=_OUTCOME), _densities),
    (
        "purified fraction",
        1e-10,
        dict(alpha=_ALPHA, phi=_PHI, p=_UNIT, T=_TAP, k=_OUTCOME),
        _purified_fraction,
    ),
    (
        "inefficient-detector fraction",
        1e-10,
        dict(alpha=_ALPHA, phi=_PHI, p=_UNIT, T=_TAP, k=_OUTCOME, eta_H=_TRANSMISSION),
        _purified_fraction,
    ),
    ("purity", 1e-10, dict(alpha=_ALPHA, phi=_PHI, p=_UNIT), _purity),
    (_AMPLIFIER, 1e-9, dict(branch=_UNIT, alpha=(0.05, 1.5), p=_UNIT), _amplifier),
)


def _checked(value: object, name: str, least: int) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def run_suite(
    draws: int = DEFAULT_DRAWS, amp_draws: int = DEFAULT_AMP_DRAWS, seed: int = DEFAULT_SEED
) -> list[CheckResult]:
    """Run every analytic-vs-oracle check and return their results. Each
    check draws all its parameters at once and runs the oracle once, on
    the whole batch of draws."""
    draws = _checked(draws, "draws", 1)
    amp_draws = _checked(amp_draws, "amp_draws", 1)
    rng = np.random.default_rng(_checked(seed, "seed", 0))
    results = []
    for name, tolerance, bounds, errors_of in _CHECKS:
        errors = errors_of(_draw(rng, amp_draws if name == _AMPLIFIER else draws, bounds))
        # max() keeps a NaN error, so a check that produced one fails
        results.append(CheckResult(name, errors.size, float(errors.max()), tolerance))
    return results[:]  # an exact-size copy: long runs keep every suite's results
