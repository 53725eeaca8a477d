"""Randomized cross-validation of the closed forms against the dyad oracle.

Each check draws random parameters, runs the same physical situation
through :mod:`catpurify.analytic` and through the exact simulation in
:mod:`catpurify.dyads`, and records the largest absolute difference.
The two paths share nothing beyond the coherent-state overlap, so
agreement at 1e-10 (1e-9 for the amplifier cascade) is strong evidence
both are right. The command line exposes this as ``catpurify verify``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytic, dyads
from .states import DEFAULT_SEED, ChannelSetting, CssParams, MixedCss, TapSetting

__all__ = ["CheckResult", "run_suite", "DEFAULT_SEED"]

_HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
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


def _draw_params(rng: np.random.Generator) -> CssParams:
    # alpha bounded away from 0 so the superposition norm cannot underflow
    return CssParams(rng.uniform(0.02, 2.0), rng.uniform(0.0, 2.0 * math.pi))


def _tapped_mixture(state: MixedCss, T: float) -> dyads.DyadState:
    joint = dyads.attach_vacuum(dyads.make_mixed(state))
    return dyads.bs_on_product(joint, (0, 1), T)


def _check_loss_fraction(rng: np.random.Generator, draws: int) -> CheckResult:
    worst = 0.0
    for _ in range(draws):
        state = MixedCss(_draw_params(rng), rng.uniform(0.0, 1.0))
        eta = rng.uniform(0.02, 1.0)
        out = analytic.apply_loss(state, ChannelSetting(eta))
        lossy = dyads.loss_on_dyad(dyads.make_mixed(state), 0, eta)
        oracle = dyads.extract_fraction(lossy, out.params)
        worst = max(worst, abs(out.p - oracle))
    return CheckResult("loss fraction", draws, worst, 1e-10)


def _check_densities(rng: np.random.Generator, draws: int) -> CheckResult:
    worst = 0.0
    for _ in range(draws):
        params = _draw_params(rng)
        T = rng.uniform(0.02, 0.98)
        k = rng.uniform(-3.0, 3.0)
        tapped = _tapped_mixture(MixedCss(params, 1.0), T)
        _, dens = dyads.project_quadrature(tapped, 1, k, _HALF_PI)
        worst = max(worst, abs(dens - analytic.homodyne_density_css(k, params, T)))
        dephased = _tapped_mixture(MixedCss(params, 0.0), T)
        _, dens0 = dyads.project_quadrature(dephased, 1, k, _HALF_PI)
        worst = max(worst, abs(dens0 - analytic.homodyne_density_mix(k)))
    return CheckResult("homodyne densities", draws, worst, 1e-10)


def _check_purified_fraction(rng: np.random.Generator, draws: int) -> CheckResult:
    worst = 0.0
    for _ in range(draws):
        state = MixedCss(_draw_params(rng), rng.uniform(0.0, 1.0))
        tap = TapSetting(rng.uniform(0.02, 0.98), rng.uniform(-3.0, 3.0))
        out, dens_css, dens_mix = analytic.purify(state, tap)
        tapped = _tapped_mixture(state, tap.T)
        cond, dens = dyads.project_quadrature(tapped, 1, tap.k, _HALF_PI)
        oracle = dyads.extract_fraction(cond, out.params)
        worst = max(worst, abs(out.p - oracle))
        joint = state.p * dens_css + (1.0 - state.p) * dens_mix
        worst = max(worst, abs(dens - joint))
    return CheckResult("purified fraction", draws, worst, 1e-10)


def _check_inefficient_fraction(rng: np.random.Generator, draws: int) -> CheckResult:
    worst = 0.0
    for _ in range(draws):
        state = MixedCss(_draw_params(rng), rng.uniform(0.0, 1.0))
        tap = TapSetting(
            rng.uniform(0.02, 0.98), rng.uniform(-3.0, 3.0), rng.uniform(0.02, 1.0)
        )
        out = analytic.purify_with_inefficiency(state, tap)
        tapped = _tapped_mixture(state, tap.T)
        attenuated = dyads.loss_on_dyad(tapped, 1, tap.eta_H)
        cond, _ = dyads.project_quadrature(attenuated, 1, tap.k, _HALF_PI)
        oracle = dyads.extract_fraction(cond, out.params)
        worst = max(worst, abs(out.p - oracle))
    return CheckResult("inefficient-detector fraction", draws, worst, 1e-10)


def _check_purity(rng: np.random.Generator, draws: int) -> CheckResult:
    worst = 0.0
    for _ in range(draws):
        state = MixedCss(_draw_params(rng), rng.uniform(0.0, 1.0))
        closed = analytic.purity_mixed_css(state)
        oracle = dyads.purity(dyads.make_mixed(state))
        worst = max(worst, abs(closed - oracle))
    return CheckResult("purity", draws, worst, 1e-10)


def _check_amplifier(rng: np.random.Generator, draws: int) -> CheckResult:
    worst = 0.0
    for _ in range(draws):
        phi = 0.0 if rng.uniform() < 0.5 else math.pi
        state = MixedCss(
            CssParams(rng.uniform(0.05, 1.5), phi), rng.uniform(0.0, 1.0)
        )
        closed = analytic.amplify(state).p
        oracle = dyads.amplifier_sim(state.p, state.params)
        worst = max(worst, abs(closed - oracle))
    return CheckResult("amplifier coincidence fraction", draws, worst, 1e-9)


def run_suite(
    draws: int = 200, amp_draws: int = 50, seed: int = DEFAULT_SEED
) -> list[CheckResult]:
    """Run every analytic-vs-oracle check and return their results."""
    if draws < 1 or amp_draws < 1:
        raise ValueError("draw counts must be positive")
    rng = np.random.default_rng(seed)
    return [
        _check_loss_fraction(rng, draws),
        _check_densities(rng, draws),
        _check_purified_fraction(rng, draws),
        _check_inefficient_fraction(rng, draws),
        _check_purity(rng, draws),
        _check_amplifier(rng, amp_draws),
    ]
