"""Acceptance gate.

Seven numbered criteria, one test each. Every test prints a single
``ACCEPTANCE n: PASS|FAIL - detail`` line before asserting, so a plain
``pytest -rA`` run shows the scoreboard. Criterion 1 is expected to fail:
its second regression target cannot be met by the physical
inefficient-detector model (see README, "Known discrepancy").
"""

import math
import time
from pathlib import Path

import mpmath
import numpy as np

from catpurify import (
    ChannelSetting,
    CssParams,
    MixedCss,
    TapSetting,
    amplification_threshold,
    amplify,
    apply_loss,
    detection_ratio,
    homodyne_density_css,
    homodyne_density_mix,
    purify,
    purify_with_inefficiency,
    purity_mixed_css,
    sweeps,
    theta_of_k,
    verify,
)
from catpurify import dyads as dy

GOLDEN = Path(__file__).parent / "golden"
TWO_PI = 2.0 * math.pi


def _report(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_reference_fractions():
    start = time.perf_counter()
    state = MixedCss(CssParams(1.0, math.pi), 0.5)
    ideal = purify(state, TapSetting(0.5, math.pi / 2.0))[0].p
    dimmed = purify_with_inefficiency(
        state, TapSetting(0.5, math.pi / 2.0, 0.98)
    ).p
    elapsed = time.perf_counter() - start

    ideal_ok = abs(ideal - 0.613) <= 1e-3
    dimmed_ok = abs(dimmed - 0.609) <= 1e-3
    time_ok = elapsed < 0.1
    _report(
        1,
        ideal_ok and dimmed_ok and time_ok,
        f"ideal p_out={ideal:.6f} (target 0.613±0.001, "
        f"{'ok' if ideal_ok else 'out of tolerance'}); "
        f"eta_H=0.98 p_out={dimmed:.6f} (target 0.609±0.001, "
        f"{'ok' if dimmed_ok else 'out of tolerance'}); {elapsed:.3f}s",
    )
    assert time_ok
    assert ideal_ok
    assert dimmed_ok


def test_criterion_2_amplification_threshold():
    start = time.perf_counter()
    alpha_star = math.sqrt(math.log(1.0 + math.sqrt(2.0)) / 2.0)
    crossing_err = abs(amplification_threshold(alpha_star) - 1.0)

    bisection_errs = []
    for alpha in (0.5, 0.6):
        target = amplification_threshold(alpha)

        def gap(p, a=alpha):
            return amplify(MixedCss(CssParams(a, math.pi), p)).p - p

        lo = max(target - 0.1, 1e-6)
        hi = min(target + 0.1, 1.0 - 1e-6)
        assert gap(lo) < 0.0 < gap(hi)
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            if gap(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        bisection_errs.append(abs(0.5 * (lo + hi) - target))
    elapsed = time.perf_counter() - start

    ok = crossing_err <= 1e-12 and max(bisection_errs) <= 1e-6 and elapsed < 1.0
    _report(
        2,
        ok,
        f"unit crossing at alpha^2=ln(1+sqrt2)/2 off by {crossing_err:.2e}; "
        f"fixed-point bisection errors {bisection_errs[0]:.2e}, "
        f"{bisection_errs[1]:.2e}; {elapsed:.3f}s",
    )
    assert ok


def test_criterion_3_no_net_gain_anywhere():
    start = time.perf_counter()
    table = sweeps.run_sweep(sweeps.default_spec("concat_scan"))
    names = list(table.columns)
    i_pin = names.index("p_in")
    i_final = names.index("p_final")
    concat_violations = sum(
        1 for row in table.rows if not row[i_final] < row[i_pin]
    )

    alphas = sweeps.GridAxis("alpha", 0.05, 2.0, 0.01).values()
    p_ins = sweeps.GridAxis("p_in", 0.01, 0.99, 0.01).values()
    plus_violations = 0
    for alpha in alphas:
        for p in p_ins:
            out = amplify(MixedCss(CssParams(alpha, 0.0), p)).p
            if not out <= p:
                plus_violations += 1
    elapsed = time.perf_counter() - start

    ok = concat_violations == 0 and plus_violations == 0 and elapsed < 10.0
    _report(
        3,
        ok,
        f"{len(table.rows)} concatenation points, {concat_violations} with "
        f"p_final >= p_in; {len(alphas) * len(p_ins)} phi=0 amplifier points, "
        f"{plus_violations} with p_out > p_in; {elapsed:.3f}s",
    )
    assert ok


def test_criterion_4_oracle_equivalence():
    start = time.perf_counter()
    results = verify.run_suite(draws=200, amp_draws=50)
    elapsed = time.perf_counter() - start

    ok = all(res.passed for res in results) and elapsed < 30.0
    worst = max(results, key=lambda res: res.max_error / res.tolerance)
    _report(
        4,
        ok,
        f"{sum(res.draws for res in results)} randomized draws over "
        f"{len(results)} checks; worst margin {worst.name} at "
        f"{worst.max_error:.2e} (tolerance {worst.tolerance:.0e}); "
        f"{elapsed:.3f}s",
    )
    for res in results:
        assert res.passed, res.describe()
    assert elapsed < 30.0


def test_criterion_5_structural_identities():
    rng = np.random.default_rng(5150)

    semigroup_err = 0.0
    for _ in range(100):
        state = MixedCss(
            CssParams(rng.uniform(0.05, 2.0), rng.uniform(0.0, TWO_PI)),
            rng.uniform(0.0, 1.0),
        )
        e1, e2 = rng.uniform(0.05, 1.0, size=2)
        twice = apply_loss(apply_loss(state, ChannelSetting(e2)), ChannelSetting(e1))
        once = apply_loss(state, ChannelSetting(e1 * e2))
        semigroup_err = max(
            semigroup_err,
            abs(twice.p - once.p),
            abs(twice.params.alpha - once.params.alpha),
        )

    norm_err = 0.0
    # 15 digits whatever precision an imported module set for the session
    with mpmath.workdps(15):
        for alpha, phi, T in [(1.0, 0.0, 0.5), (1.0, math.pi, 0.5), (0.6, 2.4, 0.8)]:
            params = CssParams(alpha, phi)
            total = float(mpmath.quad(lambda k: homodyne_density_css(k, params, T), [-12.0, 12.0]))
            norm_err = max(norm_err, abs(total - 1.0))
        total = float(mpmath.quad(homodyne_density_mix, [-12.0, 12.0]))
        norm_err = max(norm_err, abs(total - 1.0))

    phase_err = 0.0
    for _ in range(100):
        alpha = rng.uniform(0.05, 2.0)
        R = rng.uniform(0.02, 0.98)
        k = rng.uniform(-3.0, 3.0)
        beta = math.sqrt(R) * alpha
        ratio = dy.homodyne_amplitude(beta, k, math.pi / 2.0) / dy.homodyne_amplitude(
            -beta, k, math.pi / 2.0
        )
        phase_err = max(
            phase_err, abs(ratio - np.exp(-1j * theta_of_k(k, alpha, R)))
        )

    thetas = np.linspace(0.0, TWO_PI, 721)
    ratio_excess = 0.0
    for _ in range(50):
        params = CssParams(rng.uniform(0.05, 2.0), rng.uniform(0.0, TWO_PI))
        T = rng.uniform(0.05, 0.95)
        best = detection_ratio(params, T, -params.phi)
        grid = min(detection_ratio(params, T, t) for t in thetas)
        ratio_excess = max(ratio_excess, best - grid)

    ok = (
        semigroup_err <= 1e-12
        and norm_err <= 1e-8
        and phase_err <= 1e-14
        and ratio_excess <= 1e-12
    )
    _report(
        5,
        ok,
        f"loss semigroup {semigroup_err:.2e} (tol 1e-12); density norms "
        f"{norm_err:.2e} (tol 1e-8); imprint-phase identity {phase_err:.2e} "
        f"(tol 1e-14); ratio minimum excess {ratio_excess:.2e}",
    )
    assert ok


def test_criterion_6_figure_shapes(tmp_path):
    fig6 = sweeps.run_sweep(sweeps.default_spec("fig6_pout_vs_pin"))
    names = list(fig6.columns)
    p_in = [row[names.index("p_in")] for row in fig6.rows]
    argmaxes = {}
    for column in ("improvement_phi0", "improvement_phipi"):
        gains = [row[names.index(column)] for row in fig6.rows]
        argmaxes[column] = p_in[gains.index(max(gains))]
    fig6_ok = all(0.4 <= v <= 0.6 for v in argmaxes.values())

    fig8 = sweeps.run_sweep(sweeps.default_spec("fig8_gain_and_density_vs_T"))
    names8 = list(fig8.columns)
    fig8_ok = True
    for column in ("gain_phi0", "gain_phipi"):
        gains = [row[names8.index(column)] for row in fig8.rows]
        fig8_ok = fig8_ok and all(
            a >= b - 1e-12 for a, b in zip(gains, gains[1:])
        )

    def central_band(figure_id, css_on_top):
        table = sweeps.run_sweep(sweeps.default_spec(figure_id))
        cols = list(table.columns)
        window = [row for row in table.rows if abs(row[cols.index("k")]) <= 2.0]
        sign = 1.0 if css_on_top else -1.0
        flags = [
            sign * (row[cols.index("P_C")] - row[cols.index("P_0")]) > 0.0
            for row in window
        ]
        center = flags[len(flags) // 2]
        symmetric = all(a == b for a, b in zip(flags, reversed(flags)))
        true_span = [i for i, f in enumerate(flags) if f]
        contiguous = bool(true_span) and (
            true_span[-1] - true_span[0] + 1 == len(true_span)
        )
        crossed = not flags[0] and not flags[-1]
        return center and symmetric and contiguous and crossed

    fig2_ok = central_band("fig2_densities", css_on_top=True)
    fig3_ok = central_band("fig3_densities", css_on_top=False)

    table = sweeps.run_sweep(sweeps.default_spec("fig2_densities"))
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    sweeps.emit_csv(table, first, reproducible=True)
    sweeps.emit_csv(table, second, reproducible=True)
    golden_ok = (
        first.read_bytes() == second.read_bytes()
        and first.read_bytes() == (GOLDEN / "fig2_densities.csv").read_bytes()
    )

    ok = fig6_ok and fig8_ok and fig2_ok and fig3_ok and golden_ok
    _report(
        6,
        ok,
        f"improvement maxima at p_in={argmaxes['improvement_phi0']:.3f} (phi=0) "
        f"and {argmaxes['improvement_phipi']:.3f} (phi=pi), both in [0.4,0.6]: "
        f"{fig6_ok}; gain non-increasing in T: {fig8_ok}; central crossover "
        f"bands: fig2 {fig2_ok}, fig3 {fig3_ok}; golden CSV byte-stable: "
        f"{golden_ok}",
    )
    assert ok


def test_criterion_7_purity_not_a_figure_of_merit():
    alphas = [round(0.1 * i, 1) for i in range(1, 21)]
    purities = [
        purity_mixed_css(MixedCss(CssParams(alpha, 0.0), 0.1)) for alpha in alphas
    ]
    decreasing = all(a > b for a, b in zip(purities, purities[1:]))

    closed = purity_mixed_css(MixedCss(CssParams(3.0, 0.0), 0.0))
    oracle = dy.purity(dy.make_mixed(MixedCss(CssParams(3.0, 0.0), 0.0)))
    dephased_ok = abs(closed - 0.5) <= 1e-10 and abs(oracle - 0.5) <= 1e-10

    ok = decreasing and dephased_ok
    _report(
        7,
        ok,
        f"purity falls from {purities[0]:.6f} to {purities[-1]:.6f} over "
        f"alpha 0.1..2.0 at p=0.1 (strictly decreasing: {decreasing}); "
        f"dephased alpha=3 purity {closed:.12f} closed-form / "
        f"{oracle:.12f} oracle (target 0.5±1e-10)",
    )
    assert ok
