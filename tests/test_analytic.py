"""Tests for the closed-form layer.

Frozen doubles below were produced by the dyad oracle (and, for a few
values, re-derived with 30-digit arithmetic) while this suite was built;
they pin the formulas against silent regressions.
"""

import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from catpurify import (
    ChannelSetting,
    CssParams,
    MixedCss,
    TapSetting,
    amplification_threshold,
    amplify,
    apply_loss,
    concat_stages,
    detection_ratio,
    effective_loss_fraction,
    homodyne_density_css,
    homodyne_density_mix,
    loss_fraction,
    normalization,
    optimal_k,
    purify,
    purify_with_inefficiency,
    purity_mixed_css,
    success_region,
    theta_of_k,
    window_acceptance,
)
from catpurify import analytic
from catpurify import dyads as dy
from catpurify.errors import (
    DegenerateStateError,
    PhysicsError,
    ZeroDensityError,
)

TWO_PI = 2.0 * math.pi


class TestStates:
    def test_phase_reduced_into_range(self):
        assert CssParams(1.0, -math.pi).phi == pytest.approx(math.pi, abs=1e-15)
        assert CssParams(1.0, TWO_PI).phi == 0.0
        assert CssParams(1.0, 1.0).phi == 1.0

    def test_degenerate_flag(self):
        assert CssParams(0.0, math.pi).is_degenerate
        assert not CssParams(0.0, 0.0).is_degenerate
        assert not CssParams(1.0, math.pi).is_degenerate

    def test_invalid_fields_rejected(self):
        with pytest.raises(ValueError):
            CssParams(-0.1, 0.0)
        with pytest.raises(ValueError):
            MixedCss(CssParams(1.0, 0.0), 1.2)
        with pytest.raises(ValueError):
            TapSetting(0.0, 0.0)
        with pytest.raises(ValueError):
            TapSetting(0.5, 0.0, eta_H=0.0)
        with pytest.raises(ValueError):
            ChannelSetting(1.5)

    def test_reflectivity_derived(self):
        assert TapSetting(0.7, 0.0).R == pytest.approx(0.3, abs=1e-16)


class TestNormalization:
    def test_vacuum_pair(self):
        assert normalization(CssParams(0.0, 0.0)) == 4.0

    def test_degenerate_pair_is_zero_not_error(self):
        assert normalization(CssParams(0.0, math.pi)) == 0.0

    def test_reference_value(self):
        assert normalization(CssParams(1.0, 0.0)) == pytest.approx(
            2.2706705664732254, abs=1e-15
        )


class TestApplyLoss:
    def test_lossless_channel_is_identity(self):
        state = MixedCss(CssParams(1.0, 0.0), 1.0)
        out = apply_loss(state, ChannelSetting(1.0))
        assert out.p == 1.0 and out.params.alpha == 1.0

    def test_reference_fraction(self):
        out = apply_loss(MixedCss(CssParams(1.0, 0.0), 1.0), ChannelSetting(0.5))
        assert out.p == pytest.approx(0.4432300588540602, abs=1e-12)
        assert out.params.alpha == pytest.approx(math.sqrt(0.5), abs=1e-16)
        assert out.params.phi == 0.0

    def test_fraction_composes_multiplicatively(self):
        pure = apply_loss(MixedCss(CssParams(1.0, 2.2), 1.0), ChannelSetting(0.6))
        mixed = apply_loss(MixedCss(CssParams(1.0, 2.2), 0.37), ChannelSetting(0.6))
        assert mixed.p == pytest.approx(0.37 * pure.p, abs=1e-15)

    def test_semigroup_identity(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            state = MixedCss(
                CssParams(rng.uniform(0.05, 2.0), rng.uniform(0.0, TWO_PI)),
                rng.uniform(0.0, 1.0),
            )
            e1, e2 = rng.uniform(0.05, 1.0, size=2)
            twice = apply_loss(apply_loss(state, ChannelSetting(e2)), ChannelSetting(e1))
            once = apply_loss(state, ChannelSetting(e1 * e2))
            assert abs(twice.p - once.p) <= 1e-12
            assert abs(twice.params.alpha - once.params.alpha) <= 1e-12
            assert twice.params.phi == once.params.phi

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateStateError):
            apply_loss(MixedCss(CssParams(0.0, math.pi), 0.5), ChannelSetting(0.9))

    def test_matches_oracle_at_reference_point(self):
        state = MixedCss(CssParams(1.3, 2.1), 0.62)
        out = apply_loss(state, ChannelSetting(0.44))
        lossy = dy.loss_on_dyad(dy.make_mixed(state), 0, 0.44)
        assert out.p == pytest.approx(
            dy.extract_fraction(lossy, out.params), abs=1e-12
        )


class TestDensities:
    def test_css_density_reference_values(self):
        assert homodyne_density_css(0.0, CssParams(1.0, 0.0), 0.5) == pytest.approx(
            0.6797492720018076, abs=1e-15
        )
        assert homodyne_density_css(
            math.pi / 2.0, CssParams(1.0, math.pi), 0.5
        ) == pytest.approx(0.0756913873991454, abs=1e-15)

    def test_css_density_alpha_zero_is_gaussian(self):
        assert homodyne_density_css(0.0, CssParams(0.0, 0.0), 0.5) == pytest.approx(
            1.0 / math.sqrt(math.pi), abs=1e-16
        )

    def test_mix_density_values(self):
        assert homodyne_density_mix(0.0) == pytest.approx(0.5641895835477563, abs=1e-16)
        assert homodyne_density_mix(1.0) == pytest.approx(0.2075537487102974, abs=1e-16)

    @pytest.mark.parametrize(
        "alpha,phi,T",
        [(1.0, 0.0, 0.5), (1.0, math.pi, 0.5), (0.4, 2.0, 0.9), (2.0, 4.0, 0.15)],
    )
    def test_css_density_normalized(self, alpha, phi, T):
        params = CssParams(alpha, phi)
        total, _ = quad(lambda k: homodyne_density_css(k, params, T), -12.0, 12.0)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_mix_density_normalized(self):
        total, _ = quad(homodyne_density_mix, -12.0, 12.0)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateStateError):
            homodyne_density_css(0.0, CssParams(0.0, math.pi), 0.5)


class TestThetaAndRatio:
    def test_theta_values(self):
        assert theta_of_k(0.0, 1.0, 0.5) == 0.0
        assert theta_of_k(math.pi / 2.0, 1.0, 0.5) == pytest.approx(math.pi, abs=1e-15)
        assert theta_of_k(1.0, 1.0, 0.5) == pytest.approx(2.0, abs=1e-15)

    def test_ratio_boundary_T_one(self):
        assert detection_ratio(CssParams(1.0, 0.0), 1.0, 0.0) == 1.0

    def test_ratio_reference_values(self):
        assert detection_ratio(CssParams(1.0, math.pi), 0.5, math.pi) == pytest.approx(
            0.6321205588285577, abs=1e-15
        )
        assert detection_ratio(CssParams(1.0, 0.0), 0.5, 0.0) == pytest.approx(
            0.8299965984314521, abs=1e-15
        )

    def test_vanishing_density_rejected(self):
        with pytest.raises(ZeroDensityError):
            detection_ratio(CssParams(0.0, 0.0), 1.0, math.pi)

    def test_minimized_at_phase_cancellation(self):
        rng = np.random.default_rng(22)
        thetas = np.linspace(0.0, TWO_PI, 721)
        for _ in range(50):
            params = CssParams(rng.uniform(0.05, 2.0), rng.uniform(0.0, TWO_PI))
            T = rng.uniform(0.05, 0.95)
            best = detection_ratio(params, T, -params.phi)
            grid = min(detection_ratio(params, T, t) for t in thetas)
            assert best <= grid + 1e-12


class TestPurify:
    def test_reference_point(self):
        out, density_css, density_mix = purify(
            MixedCss(CssParams(1.0, math.pi), 0.5), TapSetting(0.5, math.pi / 2.0)
        )
        assert out.p == pytest.approx(0.6126998367802821, abs=1e-12)
        assert out.params.alpha == pytest.approx(math.sqrt(0.5), abs=1e-16)
        assert out.params.phi == pytest.approx(0.0, abs=1e-12)
        assert density_css == pytest.approx(0.0756913873991454, abs=1e-15)
        assert density_mix == pytest.approx(
            homodyne_density_mix(math.pi / 2.0), abs=1e-16
        )

    def test_second_reference_point(self):
        out, _, _ = purify(
            MixedCss(CssParams(1.0, 0.0), 0.5), TapSetting(0.5, 0.0)
        )
        assert out.p == pytest.approx(0.5464491031607007, abs=1e-12)

    def test_fixed_points(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            params = CssParams(rng.uniform(0.1, 2.0), rng.uniform(0.0, TWO_PI))
            tap = TapSetting(rng.uniform(0.1, 0.9), rng.uniform(-3.0, 3.0))
            assert purify(MixedCss(params, 0.0), tap)[0].p == 0.0
            assert purify(MixedCss(params, 1.0), tap)[0].p == 1.0

    def test_monotone_in_ratio(self):
        # p_out falls as the ratio grows, and equals p_in at ratio one
        p = 0.37
        ratios = [0.2, 0.5, 1.0, 2.0, 5.0]
        outs = [p / (p + r * (1.0 - p)) for r in ratios]
        assert all(a > b for a, b in zip(outs, outs[1:]))
        assert p / (p + 1.0 * (1.0 - p)) == pytest.approx(p, abs=1e-16)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateStateError):
            purify(MixedCss(CssParams(0.0, math.pi), 0.5), TapSetting(0.5, 0.0))

    @pytest.mark.parametrize(
        "condition,eta_H",
        [(purify, 1.0), (purify_with_inefficiency, 0.98)],
        ids=["ideal", "eta_H=0.98"],
    )
    def test_zero_density_outcome_rejected(self, condition, eta_H):
        # both densities underflow to 0 at k=1e200; there is nothing to condition on
        state = MixedCss(CssParams(1.0, math.pi), 0.5)
        with pytest.raises(ZeroDensityError):
            condition(state, TapSetting(0.5, 1e200, eta_H))

    def test_blind_tap_warns_and_changes_nothing(self):
        with pytest.warns(UserWarning):
            out, _, _ = purify(
                MixedCss(CssParams(1.0, 0.0), 0.5), TapSetting(1.0, 0.3)
            )
        assert out.p == pytest.approx(0.5, abs=1e-16)

    @pytest.mark.parametrize("condition", [purify, purify_with_inefficiency])
    def test_blind_tap_warning_names_the_caller(self, condition):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            line = sys._getframe().f_lineno + 1
            condition(MixedCss(CssParams(1.0, 0.0), 0.5), TapSetting(1.0, 0.3))
        assert [(w.filename, w.lineno) for w in caught] == [(__file__, line)]


class TestPurifyWithInefficiency:
    def test_ideal_detector_reduces_bitwise(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            state = MixedCss(
                CssParams(rng.uniform(0.05, 2.0), rng.uniform(0.0, TWO_PI)),
                rng.uniform(0.0, 1.0),
            )
            tap = TapSetting(rng.uniform(0.05, 0.95), rng.uniform(-3.0, 3.0))
            assert purify_with_inefficiency(state, tap).p == purify(state, tap)[0].p

    def test_reference_point(self):
        out = purify_with_inefficiency(
            MixedCss(CssParams(1.0, math.pi), 0.5),
            TapSetting(0.5, math.pi / 2.0, 0.98),
        )
        assert out.p == pytest.approx(0.602501449873697, abs=1e-12)
        assert out.params.alpha == pytest.approx(math.sqrt(0.5), abs=1e-16)

    def test_matches_oracle_pipeline(self):
        state = MixedCss(CssParams(1.1, 2.6), 0.45)
        tap = TapSetting(0.6, 0.8, 0.83)
        out = purify_with_inefficiency(state, tap)
        joint = dy.attach_vacuum(dy.make_mixed(state))
        joint = dy.bs_on_product(joint, (0, 1), tap.T)
        joint = dy.loss_on_dyad(joint, 1, tap.eta_H)
        cond, density = dy.project_quadrature(joint, 1, tap.k, math.pi / 2.0)
        assert out.p == pytest.approx(
            dy.extract_fraction(cond, out.params), abs=1e-10
        )
        _, density_css, density_mix = purify(state, tap)
        assert state.p * density_css + (1.0 - state.p) * density_mix == pytest.approx(
            density, abs=1e-12
        )

    def test_phase_shift_shrinks_with_efficiency(self):
        state = MixedCss(CssParams(1.0, 0.0), 0.5)
        full = purify(state, TapSetting(0.5, 1.0))[0]
        dimmed = purify_with_inefficiency(state, TapSetting(0.5, 1.0, 0.5))
        assert dimmed.params.phi == pytest.approx(
            full.params.phi * math.sqrt(0.5), abs=1e-12
        )


def _loss_fraction_mp(eta, alpha, phi):
    """The surviving fraction of a pure cat at 50 digits, from the float inputs."""
    with mpmath.workdps(50):
        a2 = mpmath.mpf(alpha) ** 2
        cos_phi = mpmath.cos(mpmath.mpf(phi))
        kept = 1 + cos_phi * mpmath.exp(-2 * mpmath.mpf(eta) * a2)
        original = 1 + cos_phi * mpmath.exp(-2 * a2)
        return kept / original * mpmath.exp(-2 * (1 - mpmath.mpf(eta)) * a2)


def _odd_amplify_mp(alpha, p):
    """The phi=pi amplifier fraction at 50 digits, from the float inputs, in
    the uncleared form A p^2 / [A p^2 + 2 p (1-p)/gate + (1-p)^2]."""
    with mpmath.workdps(50):
        a2 = mpmath.mpf(alpha) ** 2
        p = mpmath.mpf(p)
        gate = -mpmath.expm1(-2 * a2)
        coeff = (1 + mpmath.exp(-4 * a2)) / gate**2
        return coeff * p**2 / (coeff * p**2 + 2 * p * (1 - p) / gate + (1 - p) ** 2)


class TestLossFractionPrecision:
    @pytest.mark.parametrize("alpha", [1e-4, 1e-6])
    def test_small_odd_cat_matches_mpmath(self, alpha):
        # 1 + cos(phi) e^{-2 alpha^2} cancels for an odd cat at small alpha
        got = loss_fraction(0.5, CssParams(alpha, math.pi))
        want = _loss_fraction_mp(0.5, alpha, math.pi)
        assert abs(got - want) <= 1e-14 * abs(want)


_alphas = st.floats(1e-3, 5.0)
_phases = st.floats(0.0, TWO_PI, exclude_max=True)
_fractions = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
_taps = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
_outcomes = st.floats(-6.0, 6.0)
_efficiencies = st.just(1.0 - 1e-15) | st.floats(
    0.0, 1.0, exclude_min=True, exclude_max=True
)
_properties = settings(max_examples=300, deadline=None, derandomize=True, database=None)


class TestFractionBounds:
    """No result is clamped, so the bounds must hold by construction."""

    @_properties
    @given(_alphas, _phases, _fractions, _taps, _outcomes)
    def test_purify_fraction_in_unit_interval(self, alpha, phi, p, T, k):
        out, _, _ = purify(MixedCss(CssParams(alpha, phi), p), TapSetting(T, k))
        assert 0.0 <= out.p <= 1.0

    @_properties
    @given(_alphas, _phases, _fractions, _taps, _outcomes, _efficiencies)
    def test_inefficient_fraction_in_unit_interval(self, alpha, phi, p, T, k, eta_H):
        state = MixedCss(CssParams(alpha, phi), p)
        out = purify_with_inefficiency(state, TapSetting(T, k, eta_H))
        assert 0.0 <= out.p <= 1.0

    @_properties
    @given(_alphas, _phases, _taps, _outcomes)
    def test_css_density_non_negative(self, alpha, phi, T, k):
        assert homodyne_density_css(k, CssParams(alpha, phi), T) >= 0.0

    def test_pure_input_near_lossless_stays_in_bounds(self):
        # a loss of 1e-16 leaves a surviving fraction 1 - O(1e-16); written
        # as a plain quotient it rounds above 1 for about 0.1% of these draws
        rng = np.random.default_rng(25)
        for _ in range(2000):
            state = MixedCss(
                CssParams(rng.uniform(1e-3, 5.0), rng.uniform(0.0, TWO_PI)), 1.0
            )
            eta = 1.0 - rng.choice([1e-15, 1e-16])
            tap = TapSetting(rng.uniform(0.01, 0.99), rng.uniform(-6.0, 6.0), eta)
            assert 0.0 <= purify_with_inefficiency(state, tap).p <= 1.0
            assert 0.0 <= apply_loss(state, ChannelSetting(eta)).p <= 1.0

    @_properties
    @given(_alphas, _phases, _fractions, _taps, _outcomes)
    def test_ideal_detector_is_purify_exactly(self, alpha, phi, p, T, k):
        state = MixedCss(CssParams(alpha, phi), p)
        tap = TapSetting(T, k, 1.0)
        assert purify_with_inefficiency(state, tap) == purify(state, tap)[0]


class TestEffectiveLossFraction:
    def test_perfect_detector_reduces_to_plain_loss(self):
        params = CssParams(1.0, math.pi)
        assert effective_loss_fraction(0.8, params, 0.5, 1.0) == loss_fraction(
            0.8, params
        )

    def test_effective_transmittance_substitution(self):
        params = CssParams(1.0, 0.0)
        direct = loss_fraction(0.9 * (0.5 + 0.98 * 0.5), params)
        assert effective_loss_fraction(0.9, params, 0.5, 0.98) == pytest.approx(
            direct, abs=1e-16
        )

    def test_line_transmittance_checked_on_its_own(self):
        # eta * (T + eta_H (1 - T)) = 0.9 is in range, but eta itself is not
        with pytest.raises(ValueError) as info:
            effective_loss_fraction(1.2, CssParams(1.0, 0.0), 0.5, 0.5)
        assert str(info.value) == "transmittance must lie in (0, 1], got 1.2"


class TestSuccessRegion:
    def test_aligned_phase_arcs(self):
        theta_star = math.acos(math.exp(-1.0))
        region = success_region(CssParams(1.0, 0.0), 0.5)
        assert len(region) == 2
        assert region[0][0] == 0.0
        assert region[0][1] == pytest.approx(theta_star, abs=1e-12)
        assert region[1][0] == pytest.approx(TWO_PI - theta_star, abs=1e-12)
        assert region[1][1] == pytest.approx(TWO_PI, abs=1e-12)

    def test_opposed_phase_is_complement_containing_pi(self):
        theta_star = math.acos(math.exp(-1.0))
        region = success_region(CssParams(1.0, math.pi), 0.5)
        assert len(region) == 1
        lo, hi = region[0]
        assert lo == pytest.approx(theta_star, abs=1e-12)
        assert hi == pytest.approx(TWO_PI - theta_star, abs=1e-12)
        assert lo < math.pi < hi

    def test_endpoints_match_ratio_sign_changes(self):
        params = CssParams(0.8, 1.9)
        R = 0.35
        region = success_region(params, R)

        def gap(theta):
            return detection_ratio(params, 1.0 - R, theta) - 1.0

        # locate every sign change on a fine grid, then bisect
        grid = np.linspace(0.0, TWO_PI, 20001)
        roots = []
        values = [gap(t) for t in grid]
        for a, b, fa, fb in zip(grid, grid[1:], values, values[1:]):
            if fa == 0.0 or fa * fb >= 0.0:
                continue
            lo, hi = a, b
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if gap(lo) * gap(mid) <= 0.0:
                    hi = mid
                else:
                    lo = mid
            roots.append(0.5 * (lo + hi))
        endpoints = sorted(
            e for piece in region for e in piece if 0.0 < e < TWO_PI
        )
        assert len(roots) == len(endpoints)
        for root, endpoint in zip(sorted(roots), endpoints):
            assert root == pytest.approx(endpoint, abs=1e-10)

    def test_membership_properties(self):
        rng = np.random.default_rng(25)
        for _ in range(40):
            params = CssParams(rng.uniform(0.1, 2.0), rng.uniform(0.0, TWO_PI))
            R = rng.uniform(0.05, 0.95)
            region = success_region(params, R)
            if not region:
                continue

            def inside(theta):
                return any(lo < theta < hi for lo, hi in region)

            best = (-params.phi) % TWO_PI
            if all(abs(best - e) > 1e-9 for piece in region for e in piece):
                assert inside(best)
            for lo, hi in region:
                mid = 0.5 * (lo + hi)
                assert detection_ratio(params, 1.0 - R, mid) < 1.0

    def test_full_circle_and_empty_cases(self):
        assert success_region(CssParams(1.0, math.pi), 0.0) == ((0.0, TWO_PI),)
        assert success_region(CssParams(1.0, 0.0), 0.0) == ()

    def test_alpha_zero_rejected(self):
        with pytest.raises(DegenerateStateError):
            success_region(CssParams(0.0, 0.0), 0.5)


class TestOptimalK:
    def test_aligned_phase_picks_zero(self):
        assert optimal_k(CssParams(1.0, 0.0), 0.5) == 0.0

    def test_opposed_phase_reference_points(self):
        assert optimal_k(CssParams(1.0, math.pi), 0.5) == pytest.approx(
            math.pi / 2.0, abs=1e-15
        )
        assert optimal_k(CssParams(1.0, math.pi), 0.125) == pytest.approx(
            math.pi, abs=1e-15
        )

    def test_phase_cancellation(self):
        rng = np.random.default_rng(26)
        for _ in range(30):
            params = CssParams(rng.uniform(0.1, 2.0), rng.uniform(0.0, TWO_PI))
            R = rng.uniform(0.05, 0.95)
            k = optimal_k(params, R)
            total = (params.phi + theta_of_k(k, params.alpha, R)) % TWO_PI
            assert min(total, TWO_PI - total) <= 1e-12
            assert abs(k) <= math.pi / (2.0 * math.sqrt(2.0 * R) * params.alpha) + 1e-12

    def test_unreachable_rejected(self):
        with pytest.raises(PhysicsError):
            optimal_k(CssParams(0.0, 0.0), 0.5)
        with pytest.raises(PhysicsError):
            optimal_k(CssParams(1.0, 0.0), 0.0)


class TestWindowAcceptance:
    def test_whole_line_is_certain(self):
        state = MixedCss(CssParams(1.0, math.pi), 0.5)
        assert window_acceptance(state, 0.5, 0.0, 12.0) == pytest.approx(1.0, abs=1e-8)

    def test_wide_window_keeps_the_peak(self):
        state = MixedCss(CssParams(1.0, math.pi), 0.5)
        assert window_acceptance(state, 0.5, 0.0, 1e4) == pytest.approx(1.0, abs=1e-10)

    def test_far_window_matches_erfc(self):
        # [3, 9997]: integrate p P_C + (1-p) P_0 over [3, inf) with the complex
        # erfc, (1/sqrt(pi)) int_a^inf e^{-k^2 + i theta k} dk
        #     = e^{-theta^2/4} erfc(a - i theta/2) / 2
        alpha, phi, p, T = 1.0, math.pi, 0.5, 0.5
        with mpmath.workdps(30):
            a2 = mpmath.mpf(alpha) ** 2
            theta = 2 * mpmath.sqrt(2 * (1 - mpmath.mpf(T))) * alpha
            tail = mpmath.erfc(3) / 2
            wave = mpmath.re(
                mpmath.exp(1j * phi - theta**2 / 4) * mpmath.erfc(3 - 0.5j * theta) / 2
            )
            css = (tail + mpmath.exp(-2 * T * a2) * wave) / (
                1 + mpmath.cos(phi) * mpmath.exp(-2 * a2)
            )
            expected = float(p * css + (1 - p) * tail)
        state = MixedCss(CssParams(alpha, phi), p)
        assert window_acceptance(state, T, 5000.0, 4997.0) == pytest.approx(
            expected, rel=1e-9
        )

    def test_window_past_representable_outcomes_accepts_nothing(self):
        state = MixedCss(CssParams(1.0, math.pi), 0.5)
        assert window_acceptance(state, 0.5, 100.0, 50.0) == 0.0
        assert window_acceptance(state, 0.5, -1e300, 1e299) == 0.0

    def test_gaussian_window_matches_erf(self):
        # alpha = 0 reduces the joint density to the unit Gaussian
        state = MixedCss(CssParams(0.0, 0.0), 0.5)
        for w in (0.3, 1.0, 2.5):
            assert window_acceptance(state, 0.5, 0.0, w) == pytest.approx(
                math.erf(w), abs=1e-10
            )

    def test_matches_erf_closed_form(self):
        rng = np.random.default_rng(20261018)
        for _ in range(300):
            alpha = 10.0 ** rng.uniform(-3.0, math.log10(20.0))
            T = 1.0 - rng.uniform()  # (0, 1]
            phi, p = rng.uniform(0.0, TWO_PI), rng.uniform()
            center = rng.uniform(-8.0, 8.0)
            half_width = rng.uniform(0.0, 1.0 if rng.uniform() < 0.5 else 50.0)
            got = window_acceptance(MixedCss(CssParams(alpha, phi), p), T, center, half_width)
            expected = _window_reference(alpha, phi, p, T, center - half_width, center + half_width)
            assert got == pytest.approx(expected, rel=1e-11), (alpha, phi, p, T, center, half_width)

    @pytest.mark.parametrize("T", [1e-3, 1e-2])
    def test_fast_phase_at_small_T(self, T):
        # alpha=20 with nearly all light tapped: the outcome imprints
        # c = 2 sqrt(2R) alpha ~ 56 radians per unit k, while e^{-2 T alpha^2}
        # keeps the oscillating term in the density
        rng = np.random.default_rng(5)
        for center, half_width in [(0.0, 50.0), (0.3, 0.2), (-2.0, 1.5), (7.5, 0.5)]:
            phi, p = rng.uniform(0.0, TWO_PI), rng.uniform()
            got = window_acceptance(MixedCss(CssParams(20.0, phi), p), T, center, half_width)
            expected = _window_reference(20.0, phi, p, T, center - half_width, center + half_width)
            assert got == pytest.approx(expected, rel=1e-11), (phi, p, center, half_width)

    @pytest.mark.parametrize("alpha", [30.0, 1e4])
    def test_washed_out_phase_at_large_alpha(self, alpha):
        # e^{-2 T alpha^2} underflows: the density is the Gaussian to rounding,
        # though the outcome imprints c = 2 alpha radians per unit k
        state = MixedCss(CssParams(alpha, 2.0), 0.6)
        expected = _window_reference(alpha, 2.0, 0.6, 0.5, -0.8, 1.2)
        assert window_acceptance(state, 0.5, 0.2, 1.0) == pytest.approx(expected, rel=1e-11)

    def test_rule_matches_numpy_leggauss(self):
        nodes, weights = np.polynomial.legendre.leggauss(20)
        rule = sorted(analytic._GAUSS_LEGENDRE_20)
        assert np.max(np.abs([x for x, _ in rule] - nodes)) <= 1e-15
        assert np.max(np.abs([w for _, w in rule] - weights)) <= 1e-14


def _window_reference(alpha, phi, p, T, lo, hi):
    """int_lo^hi of p P_C + (1-p) P_0 in closed form at 60 digits, the
    [lo, hi] form of the erfc value in test_far_window_matches_erfc. With
    c = 2 sqrt(2R) alpha, (1/sqrt(pi)) int_lo^hi e^{-k^2 + i c k} dk
    = e^{-c^2/4} [erfc(lo - ic/2) - erfc(hi - ic/2)] / 2; left of 0 the
    mirrored erfc(ic/2 - hi) - erfc(ic/2 - lo) keeps it from cancelling."""
    with mpmath.workdps(60):
        alpha, phi, p, T, lo, hi = (mpmath.mpf(v) for v in (alpha, phi, p, T, lo, hi))
        c = 2 * mpmath.sqrt(2 * (1 - T)) * alpha

        def span(shift):
            if lo >= 0:
                return (mpmath.erfc(lo - shift) - mpmath.erfc(hi - shift)) / 2
            return (mpmath.erfc(shift - hi) - mpmath.erfc(shift - lo)) / 2

        gauss = span(0)
        wave = mpmath.re(mpmath.exp(1j * phi - c * c / 4) * span(0.5j * c))
        css = (gauss + mpmath.exp(-2 * T * alpha**2) * wave) / (
            1 + mpmath.cos(phi) * mpmath.exp(-2 * alpha**2)
        )
        return float(p * css + (1 - p) * gauss)


class TestUnderflowedNorm:
    # alpha^2 underflows to 0, so the odd cat's norm 1 + cos(pi) e^{-2 alpha^2}
    # is exactly 0: the pair is as degenerate as (alpha=0, phi=pi)
    STATE = MixedCss(CssParams(1e-170, math.pi), 0.5)

    def test_flagged_degenerate(self):
        assert self.STATE.params.is_degenerate
        assert normalization(self.STATE.params) == 0.0

    @pytest.mark.parametrize(
        "call",
        [
            lambda s: loss_fraction(0.5, s.params),
            lambda s: homodyne_density_css(0.0, s.params, 0.5),
            lambda s: purify(s, TapSetting(0.5, 0.0)),
            lambda s: purify_with_inefficiency(s, TapSetting(0.5, 0.0, 0.98)),
            lambda s: window_acceptance(s, 0.5, 0.0, 1.0),
            purity_mixed_css,
        ],
        ids=[
            "loss_fraction",
            "homodyne_density_css",
            "purify",
            "purify_with_inefficiency",
            "window_acceptance",
            "purity_mixed_css",
        ],
    )
    def test_rejected(self, call):
        with pytest.raises(DegenerateStateError):
            call(self.STATE)


class TestAmplify:
    def test_pure_input_stays_pure(self):
        out = amplify(MixedCss(CssParams(0.6, 0.0), 1.0))
        assert out.p == 1.0
        assert out.params.alpha == pytest.approx(0.6 * math.sqrt(2.0), abs=1e-15)
        assert out.params.phi == 0.0

    def test_reference_values(self):
        assert amplify(MixedCss(CssParams(0.5, math.pi), 0.5)).p == pytest.approx(
            0.5922488638743828, abs=1e-15
        )
        assert amplify(MixedCss(CssParams(0.5, 0.0), 0.5)).p == pytest.approx(
            0.19099442473651898, abs=1e-15
        )

    def test_large_amplitude_asymptote(self):
        assert amplify(MixedCss(CssParams(3.0, 0.0), 0.5)).p == pytest.approx(
            0.25, abs=1e-3
        )
        assert amplify(MixedCss(CssParams(3.0, math.pi), 0.3)).p == pytest.approx(
            0.09, abs=1e-3
        )

    def test_agrees_with_dyad_cascade(self):
        for p, alpha, phi in [(0.5, 0.5, math.pi), (0.8, 0.9, math.pi), (0.4, 0.7, 0.0)]:
            closed = amplify(MixedCss(CssParams(alpha, phi), p)).p
            assert closed == pytest.approx(
                dy.amplifier_sim(p, CssParams(alpha, phi)), abs=1e-9
            )

    def test_unsupported_phase_points_to_simulator(self):
        with pytest.raises(ValueError, match="amplifier_sim"):
            amplify(MixedCss(CssParams(0.5, math.pi / 2.0), 0.5))

    def test_zero_amplitude_rejected(self):
        with pytest.raises(ValueError):
            amplify(MixedCss(CssParams(0.0, 0.0), 0.5))

    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("alpha", [1e-160, 1e-100, 1e-20, 1e-9, 1e-6, 1e-3])
    def test_small_odd_cat_matches_mpmath(self, alpha, p):
        # the odd gate 1 - e^{-2 alpha^2} is 0 in floating point below
        # alpha ~ 1e-8 and its square underflows below alpha ~ 1e-80
        got = amplify(MixedCss(CssParams(alpha, math.pi), p)).p
        want = _odd_amplify_mp(alpha, p)
        assert 0.0 <= got <= 1.0
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_degenerate_odd_pair_rejected(self):
        with pytest.raises(DegenerateStateError):
            amplify(MixedCss(CssParams(1e-170, math.pi), 0.5))


class TestThresholdAndConcat:
    def test_unit_crossing(self):
        alpha_star = math.sqrt(math.log(1.0 + math.sqrt(2.0)) / 2.0)
        assert abs(amplification_threshold(alpha_star) - 1.0) <= 1e-12

    def test_reference_value(self):
        assert amplification_threshold(0.5) == pytest.approx(
            0.2104196435293945, abs=1e-15
        )

    def test_small_amplitude_limit(self):
        assert amplification_threshold(0.01) < 1e-7

    @pytest.mark.parametrize("alpha", [13.5, 30.0])
    def test_beyond_float_range_is_infinite(self, alpha):
        assert amplification_threshold(alpha) == math.inf

    def test_largest_finite_values_unchanged(self):
        for alpha in (10.0, 13.0, 13.3):
            expected = 0.5 * math.expm1(2.0 * alpha * alpha) ** 2
            assert amplification_threshold(alpha) == expected < math.inf

    def test_threshold_matches_gain_crossing(self):
        for alpha in (0.5, 0.6):
            target = amplification_threshold(alpha)

            def gap(p):
                return amplify(MixedCss(CssParams(alpha, math.pi), p)).p - p

            lo, hi = max(target - 0.1, 1e-6), min(target + 0.1, 1.0 - 1e-6)
            assert gap(lo) < 0.0 < gap(hi)
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if gap(mid) < 0.0:
                    lo = mid
                else:
                    hi = mid
            assert 0.5 * (lo + hi) == pytest.approx(target, abs=1e-6)

    def test_concat_pure_input(self):
        assert concat_stages(1.0, 1.0)[1] == 1.0

    def test_concat_reference_values(self):
        p_mid, p_final = concat_stages(0.5, 1.0)
        assert p_mid == pytest.approx(0.5464491031607007, abs=1e-15)
        assert p_final == pytest.approx(0.24181836090865347, abs=1e-15)
        assert concat_stages(0.5, 1.0)[1] == p_final
        assert p_final < 0.5

    def test_concat_matches_oracle(self):
        p_mid, p_final = concat_stages(0.5, 1.0)
        oracle = dy.amplifier_sim(p_mid, CssParams(1.0 / math.sqrt(2.0), 0.0))
        assert p_final == pytest.approx(oracle, abs=1e-9)


class TestPurity:
    def test_pure_state(self):
        assert purity_mixed_css(MixedCss(CssParams(0.7, 1.2), 1.0)) == 1.0

    def test_dephased_large_amplitude(self):
        assert purity_mixed_css(MixedCss(CssParams(3.0, 0.0), 0.0)) == pytest.approx(
            0.5, abs=1e-10
        )

    def test_smaller_amplitude_purer_at_low_fraction(self):
        low = purity_mixed_css(MixedCss(CssParams(0.1, 0.0), 0.1))
        high = purity_mixed_css(MixedCss(CssParams(1.0, 0.0), 0.1))
        assert low > high

    def test_matches_oracle(self):
        state = MixedCss(CssParams(1.0, 0.0), 0.5)
        assert purity_mixed_css(state) == pytest.approx(
            dy.purity(dy.make_mixed(state)), abs=1e-12
        )

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateStateError):
            purity_mixed_css(MixedCss(CssParams(0.0, math.pi), 0.5))


_CAT = CssParams(1.0, 0.0)
_MIX = MixedCss(_CAT, 0.5)


class TestRawFloatMessages:
    """The entry points that take bare floats name the offending value
    exactly as the records do."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: loss_fraction(1.5, _CAT), "transmittance must lie in (0, 1], got 1.5"),
            (lambda: loss_fraction(math.nan, _CAT), "transmittance must lie in (0, 1], got nan"),
            (
                lambda: effective_loss_fraction(0.5, _CAT, 0.0, 1.0),
                "transmittance must lie in (0, 1], got 0.0",
            ),
            (
                lambda: effective_loss_fraction(0.5, _CAT, 0.5, 2),
                "detector efficiency must lie in (0, 1], got 2",
            ),
            (
                lambda: effective_loss_fraction(1.5, _CAT, 0.5, 1.0),
                "transmittance must lie in (0, 1], got 1.5",
            ),
            (lambda: theta_of_k(0.1, 1.0, -0.5), "reflectivity must lie in [0, 1], got -0.5"),
            (lambda: theta_of_k(0.1, 1.0, math.nan), "reflectivity must lie in [0, 1], got nan"),
            (
                lambda: homodyne_density_css(0.0, _CAT, 1.5),
                "transmittance must lie in (0, 1], got 1.5",
            ),
            (lambda: detection_ratio(_CAT, 0, 0.0), "transmittance must lie in (0, 1], got 0"),
            (lambda: success_region(_CAT, 1.5), "reflectivity must lie in [0, 1], got 1.5"),
            (lambda: optimal_k(_CAT, -0.5), "reflectivity must lie in [0, 1], got -0.5"),
            (
                lambda: window_acceptance(_MIX, 1.5, 0.0, 1.0),
                "transmittance must lie in (0, 1], got 1.5",
            ),
            (lambda: window_acceptance(_MIX, 0.5, 0.0, -1.0), "window half-width must be >= 0"),
            (lambda: concat_stages(1.5, 1.0), "fraction must lie in [0, 1], got 1.5"),
            (lambda: concat_stages(-0.5, 1.0), "fraction must lie in [0, 1], got -0.5"),
            (lambda: concat_stages(0.5, 0.0), "concatenation needs alpha > 0"),
            (
                lambda: homodyne_density_css(math.nan, _CAT, 0.5),
                "homodyne outcome must be finite, got nan",
            ),
            (lambda: homodyne_density_mix(math.nan), "homodyne outcome must be finite, got nan"),
            (lambda: theta_of_k(math.nan, 1.0, 0.5), "homodyne outcome must be finite, got nan"),
            (
                lambda: theta_of_k(1.0, math.nan, 0.5),
                "amplitude must be a finite real >= 0, got nan",
            ),
            (lambda: detection_ratio(_CAT, 0.5, math.nan), "phase must be finite, got nan"),
            (
                lambda: amplification_threshold(math.nan),
                "amplitude must be a finite real >= 0, got nan",
            ),
            (
                lambda: amplification_threshold(-1.0),
                "amplitude must be a finite real >= 0, got -1.0",
            ),
            (
                lambda: window_acceptance(_MIX, 0.5, math.nan, 1.0),
                "window center must be finite, got nan",
            ),
        ],
    )
    def test_exact_message(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


# alpha^2 overflows past alpha = 1.34e154; every exponent e^{-c alpha^2}
# is then 0 (or 1 at c = 0), as it already is at alpha = 1e154
_HUGE = [1.4e154, 1e200, 1e300]
_LARGE = 1e154


def _in_unit(x):
    return isinstance(x, float) and 0.0 <= x <= 1.0


class TestHugeAmplitude:
    @pytest.mark.parametrize("alpha", _HUGE)
    @pytest.mark.parametrize("phi", [0.0, 1.0, math.pi])
    def test_state_functions(self, alpha, phi):
        big, ref = CssParams(alpha, phi), CssParams(_LARGE, phi)
        assert big.is_degenerate is False
        assert normalization(big) == normalization(ref) == 2.0
        state, ref_state = MixedCss(big, 0.5), MixedCss(ref, 0.5)
        assert purity_mixed_css(state) == purity_mixed_css(ref_state)
        assert _in_unit(purity_mixed_css(state))
        for R in (0.0, 0.5, 1.0):
            assert success_region(big, R) == success_region(ref, R)
        # the superposition's fringes have weight e^{-2 T alpha^2} = 0
        accepted = window_acceptance(state, 0.5, 0.0, 1.0)
        assert accepted == pytest.approx(math.erf(1.0), rel=1e-13)
        assert _in_unit(window_acceptance(state, 1.0, 0.3, 2.0))

    @pytest.mark.parametrize("alpha", _HUGE)
    @pytest.mark.parametrize("eta", [1e-300, 0.5, 1.0])
    def test_loss(self, alpha, eta):
        big, ref = CssParams(alpha, 0.3), CssParams(_LARGE, 0.3)
        assert loss_fraction(eta, big) == loss_fraction(eta, ref) == (1.0 if eta == 1.0 else 0.0)
        out = apply_loss(MixedCss(big, 0.5), ChannelSetting(eta))
        assert out.p == (0.5 if eta == 1.0 else 0.0)
        assert effective_loss_fraction(eta, big, 0.5, 0.9) == loss_fraction(eta * 0.95, big)

    @pytest.mark.parametrize("alpha", _HUGE)
    @pytest.mark.parametrize("T", [1e-300, 0.5, 1.0])
    def test_outcome_densities(self, alpha, T):
        big, ref = CssParams(alpha, math.pi), CssParams(_LARGE, math.pi)
        assert detection_ratio(big, T, 0.0) == detection_ratio(ref, T, 0.0)
        assert math.isfinite(homodyne_density_css(0.0, big, T))
        assert homodyne_density_css(0.0, big, T) == homodyne_density_css(0.0, ref, T)

    @pytest.mark.parametrize("alpha", _HUGE)
    @pytest.mark.parametrize("T", [0.5, 1.0])
    @pytest.mark.parametrize("eta_H", [1.0, 0.9])
    def test_purify(self, alpha, T, eta_H):
        state = MixedCss(CssParams(alpha, math.pi), 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = purify_with_inefficiency(state, TapSetting(T, 0.0, eta_H))
        assert _in_unit(out.p)
        assert out.params.alpha == math.sqrt(T) * alpha

    @pytest.mark.parametrize("alpha", _HUGE)
    @pytest.mark.parametrize("phi", [0.0, math.pi])
    def test_amplify_and_concat(self, alpha, phi):
        out = amplify(MixedCss(CssParams(alpha, phi), 0.5))
        assert out.p == amplify(MixedCss(CssParams(_LARGE, phi), 0.5)).p
        assert _in_unit(out.p)
        assert concat_stages(0.5, alpha) == concat_stages(0.5, _LARGE)


class TestOverflowedPhase:
    """An imprinted phase 2 sqrt(2 R) alpha k beyond the float range: an
    outcome whose Gaussian factor e^{-k^2} is 0 has density 0, and a fringe
    whose weight e^{-2 T alpha^2} is 0 is never evaluated."""

    @pytest.mark.parametrize("alpha", [1.0, 1e200, 1.7e308])
    @pytest.mark.parametrize("k", [1e200, -1.7e308])
    @pytest.mark.parametrize("phi", [0.0, math.pi])
    def test_unrepresentable_outcome_has_zero_density(self, alpha, k, phi):
        params = CssParams(alpha, phi)
        assert homodyne_density_css(k, params, 0.5) == 0.0
        with pytest.raises(ZeroDensityError) as info:
            purify(MixedCss(params, 0.5), TapSetting(0.5, k))
        assert str(info.value) == f"event of zero density: the outcome k={k!r} never occurs"

    @pytest.mark.parametrize("alpha", [1e307, 1e308, 1.7e308])
    @pytest.mark.parametrize("phi", [0.0, 1.0, math.pi])
    @pytest.mark.parametrize("k", [0.0, 1.0])
    def test_weightless_fringe(self, alpha, phi, k):
        params = CssParams(alpha, phi)
        assert homodyne_density_css(k, params, 0.5) == homodyne_density_mix(k)
        accepted = window_acceptance(MixedCss(params, 0.5), 0.5, k, 1.0)
        assert accepted == pytest.approx(0.5 * (math.erf(k + 1.0) - math.erf(k - 1.0)), rel=1e-13)
