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
    homodyne_density_css,
    homodyne_density_mix,
    loss_fraction,
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
from catpurify.states import _pair_norm

TWO_PI = 2.0 * math.pi


class TestStates:
    def test_phase_reduced_into_range(self):
        assert CssParams(1.0, -math.pi).phi == pytest.approx(math.pi, abs=1e-15)
        assert CssParams(1.0, TWO_PI).phi == 0.0
        assert CssParams(1.0, 1.0).phi == 1.0

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


class TestPairNorm:
    # the squared norm of |alpha> + e^{i phi}|-alpha> is 2 _pair_norm(phi, 2 alpha^2)
    def test_vacuum_pair(self):
        assert _pair_norm(0.0, 0.0) == 2.0

    def test_degenerate_pair_is_zero_not_error(self):
        assert _pair_norm(math.pi, 0.0) == 0.0

    def test_reference_value(self):
        assert 2.0 * _pair_norm(0.0, 2.0) == pytest.approx(2.2706705664732254, abs=1e-15)


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
        total = float(mpmath.quad(lambda k: homodyne_density_css(k, params, T), [-12.0, 12.0]))
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_mix_density_normalized(self):
        total = float(mpmath.quad(homodyne_density_mix, [-12.0, 12.0]))
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

    def test_superposition_density_is_the_homodyne_density(self):
        # one formula for P_C: bit for bit, in the verify box and beyond it
        rng = np.random.default_rng(25)
        for i in range(20000):
            if i % 2:
                alpha, k = rng.uniform(0.02, 2.0), rng.uniform(-3.0, 3.0)
            else:
                alpha, k = 10.0 ** rng.uniform(-8.0, 1.5), rng.uniform(-27.0, 27.0)
            params = CssParams(alpha, rng.uniform(0.0, TWO_PI))
            T = rng.uniform(0.02, 0.98)
            try:
                _, density_css, _ = purify(MixedCss(params, rng.uniform()), TapSetting(T, k))
            except ZeroDensityError:
                continue
            assert density_css == homodyne_density_css(k, params, T), (alpha, params.phi, T, k)

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

    @pytest.mark.parametrize("p", [1.0, 1.0 - 1e-6])
    def test_zero_joint_density_rejected(self, p):
        # at k = 27.2 both densities are representable, but the outcome that
        # nearly cancels the odd cat leaves p P_C + (1 - p) P_0 underflowed
        alpha, k = 1e-3, 27.2
        state = MixedCss(CssParams(alpha, math.pi - theta_of_k(k, alpha, 0.5)), p)
        assert homodyne_density_mix(k) > 0.0
        with pytest.raises(ZeroDensityError) as info:
            purify(state, TapSetting(0.5, k))
        assert str(info.value) == "event of zero density: the outcome k=27.2 never occurs"

    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    def test_outcome_only_the_dephased_component_produces(self, p):
        # 2 T alpha^2 underflows and phi + theta rounds to pi, so the kept
        # norm is 0: the joint density is (1 - p) P_0, and where that is
        # positive the posterior is 0
        alpha, k = 0.5, (math.pi - 1.0) / math.sqrt(2.0)
        tap = TapSetting(5e-324, k)
        assert analytic._kept_norm(alpha, 1.0, tap.T, theta_of_k(k, alpha, tap.R)) == 0.0
        state = MixedCss(CssParams(alpha, 1.0), p)
        if p == 1.0:
            with pytest.raises(ZeroDensityError) as info:
                purify(state, tap)
            assert str(info.value) == f"event of zero density: the outcome k={k!r} never occurs"
            return
        out, density_css, density_mix = purify(state, tap)
        assert (out.p, density_css, density_mix) == (0.0, 0.0, homodyne_density_mix(k))
        assert math.copysign(1.0, out.p) == math.copysign(1.0, density_css) == 1.0
        assert (1.0 - p) * density_mix > 0.028
        assert out.params == CssParams(math.sqrt(tap.T) * alpha, 1.0 + theta_of_k(k, alpha, tap.R))

    def test_blind_tap_warns_and_changes_nothing(self):
        with pytest.warns(UserWarning):
            out, _, _ = purify(
                MixedCss(CssParams(1.0, 0.0), 0.5), TapSetting(1.0, 0.3)
            )
        assert out.p == pytest.approx(0.5, abs=1e-16)

    def test_no_missed_light_matches_the_survival_path(self):
        # at eta_H = 1, or at T = 1 for any eta_H, no light is missed and the
        # tap keeps L: the fraction read off L is the posterior of the
        # detection ratio to 2.2e-16, and the rest of the output bit for bit
        rng = np.random.default_rng(28)
        for i in range(3000):
            params = CssParams(10.0 ** rng.uniform(-3.0, 1.0), rng.uniform(0.0, TWO_PI))
            p, k = rng.uniform(), rng.uniform(-4.0, 4.0)
            T, eta_H = (1.0, rng.uniform(0.02, 1.0)) if i % 5 == 0 else (rng.uniform(0.02, 1.0), 1.0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the blind tap T = 1 warns
                try:
                    out, density_css, density_mix = purify(MixedCss(params, p), TapSetting(T, k, eta_H))
                except ZeroDensityError:
                    continue
            theta = theta_of_k(k, params.alpha, 1.0 - T)
            posterior = analytic._posterior(p, detection_ratio(params, T, theta))
            assert abs(out.p - posterior) <= 2.3e-16, (params, p, T, k, eta_H)
            expected = (
                math.sqrt(T) * params.alpha,
                CssParams(1.0, (params.phi + theta) % TWO_PI).phi,
                homodyne_density_css(k, params, T),
                homodyne_density_mix(k),
            )
            got = (out.params.alpha, out.params.phi, density_css, density_mix)
            assert _hex(got) == _hex(expected), (params, p, T, k, eta_H)

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


def _amplify_mp(alpha, phi, p):
    """The amplifier fraction at 50 digits, from the float inputs, in the
    uncleared form A p^2 / [A p^2 + 2 p (1-p)/N + (1-p)^2], A = M / N^2,
    with N = 1 + cos(phi) e^{-2 alpha^2} and M = 1 + cos(2 phi) e^{-4 alpha^2}.
    The cosines are those of the float phases, rounded once, so phi = math.pi
    is the odd cat: cos(math.pi) is -1 to 1e-32, which would swamp
    1 - e^{-2 alpha^2} below alpha ~ 1e-16. Each norm is written
    (1 + c) + c expm1(-y), which 50 digits resolve down to alpha = 1e-160."""

    def norm(phase, y):
        c = mpmath.mpf(math.cos(phase))
        return (1 + c) + c * mpmath.expm1(-y)

    with mpmath.workdps(50):
        a2 = mpmath.mpf(alpha) ** 2
        p = mpmath.mpf(p)
        norm_in, norm_out = norm(phi, 2 * a2), norm(2.0 * phi % TWO_PI, 4 * a2)
        coeff = norm_out / norm_in**2
        return coeff * p**2 / (coeff * p**2 + 2 * p * (1 - p) / norm_in + (1 - p) ** 2)


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
    @given(_alphas, _phases, _fractions)
    def test_amplify_fraction_in_unit_interval(self, alpha, phi, p):
        assert 0.0 <= amplify(MixedCss(CssParams(alpha, phi), p)).p <= 1.0

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

    @pytest.mark.parametrize("alpha", [6e307, 1e308, 1.7e308])
    @pytest.mark.parametrize("R", [0.5, 1e-3, 1.0])
    def test_phase_cancelled_where_the_phase_per_outcome_overflows(self, alpha, R):
        # past alpha ~ 6e307 the phase per unit outcome 2 sqrt(2 R) alpha is
        # inf, while the outcome that cancels phi is a (subnormal) float
        params = CssParams(alpha, math.pi)
        k = optimal_k(params, R)
        assert k > 0.0
        total = (params.phi + theta_of_k(k, alpha, R)) % TWO_PI
        assert min(total, TWO_PI - total) <= 1e-12

    @pytest.mark.parametrize("alpha, R", [(1e-310, 0.5), (1e-300, 1e-20)])
    def test_outcome_beyond_the_float_range_never_occurs(self, alpha, R):
        # -phi / (2 sqrt(2 R) alpha) overflows, and such an outcome's e^{-k^2} is 0
        with pytest.raises(ZeroDensityError) as info:
            optimal_k(CssParams(alpha, 1.0), R)
        assert str(info.value) == (
            f"event of zero density: the outcome that cancels the phase at alpha={alpha!r}, "
            f"R={R!r} is beyond the float range and never occurs"
        )
        # an aligned phase needs no outcome at all
        assert optimal_k(CssParams(alpha, 0.0), R) == 0.0

    @pytest.mark.parametrize("alpha, R", [(5e-324, 1e-16), (1e-320, 1e-300)])
    def test_phase_per_outcome_underflowed_to_zero(self, alpha, R):
        # 2 sqrt(2 R) alpha is 0 although alpha > 0 and R > 0: no outcome
        # reaches a nonzero target, and a zero target needs none
        assert analytic._theta(1.0, alpha, R) == 0.0
        with pytest.raises(ZeroDensityError) as info:
            optimal_k(CssParams(alpha, 4.5), R)
        assert str(info.value) == (
            f"event of zero density: the outcome that cancels the phase at alpha={alpha!r}, "
            f"R={R!r} is beyond the float range and never occurs"
        )
        assert optimal_k(CssParams(alpha, 0.0), R) == 0.0

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
        # [3, 9997]: the erfc tail of p P_C + (1-p) P_0 from 3 on
        expected = _window_reference(1.0, math.pi, 0.5, 0.5, 3.0, 9997.0)
        state = MixedCss(CssParams(1.0, math.pi), 0.5)
        assert window_acceptance(state, 0.5, 5000.0, 4997.0) == pytest.approx(expected, rel=1e-9)

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

    def test_far_tail_windows(self):
        # panels narrow as 9 / |k| past |k| = 9, out to the representable edge
        rng = np.random.default_rng(2801)
        for _ in range(150):
            alpha, phi, p = rng.uniform(0.05, 3.0), rng.uniform(0.0, TWO_PI), rng.uniform()
            T = rng.uniform(0.05, 1.0)
            center = rng.choice([-1.0, 1.0]) * rng.uniform(5.0, 27.0)
            # the near end stays within |k| = 26.5, where the acceptance is a normal float
            half_width = rng.uniform(max(0.01, abs(center) - 26.5), 3.0)
            _assert_window(alpha, phi, p, T, center, half_width)

    def test_fast_phase_windows(self):
        # large alpha behind a nearly transparent tap: panels one period 2 pi / c wide
        rng = np.random.default_rng(2802)
        for _ in range(150):
            alpha, phi, p = rng.uniform(5.0, 20.0), rng.uniform(0.0, TWO_PI), rng.uniform()
            T = 10.0 ** rng.uniform(-3.0, -1.0)
            _assert_window(alpha, phi, p, T, rng.uniform(-4.0, 4.0), rng.uniform(0.01, 4.0))

    @pytest.mark.parametrize("alpha, T", [(0.5, 0.5), (3.0, 0.5), (2.0, 0.05), (6.0, 0.2)])
    def test_window_one_period_wide(self, alpha, T):
        period = TWO_PI / analytic._theta(1.0, alpha, 1.0 - T)
        for center in (0.0, 0.37, -1.2, 2.9):
            for phi in (0.0, 1.0, math.pi):
                _assert_window(alpha, phi, 0.7, T, center, 0.5 * period)

    @pytest.mark.parametrize(
        "lo, hi",
        [(2.5, 3.5), (-3.6, -2.2), (0.0, 3.2), (8.5, 9.5), (-9.3, -8.9), (6.0, 12.0), (26.4, 28.0), (-29.0, -26.4)],
    )
    def test_windows_across_panel_rule_edges(self, lo, hi):
        # |k| = 3 (widest panel), 9 (panels begin to narrow), 27.28 (the clip)
        for alpha, phi, T in [(0.8, 0.3, 0.5), (2.0, math.pi, 0.3), (1.0, 4.0, 0.9)]:
            _assert_window(alpha, phi, 0.4, T, 0.5 * (lo + hi), 0.5 * (hi - lo))

    def test_rule_matches_numpy_leggauss(self):
        nodes, weights = np.polynomial.legendre.leggauss(20)
        rule = sorted(analytic._GAUSS_LEGENDRE_20)
        assert np.max(np.abs([x for x, _ in rule] - nodes)) <= 1e-15
        assert np.max(np.abs([w for _, w in rule] - weights)) <= 1e-14


def _assert_window(alpha, phi, p, T, center, half_width):
    got = window_acceptance(MixedCss(CssParams(alpha, phi), p), T, center, half_width)
    expected = _window_reference(alpha, phi, p, T, center - half_width, center + half_width)
    assert got == pytest.approx(expected, rel=1e-12), (alpha, phi, p, T, center, half_width)


def _window_reference(alpha, phi, p, T, lo, hi):
    """int_lo^hi of p P_C + (1-p) P_0 in closed form at 60 digits. With
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

    def test_norm_is_zero(self):
        params = self.STATE.params
        assert _pair_norm(params.phi, 2.0 * (params.alpha * params.alpha)) == 0.0

    @pytest.mark.parametrize(
        "call",
        [
            lambda s: loss_fraction(0.5, s.params),
            lambda s: homodyne_density_css(0.0, s.params, 0.5),
            lambda s: purify(s, TapSetting(0.5, 0.0)),
            lambda s: purify_with_inefficiency(s, TapSetting(0.5, 0.0, 0.98)),
            lambda s: window_acceptance(s, 0.5, 0.0, 1.0),
            purity_mixed_css,
            lambda s: detection_ratio(s.params, 0.5, math.pi),
            lambda s: success_region(s.params, 0.5),
        ],
        ids=[
            "loss_fraction",
            "homodyne_density_css",
            "purify",
            "purify_with_inefficiency",
            "window_acceptance",
            "purity_mixed_css",
            "detection_ratio",
            "success_region",
        ],
    )
    def test_rejected(self, call):
        with pytest.raises(DegenerateStateError) as info:
            call(self.STATE)
        assert str(info.value) == "the superposition at alpha=1e-170, phi=3.141592653589793 has zero norm"


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
        rng = np.random.default_rng(16)
        draws = [(0.5, 0.5, math.pi), (0.8, 0.9, math.pi), (0.4, 0.7, 0.0)] + [
            (rng.uniform(0.0, 1.0), rng.uniform(0.05, 1.5), rng.uniform(0.0, TWO_PI)) for _ in range(300)
        ]
        fractions = [p for p, _, _ in draws]
        params = [CssParams(alpha, phi) for _, alpha, phi in draws]
        outs = [amplify(MixedCss(pa, p)) for pa, p in zip(params, fractions)]
        # the oracle extracts the fraction in the (sqrt(2) alpha, 2 phi) family
        for out, pa in zip(outs, params):
            assert out.params == CssParams(math.sqrt(2.0) * pa.alpha, (2.0 * pa.phi) % TWO_PI)
        oracle = dy.amplifier_sim(fractions, params)
        assert np.abs(np.subtract([out.p for out in outs], oracle)).max() <= 1e-12

    @pytest.mark.parametrize("alpha", [1e-3, 0.5, 2.0])
    def test_phase_next_to_pi_matches_pi(self, alpha):
        beside = amplify(MixedCss(CssParams(alpha, math.nextafter(math.pi, 4.0)), 0.5)).p
        assert abs(beside - amplify(MixedCss(CssParams(alpha, math.pi), 0.5)).p) <= 1e-15

    def test_every_phase_matches_mpmath(self):
        rng = np.random.default_rng(17)
        phases = [0.0, math.pi / 2.0, math.pi, 1.5 * math.pi] + rng.uniform(0.0, TWO_PI, 200).tolist()
        alphas = (10.0 ** rng.uniform(-3.0, math.log10(5.0), len(phases))).tolist()
        fractions = [0.0, 1.0] + rng.uniform(0.0, 1.0, len(phases) - 2).tolist()
        for alpha, phi, p in zip(alphas, phases, fractions):
            got = amplify(MixedCss(CssParams(alpha, phi), p)).p
            want = _amplify_mp(alpha, phi, p)
            assert abs(got - want) <= 1e-13 * abs(want), (alpha, phi, p)

    def test_zero_amplitude_rejected(self):
        with pytest.raises(ValueError):
            amplify(MixedCss(CssParams(0.0, 0.0), 0.5))

    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("alpha", [1e-160, 1e-100, 1e-20, 1e-9, 1e-6, 1e-3])
    def test_small_odd_cat_matches_mpmath(self, alpha, p):
        # the odd gate 1 - e^{-2 alpha^2} is 0 in floating point below
        # alpha ~ 1e-8 and its square underflows below alpha ~ 1e-80
        got = amplify(MixedCss(CssParams(alpha, math.pi), p)).p
        want = _amplify_mp(alpha, math.pi, p)
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


def _amplify_formula(alpha, phi, p):
    """The unmemoised reference for `amplify`: the same arithmetic, with
    the output record and both pair norms computed afresh on each call."""
    params = CssParams(alpha, phi)
    out = CssParams(math.sqrt(2.0) * params.alpha, (2.0 * params.phi) % TWO_PI)
    norm_in, norm_out = (_pair_norm(r.phi, 2.0 * (r.alpha * r.alpha)) for r in (params, out))
    x = (1.0 - p) * norm_in / p if p > 0.0 else math.inf
    return out.alpha, out.phi, norm_out / (norm_out + x * (2.0 + x))


def _concat_formula(p_in, alpha):
    """The unmemoised reference for `concat_stages`."""
    p_mid = analytic._posterior(p_in, analytic._ratio(alpha, 0.0, 0.5, 0.0))
    return p_mid, _amplify_formula(alpha / math.sqrt(2.0), 0.0, p_mid)[2]


def _hex(values):
    return [float(v).hex() for v in values]


def _outcome(call):
    try:
        return call()
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


class TestPerAmplitudeMemo:
    """`concat_stages` and `amplify` compute their per-amplitude constants once
    per alpha through a bounded memo; the memo changes no value and no
    rejection, whatever order the amplitudes come in."""

    @staticmethod
    def _draws(seed, alpha_major):
        rng = np.random.default_rng(seed)
        alphas = 10.0 ** rng.uniform(-8.0, 1.5, 40)
        ps = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 28)])
        if alpha_major:
            return [(float(a), float(p)) for a in alphas for p in ps]
        return [(float(a), float(p)) for a, p in zip(rng.choice(alphas, 1200), rng.choice(ps, 1200))]

    @pytest.mark.parametrize("alpha_major", [True, False])
    def test_concat_stages_bitwise(self, alpha_major):
        for alpha, p in self._draws(14, alpha_major):
            assert _hex(concat_stages(p, alpha)) == _hex(_concat_formula(p, alpha)), (alpha, p)

    @pytest.mark.parametrize("alpha_major", [True, False])
    def test_amplify_bitwise(self, alpha_major):
        # the phases alternate at each amplitude, so a memo blind to phi fails
        for alpha, p in self._draws(15, alpha_major):
            for phi in (0.0, math.pi, -0.0, 1.0, 4.0):
                out = amplify(MixedCss(CssParams(alpha, phi), p))
                got = (out.params.alpha, out.params.phi, out.p)
                assert _hex(got) == _hex(_amplify_formula(alpha, phi, p)), (alpha, phi, p)

    @pytest.mark.parametrize(
        "call, kind, message",
        [
            (lambda: concat_stages(0.5, math.nan), ValueError, "alpha must be a finite real >= 0, got nan"),
            (lambda: concat_stages(0.5, math.inf), ValueError, "alpha must be a finite real >= 0, got inf"),
            (lambda: concat_stages(0.5, 0.0), ValueError, "concatenation needs alpha > 0"),
            (lambda: concat_stages(0.5, -1.0), ValueError, "concatenation needs alpha > 0"),
            (lambda: amplify(MixedCss(CssParams(0.0, 0.0), 0.5)), ValueError, "amplification needs alpha > 0"),
            (
                lambda: amplify(MixedCss(CssParams(1.2711610061536462e308, 0.0), 0.5)),
                ValueError,
                "amplified amplitude sqrt(2) alpha overflows at alpha=1.2711610061536462e+308",
            ),
            (
                lambda: amplify(MixedCss(CssParams(1.2711610061536462e308, math.pi), 0.5)),
                ValueError,
                "amplified amplitude sqrt(2) alpha overflows at alpha=1.2711610061536462e+308",
            ),
            (
                lambda: amplify(MixedCss(CssParams(1e-170, math.pi), 0.5)),
                DegenerateStateError,
                "the superposition at alpha=1e-170, phi=3.141592653589793 has zero norm",
            ),
            (
                lambda: amplify(MixedCss(CssParams(1e-170, math.pi / 2.0), 0.5)),
                DegenerateStateError,
                "the superposition at alpha=1.4142135623730951e-170, phi=3.141592653589793 has zero norm",
            ),
        ],
    )
    def test_rejections_repeat(self, call, kind, message):
        assert _outcome(call) == (kind, message)
        assert _outcome(call) == (kind, message)


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
            (lambda: window_acceptance(_MIX, 0.5, 0.0, -1.0), "window half-width must be >= 0, got -1.0"),
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
            (lambda: concat_stages(0.5, "0"), "concatenation needs alpha > 0"),
            (lambda: concat_stages(0.5, np.float64(-1.0)), "concatenation needs alpha > 0"),
            (lambda: concat_stages(0.5, "nan"), "alpha must be a finite real >= 0, got 'nan'"),
            (lambda: concat_stages(0.5, "inf"), "alpha must be a finite real >= 0, got 'inf'"),
            (lambda: window_acceptance(_MIX, 0.5, 0.0, "-1"), "window half-width must be >= 0, got '-1'"),
            (lambda: window_acceptance(_MIX, 0.5, 0.0, "nan"), "window half-width must be >= 0, got 'nan'"),
            # a value float() rejects lies in no domain
            (lambda: theta_of_k(None, 1.0, 0.5), "homodyne outcome must be finite, got None"),
            (lambda: detection_ratio(_CAT, None, 0.0), "transmittance must lie in (0, 1], got None"),
            (lambda: loss_fraction(None, _CAT), "transmittance must lie in (0, 1], got None"),
            (lambda: success_region(_CAT, None), "reflectivity must lie in [0, 1], got None"),
            (lambda: amplification_threshold(None), "amplitude must be a finite real >= 0, got None"),
            (lambda: concat_stages(None, 1.0), "fraction must lie in [0, 1], got None"),
        ],
    )
    def test_exact_message(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: purify(None, TapSetting(0.5)), "state must be a MixedCss, got None"),
            (lambda: purify(_MIX, (0.5, 0.0)), "tap must be a TapSetting, got (0.5, 0.0)"),
            (lambda: apply_loss(_MIX, 0.5), "ch must be a ChannelSetting, got 0.5"),
            (lambda: apply_loss(_CAT, ChannelSetting(0.5)), "state must be a MixedCss, got " + repr(_CAT)),
            (lambda: amplify((1.0, 0.5)), "state must be a MixedCss, got (1.0, 0.5)"),
            (lambda: concat_stages(0.5, None), "alpha must be a finite real >= 0, got None"),
            (lambda: window_acceptance(_MIX, 0.5, 0.0, None), "window half-width must be >= 0, got None"),
        ],
    )
    def test_wrong_types_raise_the_parameter_error(self, call, message):
        # no raw AttributeError or TypeError escapes: each names its parameter
        assert _outcome(call) == (ValueError, message)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: loss_fraction(0.5, None), "params must be a CssParams, got None"),
            (lambda: homodyne_density_css(0.0, None, 0.5), "params must be a CssParams, got None"),
            (lambda: detection_ratio(None, 0.5, 0.0), "params must be a CssParams, got None"),
            (lambda: success_region(None, 0.5), "params must be a CssParams, got None"),
            (lambda: optimal_k(None, 0.5), "params must be a CssParams, got None"),
            (lambda: window_acceptance(None, 0.5, 0.0, 1.0), "state must be a MixedCss, got None"),
            (lambda: purity_mixed_css(None), "state must be a MixedCss, got None"),
        ],
        ids=[
            "loss_fraction", "homodyne_density_css", "detection_ratio", "success_region",
            "optimal_k", "window_acceptance", "purity_mixed_css",
        ],
    )
    def test_wrong_records_raise_the_parameter_error(self, call, message):
        # a record is checked for its type before any of its fields is read
        assert _outcome(call) == (ValueError, message)

    def test_numeric_strings_and_numpy_scalars_convert(self):
        assert concat_stages(0.5, "1") == concat_stages(0.5, np.float64(1.0)) == concat_stages(0.5, 1.0)
        accepted = window_acceptance(_MIX, 0.5, 0.0, 1.0)
        assert window_acceptance(_MIX, 0.5, 0.0, "1") == accepted
        assert window_acceptance(_MIX, 0.5, 0.0, np.float64(1.0)) == accepted
        # an infinite half-width spans the whole line
        assert window_acceptance(_MIX, 0.5, 0.0, "inf") == pytest.approx(1.0, rel=1e-12)


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
        assert _pair_norm(phi, 2.0 * (alpha * alpha)) == _pair_norm(phi, 2.0 * (_LARGE * _LARGE)) == 1.0
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
    @pytest.mark.parametrize("phi", [0.0, 1.0, math.pi])
    def test_amplify_and_concat(self, alpha, phi):
        out = amplify(MixedCss(CssParams(alpha, phi), 0.5))
        assert out.p == amplify(MixedCss(CssParams(_LARGE, phi), 0.5)).p
        assert _in_unit(out.p)
        assert concat_stages(0.5, alpha) == concat_stages(0.5, _LARGE)

    @pytest.mark.parametrize("phi", [0.0, 1.0, math.pi])
    def test_overflowed_amplified_amplitude(self, phi):
        # the largest alpha whose sqrt(2) alpha is still a float
        largest = 1.271161006153646e308
        out = amplify(MixedCss(CssParams(largest, phi), 0.5))
        assert out.params.alpha == math.sqrt(2.0) * largest
        for alpha in (math.nextafter(largest, math.inf), 1.7e308):
            with pytest.raises(ValueError) as info:
                amplify(MixedCss(CssParams(alpha, phi), 0.5))
            assert str(info.value) == f"amplified amplitude sqrt(2) alpha overflows at alpha={alpha!r}"


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

    @pytest.mark.parametrize("alpha", [1e308, 1.7e308])
    @pytest.mark.parametrize("T", [0.5, 0.1])
    def test_zero_outcome_imprints_no_phase(self, alpha, T):
        assert theta_of_k(0.0, alpha, 1.0 - T) == 0.0
        out, density_css, density_mix = purify(MixedCss(CssParams(alpha, 1.0), 0.5), TapSetting(T, 0.0))
        assert out == MixedCss(CssParams(math.sqrt(T) * alpha, 1.0), 0.5)
        assert density_css == density_mix == homodyne_density_mix(0.0)

    def test_representable_phase_kept(self):
        # 2 sqrt(2 R) alpha overflows, the product with k does not
        assert theta_of_k(0.3, 1.7e308, 0.5) == pytest.approx(1.02e308, rel=1e-15)
        out, _, _ = purify(MixedCss(CssParams(1.7e308, 0.0), 0.5), TapSetting(0.5, 0.3))
        assert out.p == 0.5 and 0.0 <= out.params.phi < TWO_PI

    @pytest.mark.parametrize("k, alpha", [(1.0, 1e308), (-1.0, 1.7e308), (20.0, 1e307)])
    def test_unrepresentable_phase_raises(self, k, alpha):
        message = f"the imprinted phase 2 sqrt(2R) alpha k overflows at k={k!r}, alpha={alpha!r}"
        with pytest.raises(ValueError) as info:
            theta_of_k(k, alpha, 0.5)
        assert str(info.value) == message
        with pytest.raises(ValueError) as info:
            purify(MixedCss(CssParams(alpha, 0.0), 0.5), TapSetting(0.5, k))
        assert str(info.value) == message

    @pytest.mark.parametrize("alpha", [1e307, 1e308, 1.7e308])
    @pytest.mark.parametrize("phi", [0.0, 1.0, math.pi])
    @pytest.mark.parametrize("k", [0.0, 1.0])
    def test_weightless_fringe(self, alpha, phi, k):
        params = CssParams(alpha, phi)
        assert homodyne_density_css(k, params, 0.5) == homodyne_density_mix(k)
        accepted = window_acceptance(MixedCss(params, 0.5), 0.5, k, 1.0)
        assert accepted == pytest.approx(0.5 * (math.erf(k + 1.0) - math.erf(k - 1.0)), rel=1e-13)
