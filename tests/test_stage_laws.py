"""Every stage as one line on the decoherence exponent.

The mixture p rho_css(alpha, phi) + (1 - p) rho_0(alpha) has the decoherence
L = ln(1 + (1 - p) n / p), n = N(phi, 2 alpha^2) its pair norm, and
p = n / (n + expm1(L)) at any stage's own (alpha, phi). The stages act as

    stage             alpha          phi             L
    line eta          sqrt(eta) a    phi             L + 2 (1 - eta) a^2
    tap (T, k, eta_H) sqrt(T) a      phi + theta(k)  L + 2 (1 - eta_H) (1 - T) a^2
    amplifier         sqrt(2) a      2 phi           2 L

These tests pin each row against a second form of the same stage, read L
off the dyad oracle, and follow random chains of stages.
"""

import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catpurify import (
    ChannelSetting,
    CssParams,
    MixedCss,
    TapSetting,
    amplify,
    apply_loss,
    concat_stages,
    detection_ratio,
    loss_fraction,
    purify,
    theta_of_k,
)
from catpurify import analytic
from catpurify import dyads as dy
from catpurify.errors import PhysicsError
from catpurify.states import _pair_norm

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import refs  # noqa: E402  (the benchmark's 50-digit references, read only)

TWO_PI = 2.0 * math.pi


def _norm(params: CssParams) -> float:
    return _pair_norm(params.phi, 2.0 * (params.alpha * params.alpha))


def _decoherence(state: MixedCss) -> float:
    return analytic._decoherence(state.p, _norm(state.params))


def _draws(seed: int, count: int):
    """(params, p, unit, rng) draws: alpha in [1e-3, 30], every phi (a
    quarter of them within 1e-8 of pi), p over [0, 1] and down to 1e-12, a
    uniform draw over (0, 1] for a transmittance or an efficiency, and the
    generator for the draw's further settings."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        alpha = 10.0 ** rng.uniform(-3.0, math.log10(30.0))
        phi = math.pi + rng.uniform(-1e-8, 1e-8) if i % 4 == 0 else rng.uniform(0.0, TWO_PI)
        p = 10.0 ** rng.uniform(-12.0, 0.0) if i % 3 == 0 else rng.uniform()
        yield CssParams(alpha, phi), p, 1.0 - rng.uniform(), rng


class TestStageTable:
    """One law per row, at 1e-15 absolute on p."""

    def test_line_adds_its_loss(self):
        for params, p, eta, _ in _draws(1, 3000):
            state = MixedCss(params, p)
            out = apply_loss(state, ChannelSetting(eta))
            a2 = params.alpha * params.alpha
            law = analytic._fraction_at(_norm(out.params), _decoherence(state) + 2.0 * (1.0 - eta) * a2)
            assert abs(out.p - law) <= 1e-15, (params, p, eta)
            # the same stage as a product: the pure cat's surviving fraction times p
            assert abs(out.p - p * loss_fraction(eta, params)) <= 1e-15, (params, p, eta)
            assert (out.params.alpha, out.params.phi) == (math.sqrt(eta) * params.alpha, params.phi)

    def test_tap_keeps_L(self):
        for params, p, T, rng in _draws(2, 3000):
            k = rng.uniform(-4.0, 4.0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the blind tap T = 1 warns
                try:
                    out, _, _ = purify(MixedCss(params, p), TapSetting(T, k))
                except PhysicsError:
                    continue
            theta = theta_of_k(k, params.alpha, 1.0 - T)
            assert abs(out.p - analytic._fraction_at(_norm(out.params), _decoherence(MixedCss(params, p)))) <= 1e-15
            # the same stage as Bayes' rule on the detection ratio
            assert abs(out.p - analytic._posterior(p, detection_ratio(params, T, theta))) <= 1e-15, (params, p, T, k)

    def test_detector_adds_the_missed_light(self):
        for params, p, eta_H, rng in _draws(3, 3000):
            T, k = 1.0 - rng.uniform(), rng.uniform(-4.0, 4.0)
            tap = TapSetting(T, k, eta_H)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    out, _, _ = purify(MixedCss(params, p), tap)
                except PhysicsError:
                    continue
            theta = theta_of_k(k, params.alpha, eta_H * tap.R)
            missed = 2.0 * (1.0 - eta_H) * tap.R * (params.alpha * params.alpha)
            law = analytic._fraction_at(_norm(out.params), _decoherence(MixedCss(params, p)) + missed)
            assert abs(out.p - law) <= 1e-15, (params, p, tap)
            # the same stage as an ideal tap of reflectivity eta_H R followed
            # by a line of transmittance T / (1 - eta_H R), in product form;
            # the line's record reduces phi + theta mod 2 pi, which rounds
            # theta (up to ~100 here) by ~1e-14
            seen = 1.0 - eta_H * tap.R
            tapped = analytic._posterior(p, detection_ratio(params, seen, theta))
            line = loss_fraction(T / seen, CssParams(math.sqrt(seen) * params.alpha, params.phi + theta))
            assert abs(out.p - tapped * line) <= 1e-13, (params, p, tap)

    def test_amplifier_doubles_L(self):
        for params, p, _, _ in _draws(4, 3000):
            state = MixedCss(params, p)
            try:
                out = amplify(state)
            except PhysicsError:
                continue
            assert abs(out.p - analytic._fraction_at(_norm(out.params), 2.0 * _decoherence(state))) <= 1e-15
            assert out.params == CssParams(math.sqrt(2.0) * params.alpha, 2.0 * params.phi)


class TestTinyFraction:
    """A p whose odds (1 - p) n / p overflow has L = inf and reads as 0
    after a line and after a tap; a p above that keeps its L."""

    @pytest.mark.parametrize("p", [5e-324, 1e-310])
    def test_reads_zero(self, p):
        state = MixedCss(CssParams(1.0, 1.0), p)
        assert _decoherence(state) == math.inf
        assert apply_loss(state, ChannelSetting(0.9)).p == 0.0
        assert purify(state, TapSetting(0.5, 0.3))[0].p == 0.0
        assert purify(state, TapSetting(0.5, 0.3, 0.9))[0].p == 0.0

    def test_finite_L_is_kept(self):
        state = MixedCss(CssParams(1.0, 1.0), 1e-300)
        assert 1e-301 < apply_loss(state, ChannelSetting(0.9)).p < 1e-299
        assert 1e-301 < purify(state, TapSetting(0.5, 0.3))[0].p < 1e-299


def _oracle_decoherence(state: dy.DyadState) -> float:
    """ln(d / |c|) of a one-mode state in the family, from `_record`: read at
    its own phase the record is p = 1 + 2 (|c| - d), read at the opposite
    phase 1 - 2 (|c| + d)."""
    _, z, _ = dy._record(state)
    _, opposite, _ = dy._record(state, -z / abs(z))
    p, opposite = abs(z), opposite.real
    return math.log((2.0 - p - opposite) / (p - opposite))


def test_oracle_keeps_L_behind_the_tap_at_every_outcome():
    # the oracle shares no formula with the closed forms; at three outcomes
    # of one tap it reads one L, the input's plus the detector's missed light
    rng = np.random.default_rng(5)
    for i in range(100):
        params = CssParams(rng.uniform(0.1, 2.0), rng.uniform(0.0, TWO_PI))
        state = MixedCss(params, rng.uniform(0.05, 1.0))
        T, eta_H = rng.uniform(0.02, 0.98), 1.0 if i % 2 else rng.uniform(0.02, 1.0)
        split = dy.bs_on_product(dy.attach_vacuum(dy.make_mixed(state)), (0, 1), T)
        detected = dy.loss_on_dyad(split, 1, eta_H)
        law = _decoherence(state) + 2.0 * (1.0 - eta_H) * (1.0 - T) * (params.alpha * params.alpha)
        for k in rng.uniform(-3.0, 3.0, size=3):
            cond, _ = dy.project_quadrature(detected, 1, k, math.pi / 2.0)
            assert abs(_oracle_decoherence(cond) - law) <= 2e-15 * (1.0 + law), (params, state.p, T, eta_H, k)


def test_amplified_lossy_cat_is_the_lossy_amplified_cat():
    # the amplifier doubles L as it doubles alpha^2, so it commutes with a line
    rng = np.random.default_rng(6)
    params = [CssParams(rng.uniform(0.05, 1.5), rng.uniform(0.0, TWO_PI)) for _ in range(300)]
    etas = rng.uniform(0.02, 1.0, size=300)
    lossy = [apply_loss(MixedCss(c), ChannelSetting(eta)) for c, eta in zip(params, etas)]
    oracle = dy.amplifier_sim([s.p for s in lossy], [s.params for s in lossy])
    want = [loss_fraction(eta, CssParams(math.sqrt(2.0) * c.alpha, 2.0 * c.phi)) for c, eta in zip(params, etas)]
    assert np.abs(oracle - want).max() <= 5e-15


@pytest.mark.parametrize("alpha", [1e-4, 1e-2, 0.3, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("p", [1e-12, 1e-6, 0.01, 0.5, 0.99, 1.0 - 1e-6, 1.0 - 1e-12])
def test_concatenation_returns_p_squared_over_one_plus_w(alpha, p):
    # the tap keeps L and the amplifier doubles it at the input's (alpha, 0),
    # so p_final = p^2 / (1 + w (1 - p)^2) with w = e^{-2 alpha^2}
    w = math.exp(-2.0 * alpha * alpha)
    identity = p * p / (1.0 + w * (1.0 - p) ** 2)
    reference = refs.concat_stages(p, alpha)[1]
    assert abs(identity - reference) <= 4e-16 * reference
    assert abs(concat_stages(p, alpha)[1] - reference) <= 2e-15 * reference


_unit = st.floats(0.0, 1.0, exclude_min=True)
_stages = st.lists(
    st.one_of(
        st.tuples(st.just("line"), _unit),
        st.tuples(st.just("tap"), _unit, st.floats(-4.0, 4.0), _unit),
        st.tuples(st.just("amplifier")),
    ),
    max_size=6,
)


def _stage(state: MixedCss, stage: tuple) -> MixedCss:
    if stage[0] == "line":
        return apply_loss(state, ChannelSetting(stage[1]))
    if stage[0] == "tap":
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return purify(state, TapSetting(*stage[1:]))[0]
    return amplify(state)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.floats(1e-3, 3.0),
    st.floats(0.0, TWO_PI, exclude_max=True),
    st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    _stages,
)
def test_no_chain_lowers_L(alpha, phi, p, stages):
    # L never falls, and no stage lifts p above the fraction its output
    # (alpha, phi) would have at the stage's input L
    state = MixedCss(CssParams(alpha, phi), p)
    for stage in stages:
        before = _decoherence(state)
        try:
            state = _stage(state, stage)
            after = _decoherence(state)
        except PhysicsError:
            return
        assert state.p <= analytic._fraction_at(_norm(state.params), before) + 1e-15, stage
        assert after >= before * (1.0 - 1e-14) - 1e-14, stage
