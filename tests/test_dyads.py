"""Tests for the exact coherent-dyad simulator.

Expected values here are either algebraically trivial (vacuum overlaps,
single-dyad loss factors) or frozen doubles produced by independent
evaluations: direct closed-form arithmetic, a truncated Hermite-function
expansion (`hermite_quadrature_amplitude` below), and high-precision scans
performed while the suite was built.
"""

import cmath
import math
import random
import re
import sys

import numpy as np
import pytest

from catpurify import ChannelSetting, CssParams, MixedCss, TapSetting, analytic
from catpurify import dyads as dy
from catpurify.errors import (
    DegenerateStateError,
    StateFamilyError,
    ZeroDensityError,
)

HALF_PI = math.pi / 2.0
_QUARTIC_ROOT_PI = math.pi ** (-0.25)


def hermite_quadrature_amplitude(beta, x, lam, terms=60):
    """Independent evaluation of <x_lam|beta> as a truncated Fock sum.

    Sums e^{-|beta|^2/2} beta^n / sqrt(n!) * e^{-i n lam} h_n(x) over the
    first `terms` number states, with h_n the normalized Hermite functions.
    Converges to dyads.homodyne_amplitude for moderate |beta| and |x|.
    """
    beta = complex(beta)
    h_prev = _QUARTIC_ROOT_PI * math.exp(-0.5 * x * x)
    coef = cmath.exp(-0.5 * (beta.real**2 + beta.imag**2))
    rot = cmath.exp(-1j * lam)
    total = coef * h_prev
    h_curr = math.sqrt(2.0) * x * h_prev
    for n in range(1, terms):
        coef = coef * beta * rot / math.sqrt(n)
        total += coef * h_curr
        h_next = x * math.sqrt(2.0 / (n + 1)) * h_curr - math.sqrt(n / (n + 1.0)) * h_prev
        h_prev, h_curr = h_curr, h_next
    return total


def random_complex(rng, radius=2.0):
    return complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))


def cat(params):
    """The pure superposition density, or a batch of them, as make_mixed builds it."""
    if isinstance(params, CssParams):
        return dy.make_mixed(MixedCss(params, 1.0))
    return dy.make_mixed([MixedCss(p, 1.0) for p in params])


def dephased(alpha):
    """rho_0, the equal mixture of |alpha> and |-alpha>, as make_mixed builds it at p = 0."""
    return dy.make_mixed(MixedCss(CssParams(alpha), 0.0))


def overlap(b, g):
    """<b|g> for two coherent amplitudes, written out independently of dyads."""
    return cmath.exp(-0.5 * abs(b) ** 2 - 0.5 * abs(g) ** 2 + b.conjugate() * g)


def random_mixture(rng, alpha_max=2.0):
    params = CssParams(rng.uniform(0.05, alpha_max), rng.uniform(0.0, 2.0 * math.pi))
    return dy.make_mixed(MixedCss(params, rng.uniform(0.0, 1.0)))


class TestDyadState:
    def test_mode_count_from_shape(self):
        state = dy.DyadState([1.0, 0.5], [[0.1, 0.2, 0.3]] * 2, [[0.0, 0.0, 0.0]] * 2)
        assert state.mode_count == 3
        assert state.coeff.dtype == complex and state.ket.dtype == complex

    @pytest.mark.parametrize(
        "coeff,ket,bra",
        [
            ([1.0], [[1.0, 0.0]], [[1.0]]),  # ket and bra mode counts differ
            ([1.0, 1.0], [[1.0], [0.5]], [[1.0]]),  # ket and bra term counts differ
            ([1.0], np.zeros((1, 0)), np.zeros((1, 0))),  # no modes
            ([1.0], [1.0], [1.0]),  # amplitudes not laid out as [terms, modes]
            ([1.0, 2.0], [[1.0]], [[1.0]]),  # one coefficient too many
        ],
    )
    def test_rejects_mismatched_shapes(self, coeff, ket, bra):
        with pytest.raises(ValueError):
            dy.DyadState(coeff, ket, bra)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_rejects_non_finite_coefficients(self, bad):
        with pytest.raises(ValueError, match="finite"):
            dy.DyadState([0.5, bad], [[1.0], [-1.0]], [[1.0], [-1.0]])

    def test_amplitude_norms_up_to_the_domain_bound(self):
        # an overlap adds the squared norms of a ket and a bra: at the bound a coherent
        # state and a cat still have trace 1 and purity 1, one ulp past it is rejected
        bound = math.sqrt(sys.float_info.max) / 2.0
        for state in (dy.make_coherent(-1j * bound), dy.make_mixed(MixedCss(CssParams(bound, 1.0)))):
            assert dy.trace(state) == 1.0 and dy.purity(state) == 1.0
        beyond = math.nextafter(bound, math.inf)
        norms = r"^amplitudes must be complex amplitudes of norm at most sqrt\(sys.float_info.max\)/2 over the modes$"
        for amplitudes in ((0.0, beyond), (bound, bound), (1.5e308 + 1.5e308j,)):  # the norm over the modes counts
            with pytest.raises(ValueError, match=norms):
                dy.make_coherent(*amplitudes)
        with pytest.raises(ValueError) as info:
            dy.make_mixed(MixedCss(CssParams(beyond)))
        assert str(info.value) == f"alpha must lie in [0, sqrt(sys.float_info.max)/2], got {beyond!r}"


class TestTermLayout:
    """Operations keep the terms as they build them, so a state may list one
    dyad in several terms, or a term that is exactly 0; its numbers are those
    of the state with each dyad once."""

    @staticmethod
    def variants(state):
        """`state` (the four dyads of make_mixed) with its |-beta><beta| term
        split into two equal halves, and with an extra exactly-zero term on
        |beta><-beta|, one of the family's dyads, since `_record` reads the
        amplitudes of every term."""
        coeff, ket, bra = state.coeff, state.ket, state.bra
        split = dy.DyadState([*coeff[:2], 0.5 * coeff[2], coeff[3], 0.5 * coeff[2]], [*ket, ket[2]], [*bra, bra[2]])
        zero = dy.DyadState([*coeff, 0.0], [*ket, ket[1]], [*bra, bra[1]])
        return split, zero

    def test_repeated_and_zero_terms_read_as_the_merged_state(self):
        rng = random.Random("term-layout")
        for _ in range(20):
            params = CssParams(rng.uniform(0.05, 3.0), rng.uniform(0.0, 2.0 * math.pi))
            lossy = dy.loss_on_dyad(dy.make_mixed(MixedCss(params, rng.random())), 0, rng.uniform(0.05, 1.0))
            target = CssParams(lossy.ket[0, 0].real, params.phi)
            for state in self.variants(lossy):
                assert len(state.coeff) == 5
                assert abs(dy.trace(state) - dy.trace(lossy)) <= 1e-15
                assert abs(dy.purity(state) - dy.purity(lossy)) <= 1e-15
                assert abs(dy.extract_fraction(state, target) - dy.extract_fraction(lossy, target)) <= 1e-15
                beta, z, defect = dy._record(state)
                merged = dy._record(lossy)
                assert beta == merged[0] and abs(z - merged[1]) <= 1e-15 and defect <= merged[2] + 1e-15
                assert dy.hermiticity_defect(state) == dy.hermiticity_defect(lossy) == 0.0

    def test_split_terms_must_sum_to_their_mirror(self):
        # a per-term comparison would flag the split halves of a Hermitian
        # state; a sum that is not its mirror's conjugate is still flagged
        split, _ = self.variants(dy.make_mixed(MixedCss(CssParams(0.9, 2.4), 0.6)))
        assert dy.hermiticity_defect(split) == 0.0
        coeff = split.coeff.copy()
        coeff[4] *= 1.5
        assert dy.hermiticity_defect(dy.DyadState(coeff, split.ket, split.bra)) == pytest.approx(0.5 * abs(split.coeff[4]))

    def test_nan_dyads_match_only_themselves(self):
        # the constructor rejects NaN amplitudes, but a chain can still make
        # them (a beam splitter that overflows), so build this one as a chain does
        nan = complex(math.nan, 0.0)
        state = dy._derived(np.array([1.0, 2.0], complex), np.array([[nan], [nan]]), np.array([[nan], [nan]]))
        assert dy.hermiticity_defect(state) == 2.0


class TestNonzero:
    def test_drops_a_term_only_where_every_member_is_zero(self):
        # term 1 is 0 in member 0 only and stays; term 2 is 0 in both and goes
        ket = np.array([[[0.1], [0.2], [0.3]], [[0.4], [0.5], [0.6]]])
        state = dy.DyadState([[1.0, 0.0, 0.0], [1e-17, 2.0, -0.0]], ket, ket)
        kept = dy._nonzero(state)
        assert kept.coeff.tolist() == [[1.0 + 0.0j, 0.0j], [1e-17 + 0.0j, 2.0 + 0.0j]]
        assert kept.ket[..., 0].tolist() == [[0.1 + 0.0j, 0.2 + 0.0j], [0.4 + 0.0j, 0.5 + 0.0j]]
        assert dy._nonzero(kept) is kept
        alone = dy._nonzero(dy.DyadState(state.coeff[0], ket[0], ket[0]))
        assert alone.coeff.tolist() == [1.0 + 0.0j] and alone.ket.tolist() == [[0.1 + 0.0j]]

    def test_batch_of_no_members_keeps_no_terms(self):
        # every term is 0 in each of no members, as for make_mixed([])
        state = dy.DyadState(np.zeros((0, 3)), np.zeros((0, 3, 2)), np.zeros((0, 3, 2)))
        kept = dy._nonzero(state)
        assert (kept.coeff.shape, kept.ket.shape, kept.bra.shape) == ((0, 0), (0, 0, 2), (0, 0, 2))
        assert dy.make_mixed([]).coeff.shape == (0, 0)
        for fraction in (dy.extract_fraction(dy.make_mixed([]), []), dy.amplifier_sim([], [])):
            assert fraction.shape == (0,) and fraction.dtype == float

    @pytest.mark.parametrize("shape", [(0,), (2, 0)], ids=["single", "batch"])
    def test_state_of_no_terms_passes_through(self, shape):
        state = dy.DyadState(np.zeros(shape), np.zeros(shape + (1,)), np.zeros(shape + (1,)))
        assert dy._nonzero(state) is state


class TestOverlap:
    @staticmethod
    def overlap(b, g):
        """<b|g> as the trace of the one-dyad state |g><b|."""
        return dy.trace(dy.DyadState([1.0], [[g]], [[b]]))

    def test_equal_amplitudes_give_one(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            b = random_complex(rng)
            assert self.overlap(b, b) == pytest.approx(1.0, abs=1e-15)

    def test_vacuum_overlap(self):
        assert self.overlap(0.0, 1.5) == pytest.approx(math.exp(-1.125), abs=1e-15)

    def test_opposite_unit_amplitudes(self):
        assert self.overlap(1.0, -1.0) == pytest.approx(math.exp(-2.0), abs=1e-16)

    def test_modulus_bounded_by_one(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            b, g = random_complex(rng), random_complex(rng)
            assert abs(self.overlap(b, g)) <= 1.0 + 1e-14


class TestMakeStates:
    @pytest.mark.parametrize(
        "alpha,phi",
        [(1.0, 0.0), (1.0, math.pi), (0.3, 1.7), (2.0, math.pi / 3.0), (0.0, 0.0)],
    )
    def test_css_trace_one(self, alpha, phi):
        state = cat(CssParams(alpha, phi))
        assert abs(dy.trace(state) - 1.0) <= 1e-14

    def test_css_purity_one(self):
        state = cat(CssParams(1.0, math.pi / 3.0))
        assert dy.purity(state) == pytest.approx(1.0, abs=1e-12)

    def test_alpha_zero_sums_to_the_vacuum_dyad(self):
        # the four dyads all sit at the vacuum and keep their own terms
        state = cat(CssParams(0.0, math.pi / 3.0))
        assert state.ket.tolist() == state.bra.tolist() == [[0.0 + 0.0j]] * 4
        assert state.coeff.sum() == pytest.approx(1.0, abs=1e-15)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateStateError):
            cat(CssParams(0.0, math.pi))

    @pytest.mark.parametrize("state", [(1.0, 0.0, 0.5), CssParams(1.0), [MixedCss(CssParams(1.0)), None]])
    def test_wrong_record_rejected(self, state):
        with pytest.raises(ValueError, match="^state must be a MixedCss or a sequence of them, got "):
            dy.make_mixed(state)

    def test_mixture_trace_and_hermiticity(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            state = random_mixture(rng)
            assert abs(dy.trace(state) - 1.0) <= 1e-14
            assert dy.hermiticity_defect(state) <= 1e-14


class TestLoss:
    def test_eta_one_is_identity(self):
        state = cat(CssParams(1.2, 0.4))
        out = dy.loss_on_dyad(state, 0, 1.0)
        assert out.coeff.tolist() == state.coeff.tolist()
        assert out.ket.tolist() == state.ket.tolist() and out.bra.tolist() == state.bra.tolist()

    def test_single_offdiagonal_dyad(self):
        # exponent -0.5 * 0.5 * (1 + 1 + 2) = -1 for |1><-1| at eta = 1/2
        dyad = dy.DyadState([1.0], [[1.0]], [[-1.0]])
        out = dy.loss_on_dyad(dyad, 0, 0.5)
        assert out.coeff[0] == pytest.approx(math.exp(-1.0), abs=1e-15)
        assert out.ket[0, 0] == pytest.approx(math.sqrt(0.5), abs=1e-16)
        assert out.bra[0, 0] == pytest.approx(-math.sqrt(0.5), abs=1e-16)

    def test_diagonal_dyad_keeps_coefficient(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            b = random_complex(rng)
            dyad = dy.DyadState([0.7], [[b]], [[b]])
            out = dy.loss_on_dyad(dyad, 0, 0.3)
            assert out.coeff[0] == pytest.approx(0.7, abs=1e-15)

    def test_trace_and_hermiticity_preserved(self):
        rng = np.random.default_rng(15)
        for _ in range(25):
            state = random_mixture(rng)
            out = dy.loss_on_dyad(state, 0, rng.uniform(0.05, 1.0))
            assert abs(dy.trace(out) - 1.0) <= 1e-14
            assert dy.hermiticity_defect(out) <= 1e-14

    def test_semigroup_composition(self):
        # both paths keep the term order of the input, so compare term data;
        # amplitudes differ by sqrt rounding only
        rng = np.random.default_rng(16)
        for _ in range(20):
            state = random_mixture(rng)
            e1, e2 = rng.uniform(0.1, 1.0, size=2)
            twice = dy.loss_on_dyad(dy.loss_on_dyad(state, 0, e2), 0, e1)
            once = dy.loss_on_dyad(state, 0, e1 * e2)
            assert np.abs(twice.coeff - once.coeff).max() <= 1e-12
            assert np.abs(twice.ket - once.ket).max() <= 1e-12
            assert np.abs(twice.bra - once.bra).max() <= 1e-12

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            dy.loss_on_dyad(dy.make_coherent(1.0), 1, 0.5)


class TestBeamSplitter:
    def test_splits_coherent_against_vacuum(self):
        state = dy.attach_vacuum(dy.make_coherent(1.3))
        out = dy.bs_on_product(state, (0, 1), 0.7)
        assert out.ket[0, 0] == pytest.approx(math.sqrt(0.7) * 1.3, abs=1e-15)
        assert out.ket[0, 1] == pytest.approx(math.sqrt(0.3) * 1.3, abs=1e-15)

    def test_vacuum_fixed_point(self):
        state = dy.attach_vacuum(dy.make_coherent(0.0))
        out = dy.bs_on_product(state, (0, 1), 0.42)
        assert out.ket.tolist() == [[0.0 + 0.0j, 0.0 + 0.0j]]

    def test_energy_conservation(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            a, b = random_complex(rng), random_complex(rng)
            state = dy.make_coherent(a, b)
            out = dy.bs_on_product(state, (0, 1), rng.uniform(0.0, 1.0))
            before = abs(a) ** 2 + abs(b) ** 2
            after = abs(out.ket[0, 0]) ** 2 + abs(out.ket[0, 1]) ** 2
            assert after == pytest.approx(before, abs=1e-14)

    def test_coefficients_unchanged(self):
        state = cat(CssParams(0.8, 1.1))
        joint = dy.attach_vacuum(state)
        out = dy.bs_on_product(joint, (0, 1), 0.25)
        assert out.coeff.tolist() == joint.coeff.tolist()

    def test_identical_modes_rejected(self):
        with pytest.raises(ValueError):
            dy.bs_on_product(dy.make_coherent(1.0, 0.0), (0, 0), 0.5)


class TestHomodyneAmplitude:
    def test_vacuum_wavefunction(self):
        for x in (-2.0, 0.0, 0.3, 1.7):
            for lam in (0.0, HALF_PI, 1.234):
                expected = math.pi ** -0.25 * math.exp(-0.5 * x * x)
                assert dy.homodyne_amplitude(0.0, x, lam) == pytest.approx(
                    expected, abs=1e-15
                )

    def test_reflection_phase_identity(self):
        # <x_{pi/2}|-b> = e^{i 2 sqrt(2) x b} <x_{pi/2}|b> for real b
        rng = np.random.default_rng(18)
        for _ in range(100):
            b = rng.uniform(-2.0, 2.0)
            x = rng.uniform(-4.0, 4.0)
            lhs = dy.homodyne_amplitude(-b, x, HALF_PI)
            rhs = cmath.exp(2j * math.sqrt(2.0) * x * b) * dy.homodyne_amplitude(
                b, x, HALF_PI
            )
            assert abs(lhs - rhs) <= 1e-14

    def test_phase_identity_at_published_point(self):
        ratio = dy.homodyne_amplitude(-1.0, 0.7, HALF_PI) / dy.homodyne_amplitude(
            1.0, 0.7, HALF_PI
        )
        assert ratio == pytest.approx(cmath.exp(2j * math.sqrt(2.0) * 0.7), abs=1e-14)

    @pytest.mark.parametrize(
        "beta,x,lam",
        [
            (1.0, 0.5, HALF_PI),
            (0.3, -1.0, 0.0),
            (-1.5, 2.0, 1.0),
            (2.0, 4.0, HALF_PI),
            (complex(0.7, -0.6), 1.3, 2.2),
        ],
    )
    def test_matches_hermite_expansion(self, beta, x, lam):
        closed = dy.homodyne_amplitude(beta, x, lam)
        summed = hermite_quadrature_amplitude(beta, x, lam, terms=60)
        assert abs(closed - summed) <= 1e-10

    def test_outcome_arrays_give_one_call_per_element(self):
        def hexes(values):
            return [(z.real.hex(), z.imag.hex()) for z in map(complex, values)]

        outcomes = [0.1, 0.2, -1.3]
        for beta in (1.0, complex(0.7, -0.6)):
            assert hexes(dy.homodyne_amplitude(beta, outcomes, 2.2)) == hexes(
                [dy.homodyne_amplitude(beta, x, 2.2) for x in outcomes]
            )
        assert hexes([dy.homodyne_amplitude(1.0, "0.5", 0.0)]) == hexes([dy.homodyne_amplitude(1.0, 0.5, 0.0)])


class TestProjectQuadrature:
    def test_vacuum_density(self):
        state = dy.attach_vacuum(dy.make_coherent(0.7))
        out, density = dy.project_quadrature(state, 1, 0.9, HALF_PI)
        assert density == pytest.approx(
            math.exp(-0.81) / math.sqrt(math.pi), abs=1e-15
        )
        assert out.ket.tolist() == [[0.7 + 0.0j]]
        assert out.coeff[0] == pytest.approx(1.0, abs=1e-14)

    def test_css_pipeline_density_and_conditional_state(self):
        state = dy.attach_vacuum(cat(CssParams(1.0, 0.0)))
        state = dy.bs_on_product(state, (0, 1), 0.5)
        cond, density = dy.project_quadrature(state, 1, 0.0, HALF_PI)
        assert density == pytest.approx(0.6797492720018076, abs=1e-13)
        assert dy.extract_fraction(cond, CssParams(math.sqrt(0.5), 0.0)) == pytest.approx(
            1.0, abs=1e-12
        )
        assert dy.purity(cond) == pytest.approx(1.0, abs=1e-12)

    def test_mixture_pipeline_reference_fraction(self):
        state = dy.make_mixed(MixedCss(CssParams(1.0, math.pi), 0.5))
        state = dy.attach_vacuum(state)
        state = dy.bs_on_product(state, (0, 1), 0.5)
        cond, _ = dy.project_quadrature(state, 1, HALF_PI, HALF_PI)
        frac = dy.extract_fraction(cond, CssParams(math.sqrt(0.5), 0.0))
        assert frac == pytest.approx(0.6126998367802821, abs=1e-12)

    def test_far_outcome_raises_zero_density(self):
        state = dy.attach_vacuum(dy.make_coherent(0.5))
        with pytest.raises(ZeroDensityError):
            dy.project_quadrature(state, 1, 40.0, HALF_PI)

    def test_single_mode_state_rejected(self):
        with pytest.raises(ValueError):
            dy.project_quadrature(dy.make_coherent(1.0), 0, 0.0, HALF_PI)


def tap_chain(state, T, eta_H, x):
    """The paper's tap composed from the public primitives: a vacuum mode,
    the beam splitter on modes (0, 1), the detector's loss on mode 1 and the
    homodyne projection on mode 1 (the conditioned state and its density)."""
    split = dy.bs_on_product(dy.attach_vacuum(state), (0, 1), T)
    return dy.project_quadrature(dy.loss_on_dyad(split, 1, eta_H), 1, x, HALF_PI)


class TestTapPass:
    # e^{-x^2}/sqrt(pi), the density of the dephased pair, meets the density
    # floor 1e-300 at |x| = 26.27; outcomes are drawn out past it
    FLOOR = math.sqrt(-math.log(1e-300 * math.sqrt(math.pi)))

    def draws(self, seed, count):
        """(state, T, eta_H, x): alpha log-uniform up to 30, pure, dephased and
        mixed states, T up to 1, ideal and lossy detectors, and outcomes of
        both signs near the origin and around the density floor."""
        rng = random.Random(seed)
        out = []
        for _ in range(count):
            params = CssParams(math.exp(rng.uniform(math.log(0.02), math.log(30.0))), rng.uniform(0.0, 7.0))
            x = rng.choice([-1.0, 1.0]) * rng.choice([rng.uniform(0.0, 3.0), rng.uniform(self.FLOOR - 2.0, self.FLOOR + 0.5)])
            out.append((
                MixedCss(params, rng.choice([0.0, 1.0, rng.random()])),
                rng.choice([1.0, rng.random()]),
                rng.choice([1.0, rng.uniform(0.01, 1.0)]),
                x,
            ))
        return out

    def tap(self, state, T, eta_H, x):
        return dy._tap(state, *map(np.array, (T, eta_H, x)), HALF_PI)

    def test_equals_the_public_chain_bit_for_bit(self):
        draws = self.draws("tap-pass", 400)
        kept, floor, vanished = [], 0, 0
        for mixed, T, eta_H, x in draws:
            state = dy.make_mixed(mixed)
            try:
                expected = tap_chain(state, T, eta_H, x)
            except ZeroDensityError as error:
                with pytest.raises(ZeroDensityError) as info:
                    self.tap(state, T, eta_H, x)
                assert str(info.value) == str(error)
                vanished += 1
                continue
            got = self.tap(state, T, eta_H, x)
            assert got[1].shape == ()
            assert bits(got) == bits(expected), (mixed, T, eta_H, x)
            kept.append((mixed, T, eta_H, x))
            floor += expected[1] < 1e-290
        # every kind of draw ran: both detectors, both signs, out to the floor
        assert floor >= 10 and vanished >= 10
        assert {eta_H == 1.0 for _, _, eta_H, _ in kept} == {True, False}
        assert {x > 0.0 for _, _, _, x in kept} == {True, False}
        batch, T, eta_H, x = (list(column) for column in zip(*kept))
        state = dy.make_mixed(batch)
        assert bits(self.tap(state, T, eta_H, x)) == bits(tap_chain(state, T, eta_H, x))

    def test_vanishing_density_names_the_first_outcome(self):
        # both members past the floor; the batch names the first, as the chain does
        state = dy.make_mixed([MixedCss(CssParams(0.8, 1.0), 0.5)] * 2)
        T, eta_H, x = [0.5, 0.5], [1.0, 0.9], [-30.0, 27.0]
        with pytest.raises(ZeroDensityError) as chain:
            tap_chain(state, T, eta_H, x)
        with pytest.raises(ZeroDensityError) as info:
            self.tap(state, T, eta_H, x)
        assert str(info.value) == str(chain.value) == "homodyne density vanishes at x=-30.0"


class TestProjectClick:
    def test_vacuum_probability_zero(self):
        state = dy.attach_vacuum(dy.make_coherent(0.9))
        reduced, prob = dy.project_click(state, 1)
        assert prob == 0.0
        with pytest.raises(ZeroDensityError):
            dy.normalize(reduced)

    def test_coherent_click_statistics(self):
        state = dy.make_coherent(0.9, 1.3)
        reduced, prob = dy.project_click(state, 1)
        assert prob == pytest.approx(-math.expm1(-1.69), abs=1e-15)
        assert dy.trace(reduced).real == pytest.approx(prob, abs=1e-15)
        kept = dy.normalize(reduced)
        assert kept.ket.tolist() == [[0.9 + 0.0j]]
        assert kept.coeff[0] == pytest.approx(1.0, abs=1e-14)

    def test_amplifier_cascade_is_pure_for_pure_input(self):
        for phi in (0.0, math.pi, 1.234):
            frac = dy.amplifier_sim(1.0, CssParams(0.7, phi))
            assert frac == pytest.approx(1.0, abs=1e-12)


def extraction_case(family, states, settings):
    """A "cat", "lossy" or "homodyne" state and the closed form's output
    MixedCss for it, as verify builds them: one MixedCss and one setting give
    one state and one record, sequences of them a batch and a list. A lossy
    setting is a transmittance, a homodyne one a (tap T, outcome x) pair."""
    single = isinstance(states, MixedCss)
    draws = [(states, settings)] if single else list(zip(states, settings))
    mixed = dy.make_mixed(states)
    if family == "cat":
        state, closed = mixed, [s for s, _ in draws]
    elif family == "lossy":
        state = dy.loss_on_dyad(mixed, 0, settings)
        closed = [analytic.apply_loss(s, ChannelSetting(eta)) for s, eta in draws]
    else:
        T, x = settings if single else map(list, zip(*settings))
        state, _ = dy.project_quadrature(dy.bs_on_product(dy.attach_vacuum(mixed), (0, 1), T), 1, x, HALF_PI)
        closed = [analytic.purify(s, TapSetting(t, k, 1.0))[0] for s, (t, k) in draws]
    return state, closed[0] if single else closed


def extraction_draws(rng, family, members):
    """Seeded mixtures, a third of them pure and a third fully dephased,
    with one setting each; alpha reaches 6 for cats and lossy states, 2
    behind the detector and in the amplifier."""
    alpha_max = 6.0 if family in ("cat", "lossy") else 2.0
    states = [
        MixedCss(
            CssParams(rng.uniform(0.05, alpha_max), rng.uniform(0.0, 2.0 * math.pi)),
            rng.choice([0.0, 1.0, rng.random()]),
        )
        for _ in range(members)
    ]
    if family == "lossy":
        return states, [rng.uniform(0.05, 1.0) for _ in states]
    return states, [(rng.uniform(0.02, 0.98), rng.uniform(-3.0, 3.0)) for _ in states]


class TestExtractFraction:
    def test_pure_css_gives_one(self):
        params = CssParams(0.9, 2.4)
        assert dy.extract_fraction(cat(params), params) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_dephased_gives_zero(self):
        assert dy.extract_fraction(
            dephased(0.9), CssParams(0.9, 2.4)
        ) == pytest.approx(0.0, abs=1e-12)

    def test_loss_on_cat_reference_value(self):
        lossy = dy.loss_on_dyad(cat(CssParams(1.0, 0.0)), 0, 0.5)
        frac = dy.extract_fraction(lossy, CssParams(math.sqrt(0.5), 0.0))
        assert frac == pytest.approx(0.4432300588540602, abs=1e-12)

    def test_out_of_family_state_rejected(self):
        with pytest.raises(StateFamilyError):
            dy.extract_fraction(dy.make_coherent(1.0), CssParams(1.0, 0.0))

    @staticmethod
    def signed_mixture(params, p):
        # p * rho_css + (1 - p) * rho_0 passes the residual check for any real p
        pure, mixed = cat(params), dephased(params.alpha)
        return dy.DyadState(
            np.concatenate([p * pure.coeff, (1.0 - p) * mixed.coeff]),
            np.concatenate([pure.ket, mixed.ket]),
            np.concatenate([pure.bra, mixed.bra]),
        )

    @pytest.mark.parametrize(
        "params,p",
        [(CssParams(0.9, 2.4), 1.2), (CssParams(0.9, 2.4), -0.3), (CssParams(0.02, 0.0), -1e-6)],
        ids=["1.2", "-0.3", "-1e-06-at-alpha-0.02"],
    )
    def test_signed_combination_rejected_not_clamped(self, params, p):
        # p is read at the target phase, so its sign survives even where
        # 4/N - 1 is small (alpha = 0.02, phi = 0)
        combo = self.signed_mixture(params, p)
        with pytest.raises(StateFamilyError, match=r"fraction \S+ lies beyond \[0, 1\] by more than 1e-9") as err:
            dy.extract_fraction(combo, params)
        assert float(re.search(r"fraction (\S+)", str(err.value))[1]) == pytest.approx(p, rel=1e-9)
        batch = dy.DyadState([combo.coeff] * 2, [combo.ket] * 2, [combo.bra] * 2)
        with pytest.raises(StateFamilyError, match="fraction"):
            dy.extract_fraction(batch, [params] * 2)

    @pytest.mark.parametrize("p,clipped", [(1.0 + 5e-10, 1.0), (-5e-10, 0.0)])
    def test_rounding_excursion_clipped(self, p, clipped):
        params = CssParams(0.9, 2.4)
        assert dy.extract_fraction(self.signed_mixture(params, p), params) == clipped

    def test_wrong_amplitude_rejected(self):
        state = cat(CssParams(1.0, 0.0))
        with pytest.raises(StateFamilyError):
            dy.extract_fraction(state, CssParams(0.8, 0.0))

    def test_degenerate_target_rejected(self):
        with pytest.raises(DegenerateStateError):
            dy.extract_fraction(dy.make_coherent(0.0), CssParams(0.0, math.pi))

    def test_underflowed_odd_cat_rejected(self):
        # alpha^2 underflows, so 1 + cos(pi) e^{-2 alpha^2} is exactly 0
        params = CssParams(1e-170, math.pi)
        with pytest.raises(DegenerateStateError):
            dy.make_mixed(MixedCss(params, 0.5))
        with pytest.raises(DegenerateStateError):
            dy.extract_fraction(dy.make_coherent(0.0), params)

    def test_alpha_zero_family_rejected(self):
        with pytest.raises(StateFamilyError):
            dy.extract_fraction(dy.make_coherent(0.0), CssParams(0.0, 0.0))

    @pytest.mark.parametrize("params", [(1.0, 0.0), MixedCss(CssParams(1.0)), None])
    def test_wrong_record_rejected(self, params):
        with pytest.raises(ValueError, match="^params must be a CssParams or a sequence of them, got "):
            dy.extract_fraction(cat(CssParams(1.0)), params)

    @pytest.mark.parametrize("family", ["cat", "lossy", "homodyne"])
    def test_matches_the_closed_forms(self, family):
        # 40 states alone, then one batch of each size from 2 to 20
        rng = random.Random(f"extract-{family}")
        for members in [1] * 40 + list(range(2, 21)):
            states, settings = extraction_draws(rng, family, members)
            if members == 1:
                states, settings = states[0], settings[0]
            state, closed = extraction_case(family, states, settings)
            records = [closed] if members == 1 else closed
            fraction = dy.extract_fraction(state, closed.params if members == 1 else [c.params for c in closed])
            assert np.abs(np.subtract(fraction, [c.p for c in records])).max() <= 1e-12

    def test_amplifier_outputs_match_the_closed_form(self):
        rng = random.Random("extract-amplifier")
        for members in [1] * 40 + list(range(2, 21)):
            states, _ = extraction_draws(rng, "amplifier", members)
            fractions, params = [s.p for s in states], [s.params for s in states]
            simulated = dy.amplifier_sim(*((fractions[0], params[0]) if members == 1 else (fractions, params)))
            assert np.abs(np.subtract(simulated, [analytic.amplify(s).p for s in states])).max() <= 1e-12


class TestPurityAndProbes:
    def test_dephased_pair_large_alpha(self):
        assert dy.purity(dephased(3.0)) == pytest.approx(0.5, abs=1e-10)

    def test_matches_closed_form(self):
        state = MixedCss(CssParams(1.0, 0.0), 0.5)
        assert dy.purity(dy.make_mixed(state)) == pytest.approx(
            analytic.purity_mixed_css(state), abs=1e-12
        )

    def test_non_unit_trace_rejected(self):
        bad = dy.DyadState([2.0], [[0.0]], [[0.0]])
        with pytest.raises(StateFamilyError):
            dy.purity(bad)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_trace_rejected(self):
        # four modes of 1e154, beyond the amplitude domain, overflow the overlap's sum of squares: the trace is NaN
        amps = np.full((1, 4), 1e154 + 0j)
        state = dy._derived(np.ones(1, complex), amps, amps)
        assert cmath.isnan(dy.trace(state))
        with pytest.raises(StateFamilyError, match="^purity expects a unit-trace state, trace was nan$"):
            dy.purity(state)

    def test_positivity_proxy_on_random_states(self):
        rng = np.random.default_rng(19)
        probes = [random_complex(rng, radius=2.5) for _ in range(32)]
        for _ in range(10):
            state = random_mixture(rng)
            assert dy.purity(state) <= 1.0 + 1e-12
            for g in probes:  # <g|rho|g> = sum_i c_i <g|k_i> <b_i|g>
                seen = sum(c * overlap(g, k[0]) * overlap(b[0], g) for c, k, b in rows(state))
                assert seen.real >= -1e-12

    def test_hermiticity_defect_flags_asymmetry(self):
        lopsided = dy.DyadState([1.0], [[1.0]], [[-1.0]])
        assert dy.hermiticity_defect(lopsided) > 0.5

    def test_trace_of_single_dyad(self):
        dyad = dy.DyadState([0.3 + 0.1j], [[1.2]], [[0.4]])
        expected = (0.3 + 0.1j) * overlap(0.4, 1.2)
        assert dy.trace(dyad) == pytest.approx(expected, abs=1e-16)


class TestAmplifierSim:
    def test_reference_points(self):
        assert dy.amplifier_sim(0.5, CssParams(0.5, math.pi)) == pytest.approx(
            0.5922488638743828, abs=1e-9
        )
        assert dy.amplifier_sim(0.8, CssParams(0.9, math.pi)) == pytest.approx(
            0.7019362203839302, abs=1e-9
        )

    def test_large_amplitude_asymptote(self):
        assert dy.amplifier_sim(0.5, CssParams(3.0, 0.0)) == pytest.approx(
            0.25, abs=1e-3
        )

    def test_term_count_stays_bounded(self):
        """Terms after each stage of the amplifier chain (`amplifier_chain`).
        A pure or fully dephased copy has half the terms of a mixture. The tap
        chain keeps a mixture's four terms at every stage."""
        mixed, dephased = (4, 16, 16, 16, 16, 9, 4, 4), (2, 4, 4, 4, 4, 3, 2, 2)
        cases = [
            ((1.1, math.pi, 0.37), mixed),
            ((0.4, 0.0, 0.8), mixed),
            ((1.1, math.pi, 1.0), mixed),
            ((1.1, math.pi, 0.0), dephased),
            ((0.4, 0.0, 0.0), dephased),
        ]
        for (alpha, phi, p), expected in cases:
            stages, _ = amplifier_chain(p, CssParams(alpha, phi))
            assert tuple(len(state.coeff) for state in stages) == expected, (alpha, phi, p)
        for alpha, phi, p in [(1.1, math.pi, 0.37), (0.4, 0.0, 0.8), (1.1, math.pi, 1.0)]:
            # as verify runs it: the tap mode, its beam splitter, the
            # detector's loss, the homodyne outcome, a lossy line, normalization
            state = dy.make_mixed(MixedCss(CssParams(alpha, phi), p))
            counts = [len(state.coeff)]
            state = dy.attach_vacuum(state)
            counts.append(len(state.coeff))
            state = dy.bs_on_product(state, (0, 1), 0.5)
            counts.append(len(state.coeff))
            state = dy.loss_on_dyad(state, 1, 0.9)
            counts.append(len(state.coeff))
            state, _ = dy.project_quadrature(state, 1, 0.3, HALF_PI)
            counts.append(len(state.coeff))
            state = dy.loss_on_dyad(state, 0, 0.6)
            counts.append(len(state.coeff))
            counts.append(len(dy.normalize(state).coeff))
            assert counts == [4] * 7, (alpha, phi, p)

    # (p, alpha, phi) -> float.hex of the output fraction, frozen so that any
    # change in the oracle's arithmetic shows at the bit level; recorded when
    # the fraction came to be read off the conditioned state's record
    PINNED = [
        ((0.4, 0.8, 0.0), "0x1.00f39c2be83fcp-3"),
        ((0.7, 1.2, math.pi), "0x1.03f368eb7d581p-1"),
        ((0.3, 0.9, 2.1), "0x1.a2d16932ed3f0p-4"),
        ((0.6, 0.05, 0.0), "0x1.3d774fcca49bep-2"),
        ((0.55, 1.5, math.pi), "0x1.38e83e7417c5cp-2"),
        ((1.0, 0.35, 4.4), "0x1.0000000000000p+0"),
    ]

    def test_equals_the_public_chain_bit_for_bit(self):
        # alpha log-uniform up to 30, so that both click-weight branches run
        rng = random.Random("amplifier-chain")
        draws = [
            (rng.choice([0.0, 1.0, rng.random()]), CssParams(math.exp(rng.uniform(math.log(0.02), math.log(30.0))), rng.uniform(0.0, 7.0)))
            for _ in range(300)
        ]
        for p, params in draws:
            assert dy.amplifier_sim(p, params).hex() == amplifier_chain(p, params)[1].hex(), (p, params)
        fractions, params = [p for p, _ in draws], [q for _, q in draws]
        batch = dy.amplifier_sim(fractions, params)
        assert [v.hex() for v in batch.tolist()] == [v.hex() for v in amplifier_chain(fractions, params)[1].tolist()]

    def test_pinned_values_alone_and_in_one_batch(self):
        expected = [value for _, value in self.PINNED]
        alone = [dy.amplifier_sim(p, CssParams(a, f)) for (p, a, f), _ in self.PINNED]
        assert [type(v) for v in alone] == [float] * len(alone)
        assert [v.hex() for v in alone] == expected
        batch = dy.amplifier_sim([p for (p, _, _), _ in self.PINNED], [CssParams(a, f) for (_, a, f), _ in self.PINNED])
        assert [float(v).hex() for v in batch] == expected

    def test_large_amplitudes_match_the_closed_form(self):
        # past alpha = 13.35 a click weight's e^s underflows while e^{conj(b) k} overflows
        params = [CssParams(alpha, 2.0) for alpha in (13.4, 20.0, 30.0)]
        expected = [analytic.amplify(MixedCss(q, 0.5)).p for q in params]
        alone = [dy.amplifier_sim(0.5, q) for q in params]
        assert np.abs(np.subtract(alone, expected)).max() <= 1e-12
        assert dy.amplifier_sim([0.5] * 3, params).tolist() == alone

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            dy.amplifier_sim(1.2, CssParams(0.5, 0.0))
        with pytest.raises(ValueError):
            dy.amplifier_sim(0.5, CssParams(0.0, 0.0))

    @pytest.mark.parametrize("params", [(0.5, 0.0), None, [CssParams(0.5), (0.5, 0.0)]])
    def test_wrong_record_rejected(self, params):
        fractions = [0.5, 0.5] if isinstance(params, list) else 0.5
        with pytest.raises(ValueError, match="^params must be a CssParams or a sequence of them, got "):
            dy.amplifier_sim(fractions, params)

    @pytest.mark.parametrize(
        "fractions, params",
        [
            (0.5, CssParams(1e-80, 0.0)),
            ([0.5, 0.5], [CssParams(0.5, 0.0), CssParams(1e-80, 0.0)]),
        ],
        ids=["single", "batch"],
    )
    def test_vanishing_coincidence_rejected(self, fractions, params):
        # a click needs light: at alpha = 1e-80 both ports stay dark
        with pytest.raises(ZeroDensityError) as info:
            dy.amplifier_sim(fractions, params)
        assert str(info.value) == "both-click coincidence has vanishing probability"


def amplifier_chain(fractions, params):
    """`amplifier_sim` composed from the public primitives, for one fraction
    and CssParams or a list of each: the states after each stage (the copy,
    the two copies, their beam splitter, the ancilla, its beam splitter, the
    ancilla's click, the difference's click, the normalization) and the
    output fraction."""
    batched = isinstance(params, list)
    members = list(zip(fractions, params)) if batched else [(fractions, params)]
    alpha = np.array([q.alpha for _, q in members]) if batched else params.alpha
    copy = dy.make_mixed([MixedCss(q, p) for p, q in members] if batched else MixedCss(params, fractions))
    stages = [copy, dy.tensor(copy, copy)]
    stages.append(dy.bs_on_product(stages[-1], (0, 1), 0.5))
    stages.append(dy.tensor(stages[-1], dy.make_coherent(math.sqrt(2.0) * alpha)))
    stages.append(dy.bs_on_product(stages[-1], (0, 2), 0.5))
    stages.append(dy.project_click(stages[-1], 2)[0])
    stages.append(dy.project_click(stages[-1], 0)[0])
    stages.append(dy.normalize(stages[-1]))
    out = [CssParams(math.sqrt(2.0) * q.alpha, 2.0 * q.phi) for _, q in members]
    return stages, dy.extract_fraction(stages[-1], out if batched else out[0])


PARAMETERS = CssParams(0.5, 1.0)
OUT_OF_DOMAIN = "must be complex amplitudes of norm at most sqrt(sys.float_info.max)/2 over the modes"


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda st: dy.tensor(st, None), "right must be a DyadState, got None", id="tensor"),
        pytest.param(lambda st: dy.normalize(None), "state must be a DyadState, got None", id="normalize"),
        pytest.param(lambda st: dy.trace(None), "state must be a DyadState, got None", id="trace"),
        pytest.param(lambda st: dy.attach_vacuum(None), "state must be a DyadState, got None", id="attach_vacuum"),
        pytest.param(lambda st: dy.purity(None), "state must be a DyadState, got None", id="purity"),
        pytest.param(lambda st: dy.hermiticity_defect(None), "state must be a DyadState, got None", id="hermiticity"),
        pytest.param(lambda st: dy.extract_fraction(None, PARAMETERS), "state must be a DyadState, got None", id="extract"),
        pytest.param(lambda st: dy.project_click(None, 0), "state must be a DyadState, got None", id="click-state"),
        pytest.param(lambda st: dy.loss_on_dyad(st, 0.5, 0.9), "mode must be an index in [0, 2), got 0.5", id="loss-mode"),
        pytest.param(lambda st: dy.loss_on_dyad(st, 0, "a"), "loss transmittance must lie in (0, 1], got 'a'", id="loss-eta"),
        pytest.param(lambda st: dy.loss_on_dyad(st, 0, np.complex128(0.5 + 2j)), "loss transmittance must lie in (0, 1], got ", id="loss-complex"),
        pytest.param(lambda st: dy.loss_on_dyad(st, True, 0.9), "mode must be an index in [0, 2), got True", id="loss-bool"),
        pytest.param(lambda st: dy.project_click(st, 1.0), "mode must be an index in [0, 2), got 1.0", id="click-mode"),
        pytest.param(lambda st: dy.project_click(st, 2), "mode must be an index in [0, 2), got 2", id="click-range"),
        pytest.param(lambda st: dy.project_quadrature(st, "1", 0.3, 0.0), "mode must be an index in [0, 2), got '1'", id="quadrature-mode"),
        pytest.param(lambda st: dy.project_quadrature(st, 1, 0.3, None), "local-oscillator phase must be finite, got None", id="quadrature-phase"),
        pytest.param(lambda st: dy.homodyne_amplitude(None, 0.3, 0.0), "beta " + OUT_OF_DOMAIN, id="homodyne-beta"),
        pytest.param(lambda st: dy.homodyne_amplitude(1.0, "a", 0.0), "homodyne outcome must have magnitude at most ", id="homodyne-x"),
        pytest.param(lambda st: dy.bs_on_product(st, None, 0.5), "modes must be a pair of mode indices, got None", id="bs-none"),
        pytest.param(lambda st: dy.bs_on_product(st, (0,), 0.5), "modes must be a pair of mode indices, got (0,)", id="bs-one-mode"),
        pytest.param(lambda st: dy.bs_on_product(st, (0, 2), 0.5), "modes must be an index in [0, 2), got 2", id="bs-range"),
        pytest.param(lambda st: dy.amplifier_sim(0.5 + 1j, PARAMETERS), "state fraction must lie in [0, 1], got (0.5+1j)", id="amplifier"),
        pytest.param(lambda st: dy.amplifier_sim(None, PARAMETERS), "state fraction must lie in [0, 1], got None", id="amplifier-none"),
        pytest.param(lambda st: dy.amplifier_sim([0.5, None], [PARAMETERS] * 2), "state fraction must lie in [0, 1], got None", id="amplifier-none-element"),
        pytest.param(
            lambda st: dy.loss_on_dyad(dy.make_mixed([MixedCss(PARAMETERS, 0.5)] * 2), 0, [0.5, None]),
            "loss transmittance must lie in (0, 1], got None",
            id="loss-none-element",
        ),
        pytest.param(lambda st: dy.make_coherent(None), "amplitudes " + OUT_OF_DOMAIN, id="coherent-none"),
        pytest.param(lambda st: dy.make_coherent(math.inf), "amplitudes " + OUT_OF_DOMAIN, id="coherent-inf"),
        pytest.param(lambda st: dy.make_coherent("a"), "amplitudes " + OUT_OF_DOMAIN, id="coherent-text"),
        pytest.param(lambda st: dy.DyadState([1], [[math.nan]], [[0]]), "ket " + OUT_OF_DOMAIN, id="state-nan"),
        pytest.param(lambda st: dy.DyadState(["a"], [[1]], [[0]]), "coeff must be an array of complex numbers", id="state-text"),
        pytest.param(lambda st: dy.make_coherent(1e155), "amplitudes " + OUT_OF_DOMAIN, id="coherent-1e155"),
        pytest.param(lambda st: dy.DyadState([1], [[0]], [[1e155j]]), "bra " + OUT_OF_DOMAIN, id="state-1e155"),
        pytest.param(lambda st: dy.DyadState([1], [[1.5e308 + 1.5e308j]], [[0]]), "ket " + OUT_OF_DOMAIN, id="state-modulus-overflows"),
    ],
)
def test_bad_parameters_raise_value_errors_that_name_them(call, message):
    st = dy.attach_vacuum(dy.make_mixed(MixedCss(PARAMETERS, 0.5)))
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        call(st)


def lossy_far_cat():
    return dy.loss_on_dyad(dy.make_mixed(MixedCss(CssParams(1e155, 0.0), 0.5)), 0, 0.5)


def detected_far_cat():
    state = dy.attach_vacuum(dy.make_mixed(MixedCss(CssParams(1e155, 0.0), 0.5)))
    return dy.project_quadrature(dy.bs_on_product(state, (0, 1), 0.5), 1, 0.3, HALF_PI)


@pytest.mark.parametrize(
    "chain, domain",
    [
        (lambda: dy.amplifier_sim(0.5, CssParams(1e155, 0.0)), "(0, sqrt(sys.float_info.max)/4]"),
        (lossy_far_cat, "[0, sqrt(sys.float_info.max)/2]"),
        (detected_far_cat, "[0, sqrt(sys.float_info.max)/2]"),
    ],
    ids=["amplifier-1e155", "loss-1e155", "quadrature-1e155"],
)
def test_amplitudes_beyond_the_domain_stop_at_entry(chain, domain):
    # past the domain the overlaps would overflow part-way through each chain
    with pytest.raises(ValueError) as info:
        chain()
    assert str(info.value) == f"alpha must lie in {domain}, got 1e+155"


def test_derived_states_reject_non_finite_coefficients():
    with pytest.raises(ValueError, match="^dyad coefficients must be finite$"):
        dy._derived(np.array([math.nan + 0j]), np.zeros((1, 1), complex), np.zeros((1, 1), complex))


def test_coefficients_are_checked_once(monkeypatch):
    # an operation that keeps a checked state's coefficients, or a part of
    # them, stores them without a second finiteness pass; every operation that
    # makes new coefficients makes one
    passes = 0
    isfinite = np.isfinite

    def counting(*args, **kwargs):
        nonlocal passes
        passes += 1
        return isfinite(*args, **kwargs)

    batch = dy.make_mixed([MixedCss(CssParams(1.0, 0.5), p) for p in (0.0, 0.3, 1.0)])
    monkeypatch.setattr(np, "isfinite", counting)
    kept = [
        dy.attach_vacuum(batch),
        dy.bs_on_product(dy.attach_vacuum(batch), (0, 1), 0.3),
        dy._members((batch, slice(1))),
        dy._members((batch, slice(2, None)), (batch, slice(1))),
        dy._nonzero(dy._members((batch, slice(1)))),
    ]
    assert passes == 0
    for state in kept:
        assert all(getattr(state, side).flags.c_contiguous for side in ("coeff", "ket", "bra"))
    new = [
        lambda: dy.loss_on_dyad(batch, 0, 0.5),
        lambda: dy.normalize(batch),
        lambda: dy.tensor(batch, batch),
        lambda: dy.project_quadrature(dy.attach_vacuum(batch), 1, 0.3, 0.0),
        lambda: dy._tap(batch, np.full(3, 0.5), np.full(3, 0.9), np.full(3, 0.3), 0.0),
    ]
    for operation in new:
        passes = 0
        operation()
        assert passes >= 1


def random_dyads(rng, terms=7, modes=3):
    """A non-Hermitian dyad sum whose last two dyads repeat its first two."""
    distinct = terms - 2
    ket = [[random_complex(rng) for _ in range(modes)] for _ in range(distinct)]
    bra = [[random_complex(rng) for _ in range(modes)] for _ in range(distinct)]
    coeff = [random_complex(rng, radius=1.0) for _ in range(terms)]
    return dy.DyadState(coeff, ket + ket[:2], bra + bra[:2])


def rows(state):
    return [
        (c, tuple(k), tuple(b))
        for c, k, b in zip(state.coeff.tolist(), state.ket.tolist(), state.bra.tolist())
    ]


def multi_overlap(left, right):
    out = 1.0 + 0.0j
    for a, b in zip(left, right):
        out *= overlap(a, b)
    return out


def random_batch(rng, members=4, terms=7, modes=3):
    """A batch of non-Hermitian dyad sums with one term layout: every
    member's last two dyads repeat its first two."""
    distinct = terms - 2
    shape = (members, distinct, modes)
    ket = rng.uniform(-2.0, 2.0, shape) + 1j * rng.uniform(-2.0, 2.0, shape)
    bra = rng.uniform(-2.0, 2.0, shape) + 1j * rng.uniform(-2.0, 2.0, shape)
    coeff = rng.uniform(-1.0, 1.0, (members, terms)) + 1j * rng.uniform(-1.0, 1.0, (members, terms))
    return dy.DyadState(
        coeff,
        np.concatenate([ket, ket[:, :2]], axis=1),
        np.concatenate([bra, bra[:, :2]], axis=1),
    )


def member(state, i):
    return dy.DyadState(state.coeff[i], state.ket[i], state.bra[i])


def nth(value, i):
    """Member i of a batched state, array or list, of each entry of a tuple,
    or a value shared by every member."""
    if isinstance(value, dy.DyadState):
        return member(value, i)
    if isinstance(value, tuple):
        return tuple(nth(v, i) for v in value)
    return value[i] if isinstance(value, (list, np.ndarray)) else value


def bits(value):
    """Every real and imaginary part of a number, array, state or tuple of them, as float.hex."""
    if isinstance(value, tuple):
        return [bits(v) for v in value]
    if isinstance(value, dy.DyadState):
        return bits((value.coeff, value.ket, value.bra))
    value = np.asarray(value, dtype=complex).ravel()
    return [v.hex() for v in np.concatenate([value.real, value.imag]).tolist()]


def assert_same_terms(batched, singles, rel=0.0):
    """Member i of `batched` against the unbatched state singles[i]: the
    amplitudes exactly, the coefficients to `rel` of their total weight."""
    assert batched.coeff.shape[0] == len(singles)
    for i, single in enumerate(singles):
        got = member(batched, i)
        assert got.ket.tolist() == single.ket.tolist()
        assert got.bra.tolist() == single.bra.tolist()
        scale = np.abs(single.coeff).sum()
        assert np.abs(got.coeff - single.coeff).max(initial=0.0) <= rel * scale


def assert_close(batched_values, single_values, rel):
    got = np.asarray(batched_values).tolist()
    assert len(got) == len(single_values)
    for value, ref in zip(got, single_values):
        assert abs(value - ref) <= rel * max(abs(ref), 1.0)


def mixture_batch(rng, members=5):
    states = [
        MixedCss(
            CssParams(rng.uniform(0.05, 2.0), rng.uniform(0.0, 2.0 * math.pi)),
            rng.uniform(0.0, 1.0),
        )
        for _ in range(members)
    ]
    return states, dy.make_mixed(states)


class TestArrayFormMatchesTermLoops:
    """Each array expression against the term-by-term loop it replaces,
    and each batched call against the unbatched call on every member.

    Amplitude updates are the same float operations, so they must agree
    exactly; sums over terms may round in another order, so those agree to
    1e-12 relative to the terms' total weight. Batched traces and fractions
    agree with the unbatched ones to 1e-12 relative, purities bit for bit.
    """

    def test_tensor(self):
        rng = np.random.default_rng(31)
        left, right = random_dyads(rng, 5, 2), random_dyads(rng, 4, 1)
        expected = [
            (ca * cb, ka + kb, ba + bb)
            for ca, ka, ba in rows(left)
            for cb, kb, bb in rows(right)
        ]
        got = rows(dy.tensor(left, right))
        assert [t[1:] for t in got] == [t[1:] for t in expected]
        for (c, _, _), (ref, _, _) in zip(got, expected):
            assert abs(c - ref) <= 1e-15

    def test_beam_splitter_and_loss_amplitudes(self):
        rng = np.random.default_rng(32)
        state = random_dyads(rng)
        T, eta = 0.3, 0.6
        ct, cr, root = math.sqrt(T), math.sqrt(1.0 - T), math.sqrt(eta)
        mixed = dy.bs_on_product(state, (2, 0), T)
        lossy = dy.loss_on_dyad(state, 1, eta)
        for (c, k, b), (cm, km, bm), (cl, kl, bl) in zip(
            rows(state), rows(mixed), rows(lossy)
        ):
            for vec, out in ((k, km), (b, bm)):
                assert out[2] == ct * vec[2] - cr * vec[0]
                assert out[0] == cr * vec[2] + ct * vec[0]
                assert out[1] == vec[1]
            assert cm == c
            assert kl == (k[0], k[1] * root, k[2]) and bl == (b[0], b[1] * root, b[2])
            a1, a2 = k[1], b[1]
            exponent = abs(a1) ** 2 + abs(a2) ** 2 - 2.0 * a1 * a2.conjugate()
            factor = cmath.exp(-0.5 * (1.0 - eta) * exponent)
            assert abs(cl - c * factor) <= 1e-12 * abs(c * factor)

    def test_trace_and_purity(self):
        rng = np.random.default_rng(34)
        state = random_dyads(rng)
        terms = rows(state)
        scale = sum(abs(c) for c, _, _ in terms)
        trace = sum(c * multi_overlap(b, k) for c, k, b in terms)
        assert abs(dy.trace(state) - trace) <= 1e-12 * scale
        unit = dy.DyadState(state.coeff / dy.trace(state), state.ket, state.bra)
        square = sum(
            ca * cb * multi_overlap(ba, kb) * multi_overlap(bb, ka)
            for ca, ka, ba in rows(unit)
            for cb, kb, bb in rows(unit)
        )
        unit_scale = sum(abs(c) for c in unit.coeff)
        assert dy.purity(unit) == pytest.approx(square.real, abs=1e-12 * unit_scale**2)

    def test_projections(self):
        rng = np.random.default_rng(35)
        state = random_dyads(rng)
        scale = sum(abs(c) for c in state.coeff)
        clicked, _ = dy.project_click(state, 1)
        click = [
            c * (overlap(b[1], k[1]) - overlap(b[1], 0.0) * overlap(0.0, k[1]))
            for c, k, b in rows(state)
        ]
        kept = [0, 2]
        reference = [(c, tuple(k[kept]), tuple(b[kept])) for c, k, b in zip(click, state.ket, state.bra) if c != 0.0]
        assert len(reference) == 7
        assert [t[1:] for t in rows(clicked)] == [t[1:] for t in reference]
        assert np.abs(clicked.coeff - [c for c, _, _ in reference]).max() <= 1e-12 * scale

        tapped = dy.bs_on_product(dy.attach_vacuum(random_mixture(rng)), (0, 1), 0.4)
        x, lam = 0.4, 1.1
        amp = dy.homodyne_amplitude
        weights = [
            c * amp(k[1], x, lam) * amp(b[1], x, lam).conjugate() for c, k, b in rows(tapped)
        ]
        density = sum(
            w * overlap(b[0], k[0]) for w, (_, k, b) in zip(weights, rows(tapped))
        )
        cond, got = dy.project_quadrature(tapped, 1, x, lam)
        assert got == pytest.approx(density.real, rel=1e-12)
        expected = np.array(weights) / density.real
        assert cond.ket.tolist() == tapped.ket[:, :1].tolist() and cond.bra.tolist() == tapped.bra[:, :1].tolist()
        assert np.abs(cond.coeff - expected).max() <= 1e-12 * np.abs(expected).sum()

    def test_batched_tensor_loss_and_beam_splitter(self):
        rng = np.random.default_rng(41)
        left, right = random_batch(rng, 4, 5, 2), random_batch(rng, 4, 4, 1)
        singles = [dy.tensor(member(left, i), member(right, i)) for i in range(4)]
        assert_same_terms(dy.tensor(left, right), singles)
        shared = dy.make_coherent(0.3 - 0.2j)
        singles = [dy.tensor(member(left, i), shared) for i in range(4)]
        assert_same_terms(dy.tensor(left, shared), singles)
        assert_same_terms(dy.attach_vacuum(left), [dy.attach_vacuum(member(left, i)) for i in range(4)])

        state = random_batch(rng)
        etas, Ts = rng.uniform(0.05, 1.0, 4), rng.uniform(0.0, 1.0, 4)
        lossy = dy.loss_on_dyad(state, 1, etas)
        assert_same_terms(lossy, [dy.loss_on_dyad(member(state, i), 1, etas[i]) for i in range(4)])
        mixed = dy.bs_on_product(state, (2, 0), Ts)
        assert_same_terms(mixed, [dy.bs_on_product(member(state, i), (2, 0), Ts[i]) for i in range(4)])
        shared_T = dy.bs_on_product(state, (0, 1), 0.3)
        assert_same_terms(shared_T, [dy.bs_on_product(member(state, i), (0, 1), 0.3) for i in range(4)])

    def test_batched_trace_and_normalize(self):
        rng = np.random.default_rng(42)
        state = random_batch(rng)
        assert_close(dy.trace(state), [dy.trace(member(state, i)) for i in range(4)], 1e-12)
        _, mixed = mixture_batch(rng)
        assert_same_terms(
            dy.normalize(dy.loss_on_dyad(mixed, 0, 0.5)),
            [dy.normalize(dy.loss_on_dyad(member(mixed, i), 0, 0.5)) for i in range(5)],
            1e-12,
        )

    def test_batched_constructors_and_purity(self):
        rng = np.random.default_rng(43)
        states, mixed = mixture_batch(rng)
        assert_same_terms(mixed, [dy.make_mixed(s) for s in states], 1e-15)
        alphas = [s.params.alpha for s in states]
        batch = dy.make_mixed([MixedCss(CssParams(a), 0.0) for a in alphas])
        assert_same_terms(batch, [dephased(a) for a in alphas])
        assert_same_terms(dy.make_coherent(alphas, 0.0), [dy.make_coherent(a, 0.0) for a in alphas])
        assert [v.hex() for v in dy.purity(mixed).tolist()] == [dy.purity(dy.make_mixed(s)).hex() for s in states]

    @pytest.mark.parametrize("members", range(2, 10))
    def test_batched_purity_equals_single_calls_bit_for_bit(self, members):
        # summed elementwise, each member rounds as it would alone
        rng = np.random.default_rng(47 + members)
        for _ in range(5):
            _, mixed = mixture_batch(rng, members)
            lossy = dy.loss_on_dyad(mixed, 0, rng.uniform(0.05, 1.0, members))
            for batch in (mixed, lossy):
                singles = [dy.purity(member(batch, i)).hex() for i in range(members)]
                assert [value.hex() for value in dy.purity(batch).tolist()] == singles

    def test_random_batches_equal_single_calls_bit_for_bit(self):
        # seeded batches of 2-50 members: each member of every primitive's
        # result, and of the amplifier's, has the bits of its single call
        rng = np.random.default_rng(48)
        for _ in range(20):
            members = int(rng.integers(2, 51))
            states, mixed = mixture_batch(rng, members)
            etas, Ts, xs = rng.uniform(0.05, 1.0, members), rng.uniform(0.1, 0.9, members), rng.uniform(-2.0, 2.0, members)
            lossy = dy.loss_on_dyad(mixed, 0, etas)
            split = dy.bs_on_product(dy.attach_vacuum(lossy), (0, 1), Ts)
            targets = [analytic.apply_loss(s, ChannelSetting(eta)).params for s, eta in zip(states, etas.tolist())]
            noncanonical = random_batch(rng, members)
            calls = [
                (dy.loss_on_dyad, mixed, 0, etas),
                (dy.bs_on_product, dy.attach_vacuum(lossy), (0, 1), Ts),
                (dy.project_quadrature, split, 1, xs, HALF_PI),
                (dy.project_click, split, 1),
                (dy.extract_fraction, lossy, targets),
                (dy.purity, lossy),
                (dy.trace, noncanonical),
                (dy.amplifier_sim, rng.uniform(0.0, 1.0, members).tolist(), [s.params for s in states]),
            ]
            for fn, *args in calls:
                batched = fn(*args)
                for i in range(members):
                    assert bits(nth(batched, i)) == bits(fn(*nth(tuple(args), i))), (fn.__name__, members, i)

    def test_batched_projections_and_fraction(self):
        rng = np.random.default_rng(44)
        states, mixed = mixture_batch(rng)
        Ts, xs = rng.uniform(0.1, 0.9, 5), rng.uniform(-2.0, 2.0, 5)
        tapped = dy.bs_on_product(dy.attach_vacuum(mixed), (0, 1), Ts)
        singles = [member(tapped, i) for i in range(5)]
        cond, dens = dy.project_quadrature(tapped, 1, xs, HALF_PI)
        pairs = [dy.project_quadrature(s, 1, x, HALF_PI) for s, x in zip(singles, xs)]
        assert_same_terms(cond, [c for c, _ in pairs], 1e-12)
        assert_close(dens, [d for _, d in pairs], 1e-12)
        targets = [
            analytic.purify(s, TapSetting(T, x))[0].params for s, T, x in zip(states, Ts, xs)
        ]
        assert_close(
            dy.extract_fraction(cond, targets),
            [dy.extract_fraction(c, t) for (c, _), t in zip(pairs, targets)],
            1e-12,
        )
        clicked, prob = dy.project_click(tapped, 1)
        pairs = [dy.project_click(s, 1) for s in singles]
        assert_same_terms(clicked, [c for c, _ in pairs], 1e-12)
        assert_close(prob, [p for _, p in pairs], 1e-12)

    def test_batched_amplifier(self):
        rng = np.random.default_rng(45)
        fractions = rng.uniform(0.0, 1.0, 6).tolist()
        params = [CssParams(rng.uniform(0.1, 1.5), rng.uniform(0.0, 2.0 * math.pi)) for _ in range(6)]
        assert_close(
            dy.amplifier_sim(fractions, params),
            [dy.amplifier_sim(f, p) for f, p in zip(fractions, params)],
            1e-12,
        )

    def test_scalar_results_stay_python_numbers(self):
        state = dy.make_mixed(MixedCss(CssParams(0.8, 1.0), 0.6))
        assert type(dy.trace(state)) is complex
        assert type(dy.purity(state)) is float
        _, density = dy.project_quadrature(dy.attach_vacuum(state), 1, 0.3, HALF_PI)
        _, prob = dy.project_click(dy.attach_vacuum(state), 1)
        assert type(density) is float and type(prob) is float
        assert type(dy.extract_fraction(state, CssParams(0.8, 1.0))) is float


class TestBatchValidation:
    @pytest.mark.parametrize(
        "coeff_shape,ket_shape,bra_shape",
        [
            ((2, 3), (2, 4, 1), (2, 4, 1)),  # one coefficient too few per member
            ((3,), (2, 3, 1), (2, 3, 1)),  # coefficients without the batch axis
            ((2, 3), (3, 3), (3, 3)),  # coefficients batched, amplitudes not
            ((2, 3), (2, 3, 1), (3, 3, 1)),  # ket and bra batches differ
            ((3, 3), (2, 3, 1), (2, 3, 1)),  # coefficient batch differs
            ((1, 2, 3), (1, 2, 3, 1), (1, 2, 3, 1)),  # two batch axes
        ],
    )
    def test_rejects_mismatched_batch_shapes(self, coeff_shape, ket_shape, bra_shape):
        with pytest.raises(ValueError):
            dy.DyadState(np.ones(coeff_shape), np.ones(ket_shape), np.ones(bra_shape))

    def test_batch_shape_and_modes(self):
        state = dy.DyadState(np.ones((2, 3)), np.ones((2, 3, 4)), np.zeros((2, 3, 4)))
        assert state.mode_count == 4 and state.coeff.shape == (2, 3)

    def test_settings_need_one_value_per_member(self):
        state = dy.attach_vacuum(dy.make_coherent([0.1, 0.2, 0.3]))
        with pytest.raises(ValueError, match="one per batch member"):
            dy.loss_on_dyad(state, 0, [0.5, 0.5])
        with pytest.raises(ValueError, match="one per batch member"):
            dy.bs_on_product(state, (0, 1), [0.5] * 4)
        with pytest.raises(ValueError, match="one per batch member"):
            dy.project_quadrature(state, 1, [0.1, 0.2], HALF_PI)
        with pytest.raises(ValueError, match=r"got 1\.5"):
            dy.loss_on_dyad(state, 0, [0.5, 1.5, 0.5])
        with pytest.raises(ValueError, match="one per batch member"):
            dy.loss_on_dyad(dy.make_coherent(0.1, 0.0), 0, [0.5, 0.5])

    def test_scalar_settings_agree_whatever_their_type(self):
        # a Python float, a numpy scalar and a 0-d array give the same results and messages
        state = dy.attach_vacuum(dy.make_mixed(MixedCss(CssParams(0.8, 1.0), 0.6)))

        def chain(convert):
            split = dy.bs_on_product(dy.loss_on_dyad(state, 0, convert(0.7)), (0, 1), convert(0.3))
            cond, density = dy.project_quadrature(split, 1, convert(0.4), HALF_PI)
            return cond.coeff.tolist(), cond.ket.tolist(), cond.bra.tolist(), density

        assert chain(float) == chain(np.float64) == chain(np.array)
        for convert in (float, np.float64, np.array):
            for bad in (1.5, math.nan):
                with pytest.raises(ValueError, match=rf"^loss transmittance must lie in \(0, 1\], got {bad!r}$"):
                    dy.loss_on_dyad(state, 0, convert(bad))
            with pytest.raises(ValueError, match=r"^homodyne outcome must have magnitude at most .*, got inf$"):
                dy.project_quadrature(state, 1, convert(math.inf), HALF_PI)

    def test_one_record_per_member(self):
        state = cat([CssParams(0.5, 0.0), CssParams(0.6, 0.0)])
        with pytest.raises(ValueError):
            dy.extract_fraction(state, CssParams(0.5, 0.0))
        with pytest.raises(ValueError):
            dy.extract_fraction(state, [CssParams(0.5, 0.0)] * 3)
        with pytest.raises(ValueError):
            dy.amplifier_sim([0.5, 0.5], [CssParams(0.5, 0.0)])

    def test_one_bad_member_rejects_the_batch(self):
        tapped = dy.attach_vacuum(dy.make_coherent([0.5, 0.5]))
        with pytest.raises(ZeroDensityError, match="x=40.0"):
            dy.project_quadrature(tapped, 1, [0.0, 40.0], HALF_PI)
        with pytest.raises(DegenerateStateError):
            cat([CssParams(0.5, 0.0), CssParams(0.0, math.pi)])
        with pytest.raises(StateFamilyError):
            dy.extract_fraction(
                cat([CssParams(1.0, 0.0)] * 2), [CssParams(1.0, 0.0), CssParams(0.8, 0.0)]
            )
        with pytest.raises(ValueError, match=r"got 1\.2"):
            dy.amplifier_sim([0.5, 1.2], [CssParams(0.5, 0.0)] * 2)

    def test_hermiticity_defect_takes_one_state(self):
        with pytest.raises(ValueError):
            dy.hermiticity_defect(cat([CssParams(0.5, 0.0)] * 2))
