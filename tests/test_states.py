"""Semantics of the parameter records: construction, identity, frozenness,
`dataclasses` support and the exact validation messages.

These pin behaviour that callers see, independent of how the records
store their fields; `TestOneComparisonEntry` holds the records' fast entry
for exact floats to `states._checked`, field by field.
"""

import copy
import inspect
import math
import pickle
import random
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction

import numpy as np
import pytest

from catpurify import ChannelSetting, CssParams, MixedCss, TapSetting, analytic, states

TWO_PI = 2.0 * math.pi


class TestConstruction:
    def test_positional_and_keyword_agree(self):
        assert CssParams(1.5, 0.25) == CssParams(alpha=1.5, phi=0.25)
        params = CssParams(1.0)
        assert MixedCss(params, 0.5) == MixedCss(params=params, p=0.5)
        assert TapSetting(0.5, 0.3, 0.9) == TapSetting(T=0.5, k=0.3, eta_H=0.9)
        assert ChannelSetting(0.8) == ChannelSetting(eta=0.8)

    def test_defaults(self):
        assert CssParams(1.0).phi == 0.0
        assert MixedCss(CssParams(1.0)).p == 1.0
        tap = TapSetting(0.5)
        assert (tap.k, tap.eta_H) == (0.0, 1.0)

    def test_signatures(self):
        def params(cls):
            return [(p.name, p.default) for p in inspect.signature(cls).parameters.values()]

        empty = inspect.Parameter.empty
        assert params(CssParams) == [("alpha", empty), ("phi", 0.0)]
        assert params(MixedCss) == [("params", empty), ("p", 1.0)]
        assert params(TapSetting) == [("T", empty), ("k", 0.0), ("eta_H", 1.0)]
        assert params(ChannelSetting) == [("eta", empty)]

    def test_too_many_or_unknown_arguments_rejected(self):
        with pytest.raises(TypeError):
            CssParams(1.0, 0.0, 2.0)
        with pytest.raises(TypeError):
            CssParams(1.0, theta=0.0)
        with pytest.raises(TypeError):
            ChannelSetting()

    def test_fields_converted_to_float(self):
        params = CssParams(1, 0)
        assert type(params.alpha) is float and type(params.phi) is float
        assert type(MixedCss(params, 1).p) is float
        tap = TapSetting(1, 0, 1)
        assert all(type(v) is float for v in (tap.T, tap.k, tap.eta_H))
        assert type(ChannelSetting(1).eta) is float
        assert CssParams("0.5").alpha == 0.5

    def test_params_record_stored_as_given(self):
        params = CssParams(1.0, math.pi)
        assert MixedCss(params, 0.5).params is params


class TestIdentity:
    def test_repr(self):
        assert repr(CssParams(1, 7.0)) == f"CssParams(alpha=1.0, phi={7.0 - TWO_PI!r})"
        assert repr(MixedCss(CssParams(0.5), 1)) == (
            "MixedCss(params=CssParams(alpha=0.5, phi=0.0), p=1.0)"
        )
        assert repr(TapSetting(0.5, -1)) == "TapSetting(T=0.5, k=-1.0, eta_H=1.0)"
        assert repr(ChannelSetting(1)) == "ChannelSetting(eta=1.0)"

    @pytest.mark.parametrize(
        "make",
        [
            lambda: CssParams(1, 0),
            lambda: MixedCss(CssParams(0.5, math.pi), 0.25),
            lambda: TapSetting(0.5, 0.1, 0.9),
            lambda: ChannelSetting(0.7),
        ],
        ids=["CssParams", "MixedCss", "TapSetting", "ChannelSetting"],
    )
    def test_equal_records_hash_alike(self, make):
        a, b = make(), make()
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert copy.deepcopy(a) == a
        assert pickle.loads(pickle.dumps(a)) == a

    def test_equality_after_conversion_and_reduction(self):
        assert CssParams(1, 0) == CssParams(1.0, 0.0)
        assert CssParams(1.0, TWO_PI) == CssParams(1.0, 0.0)
        assert hash(CssParams(1.0, TWO_PI)) == hash(CssParams(1.0, 0.0))

    def test_records_of_different_types_differ(self):
        assert ChannelSetting(0.5) != TapSetting(0.5)
        assert CssParams(1.0, 0.0) != (1.0, 0.0)
        assert CssParams(1.0, 0.0) != CssParams(1.0, math.pi)


class TestFrozen:
    @pytest.mark.parametrize(
        "record, name",
        [
            (CssParams(1.0), "alpha"),
            (CssParams(1.0), "phi"),
            (MixedCss(CssParams(1.0)), "p"),
            (TapSetting(0.5), "T"),
            (TapSetting(0.5), "eta_H"),
            (ChannelSetting(0.5), "eta"),
        ],
    )
    def test_assignment_rejected(self, record, name):
        with pytest.raises(FrozenInstanceError):
            setattr(record, name, 0.5)
        with pytest.raises(FrozenInstanceError):
            delattr(record, name)

    def test_new_attribute_rejected(self):
        with pytest.raises(FrozenInstanceError):
            CssParams(1.0).beta = 2.0

    def test_reflectivity_is_derived(self):
        tap = TapSetting(0.7)
        assert tap.R == 1.0 - 0.7
        assert "R" not in [f.name for f in fields(tap)]


class TestDataclassSupport:
    def test_field_names(self):
        assert [f.name for f in fields(CssParams)] == ["alpha", "phi"]
        assert [f.name for f in fields(MixedCss)] == ["params", "p"]
        assert [f.name for f in fields(TapSetting)] == ["T", "k", "eta_H"]
        assert [f.name for f in fields(ChannelSetting)] == ["eta"]

    def test_replace_revalidates_and_reduces(self):
        c = CssParams(1.0, 0.5)
        moved = replace(c, phi=7.0)
        assert moved == CssParams(1.0, 7.0 - TWO_PI)
        assert moved.phi == 7.0 - TWO_PI
        assert c.phi == 0.5
        m = MixedCss(c, 0.5)
        assert replace(m, p=0.25).p == 0.25
        with pytest.raises(ValueError, match=r"fraction p must lie in \[0, 1\], got 2\.0"):
            replace(m, p=2.0)
        with pytest.raises(ValueError, match="transmittance T"):
            replace(TapSetting(0.5), T=0.0)
        assert replace(ChannelSetting(0.5), eta=1).eta == 1.0


def _message(call):
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


class TestMessages:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: CssParams(-0.1), "alpha must be a finite real >= 0, got -0.1"),
            (lambda: CssParams(math.inf), "alpha must be a finite real >= 0, got inf"),
            (lambda: CssParams("nan"), "alpha must be a finite real >= 0, got 'nan'"),
            (lambda: CssParams(1.0, math.nan), "phi must be finite, got nan"),
            (lambda: CssParams(1.0, "-inf"), "phi must be finite, got '-inf'"),
            (lambda: MixedCss(CssParams(1.0), 1.2), "fraction p must lie in [0, 1], got 1.2"),
            (lambda: MixedCss(CssParams(1.0), "nan"), "fraction p must lie in [0, 1], got 'nan'"),
            (lambda: MixedCss(CssParams(1.0), -1), "fraction p must lie in [0, 1], got -1"),
            (lambda: MixedCss((1.0, 0.0), 0.5), "params must be a CssParams, got (1.0, 0.0)"),
            (lambda: TapSetting(0.0), "transmittance T must lie in (0, 1], got 0.0"),
            (lambda: TapSetting(2), "transmittance T must lie in (0, 1], got 2"),
            (lambda: TapSetting(0.5, math.inf), "homodyne outcome k must be finite, got inf"),
            (
                lambda: TapSetting(0.5, 0.0, 0.0),
                "detector efficiency eta_H must lie in (0, 1], got 0.0",
            ),
            (
                lambda: TapSetting(0.5, eta_H="1.5"),
                "detector efficiency eta_H must lie in (0, 1], got '1.5'",
            ),
            (lambda: ChannelSetting(1.5), "channel transmittance eta must lie in (0, 1], got 1.5"),
            (lambda: ChannelSetting(math.nan), "channel transmittance eta must lie in (0, 1], got nan"),
        ],
    )
    def test_exact_message(self, call, message):
        assert _message(call) == message

    def test_first_bad_field_is_reported(self):
        assert _message(lambda: CssParams(-1.0, math.nan)).startswith("alpha ")
        assert _message(lambda: TapSetting(0.0, math.inf, 0.0)).startswith("transmittance T ")
        assert _message(lambda: TapSetting(0.5, math.inf, 0.0)).startswith("homodyne outcome k ")

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: CssParams("one"), "alpha must be a finite real >= 0, got 'one'"),
            (lambda: CssParams(None), "alpha must be a finite real >= 0, got None"),
            (lambda: CssParams(1.0, [0.0]), "phi must be finite, got [0.0]"),
            (lambda: CssParams(10**400), f"alpha must be a finite real >= 0, got {10**400!r}"),
            (lambda: MixedCss(CssParams(1.0), None), "fraction p must lie in [0, 1], got None"),
            (lambda: TapSetting(0.5, None), "homodyne outcome k must be finite, got None"),
            (lambda: ChannelSetting(None), "channel transmittance eta must lie in (0, 1], got None"),
        ],
        ids=["string", "None", "list", "huge-int", "p-None", "k-None", "eta-None"],
    )
    def test_unconvertible_input_lies_in_no_domain(self, call, message):
        # a value float() rejects gets its parameter's message, not float()'s
        assert _message(call) == message


def _parent_reduction(phi):
    """The reference reduction into [0, 2 pi): fmod, then + 2 pi below 0,
    then 0 where that rounds to 2 pi."""
    if 0.0 <= phi < TWO_PI:
        return phi
    phi = math.fmod(phi, TWO_PI)
    if phi < 0.0:
        phi += TWO_PI
    return 0.0 if phi >= TWO_PI else phi


class TestPhaseReduction:
    @pytest.mark.parametrize("phi", [-0.0, 0.0, -TWO_PI, TWO_PI, -4 * math.pi, 4 * math.pi, -1e-300])
    def test_zero_phase_is_stored_positive(self, phi):
        stored = CssParams(1.0, phi).phi
        assert stored == 0.0
        assert math.copysign(1.0, stored) == 1.0

    def test_equals_the_fmod_rule(self):
        rng = random.Random(20261020)
        phases = [rng.uniform(-1e3, 1e3) for _ in range(20000)]
        phases += [n * TWO_PI for n in range(-200, 201)] + [math.nextafter(0.0, -1.0), -1e-300]
        for phi in phases:
            assert CssParams(1.0, phi).phi == _parent_reduction(phi), phi


class _Float(float):
    """A float subclass, which no record stores as it is given."""


def _inputs(domain):
    """Exact floats at, one ulp past and between a domain's ends, the float
    specials, and values of every other kind a caller might pass."""
    lo, hi, _ = domain
    ends = [lo, hi, math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)]
    floats = ends + [
        0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-300, 0.5, 1.0, math.pi, TWO_PI,
        math.nextafter(TWO_PI, 0.0), 7.0, -7.0, math.nan, math.inf, -math.inf,
    ]
    others = [
        0, 1, -1, 2, 7, 2**1100, -(2**1100), True, False,
        np.float64(0.5), np.float64(-0.0), np.float64(math.nan), np.float64(math.inf),
        _Float(0.5), _Float(-0.0), _Float(math.nan), Fraction(1, 3), Fraction(-7, 2),
        "0.5", "-0.0", "1e400", "nan", "one", "", None,
    ]
    return floats + others


def _outcome(call):
    """("value", the bits of what `call` returns, each an exact float) or
    ("error", the ValueError's message)."""
    try:
        value = call()
    except ValueError as error:
        assert type(error) is ValueError
        return "error", str(error)
    return "value", [_bits(x) for x in (value if type(value) is tuple else (value,))]


def _bits(x):
    """A float's bits, the sign of zero included."""
    assert type(x) is float
    return x.hex()


# each record field: the record built with a value there, the field, and the
# label and domain of its check
_FIELDS = [
    (lambda v: CssParams(v, 1.0), "alpha", "alpha", states._NONNEGATIVE),
    (lambda v: CssParams(1.0, v), "phi", "phi", states._FINITE),
    (lambda v: MixedCss(CssParams(1.0), v), "p", "fraction p", states._UNIT),
    (lambda v: TapSetting(v), "T", "transmittance T", states._POSITIVE_UNIT),
    (lambda v: TapSetting(0.5, v), "k", "homodyne outcome k", states._FINITE),
    (lambda v: TapSetting(0.5, 0.0, v), "eta_H", "detector efficiency eta_H", states._POSITIVE_UNIT),
    (lambda v: ChannelSetting(v), "eta", "channel transmittance eta", states._POSITIVE_UNIT),
]


class TestOneComparisonEntry:
    """A record stores an exact float inside its domain after one comparison
    and sends every other value through `_checked`: both entries store the
    same bits, as an exact float, and raise the same message."""

    @pytest.mark.parametrize("build, field, label, domain", _FIELDS, ids=[f[1] for f in _FIELDS])
    def test_record_field_stores_what_checked_returns(self, build, field, label, domain):
        reduced = states._reduce_phase if field == "phi" else float
        for value in _inputs(domain):
            expected = _outcome(lambda: reduced(states._checked(value, label, domain)))
            assert _outcome(lambda: getattr(build(value), field)) == expected, (field, value)

    @pytest.mark.parametrize("build, field, label, domain", _FIELDS, ids=[f[1] for f in _FIELDS])
    def test_in_domain_exact_floats_make_no_check_call(self, monkeypatch, build, field, label, domain):
        def unexpected(*args):
            raise AssertionError(f"a check call for {args!r}")

        monkeypatch.setattr(states, "_checked", unexpected)
        monkeypatch.setattr(states, "_required", unexpected)
        lo, hi, _ = domain
        for value in [v for v in (lo, hi, 0.0, -0.0, 5e-324, 0.5, TWO_PI, 7.0, -7.0) if lo <= v <= hi]:
            stored = getattr(build(value), field)
            # a phase outside (0, 2 pi), a zero included, is stored reduced
            assert stored is value if field != "phi" else _bits(stored) == _bits(states._reduce_phase(value))

    def test_concat_stages_inputs(self):
        alpha_domain = (*states._FINITE[:2], "be a finite real >= 0")
        for value in _inputs(states._UNIT):
            expected = _outcome(lambda: analytic.concat_stages(states._checked(value, "fraction", states._UNIT), 1.0))
            assert _outcome(lambda: analytic.concat_stages(value, 1.0)) == expected, value
        for value in _inputs(states._NONNEGATIVE):
            expected = _outcome(lambda: analytic.concat_stages(0.5, states._checked(value, "alpha", alpha_domain)))
            assert _outcome(lambda: analytic.concat_stages(0.5, value)) == expected, value

    def test_amplify_state(self):
        class Sub(MixedCss):
            pass

        state = MixedCss(CssParams(1.0, 0.5), 0.5)
        for value in [state, Sub(state.params, 0.5), state.params, (state.params, 0.5), 0.5, "state", None]:
            expected = _outcome(lambda: analytic.amplify(states._required(value, "state", MixedCss)).p)
            assert _outcome(lambda: analytic.amplify(value).p) == expected, value
