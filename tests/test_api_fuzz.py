"""Exhaustive fuzz of the public API, one argument at a time.

Each entry of TABLE is a public callable, an ordinary call of it and, for
each of its parameters, the prefixes of the ValueErrors that name that
parameter. Every value of POOL replaces that one argument in turn. Whatever
the value, only a ValueError or a PhysicsError escapes, and no RuntimeWarning
(pyproject.toml makes one an error). A message that starts with a prefix
ending in ", got" is a validator's, and shows the value as given: the whole
value, or the first element that is out of its domain. Every DyadState that
a call returns has a finite trace.

Changing one argument at a time cannot reach a fault that needs two extreme
arguments at once, so a seeded composite fuzz draws every argument of the
closed forms from pools of extreme floats together, and hand-written cases
cover the junk sweep specs that only `run_sweep` used to reach.
"""

import inspect
import math
import random
import warnings

import numpy as np
import pytest

from catpurify import analytic, dyads, states, sweeps, verify
from catpurify.errors import PhysicsError
from catpurify.states import ChannelSetting, CssParams, MixedCss, TapSetting

POOL = [
    None, "a", "0.5", True,
    math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, -5e-324, 0.0, -1.0, 1.5, 1e155, 1e300,
    [], [0.5, None], 0.5 + 1j, np.float64(math.nan), np.array([0.5, 0.25]),
    ChannelSetting(0.5), 2**1100, -(2**1100),
    CssParams(1e300, math.pi), MixedCss(CssParams(1e160), 0.0), TapSetting(5e-324, 1e308, 5e-324),
]

CAT = CssParams(0.5, 1.0)
MIX = MixedCss(CAT, 0.5)
ONE_MODE = dyads.make_mixed(MIX)
TWO_MODES = dyads.attach_vacuum(ONE_MODE)

STATE, PARAMS, TAP = "state must be a MixedCss, got", "params must be a CssParams, got", "tap must be a TapSetting, got"
TRANSMITTANCE, REFLECTIVITY = "transmittance must lie in (0, 1], got", "reflectivity must lie in [0, 1], got"
OUTCOME, AMPLITUDE = "homodyne outcome must be finite, got", "amplitude must be a finite real >= 0, got"
DYAD, MODE, PHASE = "state must be a DyadState, got", "mode must be an index in [0, 2), got", "local-oscillator phase must be finite, got"
DYAD_OUTCOME = ("homodyne outcome must have magnitude at most sqrt(sys.float_info.max)/2, got",)
RECORDS = "params must be a CssParams or a sequence of them, got"
DRAWS = "{0} must be an integer >= 1, got", "{0} must be at most 100000, got"
GRID = "grid axis 'k' must be finite, got", "grid axis 'k' "
FIGURE = "unknown figure_id "
SWEEP_TABLE = sweeps.SweepTable(("x",), ((0.5,),), {})

TABLE = [
    (CssParams, (0.5, 1.0), {"alpha": "alpha must be a finite real >= 0, got", "phi": "phi must be finite, got"}),
    (MixedCss, (CAT, 0.5), {"params": PARAMS, "p": "fraction p must lie in [0, 1], got"}),
    (TapSetting, (0.5, 0.3, 0.9), {
        "T": "transmittance T must lie in (0, 1], got",
        "k": "homodyne outcome k must be finite, got",
        "eta_H": "detector efficiency eta_H must lie in (0, 1], got",
    }),
    (ChannelSetting, (0.5,), {"eta": "channel transmittance eta must lie in (0, 1], got"}),
    (analytic.apply_loss, (MIX, ChannelSetting(0.9)), {"state": STATE, "ch": "ch must be a ChannelSetting, got"}),
    (analytic.loss_fraction, (0.9, CAT), {"eta": TRANSMITTANCE, "params": PARAMS}),
    (analytic.homodyne_density_css, (0.3, CAT, 0.5), {"k": OUTCOME, "params": PARAMS, "T": TRANSMITTANCE}),
    (analytic.homodyne_density_mix, (0.3,), {"k": OUTCOME}),
    (analytic.theta_of_k, (0.3, 0.5, 0.5), {"k": OUTCOME, "alpha": AMPLITUDE, "R": REFLECTIVITY}),
    (analytic.detection_ratio, (CAT, 0.5, 0.2), {"params": PARAMS, "T": TRANSMITTANCE, "theta": "phase must be finite, got"}),
    (analytic.purify, (MIX, TapSetting(0.5, 0.3)), {"state": STATE, "tap": TAP}),
    (analytic.purify_with_inefficiency, (MIX, TapSetting(0.5, 0.3, 0.9)), {"state": STATE, "tap": TAP}),
    (analytic.success_region, (CAT, 0.5), {"params": PARAMS, "R": REFLECTIVITY}),
    (analytic.optimal_k, (CAT, 0.5), {"params": PARAMS, "R": REFLECTIVITY}),
    (analytic.window_acceptance, (MIX, 0.5, 0.0, 1.0), {
        "state": STATE,
        "T": TRANSMITTANCE,
        "center": "window center must be finite, got",
        "half_width": "window half-width must be >= 0, got",
    }),
    (analytic.amplify, (MIX,), {"state": STATE}),
    (analytic.amplification_threshold, (0.5,), {"alpha": AMPLITUDE}),
    (analytic.concat_stages, (0.5, 0.5), {
        "p_in": "fraction must lie in [0, 1], got",
        "alpha": ("alpha must be a finite real >= 0, got", "concatenation needs alpha > 0"),
    }),
    (analytic.purity_mixed_css, (MIX,), {"state": STATE}),
    (dyads.DyadState, ([1.0], [[0.5]], [[0.5]]), {
        "coeff": ("coeff must be an array of complex numbers", "one coefficient per dyad"),
        "ket": ("ket must be complex amplitudes", "ket and bra must share one shape"),
        "bra": ("bra must be complex amplitudes", "ket and bra must share one shape"),
    }),
    (dyads.make_coherent, (0.5,), {"amplitudes": "amplitudes must be complex amplitudes"}),
    (dyads.make_mixed, (MIX,), {
        "state": ("state must be a MixedCss or a sequence of them, got", "alpha must lie in [0, sqrt(sys.float_info.max)/2]"),
    }),
    (dyads.tensor, (ONE_MODE, ONE_MODE), {"left": "left must be a DyadState, got", "right": "right must be a DyadState, got"}),
    (dyads.attach_vacuum, (TWO_MODES,), {"state": DYAD}),
    (dyads.trace, (TWO_MODES,), {"state": DYAD}),
    (dyads.normalize, (TWO_MODES,), {"state": DYAD}),
    (dyads.loss_on_dyad, (TWO_MODES, 0, 0.9), {
        "state": DYAD, "mode": MODE, "eta": ("loss transmittance must lie in (0, 1], got", "loss transmittance takes one"),
    }),
    (dyads.bs_on_product, (TWO_MODES, (0, 1), 0.5), {
        "state": DYAD,
        "modes": ("modes must be a pair of mode indices, got", "modes must be an index in [0, 2), got"),
        "T": ("transmittance must lie in [0, 1], got", "transmittance takes one"),
    }),
    (dyads.homodyne_amplitude, (0.5, 0.3, 0.2), {"beta": "beta must be complex amplitudes", "x": DYAD_OUTCOME, "lam": PHASE}),
    (dyads.project_quadrature, (TWO_MODES, 1, 0.3, 0.2), {
        "state": DYAD, "mode": MODE, "x": (*DYAD_OUTCOME, "homodyne outcome takes one"), "lam": PHASE,
    }),
    (dyads.project_click, (TWO_MODES, 1), {"state": DYAD, "mode": MODE}),
    (dyads.extract_fraction, (ONE_MODE, CAT), {
        "state": DYAD, "params": (RECORDS, "fraction extraction needs one"),
    }),
    (dyads.purity, (ONE_MODE,), {"state": DYAD}),
    (dyads.hermiticity_defect, (ONE_MODE,), {"state": DYAD}),
    (dyads.amplifier_sim, (0.5, CAT), {
        "state_fraction": ("state fraction must lie in [0, 1], got", "one state fraction per CssParams"),
        "params": (RECORDS, "one state fraction per CssParams", "alpha must lie in (0, sqrt(sys.float_info.max)/4]"),
    }),
    (sweeps.GridAxis, ("k", -1.0, 1.0, 0.5), {"name": (), "start": GRID, "stop": GRID, "step": GRID}),
    (sweeps.SweepSpec, ("fig2_densities", {}, ()), {
        "figure_id": (),
        "fixed_params": "fixed_params must be a mapping, got",
        "grid": "grid must be a sequence of GridAxis, got",
    }),
    (sweeps.SweepTable, (("x",), ((0.5,),), {}), {
        "columns": ("columns must be a sequence of names, got", "row 0 has"),
        "rows": ("rows must be a sequence of rows, got", "row "),
        "metadata": "metadata must be a mapping, got",
    }),
    (sweeps.default_spec, ("fig2_densities",), {"figure_id": FIGURE}),
    (sweeps.run_sweep, (sweeps.default_spec("fig2_densities"),), {"spec": "spec must be a SweepSpec, got"}),
    (sweeps.emit_csv, (SWEEP_TABLE, "out.csv", True), {
        "table": "table must be a SweepTable, got",
        "path": "path must be a file path, got",
        "reproducible": "reproducible must be a bool, got",
    }),
    (sweeps.csv_name, ("fig2_densities",), {"figure_id": FIGURE}),
    (verify.CheckResult, ("loss fraction", 1, 0.0, 1e-10), {"name": (), "draws": (), "max_error": (), "tolerance": ()}),
    (verify.run_suite, (2, 1, 0), {
        "draws": tuple(m.format("draws") for m in DRAWS),
        "amp_draws": tuple(m.format("amp_draws") for m in DRAWS),
        "seed": "seed must be an integer >= 0, got",
    }),
]


def _rows():
    for call, args, prefixes in TABLE:
        names = list(inspect.signature(call).parameters)
        for name, prefix in prefixes.items():
            row_id = f"{call.__module__.rpartition('.')[2]}.{call.__name__}-{name}"
            yield pytest.param(call, args, names.index(name), (prefix,) if isinstance(prefix, str) else prefix, id=row_id)


def test_every_public_parameter_has_a_row():
    modules = (states, analytic, dyads, sweeps, verify)
    public = {getattr(m, name) for m in modules for name in m.__all__ if callable(getattr(m, name))}
    assert {call for call, _, _ in TABLE} == public
    for call, _, prefixes in TABLE:
        assert list(prefixes) == list(inspect.signature(call).parameters), call


def _shown(value) -> list:
    """The value as given, and each element of a list or numpy value, also as a Python scalar."""
    elements = list(np.ravel(value)) if isinstance(value, list | np.ndarray | np.generic) else []
    return [value, *elements, *(e.item() for e in elements if isinstance(e, np.generic))]


@pytest.mark.parametrize("call, args, index, prefixes", _rows())
def test_one_bad_argument_at_a_time(call, args, index, prefixes, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # emit_csv writes its files here
    for value in POOL:
        try:
            result = call(*args[:index], value, *args[index + 1 :])
        except PhysicsError:
            continue
        except ValueError as exc:
            message = str(exc)
            assert message.startswith(prefixes), (value, message)
            for prefix in (p for p in prefixes if p.endswith(", got") and message.startswith(p)):
                assert message in [f"{prefix} {shown!r}" for shown in _shown(value)], (value, message)
            continue
        except Exception as exc:  # a RuntimeWarning too, which pyproject.toml makes an error
            pytest.fail(f"{value!r} raised {exc!r}")
        for part in result if isinstance(result, tuple) else (result,):
            if isinstance(part, dyads.DyadState):
                assert np.isfinite(dyads.trace(part)).all(), value


@pytest.mark.parametrize(
    "fixed, grid, message",
    [
        ({"T": 0.5, "alpha": 1.0, "phi": 0.0}, ("a",), "grid must be a sequence of GridAxis, got ('a',)"),
        ({"T": 0.5, "alpha": 1.0, "phi": 0.0}, None, "grid must be a sequence of GridAxis, got None"),
        ({"T": 0.5, "alpha": 1.0, 1: 2.0}, (sweeps.GridAxis("k", -1.0, 1.0, 0.5),), "fixed_params key must be a str, got 1"),
    ],
    ids=["grid-of-strings", "grid-none", "fixed-int-key"],
)
def test_junk_sweep_spec_is_a_value_error(fixed, grid, message):
    # each of these once reached run_sweep and raised AttributeError or TypeError there
    with pytest.raises(ValueError) as info:
        sweeps.run_sweep(sweeps.SweepSpec("fig2_densities", fixed, grid))
    assert str(info.value) == message


# Extreme floats for the composite fuzz: subnormal and huge amplitudes, phases
# at and next to pi, reflectivities within 1e-16 of 0 and of 1, outcomes
# about the point sqrt(-ln(5e-324)) = 27.297 where e^{-k^2} underflows, and
# fractions at 0, at the least subnormal and at 1.
_ALPHAS = [5e-324, 1e-320, 1e-170, 1e-160, 1e-8, 1e-3, 0.5, 1.0, 30.0, 1e154, 1e155, 1e300]
_PHIS = [0.0, 1.0, 4.5, math.pi, math.pi - 1e-8, math.nextafter(math.pi, 0.0), 2.0 * math.pi - 1e-16]
_FRACTIONS = [0.0, 5e-324, 1e-300, 0.5, 1.0 - 1e-16, 1.0]
_TRANSMITTANCES = [5e-324, 1e-300, 1e-16, 1.1e-16, 0.5, 1.0 - 1e-16, 0.9999999999999999, 1.0]
_OUTCOMES = [0.0, 1e-300, -1.5, 27.2, 27.29, 27.2972, 27.3, -27.3, 1e200]
_EFFICIENCIES = [5e-324, 1e-16, 0.98, 1.0 - 1e-16, 1.0]


def _closed_form_calls(rng):
    """One call of each closed form, with arguments drawn from the pools
    above. Each returns the fractions it computed; a call whose result is
    not a fraction returns none, or NaN where that result breaks its own
    bound (a finite outcome, a non-negative ratio or density)."""
    params = CssParams(rng.choice(_ALPHAS), rng.choice(_PHIS))
    state = MixedCss(params, rng.choice(_FRACTIONS))
    T = rng.choice(_TRANSMITTANCES)
    R = 1.0 - rng.choice(_TRANSMITTANCES)
    k, eta_H = rng.choice(_OUTCOMES), rng.choice(_EFFICIENCIES)
    return [
        ("apply_loss", lambda: [analytic.apply_loss(state, ChannelSetting(T)).p]),
        ("purify", lambda: [analytic.purify(state, TapSetting(T, k, eta_H))[0].p]),
        ("amplify", lambda: [analytic.amplify(state).p]),
        ("concat_stages", lambda: list(analytic.concat_stages(state.p, params.alpha))),
        ("optimal_k", lambda: [] if math.isfinite(analytic.optimal_k(params, R)) else [math.nan]),
        ("success_region", lambda: [] if analytic.success_region(params, R) is not None else [math.nan]),
        ("detection_ratio", lambda: [] if analytic.detection_ratio(params, T, k) >= 0.0 else [math.nan]),
        ("homodyne_density_css", lambda: [] if analytic.homodyne_density_css(k, params, T) >= 0.0 else [math.nan]),
        ("purity_mixed_css", lambda: [analytic.purity_mixed_css(state)]),
    ]


def test_composite_fuzz_of_the_closed_forms():
    # every argument of a call extreme at once: only a ValueError or a
    # PhysicsError escapes, and every fraction (or purity) lies in [0, 1];
    # a record that rejects a closed form's own output fails the fuzz too
    rng = random.Random(32)
    for draw in range(10000):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the blind tap T = 1 warns
            for name, call in _closed_form_calls(rng):
                try:
                    fractions = call()
                except PhysicsError:
                    continue
                except ValueError as exc:
                    assert not str(exc).startswith("fraction p must"), (draw, name, exc)
                    continue
                except Exception as exc:  # a RuntimeWarning too, which pyproject.toml makes an error
                    pytest.fail(f"draw {draw}: {name} raised {exc!r}")
                assert all(0.0 <= f <= 1.0 for f in fractions), (draw, name, fractions)
