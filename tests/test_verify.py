"""Cross-validation harness tests."""

import cmath
import math
import random

import numpy as np
import pytest

from catpurify import CssParams, MixedCss, analytic, cli, verify
from catpurify import dyads as dy

HALF_PI = math.pi / 2.0
TWO_PI = 2.0 * math.pi
NAMES = [
    "loss fraction",
    "homodyne densities",
    "purified fraction",
    "inefficient-detector fraction",
    "purity",
    "amplifier coincidence fraction",
]


def sequential_draws(seed, draws, amp_draws):
    """The parameters of every check from one random.Random(seed).uniform
    call per draw and parameter, in the order the per-draw checks made them."""
    u = random.Random(seed).uniform
    tables = [
        [dict(alpha=u(0.02, 2.0), phi=u(0.0, TWO_PI), p=u(0.0, 1.0), eta=u(0.02, 1.0)) for _ in range(draws)],
        [dict(alpha=u(0.02, 2.0), phi=u(0.0, TWO_PI), T=u(0.02, 0.98), k=u(-3.0, 3.0)) for _ in range(draws)],
        [
            dict(alpha=u(0.02, 2.0), phi=u(0.0, TWO_PI), p=u(0.0, 1.0), T=u(0.02, 0.98), k=u(-3.0, 3.0))
            for _ in range(draws)
        ],
        [
            dict(
                alpha=u(0.02, 2.0), phi=u(0.0, TWO_PI), p=u(0.0, 1.0),
                T=u(0.02, 0.98), k=u(-3.0, 3.0), eta_H=u(0.02, 1.0),
            )
            for _ in range(draws)
        ],
        [dict(alpha=u(0.02, 2.0), phi=u(0.0, TWO_PI), p=u(0.0, 1.0)) for _ in range(draws)],
        [dict(alpha=u(0.05, 1.5), phi=u(0.0, TWO_PI), p=u(0.0, 1.0)) for _ in range(amp_draws)],
    ]
    return dict(zip(NAMES, tables))


def mixture(d):
    return MixedCss(CssParams(d["alpha"], d["phi"]), d["p"])


def tapped(state, T):
    return dy.bs_on_product(dy.attach_vacuum(dy.make_mixed(state)), (0, 1), T)


def record_calls(monkeypatch, module, names):
    """Wrap module functions so that each call's result is logged by name."""
    log = {name: [] for name in names}
    for name in names:
        original = getattr(module, name)

        def wrapper(*args, _original=original, _name=name, **kwargs):
            out = _original(*args, **kwargs)
            log[_name].append(out)
            return out

        monkeypatch.setattr(module, name, wrapper)
    return log


def test_full_suite_is_green():
    results = verify.run_suite(draws=200, amp_draws=50)
    assert len(results) == 6
    for res in results:
        assert res.passed, res.describe()
        assert res.max_error <= res.tolerance


def test_check_names_and_tolerances():
    results = verify.run_suite(draws=5, amp_draws=3)
    by_name = {res.name: res for res in results}
    assert set(by_name) == {
        "loss fraction",
        "homodyne densities",
        "purified fraction",
        "inefficient-detector fraction",
        "purity",
        "amplifier coincidence fraction",
    }
    for name, res in by_name.items():
        expected_tol = 1e-9 if name == "amplifier coincidence fraction" else 1e-10
        assert res.tolerance == expected_tol
    assert by_name["loss fraction"].draws == 5
    assert by_name["amplifier coincidence fraction"].draws == 3


def test_describe_format():
    res = verify.CheckResult("loss fraction", 5, 1e-12, 1e-10)
    line = res.describe()
    assert line.startswith("ok  ")
    assert "loss fraction" in line and "5 draws" in line
    bad = verify.CheckResult("loss fraction", 5, 1e-3, 1e-10)
    assert bad.describe().startswith("FAIL")


def test_seed_determinism():
    a = verify.run_suite(draws=10, amp_draws=4, seed=7)
    b = verify.run_suite(draws=10, amp_draws=4, seed=7)
    assert [(r.name, r.max_error) for r in a] == [(r.name, r.max_error) for r in b]
    c = verify.run_suite(draws=10, amp_draws=4, seed=8)
    assert [r.max_error for r in a] != [r.max_error for r in c]


def test_draws_ignore_the_global_generator():
    # the suite owns its generator: the module-level one neither feeds it
    # nor is moved by it
    a = verify.run_suite(10, 4, 7)
    random.seed(0)
    after_seed = random.random()
    b = verify.run_suite(10, 4, 7)
    assert a == b
    random.seed(0)
    verify.run_suite(10, 4, 7)
    assert random.random() == after_seed


def test_rejects_empty_suite():
    with pytest.raises(ValueError):
        verify.run_suite(draws=0)
    with pytest.raises(ValueError):
        verify.run_suite(draws=10, amp_draws=0)


@pytest.mark.parametrize(
    "args,name",
    [
        ((2.5, 1), "draws"),
        (("5", 1), "draws"),
        ((True, 1), "draws"),
        ((-1, 1), "draws"),
        ((5, 1.0), "amp_draws"),
        ((5, False), "amp_draws"),
        ((5, 1, 1.5), "seed"),
        ((5, 1, -3), "seed"),
        ((5, 1, True), "seed"),
        ((5, 1, "7"), "seed"),
    ],
)
def test_rejects_bad_arguments_by_name(args, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        verify.run_suite(*args)


def test_accepts_numpy_integers():
    a = verify.run_suite(np.int64(3), np.int32(2), np.uint64(11))
    assert a == verify.run_suite(3, 2, 11)


def test_draws_equal_sequential_per_draw_calls(monkeypatch):
    seed, draws, amp_draws = 12345, 40, 9
    captured = []
    original = verify._draw

    def capture(*args, **kwargs):
        out = original(*args, **kwargs)
        captured.append(out)
        return out

    monkeypatch.setattr(verify, "_draw", capture)
    verify.run_suite(draws, amp_draws, seed)
    expected = sequential_draws(seed, draws, amp_draws)
    assert len(captured) == 6
    for table, rows in zip(captured, expected.values()):
        assert list(table) == list(rows[0])
        assert [dict(zip(table, values)) for values in zip(*table.values())] == rows


# (draws, amp_draws, seed) -> each check's max_error as float.hex, recorded
# when each record check came to compare the whole output record read off the
# oracle's state (the density and purity columns did not move then); the (5, 1)
# seeds but the last are those that random.Random(11).getrandbits(32) gives
# twelve times in a row
PINNED_MAX_ERRORS = [
    ((200, 50, 20260814), ('0x1.0000000000000p-51', '0x1.4000000000000p-51', '0x1.40ca4015ebbedp-48', '0x1.0000000000000p-48', '0x1.e480000000000p-43', '0x1.58a68a4a8d9f3p-51')),
    ((5, 1, 1942955373), ('0x1.2de32c6628741p-53', '0x1.4000000000000p-52', '0x1.04760c95db310p-50', '0x1.1451937b0e741p-51', '0x1.0000000000000p-53', '0x1.854bfb363dc38p-54')),
    ((5, 1, 3718334796), ('0x1.0000000000000p-52', '0x1.0000000000000p-54', '0x1.0000000000000p-49', '0x1.0000000000000p-51', '0x1.0000000000000p-51', '0x1.0000000000000p-52')),
    ((5, 1, 2404204071), ('0x1.0000000000000p-52', '0x1.0000000000000p-52', '0x1.50e4a602ff9ecp-51', '0x1.804c74cf9ac9ep-51', '0x1.8000000000000p-52', '0x1.49d93405be849p-53')),
    ((5, 1, 3680198571), ('0x1.4027fd804ff38p-52', '0x1.0000000000000p-54', '0x1.32c02ebc2dadcp-51', '0x1.c06181583d1e5p-51', '0x1.8000000000000p-52', '0x1.58a68a4a8d9f3p-52')),
    ((5, 1, 3969454221), ('0x1.0000000000000p-53', '0x1.0000000000000p-52', '0x1.1e3779b97f4a8p-51', '0x1.0000000000000p-43', '0x1.0000000000000p-53', '0x1.c98f098b93ce1p-53')),
    ((5, 1, 3355305989), ('0x1.0000000000000p-52', '0x1.0000000000000p-53', '0x1.0079e1ab4f62fp-51', '0x1.419894c2329f0p-52', '0x1.0000000000000p-52', '0x1.0000000000000p-52')),
    ((5, 1, 1999951809), ('0x1.0000000000000p-53', '0x1.0000000000000p-52', '0x1.854bfb363dc38p-51', '0x1.001367b7297bap-51', '0x1.8000000000000p-52', '0x1.d000000000000p-53')),
    ((5, 1, 1940605046), ('0x1.1e3779b97f4a8p-52', '0x1.0000000000000p-55', '0x1.0007f419f93b0p-52', '0x1.7da8d73aba1c4p-50', '0x1.8000000000000p-51', '0x1.39ca2c4db8b65p-54')),
    ((5, 1, 2181161661), ('0x1.0000000000000p-52', '0x1.8000000000000p-53', '0x1.8bd171a07e38ap-52', '0x1.00260f0e13e76p-50', '0x1.0000000000000p-53', '0x1.1e3779b97f4a8p-54')),
    ((5, 1, 3672393040), ('0x1.0000000000000p-52', '0x1.0000000000000p-54', '0x1.c00cd03fa1a71p-51', '0x1.6ad552d31e5eap-50', '0x1.8000000000000p-52', '0x1.8bd171a07e38ap-52')),
    ((5, 1, 2522798642), ('0x1.0000000000000p-51', '0x1.0000000000000p-54', '0x1.c000c4bce77a3p-51', '0x1.2ae79842f2858p-50', '0x1.45c0000000000p-42', '0x1.485121ac5c4adp-55')),
    ((5, 1, 815623033), ('0x1.0000000000000p-52', '0x1.0000000000000p-52', '0x1.0f876ccdf6cdap-51', '0x1.07e0f66afed07p-52', '0x1.0000000000000p-52', '0x1.ab7b2267b1fb0p-56')),
    ((37, 3, 1), ('0x1.d1ed52076fbeap-51', '0x1.0000000000000p-52', '0x1.4000279cff817p-50', '0x1.678e26e30fc22p-50', '0x1.1a00000000000p-45', '0x1.002e1bd8fd7ecp-53')),
    # the purity check's closest call (8.15e-11) while its batch summed this draw 6e-11 away from the draw alone
    ((5, 1, 4365), ('0x1.007fe00ff6070p-53', '0x1.0000000000000p-52', '0x1.20084be03fc2fp-51', '0x1.00008ccfb760ap-50', '0x1.a390000000000p-41', '0x1.4000000000000p-52')),
    # the purity check's closest call over seeds 0-19,999 (6.45e-11), where dyads.purity cancels near alpha = 0, phi = pi
    ((5, 1, 1729), ('0x1.0000000000000p-52', '0x1.0000000000000p-53', '0x1.4000000000000p-51', '0x1.3b29d7d635662p-52', '0x1.1bbc600000000p-34', '0x1.0000000000000p-52')),
]


@pytest.mark.parametrize("args,expected", PINNED_MAX_ERRORS)
def test_max_errors_are_bit_identical_to_the_per_check_chains(args, expected):
    assert tuple(r.max_error.hex() for r in verify.run_suite(*args)) == expected


def record_error(closed, beta, z):
    """The error of one draw's closed-form output record against the oracle's amplitude and p e^{i phi}."""
    return max(abs(closed.params.alpha - beta), abs(closed.p * cmath.exp(1j * closed.params.phi) - z))


def test_max_error_is_the_largest_single_draw_error():
    # the amplifier error of each draw, recomputed one draw at a time
    seed, amp_draws = 99, 12
    res = verify.run_suite(1, amp_draws, seed)[5]
    rows = sequential_draws(seed, 1, amp_draws)["amplifier coincidence fraction"]
    errors = [
        record_error(
            analytic.amplify(mixture(d)),
            math.sqrt(2.0) * d["alpha"],
            dy.amplifier_sim(d["p"], mixture(d).params) * cmath.exp(2j * d["phi"]),
        )
        for d in rows
    ]
    assert res.max_error == pytest.approx(max(errors), abs=1e-15)


def test_batched_oracle_matches_single_draw_calls(monkeypatch):
    seed, draws, amp_draws = verify.DEFAULT_SEED, 200, 50
    log = record_calls(monkeypatch, dy, ("_record", "project_quadrature", "purity", "amplifier_sim"))
    verify.run_suite(draws, amp_draws, seed)
    monkeypatch.undo()
    # every check equals its single calls exactly; the shared pass holds
    # `draws` members per part: densities of the superposition, the dephased
    # pair, the purified and the inefficient-detector draws, records of the
    # last two and of the loss draws, then purity; the amplifier reads its
    # record last, inside its simulation
    densities = np.split(log["project_quadrature"][0][1], 4)
    purified, inefficient, lossy = zip(*(np.split(part, 3) for part in log["_record"][0]))
    expected = sequential_draws(seed, draws, amp_draws)

    def close(batched, singles):
        assert np.asarray(batched).tolist() == singles

    def same_records(batched, states):
        assert [tuple(v.tolist() for v in member) for member in zip(*batched)] == [
            tuple(v.item() for v in dy._record(state)) for state in states
        ]

    same_records(lossy, [dy.loss_on_dyad(dy.make_mixed(mixture(d)), 0, d["eta"]) for d in expected["loss fraction"]])
    rows = expected["homodyne densities"]
    for p, batched in ((1.0, densities[0]), (0.0, densities[1])):
        close(batched, [
            dy.project_quadrature(
                tapped(MixedCss(CssParams(d["alpha"], d["phi"]), p), d["T"]), 1, d["k"], HALF_PI
            )[1]
            for d in rows
        ])
    rows = expected["purified fraction"]
    singles = [
        dy.project_quadrature(tapped(mixture(d), d["T"]), 1, d["k"], HALF_PI) for d in rows
    ]
    close(densities[2], [dens for _, dens in singles])
    same_records(purified, [cond for cond, _ in singles])
    rows = expected["inefficient-detector fraction"]
    singles = [
        dy.project_quadrature(dy.loss_on_dyad(tapped(mixture(d), d["T"]), 1, d["eta_H"]), 1, d["k"], HALF_PI)
        for d in rows
    ]
    close(densities[3], [dens for _, dens in singles])
    same_records(inefficient, [cond for cond, _ in singles])
    close(log["purity"][0], [dy.purity(dy.make_mixed(mixture(d))) for d in expected["purity"]])
    close(log["amplifier_sim"][0], [
        dy.amplifier_sim(d["p"], mixture(d).params) for d in expected["amplifier coincidence fraction"]
    ])


def test_each_check_is_one_array_pass(monkeypatch):
    # one projection and one record reading serve the loss, density and both
    # detector checks; amplifier_sim reads its own, and only it reads a
    # fraction against a record (extract_fraction's `_fraction`), one of its own physics
    log = record_calls(monkeypatch, dy, ("project_quadrature", "_record", "_fraction"))
    inside = []
    original = dy.amplifier_sim

    def amplifier_sim(*args):
        before = {name: len(calls) for name, calls in log.items()}
        out = original(*args)
        inside.append({name: len(calls) - before[name] for name, calls in log.items()})
        return out

    monkeypatch.setattr(dy, "amplifier_sim", amplifier_sim)
    verify.run_suite(200, 50)
    assert inside == [{"project_quadrature": 0, "_record": 1, "_fraction": 1}]
    assert {name: len(calls) for name, calls in log.items()} == {
        "project_quadrature": 1, "_record": 2, "_fraction": 1
    }


def test_one_mixture_batch_serves_five_checks(monkeypatch):
    # one build of six members per draw from the drawn columns, then one of
    # the amplifier's copies; purity reads its members before the line, which
    # takes only the loss draws, and the detector the four tapped parts
    log = record_calls(monkeypatch, dy, ("_mixture", "make_mixed", "loss_on_dyad", "purity"))
    verify.run_suite(20, 5, 3)
    assert [state.coeff.shape[0] for state in log["_mixture"]] == [6 * 20, 5]
    assert log["make_mixed"] == []
    assert [state.coeff.shape[0] for state in log["loss_on_dyad"]] == [20, 4 * 20]
    assert [len(values) for values in log["purity"]] == [20]


def test_nan_oracle_value_fails_its_check(monkeypatch):
    original = dy.purity

    def poisoned(state):
        values = np.array(original(state), dtype=float)
        values[2] = math.nan  # a NaN is the worst error, not one to skip
        return values

    monkeypatch.setattr(dy, "purity", poisoned)
    results = verify.run_suite(8, 1, 31)
    assert [res.passed for res in results] == [True] * 4 + [False, True]
    assert math.isnan(results[4].max_error)
    assert results[4].describe().startswith("FAIL purity: max |analytic - oracle| = nan")


def test_perturbed_inefficient_density_fails_its_check(monkeypatch):
    # only the densities behind an inefficient detector are off, by 1e-6 relative
    original = analytic.purify

    def perturbed(state, tap):
        out, density_css, density_mix = original(state, tap)
        if tap.eta_H < 1.0:
            return out, density_css * (1.0 + 1e-6), density_mix * (1.0 + 1e-6)
        return out, density_css, density_mix

    monkeypatch.setattr(analytic, "purify", perturbed)
    results = verify.run_suite()
    assert [res.name for res in results if not res.passed] == ["inefficient-detector fraction"]


def off_phase(original):
    """`original` with the phase of its output record 1e-3 off."""

    def wrapped(*args):
        out = original(*args)
        state, rest = (out, ()) if isinstance(out, MixedCss) else (out[0], out[1:])
        moved = MixedCss(CssParams(state.params.alpha, state.params.phi + 1e-3), state.p)
        return (moved, *rest) if rest else moved

    return wrapped


def off_amplitude(original):
    """`original` with the amplitude of its output record 1e-6 off."""

    def wrapped(*args):
        out = original(*args)
        return MixedCss(CssParams(out.params.alpha + 1e-6, out.params.phi), out.p)

    return wrapped


@pytest.mark.parametrize(
    "name, wrong, failing",
    [
        ("purify", off_phase, ["purified fraction", "inefficient-detector fraction"]),
        ("apply_loss", off_amplitude, ["loss fraction"]),
        ("amplify", off_phase, ["amplifier coincidence fraction"]),
    ],
)
def test_wrong_output_record_fails_only_its_own_check(monkeypatch, capsys, name, wrong, failing):
    # the oracle reads every record off its own state, so a wrong closed-form
    # record is a failed check, not an error that stops the suite
    monkeypatch.setattr(analytic, name, wrong(getattr(analytic, name)))
    results = verify.run_suite()
    assert [res.name for res in results if not res.passed] == failing
    assert cli.main(["verify"]) == 1
    assert [line.split(":")[0] for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")] == [
        f"FAIL {name}" for name in failing
    ]
