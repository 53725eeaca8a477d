"""Cross-validation harness tests."""

import math
import random

import numpy as np
import pytest

from catpurify import ChannelSetting, CssParams, MixedCss, TapSetting, analytic, verify
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
# when the suite came to draw from random.Random(seed); the first five
# equal those of a copy of the code in which every oracle check ran its own
# chain; the (5, 1) seeds but the last are those that
# random.Random(11).getrandbits(32) gives twelve times in a row
PINNED_MAX_ERRORS = [
    ((200, 50, 20260814), ('0x1.a848000000000p-41', '0x1.4000000000000p-51', '0x1.e4c0000000000p-44', '0x1.e520000000000p-42', '0x1.6800000000000p-44', '0x1.2800000000000p-50')),
    ((5, 1, 1942955373), ('0x1.b000000000000p-50', '0x1.4000000000000p-52', '0x1.1300000000000p-49', '0x1.0000000000000p-52', '0x1.0000000000000p-52', '0x0.0p+0')),
    ((5, 1, 3718334796), ('0x1.2e00000000000p-46', '0x1.0000000000000p-54', '0x1.a800000000000p-48', '0x1.c000000000000p-51', '0x1.0000000000000p-52', '0x1.0000000000000p-52')),
    ((5, 1, 2404204071), ('0x1.0000000000000p-50', '0x1.0000000000000p-52', '0x1.2000000000000p-50', '0x1.4000000000000p-51', '0x1.4000000000000p-51', '0x1.c000000000000p-54')),
    ((5, 1, 3680198571), ('0x1.a000000000000p-52', '0x1.0000000000000p-54', '0x1.8000000000000p-52', '0x1.c000000000000p-53', '0x1.8000000000000p-52', '0x1.8000000000000p-52')),
    ((5, 1, 3969454221), ('0x1.1880000000000p-46', '0x1.0000000000000p-52', '0x1.5800000000000p-49', '0x1.cf80000000000p-45', '0x1.0000000000000p-53', '0x1.7000000000000p-52')),
    ((5, 1, 3355305989), ('0x1.c000000000000p-51', '0x1.0000000000000p-53', '0x1.3000000000000p-48', '0x1.8200000000000p-48', '0x1.0000000000000p-52', '0x0.0p+0')),
    ((5, 1, 1999951809), ('0x1.6000000000000p-52', '0x1.0000000000000p-52', '0x1.e000000000000p-50', '0x1.0000000000000p-51', '0x1.0000000000000p-52', '0x1.0000000000000p-53')),
    ((5, 1, 1940605046), ('0x1.0000000000000p-51', '0x1.0000000000000p-55', '0x1.9950000000000p-43', '0x1.a000000000000p-50', '0x1.4000000000000p-51', '0x1.e800000000000p-55')),
    ((5, 1, 2181161661), ('0x1.1000000000000p-49', '0x1.8000000000000p-53', '0x1.a800000000000p-48', '0x1.c400000000000p-48', '0x1.0000000000000p-53', '0x1.c000000000000p-51')),
    ((5, 1, 3672393040), ('0x1.9000000000000p-49', '0x1.0000000000000p-54', '0x1.bc00000000000p-46', '0x1.4000000000000p-51', '0x1.0000000000000p-52', '0x1.0000000000000p-51')),
    ((5, 1, 2522798642), ('0x1.5000000000000p-47', '0x1.0000000000000p-54', '0x1.2400000000000p-48', '0x1.0000000000000p-52', '0x1.c400000000000p-42', '0x1.8000000000000p-53')),
    ((5, 1, 815623033), ('0x1.0800000000000p-48', '0x1.0000000000000p-52', '0x1.4000000000000p-51', '0x1.4000000000000p-51', '0x1.0000000000000p-52', '0x1.c740000000000p-52')),
    ((37, 3, 1), ('0x1.ed00000000000p-44', '0x1.0000000000000p-52', '0x1.0000000000000p-46', '0x1.68c0000000000p-43', '0x1.0e00000000000p-46', '0x1.0000000000000p-53')),
    # the purity check's closest call: its batch sums this draw 6e-11 away from the draw alone
    ((5, 1, 4365), ('0x1.3000000000000p-50', '0x1.0000000000000p-52', '0x1.a800000000000p-46', '0x1.8000000000000p-52', '0x1.6683000000000p-34', '0x0.0p+0')),
]


@pytest.mark.parametrize("args,expected", PINNED_MAX_ERRORS)
def test_max_errors_are_bit_identical_to_the_per_check_chains(args, expected):
    assert tuple(r.max_error.hex() for r in verify.run_suite(*args)) == expected


def test_max_error_is_the_largest_single_draw_error():
    # the amplifier error of each draw, recomputed one draw at a time
    seed, amp_draws = 99, 12
    res = verify.run_suite(1, amp_draws, seed)[5]
    rows = sequential_draws(seed, 1, amp_draws)["amplifier coincidence fraction"]
    errors = [
        abs(
            analytic.amplify(mixture(d)).p
            - dy.amplifier_sim(d["p"], mixture(d).params)
        )
        for d in rows
    ]
    assert res.max_error == pytest.approx(max(errors), abs=1e-15)


def test_batched_oracle_matches_single_draw_calls(monkeypatch):
    seed, draws, amp_draws = verify.DEFAULT_SEED, 200, 50
    log = record_calls(
        monkeypatch, dy, ("extract_fraction", "project_quadrature", "purity", "amplifier_sim")
    )
    verify.run_suite(draws, amp_draws, seed)
    monkeypatch.undo()
    # the four tapped and lossy checks share one batch, `draws` members per
    # part: densities of the superposition, the dephased pair, the purified
    # and the inefficient-detector draws, fractions of the last two and of
    # the loss draws; the amplifier extracts last, inside its simulation
    densities = np.split(log["project_quadrature"][0][1], 4)
    purified, inefficient, lossy = np.split(log["extract_fraction"][0], 3)
    expected = sequential_draws(seed, draws, amp_draws)

    def close(batched, singles):
        assert len(batched) == len(singles)
        assert np.abs(np.asarray(batched) - singles).max() <= 1e-11

    rows = expected["loss fraction"]
    close(lossy, [
        dy.extract_fraction(
            dy.loss_on_dyad(dy.make_mixed(mixture(d)), 0, d["eta"]),
            analytic.apply_loss(mixture(d), ChannelSetting(d["eta"])).params,
        )
        for d in rows
    ])
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
    close(purified, [
        dy.extract_fraction(cond, analytic.purify(mixture(d), TapSetting(d["T"], d["k"]))[0].params)
        for (cond, _), d in zip(singles, rows)
    ])
    rows = expected["inefficient-detector fraction"]
    singles = [
        dy.project_quadrature(dy.loss_on_dyad(tapped(mixture(d), d["T"]), 1, d["eta_H"]), 1, d["k"], HALF_PI)
        for d in rows
    ]
    close(densities[3], [dens for _, dens in singles])
    close(inefficient, [
        dy.extract_fraction(
            cond,
            analytic.purify_with_inefficiency(mixture(d), TapSetting(d["T"], d["k"], d["eta_H"])).params,
        )
        for (cond, _), d in zip(singles, rows)
    ])
    close(log["purity"][0], [dy.purity(dy.make_mixed(mixture(d))) for d in expected["purity"]])
    close(log["amplifier_sim"][0], [
        dy.amplifier_sim(d["p"], mixture(d).params) for d in expected["amplifier coincidence fraction"]
    ])


def test_each_check_is_one_array_pass(monkeypatch):
    # one projection and one extraction serve the loss, density and both
    # detector checks; amplifier_sim makes its own extraction
    log = record_calls(monkeypatch, dy, ("project_quadrature", "extract_fraction"))
    inside = []
    original = dy.amplifier_sim

    def amplifier_sim(*args):
        before = {name: len(calls) for name, calls in log.items()}
        out = original(*args)
        inside.append({name: len(calls) - before[name] for name, calls in log.items()})
        return out

    monkeypatch.setattr(dy, "amplifier_sim", amplifier_sim)
    verify.run_suite(200, 50)
    assert inside == [{"project_quadrature": 0, "extract_fraction": 1}]
    assert {name: len(calls) for name, calls in log.items()} == {"project_quadrature": 1, "extract_fraction": 2}


def test_one_mixture_batch_serves_five_checks(monkeypatch):
    # the purity draws join the line's make_mixed batch, six members per draw;
    # amplifier_sim builds its copies without make_mixed
    log = record_calls(monkeypatch, dy, ("make_mixed", "purity"))
    verify.run_suite(20, 5, 3)
    assert [state.coeff.shape[0] for state in log["make_mixed"]] == [6 * 20]
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
