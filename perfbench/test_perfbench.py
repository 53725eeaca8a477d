"""Tests of the benchmark itself: the references reproduce the published
values, and a wrong program output is counted as a failed operation.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import catpurify  # noqa: E402
import refs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import ERROR, OK, WRONG  # noqa: E402

PI = math.pi


def test_references_reproduce_published_values():
    assert abs(refs.loss_fraction(0.5, 1.0, PI) - 0.269) < 5e-4
    assert abs(refs.ideal_fraction(0.5, 1.0, PI, 0.5, PI / 2) - 0.6127) < 5e-5
    assert abs(refs.detector_fraction(0.5, 1.0, PI, 0.5, PI / 2, 0.98) - 0.602501) < 5e-7
    assert abs(refs.amplify(0.5, 0.5, PI) - 0.592) < 5e-4


def test_detector_model_reduces_to_the_ideal_fraction():
    rng = random.Random(3)
    for _ in range(20):
        args = (rng.uniform(0.05, 0.95), rng.uniform(0.3, 2.0), rng.uniform(0, 2 * PI), rng.uniform(0.2, 0.9), rng.uniform(-2, 2))
        assert refs.close(refs.detector_fraction(*args, 1.0), refs.ideal_fraction(*args), 1e-14, 0.0)


def test_threshold_is_a_fixed_point_of_the_amplifier():
    for alpha in (0.3, 0.5, 0.6):
        p = refs.amplification_threshold(alpha)
        assert refs.close(refs.amplify(p, alpha, PI), p, 1e-13)


def test_window_reference_of_the_dephased_part_is_erf():
    # p = 0 leaves the unit Gaussian, whose window mass is erf(w)
    for width in (0.3, 1.0, 2.5):
        assert refs.close(refs.window_acceptance(0.0, 1.0, PI, 0.5, 0.0, width), math.erf(width), 1e-13)


def test_per_layer_names_match_the_package_and_benchmark_json():
    assert spans.FIGURE_IDS == catpurify.sweeps.FIGURE_IDS
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == spans.metric_names()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def _outcomes(workload, seed, tmp, rounds=2):
    wl = workloads.IN_PROCESS[workload](seed, tmp)
    for _ in range(rounds):
        wl.run_round()
        wl.after_round()
    return wl.check()


@pytest.mark.parametrize("workload", ["figures", "scalar_api"])
def test_in_process_workloads_pass_on_the_current_code(workload, tmp_path):
    outcomes = _outcomes(workload, 5, tmp_path)
    assert outcomes and set(outcomes) == {OK}


def _perturb(monkeypatch, module, name, fn):
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: fn(original(*a, **k)))


def test_perturbed_closed_form_is_a_failed_operation(tmp_path, monkeypatch):
    from catpurify import MixedCss

    _perturb(monkeypatch, catpurify.analytic, "amplify", lambda out: MixedCss(out.params, out.p * (1 + 1e-7)))
    outcomes = _outcomes("scalar_api", 5, tmp_path)
    amplify_calls = sum(1 for kind, _ in workloads.scalar_specs(5) if kind == "amplify")
    # concat_stages calls amplify too, so its outputs go wrong as well
    concat_calls = sum(1 for kind, _ in workloads.scalar_specs(5) if kind == "concat_stages")
    assert outcomes.count(WRONG) == 2 * (amplify_calls + concat_calls)
    assert ERROR not in outcomes


def test_raising_call_is_counted_as_an_error(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise OverflowError("math range error")

    monkeypatch.setattr(catpurify.analytic, "amplification_threshold", boom)
    outcomes = _outcomes("scalar_api", 5, tmp_path)
    calls = sum(1 for kind, _ in workloads.scalar_specs(5) if kind == "amplification_threshold")
    assert outcomes.count(ERROR) == 2 * calls
    assert WRONG not in outcomes


def test_perturbed_sweep_fails_its_figure(tmp_path, monkeypatch):
    _perturb(monkeypatch, catpurify.analytic, "concat_stages", lambda out: (out[0], out[1] + 1e-9))
    wl = workloads.Figures(5, tmp_path)
    wl.run_round()
    wl.after_round()
    outcomes = wl.check()
    concat = [spec.figure_id == "concat_scan" for spec, _ in wl.parts]
    assert sum(concat) == 14
    assert outcomes == [WRONG if c else OK for c in concat]


def test_changed_bytes_between_emissions_fail(tmp_path):
    wl = workloads.Figures(5, tmp_path)
    wl.run_round()
    wl.after_round()
    wl.run_round()
    path = tmp_path / "fig7_gain_vs_alpha.csv"
    path.write_text(path.read_text() + "\n")
    wl.after_round()
    outcomes = wl.check()
    paths = [path for _, path in wl.parts]
    assert outcomes.count(WRONG) == 1 and outcomes[len(paths) + paths.index(path)] == WRONG


def test_perturbed_oracle_fails_its_draw(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads.VerifyOracle, "SUITES", 1)
    monkeypatch.setattr(workloads.VerifyOracle, "AMP_DRAWS", 2)
    _perturb(monkeypatch, catpurify.dyads, "amplifier_sim", lambda p: p + 1e-6)
    outcomes = _outcomes("verify_oracle", 5, tmp_path, rounds=1)
    # six suite checks (the amplifier check among them), then the direct calls
    assert outcomes[5] == WRONG and outcomes[6:] == [WRONG] * workloads.VerifyOracle.SIMS
    assert outcomes[:5] == [OK] * 5


def test_cli_checks_reject_a_wrong_output():
    call = workloads.amplify_call(0.5, "pi", 0.5)
    good = json.dumps({"p_out": refs.amplify(0.5, 0.5, PI), "out_alpha": math.sqrt(2) * 0.5, "out_phi": 0.0})
    bad = json.dumps({"p_out": refs.amplify(0.5, 0.5, PI) * (1 + 1e-8), "out_alpha": math.sqrt(2) * 0.5, "out_phi": 0.0})
    assert call.check(good) and not call.check(bad)


def test_run_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figures", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
