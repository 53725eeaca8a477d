"""Import hygiene, checked in fresh interpreters.

The closed forms and the command line need only the standard library;
numpy loads with the dyad oracle (``catpurify.dyads``, ``catpurify.verify``,
``catpurify.run_suite``) on first use, ``numpy.random`` not even then, and
scipy never loads.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import catpurify
from catpurify import analytic, dyads, errors
from catpurify.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(*args: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


HEAVY = "sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'})"


@pytest.mark.parametrize("module", ["catpurify", "catpurify.cli"])
def test_import_loads_neither_numpy_nor_scipy(module):
    assert run_python("-c", f"import sys, {module}; print({HEAVY})") == "[]\n"


def test_oracle_names_resolve_on_first_use():
    out = run_python(
        "-c",
        "import sys, catpurify\n"
        f"print({HEAVY})\n"
        "from catpurify import dyads, run_suite, verify\n"
        "assert dyads is catpurify.dyads and verify is catpurify.verify\n"
        "assert run_suite is catpurify.run_suite is verify.run_suite\n"
        "names = {}\n"
        "exec('from catpurify import *', names)\n"
        "assert set(catpurify.__all__) <= set(names)\n"
        "assert not hasattr(catpurify, 'no_such_name')\n"
        f"print({HEAVY})\n",
    )
    assert out == "[]\n['numpy']\n"


RANDOM = "[m for m in sys.modules if m.split('.')[:2] == ['numpy', 'random']]"


def test_verify_loads_no_numpy_random():
    out = run_python(
        "-c",
        "import contextlib, io, sys\n"
        "from catpurify import cli, run_suite\n"
        "run_suite(1, 1)\n"
        f"print({RANDOM})\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['verify', '--draws', '1', '--amp-draws', '1'])\n"
        f"print(code, {RANDOM}, 'numpy' in sys.modules)\n",
    )
    assert out == "[]\n0 [] True\n"


def test_cold_cli_prints_what_main_prints(capsys):
    argv = ["amplify", "--alpha", "0.5", "--phi", "pi", "--p-in", "0.5"]
    assert main(argv) == 0
    assert run_python("-m", "catpurify.cli", *argv) == capsys.readouterr().out


# the package's exports in order; the exception types and the closed forms
# come from the __all__ of their own modules
PUBLIC = [
    "__version__", "analytic", "dyads", "sweeps", "verify",
    "CssParams", "MixedCss", "TapSetting", "ChannelSetting",
    "PhysicsError", "DegenerateStateError", "ZeroDensityError", "StateFamilyError", "ConfigError",
    "apply_loss", "loss_fraction",
    "homodyne_density_css", "homodyne_density_mix", "theta_of_k", "detection_ratio",
    "purify", "purify_with_inefficiency", "success_region", "optimal_k", "window_acceptance",
    "amplify", "amplification_threshold", "concat_stages", "purity_mixed_css",
    "run_suite",
]


def test_package_exports_are_pinned():
    assert catpurify.__all__ == PUBLIC


# each module's own public list, in order; a name leaves or joins only here
MODULE_PUBLIC = {
    "dyads": [
        "DyadState", "make_coherent", "make_mixed", "tensor", "attach_vacuum", "trace", "normalize",
        "loss_on_dyad", "bs_on_product", "homodyne_amplitude", "project_quadrature",
        "project_click", "extract_fraction", "purity", "hermiticity_defect", "amplifier_sim",
    ],
    "sweeps": [
        "GridAxis", "SweepSpec", "SweepTable", "FIGURE_IDS", "default_spec", "run_sweep", "emit_csv", "csv_name",
    ],
    "verify": ["CheckResult", "run_suite", "DEFAULT_SEED"],
    "states": ["CssParams", "MixedCss", "TapSetting", "ChannelSetting", "TWO_PI"],
}


@pytest.mark.parametrize("module", MODULE_PUBLIC)
def test_module_exports_are_pinned(module):
    assert importlib.import_module(f"catpurify.{module}").__all__ == MODULE_PUBLIC[module]


@pytest.mark.parametrize(
    "module, name", [(module, name) for module in (errors, analytic) for name in module.__all__]
)
def test_module_lists_are_exported_as_themselves(module, name):
    assert name in catpurify.__all__
    assert getattr(catpurify, name) is getattr(module, name)


# perfbench's traced runs wrap these names where the package defines them and
# skip the rest, whose per-layer metrics then read 0
TRACED_BUT_UNDEFINED = {"merge_terms", "gram_norm"}


def test_traced_names_the_package_lacks_are_known(monkeypatch):
    monkeypatch.syspath_prepend(str(SRC.parent / "perfbench"))
    spans = importlib.import_module("spans")
    lacking = {name for module, names in ((analytic, spans.ANALYTIC), (dyads, spans.DYADS))
               for name in names if not hasattr(module, name)}
    assert lacking == TRACED_BUT_UNDEFINED
