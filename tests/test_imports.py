"""Import hygiene, checked in fresh interpreters.

The closed forms and the command line need only the standard library;
numpy loads with the dyad oracle (``catpurify.dyads``, ``catpurify.verify``,
``catpurify.run_suite``) on first use, and scipy never loads.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import catpurify
from catpurify import analytic, errors
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
    "normalization", "apply_loss", "loss_fraction", "effective_loss_fraction",
    "homodyne_density_css", "homodyne_density_mix", "theta_of_k", "detection_ratio",
    "purify", "purify_with_inefficiency", "success_region", "optimal_k", "window_acceptance",
    "amplify", "amplification_threshold", "concat_stages", "purity_mixed_css",
    "run_suite",
]


def test_package_exports_are_pinned():
    assert catpurify.__all__ == PUBLIC


@pytest.mark.parametrize(
    "module, name", [(module, name) for module in (errors, analytic) for name in module.__all__]
)
def test_module_lists_are_exported_as_themselves(module, name):
    assert name in catpurify.__all__
    assert getattr(catpurify, name) is getattr(module, name)
