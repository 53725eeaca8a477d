"""In-process fuzz of the command line.

Every command is called through ``main(argv)``, each flag either left
out, set to an ordinary value, or set to a value from a pool of edge
cases. Whatever the values, the call ends in exit code 0, 2 or 3 with
nothing but ``SystemExit`` escaping, and every fraction a successful call
reports (on standard output, or in the CSV a sweep writes) lies in [0, 1].
"""

import contextlib
import csv
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catpurify import sweeps
from catpurify.cli import _build_parser, main

POOL = ["nan", "inf", "-1", "0", "1.5", "1e200", "1e-170", "pi", "abc", ""]

# values that make every command succeed, so that one edge case at a time
# reaches the computation
ORDINARY = {
    "--alpha": "0.5", "--phi": "pi", "--p-in": "0.5", "--T": "0.5", "--k": "optimal",
    "--eta": "0.9", "--eta-H": "0.9", "--draws": "5", "--amp-draws": "1", "--seed": "1",
}

# each command's value flags, read from the parser itself
_SUBPARSERS = next(a for a in _build_parser()._actions if a.dest == "command").choices
FLAGS = {
    command: [
        action.option_strings[0]
        for action in parser._actions
        if action.option_strings[0] not in ("-h", "--config", "--format", "--output")
        and action.nargs is None
        and action.const is None
    ]
    for command, parser in _SUBPARSERS.items()
}


@st.composite
def requests(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command, "--format", "json"]
    for flag in FLAGS[command]:
        if flag == "--figure-id":
            argv += [flag, draw(st.sampled_from(sweeps.FIGURE_IDS))]
            continue
        # a sweep takes no ordinary override: its defaults are the figure's
        choice = draw(st.sampled_from(["edge", "ordinary", "ordinary", "omit"]))
        if choice == "edge":
            argv.append(f"{flag}={draw(st.sampled_from(POOL))}")
        elif choice == "ordinary" and command != "sweep":
            argv.append(f"{flag}={ORDINARY[flag]}")
    return argv


def _fractions(command, printed, path):
    """Every fraction a successful call reported."""
    if command == "sweep":
        with open(path, encoding="utf-8") as handle:
            rows = list(csv.reader(line for line in handle if not line.startswith("#")))
        header = [cell.split("[")[0] for cell in rows[0]]
        columns = [i for i, name in enumerate(header) if name.startswith("p_")]
        return [float(row[i]) for row in rows[1:] for i in columns]
    if command == "verify":
        return []
    return [v for key, v in printed.items() if key.startswith("p_")]


@pytest.mark.filterwarnings("ignore:a tap with T=1 reflects nothing")
@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(requests())
def test_every_request_ends_in_a_documented_exit(tmp_path_factory, argv):
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    if argv[0] == "sweep":
        argv = [*argv, "--output", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3), (argv, err.getvalue())
    if code == 0:
        printed = json.loads(out.getvalue())
        for value in _fractions(argv[0], printed, path):
            assert math.isfinite(value) and 0.0 <= value <= 1.0, (argv, value)
