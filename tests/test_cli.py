"""End-to-end tests for the command-line interface.

Everything goes through ``main(argv)`` in-process so exit codes and
stream contents are asserted directly.
"""

import dataclasses
import json
import math
import re
import shlex
from pathlib import Path

import pytest

from catpurify import (
    ChannelSetting,
    CssParams,
    MixedCss,
    TapSetting,
    apply_loss,
    optimal_k,
    purify,
)
from catpurify.cli import _COMMANDS, main
from catpurify.verify import CheckResult

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPurifyCommand:
    def test_reference_point_plain(self, capsys):
        code, out, err = run_cli(
            capsys,
            "purify",
            "--alpha", "1", "--phi", "pi", "--p-in", "0.5",
            "--T", "0.5", "--k", "optimal",
        )
        assert code == 0 and err == ""
        assert "p_out = 0.6127" in out
        assert "k = 1.5708" in out

    def test_reference_point_json_bitwise(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "purify", "--format", "json",
            "--alpha", "1", "--phi", "pi", "--p-in", "0.5",
            "--T", "0.5", "--k", "optimal",
        )
        assert code == 0
        payload = json.loads(out)
        state = MixedCss(CssParams(1.0, math.pi), 0.5)
        k = optimal_k(state.params, 0.5)
        expected, density_css, density_mix = purify(state, TapSetting(0.5, k))
        assert payload["k"] == k
        assert payload["p_out"] == expected.p
        assert payload["out_alpha"] == expected.params.alpha
        assert payload["out_phi"] == expected.params.phi
        assert payload["density_css"] == density_css
        assert payload["density_mix"] == density_mix
        assert payload["density_joint"] == 0.5 * density_css + 0.5 * density_mix

    def test_detector_efficiency_reports_the_densities(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "purify", "--format", "json",
            "--alpha", "1", "--phi", "pi", "--p-in", "0.5",
            "--T", "0.5", "--k", "1.5707963267948966", "--eta-H", "0.98",
        )
        assert code == 0
        payload = json.loads(out)
        state = MixedCss(CssParams(1.0, math.pi), 0.5)
        expected, density_css, density_mix = purify(state, TapSetting(0.5, math.pi / 2.0, 0.98))
        assert payload["p_out"] == expected.p
        assert payload["out_phi"] == expected.params.phi
        assert payload["density_css"] == density_css
        assert payload["density_mix"] == density_mix
        assert payload["density_joint"] == 0.5 * density_css + 0.5 * density_mix

    def test_optimal_outcome_cancels_the_phase_behind_an_inefficient_detector(self, capsys):
        # the detector sees eta_H R of the light, so k solves theta = -phi at R = 0.45
        code, out, _ = run_cli(
            capsys,
            "purify", "--format", "json",
            "--alpha", "1", "--phi", "pi", "--p-in", "0.5",
            "--T", "0.5", "--k", "optimal", "--eta-H", "0.9",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["k"] == optimal_k(CssParams(1.0, math.pi), 0.9 * 0.5)
        assert min(payload["out_phi"], 2.0 * math.pi - payload["out_phi"]) <= 1e-12
        assert payload["p_out"] == pytest.approx(0.563226, abs=5e-7)

    @pytest.mark.parametrize(
        "flag,value,name",
        [
            ("--eta-H", "0", "detector efficiency eta_H"),
            ("--eta-H", "nan", "detector efficiency eta_H"),
            ("--T", "1.5", "transmittance T"),
            ("--T", "nan", "transmittance T"),
        ],
    )
    def test_bad_tap_with_optimal_outcome_names_the_parameter(self, capsys, flag, value, name):
        # the tap is checked before the outcome is solved for
        flags = {"--T": "0.5", "--eta-H": "0.9", flag: value}
        code, out, err = run_cli(
            capsys,
            "purify", "--alpha", "1", "--phi", "pi", "--p-in", "0.5", "--k", "optimal",
            *(item for pair in flags.items() for item in pair),
        )
        assert code == 2 and out == ""
        assert err == f"error: {name} must lie in (0, 1], got {float(value)!r}\n"

    def test_line_loss_applied_before_tap(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "purify", "--format", "json",
            "--alpha", "1", "--phi", "0", "--p-in", "0.9",
            "--eta", "0.7", "--T", "0.5", "--k", "0.3",
        )
        assert code == 0
        payload = json.loads(out)
        lossy = apply_loss(MixedCss(CssParams(1.0, 0.0), 0.9), ChannelSetting(0.7))
        expected, _, _ = purify(lossy, TapSetting(0.5, 0.3))
        assert payload["p_out"] == expected.p
        assert payload["out_alpha"] == expected.params.alpha

    def test_missing_required_parameter(self, capsys):
        code, _, err = run_cli(
            capsys,
            "purify", "--phi", "0", "--p-in", "0.5", "--T", "0.5", "--k", "0",
        )
        assert code == 2
        assert "missing required parameter(s): alpha" in err

    def test_all_problems_reported_at_once(self, capsys):
        code, _, err = run_cli(
            capsys,
            "purify",
            "--alpha", "abc", "--phi", "0", "--p-in", "xyz",
            "--T", "0.5", "--k", "0",
        )
        assert code == 2
        assert "invalid value for alpha: 'abc'" in err
        assert "invalid value for p_in: 'xyz'" in err

    def test_degenerate_request_is_a_physics_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "purify",
            "--alpha", "0", "--phi", "pi", "--p-in", "0.5",
            "--T", "0.5", "--k", "0",
        )
        assert code == 3
        assert err.startswith("physics error:")

    def test_underflowed_odd_cat_is_degenerate(self, capsys):
        # alpha^2 underflows, so the odd cat's norm is exactly 0
        code, out, err = run_cli(
            capsys,
            "purify",
            "--alpha", "1e-170", "--phi", "pi", "--p-in", "0.5",
            "--T", "0.5", "--k", "0",
        )
        assert code == 3
        assert out == ""
        assert err.startswith("physics error:") and "zero norm" in err

    @pytest.mark.parametrize(
        "detector", [(), ("--eta-H", "0.98")], ids=["ideal", "eta_H=0.98"]
    )
    def test_zero_density_outcome_is_a_physics_error(self, capsys, detector):
        code, out, err = run_cli(
            capsys,
            "purify",
            "--alpha", "1", "--phi", "pi", "--p-in", "0.5",
            "--T", "0.5", "--k", "1e200", *detector,
        )
        assert code == 3
        assert out == ""
        assert err.startswith("physics error:")

    @pytest.mark.parametrize("alpha", ["1", "1e200"])
    @pytest.mark.parametrize("k", ["1e200", "1.7e308"])
    def test_outcome_of_overflowed_phase_is_a_physics_error(self, capsys, alpha, k):
        # the phase 2 sqrt(2 R) alpha k this outcome would imprint overflows
        code, out, err = run_cli(
            capsys,
            "purify",
            "--alpha", alpha, "--phi", "0", "--p-in", "0.5",
            "--T", "0.5", "--k", k,
        )
        assert code == 3
        assert out == ""
        assert err == (
            f"physics error: event of zero density: the outcome k={float(k)!r} never occurs\n"
        )


def _readme_cli_lines():
    """The commands of the README's CLI quickstart block."""
    section = README.read_text(encoding="utf-8").split("## Quickstart (CLI)", 1)[1]
    block = section.split("```", 2)[1]
    return [line for line in block.splitlines() if line.startswith("catpurify ")]


class TestReadmeQuickstart:
    def test_block_is_found(self):
        assert len(_readme_cli_lines()) == 6

    @pytest.mark.parametrize("line", _readme_cli_lines())
    def test_command_succeeds(self, capsys, tmp_path, monkeypatch, line):
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(capsys, *shlex.split(line)[1:])
        assert code == 0, err


def _readme_flag_table():
    """{flag: the set of commands its row names}, one entry per flag of the
    README's flag table."""
    section = README.read_text(encoding="utf-8").split("| flag | domain | commands |", 1)[1]
    table = {}
    for line in section.splitlines()[2:]:
        if not line.startswith("|"):
            break
        flags, _, commands = line.strip("|").split(" | ")
        for flag in re.findall(r"`([^`]+)`", flags):
            assert flag not in table, f"{flag} has two rows"
            table[flag] = set(re.findall(r"`([^`]+)`", commands))
    return table


def test_readme_flag_table_names_each_flag_and_its_commands():
    expected = {}
    for command, (_, spec) in _COMMANDS.items():
        for key, _, _, _ in spec:
            expected.setdefault("--" + key.replace("_", "-"), set()).add(command)
    assert _readme_flag_table() == expected


class TestConfigFile:
    def test_flags_override_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(
            {"alpha": 1, "phi": "pi", "p_in": 0.5, "T": 0.9, "k": 0}
        ))
        code, out, _ = run_cli(
            capsys,
            "purify", "--config", str(cfg), "--T", "0.5", "--format", "json",
        )
        assert code == 0
        expected, _, _ = purify(
            MixedCss(CssParams(1.0, math.pi), 0.5), TapSetting(0.5, 0.0)
        )
        assert json.loads(out)["p_out"] == expected.p

    def test_file_may_set_format(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(
            {"alpha": 0.5, "phi": "pi", "p_in": 0.5, "format": "json"}
        ))
        code, out, _ = run_cli(capsys, "amplify", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["p_out"] == pytest.approx(
            0.5922488638743828, abs=0
        )

    def test_problems_follow_the_file_order(self, capsys, tmp_path):
        # every key, format included, is converted in the order the file
        # lists it; flags the file does not set follow
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(
            {"format": "x", "alpha": "bad", "phi": "pi", "p_in": 0.5}
        ))
        code, out, err = run_cli(capsys, "amplify", "--config", str(cfg))
        assert code == 2 and out == ""
        assert err == (
            "error: amplify: invalid value for format: 'x'; invalid value for alpha: 'bad'; "
            "missing required parameter(s): alpha\n"
        )

    def test_unknown_file_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(
            {"alpha": 1, "phi": 0, "p_in": 0.5, "T": 0.5, "k": 0, "beta": 3}
        ))
        code, _, err = run_cli(capsys, "purify", "--config", str(cfg))
        assert code == 2
        assert "unknown parameter(s): beta" in err

    def test_unreadable_file_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "purify", "--config", str(tmp_path / "missing.json"),
        )
        assert code == 2
        assert "cannot read config file" in err


class TestAmplifyAndConcat:
    def test_pi_literal_is_exact(self, capsys):
        # amplify only accepts phases exactly 0 or pi, so success here
        # proves the literal parsed to math.pi bit for bit
        code, out, _ = run_cli(
            capsys,
            "amplify", "--format", "json",
            "--alpha", "0.5", "--phi", "pi", "--p-in", "0.5",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["p_out"] == 0.5922488638743828
        assert payload["out_alpha"] == 0.5 * math.sqrt(2.0)
        assert payload["out_phi"] == 0.0

    def test_unsupported_phase_gets_guidance(self, capsys):
        code, _, err = run_cli(
            capsys,
            "amplify", "--alpha", "0.5", "--phi", "pi/2", "--p-in", "0.5",
        )
        assert code == 2
        assert "amplifier_sim" in err

    def test_small_odd_cat_succeeds(self, capsys):
        code, out, err = run_cli(
            capsys,
            "amplify", "--format", "json",
            "--alpha", "1e-9", "--phi", "pi", "--p-in", "0.5",
        )
        assert code == 0 and err == ""
        assert json.loads(out)["p_out"] == 1.0

    def test_degenerate_odd_pair_is_a_physics_error(self, capsys):
        code, out, err = run_cli(
            capsys, "amplify", "--alpha", "1e-170", "--phi", "pi", "--p-in", "0.5"
        )
        assert code == 3 and out == ""
        assert "zero norm" in err

    def test_concat_flags_no_net_purification(self, capsys):
        code, out, _ = run_cli(capsys, "concat", "--alpha", "1", "--p-in", "0.5")
        assert code == 0
        assert "note = no net purification" in out
        assert "p_final = 0.241818" in out

    def test_concat_json_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "concat", "--format", "json", "--alpha", "1", "--p-in", "0.5"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["p_mid"] == 0.5464491031607007
        assert payload["p_final"] == 0.24181836090865347
        assert payload["net_change"] == payload["p_final"] - payload["p_in"]


class TestSweepCommand:
    def test_reproducible_sweep_matches_golden(self, capsys, tmp_path):
        target = tmp_path / "fig2.csv"
        code, out, _ = run_cli(
            capsys,
            "sweep", "--figure-id", "fig2_densities",
            "--output", str(target), "--reproducible",
        )
        assert code == 0
        assert "rows = 801" in out
        assert "columns = 3" in out
        assert target.read_bytes() == (GOLDEN / "fig2_densities.csv").read_bytes()

    def test_unknown_figure_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "sweep", "--figure-id", "fig99",
            "--output", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "unknown figure_id" in err

    def test_inapplicable_override_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "sweep", "--figure-id", "fig6_pout_vs_pin",
            "--phi", "pi", "--output", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "does not take parameter(s): phi" in err

    def test_fixed_override_changes_output(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(
            capsys, "sweep", "--figure-id", "fig2_densities",
            "--output", str(a), "--reproducible",
        )[0] == 0
        assert run_cli(
            capsys, "sweep", "--figure-id", "fig2_densities",
            "--alpha", "0.8", "--output", str(b), "--reproducible",
        )[0] == 0
        assert a.read_bytes() != b.read_bytes()
        assert "alpha=0.8" in b.read_text().splitlines()[1]


    @pytest.mark.parametrize(
        "figure_id, value",
        [
            ("fig4_gain_vs_k_phi0", "1.5"),
            ("fig7_gain_vs_alpha", "-0.5"),
            ("fig8_gain_and_density_vs_T", "2"),
            ("fig4_gain_vs_k_phi0", "0"),
            ("fig5_gain_vs_k_phipi", "0"),
            ("fig8_gain_and_density_vs_T", "0"),
        ],
    )
    def test_out_of_domain_p_in_exits_two(self, capsys, tmp_path, figure_id, value):
        target = tmp_path / "x.csv"
        code, out, err = run_cli(
            capsys, "sweep", "--figure-id", figure_id, "--p-in", value, "--output", str(target),
        )
        assert code == 2 and out == "" and not target.exists()
        assert err == f"error: {figure_id}: fixed p_in must lie in (0, 1], got {float(value)!r}\n"

    def test_out_of_domain_T_names_T(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sweep", "--figure-id", "fig6_pout_vs_pin", "--T", "1.5",
            "--output", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert err == "error: fig6_pout_vs_pin: fixed T must lie in (0, 1], got 1.5\n"


class TestVerifyCommand:
    def test_plain_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--draws", "20", "--amp-draws", "5"
        )
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln]
        assert len(lines) == 6
        assert all(ln.startswith("ok  ") for ln in lines)

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--format", "json", "--draws", "20", "--amp-draws", "5",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 6
        assert all(entry["passed"] for entry in payload)
        assert all(entry["max_error"] <= entry["tolerance"] for entry in payload)
        fields = [f.name for f in dataclasses.fields(CheckResult)]
        assert all(list(entry) == [*fields, "passed"] for entry in payload)

    @pytest.mark.parametrize(
        "flag,value,name",
        [("--seed", "-3", "seed"), ("--draws", "0", "draws"), ("--amp-draws", "-1", "amp_draws")],
    )
    def test_bad_counts_exit_two_naming_the_parameter(self, capsys, flag, value, name):
        code, out, err = run_cli(capsys, "verify", flag, value)
        assert code == 2 and out == ""
        assert err == f"error: {name} must be an integer >= {0 if name == 'seed' else 1}, got {value}\n"


# the --help text of the top level and of every subcommand but verify
# (pinned in TestParser on its own), at COLUMNS=80
_HELP = {
    '': (
        'usage: catpurify [-h] [--version] {purify,amplify,concat,sweep,verify} ...\n'
        '\n'
        'Cat-state decoherence, conditional purification and amplification.\n'
        '\n'
        'positional arguments:\n'
        '  {purify,amplify,concat,sweep,verify}\n'
        '    purify              condition a mixture on a homodyne outcome behind a tap\n'
        '    amplify             two-copy coincidence amplification (phi 0 or pi)\n'
        '    concat              purify two copies then amplify back to the input\n'
        '                        amplitude\n'
        '    sweep               regenerate a figure dataset as CSV\n'
        '    verify              randomized analytic-vs-oracle cross-checks\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        "  --version             show program's version number and exit\n"
    ),
    'purify': (
        'usage: catpurify purify [-h] [--config PATH] [--format {plain,json,csv}]\n'
        '                        [--alpha ALPHA] [--phi PHI] [--p-in P_IN] [--T T]\n'
        '                        [--k K] [--eta ETA] [--eta-H ETA_H]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --config PATH         JSON file with parameters; flags override it\n'
        '  --format {plain,json,csv}\n'
        '                        output format (default plain)\n'
        '  --alpha ALPHA         input amplitude\n'
        '  --phi PHI             input phase (radians, or 0, pi, pi/2)\n'
        '  --p-in P_IN           input cat fraction\n'
        '  --T T                 tap transmittance\n'
        "  --k K                 homodyne outcome, or 'optimal'\n"
        '  --eta ETA             optional line transmittance applied before the tap\n'
        '  --eta-H ETA_H         detector efficiency (default 1)\n'
    ),
    'amplify': (
        'usage: catpurify amplify [-h] [--config PATH] [--format {plain,json,csv}]\n'
        '                         [--alpha ALPHA] [--phi PHI] [--p-in P_IN]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --config PATH         JSON file with parameters; flags override it\n'
        '  --format {plain,json,csv}\n'
        '                        output format (default plain)\n'
        '  --alpha ALPHA         input amplitude\n'
        '  --phi PHI             input phase (0 or pi)\n'
        '  --p-in P_IN           input cat fraction\n'
    ),
    'concat': (
        'usage: catpurify concat [-h] [--config PATH] [--format {plain,json,csv}]\n'
        '                        [--alpha ALPHA] [--p-in P_IN]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --config PATH         JSON file with parameters; flags override it\n'
        '  --format {plain,json,csv}\n'
        '                        output format (default plain)\n'
        '  --alpha ALPHA         input amplitude\n'
        '  --p-in P_IN           input cat fraction\n'
    ),
    'sweep': (
        'usage: catpurify sweep [-h] [--config PATH] [--format {plain,json,csv}]\n'
        '                       [--figure-id FIGURE_ID] [--alpha ALPHA] [--phi PHI]\n'
        '                       [--T T] [--p-in P_IN] [--output OUTPUT]\n'
        '                       [--reproducible]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --config PATH         JSON file with parameters; flags override it\n'
        '  --format {plain,json,csv}\n'
        '                        output format (default plain)\n'
        '  --figure-id FIGURE_ID\n'
        '                        one of: fig2_densities, fig3_densities,\n'
        '                        fig4_gain_vs_k_phi0, fig5_gain_vs_k_phipi,\n'
        '                        fig6_pout_vs_pin, fig7_gain_vs_alpha,\n'
        '                        fig8_gain_and_density_vs_T, concat_scan\n'
        "  --alpha ALPHA         override the figure's fixed alpha\n"
        "  --phi PHI             override the figure's fixed phi\n"
        "  --T T                 override the figure's fixed T\n"
        "  --p-in P_IN           override the figure's fixed p_in\n"
        '  --output OUTPUT       output path (default <figure_id>.csv)\n'
        '  --reproducible        omit the timestamp comment so identical specs give\n'
        '                        identical bytes\n'
    ),
}


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "catpurify 0.1.0" in capsys.readouterr().out

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_verify_help_text_is_pinned(self, capsys, monkeypatch):
        # the --seed default is shown without importing the oracle; the
        # whole text is pinned so moving the constant cannot change a byte
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--help"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out == (
            "usage: catpurify verify [-h] [--config PATH] [--format {plain,json,csv}]\n"
            "                        [--draws DRAWS] [--amp-draws AMP_DRAWS] [--seed SEED]\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --config PATH         JSON file with parameters; flags override it\n"
            "  --format {plain,json,csv}\n"
            "                        output format (default plain)\n"
            "  --draws DRAWS         draws per check (default 200)\n"
            "  --amp-draws AMP_DRAWS\n"
            "                        amplifier draws (default 50)\n"
            "  --seed SEED           RNG seed (default 20260814)\n"
        )

    @pytest.mark.parametrize("command", list(_HELP), ids=lambda c: c or "top-level")
    def test_help_text_is_pinned(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"] if command else ["--help"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out == _HELP[command]
