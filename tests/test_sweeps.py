"""Tests for the figure-dataset sweeps and their CSV emission."""

import hashlib
import math
from pathlib import Path

import pytest

from catpurify import CssParams, analytic, detection_ratio, sweeps
from catpurify.errors import ConfigError

GOLDEN = Path(__file__).parent / "golden"

# SHA-256 of each default figure CSV written with reproducible=True; a
# refactor of the closed forms or the sweeps must leave every byte alone
FIGURE_DIGESTS = {
    "fig2_densities": "dbf4d3bb4aa5a275500783f99496ab9faca7ebc0a3643a03a0e87d7cc2e90b19",
    "fig3_densities": "5a05ac82a24638d22aca6aee27909b9c15e775bf73d83d41ca6200c9625a6f3a",
    "fig4_gain_vs_k_phi0": "24a5992f84a2c1d50bb003c155e95629bed96d234edeb7e05ef28409c5efd032",
    "fig5_gain_vs_k_phipi": "116e426298e07bf10a51fb9ffa9a62c17f8a47eb2381942cb0c16ceea241265e",
    "fig6_pout_vs_pin": "badf966d08714e6b6fa2174d41ef640b4b9ea78129eb84314401dc95b1373cf9",
    "fig7_gain_vs_alpha": "d5f141068ba9eb338bc351add46abf7f66012906ce9f2036eb2b1845406940e7",
    "fig8_gain_and_density_vs_T": "37cd7c8ae4657456d9b5c071e560961a85a0513a707460482687db5088756c1f",
    "concat_scan": "9777c0638bd342afd4f7cbffeca56c776ff9252c050740ca8af5e9e8e425d8ad",
}


class TestGridAxis:
    def test_counts(self):
        assert sweeps.GridAxis("k", -4.0, 4.0, 0.01).count == 801
        assert sweeps.GridAxis("alpha", 0.05, 2.0, 0.01).count == 196
        assert sweeps.GridAxis("p_in", 0.001, 0.999, 0.001).count == 999
        assert sweeps.GridAxis("T", 0.05, 1.0, 0.005).count == 191

    def test_endpoint_snapped(self):
        values = sweeps.GridAxis("T", 0.05, 1.0, 0.005).values()
        assert values[-1] == 1.0
        assert values[0] == 0.05

    def test_rejects_bad_axis(self):
        with pytest.raises(ValueError):
            sweeps.GridAxis("x", 0.0, 1.0, -0.1)
        with pytest.raises(ValueError):
            sweeps.GridAxis("x", 1.0, 0.0, 0.1)


class TestRegistry:
    def test_known_ids(self):
        assert sweeps.FIGURE_IDS == (
            "fig2_densities",
            "fig3_densities",
            "fig4_gain_vs_k_phi0",
            "fig5_gain_vs_k_phipi",
            "fig6_pout_vs_pin",
            "fig7_gain_vs_alpha",
            "fig8_gain_and_density_vs_T",
            "concat_scan",
        )

    def test_unknown_id_rejected(self):
        with pytest.raises(ConfigError, match="unknown figure_id"):
            sweeps.default_spec("fig9")

    def test_csv_name(self):
        assert sweeps.csv_name("fig2_densities") == "fig2_densities.csv"

    @pytest.mark.parametrize("figure_id", sweeps.FIGURE_IDS)
    def test_default_specs_run(self, figure_id):
        table = sweeps.run_sweep(sweeps.default_spec(figure_id))
        assert len(table.rows) > 0
        width = len(table.columns)
        assert all(len(row) == width for row in table.rows)


class TestValidation:
    def test_missing_fixed_parameter(self):
        spec = sweeps.default_spec("fig2_densities")
        bad = sweeps.SweepSpec(spec.figure_id, {"T": 0.5, "alpha": 1.0}, spec.grid)
        with pytest.raises(ConfigError, match="missing fixed parameter"):
            sweeps.run_sweep(bad)

    def test_unknown_fixed_parameter(self):
        spec = sweeps.default_spec("fig2_densities")
        fixed = dict(spec.fixed_params)
        fixed["beta"] = 2.0
        with pytest.raises(ConfigError, match="unknown fixed parameter"):
            sweeps.run_sweep(sweeps.SweepSpec(spec.figure_id, fixed, spec.grid))

    def test_wrong_axis_name(self):
        spec = sweeps.default_spec("fig2_densities")
        grid = (sweeps.GridAxis("x", -4.0, 4.0, 0.01),)
        with pytest.raises(ConfigError):
            sweeps.run_sweep(
                sweeps.SweepSpec(spec.figure_id, dict(spec.fixed_params), grid)
            )

    def test_table_rejects_non_finite(self):
        with pytest.raises(ValueError):
            sweeps.SweepTable((("x", "1"),), ((float("nan"),),), {})

    def test_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            sweeps.SweepTable((("x", "1"), ("y", "1")), ((1.0,),), {})

    COLUMNS = (("x", "1"), ("y", "1"), ("z", "1"))
    VALID = [(0.5 * i, -1.0, 1e-300) for i in range(1000)]

    def test_ragged_row_after_valid_rows_named(self):
        for row in [(1.0, 2.0), (1.0, 2.0, 3.0, 4.0)]:
            message = f"row 1000 has {len(row)} values for 3 columns"
            with pytest.raises(ValueError, match=f"^{message}$"):
                sweeps.SweepTable(self.COLUMNS, self.VALID + [row], {})

    def test_first_ragged_row_named(self):
        rows = self.VALID + [(1.0,), (float("nan"), 0.0, 0.0), ()]
        with pytest.raises(ValueError, match="^row 1000 has 1 values for 3 columns$"):
            sweeps.SweepTable(self.COLUMNS, rows, {})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_after_valid_rows_named(self, bad):
        rows = self.VALID + [(0.0, bad, 0.0), (bad, 0.0, 0.0)]
        message = f"non-finite value {bad!r} in column 'y', row 1000"
        with pytest.raises(ValueError) as info:
            sweeps.SweepTable(self.COLUMNS, rows, {})
        assert str(info.value) == message

    def test_ragged_row_reported_before_later_non_finite(self):
        rows = self.VALID + [(float("nan"), 0.0, 0.0), (1.0,)]
        with pytest.raises(ValueError, match="^non-finite value nan in column 'x', row 1000$"):
            sweeps.SweepTable(self.COLUMNS, rows, {})
        rows = self.VALID + [(1.0,), (float("nan"), 0.0, 0.0)]
        with pytest.raises(ValueError, match="^row 1000 has 1 values for 3 columns$"):
            sweeps.SweepTable(self.COLUMNS, rows, {})

    def test_table_stores_float_tuples(self):
        table = sweeps.SweepTable(self.COLUMNS[:2], [[1, True], (0.5, "2")], {"a": "b"})
        assert table.rows == ((1.0, 1.0), (0.5, 2.0))
        assert all(type(v) is float for row in table.rows for v in row)
        assert table.columns == self.COLUMNS[:2] and table.metadata == {"a": "b"}


class TestFigureContent:
    def test_fig2_center_row(self):
        table = sweeps.run_sweep(sweeps.default_spec("fig2_densities"))
        assert len(table.rows) == 801
        assert [name for name, _ in table.columns] == ["k", "P_C", "P_0"]
        center = table.rows[400]
        assert center[0] == 0.0
        assert center[1] == pytest.approx(0.6797492720018076, abs=1e-15)
        assert center[2] == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-16)

    def test_fig6_reaches_fixed_points(self):
        table = sweeps.run_sweep(sweeps.default_spec("fig6_pout_vs_pin"))
        assert len(table.rows) == 999
        names = [name for name, _ in table.columns]
        assert names == [
            "p_in",
            "p_out_phi0",
            "improvement_phi0",
            "p_out_phipi",
            "improvement_phipi",
        ]
        for row in table.rows:
            assert row[1] >= row[0] and row[3] >= row[0]
            assert row[2] == pytest.approx(row[1] - row[0], abs=1e-15)

    def test_fig8_degenerate_terminal_row(self):
        table = sweeps.run_sweep(sweeps.default_spec("fig8_gain_and_density_vs_T"))
        assert len(table.rows) == 191
        names = [name for name, _ in table.columns]
        last = dict(zip(names, table.rows[-1]))
        assert last["T"] == 1.0
        assert last["degenerate"] == 1.0
        assert last["density_phipi"] == 0.0
        # at T=1 the kept mode sees a fully depleted tap; the limiting
        # ratio is the T->1 value of the closed form
        r = detection_ratio(CssParams(1.0, math.pi), 1.0, math.pi)
        p = 0.5
        assert last["gain_phipi"] == pytest.approx(
            (p / (p + r * (1.0 - p))) / p, abs=1e-12
        )
        for row in table.rows[:-1]:
            assert dict(zip(names, row))["degenerate"] == 0.0

    def test_fig8_gain_non_increasing_in_T(self):
        table = sweeps.run_sweep(sweeps.default_spec("fig8_gain_and_density_vs_T"))
        names = [name for name, _ in table.columns]
        g0 = [dict(zip(names, row))["gain_phi0"] for row in table.rows]
        gpi = [dict(zip(names, row))["gain_phipi"] for row in table.rows]
        assert all(a >= b - 1e-12 for a, b in zip(g0, g0[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(gpi, gpi[1:]))

    def test_concat_scan_custom_grid(self):
        spec = sweeps.SweepSpec(
            "concat_scan",
            {},
            (
                sweeps.GridAxis("alpha", 0.1, 1.0, 0.1),
                sweeps.GridAxis("p_in", 0.1, 0.9, 0.1),
            ),
        )
        table = sweeps.run_sweep(spec)
        assert len(table.rows) == 90
        names = [name for name, _ in table.columns]
        for row in table.rows:
            record = dict(zip(names, row))
            assert record["p_final"] < record["p_in"]
            assert record["net_change"] == pytest.approx(
                record["p_final"] - record["p_in"], abs=1e-15
            )


class TestEmission:
    def test_run_sweep_deterministic(self):
        a = sweeps.run_sweep(sweeps.default_spec("fig4_gain_vs_k_phi0"))
        b = sweeps.run_sweep(sweeps.default_spec("fig4_gain_vs_k_phi0"))
        assert a.rows == b.rows
        assert a.metadata == b.metadata

    def test_reproducible_emission_is_byte_stable(self, tmp_path):
        table = sweeps.run_sweep(sweeps.default_spec("fig3_densities"))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        sweeps.emit_csv(table, p1, reproducible=True)
        sweeps.emit_csv(table, p2, reproducible=True)
        assert p1.read_bytes() == p2.read_bytes()
        assert b"# generated:" not in p1.read_bytes()

    def test_default_emission_stamps_time(self, tmp_path):
        table = sweeps.run_sweep(sweeps.default_spec("fig3_densities"))
        path = tmp_path / "stamped.csv"
        sweeps.emit_csv(table, path)
        assert "# generated:" in path.read_text()

    def test_header_layout(self, tmp_path):
        table = sweeps.run_sweep(sweeps.default_spec("fig2_densities"))
        path = tmp_path / "fig2.csv"
        sweeps.emit_csv(table, path, reproducible=True)
        lines = path.read_text().splitlines()
        meta = [ln for ln in lines if ln.startswith("#")]
        assert meta[0] == "# figure: fig2_densities"
        header = next(ln for ln in lines if not ln.startswith("#"))
        assert header == "k[1],P_C[1],P_0[1]"
        assert path.read_text().endswith("\n")

    def test_edge_values_match_per_value_format(self, tmp_path):
        values = [-0.0, 5e-324, 1e-5, 0.1 + 0.2, 1e16, 123456789012.5, 7]
        rows = [tuple(values[i:] + values[:i]) for i in range(len(values))]
        rows += [(-1.5e-310, 2**53 + 1, -123456789012345.0, 1e300, -1e-300, 0.0, 1)]
        table = sweeps.SweepTable(tuple((f"c{i}", "1") for i in range(len(values))), rows, {})
        path = tmp_path / "edges.csv"
        sweeps.emit_csv(table, path, reproducible=True)
        body = path.read_text().splitlines()[1:]
        assert body == [",".join(format(v, ".12g") for v in row) for row in rows]
        assert body[0] == "-0,4.94065645841e-324,1e-05,0.3,1e+16,123456789012,7"

    def test_matches_golden_bytes(self, tmp_path):
        table = sweeps.run_sweep(sweeps.default_spec("fig2_densities"))
        path = tmp_path / "fig2.csv"
        sweeps.emit_csv(table, path, reproducible=True)
        assert path.read_bytes() == (GOLDEN / "fig2_densities.csv").read_bytes()

    @pytest.mark.parametrize("figure_id", sweeps.FIGURE_IDS)
    def test_matches_recorded_digest(self, figure_id, tmp_path):
        table = sweeps.run_sweep(sweeps.default_spec(figure_id))
        path = tmp_path / sweeps.csv_name(figure_id)
        sweeps.emit_csv(table, path, reproducible=True)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == FIGURE_DIGESTS[figure_id]


def _override(figure_id, **fixed):
    spec = sweeps.default_spec(figure_id)
    return sweeps.SweepSpec(figure_id, {**spec.fixed_params, **fixed}, spec.grid)


class TestFixedParameterDomains:
    """A fixed parameter outside its domain is rejected, by name, before any
    row is built."""

    @pytest.mark.parametrize(
        "figure_id, name, value, domain",
        [
            ("fig4_gain_vs_k_phi0", "p_in", 1.5, "(0, 1]"),
            ("fig7_gain_vs_alpha", "p_in", -0.5, "(0, 1]"),
            ("fig8_gain_and_density_vs_T", "p_in", 2.0, "(0, 1]"),
            ("fig4_gain_vs_k_phi0", "p_in", 0.0, "(0, 1]"),
            ("fig5_gain_vs_k_phipi", "p_in", 0.0, "(0, 1]"),
            ("fig8_gain_and_density_vs_T", "p_in", 0.0, "(0, 1]"),
            ("fig6_pout_vs_pin", "T", 1.5, "(0, 1]"),
            ("fig2_densities", "T", 0.0, "(0, 1]"),
            ("fig7_gain_vs_alpha", "T", math.nan, "(0, 1]"),
        ],
    )
    def test_out_of_domain_value_named(self, figure_id, name, value, domain):
        with pytest.raises(ValueError) as info:
            sweeps.run_sweep(_override(figure_id, **{name: value}))
        assert str(info.value) == f"{figure_id}: fixed {name} must lie in {domain}, got {value!r}"

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("alpha", -1.0, "must be a finite real >= 0, got -1.0"),
            ("alpha", math.inf, "must be a finite real >= 0, got inf"),
            ("phi", math.nan, "must be finite, got nan"),
        ],
    )
    def test_amplitude_and_phase_domains(self, name, value, message):
        with pytest.raises(ValueError) as info:
            sweeps.run_sweep(_override("fig2_densities", **{name: value}))
        assert str(info.value) == f"fig2_densities: fixed {name} {message}"

    def test_checked_before_any_row(self, monkeypatch):
        def fail(*args):
            raise AssertionError("a row was built")

        monkeypatch.setattr(analytic, "detection_ratio", fail)
        with pytest.raises(ValueError, match="fixed p_in"):
            sweeps.run_sweep(_override("fig4_gain_vs_k_phi0", p_in=1.5))

    @pytest.mark.parametrize("figure_id", ["fig4_gain_vs_k_phi0", "fig7_gain_vs_alpha"])
    def test_unit_fraction_accepted(self, figure_id):
        table = sweeps.run_sweep(_override(figure_id, p_in=1.0))
        assert all(row[1] == 1.0 for row in table.rows)
