"""Tests for the figure-dataset sweeps and their CSV emission."""

import hashlib
import math
import random
from pathlib import Path

import pytest

from catpurify import CssParams, MixedCss, TapSetting, analytic, detection_ratio, states, sweeps
from catpurify.errors import ConfigError, DegenerateStateError, ZeroDensityError

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
    "concat_scan": "c12d7c8027d5b0c765a8e152914d65b58ca6b39679b26ecf6462c216ab2ded5e",
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

    @pytest.mark.parametrize("start, stop, step", [(-1e308, 1e308, 1.0), (0.0, 1.0, 5e-324)])
    def test_rejects_axis_too_fine_to_count(self, start, stop, step):
        # (stop - start) / step is inf: no point count, so no OverflowError later
        with pytest.raises(ValueError, match="^grid axis 'k' has more steps than a float can count$"):
            sweeps.GridAxis("k", start, stop, step)

    @pytest.mark.parametrize("start, stop, step", [(-4.0, 4.0, 1e-12), (0.0, 1.0, 1e-300)])
    def test_rejects_axis_beyond_the_point_bound(self, start, stop, step):
        with pytest.raises(ValueError) as info:
            sweeps.GridAxis("k", start, stop, step)
        assert str(info.value) == "grid axis 'k' has more than 1000000 points"

    def test_axis_at_the_point_bound_accepted(self):
        # only the count is asked for: no list of a million values is built
        assert sweeps.GridAxis("k", 1.0, 1e6, 1.0).count == 10**6

    @pytest.mark.parametrize("end", ["start", "stop", "step"])
    def test_rejects_nan(self, end):
        ends = {"start": 0.0, "stop": 1.0, "step": 0.1, end: math.nan}
        with pytest.raises(ValueError) as info:
            sweeps.GridAxis("k", **ends)
        assert str(info.value) == "grid axis 'k' must be finite, got nan"

    @pytest.mark.parametrize("bad", [None, "a", 1j], ids=["None", "str", "complex"])
    @pytest.mark.parametrize("end", ["start", "stop", "step"])
    def test_rejects_non_numbers(self, end, bad):
        ends = {"start": 0.0, "stop": 1.0, "step": 0.1, end: bad}
        with pytest.raises(ValueError) as info:
            sweeps.GridAxis("k", **ends)
        assert str(info.value) == f"grid axis 'k' must be finite, got {bad!r}"

    def test_numeric_strings_convert(self):
        # the ends go through the records' converter, which takes what float() takes
        axis = sweeps.GridAxis("k", "0", "1", "0.5")
        assert (axis.start, axis.stop, axis.step) == (0.0, 1.0, 0.5)


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

    @pytest.mark.parametrize("lookup", [sweeps.default_spec, sweeps.csv_name])
    def test_unhashable_id_rejected(self, lookup):
        with pytest.raises(ConfigError, match=r"^unknown figure_id \[\]; expected one of: fig2_densities, "):
            lookup([])

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
            sweeps.SweepTable(("x",), ((float("nan"),),), {})

    def test_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            sweeps.SweepTable(("x", "y"), ((1.0,),), {})

    COLUMNS = ("x", "y", "z")
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

    @pytest.mark.parametrize("big", [1.7e308, -1.7e308])
    def test_finite_values_whose_sum_overflows_kept(self, big):
        # the one-sum finiteness test overflows; the scan it falls back to
        # finds every value finite
        rows = self.VALID + [(big, big, 0.0), (big, -big, big)]
        table = sweeps.SweepTable(self.COLUMNS, rows, {})
        assert table.rows == tuple(rows)

    def test_ragged_row_reported_before_later_non_finite(self):
        rows = self.VALID + [(float("nan"), 0.0, 0.0), (1.0,)]
        with pytest.raises(ValueError, match="^non-finite value nan in column 'x', row 1000$"):
            sweeps.SweepTable(self.COLUMNS, rows, {})
        rows = self.VALID + [(1.0,), (float("nan"), 0.0, 0.0)]
        with pytest.raises(ValueError, match="^row 1000 has 1 values for 3 columns$"):
            sweeps.SweepTable(self.COLUMNS, rows, {})

    @pytest.mark.parametrize(
        "rows, message",
        [
            (((None,),), "row 0 must be a sequence of floats, got (None,)"),
            ((1.0,), "row 0 must be a sequence of floats, got 1.0"),
            (((1.0,), ("one",)), "row 1 must be a sequence of floats, got ('one',)"),
        ],
        ids=["None", "bare-float", "word"],
    )
    def test_rows_that_are_not_sequences_of_floats_named(self, rows, message):
        with pytest.raises(ValueError) as info:
            sweeps.SweepTable(("x",), rows, {})
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: sweeps.SweepTable(("x",), None, {}), "rows must be a sequence of rows, got None"),
            (lambda: sweeps.SweepTable(("x",), ((1.0,),), None), "metadata must be a mapping, got None"),
            (lambda: sweeps.SweepTable(None, ((1.0,),), {}), "columns must be a sequence of names, got None"),
            (lambda: sweeps.SweepSpec("fig2_densities", None, ()), "fixed_params must be a mapping, got None"),
            (lambda: sweeps.SweepSpec("fig2_densities", {}, None), "grid must be a sequence of GridAxis, got None"),
        ],
        ids=["table-rows", "table-metadata", "table-columns", "spec-fixed_params", "spec-grid"],
    )
    def test_missing_collections_named(self, build, message):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message

    def test_table_stores_float_tuples(self):
        table = sweeps.SweepTable(self.COLUMNS[:2], [[1, True], (0.5, "2")], {"a": "b"})
        assert table.rows == ((1.0, 1.0), (0.5, 2.0))
        assert all(type(v) is float for row in table.rows for v in row)
        assert table.columns == self.COLUMNS[:2] and table.metadata == {"a": "b"}


class TestFigureContent:
    def test_fig2_center_row(self):
        table = sweeps.run_sweep(sweeps.default_spec("fig2_densities"))
        assert len(table.rows) == 801
        assert list(table.columns) == ["k", "P_C", "P_0"]
        center = table.rows[400]
        assert center[0] == 0.0
        assert center[1] == pytest.approx(0.6797492720018076, abs=1e-15)
        assert center[2] == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-16)

    def test_fig6_reaches_fixed_points(self):
        table = sweeps.run_sweep(sweeps.default_spec("fig6_pout_vs_pin"))
        assert len(table.rows) == 999
        names = list(table.columns)
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
        names = list(table.columns)
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
        names = list(table.columns)
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
        names = list(table.columns)
        for row in table.rows:
            record = dict(zip(names, row))
            assert record["p_final"] < record["p_in"]
            assert record["net_change"] == pytest.approx(
                record["p_final"] - record["p_in"], abs=1e-15
            )

    @pytest.mark.parametrize("figure_id", sweeps.FIGURE_IDS)
    def test_custom_grid_gives_the_first_rows(self, figure_id):
        # the first points of the leading default axis, same start and step;
        # only concat_scan has a second axis, its full p_in axis of 99 points
        spec = sweeps.default_spec(figure_id)
        first, *rest = spec.grid
        points = 2 if rest else 3
        head = sweeps.GridAxis(
            first.name, first.start, first.start + (points - 1) * first.step, first.step
        )
        table = sweeps.run_sweep(sweeps.SweepSpec(figure_id, spec.fixed_params, (head, *rest)))
        expected = 198 if rest else 3
        default = sweeps.run_sweep(spec)
        assert len(table.rows) == expected
        assert table.rows == default.rows[:expected]
        assert table.columns == default.columns


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
        table = sweeps.SweepTable(tuple(f"c{i}" for i in range(len(values))), rows, {})
        path = tmp_path / "edges.csv"
        sweeps.emit_csv(table, path, reproducible=True)
        body = path.read_text().splitlines()[1:]
        assert body == [",".join(format(v, ".12g") for v in row) for row in rows]
        assert body[0] == "-0,4.94065645841e-324,1e-05,0.3,1e+16,123456789012,7"

    @pytest.mark.parametrize("figure_id", sweeps.FIGURE_IDS)
    def test_rows_are_kept_as_built(self, figure_id):
        table = sweeps.run_sweep(sweeps.default_spec(figure_id))
        assert type(table.rows) is tuple
        assert all(type(row) is tuple for row in table.rows)
        assert all(type(v) is float for row in table.rows for v in row)
        # a table of float tuples keeps the very rows it is given
        assert sweeps.SweepTable(table.columns, table.rows, table.metadata).rows is table.rows

    def test_lists_and_ints_emit_the_same_bytes(self, tmp_path):
        table = sweeps.run_sweep(sweeps.default_spec("fig8_gain_and_density_vs_T"))
        loose = [[int(v) if v.is_integer() else v for v in row] for row in table.rows]
        assert any(type(v) is int for row in loose for v in row)
        paths = tmp_path / "built.csv", tmp_path / "loose.csv"
        sweeps.emit_csv(table, paths[0], reproducible=True)
        sweeps.emit_csv(sweeps.SweepTable(table.columns, loose, table.metadata), paths[1], reproducible=True)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_table_without_rows_emits_the_header_only(self, tmp_path):
        table = sweeps.SweepTable(("x", "y"), (), {"figure": "none"})
        path = tmp_path / "empty.csv"
        sweeps.emit_csv(table, path, reproducible=True)
        assert path.read_bytes() == b"# figure: none\nx[1],y[1]\n"

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


def _regrid(figure_id, *axes):
    spec = sweeps.default_spec(figure_id)
    return sweeps.SweepSpec(figure_id, spec.fixed_params, axes)


class TestGridDomains:
    """Both ends of every grid axis are checked against the domain of the
    parameter it scans, the same domain a fixed value of that name has,
    before any row is built."""

    @pytest.mark.parametrize(
        "figure_id, axis, bad, domain",
        [
            ("fig6_pout_vs_pin", sweeps.GridAxis("p_in", 1.5, 2.0, 0.1), 1.5, "(0, 1]"),
            ("fig6_pout_vs_pin", sweeps.GridAxis("p_in", -0.5, 0.5, 0.1), -0.5, "(0, 1]"),
            ("fig6_pout_vs_pin", sweeps.GridAxis("p_in", 0.0, 0.5, 0.1), 0.0, "(0, 1]"),
            ("fig6_pout_vs_pin", sweeps.GridAxis("p_in", 0.5, 1.5, 0.1), 1.5, "(0, 1]"),
            ("fig8_gain_and_density_vs_T", sweeps.GridAxis("T", 0.5, 1.2, 0.1), 1.2, "(0, 1]"),
            ("fig8_gain_and_density_vs_T", sweeps.GridAxis("T", 0.0, 0.5, 0.1), 0.0, "(0, 1]"),
        ],
    )
    def test_out_of_domain_end_named(self, figure_id, axis, bad, domain):
        with pytest.raises(ValueError) as info:
            sweeps.run_sweep(_regrid(figure_id, axis))
        assert str(info.value) == f"{figure_id}: grid {axis.name} must lie in {domain}, got {bad!r}"

    def test_amplitude_axis(self):
        axis = sweeps.GridAxis("alpha", -1.0, 1.0, 0.5)
        with pytest.raises(ValueError) as info:
            sweeps.run_sweep(_regrid("fig7_gain_vs_alpha", axis))
        assert str(info.value) == "fig7_gain_vs_alpha: grid alpha must be a finite real >= 0, got -1.0"

    def test_second_axis_checked(self):
        spec = sweeps.default_spec("concat_scan")
        axes = (spec.grid[0], sweeps.GridAxis("p_in", 0.0, 0.5, 0.1))
        with pytest.raises(ValueError, match="concat_scan: grid p_in must lie in"):
            sweeps.run_sweep(_regrid("concat_scan", *axes))

    def test_checked_before_any_row(self, monkeypatch):
        def fail(*args):
            raise AssertionError("a row was built")

        monkeypatch.setattr(analytic, "_ratio", fail)
        with pytest.raises(ValueError, match="grid p_in"):
            sweeps.run_sweep(_regrid("fig6_pout_vs_pin", sweeps.GridAxis("p_in", 0.5, 1.5, 0.1)))

    def test_grid_beyond_the_point_bound_rejected(self, monkeypatch):
        def fail(*args):
            raise AssertionError("a grid list was built")

        axes = (sweeps.GridAxis("alpha", 0.05, 2.0, 0.001), sweeps.GridAxis("p_in", 0.01, 0.99, 0.0001))
        monkeypatch.setattr(sweeps.GridAxis, "values", fail)
        with pytest.raises(ValueError) as info:
            sweeps.run_sweep(_regrid("concat_scan", *axes))
        assert str(info.value) == "concat_scan: the grid has 19121751 points, more than 1000000"

    def test_ends_inside_accepted(self):
        table = sweeps.run_sweep(_regrid("fig6_pout_vs_pin", sweeps.GridAxis("p_in", 0.5, 1.0, 0.25)))
        assert [row[0] for row in table.rows] == [0.5, 0.75, 1.0]


class TestRowsComputeOnCheckedFloats:
    """Every figure but concat_scan computes its rows through the closed
    forms' private kernels; concat_scan calls concat_stages on every row."""

    @pytest.mark.parametrize(
        "figure_id",
        [
            "fig2_densities",
            "fig3_densities",
            "fig4_gain_vs_k_phi0",
            "fig5_gain_vs_k_phipi",
            "fig6_pout_vs_pin",
            "fig7_gain_vs_alpha",
            "fig8_gain_and_density_vs_T",
        ],
    )
    def test_no_row_calls_a_checking_closed_form(self, figure_id, monkeypatch):
        def fail(*args):
            raise AssertionError("a row re-checked its inputs")

        monkeypatch.setattr(analytic, "theta_of_k", fail)
        monkeypatch.setattr(analytic, "detection_ratio", fail)
        monkeypatch.setattr(analytic, "homodyne_density_css", fail)
        monkeypatch.setattr(analytic, "homodyne_density_mix", fail)
        assert sweeps.run_sweep(sweeps.default_spec(figure_id)).rows

    @pytest.mark.parametrize(
        "figure_id, fixed",
        [
            ("fig2_densities", {}),
            ("fig2_densities", {"phi": 7.0, "alpha": 0.3, "T": 0.9}),
            ("fig3_densities", {}),
            ("fig3_densities", {"phi": -1.0, "alpha": 30.0, "T": 5e-324}),
            ("fig3_densities", {"alpha": 1e-100}),
        ],
    )
    def test_densities_match_the_public_closed_forms(self, figure_id, fixed):
        # the rows use the record's reduced phase, as the public form does
        table = sweeps.run_sweep(_override(figure_id, **fixed))
        spec = _override(figure_id, **fixed).fixed_params
        params = CssParams(spec["alpha"], spec["phi"])
        assert table.rows == tuple(
            (k, analytic.homodyne_density_css(k, params, spec["T"]), analytic.homodyne_density_mix(k))
            for k, _, _ in table.rows
        )

    def test_fig8_densities_match_the_public_closed_form(self):
        table = sweeps.run_sweep(sweeps.default_spec("fig8_gain_and_density_vs_T"))
        aligned, opposed = CssParams(1.0, 0.0), CssParams(1.0, math.pi)
        for T, *_, density0, _, _, density_pi, degenerate in table.rows:
            assert density0 == analytic.homodyne_density_css(0.0, aligned, T)
            if not degenerate:
                k = analytic.optimal_k(opposed, 1.0 - T)
                assert density_pi == analytic.homodyne_density_css(k, opposed, T)

    def test_matched_tap_is_read_at_pi(self):
        # k_pi solves theta(k_pi) = pi, so cos(pi + theta(k_pi)) rounds to 1
        # as cos(2 pi) does; the ratio at theta(k_pi) is the reference
        rng = random.Random(20261020)
        for _ in range(20000):
            alpha = 10.0 ** rng.uniform(-8.0, math.log10(30.0))
            T = rng.uniform(1e-9, 1.0 - 1e-9)
            k_pi = analytic.optimal_k(CssParams(alpha, math.pi), 1.0 - T)
            reference = analytic._ratio(alpha, math.pi, T, analytic._theta(k_pi, alpha, 1.0 - T))
            ratio_pi = sweeps._matched_ratios(alpha, T)[1]
            assert ratio_pi.hex() == reference.hex(), (alpha, T)

    @pytest.mark.parametrize("figure_id", ["fig2_densities", "fig3_densities"])
    def test_degenerate_pair_rejected_before_any_row(self, figure_id, monkeypatch):
        def fail(*args):
            raise AssertionError("a row was built")

        # the density kernel takes the pair's norm before its Gaussian factor
        monkeypatch.setattr(analytic, "_gaussian", fail)
        with pytest.raises(DegenerateStateError) as info:
            sweeps.run_sweep(_override(figure_id, alpha=0.0, phi=math.pi))
        assert str(info.value) == "the superposition at alpha=0.0, phi=3.141592653589793 has zero norm"

    @pytest.mark.parametrize(
        "alpha, error, message",
        [
            (0.0, "PhysicsError", "no outcome can imprint a phase when alpha=0 or R=0"),
            (1e-310, "ZeroDensityError", "event of zero density: the outcome that cancels the phase "
             "at alpha=1e-310, R=0.95 is beyond the float range and never occurs"),
            (1e-170, "DegenerateStateError",
             "the superposition at alpha=1e-170, phi=3.141592653589793 has zero norm"),
        ],
    )
    def test_fig8_small_amplitudes_fail_as_the_first_row_does(self, alpha, error, message):
        # optimal_k's errors come before the odd pair's zero norm
        with pytest.raises(Exception) as info:
            sweeps.run_sweep(_override("fig8_gain_and_density_vs_T", alpha=alpha))
        assert (type(info.value).__name__, str(info.value)) == (error, message)

    @pytest.mark.parametrize(
        "spec, alpha",
        [
            (_override("fig5_gain_vs_k_phipi", alpha=0.0), 0.0),
            (_override("fig6_pout_vs_pin", alpha=1e-170), 1e-170),
            (_regrid("fig7_gain_vs_alpha", sweeps.GridAxis("alpha", 1e-170, 2.0, 0.01)), 1e-170),
        ],
        ids=["fig5", "fig6", "fig7"],
    )
    def test_zero_norm_odd_pair_rejected(self, spec, alpha):
        # the phase-pi ratio divides by the odd pair's norm, which is 0 here
        with pytest.raises(DegenerateStateError) as info:
            sweeps.run_sweep(spec)
        assert str(info.value) == f"the superposition at alpha={alpha!r}, phi=3.141592653589793 has zero norm"

    @pytest.mark.parametrize("figure_id", ["fig4_gain_vs_k_phi0", "fig5_gain_vs_k_phipi"])
    @pytest.mark.parametrize(
        "axis",
        # past |k| = 27.28 e^{-k^2} underflows; near the float limit theta
        # overflows too
        [sweeps.GridAxis("k", 30.0, 40.0, 5.0), sweeps.GridAxis("k", 1e307, 1.7e308, 5e307)],
        ids=["underflow", "overflow"],
    )
    def test_outcome_that_never_occurs_rejected(self, figure_id, axis):
        # the same error purify raises for the first outcome of the grid
        spec = _regrid(figure_id, axis)
        fixed = spec.fixed_params
        state = MixedCss(CssParams(fixed["alpha"], fixed["phi"]), fixed["p_in"])
        with pytest.raises(ZeroDensityError) as expected:
            analytic.purify(state, TapSetting(fixed["T"], axis.start))
        with pytest.raises(ZeroDensityError) as info:
            sweeps.run_sweep(spec)
        message = f"event of zero density: the outcome k={axis.start!r} never occurs"
        assert str(info.value) == str(expected.value) == message

    @pytest.mark.parametrize("figure_id", ["fig4_gain_vs_k_phi0", "fig5_gain_vs_k_phipi"])
    def test_last_outcomes_that_occur_keep_their_rows(self, figure_id):
        table = sweeps.run_sweep(_regrid(figure_id, sweeps.GridAxis("k", -27.0, 27.0, 27.0)))
        assert [k for k, _, _ in table.rows] == [-27.0, 0.0, 27.0]


class TestConcatScanWork:
    """`concat_scan` pays its per-amplitude work once per alpha: the rows
    still call `concat_stages` and `amplify`, whose memos keep a handful of
    amplitudes, so each sweep computes every alpha's constants once."""

    _KERNELS = (analytic._concat_constants, analytic._amplifier)

    def test_checks_per_row(self, monkeypatch):
        calls = 0
        original = states._checked

        def counting(*args):
            nonlocal calls
            calls += 1
            return original(*args)

        for module in (states, analytic, sweeps):
            monkeypatch.setattr(module, "_checked", counting)
        spec = sweeps.default_spec("concat_scan")
        sweeps.run_sweep(spec)
        # per sweep: both ends of both grid axes. A row's p_in, alpha and two
        # MixedCss, and an alpha's two CssParams records, are exact floats
        # inside their domains, which pass one comparison and no check call
        assert calls <= 4

    def test_each_amplitude_computed_once_per_sweep(self):
        for kernel in self._KERNELS:
            kernel.cache_clear()
        spec = sweeps.default_spec("concat_scan")
        alphas = spec.grid[0].count
        for _ in range(2):
            before = [kernel.cache_info().misses for kernel in self._KERNELS]
            sweeps.run_sweep(spec)
            after = [kernel.cache_info().misses for kernel in self._KERNELS]
            assert [b - a for a, b in zip(before, after)] == [alphas, alphas]


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
            ("fig6_pout_vs_pin", "T", None, "(0, 1]"),
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

        monkeypatch.setattr(analytic, "_ratio", fail)
        with pytest.raises(ValueError, match="fixed p_in"):
            sweeps.run_sweep(_override("fig4_gain_vs_k_phi0", p_in=1.5))

    @pytest.mark.parametrize("figure_id", ["fig4_gain_vs_k_phi0", "fig7_gain_vs_alpha"])
    def test_unit_fraction_accepted(self, figure_id):
        table = sweeps.run_sweep(_override(figure_id, p_in=1.0))
        assert all(row[1] == 1.0 for row in table.rows)
