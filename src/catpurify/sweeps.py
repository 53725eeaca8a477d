"""Deterministic parameter sweeps behind the figure datasets.

Each figure identifier names a fixed recipe: which parameters are frozen,
which axis (or axes) is scanned, and which closed-form quantities land in
the columns. Tables are plain tuples of floats with ordered metadata, and
``emit_csv`` writes them as commented CSV that is byte-identical across
runs (the timestamp line is suppressed under ``reproducible=True``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import chain
from typing import Callable, Iterable, Mapping

from . import analytic
from ._version import __version__
from .errors import ConfigError
from .states import _FINITE, _NONNEGATIVE, _POSITIVE_UNIT, CssParams, _checked

__all__ = [
    "GridAxis",
    "SweepSpec",
    "SweepTable",
    "FIGURE_IDS",
    "default_spec",
    "run_sweep",
    "emit_csv",
    "csv_name",
]


@dataclass(frozen=True)
class GridAxis:
    name: str
    start: float
    stop: float
    step: float

    def __post_init__(self) -> None:
        if not (
            math.isfinite(self.start)
            and math.isfinite(self.stop)
            and math.isfinite(self.step)
        ):
            raise ValueError(f"grid axis {self.name!r} must be finite")
        if self.step <= 0.0 or self.start >= self.stop:
            raise ValueError(
                f"grid axis {self.name!r} needs step > 0 and start < stop"
            )

    @property
    def count(self) -> int:
        # the 1e-9 guard implements an exact-arithmetic floor((stop-start)/step)
        # that float division alone would occasionally miss by one ulp
        return int(math.floor((self.stop - self.start) / self.step + 1e-9)) + 1

    def values(self) -> list[float]:
        vals = [self.start + i * self.step for i in range(self.count)]
        if abs(vals[-1] - self.stop) <= 1e-9 * self.step:
            vals[-1] = self.stop
        return vals


@dataclass(frozen=True)
class SweepSpec:
    figure_id: str
    fixed_params: Mapping[str, float]
    grid: tuple[GridAxis, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "fixed_params", dict(self.fixed_params))
        object.__setattr__(self, "grid", tuple(self.grid))


@dataclass(frozen=True)
class SweepTable:
    columns: tuple[tuple[str, str], ...]
    rows: tuple[tuple[float, ...], ...]
    metadata: Mapping[str, str]

    def __post_init__(self) -> None:
        rows = tuple(tuple(map(float, row)) for row in self.rows)
        width = len(self.columns)
        # one pass over the whole table; the rows are walked only to name
        # the first bad one
        if not (
            set(map(len, rows)) <= {width}
            and all(map(math.isfinite, chain.from_iterable(rows)))
        ):
            for i, row in enumerate(rows):
                if len(row) != width:
                    raise ValueError(
                        f"row {i} has {len(row)} values for {width} columns"
                    )
                for (name, _), v in zip(self.columns, row):
                    if not math.isfinite(v):
                        raise ValueError(
                            f"non-finite value {v!r} in column {name!r}, row {i}"
                        )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "metadata", dict(self.metadata))


@dataclass(frozen=True)
class _Figure:
    fixed: dict[str, float]
    axes: tuple[GridAxis, ...]
    columns: tuple[tuple[str, str], ...]
    build: Callable[[dict[str, float], tuple[GridAxis, ...]], Iterable[tuple[float, ...]]]


# the domain of each parameter a figure may fix; a fixed p_in of 0 leaves
# no superposition to purify, and the gain p_out / p_in is then 0 / 0
_FIXED_DOMAINS = {
    "alpha": _NONNEGATIVE, "phi": _FINITE, "T": _POSITIVE_UNIT, "p_in": _POSITIVE_UNIT
}


def _k_axis() -> GridAxis:
    return GridAxis("k", -4.0, 4.0, 0.01)


def _density_rows(fixed, axes):
    params = CssParams(fixed["alpha"], fixed["phi"])
    T = fixed["T"]
    for k in axes[0].values():
        yield (
            k,
            analytic.homodyne_density_css(k, params, T),
            analytic.homodyne_density_mix(k),
        )


def _gain_vs_k_rows(fixed, axes):
    params = CssParams(fixed["alpha"], fixed["phi"])
    T = fixed["T"]
    p_in = fixed["p_in"]
    R = 1.0 - T
    for k in axes[0].values():
        theta = analytic.theta_of_k(k, params.alpha, R)
        p_out = analytic._posterior(p_in, analytic.detection_ratio(params, T, theta))
        yield (k, p_out, p_out / p_in)


def _matched_ratios(alpha, T):
    """Detection ratios of the two phase-matched taps at amplitude alpha:
    phi=0 read at k=0, and phi=pi read at k_pi, the outcome whose phase
    cancels pi. Returns (ratio_0, ratio_pi, k_pi)."""
    R = 1.0 - T
    opposed = CssParams(alpha, math.pi)
    k_pi = analytic.optimal_k(opposed, R)
    theta_pi = analytic.theta_of_k(k_pi, alpha, R)
    return (
        analytic.detection_ratio(CssParams(alpha, 0.0), T, 0.0),
        analytic.detection_ratio(opposed, T, theta_pi),
        k_pi,
    )


def _pout_rows(fixed, axes):
    """fig6 scans p_in at a fixed alpha, fig7 scans alpha at a fixed p_in;
    the ratios depend on alpha alone, so they are computed once per alpha."""
    (axis,) = axes
    by_alpha = axis.name == "alpha"
    alphas = axis.values() if by_alpha else (fixed["alpha"],)
    p_values = (fixed["p_in"],) if by_alpha else axis.values()
    for alpha in alphas:
        ratio0, ratio_pi, _ = _matched_ratios(alpha, fixed["T"])
        for p_in in p_values:
            out0 = analytic._posterior(p_in, ratio0)
            out_pi = analytic._posterior(p_in, ratio_pi)
            x = alpha if by_alpha else p_in
            yield (x, out0, out0 - p_in, out_pi, out_pi - p_in)


def _gain_density_vs_T_rows(fixed, axes):
    alpha = fixed["alpha"]
    p_in = fixed["p_in"]
    aligned = CssParams(alpha, 0.0)
    opposed = CssParams(alpha, math.pi)
    for T in axes[0].values():
        density0 = analytic.homodyne_density_css(0.0, aligned, T)
        if T == 1.0:
            # the favorable outcome recedes to k -> inf: the phase-pi tap
            # still shows the limiting gain but the event has density 0;
            # the blind phi=0 tap leaves the fraction as it is
            ratio0, ratio_pi = 1.0, analytic.detection_ratio(opposed, T, math.pi)
            density_pi = 0.0
        else:
            ratio0, ratio_pi, k_pi = _matched_ratios(alpha, T)
            density_pi = analytic.homodyne_density_css(k_pi, opposed, T)
        out0 = analytic._posterior(p_in, ratio0)
        out_pi = analytic._posterior(p_in, ratio_pi)
        yield (
            T,
            out0,
            out0 / p_in,
            density0,
            out_pi,
            out_pi / p_in,
            density_pi,
            float(T == 1.0),
        )


def _concat_rows(fixed, axes):
    del fixed
    alpha_axis, p_axis = axes
    p_values = p_axis.values()
    for alpha in alpha_axis.values():
        for p_in in p_values:
            p_mid, p_final = analytic.concat_stages(p_in, alpha)
            yield (alpha, p_in, p_mid, p_final, p_final - p_in)


_FIGURES: dict[str, _Figure] = {
    "fig2_densities": _Figure(
        {"T": 0.5, "alpha": 1.0, "phi": 0.0},
        (_k_axis(),),
        (("k", "1"), ("P_C", "1"), ("P_0", "1")),
        _density_rows,
    ),
    "fig3_densities": _Figure(
        {"T": 0.5, "alpha": 1.0, "phi": math.pi},
        (_k_axis(),),
        (("k", "1"), ("P_C", "1"), ("P_0", "1")),
        _density_rows,
    ),
    "fig4_gain_vs_k_phi0": _Figure(
        {"T": 0.5, "alpha": 1.0, "phi": 0.0, "p_in": 0.5},
        (_k_axis(),),
        (("k", "1"), ("p_out", "1"), ("gain", "1")),
        _gain_vs_k_rows,
    ),
    "fig5_gain_vs_k_phipi": _Figure(
        {"T": 0.5, "alpha": 1.0, "phi": math.pi, "p_in": 0.5},
        (_k_axis(),),
        (("k", "1"), ("p_out", "1"), ("gain", "1")),
        _gain_vs_k_rows,
    ),
    "fig6_pout_vs_pin": _Figure(
        {"T": 0.5, "alpha": 1.0},
        (GridAxis("p_in", 0.001, 0.999, 0.001),),
        (
            ("p_in", "1"),
            ("p_out_phi0", "1"),
            ("improvement_phi0", "1"),
            ("p_out_phipi", "1"),
            ("improvement_phipi", "1"),
        ),
        _pout_rows,
    ),
    "fig7_gain_vs_alpha": _Figure(
        {"T": 0.5, "p_in": 0.5},
        (GridAxis("alpha", 0.05, 2.0, 0.01),),
        (
            ("alpha", "1"),
            ("p_out_phi0", "1"),
            ("improvement_phi0", "1"),
            ("p_out_phipi", "1"),
            ("improvement_phipi", "1"),
        ),
        _pout_rows,
    ),
    "fig8_gain_and_density_vs_T": _Figure(
        {"alpha": 1.0, "p_in": 0.5},
        (GridAxis("T", 0.05, 1.0, 0.005),),
        (
            ("T", "1"),
            ("p_out_phi0", "1"),
            ("gain_phi0", "1"),
            ("density_phi0", "1"),
            ("p_out_phipi", "1"),
            ("gain_phipi", "1"),
            ("density_phipi", "1"),
            ("degenerate", "1"),
        ),
        _gain_density_vs_T_rows,
    ),
    "concat_scan": _Figure(
        {},
        (GridAxis("alpha", 0.05, 2.0, 0.01), GridAxis("p_in", 0.01, 0.99, 0.01)),
        (
            ("alpha", "1"),
            ("p_in", "1"),
            ("p_mid", "1"),
            ("p_final", "1"),
            ("net_change", "1"),
        ),
        _concat_rows,
    ),
}

FIGURE_IDS = tuple(_FIGURES)


def default_spec(figure_id: str) -> SweepSpec:
    """The stock recipe for a figure: default fixed parameters and grid."""
    fig = _figure(figure_id)
    return SweepSpec(figure_id, dict(fig.fixed), fig.axes)


def csv_name(figure_id: str) -> str:
    _figure(figure_id)
    return f"{figure_id}.csv"


def _figure(figure_id: str) -> _Figure:
    try:
        return _FIGURES[figure_id]
    except KeyError:
        known = ", ".join(FIGURE_IDS)
        raise ConfigError(
            f"unknown figure_id {figure_id!r}; expected one of: {known}"
        ) from None


def _validate(spec: SweepSpec, fig: _Figure) -> None:
    problems = []
    missing = sorted(set(fig.fixed) - set(spec.fixed_params))
    extra = sorted(set(spec.fixed_params) - set(fig.fixed))
    if missing:
        problems.append(f"missing fixed parameter(s): {', '.join(missing)}")
    if extra:
        problems.append(f"unknown fixed parameter(s): {', '.join(extra)}")
    expected_axes = tuple(axis.name for axis in fig.axes)
    got_axes = tuple(axis.name for axis in spec.grid)
    if got_axes != expected_axes:
        problems.append(
            f"grid axes {got_axes!r} do not match the figure's {expected_axes!r}"
        )
    if problems:
        raise ConfigError(f"{spec.figure_id}: " + "; ".join(problems))


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate a sweep. Deterministic: rows follow the grid order and every
    value comes from the closed-form layer. A fixed parameter outside its
    domain is a ValueError, raised before any row is built."""
    fig = _figure(spec.figure_id)
    _validate(spec, fig)
    fixed = {
        name: _checked(v, f"{spec.figure_id}: fixed {name}", _FIXED_DOMAINS[name])
        for name, v in spec.fixed_params.items()
    }
    rows = tuple(fig.build(fixed, spec.grid))
    metadata: dict[str, str] = {"figure": spec.figure_id}
    if fixed:
        metadata["fixed"] = " ".join(
            f"{name}={format(value, '.12g')}" for name, value in sorted(fixed.items())
        )
    for axis in spec.grid:
        metadata[f"grid.{axis.name}"] = (
            f"start={format(axis.start, '.12g')} "
            f"stop={format(axis.stop, '.12g')} "
            f"step={format(axis.step, '.12g')} points={axis.count}"
        )
    metadata["package"] = f"catpurify {__version__}"
    return SweepTable(fig.columns, rows, metadata)


def emit_csv(table: SweepTable, path: str, reproducible: bool = False) -> None:
    """Write a table as commented CSV: `# key: value` metadata lines, a
    `name[unit]` header, then rows at 12 significant digits with LF
    endings. With reproducible=True no timestamp line is written and the
    bytes depend on the table alone."""
    lines = [f"# {key}: {value}" for key, value in table.metadata.items()]
    if not reproducible:
        stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        lines.append(f"# generated: {stamp}")
    lines.append(",".join(f"{name}[{unit}]" for name, unit in table.columns))
    # "%.12g" % v formats exactly as format(v, ".12g")
    template = ",".join(["%.12g"] * len(table.columns))
    lines += [template % row for row in table.rows]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
