"""Deterministic parameter sweeps behind the figure datasets.

Each figure identifier declares a recipe: its fixed values, its grid, its
column names and one row expression over the closed-form layer.
``run_sweep`` evaluates that expression at every point of the grid, in the
order of the axes' product. Tables are plain tuples of floats with ordered
metadata, and ``emit_csv`` writes them as commented CSV that is
byte-identical across runs (the timestamp line is suppressed under
``reproducible=True``).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import chain, product, starmap
from typing import Callable, Mapping

from . import analytic
from ._version import __version__
from .errors import ConfigError
from .states import _FINITE, _NONNEGATIVE, _POSITIVE_UNIT, CssParams, _checked, _reduce_phase, _required

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


# the most points an axis or a whole grid may hold, about 50 concat_scans
_MAX_GRID_POINTS = 10**6


@dataclass(frozen=True)
class GridAxis:
    name: str
    start: float
    stop: float
    step: float

    def __post_init__(self) -> None:
        for end in ("start", "stop", "step"):
            object.__setattr__(self, end, _checked(getattr(self, end), f"grid axis {self.name!r}", _FINITE))
        if self.step <= 0.0 or self.start >= self.stop:
            raise ValueError(f"grid axis {self.name!r} needs step > 0 and start < stop")
        if math.isinf((self.stop - self.start) / self.step):
            raise ValueError(f"grid axis {self.name!r} has more steps than a float can count")
        if self.count > _MAX_GRID_POINTS:
            raise ValueError(f"grid axis {self.name!r} has more than {_MAX_GRID_POINTS} points")

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
        fixed = _collection(dict, self.fixed_params, "fixed_params", "a mapping")
        for name in fixed:
            _required(name, "fixed_params key", str)
        as_axes = lambda grid: tuple(_required(axis, "axis", GridAxis) for axis in grid)  # noqa: E731
        axes = _collection(as_axes, self.grid, "grid", "a sequence of GridAxis")
        object.__setattr__(self, "fixed_params", fixed)
        object.__setattr__(self, "grid", axes)


def _collection(convert, value, label: str, kind: str):
    """convert(value), or a ValueError that names `label` and shows the value
    as given."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{label} must be {kind}, got {value!r}") from None


@dataclass(frozen=True)
class SweepTable:
    columns: tuple[str, ...]  # names; every column is dimensionless
    rows: tuple[tuple[float, ...], ...]
    metadata: Mapping[str, str]

    def __post_init__(self) -> None:
        columns = _collection(tuple, self.columns, "columns", "a sequence of names")
        # one type scan keeps run_sweep's tuples of floats as built
        rows = _collection(tuple, self.rows, "rows", "a sequence of rows")
        if not (set(map(type, rows)) <= {tuple} and set(map(type, chain.from_iterable(rows))) <= {float}):
            rows = tuple(
                _collection(lambda r: tuple(map(float, r)), row, f"row {i}", "a sequence of floats")
                for i, row in enumerate(rows)
            )
        width = len(columns)
        # a finite sum means every value is finite; otherwise the rows are
        # walked to name the first bad value, which an overflowed sum lacks
        if not (set(map(len, rows)) <= {width} and math.isfinite(sum(chain.from_iterable(rows)))):
            for i, row in enumerate(rows):
                if len(row) != width:
                    raise ValueError(f"row {i} has {len(row)} values for {width} columns")
                for name, v in zip(columns, row):
                    if not math.isfinite(v):
                        raise ValueError(f"non-finite value {v!r} in column {name!r}, row {i}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "metadata", _collection(dict, self.metadata, "metadata", "a mapping"))


@dataclass(frozen=True)
class _Figure:
    """A figure's recipe: its default fixed values and grid, its column
    names, and its row expression. `row(**fixed)` builds the table's
    constants once and returns the function of one grid point, which takes
    the point's coordinates in grid order."""

    fixed: dict[str, float]
    axes: tuple[GridAxis, ...]
    columns: str
    row: Callable[..., Callable[..., tuple[float, ...]]]


# the domain of each parameter a figure fixes or scans, one per name; a p_in
# of 0 leaves no superposition to purify, and the gain p_out / p_in is 0 / 0
_DOMAINS = {
    "alpha": _NONNEGATIVE, "phi": _FINITE, "T": _POSITIVE_UNIT, "p_in": _POSITIVE_UNIT, "k": _FINITE
}


def _densities(T, alpha, phi):
    phi = _reduce_phase(phi)
    return lambda k: (k, analytic._homodyne_density(k, alpha, phi, T), analytic._gaussian(k))


def _gain_vs_k(T, alpha, phi, p_in):
    phi = _reduce_phase(phi)
    R = 1.0 - T

    def row(k):
        if analytic._gaussian(k) == 0.0:
            # no component produces k, and theta(k) may overflow there
            raise analytic._never_occurs(k)
        theta = analytic._theta(k, alpha, R)
        p_out = analytic._posterior(p_in, analytic._ratio(alpha, phi, T, theta))
        return k, p_out, p_out / p_in

    return row


def _matched_ratios(alpha, T):
    """Detection ratios of the two phase-matched taps at amplitude alpha:
    phi=0 read at k=0, and phi=pi read at k_pi, the outcome whose phase
    cancels pi. k_pi imprints theta = pi, so its tap is read at pi; optimal_k
    raises where no such outcome exists. Returns (ratio_0, ratio_pi, k_pi)."""
    k_pi = analytic.optimal_k(CssParams(alpha, math.pi), 1.0 - T)
    return analytic._ratio(alpha, 0.0, T, 0.0), analytic._ratio(alpha, math.pi, T, math.pi), k_pi


def _improvements(p_in, ratio0, ratio_pi, k_pi):
    """p_out and p_out - p_in behind each phase-matched tap, then the
    degenerate flag: 1.0 where the phase-pi outcome k_pi never occurs (its
    e^{-k^2} is 0, and purify would refuse it), else 0.0. The phase-pi
    fraction of such a row is the limit its ratio gives."""
    out0, out_pi = analytic._posterior(p_in, ratio0), analytic._posterior(p_in, ratio_pi)
    return out0, out0 - p_in, out_pi, out_pi - p_in, float(analytic._gaussian(k_pi) == 0.0)


def _pout_vs_pin(T, alpha):
    matched = _matched_ratios(alpha, T)
    return lambda p_in: (p_in, *_improvements(p_in, *matched))


def _pout_vs_alpha(T, p_in):
    return lambda alpha: (alpha, *_improvements(p_in, *_matched_ratios(alpha, T)))


def _gain_density_vs_T(alpha, p_in):
    def row(T):
        density0 = analytic._homodyne_density(0.0, alpha, 0.0, T)
        if T == 1.0:
            # the favorable outcome recedes to k -> inf: the phase-pi tap
            # still shows the limiting gain but the event has density 0;
            # the blind phi=0 tap leaves the fraction as it is
            ratio0, ratio_pi, k_pi = 1.0, analytic._ratio(alpha, math.pi, T, math.pi), math.inf
        else:
            ratio0, ratio_pi, k_pi = _matched_ratios(alpha, T)
        out0, _, out_pi, _, degenerate = _improvements(p_in, ratio0, ratio_pi, k_pi)
        density_pi = analytic._homodyne_density(k_pi, alpha, math.pi, T)
        return T, out0, out0 / p_in, density0, out_pi, out_pi / p_in, density_pi, degenerate

    return row


def _concat_row(alpha, p_in):
    p_mid, p_final = analytic.concat_stages(p_in, alpha)
    return alpha, p_in, p_mid, p_final, p_final - p_in


_K = GridAxis("k", -4.0, 4.0, 0.01)
_ALPHA = GridAxis("alpha", 0.05, 2.0, 0.01)
_IMPROVEMENTS = "p_out_phi0 improvement_phi0 p_out_phipi improvement_phipi degenerate"

_FIGURES: dict[str, _Figure] = {
    "fig2_densities": _Figure(
        {"T": 0.5, "alpha": 1.0, "phi": 0.0}, (_K,), "k P_C P_0", _densities
    ),
    "fig3_densities": _Figure(
        {"T": 0.5, "alpha": 1.0, "phi": math.pi}, (_K,), "k P_C P_0", _densities
    ),
    "fig4_gain_vs_k_phi0": _Figure(
        {"T": 0.5, "alpha": 1.0, "phi": 0.0, "p_in": 0.5}, (_K,),
        "k p_out gain", _gain_vs_k,
    ),
    "fig5_gain_vs_k_phipi": _Figure(
        {"T": 0.5, "alpha": 1.0, "phi": math.pi, "p_in": 0.5}, (_K,),
        "k p_out gain", _gain_vs_k,
    ),
    "fig6_pout_vs_pin": _Figure(
        {"T": 0.5, "alpha": 1.0}, (GridAxis("p_in", 0.001, 0.999, 0.001),),
        "p_in " + _IMPROVEMENTS, _pout_vs_pin,
    ),
    "fig7_gain_vs_alpha": _Figure(
        {"T": 0.5, "p_in": 0.5}, (_ALPHA,), "alpha " + _IMPROVEMENTS, _pout_vs_alpha
    ),
    "fig8_gain_and_density_vs_T": _Figure(
        {"alpha": 1.0, "p_in": 0.5}, (GridAxis("T", 0.05, 1.0, 0.005),),
        "T p_out_phi0 gain_phi0 density_phi0 p_out_phipi gain_phipi density_phipi degenerate",
        _gain_density_vs_T,
    ),
    "concat_scan": _Figure(
        {}, (_ALPHA, GridAxis("p_in", 0.01, 0.99, 0.01)),
        "alpha p_in p_mid p_final net_change", lambda: _concat_row,
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
    except (KeyError, TypeError):  # TypeError: an unhashable figure_id
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
    """Evaluate a sweep. Deterministic: rows follow the product of the grid
    axes, the last axis fastest, and every value comes from the closed-form
    layer. A fixed value or a grid axis end outside its parameter's domain,
    and a grid of more than a million points, are ValueErrors raised before
    any row is built; the rows then compute on the checked floats."""
    fig = _figure(_required(spec, "spec", SweepSpec).figure_id)
    _validate(spec, fig)
    fixed = {
        name: _checked(v, f"{spec.figure_id}: fixed {name}", _DOMAINS[name])
        for name, v in spec.fixed_params.items()
    }
    for axis in spec.grid:
        for end in (axis.start, axis.stop):
            _checked(end, f"{spec.figure_id}: grid {axis.name}", _DOMAINS[axis.name])
    points = math.prod(axis.count for axis in spec.grid)
    if points > _MAX_GRID_POINTS:
        raise ValueError(f"{spec.figure_id}: the grid has {points} points, more than {_MAX_GRID_POINTS}")
    grid = product(*(axis.values() for axis in spec.grid))
    rows = tuple(starmap(fig.row(**fixed), grid))
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
    return SweepTable(tuple(fig.columns.split()), rows, metadata)


def emit_csv(table: SweepTable, path: str, reproducible: bool = False) -> None:
    """Write a table as commented CSV: `# key: value` metadata lines, a
    `name[1]` header (every column is dimensionless), then rows at 12
    significant digits with LF endings. With reproducible=True no
    timestamp line is written and the bytes depend on the table alone."""
    lines = [f"# {key}: {value}" for key, value in _required(table, "table", SweepTable).metadata.items()]
    path = _collection(os.fspath, path, "path", "a file path")
    if not _required(reproducible, "reproducible", bool):
        stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        lines.append(f"# generated: {stamp}")
    lines.append(",".join(f"{name}[1]" for name in table.columns))
    # "%.12g" % v formats exactly as format(v, ".12g")
    template = ",".join(["%.12g"] * len(table.columns)) + "\n"
    body = (template * len(table.rows)) % tuple(chain.from_iterable(table.rows))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n" + body)
