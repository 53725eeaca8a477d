"""The benchmark's workloads: inputs made from a seed, one round of
operations, and the checks that decide whether each operation's output
is right.

An operation ends in one of three ways: it passes its check, it errs
(raises, or a CLI call exits with an undocumented code), or it returns a
wrong value. `failed` counts the last two; a wrong value also makes the
run incorrect. Checks compare against the mpmath references in `refs`
or against properties the method must have, never against stored
program output.

This module imports only the standard library at the top: the worker
times its set-up from a cold start, so catpurify is imported inside the
workload constructors and mpmath (through `refs`) only once timing is
over.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

OK, ERROR, WRONG = 0, 1, 2
TWO_PI = 2.0 * math.pi


def refs_module():
    """The mpmath references, imported on first use, after timing."""
    import refs

    return refs


def cli_env() -> dict[str, str]:
    """Environment for a process that imports catpurify from the source tree."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


# --------------------------------------------------------------------------
# figure CSV checks


def read_csv(text: str) -> tuple[dict[str, str], list[str], list[list[float]]]:
    meta: dict[str, str] = {}
    header: list[str] = []
    rows: list[list[float]] = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        elif not header:
            header = [cell.split("[", 1)[0] for cell in line.split(",")]
        else:
            rows.append([float(cell) for cell in line.split(",")])
    return meta, header, rows


def _trapezoid(xs: list[float], ys: list[float]) -> float:
    return sum((xs[i + 1] - xs[i]) * (ys[i + 1] + ys[i]) / 2.0 for i in range(len(xs) - 1))


def _k_opposed(alpha: float, R: float) -> float:
    """Outcome that cancels phase pi: theta(k) = pi."""
    return math.pi / (2.0 * math.sqrt(2.0 * R) * alpha)


def _figure_row_ok(figure_id: str, fixed: dict[str, float], row: dict[str, float]) -> bool:
    refs = refs_module()
    close = refs.close
    if figure_id in ("fig2_densities", "fig3_densities"):
        k = row["k"]
        return close(row["P_C"], refs.density_css(k, fixed["alpha"], fixed["phi"], fixed["T"])) and close(
            row["P_0"], refs.density_mix(k)
        )
    if figure_id in ("fig4_gain_vs_k_phi0", "fig5_gain_vs_k_phipi"):
        p_in = fixed["p_in"]
        ref = refs.ideal_fraction(p_in, fixed["alpha"], fixed["phi"], fixed["T"], row["k"])
        return close(row["p_out"], ref) and close(row["gain"], ref / p_in)
    if figure_id in ("fig6_pout_vs_pin", "fig7_gain_vs_alpha"):
        p_in = row.get("p_in", fixed.get("p_in"))
        alpha = row.get("alpha", fixed.get("alpha"))
        T = fixed["T"]
        out0 = refs.ideal_fraction(p_in, alpha, 0.0, T, 0.0)
        out_pi = refs.ideal_fraction(p_in, alpha, math.pi, T, _k_opposed(alpha, 1.0 - T))
        return (
            close(row["p_out_phi0"], out0)
            and close(row["improvement_phi0"], out0 - p_in)
            and close(row["p_out_phipi"], out_pi)
            and close(row["improvement_phipi"], out_pi - p_in)
        )
    if figure_id == "fig8_gain_and_density_vs_T":
        T, alpha, p_in = row["T"], fixed["alpha"], fixed["p_in"]
        out0 = refs.ideal_fraction(p_in, alpha, 0.0, T, 0.0)
        ok = (
            close(row["p_out_phi0"], out0)
            and close(row["gain_phi0"], out0 / p_in)
            and close(row["density_phi0"], refs.density_css(0.0, alpha, 0.0, T))
        )
        if T == 1.0:
            # blind tap: the favourable outcome recedes to infinity, so the
            # row carries the limiting fraction at theta = pi and density 0
            g = math.exp(-2.0 * alpha * alpha)
            ratio = (1.0 - g) / (1.0 + g)
            out_pi = p_in / (p_in + ratio * (1.0 - p_in))
            return ok and row["degenerate"] == 1.0 and row["density_phipi"] == 0.0 and close(row["p_out_phipi"], out_pi)
        k = _k_opposed(alpha, 1.0 - T)
        out_pi = refs.ideal_fraction(p_in, alpha, math.pi, T, k)
        return (
            ok
            and row["degenerate"] == 0.0
            and close(row["p_out_phipi"], out_pi)
            and close(row["gain_phipi"], out_pi / p_in)
            and close(row["density_phipi"], refs.density_css(k, alpha, math.pi, T))
        )
    if figure_id == "concat_scan":
        mid, final = refs.concat_stages(row["p_in"], row["alpha"])
        return close(row["p_mid"], mid) and close(row["p_final"], final) and close(row["net_change"], final - row["p_in"])
    return False


_FRACTION_COLUMNS = ("p_out", "p_out_phi0", "p_out_phipi", "p_mid", "p_final")


def check_figure_csv(text: str, figure_id: str, fixed: dict[str, float], rng: random.Random, sample: int = 60) -> bool:
    """Check one emitted figure CSV: its shape against its own metadata,
    properties on every row (fractions in [0, 1], densities integrating to
    1 over the k grid, the concatenation no-go) and the mpmath references
    on a seeded sample of rows plus the first and last."""
    meta, header, rows = read_csv(text)
    if meta.get("figure") != figure_id or not rows:
        return False
    points = 1
    for key, value in meta.items():
        if key.startswith("grid."):
            points *= int(value.rsplit("points=", 1)[1])
    if len(rows) != points or any(len(r) != len(header) for r in rows):
        return False
    if not all(math.isfinite(v) for r in rows for v in r):
        return False
    cols = {name: [r[i] for r in rows] for i, name in enumerate(header)}
    for name in _FRACTION_COLUMNS:
        if name in cols and not all(0.0 <= v <= 1.0 for v in cols[name]):
            return False
    if "P_C" in cols:
        for name in ("P_C", "P_0"):
            if min(cols[name]) < 0.0 or abs(_trapezoid(cols["k"], cols[name]) - 1.0) > 1e-6:
                return False
    if "net_change" in cols and not all(v < 0.0 for v in cols["net_change"]):
        return False
    picks = set(rng.sample(range(len(rows)), min(sample, len(rows)))) | {0, len(rows) - 1}
    return all(_figure_row_ok(figure_id, fixed, dict(zip(header, rows[i]))) for i in sorted(picks))


# --------------------------------------------------------------------------
# CLI requests, run in-process through `cli.main` by the traced suite


@dataclass
class CliCall:
    """One CLI request (the argv of `cli.main`), its documented exit code
    and a check on its standard output."""

    argv: list[str]
    expect: int
    check: Callable[[str], bool]


def judge(call: CliCall, code: int, stdout: str) -> int:
    """Outcome of a finished call: an undocumented exit code errs, output
    that fails (or cannot be parsed by) its check is wrong."""
    if code != call.expect:
        return ERROR
    try:
        return OK if call.check(stdout) else WRONG
    except (ValueError, KeyError, IndexError, OSError):
        return WRONG


def _fraction_ok(value: float) -> bool:
    return 0.0 <= value <= 1.0


# json prints every float in full, so outputs are checked to 1e-12
# relative and the phase an optimal outcome leaves uncancelled to 1e-11
REL, PHASE = 1e-12, 1e-11


def purify_call(alpha, phi_arg, phi, p, T) -> CliCall:
    """A `purify --k optimal` request with every output checked against the
    references."""
    argv = ["purify", "--format", "json", "--alpha", repr(alpha), "--phi", phi_arg, "--p-in", repr(p), "--T", repr(T), "--k", "optimal"]

    def check(stdout: str) -> bool:
        refs = refs_module()
        out = json.loads(stdout)
        R = 1.0 - T
        k = float(out["k"])
        if refs.optimal_theta_offset(phi, alpha, R, k) > PHASE or abs(2 * math.sqrt(2 * R) * alpha * k) > math.pi * (1 + REL):
            return False
        dc = refs.density_css(k, alpha, phi, T)
        d0 = refs.density_mix(k)
        p_out = float(out["p_out"])
        return (
            _fraction_ok(p_out)
            and refs.close(p_out, refs.detector_fraction(p, alpha, phi, T, k, 1.0), REL)
            and refs.close(float(out["out_alpha"]), math.sqrt(T) * alpha, REL)
            and refs.close_phase(float(out["out_phi"]), phi + 2 * math.sqrt(2 * R) * alpha * k, 10 * REL)
            and refs.close(float(out["density_css"]), dc, REL)
            and refs.close(float(out["density_mix"]), d0, REL)
            and refs.close(float(out["density_joint"]), p * dc + (1 - p) * d0, REL)
        )

    return CliCall(argv, 0, check)


def amplify_call(alpha, phi_arg, p) -> CliCall:
    phi = math.pi if phi_arg == "pi" else 0.0

    def check(stdout: str) -> bool:
        refs = refs_module()
        out = json.loads(stdout)
        p_out = float(out["p_out"])
        return (
            _fraction_ok(p_out)
            and refs.close(p_out, refs.amplify(p, alpha, phi), REL)
            and refs.close(float(out["out_alpha"]), math.sqrt(2.0) * alpha, REL)
            and float(out["out_phi"]) == 0.0
        )

    return CliCall(["amplify", "--format", "json", "--alpha", repr(alpha), "--phi", phi_arg, "--p-in", repr(p)], 0, check)


def concat_call(alpha, p) -> CliCall:
    def check(stdout: str) -> bool:
        refs = refs_module()
        out = json.loads(stdout)
        mid, final = refs.concat_stages(p, alpha)
        net = float(out["net_change"])
        return (
            refs.close(float(out["p_in"]), p, REL)
            and refs.close(float(out["p_mid"]), mid, REL)
            and refs.close(float(out["p_final"]), final, REL)
            and refs.close(net, final - p, REL)
            and net < 0.0
            and out.get("note") == "no net purification"
        )

    return CliCall(["concat", "--format", "json", "--alpha", repr(alpha), "--p-in", repr(p)], 0, check)


def sweep_call(figure_id: str, path: Path, fixed: dict[str, float], seed: int) -> CliCall:
    argv = ["sweep", "--figure-id", figure_id, "--output", str(path), "--reproducible", "--format", "json"]

    def check(stdout: str) -> bool:
        out = json.loads(stdout)
        return out["path"] == str(path) and check_figure_csv(
            path.read_text(encoding="utf-8"), figure_id, fixed, random.Random(f"{seed}:{figure_id}")
        )

    return CliCall(argv, 0, check)


def verify_call(draws: int, amp_draws: int, seed: int) -> CliCall:
    def check(stdout: str) -> bool:
        results = json.loads(stdout)
        return len(results) == 6 and all(
            r["passed"] and r["max_error"] <= r["tolerance"] and r["draws"] in (draws, amp_draws) for r in results
        )

    return CliCall(["verify", "--format", "json", "--draws", str(draws), "--amp-draws", str(amp_draws), "--seed", str(seed)], 0, check)


# --------------------------------------------------------------------------
# in-process workloads
#
# Each has: a constructor that imports catpurify and builds the inputs
# (its set-up); `pieces`, the callables that together make one whole round,
# in order; after_round() for untimed bookkeeping between rounds; and
# check() returning the outcome of every operation attempted. The worker
# times each piece on its own, so a piece is kept short (see README.md).


class Workload:
    """A round is the pieces, run in order."""

    pieces: list[Callable[[], None]]

    def run_round(self) -> None:
        for piece in self.pieces:
            piece()


def split_spec(sweeps, spec, block: int) -> list:
    """The spec itself when its grid has one axis; otherwise one spec per
    block of `block` values of its first axis, over the whole of the rest."""
    if len(spec.grid) == 1:
        return [spec]
    axis, rest = spec.grid[0], spec.grid[1:]
    parts = []
    for i in range(0, axis.count, block):
        start = axis.start + i * axis.step
        stop = axis.start + (min(i + block, axis.count) - 1) * axis.step
        parts.append(sweeps.SweepSpec(spec.figure_id, spec.fixed_params, (sweeps.GridAxis(axis.name, start, stop, axis.step), *rest)))
    assert sum(part.grid[0].count for part in parts) == axis.count
    return parts


class Figures(Workload):
    """Regenerate all eight figure datasets with run_sweep and emit_csv. A
    piece is one figure; concat_scan, 19,404 rows on an alpha x p_in grid,
    is swept and emitted in blocks of ALPHA_BLOCK alpha values, each its own
    piece and CSV, so that no piece runs for much longer than the others."""

    ALPHA_BLOCK = 14

    def __init__(self, seed: int, tmp: Path) -> None:
        from catpurify import sweeps

        self.sweeps = sweeps
        self.seed = seed
        self.dir = tmp
        self.dir.mkdir(parents=True, exist_ok=True)
        self.parts: list[tuple[object, Path]] = []
        for fig in sweeps.FIGURE_IDS:
            specs = split_spec(sweeps, sweeps.default_spec(fig), self.ALPHA_BLOCK)
            for j, spec in enumerate(specs):
                self.parts.append((spec, self.dir / (f"{fig}.csv" if len(specs) == 1 else f"{fig}-{j}.csv")))
        self.first: list[bytes | None] = []
        self.outcomes: list[int] = []
        self.pending: list[int] = [ERROR] * len(self.parts)
        self.pieces = [self._piece(i, spec, path) for i, (spec, path) in enumerate(self.parts)]

    def _piece(self, i: int, spec, path: Path) -> Callable[[], None]:
        def piece() -> None:
            try:
                self.sweeps.emit_csv(self.sweeps.run_sweep(spec), path, reproducible=True)
                self.pending[i] = OK
            except Exception:  # an operation that raises is counted, not fatal
                self.pending[i] = ERROR

        return piece

    def after_round(self) -> None:
        first_round = not self.first
        for i, (_, path) in enumerate(self.parts):
            data = None if self.pending[i] == ERROR else path.read_bytes()
            if first_round:
                self.first.append(data)
            if data is None:
                self.outcomes.append(ERROR)
            else:
                # the first emission is checked against the references in check()
                self.outcomes.append(OK if first_round or data == self.first[i] else WRONG)

    def check(self) -> list[int]:
        first_ok = []
        for (spec, path), data in zip(self.parts, self.first):
            if data is None:
                first_ok.append(ERROR)
                continue
            rng = random.Random(f"{self.seed}:{path.name}")
            good = check_figure_csv(data.decode("utf-8"), spec.figure_id, dict(spec.fixed_params), rng)
            first_ok.append(OK if good else WRONG)
        n = len(self.parts)
        # a later emission only passes if it is byte-identical to a first
        # emission that passed its checks
        return [outcome if outcome != OK else first_ok[i % n] for i, outcome in enumerate(self.outcomes)]


def amplifier_inputs(seed: int, n: int) -> list[tuple[float, float, float]]:
    """(p, alpha, phi) for direct amplifier_sim calls, on the phases the
    closed form covers."""
    rng = random.Random(seed)
    return [(rng.uniform(0.05, 0.95), rng.uniform(0.2, 1.5), rng.choice((0.0, math.pi))) for _ in range(n)]


class VerifyOracle(Workload):
    """SUITES run_suite calls of (DRAWS, AMP_DRAWS) draws on seeds drawn
    from the workload seed, then direct amplifier_sim calls on the phases
    the closed form covers. Each run_suite call is one piece, the direct
    calls together one more. A round is short (60 draws per check, 12 for
    the amplifier) so that every piece is timed a hundred times or more in
    a run; over a whole run each check draws thousands of times, more than
    a default run_suite (200 and 50)."""

    SUITES, DRAWS, AMP_DRAWS, SIMS = 12, 5, 1, 10

    def __init__(self, seed: int, tmp: Path) -> None:
        del tmp
        from catpurify import CssParams, dyads, verify

        self.verify = verify
        self.dyads = dyads
        rng = random.Random(seed)
        self.suite_seeds = [rng.getrandbits(32) for _ in range(self.SUITES)]
        self.sims = amplifier_inputs(seed, self.SIMS)
        self.sim_params = [CssParams(alpha, phi) for _, alpha, phi in self.sims]
        self.rounds: list[tuple[list[object], list[object]]] = []
        self.suites: list[object] = []
        self.sim_values: list[object] = []
        self.pieces = [self._suite(s) for s in self.suite_seeds] + [self._simulate]

    def _suite(self, suite_seed: int) -> Callable[[], None]:
        def piece() -> None:
            try:
                self.suites.append(self.verify.run_suite(self.DRAWS, self.AMP_DRAWS, suite_seed))
            except Exception as exc:  # counted as six erring checks
                self.suites.append(exc)

        return piece

    def _simulate(self) -> None:
        for (p, _, _), params in zip(self.sims, self.sim_params):
            try:
                self.sim_values.append(self.dyads.amplifier_sim(p, params))
            except Exception as exc:
                self.sim_values.append(exc)

    def after_round(self) -> None:
        self.rounds.append((self.suites, self.sim_values))
        self.suites, self.sim_values = [], []

    def check(self) -> list[int]:
        refs = refs_module()
        expected = [refs.amplify(p, alpha, phi) for p, alpha, phi in self.sims]
        outcomes = []
        for suites, sims in self.rounds:
            for results in suites:
                if isinstance(results, Exception):
                    outcomes += [ERROR] * 6
                    continue
                for r in results:
                    good = (
                        r.passed
                        and math.isfinite(r.max_error)
                        and r.draws == (self.AMP_DRAWS if r.name.startswith("amplifier") else self.DRAWS)
                    )
                    outcomes.append(OK if good else WRONG)
                if len(results) != 6:
                    outcomes.append(WRONG)
            for value, ref in zip(sims, expected):
                if isinstance(value, Exception):
                    outcomes.append(ERROR)
                else:
                    outcomes.append(OK if _fraction_ok(value) and refs.close(value, ref, 0.0, 1e-9) else WRONG)
        return outcomes


SCALAR_KINDS = (
    "apply_loss",
    "purify",
    "purify_with_inefficiency",
    "optimal_k",
    "success_region",
    "amplify",
    "amplification_threshold",
    "concat_stages",
    "purity_mixed_css",
)
SCALAR_POOL = 1000
WINDOW_EVERY = 50  # window_acceptance is the slow call; keep it a small share


def scalar_specs(seed: int, n: int = SCALAR_POOL) -> list[tuple[str, tuple]]:
    """The seeded call stream: (function, arguments) pairs."""
    rng = random.Random(seed)
    specs = []
    for i in range(n):
        kind = "window_acceptance" if i % WINDOW_EVERY == WINDOW_EVERY - 1 else SCALAR_KINDS[i % len(SCALAR_KINDS)]
        alpha, phi = rng.uniform(0.3, 2.0), rng.uniform(0.0, TWO_PI)
        p, T, k = rng.uniform(0.05, 0.95), rng.uniform(0.2, 0.9), rng.uniform(-2.0, 2.0)
        if kind == "apply_loss":
            args = (alpha, phi, p, rng.uniform(0.2, 1.0))
        elif kind == "purify":
            args = (alpha, phi, p, T, k)
        elif kind == "purify_with_inefficiency":
            args = (alpha, phi, p, T, k, rng.uniform(0.5, 0.99))
        elif kind in ("optimal_k", "success_region"):
            args = (alpha, phi, rng.uniform(0.1, 0.8))
        elif kind == "amplify":
            args = (alpha, rng.choice((0.0, math.pi)), p)
        elif kind == "amplification_threshold":
            args = (rng.uniform(0.1, 2.0),)
        elif kind == "concat_stages":
            args = (rng.uniform(0.01, 0.99), rng.uniform(0.05, 2.0))
        elif kind == "purity_mixed_css":
            args = (alpha, phi, p)
        else:
            args = (alpha, phi, p, T, rng.uniform(-1.5, 1.5), rng.uniform(0.2, 3.0))
        specs.append((kind, args))
    return specs


def scalar_functions(cp) -> dict[str, Callable]:
    """One closure per public closed form; each builds its own records, the
    per-call overhead a single-point caller pays."""
    an = cp.analytic
    C, M, Tap, Ch = cp.CssParams, cp.MixedCss, cp.TapSetting, cp.ChannelSetting

    def apply_loss(alpha, phi, p, eta):
        out = an.apply_loss(M(C(alpha, phi), p), Ch(eta))
        return (out.p, out.params.alpha, out.params.phi)

    def purify(alpha, phi, p, T, k):
        out, dc, d0 = an.purify(M(C(alpha, phi), p), Tap(T, k))
        return (out.p, out.params.alpha, out.params.phi, dc, d0)

    def purify_with_inefficiency(alpha, phi, p, T, k, eta_H):
        out = an.purify_with_inefficiency(M(C(alpha, phi), p), Tap(T, k, eta_H))
        return (out.p, out.params.alpha, out.params.phi)

    def amplify(alpha, phi, p):
        out = an.amplify(M(C(alpha, phi), p))
        return (out.p, out.params.alpha, out.params.phi)

    return {
        "apply_loss": apply_loss,
        "purify": purify,
        "purify_with_inefficiency": purify_with_inefficiency,
        "optimal_k": lambda alpha, phi, R: an.optimal_k(C(alpha, phi), R),
        "success_region": lambda alpha, phi, R: an.success_region(C(alpha, phi), R),
        "amplify": amplify,
        "amplification_threshold": lambda alpha: an.amplification_threshold(alpha),
        "concat_stages": lambda p, alpha: an.concat_stages(p, alpha),
        "purity_mixed_css": lambda alpha, phi, p: an.purity_mixed_css(M(C(alpha, phi), p)),
        "window_acceptance": lambda alpha, phi, p, T, c, w: an.window_acceptance(M(C(alpha, phi), p), T, c, w),
    }


def check_scalar(kind: str, args: tuple, out) -> bool:
    """Compare one closed-form result with the references or with the
    properties that define it."""
    refs = refs_module()
    close = refs.close
    if kind == "apply_loss":
        alpha, phi, p, eta = args
        return (
            _fraction_ok(out[0])
            and close(out[0], p * refs.loss_fraction(eta, alpha, phi))
            and close(out[1], math.sqrt(eta) * alpha)
            and refs.close_phase(out[2], phi)
        )
    if kind in ("purify", "purify_with_inefficiency"):
        alpha, phi, p, T, k = args[:5]
        eta_H = args[5] if kind == "purify_with_inefficiency" else 1.0
        ok = (
            _fraction_ok(out[0])
            and close(out[0], refs.detector_fraction(p, alpha, phi, T, k, eta_H))
            and close(out[1], math.sqrt(T) * alpha)
            and refs.close_phase(out[2], phi + 2.0 * math.sqrt(2.0 * eta_H * (1.0 - T)) * alpha * k)
        )
        if kind == "purify":
            ok = ok and close(out[0], refs.ideal_fraction(p, alpha, phi, T, k))
            ok = ok and close(out[3], refs.density_css(k, alpha, phi, T)) and close(out[4], refs.density_mix(k))
        return ok
    if kind == "optimal_k":
        alpha, phi, R = args
        return refs.optimal_theta_offset(phi, alpha, R, out) <= 1e-9 and abs(
            2.0 * math.sqrt(2.0 * R) * alpha * out
        ) <= math.pi * (1.0 + 1e-12)
    if kind == "success_region":
        alpha, phi, R = args
        length = sum(hi - lo for lo, hi in out)
        center = (-phi) % TWO_PI
        inside = any(lo - 1e-12 <= center <= hi + 1e-12 for lo, hi in out) or (
            center > TWO_PI - 1e-12 and any(lo <= 1e-12 for lo, _ in out)
        )
        return (
            all(0.0 <= lo < hi <= TWO_PI for lo, hi in out)
            and close(length, 2.0 * refs.success_half_width(alpha, phi, R), 1e-10, 1e-10)
            and inside
        )
    if kind == "amplify":
        alpha, phi, p = args
        return _fraction_ok(out[0]) and close(out[0], refs.amplify(p, alpha, phi)) and close(out[1], math.sqrt(2.0) * alpha) and out[2] == 0.0
    if kind == "amplification_threshold":
        return close(out, refs.amplification_threshold(args[0]))
    if kind == "concat_stages":
        mid, final = refs.concat_stages(*args)
        return _fraction_ok(out[0]) and _fraction_ok(out[1]) and close(out[0], mid) and close(out[1], final) and out[1] < args[0]
    if kind == "purity_mixed_css":
        alpha, phi, p = args
        return close(out, refs.purity(p, alpha, phi))
    if kind == "window_acceptance":
        return 0.0 <= out <= 1.0 and close(out, refs.window_acceptance(args[2], args[0], args[1], args[3], args[4], args[5]), 0.0, 1e-9)
    return False


class _Raised:
    """Stands in for the result of a call that raised; equal to another
    when both raised the same exception type with the same message."""

    __slots__ = ("exc",)

    def __init__(self, exc: Exception) -> None:
        self.exc = exc

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Raised) and (type(self.exc), str(self.exc)) == (type(other.exc), str(other.exc))


class ScalarApi(Workload):
    """A seeded stream of single-point calls through the public closed
    forms, CHUNK calls per piece."""

    CHUNK = 100

    def __init__(self, seed: int, tmp: Path) -> None:
        del tmp
        import catpurify

        functions = scalar_functions(catpurify)
        self.specs = scalar_specs(seed)
        calls = [(functions[kind], args) for kind, args in self.specs]
        self.first: list | None = None
        self.mismatch: list[int] = [0] * len(self.specs)
        self.passes = 0
        self.last: list = []
        self.pieces = [self._chunk(calls[i : i + self.CHUNK]) for i in range(0, len(calls), self.CHUNK)]

    def _chunk(self, calls: list[tuple[Callable, tuple]]) -> Callable[[], None]:
        def piece() -> None:
            append = self.last.append
            for fn, args in calls:
                try:
                    append(fn(*args))
                except Exception as exc:
                    append(_Raised(exc))

        return piece

    def after_round(self) -> None:
        if self.first is None:
            self.first = self.last
        elif self.last != self.first:
            for i, (a, b) in enumerate(zip(self.last, self.first)):
                if a != b:
                    self.mismatch[i] += 1
        self.last = []
        self.passes += 1

    def check(self) -> list[int]:
        outcomes = []
        for i, ((kind, args), out) in enumerate(zip(self.specs, self.first or [])):
            if isinstance(out, _Raised):
                first = ERROR
            else:
                first = OK if check_scalar(kind, args, out) else WRONG
            # every pass repeats the same call: it passes only if it returned
            # exactly the first pass's checked value
            same = self.passes - self.mismatch[i]
            outcomes += [first] * same + [WRONG] * self.mismatch[i]
        return outcomes


IN_PROCESS = {"figures": Figures, "verify_oracle": VerifyOracle, "scalar_api": ScalarApi}
WORKLOADS = ("figures", "verify_oracle", "scalar_api")
