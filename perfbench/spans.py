"""Traced run: spans around the calls into each layer, and the per-layer
metrics derived from them.

The tracer replaces public functions of `catpurify.analytic` and
`catpurify.dyads` on their modules with wrappers that record a span
(name, start, end, parent) per call, so calls from one layer into another
(sweeps into analytic, verify into dyads, dyads into itself) nest under
the caller's span. The suite's own calls into cli, states, sweeps and
verify are wrapped in spans explicitly. Spans stay in memory and are
written out when the run ends; end-to-end numbers never come from here.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import math
import random
import statistics
import time
from pathlib import Path

import workloads

ANALYTIC = (
    "apply_loss",
    "purify",
    "purify_with_inefficiency",
    "optimal_k",
    "success_region",
    "amplify",
    "amplification_threshold",
    "concat_stages",
    "purity_mixed_css",
    "window_acceptance",
    "detection_ratio",
)
DYADS = (
    "make_mixed",
    "tensor",
    "attach_vacuum",
    "bs_on_product",
    "loss_on_dyad",
    "project_quadrature",
    "project_click",
    "merge_terms",
    "normalize",
    "extract_fraction",
    "gram_norm",
    "purity",
    "amplifier_sim",
)
CLI_COMMANDS = ("purify", "amplify", "concat", "sweep", "verify")
TERM_STAGES = (
    "make_mixed",
    "tensor_copies",
    "bs_copies",
    "tensor_ancilla",
    "bs_ancilla",
    "click_ancilla",
    "click_difference",
    "normalize",
)
LAYERS = ("cli", "states", "analytic", "sweeps", "dyads", "verify")
FIGURE_IDS = (
    "fig2_densities",
    "fig3_densities",
    "fig4_gain_vs_k_phi0",
    "fig5_gain_vs_k_phipi",
    "fig6_pout_vs_pin",
    "fig7_gain_vs_alpha",
    "fig8_gain_and_density_vs_T",
    "concat_scan",
)
RECORD_BATCH = 2000
SUITE_DRAWS, SUITE_AMP_DRAWS = 50, 10


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in order."""
    names = ["import.python_s", "import.numpy_s", "import.scipy_integrate_s", "import.catpurify_s"]
    names += [f"cli.main.{cmd}_s" for cmd in CLI_COMMANDS]
    names += ["states.records_us"]
    names += [f"analytic.{fn}_us" for fn in ANALYTIC]
    names += [f"sweeps.run_sweep.{fig}_s" for fig in FIGURE_IDS]
    names += [f"sweeps.emit_csv.{fig}_s" for fig in FIGURE_IDS]
    names += ["sweeps.rows"]
    names += [f"dyads.{fn}_us" for fn in DYADS]
    names += [f"dyads.terms.{stage}" for stage in TERM_STAGES]
    names += ["verify.run_suite_s"]
    names += [f"{layer}.self_s" for layer in LAYERS]
    return names


class Tracer:
    """Spans kept as [name id, start, end, parent index] lists."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.stack: list[int] = [-1]
        self.restore: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [self._id(name), time.perf_counter(), 0.0, self.stack[-1]]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    def wrap(self, module, attr: str, name: str) -> None:
        original = getattr(module, attr, None)
        if original is None:
            return
        nid, spans, stack = self._id(name), self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [nid, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return original(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        setattr(module, attr, traced)
        self.restore.append((module, attr, original))

    def unwrap(self) -> None:
        for module, attr, original in reversed(self.restore):
            setattr(module, attr, original)
        self.restore.clear()

    def durations(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for nid, start, end, _ in self.spans:
            out.setdefault(self.names[nid], []).append(end - start)
        return out

    def self_times(self) -> dict[str, float]:
        """Total self time per layer: each span's duration minus the part
        covered by its children, summed over spans of the layer."""
        child = [0.0] * len(self.spans)
        for nid, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = dict.fromkeys(LAYERS, 0.0)
        for i, (nid, start, end, _) in enumerate(self.spans):
            layer = self.names[nid].split(".", 1)[0]
            if layer in totals:
                totals[layer] += (end - start) - child[i]
        return totals

    def write(self, path: Path) -> None:
        """Gzipped CSV: a `# names:` line, then one `name id, start ns, end
        ns, parent index` row per span, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("# names: " + " ".join(self.names) + "\n")
            handle.write("name_id,start_ns,end_ns,parent\n")
            for nid, start, end, parent in self.spans:
                handle.write(f"{nid},{round((start - origin) * 1e9)},{round((end - origin) * 1e9)},{parent}\n")


def _cli_calls(seed: int, tmp: Path) -> dict[str, workloads.CliCall]:
    rng = random.Random(seed)
    a, p, T = round(rng.uniform(0.4, 1.6), 4), round(rng.uniform(0.2, 0.8), 4), round(rng.uniform(0.3, 0.8), 4)
    return {
        "purify": workloads.purify_call(a, "pi", math.pi, p, T),
        "amplify": workloads.amplify_call(a, "pi", p),
        "concat": workloads.concat_call(a, p),
        "sweep": workloads.sweep_call("fig7_gain_vs_alpha", tmp / "fig7.csv", {"T": 0.5, "p_in": 0.5}, seed),
        "verify": workloads.verify_call(20, 5, seed),
    }


def _terms(state) -> int:
    """Number of dyad terms, whether a state lists term records or holds a
    coefficient array."""
    terms = getattr(state, "terms", None)
    return len(terms if terms is not None else state.coeff)


def _amplifier_chain(dyads, params, p: float) -> tuple[list[int], object]:
    """The two-copy amplifier wired stage by stage from outside, recording
    the number of dyad terms after each stage."""
    from catpurify import MixedCss

    counts = []
    copy = dyads.make_mixed(MixedCss(params, p))
    counts.append(_terms(copy))
    joint = dyads.tensor(copy, copy)
    counts.append(_terms(joint))
    joint = dyads.bs_on_product(joint, (0, 1), 0.5)
    counts.append(_terms(joint))
    joint = dyads.tensor(joint, dyads.make_coherent(math.sqrt(2.0) * params.alpha))
    counts.append(_terms(joint))
    joint = dyads.bs_on_product(joint, (0, 2), 0.5)
    counts.append(_terms(joint))
    joint, _ = dyads.project_click(joint, 2)
    counts.append(_terms(joint))
    joint, _ = dyads.project_click(joint, 0)
    counts.append(_terms(joint))
    cond = dyads.normalize(joint)
    counts.append(_terms(cond))
    return counts, cond


def suite_pass(tracer: Tracer, seed: int, tmp: Path) -> tuple[list[int], dict[str, float]]:
    """One pass over every layer. Returns the outcome of each checked
    operation and the counts (rows, term counts) observed."""
    import catpurify
    from catpurify import ChannelSetting, CssParams, MixedCss, TapSetting, cli, dyads, sweeps, verify

    outcomes: list[int] = []
    counts: dict[str, float] = {}

    for cmd, call in _cli_calls(seed, tmp).items():
        buffer = io.StringIO()
        with tracer.span(f"cli.main.{cmd}"), contextlib.redirect_stdout(buffer):
            code = cli.main(call.argv)
        outcomes.append(workloads.judge(call, code, buffer.getvalue()))

    rng = random.Random(seed)
    values = [(rng.uniform(0.1, 2.0), rng.uniform(0.0, 6.28), rng.uniform(0.0, 1.0), rng.uniform(0.1, 1.0)) for _ in range(RECORD_BATCH)]
    with tracer.span("states.records"):  # four records per draw
        for alpha, phi, p, x in values:
            MixedCss(CssParams(alpha, phi), p)
            TapSetting(x, phi)
            ChannelSetting(x)

    functions = workloads.scalar_functions(catpurify)
    for kind, args in workloads.scalar_specs(seed):
        try:
            out = functions[kind](*args)
        except Exception:
            outcomes.append(workloads.ERROR)
            continue
        outcomes.append(workloads.OK if workloads.check_scalar(kind, args, out) else workloads.WRONG)

    rows = 0
    for fig in sweeps.FIGURE_IDS:
        spec = sweeps.default_spec(fig)
        path = tmp / f"{fig}.csv"
        with tracer.span(f"sweeps.run_sweep.{fig}"):
            table = sweeps.run_sweep(spec)
        with tracer.span(f"sweeps.emit_csv.{fig}"):
            sweeps.emit_csv(table, path, reproducible=True)
        rows += len(table.rows)
        text = path.read_text(encoding="utf-8")
        good = workloads.check_figure_csv(text, fig, dict(spec.fixed_params), random.Random(f"{seed}:{fig}"))
        outcomes.append(workloads.OK if good else workloads.WRONG)
    counts["sweeps.rows"] = rows

    refs = workloads.refs_module()
    stage_totals = [0] * len(TERM_STAGES)
    sims = workloads.amplifier_inputs(seed, workloads.VerifyOracle.SIMS)
    for p, alpha, phi in sims:
        params = CssParams(alpha, phi)
        simulated = dyads.amplifier_sim(p, params)
        stages, cond = _amplifier_chain(dyads, params, p)
        stage_totals = [t + c for t, c in zip(stage_totals, stages)]
        rebuilt = dyads.extract_fraction(cond, CssParams(math.sqrt(2.0) * alpha, (2.0 * phi) % (2.0 * math.pi)))
        good = refs.close(simulated, refs.amplify(p, alpha, phi), 0.0, 1e-9) and refs.close(rebuilt, simulated, 0.0, 1e-12)
        outcomes.append(workloads.OK if good else workloads.WRONG)
    for stage, total in zip(TERM_STAGES, stage_totals):
        counts[f"dyads.terms.{stage}"] = total / len(sims)

    with tracer.span("verify.run_suite"):
        results = verify.run_suite(SUITE_DRAWS, SUITE_AMP_DRAWS, seed)
    outcomes += [workloads.OK if r.passed else workloads.WRONG for r in results]
    return outcomes, counts


def traced_run(seed: int, seconds: float, tmp: Path, trace_path: Path) -> dict:
    """Suite passes until `seconds` have passed (at least one), then the
    per-layer metrics: mean inclusive time per call for each function,
    mean time per figure, total self time per layer per pass."""
    import catpurify

    tracer = Tracer()
    for fn in ANALYTIC:
        tracer.wrap(catpurify.analytic, fn, f"analytic.{fn}")
    for fn in DYADS:
        tracer.wrap(catpurify.dyads, fn, f"dyads.{fn}")
    outcomes: list[int] = []
    counts: list[dict[str, float]] = []
    start = time.perf_counter()
    try:
        while not counts or time.perf_counter() - start < seconds:
            got, seen = suite_pass(tracer, seed, tmp)
            outcomes += got
            counts.append(seen)
    finally:
        tracer.unwrap()
    tracer.write(trace_path)

    durations = tracer.durations()

    def mean(name: str, scale: float) -> float:
        values = durations.get(name)
        return statistics.fmean(values) * scale if values else 0.0

    metrics: dict[str, tuple[float, str]] = {}
    for cmd in CLI_COMMANDS:
        metrics[f"cli.main.{cmd}_s"] = (mean(f"cli.main.{cmd}", 1.0), "s")
    metrics["states.records_us"] = (mean("states.records", 1e6) / (4 * RECORD_BATCH), "us")
    for fn in ANALYTIC:
        metrics[f"analytic.{fn}_us"] = (mean(f"analytic.{fn}", 1e6), "us")
    for fig in FIGURE_IDS:
        metrics[f"sweeps.run_sweep.{fig}_s"] = (mean(f"sweeps.run_sweep.{fig}", 1.0), "s")
    for fig in FIGURE_IDS:
        metrics[f"sweeps.emit_csv.{fig}_s"] = (mean(f"sweeps.emit_csv.{fig}", 1.0), "s")
    for fn in DYADS:
        metrics[f"dyads.{fn}_us"] = (mean(f"dyads.{fn}", 1e6), "us")
    for key in counts[0]:
        metrics[key] = (statistics.fmean(c[key] for c in counts), "count")
    metrics["verify.run_suite_s"] = (mean("verify.run_suite", 1.0), "s")
    for layer, total in tracer.self_times().items():
        metrics[f"{layer}.self_s"] = (total / len(counts), "s")
    return {"outcomes": outcomes, "metrics": metrics, "passes": len(counts)}
