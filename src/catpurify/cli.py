"""Command-line front end.

Subcommands mirror the library pipelines: ``purify``, ``amplify``,
``concat``, ``sweep`` and ``verify``. Parameters come from an optional
JSON config file (a flat object) with command-line flags taking
precedence; angles accept radians or the literals ``0``, ``pi`` and
``pi/2``, and ``--k optimal`` resolves the outcome that cancels the
superposition phase. Exit codes: 0 success, 1 failed verification,
2 invalid input, 3 physically ill-posed request.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from typing import Any, Callable

from . import analytic, sweeps
from ._version import __version__
from .errors import ConfigError, PhysicsError
from .states import DEFAULT_AMP_DRAWS, DEFAULT_DRAWS, DEFAULT_SEED
from .states import ChannelSetting, CssParams, MixedCss, TapSetting

_ANGLE_LITERALS = {"0": 0.0, "pi": math.pi, "pi/2": math.pi / 2.0}
_FORMATS = ("plain", "json", "csv")


def _to_float(value: Any) -> float:
    if isinstance(value, bool):
        raise ValueError("expected a number")
    if isinstance(value, (int, float)):
        return float(value)
    return float(str(value).strip())


def _to_angle(value: Any) -> float:
    if isinstance(value, str) and value.strip() in _ANGLE_LITERALS:
        return _ANGLE_LITERALS[value.strip()]
    return _to_float(value)


def _to_outcome(value: Any) -> Any:
    if isinstance(value, str) and value.strip() == "optimal":
        return "optimal"
    return _to_float(value)


def _to_int(value: Any) -> int:
    if isinstance(value, bool):
        raise ValueError("expected an integer")
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return int(str(value).strip())


def _to_str(value: Any) -> str:
    if not isinstance(value, str):
        raise ValueError("expected a string")
    return value


def _to_format(value: Any) -> str:
    if value not in _FORMATS:
        raise ValueError(f"expected one of {_FORMATS}")
    return value


# Each command's help line and parameters, each parameter as (key,
# converter, required, help). The flag is --key with "_" written "-", and a
# config file may set the same keys (and "format"). Domains are checked by
# the records and by `sweeps.run_sweep`, not here.
_ALPHA = ("alpha", _to_float, True, "input amplitude")
_P_IN = ("p_in", _to_float, True, "input cat fraction")
_COMMANDS: dict[str, tuple[str, tuple[tuple[str, Callable[[Any], Any], bool, str], ...]]] = {
    "purify": (
        "condition a mixture on a homodyne outcome behind a tap",
        (
            _ALPHA,
            ("phi", _to_angle, True, "input phase (radians, or 0, pi, pi/2)"),
            _P_IN,
            ("T", _to_float, True, "tap transmittance"),
            ("k", _to_outcome, True, "homodyne outcome, or 'optimal'"),
            ("eta", _to_float, False, "optional line transmittance applied before the tap"),
            ("eta_H", _to_float, False, "detector efficiency (default 1)"),
        ),
    ),
    "amplify": (
        "two-copy coincidence amplification (phi 0 or pi)",
        (_ALPHA, ("phi", _to_angle, True, "input phase (0 or pi)"), _P_IN),
    ),
    "concat": ("purify two copies then amplify back to the input amplitude", (_ALPHA, _P_IN)),
    "sweep": (
        "regenerate a figure dataset as CSV",
        (
            ("figure_id", _to_str, True, f"one of: {', '.join(sweeps.FIGURE_IDS)}"),
            ("alpha", _to_float, False, "override the figure's fixed alpha"),
            ("phi", _to_angle, False, "override the figure's fixed phi"),
            ("T", _to_float, False, "override the figure's fixed T"),
            ("p_in", _to_float, False, "override the figure's fixed p_in"),
            ("output", _to_str, False, "output path (default <figure_id>.csv)"),
        ),
    ),
    "verify": (
        "randomized analytic-vs-oracle cross-checks",
        (
            ("draws", _to_int, False, f"draws per check (default {DEFAULT_DRAWS})"),
            ("amp_draws", _to_int, False, f"amplifier draws (default {DEFAULT_AMP_DRAWS})"),
            ("seed", _to_int, False, f"RNG seed (default {DEFAULT_SEED})"),
        ),
    ),
}


def resolve_params(command: str, config_file: str | None, flags: dict[str, Any]) -> dict[str, Any]:
    """Merge file and flag parameters for a command, flags winning, and
    convert every value. All offending keys are reported in one message."""
    spec = _COMMANDS[command][1]
    converters = {key: convert for key, convert, _, _ in spec} | {"format": _to_format}
    required = {key for key, _, needed, _ in spec if needed}
    raw: dict[str, Any] = {}
    problems: list[str] = []
    if config_file is not None:
        try:
            with open(config_file, "r", encoding="utf-8") as handle:
                loaded = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a single JSON object")
        unknown = sorted(set(loaded) - set(converters))
        if unknown:
            problems.append(f"unknown parameter(s): {', '.join(unknown)}")
        raw.update({k: v for k, v in loaded.items() if k in converters})
    raw.update({k: v for k, v in flags.items() if v is not None})

    params: dict[str, Any] = {}
    for key, value in raw.items():
        try:
            params[key] = converters[key](value)
        except (ValueError, TypeError):
            problems.append(f"invalid value for {key}: {value!r}")
    missing = sorted(required - set(params))
    if missing:
        problems.append(f"missing required parameter(s): {', '.join(missing)}")
    if problems:
        raise ConfigError(f"{command}: " + "; ".join(problems))
    return params


def _fmt_plain(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def _render(result: dict[str, Any], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(result, indent=2)
    if fmt == "csv":
        header = ",".join(result)
        cells = ",".join(
            format(v, ".12g") if isinstance(v, float) else str(v)
            for v in result.values()
        )
        return header + "\n" + cells
    return "\n".join(f"{key} = {_fmt_plain(v)}" for key, v in result.items())


def _cmd_purify(params: dict[str, Any]) -> dict[str, Any]:
    state = MixedCss(CssParams(params["alpha"], params["phi"]), params["p_in"])
    if "eta" in params:
        state = analytic.apply_loss(state, ChannelSetting(params["eta"]))
    k = params["k"]
    tap = TapSetting(params["T"], 0.0 if k == "optimal" else k, params.get("eta_H", 1.0))
    if k == "optimal":
        # the phase is imprinted by the eta_H R of the light the detector sees
        tap = TapSetting(tap.T, analytic.optimal_k(state.params, tap.eta_H * tap.R), tap.eta_H)
    out, density_css, density_mix = analytic.purify(state, tap)
    return {
        "k": tap.k,
        "p_out": out.p,
        "out_alpha": out.params.alpha,
        "out_phi": out.params.phi,
        "density_css": density_css,
        "density_mix": density_mix,
        "density_joint": state.p * density_css + (1.0 - state.p) * density_mix,
    }


def _cmd_amplify(params: dict[str, Any]) -> dict[str, Any]:
    state = MixedCss(CssParams(params["alpha"], params["phi"]), params["p_in"])
    out = analytic.amplify(state)
    return {"p_out": out.p, "out_alpha": out.params.alpha, "out_phi": out.params.phi}


def _cmd_concat(params: dict[str, Any]) -> dict[str, Any]:
    p_in = params["p_in"]
    p_mid, p_final = analytic.concat_stages(p_in, params["alpha"])
    result: dict[str, Any] = {
        "p_in": p_in,
        "p_mid": p_mid,
        "p_final": p_final,
        "net_change": p_final - p_in,
    }
    if p_final < p_in:
        result["note"] = "no net purification"
    return result


def _cmd_sweep(params: dict[str, Any], reproducible: bool) -> dict[str, Any]:
    """Every parameter but the figure and the output path overrides one of
    the figure's fixed parameters."""
    spec = sweeps.default_spec(params.pop("figure_id"))
    path = params.pop("output", sweeps.csv_name(spec.figure_id))
    rejected = sorted(set(params) - set(spec.fixed_params))
    if rejected:
        raise ConfigError(f"{spec.figure_id} does not take parameter(s): {', '.join(rejected)}")
    fixed = {**spec.fixed_params, **params}
    table = sweeps.run_sweep(sweeps.SweepSpec(spec.figure_id, fixed, spec.grid))
    sweeps.emit_csv(table, path, reproducible=reproducible)
    return {"path": path, "rows": len(table.rows), "columns": len(table.columns)}


def _run_verify(params: dict[str, Any], fmt: str) -> int:
    from .verify import run_suite  # the oracle needs numpy; only verify pays for it

    results = run_suite(**params)  # a flag left out keeps run_suite's default
    if fmt == "json":
        payload = [{**dataclasses.asdict(r), "passed": r.passed} for r in results]
        print(json.dumps(payload, indent=2))
    else:
        for r in results:
            print(r.describe())
    return 0 if all(r.passed for r in results) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catpurify",
        description="Cat-state decoherence, conditional purification and amplification.",
    )
    parser.add_argument("--version", action="version", version=f"catpurify {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, spec) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", metavar="PATH", help="JSON file with parameters; flags override it")
        p.add_argument("--format", choices=_FORMATS, default=None, help="output format (default plain)")
        for key, _, _, text in spec:
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=text)
        if command == "sweep":
            p.add_argument(
                "--reproducible",
                action="store_true",
                help="omit the timestamp comment so identical specs give identical bytes",
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    command = args.command
    flags = {key: getattr(args, key) for key, _, _, _ in _COMMANDS[command][1]}
    flags["format"] = args.format
    try:
        params = resolve_params(command, args.config, flags)
        fmt = params.pop("format", "plain")
        if command == "verify":
            return _run_verify(params, fmt)
        if command == "purify":
            result = _cmd_purify(params)
        elif command == "amplify":
            result = _cmd_amplify(params)
        elif command == "concat":
            result = _cmd_concat(params)
        else:
            result = _cmd_sweep(params, args.reproducible)
        print(_render(result, fmt))
        return 0
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PhysicsError as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
