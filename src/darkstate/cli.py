"""Command-line interface: config parsing, scenario dispatch, CSV emission."""

from __future__ import annotations

import argparse
import ast
import dataclasses
import math
import sys

import numpy as np

from .experiments import (
    NoiseParams,
    ScenarioConfig,
    run_gate_tomography,
    run_protocol_sweep,
    run_reference_sweep,
    write_gate_csv,
    write_manifest,
    write_scenario_csvs,
)
from .qmath import BASIS_LABELS


class ConfigError(ValueError):
    """Malformed, unknown, or out-of-range configuration input."""


_NOISE_KEYS = ("noise.herald_error", "noise.gate_depolarizing", "noise.phase_jitter_std")
_KNOWN_KEYS = (
    "mode", "phi_grid", "env_state", "signal_states", "rate", "seed",
    "bootstrap_samples", "shot_noise", "gate_bootstrap_samples",
    "gate_mle_max_iters", *_NOISE_KEYS,
)


def _eval_number(text: str) -> float:
    """Evaluate a numeric expression over +-*/, parentheses and ``pi``."""
    try:
        tree = ast.parse(text.strip(), mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"malformed number {text!r}") from exc

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)):
            a, b = ev(node.left), ev(node.right)
            if isinstance(node.op, ast.Add):
                return a + b
            if isinstance(node.op, ast.Sub):
                return a - b
            if isinstance(node.op, ast.Mult):
                return a * b
            return a / b
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            val = ev(node.operand)
            return val if isinstance(node.op, ast.UAdd) else -val
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return float(node.value)
        if isinstance(node, ast.Name) and node.id == "pi":
            return math.pi
        raise ConfigError(f"unsupported expression {text!r}")

    return float(ev(tree))


def _parse_bool(text: str, key: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"key {key}: expected a boolean, got {text!r}")


def _parse_int(text: str, key: str) -> int:
    try:
        return int(text.strip())
    except ValueError as exc:
        raise ConfigError(f"key {key}: expected an integer, got {text!r}") from exc


def read_config_entries(path: str) -> dict[str, tuple[str, int]]:
    """Read ``key = value`` lines with optional ``[noise]`` style sections."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"cannot read config file {path}: {reason}") from exc
    entries: dict[str, tuple[str, int]] = {}
    section = ""
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section != "noise":
                raise ConfigError(f"{path}:{lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        full = f"{section}.{key}" if section else key
        if full not in _KNOWN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {full!r}")
        entries[full] = (value, lineno)
    return entries


def build_config(entries: dict[str, tuple[str, int]], source: str = "") -> ScenarioConfig:
    """Convert raw string entries into a validated scenario configuration."""

    def where(key: str) -> str:
        line = entries[key][1]
        return f"{source}:{line}: " if source and line > 0 else ""

    kwargs: dict = {}
    noise_kwargs: dict = {}
    for key, (text, _line) in entries.items():
        try:
            if key == "mode":
                kwargs["mode"] = text.strip()
            elif key == "env_state":
                kwargs["env_state"] = text.strip()
            elif key == "phi_grid":
                if text.strip() != "default":
                    kwargs["phi_grid"] = tuple(_eval_number(part)
                                               for part in text.split(",") if part.strip())
            elif key == "signal_states":
                kwargs["signal_states"] = tuple(part.strip() for part in text.split(",")
                                                if part.strip())
            elif key == "rate":
                kwargs["rate"] = _eval_number(text)
            elif key == "seed":
                kwargs["seed"] = _parse_int(text, key)
            elif key in ("bootstrap_samples", "gate_bootstrap_samples", "gate_mle_max_iters"):
                kwargs[key] = _parse_int(text, key)
            elif key == "shot_noise":
                kwargs["shot_noise"] = _parse_bool(text, key)
            elif key.startswith("noise."):
                noise_kwargs[key.split(".", 1)[1]] = _eval_number(text)
        except ConfigError as exc:
            raise ConfigError(f"{where(key)}{exc}") from exc
    try:
        kwargs["noise"] = NoiseParams(**noise_kwargs)
        return ScenarioConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_config(path: str | None, overrides: list[str] = ()) -> ScenarioConfig:
    """Load a config file (all defaults when absent) and apply overrides."""
    entries = read_config_entries(path) if path else {}
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form KEY=VALUE")
        key, value = (part.strip() for part in item.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"override references unknown key {key!r}")
        entries[key] = (value, 0)
    return build_config(entries, source=path or "")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="configuration file path")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config key (repeatable)")
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")
    parser.add_argument("--bootstrap", type=int, default=None,
                        help="override the bootstrap sample count")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="darkstate",
        description="Simulate the dark-state decoherence suppression experiment")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("protocol", "heralded protocol sweep (fig3/fig4/fig5 outputs)"),
            ("reference", "unprotected reference sweep (fig3/fig4/fig5 outputs)"),
            ("channel", "signal-channel analysis only (fig5 output)"),
            ("gate-tomo", "three-qubit gate tomography (fig7 output)")):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name == "gate-tomo":
            p.add_argument("--full-3q-tomo", action="store_true",
                           help="acknowledge the 6^6-setting simulation budget")
    p = sub.add_parser("selftest", help="run the acceptance checks")
    p.add_argument("--criteria", default=None,
                   help="comma-separated criterion numbers (default: all)")
    return parser


def _summarize_sweep(result) -> list[str]:
    lines = []
    for pp in result.phis:
        at_phi = [sp for sp in result.states if sp.phi == pp.phi]
        mean_f = float(np.mean([sp.fidelity.value for sp in at_phi]))
        mean_p = float(np.mean([sp.purity.value for sp in at_phi]))
        mean_s = float(np.mean([sp.success_norm.value for sp in at_phi]))
        lines.append(f"phi={pp.phi:.4f}  F_S={mean_f:.4f}  P_S={mean_p:.4f}  "
                     f"Ptilde={mean_s:.4f}  p1E={pp.mean_env_pop1.value:.4f}")
    return lines


def _run_selftest(args) -> int:
    from .selftest import run_criteria
    numbers = None
    if args.criteria:
        numbers = tuple(int(part) for part in args.criteria.split(",") if part.strip())
    results = run_criteria(numbers)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status}  criterion {res.number}: {res.name}  [{res.detail}]")
        print(f"criterion {res.number} took {res.wall_s:.3f} s", file=sys.stderr)
        failed += 0 if res.passed else 1
    print(f"{len(results) - failed}/{len(results)} criteria passed")
    return 0 if failed == 0 else 1


def _dispatch(args) -> int:
    if args.command == "selftest":
        return _run_selftest(args)

    flags = [f"{key}={value}" for key, value in (("seed", args.seed),
                                                  ("bootstrap_samples", args.bootstrap))
             if value is not None]
    config = parse_config(args.config, [*args.overrides, *flags])

    if args.command in ("protocol", "reference"):
        config = dataclasses.replace(config, mode=args.command)
        runner = run_protocol_sweep if args.command == "protocol" else run_reference_sweep
        result = runner(config)
        paths = write_scenario_csvs(result, args.out)
        paths.append(write_manifest(config, args.command, args.out))
        for line in _summarize_sweep(result):
            print(line)
    elif args.command == "channel":
        if config.mode == "gate_tomography":
            raise ValueError("channel analysis applies to protocol or reference sweeps")
        if set(config.signal_states) != set(BASIS_LABELS):
            raise ValueError("channel analysis requires all six signal states")
        runner = run_protocol_sweep if config.mode == "protocol" else run_reference_sweep
        result = runner(config, figures=("fig5",))
        paths = write_scenario_csvs(result, args.out)
        paths.append(write_manifest(config, "channel", args.out))
        for pp in result.phis:
            print(f"phi={pp.phi:.4f}  E_f={pp.channel_ef.value:.4f}  "
                  f"F={pp.channel_fidelity.value:.4f}")
    else:  # gate-tomo
        config = dataclasses.replace(config, mode="gate_tomography")
        result = run_gate_tomography(config, acknowledge_full_tomography=args.full_3q_tomo)
        paths = write_gate_csv(result, args.out)
        paths.append(write_manifest(config, "gate-tomo", args.out))
        for gp in result.gates:
            print(f"phi={gp.phi:.4f}  F_CCP={gp.fidelity.value:.4f}  "
                  f"P_CCP={gp.purity.value:.4f}")
    for path in paths:
        print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())
