"""Command-line interface: config parsing, scenario dispatch, CSV emission."""

from __future__ import annotations

import argparse
import ast
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
        if (isinstance(node, ast.Constant) and isinstance(node.value, (int, float))
                and not isinstance(node.value, bool)):   # True and False are ints
            return float(node.value)
        if isinstance(node, ast.Name) and node.id == "pi":
            return math.pi
        raise ConfigError(f"unsupported expression {text!r}")

    try:
        return float(ev(tree))
    except (ZeroDivisionError, OverflowError) as exc:
        raise ConfigError(f"cannot evaluate {text!r}: {exc}") from exc


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_int(text: str) -> int:
    try:
        return int(text.strip())
    except ValueError as exc:
        raise ConfigError(f"expected an integer, got {text!r}") from exc


def _parts(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


# every config key and its parser; ``noise.*`` keys go to NoiseParams, the rest to ScenarioConfig
_PARSERS = {
    "mode": str.strip,
    "phi_grid": lambda text: (None if text.strip() == "default"
                              else tuple(_eval_number(part) for part in _parts(text))),
    "env_state": str.strip,
    "signal_states": lambda text: tuple(_parts(text)),
    "rate": _eval_number,
    "seed": _parse_int,
    "bootstrap_samples": _parse_int,
    "shot_noise": _parse_bool,
    "gate_bootstrap_samples": _parse_int,
    "gate_mle_max_iters": _parse_int,
    "noise.herald_error": _eval_number,
    "noise.gate_depolarizing": _eval_number,
    "noise.phase_jitter_std": _eval_number,
}


def read_config_entries(path: str) -> dict[str, tuple[str, int]]:
    """Read ``key = value`` lines with optional ``[noise]`` style sections; a key may
    appear once (``[noise]`` ``herald_error`` and ``noise.herald_error`` are one key)."""
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
        key = f"{section}.{key}" if section else key
        if key in entries:
            raise ConfigError(f"{path}:{lineno}: key {key!r} repeats line {entries[key][1]}")
        entries[key] = (value, lineno)
    return entries


def build_config(entries: dict[str, tuple[str, int]], source: str = "") -> ScenarioConfig:
    """Convert raw string entries into a validated scenario configuration."""

    def where(key: str) -> str:
        line = entries[key][1]
        return f"{source}:{line}: " if source and line > 0 else ""

    kwargs: dict = {}
    noise_kwargs: dict = {}
    for key, (text, _line) in entries.items():
        if key not in _PARSERS:
            raise ConfigError(f"{where(key)}unknown key {key!r}")
        try:
            value = _PARSERS[key](text)
        except ConfigError as exc:
            raise ConfigError(f"{where(key)}key {key}: {exc}") from exc
        section, _, name = key.rpartition(".")
        (noise_kwargs if section else kwargs)[name] = value
    try:
        kwargs["noise"] = NoiseParams(**noise_kwargs)
        return ScenarioConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_config(path: str | None, overrides: list[str] = ()) -> ScenarioConfig:
    """Load a config file (all defaults when absent) and apply overrides."""
    entries = read_config_entries(path) if path else {}
    replaced = []
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form KEY=VALUE")
        key, value = (part.strip() for part in item.split("=", 1))
        if key in entries:
            replaced.append((key, entries[key]))
        entries[key] = (value, 0)
    config = build_config(entries, source=path or "")
    # a value an override replaced is checked in the config it alone would change
    for key, (text, line) in replaced:
        try:
            build_config({**entries, key: (text, 0)})
        except ConfigError as exc:
            raise ConfigError(f"{path}:{line}: {exc}" if line else
                              f"override {key}={text}: {exc}") from exc
    return config


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="configuration file path")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config key (repeatable)")
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")
    parser.add_argument("--bootstrap", type=int, default=None,
                        help="override the bootstrap sample count "
                             "(gate_bootstrap_samples under gate-tomo)")


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
                           help="accepted for compatibility; has no effect")
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
    from .selftest import _CRITERIA, run_criteria
    numbers = None
    if args.criteria:
        known = [number for number, _name, _fn in _CRITERIA]
        try:
            numbers = tuple(int(part) for part in args.criteria.split(",") if part.strip())
        except ValueError:
            numbers = ()
        if not numbers or not set(numbers) <= set(known):
            raise ConfigError(f"--criteria {args.criteria!r}: expected criterion numbers "
                              f"{known[0]}-{known[-1]}, comma-separated")
    results = run_criteria(numbers)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status}  criterion {res.number}: {res.name}  [{res.detail}]")
        print(f"criterion {res.number} took {res.wall_s:.3f} s", file=sys.stderr)
        failed += 0 if res.passed else 1
    print(f"{len(results) - failed}/{len(results)} criteria passed")
    return 0 if failed == 0 else 1


_COMMAND_MODES = {"protocol": "protocol", "reference": "reference", "gate-tomo": "gate_tomography"}


def _dispatch(args) -> int:
    if args.command == "selftest":
        return _run_selftest(args)

    # channel keeps the config's mode; the other commands set it.  gate-tomo reads
    # only the gate bootstrap, so its flag sets that one
    bootstrap = "gate_bootstrap_samples" if args.command == "gate-tomo" else "bootstrap_samples"
    flags = [f"{key}={value}" for key, value in (("seed", args.seed),
                                                  (bootstrap, args.bootstrap),
                                                  ("mode", _COMMAND_MODES.get(args.command)))
             if value is not None]
    config = parse_config(args.config, [*args.overrides, *flags])
    channel = args.command == "channel"
    if channel:
        if config.mode == "gate_tomography":
            raise ConfigError("channel analysis applies to protocol or reference sweeps")
        if set(config.signal_states) != set(BASIS_LABELS):
            raise ConfigError("channel analysis requires all six signal states")

    if args.command == "gate-tomo":
        result = run_gate_tomography(config)
        paths = write_gate_csv(result, args.out)
        summary = [f"phi={gp.phi:.4f}  F_CCP={gp.fidelity.value:.4f}  "
                   f"P_CCP={gp.purity.value:.4f}" for gp in result.gates]
    else:
        runner = run_protocol_sweep if config.mode == "protocol" else run_reference_sweep
        result = runner(config, states=not channel)
        paths = write_scenario_csvs(result, args.out)
        summary = ([f"phi={pp.phi:.4f}  E_f={pp.channel_ef.value:.4f}  "
                    f"F={pp.channel_fidelity.value:.4f}" for pp in result.phis]
                   if channel else _summarize_sweep(result))
    paths.append(write_manifest(config, args.command, args.out))
    for line in [*summary, *(f"wrote {path}" for path in paths)]:
        print(line)
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
