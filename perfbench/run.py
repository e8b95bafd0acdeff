#!/usr/bin/env python3
"""Benchmark driver for darkstate (standard library only).

Run from the repository root::

    python3 perfbench/run.py --workload protocol-sweep --seed 1 --seconds 40 --trace 0

Each workload runs ``python -m darkstate COMMAND ...`` in a fresh child
process, one at a time (a closed loop with one client).  The workload's
inputs are a fixed set of darkstate seeds derived from ``--seed``; the loop
cycles over them until ``--seconds`` have passed and every seed has run at
least once.  Every run's CSV rows are checked against the shot-noise-free
analytic track of the same command, and repeats of a seed must write the
same bytes.  With ``--trace 0`` the end-to-end metrics are printed; with
``--trace 1`` one untraced pass and one traced pass
(``perfbench/trace_child.py``) give the per-layer metrics.  The last line
of standard output is one JSON object.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build"

SETUP_REPEATS = 7
RUN_TIMEOUT_S = 170.0   # the whole benchmark must end within 180 s
SEED_STRIDE = 1000      # darkstate seed j of benchmark seed s is s * SEED_STRIDE + j


@dataclass(frozen=True)
class Workload:
    command: str
    args: tuple[str, ...]
    seeds: int          # distinct darkstate seeds per benchmark run


# Why each workload exists, and how it was sized: perfbench/README.md.
WORKLOADS = {
    "protocol-sweep": Workload("protocol", ("--bootstrap", "30"), 20),
    "gate-point": Workload(
        "gate-tomo",
        ("--full-3q-tomo", "--set", "phi_grid=pi", "--set", "gate_bootstrap_samples=0"),
        3),
}

# A row fails when |value - analytic| > STD_MULTIPLE * std + floor.  With
# 30 bootstrap replicas the std is itself uncertain (Student t, 29 degrees
# of freedom): a 6-std cut would flag about one correct row in the ~7e4
# rows that ten runs check, and a 5.4-std row was seen in the baseline
# runs.  The small floor admits rows whose estimate sits on the boundary of
# state space (pure states: purity 1 - 2e-10 with std 3e-11).  fig7 rows
# carry no bootstrap (std = 0), so they get a fixed floor, about eight
# times the largest deviation seen in the baseline runs (2.6e-4).
STD_MULTIPLE = 7.0
ABS_FLOOR = {"fig7_gate.csv": 2e-3}
DEFAULT_FLOOR = 1e-6

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "pass_share": "1", "mean_abs_err": "1"}

PER_LAYER_UNITS = {
    "tomography.mle.d2.batch_s": "s",
    "tomography.mle.d2.batch_replicas": "count",
    "tomography.mle.d2.unconverged": "count",
    "tomography.mle.d2.single_s": "s",
    "tomography.mle.d2.single_calls": "count",
    "tomography.mle.d4.batch_s": "s",
    "tomography.mle.d4.batch_replicas": "count",
    "tomography.mle.d4.unconverged": "count",
    "tomography.mle.d4.single_s": "s",
    "tomography.mle.d64.single_s": "s",
    "tomography.mle.d64.unconverged": "count",
    "tomography.mle.self_s": "s",
    "tomography.mle.unconverged_share": "1",
    "tomography.setting_kets_s": "s",
    "tomography.setting_kets_calls": "count",
    "tomography.setting_kets_rows": "count",
    "tomography.count_sim_s": "s",
    "tomography.resample_s": "s",
    "tomography.resample_replicas": "count",
    "qmath.eof_s": "s",
    "qmath.eof_calls": "count",
    "experiments.self_s": "s",
    "experiments.write_s": "s",
    "experiments.write_bytes": "bytes",
    "cli.self_s": "s",
    "cli.process_s": "s",
    "cli.cpu_s": "s",
    "trace.check_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

# Self times that add up to trace.wall_s.
SELF_TIME_METRICS = (
    "cli.process_s", "cli.self_s", "experiments.self_s", "experiments.write_s",
    "tomography.mle.self_s", "tomography.setting_kets_s", "tomography.count_sim_s",
    "tomography.resample_s", "qmath.eof_s", "trace.check_s",
)


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no program, no interpreter support)."""


@dataclass
class ChildRun:
    wall_s: float
    returncode: int
    maxrss_mb: float
    cpu_s: float
    stderr: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], log_path: Path, timeout: float) -> ChildRun:
    """Run one child to completion and return its wall time and rusage."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=log)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
    return ChildRun(wall, proc.returncode, usage.ru_maxrss / 1024.0,
                    usage.ru_utime + usage.ru_stime, stderr)


def darkstate_argv(workload: Workload, seed: int, out: Path,
                   extra: tuple[str, ...] = ()) -> list[str]:
    return [workload.command, "--seed", str(seed), "--out", str(out),
            *workload.args, *extra]


# ---------------------------------------------------------------------------
# output correctness

def read_rows(outdir: Path) -> dict[tuple, tuple[float, float]]:
    """All CSV rows of a run, keyed by file and label columns."""
    rows = {}
    for path in sorted(outdir.glob("*.csv")):
        with open(path, newline="", encoding="ascii") as fh:
            for rec in csv.DictReader(fh):
                value = _as_float(rec.pop("value", None))
                std = _as_float(rec.pop("std", None))
                rows[(path.name, *sorted(rec.items()))] = (value, std)
    return rows


def _as_float(text) -> float:
    try:
        return float(text)
    except (TypeError, ValueError):
        return math.nan


def check_rows(rows: dict, analytic: dict) -> tuple[int, int, list[float]]:
    """(attempted, failed, absolute errors of the rows with finite values)."""
    failed = 0
    errors = []
    keys = set(analytic) | set(rows)
    for key in keys:
        if key not in rows or key not in analytic:
            failed += 1
            continue
        value, std = rows[key]
        ref = analytic[key][0]
        if not (math.isfinite(value) and math.isfinite(std) and math.isfinite(ref)) or std < 0:
            failed += 1
            continue
        err = abs(value - ref)
        if err > STD_MULTIPLE * std + ABS_FLOOR.get(key[0], DEFAULT_FLOOR):
            failed += 1
            print(f"# row out of tolerance: {key} value {value!r} analytic {ref!r} "
                  f"std {std!r}", file=sys.stderr)
        errors.append(err)
    return len(keys), failed, errors


def output_bytes(outdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir()) if p.is_file()}


# ---------------------------------------------------------------------------
# machine facts

PROBE = r"""
import ctypes, glob, json, os, platform, sys
import numpy
facts = {"python": platform.python_version(), "numpy": numpy.__version__}
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
except Exception as exc:  # older numpy: no dict mode
    facts["blas"] = f"unknown ({type(exc).__name__})"
threads = None
libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
for lib in glob.glob(os.path.join(libdir, "*openblas*")):
    try:
        handle = ctypes.CDLL(lib)
    except OSError:
        continue
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                 "openblas_get_num_threads"):
        fn = getattr(handle, name, None)
        if fn is not None:
            threads = int(fn())
            break
facts["blas_threads"] = threads
print(json.dumps(facts))
"""


def machine_facts() -> dict:
    facts = {"nproc": os.cpu_count(), "cpu_model": "unknown",
             "platform": platform.platform()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    out = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=child_env(),
                         capture_output=True, text=True, timeout=60)
    if out.returncode != 0:
        raise BenchmarkError(f"numpy probe failed: {out.stderr.strip()[-300:]}")
    facts.update(json.loads(out.stdout.strip().splitlines()[-1]))
    return facts


# ---------------------------------------------------------------------------
# the benchmark

class Bench:
    def __init__(self, name: str, seed: int, seconds: float, workdir: Path):
        self.workload = WORKLOADS[name]
        self.seeds = [seed * SEED_STRIDE + j for j in range(self.workload.seeds)]
        self.seconds = seconds
        self.workdir = workdir
        self.started = time.perf_counter()
        self.counter = 0
        self.analytic: dict = {}
        self.first_bytes: dict[int, dict[str, bytes]] = {}
        self.first_rows: dict[int, dict] = {}
        self.bad_seeds: set[int] = set()
        self.walls: dict[int, list[float]] = {s: [] for s in self.seeds}
        self.rss: list[float] = []

    def remaining(self) -> float:
        return RUN_TIMEOUT_S - (time.perf_counter() - self.started)

    def _fresh(self, stem: str) -> tuple[Path, Path]:
        self.counter += 1
        out = self.workdir / f"{stem}{self.counter}"
        return out, self.workdir / f"{stem}{self.counter}.log"

    def setup_times(self) -> list[float]:
        """Fresh interpreter + ``import darkstate.cli``; the first import warms caches."""
        argv = [sys.executable, "-c", "import darkstate.cli"]
        times = []
        for i in range(SETUP_REPEATS + 1):
            res = run_child(argv, self.workdir / "setup.log", self.remaining())
            if res.returncode != 0:
                raise BenchmarkError(f"cannot import darkstate.cli: {res.stderr.strip()[-300:]}")
            if i:
                times.append(res.wall_s)
        return times

    def run_analytic(self) -> None:
        out, log = self._fresh("analytic")
        argv = [sys.executable, "-m", "darkstate",
                *darkstate_argv(self.workload, self.seeds[0], out,
                                ("--set", "shot_noise=false"))]
        res = run_child(argv, log, self.remaining())
        if res.returncode != 0:
            raise BenchmarkError(f"analytic run failed ({res.returncode}): {res.stderr[-300:]}")
        self.analytic = read_rows(out)
        if not self.analytic:
            raise BenchmarkError("analytic run wrote no CSV rows")
        shutil.rmtree(out)

    def run_once(self, seed: int, trace_path: Path | None = None) -> ChildRun:
        out, log = self._fresh("run")
        args = darkstate_argv(self.workload, seed, out)
        if trace_path is None:
            argv = [sys.executable, "-m", "darkstate", *args]
        else:
            argv = [sys.executable, str(BENCH_DIR / "trace_child.py"), str(trace_path), *args]
        res = run_child(argv, log, self.remaining())
        if res.returncode != 0 or not out.is_dir():
            self.bad_seeds.add(seed)
            print(f"# seed {seed}: exit code {res.returncode}: {res.stderr.strip()[-300:]}",
                  file=sys.stderr)
        else:
            got = output_bytes(out)
            if seed not in self.first_bytes:
                self.first_bytes[seed] = got
                self.first_rows[seed] = read_rows(out)
            elif got != self.first_bytes[seed]:
                self.bad_seeds.add(seed)
                print(f"# seed {seed}: outputs differ between repeats", file=sys.stderr)
        if out.is_dir():
            shutil.rmtree(out)
        return res

    def closed_loop(self) -> int:
        """Cycle over the seeds until time is up; returns the number of runs."""
        loop_start = time.perf_counter()
        n = 0
        while True:
            done_all = n >= len(self.seeds)
            if done_all and time.perf_counter() - loop_start >= self.seconds:
                break
            if n and self.remaining() < 2.0 * max(max(w) for w in self.walls.values() if w):
                if not done_all:
                    print("# time budget exhausted before every seed ran", file=sys.stderr)
                break
            seed = self.seeds[n % len(self.seeds)]
            res = self.run_once(seed)
            self.walls[seed].append(res.wall_s)
            self.rss.append(res.maxrss_mb)
            n += 1
        return n

    def correctness(self) -> tuple[int, int, list[float]]:
        attempted = failed = 0
        errors: list[float] = []
        for seed in self.seeds:
            if seed in self.bad_seeds or seed not in self.first_rows:
                attempted += len(self.analytic)
                failed += len(self.analytic)
                continue
            a, f, e = check_rows(self.first_rows[seed], self.analytic)
            attempted += a
            failed += f
            errors.extend(e)
        return attempted, failed, errors


def end_to_end(bench: Bench) -> tuple[dict, int, int]:
    setup = bench.setup_times()
    bench.run_analytic()
    runs = bench.closed_loop()
    attempted, failed, errors = bench.correctness()
    walls = [w for ws in bench.walls.values() for w in ws]
    # median over the seeds of each seed's median: the seeds are the inputs,
    # their repeats only add timing noise
    values = {
        "wall_s": statistics.median(statistics.median(ws)
                                    for ws in bench.walls.values() if ws),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(bench.rss),
        "pass_share": 1.0 - failed / attempted,
        "mean_abs_err": statistics.fmean(errors) if errors else math.nan,
    }
    print(f"# {runs} runs over {len(bench.seeds)} seeds; wall_s per run: "
          + " ".join(f"{w:.3f}" for w in walls))
    print("# setup_s samples: " + " ".join(f"{t:.4f}" for t in setup))
    print(f"# failed_share = {failed}/{attempted} = {failed / attempted:.6g}")
    return ({k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()},
            attempted, failed)


def per_layer(bench: Bench) -> tuple[dict, int, int]:
    bench.run_analytic()
    untraced = {}
    for seed in bench.seeds:
        res = bench.run_once(seed)
        untraced[seed] = res.wall_s
    sums: dict[str, float] = {}
    traced_wall = 0.0
    for seed in bench.seeds:
        trace_path = bench.workdir / f"trace{seed}.json"
        res = bench.run_once(seed, trace_path)
        if res.returncode != 0 or not trace_path.exists():
            bench.bad_seeds.add(seed)
            continue
        summary = json.loads(trace_path.read_text())
        if not sums:
            print("# traced functions: " + " ".join(summary["installed"]))
        summary["cli.process_s"] = res.wall_s - summary["main_s"]
        summary["cli.cpu_s"] = res.cpu_s
        for key, value in summary.items():
            if isinstance(value, (int, float)):
                sums[key] = sums.get(key, 0) + value
        traced_wall += res.wall_s
    attempted, failed, _ = bench.correctness()
    totals = {name: sums.get(name, 0) for name in PER_LAYER_UNITS}
    totals["trace.wall_s"] = traced_wall
    totals["trace.overhead_s"] = traced_wall - sum(untraced.values())
    recon = sums.get("tomography.mle.reconstructions", 0)
    totals["tomography.mle.unconverged_share"] = (
        sums.get("tomography.mle.unconverged", 0) / recon if recon else 0.0)
    accounted = sum(totals[k] for k in SELF_TIME_METRICS)
    print(f"# traced wall {traced_wall:.4f} s; self times add up to {accounted:.4f} s")
    attempted += 1
    if abs(accounted - traced_wall) > 1e-6 * max(1.0, traced_wall):
        print("# self times do not add up to the traced wall time", file=sys.stderr)
        failed += 1
    return ({k: {"value": totals[k], "unit": u} for k, u in PER_LAYER_UNITS.items()},
            attempted, failed)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seed < 0:
        print("--seed must be nonnegative", file=sys.stderr)
        return 2
    if not (SRC / "darkstate" / "__init__.py").is_file():
        print(f"darkstate sources not found under {SRC}", file=sys.stderr)
        return 2
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-", dir=WORK_ROOT))
    try:
        bench = Bench(args.workload, args.seed, args.seconds, workdir)
        facts = machine_facts()
        facts.update(workload=args.workload, seed=args.seed, trace=args.trace,
                     darkstate_seeds=bench.seeds)
        print("# machine " + json.dumps(facts, sort_keys=True))
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, failed = measure(bench)
    except BenchmarkError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    ok = failed == 0 and all(math.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
