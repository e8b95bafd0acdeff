"""Fast tests of the benchmark itself (not of darkstate).

Run from the repository root::

    python3 -m unittest perfbench/check_bench.py

The file name keeps pytest from collecting it with the package's tests.
Each workload runs at a tiny size through the same driver code; the gate
workload cannot shrink below its 6^6 settings, so its test takes about
15 s.  Scratch files go under ``.bench_build`` in the repository.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

TINY = {
    "protocol-sweep": run.Workload(
        "protocol", ("--set", "phi_grid=pi/6, 11*pi/6", "--bootstrap", "4"), 1),
    # two iterations cannot reach the estimate, so all three fig7 rows must
    # fail the correctness check
    "gate-point": run.Workload(
        "gate-tomo", ("--full-3q-tomo", "--set", "phi_grid=pi",
                      "--set", "gate_bootstrap_samples=0",
                      "--set", "gate_mle_max_iters=2"), 1),
}
TINY_FAILED_ROWS = {"protocol-sweep": 0, "gate-point": 3}


def scratch_dir() -> Path:
    run.WORK_ROOT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="check-", dir=run.WORK_ROOT))


def run_main(argv: list[str]) -> tuple[int, dict]:
    out = io.StringIO()
    with mock.patch.dict(run.WORKLOADS, TINY), contextlib.redirect_stdout(out):
        code = run.main(argv)
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


class MetricNames(unittest.TestCase):
    def test_benchmark_json_matches_driver(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER_UNITS)


class TinyWorkloads(unittest.TestCase):
    def check(self, workload: str, trace: int, expected: dict) -> dict:
        code, result = run_main(["--workload", workload, "--seed", "3",
                                 "--seconds", "0", "--trace", str(trace)])
        self.assertEqual(code, 0)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], TINY_FAILED_ROWS[workload])
        self.assertEqual(result["correct"], result["failed"] == 0)
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, expected)
        for name, metric in result["metrics"].items():
            self.assertTrue(math.isfinite(metric["value"]), name)
        return result["metrics"]

    def test_end_to_end_every_workload(self):
        for workload in TINY:
            with self.subTest(workload=workload):
                m = self.check(workload, 0, run.END_TO_END_UNITS)
                self.assertGreater(m["wall_s"]["value"], 0)
                self.assertEqual(m["pass_share"]["value"],
                                 0.0 if TINY_FAILED_ROWS[workload] else 1.0)

    def test_trace_sweep(self):
        m = self.check("protocol-sweep", 1, run.PER_LAYER_UNITS)
        self.assertGreater(m["tomography.mle.d2.batch_replicas"]["value"], 0)
        self.assertGreater(m["tomography.mle.d4.batch_replicas"]["value"], 0)
        self.assertGreater(m["qmath.eof_calls"]["value"], 0)
        self.assertEqual(m["tomography.mle.d64.single_s"]["value"], 0)
        parts = sum(m[k]["value"] for k in run.SELF_TIME_METRICS)
        self.assertAlmostEqual(parts, m["trace.wall_s"]["value"], places=6)

    def test_trace_gate(self):
        m = self.check("gate-point", 1, run.PER_LAYER_UNITS)
        self.assertGreater(m["tomography.mle.d64.single_s"]["value"], 0)
        self.assertEqual(m["tomography.setting_kets_rows"]["value"], 6**6)
        # the iteration cap hit must be counted
        self.assertEqual(m["tomography.mle.d64.unconverged"]["value"], 1)
        self.assertEqual(m["tomography.mle.d2.batch_s"]["value"], 0)


class Correctness(unittest.TestCase):
    def setUp(self):
        self.dir = scratch_dir()
        self.addCleanup(shutil.rmtree, self.dir, True)
        wl = TINY["protocol-sweep"]
        for name, extra in (("noisy", ()), ("analytic", ("--set", "shot_noise=false"))):
            argv = [sys.executable, "-m", "darkstate",
                    *run.darkstate_argv(wl, 5, self.dir / name, extra)]
            res = run.run_child(argv, self.dir / f"{name}.log", 120)
            self.assertEqual(res.returncode, 0, res.stderr)

    def test_clean_copy_passes(self):
        attempted, failed, errors = run.check_rows(read(self.dir / "noisy"),
                                                   read(self.dir / "analytic"))
        self.assertGreater(attempted, 10)
        self.assertEqual(failed, 0)
        self.assertEqual(len(errors), attempted)

    def test_corrupted_copy_fails_rows(self):
        bad = self.dir / "corrupted"
        shutil.copytree(self.dir / "noisy", bad)
        path = bad / "fig3_purity_fidelity_success.csv"
        lines = path.read_text().splitlines()
        header, rows = lines[0], lines[1:]
        fields = [r.split(",") for r in rows]
        fields[0][3] = "nan"                                  # non-finite
        fields[1][3] = repr(float(fields[1][3]) + 0.5)        # out of tolerance
        del fields[2]                                         # missing
        path.write_text("\n".join([header] + [",".join(f) for f in fields]) + "\n")
        attempted, failed, _ = run.check_rows(read(bad), read(self.dir / "analytic"))
        self.assertEqual(failed, 3)
        self.assertEqual(attempted, len(read(self.dir / "analytic")))


def read(path: Path) -> dict:
    return run.read_rows(path)


class TraceHelpers(unittest.TestCase):
    def setUp(self):
        sys.path.insert(0, str(run.SRC))
        self.addCleanup(sys.path.remove, str(run.SRC))
        import trace_child
        self.tc = trace_child

    def test_kets_match_package(self):
        from darkstate import qmath, tomography as t
        for n, process in ((1, False), (2, False), (1, True), (2, True)):
            settings = (t.build_process_settings(n) if process
                        else t.build_state_settings(n))
            want = t.setting_kets(settings, process=process)
            got = self.tc.measurement_kets(settings, process, qmath)
            self.assertEqual(got.shape, want.shape)
            self.assertLess(abs(got - want).max(), 1e-15)

    def test_step_delta_separates_converged_from_start(self):
        import numpy as np
        from darkstate import qmath, tomography as t
        settings = t.build_state_settings(1)
        kets = self.tc.measurement_kets(settings, False, qmath)
        counts = np.array([[70.0, 30.0, 60.0, 40.0, 50.0, 50.0], [0.0] * 6])
        rho = t.mle_state_batched(settings, counts)
        deltas = self.tc.rrr_step_delta(kets, counts, rho)
        self.assertLess(deltas.max(), t.MLE_TOL)
        start = np.tile(np.eye(2, dtype=complex) / 2, (2, 1, 1))
        deltas = self.tc.rrr_step_delta(kets, counts, start)
        self.assertGreater(deltas[0], 1e-3)
        self.assertEqual(deltas[1], 0.0)   # zero counts: defined as converged


class MissingProgram(unittest.TestCase):
    def test_fails_without_sources(self):
        bare = scratch_dir()
        self.addCleanup(shutil.rmtree, bare, True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "gate-point",
                              "--seed", "1", "--seconds", "1", "--trace", "0"],
                             cwd=bare, capture_output=True, text=True, timeout=60,
                             env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
