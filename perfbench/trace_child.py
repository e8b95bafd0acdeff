"""Run one darkstate command with spans around the package's public functions.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/trace_child.py TRACE_JSON COMMAND [ARGS ...]

behaves like ``python -m darkstate COMMAND ARGS ...`` and in addition writes
the per-layer sums of the run to ``TRACE_JSON``.  The package itself is not
modified: each traced function is replaced, in its defining module and at
every ``from ... import`` binding inside the package, by a wrapper that
records a span (name, start, end, parent).  Spans stay in memory and are
summed when the command ends.  A name that no longer exists is skipped, so
the tracer keeps working when the package is refactored.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

# (module, function, span name).  The span name is the layer it belongs to.
TRACED = (
    ("cli", "main", "cli.main"),
    ("experiments", "run_protocol_sweep", "experiments.run"),
    ("experiments", "run_reference_sweep", "experiments.run"),
    ("experiments", "run_gate_tomography", "experiments.run"),
    ("experiments", "write_scenario_csvs", "experiments.write"),
    ("experiments", "write_gate_csv", "experiments.write"),
    ("experiments", "write_manifest", "experiments.write"),
    ("tomography", "mle_state", "tomography.mle"),
    ("tomography", "mle_state_batched", "tomography.mle"),
    ("tomography", "mle_process", "tomography.mle"),
    ("tomography", "mle_process_batched", "tomography.mle"),
    ("tomography", "setting_kets", "tomography.setting_kets"),
    ("tomography", "simulate_channel_counts", "tomography.count_sim"),
    ("tomography", "simulate_counts", "tomography.count_sim"),
    ("tomography", "resample_counts", "tomography.resample"),
    ("qmath", "entanglement_of_formation", "qmath.eof"),
)

# Self times per span name; together they cover the whole of cli.main.
SELF_METRICS = {
    "cli.main": "cli.self_s",
    "experiments.run": "experiments.self_s",
    "experiments.write": "experiments.write_s",
    "tomography.mle": "tomography.mle.self_s",
    "tomography.setting_kets": "tomography.setting_kets_s",
    "tomography.count_sim": "tomography.count_sim_s",
    "tomography.resample": "tomography.resample_s",
    "qmath.eof": "qmath.eof_s",
    "trace.check": "trace.check_s",
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_time", "attrs")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.child_time = 0.0
        self.attrs = {}


class Tracer:
    """In-memory span recorder; one stack because darkstate is single-threaded."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []

    def begin(self, name: str) -> Span:
        span = Span(name, self.stack[-1] if self.stack else None)
        self.spans.append(span)
        self.stack.append(span)
        span.start = time.perf_counter()
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()
        if span.parent is not None:
            span.parent.child_time += span.end - span.start

    def inside(self, name: str) -> bool:
        return any(s.name == name for s in self.stack)


# ---------------------------------------------------------------------------
# convergence check: one external R-rho-R step from the returned estimate

def _label_kets(label_rows, ket, labels):
    """Product kets for rows of single-qubit labels, leftmost most significant."""
    import numpy as np

    table = np.array([ket(lab) for lab in labels], dtype=complex)
    index = {lab: i for i, lab in enumerate(labels)}
    idx = np.array([[index[lab] for lab in row] for row in label_rows], dtype=int)
    out = table[idx[:, 0]]
    for q in range(1, idx.shape[1]):
        out = (out[:, :, None] * table[idx[:, q]][:, None, :]).reshape(len(idx), -1)
    return out


def measurement_kets(settings, process: bool, qmath):
    """Kets of the settings in the package's convention (see ``setting_kets``)."""
    proj = _label_kets([s.projection for s in settings], qmath.ket, qmath.BASIS_LABELS)
    if not process:
        return proj
    prep = _label_kets([s.preparation for s in settings], qmath.ket, qmath.BASIS_LABELS)
    n = len(settings)
    return (prep.conj()[:, :, None] * proj[:, None, :]).reshape(n, -1)


def rrr_step_delta(kets, counts, rho, floor: float = 1e-14):
    """Largest entry change of one R-rho-R step, per replica.

    Replicas with zero total counts are returned as 0: the estimator defines
    their estimate as the maximally mixed state.
    """
    import numpy as np

    kc = kets.conj()
    deltas = np.zeros(len(rho))
    live = np.flatnonzero(counts.sum(axis=1) > 0)
    # small dimensions: whole batch at once; large ones: one replica at a
    # time, so no (N, d, d) intermediate is formed
    step = len(live) if kets.shape[1] <= 16 else 1
    for lo in range(0, len(live), max(step, 1)):
        idx = live[lo:lo + step]
        cur = rho[idx]
        if step > 1:
            p = np.einsum("nd,bde,ne->bn", kc, cur, kets).real
            r_op = np.einsum("bn,nd,ne->bde", counts[idx] / p.clip(floor, None), kets, kc)
        else:
            p = np.einsum("ne,ne->n", kc @ cur[0], kets).real
            r_op = ((kets.T * (counts[idx[0]] / p.clip(floor, None))) @ kc)[None]
        new = r_op @ cur @ r_op
        new = 0.5 * (new + np.conj(np.swapaxes(new, 1, 2)))
        new /= np.einsum("bdd->b", new).real[:, None, None]
        deltas[idx] = np.abs(new - cur).max(axis=(1, 2))
    return deltas


def _estimate_array(result):
    import numpy as np

    if isinstance(result, tuple):
        result = result[0]
    for attr in ("matrix", "chi"):
        if hasattr(result, attr):
            result = getattr(result, attr)
            break
    arr = np.asarray(result)
    return arr[None] if arr.ndim == 2 else arr


def _mle_inputs(fn, args, kwargs):
    """(settings, counts[B, N], process) from an mle_* call, or None."""
    import numpy as np

    try:
        bound = _signature(fn).bind(*args, **kwargs)
    except TypeError:
        return None
    params = bound.arguments
    process = "process" in fn.__name__
    if "tomogram" in params:
        tomo = params["tomogram"]
        return tomo.settings, np.asarray(tomo.counts, dtype=float)[None, :], process
    if "settings" in params and "counts" in params:
        return params["settings"], np.asarray(params["counts"], dtype=float), process
    return None


@functools.lru_cache(maxsize=None)
def _signature(fn):
    return inspect.signature(fn)


# ---------------------------------------------------------------------------
# wrappers

def _wrap(tracer: Tracer, fn, name: str, pkg):
    if name == "tomography.mle":
        return _wrap_mle(tracer, fn, pkg)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if name == "tomography.setting_kets":
            span.attrs["rows"] = len(result)
        elif name == "tomography.resample":
            span.attrs["replicas"] = len(result)
        elif name == "experiments.write":
            paths = result if isinstance(result, list) else [result]
            span.attrs["bytes"] = sum(os.path.getsize(p) for p in paths if os.path.exists(p))
        return result

    return wrapper


def _wrap_mle(tracer: Tracer, fn, pkg):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        outer = not tracer.inside("tomography.mle")
        span = tracer.begin("tomography.mle")
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        inputs = _mle_inputs(fn, args, kwargs) if outer else None
        if inputs is not None:
            check = tracer.begin("trace.check")
            try:
                settings, counts, process = inputs
                kets = measurement_kets(settings, process, pkg.qmath)
                rho = _estimate_array(result)
                deltas = rrr_step_delta(kets, counts, rho)
                tol = getattr(pkg.tomography, "MLE_TOL", 1e-10)
                b = counts.shape[0]
                span.attrs.update(d=int(kets.shape[1]), b=b,
                                  kind="single" if b == 1 else "batch",
                                  unconverged=int((deltas > tol).sum()))
            finally:
                tracer.end(check)
        return result

    return wrapper


def install(tracer: Tracer, pkg) -> list[str]:
    """Replace every traced function at every binding inside the package."""
    modules = [m for key, m in sys.modules.items()
               if key == "darkstate" or key.startswith("darkstate.")]
    installed = []
    for mod_name, fn_name, span_name in TRACED:
        mod = getattr(pkg, mod_name, None)
        fn = getattr(mod, fn_name, None) if mod is not None else None
        if not callable(fn):
            continue
        wrapper = _wrap(tracer, fn, span_name, pkg)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, attr, wrapper)
        installed.append(f"{mod_name}.{fn_name}")
    return installed


# ---------------------------------------------------------------------------
# summary

def summarize(tracer: Tracer) -> dict:
    """Per-layer sums of one traced command."""
    out = {metric: 0.0 for metric in SELF_METRICS.values()}
    counts = {
        "tomography.mle.reconstructions": 0, "tomography.mle.unconverged": 0,
        "tomography.setting_kets_calls": 0, "tomography.setting_kets_rows": 0,
        "tomography.resample_replicas": 0,
        "qmath.eof_calls": 0, "experiments.write_bytes": 0,
    }
    classes: dict[str, float] = {}
    for span in tracer.spans:
        dur = span.end - span.start
        if span.name in SELF_METRICS:
            out[SELF_METRICS[span.name]] += dur - span.child_time
        a = span.attrs
        if span.name == "tomography.mle" and "d" in a:
            key = f"tomography.mle.d{a['d']}.{a['kind']}"
            classes[f"{key}_s"] = classes.get(f"{key}_s", 0.0) + dur
            if a["kind"] == "batch":
                classes[f"{key}_replicas"] = classes.get(f"{key}_replicas", 0) + a["b"]
            else:
                classes[f"{key}_calls"] = classes.get(f"{key}_calls", 0) + 1
            ukey = f"tomography.mle.d{a['d']}.unconverged"
            classes[ukey] = classes.get(ukey, 0) + a["unconverged"]
            counts["tomography.mle.reconstructions"] += a["b"]
            counts["tomography.mle.unconverged"] += a["unconverged"]
        elif span.name == "tomography.setting_kets":
            counts["tomography.setting_kets_calls"] += 1
            counts["tomography.setting_kets_rows"] += a.get("rows", 0)
        elif span.name == "tomography.resample":
            counts["tomography.resample_replicas"] += a.get("replicas", 0)
        elif span.name == "qmath.eof":
            counts["qmath.eof_calls"] += 1
        elif span.name == "experiments.write":
            counts["experiments.write_bytes"] += a.get("bytes", 0)
    out.update(counts)
    out.update(classes)
    out["main_s"] = sum(s.end - s.start for s in tracer.spans if s.parent is None)
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: trace_child.py TRACE_JSON COMMAND [ARGS ...]", file=sys.stderr)
        return 2
    trace_path, command = argv[0], argv[1:]
    import darkstate
    import darkstate.cli

    tracer = Tracer()
    installed = install(tracer, darkstate)
    code = darkstate.cli.main(command)
    summary = summarize(tracer)
    summary["installed"] = installed
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
