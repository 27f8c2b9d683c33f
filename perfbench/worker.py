"""One workload process: a closed loop with one caller, items back to back.

Started by run.py with the BLAS thread limit already in its environment.
Writes one JSON record (environment, timings, deterministic results, oracle
verdicts and, when traced, the per-layer metrics) and, when traced, the
spans next to it.

Untraced: whole rounds run until ``--seconds`` have passed and at least the
workload's deterministic rounds are done. Traced: exactly the deterministic
rounds run, each item twice, once traced and once not, in alternating order;
the time ratio of the two is the tracing overhead, and the two outputs must
be byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback

import numpy as np
import scipy

from tracer import NullTracer, Tracer, layer_metrics
from workloads import WORKLOADS, make_inputs

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_NULL = NullTracer()


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed):
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_VARS},
        "seed": seed,
    }


def steal_ticks():
    """Host steal time of this VM so far (clock ticks), or None."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            return int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def execute(kind, inputs, tr):
    """Run one item; returns (output or None, seconds, error text)."""
    t0 = time.perf_counter()
    try:
        out = kind.run(inputs, tr)
        err = ""
    except Exception as exc:  # an item that raises counts as failed
        out, err = None, f"{type(exc).__name__}: {exc}"
    return out, time.perf_counter() - t0, err


def run(workload_name, seed, seconds, traced):
    wl = WORKLOADS[workload_name]
    tracer = Tracer() if traced else None
    item_s = []          # seconds per item, in order
    det = {"items": 0, "failed": 0, "length_sum": 0.0, "osc_lhs_sum": 0.0,
           "osc_rhs_sum": 0.0}
    digest = hashlib.sha256()
    failures = []
    counts = {}
    attempted = failed = incorrect = 0
    paired = [0.0, 0.0]  # untraced, traced seconds over the same items

    steal0, cpu0 = steal_ticks(), time.process_time()
    start = time.perf_counter()
    rnd = 0
    while rnd < wl.det_rounds or (not traced and time.perf_counter() - start < seconds):
        for slot, kind_name in enumerate(wl.schedule):
            kind = wl.kinds[kind_name]
            item_id = rnd * len(wl.schedule) + slot
            if traced:
                tracer.item = item_id
                runs = {}
                order = (False, True) if item_id % 2 == 0 else (True, False)
                for with_trace in order:
                    inputs = make_inputs(wl, seed, rnd, slot)
                    if with_trace:
                        with tracer.installed(), tracer.span("item"):
                            runs[True] = execute(kind, inputs, tracer)
                    else:
                        runs[False] = execute(kind, inputs, _NULL)
                out, dt, err = runs[True]
                paired[0] += runs[False][1]
                paired[1] += dt
                if out is not None and (runs[False][0] is None
                                        or runs[False][0].text != out.text):
                    err = err or "traced output differs from untraced output"
            else:
                inputs = make_inputs(wl, seed, rnd, slot)
                out, dt, err = execute(kind, inputs, _NULL)
            item_s.append(dt)
            attempted += 1
            counts[kind_name] = counts.get(kind_name, 0) + 1

            value_ok = cert_ok = False
            if not err:
                try:
                    value_ok, cert_ok, err = kind.check(inputs, out)
                except Exception as exc:
                    err = f"oracle raised {type(exc).__name__}: {exc}"
            ok = value_ok and cert_ok and not err
            failed += not ok
            incorrect += not value_ok
            if not ok and len(failures) < 50:
                failures.append({"round": rnd, "slot": slot, "kind": kind_name,
                                 "value_ok": value_ok, "reason": err})
            if rnd < wl.det_rounds:
                det["items"] += 1
                det["failed"] += not ok
                if out is not None:
                    digest.update(out.text.encode())
                    det["length_sum"] += out.sums.get("length", 0.0)
                    det["osc_lhs_sum"] += out.sums.get("osc_lhs", 0.0)
                    det["osc_rhs_sum"] += out.sums.get("osc_rhs", 0.0)
        rnd += 1
    wall = time.perf_counter() - start
    steal1 = steal_ticks()

    det["outputs_sha256"] = digest.hexdigest()
    det["ok_frac"] = 1.0 - det["failed"] / det["items"]
    record = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "env": environment(seed),
        "rounds": rnd,
        "wall_s": wall,
        "cpu_s": time.process_time() - cpu0,
        "steal_ticks": None if steal0 is None or steal1 is None else steal1 - steal0,
        "item_counts": counts,
        "item_s": item_s,
        "det_items": det["items"],
        "deterministic": det,
        "attempted": attempted,
        "failed": failed,
        "correct": incorrect == 0,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if traced:
        layers = layer_metrics(tracer)
        layers["trace.overhead_frac"] = paired[1] / paired[0] - 1.0
        layers["trace.items"] = det["items"]
        record["layers"] = layers
        record["span_totals"] = {k: list(v) for k, v in
                                 sorted(tracer.span_totals().items())}
        record["hot_totals"] = {k: list(v) for k, v in sorted(tracer.hot.items())}
    return record, tracer


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    try:
        record, tracer = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        return 1
    if tracer is not None:
        spans_path = args.out[:-len(".json")] + "-spans.jsonl"
        tracer.write_spans(spans_path)
        record["spans_file"] = os.path.basename(spans_path)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
