"""minkbill benchmark entry point.

    python3 perfbench/run.py --workload billiard|planks|oscillation \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nothing needs installing. With
``--trace 0`` it measures set-up time (fresh interpreters importing
``minkbill.cli``) and runs the workload untraced in a child process; with
``--trace 1`` it measures the import breakdown and runs the workload traced.
It prints one line per metric, then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Each run also leaves a
record (and, traced, its spans) under ``.perfbench_out/``.

Oracle failures of the library show in ``failed``, ``correct`` and
``ok_frac``; the exit code is non-zero only when the benchmark itself cannot
run (no source tree, a crashed or hung worker, a metric that BENCHMARK.json
does not declare).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("billiard", "planks", "oscillation")

BLAS_THREADS = "1"     # one caller, one compute thread (at most nproc)
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
TIME_LIMIT_S = 170.0   # the whole run, set-up included
TAIL_BEYOND = 10       # items required beyond the reported tail percentile

IMPORT_TIMER = ("import time; t = time.perf_counter(); import minkbill.cli; "
                "print(time.perf_counter() - t)")
SCIPY_PARTS = ("stats", "spatial", "optimize")

END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "item_ms_p50": "ms",
                    "item_ms_tail": "ms", "ok_frac": "frac", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


def _run(cmd, env, deadline):
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError("time limit reached before " + " ".join(cmd[:3]))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    return proc


def measure_setup(env, deadline):
    """Median wall time of a fresh interpreter importing minkbill.cli."""
    cmd = [sys.executable, "-c", "import minkbill.cli"]
    _run(cmd, env, deadline)  # warm-up: byte-compiles the sources once
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        _run(cmd, env, deadline)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), times


def measure_imports(env, deadline):
    """Import breakdown from -X importtime (medians over a few runs)."""
    cmd = [sys.executable, "-X", "importtime", "-c", IMPORT_TIMER]
    _run(cmd, env, deadline)
    total, parts = [], {p: [] for p in SCIPY_PARTS}
    for _ in range(IMPORT_REPEATS):
        proc = _run(cmd, env, deadline)
        total.append(float(proc.stdout.strip().splitlines()[-1]))
        seen = {}
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)\s*$", line)
            if m:
                seen[m.group(2)] = int(m.group(1)) * 1e-6
        for p in SCIPY_PARTS:
            parts[p].append(seen.get("scipy." + p, 0.0))
    out = {"cli.import_s": statistics.median(total)}
    for p in SCIPY_PARTS:
        out[f"cli.import_scipy_{p}_s"] = statistics.median(parts[p])
    return out


def tail(times):
    """Value at the highest percentile with TAIL_BEYOND items beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    k = max(n - 1 - TAIL_BEYOND, 0)
    return ordered[k], 100.0 * (k + 1) / n, n


def end_to_end(record, setup_s):
    det_s = record["item_s"][:record["det_items"]]
    value, pct, n = tail(det_s)
    metrics = {
        "setup_s": setup_s,
        "items_per_s": len(record["item_s"]) / sum(record["item_s"]),
        "item_ms_p50": 1e3 * statistics.median(det_s),
        "item_ms_tail": 1e3 * value,
        "ok_frac": record["deterministic"]["ok_frac"],
        "peak_rss_mb": record["peak_rss_mb"],
    }
    notes = {"item_ms_tail": f"p{pct:.1f} of {n} items",
             "item_ms_p50": f"of {n} items",
             "items_per_s": f"{len(record['item_s'])} items"}
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, notes


def per_layer(record, imports):
    det = record["deterministic"]
    metrics = dict(imports)
    metrics.update(record["layers"])
    metrics["billiards.length_sum"] = det["length_sum"]
    metrics["oscillation.lhs_sum"] = det["osc_lhs_sum"]
    metrics["oscillation.rhs_sum"] = det["osc_rhs_sum"]
    return metrics


def layer_unit(name):
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("_sum"):
        return "1"
    return "count"


def check_declared(section, metrics):
    """Every printed metric is declared in BENCHMARK.json, with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m for m in spec[section]}
    if set(declared) != set(metrics):
        raise BenchError(f"metrics differ from BENCHMARK.json {section}: "
                         f"undeclared {sorted(set(metrics) - set(declared))}, "
                         f"missing {sorted(set(declared) - set(metrics))}")
    for name, (_, unit) in metrics.items():
        if declared[name]["unit"] != unit:
            raise BenchError(f"{name}: unit {unit!r} but BENCHMARK.json says "
                             f"{declared[name]['unit']!r}")
    return declared


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.perf_counter() + TIME_LIMIT_S
    if not (ROOT / "src" / "minkbill" / "__init__.py").is_file():
        print(f"error: no minkbill source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            imports = measure_imports(env, deadline)
        else:
            setup_s, setup_runs = measure_setup(env, deadline)
        _run([sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace), "--out", f"{stem}.json"], env, deadline)
        record = json.loads(Path(f"{stem}.json").read_text(encoding="utf-8"))
        if args.trace:
            metrics = {k: (v, layer_unit(k))
                       for k, v in per_layer(record, imports).items()}
            notes = {}
        else:
            metrics, notes = end_to_end(record, setup_s)
            record["setup_runs_s"] = setup_runs
        declared = check_declared("per_layer" if args.trace else "end_to_end", metrics)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record["metric_notes"] = notes
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True),
                                    encoding="utf-8")
    env_rec = record["env"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={record['rounds']} items={record['attempted']} "
          f"(deterministic set {record['det_items']}) failed={record['failed']} "
          f"nproc={env_rec['nproc']} blas_threads={BLAS_THREADS} "
          f"python={env_rec['python']} numpy={env_rec['numpy']} "
          f"scipy={env_rec['scipy']} cpu={env_rec['cpu_model']!r}")
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"{name:32s} {value:>16.6g} {unit:6s} "
              f"({declared[name]['better']} is better) {note}".rstrip())
    for f in record["failures"][:5]:
        print(f"# failed: round {f['round']} slot {f['slot']} {f['kind']}: {f['reason']}")
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
