"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py [--workloads planks oscillation] [--seed N]

1. BENCHMARK.json has the declared shape, with a unit and a direction that
   counts as better for every metric; run.py checks on every run that what
   it prints is exactly what BENCHMARK.json declares, units included.
2. The deterministic results (oracle verdicts, result sums, a hash of every
   output) are byte-identical across two untraced runs with the same seed
   and between a traced and an untraced run, so tracing changes no result.
3. Without a source tree (only BENCHMARK.json and perfbench/) the benchmark
   exits non-zero without printing a result.

Exits 1 on the first failed check. A billiard check takes a few minutes.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")


def fail(msg):
    print(f"selfcheck FAILED: {msg}")
    sys.exit(1)


def check_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if set(spec) != {"command", "paths", "run_seconds", "workloads",
                     "end_to_end", "per_layer"}:
        fail(f"BENCHMARK.json keys {sorted(spec)}")
    names = [w["name"] for w in spec["workloads"]]
    for section, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                          ("per_layer", {"name", "unit", "better"})):
        for m in spec[section]:
            if set(m) != keys or not NAME.match(m["name"]) or not UNIT.match(m["unit"]) \
                    or m["better"] not in ("lower", "higher"):
                fail(f"{section} entry {m}")
            if section == "end_to_end" and not 0 < m["bound"] <= 0.25:
                fail(f"bound of {m['name']}")
            names.append(m["name"])
    if len(names) != len(set(names)):
        fail("a name is used twice")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        fail("setup_s missing or malformed")
    return spec


def run(workload, seed, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(workload, seed, trace):
    proc = run(workload, seed, trace)
    if proc.returncode != 0:
        fail(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
    # run.py itself refuses to print a metric BENCHMARK.json does not declare
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    record = json.loads((OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json")
                        .read_text(encoding="utf-8"))
    return json.dumps(record["deterministic"], sort_keys=True)


def check_bare(spec):
    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("planks", 1, 0, cwd=bare, script=bare / "perfbench" / "run.py")
    shutil.rmtree(bare)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        fail("benchmark without a source tree did not fail cleanly")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", default=["planks", "oscillation", "billiard"])
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    spec = check_spec()
    check_bare(spec)
    print("ok: BENCHMARK.json shape; bare directory fails cleanly")
    for w in args.workloads:
        first = check_result(w, args.seed, 0)
        second = check_result(w, args.seed, 0)
        traced = check_result(w, args.seed, 1)
        if first != second:
            fail(f"{w}: deterministic results differ between two runs\n{first}\n{second}")
        if first != traced:
            fail(f"{w}: deterministic results differ with tracing\n{first}\n{traced}")
        print(f"ok: {w}: metrics declared; deterministic results identical "
              f"across runs and with tracing: {first}")


if __name__ == "__main__":
    main()
