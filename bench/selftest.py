"""Self-test of the benchmark: BENCHMARK.json, the result schema and metric names.

    python3 bench/selftest.py

Checks that ``BENCHMARK.json`` lists exactly the metrics ``run.py`` reports,
with the same units and within the file's limits; runs every workload in
quick mode with tracing off and on and checks each last output line; and
checks that the benchmark refuses to run in a directory holding only
``BENCHMARK.json`` and ``bench/``.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import gen
import run

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_benchmark_json(errors: list[str]):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(doc) != want:
        errors.append(f"BENCHMARK.json keys {sorted(doc)} != {sorted(want)}")
        return
    if [w["name"] for w in doc["workloads"]] != list(gen.WORKLOADS):
        errors.append("workloads differ from gen.WORKLOADS")
    if doc["run_seconds"] != run.RUN_SECONDS:
        errors.append("run_seconds differs from run.RUN_SECONDS")
    for key, table, extra in (("end_to_end", run.END_TO_END, {"better", "bound"}),
                              ("per_layer", run.PER_LAYER, {"better"})):
        got = [(m["name"], m["unit"]) for m in doc[key]]
        if got != list(table):
            errors.append(f"{key} names/units differ from run.py")
        for m in doc[key]:
            if set(m) != {"name", "unit"} | extra:
                errors.append(f"{key} {m['name']}: keys {sorted(m)}")
            if not NAME.match(m["name"]) or not UNIT.match(m["unit"]):
                errors.append(f"{key} {m['name']}: bad name or unit")
            if m["better"] not in ("lower", "higher"):
                errors.append(f"{key} {m['name']}: better = {m['better']!r}")
            if "bound" in m and not 0 < m["bound"] <= 0.25:
                errors.append(f"{key} {m['name']}: bound {m['bound']} outside (0, 0.25]")
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower" \
            or setup[0]["bound"] != max(m["bound"] for m in doc["end_to_end"]):
        errors.append("setup_s must be in s, lower is better, with the largest bound")
    for w in doc["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            errors.append(f"workload {w.get('name')}: needs a one-line why")


def check_result_line(line: str, table, label: str, errors: list[str]):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        errors.append(f"{label}: last line is not JSON")
        return
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: keys {sorted(result)}")
        return
    if result["correct"] is not True:
        errors.append(f"{label}: correct is {result['correct']}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int) and result["failed"] >= 0):
        errors.append(f"{label}: attempted/failed not whole numbers")
    metrics = result["metrics"]
    if [(k, v["unit"]) for k, v in metrics.items()] != list(table):
        errors.append(f"{label}: metric names or units differ from BENCHMARK.json")
    for name, m in metrics.items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)) \
                or not math.isfinite(m["value"]):
            errors.append(f"{label}: metric {name} is not a finite number")


def check_runs(errors: list[str]):
    for workload in gen.WORKLOADS:
        for trace, table in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            label = f"{workload} trace={trace}"
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(gen.DEFAULT_SEED), "--seconds", "1", "--trace", str(trace),
                 "--quick"], cwd=ROOT, capture_output=True, text=True, timeout=180)
            if proc.returncode != 0:
                errors.append(f"{label}: exit code {proc.returncode}: {proc.stderr[-500:]}")
                continue
            check_result_line(proc.stdout.strip().splitlines()[-1], table, label, errors)
            print(f"ok {label}")


def check_refuses_without_source(errors: list[str]):
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "stream", "--seed", "1",
             "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
            timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append("run.py must fail, printing no result, without the library source")


def main() -> int:
    errors: list[str] = []
    check_benchmark_json(errors)
    check_refuses_without_source(errors)
    check_runs(errors)
    for e in errors:
        print(f"FAIL {e}")
    print("selftest passed" if not errors else f"selftest failed: {len(errors)} problem(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
