"""Smoke test of the benchmark's own code: each workload for a few ops.

    python3 bench/smoke.py

Runs every workload with tracing off and on for a fraction of a second,
checks that the last line is the result object with exactly the metrics
``BENCHMARK.json`` names, and checks that a directory holding only the
benchmark (no ``src/``) makes it exit non-zero without printing a result.
Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SECONDS = "0.5"


def run(cwd: Path, script: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(script), "--workload", workload, "--seed", "7",
            "--seconds", SECONDS, "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run(ROOT, BENCH / "run.py", workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} attempted={result['attempted']}")
    names = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != names:
        problems.append(f"{where}: metrics {sorted(got.items())} != {sorted(names.items())}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            problems.append(f"{where}: {name} is not a number")
    if not trace and any(result["metrics"][name]["value"] <= 0 for name in names):
        problems.append(f"{where}: an end-to-end metric reads 0")
    return problems


def check_bare_directory() -> list[str]:
    """Only BENCHMARK.json and bench/: the run must fail and print no result."""
    bare = ROOT / ".bench_out" / "smoke_bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, bare / BENCH.name / "run.py", "sweep_mixed", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-500:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_bare_directory()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_result(spec, workload, trace)
            print(f"{workload} --trace {trace}: {'FAILED' if found else 'ok'}")
            problems += found
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
