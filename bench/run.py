"""Benchmark of holmes_planner: one workload, one seed, one run.

    python3 bench/run.py --workload {cli_cold,sweep_mixed,large_8192}
                         --seed N --seconds S --trace {0,1}

Run it from anywhere inside a checkout; it imports ``holmes_planner`` from
the checkout's ``src/`` and refuses to run against any other copy.  One
client drives the program in a closed loop (the next op starts when the
last one returns) until the ops have taken ``--seconds`` of time.  Times
are scaled to a reference core speed by the gauge in ``gauge.py``, which
is timed around every op; the loop also counts scaled time.  Every output
is checked; a wrong output makes the run fail with exit code 1.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics.  With ``--trace 1`` the loop runs untraced for half
the time and traced for the other half, and the JSON holds the per-layer
metrics of the traced half; its spans are written to ``.bench_out/`` when
the run ends.  The lines before the JSON repeat each metric with its unit,
plus provenance, notes and the ``sim_digest`` of the simulated statistics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from gauge import timed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("cli_cold", "sweep_mixed", "large_8192")  # workloads.WORKLOADS, before import
SETUP_REPS = 7  # set-up runs per run; setup_s is their median
FLOOR_REPS = 10  # bare-interpreter starts measured in a traced run

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "import.package_ms": "ms",
    "import.interpreter_ms": "ms",
    "cli.parse_args_ms": "ms",
    "config.decode_ms": "ms",
    "config.parse_ms": "ms",
    "config.reject_ms": "ms",
    "config.rejected": "count",
    "planner.diagnostics_ms": "ms",
    "groups.validate_ms": "ms",
    "nic_select.order_ms": "ms",
    "groups.build_ms": "ms",
    "groups.rows": "count",
    "nic_select.assign_ms": "ms",
    "nic_select.naive_ms": "ms",
    "nic_select.assignments": "count",
    "nic_select.fallbacks": "count",
    "partition.plan_ms": "ms",
    "partition.clamped": "count",
    "simulator.simulate_ms": "ms",
    "simulator.events": "count",
    "simulator.us_per_event": "us",
    "simulator.reduce_scatter_ms": "ms",
    "planner.run_strategy_ms": "ms",
    "serialise.to_json_ms": "ms",
    "serialise.dumps_ms": "ms",
    "serialise.output_bytes": "bytes",
    "op.self_ms": "ms",
    "trace.op_ms": "ms",
    "trace.overhead_ms": "ms",
}


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_package() -> tuple[float, Path]:
    """Import holmes_planner from this checkout's src/; return (ms, file)."""
    if not (SRC / "holmes_planner" / "__init__.py").is_file():
        fail(f"{SRC} holds no holmes_planner package; run inside a checkout")
    sys.path.insert(0, str(SRC))
    module, _, scaled = timed(lambda: importlib.import_module("holmes_planner.cli"))
    loaded = Path(sys.modules["holmes_planner"].__file__).resolve()
    if SRC.resolve() not in loaded.parents:
        fail(f"holmes_planner was imported from {loaded}, not from {SRC}")
    return scaled * 1e3, loaded


def _commit() -> str | None:
    """HEAD of the checkout when it is a git repository (read, not run)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def provenance(package: Path, nproc: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "executable": os.path.realpath(sys.executable),
        "nproc": nproc,
        "machine": platform.machine(),
        "package": str(package),
    }


def time_setup(args) -> float:
    """Median wall time of fresh processes that import and set up the workload."""
    argv = [
        os.path.realpath(sys.executable), str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-only",
    ]
    run = lambda: subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return statistics.median(timed(run)[2] for _ in range(SETUP_REPS))


def interpreter_floor_ms() -> float:
    """Median start-up of a bare interpreter, the floor under a CLI call."""
    run = lambda: subprocess.run([os.path.realpath(sys.executable), "-c", "pass"], check=True)
    return statistics.median(timed(run)[2] for _ in range(FLOOR_REPS)) * 1e3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # One core for the run and every process it starts, so the speed gauge
    # reads the core the measured work runs on.
    nproc = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    import_ms, package = import_package()
    import harness
    import layers
    from workloads import WORKLOADS as BUILD

    if args.setup_only:
        BUILD[args.workload](ROOT, args.seed)
        return 0

    prov = provenance(package, nproc)
    setup_s = 0.0 if args.trace else time_setup(args)
    run = harness.Run(BUILD[args.workload](ROOT, args.seed))
    run.warm_up()
    # A traced run splits its time: untraced first (the overhead baseline), then traced.
    ops = run.loop(args.seconds / 2 if args.trace else args.seconds)
    attempted = len(ops)
    if args.trace:
        tracer = layers.Tracer()
        traced = run.loop(args.seconds / 2, tracer)
        attempted += len(traced)
        units = PER_LAYER
        setup_ms = {
            "import.package_ms": import_ms,
            "import.interpreter_ms": interpreter_floor_ms(),
        }
        notes = []
        metrics = {} if run.errors else harness.per_layer(run, tracer, traced, units, setup_ms)
    else:
        units = END_TO_END
        metrics, notes = harness.end_to_end(run, ops, setup_s)
    failed = len(run.failures)
    correct = not run.errors

    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    notes.append(f"failed_ratio: {failed}/{attempted} = {failed / attempted:.6g}")
    notes.append(f"unrejected_ratio: {len(run.unrejected)}/{attempted}")
    notes += [f"failed op: {reason}" for reason in sorted(set(run.failures))[:10]]
    notes += [f"not rejected: {reason}" for reason in sorted(set(run.unrejected))[:10]]
    notes += [f"CHECK FAILED: {error}" for error in run.errors]
    notes.append(f"sim_digest: {run.digest()}")
    print("\n".join(notes))

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(result, provenance=prov, notes=notes, args=vars(args))
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        tracer.dump(OUT_DIR / f"{stem}-spans.json")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
