"""A traced stand-in for ``python -m holmes_planner``, run as a fresh process.

It runs one CLI command the way ``cli.main`` does, one layer call at a
time, and writes exactly what the CLI would print to stdout.  Its spans
follow as one more JSON line.
Usage: cli_child.py {simulate,validate,compare} --config PATH [options]
"""

import time

_start = time.perf_counter_ns()
from holmes_planner import cli, planner  # noqa: E402  (timed as import.package)

_imported = time.perf_counter_ns()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402


def main(argv):
    tr = layers.Tracer()
    tr.spans.append(["import.package", _start, _imported, None, 0])
    with layers.installed(tr):
        with tr.span("cli.parse_args"):
            args = cli.build_parser().parse_args(argv)
        scenario = layers.load(tr, Path(args.config))
        if args.command == "validate":
            diags = planner.scenario_diagnostics(scenario)
            out = "".join(f"{d}\n" for d in diags or ["ok"]).encode()
        elif args.command == "simulate":
            result = layers.run_composed(scenario, naive=args.naive)
            doc = layers.simulate_doc(tr, scenario, result, naive=args.naive)
            out = layers.dumps(tr, doc)
        else:
            out = layers.dumps(tr, layers.compare_doc(tr, scenario, args.strategies))
    sys.stdout.buffer.write(out)
    counts = {k: v for op_counts in tr.counts.values() for k, v in op_counts.items()}
    sys.stdout.buffer.write(json.dumps({"spans": tr.spans, "counts": counts}).encode() + b"\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
