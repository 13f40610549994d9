"""Command-line surface: validate, plan, partition, simulate, compare.

Exit codes: 0 on success, 1 for domain infeasibility, 2 for malformed
input, including an output path that cannot be written.  JSON output is
UTF-8, key order fixed, newline-terminated, and byte-identical across
reruns of the same config.  Table output colours headers only on a
terminal; HOLMES_NO_COLOR=1 disables ANSI entirely.

The ``simulate`` document summarises the iteration and leaves out its
per-micro-batch events.  ``simulate --trace FILE`` writes those events to
FILE in Chrome Trace Event Format (compact JSON, one lane per pipeline
stage, times in microseconds); the file opens in Perfetto or
``chrome://tracing``.  Standard output is the same with or without it.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import planner, simulator
from .config import ScenarioConfig, load_scenario
from .errors import ConfigError, PlannerError
from .planner import _STRATEGY_NAMES

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_MALFORMED = 2


def _use_color(stream) -> bool:
    if os.environ.get("HOLMES_NO_COLOR"):
        return False
    return hasattr(stream, "isatty") and stream.isatty()


def _bold(text: str, stream) -> str:
    return f"\x1b[1m{text}\x1b[0m" if _use_color(stream) else text


def _emit_json(doc: dict, stream) -> None:
    stream.write(json.dumps(doc, indent=2, ensure_ascii=False) + "\n")


def _emit_table(headers: list[str], rows: list[list], stream) -> None:
    cells = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]
    header = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    stream.write(_bold(header, stream) + "\n")
    stream.write("  ".join("-" * w for w in widths) + "\n")
    for row in cells:
        stream.write("  ".join(c.ljust(w) for c, w in zip(row, widths)) + "\n")


def cmd_validate(args) -> int:
    scenario = load_scenario(args.config)
    diags = planner.scenario_diagnostics(scenario)
    for diag in diags:
        print(str(diag))
    if diags:
        return EXIT_INFEASIBLE
    print("ok")
    return EXIT_OK


def cmd_plan(args) -> int:
    scenario = load_scenario(args.config)
    diags = planner.scenario_diagnostics(scenario)
    if diags:
        for diag in diags:
            print(str(diag), file=sys.stderr)
        return EXIT_INFEASIBLE
    result = planner.plan_scenario(scenario, naive=args.naive)
    if args.format == "json":
        _emit_json(result.to_json_dict(), sys.stdout)
    else:
        rows = []
        for matrix in (result.plan.tp, result.plan.pp, result.plan.dp):
            for i, members in enumerate(matrix.rows, start=1):
                rows.append([matrix.kind.value, i, " ".join(str(r) for r in members)])
        _emit_table(["kind", "row", "ranks"], rows, sys.stdout)
        chan_rows = [
            [
                c.kind.value,
                c.row,
                c.channel.value,
                f"{c.bandwidth_gbps:g}",
                f"{c.latency_s:g}",
                c.warning or "",
            ]
            for c in result.channels
        ]
        _emit_table(
            ["kind", "row", "channel", "gbps", "latency_s", "warning"],
            chan_rows,
            sys.stdout,
        )
    return EXIT_OK


def cmd_partition(args) -> int:
    scenario = load_scenario(args.config)
    diags = planner.scenario_diagnostics(scenario)
    if diags:
        for diag in diags:
            print(str(diag), file=sys.stderr)
        return EXIT_INFEASIBLE
    plan = planner.partition_scenario(scenario)
    for note in plan.warnings:
        print(note, file=sys.stderr)
    if args.format == "json":
        _emit_json(plan.to_json_dict(), sys.stdout)
    else:
        rows = [
            [s + 1, layers] for s, layers in enumerate(plan.stage_layers)
        ]
        _emit_table(["stage", "layers"], rows, sys.stdout)
        rows = [[c + 1, layers] for c, layers in enumerate(plan.cluster_layers)]
        _emit_table(["cluster", "layers"], rows, sys.stdout)
    return EXIT_OK


def _simulation_doc(
    scenario: ScenarioConfig, report, planned, part, naive: bool
) -> dict:
    rs_entries = planner.scenario_reduce_scatter(scenario, planned, part)
    return {
        "scenario": scenario.name,
        "config_fingerprint": scenario.fingerprint,
        "nic_env": planner.nic_env_label(planned.topology),
        "channel_policy": "naive" if naive else "holmes",
        "defaults_applied": list(scenario.defaults_applied),
        "eta": scenario.cost.eta,
        "partition": part.to_json_dict(),
        "report": report.to_json_dict(),
        "reduce_scatter": [e.to_json_dict() for e in rs_entries],
    }


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.config)
    report, planned, part = planner.run_scenario(scenario, naive=args.naive)
    doc = _simulation_doc(scenario, report, planned, part, naive=args.naive)
    if args.csv:
        _write_file(args.csv, _csv_text([doc]))
    if args.trace:
        trace = simulator.chrome_trace(report)
        _write_file(args.trace, json.dumps(trace, separators=(",", ":")))
    if args.format == "json":
        _emit_json(doc, sys.stdout)
    else:
        report = doc["report"]
        rows = [
            ["iter_time_s", f"{report['iter_time_s']:.6f}"],
            ["tflops_per_gpu", f"{report['tflops_per_gpu']:.2f}"],
            ["throughput_samples_per_s", f"{report['throughput_samples_per_s']:.2f}"],
        ]
        rows += [
            [f"breakdown.{k}", f"{v:.6f}"] for k, v in report["breakdown"].items()
        ]
        rows.append(["nic_env", doc["nic_env"]])
        rows.append(["fingerprint", doc["config_fingerprint"][:16]])
        _emit_table(["metric", "value"], rows, sys.stdout)
    return EXIT_OK


def _write_file(path: str, text: str) -> None:
    """Write ``text`` to ``path``; an unwritable path is malformed input."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _csv_text(docs: list[dict]) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["scenario", "nic_env", "tflops", "throughput", "reduce_scatter_s"])
    for doc in docs:
        rs_max = max((e["seconds"] for e in doc["reduce_scatter"]), default=0.0)
        writer.writerow(
            [
                doc["scenario"],
                doc["nic_env"],
                f"{doc['report']['tflops_per_gpu']:.4f}",
                f"{doc['report']['throughput_samples_per_s']:.4f}",
                f"{rs_max:.6f}",
            ]
        )
    return out.getvalue()


def cmd_compare(args) -> int:
    if len(args.strategies) < 2:
        print("compare needs at least two strategies", file=sys.stderr)
        return EXIT_INFEASIBLE
    for name in args.strategies:
        if name not in _STRATEGY_NAMES:
            print(
                f"unknown strategy '{name}'; valid names: "
                + ", ".join(_STRATEGY_NAMES),
                file=sys.stderr,
            )
            return EXIT_INFEASIBLE
    scenario = load_scenario(args.config)
    rows, csv_docs = [], []
    nodes = scenario.topology.total_nodes
    baseline_throughput = None
    for name in args.strategies:
        report, planned, part = planner.run_strategy(scenario, name)
        rs_entries = planner.scenario_reduce_scatter(scenario, planned, part)
        dp_sync = report.breakdown["dp_sync"]
        if baseline_throughput is None:
            baseline_throughput = report.throughput_samples_per_s
        ratio = baseline_throughput / report.throughput_samples_per_s
        rows.append(
            {
                "strategy": name,
                "nodes": nodes,
                "tflops_per_gpu": report.tflops_per_gpu,
                "throughput_samples_per_s": report.throughput_samples_per_s,
                "dp_sync_s": dp_sync,
                f"{args.strategies[0]}_over_this": ratio,
            }
        )
        csv_docs.append(
            {
                "scenario": scenario.name,
                "nic_env": planner.nic_env_label(planned.topology)
                + ("" if name in ("holmes", "hybrid") else f":{name}"),
                "report": report.to_json_dict(),
                "reduce_scatter": [e.to_json_dict() for e in rs_entries],
            }
        )
    if args.csv:
        _write_file(args.csv, _csv_text(csv_docs))
    if args.format == "json":
        _emit_json({"nodes": nodes, "rows": rows}, sys.stdout)
    else:
        table = [
            [
                r["strategy"],
                r["nodes"],
                f"{r['tflops_per_gpu']:.2f}",
                f"{r['throughput_samples_per_s']:.2f}",
                f"{r['dp_sync_s']:.6f}",
                f"{r[f'{args.strategies[0]}_over_this']:.4f}",
            ]
            for r in rows
        ]
        _emit_table(
            [
                "strategy",
                "nodes",
                "tflops",
                "throughput",
                "dp_sync_s",
                f"{args.strategies[0]}/this",
            ],
            table,
            sys.stdout,
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holmes-planner",
        description=(
            "Plan parallel groups, select NIC channels, partition pipeline "
            "stages, and simulate iteration time for GPU clusters with mixed "
            "RDMA/Ethernet fabrics."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, naive=False, strategies=False, csv_opt=False):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="scenario JSON path")
        cmd.add_argument(
            "--format", choices=("json", "table"), default="json"
        )
        if naive:
            cmd.add_argument(
                "--naive",
                action="store_true",
                help="use the unified-environment baseline channels",
            )
        if csv_opt:
            cmd.add_argument("--csv", help="also write plot-data CSV to this path")
        if strategies:
            cmd.add_argument(
                "strategies",
                nargs="*",
                metavar="STRATEGY",
                help=f"two or more of: {', '.join(_STRATEGY_NAMES)}",
            )
        cmd.set_defaults(func=func)
        return cmd

    add("validate", cmd_validate, "check a scenario for feasibility")
    add("plan", cmd_plan, "emit group matrices and channel assignments", naive=True)
    add("partition", cmd_partition, "emit the pipeline layer partition")
    simulate = add(
        "simulate",
        cmd_simulate,
        "predict iteration time, TFLOPS, and throughput",
        naive=True,
        csv_opt=True,
    )
    simulate.add_argument(
        "--trace",
        metavar="FILE",
        help=(
            "also write the iteration's 1F1B timeline to this path as a Chrome "
            "trace (one lane per stage); it opens in Perfetto or chrome://tracing"
        ),
    )
    compare = add(
        "compare",
        cmd_compare,
        "simulate several strategies side by side",
        strategies=True,
        csv_opt=True,
    )
    compare.set_defaults(format="table")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except PlannerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
