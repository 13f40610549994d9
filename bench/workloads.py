"""The three workloads: set-up, one op, and the checks on its output.

Each workload builds its inputs from the seed in ``__init__`` (the set-up
that ``setup_s`` times) and keeps them in ``items``; ops go round-robin
over the items.  ``op`` is the timed call.  ``check`` runs outside the
timer: it returns a reason when the op failed (counted in ``failed``), an
:class:`Unrejected` reason when a malformed input was accepted (counted
against ``ok_ratio``), and raises :class:`CheckError` when the program's
output is wrong.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import gen
import layers
from gauge import timed
from holmes_planner import config, planner, simulator
from holmes_planner.errors import ConfigError


class CheckError(Exception):
    """The program produced a wrong output; the run is not correct."""


class Unrejected(str):
    """Why a malformed input was accepted.

    The op ran to its end, so it is not a failed op; it lowers ``ok_ratio``,
    whose bound catches a change that stops rejecting some defect.
    """


def _report_stats(doc: dict) -> dict:
    """Simulated statistics of a ``simulate`` document, timeline left out."""
    report = {k: v for k, v in doc["report"].items() if k != "timeline"}
    return {
        "partition": doc["partition"],
        "report": report,
        "reduce_scatter": doc["reduce_scatter"],
    }


class CliCold:
    """One fresh ``python -m holmes_planner`` process per op."""

    COMMANDS = (
        ("simulate",),
        ("validate",),
        ("compare", "--format", "json", "holmes", "naive"),
    )
    CHILD = Path(__file__).with_name("cli_child.py")

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.exe = os.path.realpath(sys.executable)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), HOLMES_NO_COLOR="1")
        scenarios = sorted((root / "scenarios").glob("*.json"))
        if not scenarios:
            raise SystemExit(f"no scenarios under {root / 'scenarios'}")
        # Every (scenario, command) pair; the seed picks the first scenario.
        shift = seed % len(scenarios)
        self.items = [
            (path, command)
            for path in scenarios[shift:] + scenarios[:shift]
            for command in self.COMMANDS
        ]
        self.expected = {}
        null = layers.NullTracer()
        for path in scenarios:
            scenario = config.load_scenario(path)
            result = planner.run_scenario(scenario)
            self.expected[path, "simulate"] = layers.dumps(
                null, layers.simulate_doc(null, scenario, result)
            )
            diags = planner.scenario_diagnostics(scenario)
            self.expected[path, "validate"] = "".join(f"{d}\n" for d in diags or ["ok"]).encode()
            self.expected[path, "compare"] = layers.dumps(
                null, layers.compare_doc(null, scenario, ["holmes", "naive"])
            )
        self.peak_rss_kb = 0

    def _spawn(self, argv):
        proc = subprocess.Popen(
            argv, cwd=self.root, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        out = proc.stdout.read()
        err = proc.stderr.read()
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode, out, err

    def _argv(self, item, program):
        path, command = item
        rel = str(path.relative_to(self.root))
        return [self.exe, *program, command[0], "--config", rel, *command[1:]]

    def op(self, item, tr):
        return self._spawn(self._argv(item, ["-m", "holmes_planner"]))

    def traced_op(self, item, tr):
        code, out, err = self._spawn(self._argv(item, [str(self.CHILD)]))
        if code == 0:
            body, _, trace_line = out.rstrip(b"\n").rpartition(b"\n")
            trace = json.loads(trace_line)
            tr.adopt(trace["spans"], trace["counts"])
            out = body + b"\n"
        return code, out, err

    def check(self, item, out):
        code, stdout, err = out
        if code != 0:
            return f"exit {code}: {err.decode(errors='replace').strip()[-200:]}"
        path, command = item
        if stdout != self.expected[path, command[0]]:
            raise CheckError(
                f"{command[0]} {path.name}: stdout differs from in-process run_scenario"
            )
        return None

    def output(self, out):
        return out[1]

    def stats(self, item, out):
        command = item[1][0]
        if command == "validate":
            return self.output(out).decode()
        doc = json.loads(self.output(out))
        return _report_stats(doc) if command == "simulate" else doc


class SweepMixed:
    """In-process sweep over seeded generated documents, 1 in 10 malformed."""

    POOL = 100  # ten malformed: each defect twice

    def __init__(self, root: Path, seed: int):
        self.items = gen.generate(seed, self.POOL)

    def _run(self, item, tr, run):
        with tr.span("config.decode"):
            doc = json.loads(item.raw.decode("utf-8"))
        if item.defect is not None:
            with tr.span("config.reject"):
                try:
                    config.parse_scenario(doc, item.raw, name=f"sweep_{item.index}")
                except ConfigError as exc:
                    tr.count("config.rejected", 1)
                    return ("rejected", str(exc))
            return ("accepted", None)
        with tr.span("config.parse"):
            scenario = config.parse_scenario(doc, item.raw, name=f"sweep_{item.index}")
        result = run(scenario)
        sim = layers.dumps(tr, layers.simulate_doc(tr, scenario, result))
        compare = layers.compare_doc(tr, scenario, layers.STRATEGIES)
        return ("ok", (scenario.parallel.pipeline, result[0], sim, compare))

    def op(self, item, tr):
        return self._run(item, tr, planner.run_scenario)

    def traced_op(self, item, tr):
        return self._run(item, tr, layers.run_composed)

    def check(self, item, out):
        status, value = out
        if item.defect is not None:
            if status != "rejected":
                return Unrejected(
                    f"{item.defect} document accepted (expected error at {item.path})"
                )
            if f" at {item.path}:" not in value:
                return f"{item.defect}: error names the wrong path: {value}"
            return None
        p, report, sim, compare = value
        problem = _check_events(report, p)
        if problem:
            raise CheckError(f"document {item.index}: {problem}")
        rows = {row["strategy"]: row for row in compare["rows"]}
        for name in ("holmes", "hybrid"):
            if rows[name]["tflops_per_gpu"] != report.tflops_per_gpu:
                raise CheckError(f"document {item.index}: {name} differs from simulate")
        return None

    def output(self, out):
        status, value = out
        if status != "ok":
            return f"{status}: {value}".encode()
        return value[2] + json.dumps(value[3]).encode()

    def stats(self, item, out):
        status, value = out
        if status != "ok":
            return [status, value]
        return [_report_stats(json.loads(value[2])), value[3]]


class Large8192:
    """``run_scenario`` plus the ``simulate`` document on 8192-GPU scenarios."""

    UNIFORM = "ib_uniform"

    def __init__(self, root: Path, seed: int):
        self.decode_ms: list[float] = []  # the parse layers run here, in set-up
        self.parse_ms: list[float] = []
        parsed = []
        for name, raw in gen.large_docs():
            doc, _, decode_s = timed(lambda: json.loads(raw.decode("utf-8")))
            scenario, _, parse_s = timed(lambda: config.parse_scenario(doc, raw, name=name))
            parsed.append(scenario)
            self.decode_ms.append(decode_s * 1e3)
            self.parse_ms.append(parse_s * 1e3)
        shift = seed % len(parsed)
        self.items = parsed[shift:] + parsed[:shift]

    def _run(self, scenario, tr, run):
        result = run(scenario)
        return result, layers.dumps(tr, layers.simulate_doc(tr, scenario, result))

    def op(self, scenario, tr):
        return self._run(scenario, tr, planner.run_scenario)

    def traced_op(self, scenario, tr):
        return self._run(scenario, tr, layers.run_composed)

    def check(self, scenario, out):
        (report, _, _), _ = out
        p = scenario.parallel.pipeline
        problem = _check_events(report, p)
        if problem:
            raise CheckError(f"{scenario.name}: {problem}")
        if scenario.name == self.UNIFORM:
            _check_uniform(report, p)
        return None

    def output(self, out):
        return out[1]

    def stats(self, scenario, out):
        return _report_stats(json.loads(out[1]))


def _check_events(report, p: int) -> str | None:
    """The timeline holds 2*p*m pipeline events plus at most p dp_sync events."""
    dp_sync = sum(e.op == "dp_sync" for e in report.timeline)
    expected = 2 * p * report.micro_batches + dp_sync
    if len(report.timeline) != expected or dp_sync > p:
        return f"{len(report.timeline)} events, expected {expected} ({dp_sync} dp_sync)"
    if not (math.isfinite(report.iter_time_s) and report.iter_time_s > 0):
        return f"iter_time_s {report.iter_time_s}"
    return None


def _check_uniform(report, p: int) -> None:
    """On uniform stages the event simulation must match the closed form.

    The 1F1B flush (the last pipeline event) equals ``analytic_makespan``;
    ``iter_time_s`` adds each stage's data-parallel sync after its flush.
    """
    first = {}
    for e in report.timeline:
        if e.micro == 1:
            first[e.stage, e.op] = e.end_s - e.start_s
    stage_times = [(first[s, "fwd"], first[s, "bwd"]) for s in range(1, p + 1)]
    hop = report.breakdown["pipeline_p2p"] / (2 * (p - 1))
    expected = simulator.analytic_makespan(stage_times, report.micro_batches, [hop] * (p - 1))
    flush = max(e.end_s for e in report.timeline if e.op != "dp_sync")
    if not math.isclose(flush, expected, rel_tol=1e-9):
        raise CheckError(f"flush {flush} != analytic makespan {expected}")
    if report.iter_time_s != max(e.end_s for e in report.timeline):
        raise CheckError("iter_time_s is not the end of the last event")


WORKLOADS = {"cli_cold": CliCold, "sweep_mixed": SweepMixed, "large_8192": Large8192}
