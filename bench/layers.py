"""Span tracing from outside the package, and the CLI paths it traces.

The untraced run calls the program the way a user does: ``run_scenario``
and ``run_strategy``.  The traced run calls the same layer functions one by
one, in the order ``planner.run_scenario`` and the CLI compose them, and
wraps the public functions that planner code reaches through module
attributes, so their calls become spans too.  The wrappers are installed
only around a traced op; nothing in ``src/`` changes.

A span is ``[name, start_ns, end_ns, parent, op]``.  A layer's self time is
its span minus the time of its child spans.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import defaultdict

from holmes_planner import config, groups, nic_select, planner, simulator
from holmes_planner.errors import InfeasibleConfigError

STRATEGIES = planner._STRATEGY_NAMES  # the names `compare` accepts
_NULL = contextlib.nullcontext()


class NullTracer:
    """Tracing off: spans and counts cost one call each."""

    def span(self, name):
        return _NULL

    def count(self, name, n):
        pass


class Tracer:
    """Keeps spans and per-op counts in memory until the run ends."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op = 0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter_ns()

    def count(self, name, n):
        self.counts[self.op][name] += n

    def adopt(self, spans, counts):
        """Add spans recorded by a child process under the open span."""
        base = len(self.spans)
        outer = self._stack[-1] if self._stack else None
        for name, start, end, parent, _ in spans:
            self.spans.append(
                [name, start, end, outer if parent is None else base + parent, self.op]
            )
        for name, n in counts.items():
            self.count(name, n)

    def self_times_ms(self) -> dict[str, dict[int, float]]:
        """Per layer name, per op: summed self time in milliseconds."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _, op) in enumerate(self.spans):
            out[name][op] += (end - start - child_ns[i]) / 1e6
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "spans": self.spans}, handle)


def _channel_counts(channels):
    return {
        "nic_select.assignments": len(channels),
        "nic_select.fallbacks": sum(c.warning is not None for c in channels),
    }


# (module, attribute, span name, counts taken from the result)
_WRAPPED = (
    (planner, "scenario_diagnostics", "planner.diagnostics", None),
    (groups, "validate", "groups.validate", None),
    (nic_select, "normalize_topology", "nic_select.order", None),
    (groups, "build_plan", "groups.build",
     lambda plan: {"groups.rows": len(plan.tp.rows) + len(plan.pp.rows) + len(plan.dp.rows)}),
    (nic_select, "assign_channels", "nic_select.assign", _channel_counts),
    (nic_select, "naive_channels", "nic_select.naive", None),
    (planner, "partition_scenario", "partition.plan",
     lambda part: {"partition.clamped": sum(w.startswith("CLAMPED_ALPHA") for w in part.warnings)}),
    (simulator, "simulate_iteration", "simulator.simulate",
     lambda report: {"simulator.events": len(report.timeline)}),
    (simulator, "reduce_scatter_report", "simulator.reduce_scatter", None),
    (planner, "run_strategy", "planner.run_strategy", None),
)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap the layer functions in spans for the duration of one traced op."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in _WRAPPED]

    def wrap(fn, name, counts):
        def traced(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            for key, n in (counts(result) if counts else {}).items():
                tracer.count(key, n)
            return result

        return traced

    for module, attr, name, counts in _WRAPPED:
        setattr(module, attr, wrap(getattr(module, attr), name, counts))
    try:
        yield
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


def run_composed(scenario, naive=False):
    """``planner.run_scenario``, one layer call at a time."""
    diags = planner.scenario_diagnostics(scenario)
    if diags:
        raise InfeasibleConfigError("; ".join(str(d) for d in diags))
    topo, ordering = nic_select.normalize_topology(scenario.topology)
    plan = groups.build_plan(scenario.parallel, topo)
    select = nic_select.naive_channels if naive else nic_select.assign_channels
    planned = planner.PlanResult(
        topology=topo,
        ordering=ordering,
        config=scenario.parallel,
        plan=plan,
        channels=select(plan, topo),
    )
    part = planner.partition_scenario(scenario, topo=planned.topology)
    report = simulator.simulate_iteration(
        planned.topology,
        scenario.parallel,
        planned.plan,
        planned.channels,
        part,
        scenario.model,
        scenario.cost,
    )
    return report, planned, part


def simulate_doc(tr, scenario, result, naive=False) -> dict:
    """The document ``holmes-planner simulate`` prints, from a run result."""
    report, planned, part = result
    rs_entries = planner.scenario_reduce_scatter(scenario, planned, part)
    with tr.span("serialise.to_json"):
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


def compare_doc(tr, scenario, names) -> dict:
    """The document ``holmes-planner compare --format json`` prints.

    Like the CLI, it also builds each strategy's plot-data record, which
    only ``--csv`` writes out.
    """
    rows = []
    nodes = scenario.topology.total_nodes
    baseline = None
    for name in names:
        report, planned, part = planner.run_strategy(scenario, name)
        rs_entries = planner.scenario_reduce_scatter(scenario, planned, part)
        if baseline is None:
            baseline = report.throughput_samples_per_s
        with tr.span("serialise.to_json"):
            report.to_json_dict()
            for entry in rs_entries:
                entry.to_json_dict()
            rows.append(
                {
                    "strategy": name,
                    "nodes": nodes,
                    "tflops_per_gpu": report.tflops_per_gpu,
                    "throughput_samples_per_s": report.throughput_samples_per_s,
                    "dp_sync_s": report.breakdown["dp_sync"],
                    f"{names[0]}_over_this": baseline / report.throughput_samples_per_s,
                }
            )
    return {"nodes": nodes, "rows": rows}


def dumps(tr, doc) -> bytes:
    """Serialise as the CLI does: indented, key order kept, newline-ended."""
    with tr.span("serialise.dumps"):
        out = (json.dumps(doc, indent=2, ensure_ascii=False) + "\n").encode("utf-8")
    tr.count("serialise.output_bytes", len(out))
    return out


def load(tr, path):
    """``config.load_scenario`` as its two layers: decode, then parse."""
    with tr.span("config.decode"):
        raw = path.read_bytes()
        doc = json.loads(raw.decode("utf-8"))
    with tr.span("config.parse"):
        return config.parse_scenario(doc, raw, name=path.stem)


def layer_metrics(tracer: Tracer, ops: list[int], scale: dict[int, float]) -> dict[str, float]:
    """Per-op medians of each layer's self time, per-op means of each count.

    A layer's time is the median over the ops in which it ran, each op's
    times multiplied by its ``scale`` to reference speed.  Counts use the
    mean over all traced ops: some are sparse (one op in ten rejects a
    document), so their median would read 0.
    """
    out = {}
    self_ms = tracer.self_times_ms()
    for per_op in self_ms.values():
        for op in per_op:
            per_op[op] *= scale[op]
    for name, per_op in self_ms.items():
        out[f"{name}_ms"] = statistics.median(per_op.values())
    names = {key for counts in tracer.counts.values() for key in counts}
    for name in names:
        out[name] = statistics.fmean(tracer.counts[op].get(name, 0) for op in ops)
    per_event = [
        ms * 1e3 / tracer.counts[op]["simulator.events"]
        for op, ms in self_ms.get("simulator.simulate", {}).items()
        if tracer.counts[op].get("simulator.events")
    ]
    if per_event:
        out["simulator.us_per_event"] = statistics.median(per_event)
    return out
