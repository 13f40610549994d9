import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import holmes_planner as hp
from helpers import single_topo, small_model, uniform_plan
from holmes_planner import cli, planner, simulator
from holmes_planner.simulator import StageEvent, chrome_trace

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SHIPPED = sorted(p.name for p in SCENARIOS.glob("*.json"))
# The one shipped scenario whose stages differ: its speed-proportional split
# gives the two clusters 17 and 13 layers.
NON_UNIFORM = "gpt_3p6b_hybrid_self_adapting.json"
GRID = [(p, m) for p in (1, 2, 4, 8) for m in (1, 3, 16)]


def _shipped(name):
    scenario = hp.load_scenario(SCENARIOS / name)
    report, _, _ = planner.run_scenario(scenario)
    return scenario, report


def _grid_run(p, m):
    """p uniform stages of 2 layers on one IB cluster, one device per stage."""
    topo = single_topo(n_nodes=p, gpus_per_node=1)
    cfg = hp.ParallelConfig(1, p, 1)
    model = small_model(layers=2 * p, global_batch=2 * m, micro_batch=2)
    plan = hp.build_plan(cfg, topo)
    cost = hp.CostModel()
    report = hp.simulate_iteration(
        topo,
        cfg,
        plan,
        hp.assign_channels(plan, topo),
        uniform_plan(model.layers, p, [model.layers]),
        model,
        cost,
    )
    return topo, cfg, model, cost, report


def _flops_oracle(model):
    """96 * B * s * L * h^2 * (1 + s/(6h) + V/(16*L*h)), in exact fractions."""
    b, s, layers, h, v = (
        model.global_batch, model.seq_len, model.layers, model.hidden, model.vocab
    )
    total = Fraction(96 * b * s * layers * h * h) * (
        1 + Fraction(s, 6 * h) + Fraction(v, 16 * layers * h)
    )
    assert total.denominator == 1
    return int(total)


def test_flops_per_iteration_equals_the_fraction_formula():
    models = [hp.load_scenario(SCENARIOS / name).model for name in SHIPPED]
    models += [
        small_model(layers=layers, hidden=hidden, heads=1, seq_len=seq, vocab=vocab, global_batch=b)
        for layers in (1, 3, 7)
        for hidden in (1, 5, 64)
        for seq in (1, 3, 2048)
        for vocab in (1, 7, 51200)
        for b in (2, 6)
    ]
    for model in models:
        flops = hp.flops_per_iteration(model)
        assert type(flops) is int
        assert flops == _flops_oracle(model)


def _flush(report):
    return max(e.end_s for e in report.timeline if e.op != "dp_sync")


@pytest.mark.parametrize("p,m", GRID)
def test_grid_flush_matches_analytic_makespan(p, m):
    topo, cfg, model, cost, report = _grid_run(p, m)
    cluster = topo.clusters[0]
    stage = hp.stage_compute_time(
        2, model, cfg, cluster.device_tflops_peak, cost.eta, cost.backward_forward_ratio
    )
    nic = cluster.rdma_nic
    activation = model.micro_batch * model.seq_len * model.hidden * model.bytes_per_param
    hop = nic.latency_s + 8.0 * activation / (nic.bandwidth_gbps * 1e9)
    expected = hp.analytic_makespan([stage] * p, m, [hop] * (p - 1))
    assert report.micro_batches == m
    assert math.isclose(_flush(report), expected, rel_tol=1e-9)


@pytest.mark.parametrize("name", [n for n in SHIPPED if n != NON_UNIFORM])
def test_shipped_uniform_flush_matches_analytic_makespan(name):
    scenario, report = _shipped(name)
    p = scenario.parallel.pipeline
    first = {(e.stage, e.op): e.end_s - e.start_s for e in report.timeline if e.micro == 1}
    stages = [(first[s, "fwd"], first[s, "bwd"]) for s in range(1, p + 1)]
    hop = report.breakdown["pipeline_p2p"] / (2 * (p - 1)) if p > 1 else 0.0
    expected = hp.analytic_makespan(stages, report.micro_batches, [hop] * (p - 1))
    assert math.isclose(_flush(report), expected, rel_tol=1e-9)


def test_non_uniform_shipped_scenario_is_outside_the_closed_form():
    scenario, report = _shipped(NON_UNIFORM)
    first = {(e.stage, e.op): e.end_s - e.start_s for e in report.timeline if e.micro == 1}
    stages = [(first[s, "fwd"], first[s, "bwd"]) for s in (1, 2)]
    with pytest.raises(hp.NotApplicableError):
        hp.analytic_makespan(stages, report.micro_batches, [0.0])


def _reports():
    for name in SHIPPED:
        scenario, report = _shipped(name)
        yield name, scenario.parallel.pipeline, report
    for p, m in GRID:
        yield f"p={p} m={m}", p, _grid_run(p, m)[-1]


def test_lanes_never_overlap_and_1f1b_dependencies_hold():
    for where, p, report in _reports():
        m = report.micro_batches
        end, start = {}, {}
        for e in report.timeline:
            assert e.end_s >= e.start_s, where
            key = (e.stage, e.op, e.micro)
            assert key not in start, (where, key)
            start[key], end[key] = e.start_s, e.end_s
        pipeline = [k for k in start if k[1] != "dp_sync"]
        assert len(pipeline) == 2 * p * m, where
        for s in range(1, p + 1):
            lane = [e for e in report.timeline if e.stage == s]
            for before, after in zip(lane, lane[1:]):
                assert before.end_s <= after.start_s, (where, before, after)
            for k in range(1, m + 1):
                if s > 1:
                    assert start[s, "fwd", k] >= end[s - 1, "fwd", k], (where, s, k)
                if s < p:
                    assert start[s, "bwd", k] >= end[s + 1, "bwd", k], (where, s, k)
                else:
                    assert start[s, "bwd", k] >= end[s, "fwd", k], (where, s, k)
            if (s, "dp_sync", 0) in start:
                assert start[s, "dp_sync", 0] == end[s, "bwd", m], (where, s)
        assert report.iter_time_s == max(end.values()), where


@pytest.mark.parametrize("name", ["mixed_nic_16gpu.json", "gpt_7p5b_infiniband.json"])
def test_chrome_trace_has_one_complete_event_per_timeline_event(name):
    scenario, report = _shipped(name)
    trace = chrome_trace(report)
    assert trace["displayTimeUnit"] == "ms"
    events = trace["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    spans = [e for e in events if e["ph"] == "X"]
    assert len(meta) + len(spans) == len(events)
    stages = range(1, scenario.parallel.pipeline + 1)
    assert [(e["name"], e["tid"], e["args"]) for e in meta] == [
        ("thread_name", s, {"name": f"stage {s}"}) for s in stages
    ]
    assert len(spans) == len(report.timeline)
    for span, event in zip(spans, report.timeline):
        assert span["pid"] == 1
        assert span["tid"] == event.stage
        assert span["cat"] == event.op
        assert span["name"] == (
            "dp_sync" if event.op == "dp_sync" else f"{event.op} {event.micro}"
        )
        assert math.isclose(span["ts"], event.start_s * 1e6, rel_tol=1e-12)
        assert math.isclose(
            span["dur"], (event.end_s - event.start_s) * 1e6, rel_tol=1e-12, abs_tol=1e-9
        )
    assert json.loads(json.dumps(trace)) == trace


def test_simulate_document_has_no_timeline(capsys):
    assert cli.main(["simulate", "--config", str(SCENARIOS / "demo_small.json")]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert list(report) == [
        "iter_time_s",
        "tflops_per_gpu",
        "throughput_samples_per_s",
        "flops_per_iteration",
        "micro_batches",
        "breakdown",
    ]


def _reference(t_fwd, t_bwd, dp_sync, hop, m_total):
    """The scan-until-progress event loop the schedule pass replaced.

    Each sweep runs every stage's 1F1B op list as far as its inputs allow
    and repeats until all ops ran.  Returns the sorted timeline and the
    iteration time.
    """
    p = len(t_fwd)

    def schedule_ops(stage):
        warmup = min(p - stage, m_total)
        ops = [("fwd", k) for k in range(1, warmup + 1)]
        for i in range(1, m_total - warmup + 1):
            ops.append(("fwd", warmup + i))
            ops.append(("bwd", i))
        ops.extend(("bwd", k) for k in range(m_total - warmup + 1, m_total + 1))
        return ops

    fwd_end = [[0.0] * (m_total + 1) for _ in range(p + 1)]
    bwd_end = [[0.0] * (m_total + 1) for _ in range(p + 1)]
    fwd_seen = [[False] * (m_total + 1) for _ in range(p + 1)]
    bwd_seen = [[False] * (m_total + 1) for _ in range(p + 1)]
    lane_time = [0.0] * (p + 1)
    queues = {s: schedule_ops(s) for s in range(1, p + 1)}
    heads = {s: 0 for s in range(1, p + 1)}
    events = []
    remaining = sum(len(q) for q in queues.values())
    while remaining:
        progressed = False
        for s in range(1, p + 1):
            while heads[s] < len(queues[s]):
                op, k = queues[s][heads[s]]
                if op == "fwd":
                    if s > 1 and not fwd_seen[s - 1][k]:
                        break
                    delay = hop if k == 1 else 0.0
                    ready = fwd_end[s - 1][k] + delay if s > 1 else 0.0
                    duration = t_fwd[s - 1]
                else:
                    if s < p and not bwd_seen[s + 1][k]:
                        break
                    delay = hop if k == m_total else 0.0
                    ready = bwd_end[s + 1][k] + delay if s < p else fwd_end[s][k]
                    duration = t_bwd[s - 1]
                start = max(lane_time[s], ready)
                end = start + duration
                if op == "fwd":
                    fwd_end[s][k], fwd_seen[s][k] = end, True
                else:
                    bwd_end[s][k], bwd_seen[s][k] = end, True
                lane_time[s] = end
                events.append(StageEvent(s, op, k, start, end))
                heads[s] += 1
                remaining -= 1
                progressed = True
        assert progressed, "schedule deadlocked"

    completions = []
    for s in range(1, p + 1):
        flush_done = bwd_end[s][m_total]
        dp_time = dp_sync[s - 1]
        if dp_time > 0.0:
            events.append(StageEvent(s, "dp_sync", 0, flush_done, flush_done + dp_time))
        completions.append(flush_done + dp_time)
    timeline = tuple(sorted(events, key=lambda e: (e.start_s, e.stage, e.op, e.micro)))
    return timeline, max(completions)


_SECONDS = st.floats(min_value=1e-6, max_value=10.0)


@settings(max_examples=200, deadline=None)
@given(
    p=st.integers(1, 12),
    m=st.integers(1, 40),
    data=st.data(),
    hop=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=5.0)),
)
def test_schedule_pass_equals_the_scan_loop_exactly(p, m, data, hop):
    times = st.lists(_SECONDS, min_size=p, max_size=p).map(tuple)
    syncs = st.lists(st.one_of(st.just(0.0), _SECONDS), min_size=p, max_size=p)
    stages = (data.draw(times), data.draw(times), tuple(data.draw(syncs)), hop)
    report = simulator.SimReport(
        iter_time_s=simulator._iteration_time(stages, m),
        tflops_per_gpu=0.0,
        throughput_samples_per_s=0.0,
        flops_per_iteration=0.0,
        micro_batches=m,
        breakdown={},
        _stages=stages,
    )
    timeline, iter_time = _reference(*stages, m)
    assert report.iter_time_s == iter_time
    assert report.timeline == timeline


@pytest.mark.parametrize("name", SHIPPED)
def test_kept_schedule_gives_the_reference_timeline(name):
    _, report = _shipped(name)
    timeline, iter_time = _reference(*report._stages, report.micro_batches)
    assert report.timeline == timeline
    assert report.iter_time_s == iter_time


def test_timeline_is_built_on_first_read():
    scenario, report = _shipped("mixed_nic_16gpu.json")
    report.to_json_dict()
    assert "timeline" not in report.__dict__
    p, m = scenario.parallel.pipeline, report.micro_batches
    timeline = report.timeline
    assert report.__dict__["timeline"] is timeline
    dp_sync = [e for e in timeline if e.op == "dp_sync"]
    assert 0 < len(dp_sync) <= p
    assert len(timeline) == 2 * p * m + len(dp_sync)
