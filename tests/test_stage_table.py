"""Every path plans from one p-row stage table; a run builds nothing
else, and only ``plan`` builds the full group plan and writes each row's
channel out from the table.

The property checks a run against the library's row-level path
(``build_plan`` -> ``assign_channels``/``naive_channels`` ->
``simulate_iteration`` -> ``reduce_scatter_report``) with exact equality.
Both read the same table, so the table itself is checked against
independent references: each stage's cluster against the owner of its
ranks (``owners_by_running_sizes``), and each row's channel against the
rule applied to its members' clusters (``per_member_channels``).
"""

from pathlib import Path

import pytest
from hypothesis import given, settings

import holmes_planner as hp
from helpers import owners_by_running_sizes, per_member_channels, scenarios
from holmes_planner import groups, nic_select, planner

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SHIPPED = sorted(p.name for p in SCENARIOS.glob("*.json"))
POLICIES = (False, True)  # naive


def _row_level(scenario, naive):
    """One run the row-level way: every group row and its own channel."""
    topo, _ = hp.normalize_topology(scenario.topology)
    cfg, model, cost = scenario.parallel, scenario.model, scenario.cost
    plan = hp.build_plan(cfg, topo)
    channels = (hp.naive_channels if naive else hp.assign_channels)(plan, topo)
    part = hp.partition_scenario(scenario, topo=topo)
    report = hp.simulate_iteration(topo, cfg, plan, channels, part, model, cost)
    rs = hp.reduce_scatter_report(plan, channels, part, model, cost)
    return topo, channels, part, report, rs


@settings(max_examples=150, deadline=None)
@given(scenario=scenarios())
def test_run_on_the_stage_table_equals_the_row_level_run(scenario):
    cfg = scenario.parallel
    for naive in POLICIES:
        try:
            report, planned, part = hp.run_scenario(scenario, naive=naive)
        except hp.PlannerError as exc:
            with pytest.raises(type(exc)) as row_exc:
                _row_level(scenario, naive)
            assert str(row_exc.value) == str(exc)
            continue
        topo, channels, row_part, row_report, row_rs = _row_level(scenario, naive)
        assert planned.plan is None and planned.channels is None
        assert part == row_part
        assert report == row_report
        assert report._stages == row_report._stages
        assert report.timeline == row_report.timeline
        assert hp.scenario_reduce_scatter(scenario, planned, part) == row_rs

        table = planned.stages
        block = cfg.stage_block_size()
        owners = owners_by_running_sizes(topo)
        assert table.clusters == tuple(owners[s * block + 1] for s in range(cfg.pipeline))
        reference = per_member_channels(hp.build_plan(cfg, topo), topo, naive)
        assert channels == reference
        for a in reference:
            if a.kind is hp.GroupKind.DP:
                expected = table.dp[(a.row - 1) // cfg.tensor]
            else:
                expected = table.tp if a.kind is hp.GroupKind.TP else table.pp
            assert a[2:] == expected[2:]  # every field but the kind and row
        planned_rows = planner.plan_scenario(scenario, naive=naive)
        assert planned_rows.channels == reference and planned_rows.stages == table


@pytest.mark.parametrize("name", SHIPPED)
def test_runs_build_no_group_plan_channel_rows_or_rank_table(name, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a run built the O(N) group plan or channel rows")

    monkeypatch.setattr(groups, "build_plan", refuse)
    monkeypatch.setattr(nic_select, "assign_channels", refuse)
    monkeypatch.setattr(nic_select, "naive_channels", refuse)
    scenario = hp.load_scenario(SCENARIOS / name)
    for strategy in planner._STRATEGY_NAMES:
        report, planned, part = hp.run_strategy(scenario, strategy)
        assert report.iter_time_s > 0
        assert planned.plan is None and planned.channels is None
        assert len(planned.stages.clusters) == scenario.parallel.pipeline
        hp.scenario_reduce_scatter(scenario, planned, part)
    # No rank table can be cached on a topology.
    assert not hasattr(scenario.topology, "__dict__")
