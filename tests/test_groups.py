import json

import pytest

import holmes_planner as hp
from helpers import (
    IB,
    ROCE,
    factorizations,
    make_topo,
    mixed_topo_16,
    owners_by_running_sizes,
    single_topo,
)
from holmes_planner.groups import stage_clusters


def plan_n8():
    return hp.build_plan(hp.ParallelConfig(2, 2, 2), single_topo(2, 4))


def test_hand_derived_matrices_n8():
    plan = plan_n8()
    assert plan.tp.rows == ((1, 2), (3, 4), (5, 6), (7, 8))
    assert plan.pp.rows == ((1, 5), (2, 6), (3, 7), (4, 8))
    assert plan.dp.rows == ((1, 3), (2, 4), (5, 7), (6, 8))


def test_mixed_topo_first_rows():
    cfg = hp.ParallelConfig(tensor=2, pipeline=4, data=2)
    plan = hp.build_plan(cfg, mixed_topo_16())
    assert plan.tp.rows[0] == (1, 2)
    assert plan.pp.rows[0] == (1, 5, 9, 13)
    assert plan.dp.rows[0] == (1, 3)
    # first data group stays inside cluster 1, the host of stage 1
    owners = owners_by_running_sizes(mixed_topo_16())
    assert {owners[r] for r in plan.dp.rows[0]} == {1}
    assert stage_clusters(cfg, mixed_topo_16())[0] == 1


def test_degenerate_degrees_yield_singletons():
    topo = single_topo(2, 4)
    tp = hp.build_plan(hp.ParallelConfig(1, 2, 4), topo).tp
    assert all(len(row) == 1 for row in tp.rows) and len(tp.rows) == 8
    pp = hp.build_plan(hp.ParallelConfig(2, 1, 4), topo).pp
    assert all(len(row) == 1 for row in pp.rows) and len(pp.rows) == 8
    dp = hp.build_plan(hp.ParallelConfig(2, 4, 1), topo).dp
    assert all(len(row) == 1 for row in dp.rows) and len(dp.rows) == 8


def test_build_tp_rejects_node_straddle():
    topo = make_topo([(IB, 200.0, 3)], gpus_per_node=4)  # N = 12
    with pytest.raises(hp.InfeasibleConfigError, match="straddle"):
        hp.build_plan(hp.ParallelConfig(3, 4, 1), topo)


def test_build_rejects_degree_product_mismatch():
    topo = single_topo(2, 4)
    with pytest.raises(hp.InfeasibleConfigError, match="device count"):
        hp.build_plan(hp.ParallelConfig(2, 2, 3), topo)


def test_validate_feasible_case():
    cfg = hp.ParallelConfig(2, 4, 2)
    assert hp.validate(cfg, mixed_topo_16()) == []


def test_validate_degree_product_diagnostic():
    diags = hp.validate(hp.ParallelConfig(2, 2, 3), single_topo(2, 4))
    assert "DEGREE_PRODUCT" in [d.code for d in diags]


def test_validate_stage_straddles_cluster():
    # clusters of 4 and 12 devices; stage block t*d = 8 straddles cluster 1
    topo = make_topo([(IB, 200.0, 1), (ROCE, 200.0, 3)], gpus_per_node=4)
    diags = hp.validate(hp.ParallelConfig(2, 2, 4), topo)
    assert "STAGE_STRADDLES_CLUSTER" in [d.code for d in diags]


def test_validate_tp_bounds():
    topo = single_topo(2, 4)
    codes = [d.code for d in hp.validate(hp.ParallelConfig(8, 1, 1), topo)]
    assert "TP_DEGREE_EXCEEDS_NODE" in codes
    topo12 = make_topo([(IB, 200.0, 3)], gpus_per_node=4)
    codes = [d.code for d in hp.validate(hp.ParallelConfig(3, 4, 1), topo12)]
    assert "TP_SPLITS_NODE" in codes


def _check_partition_property(plan, n):
    for matrix in (plan.tp, plan.pp, plan.dp):
        members = sorted(r for row in matrix.rows for r in row)
        assert members == list(range(1, n + 1)), matrix.kind


@pytest.mark.parametrize("n", [4, 8, 16, 32, 64])
def test_partition_property_all_factorizations(n):
    for t, p, d in factorizations(n):
        # one node per tensor group keeps every factorization feasible
        topo = make_topo([(IB, 200.0, n // t)], gpus_per_node=t)
        cfg = hp.ParallelConfig(t, p, d)
        plan = hp.build_plan(cfg, topo)
        _check_partition_property(plan, n)


def test_tp_rows_node_local():
    topo = mixed_topo_16()
    plan = hp.build_plan(hp.ParallelConfig(2, 4, 2), topo)
    owners = owners_by_running_sizes(topo)
    for row in plan.tp.rows:
        homes = {(owners[r], (r - 1) // topo.gpus_per_node) for r in row}
        assert len(homes) == 1


def test_dp_rows_stage_contained():
    cfg = hp.ParallelConfig(2, 4, 2)
    plan = hp.build_plan(cfg, mixed_topo_16())
    block = cfg.stage_block_size()
    for i, row in enumerate(plan.dp.rows, start=1):
        stage = (i - 1) // cfg.tensor
        assert all((r - 1) // block == stage for r in row)


def test_pp_stage_columns_live_in_stage_blocks():
    cfg = hp.ParallelConfig(2, 4, 2)
    plan = hp.build_plan(cfg, mixed_topo_16())
    block = cfg.stage_block_size()
    for row in plan.pp.rows:
        for j, rank in enumerate(row):
            assert (j * block) < rank <= (j + 1) * block


def test_determinism_and_serialization_round_trip():
    cfg = hp.ParallelConfig(2, 4, 2)
    topo = mixed_topo_16()
    a = hp.build_plan(cfg, topo)
    b = hp.build_plan(cfg, topo)
    assert a == b
    doc_a = json.dumps(a.to_json_dict(), sort_keys=True)
    doc_b = json.dumps(b.to_json_dict(), sort_keys=True)
    assert doc_a == doc_b
    assert json.loads(doc_a) == {
        matrix.kind.value: [list(row) for row in matrix.rows]
        for matrix in (a.tp, a.pp, a.dp)
    }
