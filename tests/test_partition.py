import math
import random

import pytest

import holmes_planner as hp
from helpers import IB, mixed_topo_16, single_topo


def test_uniform_even_split():
    assert hp.uniform_partition(30, 2) == [15, 15]
    assert hp.uniform_partition(36, 3) == [12, 12, 12]


def test_uniform_remainder_goes_to_early_stages():
    assert hp.uniform_partition(7, 2) == [4, 3]
    assert hp.uniform_partition(10, 4) == [3, 3, 2, 2]


def test_uniform_rejects_too_few_layers():
    with pytest.raises(hp.InfeasibleConfigError):
        hp.uniform_partition(2, 3)


def test_multi_cluster_alloc_reference_values():
    alloc = hp.multi_cluster_alloc(36, [197.0, 160.0, 122.0], [1, 1, 1], 2.0, [30, 30, 30])
    assert alloc == [14, 12, 10]


def two_nic_split(layers, ib_tflops, roce_tflops, alpha):
    """The two-cluster case of multi_cluster_alloc, as an (IB, RoCE) pair."""
    alloc = hp.multi_cluster_alloc(layers, [ib_tflops, roce_tflops], [alpha], 0.1, [100, 100])
    return tuple(alloc)


def test_two_nic_split_reference_values():
    assert two_nic_split(30, 197.0, 160.0, 1.05) == (17, 13)
    assert two_nic_split(30, 197.0, 160.0, 1.0) == (16, 14)


def test_two_nic_split_symmetry_reduces_to_uniform():
    assert two_nic_split(30, 150.0, 150.0, 1.0) == (15, 15)


def test_two_nic_split_exact_floor():
    # 1.05 * 197 / 357 * 30 = 17.382...; floor, never round
    n_ib, n_roce = two_nic_split(30, 197.0, 160.0, 1.05)
    assert n_ib == 17 and n_ib + n_roce == 30


def test_multi_cluster_alloc_single_cluster_takes_all():
    assert hp.multi_cluster_alloc(30, [200.0], None, 1.0, [100.0]) == [30]


def test_multi_cluster_alloc_memory_check_passes():
    # 14*2=28, 12*2=24, 10*2=20, all within 30 GB
    alloc = hp.multi_cluster_alloc(36, [197.0, 160.0, 122.0], None, 2.0, [30, 30, 30])
    assert alloc == [14, 12, 10]


def test_multi_cluster_alloc_memory_violation_names_cluster():
    with pytest.raises(hp.MemoryExceededError, match="cluster 1"):
        hp.multi_cluster_alloc(36, [197.0, 160.0, 122.0], None, 2.0, [20, 30, 30])


def test_multi_cluster_alloc_memory_hint_mentions_alpha():
    with pytest.raises(hp.MemoryExceededError, match="alpha"):
        hp.multi_cluster_alloc(36, [197.0, 160.0, 122.0], None, 2.0, [20, 30, 30])


def test_multi_cluster_alloc_infeasible_alpha():
    with pytest.raises(hp.InfeasibleAlphaError):
        hp.multi_cluster_alloc(10, [100.0, 1.0], [10.0, 1.0], 0.1, [100, 100])


def test_multi_cluster_alloc_matches_two_nic_split():
    # The paper's two-NIC rule: the IB side gets floor(alpha * ib / (ib + roce) * L).
    for layers in (8, 30, 61):
        for alpha in (0.8, 1.0, 1.05, 1.2):
            n_ib = math.floor(alpha * 197.0 / (197.0 + 160.0) * layers)
            alloc = hp.multi_cluster_alloc(layers, [197.0, 160.0], [alpha], 0.1, [100, 100])
            assert alloc == [n_ib, layers - n_ib]


def test_stages_from_cluster_alloc_two_stages_per_cluster():
    topo = mixed_topo_16()
    cfg = hp.ParallelConfig(2, 4, 2)  # t*d = 4, 8 devices per cluster -> 2 stages each
    plan = hp.stages_from_cluster_alloc([4, 2], cfg, topo)
    assert plan.stage_layers == (2, 2, 1, 1)
    assert plan.cluster_layers == (4, 2)
    plan = hp.stages_from_cluster_alloc([3, 3], cfg, topo)
    assert plan.stage_layers == (2, 1, 2, 1)


def test_stages_from_cluster_alloc_single_cluster():
    topo = single_topo(2, 4)
    cfg = hp.ParallelConfig(2, 2, 2)
    plan = hp.stages_from_cluster_alloc([30], cfg, topo)
    assert plan.stage_layers == (15, 15)


def test_stages_from_cluster_alloc_rejects_starved_cluster():
    topo = mixed_topo_16()
    cfg = hp.ParallelConfig(2, 4, 2)
    with pytest.raises(hp.InfeasibleConfigError, match="cluster 2"):
        hp.stages_from_cluster_alloc([5, 1], cfg, topo)


def test_conservation_random():
    rng = random.Random(3)
    for _ in range(200):
        layers = rng.randint(2, 96)
        stages = rng.randint(1, min(8, layers))
        assert sum(hp.uniform_partition(layers, stages)) == layers
        speeds = [rng.uniform(50, 400) for _ in range(rng.randint(1, min(4, layers)))]
        alloc = hp.multi_cluster_alloc(
            layers, speeds, None, 0.001, [1000.0] * len(speeds)
        )
        assert sum(alloc) == layers
        assert all(c >= 1 for c in alloc)


def test_two_nic_monotonicity_in_speed_and_alpha():
    def fast_side(layers, s_ib, alpha):
        return hp.multi_cluster_alloc(layers, [s_ib, 160.0], [alpha], 0.001, [1000.0] * 2)[0]

    for layers in (8, 30, 61):
        last = 0
        for s_ib in range(50, 400, 25):
            n_ib = fast_side(layers, float(s_ib), 1.0)
            assert n_ib >= last
            last = n_ib
        last = 0
        for alpha_pct in range(50, 160, 5):
            n_ib = fast_side(layers, 197.0, alpha_pct / 100.0)
            assert n_ib >= last
            last = n_ib


def test_clamp_never_leaves_zero_layer_stage():
    for alpha in (0.01, 0.5, 1.0, 2.0, 10.0):
        try:
            alloc = hp.multi_cluster_alloc(5, [300.0, 10.0], [alpha], 0.001, [100.0] * 2)
        except hp.InfeasibleAlphaError:
            assert alpha >= 2.0  # the fast side would take every layer
        else:
            assert min(alloc) >= 1


def test_model_spec_default_layer_memory():
    model = hp.ModelSpec(
        layers=30, hidden=3072, heads=32, global_batch=768, micro_batch=4
    )
    expected = (12 * 3072**2 * 2 + 34 * 4 * 2048 * 3072) / 1e9
    assert model.layer_mem_gb() == pytest.approx(expected)
    override = hp.ModelSpec(
        layers=30, hidden=3072, heads=32, global_batch=768, micro_batch=4,
        per_layer_mem_gb=2.5,
    )
    assert override.layer_mem_gb() == 2.5


def test_partition_plan_serialization_keys():
    plan = hp.PartitionPlan(
        hp.PartitionStrategy.SELF_ADAPTING, (17, 13), (17, 13), alphas=(1.05,)
    )
    doc = plan.to_json_dict()
    assert list(doc) == ["strategy", "alpha", "stage_layers", "cluster_layers"]
    assert doc["alpha"] == [1.05]
