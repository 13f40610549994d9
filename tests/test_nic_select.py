import random

import pytest

import holmes_planner as hp
from helpers import ETH, IB, ROCE, factorizations, make_topo, mixed_topo_16, single_topo


def channels_for(topo, cfg, naive=False):
    plan = hp.build_plan(cfg, topo)
    select = hp.naive_channels if naive else hp.assign_channels
    return plan, hp.channel_map(select(plan, topo))


def test_order_clusters_roce_then_ib():
    topo = make_topo([(ROCE, 200.0, 2), (IB, 200.0, 2)], gpus_per_node=4)
    _, ordering = hp.normalize_topology(topo)
    assert ordering.order == (2, 1)
    assert ordering.ib_cluster_count == 1


def test_order_clusters_all_ib():
    topo = make_topo([(IB, 200.0, 2), (IB, 100.0, 2)], gpus_per_node=4)
    _, ordering = hp.normalize_topology(topo)
    assert ordering.order == (1, 2)
    assert ordering.ib_cluster_count == 2


def test_order_clusters_already_sorted():
    _, ordering = hp.normalize_topology(mixed_topo_16())
    assert ordering.order == (1, 2)
    assert ordering.ib_cluster_count == 1


def test_order_clusters_ethernet_last():
    topo = make_topo(
        [(ETH, 25.0, 1), (ROCE, 200.0, 1), (IB, 200.0, 1)], gpus_per_node=4
    )
    _, ordering = hp.normalize_topology(topo)
    assert ordering.order == (3, 2, 1)
    assert ordering.ib_cluster_count == 1


def test_apply_ordering_renumbers_clusters():
    topo = make_topo([(ROCE, 100.0, 1), (IB, 200.0, 2)], gpus_per_node=4)
    normalized, ordering = hp.normalize_topology(topo)
    assert [c.rdma_nic.kind for c in normalized.clusters] == [IB, ROCE]
    assert [c.index for c in normalized.clusters] == [1, 2]
    assert normalized.clusters[0].node_count == 2
    assert ordering.order == (2, 1)


def test_assign_channels_mixed_topology():
    cfg = hp.ParallelConfig(2, 4, 2)
    _, chans = channels_for(mixed_topo_16(), cfg)
    dp1 = chans[(hp.GroupKind.DP, 1)]
    assert dp1.channel is hp.Channel.INFINIBAND
    assert dp1.bandwidth_gbps == 200.0
    pp1 = chans[(hp.GroupKind.PP, 1)]
    assert pp1.channel is hp.Channel.ETHERNET
    # data groups in the second cluster ride RoCE
    dp_last = chans[(hp.GroupKind.DP, 8)]
    assert dp_last.channel is hp.Channel.ROCE


def test_assign_channels_tp_always_intra_node():
    cfg = hp.ParallelConfig(2, 4, 2)
    topo = mixed_topo_16()
    _, chans = channels_for(topo, cfg)
    for row in range(1, 9):
        a = chans[(hp.GroupKind.TP, row)]
        assert a.channel is hp.Channel.INTRA_NODE
        assert a.bandwidth_gbps == topo.intra_node_bandwidth_gbps


def test_pp_inside_single_cluster_uses_rdma():
    topo = single_topo(2, 4, kind=IB)
    _, chans = channels_for(topo, hp.ParallelConfig(2, 2, 2))
    assert chans[(hp.GroupKind.PP, 1)].channel is hp.Channel.INFINIBAND


def test_pp_cross_cluster_with_interconnect_and_same_kind():
    topo = make_topo([(IB, 200.0, 1), (IB, 100.0, 1)], gpus_per_node=4, inter_rdma=True)
    _, chans = channels_for(topo, hp.ParallelConfig(2, 2, 2))
    pp1 = chans[(hp.GroupKind.PP, 1)]
    assert pp1.channel is hp.Channel.INFINIBAND
    assert pp1.bandwidth_gbps == 100.0  # bottleneck bandwidth


def test_dp_mixed_kind_gets_ethernet_with_warning():
    # stage block (t*d = 8) larger than either 4-GPU cluster: data groups
    # are forced across the incompatible NICs
    topo = make_topo([(IB, 200.0, 1), (ROCE, 200.0, 1)], gpus_per_node=4)
    plan = hp.build_plan(hp.ParallelConfig(2, 1, 4), topo)
    chans = hp.channel_map(hp.assign_channels(plan, topo))
    dp1 = chans[(hp.GroupKind.DP, 1)]
    assert dp1.channel is hp.Channel.ETHERNET
    assert dp1.warning is not None


def test_naive_demotes_everything_on_mixed_topology():
    cfg = hp.ParallelConfig(2, 4, 2)
    _, chans = channels_for(mixed_topo_16(), cfg, naive=True)
    assert chans[(hp.GroupKind.DP, 1)].channel is hp.Channel.ETHERNET
    assert chans[(hp.GroupKind.PP, 1)].channel is hp.Channel.ETHERNET
    assert chans[(hp.GroupKind.TP, 1)].channel is hp.Channel.INTRA_NODE


def test_naive_equals_holmes_on_homogeneous_topology():
    topo = make_topo([(IB, 200.0, 2), (IB, 200.0, 2)], gpus_per_node=4, inter_rdma=True)
    plan = hp.build_plan(hp.ParallelConfig(2, 4, 2), topo)
    assert hp.assign_channels(plan, topo) == hp.naive_channels(plan, topo)


def test_empty_plan_rejected():
    topo = single_topo(2, 4)
    plan = hp.build_plan(hp.ParallelConfig(2, 2, 2), topo)
    empty = hp.GroupPlan(
        config=plan.config,
        tp=hp.GroupMatrix(hp.GroupKind.TP, ()),
        pp=plan.pp,
        dp=plan.dp,
    )
    with pytest.raises(hp.InvalidPlanError):
        hp.assign_channels(empty, topo)


def _random_feasible_case(rng):
    kinds = [IB, ROCE]
    n_clusters = rng.randint(2, 4)
    g = rng.choice([2, 4, 8])
    specs = []
    for _ in range(n_clusters):
        kind = rng.choice(kinds)
        specs.append((kind, rng.choice([50.0, 100.0, 200.0, 400.0]), rng.randint(1, 3)))
    topo = make_topo(specs, gpus_per_node=g, eth_bw=rng.choice([10.0, 25.0]))
    n = topo.total_devices
    feasible = [
        (t, p, d)
        for (t, p, d) in factorizations(n)
        if g % t == 0
        and all(
            (g * c.node_count) % (t * d) == 0 for c in topo.clusters
        )
    ]
    if not feasible:
        return None
    return topo, hp.ParallelConfig(*rng.choice(feasible))


def test_channel_dominance_random_topologies():
    rng = random.Random(7)
    checked = 0
    while checked < 40:
        case = _random_feasible_case(rng)
        if case is None:
            continue
        topo, cfg = case
        plan = hp.build_plan(cfg, topo)
        smart = hp.assign_channels(plan, topo)
        naive = hp.naive_channels(plan, topo)
        for a, b in zip(smart, naive):
            assert (a.kind, a.row) == (b.kind, b.row)
            assert a.bandwidth_gbps >= b.bandwidth_gbps
        checked += 1


def test_no_channel_ever_mixes_ib_and_roce():
    rng = random.Random(11)
    checked = 0
    while checked < 40:
        case = _random_feasible_case(rng)
        if case is None:
            continue
        topo, cfg = case
        plan = hp.build_plan(cfg, topo)
        for a in hp.assign_channels(plan, topo):
            members = plan.matrix(a.kind).rows[a.row - 1]
            kinds = {topo.clusters[topo.cluster_index(r) - 1].rdma_nic.kind for r in members}
            if a.channel in (hp.Channel.INFINIBAND, hp.Channel.ROCE):
                assert kinds == {hp.NicKind(a.channel.value)}
        checked += 1
