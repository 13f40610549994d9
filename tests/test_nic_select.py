import random

import pytest
from hypothesis import given, settings, strategies as st

import holmes_planner as hp
from helpers import ETH, IB, ROCE, factorizations, make_topo, mixed_topo_16, single_topo
from holmes_planner import nic_select


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
        matrices = {m.kind: m for m in (plan.tp, plan.pp, plan.dp)}
        for a in hp.assign_channels(plan, topo):
            members = matrices[a.kind].rows[a.row - 1]
            kinds = {topo.clusters[topo.cluster_index(r) - 1].rdma_nic.kind for r in members}
            if a.channel in (hp.Channel.INFINIBAND, hp.Channel.ROCE):
                assert kinds == {hp.NicKind(a.channel.value)}
        checked += 1


def _per_member_channels(plan, topo, naive=False):
    """Channels worked out row by row: each row's cluster set from
    ``cluster_index`` on every member, then the channel rule."""
    demoted = naive and len(topo.nic_kinds()) > 1
    out = [
        hp.ChannelAssignment(
            hp.GroupKind.TP,
            row,
            hp.Channel.INTRA_NODE,
            topo.intra_node_bandwidth_gbps,
            topo.intra_node_latency_s,
        )
        for row in range(1, len(plan.tp.rows) + 1)
    ]
    for matrix in (plan.pp, plan.dp):
        for row, members in enumerate(matrix.rows, start=1):
            if demoted:
                eth = topo.ethernet
                record = (hp.Channel.ETHERNET, eth.bandwidth_gbps, eth.latency_s, None)
            else:
                clusters = tuple(sorted({topo.cluster_index(r) for r in members}))
                record = nic_select._inter_node_assignment(clusters, topo)
            out.append(hp.ChannelAssignment(matrix.kind, row, *record))
    return out


@st.composite
def _topo_and_plan(draw):
    """1-4 clusters of mixed NIC kinds and any (t, p, d) whose tensor rows fit
    a node, so stage blocks may straddle clusters (plans ``validate``
    rejects)."""
    g = draw(st.sampled_from([1, 2, 4, 8]))
    specs = draw(
        st.lists(
            st.tuples(
                st.sampled_from([IB, ROCE, ETH]),
                st.sampled_from([50.0, 100.0, 200.0, 400.0]),
                st.integers(1, 4),
            ),
            min_size=1,
            max_size=4,
        )
    )
    topo = make_topo(
        specs,
        gpus_per_node=g,
        eth_bw=draw(st.sampled_from([10.0, 25.0])),
        inter_rdma=draw(st.booleans()),
    )
    t, p, d = draw(
        st.sampled_from([f for f in factorizations(topo.total_devices) if g % f[0] == 0])
    )
    return topo, hp.build_plan(hp.ParallelConfig(t, p, d), topo)


@settings(max_examples=300, deadline=None)
@given(case=_topo_and_plan(), naive=st.booleans())
def test_channels_equal_the_per_member_reference(case, naive):
    topo, plan = case
    select = hp.naive_channels if naive else hp.assign_channels
    assert select(plan, topo) == _per_member_channels(plan, topo, naive)


@pytest.mark.parametrize(
    "pp_rank, dp_rank, bad",
    [(0, None, 0), (-1, None, -1), (17, None, 17), (None, 0, 0), (None, 17, 17), (17, 0, 17)],
)
def test_rank_outside_the_topology_raises(pp_rank, dp_rank, bad):
    topo = mixed_topo_16()
    plan = hp.build_plan(hp.ParallelConfig(2, 4, 2), topo)

    def with_rank(matrix, rank):
        if rank is None:
            return matrix
        rows = list(matrix.rows)
        rows[1] = (rows[1][0], rank) + rows[1][2:]
        return hp.GroupMatrix(matrix.kind, tuple(rows))

    broken = hp.GroupPlan(
        config=plan.config,
        tp=plan.tp,
        pp=with_rank(plan.pp, pp_rank),
        dp=with_rank(plan.dp, dp_rank),
    )
    with pytest.raises(hp.InvalidRankError, match=rf"^rank {bad} out of range 1\.\.16$"):
        hp.assign_channels(broken, topo)


@pytest.mark.parametrize("inter_rdma", [False, True])
def test_rule_runs_once_per_distinct_cluster_set(monkeypatch, inter_rdma):
    # The 8192-GPU shape: t=8, p=16, d=64, stage blocks of 64 nodes.
    topo = make_topo(
        [(IB, 400.0, 384), (IB, 200.0, 384), (ROCE, 200.0, 256)],
        gpus_per_node=8,
        inter_rdma=inter_rdma,
    )
    plan = hp.build_plan(hp.ParallelConfig(8, 16, 64), topo)
    expected = _per_member_channels(plan, topo)
    rule = nic_select._inter_node_assignment
    calls = []

    def counted(clusters, topo):
        calls.append(clusters)
        return rule(clusters, topo)

    monkeypatch.setattr(nic_select, "_inter_node_assignment", counted)
    assert hp.assign_channels(plan, topo) == expected
    distinct = {
        (matrix.kind, frozenset(map(topo.cluster_index, members)))
        for matrix in (plan.pp, plan.dp)
        for members in matrix.rows
    }
    assert len(calls) == len(distinct) == 4
