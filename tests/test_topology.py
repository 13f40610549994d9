import pytest

import holmes_planner as hp
from helpers import (
    ETH,
    IB,
    ROCE,
    make_topo,
    mixed_topo_16,
    owners_by_running_sizes,
    single_topo,
    valid_degrees,
)
from holmes_planner.groups import stage_clusters


def per_rank_hosts(topo):
    """``stage_clusters`` with one-rank stage blocks (t = d = 1): entry
    r - 1 is the cluster of rank r."""
    return stage_clusters(hp.ParallelConfig(1, topo.total_devices, 1), topo)


def test_rank_of_first_device_is_one():
    topo = mixed_topo_16()
    assert per_rank_hosts(topo)[0] == 1


def test_rank_of_hand_derived():
    hosts = per_rank_hosts(mixed_topo_16())  # f=[2,2], G=4
    assert hosts[8 - 1] == 1  # last GPU of cluster 1's node 2
    assert hosts[9 - 1] == 2  # first GPU of cluster 2


def test_coord_of_hand_derived():
    hosts = per_rank_hosts(mixed_topo_16())
    assert [hosts[r - 1] for r in (1, 9, 16)] == [1, 2, 2]
    # t=2, p=4, d=2: stage blocks of 4 ranks, two per cluster
    assert stage_clusters(hp.ParallelConfig(2, 4, 2), mixed_topo_16()) == (1, 1, 2, 2)


TOPOLOGIES = [
    ([(IB, 200.0, 2), (ROCE, 200.0, 2)], 4),
    ([(IB, 100.0, 1), (ROCE, 200.0, 3), (IB, 400.0, 2)], 8),
    ([(IB, 200.0, 16), (ROCE, 200.0, 16)], 32),  # N = 1024
]


@pytest.mark.parametrize("specs,g", TOPOLOGIES)
def test_round_trip_exhaustive(specs, g):
    topo = make_topo(specs, gpus_per_node=g)
    owners = owners_by_running_sizes(topo)
    assert len(owners) == topo.total_devices
    assert per_rank_hosts(topo) == tuple(owners[r] for r in range(1, len(owners) + 1))
    for t, p, d in valid_degrees(g, [nodes for _, _, nodes in specs]):
        cfg, block = hp.ParallelConfig(t, p, d), t * d
        hosts = stage_clusters(cfg, topo)
        assert len(hosts) == p
        for s, cluster in enumerate(hosts):
            ranks = range(s * block + 1, (s + 1) * block + 1)
            assert {owners[r] for r in ranks} == {cluster}


def test_rank_bijective_over_coords():
    """Each cluster owns exactly its own device count, and every rank has one
    owner."""
    topo = make_topo([(IB, 200.0, 2), (ROCE, 200.0, 3)], gpus_per_node=4)
    counts = {}
    for owner in per_rank_hosts(topo):
        counts[owner] = counts.get(owner, 0) + 1
    assert counts == {c.index: 4 * c.node_count for c in topo.clusters}


def test_cluster_rank_contiguity():
    topo = make_topo([(IB, 200.0, 1), (ROCE, 200.0, 3)], gpus_per_node=4)
    hosts = per_rank_hosts(topo)
    assert [r for r in range(1, 17) if hosts[r - 1] == 1] == list(range(1, 5))
    assert [r for r in range(1, 17) if hosts[r - 1] == 2] == list(range(5, 17))


def test_node_locality_of_rank_blocks():
    for specs, g in TOPOLOGIES:
        topo = make_topo(specs, gpus_per_node=g)
        owners = owners_by_running_sizes(topo)
        # t = G, d = 1: one stage per node
        nodes = stage_clusters(hp.ParallelConfig(g, topo.total_nodes, 1), topo)
        for node in range(1, topo.total_nodes + 1):
            ranks = range((node - 1) * g + 1, node * g + 1)
            assert {owners[r] for r in ranks} == {nodes[node - 1]}


def test_nic_of_rank():
    topo = mixed_topo_16()
    hosts = per_rank_hosts(topo)
    assert topo.clusters[hosts[1 - 1] - 1].rdma_nic.kind is IB
    assert topo.clusters[hosts[9 - 1] - 1].rdma_nic.kind is ROCE


def test_nic_of_rank_ethernet_only_cluster():
    topo = make_topo([(ETH, 25.0, 2)], gpus_per_node=4)
    assert topo.clusters[per_rank_hosts(topo)[0] - 1].rdma_nic.kind is ETH


def test_stages_fall_short_when_a_stage_block_straddles_clusters():
    # clusters of 4 and 12 devices, stage blocks of 8: validate rejects it,
    # and only the 12-device cluster holds a whole block
    topo = make_topo([(IB, 200.0, 1), (ROCE, 200.0, 3)], gpus_per_node=4)
    cfg = hp.ParallelConfig(2, 2, 4)
    assert "STAGE_STRADDLES_CLUSTER" in [d.code for d in hp.validate(cfg, topo)]
    assert stage_clusters(cfg, topo) == (2,)


def test_topology_instances_have_no_dict():
    topo = mixed_topo_16()
    assert not hasattr(topo, "__dict__")
    with pytest.raises(AttributeError):
        topo.cached = 1


def test_nic_default_latencies():
    assert hp.NicSpec(IB, 200.0).latency_s == pytest.approx(5e-6)
    assert hp.NicSpec(ROCE, 200.0).latency_s == pytest.approx(5e-6)
    assert hp.NicSpec(ETH, 25.0).latency_s == pytest.approx(30e-6)
    assert hp.NicSpec(ETH, 25.0, latency_s=1e-5).latency_s == pytest.approx(1e-5)


def test_bad_nic_and_cluster_values_rejected():
    with pytest.raises(hp.TopologyError):
        hp.NicSpec(IB, 0.0)
    with pytest.raises(hp.TopologyError):
        hp.NicSpec(IB, 200.0, latency_s=-1.0)
    with pytest.raises(hp.TopologyError):
        hp.Cluster(1, 0, hp.NicSpec(IB, 200.0))
    with pytest.raises(hp.TopologyError):
        hp.Cluster(1, 1, hp.NicSpec(IB, 200.0), device_tflops_peak=0.0)


def test_topology_invariants_rejected():
    ib = hp.NicSpec(IB, 200.0)
    eth = hp.NicSpec(ETH, 25.0)
    with pytest.raises(hp.TopologyError, match="contiguous"):
        hp.ClusterTopology(
            clusters=(hp.Cluster(2, 1, ib),),
            gpus_per_node=4,
            ethernet=eth,
            intra_node_bandwidth_gbps=2400.0,
        )
    with pytest.raises(hp.TopologyError, match="ethernet"):
        hp.ClusterTopology(
            clusters=(hp.Cluster(1, 1, ib),),
            gpus_per_node=4,
            ethernet=ib,
            intra_node_bandwidth_gbps=2400.0,
        )


def test_total_devices():
    topo = single_topo(n_nodes=3, gpus_per_node=8)
    assert topo.total_devices == 24
    assert topo.total_nodes == 3
