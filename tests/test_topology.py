import pytest

import holmes_planner as hp
from helpers import ETH, IB, ROCE, make_topo, mixed_topo_16, single_topo


def owners_by_running_sizes(topo):
    """Rank -> cluster index, walking the clusters' running device counts."""
    owners, rank = {}, 0
    for cluster in topo.clusters:
        for _ in range(topo.gpus_per_node * cluster.node_count):
            rank += 1
            owners[rank] = cluster.index
    return owners


def test_rank_of_first_device_is_one():
    topo = mixed_topo_16()
    assert topo.cluster_index(1) == 1


def test_rank_of_hand_derived():
    topo = mixed_topo_16()  # f=[2,2], G=4
    assert topo.cluster_index(8) == 1  # last GPU of cluster 1's node 2
    assert topo.cluster_index(9) == 2  # first GPU of cluster 2


def test_coord_of_hand_derived():
    topo = mixed_topo_16()
    assert [topo.cluster_index(r) for r in (1, 9, 16)] == [1, 2, 2]


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
    for rank in range(1, topo.total_devices + 1):
        assert topo.cluster_index(rank) == owners[rank]


def test_rank_bijective_over_coords():
    """Each cluster owns exactly its own device count, and every rank has one
    owner."""
    topo = make_topo([(IB, 200.0, 2), (ROCE, 200.0, 3)], gpus_per_node=4)
    counts = {}
    for rank in range(1, topo.total_devices + 1):
        owner = topo.cluster_index(rank)
        counts[owner] = counts.get(owner, 0) + 1
    assert counts == {c.index: 4 * c.node_count for c in topo.clusters}


def test_cluster_rank_contiguity():
    topo = make_topo([(IB, 200.0, 1), (ROCE, 200.0, 3)], gpus_per_node=4)
    assert [r for r in range(1, 17) if topo.cluster_index(r) == 1] == list(range(1, 5))
    assert [r for r in range(1, 17) if topo.cluster_index(r) == 2] == list(range(5, 17))


def test_node_locality_of_rank_blocks():
    for specs, g in TOPOLOGIES:
        topo = make_topo(specs, gpus_per_node=g)
        for node in range(1, topo.total_nodes + 1):
            ranks = range((node - 1) * g + 1, node * g + 1)
            assert len({topo.cluster_index(r) for r in ranks}) == 1


def test_nic_of_rank():
    topo = mixed_topo_16()
    assert topo.clusters[topo.cluster_index(1) - 1].rdma_nic.kind is IB
    assert topo.clusters[topo.cluster_index(9) - 1].rdma_nic.kind is ROCE


def test_nic_of_rank_ethernet_only_cluster():
    topo = make_topo([(ETH, 25.0, 2)], gpus_per_node=4)
    assert topo.clusters[topo.cluster_index(1) - 1].rdma_nic.kind is ETH


@pytest.mark.parametrize("rank", [0, -1, 17])
def test_invalid_rank_rejected(rank):
    with pytest.raises(hp.InvalidRankError, match=rf"^rank {rank} out of range 1\.\.16$"):
        mixed_topo_16().cluster_index(rank)


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
