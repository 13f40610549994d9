"""Cluster/node/device model, NIC fabrics, and the global device numbering.

Devices are numbered 1..N cluster by cluster, node by node: with G GPUs per
node and n_i nodes in cluster i, the j-th GPU in the k-th node of cluster i
gets rank G*(n_1 + ... + n_(i-1) + k - 1) + j.  So cluster i owns the ranks
R_(i-1) + 1 .. R_i, where R_i = G*(n_1 + ... + n_i).  Nothing here looks a
rank up: :func:`holmes_planner.groups.stage_clusters` reads the same rule
per pipeline stage.  All values here are immutable after construction and
safe to share across threads.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from .errors import TopologyError

DEFAULT_RDMA_LATENCY_S = 5e-6
DEFAULT_ETHERNET_LATENCY_S = 30e-6
DEFAULT_INTRA_NODE_LATENCY_S = 1e-6
DEFAULT_DEVICE_TFLOPS_PEAK = 312.0
DEFAULT_DEVICE_MEM_GB = 80.0


class NicKind(str, Enum):
    """Fabric families.  InfiniBand and RoCE are mutually incompatible."""

    INFINIBAND = "infiniband"
    ROCE = "roce"
    ETHERNET = "ethernet"


class NicSpec(namedtuple("NicSpec", "kind bandwidth_gbps latency_s")):
    """One NIC type: fabric kind, line rate in Gbps, per-message latency.

    Left out, the latency defaults by kind: Ethernet's is higher than RDMA's.
    """

    __slots__ = ()

    def __new__(cls, kind: NicKind, bandwidth_gbps: float, latency_s: float | None = None):
        if bandwidth_gbps <= 0:
            raise TopologyError(f"nic bandwidth must be positive, got {bandwidth_gbps}")
        if latency_s is None:
            latency_s = (
                DEFAULT_ETHERNET_LATENCY_S
                if kind is NicKind.ETHERNET
                else DEFAULT_RDMA_LATENCY_S
            )
        elif latency_s < 0:
            raise TopologyError(f"nic latency must be >= 0, got {latency_s}")
        return super().__new__(cls, kind, bandwidth_gbps, latency_s)


class Cluster(
    namedtuple("Cluster", "index node_count rdma_nic device_tflops_peak device_mem_gb")
):
    """A homogeneous group of nodes sharing one RDMA NIC type.

    A cluster with no RDMA hardware is modelled by an Ethernet-kind
    ``rdma_nic``; that is the only place the kind restriction is relaxed.
    """

    __slots__ = ()

    def __new__(
        cls,
        index: int,
        node_count: int,
        rdma_nic: NicSpec,
        device_tflops_peak: float = DEFAULT_DEVICE_TFLOPS_PEAK,
        device_mem_gb: float = DEFAULT_DEVICE_MEM_GB,
    ):
        if index < 1:
            raise TopologyError(f"cluster index must be >= 1, got {index}")
        if node_count < 1:
            raise TopologyError(
                f"cluster {index}: node_count must be >= 1, got {node_count}"
            )
        if device_tflops_peak <= 0:
            raise TopologyError(f"cluster {index}: device_tflops_peak must be positive")
        if device_mem_gb <= 0:
            raise TopologyError(f"cluster {index}: device_mem_gb must be positive")
        return super().__new__(
            cls, index, node_count, rdma_nic, device_tflops_peak, device_mem_gb
        )


class ClusterTopology(
    namedtuple(
        "ClusterTopology",
        "clusters gpus_per_node ethernet intra_node_bandwidth_gbps "
        "intra_node_latency_s inter_cluster_rdma",
    )
):
    """The full machine: ordered clusters plus the shared fabrics.

    ``gpus_per_node`` is constant across clusters by construction; mixed
    node sizes are rejected rather than approximated.  ``ethernet`` is the
    fallback fabric every device can reach.  ``inter_cluster_rdma`` is True
    when clusters are joined by a high-speed interconnect and False when
    only Ethernet links them.  ``clusters`` is stored as a tuple whatever
    sequence it is given as.
    """

    __slots__ = ()

    def __new__(
        cls,
        clusters: tuple[Cluster, ...],
        gpus_per_node: int,
        ethernet: NicSpec,
        intra_node_bandwidth_gbps: float,
        intra_node_latency_s: float = DEFAULT_INTRA_NODE_LATENCY_S,
        inter_cluster_rdma: bool = False,
    ):
        clusters = tuple(clusters)
        if not clusters:
            raise TopologyError("topology needs at least one cluster")
        for pos, cluster in enumerate(clusters, start=1):
            if cluster.index != pos:
                raise TopologyError(
                    f"cluster indices must be contiguous from 1, "
                    f"position {pos} has index {cluster.index}"
                )
        if gpus_per_node < 1:
            raise TopologyError(f"gpus_per_node must be >= 1, got {gpus_per_node}")
        if ethernet.kind is not NicKind.ETHERNET:
            raise TopologyError("the ethernet fabric must have kind 'ethernet'")
        if intra_node_bandwidth_gbps <= 0:
            raise TopologyError("intra_node_bandwidth_gbps must be positive")
        if intra_node_latency_s < 0:
            raise TopologyError("intra_node_latency_s must be >= 0")
        return super().__new__(
            cls,
            clusters,
            gpus_per_node,
            ethernet,
            intra_node_bandwidth_gbps,
            intra_node_latency_s,
            inter_cluster_rdma,
        )

    @property
    def total_nodes(self) -> int:
        return sum(c.node_count for c in self.clusters)

    @property
    def total_devices(self) -> int:
        return self.gpus_per_node * self.total_nodes

    def nic_kinds(self) -> set[NicKind]:
        return {c.rdma_nic.kind for c in self.clusters}

    def with_clusters(self, clusters: tuple[Cluster, ...]) -> "ClusterTopology":
        return ClusterTopology(clusters, *self[1:])
