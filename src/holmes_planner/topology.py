"""Cluster/node/device model, NIC fabrics, and the global device numbering.

Devices are numbered 1..N cluster by cluster, node by node: with G GPUs per
node and n_i nodes in cluster i, the j-th GPU in the k-th node of cluster i
gets rank G*(n_1 + ... + n_(i-1) + k - 1) + j.  So cluster i owns the ranks
R_(i-1) + 1 .. R_i, where R_i = G*(n_1 + ... + n_i).
:attr:`ClusterTopology.rank_clusters` writes that rule out once per topology
as a tuple indexed by rank, built on first use from the running totals, and
:meth:`ClusterTopology.cluster_index` reads the owner of a rank from it after
a range check.  All values here are immutable after construction and safe
to share across threads.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .errors import InvalidRankError, TopologyError

DEFAULT_RDMA_LATENCY_S = 5e-6
DEFAULT_ETHERNET_LATENCY_S = 30e-6
DEFAULT_INTRA_NODE_LATENCY_S = 1e-6


class NicKind(str, Enum):
    """Fabric families.  InfiniBand and RoCE are mutually incompatible."""

    INFINIBAND = "infiniband"
    ROCE = "roce"
    ETHERNET = "ethernet"


@dataclass(frozen=True)
class NicSpec:
    """One NIC type: fabric kind, line rate in Gbps, per-message latency."""

    kind: NicKind
    bandwidth_gbps: float
    latency_s: float | None = None

    def __post_init__(self):
        if self.bandwidth_gbps <= 0:
            raise TopologyError(
                f"nic bandwidth must be positive, got {self.bandwidth_gbps}"
            )
        if self.latency_s is None:
            default = (
                DEFAULT_ETHERNET_LATENCY_S
                if self.kind is NicKind.ETHERNET
                else DEFAULT_RDMA_LATENCY_S
            )
            object.__setattr__(self, "latency_s", default)
        elif self.latency_s < 0:
            raise TopologyError(f"nic latency must be >= 0, got {self.latency_s}")


@dataclass(frozen=True)
class Cluster:
    """A homogeneous group of nodes sharing one RDMA NIC type.

    A cluster with no RDMA hardware is modelled by an Ethernet-kind
    ``rdma_nic``; that is the only place the kind restriction is relaxed.
    """

    index: int
    node_count: int
    rdma_nic: NicSpec
    device_tflops_peak: float = 312.0
    device_mem_gb: float = 80.0

    def __post_init__(self):
        if self.index < 1:
            raise TopologyError(f"cluster index must be >= 1, got {self.index}")
        if self.node_count < 1:
            raise TopologyError(
                f"cluster {self.index}: node_count must be >= 1, got {self.node_count}"
            )
        if self.device_tflops_peak <= 0:
            raise TopologyError(
                f"cluster {self.index}: device_tflops_peak must be positive"
            )
        if self.device_mem_gb <= 0:
            raise TopologyError(f"cluster {self.index}: device_mem_gb must be positive")


@dataclass(frozen=True)
class ClusterTopology:
    """The full machine: ordered clusters plus the shared fabrics.

    ``gpus_per_node`` is constant across clusters by construction; mixed
    node sizes are rejected rather than approximated.  ``ethernet`` is the
    fallback fabric every device can reach.  ``inter_cluster_rdma`` is True
    when clusters are joined by a high-speed interconnect and False when
    only Ethernet links them.
    """

    clusters: tuple[Cluster, ...]
    gpus_per_node: int
    ethernet: NicSpec
    intra_node_bandwidth_gbps: float
    intra_node_latency_s: float = DEFAULT_INTRA_NODE_LATENCY_S
    inter_cluster_rdma: bool = False

    def __post_init__(self):
        object.__setattr__(self, "clusters", tuple(self.clusters))
        if not self.clusters:
            raise TopologyError("topology needs at least one cluster")
        for pos, cluster in enumerate(self.clusters, start=1):
            if cluster.index != pos:
                raise TopologyError(
                    f"cluster indices must be contiguous from 1, "
                    f"position {pos} has index {cluster.index}"
                )
        if self.gpus_per_node < 1:
            raise TopologyError(f"gpus_per_node must be >= 1, got {self.gpus_per_node}")
        if self.ethernet.kind is not NicKind.ETHERNET:
            raise TopologyError("the ethernet fabric must have kind 'ethernet'")
        if self.intra_node_bandwidth_gbps <= 0:
            raise TopologyError("intra_node_bandwidth_gbps must be positive")
        if self.intra_node_latency_s < 0:
            raise TopologyError("intra_node_latency_s must be >= 0")

    @property
    def total_nodes(self) -> int:
        return sum(c.node_count for c in self.clusters)

    @property
    def total_devices(self) -> int:
        return self.gpus_per_node * self.total_nodes

    @cached_property
    def rank_clusters(self) -> tuple[int, ...]:
        """Entry r is the 1-based index of the cluster that owns rank r.

        Built once per topology, on first use, by laying each cluster's
        G*n_i ranks after those of the clusters before it; entry 0 is a
        placeholder 0, as no device has rank 0.
        """
        owners = [0]
        for c in self.clusters:
            owners += [c.index] * (self.gpus_per_node * c.node_count)
        return tuple(owners)

    def cluster_index(self, rank: int) -> int:
        """Rank -> 1-based index of the cluster that owns it; out-of-range
        ranks raise."""
        table = self.rank_clusters
        if not 1 <= rank < len(table):
            raise InvalidRankError(f"rank {rank} out of range 1..{len(table) - 1}")
        return table[rank]

    def nic_kinds(self) -> set[NicKind]:
        return {c.rdma_nic.kind for c in self.clusters}

    def with_clusters(self, clusters: tuple[Cluster, ...]) -> "ClusterTopology":
        return dataclasses.replace(self, clusters=clusters)
