"""Automatic NIC selection: cluster ordering and per-group channels.

Clusters are first normalised IB-first (then RoCE, then Ethernet-only) so
that downstream planning sees RDMA-capable clusters in a predictable order.
Every parallel group then receives its own communication channel:

* tensor groups always talk over the intra-node interconnect,
* pipeline groups ride the cluster RDMA NIC when they fit in one cluster
  (or a shared RDMA kind when a high-speed interconnect exists), Ethernet
  otherwise,
* data groups use the RDMA NIC of the cluster they live in; groups forced
  to span incompatible NICs fall back to Ethernet with a warning.

``naive_channels`` models the single-communication-environment baseline
where one incompatible cluster demotes every inter-node channel to
Ethernet.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate

from .errors import InvalidPlanError, InvalidRankError
from .groups import GroupKind, GroupPlan
from .topology import ClusterTopology, NicKind, NicSpec


class Channel(str, Enum):
    INTRA_NODE = "intra_node"
    INFINIBAND = "infiniband"
    ROCE = "roce"
    ETHERNET = "ethernet"


_KIND_TO_CHANNEL = {
    NicKind.INFINIBAND: Channel.INFINIBAND,
    NicKind.ROCE: Channel.ROCE,
    NicKind.ETHERNET: Channel.ETHERNET,
}

_KIND_SORT_ORDER = {NicKind.INFINIBAND: 0, NicKind.ROCE: 1, NicKind.ETHERNET: 2}


@dataclass(frozen=True)
class ChannelAssignment:
    """The communication channel one group row will use."""

    kind: GroupKind
    row: int
    channel: Channel
    bandwidth_gbps: float
    latency_s: float
    warning: str | None = None

    def to_json_dict(self) -> dict:
        doc = {
            "kind": self.kind.value,
            "row": self.row,
            "channel": self.channel.value,
            "bandwidth_gbps": self.bandwidth_gbps,
            "latency_s": self.latency_s,
        }
        if self.warning is not None:
            doc["warning"] = self.warning
        return doc


@dataclass(frozen=True)
class ClusterOrdering:
    """Cluster indices permuted IB-first, with the IB prefix length."""

    order: tuple[int, ...]
    ib_cluster_count: int


def order_clusters(topo: ClusterTopology) -> ClusterOrdering:
    """Stable IB-first, then RoCE, then Ethernet-only ordering."""
    order = tuple(
        c.index
        for c in sorted(topo.clusters, key=lambda c: _KIND_SORT_ORDER[c.rdma_nic.kind])
    )
    ib = sum(1 for c in topo.clusters if c.rdma_nic.kind is NicKind.INFINIBAND)
    return ClusterOrdering(order=order, ib_cluster_count=ib)


def apply_ordering(topo: ClusterTopology, ordering: ClusterOrdering) -> ClusterTopology:
    """Renumber clusters along ``ordering`` so ranks follow the IB-first layout."""
    clusters = tuple(
        dataclasses.replace(topo.clusters[old - 1], index=new)
        for new, old in enumerate(ordering.order, start=1)
    )
    return topo.with_clusters(clusters)


def normalize_topology(topo: ClusterTopology) -> tuple[ClusterTopology, ClusterOrdering]:
    """Order clusters and return the renumbered topology with the permutation."""
    ordering = order_clusters(topo)
    return apply_ordering(topo, ordering), ordering


def _intra_node_assignment(kind: GroupKind, row: int, topo: ClusterTopology):
    return ChannelAssignment(
        kind=kind,
        row=row,
        channel=Channel.INTRA_NODE,
        bandwidth_gbps=topo.intra_node_bandwidth_gbps,
        latency_s=topo.intra_node_latency_s,
    )


def _from_nic(kind: GroupKind, row: int, nic: NicSpec, warning: str | None = None):
    return ChannelAssignment(
        kind=kind,
        row=row,
        channel=_KIND_TO_CHANNEL[nic.kind],
        bandwidth_gbps=nic.bandwidth_gbps,
        latency_s=nic.latency_s,
        warning=warning,
    )


def _bottleneck_nic(nics: list[NicSpec]) -> NicSpec:
    """Same-kind NICs across clusters: slowest bandwidth, largest latency."""
    return NicSpec(
        kind=nics[0].kind,
        bandwidth_gbps=min(n.bandwidth_gbps for n in nics),
        latency_s=max(n.latency_s for n in nics),
    )


def _cluster_of_rank(topo: ClusterTopology):
    """Rank -> 1-based cluster index, by bisecting the clusters' last ranks.

    Ranks are numbered cluster by cluster, so cluster i owns the ranks up to
    and including the i-th running total of its devices.
    """
    last_ranks = list(
        accumulate(topo.gpus_per_node * c.node_count for c in topo.clusters)
    )
    total = last_ranks[-1]

    def cluster_of(rank: int) -> int:
        if not 1 <= rank <= total:
            raise InvalidRankError(f"rank {rank} out of range 1..{total}")
        return bisect_left(last_ranks, rank) + 1

    return cluster_of


def _inter_node_assignment(
    kind: GroupKind,
    row: int,
    members: tuple[int, ...],
    topo: ClusterTopology,
    cluster_of,
) -> ChannelAssignment:
    clusters = sorted({cluster_of(r) for r in members})
    nics = [topo.clusters[c - 1].rdma_nic for c in clusters]
    kinds = {nic.kind for nic in nics}
    if len(clusters) == 1:
        return _from_nic(kind, row, nics[0])
    if len(kinds) > 1:
        return _from_nic(
            kind,
            row,
            topo.ethernet,
            warning=f"members span mixed NIC kinds {sorted(k.value for k in kinds)}",
        )
    shared = kinds.pop()
    if shared is NicKind.ETHERNET:
        return _from_nic(kind, row, _bottleneck_nic(nics))
    if not topo.inter_cluster_rdma:
        return _from_nic(
            kind,
            row,
            topo.ethernet,
            warning="members span clusters joined only by ethernet",
        )
    return _from_nic(kind, row, _bottleneck_nic(nics))


def assign_channels(plan: GroupPlan, topo: ClusterTopology) -> list[ChannelAssignment]:
    """One independent channel per group row, NIC-aware.

    Requires a plan that passed :func:`holmes_planner.groups.validate`; on
    degenerate plans the data-group fallbacks (Ethernet plus warning) keep
    the assignment total rather than failing.
    """
    if not (plan.tp.rows and plan.pp.rows and plan.dp.rows):
        raise InvalidPlanError("plan has no groups to assign channels to")
    cluster_of = _cluster_of_rank(topo)
    out: list[ChannelAssignment] = []
    for row, _ in enumerate(plan.tp.rows, start=1):
        out.append(_intra_node_assignment(GroupKind.TP, row, topo))
    for kind, matrix in ((GroupKind.PP, plan.pp), (GroupKind.DP, plan.dp)):
        for row, members in enumerate(matrix.rows, start=1):
            out.append(_inter_node_assignment(kind, row, members, topo, cluster_of))
    return out


def naive_channels(plan: GroupPlan, topo: ClusterTopology) -> list[ChannelAssignment]:
    """Unified-environment baseline.

    With a single NIC kind everywhere this equals :func:`assign_channels`;
    as soon as two clusters disagree, every inter-node group is limited to
    Ethernet because one communication backend must serve them all.
    """
    if len(topo.nic_kinds()) <= 1:
        return assign_channels(plan, topo)
    if not (plan.tp.rows and plan.pp.rows and plan.dp.rows):
        raise InvalidPlanError("plan has no groups to assign channels to")
    out: list[ChannelAssignment] = []
    for row, _ in enumerate(plan.tp.rows, start=1):
        out.append(_intra_node_assignment(GroupKind.TP, row, topo))
    for kind, matrix in ((GroupKind.PP, plan.pp), (GroupKind.DP, plan.dp)):
        for row, _ in enumerate(matrix.rows, start=1):
            out.append(_from_nic(kind, row, topo.ethernet))
    return out


def channel_map(
    assignments: list[ChannelAssignment],
) -> dict[tuple[GroupKind, int], ChannelAssignment]:
    """Index assignments by (group kind, row)."""
    return {(a.kind, a.row): a for a in assignments}
