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

``naive_channels`` models the single-communication-environment baseline:
it runs the same assignment loop, but once two clusters disagree on NIC
kind every inter-node channel is demoted to Ethernet.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum

from .errors import InvalidPlanError
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


def normalize_topology(topo: ClusterTopology) -> tuple[ClusterTopology, ClusterOrdering]:
    """Order clusters stably IB-first, then RoCE, then Ethernet-only.

    Returns the topology with its clusters renumbered along that order, so
    ranks follow the IB-first layout, and the permutation itself.
    """
    ordered = sorted(topo.clusters, key=lambda c: _KIND_SORT_ORDER[c.rdma_nic.kind])
    clusters = tuple(
        dataclasses.replace(c, index=new) for new, c in enumerate(ordered, start=1)
    )
    ib = sum(1 for c in ordered if c.rdma_nic.kind is NicKind.INFINIBAND)
    ordering = ClusterOrdering(order=tuple(c.index for c in ordered), ib_cluster_count=ib)
    return topo.with_clusters(clusters), ordering


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


def _inter_node_assignment(
    kind: GroupKind,
    row: int,
    members: tuple[int, ...],
    topo: ClusterTopology,
    cluster_index,
) -> ChannelAssignment:
    clusters = sorted({cluster_index(r) for r in members})
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


def _assign(plan: GroupPlan, topo: ClusterTopology, inter_node) -> list[ChannelAssignment]:
    """Tensor rows on the intra-node link, then ``inter_node(kind, row,
    members)`` for every pipeline and data row."""
    if not (plan.tp.rows and plan.pp.rows and plan.dp.rows):
        raise InvalidPlanError("plan has no groups to assign channels to")
    out = [
        _intra_node_assignment(GroupKind.TP, row, topo)
        for row in range(1, len(plan.tp.rows) + 1)
    ]
    for kind, matrix in ((GroupKind.PP, plan.pp), (GroupKind.DP, plan.dp)):
        for row, members in enumerate(matrix.rows, start=1):
            out.append(inter_node(kind, row, members))
    return out


def assign_channels(plan: GroupPlan, topo: ClusterTopology) -> list[ChannelAssignment]:
    """One independent channel per group row, NIC-aware.

    Requires a plan that passed :func:`holmes_planner.groups.validate`; on
    degenerate plans the data-group fallbacks (Ethernet plus warning) keep
    the assignment total rather than failing.
    """
    cluster_index = topo.cluster_index
    return _assign(
        plan,
        topo,
        lambda kind, row, members: _inter_node_assignment(
            kind, row, members, topo, cluster_index
        ),
    )


def naive_channels(plan: GroupPlan, topo: ClusterTopology) -> list[ChannelAssignment]:
    """Unified-environment baseline.

    With a single NIC kind everywhere this equals :func:`assign_channels`;
    as soon as two clusters disagree, every inter-node group is limited to
    Ethernet because one communication backend must serve them all.
    """
    if len(topo.nic_kinds()) <= 1:
        return assign_channels(plan, topo)
    return _assign(plan, topo, lambda kind, row, _: _from_nic(kind, row, topo.ethernet))


def channel_map(
    assignments: list[ChannelAssignment],
) -> dict[tuple[GroupKind, int], ChannelAssignment]:
    """Index assignments by (group kind, row)."""
    return {(a.kind, a.row): a for a in assignments}
