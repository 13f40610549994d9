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

The channel depends only on the set of clusters a group's members sit in,
so :func:`assign_channels` maps each row's ranks through the topology's
rank -> cluster table and runs the rule once per distinct (group kind,
cluster set); rows that share a set share its channel.

``naive_channels`` models the single-communication-environment baseline:
it runs the same assignment loop, but once two clusters disagree on NIC
kind every inter-node channel is demoted to Ethernet.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum
from itertools import chain, repeat
from typing import NamedTuple

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


class ChannelAssignment(NamedTuple):
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


def _record(nic: NicSpec, warning: str | None = None) -> tuple:
    """The row-independent fields of an assignment over ``nic``."""
    return (_KIND_TO_CHANNEL[nic.kind], nic.bandwidth_gbps, nic.latency_s, warning)


def _bottleneck_nic(nics: list[NicSpec]) -> NicSpec:
    """Same-kind NICs across clusters: slowest bandwidth, largest latency."""
    return NicSpec(
        kind=nics[0].kind,
        bandwidth_gbps=min(n.bandwidth_gbps for n in nics),
        latency_s=max(n.latency_s for n in nics),
    )


def _inter_node_assignment(clusters: tuple[int, ...], topo: ClusterTopology) -> tuple:
    """The channel rule for a group whose members sit in ``clusters``, the
    sorted indices of the clusters that own them."""
    nics = [topo.clusters[c - 1].rdma_nic for c in clusters]
    kinds = {nic.kind for nic in nics}
    if len(clusters) == 1:
        return _record(nics[0])
    if len(kinds) > 1:
        return _record(
            topo.ethernet,
            warning=f"members span mixed NIC kinds {sorted(k.value for k in kinds)}",
        )
    shared = kinds.pop()
    if shared is NicKind.ETHERNET:
        return _record(_bottleneck_nic(nics))
    if not topo.inter_cluster_rdma:
        return _record(
            topo.ethernet, warning="members span clusters joined only by ethernet"
        )
    return _record(_bottleneck_nic(nics))


def _rows(kind: GroupKind, records) -> list[ChannelAssignment]:
    make = ChannelAssignment._make
    return [make((kind, row, *rec)) for row, rec in enumerate(records, start=1)]


def _assign(plan: GroupPlan, topo: ClusterTopology, records) -> list[ChannelAssignment]:
    """Tensor rows on the intra-node link, then one record from
    ``records(rows)`` for every pipeline and data row."""
    if not (plan.tp.rows and plan.pp.rows and plan.dp.rows):
        raise InvalidPlanError("plan has no groups to assign channels to")
    intra = (
        Channel.INTRA_NODE, topo.intra_node_bandwidth_gbps, topo.intra_node_latency_s, None
    )
    out = _rows(GroupKind.TP, repeat(intra, len(plan.tp.rows)))
    out += _rows(GroupKind.PP, records(plan.pp.rows))
    out += _rows(GroupKind.DP, records(plan.dp.rows))
    return out


def assign_channels(plan: GroupPlan, topo: ClusterTopology) -> list[ChannelAssignment]:
    """One independent channel per group row, NIC-aware.

    Requires a plan that passed :func:`holmes_planner.groups.validate`; on
    degenerate plans the data-group fallbacks (Ethernet plus warning) keep
    the assignment total rather than failing.
    """
    owner = topo.rank_clusters.__getitem__

    def records(rows):
        try:
            if min(map(min, rows)) < 1:  # the table would read these from its end
                raise IndexError
            sets = [frozenset(map(owner, members)) for members in rows]
        except IndexError:
            for rank in chain.from_iterable(rows):  # raises on the first bad rank
                topo.cluster_index(rank)
            raise
        rule = {c: _inter_node_assignment(tuple(sorted(c)), topo) for c in set(sets)}
        return map(rule.__getitem__, sets)

    return _assign(plan, topo, records)


def naive_channels(plan: GroupPlan, topo: ClusterTopology) -> list[ChannelAssignment]:
    """Unified-environment baseline.

    With a single NIC kind everywhere this equals :func:`assign_channels`;
    as soon as two clusters disagree, every inter-node group is limited to
    Ethernet because one communication backend must serve them all.
    """
    if len(topo.nic_kinds()) <= 1:
        return assign_channels(plan, topo)
    ethernet = _record(topo.ethernet)
    return _assign(plan, topo, lambda rows: repeat(ethernet, len(rows)))


def channel_map(
    assignments: list[ChannelAssignment],
) -> dict[tuple[GroupKind, int], ChannelAssignment]:
    """Index assignments by (group kind, row)."""
    return {(a.kind, a.row): a for a in assignments}
