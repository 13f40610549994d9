"""Automatic NIC selection: cluster ordering and per-group channels.

Clusters are first normalised IB-first (then RoCE, then Ethernet-only) so
that downstream planning sees RDMA-capable clusters in a predictable order.
Every parallel group then receives its own communication channel:

* tensor groups always talk over the intra-node interconnect,
* pipeline groups ride the cluster RDMA NIC when they fit in one cluster
  (or a shared RDMA kind when a high-speed interconnect exists); groups
  that span incompatible NICs, or clusters joined only by Ethernet, fall
  back to Ethernet with a warning,
* data groups use the RDMA NIC of the cluster they live in.

The channel depends only on the set of clusters a group's members sit in.
On a plan that :func:`holmes_planner.groups.validate` accepts, each data
group lies in the one cluster that hosts its stage and every pipeline row
crosses the same clusters, so :func:`stage_channels` gives every channel of
the plan from the cluster hosting each stage: the rule runs once for the
pipeline's cluster set and once per cluster, in O(p + clusters).  A
simulation run prices those channels only; :func:`write_rows` writes them
out as one channel per group row, which is what :func:`assign_channels`
returns for a full plan (the ``plan`` command).  A plan that ``validate``
rejects, or that is not the one :func:`holmes_planner.groups.build_plan`
gives, is refused rather than given per-row fallbacks.

``naive_channels`` models the single-communication-environment baseline:
once two clusters disagree on NIC kind, every inter-node channel is demoted
to Ethernet; ``stage_channels(..., naive=True)`` applies the same rule.
"""

from __future__ import annotations

from enum import Enum
from itertools import zip_longest
from typing import NamedTuple

from .errors import InvalidPlanError
# build_plan and validate are bound here, not read off the module, so a
# caller that wraps groups.build_plan or groups.validate sees only its calls.
from .groups import (
    GroupKind,
    GroupPlan,
    ParallelConfig,
    build_plan as _build_plan,
    stage_clusters,
    validate as _validate,
)
from .topology import Cluster, ClusterTopology, NicKind, NicSpec


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


class ClusterOrdering(NamedTuple):
    """Cluster indices permuted IB-first, with the IB prefix length."""

    order: tuple[int, ...]
    ib_cluster_count: int


def normalize_topology(topo: ClusterTopology) -> tuple[ClusterTopology, ClusterOrdering]:
    """Order clusters stably IB-first, then RoCE, then Ethernet-only.

    Returns the topology with its clusters renumbered along that order, so
    ranks follow the IB-first layout, and the permutation itself.
    """
    ordered = sorted(topo.clusters, key=lambda c: _KIND_SORT_ORDER[c.rdma_nic.kind])
    clusters = tuple(Cluster(new, *c[1:]) for new, c in enumerate(ordered, start=1))
    ib = sum(1 for c in ordered if c.rdma_nic.kind is NicKind.INFINIBAND)
    ordering = ClusterOrdering(order=tuple(c.index for c in ordered), ib_cluster_count=ib)
    return topo.with_clusters(clusters), ordering


def _record(nic: NicSpec, warning: str | None = None) -> tuple:
    """The row-independent fields of an assignment over ``nic``."""
    return (_KIND_TO_CHANNEL[nic.kind], nic.bandwidth_gbps, nic.latency_s, warning)


def _intra_node(topo: ClusterTopology) -> tuple:
    """The record of every tensor group: its members share one node."""
    return (
        Channel.INTRA_NODE, topo.intra_node_bandwidth_gbps, topo.intra_node_latency_s, None
    )


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


def _checked(plan: GroupPlan, topo: ClusterTopology) -> None:
    """Raise :class:`InvalidPlanError` unless :func:`validate` accepts the
    plan's config on ``topo`` and the plan is the one :func:`build_plan`
    gives for it, named by its first row that differs."""
    diags = _validate(plan.config, topo)
    if diags:
        raise InvalidPlanError("; ".join(map(str, diags)))
    built = _build_plan(plan.config, topo)
    if plan == built:
        return
    for got, want in zip(plan[1:], built[1:]):
        for row, (members, expected) in enumerate(zip_longest(got.rows, want.rows), 1):
            if members != expected:
                raise InvalidPlanError(
                    f"{want.kind.value} row {row} is {members}, "
                    f"build_plan gives {expected}"
                )
    raise InvalidPlanError("plan's group kinds differ from build_plan's")


def assign_channels(plan: GroupPlan, topo: ClusterTopology) -> list[ChannelAssignment]:
    """One channel per group row, NIC-aware, written out from the stage
    channels of the plan's config.

    The plan must be one :func:`holmes_planner.groups.validate` accepts,
    as built by :func:`holmes_planner.groups.build_plan`; any other raises
    :class:`InvalidPlanError`.
    """
    return _written_out(plan, topo, naive=False)


def naive_channels(plan: GroupPlan, topo: ClusterTopology) -> list[ChannelAssignment]:
    """Unified-environment baseline, on the plans :func:`assign_channels`
    takes.

    With a single NIC kind everywhere this equals :func:`assign_channels`;
    as soon as two clusters disagree, every inter-node group is limited to
    Ethernet because one communication backend must serve them all.
    """
    return _written_out(plan, topo, naive=True)


def _written_out(plan: GroupPlan, topo: ClusterTopology, naive: bool) -> list:
    _checked(plan, topo)
    cfg = plan.config
    hosts = stage_clusters(cfg, topo)
    return write_rows(cfg, *stage_channels(hosts, cfg.tensor, topo, naive))


def stage_channels(
    hosts: tuple[int, ...], tensor: int, topo: ClusterTopology, naive: bool = False
) -> tuple[ChannelAssignment, ChannelAssignment, tuple[ChannelAssignment, ...]]:
    """Tensor row 1's, pipeline row 1's and each stage's first data row's
    channel, from ``hosts``, the index of the cluster hosting each stage
    (:func:`holmes_planner.groups.stage_clusters`).

    On a plan that :func:`holmes_planner.groups.validate` accepts, every
    tensor, pipeline and data row has the channel given here for its kind
    and stage; :func:`write_rows` writes them out.  With ``naive``, once
    two NIC kinds meet every inter-node channel is Ethernet.
    """
    if naive and len(topo.nic_kinds()) > 1:
        ethernet = _record(topo.ethernet)
        pp, home = ethernet, dict.fromkeys(hosts, ethernet)
    else:
        pp = _inter_node_assignment(tuple(sorted(set(hosts))), topo)
        home = {c: _inter_node_assignment((c,), topo) for c in set(hosts)}
    dp = tuple(
        ChannelAssignment(GroupKind.DP, s * tensor + 1, *home[c])
        for s, c in enumerate(hosts)
    )
    return (
        ChannelAssignment(GroupKind.TP, 1, *_intra_node(topo)),
        ChannelAssignment(GroupKind.PP, 1, *pp),
        dp,
    )


def write_rows(
    cfg: ParallelConfig,
    tp: ChannelAssignment,
    pp: ChannelAssignment,
    dp: tuple[ChannelAssignment, ...],
) -> list[ChannelAssignment]:
    """Every group row's channel, in the order tensor, pipeline, data: each
    tensor row gets ``tp``'s fields, each pipeline row ``pp``'s, and data
    row r those of its stage's ``dp[(r - 1) // t]``, each with its own row."""
    t, make = cfg.tensor, ChannelAssignment._make
    out = [make((GroupKind.TP, r, *tp[2:])) for r in range(1, cfg.world_size // t + 1)]
    out += [make((GroupKind.PP, r, *pp[2:])) for r in range(1, cfg.stage_block_size() + 1)]
    out += [
        make((GroupKind.DP, r, *dp[(r - 1) // t][2:]))
        for r in range(1, cfg.pipeline * t + 1)
    ]
    return out
