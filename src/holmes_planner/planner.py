"""Scenario assembly: from a parsed config to plans, partitions, reports.

This is the glue the CLI and tests share.  Cluster ordering is applied
exactly once, before group construction, so the IB-first numbering and the
group equations compose without special cases.

Every path plans from one table with a row per pipeline stage, built in
O(p + clusters) from the cluster hosting each stage
(:func:`holmes_planner.groups.stage_clusters`) and the channels of those
clusters.  A run (:func:`run_scenario`, and through it
:func:`run_strategy`) prices the table as it is; :func:`plan_scenario`
also builds the O(N) group matrices and writes every row's channel out
from the table, for the ``plan`` command.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

from . import groups, nic_select, partition as partition_mod, simulator
from .config import PartitionSettings, ScenarioConfig
from .errors import InfeasibleConfigError, PlannerError
from .groups import Diagnostic, GroupPlan, ParallelConfig
from .nic_select import ChannelAssignment, ClusterOrdering
from .partition import PartitionPlan, PartitionStrategy
from .simulator import CostModel, ReduceScatterEntry, SimReport, StageTable
from .topology import Cluster, ClusterTopology, NicKind, NicSpec


class PlanResult(NamedTuple):
    """Normalised topology plus what was planned on it.

    ``stages`` is the p-row :class:`~holmes_planner.simulator.StageTable`
    planned from.  :func:`plan_scenario` also fills ``plan`` and
    ``channels``: the group matrices and one channel per group row, written
    out from the table.  :func:`run_scenario` leaves those two None, since
    building them takes time in proportion to the rank count.
    :meth:`to_json_dict` needs the plan and channels.
    """

    topology: ClusterTopology
    ordering: ClusterOrdering
    config: ParallelConfig
    plan: GroupPlan | None
    channels: list[ChannelAssignment] | None
    stages: StageTable | None = None

    def to_json_dict(self) -> dict:
        doc = {
            "cluster_order": list(self.ordering.order),
            "ib_cluster_count": self.ordering.ib_cluster_count,
        }
        doc.update(self.plan.to_json_dict())
        doc["channels"] = [c.to_json_dict() for c in self.channels]
        return doc


def scenario_diagnostics(scenario: ScenarioConfig) -> list[Diagnostic]:
    """Group feasibility plus model/batch consistency, never raising."""
    topo, _ = nic_select.normalize_topology(scenario.topology)
    return _diagnostics(scenario, topo)


def _diagnostics(scenario: ScenarioConfig, topo: ClusterTopology) -> list[Diagnostic]:
    """:func:`scenario_diagnostics` on the already normalised ``topo``."""
    diags = groups.validate(scenario.parallel, topo)
    model, cfg = scenario.model, scenario.parallel
    if model.layers < cfg.pipeline:
        diags.append(
            Diagnostic(
                "TOO_FEW_LAYERS",
                f"{model.layers} layers cannot fill {cfg.pipeline} pipeline stages",
            )
        )
    if model.global_batch % cfg.data != 0:
        diags.append(
            Diagnostic(
                "BATCH_NOT_DIVISIBLE",
                f"global batch {model.global_batch} not divisible by data degree "
                f"{cfg.data}",
            )
        )
    elif (model.global_batch // cfg.data) % model.micro_batch != 0:
        diags.append(
            Diagnostic(
                "MICRO_BATCH_INDIVISIBLE",
                f"per-replica batch {model.global_batch // cfg.data} not divisible "
                f"by micro batch {model.micro_batch}",
            )
        )
    return diags


def _feasible_topology(
    scenario: ScenarioConfig,
) -> tuple[ClusterTopology, ClusterOrdering]:
    """The normalised topology and ordering; any diagnostic raises."""
    topo, ordering = nic_select.normalize_topology(scenario.topology)
    diags = _diagnostics(scenario, topo)
    if diags:
        raise InfeasibleConfigError("; ".join(str(d) for d in diags))
    return topo, ordering


def plan_scenario(scenario: ScenarioConfig, naive: bool = False) -> PlanResult:
    """Order clusters, build the three matrices, and write every row's
    channel out from the scenario's stage table."""
    topo, ordering = _feasible_topology(scenario)
    cfg = scenario.parallel
    table = _stage_table(topo, cfg, scenario.cost, naive)
    channels = nic_select.write_rows(cfg, table.tp, table.pp, table.dp)
    return PlanResult(topo, ordering, cfg, groups.build_plan(cfg, topo), channels, table)


def _stage_table(
    topo: ClusterTopology, cfg: ParallelConfig, cost: CostModel, naive: bool
) -> StageTable:
    """The stage table of a feasible scenario, in O(p + clusters)."""
    hosts = groups.stage_clusters(cfg, topo)
    channels = nic_select.stage_channels(hosts, cfg.tensor, topo, naive)
    return simulator.stage_table(topo, hosts, cost, channels)


def cluster_mem_budgets(
    topo: ClusterTopology,
    hosts: tuple[int, ...],
    settings: PartitionSettings,
) -> list[float]:
    """Per-cluster layer-memory budgets in GB.

    Default: device memory times the number of stages a pipeline path
    crosses inside the cluster (each stage hosts its layer slice on one
    device of the path), counted in ``hosts``, the cluster of each stage.
    A scenario can override the list directly.
    """
    budgets = settings.cluster_mem_budget_gb
    if budgets is not None:
        if len(budgets) != len(topo.clusters):
            raise InfeasibleConfigError(
                f"partition.cluster_mem_budget_gb gives {len(budgets)} budgets for "
                f"{len(topo.clusters)} clusters"
            )
        return list(budgets)
    return [c.device_mem_gb * hosts.count(c.index) for c in topo.clusters]


def partition_scenario(
    scenario: ScenarioConfig,
    topo: ClusterTopology | None = None,
    strategy: PartitionStrategy | None = None,
) -> PartitionPlan:
    """Build the stage layer allocation for a scenario.

    ``topo`` must be the normalised topology when the caller already has
    one; otherwise it is derived here.  ``strategy`` overrides the scenario
    setting (used by the comparison command).
    """
    if topo is None:
        topo, _ = nic_select.normalize_topology(scenario.topology)
    cfg, model = scenario.parallel, scenario.model
    settings = scenario.partition
    strategy = strategy or settings.strategy
    mem_per_layer = model.layer_mem_gb()
    hosts = groups.stage_clusters(cfg, topo)
    budgets = cluster_mem_budgets(topo, hosts, settings)

    clamp_notes: list[str] = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if strategy is PartitionStrategy.UNIFORM:
            stage_layers = partition_mod.uniform_partition(model.layers, cfg.pipeline)
            cluster_layers = [0] * len(topo.clusters)
            for c, layers in zip(hosts, stage_layers):
                cluster_layers[c - 1] += layers
            partition_mod.check_memory(cluster_layers, mem_per_layer, budgets)
            plan = PartitionPlan(
                strategy=PartitionStrategy.UNIFORM,
                stage_layers=tuple(stage_layers),
                cluster_layers=tuple(cluster_layers),
            )
        else:
            speeds = simulator.cluster_speeds(topo, scenario.cost)
            m = len(topo.clusters)
            # multi_cluster_alloc pads an m-1 list for the last cluster.
            alphas = (
                list(settings.cluster_alphas)
                if settings.cluster_alphas is not None
                else [settings.alpha] * m
            )
            alloc = partition_mod.multi_cluster_alloc(
                model.layers, speeds, alphas, mem_per_layer, budgets
            )
            plan = partition_mod.stages_from_cluster_alloc(
                alloc,
                cfg,
                topo,
                alphas=tuple(alphas[: m - 1]),  # the last cluster takes the remainder
            )
        for w in caught:
            if issubclass(w.category, partition_mod.ClampWarning):
                clamp_notes.append(f"CLAMPED_ALPHA: {w.message}")
            else:
                warnings.warn_explicit(
                    w.message, w.category, w.filename, w.lineno
                )
    if clamp_notes:
        plan = PartitionPlan(
            plan.strategy,
            plan.stage_layers,
            plan.cluster_layers,
            plan.alphas,
            plan.warnings + tuple(clamp_notes),
        )
    return plan


def run_scenario(
    scenario: ScenarioConfig,
    naive: bool = False,
    strategy: PartitionStrategy | None = None,
) -> tuple[SimReport, PlanResult, PartitionPlan]:
    """Plan, partition, and simulate one scenario.

    The plan is the scenario's stage table: the returned :class:`PlanResult`
    carries it as ``stages``, with ``plan`` and ``channels`` left None
    (:func:`plan_scenario` builds those).  The report equals a simulation of
    the full plan and its channels.
    """
    topo, ordering = _feasible_topology(scenario)
    cfg, cost = scenario.parallel, scenario.cost
    table = _stage_table(topo, cfg, cost, naive)
    part = partition_scenario(scenario, topo=topo, strategy=strategy)
    report = simulator.simulate_stages(topo, cfg, table, part, scenario.model, cost)
    return report, PlanResult(topo, ordering, cfg, None, None, table), part


def scenario_reduce_scatter(
    scenario: ScenarioConfig, planned: PlanResult, part: PartitionPlan
) -> list[ReduceScatterEntry]:
    """Per-data-group reduce-scatter seconds, from ``planned``'s stage table
    when it has one and from its plan and channels otherwise."""
    model, cost = scenario.model, scenario.cost
    if planned.stages is None:
        return simulator.reduce_scatter_report(
            planned.plan, planned.channels, part, model, cost
        )
    return simulator.stage_reduce_scatter(
        planned.config, planned.stages.dp, part, model, cost
    )


def nic_env_label(topo: ClusterTopology) -> str:
    """Human label for the NIC environment: one kind's name, or 'hybrid'."""
    kinds = topo.nic_kinds()
    if len(kinds) == 1:
        return next(iter(kinds)).value
    return "hybrid"


_STRATEGY_NAMES = (
    "holmes",
    "naive",
    "uniform-partition",
    "self-adapting-partition",
    "ib-only",
    "roce-only",
    "ethernet-only",
    "hybrid",
)


def _retype_clusters(topo: ClusterTopology, kind: NicKind) -> ClusterTopology:
    rdma_bandwidths = [
        c.rdma_nic.bandwidth_gbps
        for c in topo.clusters
        if c.rdma_nic.kind is not NicKind.ETHERNET
    ]
    fallback = max(rdma_bandwidths) if rdma_bandwidths else topo.ethernet.bandwidth_gbps
    clusters = []
    for c in topo.clusters:
        if kind is NicKind.ETHERNET:
            nic = topo.ethernet
        else:
            bw = (
                c.rdma_nic.bandwidth_gbps
                if c.rdma_nic.kind is not NicKind.ETHERNET
                else fallback
            )
            nic = NicSpec(kind=kind, bandwidth_gbps=bw)
        clusters.append(
            Cluster(c.index, c.node_count, nic, c.device_tflops_peak, c.device_mem_gb)
        )
    return ClusterTopology(
        clusters,
        topo.gpus_per_node,
        topo.ethernet,
        topo.intra_node_bandwidth_gbps,
        topo.intra_node_latency_s,
        inter_cluster_rdma=topo.inter_cluster_rdma or kind is not NicKind.ETHERNET,
    )


def run_strategy(scenario: ScenarioConfig, name: str):
    """Run one named comparison strategy against a scenario.

    Channel policies (holmes/naive), partition policies (uniform-partition/
    self-adapting-partition), and NIC-environment variants (ib-only,
    roce-only, ethernet-only) all reduce to a plain run with one input
    swapped.  ``hybrid`` is an alias of ``holmes``: the scenario's own mixed
    NICs, run as given.
    """
    if name not in _STRATEGY_NAMES:
        raise PlannerError(
            f"unknown strategy '{name}'; valid names: {', '.join(_STRATEGY_NAMES)}"
        )
    if name == "naive":
        return run_scenario(scenario, naive=True)
    if name == "uniform-partition":
        return run_scenario(scenario, strategy=PartitionStrategy.UNIFORM)
    if name == "self-adapting-partition":
        return run_scenario(scenario, strategy=PartitionStrategy.SELF_ADAPTING)
    if name in ("holmes", "hybrid"):
        return run_scenario(scenario)
    kind = {
        "ib-only": NicKind.INFINIBAND,
        "roce-only": NicKind.ROCE,
        "ethernet-only": NicKind.ETHERNET,
    }[name]
    variant = ScenarioConfig(_retype_clusters(scenario.topology, kind), *scenario[1:])
    return run_scenario(variant)
