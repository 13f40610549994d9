"""Scenario assembly: from a parsed config to plans, partitions, reports.

This is the glue the CLI and tests share.  Cluster ordering is applied
exactly once, before group construction, so the IB-first numbering and the
group equations compose without special cases.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass

from . import groups, nic_select, partition as partition_mod, simulator
from .config import PartitionSettings, ScenarioConfig
from .errors import InfeasibleConfigError, PlannerError
from .groups import Diagnostic, GroupPlan, ParallelConfig
from .nic_select import ChannelAssignment, ClusterOrdering
from .partition import PartitionPlan, PartitionStrategy
from .simulator import CostModel, ReduceScatterEntry, SimReport
from .topology import ClusterTopology, NicKind, NicSpec


@dataclass(frozen=True)
class PlanResult:
    """Normalised topology plus the groups and channels built on it."""

    topology: ClusterTopology
    ordering: ClusterOrdering
    config: ParallelConfig
    plan: GroupPlan
    channels: list[ChannelAssignment]

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


def plan_scenario(scenario: ScenarioConfig, naive: bool = False) -> PlanResult:
    """Order clusters, build the three matrices, and assign channels."""
    topo, ordering = nic_select.normalize_topology(scenario.topology)
    diags = _diagnostics(scenario, topo)
    if diags:
        raise InfeasibleConfigError("; ".join(str(d) for d in diags))
    plan = groups.build_plan(scenario.parallel, topo)
    select = nic_select.naive_channels if naive else nic_select.assign_channels
    return PlanResult(
        topology=topo,
        ordering=ordering,
        config=scenario.parallel,
        plan=plan,
        channels=select(plan, topo),
    )


def _stages_per_cluster(topo: ClusterTopology, cfg: ParallelConfig) -> list[int]:
    block = cfg.stage_block_size()
    return [topo.gpus_per_node * c.node_count // block for c in topo.clusters]


def cluster_speeds(
    topo: ClusterTopology, cost: CostModel
) -> list[float]:
    """Effective per-device TFLOPS for each cluster, in cluster order."""
    return [
        cost.effective_tflops(c.index, c.device_tflops_peak) for c in topo.clusters
    ]


def cluster_mem_budgets(
    topo: ClusterTopology,
    cfg: ParallelConfig,
    settings: PartitionSettings,
) -> list[float]:
    """Per-cluster layer-memory budgets in GB.

    Default: device memory times the number of stages a pipeline path
    crosses inside the cluster (each stage hosts its layer slice on one
    device of the path).  A scenario can override the list directly.
    """
    if settings.cluster_mem_budget_gb is not None:
        return list(settings.cluster_mem_budget_gb)
    return [
        c.device_mem_gb * stages
        for c, stages in zip(topo.clusters, _stages_per_cluster(topo, cfg))
    ]


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
    budgets = cluster_mem_budgets(topo, cfg, settings)

    clamp_notes: list[str] = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if strategy is PartitionStrategy.UNIFORM:
            stage_layers = partition_mod.uniform_partition(model.layers, cfg.pipeline)
            stages_each = _stages_per_cluster(topo, cfg)
            cluster_layers, pos = [], 0
            for count in stages_each:
                cluster_layers.append(sum(stage_layers[pos : pos + count]))
                pos += count
            partition_mod.check_memory(cluster_layers, mem_per_layer, budgets)
            plan = PartitionPlan(
                strategy=PartitionStrategy.UNIFORM,
                stage_layers=tuple(stage_layers),
                cluster_layers=tuple(cluster_layers),
            )
        else:
            speeds = cluster_speeds(topo, scenario.cost)
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
        plan = dataclasses.replace(
            plan, warnings=plan.warnings + tuple(clamp_notes)
        )
    return plan


def run_scenario(
    scenario: ScenarioConfig,
    naive: bool = False,
    strategy: PartitionStrategy | None = None,
) -> tuple[SimReport, PlanResult, PartitionPlan]:
    """Plan, partition, and simulate one scenario."""
    planned = plan_scenario(scenario, naive=naive)
    part = partition_scenario(scenario, topo=planned.topology, strategy=strategy)
    report = simulator.simulate_iteration(
        planned.topology,
        scenario.parallel,
        planned.plan,
        planned.channels,
        part,
        scenario.model,
        scenario.cost,
    )
    return report, planned, part


def scenario_reduce_scatter(
    scenario: ScenarioConfig, planned: PlanResult, part: PartitionPlan
) -> list[ReduceScatterEntry]:
    return simulator.reduce_scatter_report(
        planned.plan, planned.channels, part, scenario.model, scenario.cost
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
        clusters.append(dataclasses.replace(c, rdma_nic=nic))
    topo = topo.with_clusters(tuple(clusters))
    if kind is not NicKind.ETHERNET:
        topo = dataclasses.replace(topo, inter_cluster_rdma=True)
    return topo


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
    variant = dataclasses.replace(
        scenario, topology=_retype_clusters(scenario.topology, kind)
    )
    return run_scenario(variant)
