"""The package's public names, pinned so that an export added or removed
shows up as a reviewed change to this list."""

import types

import holmes_planner as hp

PUBLIC_NAMES = [
    "Channel",
    "ChannelAssignment",
    "ClampWarning",
    "Cluster",
    "ClusterOrdering",
    "ClusterTopology",
    "ConfigError",
    "CostModel",
    "Diagnostic",
    "GroupKind",
    "GroupMatrix",
    "GroupPlan",
    "InconsistentPlanError",
    "InfeasibleAlphaError",
    "InfeasibleConfigError",
    "InvalidDeviceError",
    "InvalidPlanError",
    "InvalidRankError",
    "MemoryExceededError",
    "ModelSpec",
    "NicKind",
    "NicSpec",
    "NotApplicableError",
    "ParallelConfig",
    "PartitionPlan",
    "PartitionStrategy",
    "PlanResult",
    "PlannerError",
    "ReduceScatterEntry",
    "ScenarioConfig",
    "SimReport",
    "StageEvent",
    "TopologyError",
    "analytic_makespan",
    "assign_channels",
    "build_plan",
    "channel_map",
    "check_memory",
    "flops_per_iteration",
    "load_scenario",
    "metrics",
    "micro_batch_count",
    "multi_cluster_alloc",
    "naive_channels",
    "nic_env_label",
    "normalize_topology",
    "parse_scenario",
    "partition_scenario",
    "plan_scenario",
    "reduce_scatter_report",
    "run_scenario",
    "run_strategy",
    "scenario_diagnostics",
    "scenario_reduce_scatter",
    "simulate_iteration",
    "stage_compute_time",
    "stages_from_cluster_alloc",
    "uniform_partition",
    "validate",
]


def test_public_names_are_pinned():
    exported = sorted(
        name
        for name in dir(hp)
        if not name.startswith("_") and not isinstance(getattr(hp, name), types.ModuleType)
    )
    assert exported == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 59
