"""Parallelism planning and iteration-time simulation for GPU clusters
with mixed RDMA/Ethernet NIC fabrics."""

from .config import ScenarioConfig, load_scenario, parse_scenario
from .errors import (
    ClampWarning,
    ConfigError,
    InconsistentPlanError,
    InfeasibleAlphaError,
    InfeasibleConfigError,
    InvalidDeviceError,
    InvalidPlanError,
    MemoryExceededError,
    NotApplicableError,
    PlannerError,
    TopologyError,
)
from .groups import (
    Diagnostic,
    GroupKind,
    GroupMatrix,
    GroupPlan,
    ParallelConfig,
    build_plan,
    validate,
)
from .nic_select import (
    Channel,
    ChannelAssignment,
    ClusterOrdering,
    assign_channels,
    naive_channels,
    normalize_topology,
)
from .partition import (
    ModelSpec,
    PartitionPlan,
    PartitionStrategy,
    check_memory,
    multi_cluster_alloc,
    stages_from_cluster_alloc,
    uniform_partition,
)
from .planner import (
    PlanResult,
    nic_env_label,
    partition_scenario,
    plan_scenario,
    run_scenario,
    run_strategy,
    scenario_diagnostics,
    scenario_reduce_scatter,
)
from .simulator import (
    CostModel,
    ReduceScatterEntry,
    SimReport,
    StageEvent,
    analytic_makespan,
    flops_per_iteration,
    metrics,
    micro_batch_count,
    reduce_scatter_report,
    simulate_iteration,
    stage_compute_time,
)
from .topology import (
    Cluster,
    ClusterTopology,
    NicKind,
    NicSpec,
)

__version__ = "0.1.0"
