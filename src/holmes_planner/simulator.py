"""One-forward-one-backward pipeline simulation with an alpha-beta
communication cost model.

One training iteration is simulated per stage lane: the devices of a stage
(tensor shards x data replicas) run the same schedule in lockstep, so a
single timeline per stage determines the makespan.  The schedule is the
flush-synchronised 1F1B form: stage s (1-based, p stages) runs
min(p - s, m) warmup forwards, then alternates forward/backward, then
drains its remaining backwards.  Each operation starts when its lane is
free and its input has arrived; one pass in a fixed dependency order
computes every start and end.

Stage-boundary transfers are modelled as fully overlapped with steady-state
compute (sends are asynchronous and the next micro-batch's data is
requested ahead of need), so each hop's transfer time is exposed exactly
twice: once when the first forward fills the pipeline and once when the
last backward drains it.  This is what makes the closed-form makespan in
:func:`analytic_makespan` exact.  After the flush, each stage pays its
data-parallel gradient synchronisation (reduce-scatter plus all-gather) on
its data group's channel.

Point-to-point and collective transfer times follow comm(bytes) =
latency + 8*bytes / (bandwidth_gbps * 1e9); ring collectives scale bytes by
2(n-1)/n for all-reduce and (n-1)/n for reduce-scatter and all-gather, and
cost nothing for single-member groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from operator import itemgetter
from typing import NamedTuple

from .errors import (
    InconsistentPlanError,
    InfeasibleConfigError,
    InvalidDeviceError,
    NotApplicableError,
)
from .groups import GroupKind, GroupPlan, ParallelConfig
from .nic_select import ChannelAssignment, channel_map
from .partition import ModelSpec, PartitionPlan
from .topology import ClusterTopology

DEFAULT_COMPUTE_EFFICIENCY = 0.63  # fraction of peak achieved on 200 Gbps RDMA


@dataclass(frozen=True)
class CostModel:
    """Transfer pricing plus the compute-efficiency knob.

    ``eta`` is the achieved fraction of peak device throughput; at the
    default 0.63 the reference 3.6B-parameter run on 200 Gbps InfiniBand
    (``scenarios/gpt_3p6b_infiniband.json``) simulates to 175.56 TFLOPS per
    312-TFLOPS device, end to end.  ``cluster_speeds_tflops``, when given,
    overrides eta*peak with an explicit effective speed per cluster, which
    lets scenarios express NIC-dependent speed differences.
    """

    eta: float = DEFAULT_COMPUTE_EFFICIENCY
    backward_forward_ratio: float = 2.0
    cluster_speeds_tflops: tuple[float, ...] | None = None

    def __post_init__(self):
        if not 0 < self.eta <= 1:
            raise InfeasibleConfigError(f"eta must be in (0, 1], got {self.eta}")
        if self.backward_forward_ratio <= 0:
            raise InfeasibleConfigError("backward_forward_ratio must be positive")
        if self.cluster_speeds_tflops is not None and any(
            s <= 0 for s in self.cluster_speeds_tflops
        ):
            raise InfeasibleConfigError("cluster speeds must be positive")

    def comm(self, n_bytes: float, channel: ChannelAssignment) -> float:
        """Seconds to move ``n_bytes`` over a channel."""
        if n_bytes < 0:
            raise InfeasibleConfigError(f"negative byte count {n_bytes}")
        return channel.latency_s + 8.0 * n_bytes / (channel.bandwidth_gbps * 1e9)

    def all_reduce(self, n_bytes: float, members: int, channel) -> float:
        if members <= 1:
            return 0.0
        return self.comm(2.0 * (members - 1) / members * n_bytes, channel)

    def reduce_scatter(self, n_bytes: float, members: int, channel) -> float:
        if members <= 1:
            return 0.0
        return self.comm((members - 1) / members * n_bytes, channel)

    def all_gather(self, n_bytes: float, members: int, channel) -> float:
        if members <= 1:
            return 0.0
        return self.comm((members - 1) / members * n_bytes, channel)

    def effective_tflops(self, cluster_index: int, device_tflops_peak: float) -> float:
        """Effective device speed for a cluster, honouring explicit overrides."""
        if self.cluster_speeds_tflops is not None:
            return self.cluster_speeds_tflops[cluster_index - 1]
        return self.eta * device_tflops_peak


class StageEvent(NamedTuple):
    """One scheduled operation on a stage lane."""

    stage: int
    op: str  # "fwd", "bwd", or "dp_sync"
    micro: int  # 0 for dp_sync
    start_s: float
    end_s: float


@dataclass(frozen=True)
class SimReport:
    """Predicted timing and rates for one training iteration.

    ``timeline`` holds every scheduled event (2*p*m pipeline operations plus
    one ``dp_sync`` per stage that synchronises), sorted by start time.  It
    is built on first read, from the schedule pass the simulation kept (or,
    in a report made without one, by running the pass again from the
    per-stage times); :meth:`to_json_dict` leaves it out, and
    :func:`chrome_trace` exports it.
    """

    iter_time_s: float
    tflops_per_gpu: float
    throughput_samples_per_s: float
    flops_per_iteration: float
    micro_batches: int
    breakdown: dict[str, float]
    # Per-stage forward, backward and dp_sync seconds, then the hop seconds.
    _stages: tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...], float] = (
        field(repr=False, compare=False)
    )
    # The starts and ends :func:`_schedule` worked out from ``_stages``.
    _starts_ends: tuple[list[list[float]], ...] | None = field(
        default=None, repr=False, compare=False
    )

    @cached_property
    def timeline(self) -> tuple[StageEvent, ...]:
        return _timeline(self._stages, self.micro_batches, self._starts_ends)

    def to_json_dict(self) -> dict:
        return {
            "iter_time_s": self.iter_time_s,
            "tflops_per_gpu": self.tflops_per_gpu,
            "throughput_samples_per_s": self.throughput_samples_per_s,
            "flops_per_iteration": self.flops_per_iteration,
            "micro_batches": self.micro_batches,
            "breakdown": dict(self.breakdown),
        }


def chrome_trace(report: SimReport) -> dict:
    """The timeline in Chrome Trace Event Format, one thread lane per stage.

    Each event becomes a complete (``"ph": "X"``) event with ``ts`` and
    ``dur`` in microseconds, in timeline order, after one ``thread_name``
    metadata event per stage.  The result opens in Perfetto or
    ``chrome://tracing``.
    """
    events = [
        {
            "ph": "M",
            "pid": 1,
            "tid": s,
            "name": "thread_name",
            "args": {"name": f"stage {s}"},
        }
        for s in sorted({e.stage for e in report.timeline})
    ]
    events.extend(
        {
            "ph": "X",
            "pid": 1,
            "tid": e.stage,
            "name": e.op if e.op == "dp_sync" else f"{e.op} {e.micro}",
            "cat": e.op,
            "ts": e.start_s * 1e6,
            "dur": (e.end_s - e.start_s) * 1e6,
        }
        for e in report.timeline
    )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def flops_per_iteration(model: ModelSpec) -> int:
    """Total forward+backward FLOPs for one iteration over the global batch.

    96 * B * s * L * h^2 * (1 + s/(6h) + V/(16*L*h)), expanded so that every
    term is an integer: 96*B*s*L*h^2 + 16*B*s^2*L*h + 6*B*s*h*V.
    """
    b, s, layers, h, v = (
        model.global_batch,
        model.seq_len,
        model.layers,
        model.hidden,
        model.vocab,
    )
    return 96 * b * s * layers * h * h + 16 * b * s * s * layers * h + 6 * b * s * h * v


def micro_batch_count(model: ModelSpec, cfg: ParallelConfig) -> int:
    """Micro-batches each pipeline replica runs per iteration: B / (b * d)."""
    per_replica = model.global_batch // cfg.data
    if model.global_batch % cfg.data != 0:
        raise InfeasibleConfigError(
            f"global batch {model.global_batch} not divisible by data degree {cfg.data}"
        )
    if per_replica % model.micro_batch != 0:
        raise InfeasibleConfigError(
            f"per-replica batch {per_replica} not divisible by micro batch "
            f"{model.micro_batch}"
        )
    return per_replica // model.micro_batch


def stage_compute_time(
    stage_layers: int,
    model: ModelSpec,
    cfg: ParallelConfig,
    device_tflops_peak: float,
    eta: float,
    backward_forward_ratio: float = 2.0,
) -> tuple[float, float]:
    """Per-micro-batch forward and backward seconds on one stage device.

    The stage's share of the iteration FLOPs is layers-proportional; one
    device sees one replica's micro-batch through its own tensor shard, so
    the per-device forward work is F * stage_layers * micro_batch /
    ((1 + ratio) * L * B * tensor) and backward costs ``ratio`` times more.
    """
    if stage_layers < 1:
        raise InfeasibleConfigError(f"stage needs >= 1 layers, got {stage_layers}")
    if device_tflops_peak <= 0:
        raise InvalidDeviceError(
            f"device peak must be positive, got {device_tflops_peak}"
        )
    if not 0 < eta <= 1:
        raise InfeasibleConfigError(f"eta must be in (0, 1], got {eta}")
    total = flops_per_iteration(model)
    m_total = micro_batch_count(model, cfg)
    rate = eta * device_tflops_peak * 1e12
    per_device_flops = (
        total
        * stage_layers
        / ((1.0 + backward_forward_ratio) * model.layers * m_total * cfg.tensor * cfg.data)
    )
    t_fwd = per_device_flops / rate
    return t_fwd, backward_forward_ratio * t_fwd


def analytic_makespan(
    stage_times: list[tuple[float, float]],
    m_total: int,
    p2p_times: list[float],
) -> float:
    """Closed-form 1F1B makespan for uniform stages, the simulator's oracle.

    With p uniform stages of (t_fwd, t_bwd) and a uniform hop time x, the
    pipeline fills in (p-1)*(t_fwd + x), the last stage then runs its m
    micro-batches back to back in m*(t_fwd + t_bwd), and the final backward
    drains in (p-1)*(t_bwd + x); summing gives

        (m + p - 1) * (t_fwd + t_bwd) + 2 * (p - 1) * x.

    Raises for non-uniform stage or hop times (the event simulation is the
    general path; this form exists to check it).
    """
    if not stage_times:
        raise NotApplicableError("no stages")
    p = len(stage_times)
    if len(p2p_times) != max(p - 1, 0):
        raise NotApplicableError(
            f"expected {p - 1} hop times for {p} stages, got {len(p2p_times)}"
        )
    if m_total < 1:
        raise NotApplicableError("need at least one micro-batch")

    def _uniform(values: list[float], what: str) -> float:
        lo, hi = min(values), max(values)
        if hi > lo and (hi - lo) > 1e-9 * hi:
            raise NotApplicableError(f"{what} are not uniform: {lo} vs {hi}")
        return values[0]

    t_fwd = _uniform([ft for ft, _ in stage_times], "forward times")
    t_bwd = _uniform([bt for _, bt in stage_times], "backward times")
    hop = _uniform(p2p_times, "hop times") if p2p_times else 0.0
    return (m_total + p - 1) * (t_fwd + t_bwd) + 2 * (p - 1) * hop


def metrics(flops: float, iter_time_s: float, devices: int, global_batch: int):
    """Achieved TFLOPS per device and end-to-end samples per second."""
    if iter_time_s <= 0:
        raise InfeasibleConfigError(f"iter_time must be positive, got {iter_time_s}")
    tflops = flops / (iter_time_s * devices * 1e12)
    throughput = global_batch / iter_time_s
    return tflops, throughput


def _stage_grad_bytes(stage: int, stage_layers: int, p: int, model: ModelSpec) -> int:
    """Gradient bytes one data replica synchronises for a stage.

    12*h^2 parameters per transformer layer, plus the vocab*h embedding on
    the terminal stages (once only when the pipeline is a single stage).
    """
    h = model.hidden
    params = 12 * h * h * stage_layers
    if p == 1:
        params += model.vocab * h
    elif stage in (1, p):
        params += model.vocab * h
    return params * model.bytes_per_param


def _activation_bytes(model: ModelSpec) -> int:
    return model.micro_batch * model.seq_len * model.hidden * model.bytes_per_param


@dataclass(frozen=True)
class _StageCosts:
    t_fwd: float  # per-micro-batch forward, tensor collectives included
    t_bwd: float
    compute_fwd: float  # pure compute portions, for the breakdown
    compute_bwd: float
    tp_fwd: float
    tp_bwd: float
    dp_sync: float


def _stage_costs(
    cfg: ParallelConfig,
    topo: ClusterTopology,
    channels: dict,
    partition: PartitionPlan,
    model: ModelSpec,
    cost: CostModel,
) -> list[_StageCosts]:
    p = cfg.pipeline
    act_bytes = _activation_bytes(model)
    out: list[_StageCosts] = []
    for stage in range(1, p + 1):
        layers_here = partition.stage_layers[stage - 1]
        first_rank = (stage - 1) * cfg.stage_block_size() + 1
        cluster = topo.clusters[topo.cluster_index(first_rank) - 1]
        speed = cost.effective_tflops(cluster.index, cluster.device_tflops_peak)
        compute_fwd, compute_bwd = stage_compute_time(
            layers_here,
            model,
            cfg,
            device_tflops_peak=speed,
            eta=1.0,  # speed already includes the efficiency factor
            backward_forward_ratio=cost.backward_forward_ratio,
        )
        # Megatron-style layer sharding: two activation all-reduces per layer
        # in forward and two in backward when tensor degree > 1.
        tp_channel = channels[(GroupKind.TP, 1)]
        one_ar = cost.all_reduce(act_bytes, cfg.tensor, tp_channel)
        tp_fwd = 2 * layers_here * one_ar
        tp_bwd = 2 * layers_here * one_ar
        dp_rows = range((stage - 1) * cfg.tensor + 1, stage * cfg.tensor + 1)
        grad_bytes = _stage_grad_bytes(stage, layers_here, p, model)
        dp_sync = max(
            cost.reduce_scatter(grad_bytes, cfg.data, channels[(GroupKind.DP, row)])
            + cost.all_gather(grad_bytes, cfg.data, channels[(GroupKind.DP, row)])
            for row in dp_rows
        )
        out.append(
            _StageCosts(
                t_fwd=compute_fwd + tp_fwd,
                t_bwd=compute_bwd + tp_bwd,
                compute_fwd=compute_fwd,
                compute_bwd=compute_bwd,
                tp_fwd=tp_fwd,
                tp_bwd=tp_bwd,
                dp_sync=dp_sync,
            )
        )
    return out


def _schedule(
    t_fwd: tuple[float, ...], t_bwd: tuple[float, ...], hop: float, m: int
) -> tuple[list[list[float]], list[list[float]], list[list[float]], list[list[float]]]:
    """Start and end seconds of every 1F1B operation, in one pass.

    Returns forward starts, forward ends, backward starts and backward ends,
    each indexed [stage - 1][micro - 1].  An operation starts at the later
    of its lane becoming free and its input arriving: a forward's from the
    previous stage, a backward's from the next stage, or from its own
    forward on the last stage.

    Stage s (0-based) runs w = min(p-1-s, m) warmup forwards, then
    alternates forward and backward, then drains; at op position j it runs

    - warmup forward j while j < w,
    - drain backward j - m once j >= 2m - w,
    - in between, forward (j + w) / 2 when j - w is even and backward
      (j - w - 1) / 2 when it is odd.

    A forward's input sits at a position <= j of the stage before it and a
    backward's at a position <= j of the stage after it (or earlier on its
    own lane), so taking positions in order, forwards in ascending stage
    order and then backwards in descending stage order, computes every
    input before it is read.
    """
    p = len(t_fwd)
    last = p - 1
    fwd_start = [[0.0] * m for _ in range(p)]
    fwd_end = [[0.0] * m for _ in range(p)]
    bwd_start = [[0.0] * m for _ in range(p)]
    bwd_end = [[0.0] * m for _ in range(p)]
    lane = [0.0] * p
    for j in range(2 * m):
        if j < m:  # stages below last - j are still warming up: forward j
            for s in range(last - j):
                start = lane[s]
                if s:
                    # Hop time is exposed on the pipeline fill only; later
                    # forwards arrive under cover of the previous compute.
                    ready = fwd_end[s - 1][j] + hop if j == 0 else fwd_end[s - 1][j]
                    if ready > start:
                        start = ready
                fwd_start[s][j] = start
                lane[s] = fwd_end[s][j] = start + t_fwd[s]
        # From stage lo up, stages are past warmup and before the drain at j,
        # so every other one runs a forward and the rest a backward; along a
        # position each such op is one micro-batch behind the one below it.
        lo = max(last - j, last + j + 1 - 2 * m, last + 1 - m, 0)
        odd = (lo + j - last) & 1  # 1 when stage lo runs a backward
        k = (j + last - lo - odd) >> 1
        for s in range(lo + odd, p, 2):
            start = lane[s]
            if s:
                ready = fwd_end[s - 1][k] + hop if k == 0 else fwd_end[s - 1][k]
                if ready > start:
                    start = ready
            fwd_start[s][k] = start
            lane[s] = fwd_end[s][k] = start + t_fwd[s]
            k -= 1
        top = last - ((last - lo - 1 + odd) & 1)
        k = (j - last + top - 1) >> 1
        for s in range(top, lo - odd, -2):
            if s < last:  # the hop is exposed again on the drain
                ready = bwd_end[s + 1][k] + hop if k == m - 1 else bwd_end[s + 1][k]
            else:
                ready = fwd_end[s][k]
            start = lane[s]
            if ready > start:
                start = ready
            bwd_start[s][k] = start
            lane[s] = bwd_end[s][k] = start + t_bwd[s]
            k -= 1
        if j >= m:  # stages up to last + j - 2m are draining: backward j - m
            k = j - m
            for s in range(last + j - 2 * m, -1, -1):
                ready = bwd_end[s + 1][k] + hop if k == m - 1 else bwd_end[s + 1][k]
                start = lane[s]
                if ready > start:
                    start = ready
                bwd_start[s][k] = start
                lane[s] = bwd_end[s][k] = start + t_bwd[s]
    return fwd_start, fwd_end, bwd_start, bwd_end


def _iteration_time(stages, m: int, schedule=None) -> float:
    """Seconds until the last stage finishes its gradient synchronisation."""
    t_fwd, t_bwd, dp_sync, hop = stages
    bwd_end = (schedule or _schedule(t_fwd, t_bwd, hop, m))[3]
    # A stage synchronises once its last backward, micro-batch m, ends.
    return max(ends[-1] + dp for ends, dp in zip(bwd_end, dp_sync))


def _timeline(stages, m: int, schedule=None) -> tuple[StageEvent, ...]:
    """Every operation of the pass as a :class:`StageEvent`, by start time."""
    t_fwd, t_bwd, dp_sync, hop = stages
    fwd_start, fwd_end, bwd_start, bwd_end = schedule or _schedule(t_fwd, t_bwd, hop, m)
    events: list[StageEvent] = []
    # Each zip row holds the five fields, so tuple.__new__ can skip the
    # Python-level call and length check of StageEvent._make; every stage
    # shares one set of micro-batch numbers.
    new, event, micros = tuple.__new__, repeat(StageEvent), tuple(range(1, m + 1))
    for s in range(len(t_fwd)):
        stage = s + 1
        ends = bwd_end[s]
        bwd = zip(repeat(stage), repeat("bwd"), micros, bwd_start[s], ends)
        events.extend(map(new, event, bwd))
        if dp_sync[s] > 0.0:
            events.append(StageEvent(stage, "dp_sync", 0, ends[-1], ends[-1] + dp_sync[s]))
        fwd = zip(repeat(stage), repeat("fwd"), micros, fwd_start[s], fwd_end[s])
        events.extend(map(new, event, fwd))
    # Events went in by (stage, op, micro), so a stable sort on start_s alone
    # gives the order of the key (start_s, stage, op, micro).
    events.sort(key=itemgetter(3))
    return tuple(events)


def simulate_iteration(
    topo: ClusterTopology,
    cfg: ParallelConfig,
    plan: GroupPlan,
    channels: list[ChannelAssignment],
    partition: PartitionPlan,
    model: ModelSpec,
    cost: CostModel,
) -> SimReport:
    """Run the 1F1B schedule and report iteration metrics.

    The plan must have been channel-assigned for this topology and the
    partition must cover the configured pipeline depth; shape mismatches
    raise rather than mis-simulate.
    """
    p, m_total = cfg.pipeline, micro_batch_count(model, cfg)
    if len(partition.stage_layers) != p:
        raise InconsistentPlanError(
            f"partition has {len(partition.stage_layers)} stages, config wants {p}"
        )
    if sum(partition.stage_layers) != model.layers:
        raise InconsistentPlanError(
            f"partition covers {sum(partition.stage_layers)} layers, "
            f"model has {model.layers}"
        )
    if len(plan.pp.rows[0]) != p:
        raise InconsistentPlanError("plan pipeline degree disagrees with config")
    chans = channel_map(channels)
    missing = [
        (kind.value, row)
        for kind, matrix in ((GroupKind.TP, plan.tp), (GroupKind.DP, plan.dp), (GroupKind.PP, plan.pp))
        for row in range(1, len(matrix.rows) + 1)
        if (kind, row) not in chans
    ]
    if missing:
        raise InconsistentPlanError(f"channels missing for groups {missing[:4]}")

    costs = _stage_costs(cfg, topo, chans, partition, model, cost)
    # All pipeline rows share one cluster-span pattern on a validated plan,
    # so row 1's channel prices every stage boundary.
    pp_channel = chans[(GroupKind.PP, 1)]
    hop = cost.comm(_activation_bytes(model), pp_channel) if p > 1 else 0.0

    stages = (
        tuple(c.t_fwd for c in costs),
        tuple(c.t_bwd for c in costs),
        tuple(c.dp_sync for c in costs),
        hop,
    )
    schedule = _schedule(stages[0], stages[1], hop, m_total)
    iter_time = _iteration_time(stages, m_total, schedule)

    total = flops_per_iteration(model)
    tflops, throughput = metrics(total, iter_time, topo.total_devices, model.global_batch)
    breakdown = {
        "pipeline_compute": max(
            m_total * (c.compute_fwd + c.compute_bwd) for c in costs
        ),
        "pipeline_p2p": 2.0 * (p - 1) * hop,
        "dp_sync": max(c.dp_sync for c in costs),
        "tp_collectives": max(m_total * (c.tp_fwd + c.tp_bwd) for c in costs),
    }
    return SimReport(
        iter_time_s=iter_time,
        tflops_per_gpu=tflops,
        throughput_samples_per_s=throughput,
        flops_per_iteration=total,
        micro_batches=m_total,
        breakdown=breakdown,
        _stages=stages,
        _starts_ends=schedule,
    )


class ReduceScatterEntry(NamedTuple):
    """Gradient reduce-scatter cost for one data-parallel group."""

    row: int
    stage: int
    channel: str
    seconds: float

    def to_json_dict(self) -> dict:
        return {
            "row": self.row,
            "stage": self.stage,
            "channel": self.channel,
            "seconds": self.seconds,
        }


def reduce_scatter_report(
    plan: GroupPlan,
    channels: list[ChannelAssignment],
    partition: PartitionPlan,
    model: ModelSpec,
    cost: CostModel,
) -> list[ReduceScatterEntry]:
    """Per-data-group gradient reduce-scatter seconds, by assigned channel."""
    cfg = plan.config
    if len(partition.stage_layers) != cfg.pipeline:
        raise InconsistentPlanError(
            f"partition has {len(partition.stage_layers)} stages, plan wants "
            f"{cfg.pipeline}"
        )
    chans = channel_map(channels)
    out: list[ReduceScatterEntry] = []
    for row in range(1, len(plan.dp.rows) + 1):
        stage = (row - 1) // cfg.tensor + 1
        grad_bytes = _stage_grad_bytes(
            stage, partition.stage_layers[stage - 1], cfg.pipeline, model
        )
        assignment = chans[(GroupKind.DP, row)]
        seconds = cost.reduce_scatter(grad_bytes, cfg.data, assignment)
        out.append(
            ReduceScatterEntry(
                row=row,
                stage=stage,
                channel=assignment.channel.value,
                seconds=seconds,
            )
        )
    return out
