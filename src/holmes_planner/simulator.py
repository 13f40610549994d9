"""One-forward-one-backward pipeline simulation with an alpha-beta
communication cost model.

A run prices a per-stage table (:class:`StageTable`): for each of the p
stages, the cluster hosting it (:func:`holmes_planner.groups.stage_clusters`),
that cluster's effective device speed and the stage's data-parallel
channel, plus the one pipeline and the one tensor channel.  On a validated
plan these are all the channels the plan holds, so a run's cost does not
grow with the rank count.  :func:`simulate_iteration` and
:func:`reduce_scatter_report` take a full group plan and its per-row
channels, read the table back from the rows, refuse rows that are not one
table written out by :func:`holmes_planner.nic_select.write_rows`, and
price it with the same code.

One training iteration is simulated per stage lane: the devices of a stage
(tensor shards x data replicas) run the same schedule in lockstep, so a
single timeline per stage determines the makespan.  The schedule is the
flush-synchronised 1F1B form: stage s (1-based, p stages) runs
min(p - s, m) warmup forwards, then alternates forward/backward, then
drains its remaining backwards.  Each operation starts when its lane is
free and its input has arrived.  One pass computes every start and end in
m + p - 1 micro-batch waves: step n runs forward n down the pipeline, then
on each stage s the backward p - s micro-batches behind it, which is the
order in which each lane runs them.

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

from collections import namedtuple
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
from .groups import GroupPlan, ParallelConfig, stage_clusters
from .nic_select import ChannelAssignment, write_rows
from .partition import ModelSpec, PartitionPlan
from .topology import ClusterTopology

DEFAULT_COMPUTE_EFFICIENCY = 0.63  # fraction of peak achieved on 200 Gbps RDMA
DEFAULT_BACKWARD_FORWARD_RATIO = 2.0


class CostModel(
    namedtuple("CostModel", "eta backward_forward_ratio cluster_speeds_tflops")
):
    """Transfer pricing plus the compute-efficiency knob.

    ``eta`` is the achieved fraction of peak device throughput; at the
    default 0.63 the reference 3.6B-parameter run on 200 Gbps InfiniBand
    (``scenarios/gpt_3p6b_infiniband.json``) simulates to 175.56 TFLOPS per
    312-TFLOPS device, end to end.  ``cluster_speeds_tflops``, when given,
    overrides eta*peak with an explicit effective speed per cluster, which
    lets scenarios express NIC-dependent speed differences.
    """

    __slots__ = ()

    def __new__(
        cls,
        eta: float = DEFAULT_COMPUTE_EFFICIENCY,
        backward_forward_ratio: float = DEFAULT_BACKWARD_FORWARD_RATIO,
        cluster_speeds_tflops: tuple[float, ...] | None = None,
    ):
        if not 0 < eta <= 1:
            raise InfeasibleConfigError(f"eta must be in (0, 1], got {eta}")
        if backward_forward_ratio <= 0:
            raise InfeasibleConfigError("backward_forward_ratio must be positive")
        if cluster_speeds_tflops is not None and any(
            s <= 0 for s in cluster_speeds_tflops
        ):
            raise InfeasibleConfigError("cluster speeds must be positive")
        return super().__new__(cls, eta, backward_forward_ratio, cluster_speeds_tflops)

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


class StageTable(NamedTuple):
    """What a run prices, one entry per pipeline stage.

    ``clusters[s]``, ``speeds[s]`` and ``dp[s]`` belong to stage s + 1: the
    index of the cluster hosting it, its devices' effective TFLOPS, and the
    channel of its data groups.  ``pp`` is the channel of the pipeline rows
    and ``tp`` that of the tensor rows.

    Invariant: on a plan that :func:`holmes_planner.groups.validate`
    accepts, every stage's rank block lies in one cluster.  So the t data
    groups of a stage share that cluster's channel, every pipeline row
    crosses the same cluster sequence and so shares one channel, and every
    tensor row sits in one node; the table holds every channel of the plan.
    """

    clusters: tuple[int, ...]
    speeds: tuple[float, ...]
    dp: tuple[ChannelAssignment, ...]
    pp: ChannelAssignment
    tp: ChannelAssignment


def cluster_speeds(topo: ClusterTopology, cost: CostModel) -> list[float]:
    """Effective per-device TFLOPS for each cluster, in cluster order."""
    speeds = cost.cluster_speeds_tflops
    if speeds is not None and len(speeds) != len(topo.clusters):
        raise InfeasibleConfigError(
            f"cost.cluster_speeds_tflops gives {len(speeds)} speeds for "
            f"{len(topo.clusters)} clusters"
        )
    return [cost.effective_tflops(c.index, c.device_tflops_peak) for c in topo.clusters]


def stage_table(
    topo: ClusterTopology,
    clusters: tuple[int, ...],
    cost: CostModel,
    channels: tuple[ChannelAssignment, ChannelAssignment, tuple[ChannelAssignment, ...]],
) -> StageTable:
    """The table of the stages hosted on ``clusters`` of ``topo``, with the
    tensor, pipeline and per-stage data channels in ``channels``."""
    tp, pp, dp = channels
    speeds = cluster_speeds(topo, cost)
    return StageTable(clusters, tuple(speeds[c - 1] for c in clusters), dp, pp, tp)


class StageEvent(NamedTuple):
    """One scheduled operation on a stage lane."""

    stage: int
    op: str  # "fwd", "bwd", or "dp_sync"
    micro: int  # 0 for dp_sync
    start_s: float
    end_s: float


class SimReport(
    namedtuple(
        "SimReport",
        "iter_time_s tflops_per_gpu throughput_samples_per_s flops_per_iteration "
        "micro_batches breakdown",
    )
):
    """Predicted timing and rates for one training iteration.

    ``timeline`` holds every scheduled event (2*p*m pipeline operations plus
    one ``dp_sync`` per stage that synchronises), sorted by start time.  It
    is built on first read, from the schedule pass the simulation kept (or,
    in a report made without one, by running the pass again from the
    per-stage times); :meth:`to_json_dict` leaves it out, and
    :func:`chrome_trace` exports it.

    ``_stages`` holds the per-stage forward, backward and dp_sync seconds,
    then the hop seconds; ``_starts_ends`` the starts and ends
    :func:`_schedule` worked out from them, or None.  Both are attributes
    rather than fields, so equality and ``repr`` leave them out.
    """

    # No __slots__: the kept schedule and the built timeline live in __dict__.

    def __new__(
        cls,
        iter_time_s: float,
        tflops_per_gpu: float,
        throughput_samples_per_s: float,
        flops_per_iteration: float,
        micro_batches: int,
        breakdown: dict[str, float],
        _stages: tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...], float],
        _starts_ends: tuple[list[list[float]], ...] | None = None,
    ):
        self = super().__new__(
            cls,
            iter_time_s,
            tflops_per_gpu,
            throughput_samples_per_s,
            flops_per_iteration,
            micro_batches,
            breakdown,
        )
        self._stages = _stages
        self._starts_ends = _starts_ends
        return self

    def __getnewargs__(self):
        return (*self, self._stages, self._starts_ends)

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


class _StageCosts(NamedTuple):
    t_fwd: float  # per-micro-batch forward, tensor collectives included
    t_bwd: float
    compute_fwd: float  # pure compute portions, for the breakdown
    compute_bwd: float
    tp_fwd: float
    tp_bwd: float
    dp_sync: float


def _dp_sync(grad_bytes: int, data: int, channel, cost: CostModel) -> float:
    """Reduce-scatter plus all-gather of a stage's gradients on ``channel``."""
    return cost.reduce_scatter(grad_bytes, data, channel) + cost.all_gather(
        grad_bytes, data, channel
    )


def _stage_costs(
    cfg: ParallelConfig,
    table: StageTable,
    partition: PartitionPlan,
    model: ModelSpec,
    cost: CostModel,
) -> list[_StageCosts]:
    p = cfg.pipeline
    # Megatron-style layer sharding: two activation all-reduces per layer
    # in forward and two in backward when tensor degree > 1.
    one_ar = cost.all_reduce(_activation_bytes(model), cfg.tensor, table.tp)
    out: list[_StageCosts] = []
    for stage, (layers_here, speed, dp_channel) in enumerate(
        zip(partition.stage_layers, table.speeds, table.dp), start=1
    ):
        compute_fwd, compute_bwd = stage_compute_time(
            layers_here,
            model,
            cfg,
            device_tflops_peak=speed,
            eta=1.0,  # speed already includes the efficiency factor
            backward_forward_ratio=cost.backward_forward_ratio,
        )
        tp_fwd = 2 * layers_here * one_ar
        tp_bwd = 2 * layers_here * one_ar
        grad_bytes = _stage_grad_bytes(stage, layers_here, p, model)
        out.append(
            _StageCosts(
                t_fwd=compute_fwd + tp_fwd,
                t_bwd=compute_bwd + tp_bwd,
                compute_fwd=compute_fwd,
                compute_bwd=compute_bwd,
                tp_fwd=tp_fwd,
                tp_bwd=tp_bwd,
                dp_sync=_dp_sync(grad_bytes, cfg.data, dp_channel, cost),
            )
        )
    return out


_NO_INPUT = float("-inf")  # stage 0's forward input: never later than a lane


def _schedule(
    t_fwd: tuple[float, ...], t_bwd: tuple[float, ...], hop: float, m: int
) -> tuple[list[list[float]], list[list[float]], list[list[float]], list[list[float]]]:
    """Start and end seconds of every 1F1B operation, in micro-batch waves.

    Returns forward starts, forward ends, backward starts and backward ends,
    each indexed [stage - 1][micro - 1].  An operation starts at the later
    of its lane becoming free and its input arriving: a forward's from the
    previous stage, a backward's from the next stage, or from its own
    forward on the last stage.

    The pass takes steps n = 0 ... m + p - 2.  Step n runs forward n on
    every stage in ascending order, each fed by the forward just computed
    on the stage before it; then each stage s (0-based) with
    0 <= n - (p-1-s) < m runs backward n - (p-1-s), again in ascending
    order, fed by the backward stage s + 1 ran at step n - 1 (the last
    stage by its own forward n).  Each stage's latest backward end sits in
    a p-vector, and ascending order reads an entry before overwriting it.

    This is the 1F1B lane order: stage s runs its w = p-1-s warmup
    forwards (all m when w >= m), then forward w + i alternating with
    backward i, then drains its backwards, and at each step it runs forward
    n and then backward n - w, so lane order is step order.  Every
    operation therefore reads the same lane end and the same input, and
    takes the same ``max`` and float add, as in any other order that
    respects the dependencies.

    The hop time is exposed on the pipeline fill and on the drain only:
    on the forwards of step 0 and on backward m - 1, each with a loop of
    its own.  Later transfers arrive under cover of the previous compute,
    so the plain loops read their inputs without it.  A rule that exposes
    every transfer adds the hop to exactly those two input reads, and the
    peeled loops then fold back into the plain ones.
    """
    p = len(t_fwd)
    last = p - 1
    fwd_start = [[0.0] * m for _ in range(p)]
    fwd_end = [[0.0] * m for _ in range(p)]
    bwd_start = [[0.0] * m for _ in range(p)]
    bwd_end = [[0.0] * m for _ in range(p)]
    lane = [0.0] * p
    bwd_last = [0.0] * p  # each stage's latest backward end
    rows = list(zip(range(p), fwd_start, fwd_end, t_fwd))
    prev = _NO_INPUT
    for s, starts, ends, t in rows:  # step 0's forwards pay the hop
        start = lane[s]
        ready = prev + hop
        if ready > start:
            start = ready
        starts[0] = start
        lane[s] = prev = ends[0] = start + t
    for n in range(m + last):
        if 0 < n < m:
            prev = _NO_INPUT
            for s, starts, ends, t in rows:
                start = lane[s]
                if prev > start:
                    start = prev
                starts[n] = start
                lane[s] = prev = ends[n] = start + t
        # Stages lo .. top run backwards n - last + lo onward; stage top
        # runs either the last stage's backward n or backward m - 1.
        lo = last - n if n < last else 0
        top = last if n < m else m + last - 1 - n
        k = n - last + lo
        for s in range(lo, top):
            start = lane[s]
            ready = bwd_last[s + 1]
            if ready > start:
                start = ready
            bwd_start[s][k] = start
            lane[s] = bwd_last[s] = bwd_end[s][k] = start + t_bwd[s]
            k += 1
        start = lane[top]  # on the last stage, its forward k just ended
        if top < last:  # backward m - 1 pays the hop on the drain
            ready = bwd_last[top + 1] + hop
            if ready > start:
                start = ready
        bwd_start[top][k] = start
        lane[top] = bwd_last[top] = bwd_end[top][k] = start + t_bwd[top]
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


def _micro_batches(cfg: ParallelConfig, partition: PartitionPlan, model: ModelSpec) -> int:
    """Micro-batch count, once the partition is checked against the config."""
    m_total = micro_batch_count(model, cfg)
    if len(partition.stage_layers) != cfg.pipeline:
        raise InconsistentPlanError(
            f"partition has {len(partition.stage_layers)} stages, config wants "
            f"{cfg.pipeline}"
        )
    if sum(partition.stage_layers) != model.layers:
        raise InconsistentPlanError(
            f"partition covers {sum(partition.stage_layers)} layers, "
            f"model has {model.layers}"
        )
    return m_total


def _read_rows(cfg: ParallelConfig, channels: list[ChannelAssignment]) -> tuple:
    """The tensor, pipeline and per-stage data channels that ``channels``
    writes out, in the row order :func:`write_rows` gives; rows that are not
    one stage table written out raise."""
    tp_rows, t = cfg.world_size // cfg.tensor, cfg.tensor
    first_dp = tp_rows + cfg.stage_block_size()
    if len(channels) != first_dp + cfg.pipeline * t:
        raise InconsistentPlanError(
            f"{len(channels)} channel rows, the plan has {first_dp + cfg.pipeline * t}"
        )
    tp, pp = channels[0], channels[tp_rows]
    dp = tuple(channels[first_dp + s * t] for s in range(cfg.pipeline))
    rows = write_rows(cfg, tp, pp, dp)
    if list(channels) != rows:
        want = next(want for got, want in zip(channels, rows) if got != want)
        raise InconsistentPlanError(
            f"{want.kind.value} row {want.row} does not carry its stage's channel"
        )
    return tp, pp, dp


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

    ``channels`` must be one channel per group row of ``plan``, as
    :func:`holmes_planner.nic_select.assign_channels` writes them out, and
    the partition must cover the configured pipeline depth; shape mismatches
    raise rather than mis-simulate.  The rows are read back into a
    :class:`StageTable`, which is then priced as a run prices it.
    """
    _micro_batches(cfg, partition, model)
    if len(plan.pp.rows[0]) != cfg.pipeline:
        raise InconsistentPlanError("plan pipeline degree disagrees with config")
    table = stage_table(topo, stage_clusters(cfg, topo), cost, _read_rows(cfg, channels))
    return simulate_stages(topo, cfg, table, partition, model, cost)


def simulate_stages(
    topo: ClusterTopology,
    cfg: ParallelConfig,
    table: StageTable,
    partition: PartitionPlan,
    model: ModelSpec,
    cost: CostModel,
) -> SimReport:
    """:func:`simulate_iteration` on a stage table."""
    p, m_total = cfg.pipeline, _micro_batches(cfg, partition, model)
    costs = _stage_costs(cfg, table, partition, model, cost)
    # The table holds one pipeline channel, which prices every boundary.
    hop = cost.comm(_activation_bytes(model), table.pp) if p > 1 else 0.0

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
    """Per-data-group gradient reduce-scatter seconds, by assigned channel;
    ``channels`` are read back as :func:`simulate_iteration` reads them."""
    _, _, dp = _read_rows(plan.config, channels)
    return stage_reduce_scatter(plan.config, dp, partition, model, cost)


def stage_reduce_scatter(
    cfg: ParallelConfig,
    dp: tuple[ChannelAssignment, ...],
    partition: PartitionPlan,
    model: ModelSpec,
    cost: CostModel,
) -> list[ReduceScatterEntry]:
    """:func:`reduce_scatter_report` from a stage table's data channels:
    each stage's entry, priced once on ``dp[s]`` and repeated for its t data
    rows, in row order."""
    if len(partition.stage_layers) != cfg.pipeline:
        raise InconsistentPlanError(
            f"partition has {len(partition.stage_layers)} stages, plan wants "
            f"{cfg.pipeline}"
        )
    t, out = cfg.tensor, []
    for stage, (layers_here, channel) in enumerate(zip(partition.stage_layers, dp), 1):
        grad_bytes = _stage_grad_bytes(stage, layers_here, cfg.pipeline, model)
        seconds = cost.reduce_scatter(grad_bytes, cfg.data, channel)
        first = (stage - 1) * t + 1
        out += [
            ReduceScatterEntry(row, stage, channel.channel.value, seconds)
            for row in range(first, first + t)
        ]
    return out
