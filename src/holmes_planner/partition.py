"""Pipeline-stage layer allocation: uniform and speed-proportional splits.

The speed-proportional ("self-adapting") split gives each cluster a layer
count proportional to its effective device speed, scaled by a per-cluster
hyper-parameter alpha, with the last cluster absorbing the rounding
remainder.  A linear memory model (layers * per-layer gigabytes) guards
each cluster's budget.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple
from enum import Enum
from typing import NamedTuple

from .errors import (
    ClampWarning,
    InfeasibleAlphaError,
    InfeasibleConfigError,
    MemoryExceededError,
)
from .groups import ParallelConfig
from .topology import ClusterTopology

DEFAULT_SEQ_LEN = 2048
DEFAULT_VOCAB = 51200
DEFAULT_BYTES_PER_PARAM = 2


class PartitionStrategy(str, Enum):
    UNIFORM = "uniform"
    SELF_ADAPTING = "self_adapting"


class ModelSpec(
    namedtuple(
        "ModelSpec",
        "layers hidden heads global_batch micro_batch seq_len vocab "
        "bytes_per_param per_layer_mem_gb",
    )
):
    """Transformer shape and batch settings used for costing.

    ``seq_len`` and ``vocab`` default to 2048 and 51200; reports flag when
    these defaults are in effect.  ``per_layer_mem_gb`` defaults to a linear
    estimate: 12*hidden^2 parameter bytes plus 34*micro_batch*seq_len*hidden
    activation bytes per layer.
    """

    __slots__ = ()

    def __new__(
        cls,
        layers: int,
        hidden: int,
        heads: int,
        global_batch: int,
        micro_batch: int,
        seq_len: int = DEFAULT_SEQ_LEN,
        vocab: int = DEFAULT_VOCAB,
        bytes_per_param: int = DEFAULT_BYTES_PER_PARAM,
        per_layer_mem_gb: float | None = None,
    ):
        self = super().__new__(
            cls,
            layers,
            hidden,
            heads,
            global_batch,
            micro_batch,
            seq_len,
            vocab,
            bytes_per_param,
            per_layer_mem_gb,
        )
        for name, count in zip(self._fields[:-1], self):
            if count < 1:
                raise InfeasibleConfigError(f"model {name} must be >= 1")
        if per_layer_mem_gb is not None and per_layer_mem_gb <= 0:
            raise InfeasibleConfigError("per_layer_mem_gb must be positive")
        return self

    def layer_mem_gb(self) -> float:
        if self.per_layer_mem_gb is not None:
            return self.per_layer_mem_gb
        param_bytes = 12 * self.hidden**2 * self.bytes_per_param
        activation_bytes = 34 * self.micro_batch * self.seq_len * self.hidden
        return (param_bytes + activation_bytes) / 1e9


class PartitionPlan(NamedTuple):
    """Layer counts per pipeline stage plus the per-cluster totals."""

    strategy: PartitionStrategy
    stage_layers: tuple[int, ...]
    cluster_layers: tuple[int, ...]
    alphas: tuple[float, ...] | None = None
    warnings: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "strategy": self.strategy.value,
            "alpha": list(self.alphas) if self.alphas is not None else None,
            "stage_layers": list(self.stage_layers),
            "cluster_layers": list(self.cluster_layers),
        }


def uniform_partition(layers: int, stages: int) -> list[int]:
    """Split ``layers`` over ``stages`` as evenly as possible, extras first."""
    if stages < 1:
        raise InfeasibleConfigError(f"stage count must be >= 1, got {stages}")
    if layers < stages:
        raise InfeasibleConfigError(
            f"{layers} layers cannot fill {stages} stages with one layer each"
        )
    base, extra = divmod(layers, stages)
    return [base + 1 if s < extra else base for s in range(stages)]


def check_memory(cluster_layers, mem_per_layer_gb, dmem_gb, alphas_in_play=False):
    """Enforce layers * per-layer GB <= budget for every cluster."""
    if len(cluster_layers) != len(dmem_gb):
        raise InfeasibleConfigError(
            f"{len(cluster_layers)} cluster layer counts but {len(dmem_gb)} "
            f"memory budgets"
        )
    for i, (count, budget) in enumerate(zip(cluster_layers, dmem_gb), start=1):
        used = count * mem_per_layer_gb
        if used > budget:
            hint = (
                " (reduce this cluster's alpha to shed layers)"
                if alphas_in_play
                else ""
            )
            raise MemoryExceededError(
                f"cluster {i}: {count} layers need {used:.2f} GB, "
                f"budget is {budget:.2f} GB{hint}"
            )


def multi_cluster_alloc(
    layers: int,
    speeds_tflops: list[float],
    alphas: list[float] | None,
    mem_per_layer_gb: float,
    dmem_gb: list[float],
) -> list[int]:
    """Proportional layer allocation over M clusters, last takes the remainder.

    Cluster i < M gets floor(alpha_i * speed_i / sum(speeds) * layers); the
    final cluster absorbs what is left.  Allocations are clamped to at least
    one layer (warning), an empty remainder is an error, and every cluster's
    linear memory use must fit its budget.
    """
    m = len(speeds_tflops)
    if m < 1:
        raise InfeasibleConfigError("need at least one cluster")
    if any(s <= 0 for s in speeds_tflops):
        raise InfeasibleConfigError("cluster speeds must be positive")
    if len(dmem_gb) != m:
        raise InfeasibleConfigError("dmem list length must match cluster count")
    if alphas is None:
        alphas = [1.0] * m
    if len(alphas) == m - 1:
        alphas = list(alphas) + [1.0]  # last cluster's alpha is never used
    if len(alphas) != m:
        raise InfeasibleConfigError(
            f"expected {m} (or {m - 1}) alphas, got {len(alphas)}"
        )
    if any(a <= 0 for a in alphas[: m - 1]):
        raise InfeasibleConfigError("alphas must be positive")
    if layers < m:
        raise InfeasibleConfigError(
            f"{layers} layers cannot give {m} clusters one layer each"
        )

    total_speed = sum(speeds_tflops)
    counts: list[int] = []
    for i in range(m - 1):
        n_i = math.floor(alphas[i] * speeds_tflops[i] / total_speed * layers)
        if n_i < 1:
            warnings.warn(
                f"cluster {i + 1} allocation came to {n_i} layers; clamped to 1",
                ClampWarning,
                stacklevel=2,
            )
            n_i = 1
        counts.append(n_i)
    remainder = layers - sum(counts)
    if remainder <= 0:
        raise InfeasibleAlphaError(
            f"alphas {alphas[: m - 1]} leave the last cluster {remainder} layers; "
            f"reduce alpha"
        )
    counts.append(remainder)
    check_memory(counts, mem_per_layer_gb, dmem_gb, alphas_in_play=True)
    return counts


def stages_from_cluster_alloc(
    cluster_alloc: list[int],
    cfg: ParallelConfig,
    topo: ClusterTopology,
    alphas: tuple[float, ...] | None = None,
) -> PartitionPlan:
    """A self-adapting plan: each cluster's layer total spread uniformly
    over its pipeline stages.

    Stage order follows rank order, so cluster 1's stages come first.  Every
    cluster must host a whole number of stages (the straddle check in
    :func:`holmes_planner.groups.validate`).
    """
    if len(cluster_alloc) != len(topo.clusters):
        raise InfeasibleConfigError(
            f"allocation has {len(cluster_alloc)} entries for "
            f"{len(topo.clusters)} clusters"
        )
    block = cfg.stage_block_size()
    stage_layers: list[int] = []
    for cluster, alloc in zip(topo.clusters, cluster_alloc):
        size = topo.gpus_per_node * cluster.node_count
        if size % block != 0:
            raise InfeasibleConfigError(
                f"cluster {cluster.index} size {size} is not a whole number of "
                f"stage blocks ({block})"
            )
        stages_here = size // block
        if alloc < stages_here:
            raise InfeasibleConfigError(
                f"cluster {cluster.index} hosts {stages_here} stages but was "
                f"allocated only {alloc} layers"
            )
        stage_layers.extend(uniform_partition(alloc, stages_here))
    if len(stage_layers) != cfg.pipeline:
        raise InfeasibleConfigError(
            f"topology yields {len(stage_layers)} stages, config wants {cfg.pipeline}"
        )
    return PartitionPlan(
        strategy=PartitionStrategy.SELF_ADAPTING,
        stage_layers=tuple(stage_layers),
        cluster_layers=tuple(cluster_alloc),
        alphas=alphas,
    )
