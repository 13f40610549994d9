"""Tensor/pipeline/data parallel group construction and feasibility checks.

Given degrees (tensor, pipeline, data) with tensor*pipeline*data == N, the
three group matrices are fully determined by the global rank numbering:

* tensor groups: row i holds the t consecutive ranks (i-1)*t+1 .. i*t,
* pipeline groups: row i holds ranks i, i+t*d, i+2*t*d, ..., one per stage,
* data groups: row i holds the d ranks of one tensor slot replicated across
  the data dimension inside one stage block.

Stage j therefore occupies the contiguous rank block ((j-1)*t*d, j*t*d].
Ranks run cluster by cluster, so on a plan that :func:`validate` accepts
each stage block lies in one cluster, and :func:`stage_clusters` gives the
cluster hosting each stage without looking up any rank.  Group
construction is pure algebra; policy questions (which NIC a group may use)
live in :mod:`holmes_planner.nic_select`.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from typing import NamedTuple

from .errors import InfeasibleConfigError
from .topology import ClusterTopology


class GroupKind(str, Enum):
    TP = "tp"
    PP = "pp"
    DP = "dp"


class ParallelConfig(namedtuple("ParallelConfig", "tensor pipeline data")):
    """Parallelism degrees. The product must equal the device count."""

    __slots__ = ()

    def __new__(cls, tensor: int, pipeline: int, data: int):
        self = super().__new__(cls, tensor, pipeline, data)
        for name, degree in zip(self._fields, self):
            if degree < 1:
                raise InfeasibleConfigError(f"{name} degree must be >= 1, got {degree}")
        return self

    @property
    def world_size(self) -> int:
        return self.tensor * self.pipeline * self.data

    def stage_block_size(self) -> int:
        """Ranks per pipeline stage."""
        return self.tensor * self.data


class GroupMatrix(NamedTuple):
    """All groups of one kind; each row is an ordered rank tuple."""

    kind: GroupKind
    rows: tuple[tuple[int, ...], ...]

    @property
    def degree(self) -> int:
        return len(self.rows[0]) if self.rows else 0


class GroupPlan(NamedTuple):
    """The three group matrices for one (config, topology) pair."""

    config: ParallelConfig
    tp: GroupMatrix
    pp: GroupMatrix
    dp: GroupMatrix

    def to_json_dict(self) -> dict:
        return {
            "tp": [list(row) for row in self.tp.rows],
            "pp": [list(row) for row in self.pp.rows],
            "dp": [list(row) for row in self.dp.rows],
        }


class Diagnostic(NamedTuple):
    """One feasibility violation with a stable machine-readable code."""

    code: str
    message: str

    def __str__(self):
        return f"{self.code}: {self.message}"


def build_plan(cfg: ParallelConfig, topo: ClusterTopology) -> GroupPlan:
    """All three matrices, from the rank equations in the module docstring.

    Every tensor row must stay inside one node, so ``tensor`` has to divide
    ``gpus_per_node``.
    """
    if cfg.world_size != topo.total_devices:
        raise InfeasibleConfigError(
            f"degree product {cfg.tensor}*{cfg.pipeline}*{cfg.data}={cfg.world_size} "
            f"does not equal device count {topo.total_devices}"
        )
    t, p = cfg.tensor, cfg.pipeline
    if topo.gpus_per_node % t != 0:
        raise InfeasibleConfigError(
            f"tensor degree {t} does not divide gpus_per_node "
            f"{topo.gpus_per_node}; tensor groups would straddle nodes"
        )
    n, block = cfg.world_size, cfg.stage_block_size()
    tp = tuple(tuple(range(i, i + t)) for i in range(1, n + 1, t))
    pp = tuple(tuple(range(i, n + 1, block)) for i in range(1, block + 1))
    dp = tuple(
        tuple(range(s * block + k + 1, (s + 1) * block + 1, t))
        for s in range(p)
        for k in range(t)
    )
    return GroupPlan(
        config=cfg,
        tp=GroupMatrix(GroupKind.TP, tp),
        pp=GroupMatrix(GroupKind.PP, pp),
        dp=GroupMatrix(GroupKind.DP, dp),
    )


def stage_clusters(cfg: ParallelConfig, topo: ClusterTopology) -> tuple[int, ...]:
    """The index of the cluster hosting each pipeline stage, stage 1 first.

    Stages are laid cluster by cluster, as many on each as it holds whole
    stage blocks.  When :func:`validate` accepts ``cfg`` on ``topo`` there
    are exactly ``cfg.pipeline`` of them.
    """
    block, hosts = cfg.stage_block_size(), []
    for c in topo.clusters:
        hosts += [c.index] * (topo.gpus_per_node * c.node_count // block)
    return tuple(hosts)


def validate(cfg: ParallelConfig, topo: ClusterTopology) -> list[Diagnostic]:
    """Feasibility diagnostics; empty means the channel selector can run.

    Checks, in order: the degree product matches N, the tensor degree fits in
    (and divides) a node, and every cluster holds a whole number of pipeline
    stage blocks so data groups never cross a cluster boundary.  Never
    raises.
    """
    diags: list[Diagnostic] = []
    n = topo.total_devices
    if cfg.world_size != n:
        diags.append(
            Diagnostic(
                "DEGREE_PRODUCT",
                f"tensor*pipeline*data = {cfg.world_size}, device count = {n}",
            )
        )
    g = topo.gpus_per_node
    if cfg.tensor > g:
        diags.append(
            Diagnostic(
                "TP_DEGREE_EXCEEDS_NODE",
                f"tensor degree {cfg.tensor} exceeds gpus_per_node {g}",
            )
        )
    elif g % cfg.tensor != 0:
        diags.append(
            Diagnostic(
                "TP_SPLITS_NODE",
                f"tensor degree {cfg.tensor} does not divide gpus_per_node {g}",
            )
        )
    block = cfg.stage_block_size()
    for cluster in topo.clusters:
        size = g * cluster.node_count
        if size % block != 0:
            diags.append(
                Diagnostic(
                    "STAGE_STRADDLES_CLUSTER",
                    f"stage block ({block} ranks) does not divide cluster "
                    f"{cluster.index} size ({size} devices)",
                )
            )
    return diags

