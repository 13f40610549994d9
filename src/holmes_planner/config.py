"""Scenario documents: loading, field-by-field checking, and fingerprinting.

A scenario file declares the topology, model, parallel degrees, partition
strategy, and cost-model knobs in one JSON object.  :func:`parse_scenario`
checks each field where it reads it: counts are integers >= 1 (``true`` and
``2.0`` are not), every other number is finite and inside its bound, each
per-cluster list has one entry per cluster, pipeline stages times
micro-batches per replica is at most :data:`MAX_PIPELINE_MICRO_BATCHES`,
and a key that is not read is rejected, so that a scenario's content hash
identifies exactly what was simulated.  A failure raises
:class:`ConfigError` naming where it sits: a missing or unknown key names
the object that holds it (``<root>``, ``topology.clusters.3``), a bad value
names its field (``model.layers``), and a bad list item adds its 0-based
index (``cost.cluster_speeds_tflops.1``).
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import NamedTuple

from .errors import ConfigError
from .groups import ParallelConfig
from .partition import (
    DEFAULT_BYTES_PER_PARAM,
    DEFAULT_SEQ_LEN,
    DEFAULT_VOCAB,
    ModelSpec,
    PartitionStrategy,
)
from .simulator import (
    DEFAULT_BACKWARD_FORWARD_RATIO,
    DEFAULT_COMPUTE_EFFICIENCY,
    CostModel,
)
from .topology import (
    DEFAULT_DEVICE_MEM_GB,
    DEFAULT_DEVICE_TFLOPS_PEAK,
    DEFAULT_INTRA_NODE_LATENCY_S,
    Cluster,
    ClusterTopology,
    NicKind,
    NicSpec,
)

_REQUIRED = object()

# The most p * micro-batches a scenario may ask for: the 1F1B simulation runs
# two operations per pair, and the 8192-GPU scenarios ask for 16,384.
MAX_PIPELINE_MICRO_BATCHES = 2**20


def _invalid(path: str, problem: str) -> ConfigError:
    return ConfigError(f"invalid scenario at {path or '<root>'}: {problem}")


def _show(value) -> str:
    if isinstance(value, dict):
        return "an object"
    if isinstance(value, list):
        return "a list"
    return json.dumps(value)


class _Fields:
    """One JSON object of a scenario, checked field by field as it is read.

    ``path`` is where the object sits, "" for the document itself; call
    :meth:`close` after the last read to reject the keys nobody read.
    """

    def __init__(self, doc, path: str = ""):
        if not isinstance(doc, dict):
            raise _invalid(path, f"expected an object, got {_show(doc)}")
        self.doc = doc
        self.path = path
        self._read: set = set()

    def _at(self, key) -> str:
        return f"{self.path}.{key}" if self.path else str(key)

    def _get(self, key, default, ok=None, expected=""):
        self._read.add(key)
        if key not in self.doc:
            if default is _REQUIRED:
                raise _invalid(self.path, f"missing required key {key!r}")
            return default
        value = self.doc[key]
        if ok is not None and not ok(value):
            raise _invalid(self._at(key), f"expected {expected}, got {_show(value)}")
        return value

    def integer(self, key, default=_REQUIRED) -> int:
        """An integer >= 1; ``true`` and ``2.0`` are not integers."""

        def ok(v):
            return isinstance(v, int) and not isinstance(v, bool) and v >= 1

        return self._get(key, default, ok, "an integer >= 1")

    def number(self, key, default=_REQUIRED, zero_ok=False, at_most=math.inf):
        """A finite number > 0 (>= 0 with ``zero_ok``) and <= ``at_most``."""

        def ok(v):
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                return False
            # NaN fails every comparison; the last one also rejects Infinity.
            return (v >= 0 if zero_ok else v > 0) and v <= at_most and v < math.inf

        expected = f"a finite number {'>=' if zero_ok else '>'} 0"
        if at_most < math.inf:
            expected += f" and <= {at_most:g}"
        return self._get(key, default, ok, expected)

    def flag(self, key, default) -> bool:
        return self._get(key, default, lambda v: isinstance(v, bool), "true or false")

    def string(self, key, default) -> str:
        return self._get(key, default, lambda v: isinstance(v, str), "a string")

    def choice(self, key, enum, default=_REQUIRED):
        """One of the values of a string ``enum``, returned as its member."""
        values = [member.value for member in enum]
        expected = "one of " + ", ".join(json.dumps(v) for v in values)
        value = self._get(
            key, default, lambda v: isinstance(v, str) and v in values, expected
        )
        return enum(value)

    def obj(self, key, default=_REQUIRED) -> _Fields:
        return _Fields(self._get(key, default), self._at(key))

    def _items(self, key, default) -> _Fields | None:
        # A list is read as an object keyed by index, so its items get the
        # same checks and paths as fields.
        items = self._get(key, default, lambda v: isinstance(v, list), "a list")
        return None if items is None else _Fields(dict(enumerate(items)), self._at(key))

    def objects(self, key) -> list[_Fields]:
        """A required, non-empty list of objects."""
        items = self._items(key, _REQUIRED)
        if not items.doc:
            raise _invalid(items.path, "expected at least one entry, got none")
        return [items.obj(i) for i in items.doc]

    def numbers(self, key, counts: tuple[int, ...]) -> tuple[float, ...] | None:
        """An optional list of finite numbers > 0 with one of ``counts`` entries."""
        items = self._items(key, None)
        if items is None:
            return None
        values = tuple(items.number(i) for i in items.doc)
        if len(values) not in counts:
            expected = " or ".join(str(n) for n in counts)
            raise _invalid(
                items.path, f"expected {expected} entries, got {len(values)}"
            )
        return values

    def close(self) -> None:
        unknown = [key for key in self.doc if key not in self._read]
        if unknown:
            raise _invalid(self.path, "unknown key " + ", ".join(map(repr, unknown)))


class PartitionSettings(NamedTuple):
    strategy: PartitionStrategy = PartitionStrategy.UNIFORM
    alpha: float = 1.0
    cluster_alphas: tuple[float, ...] | None = None
    cluster_mem_budget_gb: tuple[float, ...] | None = None


class ScenarioConfig(NamedTuple):
    """A fully parsed scenario plus provenance for reproducible reports."""

    topology: ClusterTopology
    model: ModelSpec
    parallel: ParallelConfig
    partition: PartitionSettings
    cost: CostModel
    fingerprint: str
    name: str = "scenario"
    defaults_applied: tuple[str, ...] = ()
    notes: str | None = None


def _nic(fields: _Fields, kind: NicKind | None = None) -> NicSpec:
    nic = NicSpec(
        kind=kind if kind is not None else fields.choice("kind", NicKind),
        bandwidth_gbps=fields.number("bandwidth_gbps"),
        latency_s=fields.number("latency_s", None, zero_ok=True),
    )
    fields.close()
    return nic


def parse_scenario(doc: dict, raw: bytes, name: str = "scenario") -> ScenarioConfig:
    """Check a scenario document field by field and build the objects."""
    root = _Fields(doc)
    topo_doc = root.obj("topology")
    ethernet = _nic(topo_doc.obj("ethernet"), kind=NicKind.ETHERNET)
    clusters = []
    for i, cdoc in enumerate(topo_doc.objects("clusters"), start=1):
        clusters.append(
            Cluster(
                index=i,
                node_count=cdoc.integer("nodes"),
                rdma_nic=_nic(cdoc.obj("nic")) if "nic" in cdoc.doc else ethernet,
                device_tflops_peak=cdoc.number(
                    "device_tflops_peak", DEFAULT_DEVICE_TFLOPS_PEAK
                ),
                device_mem_gb=cdoc.number("device_mem_gb", DEFAULT_DEVICE_MEM_GB),
            )
        )
        cdoc.close()
    topology = ClusterTopology(
        clusters=tuple(clusters),
        gpus_per_node=topo_doc.integer("gpus_per_node"),
        ethernet=ethernet,
        intra_node_bandwidth_gbps=topo_doc.number("intra_node_bandwidth_gbps"),
        intra_node_latency_s=topo_doc.number(
            "intra_node_latency_s", DEFAULT_INTRA_NODE_LATENCY_S, zero_ok=True
        ),
        inter_cluster_rdma=topo_doc.flag("inter_cluster_rdma", False),
    )
    topo_doc.close()

    model_doc = root.obj("model")
    model = ModelSpec(
        layers=model_doc.integer("layers"),
        hidden=model_doc.integer("hidden"),
        heads=model_doc.integer("heads"),
        global_batch=model_doc.integer("global_batch"),
        micro_batch=model_doc.integer("micro_batch"),
        seq_len=model_doc.integer("seq_len", DEFAULT_SEQ_LEN),
        vocab=model_doc.integer("vocab", DEFAULT_VOCAB),
        bytes_per_param=model_doc.integer("bytes_per_param", DEFAULT_BYTES_PER_PARAM),
        per_layer_mem_gb=model_doc.number("per_layer_mem_gb", None),
    )
    defaults = tuple(
        f"model.{key}" for key in ("seq_len", "vocab") if key not in model_doc.doc
    )
    model_doc.close()

    par_doc = root.obj("parallel")
    parallel = ParallelConfig(
        tensor=par_doc.integer("t"),
        pipeline=par_doc.integer("p"),
        data=par_doc.integer("d"),
    )
    par_doc.close()
    micro_batches = model.global_batch // (model.micro_batch * parallel.data)
    if parallel.pipeline * micro_batches > MAX_PIPELINE_MICRO_BATCHES:
        raise _invalid(
            "model.global_batch",
            f"expected p * global_batch // (micro_batch * d) <= "
            f"{MAX_PIPELINE_MICRO_BATCHES}, got {parallel.pipeline} * "
            f"{micro_batches}",
        )

    m = len(clusters)
    part_doc = root.obj("partition", {})
    part = PartitionSettings(
        strategy=part_doc.choice(
            "strategy", PartitionStrategy, PartitionSettings._field_defaults["strategy"]
        ),
        alpha=part_doc.number("alpha", PartitionSettings._field_defaults["alpha"]),
        # The last cluster takes the remainder, so its alpha may be left out.
        cluster_alphas=part_doc.numbers("cluster_alphas", (m, m - 1)),
        cluster_mem_budget_gb=part_doc.numbers("cluster_mem_budget_gb", (m,)),
    )
    part_doc.close()

    cost_doc = root.obj("cost", {})
    cost = CostModel(
        eta=cost_doc.number("eta", DEFAULT_COMPUTE_EFFICIENCY, at_most=1),
        backward_forward_ratio=cost_doc.number(
            "backward_forward_ratio", DEFAULT_BACKWARD_FORWARD_RATIO
        ),
        cluster_speeds_tflops=cost_doc.numbers("cluster_speeds_tflops", (m,)),
    )
    cost_doc.close()

    notes = root.string("notes", None)
    root.close()
    return ScenarioConfig(
        topology=topology,
        model=model,
        parallel=parallel,
        partition=part,
        cost=cost,
        fingerprint=hashlib.sha256(raw).hexdigest(),
        name=name,
        defaults_applied=defaults,
        notes=notes,
    )


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Read, parse, and validate a scenario file."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        doc = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: {exc.msg} at line {exc.lineno} column {exc.colno}",
            line=exc.lineno,
            column=exc.colno,
        ) from exc
    return parse_scenario(doc, raw, name=path.stem)
