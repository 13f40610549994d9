"""Seeded scenario documents for the ``sweep_mixed`` workload.

Valid documents are feasible by construction: every cluster holds a whole
number of pipeline stage blocks, the layer count leaves every cluster at
least as many layers as it has stages under any cluster order, and the
per-layer memory stays far inside the device budget.  Nothing here runs the
planner, so the program under test sees only the generated bytes.

Malformed documents are valid documents with exactly one defect.  Each
carries the path that ``ConfigError`` must name when the document is
rejected.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

MALFORMED_EVERY = 10  # one document in ten is malformed
DEFECTS = ("unknown_key", "wrong_type", "missing_key", "out_of_range", "non_finite")

_NICS = {
    "infiniband": (100, 200, 400),
    "roce": (100, 200),
}
_ORDER = {"infiniband": 0, "roce": 1, "ethernet": 2}


def _kind(cluster: dict) -> str:
    return cluster["nic"]["kind"] if "nic" in cluster else "ethernet"


@dataclass(frozen=True)
class Item:
    """One generated document: the bytes the program sees and what to expect."""

    index: int
    raw: bytes
    defect: str | None = None  # one of DEFECTS, None for a valid document
    path: str | None = None  # path the ConfigError must name


# The properties that set an op's cost.  Each pool holds the same multiset
# of them and only their pairing depends on the seed, so pools of different
# seeds cost about the same to run.
_BALANCED = {
    "n_clusters": (2, 3, 4, 5, 6),
    "gpus_per_node": (4, 8),
    "micro_batches": tuple(range(4, 25, 2)),
    "hidden": (1024, 2048, 3072, 4096),
    "strategy": ("uniform", "self_adapting"),
    "size_rank": (0, 1, 2, 3),  # picks the stage block among the sizes that fit
    "tensor_rank": (0, 1, 2, 3),  # picks t among the divisors of gpus_per_node
}


def _balanced(values: tuple, count: int, rng: random.Random) -> list:
    out = [values[i % len(values)] for i in range(count)]
    rng.shuffle(out)
    return out


def _valid(rng: random.Random, shape: dict) -> dict:
    n_clusters = shape["n_clusters"]
    gpus_per_node = shape["gpus_per_node"]
    stages = [rng.choice((1, 2)) for _ in range(n_clusters)]
    p = sum(stages)
    # Stage block = t*d ranks, a whole number of nodes; N = p * block in 16..512.
    block_nodes = [b for b in (1, 2, 4, 8) if 16 <= p * b * gpus_per_node <= 512]
    block = gpus_per_node * block_nodes[shape["size_rank"] * len(block_nodes) // 4]
    tensor = [v for v in (1, 2, 4, 8) if gpus_per_node % v == 0]
    t = tensor[shape["tensor_rank"] * len(tensor) // 4]
    d = block // t

    clusters = []
    explicit_speeds = rng.random() < 0.5
    for k in stages:
        cluster = {"nodes": k * block // gpus_per_node}
        kind = rng.choice(("infiniband", "roce", "ethernet"))
        if kind != "ethernet":
            cluster["nic"] = {"kind": kind, "bandwidth_gbps": rng.choice(_NICS[kind])}
            if rng.random() < 0.3:
                cluster["nic"]["latency_s"] = rng.choice((2e-6, 5e-6, 1e-5))
        if not explicit_speeds and rng.random() < 0.5:
            cluster["device_tflops_peak"] = rng.choice((200.0, 250.0, 312.0))
        clusters.append(cluster)

    topology = {
        "clusters": clusters,
        "gpus_per_node": gpus_per_node,
        "ethernet": {"bandwidth_gbps": rng.choice((10, 25, 100))},
        "intra_node_bandwidth_gbps": rng.choice((600, 2400)),
        "inter_cluster_rdma": rng.random() < 0.5,
    }
    # Speeds differ by at most 2x, so with alpha <= 1 and >= 7 layers per
    # cluster every cluster's proportional share covers its (<= 2) stages.
    layers = rng.randint(8 * n_clusters, 12 * n_clusters)
    hidden = shape["hidden"]
    micro_batch = rng.choice((1, 2))
    micro_batches = shape["micro_batches"]
    model = {
        "layers": layers,
        "hidden": hidden,
        "heads": hidden // 128,
        "global_batch": micro_batches * micro_batch * d,
        "micro_batch": micro_batch,
    }
    if rng.random() < 0.5:
        model["seq_len"] = rng.choice((1024, 2048))
        model["vocab"] = rng.choice((32000, 51200))

    doc = {
        "topology": topology,
        "model": model,
        "parallel": {"t": t, "p": p, "d": d},
    }
    strategy = shape["strategy"]
    partition = {"strategy": strategy}
    if strategy == "self_adapting":
        # Per-cluster alphas apply in the planner's IB-first, then RoCE,
        # then Ethernet order, and in listed order once compare's
        # single-NIC variants make every cluster the same kind.
        first = min(range(n_clusters), key=lambda i: (_ORDER[_kind(clusters[i])], i))
        if rng.random() < 0.25 and stages[first] == stages[0] == 1:
            # A tiny alpha on a one-stage cluster exercises the clamp path:
            # its share floors to 0 and is clamped to 1 layer, which fits.
            partition["cluster_alphas"] = [0.01] + [1.0] * (n_clusters - 2)
        else:
            partition["alpha"] = rng.choice((0.9, 0.95, 1.0))
    doc["partition"] = partition
    cost = {}
    if explicit_speeds:
        cost["cluster_speeds_tflops"] = [
            float(rng.randint(110, 200)) for _ in range(n_clusters)
        ]
    elif rng.random() < 0.5:
        cost["eta"] = rng.choice((0.5, 0.63, 0.8))
    if cost:
        doc["cost"] = cost
    return doc


def _break(doc: dict, defect: str, rng: random.Random) -> str:
    """Apply one defect in place and return the path the error must name."""
    clusters = doc["topology"]["clusters"]
    c = rng.randrange(len(clusters))
    if defect == "unknown_key":
        where = rng.choice(("<root>", "topology", "model", "parallel", "cluster"))
        target = {
            "<root>": doc,
            "topology": doc["topology"],
            "model": doc["model"],
            "parallel": doc["parallel"],
            "cluster": clusters[c],
        }[where]
        target[f"extra_{rng.randrange(1000)}"] = 1
        return f"topology.clusters.{c}" if where == "cluster" else where
    if defect == "wrong_type":
        field = rng.choice(("model.layers", "parallel.p", "gpus_per_node", "nodes"))
        if field == "gpus_per_node":
            doc["topology"]["gpus_per_node"] = str(doc["topology"]["gpus_per_node"])
            return "topology.gpus_per_node"
        if field == "nodes":
            clusters[c]["nodes"] = [clusters[c]["nodes"]]
            return f"topology.clusters.{c}.nodes"
        section, key = field.split(".")
        doc[section][key] = str(doc[section][key])
        return field
    if defect == "missing_key":
        where = rng.choice(("model", "parallel", "topology", "cluster", "<root>"))
        if where == "model":
            del doc["model"][rng.choice(("layers", "hidden", "micro_batch"))]
        elif where == "parallel":
            del doc["parallel"][rng.choice(("t", "p", "d"))]
        elif where == "topology":
            del doc["topology"][rng.choice(("ethernet", "gpus_per_node"))]
        elif where == "cluster":
            del clusters[c]["nodes"]
            return f"topology.clusters.{c}"
        else:
            del doc["model"]
        return where
    if defect == "out_of_range":
        field = rng.choice(("parallel.p", "model.layers", "cost.eta", "ethernet"))
        if field == "cost.eta":
            doc.setdefault("cost", {}).pop("cluster_speeds_tflops", None)
            doc["cost"]["eta"] = 1.5
            return field
        if field == "ethernet":
            doc["topology"]["ethernet"]["bandwidth_gbps"] = -rng.choice((1, 25))
            return "topology.ethernet.bandwidth_gbps"
        section, key = field.split(".")
        doc[section][key] = 0
        return field
    # non_finite: json.dumps writes these as the NaN / Infinity literals.
    value = rng.choice((float("nan"), float("inf")))
    field = rng.choice(("ethernet", "peak", "speeds"))
    if field == "ethernet":
        doc["topology"]["ethernet"]["bandwidth_gbps"] = value
        return "topology.ethernet.bandwidth_gbps"
    if field == "speeds" and "cluster_speeds_tflops" in doc.get("cost", {}):
        doc["cost"]["cluster_speeds_tflops"][c] = value
        return f"cost.cluster_speeds_tflops.{c}"
    clusters[c]["device_tflops_peak"] = value
    return f"topology.clusters.{c}.device_tflops_peak"


def generate(seed: int, count: int) -> list[Item]:
    """``count`` documents from ``seed``; every tenth one is malformed.

    The defects cycle through :data:`DEFECTS` from a seeded start, so each
    kind is an equal share of the malformed documents.
    """
    rng = random.Random(seed)
    start = rng.randrange(len(DEFECTS))
    shapes = {key: _balanced(values, count, rng) for key, values in _BALANCED.items()}
    items = []
    for i in range(count):
        doc = _valid(rng, {key: column[i] for key, column in shapes.items()})
        defect = path = None
        if i % MALFORMED_EVERY == MALFORMED_EVERY - 1:
            defect = DEFECTS[(start + i // MALFORMED_EVERY) % len(DEFECTS)]
            path = _break(doc, defect, rng)
        raw = json.dumps(doc, indent=2).encode("utf-8")
        items.append(Item(i, raw, defect, path))
    return items


def large_docs() -> list[tuple[str, bytes]]:
    """The fixed 8192-GPU scenarios: t=8, p=16, d=64, m=1024."""
    base_model = {
        "layers": 64,
        "hidden": 4096,
        "heads": 32,
        "global_batch": 1024 * 64,
        "micro_batch": 1,
    }
    parallel = {"t": 8, "p": 16, "d": 64}

    def cluster(stages, kind):
        return {"nodes": stages * 64, "nic": {"kind": kind, "bandwidth_gbps": 200}}

    def topology(clusters, rdma):
        return {
            "clusters": clusters,
            "gpus_per_node": 8,
            "ethernet": {"bandwidth_gbps": 25},
            "intra_node_bandwidth_gbps": 2400,
            "inter_cluster_rdma": rdma,
        }

    docs = {
        "ib_roce_ib_self_adapting": {
            "topology": topology(
                [cluster(6, "infiniband"), cluster(4, "roce"), cluster(6, "infiniband")],
                True,
            ),
            "model": base_model,
            "parallel": parallel,
            "partition": {"strategy": "self_adapting", "alpha": 1.0},
            "cost": {"cluster_speeds_tflops": [197.0, 160.0, 190.0]},
        },
        "ib_uniform": {
            "topology": topology([cluster(16, "infiniband")], False),
            "model": base_model,
            "parallel": parallel,
        },
        "roce_ethernet_uniform": {
            "topology": topology(
                [cluster(8, "roce"), {"nodes": 8 * 64}], False
            ),
            "model": base_model,
            "parallel": parallel,
        },
    }
    return [
        (name, json.dumps(doc, indent=2).encode("utf-8")) for name, doc in docs.items()
    ]
