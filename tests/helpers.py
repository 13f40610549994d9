"""Shared topology/scenario builders for the test suite."""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

from hypothesis import strategies as st

import holmes_planner as hp
from holmes_planner import nic_select

IB = hp.NicKind.INFINIBAND
ROCE = hp.NicKind.ROCE
ETH = hp.NicKind.ETHERNET
BENCH = Path(__file__).resolve().parent.parent / "bench"


def bench_module(name: str) -> types.ModuleType:
    """``bench/<name>.py``, compiled in memory so that no bytecode cache is
    written under ``bench/``.  It is registered as ``bench_<name>``, which
    its dataclasses look up while the module runs."""
    path = BENCH / f"{name}.py"
    module = sys.modules[f"bench_{name}"] = types.ModuleType(f"bench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_bytes(), str(path), "exec"), module.__dict__)
    return module


def make_topo(
    cluster_specs,
    gpus_per_node,
    eth_bw=25.0,
    intra_bw=2400.0,
    inter_rdma=False,
    **kwargs,
):
    """cluster_specs: list of (kind, bandwidth_gbps, node_count) triples."""
    clusters = tuple(
        hp.Cluster(
            index=i,
            node_count=nodes,
            rdma_nic=hp.NicSpec(kind, bw),
            **kwargs.get("cluster_kwargs", {}),
        )
        for i, (kind, bw, nodes) in enumerate(cluster_specs, start=1)
    )
    return hp.ClusterTopology(
        clusters=clusters,
        gpus_per_node=gpus_per_node,
        ethernet=hp.NicSpec(ETH, eth_bw),
        intra_node_bandwidth_gbps=intra_bw,
        inter_cluster_rdma=inter_rdma,
    )


def mixed_topo_16():
    """Two 2-node clusters of 4 GPUs: cluster 1 IB 200, cluster 2 RoCE 200,
    joined only by 25 Gbps Ethernet."""
    return make_topo([(IB, 200.0, 2), (ROCE, 200.0, 2)], gpus_per_node=4)


def single_topo(n_nodes=2, gpus_per_node=4, kind=IB, bw=200.0):
    return make_topo([(kind, bw, n_nodes)], gpus_per_node=gpus_per_node)


def owners_by_running_sizes(topo):
    """Rank -> cluster index, walking the clusters' running device counts."""
    owners, rank = {}, 0
    for cluster in topo.clusters:
        for _ in range(topo.gpus_per_node * cluster.node_count):
            rank += 1
            owners[rank] = cluster.index
    return owners


def per_member_channels(plan, topo, naive=False):
    """Channels worked out row by row: each row's cluster set from the owner
    of every member (:func:`owners_by_running_sizes`), then the channel
    rule."""
    owners = owners_by_running_sizes(topo)
    demoted = naive and len(topo.nic_kinds()) > 1
    out = [
        hp.ChannelAssignment(
            hp.GroupKind.TP,
            row,
            hp.Channel.INTRA_NODE,
            topo.intra_node_bandwidth_gbps,
            topo.intra_node_latency_s,
        )
        for row in range(1, len(plan.tp.rows) + 1)
    ]
    for matrix in (plan.pp, plan.dp):
        for row, members in enumerate(matrix.rows, start=1):
            if demoted:
                eth = topo.ethernet
                record = (hp.Channel.ETHERNET, eth.bandwidth_gbps, eth.latency_s, None)
            else:
                clusters = tuple(sorted({owners[r] for r in members}))
                record = nic_select._inter_node_assignment(clusters, topo)
            out.append(hp.ChannelAssignment(matrix.kind, row, *record))
    return out


def small_model(**overrides):
    base = dict(
        layers=8, hidden=512, heads=8, global_batch=32, micro_batch=2
    )
    base.update(overrides)
    return hp.ModelSpec(**base)


def reference_model(**overrides):
    """30-layer, hidden-3072 GPT shape with a 768 global batch."""
    base = dict(
        layers=30, hidden=3072, heads=32, global_batch=768, micro_batch=4
    )
    base.update(overrides)
    return hp.ModelSpec(**base)


def uniform_plan(layers, stages, cluster_layers):
    return hp.PartitionPlan(
        hp.PartitionStrategy.UNIFORM,
        tuple(hp.uniform_partition(layers, stages)),
        tuple(cluster_layers),
    )


def factorizations(n):
    """All (t, p, d) triples with t*p*d == n."""
    out = []
    for t in range(1, n + 1):
        if n % t:
            continue
        rest = n // t
        for p in range(1, rest + 1):
            if rest % p:
                continue
            out.append((t, p, rest // p))
    return out


def full_scenario():
    """A valid scenario document that sets every optional field: two 2-node
    clusters of 4 GPUs (IB, RoCE), t=2 p=4 d=2, self-adapting partition."""
    return {
        "topology": {
            "clusters": [
                {
                    "nodes": 2,
                    "nic": {"kind": "infiniband", "bandwidth_gbps": 200, "latency_s": 5e-6},
                    "device_tflops_peak": 312.0,
                    "device_mem_gb": 80.0,
                },
                {"nodes": 2, "nic": {"kind": "roce", "bandwidth_gbps": 200}},
            ],
            "gpus_per_node": 4,
            "ethernet": {"bandwidth_gbps": 25, "latency_s": 3e-5},
            "intra_node_bandwidth_gbps": 2400,
            "intra_node_latency_s": 1e-6,
            "inter_cluster_rdma": False,
        },
        "model": {
            "layers": 8,
            "hidden": 1024,
            "heads": 16,
            "seq_len": 2048,
            "vocab": 51200,
            "global_batch": 64,
            "micro_batch": 2,
            "bytes_per_param": 2,
            "per_layer_mem_gb": 0.5,
        },
        "parallel": {"t": 2, "p": 4, "d": 2},
        "partition": {
            "strategy": "self_adapting",
            "alpha": 1.0,
            "cluster_alphas": [1.0],
            "cluster_mem_budget_gb": [160.0, 160.0],
        },
        "cost": {
            "eta": 0.63,
            "backward_forward_ratio": 2.0,
            "cluster_speeds_tflops": [197.0, 160.0],
        },
        "notes": "every optional field is set",
    }


def valid_degrees(gpus_per_node, cluster_nodes):
    """Every (t, p, d) that ``groups.validate`` accepts on clusters of
    ``cluster_nodes`` nodes: t divides a node and every cluster holds a
    whole number of t*d stage blocks."""
    sizes = [gpus_per_node * nodes for nodes in cluster_nodes]
    return [
        (t, p, d)
        for t, p, d in factorizations(sum(sizes))
        if gpus_per_node % t == 0 and all(size % (t * d) == 0 for size in sizes)
    ]


@st.composite
def scenario_docs(draw, max_gpus=64):
    """Small scenario documents that pass every diagnostic.

    1-4 clusters, each with an InfiniBand, RoCE or no RDMA NIC, at most
    ``max_gpus`` GPUs, ``inter_cluster_rdma`` either way, any valid
    (t, p, d), at least p layers, and either partition strategy.  Device
    peaks, NIC rates and per-cluster speed overrides vary, so stages and
    channels differ.  A self-adapting split can still find a cluster short
    of layers; the planner reports that as an error.
    """
    gpus_per_node = draw(st.sampled_from((1, 2, 4, 8)))
    budget = max_gpus // gpus_per_node
    n_clusters = draw(st.integers(1, min(4, budget)))
    nodes = []
    for i in range(n_clusters):
        left = budget - sum(nodes) - (n_clusters - 1 - i)
        nodes.append(draw(st.integers(1, min(left, 8))))
    t, p, d = draw(st.sampled_from(valid_degrees(gpus_per_node, nodes)))
    clusters = []
    for n in nodes:
        cluster = {
            "nodes": n,
            "device_tflops_peak": draw(st.sampled_from((125.0, 312.0, 989.0))),
        }
        kind = draw(st.sampled_from(("infiniband", "roce", None)))
        if kind is not None:
            cluster["nic"] = {
                "kind": kind,
                "bandwidth_gbps": draw(st.sampled_from((100, 200, 400))),
            }
        clusters.append(cluster)
    micro_batch = draw(st.sampled_from((1, 2)))
    doc = {
        "topology": {
            "clusters": clusters,
            "gpus_per_node": gpus_per_node,
            "ethernet": {"bandwidth_gbps": draw(st.sampled_from((10, 25, 100)))},
            "intra_node_bandwidth_gbps": 2400,
            "inter_cluster_rdma": draw(st.booleans()),
        },
        "model": {
            "layers": draw(st.integers(p, 3 * p + 4)),
            "hidden": draw(st.sampled_from((256, 1024))),
            "heads": 8,
            "seq_len": 512,
            "global_batch": d * micro_batch * draw(st.integers(1, 6)),
            "micro_batch": micro_batch,
        },
        "parallel": {"t": t, "p": p, "d": d},
        "partition": {"strategy": draw(st.sampled_from(("uniform", "self_adapting")))},
        "cost": {"eta": draw(st.sampled_from((0.5, 0.63, 1.0)))},
    }
    if draw(st.booleans()):
        doc["cost"]["cluster_speeds_tflops"] = draw(
            st.lists(
                st.sampled_from((90.0, 160.0, 197.0)),
                min_size=n_clusters,
                max_size=n_clusters,
            )
        )
    return doc


def scenarios(max_gpus=64):
    """:func:`scenario_docs`, parsed into :class:`ScenarioConfig` values."""
    return scenario_docs(max_gpus).map(
        lambda doc: hp.parse_scenario(doc, json.dumps(doc).encode())
    )
