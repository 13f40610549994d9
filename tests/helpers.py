"""Shared topology/scenario builders for the test suite."""

from __future__ import annotations

import holmes_planner as hp

IB = hp.NicKind.INFINIBAND
ROCE = hp.NicKind.ROCE
ETH = hp.NicKind.ETHERNET


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
