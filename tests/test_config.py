import json

import pytest

import holmes_planner as hp
from helpers import full_scenario
from holmes_planner import cli

DELETE = object()
NAN, INF = float("nan"), float("inf")

C0 = ("topology", "clusters", 0)
C1 = ("topology", "clusters", 1)
NIC = C0 + ("nic",)
ETH = ("topology", "ethernet")

# One defect each: (where, new value or DELETE, path the error must name).
# A missing or unknown key names the object holding it; a bad value names
# its field; a bad list item adds its index.
CASES = {
    "root-unknown": (("extra",), 1, "<root>"),
    "root-missing": (("model",), DELETE, "<root>"),
    "root-not-object": ((), [], "<root>"),
    "root-wrong-type": (("topology",), [], "topology"),
    "root-notes-null": (("notes",), None, "notes"),
    "root-notes-number": (("notes",), 5, "notes"),
    "root-partition-null": (("partition",), None, "partition"),
    "root-cost-wrong-type": (("cost",), [], "cost"),
    "topology-unknown": (("topology", "extra"), 1, "topology"),
    "topology-missing": (("topology", "gpus_per_node"), DELETE, "topology"),
    "topology-wrong-type": (("topology", "gpus_per_node"), "4", "topology.gpus_per_node"),
    "topology-out-of-range": (("topology", "gpus_per_node"), 0, "topology.gpus_per_node"),
    "topology-integral-float": (("topology", "gpus_per_node"), 4.0, "topology.gpus_per_node"),
    "topology-bool-int": (("topology", "gpus_per_node"), True, "topology.gpus_per_node"),
    "topology-nan": (
        ("topology", "intra_node_bandwidth_gbps"),
        NAN,
        "topology.intra_node_bandwidth_gbps",
    ),
    "topology-latency-negative": (
        ("topology", "intra_node_latency_s"),
        -1e-6,
        "topology.intra_node_latency_s",
    ),
    "topology-flag-int": (("topology", "inter_cluster_rdma"), 1, "topology.inter_cluster_rdma"),
    "topology-clusters-empty": (("topology", "clusters"), [], "topology.clusters"),
    "topology-clusters-object": (("topology", "clusters"), {}, "topology.clusters"),
    "topology-bad-item": (C1, 5, "topology.clusters.1"),
    "cluster-unknown": (C1 + ("extra",), 1, "topology.clusters.1"),
    "cluster-missing": (C1 + ("nodes",), DELETE, "topology.clusters.1"),
    "cluster-wrong-type": (C1 + ("nodes",), [2], "topology.clusters.1.nodes"),
    "cluster-out-of-range": (C1 + ("nodes",), 0, "topology.clusters.1.nodes"),
    "cluster-integral-float": (C1 + ("nodes",), 2.0, "topology.clusters.1.nodes"),
    "cluster-bool-int": (C1 + ("nodes",), True, "topology.clusters.1.nodes"),
    "cluster-infinity": (C0 + ("device_tflops_peak",), INF, "topology.clusters.0.device_tflops_peak"),
    "cluster-minus-infinity": (C0 + ("device_mem_gb",), -INF, "topology.clusters.0.device_mem_gb"),
    "cluster-zero-memory": (C0 + ("device_mem_gb",), 0, "topology.clusters.0.device_mem_gb"),
    "cluster-nic-null": (C1 + ("nic",), None, "topology.clusters.1.nic"),
    "nic-unknown": (NIC + ("extra",), 1, "topology.clusters.0.nic"),
    "nic-missing": (NIC + ("kind",), DELETE, "topology.clusters.0.nic"),
    "nic-bad-choice": (NIC + ("kind",), "myrinet", "topology.clusters.0.nic.kind"),
    "nic-wrong-type": (NIC + ("kind",), 5, "topology.clusters.0.nic.kind"),
    "nic-nan": (NIC + ("bandwidth_gbps",), NAN, "topology.clusters.0.nic.bandwidth_gbps"),
    "nic-string-number": (NIC + ("bandwidth_gbps",), "200", "topology.clusters.0.nic.bandwidth_gbps"),
    "nic-out-of-range": (NIC + ("bandwidth_gbps",), 0, "topology.clusters.0.nic.bandwidth_gbps"),
    "nic-latency-infinity": (NIC + ("latency_s",), INF, "topology.clusters.0.nic.latency_s"),
    "nic-latency-negative": (NIC + ("latency_s",), -1e-6, "topology.clusters.0.nic.latency_s"),
    "ethernet-unknown": (ETH + ("kind",), "ethernet", "topology.ethernet"),
    "ethernet-missing": (ETH + ("bandwidth_gbps",), DELETE, "topology.ethernet"),
    "ethernet-nan": (ETH + ("bandwidth_gbps",), NAN, "topology.ethernet.bandwidth_gbps"),
    "ethernet-out-of-range": (ETH + ("bandwidth_gbps",), -25, "topology.ethernet.bandwidth_gbps"),
    "ethernet-wrong-type": (ETH + ("latency_s",), "x", "topology.ethernet.latency_s"),
    "model-unknown": (("model", "extra"), 1, "model"),
    "model-missing": (("model", "layers"), DELETE, "model"),
    "model-wrong-type": (("model", "layers"), "8", "model.layers"),
    "model-out-of-range": (("model", "layers"), 0, "model.layers"),
    "model-integral-float": (("model", "layers"), 2.0, "model.layers"),
    "model-bool-int": (("model", "heads"), True, "model.heads"),
    "model-large-integral-float": (("model", "seq_len"), 1e308, "model.seq_len"),
    "model-negative-default-field": (("model", "vocab"), -1, "model.vocab"),
    "model-nan": (("model", "per_layer_mem_gb"), NAN, "model.per_layer_mem_gb"),
    "model-zero-memory": (("model", "per_layer_mem_gb"), 0, "model.per_layer_mem_gb"),
    # p=4, micro_batch=2, d=2: 4 * 2**20 micro-batches, parsed and never simulated.
    "model-unbounded-work": (("model", "global_batch"), 2**23, "model.global_batch"),
    "parallel-unknown": (("parallel", "extra"), 1, "parallel"),
    "parallel-missing": (("parallel", "d"), DELETE, "parallel"),
    "parallel-wrong-type": (("parallel", "p"), "4", "parallel.p"),
    "parallel-out-of-range": (("parallel", "p"), 0, "parallel.p"),
    "parallel-integral-float": (("parallel", "t"), 2.0, "parallel.t"),
    "parallel-bool-int": (("parallel", "d"), True, "parallel.d"),
    "partition-unknown": (("partition", "extra"), 1, "partition"),
    "partition-bad-choice": (("partition", "strategy"), "fastest", "partition.strategy"),
    "partition-wrong-type": (("partition", "strategy"), 1, "partition.strategy"),
    "partition-out-of-range": (("partition", "alpha"), 0, "partition.alpha"),
    "partition-nan": (("partition", "alpha"), NAN, "partition.alpha"),
    "partition-list-wrong-type": (("partition", "cluster_alphas"), "x", "partition.cluster_alphas"),
    "partition-bad-item": (("partition", "cluster_alphas"), [0], "partition.cluster_alphas.0"),
    "partition-nan-item": (("partition", "cluster_alphas"), [NAN], "partition.cluster_alphas.0"),
    "partition-alphas-too-many": (
        ("partition", "cluster_alphas"),
        [1.0, 1.0, 1.0],
        "partition.cluster_alphas",
    ),
    "partition-budgets-one-short": (
        ("partition", "cluster_mem_budget_gb"),
        [160.0],
        "partition.cluster_mem_budget_gb",
    ),
    "partition-budget-item": (
        ("partition", "cluster_mem_budget_gb"),
        [160.0, -1],
        "partition.cluster_mem_budget_gb.1",
    ),
    "partition-budget-infinity": (
        ("partition", "cluster_mem_budget_gb"),
        [INF, 160.0],
        "partition.cluster_mem_budget_gb.0",
    ),
    "cost-unknown": (("cost", "extra"), 1, "cost"),
    "cost-out-of-range": (("cost", "eta"), 1.5, "cost.eta"),
    "cost-zero": (("cost", "eta"), 0, "cost.eta"),
    "cost-nan": (("cost", "eta"), NAN, "cost.eta"),
    "cost-bool-number": (("cost", "eta"), True, "cost.eta"),
    "cost-minus-infinity": (("cost", "backward_forward_ratio"), -INF, "cost.backward_forward_ratio"),
    "cost-list-wrong-type": (("cost", "cluster_speeds_tflops"), 5, "cost.cluster_speeds_tflops"),
    "cost-bad-item": (("cost", "cluster_speeds_tflops"), [197.0, "x"], "cost.cluster_speeds_tflops.1"),
    "cost-nan-item": (("cost", "cluster_speeds_tflops"), [197.0, NAN], "cost.cluster_speeds_tflops.1"),
    "cost-infinity-item": (("cost", "cluster_speeds_tflops"), [INF, 160.0], "cost.cluster_speeds_tflops.0"),
    "cost-speeds-one-short": (("cost", "cluster_speeds_tflops"), [197.0], "cost.cluster_speeds_tflops"),
}


def _mutated(where, value):
    if not where:
        return value
    doc = full_scenario()
    *parents, key = where
    target = doc
    for part in parents:
        target = target[part]
    if value is DELETE:
        del target[key]
    else:
        target[key] = value
    return doc


def test_full_scenario_parses():
    raw = json.dumps(full_scenario()).encode()
    scenario = hp.parse_scenario(json.loads(raw), raw)
    assert scenario.partition.cluster_mem_budget_gb == (160.0, 160.0)
    assert scenario.cost.cluster_speeds_tflops == (197.0, 160.0)
    assert scenario.defaults_applied == ()


@pytest.mark.parametrize("where, value, path", list(CASES.values()), ids=list(CASES))
def test_one_defect_is_rejected_at_its_path(where, value, path, tmp_path, capsys):
    raw = json.dumps(_mutated(where, value)).encode()  # NaN and Infinity as JSON literals
    with pytest.raises(hp.ConfigError) as caught:
        hp.parse_scenario(json.loads(raw), raw)
    assert f"invalid scenario at {path}:" in str(caught.value)

    config = tmp_path / "bad.json"
    config.write_bytes(raw)
    assert cli.main(["validate", "--config", str(config)]) == cli.EXIT_MALFORMED
    assert f" at {path}:" in capsys.readouterr().err


def test_last_alpha_may_be_left_out():
    doc = full_scenario()
    for alphas in ([1.0], [1.0, 1.0]):
        doc["partition"]["cluster_alphas"] = alphas
        raw = json.dumps(doc).encode()
        assert hp.parse_scenario(json.loads(raw), raw).partition.cluster_alphas == tuple(alphas)
