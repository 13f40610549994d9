"""The package's record types: every constructor check with its exception
type and full message, the defaults and normalisation they apply, and the
equality tests and callers rely on."""

import copy
import pickle

import pytest

import holmes_planner as hp
from helpers import ETH, IB, full_scenario, mixed_topo_16
from holmes_planner import simulator

_IB = hp.NicSpec(IB, 200.0)
_ETH = hp.NicSpec(ETH, 25.0)


def _topology(**overrides):
    fields = dict(
        clusters=(hp.Cluster(1, 1, _IB),),
        gpus_per_node=4,
        ethernet=_ETH,
        intra_node_bandwidth_gbps=2400.0,
    )
    fields.update(overrides)
    return hp.ClusterTopology(**fields)


def _model(**overrides):
    fields = dict(layers=8, hidden=512, heads=8, global_batch=32, micro_batch=2)
    fields.update(overrides)
    return hp.ModelSpec(**fields)


CHECKS = {
    "nic-bandwidth": (
        lambda: hp.NicSpec(IB, 0.0),
        hp.TopologyError,
        "nic bandwidth must be positive, got 0.0",
    ),
    "nic-latency": (
        lambda: hp.NicSpec(IB, 200.0, latency_s=-1.0),
        hp.TopologyError,
        "nic latency must be >= 0, got -1.0",
    ),
    "cluster-index": (
        lambda: hp.Cluster(0, 1, _IB),
        hp.TopologyError,
        "cluster index must be >= 1, got 0",
    ),
    "cluster-node-count": (
        lambda: hp.Cluster(2, 0, _IB),
        hp.TopologyError,
        "cluster 2: node_count must be >= 1, got 0",
    ),
    "cluster-tflops": (
        lambda: hp.Cluster(2, 1, _IB, device_tflops_peak=0.0),
        hp.TopologyError,
        "cluster 2: device_tflops_peak must be positive",
    ),
    "cluster-memory": (
        lambda: hp.Cluster(2, 1, _IB, device_mem_gb=-1.0),
        hp.TopologyError,
        "cluster 2: device_mem_gb must be positive",
    ),
    "topology-empty": (
        lambda: _topology(clusters=[]),
        hp.TopologyError,
        "topology needs at least one cluster",
    ),
    "topology-indices": (
        lambda: _topology(clusters=(hp.Cluster(1, 1, _IB), hp.Cluster(3, 1, _IB))),
        hp.TopologyError,
        "cluster indices must be contiguous from 1, position 2 has index 3",
    ),
    "topology-gpus-per-node": (
        lambda: _topology(gpus_per_node=0),
        hp.TopologyError,
        "gpus_per_node must be >= 1, got 0",
    ),
    "topology-ethernet-kind": (
        lambda: _topology(ethernet=_IB),
        hp.TopologyError,
        "the ethernet fabric must have kind 'ethernet'",
    ),
    "topology-intra-bandwidth": (
        lambda: _topology(intra_node_bandwidth_gbps=0.0),
        hp.TopologyError,
        "intra_node_bandwidth_gbps must be positive",
    ),
    "topology-intra-latency": (
        lambda: _topology(intra_node_latency_s=-1e-6),
        hp.TopologyError,
        "intra_node_latency_s must be >= 0",
    ),
    "with-clusters-indices": (
        lambda: mixed_topo_16().with_clusters((hp.Cluster(2, 1, _IB),)),
        hp.TopologyError,
        "cluster indices must be contiguous from 1, position 1 has index 2",
    ),
    **{
        f"parallel-{name}": (
            lambda name=name: hp.ParallelConfig(
                **{"tensor": 1, "pipeline": 1, "data": 1, name: 0}
            ),
            hp.InfeasibleConfigError,
            f"{name} degree must be >= 1, got 0",
        )
        for name in ("tensor", "pipeline", "data")
    },
    **{
        f"model-{name}": (
            lambda name=name: _model(**{name: 0}),
            hp.InfeasibleConfigError,
            f"model {name} must be >= 1",
        )
        for name in (
            "layers",
            "hidden",
            "heads",
            "global_batch",
            "micro_batch",
            "seq_len",
            "vocab",
            "bytes_per_param",
        )
    },
    "model-layer-memory": (
        lambda: _model(per_layer_mem_gb=0.0),
        hp.InfeasibleConfigError,
        "per_layer_mem_gb must be positive",
    ),
    "cost-eta-zero": (
        lambda: hp.CostModel(eta=0.0),
        hp.InfeasibleConfigError,
        "eta must be in (0, 1], got 0.0",
    ),
    "cost-eta-above-one": (
        lambda: hp.CostModel(eta=1.5),
        hp.InfeasibleConfigError,
        "eta must be in (0, 1], got 1.5",
    ),
    "cost-ratio": (
        lambda: hp.CostModel(backward_forward_ratio=0.0),
        hp.InfeasibleConfigError,
        "backward_forward_ratio must be positive",
    ),
    "cost-speeds": (
        lambda: hp.CostModel(cluster_speeds_tflops=(100.0, -1.0)),
        hp.InfeasibleConfigError,
        "cluster speeds must be positive",
    ),
}


@pytest.mark.parametrize("build,error,message", CHECKS.values(), ids=CHECKS.keys())
def test_constructor_check_raises_its_type_and_message(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert type(raised.value) is error
    assert str(raised.value) == message


def test_defaults_and_normalisation():
    # The kind's default fills in only a missing latency, not a zero one.
    assert hp.NicSpec(IB, 200.0, latency_s=0.0).latency_s == 0.0
    cluster = hp.Cluster(1, 2, _IB)
    assert (cluster.device_tflops_peak, cluster.device_mem_gb) == (312.0, 80.0)
    listed = _topology(clusters=[cluster])
    assert listed.clusters == (cluster,) and type(listed.clusters) is tuple
    assert listed == _topology(clusters=(cluster,))
    assert listed.intra_node_latency_s == 1e-6 and listed.inter_cluster_rdma is False
    model = _model()
    assert (model.seq_len, model.vocab, model.bytes_per_param) == (2048, 51200, 2)
    assert model.per_layer_mem_gb is None
    cost = hp.CostModel()
    assert (cost.eta, cost.backward_forward_ratio) == (0.63, 2.0)
    assert cost.cluster_speeds_tflops is None


def test_records_of_one_type_compare_by_value():
    assert hp.NicSpec(IB, 200.0) == hp.NicSpec(IB, 200.0, latency_s=5e-6)
    assert hp.NicSpec(IB, 200.0) != hp.NicSpec(IB, 100.0)
    assert mixed_topo_16() == mixed_topo_16()
    assert hp.ParallelConfig(2, 4, 2) == hp.ParallelConfig(2, 4, 2)
    assert hp.ParallelConfig(2, 4, 2) != hp.ParallelConfig(4, 2, 2)
    topo = mixed_topo_16()
    plan = hp.build_plan(hp.ParallelConfig(2, 4, 2), topo)
    assert plan == hp.build_plan(hp.ParallelConfig(2, 4, 2), topo)
    assert hp.normalize_topology(topo) == hp.normalize_topology(mixed_topo_16())


def test_sim_report_equality_and_repr_leave_out_the_kept_schedule():
    fields = dict(
        iter_time_s=1.0,
        tflops_per_gpu=2.0,
        throughput_samples_per_s=3.0,
        flops_per_iteration=4.0,
        micro_batches=1,
        breakdown={"dp_sync": 0.0},
    )
    one = simulator.SimReport(**fields, _stages=((1.0,), (2.0,), (0.0,), 0.0))
    other = simulator.SimReport(
        **fields, _stages=((0.5,), (0.5,), (0.0,), 0.0), _starts_ends=None
    )
    assert one == other
    assert one != simulator.SimReport(**dict(fields, micro_batches=2), _stages=one._stages)
    assert "_stages" not in repr(one) and "_starts_ends" not in repr(one)
    assert one._starts_ends is None
    assert [e.op for e in one.timeline] == ["fwd", "bwd"]


def test_records_survive_copy_and_pickle():
    topo = mixed_topo_16()
    scenario = hp.parse_scenario(full_scenario(), b"{}")
    report, planned, part = hp.run_scenario(scenario)
    for record in (topo, scenario, report, planned, part):
        for twin in (copy.copy(record), pickle.loads(pickle.dumps(record))):
            assert twin == record and type(twin) is type(record)
    twin = pickle.loads(pickle.dumps(report))
    assert twin._stages == report._stages and twin.timeline == report.timeline
