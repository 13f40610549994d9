"""The benchmark's traced path, read from ``bench/layers.py``, still composes
the package into the document ``run_scenario`` gives.

``bench/`` is only read: the module source is compiled in memory, so no
bytecode cache is written there.
"""

import holmes_planner as hp
from helpers import BENCH, bench_module
from holmes_planner import planner

SHIPPED = sorted((BENCH.parent / "scenarios").glob("*.json"))


def _snapshot():
    return {p: p.read_bytes() for p in sorted(BENCH.rglob("*")) if p.is_file()}


def test_bench_composed_run_gives_the_run_scenario_document():
    before = _snapshot()
    layers = bench_module("layers")
    null = layers.NullTracer()
    assert len(SHIPPED) == 10
    for path in SHIPPED:
        scenario = hp.load_scenario(path)
        for naive in (False, True):
            tracer = layers.Tracer()
            with layers.installed(tracer):
                composed = layers.run_composed(scenario, naive)
                traced = layers.dumps(
                    null, layers.simulate_doc(tracer, scenario, composed, naive)
                )
            run = planner.run_scenario(scenario, naive=naive)
            assert traced == layers.dumps(
                null, layers.simulate_doc(null, scenario, run, naive)
            )
            names = [span[0] for span in tracer.spans]
            assert {"simulator.simulate", "simulator.reduce_scatter"} <= set(names)
            assert ("nic_select.naive" if naive else "nic_select.assign") in names
            # the channel check inside assign_channels and naive_channels
            # builds and validates the plan without adding spans or counts
            assert names.count("groups.build") == names.count("groups.validate") == 1
            cfg = scenario.parallel
            t, p, d = cfg
            rows = cfg.world_size // t + t * d + p * t
            counts = tracer.counts[tracer.op]
            assert counts["groups.rows"] == rows
            assert counts["nic_select.assignments"] == (0 if naive else rows)
    assert _snapshot() == before
