"""The closed loop, its output checks, and the metrics computed from it."""

from __future__ import annotations

import hashlib
import json
import resource
import statistics

import layers
from gauge import timed
from workloads import CheckError, Unrejected

WARMUP_OPS = 2  # untimed ops before the loop (bytecode cache, allocator)
MAX_STRETCH = 2.5  # a loop ends after this many times its seconds of wall time
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10  # op_tail_ms: highest of those with this many samples above
_NULL = layers.NullTracer()


class _Failed:
    def __init__(self, reason: str):
        self.reason = reason


class Run:
    """Drives one workload; keeps what the checks need across phases."""

    def __init__(self, workload):
        self.w = workload
        self.first: dict[int, bytes] = {}  # output of each item's first untraced op
        self.stats: dict[int, object] = {}
        self.failures: list[str] = []
        self.unrejected: list[str] = []  # malformed inputs the program accepted
        self.errors: list[str] = []
        self.wall: list[float] = []  # latency of each op, in seconds
        self.scaled: list[float] = []  # the same at reference speed
        self.untraced_s: dict[int, list[float]] = {}  # scaled latencies of each item

    def _record(self, k: int, out, traced: bool) -> str | None:
        """Check one op's output; return a failure reason, keep check errors."""
        item = self.w.items[k]
        try:
            reason = self.w.check(item, out)
            if traced and k not in self.untraced_s:
                # The reference for a layer-by-layer result is the program's own
                # path; its time is the baseline of the tracing overhead.
                reference, _, scaled = timed(lambda: self.w.op(item, _NULL))
                self.untraced_s.setdefault(k, []).append(scaled)
                self._record(k, reference, traced=False)
            data = self.w.output(out)
            if k not in self.first:
                self.first[k] = data
                self.stats[k] = self.w.stats(item, out)
            elif data != self.first[k]:
                what = "the untraced run" if traced else "the first run"
                raise CheckError(f"input {k}: output is not byte-identical to {what}")
        except CheckError as exc:
            self.errors.append(str(exc))
            return None
        return reason

    def _call(self, item, tracer):
        try:
            if tracer is None:
                return self.w.op(item, _NULL)
            tracer.op = self.op_count
            with layers.installed(tracer), tracer.span("op"):
                return self.w.traced_op(item, tracer)
        except Exception as exc:  # a failed op is counted, not fatal
            return _Failed(f"{type(exc).__name__}: {exc}")

    @property
    def op_count(self) -> int:
        return len(self.wall)

    def step(self, tracer=None) -> str | None:
        """One op on the next item; returns a failure reason or None."""
        k = self.op_count % len(self.w.items)
        item = self.w.items[k]
        out, elapsed, scaled = timed(lambda: self._call(item, tracer))
        self.wall.append(elapsed)
        self.scaled.append(scaled)
        if tracer is None:
            self.untraced_s.setdefault(k, []).append(scaled)
        if isinstance(out, _Failed):
            return out.reason
        return self._record(k, out, traced=tracer is not None)

    def warm_up(self) -> None:
        for _ in range(WARMUP_OPS):
            self.step()
        self.untraced_s.clear()

    def loop(self, seconds: float, tracer=None) -> range:
        """Closed loop until the ops have taken ``seconds`` at reference speed.

        Every run thus does about the same work, however fast the core runs;
        a slowed core may stretch the wall time up to ``MAX_STRETCH`` times.
        Returns the numbers of the ops it ran.
        """
        first = self.op_count
        wall = scaled = 0.0
        while scaled < seconds and wall < MAX_STRETCH * seconds and not self.errors:
            reason = self.step(tracer)
            wall += self.wall[-1]
            scaled += self.scaled[-1]
            if isinstance(reason, Unrejected):
                self.unrejected.append(reason)
            elif reason is not None:
                self.failures.append(reason)
        return range(first, self.op_count)

    def overhead_ms(self, traced: range) -> float:
        """Median over traced ops of traced minus untraced time on the same input.

        Inputs differ in cost, so each traced op is paired with the median
        untraced time of its own input rather than with the overall median.
        """
        n = len(self.w.items)
        diffs = [
            self.scaled[op] - statistics.median(self.untraced_s[op % n])
            for op in traced
            if op % n in self.untraced_s
        ]
        return statistics.median(diffs) * 1e3

    def digest(self) -> str:
        """sha256 of the simulated statistics of one full pass over the items."""
        if len(self.stats) < len(self.w.items):
            return f"incomplete: {len(self.stats)} of {len(self.w.items)} inputs ran"
        ordered = [self.stats[k] for k in range(len(self.w.items))]
        return hashlib.sha256(json.dumps(ordered, sort_keys=True).encode()).hexdigest()


def tail(latencies_ms: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples) for the highest of ``TAIL_PERCENTILES``
    with at least ``TAIL_BEYOND`` samples above it.

    A fixed ladder, rather than the exact rank, keeps the percentile the
    same from run to run, because runs of one workload do about the same
    number of ops.
    """
    ordered = sorted(latencies_ms)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= TAIL_BEYOND or pct == 50.0:
            index = min(n - 1, max(0, round(pct / 100.0 * n) - 1))
            return ordered[index], pct, n


def end_to_end(run: Run, ops: range, setup_s: float):
    """The end-to-end metrics of an untraced loop, and notes for the reader."""
    wall = [run.wall[op] for op in ops]
    scaled = [run.scaled[op] for op in ops]
    ms = [x * 1e3 for x in scaled]
    attempted = len(ops)
    if hasattr(run.w, "peak_rss_kb"):
        rss_kb = run.w.peak_rss_kb  # of its children, for a process-per-op workload
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tail_ms, pct, n = tail(ms)
    metrics = {
        "setup_s": setup_s,
        "op_p50_ms": statistics.median(ms),
        "op_tail_ms": tail_ms,
        "ops_per_s": attempted / sum(scaled),
        "ok_ratio": (attempted - len(run.failures) - len(run.unrejected)) / attempted,
        "peak_rss_mb": rss_kb / 1024,
    }
    notes = [
        f"op_tail_ms is p{pct:g} of {n} ops",
        f"unscaled wall time: op_p50 {statistics.median(wall) * 1e3:.6g} ms, "
        f"{attempted / sum(wall):.6g} ops/s",
    ]
    return metrics, notes


def per_layer(run: Run, tracer, traced: range, names, setup_ms) -> dict:
    """Per-layer metrics of a traced loop; layers that did not run read 0.

    ``setup_ms`` holds the layers measured once, outside the loop: the
    bare interpreter, and the package import, which the in-process
    workloads pay in set-up.  On ``large_8192`` decode and parse also
    happen in set-up; those layers report the set-up measurement.
    """
    scale = {op: run.scaled[op] / run.wall[op] for op in traced}
    found = layers.layer_metrics(tracer, list(traced), scale)
    values = {name: found.get(name, 0.0) for name in names}
    values["op.self_ms"] = found.get("op_ms", 0.0)
    for name, ms in setup_ms.items():
        if name not in found:
            values[name] = ms
    for layer in ("decode", "parse"):
        measured = getattr(run.w, f"{layer}_ms", None)
        if measured and f"config.{layer}_ms" not in found:
            values[f"config.{layer}_ms"] = statistics.median(measured)
    values["trace.op_ms"] = statistics.median(run.scaled[op] for op in traced) * 1e3
    values["trace.overhead_ms"] = run.overhead_ms(traced)
    return values
