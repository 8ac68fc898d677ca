"""One benchmark sample, run in a fresh process forked by ``run.py``.

:func:`run_sample` builds the workload's pipeline, runs it once, checks
the output and returns the figures.  A fresh process per sample keeps
three things honest: ``ru_maxrss`` is a per-process high-water mark,
the switches' counters live in the process-global metrics registry,
and a worker child's CPU and memory are only visible through
``RUSAGE_CHILDREN`` once it has been joined.

With ``--trace 1`` the public methods of each layer's instance are
wrapped (see :mod:`perfbench.spans`) and the sample also reports the
per-layer metrics.
"""

from __future__ import annotations

import gc
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import time
from multiprocessing import resource_tracker
from typing import Any, Dict, Optional

from perfbench.calibrate import kernel_s, speed
from perfbench.spans import SpanRecorder, attribute, coverage
from perfbench.workloads import Workload
from repro.switch.columns import get_numpy

E2E_UNITS = {
    "events_per_s": "ev/s",
    "cpu_ms_per_kevent": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

LAYER_UNITS = {
    "workloads.generate_s": "s",
    "workloads.reference_s": "s",
    "cookie_cache.encode_s": "s",
    "cookie_cache.hit_ratio": "ratio",
    "cookie_cache.misses": "count",
    "larkswitch.process_s": "s",
    "larkswitch.flush_s": "s",
    "larkswitch.packets": "count",
    "larkswitch.reports": "count",
    "aggregation.encode_s": "s",
    "aggregation.encodes": "count",
    "aggswitch.fold_s": "s",
    "aggswitch.payloads": "count",
    "aggswitch.dead_letters": "count",
    "aggswitch.readout_s": "s",
    "user_stats.handoff_s": "s",
    "worker.push_s": "s",
    "worker.drain_s": "s",
    "worker.cpu_s": "s",
    "pipeline.self_s": "s",
    "pipeline.coverage": "ratio",
    "pipeline.batches": "count",
    "pipeline.periods": "count",
    "pipeline.inflight_peak": "count",
    "trace.overhead": "ratio",
}

MIN_COVERAGE = 0.9

# Span name -> metric, for methods that are not their layer's main work.
SPAN_METRIC = {
    "pipeline.run": "pipeline.self_s",
    "workloads.generate_batch": "workloads.generate_s",
    "workloads.accumulate_reference": "workloads.reference_s",
    "larkswitch.end_period": "larkswitch.flush_s",
    "larkswitch.drain_user_stats": "user_stats.handoff_s",
    "aggswitch.absorb_user_stats": "user_stats.handoff_s",
    "aggswitch.report": "aggswitch.readout_s",
    "aggswitch.merge": "aggswitch.readout_s",
    "aggswitch.user_report": "aggswitch.readout_s",
    "aggswitch.restore": "aggswitch.readout_s",
    "worker.drain": "worker.drain_s",
}
# Every other public method of a layer counts as its main work, so an
# entry point added later is attributed without touching this table.
LAYER_METRIC = {
    "cookie_cache": "cookie_cache.encode_s",
    "larkswitch": "larkswitch.process_s",
    "aggregation": "aggregation.encode_s",
    "aggswitch": "aggswitch.fold_s",
    "worker": "worker.push_s",
}


def metric_of(span_name: str) -> Optional[str]:
    if span_name in SPAN_METRIC:
        return SPAN_METRIC[span_name]
    return LAYER_METRIC.get(span_name.split(".", 1)[0])


def canonical(value: Any) -> Any:
    """Order-independent form of a report: dicts become key-sorted
    pair lists (keys may be tuples, which JSON cannot hold)."""
    if isinstance(value, dict):
        return sorted(
            ((canonical(k), canonical(v)) for k, v in value.items()),
            key=repr,
        )
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    return value


def report_digest(result: Any) -> str:
    body = repr(canonical([result.report, result.register_state]))
    return hashlib.sha256(body.encode()).hexdigest()


def scale_to_reference(
    measured: Dict[str, float], host_speed: float
) -> Dict[str, float]:
    """The end-to-end metrics as they would read on the reference host
    (see :mod:`perfbench.calibrate`): rates divide by the host's speed,
    times multiply by it, and memory is left alone."""
    return {
        "events_per_s": measured["events_per_s"] / host_speed,
        "cpu_ms_per_kevent": measured["cpu_ms_per_kevent"] * host_speed,
        "peak_rss_mb": measured["peak_rss_mb"],
        "setup_s": measured["setup_s"] * host_speed,
    }


def host_block() -> Dict[str, Any]:
    np = get_numpy()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__ if np is not None else None,
        "vectorized": np is not None,
        "REPRO_NO_NUMPY": os.environ.get("REPRO_NO_NUMPY", ""),
    }


def _cpu_s(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _live_cpu_s(pid: int) -> float:
    """CPU seconds a live child has used so far (Linux /proc)."""
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _install_trace(recorder: SpanRecorder, generator: Any, pipe: Any) -> None:
    recorder.wrap_public(pipe.cache, "cookie_cache")
    recorder.wrap_public(pipe.lark, "larkswitch")
    recorder.wrap_public(pipe.agg, "aggswitch")
    recorder.wrap_public(
        pipe.lark._apps[pipe.app_id].agg_codec, "aggregation"
    )
    if pipe._agg_worker is not None:
        recorder.wrap_public(pipe._agg_worker, "worker")
    generator.accumulate_reference = recorder.wrap(
        generator.accumulate_reference, "workloads.accumulate_reference"
    )
    open_stream = generator.stream

    def stream(*args, **kwargs):
        events = open_stream(*args, **kwargs)
        events.generate_batch = recorder.wrap(
            events.generate_batch, "workloads.generate_batch"
        )
        return events

    generator.stream = stream
    pipe.run = recorder.wrap(pipe.run, "pipeline.run")


def run_sample(
    workload: Workload, seed: int, trace: bool, spans_path: Optional[str]
) -> Dict[str, Any]:
    children_cpu0 = _cpu_s(resource.RUSAGE_CHILDREN)
    gc.collect()
    # The host's speed is timed with no worker child alive, so that a
    # child's idle polling on the other core does not skew it.
    kernel_before_s = kernel_s()
    t0 = time.perf_counter()
    generator, pipe = workload.build(seed)
    setup_s = time.perf_counter() - t0
    recorder = None
    try:
        # Worker children spawned during set-up: only their CPU from
        # here on belongs to the run.
        worker_cpu0 = sum(
            _live_cpu_s(p.pid) for p in multiprocessing.active_children()
        )
        if trace:
            recorder = SpanRecorder("%s-seed%d" % (workload.name, seed))
            _install_trace(recorder, generator, pipe)
        registry = pipe.lark.metrics
        base = "lark.%s." % pipe.lark.name
        packets0 = registry.get(base + "packets").value
        gc.collect()
        cpu0 = _cpu_s(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        result = pipe.run(workload.requests_per_second, workload.duration_ms)
        wall_s = time.perf_counter() - t0
        parent_cpu_s = _cpu_s(resource.RUSAGE_SELF) - cpu0
        if recorder is not None:
            recorder.enabled = False
        inflight_peak = pipe.registry.get("pipeline.inflight_peak").value
    finally:
        pipe.close()
    worker_cpu_s = (
        _cpu_s(resource.RUSAGE_CHILDREN) - children_cpu0 - worker_cpu0
    )
    # The persistent tier's shared memory starts a resource tracker;
    # stop it so the sample leaves no process behind.
    resource_tracker._resource_tracker._stop()
    kernel_after_s = kernel_s()
    peak_kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )

    failures = []
    if not result.counts_match_reference():
        failures.append("report differs from the workload's reference")
    if result.dead_letters:
        failures.append("%d dead letters" % result.dead_letters)
    if not result.events:
        failures.append("no events")
    measured = {
        "events_per_s": result.events / wall_s,
        "cpu_ms_per_kevent": (
            (parent_cpu_s + worker_cpu_s) * 1e6 / result.events
            if result.events else 0.0
        ),
        "peak_rss_mb": peak_kb / 1024.0,
        "setup_s": setup_s,
    }
    host_speed = speed(kernel_before_s, kernel_after_s)
    out: Dict[str, Any] = {
        "workload": workload.name,
        "seed": seed,
        "events": result.events,
        "wall_s": wall_s,
        "speed": host_speed,
        "digest": report_digest(result),
        "host": host_block(),
        "measured": measured,
        "e2e": scale_to_reference(measured, host_speed),
    }
    if recorder is not None:
        spans = recorder.spans
        own = attribute(spans, metric_of)
        stats = result.cache_stats
        lookups = stats["hits"] + stats["queued_hits"] + stats["misses"]
        layers = {
            name: own.get(name, 0.0)
            for name, unit in LAYER_UNITS.items()
            if unit == "s"
        }
        layers.update({
            "cookie_cache.hit_ratio": (
                stats["hits"] / lookups if lookups else 0.0
            ),
            "cookie_cache.misses": stats["misses"],
            "larkswitch.packets": (
                registry.get(base + "packets").value - packets0
            ),
            # The lark's own report counters miss per-packet reports on
            # the columnar path, so count the payloads it handed over.
            "larkswitch.reports": result.payloads,
            "aggregation.encodes": sum(
                span[4] for span in spans
                if metric_of(span[0]) == "aggregation.encode_s"
            ),
            "aggswitch.payloads": result.merged + result.dead_letters,
            "aggswitch.dead_letters": result.dead_letters,
            "worker.cpu_s": worker_cpu_s,
            "pipeline.coverage": coverage(spans),
            "pipeline.batches": result.batches,
            "pipeline.periods": result.periods,
            "pipeline.inflight_peak": inflight_peak,
        })
        out["layers"] = layers
        if layers["pipeline.coverage"] < MIN_COVERAGE:
            failures.append(
                "pipeline.coverage %.3f below %.1f"
                % (layers["pipeline.coverage"], MIN_COVERAGE)
            )
        if spans_path is not None:
            os.makedirs(os.path.dirname(spans_path), exist_ok=True)
            with open(spans_path, "w") as f:
                json.dump({"host": out["host"], **recorder.export()}, f)
    out["failures"] = failures
    return out
