"""End-to-end ingest throughput: whole-run events/sec per backend.

Unlike ``benchmarks/test_fastpath.py`` (switch kernels on a pre-built
CID stream), this drives the *entire* ingest pipeline per backend —
event generation, cookie encode (cached for columnar), lark,
agg, verification — via ``repro.testbed.pipeline.StreamingPipeline``,
and records the comparison into ``BENCH_e2e.json`` at the repo root.
The scalar backend is the pre-optimization baseline (uncached
per-event encode, per-packet switches), so ``speedup_vs_scalar`` is
the honest whole-run win.

Run directly: ``PYTHONPATH=src python -m pytest benchmarks/test_e2e.py -s``
"""

import json
import os

from conftest import attach, emit_table
from repro.switch.columns import numpy_enabled
from repro.testbed.e2e_bench import run_e2e_bench
from repro.testbed.pipeline import PIPELINE_BACKENDS

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_JSON_PATH = os.path.join(_REPO_ROOT, "BENCH_e2e.json")

RPS = 20_000.0
DURATION_MS = 1000.0
USERS = 2000
BATCH_SIZE = 1024
REPEATS = 3

# The ISSUE-5 acceptance bar is >= 5x locally; CI runners are noisy
# and heterogeneous, so the blocking assertion uses a safety margin.
CI_SPEEDUP_FLOOR = 3.0


def test_e2e_ingest(benchmark):
    """Headline: whole-run fast path >= 5x scalar (3x asserted)."""
    result = benchmark.pedantic(
        run_e2e_bench,
        kwargs=dict(
            requests_per_second=RPS,
            duration_ms=DURATION_MS,
            num_users=USERS,
            batch_size=BATCH_SIZE,
            repeats=REPEATS,
        ),
        rounds=1,
        iterations=1,
    )

    ran = result.get("backends", PIPELINE_BACKENDS)
    emit_table(
        "End-to-end ingest: whole-run events/sec",
        ["backend", "events/s", "vs scalar"],
        [
            [b, "%.0f" % result[b]["events_per_second"],
             "%.2fx" % result["speedup_vs_scalar"][b]]
            for b in ran
        ],
    )

    payload = dict(result)
    payload["numpy"] = numpy_enabled()
    with open(_JSON_PATH, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    attach(
        benchmark,
        columnar_vs_scalar=result["speedup_vs_scalar"]["columnar"],
        persistent_vs_scalar=result["speedup_vs_scalar"].get("persistent"),
        events=result["events"],
        json_path=_JSON_PATH,
    )

    assert result["reports_match"], "backends produced different reports"
    assert result["verified"], "report disagrees with workload ground truth"
    if not numpy_enabled():
        # Without numpy the cookie cache and the pure-Python columnar
        # kernel still help, but nothing is vectorized;
        # identity holds but the speedup bar is numpy-path-only.
        return
    best = max(
        result["speedup_vs_scalar"][b] for b in ran if b != "scalar"
    )
    assert best >= CI_SPEEDUP_FLOOR, (
        "expected a fast-path backend >= %.1fx scalar e2e, measured %.2fx"
        % (CI_SPEEDUP_FLOOR, best)
    )
