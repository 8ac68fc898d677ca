"""Crash-recovery overhead of the supervised shard runtime.

Drives :func:`repro.testbed.chaos_bench.run_chaos_bench`: for each of
three seeds and both execution backends, one hash-partitioned
stream runs through the :class:`ShardSupervisor` fault-free and again
with a scripted single-shard crash plus a mid-run backend degradation.
The acceptance invariants are hard assertions, and the measured
recovery overhead lands in ``BENCH_chaos.json`` at the repo root:

* recovered == fault-free, byte for byte, across backends;
* a crash replays at most one checkpoint epoch
  (``checkpoint_batches x chunk_size`` packets), never the run.

Run directly:
``PYTHONPATH=src python -m pytest benchmarks/test_chaos_recovery.py -s``
"""

import json
import os

from conftest import attach, emit_table
from repro.testbed.chaos_bench import DEFAULT_SEEDS, run_chaos_bench

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_JSON_PATH = os.path.join(_REPO_ROOT, "BENCH_chaos.json")

PACKETS = 4000
USERS = 500
SHARDS = 3


def test_chaos_recovery(benchmark):
    """Headline: tail-only recovery, bit-identical reports."""
    result = benchmark.pedantic(
        run_chaos_bench,
        kwargs=dict(
            packets=PACKETS,
            num_users=USERS,
            shards=SHARDS,
            seeds=DEFAULT_SEEDS,
        ),
        rounds=1,
        iterations=1,
    )

    rows = []
    for seed, per_backend in sorted(result["seeds"].items()):
        for backend, cell in per_backend.items():
            rows.append([
                seed, backend,
                cell["crashes"],
                cell["recovered_packets"],
                "%.1f%%" % cell["recovered_pct"],
                "%.1f%%" % cell["time_overhead_pct"],
                cell["degraded_to"] or "-",
                "yes" if cell["identical"] else "NO",
            ])
    emit_table(
        "Supervised shard crash recovery (epoch = %d packets)"
        % result["epoch_size"],
        ["seed", "backend", "crashes", "replayed", "replayed %",
         "time overhead", "degraded to", "identical"],
        rows,
    )

    with open(_JSON_PATH, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    attach(
        benchmark,
        epoch_size=result["epoch_size"],
        all_identical=result["all_identical"],
        all_tail_only=result["all_tail_only"],
        json_path=_JSON_PATH,
    )

    # Differential proof: injected crashes and mid-run degradations
    # change nothing observable, for every backend and seed.
    assert result["all_identical"]
    # Tail-only recovery: the replay is bounded by the events since
    # the last checkpoint, not the stream length.
    assert result["all_tail_only"]
    for per_backend in result["seeds"].values():
        for cell in per_backend.values():
            assert cell["crashes"] >= 1
            assert (
                cell["recovered_packets"]
                <= cell["crashes"] * result["epoch_size"]
            )
            assert cell["recovered_packets"] < result["packets"]
