"""Scalar-vs-columnar fast-path throughput on a 100k-packet run.

Drives one seeded connection-ID stream through the scalar per-packet
data plane, the columnar entry points with the numpy gate forced
closed (their pure-Python kernel), and the vectorized columnar
kernels, with interleaved best-of-N timing, then records the
comparison into ``BENCH_fastpath.json`` at the repo root.
``tests/differential`` proves the paths bit-identical; this benchmark
proves they are worth having:

* lark periodical: the numpy-off kernel >= 5x scalar, and vectorized
  columnar >= 3x the numpy-off kernel;
* agg merge: the numpy-off kernel and vectorized columnar both
  >= 1.0x scalar (the numpy-off kernel regressed below scalar once —
  this pins the fix).

A secondary per-packet datapoint (each match encodes a payload with a
fresh IV from the app RNG) runs on 4-way sharded agg banks.

Run directly: ``PYTHONPATH=src python -m pytest benchmarks/test_fastpath.py -s``
"""

import json
import os

from conftest import attach, emit_table
from repro.core.aggregation import ForwardingMode
from repro.testbed.fastpath import PATHS, run_backend_bench

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_JSON_PATH = os.path.join(_REPO_ROOT, "BENCH_fastpath.json")

PACKETS = 100_000
USERS = 2000
BATCH_SIZE = 1024
REPEATS = 3
SHARDS = 4


def test_fastpath_backends(benchmark):
    """Headline: periodical lark no-numpy >= 5x scalar, columnar >= 3x
    no-numpy; agg no-numpy and columnar >= 1x scalar."""
    result = benchmark.pedantic(
        run_backend_bench,
        kwargs=dict(
            packets=PACKETS,
            num_users=USERS,
            mode=ForwardingMode.PERIODICAL,
            batch_size=BATCH_SIZE,
            repeats=REPEATS,
        ),
        rounds=1,
        iterations=1,
    )
    per_packet = run_backend_bench(
        packets=PACKETS // 10,
        num_users=USERS,
        mode=ForwardingMode.PER_PACKET,
        batch_size=BATCH_SIZE,
        shards=SHARDS,
        repeats=1,
    )

    rows = []
    for label, data in (("periodical", result), ("per-packet", per_packet)):
        for section in ("lark", "agg"):
            s = data[section]
            rows.append(
                ["%s/%s" % (label, section)]
                + ["%.0f" % s[p]["packets_per_second"] for p in PATHS]
                + ["%.2fx" % s["speedup_vs_scalar"]["columnar"],
                   "%.2fx" % s["columnar_vs_no_numpy"],
                   "yes" if s["reports_match"] else "NO"]
            )
    emit_table(
        "Fast path: scalar vs columnar (numpy off and on)",
        ["path", "scalar pkts/s", "no-numpy pkts/s", "columnar pkts/s",
         "col/scalar", "col/no-numpy", "match"],
        rows,
    )

    payload = {
        "packets": PACKETS,
        "users": USERS,
        "batch_size": BATCH_SIZE,
        "repeats": REPEATS,
        "numpy": result["numpy"],
        "periodical": result,
        "per_packet": per_packet,
    }
    with open(_JSON_PATH, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    attach(
        benchmark,
        lark_no_numpy_vs_scalar=result["lark"]["speedup_vs_scalar"]["no_numpy"],
        lark_columnar_vs_no_numpy=result["lark"]["columnar_vs_no_numpy"],
        agg_no_numpy_vs_scalar=result["agg"]["speedup_vs_scalar"]["no_numpy"],
        agg_columnar_vs_scalar=result["agg"]["speedup_vs_scalar"]["columnar"],
        json_path=_JSON_PATH,
    )

    assert result["lark"]["reports_match"]
    assert result["agg"]["reports_match"]
    assert per_packet["lark"]["reports_match"]
    assert per_packet["agg"]["reports_match"]
    # The pure-Python kernel must beat scalar 5x on the 100k-packet
    # periodical run.
    assert result["lark"]["speedup_vs_scalar"]["no_numpy"] >= 5.0, (
        "expected >= 5x, measured %.2fx"
        % result["lark"]["speedup_vs_scalar"]["no_numpy"]
    )
    if not result["numpy"]:
        # Without numpy both columnar paths run the same kernel;
        # identity still holds but there is no vectorized speedup.
        return
    assert result["lark"]["columnar_vs_no_numpy"] >= 3.0, (
        "expected columnar >= 3x its numpy-off kernel, measured %.2fx"
        % result["lark"]["columnar_vs_no_numpy"]
    )
    assert result["agg"]["speedup_vs_scalar"]["no_numpy"] >= 1.0, (
        "agg numpy-off kernel slower than scalar: %.2fx"
        % result["agg"]["speedup_vs_scalar"]["no_numpy"]
    )
    assert result["agg"]["speedup_vs_scalar"]["columnar"] >= 1.0, (
        "agg columnar path slower than scalar: %.2fx"
        % result["agg"]["speedup_vs_scalar"]["columnar"]
    )
