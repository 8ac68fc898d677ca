"""Scalar-vs-columnar fast-path benchmark.

The columnar kernels (:meth:`LarkSwitch.process_quic_columnar`,
:meth:`AggSwitch.process_columnar`) exist so the simulated data plane
stops dominating benchmark wall-clock.  This module measures exactly
that: it replays one seeded connection-ID stream through the scalar
per-packet switches, through the columnar entry points with the numpy
gate forced closed (their pure-Python kernel), and through the
vectorized columnar kernels, and reports host-CPU throughput for each,
verifying on the way that all end states agree (the rigorous
bit-identity proof lives in ``tests/differential/``).

Used by ``python -m repro.cli bench`` and ``benchmarks/test_fastpath.py``.
"""

from __future__ import annotations

import gc
import random
import time
from typing import Any, Callable, Dict, List

from repro.core.aggregation import ForwardingMode
from repro.core.aggswitch import AggSwitch
from repro.core.larkswitch import LarkSwitch
from repro.core.transport_cookie import TransportCookieCodec
from repro.obs.registry import MetricsRegistry
from repro.quic.connection_id import ConnectionID
from repro.switch.columns import PATHS, gate, numpy_enabled
from repro.workloads.adcampaign import AdCampaignWorkload, iter_batches

__all__ = [
    "FastpathFixture",
    "run_backend_bench",
    "BENCH_APP_ID",
    "PATHS",
]

BENCH_APP_ID = 0x5C


class FastpathFixture:
    """Builds matched switches over one seeded workload."""

    def __init__(
        self,
        mode: str = ForwardingMode.PERIODICAL,
        num_users: int = 2000,
        seed: int = 42,
        shards: int = 1,
    ):
        self.mode = mode
        self.seed = seed
        self.shards = shards
        self.workload = AdCampaignWorkload(num_users=num_users, seed=seed)
        rng = random.Random(seed + 9)
        self.key = bytes(rng.getrandbits(8) for _ in range(16))
        self.schema = self.workload.schema()
        self.specs = self.workload.specs()

    def new_lark(self) -> LarkSwitch:
        lark = LarkSwitch(
            "bench-lark",
            rng=random.Random(self.seed + 1),
            registry=MetricsRegistry(),
        )
        lark.register_application(
            BENCH_APP_ID,
            self.schema,
            self.key,
            self.specs,
            mode=self.mode,
            period_ms=1000.0
            if self.mode == ForwardingMode.PERIODICAL else 0.0,
        )
        return lark

    def new_agg(self, shards: int = 1) -> AggSwitch:
        agg = AggSwitch(
            "bench-agg",
            rng=random.Random(self.seed + 2),
            registry=MetricsRegistry(),
            shards=shards,
        )
        agg.register_application(
            BENCH_APP_ID, self.schema, self.key, self.specs
        )
        return agg

    def make_cids(self, packets: int) -> List[ConnectionID]:
        """One semantic CID per user, replayed in a seeded mix — the
        Snatch CID policy preserves the cookie bytes across a user's
        connections, which is what the decode memo exploits."""
        codec = TransportCookieCodec(
            BENCH_APP_ID, self.schema, self.key, random.Random(self.seed + 3)
        )
        rng = random.Random(self.seed + 4)
        per_user = [
            codec.encode(
                user.semantic_values(rng.choice(self.workload.campaigns),
                                     rng.choice(("view", "click")))
            )
            for user in self.workload.users
        ]
        return [per_user[rng.randrange(len(per_user))] for _ in range(packets)]


def _throughput(seconds: float, packets: int) -> Dict[str, float]:
    return {
        "seconds": seconds,
        "packets_per_second": packets / seconds if seconds > 0 else 0.0,
    }


def _time_path(
    path: str,
    process_one: Callable[[Any], Any],
    process_batch: Callable[[List[Any]], Any],
    items: List[Any],
    batch_size: int,
) -> float:
    """Run all ``items`` down one path; returns seconds.  The
    ``no_numpy`` path closes the numpy gate for its run only."""
    gc.collect()  # same GC starting state for every timed run
    with gate(path):
        t0 = time.perf_counter()
        if path == "scalar":
            for item in items:
                process_one(item)
        else:
            for chunk in iter_batches(items, batch_size):
                process_batch(chunk)
        return time.perf_counter() - t0


def run_backend_bench(
    packets: int = 100_000,
    num_users: int = 2000,
    mode: str = ForwardingMode.PERIODICAL,
    batch_size: int = 1024,
    shards: int = 1,
    agg_packets: int = 5000,
    seed: int = 42,
    repeats: int = 3,
) -> Dict[str, Any]:
    """Scalar / no-numpy / columnar comparison on one stream.

    Timings are interleaved best-of-``repeats`` — each round builds a
    fresh switch per path and runs them back to back, so a GC pause
    or a noisy neighbour penalizes at most one (path, round) sample
    instead of biasing a whole path.  Reports from the final round
    are compared for equality across all three paths.  The LarkSwitch
    section is the headline; the AggSwitch section times per-packet
    merges at the requested shard count.

    Result layout (JSON-ready)::

        {"numpy": true,
         "lark": {"scalar": {...}, "no_numpy": {...}, "columnar": {...},
                  "speedup_vs_scalar": {...}, "columnar_vs_no_numpy": 3.1,
                  "reports_match": true},
         "agg": {... same keys, plus "shards" and "packets" ...}}
    """
    fixture = FastpathFixture(
        mode=mode, num_users=num_users, seed=seed, shards=shards
    )
    cids = fixture.make_cids(packets)

    agg_n = min(agg_packets, packets)
    payload_fixture = FastpathFixture(
        mode=ForwardingMode.PER_PACKET, num_users=num_users, seed=seed
    )
    payloads = [
        result.aggregation_payload
        for result in payload_fixture.new_lark().process_quic_columnar(
            payload_fixture.make_cids(agg_n)
        )
        if result.aggregation_payload is not None
    ]

    best_lark = {path: float("inf") for path in PATHS}
    best_agg = {path: float("inf") for path in PATHS}
    lark_reports: Dict[str, Any] = {}
    agg_reports: Dict[str, Any] = {}
    for _ in range(max(1, repeats)):
        for path in PATHS:
            lark = fixture.new_lark()
            elapsed = _time_path(
                path, lark.process_quic_packet, lark.process_quic_columnar,
                cids, batch_size,
            )
            best_lark[path] = min(best_lark[path], elapsed)
            lark_reports[path] = lark.stats_report(BENCH_APP_ID)

            agg = fixture.new_agg(shards=shards)
            elapsed = _time_path(
                path, agg.process_packet, agg.process_columnar,
                payloads, batch_size,
            )
            best_agg[path] = min(best_agg[path], elapsed)
            agg_reports[path] = agg.report(BENCH_APP_ID)

    def _section(best: Dict[str, float], n: int, reports) -> Dict[str, Any]:
        scalar_s = best["scalar"]
        return {
            **{path: _throughput(best[path], n) for path in PATHS},
            "speedup_vs_scalar": {
                path: scalar_s / best[path] if best[path] > 0 else 0.0
                for path in PATHS
            },
            "columnar_vs_no_numpy": (
                best["no_numpy"] / best["columnar"]
                if best["columnar"] > 0 else 0.0
            ),
            "reports_match": all(
                reports[path] == reports["scalar"] for path in PATHS
            ),
        }

    return {
        "packets": packets,
        "unique_users": num_users,
        "mode": mode,
        "batch_size": batch_size,
        "seed": seed,
        "repeats": repeats,
        "numpy": numpy_enabled(),
        "lark": _section(best_lark, packets, lark_reports),
        "agg": {
            "shards": shards,
            "packets": len(payloads),
            **_section(best_agg, len(payloads), agg_reports),
        },
    }
