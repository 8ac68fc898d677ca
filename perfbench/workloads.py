"""The benchmark's workloads: one traffic mix and pipeline set-up each.

Every workload runs closed loop through ``StreamingPipeline``: a
single process pulls the next micro-batch as soon as the pipeline has
room, with no pacing, so the headline is events completed per second
at the input size fixed here.  Event-time rates below only set how
many events a run generates and where period boundaries fall.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.core.aggregation import ForwardingMode
from repro.testbed.pipeline import StreamingPipeline
from repro.workloads.adcampaign import AdCampaignWorkload
from repro.workloads.scale import ScaleWorkload

AD_USERS = 2_000
ZIPF_USERS = 1_000_000


@dataclass(frozen=True)
class Workload:
    name: str
    traffic: str  # "ad" or "zipf-1m"
    mode: str  # ForwardingMode value
    backend: str
    requests_per_second: float
    duration_ms: float
    options: Dict[str, Any] = field(default_factory=dict)
    # A workload fed the same events whose report digest must match.
    same_report_as: Optional[str] = None

    def build(self, seed: int) -> Tuple[Any, Any]:
        """Construct the workload generator and a ready pipeline."""
        if self.traffic == "ad":
            generator = AdCampaignWorkload(num_users=AD_USERS, seed=seed)
        else:
            generator = ScaleWorkload(
                num_users=ZIPF_USERS, seed=seed, tail_fraction=0.5
            )
        pipe = StreamingPipeline(
            generator,
            seed=seed,
            mode=self.mode,
            period_ms=250.0,
            backend=self.backend,
            batch_size=1024,
            **self.options,
        )
        return generator, pipe


PERIODICAL = ForwardingMode.PERIODICAL
PER_PACKET = ForwardingMode.PER_PACKET
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # Cookie encode and lark decode/fold do the work; the report
        # encrypt and agg fold are nearly bypassed (one report per
        # period), and the cookie cache misses most lookups.
        Workload(
            "periodical", "ad", PERIODICAL, "columnar", 20_000.0, 1_000.0,
        ),
        # The same traffic, one encrypted report per event: report
        # encrypt and the agg fold dominate.  A sample is kept short
        # (about 1 s) because the host-speed kernel timed around it
        # tracks a short run far better: over 32 samples the scaled
        # spread was 0.095 at 125 ms of traffic against 0.28 at 250 ms.
        Workload(
            "per-packet", "ad", PER_PACKET, "columnar", 20_000.0, 125.0,
        ),
        # Hit-heavy cookie cache, a sketch handoff every period, and
        # memory that grows with the population (bench --scale settings).
        Workload(
            "zipf-1m-sketch", "zipf-1m", PERIODICAL, "columnar",
            50_000.0, 1_000.0,
            options={
                "user_stats": "sketch",
                "quantile_epsilon": 0.05,
                "decode_memo_capacity": 65_536,
                "cache_admission": "tinylfu",
            },
        ),
        # The only workload on the persistent tier: the agg fold runs
        # in a ring-fed worker process.
        Workload(
            "per-packet-offload", "ad", PER_PACKET, "persistent",
            20_000.0, 125.0, same_report_as="per-packet",
        ),
    )
}
