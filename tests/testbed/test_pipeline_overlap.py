"""Pipelined stage overlap: back-pressure, tail flush, dead letters.

The persistent backend overlaps the generate/encode stage with the
worker's agg folding, bounded by ``max_inflight`` micro-batches.  The
regression wall here pins the three places that overlap could corrupt:

* **back-pressure** — results are bit-identical for any in-flight
  bound, the encode stage never runs more than ``max_inflight``
  batches ahead (``pipeline.inflight_peak`` gauge), and an
  ``on_batch`` hook forces lockstep (bound of 1) so rekeys cannot
  race the ring;
* **tail flush** — a run ending mid-period closes exactly one partial
  period after the streamed batches drain, identically on every tier;
* **dead letters** — corrupted payloads rejected *inside the worker*
  surface in the parent's ``dead_letters`` counter at the drain
  barrier, matching the in-process count exactly.

Persistent-tier cases skip where POSIX shared memory is unavailable;
the in-process overlap cases run everywhere.
"""

import pytest

from repro.core.aggregation import ForwardingMode
from repro.obs.registry import MetricsRegistry
from repro.testbed.pipeline import StreamingPipeline
from repro.testbed.shm_ring import shared_memory_available
from repro.workloads.adcampaign import AdCampaignWorkload

from tests.differential.workloads import PATHS, backend_of, gate

RATE = 3000.0
DURATION_MS = 400.0
# Not a divisor of the duration: the final period is partial and only
# the end-of-run tail flush can close it.
PERIOD_MS = 150.0

needs_shm = pytest.mark.skipif(
    not shared_memory_available(),
    reason="POSIX shared memory unavailable",
)


def _backends(*extra_skips):
    """Every pipeline backend, plus columnar with numpy forced off."""
    return [
        b for b in PATHS + ("persistent",)
        if (b != "persistent" or shared_memory_available())
        and b not in extra_skips
    ]


def _run(backend, registry=None, mode=ForwardingMode.PERIODICAL, **kw):
    workload = AdCampaignWorkload(num_users=80, seed=11)
    pipe = StreamingPipeline(
        workload,
        seed=11,
        mode=mode,
        period_ms=PERIOD_MS,
        backend=backend_of(backend),
        batch_size=64,
        registry=registry if registry is not None else MetricsRegistry(),
        **kw,
    )
    try:
        with gate(backend):
            result = pipe.run(RATE, DURATION_MS)
    finally:
        pipe.close()
    return pipe, result


def _observables(result):
    return (
        result.events,
        result.payloads,
        result.merged,
        result.periods,
        result.report,
        result.register_state,
        result.dead_letters,
    )


class TestMaxInflightBackPressure:
    @pytest.mark.parametrize("backend", _backends("scalar"))
    def test_results_invariant_under_any_bound(self, backend):
        _, reference = _run(backend, max_inflight=1)
        assert reference.counts_match_reference()
        for bound in (2, 4, 8):
            _, overlapped = _run(backend, max_inflight=bound)
            assert _observables(overlapped) == _observables(reference), (
                backend, bound,
            )

    @needs_shm
    def test_peak_respects_the_bound(self):
        """The encode stage may fill the window but never overrun it —
        the producer blocks on the ring instead of buffering unboundedly
        when the worker falls behind."""
        for bound in (1, 3):
            registry = MetricsRegistry()
            _run("persistent", registry=registry, max_inflight=bound)
            peak = registry.value("pipeline.inflight_peak")
            assert 1 <= peak <= bound, (bound, peak)

    @needs_shm
    def test_overlap_actually_happens(self):
        registry = MetricsRegistry()
        _run("persistent", registry=registry, max_inflight=4)
        assert registry.value("pipeline.inflight_peak") > 1

    def test_on_batch_hook_forces_lockstep(self):
        pipe, _ = _run(
            "no_numpy", max_inflight=8, on_batch=lambda _p, _c: None
        )
        assert pipe.max_inflight == 1


class TestTailFlush:
    @pytest.mark.parametrize("backend", _backends())
    def test_partial_final_period_is_flushed_once(self, backend):
        _, result = _run(backend)
        # 400ms at 150ms periods: two in-stream boundaries plus
        # exactly one tail flush for the partial third period.
        assert result.periods == 3, backend
        assert result.counts_match_reference(), backend

    @needs_shm
    def test_tail_flush_identical_across_tiers(self):
        _, persistent = _run("persistent")
        for backend in PATHS:
            _, inline = _run(backend)
            assert _observables(persistent) == _observables(inline), backend

    @needs_shm
    def test_per_packet_mode_has_no_period_flushes(self):
        _, result = _run("persistent", mode=ForwardingMode.PER_PACKET)
        assert result.periods == 0
        assert result.counts_match_reference()


class TestDeadLetters:
    @needs_shm
    def test_worker_side_rejects_surface_in_parent_counter(self):
        """Corrupt a slice of payloads: the worker's AggSwitch rejects
        them at decode, and the drain barrier folds the worker's
        unmerged tally into the parent's dead_letters — byte-identical
        to the in-process columnar run, merged totals included."""
        kw = dict(mode=ForwardingMode.PER_PACKET, corrupt_probability=0.05)
        _, inline = _run("columnar", **kw)
        _, streamed = _run("persistent", **kw)
        assert inline.dead_letters > 0
        assert _observables(streamed) == _observables(inline)
        # Every emitted payload either merged or became a dead letter.
        assert streamed.merged + streamed.dead_letters == streamed.payloads

    @needs_shm
    def test_dead_letters_do_not_leak_into_overlap_window(self):
        """Back-pressure plus corruption: a rejected payload in batch N
        must not desync the fold of batches N+1.. already queued on the
        ring."""
        kw = dict(mode=ForwardingMode.PER_PACKET, corrupt_probability=0.1)
        _, lockstep = _run("persistent", max_inflight=1, **kw)
        _, overlapped = _run("persistent", max_inflight=8, **kw)
        assert lockstep.dead_letters > 0
        assert _observables(overlapped) == _observables(lockstep)

    def test_clean_run_has_zero_dead_letters(self):
        for backend in _backends():
            _, result = _run(backend, mode=ForwardingMode.PER_PACKET)
            assert result.dead_letters == 0, backend
