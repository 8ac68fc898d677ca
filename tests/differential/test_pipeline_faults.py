"""Fault stages of the streaming pipeline: dead letters, bounded
in-flight prefetch, and period-boundary checkpoints.

Extends the streaming differential suite with the robustness contract:
corrupted aggregation payloads become counted **dead letters** instead
of aborting or silently skewing the fold; the bounded in-flight
prefetch changes stage overlap but not one observable bit; and the
period checkpoints the pipeline takes are exactly the snapshots a
crashed replica would restore.
"""

import pytest

from repro.core.aggregation import ForwardingMode
from repro.obs.registry import MetricsRegistry
from repro.testbed.pipeline import StreamingPipeline
from repro.workloads.adcampaign import AdCampaignWorkload

from tests.differential.workloads import PATHS, backend_of, gate

RATE = 3000.0
DURATION_MS = 400.0
PERIOD_MS = 100.0
ONE_SHOT = 1 << 20


def _pipe(backend, **kwargs):
    workload = AdCampaignWorkload(num_users=80, seed=11)
    defaults = dict(
        seed=11,
        mode=ForwardingMode.PERIODICAL,
        period_ms=PERIOD_MS,
        backend=backend,
        batch_size=64,
        registry=MetricsRegistry(),
    )
    defaults.update(kwargs)
    return StreamingPipeline(workload, **defaults)


def _run(path, collect_results=False, **kwargs):
    pipe = _pipe(backend_of(path), **kwargs)
    with gate(path):
        return pipe, pipe.run(
            RATE, DURATION_MS, collect_results=collect_results
        )


def _observables(result):
    return (
        result.report,
        result.register_state,
        result.payloads,
        result.merged,
        result.periods,
    )


class TestDeadLetters:
    @pytest.mark.parametrize("backend", PATHS)
    def test_corrupted_payloads_become_dead_letters(self, backend):
        pipe, result = _run(backend, corrupt_probability=0.3)
        assert pipe.corrupted > 0  # the fault stage actually fired
        assert result.dead_letters > 0
        assert result.dead_letters <= pipe.corrupted
        assert (
            pipe.registry.value("pipeline.dead_letters")
            == result.dead_letters
        )

    @pytest.mark.parametrize("collect_results", (False, True))
    @pytest.mark.parametrize("backend", PATHS)
    def test_surviving_payloads_still_fold_correctly(
        self, backend, collect_results
    ):
        """Dead letters are dropped, never double-counted: the merged
        total is exactly (payloads - dead letters), whether or not the
        per-payload results are kept."""
        _, result = _run(
            backend, collect_results=collect_results,
            corrupt_probability=0.3,
        )
        assert result.dead_letters > 0
        assert result.merged == result.payloads - result.dead_letters
        if collect_results:
            assert len(result.agg_results) == result.payloads
            assert (
                sum(1 for r in result.agg_results if r.merged)
                == result.merged
            )
        else:
            assert result.agg_results == []

    @pytest.mark.parametrize("backend", PATHS)
    def test_switch_metrics_land_in_pipeline_registry(self, backend):
        """A pipeline's registry scopes its switches' metrics too."""
        pipe, result = _run(backend)
        assert (
            pipe.registry.value("lark.lark-pipe.packets") == result.events
        )
        assert pipe.registry.value("agg.agg-pipe.packets") == (
            result.payloads
        )

    def test_corruption_is_batch_shape_invariant(self):
        _, one_shot = _run(
            "no_numpy", corrupt_probability=0.3, batch_size=ONE_SHOT
        )
        for batch_size in (5, 64):
            _, streamed = _run(
                "no_numpy", corrupt_probability=0.3, batch_size=batch_size
            )
            assert _observables(streamed) == _observables(one_shot)
            assert streamed.dead_letters == one_shot.dead_letters

    def test_no_corruption_no_dead_letters(self):
        _, result = _run("no_numpy")
        assert result.dead_letters == 0
        assert result.counts_match_reference()


class TestBoundedInflight:
    @pytest.mark.parametrize("backend", PATHS)
    def test_prefetch_depth_never_changes_results(self, backend):
        _, reference = _run(backend, max_inflight=1)
        for depth in (2, 4, 16):
            _, result = _run(backend, max_inflight=depth)
            assert _observables(result) == _observables(reference), depth

    def test_inflight_peak_gauge_reflects_bound(self):
        pipe, _ = _run("no_numpy", max_inflight=3, batch_size=16)
        peak = pipe.registry.value("pipeline.inflight_peak")
        assert 1 <= peak <= 3

    def test_on_batch_hook_forces_lockstep(self):
        pipe = _pipe(
            "columnar", max_inflight=8, on_batch=lambda _p, _c: None
        )
        assert pipe.max_inflight == 1

    def test_invalid_inflight_rejected(self):
        with pytest.raises(ValueError):
            _pipe("columnar", max_inflight=0)


class TestPeriodCheckpoints:
    def test_checkpoints_taken_every_n_periods(self):
        pipe, result = _run("no_numpy", checkpoint_every_periods=2)
        assert result.periods >= 4
        assert result.checkpoints == result.periods // 2
        assert (
            pipe.registry.value("pipeline.checkpoints")
            == result.checkpoints
        )

    def test_last_checkpoint_restores_into_fresh_switches(self):
        """The pipeline's period checkpoint is a real recovery point:
        restoring it into fresh switches reproduces the registers."""
        pipe, _ = _run("no_numpy", checkpoint_every_periods=1)
        checkpoint = pipe.last_checkpoint
        assert checkpoint is not None
        assert checkpoint["period"] == pipe.periods

        clone = _pipe("columnar")
        clone.lark.restore(clone.app_id, checkpoint["lark"])
        clone.agg.restore(clone.app_id, checkpoint["agg"])
        assert (
            clone.lark.checkpoint(clone.app_id) == checkpoint["lark"]
        )
        assert clone.agg.checkpoint(clone.app_id) == checkpoint["agg"]

    def test_zero_means_no_checkpoints(self):
        pipe, result = _run("no_numpy")
        assert result.checkpoints == 0
        assert pipe.last_checkpoint is None
