"""Supervised shard runtime: crash recovery must be invisible.

The contract under test: a :class:`ShardSupervisor` run with injected
worker crashes, timeouts, retry exhaustion, or scripted mid-run backend
degradations produces **byte-identical** snapshots and reports to the
fault-free :class:`ShardExecutor` reference — and the recovery replays
only the failed epoch's tail, never the whole stream.

Everything here runs with ``processes=0`` (in-process dispatch through
the *same* worker function the pool uses) so the assertions are exact
and deterministic; one pool test exercises the multiprocess path and
tolerates the sandboxed-CI fallback.
"""

import pytest

from repro.chaos import ShardCrash, ShardFaultPlan
from repro.core.aggregation import ForwardingMode
from repro.obs.registry import MetricsRegistry
from repro.testbed.executor import ShardExecutor, ShardSpec
from repro.testbed.fastpath import BENCH_APP_ID, FastpathFixture
from repro.testbed.supervisor import ShardSupervisor

from tests.differential.workloads import PATHS, backend_of, gate

SEEDS = (3, 19, 71)


def _lark_spec(fixture, dedup=False):
    return ShardSpec(
        kind="lark",
        app_id=BENCH_APP_ID,
        schema=fixture.schema,
        key=fixture.key,
        specs=tuple(fixture.specs),
        seed=fixture.seed,
        mode=ForwardingMode.PERIODICAL,
        period_ms=1000.0,
        dedup=dedup,
    )


def _agg_spec(fixture):
    return ShardSpec(
        kind="agg",
        app_id=BENCH_APP_ID,
        schema=fixture.schema,
        key=fixture.key,
        specs=tuple(fixture.specs),
        seed=fixture.seed,
    )


def _stream(fixture, packets=600):
    return [bytes(c) for c in fixture.make_cids(packets)]


def _agg_payloads(fixture, packets=400):
    payload_fixture = FastpathFixture(
        mode=ForwardingMode.PER_PACKET,
        num_users=150,
        seed=fixture.seed,
    )
    return [
        r.aggregation_payload
        for r in payload_fixture.new_lark().process_quic_batch(
            payload_fixture.make_cids(packets)
        )
        if r.aggregation_payload is not None
    ]


def _supervisor(spec, plan=None, **kwargs):
    defaults = dict(
        shards=3,
        processes=0,
        backend="columnar",
        chunk_size=32,
        checkpoint_batches=2,
        fault_plan=plan,
        backoff_base_s=0.0,
        sleep=lambda _s: None,
        registry=MetricsRegistry(),
    )
    defaults.update(kwargs)
    return ShardSupervisor(spec, **defaults)


class TestFaultFreeEquivalence:
    """No faults: the supervisor is just a checkpointing executor."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("path", PATHS)
    def test_matches_shard_executor_on_lark(self, seed, path):
        fixture = FastpathFixture(num_users=150, seed=seed)
        stream = _stream(fixture)
        spec = _lark_spec(fixture)
        backend = backend_of(path)
        with gate(path):
            reference = ShardExecutor(
                spec, shards=3, processes=1, backend=backend, chunk_size=64
            ).run(stream)
            supervised = _supervisor(spec, backend=backend).run(stream)
        assert supervised.snapshot == reference.snapshot
        assert supervised.report == reference.report
        assert supervised.crashes == 0
        assert supervised.retries == 0
        assert supervised.recovered_packets == 0
        assert supervised.total_packets == len(stream)

    def test_matches_shard_executor_on_agg(self):
        fixture = FastpathFixture(num_users=150, seed=5)
        payloads = _agg_payloads(fixture)
        spec = _agg_spec(fixture)
        reference = ShardExecutor(
            spec, shards=3, processes=1, backend="columnar", chunk_size=64
        ).run(payloads)
        supervised = _supervisor(spec).run(payloads)
        assert supervised.snapshot == reference.snapshot
        assert supervised.report == reference.report

    def test_checkpoints_taken_at_epoch_boundaries(self):
        fixture = FastpathFixture(num_users=150, seed=5)
        stream = _stream(fixture)
        spec = _lark_spec(fixture)
        supervisor = _supervisor(spec)
        result = supervisor.run(stream)
        # one checkpoint per completed epoch, across all shards
        assert result.checkpoints == sum(result.epochs)
        assert result.checkpoints >= result.shards
        registry = supervisor.registry
        assert registry.value("supervisor.checkpoints") == result.checkpoints


class TestCrashRecovery:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_scripted_kill_recovers_bit_identical(self, seed):
        fixture = FastpathFixture(num_users=150, seed=seed)
        stream = _stream(fixture)
        spec = _lark_spec(fixture)
        baseline = _supervisor(spec).run(stream)
        plan = ShardFaultPlan(seed=seed).kill_shard(1, at_batch=2)
        supervisor = _supervisor(spec, plan=plan)
        faulted = supervisor.run(stream)
        assert faulted.snapshot == baseline.snapshot
        assert faulted.report == baseline.report
        assert faulted.crashes == 1
        assert faulted.retries == 1
        # tail-only recovery: at most one epoch replayed per crash
        assert 0 < faulted.recovered_packets <= supervisor.epoch_size
        assert supervisor.registry.value("supervisor.crashes") == 1
        assert supervisor.registry.value(
            "supervisor.recovered_packets"
        ) == faulted.recovered_packets

    def test_crash_in_first_epoch_restarts_from_empty(self):
        fixture = FastpathFixture(num_users=150, seed=7)
        stream = _stream(fixture)
        spec = _lark_spec(fixture)
        baseline = _supervisor(spec).run(stream)
        plan = ShardFaultPlan().kill_shard(0, at_batch=0)
        faulted = _supervisor(spec, plan=plan).run(stream)
        assert faulted.snapshot == baseline.snapshot
        assert faulted.crashes == 1

    @pytest.mark.parametrize("seed", SEEDS)
    def test_seeded_crash_probability_recovers_and_is_deterministic(
        self, seed
    ):
        fixture = FastpathFixture(num_users=150, seed=seed)
        stream = _stream(fixture)
        spec = _lark_spec(fixture)
        baseline = _supervisor(spec).run(stream)
        plan = ShardFaultPlan(seed=seed, crash_probability=0.25)
        first = _supervisor(spec, plan=plan, max_retries=5).run(stream)
        second = _supervisor(spec, plan=plan, max_retries=5).run(stream)
        assert first.snapshot == baseline.snapshot
        assert first.report == baseline.report
        # same plan, same seed: same crash schedule, same tallies
        assert first.crashes == second.crashes
        assert first.recovered_packets == second.recovered_packets
        assert first.snapshot == second.snapshot

    def test_retry_exhaustion_salvages_in_process(self):
        fixture = FastpathFixture(num_users=150, seed=9)
        stream = _stream(fixture)
        spec = _lark_spec(fixture)
        baseline = _supervisor(spec).run(stream)
        # dies on every attempt the supervisor is willing to make
        plan = ShardFaultPlan().kill_shard(2, at_batch=2, times=10)
        supervisor = _supervisor(spec, plan=plan, max_retries=2)
        faulted = supervisor.run(stream)
        assert faulted.salvaged == [2]
        assert faulted.snapshot == baseline.snapshot
        assert faulted.report == baseline.report
        assert supervisor.registry.value("supervisor.salvages") == 1

    def test_backoff_is_bounded_and_exponential(self):
        fixture = FastpathFixture(num_users=100, seed=9)
        stream = _stream(fixture, packets=400)
        spec = _lark_spec(fixture)
        plan = ShardFaultPlan().kill_shard(0, at_batch=0, times=3)
        slept = []
        _supervisor(
            spec,
            plan=plan,
            max_retries=3,
            backoff_base_s=0.1,
            backoff_max_s=0.25,
            sleep=slept.append,
        ).run(stream)
        assert slept == [0.1, 0.2, 0.25]  # doubled, then clamped


class TestScriptedDegradation:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("start,to,tier", [
        ("columnar", "scalar", 0), ("scalar", "columnar", 1),
    ])
    def test_mid_run_degradation_changes_nothing_but_the_backend(
        self, seed, start, to, tier
    ):
        """``supervisor.backend_tier`` ends on the index of the last
        backend in ``BACKENDS``."""
        fixture = FastpathFixture(num_users=150, seed=seed)
        stream = _stream(fixture)
        spec = _lark_spec(fixture)
        baseline = _supervisor(spec).run(stream)
        plan = ShardFaultPlan().degrade_backend(2, to)
        supervisor = _supervisor(spec, plan=plan, backend=start)
        degraded = supervisor.run(stream)
        assert degraded.snapshot == baseline.snapshot
        assert degraded.report == baseline.report
        assert degraded.backends[:2] == [start, start]
        assert set(degraded.backends[2:]) == {to}
        assert supervisor.registry.value("supervisor.degradations") == 1
        assert supervisor.registry.value("supervisor.backend_tier") == tier

    def test_degradation_composes_with_a_crash(self):
        fixture = FastpathFixture(num_users=150, seed=13)
        stream = _stream(fixture)
        spec = _lark_spec(fixture)
        baseline = _supervisor(spec).run(stream)
        plan = (
            ShardFaultPlan(seed=13)
            .kill_shard(1, at_batch=3)
            .degrade_backend(1, "scalar")
        )
        faulted = _supervisor(spec, plan=plan).run(stream)
        assert faulted.snapshot == baseline.snapshot
        assert faulted.crashes == 1


class TestValidationAndPool:
    def test_lark_dedup_is_rejected(self):
        fixture = FastpathFixture(num_users=50, seed=3)
        spec = _lark_spec(fixture, dedup=True)
        with pytest.raises(ValueError, match="dedup"):
            ShardSupervisor(spec)

    def test_bad_parameters_rejected(self):
        fixture = FastpathFixture(num_users=50, seed=3)
        spec = _lark_spec(fixture)
        with pytest.raises(ValueError):
            ShardSupervisor(spec, backend="gpu")
        with pytest.raises(ValueError):
            ShardSupervisor(spec, shards=0)
        with pytest.raises(ValueError):
            ShardSupervisor(spec, checkpoint_batches=0)

    def test_pool_path_matches_inline(self):
        """Multiprocess dispatch — or, on hosts where spawn pools are
        unavailable, the supervised inline fallback — must land on the
        same snapshot.  Which path ran is reported, not assumed."""
        fixture = FastpathFixture(num_users=100, seed=21)
        stream = _stream(fixture, packets=300)
        spec = _lark_spec(fixture)
        inline = _supervisor(spec, chunk_size=64).run(stream)
        supervisor = _supervisor(
            spec,
            chunk_size=64,
            processes=2,
            job_timeout_s=30.0,
            max_retries=0,
        )
        pooled = supervisor.run(stream)
        assert pooled.snapshot == inline.snapshot
        assert pooled.report == inline.report
        if not pooled.used_pool:
            assert pooled.fallback_cause or pooled.timeouts >= 0


class TestExecutorFallbackCause:
    def test_pool_failure_surfaces_cause_and_counter(self, monkeypatch):
        import multiprocessing

        fixture = FastpathFixture(num_users=100, seed=31)
        stream = _stream(fixture, packets=300)
        spec = _lark_spec(fixture)

        def _broken(method):
            raise OSError("no process spawning here")

        monkeypatch.setattr(multiprocessing, "get_context", _broken)
        registry = MetricsRegistry()
        executor = ShardExecutor(
            spec, shards=2, processes=2, backend="columnar",
            registry=registry,
        )
        with gate("no_numpy"):
            result = executor.run(stream)
        assert not result.used_pool
        assert result.fallback_cause is not None
        assert "OSError" in result.fallback_cause
        assert executor.last_error == result.fallback_cause
        assert registry.value("shard_executor.pool_fallbacks") == 1

    def test_sequential_run_has_no_fallback_cause(self):
        fixture = FastpathFixture(num_users=100, seed=31)
        stream = _stream(fixture, packets=200)
        spec = _lark_spec(fixture)
        with gate("no_numpy"):
            result = ShardExecutor(
                spec, shards=2, processes=1, backend="columnar",
                registry=MetricsRegistry(),
            ).run(stream)
        assert not result.used_pool
        assert result.fallback_cause is None
