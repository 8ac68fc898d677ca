"""Supervised shard runtime: per-shard dispatch, crash recovery,
checkpointed aggregation state.

:class:`~repro.testbed.executor.ShardExecutor` treats the worker pool
as all-or-nothing — one crashed or hung shard throws away *every*
shard's work and the whole stream is reprocessed sequentially.  This
module replaces that with a :class:`ShardSupervisor` that dispatches
**per-shard, per-epoch jobs** under independent timeouts:

* each shard's stream is cut into *epochs* of
  ``checkpoint_batches x chunk_size`` packets;
* an epoch job receives the shard's last **checkpoint** (the raw
  register snapshot the switch exposes via ``checkpoint()``), restores
  it into a fresh replica, streams one epoch, and returns the new
  snapshot — the supervisor owns the checkpoint store, so a worker
  death can never take saved state down with it;
* a failed or timed-out job is retried with bounded exponential
  backoff, replaying **only that epoch's tail** from the last
  checkpoint while other shards keep their completed work;
* a shard that exhausts its retries is *salvaged*: its remaining
  epochs run in-process with fault injection disabled, still from the
  last checkpoint.

Why the recovered state is bit-identical to a fault-free run: register
folds (add / min / max) are pure functions of per-shard packet order,
and ``checkpoint()``/``restore()`` round-trip the registers exactly —
so ``restore(C_e); replay(epoch e+1)`` computes the same cells as the
uninterrupted stream.  The differential suite and the chaos bench
assert this byte for byte.

Fault injection is scripted with
:class:`~repro.chaos.shard_faults.ShardFaultPlan` — deterministic
kills (``kill_shard(n, at_batch=k)``), seeded crash probabilities, and
scripted mid-run backend degradations, all picklable so they ride into
spawn workers unchanged.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.chaos.shard_faults import ShardCrash, ShardFaultPlan
from repro.core.stats import merge_snapshots
from repro.obs.registry import MetricsRegistry, get_registry
from repro.switch.columns import BACKENDS, PacketColumns, check_backend
from repro.testbed.executor import (
    ShardSpec,
    _build_switch,
    count_folded,
    partition_columns,
    partition_packets,
    render_report,
    shard_processor,
)
from repro.testbed.placement import PlacementController

__all__ = ["ShardSupervisor", "SupervisedRunResult"]

_LOG = logging.getLogger(__name__)

def _run_shard_epoch(
    args: Tuple[
        ShardSpec,  # switch recipe
        int,  # shard index
        List[bytes],  # this epoch's packets
        str,  # backend
        int,  # chunk size
        Optional[Dict[str, List[int]]],  # checkpoint to restore (or None)
        Optional[ShardFaultPlan],  # fault recipe (or None)
        int,  # epoch index
        int,  # attempt number
        int,  # chunk offset of this epoch in the shard stream
    ],
) -> Tuple[int, int, Dict[str, List[int]], Dict[str, int]]:
    """Pool worker: restore the checkpoint into a fresh replica, stream
    one epoch, return the next checkpoint snapshot.

    Top-level so the spawn start method can pickle it.  Stateless by
    design — all cross-epoch state travels in the checkpoint argument,
    so rerunning this function with the same arguments is always safe.
    """
    (
        spec, shard, packets, backend, chunk_size,
        checkpoint, plan, epoch, attempt, chunk_offset,
    ) = args
    switch = _build_switch(spec, shard)
    if checkpoint is not None:
        switch.restore(spec.app_id, checkpoint)
    injector = (
        plan.injector(shard, epoch, attempt, chunk_offset)
        if plan is not None
        else None
    )
    process = shard_processor(spec, switch, backend)
    folded = 0
    for batch_index, start in enumerate(range(0, len(packets), chunk_size)):
        if injector is not None:
            injector.before_batch(batch_index)
        folded += count_folded(process(packets[start:start + chunk_size]))
    counters = {"packets": len(packets), "folded": folded}
    return shard, epoch, switch.checkpoint(spec.app_id), counters


class _ShardState:
    """Supervisor-side bookkeeping for one shard's epoch chain."""

    __slots__ = (
        "shard", "packets", "epoch_size", "n_epochs", "epoch", "attempt",
        "checkpoint", "processed", "folded", "salvaged",
    )

    def __init__(self, shard: int, packets: List[bytes], epoch_size: int):
        self.shard = shard
        self.packets = packets
        self.epoch_size = epoch_size
        self.n_epochs = (
            (len(packets) + epoch_size - 1) // epoch_size if packets else 0
        )
        self.epoch = 0
        self.attempt = 0
        self.checkpoint: Optional[Dict[str, List[int]]] = None
        self.processed = 0
        self.folded = 0
        self.salvaged = False

    @property
    def done(self) -> bool:
        return self.epoch >= self.n_epochs

    def epoch_packets(self) -> List[bytes]:
        lo = self.epoch * self.epoch_size
        return self.packets[lo:lo + self.epoch_size]


class _ElasticShard:
    """Bookkeeping for one shard of the placement-driven runtime.

    Unlike :class:`_ShardState` there is no per-shard packet list —
    the global stream is cut into *windows* and each window is
    partitioned under the map that is live when it is cut, so a
    shard's work arrives window by window.  ``map_version`` records
    which map stamped the last completed checkpoint, and
    ``chunks_done`` the shard's cumulative chunk offset (the fault
    plan's kill coordinates stay whole-stream, exactly like the
    static runtime).
    """

    __slots__ = (
        "shard", "checkpoint", "processed", "folded", "epochs",
        "attempt", "chunks_done", "map_version", "salvaged",
    )

    def __init__(self, shard: int):
        self.shard = shard
        self.checkpoint: Optional[Dict[str, List[int]]] = None
        self.processed = 0
        self.folded = 0
        self.epochs = 0
        self.attempt = 0
        self.chunks_done = 0
        self.map_version = 0
        self.salvaged = False


@dataclass
class SupervisedRunResult:
    """Merged outcome of a supervised sharded run."""

    snapshot: Dict[str, List[int]]
    report: Dict[str, Any]
    shard_packets: List[int]
    shard_folded: List[int]
    used_pool: bool
    shards: int
    # recovery bookkeeping
    epochs: List[int]  # completed epochs per shard
    crashes: int  # worker deaths observed (injected or real)
    timeouts: int  # jobs abandoned on timeout
    retries: int  # epoch jobs re-dispatched after a failure
    recovered_packets: int  # packets replayed from checkpoints
    checkpoints: int  # snapshots taken at epoch flushes
    salvaged: List[int]  # shards finished by the in-process fallback
    backends: List[str]  # backend dispatched per epoch index
    fallback_cause: Optional[str] = None
    used_workers: bool = False  # persistent ring-fed workers ran the epochs
    worker_respawns: int = 0  # dead persistent workers replaced mid-run
    # elastic placement bookkeeping (placement runs only)
    map_versions: List[int] = field(default_factory=list)  # map per window
    placement_history: List[Dict[str, Any]] = field(default_factory=list)
    final_shards: int = 0  # fleet size after the last window (0 = static)

    @property
    def total_packets(self) -> int:
        return sum(self.shard_packets)


class ShardSupervisor:
    """Fan a packet stream across switch-replica shards under
    supervision: independent per-epoch jobs, bounded-backoff retries,
    checkpointed recovery, scripted fault injection.

    ``processes`` — pool size (``None`` = one per shard); 0 or 1 runs
    every job in-process through the *same* worker function, so the
    retry/checkpoint/salvage machinery is identical with or without a
    pool.  ``checkpoint_batches`` — chunks per epoch; an epoch flush is
    the checkpoint boundary, so a crash replays at most
    ``checkpoint_batches x chunk_size`` packets.  ``fault_plan`` — a
    :class:`ShardFaultPlan` scripting deterministic crashes and mid-run
    backend degradations.  ``sleep`` — injectable so tests can retry
    without real backoff delays.  ``persistent`` — run the epochs on
    long-lived ring-fed :class:`~repro.testbed.worker.ShardWorker`
    processes instead of per-epoch pool jobs: same checkpoint cadence
    and retry/salvage machinery, but an injected crash becomes a real
    ``SIGKILL`` of the worker and recovery is a respawn-restore-replay
    on the same shared-memory ring (falls back to the pool/inline paths
    when shared memory is unavailable).
    """

    def __init__(
        self,
        spec: ShardSpec,
        shards: int = 2,
        processes: Optional[int] = None,
        backend: str = "columnar",
        chunk_size: int = 4096,
        checkpoint_batches: int = 4,
        job_timeout_s: float = 60.0,
        max_retries: int = 2,
        backoff_base_s: float = 0.01,
        backoff_max_s: float = 1.0,
        fault_plan: Optional[ShardFaultPlan] = None,
        registry: Optional[MetricsRegistry] = None,
        sleep: Callable[[float], None] = time.sleep,
        persistent: bool = False,
        placement: Optional[PlacementController] = None,
    ):
        if placement is not None:
            shards = placement.map.shards
        if shards < 1:
            raise ValueError("shards must be >= 1")
        check_backend(backend)
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if checkpoint_batches < 1:
            raise ValueError("checkpoint_batches must be >= 1")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if spec.kind == "lark" and spec.dedup:
            # The dedup bloom filter lives outside the stats snapshot,
            # so restore+replay would double-count resent cookies.
            raise ValueError(
                "supervised lark shards require dedup=False "
                "(dedup state is not checkpointed)"
            )
        self.spec = spec
        self.shards = shards
        self.processes = shards if processes is None else processes
        self.backend = backend
        self.chunk_size = chunk_size
        self.checkpoint_batches = checkpoint_batches
        self.epoch_size = checkpoint_batches * chunk_size
        self.job_timeout_s = job_timeout_s
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self.fault_plan = fault_plan
        self.persistent = bool(persistent)
        # A PlacementController switches run() into the elastic
        # windowed mode: the global stream is cut into windows of
        # epoch_size x shards packets, each window partitioned under
        # the live PartitionMap, with rebalance/resize decisions taken
        # at the window barrier.  None = the static legacy runtime.
        self.placement = placement
        self.registry = registry if registry is not None else get_registry()
        self.last_error: Optional[str] = None
        self._sleep = sleep
        # run-scoped tallies, reset per run()
        self._crashes = 0
        self._timeouts = 0
        self._retries = 0
        self._recovered = 0
        self._checkpoints = 0
        self._salvaged: List[int] = []
        self._respawns = 0

    # -- per-epoch dispatch helpers ----------------------------------------

    def epoch_backend(self, epoch: int) -> str:
        """The backend dispatched for ``epoch`` — the configured one
        unless the fault plan scripts a degradation at or before it."""
        if self.fault_plan is None:
            return self.backend
        return self.fault_plan.backend_for_epoch(epoch, self.backend)

    def _job(self, state: _ShardState, fault_free: bool = False):
        backend = self.epoch_backend(state.epoch)
        return (
            self.spec,
            state.shard,
            state.epoch_packets(),
            backend,
            self.chunk_size,
            state.checkpoint,
            None if fault_free else self.fault_plan,
            state.epoch,
            state.attempt,
            state.epoch * self.checkpoint_batches,
        )

    def _on_success(
        self,
        state: _ShardState,
        snapshot: Dict[str, List[int]],
        counters: Dict[str, int],
    ) -> None:
        state.checkpoint = snapshot
        state.processed += counters["packets"]
        state.folded += counters["folded"]
        state.epoch += 1
        state.attempt = 0
        self._checkpoints += 1
        self.registry.counter("supervisor.checkpoints").inc()
        self.registry.counter("supervisor.epochs").inc()

    def _on_failure(self, state: _ShardState, kind: str, cause: str) -> None:
        """Book a failed epoch job and decide retry vs salvage."""
        self.last_error = cause
        if kind == "timeout":
            self._timeouts += 1
            self.registry.counter("supervisor.timeouts").inc()
        else:
            self._crashes += 1
            self.registry.counter("supervisor.crashes").inc()
        # The failed attempt's partial work is lost; the replay costs at
        # most one epoch from the last checkpoint.
        self._recovered += len(state.epoch_packets())
        self.registry.counter("supervisor.recovered_packets").inc(
            len(state.epoch_packets())
        )
        _LOG.warning(
            "shard epoch job failed",
            extra={
                "component": "shard_supervisor",
                "shard": state.shard,
                "epoch": state.epoch,
                "attempt": state.attempt,
                "failure": kind,
                "cause": cause,
            },
        )
        state.attempt += 1
        if state.attempt > self.max_retries:
            self._salvage(state)
            return
        self._retries += 1
        self.registry.counter("supervisor.retries").inc()
        backoff = min(
            self.backoff_max_s,
            self.backoff_base_s * (2 ** (state.attempt - 1)),
        )
        if backoff > 0:
            self._sleep(backoff)

    def _salvage(self, state: _ShardState) -> None:
        """Finish a retry-exhausted shard in-process, fault injection
        off, still resuming from its last checkpoint."""
        state.salvaged = True
        self._salvaged.append(state.shard)
        self.registry.counter("supervisor.salvages").inc()
        _LOG.warning(
            "shard retries exhausted, salvaging in-process",
            extra={
                "component": "shard_supervisor",
                "shard": state.shard,
                "epoch": state.epoch,
            },
        )
        while not state.done:
            _, _, snapshot, counters = _run_shard_epoch(
                self._job(state, fault_free=True)
            )
            self._on_success(state, snapshot, counters)

    # -- execution ---------------------------------------------------------

    def run(self, packets: Sequence[bytes]) -> SupervisedRunResult:
        """Process ``packets`` across all shards under supervision and
        fold the final checkpoints into one snapshot + report."""
        self.last_error = None
        self._crashes = self._timeouts = self._retries = 0
        self._recovered = self._checkpoints = 0
        self._salvaged = []
        self._respawns = 0
        if self.placement is not None:
            return self._run_elastic(packets)
        if isinstance(packets, PacketColumns):
            packets = packets.raw
        parts = partition_packets(self.spec, self.shards, packets)
        states = [
            _ShardState(shard, part, self.epoch_size)
            for shard, part in enumerate(parts)
        ]
        fallback_cause: Optional[str] = None
        used_pool = False
        used_workers = False
        if self.persistent:
            used_workers = self._run_persistent(states)
            if not used_workers:
                fallback_cause = self.last_error
                self.registry.counter("supervisor.worker_fallbacks").inc()
        if not used_workers:
            if self.processes > 1 and self.shards > 1:
                used_pool = self._run_pool(states)
                if not used_pool:
                    fallback_cause = self.last_error
                    self.registry.counter("supervisor.pool_fallbacks").inc()
                    self._run_inline(states)
            else:
                self._run_inline(states)
        # fold final checkpoints exactly like the bank read-out
        snapshot: Optional[Dict[str, List[int]]] = None
        specs = list(self.spec.specs)
        for state in states:
            if state.checkpoint is None:
                continue
            snapshot = (
                {n: list(c) for n, c in state.checkpoint.items()}
                if snapshot is None
                else merge_snapshots(specs, snapshot, state.checkpoint)
            )
        max_epochs = max((s.n_epochs for s in states), default=0)
        backends = [self.epoch_backend(e) for e in range(max_epochs)]
        for prev, cur in zip(backends, backends[1:]):
            if cur != prev:
                self.registry.counter("supervisor.degradations").inc()
        if backends:
            self.registry.gauge("supervisor.backend_tier").set(
                BACKENDS.index(backends[-1])
            )
        return SupervisedRunResult(
            snapshot=snapshot or {},
            report=render_report(self.spec, self.shards, snapshot),
            shard_packets=[s.processed for s in states],
            shard_folded=[s.folded for s in states],
            used_pool=used_pool,
            shards=self.shards,
            epochs=[s.epoch for s in states],
            crashes=self._crashes,
            timeouts=self._timeouts,
            retries=self._retries,
            recovered_packets=self._recovered,
            checkpoints=self._checkpoints,
            salvaged=list(self._salvaged),
            backends=backends,
            fallback_cause=fallback_cause,
            used_workers=used_workers,
            worker_respawns=self._respawns,
        )

    def _run_persistent(self, states: List[_ShardState]) -> bool:
        """Run the epoch chain on long-lived ring-fed workers.

        One :class:`~repro.testbed.worker.ShardWorker` per shard lives
        for the whole run; each epoch is ``set_epoch`` (arms the fault
        injector) -> chunked ring pushes -> a checkpointing drain
        barrier under ``job_timeout_s``.  A healthy worker carries its
        replica state across epochs — bit-identical to the pool path
        because ``restore(C_e); replay(e+1)`` and ``continue`` compute
        the same register cells.  A dead or wedged worker surfaces as
        :class:`WorkerDied`; the supervisor books the failure through
        the same ``_on_failure`` retry/salvage machinery and respawns
        the worker on the SAME ring segment, restoring its last
        checkpoint so the retried epoch replays exactly.

        Returns ``False`` (states untouched) if the fleet cannot be
        built at all — no shared memory, spawn failure — so ``run()``
        can fall back to the pool/inline paths.
        """
        try:
            from repro.testbed.worker import ShardWorker, WorkerDied
        except Exception as exc:
            self.last_error = "%s: %s" % (type(exc).__name__, exc)
            return False
        workers: Dict[int, Any] = {}
        try:
            for state in states:
                if state.n_epochs:
                    workers[state.shard] = ShardWorker(
                        self.spec,
                        state.shard,
                        backend=self.backend,
                        row_capacity=max(self.chunk_size, 64),
                        row_width=64,
                        fault_plan=self.fault_plan,
                        reply_timeout_s=self.job_timeout_s,
                    )
        except Exception as exc:
            self.last_error = "%s: %s" % (type(exc).__name__, exc)
            for worker in workers.values():
                try:
                    worker.close()
                except Exception:
                    pass
            return False
        # Cumulative worker counters -> per-epoch deltas.  Reset to
        # zero whenever the worker process is replaced.
        bases: Dict[int, Tuple[int, int]] = {s: (0, 0) for s in workers}
        try:
            while any(not s.done for s in states):
                for state in states:
                    if state.done:
                        continue
                    worker = workers[state.shard]
                    try:
                        self._persistent_epoch(state, worker, bases)
                    except WorkerDied as exc:
                        kind = (
                            "crash" if worker.wait_dead(1.0) else "timeout"
                        )
                        self._on_failure(state, kind, str(exc))
                    except Exception as exc:
                        self._on_failure(
                            state,
                            "crash",
                            "%s: %s" % (type(exc).__name__, exc),
                        )
                    else:
                        continue
                    if state.done:
                        # Salvaged in-process; the stale worker is
                        # reaped when the fleet closes.
                        continue
                    worker.respawn(state.checkpoint)
                    bases[state.shard] = (0, 0)
                    self._respawns += 1
                    self.registry.counter(
                        "supervisor.worker_respawns"
                    ).inc()
        finally:
            for worker in workers.values():
                try:
                    worker.close()
                except Exception:
                    pass
        return True

    def _persistent_epoch(self, state: _ShardState, worker, bases) -> None:
        """One epoch over a persistent worker: arm, stream, drain."""
        from repro.switch.columns import PacketColumns, numpy_enabled

        backend = self.epoch_backend(state.epoch)
        worker.set_epoch(
            state.epoch,
            state.attempt,
            chunk_offset=state.epoch * self.checkpoint_batches,
            backend=backend,
        )
        items = state.epoch_packets()
        columnar = backend == "columnar" and numpy_enabled()
        for start in range(0, len(items), self.chunk_size):
            chunk = items[start:start + self.chunk_size]
            worker.push_batch(PacketColumns(chunk) if columnar else chunk)
        reply = worker.drain(
            checkpoint=True, timeout_s=self.job_timeout_s
        )
        counters = reply["counters"]
        base_packets, base_folded = bases[state.shard]
        bases[state.shard] = (counters["packets"], counters["folded"])
        self._on_success(
            state,
            reply["checkpoint"],
            {
                "packets": counters["packets"] - base_packets,
                "folded": counters["folded"] - base_folded,
            },
        )

    # -- elastic placement runtime -----------------------------------------

    def _run_elastic(self, packets) -> SupervisedRunResult:
        """Windowed execution under a live :class:`PlacementController`.

        The global stream is cut into windows of ``epoch_size x
        shards`` packets.  Each window is partitioned ONCE under the
        map that is live when it is cut (cached for the window), so
        retries and crash replays of a window job always run the map
        that was live — never a later one.  At the window barrier the
        per-bucket packet counts feed the controller, which may
        rebalance or resize the fleet for the *next* window; surplus
        persistent workers retire at the barrier and new ones spawn
        lazily, with their shard's last checkpoint restored (state
        lives in the supervisor, so placement changes migrate
        nothing).
        """
        from repro.testbed.executor import _slice_part

        controller = self.placement
        states: Dict[int, _ElasticShard] = {}
        workers: Dict[int, Any] = {}
        bases: Dict[int, Tuple[int, int]] = {}
        self._elastic_persistent = self.persistent
        self._elastic_fallback: Optional[str] = None
        used_workers = False
        map_versions: List[int] = []
        backends: List[str] = []
        columns = isinstance(packets, PacketColumns)
        n = len(packets)
        pos = 0
        window = 0
        try:
            while pos < n:
                pmap = controller.map
                shards = pmap.shards
                window_size = self.epoch_size * shards
                window_packets = (
                    _slice_part(packets, pos, pos + window_size)
                    if columns
                    else packets[pos:pos + window_size]
                )
                if columns:
                    parts, counts = partition_columns(
                        self.spec, pmap, window_packets
                    )
                else:
                    counts = [0] * pmap.buckets
                    parts = partition_packets(
                        self.spec, shards, window_packets, pmap, counts
                    )
                map_versions.append(pmap.version)
                backend = self.epoch_backend(window)
                backends.append(backend)
                for shard in range(shards):
                    part = parts[shard]
                    if not len(part):
                        continue
                    state = states.setdefault(
                        shard, _ElasticShard(shard)
                    )
                    self._elastic_shard_window(
                        state, part, window, pmap.version, backend,
                        workers, bases,
                    )
                    if self._elastic_persistent:
                        used_workers = True
                controller.observe(counts)
                new_map = controller.end_epoch()
                if new_map.shards < shards:
                    for shard in [
                        s for s in workers if s >= new_map.shards
                    ]:
                        try:
                            workers.pop(shard).close()
                        except Exception:  # pragma: no cover - teardown
                            pass
                        bases.pop(shard, None)
                pos += window_size
                window += 1
        finally:
            for worker in workers.values():
                try:
                    worker.close()
                except Exception:  # pragma: no cover - teardown
                    pass
        snapshot: Optional[Dict[str, List[int]]] = None
        specs = list(self.spec.specs)
        width = max(
            [controller.map.shards] + [s + 1 for s in states]
        )
        for shard in sorted(states):
            checkpoint = states[shard].checkpoint
            if checkpoint is None:
                continue
            snapshot = (
                {name: list(c) for name, c in checkpoint.items()}
                if snapshot is None
                else merge_snapshots(specs, snapshot, checkpoint)
            )
        for prev, cur in zip(backends, backends[1:]):
            if cur != prev:
                self.registry.counter("supervisor.degradations").inc()
        if backends:
            self.registry.gauge("supervisor.backend_tier").set(
                BACKENDS.index(backends[-1])
            )
        return SupervisedRunResult(
            snapshot=snapshot or {},
            report=render_report(self.spec, self.shards, snapshot),
            shard_packets=[
                states[s].processed if s in states else 0
                for s in range(width)
            ],
            shard_folded=[
                states[s].folded if s in states else 0
                for s in range(width)
            ],
            used_pool=False,
            shards=width,
            epochs=[
                states[s].epochs if s in states else 0
                for s in range(width)
            ],
            crashes=self._crashes,
            timeouts=self._timeouts,
            retries=self._retries,
            recovered_packets=self._recovered,
            checkpoints=self._checkpoints,
            salvaged=list(self._salvaged),
            backends=backends,
            fallback_cause=self._elastic_fallback,
            used_workers=used_workers,
            worker_respawns=self._respawns,
            map_versions=map_versions,
            placement_history=list(controller.history),
            final_shards=controller.map.shards,
        )

    def _elastic_worker(
        self,
        shard: int,
        checkpoint: Optional[Dict[str, List[int]]],
        workers: Dict[int, Any],
        bases: Dict[int, Tuple[int, int]],
    ):
        """Spawn-on-demand persistent worker for one shard.  A shard
        re-entering the fleet (growth after a shrink) restores its last
        checkpoint so the cumulative fold picks up where it left off.
        Returns ``None`` — and permanently disables the persistent
        path for this run — when the fleet cannot be built."""
        if not self._elastic_persistent:
            return None
        worker = workers.get(shard)
        if worker is not None:
            return worker
        try:
            from repro.testbed.worker import ShardWorker

            worker = ShardWorker(
                self.spec,
                shard,
                backend=self.backend,
                row_capacity=max(self.chunk_size, 64),
                row_width=64,
                fault_plan=self.fault_plan,
                reply_timeout_s=self.job_timeout_s,
            )
            if checkpoint is not None:
                worker.restore(checkpoint)
        except Exception as exc:
            self.last_error = "%s: %s" % (type(exc).__name__, exc)
            self._elastic_persistent = False
            self._elastic_fallback = self.last_error
            self.registry.counter("supervisor.worker_fallbacks").inc()
            return None
        workers[shard] = worker
        bases[shard] = (0, 0)
        return worker

    def _elastic_shard_window(
        self,
        state: _ElasticShard,
        part: Any,
        window: int,
        map_version: int,
        backend: str,
        workers: Dict[int, Any],
        bases: Dict[int, Tuple[int, int]],
    ) -> None:
        """One shard's slice of one window under the retry machinery."""
        raw = part.raw if isinstance(part, PacketColumns) else part
        chunks = (len(raw) + self.chunk_size - 1) // self.chunk_size
        state.attempt = 0
        while True:
            worker = self._elastic_worker(
                state.shard, state.checkpoint, workers, bases
            )
            try:
                if worker is not None:
                    snapshot, counters = self._elastic_persistent_window(
                        state, part, window, map_version, backend,
                        worker, bases,
                    )
                else:
                    _, _, snapshot, counters = _run_shard_epoch((
                        self.spec, state.shard, raw, backend,
                        self.chunk_size, state.checkpoint,
                        self.fault_plan, window, state.attempt,
                        state.chunks_done,
                    ))
            except Exception as exc:
                kind = "crash"
                if worker is not None:
                    from repro.testbed.worker import WorkerDied

                    if isinstance(exc, WorkerDied):
                        kind = (
                            "crash" if worker.wait_dead(1.0) else "timeout"
                        )
                self._elastic_failure(
                    state, len(raw), kind,
                    "%s: %s" % (type(exc).__name__, exc),
                )
                if worker is not None:
                    worker.respawn(state.checkpoint)
                    bases[state.shard] = (0, 0)
                    self._respawns += 1
                    self.registry.counter(
                        "supervisor.worker_respawns"
                    ).inc()
                if state.attempt > self.max_retries:
                    self._elastic_salvage(
                        state, raw, window, map_version, backend, chunks
                    )
                    return
                continue
            self._elastic_success(
                state, snapshot, counters, map_version, chunks
            )
            return

    def _elastic_persistent_window(
        self,
        state: _ElasticShard,
        part: Any,
        window: int,
        map_version: int,
        backend: str,
        worker,
        bases: Dict[int, Tuple[int, int]],
    ) -> Tuple[Dict[str, List[int]], Dict[str, int]]:
        """Arm, stream and checkpoint-drain one window slice."""
        from repro.switch.columns import numpy_enabled
        from repro.testbed.executor import _slice_part

        worker.set_epoch(
            window,
            state.attempt,
            chunk_offset=state.chunks_done,
            backend=backend,
            map_version=map_version,
        )
        columnar = backend == "columnar" and numpy_enabled()
        for start in range(0, len(part), self.chunk_size):
            chunk = _slice_part(part, start, start + self.chunk_size)
            if columnar and not isinstance(chunk, PacketColumns):
                chunk = PacketColumns(chunk)
            elif not columnar and isinstance(chunk, PacketColumns):
                chunk = chunk.raw
            worker.push_batch(chunk)
        reply = worker.drain(
            checkpoint=True, timeout_s=self.job_timeout_s
        )
        counters = reply["counters"]
        base_packets, base_folded = bases[state.shard]
        bases[state.shard] = (counters["packets"], counters["folded"])
        return reply["checkpoint"], {
            "packets": counters["packets"] - base_packets,
            "folded": counters["folded"] - base_folded,
        }

    def _elastic_success(
        self,
        state: _ElasticShard,
        snapshot: Dict[str, List[int]],
        counters: Dict[str, int],
        map_version: int,
        chunks: int,
    ) -> None:
        state.checkpoint = snapshot
        state.map_version = map_version
        state.processed += counters["packets"]
        state.folded += counters["folded"]
        state.epochs += 1
        state.chunks_done += chunks
        state.attempt = 0
        self._checkpoints += 1
        self.registry.counter("supervisor.checkpoints").inc()
        self.registry.counter("supervisor.epochs").inc()

    def _elastic_failure(
        self, state: _ElasticShard, n_packets: int, kind: str, cause: str
    ) -> None:
        self.last_error = cause
        if kind == "timeout":
            self._timeouts += 1
            self.registry.counter("supervisor.timeouts").inc()
        else:
            self._crashes += 1
            self.registry.counter("supervisor.crashes").inc()
        self._recovered += n_packets
        self.registry.counter("supervisor.recovered_packets").inc(
            n_packets
        )
        _LOG.warning(
            "elastic shard window job failed",
            extra={
                "component": "shard_supervisor",
                "shard": state.shard,
                "map_version": state.map_version,
                "attempt": state.attempt,
                "failure": kind,
                "cause": cause,
            },
        )
        state.attempt += 1
        if state.attempt <= self.max_retries:
            self._retries += 1
            self.registry.counter("supervisor.retries").inc()
            backoff = min(
                self.backoff_max_s,
                self.backoff_base_s * (2 ** (state.attempt - 1)),
            )
            if backoff > 0:
                self._sleep(backoff)

    def _elastic_salvage(
        self,
        state: _ElasticShard,
        raw: List[bytes],
        window: int,
        map_version: int,
        backend: str,
        chunks: int,
    ) -> None:
        """Window-scoped salvage: finish this slice in-process with
        faults off, from the last checkpoint (the live map's partition
        is unchanged — salvage replays the same packets)."""
        if not state.salvaged:
            state.salvaged = True
            self._salvaged.append(state.shard)
            self.registry.counter("supervisor.salvages").inc()
        _LOG.warning(
            "elastic shard retries exhausted, salvaging in-process",
            extra={
                "component": "shard_supervisor",
                "shard": state.shard,
                "window": window,
            },
        )
        _, _, snapshot, counters = _run_shard_epoch((
            self.spec, state.shard, raw, backend, self.chunk_size,
            state.checkpoint, None, window, state.attempt,
            state.chunks_done,
        ))
        self._elastic_success(state, snapshot, counters, map_version, chunks)

    def _run_inline(self, states: List[_ShardState]) -> None:
        """In-process execution: same worker, same retry machinery."""
        for state in states:
            while not state.done:
                try:
                    _, _, snapshot, counters = _run_shard_epoch(
                        self._job(state)
                    )
                except Exception as exc:
                    self._on_failure(
                        state,
                        "crash",
                        "%s: %s" % (type(exc).__name__, exc),
                    )
                else:
                    self._on_success(state, snapshot, counters)

    def _run_pool(self, states: List[_ShardState]) -> bool:
        """Dispatch epoch jobs to a spawn pool, one in-flight job per
        shard, each collected under its own timeout.  Returns False if
        the pool could not be created or died irrecoverably (states are
        left consistent for the inline path to resume)."""
        try:
            import multiprocessing as mp

            ctx = mp.get_context("spawn")
            pool = ctx.Pool(min(self.processes, self.shards))
        except Exception as exc:
            self.last_error = "%s: %s" % (type(exc).__name__, exc)
            return False
        try:
            while any(not s.done for s in states):
                submitted = [
                    (state, pool.apply_async(_run_shard_epoch,
                                             (self._job(state),)))
                    for state in states
                    if not state.done
                ]
                rebuild = False
                for state, async_result in submitted:
                    if state.done:  # salvaged while draining this round
                        continue
                    try:
                        _, _, snapshot, counters = async_result.get(
                            timeout=self.job_timeout_s
                        )
                    except mp.TimeoutError:
                        # The worker may be wedged; replace the whole
                        # pool after the round so it cannot poison the
                        # next dispatch.
                        rebuild = True
                        self._on_failure(state, "timeout",
                                         "job timed out after %.1fs"
                                         % self.job_timeout_s)
                    except ShardCrash as exc:
                        self._on_failure(state, "crash",
                                         "ShardCrash: %s" % exc)
                    except Exception as exc:
                        self._on_failure(
                            state,
                            "crash",
                            "%s: %s" % (type(exc).__name__, exc),
                        )
                    else:
                        self._on_success(state, snapshot, counters)
                if rebuild:
                    pool.terminate()
                    pool.join()
                    pool = ctx.Pool(min(self.processes, self.shards))
        except Exception as exc:  # pool infrastructure itself failed
            self.last_error = "%s: %s" % (type(exc).__name__, exc)
            return False
        finally:
            pool.terminate()
            pool.join()
        return True
