"""Persistent shard workers: long-lived switch replicas fed by rings.

:mod:`repro.testbed.executor` dispatches every run through a fresh
``multiprocessing.Pool`` job — spawn, pickle the packets in, pickle the
snapshot out, tear down.  A :class:`ShardWorker` instead keeps ONE
replica process alive for the life of the executor and streams batches
to it through a :class:`~repro.testbed.shm_ring.ColumnRing`; steady-
state ingest costs one shared-memory write per batch, no pickling and
no process churn.

The worker runs a small **command loop**.  Data and control both travel
through the ring (control slots carry a pickled command tuple), so a
command is totally ordered with respect to the batches around it — a
``rekey`` pushed after batch N is guaranteed to apply before batch N+1,
exactly like the in-process pipeline.  Replies (drain snapshots,
checkpoints, counters) return over a dedicated ``Pipe``:

====================  =====================================================
command               effect
====================  =====================================================
``("epoch", ...)``    arm the fault injector for (epoch, attempt) and set
                      the execution backend for subsequent batches
``("rekey", key)``    re-register the app under a new key (epoch bump)
``("restore", snap)`` load a checkpoint into the replica (crash replay)
``("barrier", ...)``  reply with counters + fold snapshot (+ checkpoint);
                      optionally reset the replica for a fresh run
``("shutdown",)``     acknowledge and exit cleanly
====================  =====================================================

Faults: a :class:`~repro.chaos.shard_faults.ShardFaultPlan` rides into
the worker at spawn.  Where the pool runtime surfaced an injected
:class:`ShardCrash` as a raised exception, a persistent worker turns it
into a **real ``SIGKILL`` of itself** — the supervisor must detect the
silent death through liveness probes and replay from the last
checkpoint, which is precisely the failure mode the chaos suite
certifies.

Lifecycle: the parent owns the ring segment and the worker only ever
attaches; killing the worker with ``kill -9`` therefore cannot unlink
the ring, and :meth:`ShardWorker.respawn` reuses the same segment after
a :meth:`~repro.testbed.shm_ring.ColumnRing.reset`.  ``close()`` is
idempotent and unlinks exactly once, in the parent.
"""

from __future__ import annotations

import os
import pickle
import signal
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.chaos.shard_faults import ShardCrash, ShardFaultPlan
from repro.switch.columns import PacketColumns, check_backend
from repro.testbed.executor import (
    ShardSpec,
    _build_switch,
    count_folded,
    shard_processor,
)
from repro.testbed.shm_ring import (
    KIND_CONTROL,
    ColumnRing,
    RingClosed,
    shared_memory_available,
)

__all__ = ["ShardWorker", "WorkerDied"]


class WorkerDied(RuntimeError):
    """The persistent worker is gone (crash or kill) — the caller must
    respawn and replay from its last checkpoint."""


def _fold_snapshot(spec: ShardSpec, switch) -> Dict[str, List[int]]:
    if spec.kind == "lark":
        return switch._apps[spec.app_id].stats.snapshot()
    return switch.merge(spec.app_id)


def _worker_main(
    descriptor: Dict[str, int],
    spec: ShardSpec,
    shard_index: int,
    backend: str,
    conn,
    plan: Optional[ShardFaultPlan],
) -> None:
    """Child entry point: attach the ring, build the replica, loop."""
    ring = ColumnRing.attach(descriptor)
    switch = _build_switch(spec, shard_index)
    active = backend
    process = shard_processor(spec, switch, active)
    injector = None
    local_batch = 0
    packets = 0
    folded = 0
    map_version = 0
    parent = os.getppid()
    # Readiness handshake: the parent blocks until the replica is
    # built, so the spawn import storm cannot bleed into (and distort)
    # the caller's steady-state ingest window.
    conn.send({"ready": True})

    try:
        while True:
            try:
                view = ring.pop(timeout=1.0)
            except RingClosed:
                break
            if view is None:
                # Idle tick: a worker must not outlive its parent (an
                # orphan would pin the shm mapping forever).
                if os.getppid() != parent:
                    break
                continue
            if view.kind == KIND_CONTROL:
                command = pickle.loads(view.body())
                ring.release()
                op = command[0]
                if op == "epoch":
                    (
                        _op, epoch, attempt, chunk_offset, epoch_backend,
                        map_version,
                    ) = command
                    if epoch_backend:
                        active = epoch_backend
                        process = shard_processor(spec, switch, active)
                    local_batch = 0
                    injector = (
                        plan.injector(
                            shard_index, epoch, attempt, chunk_offset
                        )
                        if plan is not None
                        else None
                    )
                elif op == "rekey":
                    switch.rekey_application(spec.app_id, command[1])
                elif op == "restore":
                    switch.restore(spec.app_id, command[1])
                elif op == "barrier":
                    _op, reset, want_checkpoint, want_user_stats = command
                    reply = {
                        "counters": {
                            "packets": packets,
                            "folded": folded,
                            "unmerged": packets - folded,
                        },
                        "snapshot": _fold_snapshot(spec, switch),
                        "checkpoint": (
                            switch.checkpoint(spec.app_id)
                            if want_checkpoint
                            else None
                        ),
                        # The placement-map version last armed via the
                        # epoch command — rides OUTSIDE the raw switch
                        # checkpoint (restore() must see registers
                        # only), so supervisors can verify that crash
                        # replay uses the map that was live.
                        "map_version": map_version,
                    }
                    if spec.kind == "lark" and want_user_stats:
                        # Destructive (snapshot-and-reset), so only on
                        # request — a checkpointing epoch barrier must
                        # leave the tracker in place for the next
                        # epoch's checkpoint to carry it.
                        reply["user_stats"] = switch.drain_user_stats(
                            spec.app_id
                        )
                    conn.send(reply)
                    if reset:
                        switch = _build_switch(spec, shard_index)
                        active = backend
                        process = shard_processor(spec, switch, active)
                        packets = 0
                        folded = 0
                        local_batch = 0
                        injector = None
                elif op == "shutdown":
                    conn.send({"counters": {
                        "packets": packets,
                        "folded": folded,
                        "unmerged": packets - folded,
                    }})
                    break
                continue
            # DATA slot.
            if injector is not None:
                try:
                    injector.before_batch(local_batch)
                except ShardCrash:
                    # The pool runtime raised this to its parent; a
                    # persistent worker dies for real — the supervisor
                    # must notice the corpse, not catch an exception.
                    conn.close()
                    os.kill(os.getpid(), signal.SIGKILL)
            local_batch += 1
            n = view.n_rows
            columnar = active == "columnar"
            try:
                folded += count_folded(
                    process(view.columns() if columnar else view.rows())
                )
            except Exception:
                # Poison isolation, mirroring StreamingPipeline's
                # _agg_process: a batch entry point that raises (truly
                # malformed input, not a mere decode failure) is
                # retried row by row so one poison packet cannot kill
                # the worker — the poison stays unfolded (a dead
                # letter the parent reads off the counters).
                for row in view.rows():
                    try:
                        folded += count_folded(
                            process(PacketColumns([row]) if columnar else [row])
                        )
                    except Exception:
                        pass
            packets += n
            ring.release()
    finally:
        try:
            ring.close()
        except Exception:
            pass
        try:
            conn.close()
        except Exception:
            pass


class ShardWorker:
    """Parent-side handle on one persistent shard worker process."""

    def __init__(
        self,
        spec: ShardSpec,
        shard_index: int,
        backend: str = "columnar",
        ring_capacity: int = 8,
        row_capacity: int = 4096,
        row_width: int = 64,
        spill_bytes: int = 1 << 20,
        fault_plan: Optional[ShardFaultPlan] = None,
        reply_timeout_s: float = 60.0,
    ):
        if not shared_memory_available():
            raise RuntimeError(
                "persistent workers need POSIX shared memory"
            )
        check_backend(backend)
        self.spec = spec
        self.shard_index = shard_index
        self.backend = backend
        self.fault_plan = fault_plan
        self.reply_timeout_s = reply_timeout_s
        self.ring = ColumnRing.create(
            capacity=ring_capacity,
            row_capacity=row_capacity,
            row_width=row_width,
            spill_bytes=spill_bytes,
        )
        self.restarts = 0
        self._proc = None
        self._conn = None
        try:
            self._spawn()
        except BaseException:
            # A child that never became ready must not outlive the
            # constructor, and nobody else holds the ring to unlink it.
            self._reap()
            self.ring.close()
            raise

    # -- process lifecycle -------------------------------------------------

    def _spawn(self) -> None:
        import multiprocessing as mp

        ctx = mp.get_context("spawn")
        self._conn, child_conn = ctx.Pipe()
        proc = ctx.Process(
            target=_worker_main,
            args=(
                self.ring.descriptor,
                self.spec,
                self.shard_index,
                self.backend,
                child_conn,
                self.fault_plan,
            ),
            daemon=True,
        )
        proc.start()
        self._proc = proc
        child_conn.close()
        # Consume the readiness message so replies stay in lockstep
        # with commands (and spawn cost stays out of ingest timings).
        ready = self._recv_reply(timeout_s=max(60.0, self.reply_timeout_s))
        if not ready.get("ready"):
            raise WorkerDied(
                "shard %d worker sent %r instead of readiness"
                % (self.shard_index, ready)
            )

    @property
    def alive(self) -> bool:
        return self._proc is not None and self._proc.is_alive()

    def wait_dead(self, timeout: float = 1.0) -> bool:
        """True once the worker process is confirmed dead.  A worker
        that SIGKILLs itself closes its pipe a moment before the signal
        lands, so callers distinguishing crash from wedge must allow
        the corpse this grace window."""
        if self._proc is None:
            return True
        self._proc.join(timeout)
        return not self._proc.is_alive()

    def respawn(
        self, checkpoint: Optional[Dict[str, Any]] = None
    ) -> None:
        """Replace a dead worker on the SAME ring segment: discard
        whatever the corpse left unconsumed, start a fresh replica and
        (optionally) restore its last checkpoint for replay."""
        self._reap()
        self.ring.reset()
        self.restarts += 1
        self._spawn()
        if checkpoint is not None:
            self.restore(checkpoint)

    def _reap(self) -> None:
        """Kill the child if it still runs, join it, close the pipe."""
        if self._proc is not None:
            if self._proc.is_alive():
                self._proc.kill()
            self._proc.join(timeout=10.0)
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def kill(self) -> None:
        """SIGKILL the worker (chaos tests)."""
        if self._proc is not None and self._proc.is_alive():
            self._proc.kill()
            self._proc.join(timeout=10.0)

    def close(self) -> None:
        """Shut down (gracefully when possible) and release the ring."""
        if self._proc is not None and self._proc.is_alive():
            try:
                self._push_control(("shutdown",), timeout=5.0)
                self._recv_reply(timeout_s=5.0)
            except Exception:
                pass
            self._proc.join(timeout=5.0)
            if self._proc.is_alive():
                self._proc.kill()
                self._proc.join(timeout=5.0)
        if self._conn is not None:
            self._conn.close()
            self._conn = None
        self.ring.close()

    def __enter__(self) -> "ShardWorker":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- plumbing ----------------------------------------------------------

    def _push_control(self, command: Tuple, timeout: float) -> None:
        try:
            self.ring.push(
                [pickle.dumps(command)],
                kind=KIND_CONTROL,
                timeout=timeout,
                alive_check=self._liveness,
            )
        except RingClosed:
            raise WorkerDied(
                "shard %d worker died before %r"
                % (self.shard_index, command[0])
            )

    def _liveness(self) -> bool:
        return self._proc is not None and self._proc.is_alive()

    def _recv_reply(self, timeout_s: Optional[float] = None):
        timeout_s = (
            self.reply_timeout_s if timeout_s is None else timeout_s
        )
        deadline = time.monotonic() + timeout_s
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise WorkerDied(
                    "shard %d worker reply timed out" % self.shard_index
                )
            if self._conn.poll(min(0.2, max(0.0, remaining))):
                try:
                    return self._conn.recv()
                except (EOFError, OSError):
                    raise WorkerDied(
                        "shard %d worker died mid-reply"
                        % self.shard_index
                    )
            if not self._liveness():
                # One final poll: the reply may have landed just before
                # the death.
                if self._conn.poll(0):
                    try:
                        return self._conn.recv()
                    except (EOFError, OSError):
                        pass
                raise WorkerDied(
                    "shard %d worker died awaiting reply"
                    % self.shard_index
                )

    # -- commands ----------------------------------------------------------

    def push_batch(self, rows, timeout: float = 30.0) -> None:
        """Feed one batch (a ``PacketColumns`` or a list of payloads)."""
        try:
            self.ring.push(
                rows, timeout=timeout, alive_check=self._liveness
            )
        except RingClosed:
            raise WorkerDied(
                "shard %d worker died mid-ingest" % self.shard_index
            )

    def set_epoch(
        self,
        epoch: int,
        attempt: int = 0,
        chunk_offset: int = 0,
        backend: Optional[str] = None,
        map_version: int = 0,
    ) -> None:
        """Arm fault injection / switch backend for the coming epoch.
        ``map_version`` stamps which partition map cut the epoch's
        stream; the worker echoes it in every barrier reply."""
        self._push_control(
            ("epoch", epoch, attempt, chunk_offset, backend, map_version),
            timeout=30.0,
        )

    def rekey(self, new_key: bytes) -> None:
        """Ring-ordered rekey: applies after every batch already pushed."""
        self._push_control(("rekey", bytes(new_key)), timeout=30.0)

    def restore(self, checkpoint: Dict[str, Any]) -> None:
        self._push_control(("restore", checkpoint), timeout=30.0)

    def drain(
        self,
        reset: bool = False,
        checkpoint: bool = False,
        user_stats: bool = False,
        timeout_s: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Barrier: wait until every pushed batch is folded, then fetch
        ``{"counters", "snapshot", "checkpoint"[, "user_stats"]}``.
        ``reset=True`` additionally rebuilds the replica afterwards so
        the next run starts from zero (run-to-run isolation).
        ``user_stats=True`` drains the lark engagement tracker into the
        reply — destructive, so leave it off at checkpoint barriers."""
        self._push_control(
            ("barrier", reset, checkpoint, user_stats), timeout=30.0
        )
        return self._recv_reply(timeout_s=timeout_s)
