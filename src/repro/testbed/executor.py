"""Multiprocess shard executor for the columnar data plane.

A multi-pipe switch processes independent traffic shards in parallel
hardware; this module models that at testbed scale by fanning
hash-partitioned packet streams to a pool of worker *processes*, each
running its own seeded switch replica, and folding the resulting
register snapshots with the same associative merge the AggSwitch bank
read-out uses (:func:`repro.core.stats.merge_snapshots`).

Correctness argument (the differential suite checks it end to end):

* partitioning is deterministic — AggSwitch streams split on
  ``crc32(payload) % shards`` (the exact in-switch bank partition),
  LarkSwitch streams on the preserved cookie region ``raw[1:18]`` so
  every packet of one user lands on one shard and per-shard relative
  order is the arrival order;
* per-kind register folds (add / min / max) are associative and
  commutative, so merging per-shard snapshots equals interleaved
  single-switch execution, cell for cell;
* workers are spawn-safe: the :class:`ShardSpec` recipe (schema, key,
  stat specs, seed) is pickled, never a live switch, and each worker
  builds a private metrics registry so instrument names cannot
  collide with the parent's.

When a pool cannot be created (restricted sandbox, missing semaphore
support) or ``processes`` is 0/1, the same worker function runs
sequentially in-process — identical results, no parallelism.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.aggregation import ForwardingMode
from repro.core.schema import CookieSchema
from repro.core.stats import StatSpec, merge_snapshots
from repro.obs.registry import MetricsRegistry, get_registry
from repro.switch.columns import PacketColumns, check_backend, get_numpy
from repro.switch.hashing import crc32, crc32_many
from repro.testbed.placement import PartitionMap

__all__ = [
    "ShardSpec",
    "ShardExecutor",
    "ShardRunResult",
    "shard_processor",
    "count_folded",
    "partition_packets",
    "partition_columns",
    "render_report",
]

_LOG = logging.getLogger(__name__)

_COOKIE_REGION = slice(1, 18)  # preserved cookie bytes (lark partition key)


@dataclass(frozen=True)
class ShardSpec:
    """Picklable recipe for one switch replica.

    Workers rebuild the switch from this — live switches hold
    scheduled AES ciphers, RNGs and metric instruments that must not
    cross the process boundary.
    """

    kind: str  # "lark" or "agg"
    app_id: int
    schema: CookieSchema
    key: bytes
    specs: Tuple[StatSpec, ...]
    seed: int = 0
    # lark-only knobs
    mode: str = ForwardingMode.PERIODICAL
    period_ms: float = 1000.0
    dedup: bool = False

    def __post_init__(self):
        if self.kind not in ("lark", "agg"):
            raise ValueError("kind must be 'lark' or 'agg'")
        object.__setattr__(self, "specs", tuple(self.specs))


def _build_switch(spec: ShardSpec, shard_index: int):
    """Construct a fresh, deterministically seeded switch replica."""
    from repro.obs.registry import MetricsRegistry

    rng = random.Random(spec.seed * 1000003 + shard_index)
    registry = MetricsRegistry()
    if spec.kind == "lark":
        from repro.core.larkswitch import LarkSwitch

        switch = LarkSwitch(
            "lark-shard%d" % shard_index, rng, registry=registry
        )
        switch.register_application(
            spec.app_id,
            spec.schema,
            spec.key,
            list(spec.specs),
            mode=spec.mode,
            period_ms=spec.period_ms,
            dedup=spec.dedup,
        )
    else:
        from repro.core.aggswitch import AggSwitch

        switch = AggSwitch(
            "agg-shard%d" % shard_index, rng, registry=registry, shards=1
        )
        switch.register_application(
            spec.app_id, spec.schema, spec.key, list(spec.specs)
        )
    return switch


def shard_processor(
    spec: ShardSpec, switch, backend: str
) -> Callable[[Sequence[bytes]], List[Any]]:
    """The batch callable ``backend`` runs on a replica: raw packets
    (a list, or a :class:`PacketColumns` batch) in, per-packet results
    out.  The pool, supervisor and persistent-worker runtimes all
    dispatch through it, so they cannot drift apart."""
    if spec.kind == "lark":
        if backend == "columnar":
            return switch.process_quic_columnar
        from repro.quic.connection_id import ConnectionID

        return lambda rows: [
            switch.process_quic_packet(ConnectionID(bytes(r))) for r in rows
        ]
    if backend == "columnar":
        return switch.process_columnar
    return lambda rows: [switch.process_packet(bytes(r)) for r in rows]


def count_folded(results: Sequence[Any]) -> int:
    """Results that folded into registers (agg merges, lark decodes)."""
    return sum(
        1
        for result in results
        if getattr(result, "merged", False)
        or getattr(result, "decoded_values", None) is not None
    )


def _run_shard(
    args: Tuple[ShardSpec, int, List[bytes], str, int],
) -> Tuple[int, Dict[str, List[int]], Dict[str, int]]:
    """Pool worker: build a replica, stream one shard's packets
    through the chosen backend in chunks, return the raw snapshot.

    Top-level so the spawn start method can pickle it.
    """
    spec, shard_index, packets, backend, chunk_size = args
    switch = _build_switch(spec, shard_index)
    process = shard_processor(spec, switch, backend)
    merged = 0
    for start in range(0, len(packets), chunk_size):
        merged += count_folded(process(packets[start:start + chunk_size]))
    if spec.kind == "lark":
        snapshot = switch._apps[spec.app_id].stats.snapshot()
    else:
        snapshot = switch.merge(spec.app_id)
    counters = {"packets": len(packets), "folded": merged}
    return shard_index, snapshot, counters


def partition_packets(
    spec: ShardSpec,
    shards: int,
    packets: Sequence[bytes],
    pmap: Optional[PartitionMap] = None,
    bucket_loads: Optional[List[int]] = None,
) -> List[List[bytes]]:
    """Deterministic hash partition, preserving per-shard arrival
    order.  Lark streams split on the preserved cookie region so a
    user's packets (and their dedup state) stay on one shard; agg
    streams split on payload CRC-32 exactly like the in-switch bank
    partition.

    With a :class:`~repro.testbed.placement.PartitionMap` the key
    hashes to a virtual bucket first and the map says which shard owns
    it (the default map is bit-identical to the bare modulo whenever
    ``shards`` divides ``pmap.buckets``).  ``bucket_loads`` — a
    caller-owned list of ``pmap.buckets`` counters — accumulates the
    per-bucket packet counts the placement controller feeds on.
    """
    if pmap is not None:
        shards = pmap.shards
    parts: List[List[bytes]] = [[] for _ in range(shards)]
    if pmap is None and shards == 1:
        parts[0] = [bytes(p) for p in packets]
        return parts
    lark = spec.kind == "lark"
    if pmap is None:
        for packet in packets:
            raw = bytes(packet)
            key = raw[_COOKIE_REGION] if lark else raw
            parts[crc32(key) % shards].append(raw)
        return parts
    assignment = pmap.assignment
    buckets = pmap.buckets
    for packet in packets:
        raw = bytes(packet)
        key = raw[_COOKIE_REGION] if lark else raw
        bucket = crc32(key) % buckets
        if bucket_loads is not None:
            bucket_loads[bucket] += 1
        parts[assignment[bucket]].append(raw)
    return parts


def partition_columns(
    spec: ShardSpec,
    pmap: PartitionMap,
    rows: Any,
) -> Tuple[List[PacketColumns], List[int]]:
    """Vectorized map partition of one batch: numpy bucket assignment
    (batched CRC-32 over the partition key region) plus a per-shard
    stable gather, all without materializing per-row ``bytes``.

    Returns ``(parts, bucket_counts)`` where ``parts[s]`` is the
    shard-``s`` sub-batch in arrival order and ``bucket_counts`` the
    per-bucket packet histogram for load accounting.  Falls back to
    the scalar :func:`partition_packets` loop when the numpy gate is
    closed — identical output, slower.
    """
    columns = rows if isinstance(rows, PacketColumns) else PacketColumns(rows)
    np = get_numpy()
    if np is None or not columns.vectorized or columns.n == 0:
        counts = [0] * pmap.buckets
        raw_parts = partition_packets(
            spec, pmap.shards, columns.raw, pmap, counts
        )
        return [PacketColumns(part) for part in raw_parts], counts
    if spec.kind == "lark":
        start, stop = _COOKIE_REGION.start, _COOKIE_REGION.stop
        stop = min(stop, columns.max_len)
        width = max(0, stop - start)
        sub_lengths = np.clip(columns.lengths - start, 0, width)
        sub = PacketColumns.from_matrix(
            columns.data[:, start:start + width]
            if width
            else np.zeros((columns.n, 0), dtype=np.uint8),
            sub_lengths,
        )
        crcs = np.asarray(crc32_many(sub))
    else:
        crcs = np.asarray(crc32_many(columns))
    buckets = crcs % pmap.buckets
    shard_ids = np.asarray(pmap.assignment, dtype=np.int64)[buckets]
    counts = np.bincount(buckets, minlength=pmap.buckets)
    parts: List[PacketColumns] = []
    for shard in range(pmap.shards):
        index = np.flatnonzero(shard_ids == shard)
        if len(index) == 0:
            parts.append(PacketColumns([]))
        else:
            parts.append(
                PacketColumns.from_matrix(
                    columns.data[index], columns.lengths[index]
                )
            )
    return parts, [int(c) for c in counts]


def _slice_part(part: Any, lo: int, hi: int) -> Any:
    """Chunk one shard part for ring pushes, whatever its container."""
    if isinstance(part, PacketColumns):
        if part.vectorized and get_numpy() is not None:
            return PacketColumns.from_matrix(
                part.data[lo:hi], part.lengths[lo:hi]
            )
        return PacketColumns(part.raw[lo:hi])
    return part[lo:hi]


def render_report(
    spec: ShardSpec, shards: int, snapshot: Optional[Dict[str, List[int]]]
) -> Dict[str, Any]:
    """Render the statistics report a single switch would have produced
    from a merged shard snapshot, via a throwaway replica."""
    render = _build_switch(spec, shard_index=shards + 1)
    if spec.kind == "lark":
        stats = render._apps[spec.app_id].stats
    else:
        stats = render._apps[spec.app_id].banks[0]
    return stats.report_from_snapshot(snapshot or stats.snapshot())


@dataclass
class ShardRunResult:
    """Merged outcome of a sharded run."""

    snapshot: Dict[str, List[int]]
    report: Dict[str, Any]
    shard_packets: List[int]
    shard_folded: List[int]
    used_pool: bool
    shards: int
    # Why the pool path was abandoned ("TypeError: ...") — None when the
    # pool ran, or when the sequential path was requested outright.
    fallback_cause: Optional[str] = None
    # True when long-lived ring-fed workers processed the run instead
    # of per-run pool jobs.
    used_workers: bool = False

    @property
    def total_packets(self) -> int:
        return sum(self.shard_packets)


class ShardExecutor:
    """Fan a packet stream across switch-replica shards and merge.

    ``processes`` — pool size (``None`` = one per shard); 0 or 1
    forces the sequential in-process path.  ``backend`` selects the
    per-shard execution path (one of
    :data:`~repro.switch.columns.BACKENDS`).
    """

    def __init__(
        self,
        spec: ShardSpec,
        shards: int = 2,
        processes: Optional[int] = None,
        backend: str = "columnar",
        chunk_size: int = 4096,
        pool_timeout_s: float = 120.0,
        registry: Optional[MetricsRegistry] = None,
        persistent: bool = False,
        placement: Optional[PartitionMap] = None,
    ):
        if placement is not None:
            shards = placement.shards
        if shards < 1:
            raise ValueError("shards must be >= 1")
        check_backend(backend)
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.spec = spec
        self.shards = shards
        self._auto_processes = processes is None
        self.processes = shards if processes is None else processes
        self.backend = backend
        # Weighted virtual-bucket placement (None = legacy modulo).
        # last_bucket_counts holds the previous run()'s per-bucket
        # packet histogram — the load feed for a PlacementController.
        self.placement = placement
        self.last_bucket_counts: Optional[List[int]] = None
        self.chunk_size = chunk_size
        self.pool_timeout_s = pool_timeout_s
        self.registry = registry if registry is not None else get_registry()
        self.last_error: Optional[str] = None
        # persistent=True keeps one ring-fed worker process alive per
        # shard across run() calls (see repro.testbed.worker) instead
        # of dispatching each run through a fresh pool; same API, same
        # results, no per-run spawn/pickle tax.  Call close() (or use
        # the executor as a context manager) to release the workers.
        self.persistent = persistent
        self._workers: List[Any] = []

    # -- persistent workers ------------------------------------------------

    def _ensure_workers(self) -> List[Any]:
        from repro.testbed.worker import ShardWorker

        while len(self._workers) < self.shards:
            self._workers.append(
                ShardWorker(
                    self.spec,
                    len(self._workers),
                    backend=self.backend,
                    row_capacity=max(self.chunk_size, 64),
                    row_width=64,
                )
            )
        return self._workers

    def close(self) -> None:
        """Shut down any persistent workers (no-op otherwise)."""
        workers, self._workers = self._workers, []
        for worker in workers:
            try:
                worker.close()
            except Exception:  # pragma: no cover - teardown best effort
                pass

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- partitioning ------------------------------------------------------

    def partition(self, packets: Sequence[bytes]) -> List[List[bytes]]:
        """Deterministic hash partition (see :func:`partition_packets`)."""
        return partition_packets(
            self.spec, self.shards, packets, self.placement
        )

    def set_placement(self, pmap: PartitionMap) -> None:
        """Adopt a new partition map between runs (epoch boundary).

        An elastic resize retires surplus persistent workers here;
        missing ones spawn lazily on the next run.  No state migrates:
        run() folds all shard snapshots regardless of which shard
        folded which bucket.
        """
        self.placement = pmap
        if pmap.shards != self.shards:
            self.shards = pmap.shards
            if self._auto_processes:
                self.processes = pmap.shards
            while len(self._workers) > self.shards:
                worker = self._workers.pop()
                try:
                    worker.close()
                except Exception:  # pragma: no cover - teardown best effort
                    pass

    # -- execution ---------------------------------------------------------

    def run(self, packets: Sequence[bytes]) -> ShardRunResult:
        """Process ``packets`` across all shards and fold the results.

        ``packets`` may be a :class:`PacketColumns` batch; with a
        partition map attached the split then runs through the
        vectorized :func:`partition_columns` kernel."""
        pmap = self.placement
        if pmap is not None:
            if isinstance(packets, PacketColumns):
                parts, counts = partition_columns(self.spec, pmap, packets)
            else:
                counts = [0] * pmap.buckets
                parts = partition_packets(
                    self.spec, self.shards, packets, pmap, counts
                )
            self.last_bucket_counts = counts
        else:
            self.last_bucket_counts = None
            if isinstance(packets, PacketColumns):
                packets = packets.raw
            parts = self.partition(packets)
        worker_cause: Optional[str] = None
        if self.persistent:
            try:
                return self._run_persistent(parts)
            except Exception as exc:
                # A dead or wedged worker must not fail the run: note
                # the cause, drop the fleet and reprocess through the
                # stateless path (identical results, slower).
                self.last_error = worker_cause = "%s: %s" % (
                    type(exc).__name__, exc,
                )
                self.registry.counter(
                    "shard_executor.worker_fallbacks"
                ).inc()
                _LOG.warning(
                    "persistent workers failed, pool fallback engaged",
                    extra={
                        "component": "shard_executor",
                        "kind": self.spec.kind,
                        "shards": self.shards,
                        "cause": self.last_error,
                    },
                )
                self.close()
        jobs = [
            (
                self.spec,
                shard,
                part.raw if isinstance(part, PacketColumns) else part,
                self.backend,
                self.chunk_size,
            )
            for shard, part in enumerate(parts)
        ]
        outputs, used_pool = self._execute(jobs)
        outputs.sort(key=lambda item: item[0])
        snapshot: Optional[Dict[str, List[int]]] = None
        specs = list(self.spec.specs)
        for _, shard_snapshot, _ in outputs:
            snapshot = (
                {name: list(cells) for name, cells in shard_snapshot.items()}
                if snapshot is None
                else merge_snapshots(specs, snapshot, shard_snapshot)
            )
        return ShardRunResult(
            snapshot=snapshot or {},
            report=render_report(self.spec, self.shards, snapshot),
            shard_packets=[c["packets"] for _, _, c in outputs],
            shard_folded=[c["folded"] for _, _, c in outputs],
            used_pool=used_pool,
            shards=self.shards,
            fallback_cause=worker_cause or (
                self.last_error if not used_pool else None
            ),
        )

    def _run_persistent(self, parts: List[List[bytes]]) -> ShardRunResult:
        """One run over the long-lived worker fleet.

        Batches stream to every shard's ring first (workers fold
        concurrently), then a reset barrier collects each fold snapshot
        and returns the replicas to a fresh state so consecutive runs
        stay independent — exactly the lifecycle one pool dispatch had.
        """
        from repro.switch.columns import numpy_enabled

        workers = self._ensure_workers()
        columnar = self.backend == "columnar" and numpy_enabled()
        for shard, part in enumerate(parts):
            worker = workers[shard]
            for start in range(0, len(part), self.chunk_size):
                chunk = _slice_part(part, start, start + self.chunk_size)
                if columnar and not isinstance(chunk, PacketColumns):
                    chunk = PacketColumns(chunk)
                elif not columnar and isinstance(chunk, PacketColumns):
                    chunk = chunk.raw
                worker.push_batch(chunk)
        outputs = []
        for shard, worker in enumerate(workers):
            reply = worker.drain(reset=True)
            outputs.append((shard, reply["snapshot"], reply["counters"]))
        snapshot: Optional[Dict[str, List[int]]] = None
        specs = list(self.spec.specs)
        for _, shard_snapshot, _ in outputs:
            snapshot = (
                {name: list(cells) for name, cells in shard_snapshot.items()}
                if snapshot is None
                else merge_snapshots(specs, snapshot, shard_snapshot)
            )
        return ShardRunResult(
            snapshot=snapshot or {},
            report=render_report(self.spec, self.shards, snapshot),
            shard_packets=[c["packets"] for _, _, c in outputs],
            shard_folded=[c["folded"] for _, _, c in outputs],
            used_pool=False,
            shards=self.shards,
            used_workers=True,
        )

    def _execute(self, jobs) -> Tuple[List[Any], bool]:
        if self.processes > 1 and len(jobs) > 1:
            try:
                import multiprocessing as mp

                ctx = mp.get_context("spawn")
                pool = ctx.Pool(min(self.processes, len(jobs)))
                try:
                    # map_async + timeout: a spawn child that cannot
                    # re-import __main__ (stdin scripts, exotic
                    # sandboxes) crashes in its bootstrap and a plain
                    # map() would wait on it forever.  Workers are
                    # stateless, so on any failure the sequential path
                    # simply reprocesses from scratch.
                    return (
                        pool.map_async(_run_shard, jobs).get(
                            timeout=self.pool_timeout_s
                        ),
                        True,
                    )
                finally:
                    pool.terminate()
                    pool.join()
            except Exception as exc:  # no semaphores / sandboxed spawn
                self.last_error = "%s: %s" % (type(exc).__name__, exc)
                self.registry.counter("shard_executor.pool_fallbacks").inc()
                _LOG.warning(
                    "shard pool failed, sequential fallback engaged",
                    extra={
                        "component": "shard_executor",
                        "kind": self.spec.kind,
                        "shards": self.shards,
                        "cause": self.last_error,
                    },
                )
        return [_run_shard(job) for job in jobs], False
