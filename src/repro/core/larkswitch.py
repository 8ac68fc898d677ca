"""LarkSwitch: the first-tier ISP switch (paper sections 3.1, 4.1).

A LarkSwitch sits in the edge ISP and inspects QUIC traffic:

1. a match-action table keyed on the connection-ID's application-ID
   byte recognizes Snatch packets (parameters installed by the
   controller);
2. on a hit, the switch decrypts the cookie block (one AES pass,
   ~0.1 ms [45]), decodes bitmap + cookie-stack, and updates its
   statistics registers;
3. the original packet is forwarded unchanged toward the web server,
   while a *clone* is rewritten into a custom aggregation packet for
   the AggSwitch — immediately (per-packet forwarding) or at period
   boundaries (periodical forwarding);
4. optionally, a Bloom filter deduplicates repeat visitors within a
   period (Appendix B.4).

The switch logic genuinely runs on the :mod:`repro.switch` pipeline
substrate (tables, registers, clones, latency accounting), so hardware
resource limits apply.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.aggregation import (
    AggregationCodec,
    AggregationPacket,
    ForwardingMode,
)
from repro.core.schema import CookieSchema, FeatureValueError
from repro.core.stats import StatSpec, SwitchStatistics, min_array_names
from repro.core.transport_cookie import (
    APP_ID_BYTE_INDEX,
    COOKIE_BLOCK_START,
    COOKIE_BYTE_END,
    COOKIE_BYTE_START,
    TransportCookieCodec,
)
from repro.core.user_stats import UserEngagementTracker, UserQuantileConfig
from repro.crypto.aes import decrypt_blocks_many
from repro.obs.registry import MetricsRegistry
from repro.quic.connection_id import ConnectionID, MAX_CONNECTION_ID_BYTES
from repro.switch.bloom import BloomFilter
from repro.switch.columns import PacketColumns, get_numpy, group_rows
from repro.switch.pipeline import (
    AES_PASS_LATENCY_MS,
    Digest,
    LINE_RATE_LATENCY_MS,
    PHV,
    SwitchPipeline,
)
from repro.switch.tables import (
    MatchActionTable,
    MatchKey,
    MatchKind,
    TableEntry,
)

__all__ = ["LarkSwitch", "LarkResult", "RegisteredApp", "lark_process_raw"]


@dataclass
class RegisteredApp:
    """Per-application state installed by the controller."""

    app_id: int
    schema: CookieSchema
    cookie_codec: TransportCookieCodec
    agg_codec: AggregationCodec
    stats: SwitchStatistics
    specs: List[StatSpec] = field(default_factory=list)
    mode: str = ForwardingMode.PER_PACKET
    period_ms: float = 0.0
    dedup: Optional[BloomFilter] = None
    digest_features: List[str] = field(default_factory=list)
    version: int = 0
    users: Optional[UserEngagementTracker] = None

    def user_key(
        self, region: bytes, values: Dict[str, Any]
    ) -> Optional[bytes]:
        """The identity this app's engagement tracker keys on: the
        configured feature's decoded value when one is named (the
        cookie region is not unique per user for low-cardinality
        schemas), else the preserved cookie region bytes."""
        feature = self.users.config.key_feature if self.users else None
        if feature is None:
            return region
        value = values.get(feature)
        if value is None:
            return None
        return int(value).to_bytes(8, "big")


@dataclass(slots=True)
class LarkResult:
    """Outcome of processing one QUIC packet."""

    matched: bool
    forwarded_original: bool
    aggregation_payload: Optional[bytes]
    latency_ms: float
    decoded_values: Optional[Dict[str, Any]] = None
    deduplicated: bool = False
    digests: List[Any] = field(default_factory=list)


class LarkSwitch:
    """A Snatch-programmed ISP switch."""

    def __init__(self, name: str = "lark", rng: Optional[random.Random] = None,
                 registry: Optional["MetricsRegistry"] = None,
                 decode_memo_capacity: Optional[int] = None):
        self.name = name
        self.alive = True
        self.crashes = 0
        self._rng = rng or random.Random()
        self.pipeline = SwitchPipeline(name, registry=registry)
        self.metrics = self.pipeline.metrics
        base = "lark.%s" % name
        self._m_packets = self.metrics.counter(base + ".packets")
        self._m_decoded = self.metrics.counter(base + ".decoded")
        self._m_decode_failures = self.metrics.counter(
            base + ".decode_failures"
        )
        self._m_dedup_hits = self.metrics.counter(base + ".dedup_hits")
        self._m_register_updates = self.metrics.counter(
            base + ".register_updates"
        )
        self._m_digests = self.metrics.counter(base + ".digests")
        self._m_reports = self.metrics.counter(base + ".reports")
        self._m_crashes = self.metrics.counter(base + ".crashes")
        self._apps: Dict[int, RegisteredApp] = {}
        self._app_table = MatchActionTable(
            "%s.app_match" % name,
            keys=[MatchKey("app_id", MatchKind.EXACT, 8)],
            max_entries=256,
            default_action="NoAction",
        )
        self.pipeline.add_table(stage=0, table=self._app_table)
        self.pipeline.register_action("snatch_decode", self._action_decode)
        # Decode memo for the batch fast path, keyed on the preserved
        # connection-ID region.  It persists across batches (decode is
        # pure given an app's codec) and is invalidated on any
        # control-plane change to an app's key/schema; the scalar path
        # never consults it.  ``_batch_decode_cache`` points at the
        # memo only while a batch is in flight.
        # Optional bound on the memo: unbounded is fine for the small
        # demographic schemas (a few thousand distinct cookies), but a
        # per-user feature makes distinct cookies grow with the user
        # population, and the memo with them.  Decode is pure, so a
        # FIFO bound only costs re-decrypts, never correctness.
        if decode_memo_capacity is not None and decode_memo_capacity <= 0:
            raise ValueError("decode_memo_capacity must be positive")
        self._decode_memo_capacity = decode_memo_capacity
        self._decode_memo: Dict[
            Tuple[int, int, bytes], Optional[Dict[str, Any]]
        ] = {}
        self._batch_decode_cache: Optional[
            Dict[Tuple[int, int, bytes], Optional[Dict[str, Any]]]
        ] = None
        # Known-good program shape for the columnar backend, cached as
        # (program version, app-table version); see _columnar_ready().
        self._columnar_plan: Optional[Tuple[int, int]] = None

    # -- controller RPC surface ---------------------------------------------

    def register_application(
        self,
        app_id: int,
        schema: CookieSchema,
        key: bytes,
        specs: List[StatSpec],
        mode: str = ForwardingMode.PER_PACKET,
        period_ms: float = 0.0,
        dedup: bool = False,
        digest_features: Optional[List[str]] = None,
        version: int = 0,
        user_quantiles: Optional[UserQuantileConfig] = None,
    ) -> RegisteredApp:
        """Install an application's parameters (table entry, AES key,
        cookie format, statistics program).  ``user_quantiles``
        additionally tracks per-user engagement (distinct users +
        per-user request-count quantiles); in sketch mode the sample's
        value cells are allocated from this switch's register SRAM."""
        if app_id in self._apps:
            raise ValueError("app-ID %d already registered" % app_id)
        if mode == ForwardingMode.PERIODICAL and period_ms <= 0:
            raise ValueError("periodical forwarding needs a positive period")
        users = None
        if user_quantiles is not None:
            users = UserEngagementTracker(
                user_quantiles,
                name="%s.app%02x.users" % (self.name, app_id),
                registers=self.pipeline.registers
                if user_quantiles.mode == "sketch" else None,
            )
        app = RegisteredApp(
            app_id=app_id,
            schema=schema,
            cookie_codec=TransportCookieCodec(app_id, schema, key, self._rng),
            agg_codec=AggregationCodec(app_id, key, self._rng),
            stats=SwitchStatistics(
                schema,
                specs,
                self.pipeline.registers,
                prefix="%s.app%02x" % (self.name, app_id),
            ),
            specs=list(specs),
            mode=mode,
            period_ms=period_ms,
            dedup=BloomFilter(name="%s.dedup%02x" % (self.name, app_id))
            if dedup
            else None,
            digest_features=list(digest_features or []),
            version=version,
            users=users,
        )
        self._apps[app_id] = app
        self._app_table.insert(
            TableEntry((app_id,), "snatch_decode", {"app_id": app_id})
        )
        self._decode_memo.clear()
        return app

    def rekey_application(self, app_id: int, new_key: bytes) -> None:
        """In-place AES-key replacement — the *naive* update that the
        controller's versioning scheme exists to avoid (section 4.3):
        until every device has rekeyed, tiers disagree about the cookie
        format and data is silently lost."""
        app = self._apps.get(app_id)
        if app is None:
            raise KeyError("no application %d registered" % app_id)
        app.cookie_codec = TransportCookieCodec(
            app_id, app.schema, new_key, self._rng
        )
        app.agg_codec = AggregationCodec(app_id, new_key, self._rng)
        self._decode_memo.clear()

    def revoke_application(self, app_id: int) -> bool:
        """Remove an application (controller version cleanup)."""
        app = self._apps.pop(app_id, None)
        if app is None:
            return False
        self._decode_memo.clear()
        self._app_table.remove((app_id,))
        for array_name in list(self.pipeline.registers.names()):
            if array_name.startswith("%s.app%02x" % (self.name, app_id)):
                self.pipeline.registers.free(array_name)
        return True

    def registered_app_ids(self) -> List[int]:
        return sorted(self._apps)

    # -- lifecycle (crash / recovery, paper section 6) -------------------------

    def crash(self) -> None:
        """Power loss: register state, table entries and parameters are
        gone; the switch stops matching until it restarts and the
        controller re-enrolls it."""
        for app_id in list(self._apps):
            self.revoke_application(app_id)
        self.alive = False
        self.crashes += 1
        self._m_crashes.inc()

    def restart(self) -> None:
        """Come back up empty; parameters arrive via re-enrollment."""
        self.alive = True

    # -- data plane -----------------------------------------------------------

    def _decode_values(
        self, app: RegisteredApp, raw: bytes
    ) -> Optional[Dict[str, Any]]:
        """Decode the cookie block of a raw connection ID.

        Batch runs memoize on the preserved region (bytes [1, 18)),
        which fully determines the decode — the Snatch CID policy
        regenerates only bytes 0 and 18-19 across connections — so a
        repeat visitor costs one dict probe instead of an AES pass.
        The *simulated* AES latency is still charged per packet by the
        caller; only host CPU work is amortized.
        """
        cache = self._batch_decode_cache
        if cache is None:
            decoded = app.cookie_codec.try_decode(ConnectionID(raw))
            return decoded.values if decoded is not None else None
        memo_key = (app.app_id, len(raw), raw[1:COOKIE_BYTE_END])
        if memo_key in cache:
            cached = cache[memo_key]
            # Fresh dict per packet, matching the scalar path where
            # every decode builds its own values dict.
            return dict(cached) if cached is not None else None
        decoded = app.cookie_codec.try_decode(ConnectionID(raw))
        values = decoded.values if decoded is not None else None
        cache[memo_key] = values
        return values

    def _trim_decode_memo(self) -> None:
        """Enforce the optional memo bound, FIFO (insertion order is
        the only recency signal a plain dict gives us, and decode is
        pure, so evicting a hot entry merely costs one re-decrypt)."""
        cap = self._decode_memo_capacity
        if cap is None:
            return
        memo = self._decode_memo
        while len(memo) > cap:
            del memo[next(iter(memo))]

    def _warm_decode_memo(self, dcids: Sequence[ConnectionID]) -> None:
        """Pre-decrypt the unique not-yet-memoized cookie regions of a
        batch in one batched AES pass (:func:`decrypt_blocks_many`),
        seeding the decode memo that :meth:`_decode_values` probes.

        Pure cache warming: the memo entries are exactly what the lazy
        per-packet path would have stored (decode consumes no RNG and
        the batched kernel is bit-identical to scalar AES), so results
        are unchanged — only the per-unique-region Python decrypt drops
        out of the dispatch loop.
        """
        memo = self._decode_memo
        apps = self._apps
        pending_keys: List[Tuple[int, int, bytes]] = []
        pending_blocks: List[bytes] = []
        pending_codecs: List[TransportCookieCodec] = []
        for dcid in dcids:
            raw = bytes(dcid)
            if len(raw) != MAX_CONNECTION_ID_BYTES:
                continue
            app = apps.get(raw[APP_ID_BYTE_INDEX])
            if app is None:
                continue
            key = (app.app_id, len(raw), raw[COOKIE_BYTE_START:COOKIE_BYTE_END])
            if key in memo:
                continue
            memo[key] = None  # claimed; overwritten below
            pending_keys.append(key)
            pending_blocks.append(raw[COOKIE_BLOCK_START:COOKIE_BYTE_END])
            pending_codecs.append(app.cookie_codec)
        if not pending_blocks:
            return
        # Typically one app per batch; group per codec so each group
        # decrypts under its own key in a single vectorized pass.
        by_codec: Dict[int, Tuple[TransportCookieCodec, List[int]]] = {}
        for idx, codec in enumerate(pending_codecs):
            by_codec.setdefault(id(codec), (codec, []))[1].append(idx)
        for codec, indices in by_codec.values():
            plains = decrypt_blocks_many(
                codec.aes, [pending_blocks[i] for i in indices]
            )
            for i, plain in zip(indices, plains):
                try:
                    memo[pending_keys[i]] = codec.values_from_block(
                        bytes(plain)
                    )
                except (ValueError, FeatureValueError):
                    memo[pending_keys[i]] = None

    def _action_decode(
        self, pipeline: SwitchPipeline, phv: PHV, params: Dict[str, Any]
    ) -> None:
        app = self._apps[params["app_id"]]
        raw = bytes(phv["dcid"])
        pipeline.charge_latency(AES_PASS_LATENCY_MS)  # AES decrypt
        values = self._decode_values(app, raw)
        if values is None:
            phv.metadata["decode_failed"] = True
            self._m_decode_failures.inc()
            return
        if app.users is not None:
            # Engagement counts every decoded request (dedup below only
            # shapes the distinct-count statistics, not per-user load).
            user_key = app.user_key(
                raw[COOKIE_BYTE_START:COOKIE_BYTE_END], values
            )
            if user_key is not None:
                app.users.observe(user_key)
        if app.dedup is not None:
            # Dedup on the raw encrypted cookie bytes: stable per user
            # across connections (the Snatch CID policy preserves them).
            cookie_bytes = raw[1:COOKIE_BYTE_END]
            if app.dedup.add(cookie_bytes):
                phv.metadata["duplicate"] = True
                self._m_dedup_hits.inc()
                return
        self._m_decoded.inc()
        app.stats.update(values)
        self._m_register_updates.inc()
        phv.metadata["decoded"] = values
        # Punt values of digest-designated features to the control
        # plane (paper section 4.1: complex ops via P4 digests).
        for feature_name in app.digest_features:
            if feature_name in values:
                pipeline.emit_digest(
                    "snatch_value",
                    {"feature": feature_name,
                     "value": values[feature_name]},
                )
                self._m_digests.inc()
        if app.mode == ForwardingMode.PER_PACKET:
            clone = pipeline.clone_packet(phv)
            clone.metadata["aggregation"] = self._per_packet_payload(
                app, values
            )

    def _aggregation_packet(
        self, app: RegisteredApp, values: Dict[str, Any]
    ) -> AggregationPacket:
        items: List[Tuple[int, int]] = []
        for index, feature in enumerate(app.schema.features):
            if feature.name in values:
                items.append(
                    (index, feature.encode_value(values[feature.name]))
                )
        return AggregationPacket(
            app_id=app.app_id,
            mode=ForwardingMode.PER_PACKET,
            items=items,
            source=self.name,
        )

    def _per_packet_payload(
        self, app: RegisteredApp, values: Dict[str, Any]
    ) -> bytes:
        self._m_reports.inc()
        return app.agg_codec.encode(self._aggregation_packet(app, values))

    def process_quic_packet(self, dcid: ConnectionID) -> LarkResult:
        """Run one QUIC short-header packet through the pipeline."""
        if not self.alive:
            # A downed switch is routed around: traffic still reaches
            # the web server, but no in-network processing happens
            # (the edge-server fallback picks up the analytics).
            return LarkResult(
                matched=False,
                forwarded_original=True,
                aggregation_payload=None,
                latency_ms=0.0,
            )
        raw = bytes(dcid)
        app_id = raw[APP_ID_BYTE_INDEX] if len(raw) > APP_ID_BYTE_INDEX else -1
        self._m_packets.inc()
        result = self.pipeline.process({"app_id": app_id, "dcid": raw})
        return self._to_lark_result(result)

    def process_quic_batch(
        self, dcids: Sequence[ConnectionID]
    ) -> List[LarkResult]:
        """Run a batch of QUIC packets through the compiled fast path.

        Results are bit-identical to calling :meth:`process_quic_packet`
        once per element in order; host-CPU work is amortized by the
        compiled pipeline dispatch and a per-batch decode memo keyed on
        the preserved cookie region (repeat visitors decrypt once).
        """
        if not self.alive:
            return [
                LarkResult(
                    matched=False,
                    forwarded_original=True,
                    aggregation_payload=None,
                    latency_ms=0.0,
                )
                for _ in dcids
            ]
        def header_fields() -> Iterator[Dict[str, Any]]:
            # One dict reused across the whole batch (PHV copies it),
            # so the dispatch loop allocates nothing per packet.
            fields: Dict[str, Any] = {}
            for dcid in dcids:
                raw = bytes(dcid)
                fields["app_id"] = (
                    raw[APP_ID_BYTE_INDEX]
                    if len(raw) > APP_ID_BYTE_INDEX else -1
                )
                fields["dcid"] = raw
                yield fields

        if len(dcids) > 1 and self._apps:
            self._warm_decode_memo(dcids)
        self._m_packets.inc(len(dcids))
        out: List[LarkResult] = []
        convert = self._to_lark_result
        self._batch_decode_cache = self._decode_memo
        try:
            self.pipeline.process_batch(
                header_fields(),
                sink=lambda result: out.append(convert(result)),
            )
        finally:
            self._batch_decode_cache = None
            self._trim_decode_memo()
        return out

    # -- columnar fast path -------------------------------------------------

    def _columnar_ready(self) -> bool:
        """True when the pipeline still has exactly the shape the
        columnar backend assumes: one stage holding the app table,
        whose entries all dispatch ``snatch_decode`` to a registered
        app.  Cached on (program version, table version), the same
        staleness check the compiled batch plan uses."""
        key = (self.pipeline._program_version, self._app_table.version)
        if self._columnar_plan == key:
            return True
        stages = self.pipeline.stages
        if len(stages) != 1 or stages[0].tables != [self._app_table]:
            return False
        if self._app_table.default_action != "NoAction":
            return False
        matched = set()
        for entry in self._app_table.entries():
            if entry.action != "snatch_decode":
                return False
            app_id = entry.match_values[0]
            if entry.action_params.get("app_id") != app_id:
                return False
            if app_id not in self._apps:
                return False
            matched.add(app_id)
        if matched != set(self._apps):
            return False
        self._columnar_plan = key
        return True

    def _decode_groups(
        self,
        app: RegisteredApp,
        sub: List[bytes],
        keys: List[bytes],
        firsts: List[int],
    ) -> List[Optional[Dict[str, Any]]]:
        """Decode each unique cookie group once: memo probe first, then
        one batched AES pass over the still-unknown blocks."""
        memo = self._decode_memo
        out: List[Optional[Dict[str, Any]]] = [None] * len(keys)
        pending: List[int] = []
        for group, key_bytes in enumerate(keys):
            rep = sub[firsts[group]]
            memo_key = (app.app_id, len(rep), key_bytes)
            if memo_key in memo:
                out[group] = memo[memo_key]
            elif len(rep) != MAX_CONNECTION_ID_BYTES:
                # codec.matches() is False: try_decode returns None.
                memo[memo_key] = None
            else:
                pending.append(group)
        if pending:
            blocks = [
                sub[firsts[group]][COOKIE_BLOCK_START:COOKIE_BYTE_END]
                for group in pending
            ]
            plains = decrypt_blocks_many(app.cookie_codec.aes, blocks)
            for group, block in zip(pending, plains):
                try:
                    values: Optional[Dict[str, Any]] = (
                        app.cookie_codec.values_from_block(bytes(block))
                    )
                except (ValueError, FeatureValueError):
                    values = None
                rep = sub[firsts[group]]
                memo[(app.app_id, len(rep), keys[group])] = values
                out[group] = values
        self._trim_decode_memo()
        return out

    def process_quic_columnar(
        self, dcids: Sequence[ConnectionID]
    ) -> List[LarkResult]:
        """Columnar fast path: struct-of-arrays over the whole batch.

        Bit-identical to :meth:`process_quic_batch` (itself identical
        to the scalar path): packets are grouped by the preserved
        cookie region, each unique cookie is decrypted once through
        the batched AES kernel, statistics fold through vectorized
        register scatters, and per-packet results (latencies, digests,
        RNG-consuming payload encodes) are assembled in packet order.
        Falls back to :meth:`process_quic_batch` when numpy is gated
        off or the pipeline shape changed under us.
        """
        if not self.alive:
            return [
                LarkResult(
                    matched=False,
                    forwarded_original=True,
                    aggregation_payload=None,
                    latency_ms=0.0,
                )
                for _ in dcids
            ]
        np = get_numpy()
        if np is None or not len(dcids) or not self._columnar_ready():
            return self.process_quic_batch(dcids)
        if isinstance(dcids, PacketColumns):
            # Batched ingest hands us the struct-of-arrays form directly
            # (possibly matrix-built, rows never materialized upstream).
            columns = dcids
        else:
            columns = PacketColumns([bytes(dcid) for dcid in dcids])
        raws = columns.raw
        n = columns.n
        pipe = self.pipeline
        self._m_packets.inc(n)
        pipe.packets_processed += n
        pipe._m_packets.inc(n)
        table = self._app_table
        table.lookups += n
        app_column = columns.byte_column(APP_ID_BYTE_INDEX, default=-1)
        # Per-packet assignment: (per-app state, group id) for hits.
        assignments: List[Optional[Tuple[Dict[str, Any], int]]] = [None] * n
        hit_count = 0
        for app_id, app in self._apps.items():
            idxs = np.nonzero(app_column == app_id)[0]
            if idxs.size == 0:
                continue
            hit_count += int(idxs.size)
            sub = [raws[int(i)] for i in idxs]
            keys, firsts, inverse = group_rows(
                sub, COOKIE_BYTE_START, COOKIE_BYTE_END
            )
            group_values = self._decode_groups(app, sub, keys, firsts)
            if app.users is not None:
                # Engagement folds per unique cookie group with its
                # packet multiplicity (dedup below only shapes the
                # distinct-count statistics).  The sketch sample is a
                # pure function of the update multiset, so grouped
                # folds land on the same state as the scalar path's
                # per-packet observes.
                counts = np.bincount(
                    np.asarray(inverse, dtype=np.int64),
                    minlength=len(keys),
                )
                user_keys: List[bytes] = []
                user_counts: List[int] = []
                for g in range(len(keys)):
                    values_g = group_values[g]
                    if values_g is None:
                        continue
                    ukey = app.user_key(keys[g], values_g)
                    if ukey is None:
                        continue
                    user_keys.append(ukey)
                    user_counts.append(int(counts[g]))
                app.users.observe_many(user_keys, user_counts)
            dup_first = [False] * len(keys)
            if app.dedup is not None:
                # Bloom state evolves at first occurrences only, so
                # adding unique decoded cookies in first-occurrence
                # order reproduces the scalar per-packet test-and-set.
                decoded_groups = [
                    g for g, values in enumerate(group_values)
                    if values is not None
                ]
                flags = app.dedup.add_many(
                    [keys[g] for g in decoded_groups]
                )
                for g, flag in zip(decoded_groups, flags):
                    dup_first[g] = flag
                grouped = [
                    (group_values[g], 1)
                    for g in range(len(keys))
                    if group_values[g] is not None and not dup_first[g]
                ]
            else:
                multiplicity = np.bincount(
                    np.asarray(inverse, dtype=np.int64),
                    minlength=len(keys),
                )
                grouped = [
                    (group_values[g], int(multiplicity[g]))
                    for g in range(len(keys))
                    if group_values[g] is not None
                ]
            app.stats.update_grouped(grouped)
            state = (
                app,
                group_values,
                dup_first,
                [False] * len(keys),   # seen
                [None] * len(keys),    # cached AggregationPackets
                app.dedup is not None,
            )
            inverse_list = (
                inverse.tolist() if hasattr(inverse, "tolist") else inverse
            )
            for j, i in enumerate(idxs.tolist()):
                assignments[i] = (state, inverse_list[j])
        hit_meter, miss_meter = pipe._stage_meters[0]
        table.hits += hit_count
        hit_meter.inc(hit_count)
        miss_meter.inc(n - hit_count)
        hit_latency = LINE_RATE_LATENCY_MS + AES_PASS_LATENCY_MS
        pipe._m_latency_us.observe_many(
            LINE_RATE_LATENCY_MS * 1000.0, n - hit_count
        )
        pipe._m_latency_us.observe_many(hit_latency * 1000.0, hit_count)
        decoded_count = 0
        failure_count = 0
        dedup_count = 0
        digest_count = 0
        report_count = 0
        total_latency_us = 0.0
        line_us = LINE_RATE_LATENCY_MS * 1000.0
        hit_us = hit_latency * 1000.0
        results: List[LarkResult] = []
        append = results.append
        for assignment in assignments:
            if assignment is None:
                total_latency_us += line_us
                append(LarkResult(
                    matched=False,
                    forwarded_original=True,
                    aggregation_payload=None,
                    latency_ms=LINE_RATE_LATENCY_MS,
                ))
                continue
            state, group = assignment
            app, group_values, dup_first, seen, packets, dedup_on = state
            total_latency_us += hit_us
            values = group_values[group]
            if values is None:
                failure_count += 1
                append(LarkResult(
                    matched=True,
                    forwarded_original=True,
                    aggregation_payload=None,
                    latency_ms=hit_latency,
                ))
                continue
            if dedup_on:
                if seen[group]:
                    duplicate = True
                else:
                    seen[group] = True
                    duplicate = dup_first[group]
                if duplicate:
                    dedup_count += 1
                    append(LarkResult(
                        matched=True,
                        forwarded_original=True,
                        aggregation_payload=None,
                        latency_ms=hit_latency,
                        deduplicated=True,
                    ))
                    continue
            decoded_count += 1
            digests: List[Any] = []
            if app.digest_features:
                digests = [
                    Digest(
                        "snatch_value",
                        {"feature": name, "value": values[name]},
                    )
                    for name in app.digest_features
                    if name in values
                ]
                digest_count += len(digests)
            payload = None
            if app.mode == ForwardingMode.PER_PACKET:
                packet = packets[group]
                if packet is None:
                    packet = self._aggregation_packet(app, values)
                    packets[group] = packet
                payload = app.agg_codec.encode(packet)
                report_count += 1
            append(LarkResult(
                matched=True,
                forwarded_original=True,
                aggregation_payload=payload,
                latency_ms=hit_latency,
                decoded_values=values,
                digests=digests,
            ))
        self._m_decoded.inc(decoded_count)
        self._m_decode_failures.inc(failure_count)
        self._m_dedup_hits.inc(dedup_count)
        self._m_register_updates.inc(decoded_count)
        self._m_digests.inc(digest_count)
        self._m_reports.inc(report_count)
        pipe._m_batches.inc()
        pipe._m_batch_size.observe(n)
        pipe._m_batch_latency_us.observe(total_latency_us)
        return results

    @staticmethod
    def _to_lark_result(result: Any) -> LarkResult:
        payload: Optional[bytes] = None
        for clone in result.clones:
            payload = clone.metadata.get("aggregation", payload)
        decoded = result.phv.metadata.get("decoded")
        return LarkResult(
            matched=decoded is not None
            or result.phv.metadata.get("duplicate", False)
            or result.phv.metadata.get("decode_failed", False),
            forwarded_original=result.forwarded,
            aggregation_payload=payload,
            latency_ms=result.latency_ms,
            decoded_values=decoded,
            deduplicated=result.phv.metadata.get("duplicate", False),
            digests=list(result.digests),
        )

    # -- periodical forwarding -----------------------------------------------------

    def end_period(self, app_id: int) -> Optional[bytes]:
        """Close the current period: emit the statistics snapshot as an
        aggregation packet and reset the registers + Bloom filter."""
        app = self._apps.get(app_id)
        if app is None:
            raise KeyError("no application %d registered" % app_id)
        if app.mode != ForwardingMode.PERIODICAL:
            raise ValueError("application %d is per-packet" % app_id)
        if app.stats.updates == 0:
            self._reset_period(app)
            return None
        items = flatten_snapshot(
            app.stats.snapshot(), min_array_names(app.specs)
        )
        packet = AggregationPacket(
            app_id=app.app_id,
            mode=ForwardingMode.PERIODICAL,
            items=items,
            source=self.name,
        )
        payload = app.agg_codec.encode(packet)
        self._m_reports.inc()
        self._reset_period(app)
        return payload

    def _reset_period(self, app: RegisteredApp) -> None:
        app.stats.reset()
        if app.dedup is not None:
            app.dedup.reset()

    def stats_report(self, app_id: int) -> Dict[str, Any]:
        return self._apps[app_id].stats.report()

    # -- per-user engagement (bounded-memory scale path) -----------------------

    def drain_user_stats(self, app_id: int) -> Optional[Dict[str, Any]]:
        """Snapshot-and-reset the app's engagement tracker — the
        period-boundary handoff the AggSwitch absorbs.  The sketch
        state does *not* ride :func:`flatten_snapshot` (whose tag
        format caps arrays at 1024 cells and carries no key bytes);
        it travels as its own snapshot payload.  Returns ``None`` when
        the app has no tracker."""
        app = self._apps.get(app_id)
        if app is None:
            raise KeyError("no application %d registered" % app_id)
        if app.users is None:
            return None
        return app.users.drain()

    def user_report(self, app_id: int) -> Optional[Dict[str, Any]]:
        app = self._apps[app_id]
        return app.users.report() if app.users is not None else None

    # -- checkpointing (supervised shard runtime) ------------------------------

    def checkpoint(self, app_id: int) -> Dict[str, Any]:
        """Raw register snapshot of an application's statistics — the
        unit the supervised shard runtime persists at epoch flushes.
        The per-kind folds are associative, so a crashed replica
        restored from this and replayed from the matching stream
        position reproduces the uninterrupted registers cell for cell.
        When the app tracks per-user engagement, its tracker state
        rides along under the reserved ``"user_quantiles"`` key."""
        app = self._apps.get(app_id)
        if app is None:
            raise KeyError("no application %d registered" % app_id)
        snapshot: Dict[str, Any] = app.stats.snapshot()
        if app.users is not None:
            snapshot["user_quantiles"] = app.users.snapshot()
        return snapshot

    def restore(self, app_id: int, snapshot: Dict[str, Any]) -> None:
        """Inverse of :meth:`checkpoint`: overwrite the registers with a
        saved snapshot (crash recovery before replaying the tail)."""
        app = self._apps.get(app_id)
        if app is None:
            raise KeyError("no application %d registered" % app_id)
        snapshot = dict(snapshot)
        user_state = snapshot.pop("user_quantiles", None)
        app.stats.load_snapshot(snapshot)
        if user_state is not None and app.users is not None:
            app.users.load_snapshot(user_state)


_MIN_SENTINEL = (1 << 48) - 1  # matches repro.core.stats


def flatten_snapshot(
    snapshot: Dict[str, List[int]],
    min_arrays: Optional[set] = None,
) -> List[Tuple[int, int]]:
    """Flatten a stats snapshot into (tag, value) items.

    The tag packs (array ordinal, cell index); both sides derive the
    same array ordering from the application's StatSpec list, so tags
    are unambiguous.  Idle cells (zero, or the sentinel for MIN
    arrays) are skipped to keep packets small.
    """
    min_arrays = min_arrays or set()
    items: List[Tuple[int, int]] = []
    for ordinal, name in enumerate(sorted(snapshot)):
        idle = _MIN_SENTINEL if name in min_arrays else 0
        for index, value in enumerate(snapshot[name]):
            if value != idle:
                items.append(((ordinal << 10) | index, value))
    return items


def unflatten_snapshot(
    items: List[Tuple[int, int]],
    reference: Dict[str, List[int]],
    min_arrays: Optional[set] = None,
) -> Dict[str, List[int]]:
    """Inverse of :func:`flatten_snapshot` given a reference snapshot
    (for array names and sizes)."""
    min_arrays = min_arrays or set()
    names = sorted(reference)
    out = {
        name: [_MIN_SENTINEL if name in min_arrays else 0]
        * len(reference[name])
        for name in names
    }
    for tag, value in items:
        ordinal, index = tag >> 10, tag & 0x3FF
        if ordinal >= len(names):
            raise ValueError("tag ordinal %d out of range" % ordinal)
        name = names[ordinal]
        if index >= len(out[name]):
            raise ValueError("tag index %d out of range for %s" % (index, name))
        out[name][index] = value
    return out


def lark_process_raw(lark: "LarkSwitch", packet_bytes: bytes) -> LarkResult:
    """Process a raw on-the-wire packet through a LarkSwitch.

    Runs the P4-style parser (eth/ipv4/udp/quic) to recover the
    connection ID, then hands it to the match-action pipeline —
    the full data-plane path from bytes to statistics.  Non-QUIC
    traffic (the parser accepts before reaching the quic state)
    passes through untouched.
    """
    from repro.switch.parser import ParseError, snatch_parser

    try:
        fields, _payload_offset = snatch_parser().parse(packet_bytes)
    except ParseError:
        return LarkResult(
            matched=False,
            forwarded_original=True,
            aggregation_payload=None,
            latency_ms=0.001,
        )
    if "quic.app_id" not in fields:
        return LarkResult(
            matched=False,
            forwarded_original=True,
            aggregation_payload=None,
            latency_ms=0.001,
        )
    dcid = (
        bytes([fields["quic.dcid_b0"], fields["quic.app_id"]])
        + fields["quic.cookie_block"].to_bytes(16, "big")
        + fields["quic.dcid_r2"].to_bytes(2, "big")
    )
    return lark.process_quic_packet(ConnectionID(dcid))
