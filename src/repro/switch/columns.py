"""Columnar (struct-of-arrays) packet representation for the data plane.

The scalar pipeline hands every packet around as a Python dict (one PHV
per packet); the batch fast path amortizes dispatch but still runs a
Python-object inner loop.  For sketch-style switch analytics — hashing,
Bloom tests, register scatter-adds — the per-packet work is identical
ALU arithmetic over different bytes, which is exactly the shape that
vectorizes.  This module provides the shared substrate:

* :data:`HAVE_NUMPY` / :func:`numpy_enabled` — a single gate for the
  optional numpy dependency.  Setting the environment variable
  ``REPRO_NO_NUMPY=1`` (or calling :func:`force_numpy`) disables the
  vectorized kernels even when numpy is importable, which is how the
  CI fallback job and the differential suite prove the pure-Python
  path is the semantic reference.
* :data:`BACKENDS` — the selectable data-plane backends: ``scalar``
  (the per-packet oracle) and ``columnar`` (these kernels, which run
  their pure-Python form while the gate is closed).
* :data:`PATHS` — what comparisons run: the two backends plus
  ``no_numpy``, columnar with the gate forced closed.
  :func:`backend_of` names a path's backend and :func:`gate` is the
  context it runs under.
* :class:`PacketColumns` — a batch of packets as padded byte matrices
  plus parallel integer arrays (lengths, leading header fields), built
  once per batch by the parser/switch front end.
* :func:`group_rows` — duplicate-grouping over a byte-slice of every
  row (the "group duplicate cookie bytes before hitting the cipher"
  primitive): returns first-occurrence indexes and an inverse mapping,
  vectorized via ``np.unique`` when numpy is on and a dict scan
  otherwise.  Both implementations return identical groupings with
  first-occurrence order preserved.

Every kernel built on top of this module (vectorized CRC, batched AES,
register scatter ops) is *bit-identical* to its scalar counterpart;
``tests/differential`` proves it end to end.
"""

from __future__ import annotations

import os
from contextlib import contextmanager, nullcontext
from typing import Any, Iterator, List, Optional, Sequence, Tuple

try:  # pragma: no cover - exercised via the no-numpy CI job
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

__all__ = [
    "BACKENDS",
    "check_backend",
    "PATHS",
    "backend_of",
    "gate",
    "HAVE_NUMPY",
    "numpy_enabled",
    "force_numpy",
    "numpy_forced",
    "get_numpy",
    "PacketColumns",
    "group_rows",
]

HAVE_NUMPY = _np is not None

#: The data-plane backends every runtime accepts.
BACKENDS = ("scalar", "columnar")


def check_backend(backend: str) -> None:
    """Raise ValueError unless ``backend`` is one of :data:`BACKENDS`."""
    if backend not in BACKENDS:
        raise ValueError(
            "unknown backend %r (expected one of %s)"
            % (backend, "/".join(BACKENDS))
        )


# Tri-state override: None = follow availability, True/False = forced.
_FORCED: Optional[bool] = None
if os.environ.get("REPRO_NO_NUMPY", "").strip() not in ("", "0"):
    _FORCED = False


def numpy_enabled() -> bool:
    """True when the vectorized kernels should run."""
    if _FORCED is not None:
        return _FORCED and HAVE_NUMPY
    return HAVE_NUMPY


def force_numpy(enabled: Optional[bool]) -> None:
    """Override the numpy gate (``None`` restores auto-detection).

    Used by the differential suite to run the very same workload with
    kernels on and off; production code never calls this.
    """
    global _FORCED
    _FORCED = enabled


@contextmanager
def numpy_forced(enabled: Optional[bool]) -> Iterator[None]:
    """:func:`force_numpy` for the duration of a ``with`` block, then
    put back whatever override was in force before."""
    global _FORCED
    saved = _FORCED
    _FORCED = enabled
    try:
        yield
    finally:
        _FORCED = saved


#: Comparison paths, slowest to fastest on hosts with numpy: the scalar
#: oracle, columnar with the numpy gate forced closed (its pure-Python
#: kernel), and columnar with the gate as the environment has it.
PATHS = ("scalar", "no_numpy", "columnar")


def backend_of(path: str) -> str:
    """The backend a comparison path runs on."""
    return "columnar" if path == "no_numpy" else path


def gate(path: str):
    """The context ``path`` runs under: the numpy gate forced closed
    for ``no_numpy``, left as it is otherwise."""
    return numpy_forced(False) if path == "no_numpy" else nullcontext()


def get_numpy():
    """The numpy module, or ``None`` when the gate is closed."""
    return _np if numpy_enabled() else None


class PacketColumns:
    """A batch of variable-length byte strings as struct-of-arrays.

    ``data`` is an ``(n, max_len)`` uint8 matrix, rows zero-padded past
    their length; ``lengths`` the per-row byte counts.  When numpy is
    unavailable the same attributes hold plain Python lists and the
    consumers fall back to scalar loops.
    """

    __slots__ = ("_raw", "data", "lengths", "n", "max_len", "vectorized")

    def __init__(self, rows: Sequence[bytes]):
        raw: List[bytes] = [bytes(r) for r in rows]
        self._raw: Optional[List[bytes]] = raw
        self.n = len(raw)
        lens = [len(r) for r in raw]
        self.max_len = max(lens, default=0)
        np = get_numpy()
        self.vectorized = np is not None
        if np is not None:
            lengths = np.asarray(lens, dtype=np.int64)
            if self.n and lens.count(self.max_len) == self.n:
                # Uniform row length (the common case — e.g. 20-byte
                # connection IDs): one buffer join + reshape instead
                # of a frombuffer call per row.
                data = np.frombuffer(
                    b"".join(raw), dtype=np.uint8
                ).reshape(self.n, self.max_len).copy()
            else:
                data = np.zeros((self.n, self.max_len), dtype=np.uint8)
                for i, row in enumerate(raw):
                    if row:
                        data[i, : len(row)] = np.frombuffer(
                            row, dtype=np.uint8
                        )
            self.data = data
            self.lengths = lengths
        else:
            self.data = None
            self.lengths = lens

    @classmethod
    def from_matrix(cls, data, lengths=None) -> "PacketColumns":
        """Wrap an existing ``(n, width)`` uint8 matrix directly.

        The batched packet-assembly path builds the DCID matrix without
        ever holding per-row ``bytes`` objects; ``raw`` materializes
        them lazily only if a scalar consumer asks.  Requires the numpy
        gate open (callers on the scalar path build from rows instead).
        """
        np = get_numpy()
        if np is None:
            raise RuntimeError(
                "PacketColumns.from_matrix needs the numpy gate open"
            )
        self = cls.__new__(cls)
        data = np.ascontiguousarray(data, dtype=np.uint8)
        if data.ndim != 2:
            raise ValueError("expected an (n, width) matrix")
        self._raw = None
        self.n = int(data.shape[0])
        self.max_len = int(data.shape[1]) if self.n else 0
        self.data = data
        if lengths is None:
            self.lengths = np.full(self.n, self.max_len, dtype=np.int64)
        else:
            self.lengths = np.asarray(lengths, dtype=np.int64)
        self.vectorized = True
        return self

    @property
    def raw(self) -> List[bytes]:
        """Per-row ``bytes`` (materialized lazily for matrix-built
        batches; cached afterwards)."""
        if self._raw is None:
            flat = self.data.tobytes()
            m = self.max_len
            self._raw = [
                flat[i * m:i * m + int(self.lengths[i])]
                for i in range(self.n)
            ]
        return self._raw

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        return iter(self.raw)

    # -- column extraction -------------------------------------------------

    def byte_column(self, index: int, default: int = -1):
        """Byte at ``index`` of every row (``default`` where too short).

        Returns an int64 array when vectorized, else a list.
        """
        np = get_numpy()
        if np is not None and self.vectorized:
            out = np.full(self.n, default, dtype=np.int64)
            mask = self.lengths > index
            if index < self.max_len:
                out[mask] = self.data[mask, index]
            return out
        return [
            row[index] if len(row) > index else default for row in self.raw
        ]

    def be16_column(self, index: int, default: int = 0):
        """Big-endian 16-bit field at ``index`` (``default`` if short)."""
        np = get_numpy()
        if np is not None and self.vectorized:
            out = np.full(self.n, default, dtype=np.int64)
            mask = self.lengths >= index + 2
            if index + 1 < self.max_len:
                out[mask] = (
                    self.data[mask, index].astype(np.int64) << 8
                ) | self.data[mask, index + 1]
            return out
        return [
            int.from_bytes(row[index:index + 2], "big")
            if len(row) >= index + 2 else default
            for row in self.raw
        ]


def group_rows(
    rows: Sequence[bytes],
    start: int = 0,
    end: Optional[int] = None,
) -> Tuple[List[bytes], List[int], "Any"]:
    """Group rows by the byte slice ``[start, end)`` (plus row length).

    Returns ``(keys, firsts, inverse)`` where ``keys[g]`` is the slice
    bytes of group ``g``, ``firsts[g]`` the index of its first
    occurrence, and ``inverse[i]`` the group of row ``i``.  Groups are
    numbered in first-occurrence order, so the scalar and vectorized
    implementations agree exactly.  Two rows with different total
    lengths never share a group even if their slices match (a truncated
    cookie must not alias a full one in the decode memo).
    """
    np = get_numpy()
    if np is not None and len(rows) > 1:
        columns = rows if isinstance(rows, PacketColumns) else None
        if columns is None:
            columns = PacketColumns(rows)
        if columns.vectorized and columns.max_len > 0:
            stop = columns.max_len if end is None else min(end, columns.max_len)
            stop = max(stop, start)
            width = stop - start
            # Key matrix: [length byte-pair | zero-padded slice]; rows
            # shorter than the slice contribute their zero padding,
            # which is fine because length disambiguates.
            key = np.zeros((columns.n, width + 2), dtype=np.uint8)
            key[:, 0] = (columns.lengths >> 8).astype(np.uint8)
            key[:, 1] = (columns.lengths & 0xFF).astype(np.uint8)
            if width:
                key[:, 2:] = columns.data[:, start:stop]
            void = np.ascontiguousarray(key).view(
                np.dtype((np.void, key.shape[1]))
            ).ravel()
            _, first_idx, inverse = np.unique(
                void, return_index=True, return_inverse=True
            )
            # np.unique sorts by value; renumber groups by first
            # occurrence so the ordering matches the scalar scan.
            order = np.argsort(first_idx, kind="stable")
            rank = np.empty_like(order)
            rank[order] = np.arange(len(order))
            inverse = rank[inverse]
            firsts = first_idx[order]
            raws = columns.raw
            keys = [
                raws[int(i)][start:end] if end is not None
                else raws[int(i)][start:]
                for i in firsts
            ]
            return keys, [int(i) for i in firsts], inverse
    # Scalar fallback: one dict scan, first-occurrence order.
    raw_rows = rows.raw if isinstance(rows, PacketColumns) else rows
    seen = {}
    keys: List[bytes] = []
    firsts: List[int] = []
    inverse: List[int] = []
    for i, row in enumerate(raw_rows):
        row = bytes(row)
        sliced = row[start:end] if end is not None else row[start:]
        k = (len(row), sliced)
        group = seen.get(k)
        if group is None:
            group = len(keys)
            seen[k] = group
            keys.append(sliced)
            firsts.append(i)
        inverse.append(group)
    return keys, firsts, inverse
