"""Host-speed calibration: one fixed kernel timed next to every run.

On a shared host the same code runs up to 2x slower for tens of
seconds at a time, in wall time and in CPU time alike, because the
virtual CPU itself slows.  Timing a fixed kernel right before and right
after each measured run tells how fast the host was at the time, and
the timings are scaled to a reference host on which the kernel takes
``REFERENCE_S``.  A scaled figure reads the same in a fast and a slow
spell; a change to the program still moves it, because the kernel
depends on nothing outside this file.

The kernel mixes what the pipeline does: interpreted integer and dict
work (cookie and report encryption, lark decode, the folds) and numpy
array passes (the columnar kernels).
"""

from __future__ import annotations

import statistics
import time

# Seconds of one kernel chunk, twice (before + after a run), on the
# reference host: about the median on the 2-vCPU KVM guest the benchmark
# was built on.
REFERENCE_S = 0.02

_CHUNKS = 9
_ROUNDS = 20_000
_ARRAY = 50_000
_PASSES = 3


def _chunk(np) -> float:
    t0 = time.perf_counter()
    table = {}
    acc = 0
    for i in range(_ROUNDS):
        key = (i * 2654435761) & 0xFFFF
        table[key] = table.get(key, 0) + 1
        acc ^= key >> 3
    if np is not None:
        column = np.arange(_ARRAY, dtype=np.int64)
        for _ in range(_PASSES):
            column = (column * 31 + 7) & 0xFFFFFF
            column.sort()
    else:
        column = list(range(_ARRAY // 10))
        for _ in range(_PASSES):
            column = sorted((v * 31 + 7) & 0xFFFFFF for v in column)
    return time.perf_counter() - t0


def kernel_s() -> float:
    """Wall seconds of one kernel chunk now (about 10 ms): the median
    of several, so that a chunk caught by a brief stall of the virtual
    CPU does not stand for the whole spell."""
    from repro.switch.columns import get_numpy

    np = get_numpy()
    return statistics.median(_chunk(np) for _ in range(_CHUNKS))


def speed(before_s: float, after_s: float) -> float:
    """How many times faster than the reference host the host ran,
    from the kernel timed just before and just after a run."""
    return REFERENCE_S / (before_s + after_s)
