"""Whole-run ingest benchmark for both forwarding schemes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs samples of one workload (see ``perfbench/README.md``), each in a
fresh process forked from this one, until ``--seconds`` have passed,
checks every sample's output, and prints each metric by name with its
unit, median, quartiles and sample count.  The last line of standard
output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Timings are scaled to a reference host speed with a kernel timed next
to every run (see ``perfbench/calibrate.py``); the table also gives
them as measured.  ``--trace 0`` reports the end-to-end metrics.
``--trace 1`` runs pairs of an untraced and a traced sample and reports
the per-layer metrics plus ``trace.overhead`` (traced / untraced wall
time, both scaled).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import select
import signal
import statistics
import sys
import time
import traceback
from typing import Any, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SPANS_DIR = os.path.join(ROOT, ".perfbench", "spans")

MIN_SAMPLES = 3
SAMPLE_TIMEOUT_S = 60.0


def run_sample(
    workload: Any, seed: int, trace: bool, spans_path: Optional[str] = None
) -> Optional[Dict[str, Any]]:
    """One sample of ``workload`` (a :class:`perfbench.workloads.Workload`)
    in a fresh process forked from this one, which has imported the
    program but never run it; ``None`` if it crashed."""
    from perfbench import sample

    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            # Its own process group, so that a timeout also kills any
            # worker the sample spawned.
            os.setpgid(0, 0)
            out = sample.run_sample(workload, seed, trace, spans_path)
            with os.fdopen(write_fd, "w") as f:
                json.dump(out, f)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    os.close(write_fd)
    chunks = []
    deadline = time.monotonic() + SAMPLE_TIMEOUT_S
    with os.fdopen(read_fd, "rb") as f:
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([f], [], [], left)[0]:
                print("sample timed out after %.0f s" % SAMPLE_TIMEOUT_S,
                      file=sys.stderr)
                try:
                    os.killpg(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                os.waitpid(pid, 0)
                return None
            chunk = os.read(f.fileno(), 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        print("sample exited with code %d" % code, file=sys.stderr)
        return None
    return json.loads(b"".join(chunks))


class Gate:
    """Counts attempted and failed samples; a failed one gives no
    timing.  Every passing sample of a workload and seed must produce
    the same report digest."""

    def __init__(self):
        self.expected: Optional[str] = None
        self.attempted = 0
        self.failed = 0

    def admit(self, sample: Optional[Dict[str, Any]]) -> bool:
        self.attempted += 1
        if sample is None:
            self.failed += 1
            return False
        failures = list(sample["failures"])
        if self.expected is None:
            self.expected = sample["digest"]
        elif sample["digest"] != self.expected:
            failures.append("report digest differs")
        for failure in failures:
            print("FAILED %s seed %d: %s"
                  % (sample["workload"], sample["seed"], failure))
        if failures:
            self.failed += 1
        return not failures


def print_table(
    values: Dict[str, List[float]], units: Dict[str, str]
) -> Dict[str, Dict[str, Any]]:
    """Print every metric's summary; return the medians."""
    from perfbench.summary import summarize

    print("%-26s %-6s %14s %14s %14s %4s"
          % ("metric", "unit", "median", "q1", "q3", "n"))
    metrics = {}
    for name, unit in units.items():
        summary = summarize(values[name])
        tail = {k: v for k, v in summary.items() if k.startswith("p")}
        print("%-26s %-6s %14.6g %14.6g %14.6g %4d%s" % (
            name, unit, summary["median"], summary["q1"], summary["q3"],
            summary["n"], "".join("  %s=%.6g" % kv for kv in tail.items()),
        ))
        metrics[name] = {"value": summary["median"], "unit": unit}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: no repro package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, SRC]
    from perfbench.sample import E2E_UNITS, LAYER_UNITS
    from perfbench.workloads import WORKLOADS

    # Every sample is forked from here: keep the collector off the
    # objects imported so far, so that a sample's collections do not
    # copy the pages it shares with this process.
    gc.freeze()

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error("unknown workload %r (choose from %s)"
                     % (args.workload, ", ".join(WORKLOADS)))
    trace = bool(args.trace)
    gate = Gate()
    if workload.same_report_as is not None:
        # Same events through another tier: its digest is the one every
        # sample here must reproduce.
        reference = run_sample(
            WORKLOADS[workload.same_report_as], args.seed, False
        )
        if gate.admit(reference):
            print("reference %s digest %s"
                  % (workload.same_report_as, reference["digest"]))

    units = LAYER_UNITS if trace else E2E_UNITS
    values: Dict[str, List[float]] = {name: [] for name in units}
    measured: Dict[str, List[float]] = {name: [] for name in E2E_UNITS}
    speeds: List[float] = []
    host = None
    deadline = time.monotonic() + args.seconds
    rounds = 0
    while rounds < MIN_SAMPLES or time.monotonic() < deadline:
        rounds += 1
        sample = run_sample(workload, args.seed, False)
        if not gate.admit(sample):
            continue
        host = host or sample["host"]
        speeds.append(sample["speed"])
        if not trace:
            for name in units:
                values[name].append(sample["e2e"][name])
                measured[name].append(sample["measured"][name])
            continue
        spans_path = os.path.join(
            SPANS_DIR, "%s-seed%d-%d.json" % (workload.name, args.seed, rounds)
        )
        traced = run_sample(workload, args.seed, True, spans_path)
        if not gate.admit(traced):
            continue
        for name, value in traced["layers"].items():
            values[name].append(value)
        values["trace.overhead"].append(
            traced["wall_s"] * traced["speed"]
            / (sample["wall_s"] * sample["speed"])
        )

    if host is None or any(not v for v in values.values()):
        print("perfbench: no sample of %s passed" % workload.name,
              file=sys.stderr)
        return 1
    print("host " + json.dumps(host, sort_keys=True))
    print("workload %s seed %d: %d samples attempted, %d failed"
          % (workload.name, args.seed, gate.attempted, gate.failed))
    print("host speed %.4g x the reference host (median of %d samples)"
          % (statistics.median(speeds), len(speeds)))
    if not trace:
        print("as measured, before scaling to the reference host:")
        print_table(measured, E2E_UNITS)
        print("scaled to the reference host (reported):")
    metrics = print_table(values, units)
    correct = gate.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
