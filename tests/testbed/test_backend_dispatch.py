"""Fixed data-plane dispatch: two backends, named once, chosen up front.

Every runtime takes its backend as a constructor argument and runs it
for the whole run — there is no calibrating controller in between.
These tests pin the pieces that replaced it: every runtime refusing
the retired names, the per-backend batch callable all shard runtimes
share, the save/restore numpy override the ``no_numpy`` differential
path uses, and the two exit-1 gates of the ``bench`` comparison.
"""

import io
import json

import pytest

from repro.chaos import ChaosHarness, ShardFaultPlan
from repro.cli import main
from repro.core.aggregation import ForwardingMode
from repro.quic.connection_id import ConnectionID
from repro.switch.columns import (
    HAVE_NUMPY,
    PATHS,
    check_backend,
    numpy_enabled,
    numpy_forced,
)
from repro.testbed.executor import (
    ShardExecutor,
    ShardSpec,
    count_folded,
    shard_processor,
)
from repro.testbed.fastpath import BENCH_APP_ID, FastpathFixture
from repro.testbed.pipeline import StreamingPipeline
from repro.testbed.shm_ring import shared_memory_available
from repro.testbed.supervisor import ShardSupervisor
from repro.testbed.worker import ShardWorker

RETIRED = ("batch", "auto")


def _spec(kind):
    fixture = FastpathFixture(num_users=50, seed=5)
    return ShardSpec(
        kind=kind,
        app_id=BENCH_APP_ID,
        schema=fixture.schema,
        key=fixture.key,
        specs=tuple(fixture.specs),
        seed=fixture.seed,
        mode=ForwardingMode.PERIODICAL,
    )


@pytest.mark.parametrize("backend", RETIRED + ("gpu",))
def test_check_backend_rejects(backend):
    with pytest.raises(ValueError, match="scalar/columnar"):
        check_backend(backend)


_CONSTRUCTORS = {
    "executor": lambda b: ShardExecutor(_spec("agg"), backend=b),
    "supervisor": lambda b: ShardSupervisor(_spec("agg"), backend=b),
    "worker": lambda b: ShardWorker(_spec("agg"), 0, backend=b),
    "pipeline": lambda b: StreamingPipeline(None, backend=b),
    "chaos_harness": lambda b: ChaosHarness(backend=b),
    "fault_plan": lambda b: ShardFaultPlan().degrade_backend(0, b),
}


@pytest.mark.parametrize("runtime", sorted(_CONSTRUCTORS))
def test_runtimes_reject_retired_backend_names(runtime):
    """``batch`` and ``auto`` are refused before anything is built (the
    worker raises before it creates a ring or spawns a child)."""
    if runtime == "worker" and not shared_memory_available():
        pytest.skip("persistent workers need POSIX shared memory")
    for name in RETIRED:
        with pytest.raises(ValueError):
            _CONSTRUCTORS[runtime](name)


class _RecordingSwitch:
    """Stands in for a switch replica; records which entry point ran."""

    def __init__(self):
        self.calls = []

    def _batch(self, name):
        def run(rows):
            self.calls.append((name, list(rows)))
            return ["%s:%d" % (name, i) for i in range(len(rows))]

        return run

    @property
    def process_quic_columnar(self):
        return self._batch("quic_columnar")

    @property
    def process_columnar(self):
        return self._batch("columnar")

    def process_quic_packet(self, cid):
        self.calls.append(("quic_packet", cid))
        return "quic_packet"

    def process_packet(self, payload):
        self.calls.append(("packet", payload))
        return "packet"


class TestShardProcessor:
    ROWS = [b"\x01\x02", bytearray(b"\x03\x04")]

    @pytest.mark.parametrize("kind,entry", [
        ("lark", "quic_columnar"), ("agg", "columnar"),
    ])
    def test_columnar_hands_the_whole_batch_to_the_kernel(self, kind, entry):
        switch = _RecordingSwitch()
        out = shard_processor(_spec(kind), switch, "columnar")(self.ROWS)
        assert switch.calls == [(entry, self.ROWS)]
        assert out == ["%s:0" % entry, "%s:1" % entry]

    def test_scalar_lark_runs_one_connection_id_per_row(self):
        switch = _RecordingSwitch()
        out = shard_processor(_spec("lark"), switch, "scalar")(self.ROWS)
        assert out == ["quic_packet", "quic_packet"]
        assert switch.calls == [
            ("quic_packet", ConnectionID(b"\x01\x02")),
            ("quic_packet", ConnectionID(b"\x03\x04")),
        ]

    def test_scalar_agg_runs_one_bytes_payload_per_row(self):
        switch = _RecordingSwitch()
        out = shard_processor(_spec("agg"), switch, "scalar")(self.ROWS)
        assert out == ["packet", "packet"]
        assert switch.calls == [("packet", b"\x01\x02"),
                                ("packet", b"\x03\x04")]
        assert all(type(p) is bytes for _, p in switch.calls)

class _Result:
    def __init__(self, merged=False, decoded_values=None):
        self.merged = merged
        self.decoded_values = decoded_values


def test_count_folded_counts_merges_and_decodes_only():
    results = [
        _Result(merged=True),
        _Result(decoded_values={"clicks": 1}),
        _Result(decoded_values={}),  # decoded, even if empty
        _Result(),
        object(),  # neither attribute
    ]
    assert count_folded(results) == 3
    assert count_folded([]) == 0


def test_numpy_forced_restores_the_previous_override():
    outer = numpy_enabled()
    with numpy_forced(True):
        assert numpy_enabled() == HAVE_NUMPY
        with numpy_forced(False):
            assert not numpy_enabled()
            with numpy_forced(None):  # follow availability again
                assert numpy_enabled() == HAVE_NUMPY
            assert not numpy_enabled()
        assert numpy_enabled() == HAVE_NUMPY
        with pytest.raises(RuntimeError):
            with numpy_forced(False):
                raise RuntimeError("boom")
        # the inner override was unwound, the outer one kept
        assert numpy_enabled() == HAVE_NUMPY
    assert numpy_enabled() == outer


def _bench_result(numpy_on, reports_match=True, ratio=3.0):
    def section():
        return {
            **{path: {"packets_per_second": 1000.0} for path in PATHS},
            "speedup_vs_scalar": {path: 1.0 for path in PATHS},
            "columnar_vs_no_numpy": ratio,
            "reports_match": reports_match,
        }

    return {
        "packets": 10, "unique_users": 5, "batch_size": 4, "repeats": 1,
        "numpy": numpy_on, "lark": section(), "agg": section(),
    }


@pytest.mark.parametrize("numpy_on,reports_match,ratio,code,message", [
    (True, True, 3.0, 0, None),
    (True, False, 3.0, 1, "reports disagree"),
    (False, False, 1.0, 1, "reports disagree"),
    (True, True, 0.9, 1, "slower than its numpy-off kernel"),
    # numpy off: both sides ran the same kernel, no timing gate
    (False, True, 0.9, 0, None),
])
def test_bench_exit_gates(
    monkeypatch, tmp_path, numpy_on, reports_match, ratio, code, message
):
    result = _bench_result(numpy_on, reports_match, ratio)
    monkeypatch.setattr(
        "repro.testbed.fastpath.run_backend_bench", lambda **_: result
    )
    path = tmp_path / "fp.json"
    out = io.StringIO()
    assert main(["bench", "--json", str(path)], out=out) == code
    assert json.loads(path.read_text()) == result
    if message is None:
        assert "FAIL" not in out.getvalue()
    else:
        assert message in out.getvalue()


def test_bench_timing_gate_only_applies_to_periodical(monkeypatch, tmp_path):
    result = _bench_result(True, ratio=0.5)
    monkeypatch.setattr(
        "repro.testbed.fastpath.run_backend_bench", lambda **_: result
    )
    out = io.StringIO()
    argv = ["bench", "--mode", "per-packet",
            "--json", str(tmp_path / "fp.json")]
    assert main(argv, out=out) == 0
