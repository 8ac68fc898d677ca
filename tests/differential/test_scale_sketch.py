"""Differential proof for the scale path: exact vs sketch, per backend.

Three obligations:

* **Exact-mode transparency** — enabling per-user tracking must not
  perturb the registered statistics program: demographic reports stay
  bit-identical with tracking off, exact, or sketch.
* **Sketch fidelity** — the sampled tracker's quantiles must sit
  within the DKW rank bound of the exact tracker's on the same
  stream, and its distinct-user KMV estimate near the true count.
* **Backend / batch-shape invariance** — for a fixed mode, scalar,
  numpy-off columnar and columnar ingest must agree on the tracker's *sampled
  state* (entries, items, dropped) and the user report for every
  micro-batch size.  The ``evictions`` counter is excluded when the
  columnar path is involved: grouped observes fold duplicate keys
  before the sketch sees them, which changes how often the heap spills
  — an order-dependent cost metric, never the sampled state.
"""

import pytest

from repro.switch.columns import force_numpy
from repro.testbed.pipeline import StreamingPipeline
from repro.workloads.scale import ScaleWorkload

from tests.differential.workloads import PATHS, backend_of, gate

RATE = 4000.0
DURATION_MS = 500.0
USERS = 5000
ONE_SHOT = 1 << 20
EPSILON = 0.05


def _run(mode, backend="columnar", batch_size=256, epsilon=EPSILON):
    pipe = StreamingPipeline(
        ScaleWorkload(num_users=USERS, seed=13),
        seed=13,
        backend=backend,
        batch_size=batch_size,
        user_stats=mode,
        quantile_epsilon=epsilon,
    )
    result = pipe.run(RATE, DURATION_MS)
    return pipe, result


def _tracker_state(pipe):
    """Order-insensitive tracker observables: the snapshot minus the
    eviction counter (see module docstring)."""
    snapshot = pipe.agg._apps[pipe.app_id].users.snapshot()
    snapshot.pop("evictions", None)
    return snapshot


@pytest.fixture
def no_numpy():
    force_numpy(False)
    try:
        yield
    finally:
        force_numpy(None)


class TestExactModeTransparency:
    def test_tracking_leaves_demographics_untouched(self):
        # The registered statistics program must be byte-identical
        # whether tracking is off, exact, or sketched; the report only
        # *gains* the user_engagement section.
        _, off = _run(None)
        _, exact = _run("exact")
        _, sketch = _run("sketch")
        for stat in off.report:
            assert off.report[stat] == exact.report[stat], stat
            assert off.report[stat] == sketch.report[stat], stat
        assert "user_engagement" not in off.report
        assert "user_engagement" in exact.report
        assert off.register_state == exact.register_state
        assert off.register_state == sketch.register_state
        assert off.counts_match_reference()
        assert off.user_report is None
        assert exact.user_report is not None

    def test_exact_and_sketch_see_same_stream(self):
        _, exact = _run("exact")
        _, sketch = _run("sketch")
        assert exact.events == sketch.events
        assert exact.user_report["events"] == sketch.user_report["events"]


class TestSketchFidelity:
    def test_quantiles_within_rank_bound(self):
        pipe, exact = _run("exact")
        _, sketch = _run("sketch")
        # Reconstruct the exact per-user count distribution from the
        # exact tracker, then check each sketch quantile lands within
        # the epsilon rank bracket of it (plus DKW's delta slack).
        counts = sorted(
            count for _, count in
            pipe.agg._apps[pipe.app_id].users.snapshot()["counts"]
        )
        m = len(counts)
        slack = EPSILON + 0.02
        for label, q in (("p50", 0.50), ("p90", 0.90), ("p99", 0.99)):
            got = sketch.user_report["quantiles"][label]
            lo_rank = max(int((q - slack) * m) - 1, 0)
            hi_rank = min(int((q + slack) * m) + 1, m - 1)
            assert counts[lo_rank] <= got <= counts[hi_rank], (
                label, got, counts[lo_rank], counts[hi_rank]
            )

    def test_distinct_estimate_close(self):
        _, exact = _run("exact")
        _, sketch = _run("sketch")
        true_users = exact.user_report["users"]
        est = sketch.user_report["users"]
        assert abs(est - true_users) / true_users < 0.13

    def test_sample_bounded_under_churn(self):
        # Long enough that distinct users overflow the sample: the
        # kept set must stay at capacity while the distinct estimate
        # keeps growing past it.
        pipe = StreamingPipeline(
            ScaleWorkload(num_users=USERS, seed=13),
            seed=13,
            backend="columnar",
            user_stats="sketch",
            quantile_epsilon=EPSILON,
        )
        result = pipe.run(8000.0, 1000.0)
        report = result.user_report
        assert report["sampled_users"] <= 1060  # capacity_for(0.05)
        assert report["users"] > report["sampled_users"]


class TestBackendInvariance:
    @pytest.mark.parametrize("mode", ["exact", "sketch"])
    def test_backends_agree_on_sampled_state(self, mode):
        states = {}
        reports = {}
        for path in PATHS:
            with gate(path):
                pipe, result = _run(mode, backend=backend_of(path))
            states[path] = _tracker_state(pipe)
            reports[path] = result.user_report
        assert states["scalar"] == states["no_numpy"] == states["columnar"]
        assert (
            reports["scalar"] == reports["no_numpy"] == reports["columnar"]
        )

    @pytest.mark.parametrize("mode", ["exact", "sketch"])
    def test_batch_size_invariance(self, mode):
        _, one_shot = _run(mode, batch_size=ONE_SHOT)
        baseline = one_shot.user_report
        for batch_size in (1, 37, 512):
            _, streamed = _run(mode, batch_size=batch_size)
            assert streamed.user_report == baseline, batch_size
            assert streamed.report == one_shot.report

    def test_columnar_matches_without_numpy(self, no_numpy):
        pipe, result = _run("sketch")
        force_numpy(None)
        pipe_np, result_np = _run("sketch")
        assert result.user_report == result_np.user_report
        assert _tracker_state(pipe) == _tracker_state(pipe_np)
        assert result.report == result_np.report
