"""Self-time and coverage arithmetic on synthetic nested spans."""

import pytest

from perfbench.spans import SpanRecorder, attribute, coverage, self_times


def nested():
    # root [0, 10]: a [1, 4] (holding a.inner [2, 3]) and b [5, 9].
    return [
        ["root", 0.0, 10.0, -1, 1],
        ["a", 1.0, 4.0, 0, 1],
        ["a.inner", 2.0, 3.0, 1, 1],
        ["b", 5.0, 9.0, 0, 1],
    ]


def test_self_time_subtracts_direct_children_only():
    assert self_times(nested()) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_times_partition_the_root_interval():
    assert sum(self_times(nested())) == pytest.approx(10.0)


def test_overlapping_and_overhanging_children_count_once():
    spans = [
        ["root", 0.0, 10.0, -1, 1],
        ["x", 2.0, 6.0, 0, 1],
        ["y", 4.0, 8.0, 0, 1],  # overlaps x on [4, 6]
        ["z", 9.0, 12.0, 0, 1],  # runs past the root's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_self_time_never_negative():
    spans = [["root", 0.0, 1.0, -1, 1], ["c", 0.0, 1.0, 0, 1]]
    assert self_times(spans) == [0.0, 1.0]


def test_coverage_is_non_root_self_time_over_root_wall():
    assert coverage(nested()) == pytest.approx((2.0 + 1.0 + 4.0) / 10.0)


def test_coverage_of_no_wall_time_is_zero():
    assert coverage([]) == 0.0


def test_attribute_groups_self_time_and_drops_unmapped_spans():
    metric = {"root": "self", "a": "layer", "a.inner": "layer"}.get
    assert attribute(nested(), metric) == pytest.approx(
        {"self": 3.0, "layer": 3.0}
    )


def test_recorder_nests_spans_and_counts_returned_items():
    recorder = SpanRecorder("t")
    inner = recorder.wrap(lambda n: list(range(n)), "inner")
    outer = recorder.wrap(lambda: inner(3) + inner(2), "outer")
    assert outer() == [0, 1, 2, 0, 1]
    names = [s[0] for s in recorder.spans]
    parents = [s[3] for s in recorder.spans]
    items = [s[4] for s in recorder.spans]
    assert names == ["outer", "inner", "inner"]
    assert parents == [-1, 0, 0]
    assert items == [5, 3, 2]
    assert all(s[1] <= s[2] for s in recorder.spans)


def test_recorder_closes_span_when_call_raises():
    recorder = SpanRecorder("t")

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        recorder.wrap(boom, "boom")()
    recorder.wrap(lambda: None, "next")()
    assert [s[3] for s in recorder.spans] == [-1, -1]
    assert recorder.spans[0][2] >= recorder.spans[0][1]


def test_disabled_recorder_records_nothing():
    recorder = SpanRecorder("t")
    fn = recorder.wrap(lambda: 1, "f")
    recorder.enabled = False
    assert fn() == 1
    assert recorder.spans == []


class Layer:
    @property
    def size(self):
        return 0

    def encode(self, x):
        return self.encode_many([x])[0]

    def encode_many(self, xs):
        return [x * 2 for x in xs]

    def _private(self):
        return None


def test_wrap_public_covers_every_public_method_and_nested_calls():
    recorder = SpanRecorder("t")
    layer = Layer()
    recorder.wrap_public(layer, "codec")
    assert layer.encode(4) == 8
    assert layer.size == 0
    layer._private()
    assert [s[0] for s in recorder.spans] == [
        "codec.encode", "codec.encode_many",
    ]
    assert recorder.spans[1][3] == 0
    assert recorder.spans[1][4] == 1
    assert type(layer).encode is Layer.encode  # class left untouched
