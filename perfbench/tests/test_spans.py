"""Self time and unattributed time over synthetic span trees."""

import pytest

from common import tail
from spans import OP, Span, Tracer, breakdowns, self_times


def _span(id, parent, name, start, end, op=1):
    return Span(id, parent, op, name, start, end)


def test_self_time_subtracts_children_and_sums_to_wall():
    spans = [
        _span(1, None, OP, 0.0, 10.0),
        _span(2, 1, "frontend", 1.0, 5.0),
        _span(3, 2, "parse", 2.0, 3.0),
        _span(4, 1, "valueflow", 6.0, 9.0),
    ]
    selfs = self_times(spans)
    assert selfs == {1: 3.0, 2: 3.0, 3: 1.0, 4: 3.0}
    (op,) = breakdowns(spans)
    assert op.wall == 10.0
    assert op.unattributed == 3.0
    assert sum(op.layers.values()) == pytest.approx(op.wall)


def test_overlapping_and_overhanging_children_count_once():
    spans = [
        _span(1, None, OP, 0.0, 10.0),
        _span(2, 1, "a", 1.0, 4.0),
        _span(3, 1, "b", 3.0, 6.0),      # overlaps a
        _span(4, 1, "c", 9.0, 12.0),     # runs past its parent
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 1.0)


def test_same_layer_spans_add_up_per_operation():
    spans = [
        _span(1, None, OP, 0.0, 4.0),
        _span(2, 1, "lower", 0.0, 1.0),
        _span(3, 1, "lower", 2.0, 3.0),
        _span(10, None, OP, 5.0, 6.0, op=10),
    ]
    ops = breakdowns(spans)
    assert [op.op for op in ops] == [1, 10]
    assert ops[0].layers == {OP: 2.0, "lower": 2.0}
    assert ops[1].unattributed == 1.0


def test_wrap_records_nested_spans_and_restore_unwraps():
    class Layer:
        def inner(self):
            return 1

        def outer(self):
            return self.inner() + 1

    original = Layer.outer
    tracer = Tracer()
    tracer.wrap(Layer, "outer", "outer")
    tracer.wrap(Layer, "inner", "inner")
    root = tracer.begin_op()
    assert Layer().outer() == 2
    tracer.end(root)
    tracer.restore()
    assert Layer.outer is original
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["outer"].parent == root.id
    assert {s.op for s in tracer.spans} == {root.id}
    (op,) = breakdowns(tracer.spans)
    assert sum(op.layers.values()) == pytest.approx(op.wall)


def test_reported_spans_nest_under_their_parent():
    tracer = Tracer()
    root = tracer.begin_op()
    call = tracer.begin("client.analyze")
    tracer.end(call)
    tracer.end(root)
    at = call.end - 0.0
    tracer.add_reported(call, "valueflow", 0.0, at)
    (op,) = breakdowns(tracer.spans)
    assert "valueflow" in op.layers
    assert sum(op.layers.values()) == pytest.approx(op.wall)


def test_tail_is_the_eleventh_largest_sample():
    values = list(range(1, 101))
    assert tail(values) == (90.0, 90)
    assert tail(values[:11]) == (100.0 * 1 / 11, 1)
    assert tail([3, 1, 2]) == (100.0, 3)
