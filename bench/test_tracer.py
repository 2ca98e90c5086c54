"""Tests of the span tracer: nesting, self time and computed work.

    python3 -m pytest bench -q
"""

import time

from tracer import SpanTable, Tracer


def test_self_time_excludes_child_spans(tmp_path):
    tracer = Tracer()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        inner()
        inner()

    inner = tracer.wrap("m.inner", inner)
    outer = tracer.wrap("m.outer", outer)
    outer()
    path = str(tmp_path / "spans.npz")
    tracer.save(path)
    table = SpanTable([path])

    assert table.calls("m.outer") == 1 and table.calls("m.inner") == 2
    assert table.calls("m.never") == 0 and table.median("m.never") == 0.0
    outer_self = table.total("m.outer", self_time=True)
    assert abs(outer_self - (table.total("m.outer")
                             - table.total("m.inner"))) < 1e-9
    assert 0.005 < outer_self < 0.03
    assert table.median("m.inner") >= 0.02


def test_work_and_result_counters(tmp_path):
    class Result:
        iterations_used = 7

    tracer = Tracer()
    run = tracer.wrap("m.run", lambda n: Result(),
                      work=("m.work", lambda n: 2.0 * n),
                      results=(("m.iterations", "iterations_used"),))
    run(3)
    run(4)
    path = str(tmp_path / "spans.npz")
    tracer.save(path)
    table = SpanTable([path, path])

    assert table.calls("m.run") == 4
    assert table.counter("m.work") == 2 * (6.0 + 8.0)
    assert table.counter("m.iterations") == 2 * 14
