from __future__ import annotations

import threading

import pytest

from e2ebench.spans import Span, Tracer, covered_seconds, self_seconds


def _span(i, name, start, end, parent=None):
    return Span(span_id=i, name=name, start=start, end=end, parent=parent, unit=None)


def test_self_time_is_duration_minus_covered_children():
    spans = [
        _span(0, "unit", 0.0, 10.0),
        _span(1, "core.ingest", 1.0, 4.0, parent=0),
        _span(2, "core.ingest", 5.0, 9.0, parent=0),
        _span(3, "storage.put", 2.0, 3.0, parent=1),
        _span(4, "storage.get", 6.0, 6.5, parent=2),
    ]
    selfs = self_seconds(spans)
    assert selfs[0] == pytest.approx(10.0 - 3.0 - 4.0)
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(4.0 - 0.5)
    assert selfs[3] == pytest.approx(1.0)
    # Self times partition the root: nothing is counted twice or lost.
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_overlapping_children_are_covered_once_and_clipped():
    # Two children overlap in [3, 4]; one sticks out past the parent.
    assert covered_seconds([(1.0, 4.0), (3.0, 6.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(6.0)
    spans = [
        _span(0, "parent", 0.0, 10.0),
        _span(1, "a", 1.0, 4.0, parent=0),
        _span(2, "b", 3.0, 6.0, parent=0),
        _span(3, "c", 9.0, 12.0, parent=0),
    ]
    assert self_seconds(spans)[0] == pytest.approx(4.0)


def test_tracer_tracks_parent_and_unit_per_thread():
    tracer = Tracer()
    with tracer.span("unit", unit="pc00/gen000"):
        with tracer.span("core.ingest") as inner:
            pass

    def other():
        with tracer.span("unit", unit="pc01/gen000"):
            pass

    th = threading.Thread(target=other)
    th.start()
    th.join(timeout=10)
    assert not th.is_alive()
    outer, child, foreign = tracer.spans
    assert child is inner and child.parent == outer.span_id
    assert child.unit == "pc00/gen000"  # inherited
    assert foreign.parent is None  # another thread's stack is its own
    assert outer.start <= child.start <= child.end <= outer.end


def test_disabled_tracer_records_nothing(tmp_path):
    tracer = Tracer(enabled=False)
    with tracer.span("unit") as s:
        assert s is None
    assert tracer.spans == []


def test_write_then_adopt_round_trips(tmp_path):
    server = Tracer()
    with server.span("storage.put", nbytes=7, ns="chunk", rewrite=False):
        pass
    path = tmp_path / "spans.jsonl"
    server.write(path)
    client = Tracer()
    with client.span("unit"):
        pass
    client.adopt(path, unit="server")
    adopted = client.spans[1]
    assert (adopted.span_id, adopted.parent, adopted.unit) == (1, None, "server")
    assert adopted.name == "storage.put" and adopted.nbytes == 7
    assert adopted.attrs == {"ns": "chunk", "rewrite": False}
