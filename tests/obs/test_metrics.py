"""Tests for the metrics primitives: counters, gauges, histograms, registry."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs import COUNT_BUCKETS, SIZE_BUCKETS, Histogram, MetricsRegistry


class TestCounter:
    def test_starts_at_zero_and_adds(self):
        reg = MetricsRegistry()
        c = reg.counter("x")
        assert c.value == 0
        c.inc()
        c.inc(41)
        assert c.value == 42

    def test_rejects_negative_increments(self):
        c = MetricsRegistry().counter("x")
        with pytest.raises(ValueError):
            c.inc(-1)
        assert c.value == 0


class TestGauge:
    def test_set_and_set_max(self):
        g = MetricsRegistry().gauge("x")
        g.set(5.0)
        g.set_max(3.0)
        assert g.value == 5.0
        g.set_max(9.0)
        assert g.value == 9.0
        g.set(1.0)  # plain set may go down
        assert g.value == 1.0


class TestHistogramBoundaries:
    """Bucket-edge semantics: a value equal to a bound lands in that
    bucket (``le`` semantics, matching Prometheus)."""

    def test_value_on_bound_goes_to_that_bucket(self):
        h = Histogram([10.0, 20.0, 30.0])
        h.observe(10.0)
        assert h.counts == [1, 0, 0, 0]
        h.observe(10.5)
        assert h.counts == [1, 1, 0, 0]
        h.observe(30.0)
        assert h.counts == [1, 1, 1, 0]

    def test_overflow_goes_to_inf_bucket(self):
        h = Histogram([10.0])
        h.observe(10.0001)
        assert h.counts == [0, 1]

    def test_below_first_bound_goes_to_first_bucket(self):
        h = Histogram([10.0, 20.0])
        h.observe(-5.0)
        h.observe(0.0)
        assert h.counts == [2, 0, 0]

    def test_cumulative_is_running_sum(self):
        h = Histogram([1.0, 2.0, 4.0])
        h.observe_many([0.5, 1.0, 1.5, 3.0, 99.0])
        assert h.counts == [2, 1, 1, 1]
        assert h.cumulative() == [2, 3, 4, 5]
        assert h.total == 5
        assert h.sum == pytest.approx(105.0)

    def test_default_buckets_cover_every_paper_ecs(self):
        h = Histogram(SIZE_BUCKETS)
        for ecs in (512, 1024, 2048, 4096, 8192):
            h.observe(float(ecs))
        assert h.counts[-1] == 0  # nothing overflowed to +Inf

    def test_bounds_must_be_strictly_increasing(self):
        with pytest.raises(ValueError):
            Histogram([1.0, 1.0])
        with pytest.raises(ValueError):
            Histogram([2.0, 1.0])
        with pytest.raises(ValueError):
            Histogram([])

    def test_merge_requires_identical_bounds(self):
        a, b = Histogram([1.0, 2.0]), Histogram([1.0, 3.0])
        with pytest.raises(ValueError):
            a.merge(b)


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h", COUNT_BUCKETS) is reg.histogram("h", COUNT_BUCKETS)

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError):
            reg.gauge("a")
        with pytest.raises(TypeError):
            reg.histogram("a")

    def test_histogram_bounds_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.histogram("h", [1.0, 2.0])
        with pytest.raises(ValueError):
            reg.histogram("h", [1.0, 3.0])

    def test_names_and_len(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.gauge("a")
        assert reg.names() == ("a", "b")
        assert len(reg) == 2
        assert "a" in reg and "z" not in reg

    def test_as_dict_shapes(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(1.5)
        reg.histogram("h", [1.0]).observe(0.5)
        d = reg.as_dict()
        assert d["c"] == 3
        assert d["g"] == 1.5
        assert d["h"] == {"bounds": [1.0], "counts": [1, 0], "count": 1, "sum": 0.5}


# ---- merge algebra ---------------------------------------------------------


def _registry(spec: dict) -> MetricsRegistry:
    """Build a registry from {name: int|float|list-of-observations}."""
    reg = MetricsRegistry()
    for name, v in spec.items():
        if name.startswith("c."):
            reg.counter(name).inc(v)
        elif name.startswith("g."):
            reg.gauge(name).set(v)
        else:
            reg.histogram(name, COUNT_BUCKETS).observe_many(v)
    return reg


_SPECS = st.dictionaries(
    st.sampled_from(["c.a", "c.b", "g.a", "g.b", "h.a", "h.b"]),
    st.integers(min_value=0, max_value=100),
    max_size=6,
).map(
    lambda d: {
        k: (
            [float(v)] * 3
            if k.startswith("h.")
            else (float(v) if k.startswith("g.") else v)
        )
        for k, v in d.items()
    }
)


@given(_SPECS, _SPECS, _SPECS)
def test_merge_is_associative_and_commutative(sa, sb, sc):
    """(a+b)+c == a+(b+c) and a+b == b+a, for every metric kind."""
    left = _registry(sa)
    left.merge(_registry(sb))
    left.merge(_registry(sc))

    bc = _registry(sb)
    bc.merge(_registry(sc))
    right = _registry(sa)
    right.merge(bc)
    assert left.as_dict() == right.as_dict()

    ba = _registry(sb)
    ba.merge(_registry(sa))
    ab = _registry(sa)
    ab.merge(_registry(sb))
    assert ab.as_dict() == ba.as_dict()


def test_merge_kind_conflict_raises():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("x")
    b.gauge("x")
    with pytest.raises(TypeError):
        a.merge(b)


def test_merge_deep_copies_missing_metrics():
    a, b = MetricsRegistry(), MetricsRegistry()
    b.counter("only.b").inc(2)
    a.merge(b)
    a.counter("only.b").inc(10)
    assert b.counter("only.b").value == 2


class TestFiltered:
    def test_prefix_selection(self):
        reg = MetricsRegistry()
        reg.counter("cluster.route.segments").inc(7)
        reg.gauge("cluster.ring.nodes").set(3)
        reg.histogram("disk.chunk.sizes", SIZE_BUCKETS).observe(128.0)
        view = reg.filtered("cluster.")
        assert view.names() == ("cluster.ring.nodes", "cluster.route.segments")
        assert view.counter("cluster.route.segments").value == 7
        assert view.gauge("cluster.ring.nodes").value == 3

    def test_copies_are_independent(self):
        reg = MetricsRegistry()
        reg.counter("cluster.files").inc(1)
        reg.histogram("cluster.seg.sizes", COUNT_BUCKETS).observe(2.0)
        view = reg.filtered("cluster.")
        view.counter("cluster.files").inc(100)
        view.histogram("cluster.seg.sizes", COUNT_BUCKETS).observe(4.0)
        assert reg.counter("cluster.files").value == 1
        assert reg.histogram("cluster.seg.sizes", COUNT_BUCKETS).total == 1

    def test_empty_match(self):
        reg = MetricsRegistry()
        reg.counter("a.b").inc()
        assert len(reg.filtered("zz.")) == 0
