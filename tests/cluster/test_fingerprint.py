"""Routing keys: representative, hooks, and deterministic plurality."""

import pytest

from repro.cluster import HashRing, hooks_of, representative, route_segment, routing_key
from repro.hashing import Digest, sha1


def digests(n, tag=b"d"):
    return [sha1(tag + str(i).encode()) for i in range(n)]


def is_hook(d, sd):
    return int.from_bytes(d[:8], "little") % sd == 0


class TestRepresentative:
    def test_is_min_digest(self):
        ds = digests(20)
        assert representative(ds) == min(ds)

    def test_order_independent(self):
        ds = digests(20)
        assert representative(list(reversed(ds))) == representative(ds)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            representative([])


class TestHooks:
    def test_predicate_matches_sparse_indexing(self):
        """Same sample the SparseIndexingDeduplicator persists."""
        ds = digests(500)
        sd = 8
        hooks = hooks_of(ds, sd)
        assert hooks == [d for d in ds if is_hook(d, sd)]
        assert 0 < len(hooks) < len(ds)

    def test_sd_one_samples_everything(self):
        ds = digests(10)
        assert hooks_of(ds, 1) == ds

    def test_bad_sd_rejected(self):
        with pytest.raises(ValueError):
            hooks_of(digests(3), 0)


class TestRoutingKey:
    def test_min_hook_when_hooks_exist(self):
        ds = digests(500)
        hooks = hooks_of(ds, 8)
        assert routing_key(ds, hooks) == min(hooks)

    def test_falls_back_to_representative(self):
        ds = [d for d in digests(200) if not is_hook(d, 8)][:10]
        hooks = hooks_of(ds, 8)
        assert hooks == []
        assert routing_key(ds, hooks) == min(ds)


class TestRouteSegment:
    def setup_method(self):
        self.ring = HashRing(["w0", "w1", "w2"])

    def test_min_digest_routes_representative(self):
        """Handed no hooks, a segment routes by its min-digest
        representative, whichever digests it holds."""
        ds = digests(50)
        assert route_segment(self.ring, ds, []) == self.ring.route(representative(ds))
        assert routing_key(ds, []) == representative(ds)

    def test_hook_votes_is_plurality(self):
        """The winner must hold at least as many hook votes as any
        other node, and ties break deterministically by node name."""
        ds = digests(800)
        winner = route_segment(self.ring, ds, hooks_of(ds, 8))
        tally = {}
        for h in hooks_of(ds, 8):
            node = self.ring.route(h)
            tally[node] = tally.get(node, 0) + 1
        best = max(tally.values())
        assert tally[winner] == best
        assert winner == min(n for n, v in tally.items() if v == best)

    def test_hook_votes_order_independent(self):
        """Arrival order of digests must not change the plurality —
        the regression the champion tie-break fix guards against."""
        ds = digests(800)
        a = route_segment(self.ring, ds, hooks_of(ds, 8))
        rev = list(reversed(ds))
        b = route_segment(self.ring, rev, hooks_of(rev, 8))
        assert a == b

    def test_hook_votes_falls_back_without_hooks(self):
        ds = [d for d in digests(200) if not is_hook(d, 8)][:10]
        hooks = hooks_of(ds, 8)
        assert hooks == []
        assert route_segment(self.ring, ds, hooks) == self.ring.route(representative(ds))

    def test_similar_segments_land_together(self):
        """The point of representative routing: a segment sharing most
        chunks with another shares its routing key, hence its shard."""
        base = digests(300)
        edited = list(base)
        edited[7] = Digest(sha1(b"novel1"))
        edited[91] = Digest(sha1(b"novel2"))
        assert route_segment(self.ring, base, hooks_of(base, 8)) == route_segment(
            self.ring, edited, hooks_of(edited, 8)
        )
