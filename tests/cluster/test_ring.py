"""HashRing: determinism, balance, minimal movement, accounting."""

import pytest

from repro.cluster import DEFAULT_VNODES, HashRing
from repro.hashing import sha1


def keys(n, tag=b"key"):
    return [sha1(tag + str(i).encode()) for i in range(n)]


class TestMembership:
    def test_empty_ring_routes_nothing(self):
        ring = HashRing()
        assert len(ring) == 0
        with pytest.raises(RuntimeError):
            ring.route(b"anything")

    def test_nodes_sorted_and_contains(self):
        ring = HashRing(["b", "a", "c"])
        assert ring.nodes == ("a", "b", "c")
        assert "a" in ring
        assert "z" not in ring

    def test_duplicate_join_rejected(self):
        ring = HashRing(["a"])
        with pytest.raises(ValueError):
            ring.add_node("a")

    def test_remove_unknown_rejected(self):
        with pytest.raises(ValueError):
            HashRing(["a"]).remove_node("b")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            HashRing([""])

    def test_bad_vnodes_rejected(self):
        with pytest.raises(ValueError):
            HashRing(["a"], vnodes=0)


class TestRouting:
    def test_deterministic_across_instances(self):
        """Routing depends only on SHA-1 positions — two independently
        built rings with the same members agree on every key."""
        a = HashRing(["w0", "w1", "w2"])
        b = HashRing(["w2", "w0", "w1"])  # different insertion order
        for k in keys(200):
            assert a.route(k) == b.route(k)

    def test_single_node_owns_everything(self):
        ring = HashRing(["only"])
        assert all(ring.route(k) == "only" for k in keys(50))

    def test_minimal_movement_on_join(self):
        """Adding one node to n moves ~1/(n+1) of the keys and never
        re-routes a key between two surviving nodes."""
        ring = HashRing(["w0", "w1", "w2", "w3"])
        ks = keys(2000)
        before = {bytes(k): ring.route(k) for k in ks}
        ring.add_node("w4")
        moved = 0
        for k in ks:
            after = ring.route(k)
            if after != before[bytes(k)]:
                moved += 1
                assert after == "w4"  # keys only ever move TO the joiner
        # ~1/5 expected; generous bounds keep the test seed-insensitive.
        assert 0.05 < moved / len(ks) < 0.40

    def test_remove_is_inverse_of_add(self):
        ring = HashRing(["w0", "w1", "w2"])
        ks = keys(500)
        before = [ring.route(k) for k in ks]
        ring.add_node("w3")
        ring.remove_node("w3")
        assert [ring.route(k) for k in ks] == before


class TestAccounting:
    def test_ownership_sums_to_one(self):
        shares = HashRing(["a", "b", "c"]).ownership()
        assert set(shares) == {"a", "b", "c"}
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_ownership_roughly_balanced(self):
        """64 vnodes keep worst-case skew modest for small clusters."""
        shares = HashRing(["a", "b", "c", "d"]).ownership()
        for share in shares.values():
            assert 0.25 / 2 < share < 0.25 * 2

    def test_empty_ownership(self):
        assert HashRing().ownership() == {}

    def test_routing_table_bytes_grows_with_members(self):
        one = HashRing(["a"]).routing_table_bytes()
        two = HashRing(["a", "b"]).routing_table_bytes()
        assert 0 < one < two
        # Dominated by vnode points: 16 bytes per point.
        assert two >= 2 * DEFAULT_VNODES * 16

    def test_describe_shape(self):
        d = HashRing(["a", "b"]).describe()
        assert d["nodes"] == ["a", "b"]
        assert d["points"] == 2 * DEFAULT_VNODES
        assert sum(d["ownership"].values()) == pytest.approx(1.0, abs=1e-3)
