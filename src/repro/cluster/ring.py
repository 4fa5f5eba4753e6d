"""Consistent-hash ring mapping fingerprints to worker shards.

The routing substrate of the cluster: each worker owns an arc of the
64-bit hash space, subdivided into *virtual nodes* so ownership stays
balanced as workers join and leave.  Keys (representative fingerprints,
tenant labels) are positioned by SHA-1, so routing is deterministic
across processes, hash seeds and restarts — the property the champion
tie-break fix in :mod:`repro.baselines.sparse_indexing` exists to
guarantee.

Adding a node moves only the keys that fall on the new node's arcs
(~``1/n`` of the space); every other key keeps its owner.  That minimal
movement is what makes :mod:`repro.cluster.rebalance`'s shard split
affordable.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable

from ..hashing import sha1

__all__ = ["DEFAULT_VNODES", "HashRing"]

#: Virtual nodes per worker.  64 keeps worst-case ownership skew under
#: ~15% for small clusters while the routing table stays tiny.
DEFAULT_VNODES = 64

_SPACE = 1 << 64


class HashRing:
    """Consistent hashing with virtual nodes over SHA-1 positions."""

    def __init__(self, nodes: Iterable[str] = (), vnodes: int = DEFAULT_VNODES) -> None:
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        self._members: set[str] = set()
        self._points: list[tuple[int, str]] = []  # sorted (position, node)
        self._positions: list[int] = []  # parallel position array for bisect
        for node in nodes:
            self.add_node(node)

    @staticmethod
    def _position(label: bytes) -> int:
        """64-bit ring position of an arbitrary byte label."""
        return int.from_bytes(sha1(label)[:8], "big")

    def _reindex(self) -> None:
        self._points.sort()
        self._positions = [pos for pos, _node in self._points]

    # -- membership ------------------------------------------------------

    @property
    def nodes(self) -> tuple[str, ...]:
        """Current members, sorted by name."""
        return tuple(sorted(self._members))

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, node: str) -> bool:
        return node in self._members

    def add_node(self, node: str) -> None:
        """Join a worker: place its virtual nodes on the ring."""
        if not node:
            raise ValueError("node name must be non-empty")
        if node in self._members:
            raise ValueError(f"node {node!r} already on the ring")
        self._members.add(node)
        for v in range(self.vnodes):
            pos = self._position(f"{node}|vnode{v}".encode())
            self._points.append((pos, node))
        self._reindex()

    def remove_node(self, node: str) -> None:
        """Leave: the departing node's arcs fall to their successors."""
        if node not in self._members:
            raise ValueError(f"node {node!r} not on the ring")
        self._members.discard(node)
        self._points = [(pos, n) for pos, n in self._points if n != node]
        self._reindex()

    # -- routing ---------------------------------------------------------

    def route(self, key: bytes) -> str:
        """The node owning ``key`` (first vnode clockwise of its position)."""
        if not self._points:
            raise RuntimeError("ring has no nodes")
        pos = self._position(bytes(key))
        i = bisect_right(self._positions, pos)
        if i == len(self._points):
            i = 0  # wrap past the highest vnode to the first
        return self._points[i][1]

    # -- accounting ------------------------------------------------------

    def ownership(self) -> dict[str, float]:
        """Fraction of the hash space each node owns, summing to 1.0."""
        if not self._points:
            return {}
        shares: dict[str, float] = {node: 0.0 for node in self.nodes}
        prev = self._points[-1][0] - _SPACE  # wraparound arc start
        for pos, node in self._points:
            shares[node] += (pos - prev) / _SPACE
            prev = pos
        return shares

    def routing_table_bytes(self) -> int:
        """RAM held by the routing table (Table III-style accounting).

        Each vnode point costs an 8-byte position plus an 8-byte node
        reference; each member additionally stores its name once.
        """
        points = len(self._points) * 16
        names = sum(len(node.encode()) + 49 for node in self._members)
        return points + names

    def describe(self) -> dict[str, object]:
        """Ring summary for metrics/debug output."""
        return {
            "nodes": list(self.nodes),
            "vnodes": self.vnodes,
            "points": len(self._points),
            "routing_table_bytes": self.routing_table_bytes(),
            "ownership": {k: round(v, 4) for k, v in sorted(self.ownership().items())},
        }
