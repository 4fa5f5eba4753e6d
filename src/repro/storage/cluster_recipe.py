"""Cluster recipes and membership — the coordinator's persisted objects.

A cluster recipe (``cluster.recipe``) maps a file to its ordered
segment placements on the shard workers, each with its canonical
routing key so the rebalancer can re-place segments after ring changes
without re-reading data; the ring's membership is one JSON object under
``cluster.meta``.  Both live on the shared backend
outside every ``shard.<name>.`` prefix, so worker recovery never
touches them.  Metered like the other stores: a ``write`` per put, a
``read`` per get.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..hashing.digest import Digest, sha1
from .disk_model import MeteredStore

__all__ = [
    "META_NAMESPACE",
    "RECIPE_NAMESPACE",
    "ClusterRecipe",
    "ClusterRecipeStore",
    "SegmentPlacement",
]

RECIPE_NAMESPACE = "cluster.recipe"
META_NAMESPACE = "cluster.meta"

_MEMBERS_KEY = sha1(b"cluster|members")


@dataclass(frozen=True)
class SegmentPlacement:
    """One segment of a file: where it lives and how it routes."""

    node: str
    segment_id: str
    size: int
    #: Canonical routing key (:func:`repro.cluster.fingerprint.routing_key`);
    #: the rebalancer re-routes this digest after ring changes.
    fingerprint: Digest


@dataclass(frozen=True)
class ClusterRecipe:
    """A file's ordered segment placements (the cluster restore map)."""

    file_id: str
    segments: tuple[SegmentPlacement, ...]

    @property
    def size(self) -> int:
        """Total file size (the sum of its segment sizes)."""
        return sum(s.size for s in self.segments)

    def to_bytes(self) -> bytes:
        """Serialise to the canonical JSON form stored on the backend."""
        payload = {
            "file": self.file_id,
            "segments": [
                [p.node, p.segment_id, p.size, p.fingerprint.hex()]
                for p in self.segments
            ],
        }
        return json.dumps(payload, sort_keys=True).encode()

    @classmethod
    def from_bytes(cls, raw: bytes) -> ClusterRecipe:
        """Parse a recipe previously written by :meth:`to_bytes`."""
        payload = json.loads(raw.decode())
        segments = tuple(
            SegmentPlacement(node, seg_id, int(size), Digest(bytes.fromhex(fp)))
            for node, seg_id, size, fp in payload["segments"]
        )
        return cls(file_id=payload["file"], segments=segments)

    @staticmethod
    def key_for(file_id: str) -> Digest:
        """The backend key a file's recipe is stored under."""
        return sha1(b"recipe|" + file_id.encode())


class ClusterRecipeStore(MeteredStore):
    """Metered persistence for cluster recipes and the ring membership."""

    def put(self, recipe: ClusterRecipe) -> None:
        """Persist (or replace) a file's recipe."""
        self._put(RECIPE_NAMESPACE, recipe.key_for(recipe.file_id), recipe.to_bytes())

    def get(self, file_id: str) -> ClusterRecipe:
        """The persisted recipe of ``file_id`` (``KeyError`` if absent)."""
        try:
            raw = self._get(RECIPE_NAMESPACE, ClusterRecipe.key_for(file_id))
        except KeyError:
            raise KeyError(f"no cluster recipe for {file_id!r}") from None
        return ClusterRecipe.from_bytes(raw)

    def file_ids(self) -> list[str]:
        """File ids of every persisted recipe, sorted (reads every recipe)."""
        return sorted(
            ClusterRecipe.from_bytes(self._get(RECIPE_NAMESPACE, Digest(key))).file_id
            for key in self._backend.keys(RECIPE_NAMESPACE)
        )

    def members(self) -> list[str] | None:
        """The persisted worker names, or ``None`` for a new cluster."""
        try:
            raw = self._get(META_NAMESPACE, _MEMBERS_KEY)
        except KeyError:
            return None
        return [str(n) for n in json.loads(raw.decode())]

    def save_members(self, names: list[str]) -> None:
        """Persist the worker names (sorted)."""
        self._put(META_NAMESPACE, _MEMBERS_KEY, json.dumps(sorted(names)).encode())
