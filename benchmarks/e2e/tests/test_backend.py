from __future__ import annotations

import pytest
from repro.storage import MemoryBackend

from e2ebench.backend import (
    CountingBackend,
    namespace_kind,
    namespace_scope,
    space_use,
    storage_counts,
)
from e2ebench.spans import Tracer

EVERYTHING = (float("-inf"), float("inf"))


@pytest.mark.parametrize(
    ("namespace", "scope", "kind"),
    [
        ("chunk", "", "chunk"),
        ("file_manifest", "", "file_manifest"),
        ("tenant.t0.chunk", "tenant.t0.", "chunk"),
        ("tenant.big-corp_1.manifest", "tenant.big-corp_1.", "manifest"),
        ("shard.worker-03.hook", "shard.worker-03.", "hook"),
        ("shard.worker-03.quarantine.manifest", "shard.worker-03.", "quarantine.manifest"),
        ("cluster.wal", "", "cluster.wal"),
        ("cluster.recipe", "", "cluster.recipe"),
        # Only a leading scope is stripped, and only a well-formed one.
        ("tenant..chunk", "", "tenant..chunk"),
        ("tenant.t0.shard.w0.chunk", "tenant.t0.", "shard.w0.chunk"),
    ],
)
def test_namespace_classification(namespace, scope, kind):
    assert namespace_scope(namespace) == scope
    assert namespace_kind(namespace) == kind


def _exercise(backend):
    """A fixed call sequence; returns everything the backend answered."""
    blob = bytes(range(256)) * 20  # 5120 bytes
    out = []
    backend.put("chunk", b"\x01" * 20, blob)
    backend.put("tenant.t0.manifest", b"\x02" * 20, b"v1")
    backend.put("tenant.t0.manifest", b"\x02" * 20, b"v2-longer")  # rewrite
    backend.put("shard.w0.chunk", b"\x03" * 20, b"abc")
    out.append(backend.get("chunk", b"\x01" * 20) == blob)
    out.append(backend.get("tenant.t0.manifest", b"\x02" * 20))
    out.append(backend.exists("chunk", b"\x09" * 20))
    out.append(backend.exists("shard.w0.chunk", b"\x03" * 20))
    out.append(sorted(backend.keys("tenant.t0.manifest")))
    out.append(backend.delete("shard.w0.chunk", b"\x03" * 20))
    out.append(backend.delete("shard.w0.chunk", b"\x03" * 20))
    backend.put("shard.w0.chunk", b"\x03" * 20, b"abcd")  # after delete: not a rewrite
    with pytest.raises(KeyError):
        backend.get("chunk", b"\x0a" * 20)
    out.append(backend.object_count("chunk"))
    out.append(backend.bytes_stored("tenant.t0.manifest"))
    out.append(sorted(backend.namespaces()))
    return out


def test_wrapper_is_byte_transparent_and_counts_exactly():
    plain = MemoryBackend()
    inner = MemoryBackend()
    tracer = Tracer()
    wrapped = CountingBackend(inner, tracer)
    assert _exercise(wrapped) == _exercise(plain)
    assert inner._data == plain._data

    counts = storage_counts(tracer.spans, EVERYTHING)
    assert counts.total_calls("put") == 5
    assert counts.calls[("manifest", "put")] == 2
    assert counts.calls[("chunk", "put")] == 3  # unscoped + shard.w0, same kind
    assert counts.total_bytes("put") == 5120 + 2 + 9 + 3 + 4
    assert counts.total_bytes("put", "manifest") == 11
    assert counts.rewrites == {"manifest": 1}
    # The failed get is a call that moved no bytes.
    assert counts.total_calls("get") == 3
    assert counts.total_bytes("get") == 5120 + 9
    assert counts.total_calls("exists") == 2
    assert counts.total_calls("keys") == 1
    assert counts.total_calls("delete") == 2
    assert counts.total_calls("stat") == 2


def test_counts_respect_the_time_window():
    tracer = Tracer()
    wrapped = CountingBackend(MemoryBackend(), tracer)
    wrapped.put("chunk", b"\x01" * 20, b"early")
    cut = tracer.spans[-1].end
    wrapped.get("chunk", b"\x01" * 20)
    before = storage_counts(tracer.spans, (float("-inf"), cut))
    after = storage_counts(tracer.spans, (cut, float("inf")))
    assert (before.total_calls("put"), before.total_calls("get")) == (1, 0)
    assert (after.total_calls("put"), after.total_calls("get")) == (0, 1)


def test_space_use_charges_inodes_and_skips_a_scope():
    b = MemoryBackend()
    b.put("tenant.t0.chunk", b"\x01" * 20, bytes(1000))
    b.put("tenant.t0.hook", b"\x02" * 20, bytes(20))
    b.put("tenant.warm.chunk", b"\x03" * 20, bytes(4096))
    b.put("cluster.recipe", b"\x04" * 20, bytes(50))
    use = space_use(b, skip_scope="tenant.warm.")
    assert use.objects == 3
    assert use.stored_bytes == 1000 + 20 + 50 + 3 * 256
    assert use.metadata_bytes == 20 + 50 + 2 * 256  # every non-chunk namespace
    assert use.chunk_bytes_by_scope == {"tenant.t0.": 1000}
