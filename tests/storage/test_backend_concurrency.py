"""Concurrency hammer for DirectoryBackend and PrefixedBackend views.

DirectoryBackend documents a same-process concurrency guarantee: puts
are atomic (unique mkstemp temp + os.replace), so concurrent writers —
including writers racing on the *same* key — never produce a torn
object, and readers always observe complete payloads; ``put_like``
links are checked against their bytes before the same rename, so a
hint another writer is replacing never leaks into the key.  These tests
hammer that guarantee with thread fleets over overlapping namespaces,
the exact shape the multi-tenant service produces (many sessions, one
physical store).
"""

import threading

import pytest

from repro.storage import DirectoryBackend, MemoryBackend, PrefixedBackend


def _key(i: int) -> bytes:
    return i.to_bytes(4, "big") * 5  # 20-byte hex-friendly key


def _hook(writer: int) -> bytes:
    # What a writer's hooks all hold, as one manifest's hooks do.
    return bytes([writer]) * 20


def _payload(i: int, writer: int) -> bytes:
    # Self-describing payload: any torn read is detectable because the
    # content encodes its own identity and has a fixed checkable shape.
    body = bytes([writer]) * 512
    return i.to_bytes(4, "big") + bytes([writer]) + body


class TestDirectoryBackendHammer:
    N_THREADS = 8
    N_KEYS = 64

    def test_overlapping_namespace_writers(self, tmp_path):
        """N threads put into the same two namespaces; every key must
        come back complete and equal to one writer's payload."""
        backend = DirectoryBackend(tmp_path / "store")
        errors: list[BaseException] = []
        start = threading.Barrier(self.N_THREADS)

        def writer(w: int) -> None:
            try:
                start.wait()
                for i in range(self.N_KEYS):
                    ns = "chunk" if i % 2 == 0 else "manifest"
                    backend.put(ns, _key(i), _payload(i, w))
                    # Read-back of a key someone else may be rewriting
                    # concurrently: must always be a complete payload.
                    got = backend.get(ns, _key(i))
                    assert len(got) == len(_payload(i, 0)), "torn read"
                    assert got[:4] == i.to_bytes(4, "big")
                    assert got[5:] == bytes([got[4]]) * 512
                    # Each hook hinted at the one before, which other
                    # writers are replacing with their own bytes.
                    backend.put_like("hook", _key(i), _hook(w), _key((i - 1) % self.N_KEYS))
                    got = backend.get("hook", _key(i))
                    assert got in {_hook(v) for v in range(self.N_THREADS)}, "torn hook"
            except BaseException as e:  # noqa: BLE001 - collected for the main thread
                errors.append(e)

        threads = [
            threading.Thread(target=writer, args=(w,)) for w in range(self.N_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors

        # Post-conditions: every key exists exactly once, holds one
        # writer's complete payload, and no temp strays leaked.
        for i in range(self.N_KEYS):
            ns = "chunk" if i % 2 == 0 else "manifest"
            got = backend.get(ns, _key(i))
            w = got[4]
            assert got == _payload(i, w)
            assert backend.get("hook", _key(i)) in {_hook(v) for v in range(self.N_THREADS)}
        assert backend.object_count("chunk") == self.N_KEYS // 2
        assert backend.object_count("hook") == self.N_KEYS
        assert backend.object_count("manifest") == self.N_KEYS // 2
        assert backend.purge_incomplete() == 0

    def test_concurrent_tenant_views_stay_disjoint(self, tmp_path):
        """Writers behind different PrefixedBackend views over one
        physical store can never observe each other's objects."""
        inner = DirectoryBackend(tmp_path / "store")
        tenants = [PrefixedBackend(inner, f"tenant.t{w}.") for w in range(4)]
        start = threading.Barrier(len(tenants))
        errors: list[BaseException] = []

        def writer(w: int) -> None:
            try:
                start.wait()
                view = tenants[w]
                for i in range(32):
                    view.put("chunk", _key(i), _payload(i, w))
                for i in range(32):
                    assert view.get("chunk", _key(i)) == _payload(i, w)
            except BaseException as e:  # noqa: BLE001
                errors.append(e)

        threads = [
            threading.Thread(target=writer, args=(w,)) for w in range(len(tenants))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors

        # Same logical key, four different physical objects.
        for w, view in enumerate(tenants):
            assert view.object_count("chunk") == 32
            assert view.get("chunk", _key(0))[4] == w
            assert view.namespaces() == ["chunk"]
        assert sorted(inner.namespaces()) == [f"tenant.t{w}.chunk" for w in range(4)]


class TestPrefixedBackend:
    def test_namespace_mapping_roundtrip(self):
        inner = MemoryBackend()
        view = PrefixedBackend(inner, "tenant.alice.")
        view.put("chunk", b"k" * 20, b"data")
        assert inner.get("tenant.alice.chunk", b"k" * 20) == b"data"
        assert view.get("chunk", b"k" * 20) == b"data"
        assert view.exists("chunk", b"k" * 20)
        assert view.keys("chunk") == [b"k" * 20]
        assert view.object_count("chunk") == 1
        assert view.bytes_stored("chunk") == 4
        assert view.namespaces() == ["chunk"]
        assert view.delete("chunk", b"k" * 20)
        assert not view.exists("chunk", b"k" * 20)

    def test_views_are_disjoint(self):
        inner = MemoryBackend()
        a = PrefixedBackend(inner, "tenant.a.")
        b = PrefixedBackend(inner, "tenant.b.")
        a.put("hook", b"h" * 20, b"\x01" * 20)
        assert not b.exists("hook", b"h" * 20)
        assert b.keys("hook") == []
        assert b.namespaces() == []
        assert a.namespaces() == ["hook"]

    def test_rejects_bad_prefix(self):
        inner = MemoryBackend()
        with pytest.raises(ValueError):
            PrefixedBackend(inner, "")
        with pytest.raises(ValueError):
            PrefixedBackend(inner, "ten/ant.")

    def test_purge_scoped_to_prefix(self, tmp_path):
        """A tenant view's purge must not delete another tenant's
        in-flight temp files."""
        inner = DirectoryBackend(tmp_path / "store")
        a = PrefixedBackend(inner, "tenant.a.")
        b = PrefixedBackend(inner, "tenant.b.")
        a.put("chunk", b"k" * 20, b"data")
        b.put("chunk", b"k" * 20, b"data")
        # Plant a fake in-flight stray in each tenant's namespace dir.
        for t in ("a", "b"):
            stray = tmp_path / "store" / f"tenant.{t}.chunk" / ".inflight.tmp"
            stray.write_bytes(b"partial")
        assert a.purge_incomplete() == 1
        assert (tmp_path / "store" / "tenant.b.chunk" / ".inflight.tmp").exists()
        assert b.purge_incomplete() == 1
        assert inner.purge_incomplete() == 0

    def test_memory_backend_purge_is_zero(self):
        view = PrefixedBackend(MemoryBackend(), "tenant.x.")
        assert view.purge_incomplete() == 0
