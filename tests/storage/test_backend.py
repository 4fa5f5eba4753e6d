"""Backend contract tests, run against both implementations."""

import errno
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.storage import (
    INODE_SIZE,
    DirectoryBackend,
    FaultInjectingBackend,
    MemoryBackend,
    PrefixedBackend,
    RetryingBackend,
)
from repro.storage.backend import TMP_SUFFIX


@pytest.fixture(params=["memory", "directory"])
def backend(request, tmp_path):
    if request.param == "memory":
        return MemoryBackend()
    return DirectoryBackend(tmp_path / "store")


KEY1 = b"\x01" * 20
KEY2 = b"\x02" * 20


def test_put_get_roundtrip(backend):
    backend.put("chunk", KEY1, b"payload")
    assert backend.get("chunk", KEY1) == b"payload"


def test_get_missing_raises_keyerror(backend):
    with pytest.raises(KeyError):
        backend.get("chunk", KEY1)


def test_exists(backend):
    assert not backend.exists("chunk", KEY1)
    backend.put("chunk", KEY1, b"x")
    assert backend.exists("chunk", KEY1)


def test_namespaces_are_isolated(backend):
    backend.put("chunk", KEY1, b"a")
    backend.put("hook", KEY1, b"b")
    assert backend.get("chunk", KEY1) == b"a"
    assert backend.get("hook", KEY1) == b"b"
    assert backend.object_count("chunk") == 1


def test_overwrite_replaces(backend):
    backend.put("chunk", KEY1, b"old")
    backend.put("chunk", KEY1, b"new longer payload")
    assert backend.get("chunk", KEY1) == b"new longer payload"
    assert backend.object_count("chunk") == 1


def test_object_count_and_bytes(backend):
    backend.put("chunk", KEY1, b"abc")
    backend.put("chunk", KEY2, b"defgh")
    assert backend.object_count("chunk") == 2
    assert backend.bytes_stored("chunk") == 8
    assert backend.inode_bytes("chunk") == 2 * INODE_SIZE


def test_keys(backend):
    backend.put("chunk", KEY1, b"a")
    backend.put("chunk", KEY2, b"b")
    assert sorted(backend.keys("chunk")) == [KEY1, KEY2]
    assert backend.keys("empty-ns") == []


def test_total_stored_includes_inodes(backend):
    backend.put("chunk", KEY1, b"1234")
    backend.put("hook", KEY2, b"56")
    assert backend.total_stored() == 4 + 2 + 2 * INODE_SIZE
    assert backend.total_stored(["chunk"]) == 4 + INODE_SIZE


def test_namespaces_listing(backend):
    assert backend.namespaces() == []
    backend.put("chunk", KEY1, b"a")
    assert backend.namespaces() == ["chunk"]


def test_empty_namespace_counts(backend):
    assert backend.object_count("nothing") == 0
    assert backend.bytes_stored("nothing") == 0


def test_delete_existing(backend):
    backend.put("chunk", KEY1, b"x")
    assert backend.delete("chunk", KEY1) is True
    assert not backend.exists("chunk", KEY1)
    assert backend.object_count("chunk") == 0


def test_delete_missing_returns_false(backend):
    assert backend.delete("chunk", KEY1) is False
    assert backend.delete("never-seen-namespace", KEY1) is False


def test_delete_is_namespace_scoped(backend):
    backend.put("chunk", KEY1, b"a")
    backend.put("hook", KEY1, b"b")
    backend.delete("chunk", KEY1)
    assert backend.exists("hook", KEY1)


#: Every backend in the tree.  ``memory`` and ``fault-injecting`` serve
#: ranges through the defaults built on ``get``; the others override.
ALL_BACKENDS = {
    "memory": lambda root: MemoryBackend(),
    "directory": DirectoryBackend,
    "prefixed": lambda root: PrefixedBackend(DirectoryBackend(root), "view."),
    "retrying": lambda root: RetryingBackend(DirectoryBackend(root)),
    "fault-injecting": lambda root: FaultInjectingBackend(DirectoryBackend(root)),
}


@pytest.fixture(params=sorted(ALL_BACKENDS))
def ranged(request, tmp_path):
    return ALL_BACKENDS[request.param](tmp_path / "store")


class TestRangedReads:
    """``get_range`` is a slice of ``get``; ``object_size`` its length."""

    # One backend serves every example: each put overwrites KEY1.
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(payload=st.binary(max_size=256), extent=st.data())
    def test_get_range_is_a_slice_of_get(self, ranged, payload, extent):
        ranged.put("chunk", KEY1, payload)
        whole = ranged.get("chunk", KEY1)
        assert ranged.object_size("chunk", KEY1) == len(whole) == len(payload)
        offset = extent.draw(st.integers(0, len(payload) + 2))
        size = extent.draw(st.integers(0, len(payload) + 2))
        if offset + size <= len(payload):
            assert ranged.get_range("chunk", KEY1, offset, size) == whole[offset : offset + size]
        else:
            with pytest.raises(ValueError):
                ranged.get_range("chunk", KEY1, offset, size)

    def test_extent_edges(self, ranged):
        ranged.put("chunk", KEY1, b"0123456789")
        assert ranged.get_range("chunk", KEY1, 0, 10) == b"0123456789"
        assert ranged.get_range("chunk", KEY1, 6, 4) == b"6789"  # ends at the end
        assert ranged.get_range("chunk", KEY1, 10, 0) == b""  # empty, at the end
        assert ranged.get_range("chunk", KEY1, 3, 0) == b""
        for offset, size in [(6, 5), (10, 1), (11, 0), (-1, 2), (2, -1)]:
            with pytest.raises(ValueError):
                ranged.get_range("chunk", KEY1, offset, size)

    def test_absent_object_raises_keyerror(self, ranged):
        ranged.put("chunk", KEY1, b"x")
        with pytest.raises(KeyError):
            ranged.get_range("chunk", KEY2, 0, 1)
        with pytest.raises(KeyError):
            ranged.object_size("chunk", KEY2)
        with pytest.raises(KeyError):
            ranged.object_size("never-seen-namespace", KEY1)

    def test_empty_object(self, ranged):
        ranged.put("chunk", KEY1, b"")
        assert ranged.object_size("chunk", KEY1) == 0
        assert ranged.get_range("chunk", KEY1, 0, 0) == b""


KEY3 = b"\x03" * 20


class TestPutLike:
    """``put_like`` stores ``data`` under ``key`` whatever ``like`` holds."""

    @pytest.fixture(params=sorted(ALL_BACKENDS))
    def backend(self, request, tmp_path):
        return ALL_BACKENDS[request.param](tmp_path / "store")

    def test_like_holding_the_same_bytes(self, backend):
        backend.put("hook", KEY1, b"m" * 20)
        backend.put_like("hook", KEY2, b"m" * 20, KEY1)
        assert backend.get("hook", KEY2) == backend.get("hook", KEY1) == b"m" * 20
        assert backend.object_count("hook") == 2
        assert backend.bytes_stored("hook") == 40
        assert backend.purge_incomplete() == 0

    def test_like_missing(self, backend):
        backend.put_like("hook", KEY2, b"m" * 20, KEY1)
        assert backend.get("hook", KEY2) == b"m" * 20
        assert backend.keys("hook") == [KEY2]
        assert backend.purge_incomplete() == 0

    def test_like_holding_other_bytes(self, backend):
        backend.put("hook", KEY1, b"other")
        backend.put_like("hook", KEY2, b"m" * 20, KEY1)
        assert backend.get("hook", KEY2) == b"m" * 20
        assert backend.get("hook", KEY1) == b"other"
        assert backend.purge_incomplete() == 0

    def test_overwrites_and_repeats(self, backend):
        backend.put("hook", KEY1, b"m" * 20)
        backend.put("hook", KEY2, b"old")
        backend.put_like("hook", KEY2, b"m" * 20, KEY1)
        backend.put_like("hook", KEY2, b"m" * 20, KEY1)  # already a link of like
        backend.put_like("hook", KEY1, b"m" * 20, KEY1)  # like is key
        backend.put_like("hook", KEY3, b"n" * 20, KEY2)
        assert [backend.get("hook", k) for k in (KEY1, KEY2, KEY3)] == [
            b"m" * 20,
            b"m" * 20,
            b"n" * 20,
        ]
        assert backend.purge_incomplete() == 0


class TestDirectoryPutLike:
    """``DirectoryBackend.put_like`` links instead of creating an inode."""

    @staticmethod
    def _inode(root, key):
        return os.stat(root / "hook" / key.hex()).st_ino

    @pytest.mark.parametrize("fsync", ["none", "data", "full"])
    def test_equal_bytes_share_an_inode(self, tmp_path, fsync):
        b = DirectoryBackend(tmp_path, fsync=fsync)
        b.put("hook", KEY1, b"m" * 20)
        b.put_like("hook", KEY2, b"m" * 20, KEY1)
        assert self._inode(tmp_path, KEY2) == self._inode(tmp_path, KEY1)
        assert sorted(os.listdir(tmp_path / "hook")) == [KEY1.hex(), KEY2.hex()]

    def test_other_bytes_get_their_own_inode(self, tmp_path):
        b = DirectoryBackend(tmp_path)
        b.put("hook", KEY1, b"n" * 20)
        b.put_like("hook", KEY2, b"m" * 20, KEY1)
        assert self._inode(tmp_path, KEY2) != self._inode(tmp_path, KEY1)
        assert b.get("hook", KEY2) == b"m" * 20
        assert sorted(os.listdir(tmp_path / "hook")) == [KEY1.hex(), KEY2.hex()]

    @pytest.mark.parametrize("code", [errno.EMLINK, errno.EPERM])
    def test_link_errors_fall_back_to_put(self, tmp_path, monkeypatch, code):
        b = DirectoryBackend(tmp_path)
        b.put("hook", KEY1, b"m" * 20)

        def refuse(src, dst):
            raise OSError(code, os.strerror(code))

        monkeypatch.setattr(os, "link", refuse)
        b.put_like("hook", KEY2, b"m" * 20, KEY1)
        assert b.get("hook", KEY2) == b"m" * 20
        assert self._inode(tmp_path, KEY2) != self._inode(tmp_path, KEY1)
        assert sorted(os.listdir(tmp_path / "hook")) == [KEY1.hex(), KEY2.hex()]

    def test_crash_before_the_rename_leaves_only_a_stray(self, tmp_path):
        """A process that dies between the link and the rename leaves a
        ``TMP_SUFFIX`` name no read path sees, and recovery removes it."""
        b = DirectoryBackend(tmp_path)
        b.put("hook", KEY1, b"m" * 20)
        pid = os.fork()
        if pid == 0:  # the child dies where the rename would run
            try:
                os.replace = lambda src, dst: os._exit(0)
                b.put_like("hook", KEY2, b"m" * 20, KEY1)
            finally:
                os._exit(1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        names = os.listdir(tmp_path / "hook")
        assert len(names) == 2 and [n for n in names if n.endswith(TMP_SUFFIX)]
        assert not b.exists("hook", KEY2)
        assert b.keys("hook") == [KEY1]
        assert b.purge_incomplete() == 1
        assert os.listdir(tmp_path / "hook") == [KEY1.hex()]


def test_prefixed_backend_forwards_put_like():
    calls = []

    class Recording(MemoryBackend):
        def put_like(self, namespace, key, data, like):
            calls.append((namespace, key, data, like))
            super().put_like(namespace, key, data, like)

    view = PrefixedBackend(Recording(), "view.")
    view.put_like("hook", KEY2, b"m" * 20, KEY1)
    assert calls == [("view.hook", KEY2, b"m" * 20, KEY1)]
    assert view.get("hook", KEY2) == b"m" * 20


class TestDirectoryDurability:
    """Atomic-put semantics and stray-file tolerance (DirectoryBackend only)."""

    def test_invalid_fsync_policy_rejected(self, tmp_path):
        import pytest as _pytest

        with _pytest.raises(ValueError):
            DirectoryBackend(tmp_path / "s", fsync="always")

    @pytest.mark.parametrize("fsync", ["none", "data", "full"])
    def test_put_roundtrips_under_every_fsync_policy(self, tmp_path, fsync):
        b = DirectoryBackend(tmp_path / "s", fsync=fsync)
        b.put("chunk", KEY1, b"payload")
        assert b.get("chunk", KEY1) == b"payload"

    def test_put_leaves_no_temp_files(self, tmp_path):
        import os

        b = DirectoryBackend(tmp_path / "s")
        for i in range(20):
            b.put("chunk", bytes([i]) * 20, b"x" * i)
        names = os.listdir(tmp_path / "s" / "chunk")
        assert len(names) == 20
        assert not any(n.endswith(".tmp") for n in names)

    def test_failed_put_cleans_up_its_temp_file(self, tmp_path, monkeypatch):
        import os

        b = DirectoryBackend(tmp_path / "s")
        b.put("chunk", KEY1, b"ok")  # create the namespace dir

        def no_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", no_replace)
        with pytest.raises(OSError):
            b.put("chunk", KEY2, b"doomed")
        monkeypatch.undo()
        assert os.listdir(tmp_path / "s" / "chunk") == [KEY1.hex()]

    def test_stray_files_are_invisible_to_reads(self, tmp_path):
        import os

        b = DirectoryBackend(tmp_path / "s")
        b.put("chunk", KEY1, b"real")
        d = tmp_path / "s" / "chunk"
        (d / ".ghost123.tmp").write_bytes(b"interrupted put")
        (d / "README.txt").write_bytes(b"foreign file")
        assert b.keys("chunk") == [KEY1]
        assert b.object_count("chunk") == 1
        assert b.bytes_stored("chunk") == 4
        assert b.namespaces() == ["chunk"]
        # ...but still physically present until purged.
        assert len(os.listdir(d)) == 3

    def test_odd_hex_and_uppercase_names_are_skipped(self, tmp_path):
        b = DirectoryBackend(tmp_path / "s")
        b.put("chunk", KEY1, b"real")
        d = tmp_path / "s" / "chunk"
        (d / "abc").write_bytes(b"odd-length hex")
        (d / ("A" * 40)).write_bytes(b"uppercase hex")
        (d / "zz11").write_bytes(b"not hex")
        assert b.keys("chunk") == [KEY1]

    def test_purge_incomplete_removes_only_non_objects(self, tmp_path):
        import os

        b = DirectoryBackend(tmp_path / "s")
        b.put("chunk", KEY1, b"real")
        b.put("hook", KEY2, b"also real")
        (tmp_path / "s" / "chunk" / ".x1.tmp").write_bytes(b"a")
        (tmp_path / "s" / "hook" / ".x2.tmp").write_bytes(b"b")
        (tmp_path / "s" / "hook" / "notes.txt").write_bytes(b"c")
        assert b.purge_incomplete() == 3
        assert b.get("chunk", KEY1) == b"real"
        assert b.get("hook", KEY2) == b"also real"
        assert os.listdir(tmp_path / "s" / "hook") == [KEY2.hex()]
        assert b.purge_incomplete() == 0
