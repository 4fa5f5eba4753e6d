"""Key-value storage backends for the hash-addressable object stores.

The paper's prototypes run "in the user space of the Ext3 file system"
with every DiskChunk, Manifest and Hook a separate file.  Here the
same object model is served by one of two interchangeable backends:

* :class:`MemoryBackend` — dict-backed; used by tests and benches so
  experiment runtime measures the *algorithms*, not the host disk.
* :class:`DirectoryBackend` — one real file per object under a root
  directory, faithful to the paper's prototype layout.
* :class:`PrefixedBackend` — a namespace-prefixing *view* over any
  other backend; the substrate of tenant isolation
  (:mod:`repro.service.tenancy`): every logical namespace ``ns`` maps
  to ``prefix + ns``, so two views with different prefixes can never
  observe each other's objects.

Besides whole objects (``put``/``get``) the contract serves parts of
one: ``get_range`` reads an extent and ``object_size`` measures an
object without fetching it — what restores, HHR reloads, fsck and GC
ask for, since they address ``(container, offset, size)`` extents.
``iter_ranges`` reads a sequence of extents — a file's restore — and
lets a backend keep each object open across the ones it serves.

Backends are **not** metered; metering happens in the object stores,
because only they know whether an access is a real disk access or a
RAM-cache hit.  Backends do provide inode accounting (object counts)
since the paper budgets 256 bytes per metadata file inode.
"""

from __future__ import annotations

import contextlib
import itertools
import logging
import os
import tempfile
from abc import ABC, abstractmethod
from collections.abc import Generator, Iterable

from .disk_model import INODE_SIZE

__all__ = [
    "StorageBackend",
    "MemoryBackend",
    "DirectoryBackend",
    "PrefixedBackend",
]

logger = logging.getLogger(__name__)

#: Suffix of in-flight temp files used by :meth:`DirectoryBackend.put`
#: and :meth:`DirectoryBackend.put_like`.  Never a valid object name
#: (object files are bare hex), so interrupted writes are invisible to
#: every read path and swept by recovery.
TMP_SUFFIX = ".tmp"

#: Per-process sequence naming :meth:`DirectoryBackend.put_like`'s temp
#: links (``next`` on an ``itertools.count`` is atomic under the GIL).
_LINK_SEQ = itertools.count()

#: Most files one :meth:`DirectoryBackend.iter_ranges` holds open at
#: once; past it the earliest-opened is closed.  A churned disk image
#: restores from a handful of containers, so a small cap keeps every
#: one of them open.
ITER_OPEN_FILES = 16


def _not_found(namespace: str, key: bytes) -> KeyError:
    return KeyError(f"{namespace}/{key.hex()[:12]} not found")


def check_extent(offset: int, size: int, total: int) -> None:
    """Raise ``ValueError`` unless ``[offset, offset + size)`` lies in ``total`` bytes."""
    if offset < 0 or size < 0 or offset + size > total:
        raise ValueError(
            f"extent [{offset}, {offset + size}) outside object of {total} bytes"
        )


class StorageBackend(ABC):
    """Namespace → key → bytes object store."""

    @abstractmethod
    def put(self, namespace: str, key: bytes, data: bytes) -> None:
        """Store an object (overwrites an existing one)."""

    def put_like(self, namespace: str, key: bytes, data: bytes, like: bytes) -> None:
        """:meth:`put`, with a hint: the object under ``like`` (same
        namespace) may already hold exactly ``data``.

        Afterwards ``get(namespace, key) == data``, whatever ``like``
        holds or whether it exists.  A backend that can share storage
        between equal objects uses the hint (:class:`DirectoryBackend`
        hard-links the file); the default ignores it.
        """
        self.put(namespace, key, data)

    @abstractmethod
    def get(self, namespace: str, key: bytes) -> bytes:
        """Fetch an object; raises ``KeyError`` if absent."""

    def get_range(self, namespace: str, key: bytes, offset: int, size: int) -> bytes:
        """Fetch ``size`` bytes at ``offset`` of an object.

        Equal to ``get(namespace, key)[offset : offset + size]`` for an
        extent inside the object; ``KeyError`` if the object is absent,
        ``ValueError`` if the extent is negative or runs past its end.
        The default transfers the whole object; backends that can read
        part of one override it (:class:`MemoryBackend`'s ``get`` hands
        back the stored object itself, so for it the default already is
        a slice).
        """
        data = self.get(namespace, key)
        check_extent(offset, size, len(data))
        return data[offset : offset + size]

    def iter_ranges(
        self, namespace: str, reads: Iterable[tuple[bytes, int, int]]
    ) -> Generator[bytes, None, None]:
        """``get_range(namespace, key, offset, size)`` of each
        ``(key, offset, size)`` in ``reads``, in order and lazily: an
        item is taken from ``reads`` only when its bytes are asked for,
        and an error is raised at the item that causes it.

        Meant for write-once objects (DiskChunk containers are never
        replaced): a backend may hold an object open for the rest of
        the iteration, so an object replaced meanwhile may still be read
        at the version first opened.  The default is the ``get_range``
        loop; :class:`DirectoryBackend` opens each file once.
        """
        for key, offset, size in reads:
            yield self.get_range(namespace, key, offset, size)

    def object_size(self, namespace: str, key: bytes) -> int:
        """Byte length of an object; ``KeyError`` if absent.

        The default transfers the object to measure it; backends that
        know the length without reading override it.
        """
        return len(self.get(namespace, key))

    @abstractmethod
    def exists(self, namespace: str, key: bytes) -> bool:
        """Membership test without transferring the object."""

    @abstractmethod
    def keys(self, namespace: str) -> list[bytes]:
        """All keys in a namespace (unordered)."""

    @abstractmethod
    def delete(self, namespace: str, key: bytes) -> bool:
        """Remove an object; returns whether it existed.

        Only garbage collection deletes objects — the deduplicators
        themselves treat every store as append-only (DiskChunks and
        Hooks are write-once; Manifests are updated, never removed).
        """

    @abstractmethod
    def object_count(self, namespace: str) -> int:
        """Number of stored objects (names) in the namespace.

        The paper charges one ``INODE_SIZE`` per object
        (:meth:`inode_bytes`), so this is its inode count; physically a
        :class:`DirectoryBackend` may hold fewer inodes, since objects
        written with :meth:`put_like` (a manifest's hooks) share one.
        """

    @abstractmethod
    def bytes_stored(self, namespace: str) -> int:
        """Total payload bytes held by a namespace."""

    def inode_bytes(self, namespace: str) -> int:
        """Inode overhead of a namespace under the paper's 256 B/inode."""
        return self.object_count(namespace) * INODE_SIZE

    def total_stored(self, namespaces: list[str] | None = None) -> int:
        """Payload + inode bytes across namespaces (for real-DER math)."""
        if namespaces is None:
            namespaces = self.namespaces()
        return sum(
            self.bytes_stored(ns) + self.inode_bytes(ns) for ns in namespaces
        )

    @abstractmethod
    def namespaces(self) -> list[str]:
        """Namespaces that currently hold at least one object."""

    def purge_incomplete(self, prefix: str = "") -> int:
        """Delete interrupted-put debris; returns the number of files removed.

        ``prefix`` restricts the sweep to namespaces starting with it.
        Backends whose puts leave nothing behind (the default) remove
        nothing; wrappers forward to the backend they wrap.
        """
        return 0


class MemoryBackend(StorageBackend):
    """Dict-of-dicts backend; the default for experiments."""

    def __init__(self) -> None:
        self._data: dict[str, dict[bytes, bytes]] = {}

    def put(self, namespace: str, key: bytes, data: bytes) -> None:
        self._data.setdefault(namespace, {})[key] = bytes(data)

    def get(self, namespace: str, key: bytes) -> bytes:
        try:
            return self._data[namespace][key]
        except KeyError:
            raise _not_found(namespace, key) from None

    def exists(self, namespace: str, key: bytes) -> bool:
        return key in self._data.get(namespace, {})

    def keys(self, namespace: str) -> list[bytes]:
        return list(self._data.get(namespace, {}))

    def delete(self, namespace: str, key: bytes) -> bool:
        ns = self._data.get(namespace)
        if ns is None or key not in ns:
            return False
        del ns[key]
        return True

    def object_count(self, namespace: str) -> int:
        return len(self._data.get(namespace, {}))

    def bytes_stored(self, namespace: str) -> int:
        return sum(len(v) for v in self._data.get(namespace, {}).values())

    def namespaces(self) -> list[str]:
        return [ns for ns, d in self._data.items() if d]


class DirectoryBackend(StorageBackend):
    """One file per object under ``root/namespace/<key hex>``.

    Matches the paper's prototype: every DiskChunk/Manifest/Hook is a
    separate hash-named file on the host file system — though the
    files of a manifest's hooks, written with :meth:`put_like`, are
    hard links to one inode.

    Writes are **atomic**: the payload goes to a same-directory temp
    file first and is renamed over the final name with ``os.replace``,
    so readers never observe a torn object — a crash leaves either the
    old object, the new object, or an invisible ``*.tmp`` stray (swept
    by :func:`repro.storage.recover.recover`).

    **Concurrency guarantee.**  The backend is safe under concurrent
    same-process writers (threads) and concurrent reader/writer mixes,
    without any lock of its own:

    * every :meth:`put` writes to a ``tempfile.mkstemp`` temp file —
      unique per call, so two writers never share a buffer — and
      publishes it with ``os.replace``, which is atomic on POSIX and
      Windows: a racing :meth:`get` of the same key sees either the
      complete old object or the complete new one, never a mix;
    * racing puts of the *same* key are last-writer-wins with both
      payloads intact at the moment of each replace (the stores only
      ever write identical content for one key, so either order is
      correct);
    * :meth:`put_like` links the hinted file to a temp name unique per
      call, checks its bytes and publishes it with the same
      ``os.replace`` — a published inode is never written in place, so
      the bytes checked are the bytes published;
    * ``os.makedirs(exist_ok=True)`` makes namespace creation racy-safe;
    * enumeration (:meth:`keys`/:meth:`object_count`) may or may not
      see a concurrently-published object, but never a partial one —
      temp strays fail :meth:`_is_object_name` and are skipped.

    What is **not** guaranteed: cross-key transactionality (a reader
    enumerating during a multi-object commit can observe a subset;
    recovery semantics in :mod:`repro.storage.recover` exist exactly
    for that) — and :meth:`bytes_stored` racing a concurrent delete
    may raise ``FileNotFoundError`` from ``os.path.getsize``.  The
    hammer test in ``tests/storage/test_backend_concurrency.py``
    exercises the guarantee with N threads over overlapping
    namespaces.

    Parameters
    ----------
    fsync:
        Durability policy for :meth:`put`:

        * ``"none"`` (default) — no fsync; atomic rename only.  Fast;
          what every test and experiment uses.
        * ``"data"`` — fsync the temp file before the rename, so the
          object's *bytes* survive a power loss (the rename itself may
          still be lost, leaving the old state — which is consistent).
        * ``"full"`` — additionally fsync the namespace directory after
          the rename, making the rename itself durable.
    """

    _FSYNC_POLICIES = ("none", "data", "full")

    def __init__(self, root: str | os.PathLike[str], fsync: str = "none") -> None:
        if fsync not in self._FSYNC_POLICIES:
            raise ValueError(f"fsync must be one of {self._FSYNC_POLICIES}, got {fsync!r}")
        self._root = os.fspath(root)
        self._fsync = fsync
        os.makedirs(self._root, exist_ok=True)

    def _path(self, namespace: str, key: bytes) -> str:
        return os.path.join(self._root, namespace, key.hex())

    @staticmethod
    def _is_object_name(name: str) -> bool:
        """Whether a directory entry is a stored object (bare lowercase hex).

        In-flight temp files (``.*.tmp``) and foreign files (editor
        droppings, OS metadata) fail this test and are skipped by every
        enumeration path.
        """
        if not name or name.startswith(".") or name.endswith(TMP_SUFFIX):
            return False
        try:
            return bytes.fromhex(name).hex() == name
        except ValueError:
            return False

    def _object_names(self, namespace: str) -> list[str]:
        d = os.path.join(self._root, namespace)
        if not os.path.isdir(d):
            return []
        names = []
        for name in os.listdir(d):
            if self._is_object_name(name):
                names.append(name)
            elif not name.endswith(TMP_SUFFIX) and not name.startswith("."):
                # Temp strays are expected debris from interrupted puts;
                # anything else in a store directory deserves a warning.
                logger.warning("%s/%s: ignoring non-object file %r", self._root, namespace, name)
        return names

    def put(self, namespace: str, key: bytes, data: bytes) -> None:
        path = self._path(namespace, key)
        d = os.path.dirname(path)
        os.makedirs(d, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".", suffix=TMP_SUFFIX)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
                if self._fsync != "none":
                    fh.flush()
                    os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        if self._fsync == "full":
            self._fsync_dir(d)

    def put_like(self, namespace: str, key: bytes, data: bytes, like: bytes) -> None:
        """Publish a hard link to ``like``'s file as ``key`` if it holds
        ``data`` — no new inode, which on a local file system costs far
        more than a link — else :meth:`put`.

        The link goes to a hidden ``TMP_SUFFIX`` name first, is read
        back and compared with ``data``, and only then renamed onto
        ``key``; any ``OSError`` (``like`` absent, ``EMLINK``, a file
        system without links) or a byte mismatch drops the temp name
        and falls back to :meth:`put`.  A crash leaves the old state,
        the complete new name, or a stray that :meth:`purge_incomplete`
        removes.  The linked bytes were made durable by the put that
        wrote ``like``, so ``fsync="data"`` adds nothing here and
        ``"full"`` fsyncs the directory after the rename, as :meth:`put`.
        """
        path = self._path(namespace, key)
        d = os.path.dirname(path)
        tmp = os.path.join(d, f".{key.hex()}.{os.getpid()}.{next(_LINK_SEQ)}{TMP_SUFFIX}")
        try:
            os.link(self._path(namespace, like), tmp)
            try:
                with open(tmp, "rb") as fh:
                    same = fh.read(len(data) + 1) == data
                if same:
                    os.replace(tmp, path)
            finally:
                # Also after a replace: renaming a link onto another link
                # of the same inode is a no-op that leaves the source name.
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
        except OSError:
            same = False
        if not same:
            self.put(namespace, key, data)
        elif self._fsync == "full":
            self._fsync_dir(d)

    @staticmethod
    def _fsync_dir(d: str) -> None:
        dfd = os.open(d, os.O_RDONLY)
        try:
            os.fsync(dfd)
        finally:
            os.close(dfd)

    def get(self, namespace: str, key: bytes) -> bytes:
        try:
            with open(self._path(namespace, key), "rb") as fh:
                return fh.read()
        except FileNotFoundError:
            raise _not_found(namespace, key) from None

    def _open(self, namespace: str, key: bytes) -> int:
        try:
            return os.open(self._path(namespace, key), os.O_RDONLY)
        except FileNotFoundError:
            raise _not_found(namespace, key) from None

    @staticmethod
    def _pread(fd: int, total: int, offset: int, size: int) -> bytes:
        """``size`` bytes at ``offset`` of an open file of ``total`` bytes."""
        check_extent(offset, size, total)
        parts: list[bytes] = []
        got = 0
        while got < size:  # pread may return less than asked
            piece = os.pread(fd, size - got, offset + got)
            if not piece:
                raise ValueError(
                    f"extent [{offset}, {offset + size}) short by {size - got} bytes"
                )
            parts.append(piece)
            got += len(piece)
        return b"".join(parts)

    def get_range(self, namespace: str, key: bytes, offset: int, size: int) -> bytes:
        fd = self._open(namespace, key)
        try:
            return self._pread(fd, os.fstat(fd).st_size, offset, size)
        finally:
            os.close(fd)

    def iter_ranges(
        self, namespace: str, reads: Iterable[tuple[bytes, int, int]]
    ) -> Generator[bytes, None, None]:
        """Each file is opened and measured once, on its first extent,
        and read with ``pread`` until the iteration ends — exhausted,
        closed or raising — when every handle is closed.  At most
        :data:`ITER_OPEN_FILES` are open at once, the earliest-opened
        closed first."""
        held: dict[bytes, tuple[int, int]] = {}  # key -> (fd, size), in open order
        try:
            for key, offset, size in reads:
                if key not in held:
                    if len(held) >= ITER_OPEN_FILES:
                        os.close(held.pop(next(iter(held)))[0])
                    fd = self._open(namespace, key)
                    try:
                        held[key] = (fd, os.fstat(fd).st_size)
                    except BaseException:
                        os.close(fd)
                        raise
                yield self._pread(*held[key], offset, size)
        finally:
            for fd, _ in held.values():
                os.close(fd)

    def object_size(self, namespace: str, key: bytes) -> int:
        try:
            return os.stat(self._path(namespace, key)).st_size
        except FileNotFoundError:
            raise _not_found(namespace, key) from None

    def exists(self, namespace: str, key: bytes) -> bool:
        return os.path.exists(self._path(namespace, key))

    def keys(self, namespace: str) -> list[bytes]:
        return [bytes.fromhex(name) for name in self._object_names(namespace)]

    def delete(self, namespace: str, key: bytes) -> bool:
        try:
            os.remove(self._path(namespace, key))
            return True
        except FileNotFoundError:
            return False

    def object_count(self, namespace: str) -> int:
        return len(self._object_names(namespace))

    def bytes_stored(self, namespace: str) -> int:
        d = os.path.join(self._root, namespace)
        return sum(
            os.path.getsize(os.path.join(d, name))
            for name in self._object_names(namespace)
        )

    def namespaces(self) -> list[str]:
        return [
            ns
            for ns in os.listdir(self._root)
            if os.path.isdir(os.path.join(self._root, ns))
            and self._object_names(ns)
        ]

    def purge_incomplete(self, prefix: str = "") -> int:
        """Delete stray non-object files (interrupted-put debris).

        Removes ``*.tmp`` temp files and any other non-hex file from
        every namespace directory; returns the number removed.  Called
        by the recovery pass before the store is walked.

        ``prefix`` restricts the sweep to namespaces starting with it —
        a tenant-scoped recovery must not delete another tenant's
        in-flight temp files (see :class:`PrefixedBackend`).
        """
        purged = 0
        for ns in os.listdir(self._root):
            if prefix and not ns.startswith(prefix):
                continue
            d = os.path.join(self._root, ns)
            if not os.path.isdir(d):
                continue
            for name in os.listdir(d):
                path = os.path.join(d, name)
                if not self._is_object_name(name) and os.path.isfile(path):
                    with contextlib.suppress(OSError):
                        os.remove(path)
                        purged += 1
        return purged


class PrefixedBackend(StorageBackend):
    """A namespace-prefixing view over another backend.

    Every logical namespace ``ns`` is stored under ``prefix + ns`` on
    the inner backend, and :meth:`namespaces` reports only (and strips)
    the prefixed ones.  Code above the backend — the object stores, the
    deduplicators, verification, GC, recovery — runs unchanged against
    a view and can only ever touch keys under its prefix.  This is the
    storage substrate of tenant isolation: one
    :class:`~repro.service.tenancy.TenantRegistry` hands each tenant a
    view with a distinct prefix over one shared physical store.

    The view adds no state of its own, so it inherits the inner
    backend's atomicity/durability/concurrency guarantees verbatim, and
    any number of views (same or different prefixes) may wrap one inner
    backend concurrently.
    """

    def __init__(self, inner: StorageBackend, prefix: str) -> None:
        if not prefix:
            raise ValueError("prefix must be non-empty (use the backend directly)")
        if os.sep in prefix or (os.altsep is not None and os.altsep in prefix):
            raise ValueError(f"prefix {prefix!r} must not contain path separators")
        self.inner = inner
        self.prefix = prefix

    def _ns(self, namespace: str) -> str:
        return self.prefix + namespace

    def put(self, namespace: str, key: bytes, data: bytes) -> None:
        self.inner.put(self._ns(namespace), key, data)

    def put_like(self, namespace: str, key: bytes, data: bytes, like: bytes) -> None:
        self.inner.put_like(self._ns(namespace), key, data, like)

    def get(self, namespace: str, key: bytes) -> bytes:
        return self.inner.get(self._ns(namespace), key)

    def get_range(self, namespace: str, key: bytes, offset: int, size: int) -> bytes:
        return self.inner.get_range(self._ns(namespace), key, offset, size)

    def iter_ranges(
        self, namespace: str, reads: Iterable[tuple[bytes, int, int]]
    ) -> Generator[bytes, None, None]:
        return self.inner.iter_ranges(self._ns(namespace), reads)

    def object_size(self, namespace: str, key: bytes) -> int:
        return self.inner.object_size(self._ns(namespace), key)

    def exists(self, namespace: str, key: bytes) -> bool:
        return self.inner.exists(self._ns(namespace), key)

    def keys(self, namespace: str) -> list[bytes]:
        return self.inner.keys(self._ns(namespace))

    def delete(self, namespace: str, key: bytes) -> bool:
        return self.inner.delete(self._ns(namespace), key)

    def object_count(self, namespace: str) -> int:
        return self.inner.object_count(self._ns(namespace))

    def bytes_stored(self, namespace: str) -> int:
        return self.inner.bytes_stored(self._ns(namespace))

    def namespaces(self) -> list[str]:
        n = len(self.prefix)
        return [
            ns[n:] for ns in self.inner.namespaces() if ns.startswith(self.prefix)
        ]

    def purge_incomplete(self, prefix: str = "") -> int:
        """Sweep interrupted-put debris *under this view's prefix only*.

        Composes the prefixes, so a tenant-scoped recovery never
        touches another tenant's in-flight temp files.
        """
        return self.inner.purge_incomplete(self.prefix + prefix)
