"""Stateful property test: both backends against a model dict.

Hypothesis drives random interleavings of put/put_like/get/get_range/
object_size/exists/count against MemoryBackend and DirectoryBackend
simultaneously; any divergence from the reference model (or between
the two backends) fails.
"""

import shutil
import tempfile

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, invariant, rule

from repro.hashing import sha1
from repro.storage import DirectoryBackend, MemoryBackend

_NS = ("chunk", "manifest", "hook")


class BackendMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.model: dict[tuple[str, bytes], bytes] = {}
        self.memory = MemoryBackend()
        self.tmpdir = tempfile.mkdtemp(prefix="repro-backend-")
        self.directory = DirectoryBackend(self.tmpdir)

    keys = Bundle("keys")

    @rule(target=keys, tag=st.integers(0, 50))
    def make_key(self, tag):
        return sha1(str(tag).encode())

    @rule(key=keys, ns=st.sampled_from(_NS), data=st.binary(max_size=200))
    def put(self, key, ns, data):
        self.model[(ns, key)] = data
        self.memory.put(ns, key, data)
        self.directory.put(ns, key, data)

    @rule(
        key=keys,
        like=keys,
        ns=st.sampled_from(_NS),
        copy=st.booleans(),
        data=st.binary(max_size=200),
    )
    def put_like(self, key, like, ns, copy, data):
        if copy and (ns, like) in self.model:
            data = self.model[(ns, like)]  # the hint holds: a link
        self.model[(ns, key)] = data
        self.memory.put_like(ns, key, data, like)
        self.directory.put_like(ns, key, data, like)

    @rule(key=keys, ns=st.sampled_from(_NS))
    def get(self, key, ns):
        expected = self.model.get((ns, key))
        for backend in (self.memory, self.directory):
            if expected is None:
                try:
                    backend.get(ns, key)
                    raise AssertionError("expected KeyError")
                except KeyError:
                    pass
            else:
                assert backend.get(ns, key) == expected

    @rule(
        key=keys,
        ns=st.sampled_from(_NS),
        offset=st.integers(0, 210),
        size=st.integers(0, 210),
    )
    def get_range(self, key, ns, offset, size):
        expected = self.model.get((ns, key))
        if expected is None:
            error = KeyError
        elif offset + size > len(expected):
            error = ValueError
        else:
            error = None
        for backend in (self.memory, self.directory):
            if error is None:
                assert backend.get_range(ns, key, offset, size) == expected[offset : offset + size]
            else:
                with pytest.raises(error):
                    backend.get_range(ns, key, offset, size)

    @rule(key=keys, ns=st.sampled_from(_NS))
    def object_size(self, key, ns):
        expected = self.model.get((ns, key))
        for backend in (self.memory, self.directory):
            if expected is None:
                with pytest.raises(KeyError):
                    backend.object_size(ns, key)
            else:
                assert backend.object_size(ns, key) == len(expected)

    @rule(key=keys, ns=st.sampled_from(_NS))
    def exists(self, key, ns):
        expected = (ns, key) in self.model
        assert self.memory.exists(ns, key) == expected
        assert self.directory.exists(ns, key) == expected

    @invariant()
    def counts_and_bytes_agree(self):
        for ns in _NS:
            n = sum(1 for (m_ns, _k) in self.model if m_ns == ns)
            total = sum(len(v) for (m_ns, _k), v in self.model.items() if m_ns == ns)
            assert self.memory.object_count(ns) == n
            assert self.directory.object_count(ns) == n
            assert self.memory.bytes_stored(ns) == total
            assert self.directory.bytes_stored(ns) == total

    @invariant()
    def keys_agree(self):
        for ns in _NS:
            expected = sorted(k for (m_ns, k) in self.model if m_ns == ns)
            assert sorted(self.memory.keys(ns)) == expected
            assert sorted(self.directory.keys(ns)) == expected

    @invariant()
    def no_debris(self):
        assert self.directory.purge_incomplete() == 0

    def teardown(self):
        shutil.rmtree(self.tmpdir, ignore_errors=True)


TestBackends = BackendMachine.TestCase
TestBackends.settings = settings(max_examples=20, stateful_step_count=30, deadline=None)
