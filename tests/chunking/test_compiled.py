"""The compiled cut kernel (``chunking/_cdc.c``) and its loader.

Wherever this process could build it, ``VectorizedChunker`` cuts through
the compiled kernel, so the kernel is held to ``ReferenceChunker`` (the
spec) on the inputs that stress a rolling hash and the min/max/tail
rules.  The loader is checked under eight concurrent first calls,
without a compiler, and with a kernel that disagrees with NumPy.
"""

import logging
import shutil
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chunking import ChunkerConfig, ReferenceChunker, VectorizedChunker, _cdc
from repro.chunking.base import Chunker

from .conftest import random_bytes

#: A hash window wider than ``min_size``: a chunk's first windows reach
#: back into the chunk before it.
WIDE_WINDOW = ChunkerConfig(expected_size=128, min_size=20, max_size=600, window=48)
CONFIGS = [ChunkerConfig(expected_size=e) for e in (64, 256, 768, 2048, 8192)] + [WIDE_WINDOW]

needs_compiler = pytest.mark.skipif(
    shutil.which(_cdc._command()[0]) is None, reason="no C compiler on PATH"
)


@pytest.fixture(scope="module")
def kernel():
    if _cdc.compiled() is None:
        pytest.skip("this process cuts with NumPy")


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """A loader that has not run yet in this process; it builds into
    ``tmp_path / "cache"``."""
    monkeypatch.setattr(_cdc, "CACHE_DIR", tmp_path / "cache")
    monkeypatch.setattr(_cdc, "_loaded", False)
    monkeypatch.setattr(_cdc, "_kernel", None)
    return tmp_path


def make_input(kind, seed, n):
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
    if kind == "zeros":
        return bytes(n)
    if kind == "two-symbol":
        return rng.choice(rng.integers(0, 256, size=2, dtype=np.uint8), size=n).tobytes()
    period = rng.integers(0, 256, size=int(rng.integers(1, 300)), dtype=np.uint8).tobytes()
    return (period * (n // len(period) + 1))[:n]


@given(
    kind=st.sampled_from(["random", "zeros", "two-symbol", "periodic"]),
    config=st.sampled_from(CONFIGS),
    seed=st.integers(0, 2**32 - 1),
    size=st.floats(0, 3),  # in max_size units: forced cuts, tails, one chunk
    hist=st.floats(0, 1),  # the context prefix, as a share of the input
    wrap=st.sampled_from([bytes, bytearray, memoryview]),
)
@settings(max_examples=80, deadline=None)
def test_compiled_cuts_equal_the_spec(kernel, kind, config, seed, size, hist, wrap):
    data = make_input(kind, seed, int(size * config.max_size))
    h = int(hist * len(data))
    want = ReferenceChunker(config)._cut_points_ctx(data, h)
    got = VectorizedChunker(config)._cut_points_ctx(wrap(data), h)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)


@needs_compiler
def test_the_compiled_kernel_is_active_where_a_compiler_is():
    """A silent fallback to NumPy costs ~1.4x ingest throughput, and no
    other test would notice it."""
    assert _cdc.compiled() is not None


@needs_compiler
def test_eight_concurrent_first_calls_build_once(monkeypatch, fresh_loader):
    builds = []
    build = _cdc._compile

    def counted(target):
        builds.append(target)
        build(target)

    monkeypatch.setattr(_cdc, "_compile", counted)
    config = ChunkerConfig(expected_size=256)
    inputs = [random_bytes(50_000, seed=i) + bytes(1_000 * i) for i in range(8)]
    want = [Chunker._cut_points_ctx(VectorizedChunker(config), d, 0) for d in inputs]
    got = [None] * len(inputs)
    start = threading.Barrier(len(inputs))

    def first_call(i):
        start.wait(timeout=60)
        got[i] = VectorizedChunker(config).cut_points(inputs[i])

    threads = [threading.Thread(target=first_call, args=(i,)) for i in range(len(inputs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(builds) == 1
    assert _cdc.compiled() is not None
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_without_a_compiler_the_chunker_cuts_with_numpy(monkeypatch, fresh_loader, caplog):
    monkeypatch.setattr(_cdc, "_command", lambda: ["no-such-compiler", *_cdc.FLAGS])
    config = ChunkerConfig(expected_size=256, window=16)
    data = random_bytes(60_000, seed=5) + bytes(10_000)
    want = ReferenceChunker(config).cut_points(data)
    with caplog.at_level(logging.WARNING, logger=_cdc.__name__):
        for _ in range(3):
            assert np.array_equal(VectorizedChunker(config).cut_points(data), want)
    assert _cdc.compiled() is None
    assert len([r for r in caplog.records if r.name == _cdc.__name__]) == 1
    assert list((fresh_loader / "cache").iterdir()) == []  # no half-built library


@needs_compiler
def test_a_kernel_that_disagrees_with_numpy_is_not_used(monkeypatch, fresh_loader, caplog):
    """Each chunk's search starting a byte late: the probe's zero run
    catches it, and the process keeps NumPy."""
    source = _cdc.SOURCE.read_text()
    broken = source.replace("start + min_size, hi,", "start + min_size + 1, hi,")
    assert broken != source
    (fresh_loader / "_cdc.c").write_text(broken)
    monkeypatch.setattr(_cdc, "SOURCE", fresh_loader / "_cdc.c")
    config = ChunkerConfig(expected_size=256, window=16)
    data = random_bytes(30_000, seed=9) + bytes(3_000)
    with caplog.at_level(logging.WARNING, logger=_cdc.__name__):
        cuts = VectorizedChunker(config).cut_points(data)
    assert np.array_equal(cuts, ReferenceChunker(config).cut_points(data))
    assert _cdc.compiled() is None
    assert "disagrees" in caplog.text
