"""Build, load and check the compiled Karp–Rabin cut kernel (``_cdc.c``).

:class:`~repro.chunking.vectorized.VectorizedChunker` cuts through the
C function when it is available and through its NumPy kernel when not;
both give the cut points of :class:`~repro.chunking.ReferenceChunker`.

Nothing happens at import.  The first :func:`compiled` call in a
process compiles ``_cdc.c`` with the interpreter's ``CC`` into this
package's ``__pycache__`` (named by a hash of source, command and
``EXT_SUFFIX``; written to a temporary file and moved into place, so a
concurrent builder never sees half a library), loads it with
:mod:`ctypes` — whose foreign calls release the GIL — and checks it
against the NumPy path on a fixed probe.  Any failure (no compiler, a
read-only package directory, a load error, a probe mismatch) is logged
once and the process keeps the NumPy path.
"""

from __future__ import annotations

import ctypes
import logging
import os
import shlex
import subprocess
import sysconfig
import tempfile
import threading
from collections.abc import Callable
from pathlib import Path

import numpy as np
import numpy.typing as npt

from ..hashing import sha1
from .base import Buffer, Chunker, ChunkerConfig
from .reference import hash_params

__all__ = ["compiled"]

logger = logging.getLogger(__name__)

SOURCE = Path(__file__).with_name("_cdc.c")
CACHE_DIR = SOURCE.parent / "__pycache__"
#: Portable code only (no ``-march=native``): a cached library may be
#: loaded on another CPU of the same architecture.
FLAGS = ("-O3", "-shared", "-fPIC")

#: ``kernel(data, hist, config, mult, final)``: cut points of
#: ``data[hist:]`` as positions in ``data`` (the contract of
#: ``Chunker._cut_points_ctx``), ``(mult, final)`` being the hash
#: constants of ``config.seed``.
Kernel = Callable[[Buffer, int, ChunkerConfig, int, int], npt.NDArray[np.int64]]

_lock = threading.Lock()
_loaded = False
_kernel: Kernel | None = None


def compiled() -> Kernel | None:
    """The checked compiled kernel, or ``None`` when this process cuts
    with NumPy.  Built, loaded and checked on the first call only."""
    global _loaded, _kernel
    if not _loaded:
        with _lock:
            if not _loaded:
                _kernel = _load(CACHE_DIR)
                _loaded = True
    return _kernel


def _command() -> list[str]:
    return [*shlex.split(sysconfig.get_config_var("CC") or "cc"), *FLAGS]


def _library_path(cache_dir: Path) -> Path:
    build = "\0".join([*_command(), sysconfig.get_config_var("EXT_SUFFIX") or ""])
    key = sha1(SOURCE.read_bytes() + build.encode()).hex()[:16]
    return cache_dir / f"_cdc-{key}.so"


def _compile(target: Path) -> None:
    """Compile ``_cdc.c`` to ``target`` through a temporary sibling."""
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix="_cdc-", suffix=".tmp")
    os.close(fd)
    try:
        subprocess.check_output(
            [*_command(), "-o", tmp, str(SOURCE)], stderr=subprocess.STDOUT, timeout=120
        )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load(cache_dir: Path) -> Kernel | None:
    try:
        path = _library_path(cache_dir)
        if not path.exists():
            cache_dir.mkdir(exist_ok=True)
            _compile(path)
        fn = ctypes.CDLL(str(path)).repro_cdc_cut_points
    except (OSError, AttributeError, subprocess.SubprocessError) as exc:
        output = getattr(exc, "output", None) or b""
        logger.warning(
            "compiled chunking kernel unavailable, cutting with NumPy: %s %s",
            exc,
            output.decode(errors="replace").strip(),
        )
        return None
    size_t, u64, ptr = ctypes.c_size_t, ctypes.c_uint64, ctypes.c_void_p
    fn.argtypes = [ptr, size_t, size_t, u64, u64, u64, size_t, size_t, size_t, ptr]
    fn.restype = size_t

    def kernel(
        data: Buffer, hist: int, config: ChunkerConfig, mult: int, final: int
    ) -> npt.NDArray[np.int64]:
        raw = np.frombuffer(data, dtype=np.uint8)
        if not 0 <= hist < len(raw):
            return np.empty(0, dtype=np.int64)
        # Every cut but the last advances at least min_size bytes.
        out = np.empty((len(raw) - hist) // config.min_size + 1, dtype=np.int64)
        count = fn(
            raw.ctypes.data, len(raw), hist, mult, final, config.hash_threshold,
            config.window, config.min_size, config.max_size, out.ctypes.data,
        )  # fmt: skip
        return out[:count]

    if not _agrees_with_numpy(kernel):
        logger.warning("compiled chunking kernel disagrees with NumPy, cutting with NumPy")
        return None
    return kernel


def _agrees_with_numpy(kernel: Kernel) -> bool:
    """Random bytes and a zero run, whole and after a context prefix, at
    a small ECS and with a window wider than ``min_size``."""
    from .vectorized import VectorizedChunker  # imports this module

    rng = np.random.default_rng(2013)
    data = rng.integers(0, 256, size=40_000, dtype=np.uint8).tobytes() + bytes(5_000)
    for config in (
        ChunkerConfig(expected_size=256, window=48),
        ChunkerConfig(expected_size=64, min_size=16, max_size=300, window=48),
    ):
        numpy_path = VectorizedChunker(config)
        mult, final = hash_params(config.seed)
        for hist in (0, 1_000):
            want = Chunker._cut_points_ctx(numpy_path, data, hist)
            if not np.array_equal(kernel(data, hist, config, mult, final), want):
                return False
    return True
