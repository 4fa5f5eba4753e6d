"""Fixtures shared by every test package."""

import pytest

from repro.chunking import _cdc


@pytest.fixture
def numpy_path(monkeypatch):
    """Cut as a process without a C compiler does: ``VectorizedChunker``
    uses its NumPy kernel and ``select_cut_points``, not ``_cdc.c``."""
    monkeypatch.setattr(_cdc, "_loaded", True)
    monkeypatch.setattr(_cdc, "_kernel", None)
