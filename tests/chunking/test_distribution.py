"""Statistical validation of the CDC cut-point process.

On uniform random input the cut condition fires independently per
position with probability ``1/ECS``, so chunk sizes should follow
``min_size + Geometric(1/ECS)`` truncated at ``max_size``.  These tests
check that structure with scipy rather than eyeballing a mean — a
biased rolling hash (the classic low-bit Karp–Rabin trap) fails them.
"""

import numpy as np
import pytest
from scipy import stats as sps

from repro.chunking import ChunkerConfig, VectorizedChunker

ECS = 512
CFG = ChunkerConfig(expected_size=ECS, min_size=128, max_size=4096, window=16)
N = 8_000_000


@pytest.fixture(scope="module")
def sizes():
    data = np.random.default_rng(99).integers(0, 256, size=N, dtype=np.uint8).tobytes()
    cuts = VectorizedChunker(CFG).cut_points(data)
    return np.diff(np.concatenate([[0], cuts]))[:-1]  # drop the tail chunk


def test_mean_matches_geometric_model(sizes):
    """E[size] = min + ECS·(1 - exp(-(max-min)/ECS)-ish); the simple
    min + ECS approximation holds within 5% when max >> ECS."""
    expected = CFG.min_size + ECS
    assert abs(sizes.mean() - expected) / expected < 0.05, sizes.mean()


def test_forced_cut_rate_matches_model(sizes):
    """P(size == max) ~ exp(-(max-min)/ECS)."""
    span = CFG.max_size - CFG.min_size
    expected = np.exp(-span / ECS)
    measured = float(np.mean(sizes == CFG.max_size))
    assert measured == pytest.approx(expected, abs=3e-3)


def test_interior_sizes_fit_geometric(sizes):
    """KS test of (size - min) against the geometric/exponential law,
    on the un-truncated region."""
    interior = sizes[(sizes > CFG.min_size) & (sizes < CFG.max_size)] - CFG.min_size
    # Exponential approximation of the geometric with scale ECS.
    result = sps.kstest(interior, "expon", args=(0, ECS))
    # With ~10k samples even small discreteness effects give tiny
    # p-values; bound the KS distance instead (0.02 = very close fit).
    assert result.statistic < 0.02, result


def test_no_positional_bias(sizes):
    """Chunk sizes must not correlate with stream position (a blocked
    implementation bug would show up here)."""
    idx = np.arange(len(sizes))
    rho, _p = sps.spearmanr(idx, sizes)
    assert abs(rho) < 0.02, rho


def test_low_entropy_input_not_degenerate():
    """ASCII-ish input (high bits zero) must still cut near 1/ECS —
    the finaliser's job.  A raw mod-2^64 Karp-Rabin low-bit mask would
    collapse here."""
    rng = np.random.default_rng(3)
    data = rng.integers(32, 127, size=2_000_000, dtype=np.uint8).tobytes()
    cuts = VectorizedChunker(CFG).cut_points(data)
    mean = len(data) / len(cuts)
    assert 0.8 * (CFG.min_size + ECS) < mean < 1.6 * (CFG.min_size + ECS), mean
