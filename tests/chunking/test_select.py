"""Unit tests for cut-point selection and the SplitMix64 generator."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chunking._select import select_cut_points, splitmix64


class TestSplitMix64:
    def test_deterministic(self):
        a, b = splitmix64(42), splitmix64(42)
        assert [a.next() for _ in range(5)] == [b.next() for _ in range(5)]

    def test_different_seeds_differ(self):
        assert splitmix64(1).next() != splitmix64(2).next()

    def test_next_odd_is_odd(self):
        rng = splitmix64(7)
        for _ in range(20):
            assert rng.next_odd() & 1

    def test_values_fit_64_bits(self):
        rng = splitmix64(0)
        for _ in range(100):
            assert 0 <= rng.next() < 1 << 64


def cuts(candidates, n, min_size=10, max_size=50):
    return list(
        select_cut_points(np.asarray(candidates, dtype=np.int64), n, min_size, max_size)
    )


class TestSelection:
    def test_empty_input(self):
        assert cuts([], 0) == []

    def test_no_candidates_forces_max_size(self):
        assert cuts([], 120) == [50, 100, 120]

    def test_candidate_in_window_is_used(self):
        assert cuts([30], 120) == [30, 80, 120]

    def test_candidate_below_min_ignored(self):
        assert cuts([5], 120) == [50, 100, 120]

    def test_candidate_at_exactly_min_size(self):
        assert cuts([10], 120) == [10, 60, 110, 120]

    def test_candidate_at_exactly_max_size(self):
        assert cuts([50], 120) == [50, 100, 120]

    def test_tail_shorter_than_min_not_split(self):
        # tail of 9 bytes after cut at 50: no candidate can split it
        assert cuts([50, 55], 59) == [50, 59]

    def test_tail_candidate_splits(self):
        assert cuts([30, 45], 49) == [30, 45, 49]

    def test_consecutive_candidates_respect_min(self):
        assert cuts([12, 14, 16, 40], 60) == [12, 40, 60]

    @given(
        cands=st.lists(st.integers(1, 1000), max_size=50).map(sorted),
        n=st.integers(1, 1000),
        min_size=st.integers(1, 40),
        extra=st.integers(0, 100),
    )
    @settings(max_examples=150, deadline=None)
    def test_contract_property(self, cands, n, min_size, extra):
        max_size = min_size + extra
        out = cuts([c for c in cands if c <= n], n, min_size, max_size)
        assert out[-1] == n
        assert all(a < b for a, b in zip(out, out[1:]))
        sizes = np.diff(np.concatenate([[0], out]))
        assert np.all(sizes[:-1] >= min_size) or len(sizes) == 1
        assert np.all(sizes <= max_size) or out == [n] and n <= max_size
        # every chunk except possibly the final one obeys max_size
        assert np.all(sizes[:-1] <= max_size)
        assert sizes[-1] <= max_size


def _oracle_select(candidates, n, min_size, max_size):
    """The ``searchsorted``-per-chunk selector this module shipped with,
    kept as the executable spec for any faster walk over the candidates."""
    if n == 0:
        return []
    out = []
    start = 0
    num = len(candidates)
    while n - start > max_size:
        k = int(np.searchsorted(candidates, start + min_size, side="left"))
        hi = start + max_size
        cut = int(candidates[k]) if k < num and candidates[k] <= hi else hi
        out.append(cut)
        start = cut
    while n - start > min_size:
        k = int(np.searchsorted(candidates, start + min_size, side="left"))
        if k < num and candidates[k] < n:
            start = int(candidates[k])
            out.append(start)
        else:
            break
    out.append(n)
    return out


class TestSelectionMatchesSearchsortedOracle:
    @given(
        cands=st.lists(st.integers(1, 3000), max_size=200, unique=True).map(sorted),
        n=st.integers(0, 3000),
        min_size=st.integers(1, 64),
        extra=st.integers(0, 200),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_sorted_candidates(self, cands, n, min_size, extra):
        arr = np.asarray([c for c in cands if c <= n], dtype=np.int64)
        max_size = min_size + extra
        got = select_cut_points(arr, n, min_size, max_size)
        assert got.dtype == np.int64
        assert list(got) == _oracle_select(arr, n, min_size, max_size)

    @given(
        n=st.integers(1, 400),
        min_size=st.integers(1, 20),
        extra=st.integers(0, 20),
    )
    @settings(max_examples=100, deadline=None)
    def test_every_position_a_candidate(self, n, min_size, extra):
        arr = np.arange(1, n + 1, dtype=np.int64)
        max_size = min_size + extra
        assert list(select_cut_points(arr, n, min_size, max_size)) == _oracle_select(
            arr, n, min_size, max_size
        )

    def test_min_equals_max(self):
        arr = np.asarray([3, 10, 11, 20, 29], dtype=np.int64)
        assert list(select_cut_points(arr, 35, 10, 10)) == _oracle_select(arr, 35, 10, 10)

    def test_edges_and_tail_rule(self):
        # candidates exactly at start+min, start+max, n-1 and n; tails of
        # exactly min_size and min_size+1; input shorter than min_size.
        cases = [
            ([10, 60, 110], 120, 10, 50),
            ([50, 100, 119, 120], 120, 10, 50),
            ([50, 59], 60, 10, 50),
            ([50, 60], 61, 10, 50),
            ([5], 9, 10, 50),
            ([], 10, 10, 50),
            ([], 11, 10, 50),
            ([11], 11, 10, 50),
            ([10], 11, 10, 50),
        ]
        for cands, n, lo, hi in cases:
            arr = np.asarray(cands, dtype=np.int64)
            assert list(select_cut_points(arr, n, lo, hi)) == _oracle_select(
                arr, n, lo, hi
            ), (cands, n, lo, hi)
