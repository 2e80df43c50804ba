from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from streamfec.channel import (BudgetError, ChannelError, ERASED, ErasurePattern,
                               apply, enumerate_block_patterns, event_kind, is_admissible,
                               sample_stream_pattern)


class TestErasurePattern:
    def test_ordering_enforced(self):
        with pytest.raises(ChannelError):
            ErasurePattern(5, (3, 1))

    def test_out_of_range(self):
        with pytest.raises(ChannelError):
            ErasurePattern(5, (5,))

    def test_make_sorts_and_dedups(self):
        p = ErasurePattern.make(6, [4, 1, 4])
        assert p.erased == (1, 4)

    def test_text_round_trip(self):
        p = ErasurePattern.from_text(12, "0,1,2,6,8")
        assert p.erased == (0, 1, 2, 6, 8)
        assert p.to_text() == "0,1,2,6,8"

    def test_burst_detection(self):
        assert event_kind((2, 3, 4), 5, 2) == "burst"
        assert event_kind((2, 4), 5, 1) is None
        assert event_kind((2, 3, 4), 5, 3) == "arbitrary"
        assert event_kind((2, 3, 4, 5), 3, 2) is None


class TestIsAdmissible:
    def test_burst_and_sparse_windows_coexist(self):
        p = ErasurePattern.make(12, [0, 1, 2, 6, 8])
        assert is_admissible(p, 5, 3, 2)

    def test_empty(self):
        assert is_admissible(ErasurePattern.make(12, []), 5, 3, 2)

    def test_long_burst_violates_both_clauses(self):
        p = ErasurePattern.make(12, [0, 1, 2, 3])
        assert not is_admissible(p, 5, 3, 2)

    def test_any_single_burst_up_to_b(self):
        for length in range(1, 4):
            for start in range(0, 12 - length):
                p = ErasurePattern.make(12, range(start, start + length))
                assert is_admissible(p, 5, 3, 2)

    def test_burst_of_b_plus_one_inadmissible(self):
        p = ErasurePattern.make(12, range(4))
        assert not is_admissible(p, 5, 3, 2)

    def test_sparse_within_one_window(self):
        assert is_admissible(ErasurePattern.make(12, [3, 6]), 5, 3, 2)
        assert not is_admissible(ErasurePattern.make(12, [3, 5, 6]), 5, 3, 2)

    def test_matches_window_by_window_reference(self):
        """Every pattern with horizon <= 8 against a direct reading of the
        definition: each window [s, s+W) clipped to the horizon, at least
        one window, holds at most N erasures or one run of at most B."""

        def reference(erased, horizon, W, B, N):
            for s in range(max(horizon - W + 1, 1)):
                hits = [e for e in erased if s <= e < min(s + W, horizon)]
                run = hits == list(range(hits[0], hits[0] + len(hits))) if hits else True
                if not (len(hits) <= N or (run and len(hits) <= B)):
                    return False
            return True

        channels = [(W, B, N) for W in range(1, 10) for B in range(1, 4) for N in range(1, B + 1)]
        for horizon in range(9):
            for size in range(horizon + 1):
                for combo in combinations(range(horizon), size):
                    p = ErasurePattern(horizon, combo)
                    for W, B, N in channels:
                        want = reference(combo, horizon, W, B, N)
                        assert is_admissible(p, W, B, N) == want, (combo, horizon, W, B, N)

    @given(st.sets(st.integers(min_value=0, max_value=11), max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_monotone_under_removal(self, idx):
        p = ErasurePattern.make(12, idx)
        if is_admissible(p, 5, 3, 2):
            for drop in p.erased:
                smaller = ErasurePattern.make(12, set(p.erased) - {drop})
                assert is_admissible(smaller, 5, 3, 2)


def brute_force_patterns(n, W, B, N):
    out = set()
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            p = ErasurePattern(n, combo)
            sparse = len(combo) <= N
            burst = bool(combo) and combo[-1] - combo[0] == len(combo) - 1 and len(combo) <= B
            if (sparse or burst or not combo) and is_admissible(p, W, B, N):
                out.add(combo)
    return out


class TestEnumerateBlockPatterns:
    def test_tiny(self):
        pats = enumerate_block_patterns(2, 1, 1)
        assert [p.erased for p in pats] == [(), (0,), (1,)]

    def test_matches_brute_force_example_one(self):
        pats = enumerate_block_patterns(12, 5, 3)
        got = {p.erased for p in pats}
        assert len(got) == len(pats)  # no duplicates
        assert got == brute_force_patterns(12, 10, 5, 3)
        for start in range(8):
            assert tuple(range(start, start + 5)) in got

    def test_matches_brute_force_example_two(self):
        pats = enumerate_block_patterns(13, 4, 2)
        got = {p.erased for p in pats}
        assert len(got) == len(pats)
        assert got == brute_force_patterns(13, 11, 4, 2)

    @pytest.mark.parametrize("W", range(1, 11))
    def test_admissible_for_every_window(self, W):
        pats = enumerate_block_patterns(8, 4, 2)
        assert {p.erased for p in pats} == brute_force_patterns(8, W, 4, 2)

    def test_deterministic_order(self):
        a = enumerate_block_patterns(10, 4, 2)
        b = enumerate_block_patterns(10, 4, 2)
        assert [p.erased for p in a] == [p.erased for p in b]

    def test_budget_refusal(self):
        with pytest.raises(BudgetError):
            enumerate_block_patterns(17, 5, 3)
        with pytest.raises(BudgetError):
            enumerate_block_patterns(12, 6, 5)


class TestSampleStreamPattern:
    def test_deterministic(self):
        a = sample_stream_pattern(200, 10, 5, 3, seed=42)
        b = sample_stream_pattern(200, 10, 5, 3, seed=42)
        assert a.erased == b.erased

    def test_seeds_differ(self):
        a = sample_stream_pattern(200, 10, 5, 3, seed=1)
        b = sample_stream_pattern(200, 10, 5, 3, seed=2)
        assert a.erased != b.erased

    def test_always_admissible(self):
        for seed in range(200):
            p = sample_stream_pattern(300, 11, 4, 2, seed)
            assert is_admissible(p, 11, 4, 2)

    def test_produces_erasures_on_long_streams(self):
        densities = [len(sample_stream_pattern(500, 11, 4, 2, s).erased) / 500
                     for s in range(50)]
        assert max(densities) > 0

    def test_short_horizon_admissible(self):
        # a horizon shorter than W is one partial window
        for length in range(10):
            for seed in range(20):
                p = sample_stream_pattern(length, 10, 4, 2, seed)
                assert p.horizon == length
                assert is_admissible(p, 10, 4, 2)


class TestApply:
    def test_empty_pattern_identity(self):
        x = list(range(6))
        assert apply(x, ErasurePattern.make(6, [])) == x

    def test_all_erased(self):
        out = apply([1, 2, 3], ErasurePattern.make(3, [0, 1, 2]))
        assert all(v is ERASED for v in out)

    def test_marks_exact_positions(self):
        x = list(range(12))
        out = apply(x, ErasurePattern.make(12, [0, 1, 2, 6, 8]))
        assert [t for t, v in enumerate(out) if v is ERASED] == [0, 1, 2, 6, 8]
        assert out[3] == 3

    def test_horizon_mismatch(self):
        with pytest.raises(ChannelError):
            apply([1, 2], ErasurePattern.make(3, [0]))


def test_erased_mark_is_falsy_singleton():
    assert not ERASED
    assert repr(ERASED) == "ERASED"
