import hashlib
import random
from bisect import bisect_left
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from streamfec.channel import (BudgetError, ChannelError, ERASED, ErasurePattern,
                               apply, enumerate_block_patterns, event_kind, is_admissible,
                               sample_stream_pattern)


# (W, T, B, N) of the long sampled streams: ex1, ex2 and (6, 9, 3, 2)
LONG_CODES = [(10, 9, 5, 3), (11, 10, 4, 2), (6, 9, 3, 2)]


def every_window_reference(erased, horizon, W, B, N):
    """A direct reading of the definition on sorted erasures: each window
    [s, s + W) clipped to the horizon, at least one window, holds at most N
    erasures or one run of at most B."""
    for s in range(max(horizon - W + 1, 1)):
        hits = erased[bisect_left(erased, s):bisect_left(erased, min(s + W, horizon))]
        run = list(hits) == list(range(hits[0], hits[0] + len(hits))) if hits else True
        if not (len(hits) <= N or (run and len(hits) <= B)):
            return False
    return True


def reference_sample_stream_pattern(length, W, B, N, seed):
    """sample_stream_pattern written with random.Random's randrange, randint
    and sample: the erasures its getrandbits draws must reproduce."""
    rng = random.Random(seed)
    erased = []
    t = rng.randrange(0, W)
    while t < length:
        if rng.random() < 0.5:
            run = rng.randint(1, B)
            run = min(run, length - t)
            erased.extend(range(t, t + run))
            event_end = t + run
        else:
            count = rng.randint(1, N)
            span = min(W, length - t)
            slots = sorted(rng.sample(range(t, t + span), min(count, span)))
            erased.extend(slots)
            event_end = slots[-1] + 1
        t = event_end + (W - 1) + rng.randrange(0, W)
    return tuple(erased)


def golden_pattern_lines(codes):
    """Per (code, seed 0-5): the erased count and the SHA-256 of to_text()
    of a 5,000-slot sampled pattern."""
    lines = []
    for W, T, B, N in codes:
        for seed in range(6):
            p = sample_stream_pattern(5000, W, B, N, seed)
            digest = hashlib.sha256(p.to_text().encode()).hexdigest()
            lines.append(f"{W},{T},{B},{N} {seed} {len(p.erased)} {digest}")
    return "\n".join(lines) + "\n"


class TestErasurePattern:
    def test_ordering_enforced(self):
        with pytest.raises(ChannelError):
            ErasurePattern(5, (3, 1))

    def test_out_of_range(self):
        with pytest.raises(ChannelError):
            ErasurePattern(5, (5,))

    @pytest.mark.parametrize("horizon", [-3, -1, 2.0, "5", True, None])
    def test_bad_horizon_rejected(self, horizon):
        # make and from_text build through the same check
        for build in (lambda: ErasurePattern(horizon, ()), lambda: ErasurePattern.make(horizon, []),
                      lambda: ErasurePattern.from_text(horizon, "")):
            with pytest.raises(ChannelError, match="horizon"):
                build()

    @pytest.mark.parametrize("index", [1.5, True, 2.0, "2", None])
    def test_non_int_index_rejected(self, index):
        # make, and so from_text, builds through the same check
        for build in (lambda: ErasurePattern(5, (index,)), lambda: ErasurePattern.make(5, [index]),
                      lambda: ErasurePattern(5, (0, index))):
            with pytest.raises(ChannelError, match="not an int"):
                build()

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
        """Every pattern with horizon <= 8 against the every-window reference."""
        channels = [(W, B, N) for W in range(1, 10) for B in range(1, 4) for N in range(1, B + 1)]
        for horizon in range(9):
            for size in range(horizon + 1):
                for combo in combinations(range(horizon), size):
                    p = ErasurePattern(horizon, combo)
                    for W, B, N in channels:
                        want = every_window_reference(combo, horizon, W, B, N)
                        assert is_admissible(p, W, B, N) == want, (combo, horizon, W, B, N)

    def test_window_of_n_plus_one_scattered_erasures_refused(self):
        """N erasures two slots apart fill a window of W = 2N + 1 slots as one
        arbitrary event; one more is neither that nor a burst for any B > N.
        N + 1 is the fewest erasures is_admissible hands to event_kind."""
        for N in range(1, 5):
            W = 2 * N + 1
            for B in (N + 1, N + 3):
                for start in (0, 3):
                    slots = range(start, start + 2 * N + 1, 2)
                    horizon = start + W + 2
                    assert is_admissible(ErasurePattern.make(horizon, slots[:-1]), W, B, N)
                    assert not is_admissible(ErasurePattern.make(horizon, slots), W, B, N)

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_entry_starts_agree_with_every_window(self, data):
        """Checking the window (e - W, e] that ends at each erasure e agrees
        with checking every window: short horizons, W = 1, no erasures and
        erasures at slot 0 and at the last slot included."""
        horizon = data.draw(st.integers(0, 40))
        W = data.draw(st.integers(1, 12))
        B = data.draw(st.integers(1, 5))
        N = data.draw(st.integers(1, B))
        slots = st.integers(0, max(horizon - 1, 0))
        erased = data.draw(st.sets(slots, max_size=min(horizon, 8)))
        edges = data.draw(st.sampled_from([(), (0,), (horizon - 1,), (0, horizon - 1)]))
        p = ErasurePattern.make(horizon, erased | set(edges) if horizon else ())
        windows = [[e for e in p.erased if s <= e < s + W] for s in range(max(horizon - W + 1, 1))]
        every = all(event_kind(hits, B, N) is not None for hits in windows)
        assert is_admissible(p, W, B, N) == every

    @pytest.mark.parametrize("W, T, B, N", LONG_CODES)
    def test_long_sampled_streams_match_reference(self, W, T, B, N):
        """Sampled 5,000-slot patterns, hundreds of events each, and each with
        one seeded extra erasure, agree with the every-window reference; the
        extra erasure makes some of them inadmissible."""
        verdicts = []
        for seed in range(8):
            p = sample_stream_pattern(5000, W, B, N, seed)
            extra = random.Random(seed).choice(sorted(set(range(5000)) - set(p.erased)))
            for q in (p, ErasurePattern.make(5000, {*p.erased, extra})):
                want = every_window_reference(q.erased, q.horizon, W, B, N)
                assert is_admissible(q, W, B, N) == want, (W, B, N, seed, q.erased == p.erased)
                verdicts.append(want)
        assert set(verdicts) == {True, False}

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

    def test_long_patterns_match_golden(self):
        """5,000-slot patterns of ex1, ex2 and (6,9,3,2), seeds 0-5: one line
        per (code, seed) with the erased count and the SHA-256 of to_text()
        equals tests/golden, so a change to the draws fails here by name."""
        golden = Path(__file__).parent / "golden" / "sampled_patterns.txt"
        assert golden_pattern_lines(LONG_CODES) == golden.read_text()

    def test_wide_patterns_match_golden(self):
        """As above for W = 22 and 23, whose sparse events of at most 5
        erasures draw through sample's set branch (a window of more than 21
        slots) and those of 6 to 8 through its pool branch."""
        golden = Path(__file__).parent / "golden" / "sampled_patterns_wide.txt"
        assert golden_pattern_lines([(22, 21, 8, 6), (23, 22, 8, 8)]) == golden.read_text()

    @pytest.mark.parametrize("W", [2, 3, 10, 11, 21, 22, 30, 40])
    def test_draws_match_randrange_randint_sample_reference(self, W):
        """Equal to the randrange/randint/sample reference for every seed
        0-19 and length 0, 1, W - 1, W, 3W + 1 and 2,000, and for W <= 11
        every length up to 2W + 1, so a burst cut at the horizon, a sparse
        span shorter than W and a count cut to its span each come at every
        offset.  The (B, N) pairs reach B and N up to 12, powers of two and
        not: windows of at most 21 slots draw through sample's pool, wider
        ones through its set for at most 5 erasures and its pool (a set of
        85) for 6 to 12."""
        pairs = [(1, 1), (2, 1), (2, 2), (3, 3), (4, 2), (5, 3), (5, 5), (6, 6),
                 (8, 6), (8, 8), (12, 5), (12, 7), (12, 12)]
        lengths = {0, 1, W - 1, W, 3 * W + 1, 2000}
        if W <= 11:
            lengths.update(range(2 * W + 2))
        for B, N in pairs:
            for length in sorted(lengths):
                for seed in range(20):
                    want = reference_sample_stream_pattern(length, W, B, N, seed)
                    got = sample_stream_pattern(length, W, B, N, seed)
                    assert got.erased == want, (length, W, B, N, seed)

    @pytest.mark.parametrize("W, B, N", [(0, 2, 1), (10, 0, 1), (10, 2, 0)], ids=["W", "B", "N"])
    def test_window_burst_or_sparse_below_one_refused(self, monkeypatch, W, B, N):
        """Refused before any draw: a draw below 0 would never end, since
        getrandbits(0) is 0."""
        def no_draws(self, k):
            raise AssertionError(f"drew {k} bits")
        monkeypatch.setattr(random.Random, "getrandbits", no_draws)
        with pytest.raises(ChannelError, match="must be >= 1"):
            sample_stream_pattern(100, W, B, N, 1)

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
