"""Sliding-window erasure channel model.

A pattern is admissible for (W, B, N) when every window of W consecutive
slots sees either at most N erasures at arbitrary positions or one
contiguous burst of at most B erasures.  Burst and sparse windows may
coexist in one stream; the predicate is evaluated per window.
"""
from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence


class ChannelError(ValueError):
    pass


class BudgetError(ValueError):
    """Raised when an exhaustive enumeration or check would exceed its budget."""


class _Erased:
    """Singleton marker standing in for an erased symbol or packet."""

    def __repr__(self):
        return "ERASED"

    def __bool__(self):
        return False


ERASED = _Erased()

_ENUM_MAX_N = 16
_ENUM_MAX_SPARSE = 4


@dataclass(frozen=True)
class ErasurePattern:
    horizon: int
    erased: tuple[int, ...]

    def __post_init__(self):
        prev = -1
        for e in self.erased:
            if not (0 <= e < self.horizon):
                raise ChannelError(f"erased index {e} outside [0, {self.horizon})")
            if e <= prev:
                raise ChannelError("erased indices must be strictly increasing")
            prev = e

    @classmethod
    def make(cls, horizon: int, erased) -> "ErasurePattern":
        return cls(horizon, tuple(sorted(set(erased))))

    @classmethod
    def from_text(cls, horizon: int, text: str) -> "ErasurePattern":
        text = text.strip()
        idx = [int(p) for p in text.split(",")] if text else []
        return cls.make(horizon, idx)

    def to_text(self) -> str:
        return ",".join(str(e) for e in self.erased)


def event_kind(erased: Sequence[int], B: int, N: int) -> Optional[str]:
    """The single loss event that sorted erasures in one window form:
    "arbitrary" for at most N erasures, "burst" for one contiguous run of
    length in (N, B], None for anything else."""
    if len(erased) <= N:
        return "arbitrary"
    if len(erased) <= B and erased[-1] - erased[0] == len(erased) - 1:
        return "burst"
    return None


def is_admissible(p: ErasurePattern, W: int, B: int, N: int) -> bool:
    if W < 1:
        raise ChannelError("window must be >= 1")
    erased = p.erased
    # A horizon shorter than the window is one partial window.
    for start in range(max(p.horizon - W + 1, 1)):
        hits = erased[bisect_left(erased, start):bisect_left(erased, start + W)]
        if event_kind(hits, B, N) is None:
            return False
    return True


def enumerate_block_patterns(n: int, B: int, N: int) -> list[ErasurePattern]:
    """All subsets of size <= N plus all bursts of length in (N, B].

    Each is admissible for any window, and the two families are disjoint by
    size.  Deterministic order: subsets by size then lexicographic index
    tuple, followed by bursts by (length, start).
    """
    if n > _ENUM_MAX_N or N > _ENUM_MAX_SPARSE:
        raise BudgetError(
            f"exhaustive enumeration limited to n <= {_ENUM_MAX_N}, N <= {_ENUM_MAX_SPARSE}; "
            f"got n = {n}, N = {N}")
    out = [ErasurePattern(n, combo)
           for size in range(N + 1) for combo in combinations(range(n), size)]
    out.extend(ErasurePattern(n, tuple(range(start, start + length)))
               for length in range(N + 1, B + 1) for start in range(n - length + 1))
    return out


def sample_stream_pattern(length: int, W: int, B: int, N: int, seed: int) -> ErasurePattern:
    """Seeded admissible pattern over a horizon of the given length.

    Alternates burst events (length <= B) and sparse events (<= N erasures
    inside one window) separated by at least W - 1 clean guard slots, so no
    window ever sees two events.  Events are clipped to the horizon, which
    may be shorter than W.  The result is re-checked before return.
    """
    rng = random.Random(seed)
    erased: list[int] = []
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
    p = ErasurePattern(length, tuple(erased))
    if not is_admissible(p, W, B, N):
        raise ChannelError("internal error: sampled pattern failed admissibility")
    return p


def apply(x: Sequence, p: ErasurePattern) -> list:
    """Replace erased slots with the ERASED mark."""
    if len(x) != p.horizon:
        raise ChannelError(f"stream length {len(x)} != pattern horizon {p.horizon}")
    hit = set(p.erased)
    return [ERASED if t in hit else v for t, v in enumerate(x)]
