"""Sliding-window erasure channel model.

A pattern is admissible for (W, B, N) when every window of W consecutive
slots sees either at most N erasures at arbitrary positions or one
contiguous burst of at most B erasures.  Burst and sparse windows may
coexist in one stream; is_admissible checks one window per erasure and
calls event_kind only on a window of more than N erasures.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from math import ceil, log
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
        if type(self.horizon) is not int or self.horizon < 0:
            raise ChannelError(f"horizon must be a non-negative int, got {self.horizon!r}")
        prev = -1
        for e in self.erased:
            # plan_stream shifts by each index: a float or a bool is refused
            if type(e) is not int or not 0 <= e < self.horizon:
                raise ChannelError(f"erased index {e!r} is not an int in [0, {self.horizon})")
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
    """Every W-slot window holds one loss event (event_kind), in one pass.
    A window's erasures are a suffix of those in (e - W, e], e its last
    erasure; for e < W - 1 that set is a prefix of window 0's, clipped to the
    horizon.  A prefix or a suffix of one event is one event, so checking
    (e - W, e] for each erasure e is exact, short horizons included.  Only a
    window of more than N erasures is sliced and passed to event_kind."""
    if W < 1:
        raise ChannelError("window must be >= 1")
    erased, lo = p.erased, 0
    for j, e in enumerate(erased):
        while erased[lo] <= e - W:
            lo += 1
        # event_kind accepts any window of at most N erasures
        if j - lo >= N and event_kind(erased[lo:j + 1], B, N) is None:
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

    Each event is, with probability 1/2, a burst (length <= B) or a sparse
    event (<= N erasures inside one window); events are separated by at
    least W - 1 clean guard slots, so no window ever sees two.  Events are
    clipped to the horizon, which may be shorter than W.  The draws are
    those of random.Random's randrange, randint and sample (3.10-3.13), read
    from getrandbits directly; tests/golden pins the patterns.  The result
    is re-checked before return.
    """
    if min(W, B, N) < 1:  # below(0) would draw forever
        raise ChannelError(f"W, B and N must be >= 1, got {W}, {B}, {N}")
    rng = random.Random(seed)
    bits = rng.getrandbits

    def below(n):  # randrange(n): n.bit_length() bits, values >= n redrawn
        k = n.bit_length()
        r = bits(k)
        while r >= n:
            r = bits(k)
        return r

    erased: list[int] = []
    draw, extend = rng.random, erased.extend
    t = below(W)
    while t < length:
        if draw() < 0.5:
            end = t + 1 + below(B)  # the burst's end, clipped to the horizon
            if end > length:
                end = length
            extend(range(t, end))
        else:
            end = t + W if t + W < length else length
            span, count = end - t, 1 + below(N)
            if count > span:
                count = span
            # sample(range(t, t + span), count): a pool when it is smaller than a set;
            # both draw a lone slot as t + below(span)
            if count == 1:
                picked = (t + below(span),)
            elif span <= 21 + (4 ** ceil(log(3 * count, 4)) if count > 5 else 0):
                pool, picked = list(range(t, t + span)), []
                for i in range(count):
                    j = below(span - i)
                    picked.append(pool[j])
                    pool[j] = pool[span - i - 1]
            else:
                picked = set()
                while len(picked) < count:
                    picked.add(t + below(span))
            slots = sorted(picked)
            extend(slots)
            end = slots[-1] + 1
        t = end + W - 1 + below(W)
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
