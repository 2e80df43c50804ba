"""Diagonal interleaving of the block code into a convolutional packet code.

Channel packet row j at time t carries codeword symbol j of the block
codeword whose diagonal starts at t - j: the diagonal starting at d encodes
the source symbols (s_d[0], s_{d+1}[1], ..., s_{d+k-1}[k-1]).  Systematic
rows therefore carry s_t[j] verbatim; parity rows mix the previous n - 1
source packets, giving an (n, k, n-1) convolutional code; the encoder
keeps them as one flat window, and a packet's parities are one plan set:
one reduction per plan set.  A diagonal is read straight from the packet
list, and so is its erasure pattern: position p of the diagonal starting
at d is erased iff slot d + p is.  A diagonal spans n slots, more than
the window W when B > N, so its pattern need not be one burst or at most
N erasures: for (W, T, B, N) = (10, 9, 5, 3), n = 12 and the admissible
{0, 1, 10, 11} is neither.  Every diagonal is therefore decoded by the
oracle plan alone, and a symbol counts as recovered only by its deadline;
on an admissible stream every diagonal meets all of them (acceptance
criterion 10).  Whether and when a packet is recovered depends on the
erasure pattern alone: plan_stream reads from it the latency report and,
per erased source packet, one cached packet plan built from the oracle
plans of its k diagonals; stream_decode evaluates each such plan set once
on the received values.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

from . import decoder
from .channel import ERASED, ErasurePattern, apply, sample_stream_pattern
from .construction import GeneratorSet
from .decoder import oracle_plan


class StreamError(ValueError):
    pass


class StreamEncoder:
    """Convolutional encoder whose memory is a flat window of (n - 1) k
    symbols; the code's k, field and window plan are read once, here."""

    def __init__(self, g: GeneratorSet):
        self._k, self._field, self._plan = g.derived.k, g.field(), g.window_plan
        self.window = [g.field().zero] * ((g.derived.n - 1) * g.derived.k)

    def push(self, symbols: Sequence) -> list:
        """The next slot's packet: the caller's elements, then its parities as
        one plan set over the window.  One Field.check admits the packet, so
        a foreign symbol raises before the window moves."""
        k, f = self._k, self._field
        if len(symbols) != k:
            raise StreamError(f"expected {k} source symbols, got {len(symbols)}")
        f.check(symbols)
        out = [*symbols, *f.evaluate_plans(self._plan, self.window)]
        self.window = self.window[k:] + out[:k]
        return out


def encode_stream(packets: Sequence[Sequence], g: GeneratorSet) -> list:
    """Encode a finite stream, then n - 1 virtual zero packets so every
    started diagonal completes."""
    enc = StreamEncoder(g)
    flush = [[g.field().zero] * g.derived.k] * (g.derived.n - 1)
    return [enc.push(p) for p in [*packets, *flush]]


@dataclass(frozen=True)
class StreamReport:
    """What plan_stream reads from an erasure pattern: the number of erased
    slots and, per source packet, its largest symbol latency, or None if any
    symbol misses recovery by its deadline.  The rest is derived from those two.
    erased_slots counts erasures in every transmitted slot, the n - 1 flush
    slots included, while packets counts source packets only."""

    erased_slots: int
    latencies: tuple

    @property
    def packets(self) -> int:
        return len(self.latencies)

    @property
    def failures(self) -> tuple[int, ...]:
        return tuple(t for t, v in enumerate(self.latencies) if v is None)

    @property
    def max_latency(self) -> int:
        vals = [v for v in self.latencies if v is not None]
        return max(vals) if vals else 0

    def recovered(self) -> int:
        return self.packets - len(self.failures)

    def to_json_obj(self) -> dict:
        return {
            "packets": self.packets,
            "erased": self.erased_slots,
            "recovered": self.recovered(),
            "max_latency": self.max_latency,
            "failures": list(self.failures),
        }


def _packet_plan(g: GeneratorSet, local: int) -> tuple:
    """Compile erased packet t's (latency or None, (slot offset, row) reads,
    {j: steps} per symbol j met by its deadline); bit b of local is slot
    t - k + 1 + b erased.  plan_stream looks the plan up first; it is stored
    under the int local, which equals no frozenset key."""
    dd = g.derived
    worst, reads, steps = 0, {}, {}
    for j in range(dd.k):  # symbol j lies at position j of diagonal t - j
        diag = local >> (dd.k - 1 - j)
        hit = oracle_plan(g, frozenset(p for p in range(dd.n) if diag >> p & 1)).get(j)
        if hit is not None and hit[0] <= dd.deadlines[j]:
            worst = max(worst, hit[0] - j)
            steps[j] = tuple((reads.setdefault((p - j, p), len(reads)), c) for p, c in hit[1])
    plan = (worst if len(steps) == dd.k else None, tuple(reads), steps)
    if len(g._plan_cache) < decoder.ORACLE_PLAN_CAP:
        g._plan_cache[local] = plan
    return plan


def plan_stream(g: GeneratorSet, pattern: ErasurePattern,
                num_source: int) -> tuple[dict, StreamReport]:
    """The packet plan of each erased source packet, keyed by slot, and the
    latency report, from the erasure pattern alone.  ``num_source`` counts
    the real source packets; the horizon holds them and the n - 1 flush slots."""
    n, k = g.derived.n, g.derived.k
    if num_source < 0 or num_source + n - 1 > pattern.horizon:
        raise StreamError("stream too short for the requested source packet count")
    erased, ahead = pattern.erased, 0  # erased[ahead] is the first erasure not yet in local
    total = len(erased)
    plans, latencies, cache = {}, [0] * num_source, g._plan_cache
    local = prev = 0  # bit b of local: slot prev - k + 1 + b erased; cold-start slots are not
    for t in erased[:bisect_left(erased, num_source)]:
        local >>= t - prev
        prev = t
        while ahead < total and erased[ahead] < t + n:
            local |= 1 << (erased[ahead] - t + k - 1)
            ahead += 1
        plans[t] = plan = cache.get(local) or _packet_plan(g, local)  # a plan is a 3-tuple
        latencies[t] = plan[0]
    return plans, StreamReport(total, tuple(latencies))


def stream_decode(received: Sequence, g: GeneratorSet,
                  num_source: int) -> tuple[list, StreamReport]:
    """Decode a received channel stream one erased source packet at a time.

    ``received`` holds one channel packet (n symbols) or ERASED per slot; a
    packet of any other width raises StreamError.  A received source packet
    is copied; an erased one is decoded by its plan_stream plan, as one plan set.
    """
    n, k = g.derived.n, g.derived.k
    zero, erased = g.field().zero, []
    for t, p in enumerate(received):
        if p is ERASED:
            erased.append(t)
        elif len(p) != n:
            raise StreamError(f"packet {t} has {len(p)} symbols, expected {n}")
        else:
            zero.field.check(p)  # read by a plan or not
    plans, report = plan_stream(g, ErasurePattern(len(received), tuple(erased)), num_source)
    packets = [[None] * k if p is ERASED else list(p[:k]) for p in received[:num_source]]
    for t, (_, reads, steps) in plans.items():
        x = [zero if t + off < 0 else received[t + off][row] for off, row in reads]
        for j, v in zip(steps, zero.field.evaluate_plans(steps.values(), x)):
            packets[t][j] = v
    return packets, report


def delay_check(report: StreamReport, T_eff: int) -> bool:
    """True iff every packet was recovered within the delay budget."""
    return not report.failures and report.max_latency <= T_eff


def simulate(g: GeneratorSet, length: int, seed: int,
             values: bool = True) -> tuple[StreamReport, ErasurePattern]:
    """One seeded end-to-end run: sample pattern, encode, erase, decode.

    With ``values=True`` the decoded packets are checked against the sent
    ones symbol for symbol; ``values=False`` returns plan_stream's report.
    """
    import random

    d = g.derived
    pat = sample_stream_pattern(length + d.n - 1, d.W, d.B, d.N, seed)
    if not values:
        return plan_stream(g, pat, length)[1], pat
    rng = random.Random(seed ^ 0x5EED)
    ext = g.field()
    src = [[ext.random_element(rng) for _ in range(d.k)] for _ in range(length)]
    decoded, report = stream_decode(apply(encode_stream(src, g), pat), g, num_source=length)
    for t, lat in enumerate(report.latencies):
        if lat is not None and decoded[t] != src[t]:
            raise StreamError(f"value mismatch at packet {t}")
    return report, pat
