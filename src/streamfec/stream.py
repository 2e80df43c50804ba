"""Diagonal interleaving of the block code into a convolutional packet code.

Channel packet row j at time t carries codeword symbol j of the block
codeword whose diagonal starts at t - j: the diagonal starting at d encodes
the source symbols (s_d[0], s_{d+1}[1], ..., s_{d+k-1}[k-1]).  Systematic
rows therefore carry s_t[j] verbatim; parity rows mix the previous n - 1
source packets, giving an (n, k, n-1) convolutional code.  A diagonal is
read straight from the packet list, as a plain list of symbols
(``_diagonal``), and so is its erasure pattern: position p of the diagonal
starting at d is erased iff slot d + p is.  A diagonal spans n slots, more
than the window W when B > N, so its pattern need not be one burst or at
most N erasures: for (W, T, B, N) = (10, 9, 5, 3), n = 12 and the
admissible {0, 1, 10, 11} is neither.  Every diagonal is therefore decoded
by the oracle plan alone, and a symbol counts as recovered only by its
deadline; on an admissible stream every diagonal meets all of them
(acceptance criterion 10).
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from .channel import ERASED, ErasurePattern, apply, sample_stream_pattern
from .construction import GeneratorSet, evaluate_plan
from .decoder import oracle_plan


class StreamError(ValueError):
    pass


def _diagonal(packets: Sequence, start: int, length: int, zero) -> list:
    """Positions [0, length) of the diagonal starting at slot ``start``:
    position p is symbol p of packet start + p, or ERASED if that packet is.
    A slot before 0 holds the virtual zero (cold start)."""
    return [zero if t < 0 else ERASED if packets[t] is ERASED else packets[t][p]
            for p, t in enumerate(range(start, start + length))]


class StreamEncoder:
    """Stateful convolutional encoder with n - 1 packets of memory."""

    def __init__(self, g: GeneratorSet):
        self.g = g
        d = g.derived
        zero_packet = [g.field().zero] * d.k
        # history[0] is the packet at time t - (n-1), history[-1] at t - 1
        self.history: deque = deque([zero_packet] * (d.n - 1), maxlen=d.n - 1)

    def push(self, symbols: Sequence) -> list:
        """Encode the source packet of the next slot."""
        d = self.g.derived
        if len(symbols) != d.k:
            raise StreamError(f"expected {d.k} source symbols, got {len(symbols)}")
        ext = self.g.field()
        s_now = [ext(v) for v in symbols]
        out = list(s_now)
        # row j >= k is parity j of the diagonal starting at t - j; its k source
        # symbols precede t, from index n - 1 - j of the packets for t-(n-1) .. t-1
        past = list(self.history)
        for col, steps in enumerate(self.g.encoder_plan):
            diag = _diagonal(past, d.n - 1 - (d.k + col), d.k, ext.zero)
            out.append(evaluate_plan(steps, diag, ext.zero))
        self.history.append(s_now)
        return out


def encode_stream(packets: Sequence[Sequence], g: GeneratorSet) -> list:
    """Encode a finite stream, then n - 1 virtual zero packets so every
    started diagonal completes."""
    enc = StreamEncoder(g)
    flush = [[g.field().zero] * g.derived.k] * (g.derived.n - 1)
    return [enc.push(p) for p in [*packets, *flush]]


@dataclass(frozen=True)
class StreamReport:
    """What stream_decode measured: the number of erased slots and, per
    source packet, its largest symbol latency, or None if any symbol missed
    recovery by its deadline.  The rest is derived from those two."""

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


def stream_decode(received: Sequence, g: GeneratorSet,
                  num_source: Optional[int] = None,
                  values: bool = True) -> tuple[Optional[list], StreamReport]:
    """Decode a received channel stream diagonal by diagonal.

    ``received`` holds one channel packet (n symbols) or ERASED per slot;
    with ``values=True`` a packet of any other width raises StreamError.
    ``num_source`` is the number of real source packets (default: horizon
    minus the n - 1 flush slots).  With ``values=False`` only the recovery
    plan is evaluated (which positions resolve by which time), skipping the
    per-symbol arithmetic; the latency report is identical.
    """
    dd = g.derived
    n, k = dd.n, dd.k
    horizon = len(received)
    if num_source is None:
        num_source = horizon - (n - 1)
    if num_source < 0 or num_source + n - 1 > horizon:
        raise StreamError("stream too short for the requested source packet count")
    if values:
        bad = next((t for t, p in enumerate(received) if p is not ERASED and len(p) != n), None)
        if bad is not None:
            raise StreamError(f"packet {bad} has {len(received[bad])} symbols, expected {n}")

    packets = [[None] * k for _ in range(num_source)] if values else None
    sym_latency = [[None] * k for _ in range(num_source)]

    # Diagonals starting before t = 0 carry virtual zero symbols in their
    # early systematic positions (cold start); they are treated as received.
    zero = g.field().zero
    for d in range(-(k - 1), num_source):
        plan = oracle_plan(g, frozenset(p for p in range(max(0, -d), n)
                                        if received[d + p] is ERASED))
        diag = _diagonal(received, d, n, zero) if values else ()
        for j in range(k):
            t_src = d + j  # s_{d+j}[j] lives on this diagonal
            if not (0 <= t_src < num_source):
                continue
            hit = plan.get(j)
            if hit is None or hit[0] > dd.deadlines[j]:
                continue
            rt, steps = hit
            sym_latency[t_src][j] = rt - j
            if values:
                packets[t_src][j] = evaluate_plan(steps, diag, zero)

    report = StreamReport(erased_slots=sum(1 for p in received if p is ERASED),
                          latencies=tuple(None if None in lat else max(lat) for lat in sym_latency))
    return packets, report


def delay_check(report: StreamReport, T_eff: int) -> bool:
    """True iff every packet was recovered within the delay budget."""
    return not report.failures and report.max_latency <= T_eff


def simulate(g: GeneratorSet, length: int, seed: int,
             values: bool = True) -> tuple[StreamReport, ErasurePattern]:
    """One seeded end-to-end run: sample pattern, encode, erase, decode.

    With ``values=True`` the decoded packets are checked against the sent
    ones symbol for symbol; with ``values=False`` the run is plan-only.
    """
    import random

    d = g.derived
    horizon = length + d.n - 1
    pat = sample_stream_pattern(horizon, d.W, d.B, d.N, seed)
    if values:
        rng = random.Random(seed ^ 0x5EED)
        ext = g.field()
        src = [[ext.random_element(rng) for _ in range(d.k)] for _ in range(length)]
        sent = encode_stream(src, g)
    else:
        sent = [()] * horizon
    decoded, report = stream_decode(apply(sent, pat), g, num_source=length, values=values)
    if values:
        for t, lat in enumerate(report.latencies):
            if lat is not None and decoded[t] != src[t]:
                raise StreamError(f"value mismatch at packet {t}")
    return report, pat


# ---------------------------------------------------------------------------
# Text trace format: one line per slot, "t: sym sym ...", erased slots
# rendered as "t: ERASED".  Symbols use the field element wire form.
# ---------------------------------------------------------------------------

def format_trace(stream: Sequence) -> str:
    lines = []
    for t, p in enumerate(stream):
        if p is ERASED:
            lines.append(f"{t}: ERASED")
        else:
            lines.append(f"{t}: " + " ".join(v.to_text() for v in p))
    return "\n".join(lines) + "\n"


def parse_trace(text: str, field, n: int) -> list:
    """Inverse of format_trace for a code of length n: line t must be
    labelled t and carry n symbols or ERASED, else StreamError."""
    out = []
    for t, line in enumerate(text.strip().splitlines()):
        head, _, body = line.partition(":")
        if head.strip() != str(t):
            raise StreamError(f"line {t} is labelled slot {head.strip()!r}")
        body = body.strip()
        if body == "ERASED":
            out.append(ERASED)
            continue
        packet = [field.from_text(tok) for tok in body.split()]
        if len(packet) != n:
            raise StreamError(f"packet {t} has {len(packet)} symbols, expected {n}")
        out.append(packet)
    return out
