"""Deadline-constrained erasure decoding for one code block.

Two decoders over the same generator set:

* ``oracle_decode`` is the ground truth.  ``oracle_plan`` reduces the
  block of P on the erased source rows and the received parity columns,
  in arrival order, beside an identity block with one ``rref_rows``; the
  result is, for every source symbol, the earliest time at which the
  received symbols pin it uniquely and the linear combination of received
  positions that yields it.  This recovery plan is cached per erasure
  pattern.  A decode copies each received source symbol from the block
  and evaluates the plans of the erased symbols that meet their deadline
  as one plan set, so repeated decodes of the same pattern cost one linear
  combination per erased symbol.

* ``decode_structured`` mirrors the algebra the code was designed around,
  in one pipeline for both pattern kinds.  Each stage is one rref_rows over
  received parity columns of P, with the known symbols moved to the
  right-hand side.  The outer rows of P (first delta and last k - B) are
  Gabidulin rows, so outer solves are rank-metric solves once the unknown
  middle symbols are nulled out over the base field, by eliminating them
  first; each middle sub-block is peeled through its Cauchy columns.
  Stage 1, if an outer symbol is erased, solves all of them at once, with
  every erased middle symbol as interference, through the received parity
  columns below a bound read from the pattern: N under arbitrary
  erasures, delta under a burst entering [0, delta), the end of the first
  affected sub-block's columns under a burst that erases a middle symbol,
  and B otherwise.  Stage 2 peels each affected sub-block in ascending
  order through its own received columns, with no interference.  A symbol
  is recovered at k plus the last column its stage reads.  A solve that is
  not unique, or that meets an unknown symbol it does not solve for,
  raises StructuralFailureError, so every returned value is pinned by P;
  on an admissible pattern the error is a bug.

Both build their systems as packed rows straight from the entries of P,
and both return a DecodeReport that keeps each symbol's value and recovery
time beside its deadline min(i + T_eff, n - 1); its per-symbol
SymbolReports are built only when asked.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .gf import FieldElement
from .matrix import rref_rows
from .channel import ERASED, ErasurePattern, event_kind
from .construction import DerivedParams, GeneratorSet


# Most plans one generator set caches: oracle plans and stream packet plans
# together.  ex1's 443 admissible diagonal patterns fit, and 200 sampled
# 5,000-packet streams need 190 packet plans on 261 patterns (ex2: 62 on 101);
# inadmissible loss could fill it.  Plans past the cap are computed, not kept.
ORACLE_PLAN_CAP = 4096


class DecoderError(ValueError):
    pass


class StructuralFailureError(DecoderError):
    """A structured solve that is not unique or meets an unknown it does not
    solve for; on an admissible pattern it indicates a construction bug."""


@dataclass(frozen=True)
class SymbolReport:
    index: int
    status: str  # "recovered" | "failed"
    value: Optional[FieldElement]
    recovery_time: Optional[int]
    deadline: int

    def to_json_obj(self) -> dict:
        obj = {"index": self.index, "status": self.status,
               "recovery_time": self.recovery_time, "deadline": self.deadline}
        if self.value is not None:
            obj["value"] = self.value.to_text()
        return obj


@dataclass(frozen=True)
class DecodeReport:
    """One block decode, kept as its per-symbol data: source symbol i has
    value vals[i], None unless it was recovered by its deadline, recovery
    time times[i], None if the received symbols never pin it, and deadline
    deadlines[i].  symbols builds the SymbolReports from them on demand."""
    vals: tuple[Optional[FieldElement], ...]
    times: tuple[Optional[int], ...]
    deadlines: tuple[int, ...]

    @property
    def symbols(self) -> tuple[SymbolReport, ...]:
        return tuple(SymbolReport(i, "failed" if v is None else "recovered", v, t, dl)
                     for i, (v, t, dl) in enumerate(zip(self.vals, self.times, self.deadlines)))

    def ok(self) -> bool:
        return all(v is not None for v in self.vals)

    def values(self) -> list:
        return list(self.vals)

    def to_json_obj(self) -> dict:
        return {"symbols": [s.to_json_obj() for s in self.symbols]}


# ---------------------------------------------------------------------------
# Oracle decoder
# ---------------------------------------------------------------------------

def _erased_positions(g: GeneratorSet, y) -> frozenset[int]:
    """The erased positions of one received block of n field elements."""
    if len(y) != g.derived.n:
        raise DecoderError(f"expected {g.derived.n} received symbols, got {len(y)}")
    g.field().check(v for v in y if v is not ERASED)
    return frozenset(t for t, v in enumerate(y) if v is ERASED)


def oracle_plan(g: GeneratorSet, erased: frozenset[int]) -> dict:
    """Recovery plan for an erasure pattern: i -> (time, ((pos, coeff), ...)).

    The code is systematic, so a received source symbol i is its own plan
    at time i.  These identity plans are part of the plan contract: a
    source symbol has a plan iff the pattern recovers it, and acceptance
    criterion 10 counts a symbol with no plan as missed.  A parity column
    adds rank exactly where it meets the erased source rows E.  One
    rref_rows of [A | I], with A = P[E, C] and C the received parity
    columns in arrival order, gives [R | M] with M @ A = R; the pivots of
    R are the earliest parity basis.  Erased symbol i is recoverable iff
    its column of M vanishes below the rank; the part above, mu, is then
    the unique combination of basis columns equal to i's unit vector on E,
    and each received source symbol j takes the coefficient
    -sum_c mu_c P[j, c] that cancels row j: one packed sum over the columns
    of P[received, basis], within the slot capacity stated at gf.DOT_TERMS,
    and one reduction.  Its time is the last parity position it uses.  The
    plan depends only on the pattern, not on the symbol values, and is
    cached on the generator set, up to ORACLE_PLAN_CAP patterns.
    """
    cached = g._plan_cache.get(erased)
    if cached is not None:
        return cached

    k, f, P = g.derived.k, g.field(), g.P.rows
    w, low = f._width, f._low
    lost = sorted(i for i in erased if i < k)
    received = [j for j in range(k) if j not in erased]
    cols = [c for c in range(g.P.ncols) if k + c not in erased]
    rows = [sum(P[i][c].pk << b * w for b, c in enumerate(cols)) | 1 << (len(cols) + u) * w
            for u, i in enumerate(lost)]
    pivots = rref_rows(f, rows, len(cols) + len(lost))
    basis = [cols[c] for c in pivots if c < len(cols)]
    blocks = {c: sum(P[j][c].pk << b * w for b, j in enumerate(received)) for c in basis}
    plan: dict[int, tuple[int, tuple]] = {}
    for i in range(k):
        if i not in erased:
            plan[i] = (i, ((i, f.one),))
            continue
        sh = (len(cols) + lost.index(i)) * w
        col = [row >> sh & low for row in rows]
        if not any(col[len(basis):]):
            mu = [(c, mc) for c, mc in zip(basis, col) if mc]
            sums = f._reduce(sum((f._slot_q - mc) * blocks[c] for c, mc in mu), len(received))
            steps = (tuple((j, FieldElement(f, v)) for b, j in enumerate(received)
                           if (v := sums >> b * w & low))
                     + tuple((k + c, FieldElement(f, mc)) for c, mc in mu))
            plan[i] = (steps[-1][0], steps)

    if len(g._plan_cache) < ORACLE_PLAN_CAP:
        g._plan_cache[erased] = plan
    return plan


def oracle_decode(g: GeneratorSet, y) -> DecodeReport:
    """Earliest-time elimination decode of one received block.

    A received source symbol is copied from y at its own time; an erased
    one takes its plan's time, and its value only if that time meets its
    deadline, so a late symbol reports its time with no value, as failed.
    The plans of the erased symbols on time are evaluated as one plan set.
    """
    d = g.derived
    erased = _erased_positions(g, y)
    plan = oracle_plan(g, erased)
    vals, times = list(y[:d.k]), list(range(d.k))
    for i in erased:
        if i < d.k:
            vals[i], times[i] = None, plan[i][0] if i in plan else None
    met = [i for i in erased if i in plan and plan[i][0] <= d.deadlines[i]]
    for i, v in zip(met, g.field().evaluate_plans([plan[i][1] for i in met], y)):
        vals[i] = v
    return DecodeReport(tuple(vals), tuple(times), d.deadlines)


# ---------------------------------------------------------------------------
# Pattern classification
# ---------------------------------------------------------------------------

def classify_pattern(p: ErasurePattern, d: DerivedParams) -> str:
    """Route a block erasure pattern by its single loss event, as
    channel.event_kind names it: "burst" or "arbitrary"."""
    if p.horizon != d.n:
        raise DecoderError(f"pattern horizon {p.horizon} != block length {d.n}")
    kind = event_kind(p.erased, d.B, d.N)
    if kind is None:
        raise DecoderError(f"pattern {p.erased} is neither one burst of length in "
                           f"({d.N}, {d.B}] nor at most {d.N} erasures")
    return kind


# ---------------------------------------------------------------------------
# Structured decoder
# ---------------------------------------------------------------------------

def _middle_block(d: DerivedParams, i: int) -> int:
    return (i - d.delta) // d.N


def _solve(g: GeneratorSet, y, vals: dict, unknowns: list[int], cols: list[int],
           interference: list[int], stage: str) -> tuple[dict, int]:
    """Solve for the unknown source rows over received parity columns of P.

    Every known source value x_i moves to the right-hand side through P:
    column c's is one raw sum y[k + c] + sum (slot_q - P[i, c]) x_i, within
    the slot capacity stated at gf.DOT_TERMS, and the columns reduce
    together, once.  Any other symbol that meets cols must be in unknowns or
    interference.  One rref_rows of [P[interference + unknowns, cols]^T |
    rhs] solves the rest, eliminating the interference columns first: that
    is the null-out.  Their entries must lie in GF(q); the rows left then
    say x A K = rhs K, with A the unknowns' block and K a right kernel of
    the interference block over GF(q).  The outer rows of P are Gabidulin
    rows, which keep full rank under K, so each unknown takes a pivot; its
    row's last block holds its value.
    Returns the recovered values and the last codeword position used.
    """
    k, f, steps, P = g.derived.k, g.field(), g.encoder_plan, g.P.rows
    order = interference + unknowns
    for c in cols:
        for i, _ in steps[c]:
            if i not in vals and i not in order:
                raise StructuralFailureError(
                    f"unknown symbol {i} outside the {stage} solve meets parity column {c}")
    if any(P[i][c] and not P[i][c].is_base() for i in interference for c in cols):
        raise StructuralFailureError("interference entry outside the base field")
    rhs, w, low, sq = len(order), f._width, f._low, f._slot_q  # rhs: the right-hand side's column
    diff = f._reduce(sum((y[k + c].pk + sum((sq - p.pk) * vals[i].pk
                                            for i, p in steps[c] if i in vals)) << b * w
                         for b, c in enumerate(cols)), len(cols))
    rows = [sum(P[i][c].pk << b * w for b, i in enumerate(order)) | (diff >> a * w & low) << rhs * w
            for a, c in enumerate(cols)]
    pivots = rref_rows(f, rows, rhs + 1)
    if rhs in pivots:
        raise StructuralFailureError(f"{stage} solve degenerate: NoSolution")
    x = {order[c]: FieldElement(f, rows[r] >> rhs * w & low)
         for r, c in enumerate(pivots) if c >= len(interference)}
    if len(x) < len(unknowns):
        raise StructuralFailureError(f"{stage} solve degenerate: Underdetermined")
    return x, k + cols[-1]


def decode_structured(g: GeneratorSet, y) -> DecodeReport:
    """Structured decode of one received block, routed by the kind that
    classify_pattern gives its erasures (DecoderError if they are not one
    loss event).  Stages as in the module docstring."""
    d = g.derived
    k, B, N, delta = d.k, d.B, d.N, d.delta
    erased = _erased_positions(g, y)
    kind = classify_pattern(ErasurePattern.make(d.n, erased), d)
    vals = {i: y[i] for i in range(k) if i not in erased}
    times = {i: i for i in vals}
    u_outer = sorted(i for i in erased if i < delta or B <= i < k)
    u_mid = sorted(i for i in erased if delta <= i < B)
    blocks = sorted({_middle_block(d, i) for i in u_mid})

    def received(lo: int, hi: int) -> list[int]:
        return [c for c in range(lo, hi) if k + c not in erased]

    # (unknowns, parity columns, interference, name), solved in order
    stages = [([i for i in u_mid if _middle_block(d, i) == b],
               received(delta + b * N, delta + (b + 1) * N), [], "sub-block") for b in blocks]
    if u_outer:
        hi = (N if kind == "arbitrary" else delta if min(erased) < delta
              else delta + (blocks[0] + 1) * N if blocks else B)
        stages.insert(0, (u_outer, received(0, hi), u_mid, "outer"))
    for unknowns, cols, interference, stage in stages:
        rec, t = _solve(g, y, vals, unknowns, cols, interference, stage)
        vals.update(rec)
        times.update(dict.fromkeys(rec, t))
    return DecodeReport(tuple(map(vals.get, range(k))), tuple(map(times.get, range(k))),
                        d.deadlines)


def deadline_table(d: DerivedParams) -> dict:
    """Guaranteed recovery times per source index, for each pattern family.

    Outer symbols: T_eff under arbitrary erasures; under bursts the first
    delta symbols are done by k + delta and the last k - B by B + T_eff - N.
    Middle sub-block j symbols: T_eff + delta + j*N in both families.
    """
    middle = [d.T_eff + d.delta + _middle_block(d, i) * d.N for i in range(d.delta, d.B)]
    return {"arbitrary": [d.T_eff] * d.delta + middle + [d.T_eff] * (d.k - d.B),
            "burst": [d.k + d.delta] * d.delta + middle + [d.B + d.T_eff - d.N] * (d.k - d.B)}
