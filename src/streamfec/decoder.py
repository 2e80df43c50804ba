"""Deadline-constrained erasure decoding for one code block.

Two decoders over the same generator set:

* ``oracle_decode`` is the ground truth.  ``oracle_plan`` reduces the
  received columns of G, in arrival order, beside an identity block with
  one ``Mat.rref``; the result is, for every source symbol, the earliest
  time at which the received symbols pin it uniquely and the linear
  combination of received positions that yields it.  This recovery plan
  is cached per erasure pattern, so repeated decodes of the same pattern
  cost one linear combination per symbol.

* ``decode_structured`` mirrors the algebra the code was designed around,
  in one pipeline for both pattern kinds.  Each stage is one solve over
  received parity columns of P, with the known symbols moved to the
  right-hand side.  The outer rows of P (first delta and last k - B) are
  Gabidulin rows, so outer solves are rank-metric solves once the unknown
  middle symbols are nulled out over the base field; each middle sub-block
  is peeled through its Cauchy columns.  Stage 1 solves the outer symbols
  early: through the first N parity columns under arbitrary erasures, or
  through the first delta under a burst entering [0, delta).  Stage 2
  peels the affected sub-blocks in ascending order, each after an outer
  solve up to its own parity columns if outer symbols are still unknown.
  Stage 3 solves what outer symbols remain from the full parity span.  A
  solve that is not unique, or that meets an unknown symbol it does not
  solve for, raises StructuralFailureError, so every returned value is
  pinned by P; on an admissible pattern the error is a bug.

Both report per-symbol recovery times against the per-symbol deadline
min(i + T_eff, n - 1).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .gf import FieldElement
from .matrix import Mat, NoSolution, Underdetermined
from .channel import ERASED, ErasurePattern, event_kind
from .construction import DerivedParams, GeneratorSet, evaluate_plan


# Most oracle plans one generator set caches.  Every admissible diagonal
# pattern of ex1 (443) fits; inadmissible loss could otherwise fill the
# cache with up to 2^n patterns.  Plans past the cap are computed, not kept.
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
    symbols: tuple[SymbolReport, ...]

    def ok(self) -> bool:
        return all(s.status == "recovered" for s in self.symbols)

    def values(self) -> list:
        return [s.value for s in self.symbols]

    def to_json_obj(self) -> dict:
        return {"symbols": [s.to_json_obj() for s in self.symbols]}


def _report(g: GeneratorSet, times: dict, vals: dict) -> DecodeReport:
    """One SymbolReport per source symbol: recovered iff it has a value."""
    d = g.derived
    return DecodeReport(tuple(
        SymbolReport(i, "recovered" if i in vals else "failed", vals.get(i),
                     times.get(i), d.deadlines[i])
        for i in range(d.k)))


# ---------------------------------------------------------------------------
# Oracle decoder
# ---------------------------------------------------------------------------

def _erased_positions(y) -> frozenset[int]:
    return frozenset(t for t, v in enumerate(y) if v is ERASED)


def oracle_plan(g: GeneratorSet, erased: frozenset[int]) -> dict:
    """Recovery plan for an erasure pattern: i -> (time, ((pos, coeff), ...)).

    One reduction of [G_R | I_k], with G_R the received columns of G in
    arrival order, gives [R | E] with E @ G_R = R.  The pivot columns of R
    are the earliest basis of the received columns.  Symbol i is
    recoverable iff column i of E vanishes below the rank; then
    e_i = sum_l E[l, i] * (l-th basis column), a combination that is unique
    over the basis, and its time is the arrival of the last basis column it
    uses.  The plan depends only on the pattern, not on the symbol values,
    and is cached on the generator set, up to ORACLE_PLAN_CAP patterns.
    """
    cached = g._plan_cache.get(erased)
    if cached is not None:
        return cached

    k = g.derived.k
    received = [t for t in range(g.derived.n) if t not in erased]
    aug = g.G.select_columns(received).hstack(Mat.identity(g.field(), k))
    R, pivots = aug.rref()
    basis = [received[c] for c in pivots if c < len(received)]
    plan: dict[int, tuple[int, tuple]] = {}
    for i in range(k):
        col = [row[len(received) + i] for row in R.rows]
        if not any(col[len(basis):]):
            steps = tuple((pos, c) for pos, c in zip(basis, col) if c)
            plan[i] = (steps[-1][0], steps)

    if len(g._plan_cache) < ORACLE_PLAN_CAP:
        g._plan_cache[erased] = plan
    return plan


def oracle_decode(g: GeneratorSet, y) -> DecodeReport:
    """Earliest-time elimination decode of one received block.

    Late symbols report their recovery time but no value, as failed.
    """
    d = g.derived
    if len(y) != d.n:
        raise DecoderError(f"expected {d.n} received symbols, got {len(y)}")
    plan = oracle_plan(g, _erased_positions(y))
    zero = g.field().zero
    times = {i: t for i, (t, _) in plan.items()}
    vals = {i: evaluate_plan(steps, y, zero) for i, (t, steps) in plan.items()
            if t <= d.deadlines[i]}
    return _report(g, times, vals)


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

    Every known source value moves to the right-hand side through P; any
    other symbol that meets cols must be in unknowns or interference.  The
    rows in interference are nulled out over the base field: their entries
    in cols must lie in GF(q), so the right kernel of that block is a map
    over GF(q), and the outer rows of P are Gabidulin rows, which keep full
    rank under it.  Returns the recovered values and the last codeword
    position used.
    """
    d = g.derived
    if cols and cols[-1] >= d.N and unknowns[0] < d.delta:
        raise StructuralFailureError("top outer symbol unknown while using a late parity column")
    steps = g.encoder_plan
    in_system = set(unknowns) | set(interference)
    rhs = []
    for c in cols:
        v = y[d.k + c]
        for i, p in steps[c]:
            if i in vals:
                v = v - vals[i] * p
            elif i not in in_system:
                raise StructuralFailureError(
                    f"unknown symbol {i} outside the {stage} solve meets parity column {c}")
        rhs.append(v)
    a = g.P.select_rows(unknowns).select_columns(cols)
    if interference:
        entries = g.P.select_rows(interference).select_columns(cols)
        if any(e and not e.is_base() for row in entries.rows for e in row):
            raise StructuralFailureError("interference entry outside the base field")
        kernel = entries.right_kernel_basis()
        if not (entries @ kernel).is_zero():
            raise StructuralFailureError("null-out failed: interference not cancelled")
        a = a @ kernel
        rhs = (Mat(g.field(), [rhs], len(cols)) @ kernel).rows[0]
    try:
        x = a.solve_left(rhs)
    except (NoSolution, Underdetermined) as exc:
        raise StructuralFailureError(f"{stage} solve degenerate: {type(exc).__name__}") from None
    return dict(zip(unknowns, x)), d.k + cols[-1]


def decode_structured(g: GeneratorSet, y, kind: Optional[str] = None) -> DecodeReport:
    """Structured decode of one received block; kind defaults to
    classify_pattern of its erasures.  Stages as in the module docstring."""
    d = g.derived
    if len(y) != d.n:
        raise DecoderError(f"expected {d.n} received symbols, got {len(y)}")
    k, B, N, delta = d.k, d.B, d.N, d.delta
    erased = _erased_positions(y)
    if kind is None:
        kind = classify_pattern(ErasurePattern(d.n, tuple(sorted(erased))), d)
    vals = {i: y[i] for i in range(k) if i not in erased}
    times = {i: i for i in vals}
    u_outer = sorted(i for i in erased if i < delta or B <= i < k)
    u_mid = sorted(i for i in erased if delta <= i < B)
    now = 0

    def record(rec: dict, t: int) -> None:
        nonlocal now
        now = max(now, t)
        vals.update(rec)
        times.update(dict.fromkeys(rec, now))

    def received(lo: int, hi: int) -> list[int]:
        return [c for c in range(lo, hi) if k + c not in erased]

    def solve_outer(hi: int) -> None:
        pending = [i for i in u_mid if i not in vals]
        record(*_solve(g, y, vals, u_outer, received(0, hi), pending, "outer"))
        u_outer.clear()

    if kind == "arbitrary" and u_outer:
        solve_outer(N)
    elif any(i < delta for i in erased):
        solve_outer(delta)
    for block in sorted({_middle_block(d, i) for i in u_mid}):
        if u_outer:
            solve_outer(delta + (block + 1) * N)
        unknowns = [i for i in u_mid if _middle_block(d, i) == block]
        cols = received(delta + block * N, delta + (block + 1) * N)
        if len(cols) < len(unknowns):
            raise StructuralFailureError("not enough parity columns for sub-block solve")
        record(*_solve(g, y, vals, unknowns, cols, [], "sub-block"))
    if u_outer:
        solve_outer(B)
    return _report(g, times, vals)


def deadline_table(d: DerivedParams) -> dict:
    """Guaranteed recovery times per source index, for each pattern family.

    Outer symbols: T_eff under arbitrary erasures; under bursts the first
    delta symbols are done by k + delta and the last k - B by B + T_eff - N.
    Middle sub-block j symbols: T_eff + delta + j*N in both families.
    """
    middle = [d.T_eff + d.delta + _middle_block(d, i) * d.N for i in range(d.delta, d.B)]
    return {"arbitrary": [d.T_eff] * d.delta + middle + [d.T_eff] * (d.k - d.B),
            "burst": [d.k + d.delta] * d.delta + middle + [d.B + d.T_eff - d.N] * (d.k - d.B)}
