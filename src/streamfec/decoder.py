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
  in one pipeline for both pattern kinds.  The outer symbols (first delta
  and last k - B) fall to the rank-metric subsystem, with the unknown
  middle symbols cancelled by a base-field null-out; each middle sub-block
  is peeled with its Cauchy parity.  Stage 1 solves the outer symbols
  early: through the first N parity columns under arbitrary erasures, or
  through the first delta under a burst entering [0, delta).  Stage 2
  peels the affected sub-blocks in ascending order, each after an outer
  solve up to its own parity columns if outer symbols are still unknown.
  Stage 3 solves what outer symbols remain from the full parity span.  Any
  rank deficiency on an admissible pattern is a bug, reported as
  StructuralFailureError.

Both report per-symbol recovery times against the per-symbol deadline
min(i + T_eff, n - 1).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .gf import FieldElement
from .matrix import Mat, NoSolution, Underdetermined
from .channel import ERASED, ErasurePattern
from .construction import DerivedParams, GeneratorSet, evaluate_plan


class DecoderError(ValueError):
    pass


class StructuralFailureError(DecoderError):
    """Rank deficiency on an admissible pattern; indicates a construction bug."""


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


def _deadline(i: int, T_eff: int, n: int) -> int:
    return min(i + T_eff, n - 1)


def _report(g: GeneratorSet, times: dict, vals: dict) -> DecodeReport:
    """One SymbolReport per source symbol: recovered iff it has a value."""
    d = g.derived
    return DecodeReport(tuple(
        SymbolReport(i, "recovered" if i in vals else "failed", vals.get(i),
                     times.get(i), _deadline(i, d.T_eff, d.n))
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
    and is cached on the generator set.
    """
    key = ("oracle", erased)
    cached = g._plan_cache.get(key)
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

    g._plan_cache[key] = plan
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
            if t <= _deadline(i, d.T_eff, d.n)}
    return _report(g, times, vals)


# ---------------------------------------------------------------------------
# Pattern classification
# ---------------------------------------------------------------------------

def classify_pattern(p: ErasurePattern, d: DerivedParams) -> str:
    """Route a block erasure pattern: "burst" or "arbitrary".

    Burst means one contiguous run of length in (N, B]; contiguous runs of
    length <= N and all other patterns of at most N erasures are arbitrary.
    """
    if p.horizon != d.n:
        raise DecoderError(f"pattern horizon {p.horizon} != block length {d.n}")
    e = p.erased
    if p.is_burst() and d.N < len(e) <= d.B:
        return "burst"
    if len(e) <= d.N:
        return "arbitrary"
    raise DecoderError(f"pattern {e} is not admissible for one block of ({d.B},{d.N})")


# ---------------------------------------------------------------------------
# Structured decoder
# ---------------------------------------------------------------------------

def _middle_block(d: DerivedParams, i: int) -> int:
    return (i - d.delta) // d.N


def _mrd_solve(g: GeneratorSet, y, vals: dict, targets: set[int],
               parity_cols: list[int], interference: list[int]) -> tuple[dict, int]:
    """Solve the rank-metric subsystem for the outer source symbols.

    vals holds every already-known source value; targets are the unknown
    outer indices (subset of [0,delta) + [B,k)); parity_cols are block
    parity column indices (within [0,B)) whose positions were received;
    interference lists unknown middle rows to null out.  Returns recovered
    values for the targets and the largest codeword position used.
    """
    d = g.derived
    k, B, N, delta = d.k, d.B, d.N, d.delta
    ext = g.field()
    base = d.base_field()
    i0_list = list(range(delta)) + list(range(B, k))
    k_mrd = len(i0_list)

    gab_parity = g.mrd.parity()  # rows follow i0_list order, B columns

    sel: list[int] = []          # column indices into mrd.gen_sys
    rhs: list[FieldElement] = []
    tmat_rows_cols: list[list] = [[] for _ in interference]
    used_positions: list[int] = []

    for pos_in_i0, i in enumerate(i0_list):
        if i in vals:
            sel.append(pos_in_i0)
            rhs.append(vals[i])
            for row in tmat_rows_cols:
                row.append(base.zero)
            used_positions.append(i)

    for c in parity_cols:
        v = y[k + c]
        # known middles move to the right-hand side; outer symbols stay in
        # the system (their identity pseudo-columns pin them)
        for i in range(delta, B):
            if i in vals and g.P[i, c]:
                v = v - vals[i] * g.P[i, c]
        if c >= N:
            # Outside the shared band the block parity ignores the first
            # delta rows while the rank-metric parity does not; shift the
            # known top contributions across so the column matches.
            for i in range(delta):
                if i not in vals:
                    raise StructuralFailureError(
                        "top outer symbol unknown while using a late parity column")
                v = v + vals[i] * gab_parity[i, c]
        sel.append(k_mrd + c)
        rhs.append(v)
        for row, mi in zip(tmat_rows_cols, interference):
            pe = g.P[mi, c]
            if pe and not pe.is_base():
                raise StructuralFailureError("interference entry outside the base field")
            row.append(base(pe.coeffs[0]))
        used_positions.append(k + c)

    that = Mat(base, tmat_rows_cols, len(sel))
    m_kernel = that.right_kernel_basis()
    if not (that @ m_kernel).is_zero():
        raise StructuralFailureError("null-out failed: interference not cancelled")
    m_kernel = m_kernel.embed_into(ext)

    am = g.mrd.gen_sys.select_columns(sel) @ m_kernel
    rhs_m = Mat(ext, [rhs], len(sel)) @ m_kernel
    try:
        u = am.solve_left(rhs_m.rows[0])
    except (NoSolution, Underdetermined) as exc:
        raise StructuralFailureError(f"outer solve degenerate: {type(exc).__name__}") from None
    recovered = {i: u[pos] for pos, i in enumerate(i0_list) if i in targets}
    return recovered, max(used_positions)


def _cauchy_solve(g: GeneratorSet, y, vals: dict, block: int,
                  unknowns: list[int]) -> tuple[dict, int]:
    """Solve one middle sub-block through its Cauchy parity columns."""
    d = g.derived
    k, N, delta = d.k, d.N, d.delta
    ext = g.field()
    col_lo = delta + block * N
    avail = [c for c in range(col_lo, col_lo + N) if y[k + c] is not ERASED]
    if len(avail) < len(unknowns):
        raise StructuralFailureError("not enough parity columns for sub-block solve")
    rows = []
    rhs = []
    for c in avail:
        v = y[k + c]
        for i in range(k):
            if i in vals and g.P[i, c]:
                v = v - vals[i] * g.P[i, c]
        rhs.append(v)
    a = Mat(ext, [[g.P[u, c] for c in avail] for u in unknowns], len(avail))
    try:
        x = a.solve_left(rhs)
    except (NoSolution, Underdetermined) as exc:
        raise StructuralFailureError(f"sub-block solve degenerate: {type(exc).__name__}") from None
    return {u: x[pos] for pos, u in enumerate(unknowns)}, k + avail[-1]


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
    u_outer = {i for i in erased if i < delta or B <= i < k}
    u_mid = sorted(i for i in erased if delta <= i < B)
    now = 0

    def record(rec: dict, t: int) -> None:
        nonlocal now
        now = max(now, t)
        vals.update(rec)
        times.update(dict.fromkeys(rec, now))

    def solve_outer(hi: int) -> None:
        parity_cols = [c for c in range(hi) if (k + c) not in erased]
        pending = [i for i in u_mid if i not in vals]
        record(*_mrd_solve(g, y, vals, u_outer, parity_cols, pending))
        u_outer.clear()

    if kind == "arbitrary" and u_outer:
        solve_outer(N)
    elif any(i < delta for i in erased):
        solve_outer(delta)
    for block in sorted({_middle_block(d, i) for i in u_mid}):
        if u_outer:
            solve_outer(delta + (block + 1) * N)
        unknowns = [i for i in u_mid if _middle_block(d, i) == block]
        record(*_cauchy_solve(g, y, vals, block, unknowns))
    if u_outer:
        solve_outer(B)
    return _report(g, times, vals)


def deadline_table(d: DerivedParams) -> dict:
    """Guaranteed recovery times per source index, for each pattern family.

    Outer symbols: T_eff under arbitrary erasures; under bursts the first
    delta symbols are done by k + delta and the last k - B by B + T_eff - N.
    Middle sub-block j symbols: T_eff + delta + j*N in both families.
    """
    arb = []
    burst = []
    for i in range(d.k):
        if i < d.delta:
            arb.append(d.T_eff)
            burst.append(d.k + d.delta)
        elif i < d.B:
            j = _middle_block(d, i)
            t = d.T_eff + d.delta + j * d.N
            arb.append(t)
            burst.append(t)
        else:
            arb.append(d.T_eff)
            burst.append(d.B + d.T_eff - d.N)
    return {"arbitrary": arb, "burst": burst}
