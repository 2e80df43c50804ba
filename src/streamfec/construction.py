"""Parameter derivation and generator assembly for the streaming block code.

Given channel parameters (W, T, B, N) the code is a systematic (n, k) block
code over GF(q^m) with k = T_eff - N + 1 and n = k + B.  Its parity matrix
interleaves M copies of an N x N Cauchy parity along a diagonal band,
offset by a thin delta-row band and underpinned by a dense band taken from
a systematic Gabidulin code, so that burst erasures fall on the Cauchy
blocks and arbitrary erasures are absorbed by the rank-metric structure.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cached_property

from .gf import GF, Field, next_prime
from .matrix import Mat
from .codes import MdsCode, MrdCode, build_mds, build_gabidulin


# Most plans one generator set caches: oracle plans and stream packet plans
# together.  ex1's 443 admissible diagonal patterns fit, and 200 sampled
# 5,000-packet streams need 190 packet plans on 261 patterns (ex2: 62 on 101);
# inadmissible loss could fill it.  Plans past the cap are computed, not kept.
ORACLE_PLAN_CAP = 4096


class ParamError(ValueError):
    """Invalid or unsupported channel parameters."""


@dataclass(frozen=True)
class StreamParams:
    W: int
    T: int
    B: int
    N: int


@dataclass(frozen=True)
class DerivedParams:
    W: int
    T: int
    B: int
    N: int
    T_eff: int
    k: int
    n: int
    M: int
    delta: int
    q: int
    m: int

    @cached_property
    def deadlines(self) -> tuple[int, ...]:
        """Per source symbol i, its deadline min(i + T_eff, n - 1)."""
        return tuple(min(i + self.T_eff, self.n - 1) for i in range(self.k))

    def to_json_obj(self) -> dict:
        return {
            "k": self.k, "n": self.n, "M": self.M, "delta": self.delta,
            "q": self.q, "m": self.m, "T_eff": self.T_eff,
        }


def capacity(T: int, B: int, N: int) -> Fraction:
    """Highest achievable rate for delay T on the (B, N) sliding-window channel."""
    if any(type(v) is not int for v in (T, B, N)):  # 9.0 and True compare as 9 and 1
        raise ParamError(f"T, B, N must be ints, got T={T!r}, B={B!r}, N={N!r}")
    if not T >= B >= N >= 1:
        raise ParamError(f"need T >= B >= N >= 1, got T={T}, B={B}, N={N}")
    return Fraction(T - N + 1, T - N + B + 1)


def validate_and_derive(p: StreamParams) -> DerivedParams:
    """Check the parameter regime and derive all scalar code parameters.

    The window may be shorter than the delay allows; the effective delay is
    then W - 1.  Only the rate >= 1/2 regime (k >= B) is constructible here.
    """
    if any(type(v) is not int for v in (p.W, p.T, p.B, p.N)):  # as in capacity
        raise ParamError(f"W, T, B, N must be ints, got {p}")
    if p.W < 2:
        raise ParamError(f"window must be >= 2, got W={p.W}")
    if not (p.B >= p.N >= 1):
        raise ParamError(f"need B >= N >= 1, got B={p.B}, N={p.N}")
    if p.T < 1:
        raise ParamError(f"delay must be >= 1, got T={p.T}")
    if p.W <= p.B:
        raise ParamError(
            f"zero-capacity channel: window W={p.W} <= burst length B={p.B}")
    t_eff = min(p.T, p.W - 1)
    if t_eff < p.B:
        raise ParamError(
            f"unsupported: effective delay {t_eff} < burst length B={p.B}")
    k = t_eff - p.N + 1
    n = k + p.B
    if k < p.B:
        raise ParamError(
            f"out of regime: k={k} < B={p.B} gives rate below 1/2, not constructible here")
    M, delta = divmod(p.B, p.N)
    q = next_prime(2 * p.N)
    m = k + delta
    return DerivedParams(W=p.W, T=p.T, B=p.B, N=p.N, T_eff=t_eff,
                         k=k, n=n, M=M, delta=delta, q=q, m=m)


@dataclass(frozen=True)
class GeneratorSet:
    """A code is its parity matrix P, k x B over derived's GF(q^m): G and
    the encoder plan are views of it.  Each instance (``replace`` too) checks
    derived against its (W, T, B, N) and P, and starts with no cached plans;
    ``_keep`` caches them under the cap.  The constituents P was assembled
    from are not held; ``constituents`` rebuilds them."""

    derived: DerivedParams
    P: Mat
    _plan_cache: dict = dc_field(init=False, default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        d = self.derived
        if d != validate_and_derive(StreamParams(d.W, d.T, d.B, d.N)):
            raise ParamError(f"derived does not follow from (W, T, B, N) = {d.W, d.T, d.B, d.N}")
        if (self.P.nrows, self.P.ncols) != (d.k, d.B):
            raise ParamError(f"P must be {d.k} x {d.B}, got {self.P!r}")
        if (self.P.field.q, self.P.field.m) != (d.q, d.m):
            raise ParamError(f"P must be over GF(q^m) for q, m = {d.q}, {d.m}, got {self.P!r}")
        self.P.field.check(v for r in self.P.rows for v in r)

    def field(self) -> Field:
        return self.P.field

    @cached_property
    def G(self) -> Mat:
        """The systematic generator [I_k | P]."""
        return Mat.identity(self.P.field, self.P.nrows).hstack(self.P)

    @cached_property
    def encoder_plan(self) -> tuple:
        """Per parity column c, the steps (i, P[i, c]) with P[i, c] nonzero."""
        return tuple(tuple((i, row[c]) for i, row in enumerate(self.P.rows) if row[c])
                     for c in range(self.P.ncols))

    def _keep(self, key, plan):
        """Store plan under key while fewer than ORACLE_PLAN_CAP are kept; return it."""
        if len(self._plan_cache) < ORACLE_PLAN_CAP:
            self._plan_cache[key] = plan
        return plan

    def to_json_obj(self) -> dict:
        d = self.derived
        mds, mrd = constituents(d)
        return {
            "params": {"W": d.W, "T": d.T, "B": d.B, "N": d.N},
            "derived": {**d.to_json_obj(), "modulus": list(self.field().modulus)},
            "G": self.G.to_json_obj(),
            "constituents": {"mds": mds.to_json_obj(), "mrd": mrd.to_json_obj()},
        }


def constituents(d: DerivedParams) -> tuple[MdsCode, MrdCode]:
    """The (2N, N) Cauchy MDS code over GF(q) and the (k + delta, k - B +
    delta) Gabidulin code over GF(q^m) that build_code assembles P from.

    Built afresh on every call: a cached pair would outlive a cleared field
    cache and hold elements of a field that is no longer interned.
    """
    return (build_mds(d.N, GF(d.q)),
            build_gabidulin(d.k + d.delta, d.k - d.B + d.delta, GF(d.q, d.m)))


def build_code(d: DerivedParams) -> GeneratorSet:
    """Assemble P from the Cauchy and Gabidulin constituents; the code is
    ``GeneratorSet(d, P)`` and G = [I_k | P] is derived from it.

    Parity layout (k rows, B columns):
      rows [0, delta)          : the top delta rows of the Gabidulin parity
                                 in columns [0, N), zero elsewhere
      rows [delta + jN, ... )  : the N x N Cauchy parity in columns
                                 [delta + jN, delta + (j+1)N), j = 0..M-1
      rows [B, k)              : the bottom k - B rows of the Gabidulin
                                 parity, dense
    All empty bands (delta = 0 or k = B) are genuine empty ranges; assembly
    never branches on emptiness.
    """
    k, B, N, M, delta = d.k, d.B, d.N, d.M, d.delta
    ext = GF(d.q, d.m)
    mds, mrd = constituents(d)
    gab_parity = mrd.parity()  # (k - B + delta) x B
    cauchy = mds.gen.select_columns(list(range(N, 2 * N))).embed_into(ext)

    zero = ext.zero
    rows = [[zero] * B for _ in range(k)]
    for i in range(delta):
        rows[i][:N] = gab_parity.rows[i][:N]
    for blk in range(M):
        off = delta + blk * N
        for i in range(N):
            rows[off + i][off:off + N] = cauchy.rows[i]
    for i in range(k - B):
        rows[B + i] = list(gab_parity.rows[delta + i])

    return GeneratorSet(derived=d, P=Mat(ext, rows))


def encode_block(s, g: GeneratorSet):
    """Encode k source symbols, admitted by one Field.check, into the n-symbol
    systematic codeword: the caller's elements, then the parities as one plan set."""
    d = g.derived
    if len(s) != d.k:
        raise ParamError(f"expected {d.k} source symbols, got {len(s)}")
    ext = g.field()
    ext.check(s)
    return [*s, *ext.evaluate_plans(g.encoder_plan, s)]
