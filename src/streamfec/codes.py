"""Constituent block codes: systematic Cauchy MDS and systematic Gabidulin MRD.

The MDS side lives over a prime field and guards against any combination of
n - k erasures in one block.  The Gabidulin side lives over an extension
field GF(q^m) with m >= n; its defining property is stronger than MDS: the
product of its generator with any full-column-rank matrix over the base
field keeps full rank, which is exactly what interference cancellation in
the decoder relies on.

Gabidulin's theorem (1985) makes that property exact.  Take n points of
GF(q^m) that are linearly independent over GF(q), so n <= m.  The k x n
Moore matrix whose row i holds the q^i-th powers of the points generates an
MRD code, and so does every generator with the same row space.
certify_gabidulin checks exactly these conditions.  Puncturing columns keeps
the remaining points independent, so a punctured Gabidulin code is one too.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .channel import BudgetError
from .gf import GF, Field, frobenius, alpha_power_basis
from .matrix import Mat, cauchy_parity


class CodeError(ValueError):
    pass


_VERIFY_MDS_MAX_N = 16


@dataclass(frozen=True)
class MdsCode:
    n: int
    k: int
    gen: Mat

    def to_json_obj(self) -> dict:
        return {"type": "mds", "n": self.n, "k": self.k, "gen": self.gen.to_json_obj()}


@dataclass(frozen=True)
class MrdCode:
    n: int
    k: int
    gen_moore: Mat
    gen_sys: Mat

    def parity(self) -> Mat:
        """The P of gen_sys = [I_k | P], shape k x (n - k)."""
        return self.gen_sys.select_columns(list(range(self.k, self.n)))

    def to_json_obj(self) -> dict:
        return {
            "type": "mrd",
            "n": self.n,
            "k": self.k,
            "gen_moore": self.gen_moore.to_json_obj(),
            "gen_sys": self.gen_sys.to_json_obj(),
        }


def build_mds(N: int, field: Field) -> MdsCode:
    """Systematic (2N, N) code with Cauchy parity over a prime field."""
    if N < 1:
        raise CodeError("block size must be >= 1")
    if field.m != 1:
        raise CodeError("MDS constituent is built over a prime field")
    if field.q < 2 * N:
        raise CodeError(f"field too small: need q >= {2 * N}, have {field.q}")
    gen = Mat.identity(field, N).hstack(cauchy_parity(N, N, field))
    return MdsCode(n=2 * N, k=N, gen=gen)


def verify_mds(code: MdsCode | MrdCode) -> bool:
    """Exhaustively check that every k-column subset of the generator has rank k.

    Refuses (rather than samples) when n exceeds the enumeration budget.
    """
    gen = code.gen if isinstance(code, MdsCode) else code.gen_sys
    n, k = code.n, code.k
    if n > _VERIFY_MDS_MAX_N:
        raise BudgetError(f"exhaustive MDS check limited to n <= {_VERIFY_MDS_MAX_N}, got n = {n}")
    for cols in combinations(range(n), k):
        if gen.select_columns(list(cols)).rank() != k:
            return False
    return True


def build_gabidulin(n: int, k: int, field: Field) -> MrdCode:
    """Systematic (n, k) Gabidulin code over GF(q^m), m >= n.

    Row i of the Moore generator holds the q^i-th power images of the
    evaluation points 1, alpha, ..., alpha^(n-1); the systematic form is
    obtained by row reduction, which preserves the rank-metric optimality
    of every column sub-selection with more than k columns.
    """
    if not (0 <= k <= n):
        raise CodeError(f"need 0 <= k <= n, got k={k}, n={n}")
    if field.m < n:
        raise CodeError(f"extension degree too small: need m >= {n}, have m = {field.m}")
    g = alpha_power_basis(field, n)
    moore = Mat(field, [[frobenius(gj, i) for gj in g] for i in range(k)], n)
    return MrdCode(n=n, k=k, gen_moore=moore, gen_sys=moore.systematize())


def certify_gabidulin(code: MrdCode) -> bool:
    """Whether code meets Gabidulin's theorem, checked exactly: row i of
    gen_moore is the q^i-Frobenius image of row 0, the n points in row 0
    are linearly independent over GF(q), and gen_sys has rank k and spans
    the rows of gen_moore.  False when n > m: no n points are independent."""
    n, k, moore, sys_ = code.n, code.k, code.gen_moore, code.gen_sys
    f = moore.field
    shapes = (moore.nrows, moore.ncols, sys_.nrows, sys_.ncols)
    if n > f.m or shapes != (k, n, k, n):
        return False
    if k:
        base = GF(f.q)
        points = Mat(base, [[base(c) for c in p.coeffs] for p in moore.rows[0]], f.m)
        if points.rank() != n or any(moore.rows[i] != [p ** f.q for p in moore.rows[i - 1]]
                                     for i in range(1, k)):
            return False
    return Mat(f, moore.rows + sys_.rows, n).rank() == k == sys_.rank()
