"""Constituent block codes: systematic Cauchy MDS and systematic Gabidulin MRD.

The MDS side lives over a prime field and guards against any combination of
n - k erasures in one block.  The Gabidulin side lives over an extension
field GF(q^m) with m >= n; its defining property is stronger than MDS: the
product of its generator with any full-column-rank matrix over the base
field keeps full rank, which is exactly what interference cancellation in
the decoder relies on.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

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
    gen_sys = moore.systematize() if k else moore
    return MrdCode(n=n, k=k, gen_moore=moore, gen_sys=gen_sys)


def _random_full_rank(field: Field, nrows: int, ncols: int, rng: random.Random) -> Mat:
    """Random base-field nrows x ncols matrix of full column rank, by rejection."""
    base = GF(field.q)
    while True:
        cand = Mat(base, [[base(rng.randrange(base.q)) for _ in range(ncols)]
                          for _ in range(nrows)])
        if cand.rank() == ncols:
            return cand


def verify_mrd(code: MrdCode, trials: int = 100, seed: int = 0) -> bool:
    """Randomized rank-metric check on the systematic generator.

    For each trial, draw a full-column-rank n x k matrix T over the base
    field and require gen_sys @ T to have rank k.  Any failure certifies
    that the code is not MRD; success over many trials is strong evidence.
    """
    rng = random.Random(seed)
    if code.k == 0:
        return True
    ext = code.gen_sys.field
    for _ in range(trials):
        t = _random_full_rank(ext, code.n, code.k, rng).embed_into(ext)
        if (code.gen_sys @ t).rank() != code.k:
            return False
    return True


def subcode_columns(code: MrdCode, idx: Sequence[int]) -> MrdCode:
    """Column-punctured code on n' > k strictly increasing column indices.

    Column sub-sampling of a systematic Gabidulin generator preserves the
    MRD property as long as more than k columns survive.
    """
    idx = list(idx)
    if len(idx) <= code.k:
        raise CodeError(f"need more than k = {code.k} columns, got {len(idx)}")
    return MrdCode(
        n=len(idx),
        k=code.k,
        gen_moore=code.gen_moore.select_columns(idx),
        gen_sys=code.gen_sys.select_columns(idx),
    )
