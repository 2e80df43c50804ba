"""Dense exact linear algebra over GF(q) / GF(q^m).

Everything is elimination-based with first-nonzero pivoting; there is no
tolerance anywhere.  One loop eliminates, rref_rows, on rows packed as
Python ints in Field._reduce's block layout, so each row operation is one
big-integer product and one reduction; Mat.rref packs, calls it and
unpacks.  Kernel bases and reduced echelon forms are computed
deterministically (free columns taken in increasing order) so that
decoder outputs are reproducible run to run.

Matrices may have zero rows or zero columns; the column count is tracked
explicitly so degenerate shapes survive slicing and stacking.
"""
from __future__ import annotations

from typing import Sequence

from .gf import GF, Field, FieldElement, FieldMismatchError


class LinalgError(ValueError):
    pass


class NoSolution(LinalgError):
    """solve_left: the system is inconsistent."""


class Underdetermined(LinalgError):
    """solve_left: the matrix has deficient row rank."""


def _same_field(a: "Mat", b: "Mat") -> Field:
    """The operands' common field; mixing fields is explicit, via embed_into."""
    if a.field is not b.field:
        raise FieldMismatchError(f"mixed fields {a.field!r} and {b.field!r}; use embed_into")
    return a.field


class Mat:
    """Immutable-by-convention dense matrix over a fixed field."""

    __slots__ = ("field", "rows", "_ncols")

    def __init__(self, field: Field, rows: Sequence[Sequence[FieldElement]],
                 ncols: int | None = None):
        self.field = field
        self.rows = [list(r) for r in rows]
        if ncols is None:
            if not self.rows:
                raise LinalgError("column count required for matrices with no rows")
            ncols = len(self.rows[0])
        self._ncols = ncols
        for r in self.rows:
            if len(r) != ncols:
                raise LinalgError("ragged rows")

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, field: Field, n: int) -> "Mat":
        z, o = field.zero, field.one
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)], n)

    # -- basics ------------------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return self._ncols

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.field is other.field and self._ncols == other._ncols
                and self.rows == other.rows)

    def __repr__(self):
        return f"Mat({self.field!r}, {self.nrows}x{self.ncols})"

    def transpose(self) -> "Mat":
        return Mat(self.field,
                   [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
                   self.nrows)

    def embed_into(self, field: Field) -> "Mat":
        if field is self.field:
            return self
        return Mat(field, [[field.embed(v) for v in r] for r in self.rows], self._ncols)

    # -- arithmetic --------------------------------------------------------

    def __matmul__(self, other: "Mat") -> "Mat":
        """The product, its operands' entries checked first.  Each entry is
        a sum of FieldElement products, independent of Field.evaluate_plans."""
        f = _same_field(self, other)
        if self.ncols != other.nrows:
            raise LinalgError(f"shape mismatch in mul: {self.ncols} vs {other.nrows}")
        f.check(v for r in self.rows + other.rows for v in r)
        cols = other.transpose().rows
        return Mat(f, [[sum((a * b for a, b in zip(row, col)), f.zero) for col in cols]
                       for row in self.rows], other.ncols)

    # -- selection ---------------------------------------------------------

    def select_columns(self, idx: Sequence[int]) -> "Mat":
        _check_indices(idx, self.ncols)
        return Mat(self.field, [[r[j] for j in idx] for r in self.rows], len(idx))

    def hstack(self, other: "Mat") -> "Mat":
        f = _same_field(self, other)
        if self.nrows != other.nrows:
            raise LinalgError("row count mismatch in hstack")
        return Mat(f, [ra + rb for ra, rb in zip(self.rows, other.rows)], self.ncols + other.ncols)

    # -- elimination -------------------------------------------------------

    def rref(self) -> tuple["Mat", list[int]]:
        """Reduced row echelon form and its pivot column list: the rows
        packed, reduced by rref_rows and unpacked."""
        f, nc, w = self.field, self._ncols, self.field._width
        rows = [sum(v.pk << j * w for j, v in enumerate(r)) for r in self.rows]
        pivots = rref_rows(f, rows, nc)
        return Mat(f, [[FieldElement(f, row >> j * w & f._low) for j in range(nc)]
                       for row in rows], nc), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def right_kernel_basis(self) -> "Mat":
        """M with self @ M == 0, full column rank, ncols - rank columns.

        Deterministic: reduced echelon, free columns in increasing order,
        each kernel column carries a unit in its free position.
        """
        R, pivots = self.rref()
        nc = self.ncols
        free = [c for c in range(nc) if c not in pivots]
        f = self.field
        cols = []
        for fc in free:
            v = [f.zero] * nc
            v[fc] = f.one
            for r, pc in enumerate(pivots):
                v[pc] = -R.rows[r][fc]
            cols.append(v)
        return Mat(f, cols, nc).transpose()

    def solve_left(self, y: Sequence[FieldElement]) -> list[FieldElement]:
        """The unique row vector x with x @ self == y, as a list of nrows elements.

        Raises NoSolution when the system is inconsistent and Underdetermined
        when self has deficient row rank; both are LinalgErrors.
        """
        f = self.field
        y = [f(v) for v in y]
        if len(y) != self.ncols:
            raise LinalgError(f"rhs length {len(y)} != ncols {self.ncols}")
        # x * A = y  <=>  A^T x^T = y^T; eliminate on [A^T | y^T]
        R, pivots = self.transpose().hstack(Mat(f, [y], self.ncols).transpose()).rref()
        n = self.nrows
        if n in pivots:
            raise NoSolution("inconsistent system")
        if len(pivots) < n:
            raise Underdetermined(f"row rank {len(pivots)} < {n}")
        x = [f.zero] * n
        for r, pc in enumerate(pivots):
            x[pc] = R.rows[r][n]
        return x

    def systematize(self) -> "Mat":
        """Row-equivalent [I | P]; error if the leading k x k block is singular."""
        R, pivots = self.rref()
        k = self.nrows
        if pivots != list(range(k)):
            raise LinalgError("leading block singular; re-select columns before systematizing")
        return R

    # -- serialization -----------------------------------------------------

    def to_json_obj(self) -> dict:
        f = self.field
        return {
            "rows": self.nrows,
            "cols": self.ncols,
            "q": f.q,
            "m": f.m,
            "modulus": list(f.modulus),
            "entries": [[list(v.coeffs) for v in r] for r in self.rows],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Mat":
        missing = [key for key in ("rows", "cols", "q", "m", "modulus", "entries") if key not in obj]
        if missing:
            raise LinalgError(f"JSON matrix lacks {', '.join(missing)}")
        if any(type(obj[key]) is not int or obj[key] < 0 for key in ("rows", "cols")):
            raise LinalgError("JSON matrix rows and cols must be non-negative integers")
        seq, entries = (list, tuple), obj["entries"]
        if not isinstance(obj["modulus"], seq) or not isinstance(entries, seq) or any(
                not isinstance(r, seq) or any(not isinstance(c, seq) for c in r) for r in entries):
            raise LinalgError("JSON matrix modulus and entries must be coefficient lists")
        f = GF(obj["q"], obj["m"], tuple(obj["modulus"]))
        m = cls(f, [[f(tuple(c)) for c in r] for r in entries], obj["cols"])
        if (m.nrows, m.ncols) != (obj["rows"], obj["cols"]):
            raise LinalgError("JSON shape mismatch")
        return m


def rref_rows(field: Field, rows: list[int], ncols: int) -> list[int]:
    """Reduce packed rows to reduced row echelon form in place; returns the
    pivot columns.  Entry j of a row is its element's pk at bit
    j * field._width, one Field._reduce block per entry.  The pivot row is
    scaled by the pivot's inverse; every other row with entry e != 0 in the
    pivot column gains (slot_q - e) times it, -e with every slot in [1, q].
    Each is one raw product and one _reduce(v, ncols), within the slot
    capacity stated at gf.DOT_TERMS.  The scan stops once every row holds a
    pivot.
    """
    w, low, slot_q, reduce = field._width, field._low, field._slot_q, field._reduce
    pivots: list[int] = []
    for c in range(ncols):
        r, sh = len(pivots), c * w  # rows r.. are zero left of column c
        if r == len(rows):
            break  # every row holds a pivot, so no later column takes one
        for pr in range(r, len(rows)):
            if rows[pr] >> sh & low:
                break
        else:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = FieldElement(field, rows[r] >> sh & low).inverse().pk
        prow = rows[r] = reduce(rows[r] * inv, ncols)
        for i, row in enumerate(rows):
            e = row >> sh & low
            if e and i != r:
                rows[i] = reduce(row + (slot_q - e) * prow, ncols)
        pivots.append(c)
    return pivots


def _check_indices(idx: Sequence[int], bound: int) -> None:
    prev = -1
    for i in idx:
        if not (0 <= i < bound):
            raise LinalgError(f"index {i} out of range [0, {bound})")
        if i <= prev:
            raise LinalgError("indices must be strictly increasing")
        prev = i


def cauchy_parity(k: int, r: int, field: Field) -> Mat:
    """k x r Cauchy matrix with nodes x_i = i, y_j = k + j.

    Every square submatrix is nonsingular.  Needs k + r distinct nodes,
    hence q >= k + r, and a prime field.
    """
    if field.m != 1:
        raise LinalgError("Cauchy parity is constructed over the prime field")
    if k + r > field.q:
        raise LinalgError(f"field too small for Cauchy nodes: need q >= {k + r}, have {field.q}")
    return Mat(field, [[(field(i) - field(k + j)).inverse() for j in range(r)]
                       for i in range(k)], r)
