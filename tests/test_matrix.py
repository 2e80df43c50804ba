import random

import pytest

from streamfec import gf
from streamfec.gf import GF, M_LIMIT, FieldError, FieldMismatchError
from streamfec.matrix import (LinalgError, Mat, NoSolution, Underdetermined,
                              cauchy_parity)

from conftest import mat, mat_from_json, mat_to_json, select_rows, zeros


@pytest.fixture
def f7():
    return GF(7)


def rand_mat(field, r, c, rng):
    return Mat(field, [[field.random_element(rng) for _ in range(c)] for _ in range(r)], c)


class TestMul:
    def test_identity_left(self, f7):
        g = mat(f7, [[1, 2, 3], [4, 5, 6]])
        assert Mat.identity(f7, 2) @ g == g

    def test_zero_row_vector(self, f7):
        g = mat(f7, [[1, 2], [3, 4]])
        z = zeros(f7, 1, 2)
        assert z @ g == zeros(f7, 1, 2)

    def test_mixed_fields_need_explicit_embedding(self):
        ext = GF(2, 2)
        a = mat(GF(2), [[1, 0], [1, 1]])
        b = Mat(ext, [[ext.alpha], [ext.one]], 1)
        for op in (lambda u, v: u @ v, lambda u, v: u.hstack(v)):
            with pytest.raises(FieldMismatchError):
                op(a, b)
            with pytest.raises(FieldMismatchError):
                op(b, a)
        out = a.embed_into(ext) @ b
        assert out.field is ext
        assert out[0, 0] == ext.alpha
        assert out[1, 0] == ext.alpha + ext.one

    def test_shape_mismatch(self, f7):
        with pytest.raises(LinalgError):
            Mat.identity(f7, 2) @ Mat.identity(f7, 3)

    def test_each_entry_reduces_once(self, reduce_calls):
        """Each entry is reduced once, in its row's one reduction: a row is
        one plan set."""
        f = GF(7, 9)
        rng = random.Random(8)
        a, b = rand_mat(f, 3, 6, rng), rand_mat(f, 6, 4, rng)
        want = [[sum((a[i, l] * b[l, j] for l in range(6)), f.zero) for j in range(4)]
                for i in range(3)]
        reduce_calls.clear()
        assert (a @ b).rows == want
        assert len(reduce_calls) == 3

    def test_foreign_entries_rejected(self):
        """Every entry of both operands is checked, zero or not, whichever
        row or column it sits in."""
        f, rng = GF(7, 9), random.Random(3)
        for bad, err in ((3, TypeError), (GF(5, 9).one, FieldMismatchError),
                         (GF(5, 9).zero, FieldMismatchError)):
            for i, j in ((0, 0), (1, 2), (2, 1)):
                a, b = rand_mat(f, 3, 3, rng), Mat.identity(f, 3)
                for left, right in ((a, b), (b, a)):
                    rows = [list(r) for r in left.rows]
                    rows[i][j] = bad
                    with pytest.raises(err):
                        Mat(f, rows) @ right
                    with pytest.raises(err):
                        right @ Mat(f, rows)


class TestRank:
    def test_identity(self, f7):
        assert Mat.identity(f7, 4).rank() == 4

    def test_zero(self, f7):
        assert zeros(f7, 3, 5).rank() == 0

    def test_cauchy_full_rank(self, f7):
        assert cauchy_parity(3, 3, f7).rank() == 3

    def test_rank_equals_transpose_rank(self, f7):
        rng = random.Random(3)
        for _ in range(25):
            a = rand_mat(f7, rng.randint(1, 5), rng.randint(1, 5), rng)
            assert a.rank() == a.transpose().rank()


def _dense_rref(self):
    """Elimination one FieldElement at a time over full rows, kept as the
    reference that shares no code with rref_rows."""
    rows = [list(r) for r in self.rows]
    nr, nc = len(rows), self.ncols
    pivots = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        pr = next((i for i in range(r, nr) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [v * inv for v in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return Mat(self.field, rows, nc), pivots


def _sparse_mat(field, r, c, density, rng):
    return Mat(field, [[field.random_element(rng) if rng.random() < density else field.zero
                        for _ in range(c)] for _ in range(r)], c)


def _elimination_cases(field, density, rng):
    """Seeded matrices of many shapes: wide, tall, square, empty, with zero
    rows and columns, rank-deficient products of thin factors, and rows of
    top elements (every coefficient q - 1), which put the most in each slot
    of a packed row operation."""
    out = [zeros(field, 0, 4), zeros(field, 3, 0), zeros(field, 0, 0), zeros(field, 3, 5),
           zeros(field, 1, 1)]
    top, z = field((field.q - 1,) * field.m), field.zero
    out.append(Mat(field, [[top] * 5 for _ in range(3)], 5))
    out.append(Mat(field, [[z] + [top if j >= i else z for j in range(5)] for i in range(5)], 6))
    out.append(Mat(field, [[top if rng.random() < 0.5 else field.random_element(rng)
                            for _ in range(6)] for _ in range(4)], 6))
    for r, c in [(1, 1), (3, 8), (8, 3), (5, 5), (6, 12)]:
        for _ in range(3):
            out.append(_sparse_mat(field, r, c, density, rng))
    for r, c, inner in [(5, 5, 2), (4, 7, 3), (7, 4, 1)]:
        out.append(_sparse_mat(field, r, inner, density, rng)
                   @ _sparse_mat(field, inner, c, density, rng))
    a = _sparse_mat(field, 6, 6, density, rng)
    out.append(Mat(field, [[z if j == 2 else v for j, v in enumerate(row)] if i != 3 else [z] * 6
                           for i, row in enumerate(a.rows)], 6))
    return out


def _outcome(call):
    try:
        return call()
    except LinalgError as e:
        return type(e)


# the largest prime is_prime decides: PRIME_LIMIT - 168
@pytest.mark.parametrize("q,m", [(7, 9), (5, 9), (7, 1), (2, 1),
                                 (3_317_044_064_679_887_385_961_813, 1), (7, M_LIMIT)])
@pytest.mark.parametrize("density", [0.1, 0.5, 1.0])
def test_sparse_elimination_matches_dense_reference(q, m, density, monkeypatch):
    """The packed elimination kernel, through Mat.rref, right_kernel_basis
    and solve_left, against the per-entry loop, which shares no code with it."""
    field = GF(q, m)
    rng = random.Random(q * 100 + m * 10 + int(density * 10))
    for a in _elimination_cases(field, density, rng):
        x = [field.random_element(rng) for _ in range(a.nrows)]
        rhs = [(Mat(field, [x], a.nrows) @ a).rows[0] if a.nrows else [field.zero] * a.ncols,
               [field.random_element(rng) for _ in range(a.ncols)]]
        got = (a.rref(), a.right_kernel_basis(), [_outcome(lambda: a.solve_left(y)) for y in rhs])
        with monkeypatch.context() as mp:
            mp.setattr(Mat, "rref", _dense_rref)
            want = (a.rref(), a.right_kernel_basis(),
                    [_outcome(lambda: a.solve_left(y)) for y in rhs])
        assert got == want


class TestRightKernel:
    def test_identity_has_trivial_kernel(self, f7):
        assert Mat.identity(f7, 4).right_kernel_basis().ncols == 0

    def test_zero_matrix_kernel_is_identity(self, f7):
        k = zeros(f7, 2, 3).right_kernel_basis()
        assert k == Mat.identity(f7, 3)

    def test_known_kernel_gf2(self):
        f2 = GF(2)
        t = mat(f2, [[1, 1, 0], [0, 0, 1]])
        k = t.right_kernel_basis()
        assert k.ncols == 1
        assert [k[i, 0] for i in range(3)] == [f2.one, f2.one, f2.zero]

    def test_product_vanishes_and_rank_complements(self, f7):
        rng = random.Random(11)
        for _ in range(25):
            t = rand_mat(f7, rng.randint(1, 4), rng.randint(1, 6), rng)
            k = t.right_kernel_basis()
            assert t @ k == zeros(f7, t.nrows, k.ncols)
            assert k.ncols == t.ncols - t.rank()
            if k.ncols:
                assert k.rank() == k.ncols

    def test_zero_row_matrix(self, f7):
        t = zeros(f7, 0, 4)
        assert t.right_kernel_basis() == Mat.identity(f7, 4)


class TestSolveLeft:
    def test_identity(self, f7):
        a = Mat.identity(f7, 3)
        y = [f7(2), f7(5), f7(0)]
        assert a.solve_left(y) == y

    def test_zero_column_inconsistent(self, f7):
        a = mat(f7, [[1, 0], [2, 0]])
        with pytest.raises(NoSolution):
            a.solve_left([f7(1), f7(3)])

    def test_rank_deficient_tagged(self, f7):
        a = mat(f7, [[1, 2], [2, 4]])
        with pytest.raises(Underdetermined):
            a.solve_left([f7(1), f7(2)])
        assert issubclass(NoSolution, LinalgError) and issubclass(Underdetermined, LinalgError)

    def test_round_trip_invertible(self, f7):
        rng = random.Random(5)
        while True:
            a = rand_mat(f7, 4, 4, rng)
            if a.rank() == 4:
                break
        x0 = [f7.random_element(rng) for _ in range(4)]
        y = (Mat(f7, [x0], 4) @ a).rows[0]
        assert a.solve_left(y) == x0

    def test_overdetermined_consistent(self, f7):
        a = mat(f7, [[1, 2, 3], [0, 1, 1]])
        x0 = [f7(4), f7(6)]
        y = (Mat(f7, [x0], 2) @ a).rows[0]
        assert a.solve_left(y) == x0


class TestSystematize:
    def test_already_systematic_unchanged(self, f7):
        g = Mat.identity(f7, 2).hstack(mat(f7, [[3, 1], [2, 5]]))
        assert g.systematize() == g

    def test_row_space_preserved(self, f7):
        rng = random.Random(9)
        while True:
            g = rand_mat(f7, 3, 5, rng)
            if g.select_columns([0, 1, 2]).rank() == 3:
                break
        s = g.systematize()
        stacked = Mat(f7, g.rows + s.rows, 5)
        assert stacked.rank() == g.rank() == 3

    def test_singular_leading_block_rejected(self, f7):
        g = mat(f7, [[0, 1, 5], [0, 3, 2]])
        with pytest.raises(LinalgError):
            g.systematize()


class TestCauchyParity:
    def test_one_by_one_gf2(self):
        f2 = GF(2)
        c = cauchy_parity(1, 1, f2)
        assert c[0, 0] == f2.one

    def test_two_by_two_gf5_values(self):
        f5 = GF(5)
        c = cauchy_parity(2, 2, f5)
        # entry (i,j) = inverse(i - (2+j)):
        # inv(3)=2, inv(2)=3, inv(4)=4, inv(3)=2
        assert [[c[i, j] for j in range(2)] for i in range(2)] == \
            [[f5(2), f5(3)], [f5(4), f5(2)]]

    def test_all_square_submatrices_invertible(self, f7):
        from itertools import combinations
        c = cauchy_parity(3, 3, f7)
        for size in (1, 2, 3):
            for ri in combinations(range(3), size):
                for ci in combinations(range(3), size):
                    sub = select_rows(c, list(ri)).select_columns(list(ci))
                    assert sub.rank() == size

    def test_superregular_up_to_four(self):
        from itertools import combinations
        f11 = GF(11)
        for k, r in [(4, 4), (4, 3), (2, 4)]:
            c = cauchy_parity(k, r, f11)
            for size in range(1, min(k, r) + 1):
                for ri in combinations(range(k), size):
                    for ci in combinations(range(r), size):
                        sub = select_rows(c, list(ri)).select_columns(list(ci))
                        assert sub.rank() == size

    def test_field_too_small(self):
        with pytest.raises(LinalgError):
            cauchy_parity(2, 2, GF(3))

    def test_extension_field_rejected(self):
        with pytest.raises(LinalgError):
            cauchy_parity(1, 1, GF(2, 2))


class TestSelection:
    def test_all_columns_identity_op(self, f7):
        g = mat(f7, [[1, 2, 3], [4, 5, 6]])
        assert g.select_columns([0, 1, 2]) == g

    def test_empty_selection(self, f7):
        g = mat(f7, [[1, 2, 3]])
        sub = g.select_columns([])
        assert sub.ncols == 0 and sub.nrows == 1

    def test_out_of_range(self, f7):
        with pytest.raises(LinalgError):
            Mat.identity(f7, 2).select_columns([0, 2])

    def test_non_increasing_rejected(self, f7):
        with pytest.raises(LinalgError):
            Mat.identity(f7, 3).select_columns([1, 0])


class TestJson:
    def test_round_trip_extension_field(self):
        f = GF(5, 2)
        rng = random.Random(2)
        a = rand_mat(f, 3, 4, rng)
        assert mat_from_json(mat_to_json(a)) == a

    def test_round_trip_is_byte_stable(self, f7):
        rng = random.Random(4)
        a = rand_mat(f7, 2, 2, rng)
        assert mat_to_json(mat_from_json(mat_to_json(a))) == mat_to_json(a)

    def test_out_of_range_entry_rejected(self, f7):
        obj = Mat.identity(f7, 2).to_json_obj()
        obj["entries"][0][1] = [15]
        with pytest.raises(FieldError):
            Mat.from_json_obj(obj)

    def test_non_integer_entry_rejected(self, f7):
        obj = Mat.identity(f7, 2).to_json_obj()
        obj["entries"][0][1] = [2.9]
        with pytest.raises(FieldError):
            Mat.from_json_obj(obj)

    def test_float_q_rejected_whether_or_not_cached(self):
        # GF(113) is built nowhere else, so the first load meets an empty cache
        obj = {"rows": 1, "cols": 1, "q": 113.0, "m": 1, "modulus": [0, 1], "entries": [[[3]]]}
        with pytest.raises(FieldError):
            Mat.from_json_obj(obj)
        assert GF(113).q == 113
        with pytest.raises(FieldError):
            Mat.from_json_obj(obj)

    def test_extension_degree_above_the_limit_refused_at_once(self, monkeypatch):
        obj = {"rows": 0, "cols": 0, "q": 2, "m": M_LIMIT + 1,
               "modulus": [1] + [0] * M_LIMIT + [1], "entries": []}
        monkeypatch.setattr(gf, "is_irreducible", None)  # never reached
        with pytest.raises(FieldError, match="M_LIMIT"):
            Mat.from_json_obj(obj)

    @pytest.mark.parametrize("m, key, value", [(2, "m", 2.0), (1, "m", True),
                                               (2, "modulus", [2.0, 4.0, 1.0])])
    def test_non_integer_field_parameter_rejected(self, m, key, value):
        obj = Mat.identity(GF(5, m), 1).to_json_obj()
        obj[key] = value
        with pytest.raises(FieldError):
            Mat.from_json_obj(obj)

    def test_bare_int_entry_rejected(self, f7):
        obj = Mat.identity(f7, 1).to_json_obj()
        obj["entries"] = [[3]]
        with pytest.raises(LinalgError):
            Mat.from_json_obj(obj)

    @pytest.mark.parametrize("key, value", [("entries", 5), ("entries", [3]), ("modulus", 3)])
    def test_non_list_rejected(self, f7, key, value):
        obj = Mat.identity(f7, 1).to_json_obj()
        obj[key] = value
        with pytest.raises(LinalgError, match=key):
            Mat.from_json_obj(obj)

    @pytest.mark.parametrize("key", ["rows", "cols", "q", "m", "modulus", "entries"])
    def test_missing_key_rejected(self, f7, key):
        obj = Mat.identity(f7, 1).to_json_obj()
        del obj[key]
        with pytest.raises(LinalgError, match=key):
            Mat.from_json_obj(obj)

    def test_negative_shape_rejected(self, f7):
        # once loaded as a 0 x -3 matrix
        obj = zeros(f7, 0, 3).to_json_obj()
        obj["cols"] = -3
        with pytest.raises(LinalgError, match="rows and cols"):
            Mat.from_json_obj(obj)

    @pytest.mark.parametrize("value", [True, 1.0])
    def test_non_int_shape_rejected(self, f7, value):
        # True == 1.0 == 1, so a 1 x 1 matrix once passed the shape check
        obj = Mat.identity(f7, 1).to_json_obj()
        obj["rows"] = obj["cols"] = value
        with pytest.raises(LinalgError, match="rows and cols"):
            Mat.from_json_obj(obj)

    def test_zero_row_matrix_round_trip(self, f7):
        a = zeros(f7, 0, 5)
        b = mat_from_json(mat_to_json(a))
        assert b.nrows == 0 and b.ncols == 5


class TestDegenerateShapes:
    def test_hstack_empty(self, f7):
        a = zeros(f7, 2, 0)
        b = Mat.identity(f7, 2)
        assert a.hstack(b) == b

    def test_transpose_zero_rows(self, f7):
        a = zeros(f7, 0, 3)
        t = a.transpose()
        assert (t.nrows, t.ncols) == (3, 0)

    def test_matmul_with_zero_inner(self, f7):
        a = zeros(f7, 2, 0)
        b = zeros(f7, 0, 3)
        assert a @ b == zeros(f7, 2, 3)
