import random

import pytest

from streamfec.gf import GF, FieldError, FieldMismatchError
from streamfec.matrix import (LinalgError, Mat, NoSolution, Underdetermined,
                              cauchy_parity)


@pytest.fixture
def f7():
    return GF(7)


def rand_mat(field, r, c, rng):
    return Mat(field, [[field.random_element(rng) for _ in range(c)] for _ in range(r)], c)


class TestMul:
    def test_identity_left(self, f7):
        g = Mat.from_ints(f7, [[1, 2, 3], [4, 5, 6]])
        assert Mat.identity(f7, 2) @ g == g

    def test_zero_row_vector(self, f7):
        g = Mat.from_ints(f7, [[1, 2], [3, 4]])
        z = Mat.zeros(f7, 1, 2)
        assert (z @ g).is_zero()

    def test_mixed_fields_need_explicit_embedding(self):
        ext = GF(2, 2)
        a = Mat.from_ints(GF(2), [[1, 0], [1, 1]])
        b = Mat(ext, [[ext.alpha], [ext.one]], 1)
        for op in (lambda u, v: u @ v, lambda u, v: u.hstack(v), lambda u, v: u.vstack(v)):
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


class TestRank:
    def test_identity(self, f7):
        assert Mat.identity(f7, 4).rank() == 4

    def test_zero(self, f7):
        assert Mat.zeros(f7, 3, 5).rank() == 0

    def test_cauchy_full_rank(self, f7):
        assert cauchy_parity(3, 3, f7).rank() == 3

    def test_rank_equals_transpose_rank(self, f7):
        rng = random.Random(3)
        for _ in range(25):
            a = rand_mat(f7, rng.randint(1, 5), rng.randint(1, 5), rng)
            assert a.rank() == a.transpose().rank()


def _dense_rref(self):
    """The full-row elimination loop Mat.rref replaced, kept as a reference."""
    rows = self.copy_rows()
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
    rows and columns, and rank-deficient products of thin factors."""
    out = [Mat.zeros(field, 0, 4), Mat.zeros(field, 3, 0), Mat.zeros(field, 3, 5)]
    for r, c in [(1, 1), (3, 8), (8, 3), (5, 5), (6, 12)]:
        for _ in range(3):
            out.append(_sparse_mat(field, r, c, density, rng))
    for r, c, inner in [(5, 5, 2), (4, 7, 3), (7, 4, 1)]:
        out.append(_sparse_mat(field, r, inner, density, rng)
                   @ _sparse_mat(field, inner, c, density, rng))
    a = _sparse_mat(field, 6, 6, density, rng)
    z = field.zero
    out.append(Mat(field, [[z if j == 2 else v for j, v in enumerate(row)] if i != 3 else [z] * 6
                           for i, row in enumerate(a.rows)], 6))
    return out


def _outcome(call):
    try:
        return call()
    except LinalgError as e:
        return type(e)


@pytest.mark.parametrize("q,m", [(7, 9), (5, 9), (7, 1), (2, 1)])
@pytest.mark.parametrize("density", [0.1, 0.5, 1.0])
def test_sparse_elimination_matches_dense_reference(q, m, density, monkeypatch):
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
        k = Mat.zeros(f7, 2, 3).right_kernel_basis()
        assert k == Mat.identity(f7, 3)

    def test_known_kernel_gf2(self):
        f2 = GF(2)
        t = Mat.from_ints(f2, [[1, 1, 0], [0, 0, 1]])
        k = t.right_kernel_basis()
        assert k.ncols == 1
        assert [k[i, 0] for i in range(3)] == [f2.one, f2.one, f2.zero]

    def test_product_vanishes_and_rank_complements(self, f7):
        rng = random.Random(11)
        for _ in range(25):
            t = rand_mat(f7, rng.randint(1, 4), rng.randint(1, 6), rng)
            k = t.right_kernel_basis()
            assert (t @ k).is_zero()
            assert k.ncols == t.ncols - t.rank()
            if k.ncols:
                assert k.rank() == k.ncols

    def test_zero_row_matrix(self, f7):
        t = Mat.zeros(f7, 0, 4)
        assert t.right_kernel_basis() == Mat.identity(f7, 4)


class TestSolveLeft:
    def test_identity(self, f7):
        a = Mat.identity(f7, 3)
        y = [f7(2), f7(5), f7(0)]
        assert a.solve_left(y) == y

    def test_zero_column_inconsistent(self, f7):
        a = Mat.from_ints(f7, [[1, 0], [2, 0]])
        with pytest.raises(NoSolution):
            a.solve_left([f7(1), f7(3)])

    def test_rank_deficient_tagged(self, f7):
        a = Mat.from_ints(f7, [[1, 2], [2, 4]])
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
        a = Mat.from_ints(f7, [[1, 2, 3], [0, 1, 1]])
        x0 = [f7(4), f7(6)]
        y = (Mat(f7, [x0], 2) @ a).rows[0]
        assert a.solve_left(y) == x0


class TestSystematize:
    def test_already_systematic_unchanged(self, f7):
        g = Mat.identity(f7, 2).hstack(Mat.from_ints(f7, [[3, 1], [2, 5]]))
        assert g.systematize() == g

    def test_row_space_preserved(self, f7):
        rng = random.Random(9)
        while True:
            g = rand_mat(f7, 3, 5, rng)
            if g.select_columns([0, 1, 2]).rank() == 3:
                break
        s = g.systematize()
        stacked = g.vstack(s)
        assert stacked.rank() == g.rank() == 3

    def test_singular_leading_block_rejected(self, f7):
        g = Mat.from_ints(f7, [[0, 1, 5], [0, 3, 2]])
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
                    sub = c.select_rows(list(ri)).select_columns(list(ci))
                    assert sub.rank() == size

    def test_superregular_up_to_four(self):
        from itertools import combinations
        f11 = GF(11)
        for k, r in [(4, 4), (4, 3), (2, 4)]:
            c = cauchy_parity(k, r, f11)
            for size in range(1, min(k, r) + 1):
                for ri in combinations(range(k), size):
                    for ci in combinations(range(r), size):
                        assert c.select_rows(list(ri)).select_columns(list(ci)).rank() == size

    def test_field_too_small(self):
        with pytest.raises(LinalgError):
            cauchy_parity(2, 2, GF(3))

    def test_extension_field_rejected(self):
        with pytest.raises(LinalgError):
            cauchy_parity(1, 1, GF(2, 2))


class TestSelection:
    def test_all_columns_identity_op(self, f7):
        g = Mat.from_ints(f7, [[1, 2, 3], [4, 5, 6]])
        assert g.select_columns([0, 1, 2]) == g

    def test_empty_selection(self, f7):
        g = Mat.from_ints(f7, [[1, 2, 3]])
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
        assert Mat.from_json(a.to_json()) == a

    def test_round_trip_is_byte_stable(self, f7):
        rng = random.Random(4)
        a = rand_mat(f7, 2, 2, rng)
        assert Mat.from_json(a.to_json()).to_json() == a.to_json()

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

    def test_zero_row_matrix_round_trip(self, f7):
        a = Mat.zeros(f7, 0, 5)
        b = Mat.from_json(a.to_json())
        assert b.nrows == 0 and b.ncols == 5


class TestDegenerateShapes:
    def test_hstack_empty(self, f7):
        a = Mat.zeros(f7, 2, 0)
        b = Mat.identity(f7, 2)
        assert a.hstack(b) == b

    def test_transpose_zero_rows(self, f7):
        a = Mat.zeros(f7, 0, 3)
        t = a.transpose()
        assert (t.nrows, t.ncols) == (3, 0)

    def test_matmul_with_zero_inner(self, f7):
        a = Mat.zeros(f7, 2, 0)
        b = Mat.zeros(f7, 0, 3)
        assert a @ b == Mat.zeros(f7, 2, 3)
