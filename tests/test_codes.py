import random

import pytest

from streamfec.gf import GF, frobenius
from streamfec.matrix import Mat
from streamfec.codes import (BudgetError, CodeError, MdsCode, MrdCode, build_gabidulin,
                             build_mds, certify_gabidulin, verify_mds)
from streamfec.construction import constituents

from conftest import mat, punctured, select_rows, zeros


class TestBuildMds:
    def test_repetition(self):
        code = build_mds(1, GF(2))
        assert (code.n, code.k) == (2, 1)
        f2 = GF(2)
        assert code.gen == mat(f2, [[1, 1]])

    def test_n2_exhaustively_mds(self):
        assert verify_mds(build_mds(2, GF(5)))

    def test_n3_exhaustively_mds(self):
        assert verify_mds(build_mds(3, GF(7)))

    def test_n4_exhaustively_mds(self):
        assert verify_mds(build_mds(4, GF(11)))

    def test_systematic_shape(self):
        code = build_mds(3, GF(7))
        ident = code.gen.select_columns([0, 1, 2])
        assert ident == Mat.identity(GF(7), 3)

    def test_field_too_small(self):
        with pytest.raises(CodeError):
            build_mds(2, GF(3))

    def test_extension_field_rejected(self):
        with pytest.raises(CodeError):
            build_mds(1, GF(2, 2))


class TestVerifyMds:
    def test_zero_parity_fails(self):
        f5 = GF(5)
        bad = MdsCode(n=4, k=2, gen=Mat.identity(f5, 2).hstack(zeros(f5, 2, 2)))
        assert not verify_mds(bad)

    def test_repeated_parity_column_fails(self):
        """The worst 2-subset, the two equal parity columns, has rank 1 = k - 1:
        a check that only flags rank below k - 1 would pass this code."""
        f5 = GF(5)
        assert not verify_mds(MdsCode(n=4, k=2, gen=mat(f5, [[1, 0, 1, 1], [0, 1, 2, 2]])))

    def test_budget_refusal(self):
        f = GF(23)
        wide = MdsCode(n=20, k=2, gen=zeros(f, 2, 20))
        with pytest.raises(BudgetError):
            verify_mds(wide)

    def test_rank_metric_code_is_also_mds(self):
        code = build_gabidulin(5, 3, GF(2, 5))
        assert verify_mds(code)


class TestBuildGabidulin:
    def test_full_dimension_is_identity(self):
        f = GF(3, 4)
        code = build_gabidulin(4, 4, f)
        assert code.gen_sys == Mat.identity(f, 4)

    def test_moore_rows_are_frobenius_images(self):
        from streamfec.gf import frobenius
        f = GF(7, 9)
        code = build_gabidulin(5, 4, f)
        for i in range(4):
            for j in range(5):
                assert code.gen_moore[i, j] == frobenius(f.alpha ** j, i)

    def test_systematic_form(self):
        f = GF(7, 9)
        code = build_gabidulin(5, 4, f)
        assert code.gen_sys.select_columns([0, 1, 2, 3]) == Mat.identity(f, 4)
        assert code.parity().nrows == 4 and code.parity().ncols == 1

    def test_single_row_all_nonzero(self):
        code = build_gabidulin(4, 1, GF(5, 4))
        for j in range(4):
            assert code.gen_sys[0, j]

    def test_zero_dimension(self):
        code = build_gabidulin(3, 0, GF(2, 3))
        assert code.gen_sys.nrows == 0 and code.gen_sys.ncols == 3

    def test_extension_too_small(self):
        with pytest.raises(CodeError):
            build_gabidulin(4, 2, GF(2, 3))

    def test_parity_entries_leave_base_field(self, ex1, ex2):
        """Row i of [I_k | P] has rank weight n - k + 1 only if 1 and its
        n - k parity entries are independent over GF(q), so no parity entry
        of an MRD code, zero included, lies in GF(q).  Two small codes and
        the Gabidulin constituents of ex1 and ex2."""
        codes = [build_gabidulin(5, 4, GF(7, 9)), build_gabidulin(6, 3, GF(5, 9)),
                 constituents(ex1.derived)[1], constituents(ex2.derived)[1]]
        for code in codes:
            p = code.parity()
            assert p.nrows and p.ncols
            assert [(i, j) for i in range(p.nrows) for j in range(p.ncols)
                    if p[i, j].is_base()] == []


def sampled_mrd_check(code, trials=100, seed=0):
    """The sampled MRD check that certify_gabidulin replaces: gen_sys @ T
    keeps rank k for random full-column-rank n x k matrices T over GF(q).
    A failure disproves MRD; a pass proves nothing."""
    rng = random.Random(seed)
    ext = code.gen_sys.field
    base = GF(ext.q)
    for _ in range(trials):
        t = None
        while t is None or t.rank() != code.k:
            t = Mat(base, [[base(rng.randrange(base.q)) for _ in range(code.k)]
                           for _ in range(code.n)])
        if (code.gen_sys @ t.embed_into(ext)).rank() != code.k:
            return False
    return True


def systematized(moore_rows, n):
    """The code whose Moore generator has moore_rows, gen_sys derived."""
    moore = Mat(moore_rows[0][0].field, moore_rows, n)
    return MrdCode(n, len(moore_rows), moore, moore.systematize())


def dependent_point(code):
    """code with its last point replaced by the sum of the first two."""
    points = list(code.gen_moore.rows[0])
    points[-1] = points[0] + points[1]
    return systematized([[frobenius(p, i) for p in points] for i in range(code.k)], code.n)


def off_frobenius(code):
    """code with one entry of its last Moore row raised by alpha and gen_sys
    re-derived, so only the Frobenius relation breaks."""
    rows = [list(r) for r in code.gen_moore.rows]
    rows[-1][-1] = rows[-1][-1] + rows[-1][-1].field.alpha
    return systematized(rows, code.n)


def off_row_space(code):
    """code with one parity entry of gen_sys raised by one."""
    rows = [list(r) for r in code.gen_sys.rows]
    rows[0][-1] = rows[0][-1] + rows[0][-1].field.one
    return MrdCode(code.n, code.k, code.gen_moore, Mat(code.gen_sys.field, rows, code.n))


class TestVerifyMrd:
    """The MRD property, certified by Gabidulin's theorem."""

    def test_identity_code(self):
        assert certify_gabidulin(build_gabidulin(4, 4, GF(3, 4)))

    def test_example_scale_code(self):
        code = build_gabidulin(5, 4, GF(7, 9))
        assert certify_gabidulin(code) and sampled_mrd_check(code)

    def test_corrupted_generator_detected(self):
        f = GF(7, 9)
        code = build_gabidulin(5, 4, f)
        rows = [list(r) for r in code.gen_sys.rows]
        rows[3] = list(rows[2])  # duplicate row: rank drops below k
        bad = MrdCode(n=5, k=4, gen_moore=code.gen_moore, gen_sys=Mat(f, rows, 5))
        assert not certify_gabidulin(bad)
        assert not sampled_mrd_check(bad)

    def test_zero_dimension_and_full_length(self):
        for n, k, q, m in [(3, 0, 2, 3), (4, 4, 3, 4), (9, 4, 7, 9), (6, 3, 2, 6)]:
            assert certify_gabidulin(build_gabidulin(n, k, GF(q, m))), (n, k, q, m)

    def test_longer_than_extension_degree(self):
        f = GF(2, 3)
        assert not certify_gabidulin(MrdCode(4, 0, Mat(f, [], 4), Mat(f, [], 4)))

    def test_moore_rows_must_number_k(self):
        """Without its last Moore row, gen_moore's rows still lie in the row
        space of gen_sys, but no longer span it."""
        code = build_gabidulin(5, 4, GF(7, 9))
        short = select_rows(code.gen_moore, range(3))
        assert not certify_gabidulin(MrdCode(5, 4, short, code.gen_sys))

    @pytest.mark.parametrize("fixture", ["ex1", "ex2"])
    @pytest.mark.parametrize("defect", [dependent_point, off_frobenius, off_row_space])
    def test_planted_defect_fails(self, fixture, defect, request):
        code = constituents(request.getfixturevalue(fixture).derived)[1]
        assert certify_gabidulin(code)
        assert not certify_gabidulin(defect(code))

    @pytest.mark.parametrize("fixture", ["ex1", "ex2"])
    def test_sampled_check_passes_a_dependent_point(self, fixture, request):
        """The defect the certificate exists for: 100 sampled T (seed 0)
        all keep rank k on a Moore code whose points are dependent."""
        bad = dependent_point(constituents(request.getfixturevalue(fixture).derived)[1])
        assert sampled_mrd_check(bad, trials=100, seed=0)
        assert not certify_gabidulin(bad)


class TestSubcodeColumns:
    """Column puncturings of Gabidulin codes, certified."""

    def test_random_subcodes_stay_rank_optimal(self):
        rng = random.Random(0)
        codes = [build_gabidulin(6, 3, GF(2, 6)),
                 build_gabidulin(5, 4, GF(7, 9)),
                 build_gabidulin(6, 2, GF(3, 6))]
        for trial in range(20):
            code = codes[trial % len(codes)]
            size = rng.randint(code.k + 1, code.n)
            idx = sorted(rng.sample(range(code.n), size))
            assert certify_gabidulin(punctured(code, idx))

    def test_prefix_subcode(self):
        code = build_gabidulin(9, 4, GF(7, 9))
        sub = punctured(code, list(range(7)))
        assert (sub.n, sub.k) == (7, 4)
        assert certify_gabidulin(sub)


def test_json_bundle_shapes():
    mds = build_mds(2, GF(5))
    obj = mds.to_json_obj()
    assert obj["type"] == "mds" and obj["n"] == 4 and obj["k"] == 2
    mrd = build_gabidulin(4, 2, GF(3, 4))
    obj = mrd.to_json_obj()
    assert obj["type"] == "mrd"
    assert Mat.from_json_obj(obj["gen_sys"]) == mrd.gen_sys
