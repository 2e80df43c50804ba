import random

import pytest

from streamfec.gf import GF
from streamfec.matrix import Mat
from streamfec.codes import (BudgetError, CodeError, MdsCode, build_gabidulin,
                             build_mds, subcode_columns, verify_mds, verify_mrd)

from conftest import mat, zeros


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
        from streamfec.gf import frobenius, alpha_power_basis
        f = GF(7, 9)
        code = build_gabidulin(5, 4, f)
        g = alpha_power_basis(f, 5)
        for i in range(4):
            for j in range(5):
                assert code.gen_moore[i, j] == frobenius(g[j], i)

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

    def test_parity_entries_leave_base_field(self):
        # expected for a proper rank-metric parity; logged, not fatal, if violated
        import warnings
        for code in [build_gabidulin(5, 4, GF(7, 9)), build_gabidulin(6, 3, GF(5, 9))]:
            p = code.parity()
            base_hits = [(i, j) for i in range(p.nrows) for j in range(p.ncols)
                         if p[i, j].is_base()]
            if base_hits:
                warnings.warn(f"base-field parity entries at {base_hits}")


class TestVerifyMrd:
    def test_identity_code(self):
        assert verify_mrd(build_gabidulin(4, 4, GF(3, 4)), trials=10, seed=0)

    def test_example_scale_code(self):
        assert verify_mrd(build_gabidulin(5, 4, GF(7, 9)), trials=100, seed=0)

    def test_corrupted_generator_detected(self):
        f = GF(7, 9)
        code = build_gabidulin(5, 4, f)
        rows = code.gen_sys.copy_rows()
        rows[3] = list(rows[2])  # duplicate row: rank drops below k
        from streamfec.codes import MrdCode
        bad = MrdCode(n=5, k=4, gen_moore=code.gen_moore, gen_sys=Mat(f, rows, 5))
        assert not verify_mrd(bad, trials=100, seed=0)


class TestSubcodeColumns:
    def test_all_columns_is_original(self):
        code = build_gabidulin(5, 3, GF(2, 5))
        sub = subcode_columns(code, [0, 1, 2, 3, 4])
        assert sub.gen_sys == code.gen_sys

    def test_too_few_columns_rejected(self):
        code = build_gabidulin(5, 3, GF(2, 5))
        with pytest.raises(CodeError):
            subcode_columns(code, [0, 1, 2])

    def test_random_subcodes_stay_rank_optimal(self):
        rng = random.Random(0)
        codes = [build_gabidulin(6, 3, GF(2, 6)),
                 build_gabidulin(5, 4, GF(7, 9)),
                 build_gabidulin(6, 2, GF(3, 6))]
        for trial in range(20):
            code = codes[trial % len(codes)]
            size = rng.randint(code.k + 1, code.n)
            idx = sorted(rng.sample(range(code.n), size))
            assert verify_mrd(subcode_columns(code, idx), trials=30, seed=trial)

    def test_prefix_subcode(self):
        code = build_gabidulin(9, 4, GF(7, 9))
        sub = subcode_columns(code, list(range(7)))
        assert (sub.n, sub.k) == (7, 4)
        assert verify_mrd(sub, trials=50, seed=3)


def test_json_bundle_shapes():
    mds = build_mds(2, GF(5))
    obj = mds.to_json_obj()
    assert obj["type"] == "mds" and obj["n"] == 4 and obj["k"] == 2
    mrd = build_gabidulin(4, 2, GF(3, 4))
    obj = mrd.to_json_obj()
    assert obj["type"] == "mrd"
    assert Mat.from_json_obj(obj["gen_sys"]) == mrd.gen_sys
