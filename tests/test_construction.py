import dataclasses
import json
import random
from fractions import Fraction

import pytest

from streamfec.gf import DOT_TERMS, GF, FieldMismatchError
from streamfec.matrix import Mat
from streamfec.construction import (GeneratorSet, ParamError, StreamParams, build_code,
                                    capacity, constituents, encode_block, validate_and_derive)
from streamfec.decoder import oracle_plan
from streamfec.stream import encode_stream

from conftest import mutated, random_block, select_rows


class TestValidateAndDerive:
    def test_example_one_parameters(self):
        d = validate_and_derive(StreamParams(10, 9, 5, 3))
        assert (d.k, d.n, d.M, d.delta, d.q, d.m) == (7, 12, 1, 2, 7, 9)
        assert d.T_eff == 9

    def test_deadlines(self, ex1):
        # min(i + T_eff, n - 1) with T_eff = 9, n = 12
        assert ex1.derived.deadlines == (9, 10, 11, 11, 11, 11, 11)

    def test_example_two_parameters(self):
        d = validate_and_derive(StreamParams(11, 10, 4, 2))
        assert (d.k, d.n, d.M, d.delta, d.q, d.m) == (9, 13, 2, 0, 5, 9)

    def test_repetition_corner(self):
        d = validate_and_derive(StreamParams(2, 1, 1, 1))
        assert (d.k, d.n, d.M, d.delta, d.q, d.m) == (1, 2, 1, 0, 2, 1)

    def test_short_window_caps_delay(self):
        d = validate_and_derive(StreamParams(8, 20, 4, 2))
        assert d.T_eff == 7
        assert d.k == 6

    def test_zero_capacity_window(self):
        with pytest.raises(ParamError, match="zero-capacity"):
            validate_and_derive(StreamParams(4, 9, 5, 3))

    def test_delay_below_burst_unsupported(self):
        with pytest.raises(ParamError, match="unsupported"):
            validate_and_derive(StreamParams(10, 3, 5, 3))

    def test_low_rate_regime_rejected(self):
        with pytest.raises(ParamError, match="rate below 1/2"):
            validate_and_derive(StreamParams(3, 2, 2, 2))

    def test_remainder_range(self):
        for (W, T, B, N) in [(10, 9, 5, 3), (11, 10, 6, 4), (9, 8, 4, 3)]:
            d = validate_and_derive(StreamParams(W, T, B, N))
            assert 0 <= d.delta < d.N
            assert d.B == d.N * d.M + d.delta


class TestCapacity:
    def test_example_one(self):
        assert capacity(9, 5, 3) == Fraction(7, 12)

    def test_burst_equals_sparse(self):
        for T in range(3, 10):
            assert capacity(T, 3, 3) == Fraction(T - 2, T + 1)

    def test_matches_derived_rate(self):
        d = validate_and_derive(StreamParams(11, 10, 4, 2))
        assert capacity(10, 4, 2) == Fraction(d.k, d.n) == Fraction(9, 13)

    def test_invalid_ordering(self):
        with pytest.raises(ParamError):
            capacity(2, 3, 1)


def parity_support(g):
    d = g.derived
    return [[bool(g.P[i, j]) for j in range(d.B)] for i in range(d.k)]


class TestBuildCode:
    def test_example_one_zero_pattern(self, ex1):
        supp = parity_support(ex1)
        assert supp[0] == supp[1] == [True, True, True, False, False]
        for i in (2, 3, 4):
            assert supp[i] == [False, False, True, True, True]
        assert supp[5] == supp[6] == [True] * 5
        assert (ex1.G.nrows, ex1.G.ncols) == (7, 12)

    def test_example_two_zero_pattern(self, ex2):
        supp = parity_support(ex2)
        for i in (0, 1):
            assert supp[i] == [True, True, False, False]
        for i in (2, 3):
            assert supp[i] == [False, False, True, True]
        for i in range(4, 9):
            assert supp[i] == [True] * 4

    def test_systematic_prefix(self, ex1):
        k = ex1.derived.k
        assert ex1.G.select_columns(list(range(k))) == Mat.identity(ex1.field(), k)

    def test_blocks_all_equal_mds_parity(self, ex2):
        ext = ex2.field()
        cauchy = constituents(ex2.derived)[0].gen.select_columns([2, 3]).embed_into(ext)
        assert ex2.derived.M == 2
        # each of the M diagonal blocks of P is the embedded Cauchy parity
        for off in (0, 2):
            blk = select_rows(ex2.P, [off, off + 1]).select_columns([off, off + 1])
            assert blk == cauchy

    def test_outer_band_wiring(self, ex1):
        d = ex1.derived
        gab_parity = constituents(d)[1].parity()
        # top delta rows of P restricted to the first N columns
        for i in range(d.delta):
            for c in range(d.N):
                assert ex1.P[i, c] == gab_parity[i, c]
        # bottom k - B rows are the dense band
        for i in range(d.k - d.B):
            for c in range(d.B):
                assert ex1.P[d.B + i, c] == gab_parity[d.delta + i, c]

    def test_single_block_degenerate(self):
        d = validate_and_derive(StreamParams(6, 5, 3, 3))
        g = build_code(d)
        mds, mrd = constituents(d)
        assert d.delta == 0 and d.k == d.B == 3
        # neither outer band has rows: the Gabidulin parity is empty
        assert mrd.parity().nrows == 0
        ext = g.field()
        cauchy = mds.gen.select_columns([3, 4, 5]).embed_into(ext)
        assert g.P == cauchy

    def test_rate_matches_capacity(self, ex1, ex2):
        for g in (ex1, ex2):
            d = g.derived
            assert Fraction(d.k, d.n) == capacity(d.T_eff, d.B, d.N)


class TestEncodeBlock:
    def test_zero_maps_to_zero(self, ex1):
        ext = ex1.field()
        x = encode_block([ext.zero] * 7, ex1)
        assert all(not v for v in x)

    def test_unit_vector_reads_generator_row(self, ex1, ex2):
        # by linearity, agreement on all k unit vectors proves encode == s @ G
        degenerate = build_code(validate_and_derive(StreamParams(6, 5, 3, 3)))
        for g in (ex1, ex2, degenerate):
            d = g.derived
            ext = g.field()
            for i in range(d.k):
                s = [ext.one if j == i else ext.zero for j in range(d.k)]
                assert encode_block(s, g) == g.G.rows[i]

    def test_parity_column_zero_support(self, ex1):
        # parity symbol 0 depends only on rows 0, 1, 5, 6
        ext = ex1.field()
        rng = random.Random(1)
        s = random_block(ex1, rng)
        x = encode_block(s, ex1)
        manual = ext.zero
        for i in (0, 1, 5, 6):
            manual = manual + s[i] * ex1.P[i, 0]
        assert x[7] == manual

    def test_length_mismatch(self, ex1):
        with pytest.raises(ParamError):
            encode_block([ex1.field().zero] * 6, ex1)


class TestCodeIsItsParity:
    def test_only_the_parity_is_stored(self, ex1):
        inits = {f.name for f in dataclasses.fields(GeneratorSet) if f.init}
        assert inits == {"derived", "P"}
        with pytest.raises(ValueError):
            dataclasses.replace(ex1, _plan_cache={})

    def test_replaced_parity_rederives_everything(self, ex1):
        ext, d = ex1.field(), ex1.derived
        rng = random.Random(6)
        s = random_block(ex1, rng)
        encode_block(s, ex1)
        oracle_plan(ex1, frozenset({0}))
        bad = mutated(ex1, 0, 0)

        assert bad.G == Mat.identity(ext, d.k).hstack(bad.P) != ex1.G
        want = (Mat(ext, [s], d.k) @ bad.G).rows[0]
        assert encode_block(s, bad) == want != encode_block(s, ex1)
        # symbol j of the diagonal starting at slot 0 is row j of packet j
        src = [[s[t] if j == t else ext.random_element(rng) for j in range(d.k)]
               for t in range(d.k)]
        sent = encode_stream(src, bad)
        assert [sent[j][j] for j in range(d.n)] == want
        assert ex1._plan_cache and bad._plan_cache == {}
        assert bad._plan_cache is not ex1._plan_cache

    def test_foreign_parity_entry_rejected(self, ex1):
        """GeneratorSet checks every entry of P, zero or not, directly and
        through dataclasses.replace."""
        for bad, err in ((3, TypeError), (None, TypeError), (GF(5, 9).one, FieldMismatchError),
                         (GF(7).one, FieldMismatchError)):
            for i, c in ((0, 0), (0, 4), (3, 1), (6, 4)):
                rows = [list(r) for r in ex1.P.rows]
                rows[i][c] = bad
                P = Mat(ex1.field(), rows, ex1.P.ncols)
                with pytest.raises(err):
                    GeneratorSet(ex1.derived, P)
                with pytest.raises(err):
                    dataclasses.replace(ex1, P=P)

    def test_wrong_shape_parity_rejected(self, ex1, ex2):
        """P must be k x B: a k x 4 P for ex1 would encode 11-symbol
        codewords of an n = 12 code."""
        P = ex1.P
        assert GeneratorSet(ex1.derived, P) == ex1
        for bad in (P.select_columns([0, 1, 2, 3]), select_rows(P, list(range(6))),
                    P.hstack(P.select_columns([0]))):
            with pytest.raises(ParamError):
                GeneratorSet(ex1.derived, bad)
            with pytest.raises(ParamError):
                dataclasses.replace(ex1, P=bad)
        with pytest.raises(ParamError):
            GeneratorSet(ex2.derived, P)

    @pytest.mark.parametrize("q, m", [(5, 9), (7, 1), (7, 10)])
    def test_parity_over_wrong_field_rejected(self, ex1, q, m):
        """A k x B P over a field other than derived's GF(7^9), all of its
        entries in its own field, is refused directly and through
        dataclasses.replace: it would export q = 7 beside a G over GF(5^9)."""
        f = GF(q, m)
        P = Mat(f, [[f.one] * ex1.derived.B for _ in range(ex1.derived.k)], ex1.derived.B)
        with pytest.raises(ParamError):
            GeneratorSet(ex1.derived, P)
        with pytest.raises(ParamError):
            dataclasses.replace(ex1, P=P)


def test_bundle_json_round_trips(ex1):
    obj = ex1.to_json_obj()
    text = json.dumps(obj, sort_keys=True)
    back = json.loads(text)
    assert back["params"] == {"W": 10, "T": 9, "B": 5, "N": 3}
    assert back["derived"]["k"] == 7 and back["derived"]["q"] == 7
    assert Mat.from_json_obj(back["G"]) == ex1.G


def small_scan():
    """The derived parameters of every code with W = T + 1, T <= 12, in regime."""
    return [validate_and_derive(StreamParams(T + 1, T, B, N))
            for T in range(1, 13) for B in range(1, T + 1) for N in range(1, B + 1)
            if T - N + 1 >= B]


def test_rate_optimal_across_small_scan():
    scan = small_scan()
    for d in scan:
        assert Fraction(d.k, d.n) == capacity(d.T, d.B, d.N)
    assert len(scan) > 100


def test_band_wiring_across_small_scan():
    # P, row by row, is exactly the three bands built from constituents(d)
    for d in small_scan():
        k, B, N, delta = d.k, d.B, d.N, d.delta
        g = build_code(d)
        mds, mrd = constituents(d)
        ext, zero = g.field(), g.field().zero
        gab = mrd.parity()
        cauchy = mds.gen.select_columns(list(range(N, 2 * N))).embed_into(ext)
        for i in range(delta):
            assert g.P.rows[i] == gab.rows[i][:N] + [zero] * (B - N)
        for i in range(delta, B):
            off = delta + (i - delta) // N * N
            want = [zero] * off + cauchy.rows[i - off] + [zero] * (B - off - N)
            assert g.P.rows[i] == want
        for i in range(B, k):
            assert g.P.rows[i] == gab.rows[delta + i - B]


class TestEvaluatePlans:
    @pytest.mark.parametrize("q,m", [(7, 9), (5, 9), (13, 14), (7, 1)])
    def test_each_plan_equals_sum_of_products(self, q, m):
        """Plans past DOT_TERMS steps too, 1000 top-element products among
        them: each sum reduces in chunks, then all the plans together."""
        f = GF(q, m)
        rng = random.Random(q * m)
        x = [f((q - 1,) * m)] + [f.random_element(rng) for _ in range(9)]
        plans = [[(i % len(x), x[0] if i % 2 else f.random_element(rng)) for i in range(length)]
                 for length in (DOT_TERMS + 1, 0, 1, DOT_TERMS)] + [[(0, x[0])] * 1000]
        for count in range(len(plans) + 1):
            got = f.evaluate_plans(plans[:count], x)
            assert got == [sum((c * x[pos] for pos, c in steps), f.zero)
                           for steps in plans[:count]]
