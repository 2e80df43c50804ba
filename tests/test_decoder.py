import dataclasses
import functools
import itertools
import json
import random
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from streamfec import decoder
from streamfec.channel import ERASED, ErasurePattern, apply, enumerate_block_patterns
from streamfec.construction import StreamParams, build_code, encode_block, validate_and_derive
from streamfec.decoder import (DecoderError, StructuralFailureError, SymbolReport,
                               classify_pattern, deadline_table, decode_structured,
                               oracle_decode, oracle_plan)
from streamfec.gf import GF, FieldMismatchError
from streamfec.matrix import Mat, NoSolution, Underdetermined
from streamfec.stream import StreamEncoder

from conftest import GATE_CODES, SMALL_CODES, mutated, random_block, select_rows


def received(g, s, erased):
    x = encode_block(s, g)
    return apply(x, ErasurePattern.make(g.derived.n, erased))


class TestOracle:
    def test_clean_block_recovers_at_own_slot(self, ex1):
        rng = random.Random(0)
        s = random_block(ex1, rng)
        rep = oracle_decode(ex1, received(ex1, s, []))
        assert rep.ok()
        assert rep.values() == s
        for i, sym in enumerate(rep.symbols):
            assert sym.recovery_time == i

    def test_full_burst_within_deadline(self, ex1):
        rng = random.Random(1)
        s = random_block(ex1, rng)
        rep = oracle_decode(ex1, received(ex1, s, range(5)))
        assert rep.ok()
        assert rep.values() == s
        assert rep.symbols[0].recovery_time <= 9

    def test_sparse_pattern_recovers_first_symbol_by_deadline(self, ex1):
        rng = random.Random(2)
        s = random_block(ex1, rng)
        rep = oracle_decode(ex1, received(ex1, s, [0, 5, 9]))
        assert rep.ok()
        assert rep.values() == s
        assert rep.symbols[0].recovery_time <= 9

    def test_plan_is_cached_and_value_free(self, ex1):
        erased = frozenset({1, 3})
        plan_a = oracle_plan(ex1, erased)
        plan_b = oracle_plan(ex1, erased)
        assert plan_a is plan_b
        # the same plan decodes two different blocks correctly
        rng = random.Random(3)
        for _ in range(2):
            s = random_block(ex1, rng)
            rep = oracle_decode(ex1, received(ex1, s, erased))
            assert rep.values() == s

    def test_too_many_erasures_reported_failed(self, ex1):
        rng = random.Random(4)
        s = random_block(ex1, rng)
        rep = oracle_decode(ex1, received(ex1, s, range(6)))
        assert not rep.ok()
        failed = [x.index for x in rep.symbols if x.status == "failed"]
        assert failed

    def test_wrong_length_rejected(self, ex1):
        with pytest.raises(DecoderError):
            oracle_decode(ex1, [ex1.field().zero] * 5)

    @pytest.mark.parametrize("symbol, error", [(3, TypeError),
                                               (GF(5, 9).one, FieldMismatchError)])
    def test_received_symbol_no_plan_reads_checked(self, ex1, symbol, error):
        """Both decoders check y[9], which no plan of a lost symbol 0 reads."""
        y = received(ex1, random_block(ex1, random.Random(6)), [0])
        y[9] = symbol
        with pytest.raises(error):
            oracle_decode(ex1, y)
        with pytest.raises(error):
            decode_structured(ex1, y)


def unit(g, i):
    f = g.field()
    return [f.one if r == i else f.zero for r in range(g.derived.k)]


def plan_column(g, steps):
    """sum of coeff * G[:, pos] over the steps, as a length-k list."""
    zero = g.field().zero
    return [sum((coeff * row[pos] for pos, coeff in steps), zero) for row in g.G.rows]


def in_column_span(g, positions, v):
    cols = g.G.select_columns(sorted(positions))
    return cols.rank() == cols.hstack(Mat(g.field(), [[x] for x in v], 1)).rank()


class TestOraclePlanByRank:
    """Oracle plans checked against rank facts only, not against how they are built.

    A plan step list with sum coeff * G[:, pos] = e_i decodes symbol i of every
    source block s, by linearity: sum coeff * (s @ G)[pos] = s @ e_i = s[i].
    """

    @pytest.mark.parametrize("params", SMALL_CODES)
    def test_every_erasure_subset_of_small_codes(self, params):
        g = build_code(validate_and_derive(StreamParams(*params)))
        d = g.derived
        for size in range(d.n + 1):
            for erased in itertools.combinations(range(d.n), size):
                received = [t for t in range(d.n) if t not in erased]
                plan = oracle_plan(g, frozenset(erased))
                for i in range(d.k):
                    if i not in plan:
                        assert not in_column_span(g, received, unit(g, i))
                        continue
                    t, steps = plan[i]
                    positions = [pos for pos, _ in steps]
                    assert positions == sorted(set(positions))
                    assert set(positions) <= set(received) and max(positions) == t
                    assert all(c for _, c in steps)
                    assert plan_column(g, steps) == unit(g, i)
                    assert not in_column_span(g, [r for r in received if r < t], unit(g, i))

    @pytest.mark.parametrize("fixture", ["ex1", "ex2"])
    def test_plans_reproduce_unit_vectors_on_admissible_patterns(self, fixture, request):
        g = request.getfixturevalue(fixture)
        d = g.derived
        for p in enumerate_block_patterns(d.n, d.B, d.N):
            plan = oracle_plan(g, frozenset(p.erased))
            assert sorted(plan) == list(range(d.k))
            for i, (_, steps) in plan.items():
                assert plan_column(g, steps) == unit(g, i)


def _reference_plan(g, erased):
    """The oracle plan from the whole generator: one reduction of
    [G_R | I_k], with G_R the received columns of G in arrival order, gives
    [R | E] with E @ G_R = R.  The pivot columns of R are the earliest basis
    of the received columns; symbol i is recoverable iff column i of E
    vanishes below the rank, and its steps are that column over the basis."""
    k = g.derived.k
    received = [t for t in range(g.derived.n) if t not in erased]
    R, pivots = g.G.select_columns(received).hstack(Mat.identity(g.field(), k)).rref()
    basis = [received[c] for c in pivots if c < len(received)]
    plan = {}
    for i in range(k):
        col = [row[len(received) + i] for row in R.rows]
        if not any(col[len(basis):]):
            steps = tuple((pos, c) for pos, c in zip(basis, col) if c)
            plan[i] = (steps[-1][0], steps)
    return plan


class TestOraclePlanMatchesReference:
    """oracle_plan, which reduces only the erased block of P, equals the
    reduction of the whole generator bit for bit: same symbols in the same
    order, same times, positions and coefficients."""

    @staticmethod
    def assert_same_plans(g, patterns):
        for erased in map(frozenset, patterns):
            assert list(oracle_plan(g, erased).items()) == \
                list(_reference_plan(g, erased).items()), sorted(erased)

    @pytest.mark.parametrize("fixture", ["ex1", "ex2"])
    def test_admissible_block_patterns(self, fixture, request):
        g = request.getfixturevalue(fixture)
        d = g.derived
        self.assert_same_plans(g, (p.erased for p in enumerate_block_patterns(d.n, d.B, d.N)))

    @pytest.mark.parametrize("params", SMALL_CODES)
    def test_every_erasure_subset_of_small_codes(self, params):
        g = build_code(validate_and_derive(StreamParams(*params)))
        n = g.derived.n
        self.assert_same_plans(g, (e for size in range(n + 1)
                                   for e in itertools.combinations(range(n), size)))

    @pytest.mark.parametrize("i, c", [(3, 1), (0, 0), (6, 4)])
    def test_mutated_parity(self, ex1, i, c):
        bad = mutated(ex1, i, c)
        d = bad.derived
        self.assert_same_plans(bad, (p.erased for p in enumerate_block_patterns(d.n, d.B, d.N)))


class TestClassifyPattern:
    def test_long_burst(self, ex1):
        d = ex1.derived
        assert classify_pattern(ErasurePattern.make(12, range(3, 8)), d) == "burst"

    def test_burst_at_origin(self, ex1):
        assert classify_pattern(ErasurePattern.make(12, range(5)), ex1.derived) == "burst"

    def test_sparse(self, ex1):
        assert classify_pattern(ErasurePattern.make(12, [0, 3, 9]), ex1.derived) == "arbitrary"

    def test_sparse_outside_middle(self, ex1):
        assert classify_pattern(ErasurePattern.make(12, [0, 5, 9]), ex1.derived) == "arbitrary"

    def test_empty(self, ex1):
        assert classify_pattern(ErasurePattern.make(12, []), ex1.derived) == "arbitrary"

    def test_short_run_is_arbitrary(self, ex1):
        assert classify_pattern(ErasurePattern.make(12, [2, 3, 4]), ex1.derived) == "arbitrary"

    def test_inadmissible_rejected(self, ex1):
        with pytest.raises(DecoderError):
            classify_pattern(ErasurePattern.make(12, [0, 2, 4, 6]), ex1.derived)

    def test_two_event_diagonal_message_names_the_block_rule(self, ex1):
        # {0,1,10,11} is an admissible stream diagonal of ex1 (two short
        # bursts W slots apart) but no single-event block pattern
        with pytest.raises(DecoderError) as exc:
            classify_pattern(ErasurePattern.make(12, [0, 1, 10, 11]), ex1.derived)
        assert str(exc.value) == ("pattern (0, 1, 10, 11) is neither one burst of length "
                                  "in (3, 5] nor at most 3 erasures")
        assert "admissible" not in str(exc.value)

    def test_horizon_mismatch(self, ex1):
        with pytest.raises(DecoderError):
            classify_pattern(ErasurePattern.make(11, [0]), ex1.derived)


class TestStructuredMatchesOracle:
    @pytest.mark.parametrize("fixture", ["ex1", "ex2"])
    def test_all_block_patterns(self, fixture, request):
        g = request.getfixturevalue(fixture)
        d = g.derived
        rng = random.Random(7)
        s = random_block(g, rng)
        table = deadline_table(d)
        for p in enumerate_block_patterns(d.n, d.B, d.N):
            y = received(g, s, p.erased)
            ref = oracle_decode(g, y)
            got = decode_structured(g, y)
            assert ref.ok() and got.ok()
            assert got.values() == s == ref.values()
            bounds = table[classify_pattern(p, d)]
            for i, sym in enumerate(got.symbols):
                assert sym.recovery_time <= bounds[i]

    @pytest.mark.parametrize("fixture", ["ex1", "ex2"])
    def test_recovery_times_match_golden(self, fixture, request):
        """Per-symbol structured recovery times on every admissible pattern,
        one line per pattern, equal those recorded in tests/golden."""
        g = request.getfixturevalue(fixture)
        d = g.derived
        s = random_block(g, random.Random(12))
        lines = []
        for p in enumerate_block_patterns(d.n, d.B, d.N):
            rep = decode_structured(g, received(g, s, p.erased))
            lines.append(f"{p.to_text()}: " + " ".join(str(x.recovery_time) for x in rep.symbols))
        golden = Path(__file__).parent / "golden" / f"structured_times_{fixture}.txt"
        assert "\n".join(lines) + "\n" == golden.read_text()

    @pytest.mark.parametrize("params", GATE_CODES)
    def test_recovery_times_follow_the_schedule(self, params):
        """The outer solve comes before every peel and the sub-blocks are
        peeled in ascending order, so no erased middle symbol is recovered
        before an erased outer one, nor before a lower middle one."""
        g, patterns = _gate_code(params)
        d = g.derived
        s = random_block(g, random.Random(18))
        for p in patterns:
            times = [x.recovery_time for x in decode_structured(g, received(g, s, p.erased)).symbols]
            outer = [times[i] for i in p.erased if i < d.delta or d.B <= i < d.k]
            middle = [times[i] for i in p.erased if d.delta <= i < d.B]
            assert all(m >= o for m in middle for o in outer), p.erased
            assert middle == sorted(middle), p.erased

    def test_small_degenerate_codes(self):
        for (W, T, B, N) in SMALL_CODES:
            g = build_code(validate_and_derive(StreamParams(W, T, B, N)))
            d = g.derived
            rng = random.Random(W * 100 + B)
            s = random_block(g, rng)
            for p in enumerate_block_patterns(d.n, d.B, d.N):
                y = received(g, s, p.erased)
                assert decode_structured(g, y).values() == s == oracle_decode(g, y).values()


class TestEquivalenceByLinearity:
    """For a fixed erasure pattern both decoders are linear maps of the
    received block, and so is the encoder of the source block.  A decoder
    that returns each of the k unit source blocks therefore returns every
    source block: the check is a proof, not a sample.  The oracle returns a
    value only by the symbol's deadline, so its deadlines are proved too."""

    @pytest.mark.parametrize("params", GATE_CODES)
    def test_unit_blocks_on_every_block_pattern(self, params):
        g = build_code(validate_and_derive(StreamParams(*params)))
        d = g.derived
        units = [unit(g, i) for i in range(d.k)]
        for p in enumerate_block_patterns(d.n, d.B, d.N):
            for u in units:
                y = received(g, u, p.erased)
                assert oracle_decode(g, y).values() == u, p.erased
                assert decode_structured(g, y).values() == u, p.erased


class TestStructuredPipelines:
    def test_burst_dispatch(self, ex1):
        rng = random.Random(8)
        s = random_block(ex1, rng)
        y = received(ex1, s, range(2, 7))
        rep = decode_structured(ex1, y)
        assert rep.values() == s

    def test_arbitrary_dispatch(self, ex2):
        rng = random.Random(9)
        s = random_block(ex2, rng)
        y = received(ex2, s, [1, 6])
        rep = decode_structured(ex2, y)
        assert rep.values() == s

    def test_mutated_generator_detected(self, ex1):
        d = ex1.derived
        bad = mutated(ex1, 3, 1)
        rng = random.Random(10)
        s = random_block(ex1, rng)
        x = encode_block(s, bad)
        wrong = 0
        for p in enumerate_block_patterns(d.n, d.B, d.N):
            y = apply(x, p)
            try:
                rep = decode_structured(bad, y)
            except StructuralFailureError:
                wrong += 1
                continue
            if rep.values() != s:
                wrong += 1
        assert wrong > 0

    @pytest.mark.parametrize("fixture, row, col", [("ex1", 0, 1), ("ex2", 6, 2)])
    def test_decodes_the_code_it_is_given(self, fixture, row, col, request):
        """With one outer entry of P changed, every pattern the oracle still
        recovers decodes to the source: the decoder reads P, not a copy of
        the Gabidulin parity.  ex1 mutates a top row, ex2 a bottom row."""
        g = request.getfixturevalue(fixture)
        d = g.derived
        bad = mutated(g, row, col)
        s = random_block(g, random.Random(13))
        x = encode_block(s, bad)
        checked = 0
        for p in enumerate_block_patterns(d.n, d.B, d.N):
            y = apply(x, p)
            if oracle_decode(bad, y).ok():
                assert decode_structured(bad, y).values() == s, p.to_text()
                checked += 1
        assert checked > 0

    def test_off_band_entry_never_decodes_wrong(self, ex2):
        """A row of ex2's second sub-block given an entry in the first
        sub-block's parity column: each decode returns the source or raises."""
        d = ex2.derived
        bad = mutated(ex2, 2, 0)
        s = random_block(ex2, random.Random(13))
        x = encode_block(s, bad)
        for p in enumerate_block_patterns(d.n, d.B, d.N):
            try:
                rep = decode_structured(bad, apply(x, p))
            except StructuralFailureError:
                continue
            assert rep.values() == s, p.to_text()


    def test_interference_entry_outside_base_field_rejected(self, ex1):
        """Erasures {0, 2} of ex1 solve outer symbol 0 through parity
        columns 0..2 with middle symbol 2 nulled out; P[2, 2] + alpha is not
        in GF(q), so no GF(q) projection can cancel row 2."""
        bad = mutated(ex1, 2, 2, ex1.field().alpha)
        y = received(bad, random_block(bad, random.Random(14)), [0, 2])
        with pytest.raises(StructuralFailureError) as exc:
            decode_structured(bad, y)
        assert str(exc.value) == "interference entry outside the base field"

    def test_inconsistent_parity_is_no_solution(self, ex1):
        """With symbol 0 of ex1 erased, the outer solve reads parity columns
        0..2 for one unknown; a corrupted y[k + 1] leaves no solution, which
        is checked before the rank."""
        y = received(ex1, random_block(ex1, random.Random(15)), [0])
        y[ex1.derived.k + 1] = y[ex1.derived.k + 1] + ex1.field().one
        with pytest.raises(StructuralFailureError) as exc:
            decode_structured(ex1, y)
        assert str(exc.value) == "outer solve degenerate: NoSolution"

    def test_burst_is_routed_by_its_erasures(self, ex1):
        """ex1's burst {2..5} runs the burst schedule, which recovers symbol
        5 at time 11; the arbitrary schedule would report it at time 9."""
        s = random_block(ex1, random.Random(16))
        rep = decode_structured(ex1, received(ex1, s, [2, 3, 4, 5]))
        assert rep.values() == s
        assert rep.symbols[5].recovery_time == 11

    def test_two_event_pattern_is_refused(self, ex1):
        """{0, 1, 10, 11} is two short bursts, not one loss event: refused
        before any solve, naming the pattern."""
        y = received(ex1, random_block(ex1, random.Random(17)), [0, 1, 10, 11])
        with pytest.raises(DecoderError) as exc:
            decode_structured(ex1, y)
        assert str(exc.value) == ("pattern (0, 1, 10, 11) is neither one burst of length "
                                  "in (3, 5] nor at most 3 erasures")


def _solve_by_kernel(g, y, vals, unknowns, cols, interference, stage):
    """decoder._solve as a right kernel, two products and solve_left: the
    interference rows are nulled out by their kernel K over GF(q) and the
    unknowns solved from x (A K) = rhs K.  The reference for the one
    elimination."""
    k, f, steps = g.derived.k, g.field(), g.encoder_plan
    in_system = set(unknowns) | set(interference)
    for c in cols:
        for i, _ in steps[c]:
            if i not in vals and i not in in_system:
                raise StructuralFailureError(
                    f"unknown symbol {i} outside the {stage} solve meets parity column {c}")
    known = f.evaluate_plans([[(i, p) for i, p in steps[c] if i in vals] for c in cols], vals)
    rhs = [y[k + c] - v for c, v in zip(cols, known)]
    a = select_rows(g.P, unknowns).select_columns(cols)
    if interference:
        entries = select_rows(g.P, interference).select_columns(cols)
        if any(e and not e.is_base() for row in entries.rows for e in row):
            raise StructuralFailureError("interference entry outside the base field")
        kernel = entries.right_kernel_basis()
        a = a @ kernel
        rhs = (Mat(f, [rhs], len(cols)) @ kernel).rows[0]
    try:
        x = a.solve_left(rhs)
    except (NoSolution, Underdetermined) as exc:
        raise StructuralFailureError(f"{stage} solve degenerate: {type(exc).__name__}") from None
    return dict(zip(unknowns, x)), k + cols[-1]


@functools.cache
def _gate_code(params):
    g = build_code(validate_and_derive(StreamParams(*params)))
    d = g.derived
    return g, enumerate_block_patterns(d.n, d.B, d.N)


def _structured_outcome(g, y):
    """The report of decode_structured, or the text of its structural failure."""
    try:
        return decode_structured(g, y)
    except StructuralFailureError as exc:
        return str(exc)


@given(st.data())
@settings(derandomize=True, max_examples=300, deadline=None)
def test_solve_matches_kernel_reference(data):
    """On a gate code, possibly with one entry of P raised by one, zeroed or
    raised by alpha, and a single-event pattern, possibly with one received
    parity symbol corrupted, the one-elimination solve gives the report or
    the failure text of the kernel reference."""
    g, patterns = _gate_code(data.draw(st.sampled_from(GATE_CODES)))
    d, f = g.derived, g.field()
    if data.draw(st.booleans()):
        i = data.draw(st.integers(0, d.k - 1))
        c = data.draw(st.integers(0, d.n - d.k - 1))
        change = data.draw(st.sampled_from([None, -g.P.rows[i][c], f.alpha]))
        g = mutated(g, i, c, change)
    p = data.draw(st.sampled_from(patterns))
    y = apply(encode_block(random_block(g, random.Random(data.draw(st.integers(0, 999)))), g), p)
    parity = [t for t in range(d.k, d.n) if y[t] is not ERASED]
    if parity and data.draw(st.booleans()):
        t = data.draw(st.sampled_from(parity))
        y[t] = y[t] + f.one
    got = _structured_outcome(g, y)
    with patch.object(decoder, "_solve", _solve_by_kernel):
        assert got == _structured_outcome(g, y)


class TestDeadlineTable:
    def test_example_one(self, ex1):
        t = deadline_table(ex1.derived)
        assert t["arbitrary"] == [9, 9, 11, 11, 11, 9, 9]
        assert t["burst"] == [9, 9, 11, 11, 11, 11, 11]

    def test_example_two(self, ex2):
        t = deadline_table(ex2.derived)
        assert t["arbitrary"] == [10, 10, 12, 12, 10, 10, 10, 10, 10]
        assert t["burst"] == [10, 10, 12, 12, 12, 12, 12, 12, 12]

    def test_bounds_never_exceed_block_end(self, ex1, ex2):
        for g in (ex1, ex2):
            d = g.derived
            t = deadline_table(d)
            for fam in ("arbitrary", "burst"):
                assert len(t[fam]) == d.k
                assert all(b <= d.n - 1 for b in t[fam])


def test_report_json_shape(ex1):
    rng = random.Random(11)
    s = random_block(ex1, rng)
    rep = decode_structured(ex1, received(ex1, s, [0, 4]))
    obj = rep.to_json_obj()
    assert len(obj["symbols"]) == 7
    first = obj["symbols"][0]
    assert first["status"] == "recovered"
    assert set(first) == {"index", "status", "recovery_time", "deadline", "value"}


def _eager_symbols(g, times: dict, vals: dict) -> tuple:
    """One SymbolReport per source symbol, recovered iff it has a value, built
    eagerly from times and values found without the report under test."""
    d = g.derived
    return tuple(SymbolReport(i, "recovered" if i in vals else "failed", vals.get(i),
                              times.get(i), d.deadlines[i]) for i in range(d.k))


def _oracle_symbols(g, s, erased) -> tuple:
    """The eager build for oracle_decode: each plan's time, and the source
    value of each symbol whose plan meets its deadline."""
    times = {i: t for i, (t, _) in oracle_plan(g, frozenset(erased)).items()}
    return _eager_symbols(g, times, {i: s[i] for i, t in times.items()
                                     if t <= g.derived.deadlines[i]})


class TestDecodeReport:
    """A report keeps each decode's values and times and builds its
    SymbolReports only when asked; every view of it must equal the eager
    build."""

    @staticmethod
    def _check(rep, want):
        assert rep.symbols == want
        assert rep.values() == [x.value for x in want]
        assert rep.ok() is all(x.status == "recovered" for x in want)
        assert (json.dumps(rep.to_json_obj(), sort_keys=True)
                == json.dumps({"symbols": [x.to_json_obj() for x in want]}, sort_keys=True))

    @pytest.mark.parametrize("fixture", ["ex1", "ex2"])
    def test_every_block_pattern_both_decoders(self, fixture, request):
        g = request.getfixturevalue(fixture)
        d = g.derived
        s = random_block(g, random.Random(31))
        golden = Path(__file__).parent / "golden" / f"structured_times_{fixture}.txt"
        structured_times = {text: dict(enumerate(map(int, times.split())))
                            for text, times in (line.split(": ")
                                                for line in golden.read_text().splitlines())}
        for p in enumerate_block_patterns(d.n, d.B, d.N):
            y = received(g, s, p.erased)
            self._check(oracle_decode(g, y), _oracle_symbols(g, s, p.erased))
            self._check(decode_structured(g, y),
                        _eager_symbols(g, structured_times[p.to_text()], dict(enumerate(s))))

    def test_lost_symbols_fail_beside_received_ones(self, ex1):
        s = random_block(ex1, random.Random(32))
        y = received(ex1, s, range(6))
        rep = oracle_decode(ex1, y)
        self._check(rep, _oracle_symbols(ex1, s, range(6)))
        assert [x.status for x in rep.symbols] == ["failed"] * 6 + ["recovered"]
        assert rep.values()[6] == s[6]
        with pytest.raises(DecoderError):
            decode_structured(ex1, y)

    def test_symbol_pinned_after_its_deadline_reports_time_without_value(self, ex1):
        s = random_block(ex1, random.Random(33))
        y = received(ex1, s, (0, 1, 2, 5))
        rep = oracle_decode(ex1, y)
        self._check(rep, _oracle_symbols(ex1, s, (0, 1, 2, 5)))
        first = rep.symbols[0]
        assert first.deadline == 9 < first.recovery_time
        assert first.value is None and first.status == "failed" and not rep.ok()
        with pytest.raises(DecoderError):
            decode_structured(ex1, y)

    def test_frozen_and_unequal_in_any_one_value_or_time(self, ex1):
        s = random_block(ex1, random.Random(34))
        y = received(ex1, s, (0, 1, 2, 5))
        rep = oracle_decode(ex1, y)
        for name in ("symbols", "vals", "times", "deadlines"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(rep, name, None)
        twin = oracle_decode(ex1, y)
        assert twin == rep and hash(twin) == hash(rep)
        one = ex1.field().one
        vals, times = rep.values(), [x.recovery_time for x in rep.symbols]
        for i in range(ex1.derived.k):
            changed = vals[:i] + [one if vals[i] is None else vals[i] + one] + vals[i + 1:]
            assert dataclasses.replace(rep, vals=tuple(changed)) != rep
            changed = times[:i] + [(times[i] or 0) + 1] + times[i + 1:]
            assert dataclasses.replace(rep, times=tuple(changed)) != rep


def test_each_plan_evaluation_reduces_once(ex1, ex2, reduce_calls):
    """evaluate_plans sums raw products and reduces once per call, whatever
    the number and length of its plans; a per-term multiply and add would
    reduce once per step.  encode_block and StreamEncoder.push reduce their
    n - k parities together, once."""
    rng = random.Random(17)
    for g in (ex1, ex2):
        zero, k = g.field().zero, g.derived.k
        x = encode_block(random_block(g, rng), g)
        plans = [steps for _, steps in oracle_plan(g, frozenset({0, 1, 2})).values()]
        plans += list(g.encoder_plan)
        assert max(len(steps) for steps in plans) > 2
        for batch in [[steps] for steps in plans] + [plans]:
            reduce_calls.clear()
            zero.field.evaluate_plans(batch, x)
            assert len(reduce_calls) == 1
        reduce_calls.clear()
        encode_block(x[:k], g)
        assert len(reduce_calls) == 1
        enc = StreamEncoder(g)
        for _ in range(g.derived.n):
            reduce_calls.clear()
            enc.push(x[:k])
            assert len(reduce_calls) == 1
