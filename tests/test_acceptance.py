"""End-to-end acceptance gate.

Each test prints one CRITERION line (PASS/FAIL) so the suite output doubles
as the acceptance report.  The heavy exhaustive runs over both example codes
are computed once and shared by the recovery, deadline, and equivalence
criteria.
"""
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from streamfec.channel import (ErasurePattern, apply, enumerate_block_patterns, is_admissible,
                               sample_stream_pattern)
from streamfec.codes import build_mds, certify_gabidulin, verify_mds
from streamfec.construction import (StreamParams, build_code, capacity, constituents,
                                    encode_block, validate_and_derive)
from streamfec.decoder import (StructuralFailureError, classify_pattern, deadline_table,
                               decode_structured, oracle_decode, oracle_plan)
from streamfec.gf import GF, is_prime, next_prime
from streamfec.stream import delay_check, simulate

from conftest import (GATE_CODES, accepted_small_params, gabidulin_shapes, mutated, punctured,
                      scan_parameter_space, scan_short_windows)


def report(capsys, num, ok):
    with capsys.disabled():
        print(f"\nCRITERION {num}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed"


def code_shape(d):
    return (d.k, d.n, d.M, d.delta, d.q, d.m)


@pytest.fixture(scope="session")
def exhaustive_runs(ex1, ex2):
    """Criterion 4 workload: every block pattern x 5 random source blocks,
    decoded by both decoders, for both example codes."""
    runs = {}
    for name, g in (("ex1", ex1), ("ex2", ex2)):
        d = g.derived
        rng = random.Random(0xACCE)
        records = []
        patterns = enumerate_block_patterns(d.n, d.B, d.N)
        for p in patterns:
            kind = classify_pattern(p, d)
            for _ in range(5):
                s = [g.field().random_element(rng) for _ in range(d.k)]
                y = apply(encode_block(s, g), p)
                orc = oracle_decode(g, y)
                st = decode_structured(g, y)
                records.append((p, kind, s, orc, st))
        runs[name] = (g, records)
    return runs


def test_criterion_1_rate_optimality(capsys):
    derived = scan_parameter_space()
    ok = len(derived) > 100
    for d in derived:
        g = build_code(d)
        if Fraction(d.k, d.n) != capacity(d.T, d.B, d.N):
            ok = False
        if g.G.nrows != d.k or g.G.ncols != d.n:
            ok = False
    # W <= T: the codes above, so their generators are not built again
    built = {(d.T, d.B, d.N): code_shape(d) for d in derived}
    short = scan_short_windows()
    ok = ok and len(short) > 100
    for d in short:
        if d.T_eff != d.W - 1 or Fraction(d.k, d.n) != capacity(d.T_eff, d.B, d.N):
            ok = False
        if built[(d.T_eff, d.B, d.N)] != code_shape(d):
            ok = False
    report(capsys, 1, ok)


def test_criterion_2_first_example_structure(capsys, ex1):
    d = ex1.derived
    ok = (d.k, d.n, d.M, d.delta) == (7, 12, 1, 2)
    ok = ok and (ex1.G.nrows, ex1.G.ncols) == (7, 12)
    expected_support = [
        [1, 1, 1, 0, 0],
        [1, 1, 1, 0, 0],
        [0, 0, 1, 1, 1],
        [0, 0, 1, 1, 1],
        [0, 0, 1, 1, 1],
        [1, 1, 1, 1, 1],
        [1, 1, 1, 1, 1],
    ]
    got = [[int(bool(ex1.P[i, j])) for j in range(5)] for i in range(7)]
    ok = ok and got == expected_support
    report(capsys, 2, ok)


def test_criterion_3_second_example_structure(capsys, ex2):
    d = ex2.derived
    ok = (d.k, d.n, d.M, d.delta) == (9, 13, 2, 0)
    expected_support = [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]] + \
        [[1, 1, 1, 1]] * 5
    got = [[int(bool(ex2.P[i, j])) for j in range(4)] for i in range(9)]
    ok = ok and got == expected_support
    report(capsys, 3, ok)


def test_criterion_4_exhaustive_recovery(capsys, exhaustive_runs):
    ok = True
    for g, records in exhaustive_runs.values():
        d = g.derived
        if len(records) < 500:
            ok = False
        for _p, _kind, s, orc, _st in records:
            for i, sym in enumerate(orc.symbols):
                if sym.status != "recovered" or sym.value != s[i]:
                    ok = False
                if sym.recovery_time > min(i + d.T, d.n - 1):
                    ok = False
    report(capsys, 4, ok)


def test_criterion_5_per_symbol_deadlines(capsys, exhaustive_runs):
    ok = True
    for g, records in exhaustive_runs.values():
        d = g.derived
        table = deadline_table(d)
        for _p, kind, _s, orc, st in records:
            bounds = table[kind]
            for i in range(d.k):
                if orc.symbols[i].recovery_time > bounds[i]:
                    ok = False
                if st.symbols[i].recovery_time > bounds[i]:
                    ok = False
    report(capsys, 5, ok)


def test_criterion_6_decoder_equivalence(capsys, exhaustive_runs):
    # decode_structured raises StructuralFailureError whenever an interference
    # entry lies outside the base field or the reduced system is not uniquely
    # solvable; records exist only because no such error fired.
    ok = True
    for g, records in exhaustive_runs.values():
        for _p, _kind, s, orc, st in records:
            if st.values() != orc.values() or st.values() != s:
                ok = False
    report(capsys, 6, ok)


def test_criterion_7_constituent_codes(capsys, ex1, ex2):
    """The Cauchy codes are MDS by enumeration.  The Gabidulin constituent
    of every code in criterion 9's scan, and random column puncturings of
    ex1's and ex2's, are MRD by Gabidulin's theorem (certify_gabidulin)."""
    ok = True
    for N in range(1, 5):
        if not verify_mds(build_mds(N, GF(next_prime(2 * N)))):
            ok = False
    shapes = gabidulin_shapes()
    for d in shapes.values():
        if not certify_gabidulin(constituents(d)[1]):
            ok = False
    mrds = [constituents(g.derived)[1] for g in (ex1, ex2)]
    rng = random.Random(1)
    for trial in range(20):
        base = mrds[trial % 2]
        size = rng.randint(base.k + 1, base.n)
        idx = sorted(rng.sample(range(base.n), size))
        if not certify_gabidulin(punctured(base, idx)):
            ok = False
    report(capsys, 7, ok and len(shapes) == 197)


def test_criterion_8_streaming_simulation(capsys, ex1, ex2):
    ok = True
    for g in (ex1, ex2):
        d = g.derived
        for seed in range(1000):
            rep, _ = simulate(g, 500, seed=seed, values=False)
            if rep.failures or rep.max_latency > d.T:
                ok = False
        # spot-check the arithmetic path: decoded values equal the sent ones
        for seed in range(5):
            rep, _ = simulate(g, 500, seed=seed, values=True)
            if not delay_check(rep, d.T):
                ok = False
    report(capsys, 8, ok)


def test_criterion_9_field_size(capsys):
    ok = True
    for d in scan_parameter_space() + scan_short_windows():
        if not is_prime(d.q) or d.q < 2 * d.N:
            ok = False
        if any(is_prime(p) for p in range(2 * d.N, d.q)):
            ok = False  # a smaller admissible prime exists
        if d.m != d.k + d.delta or d.m > d.T_eff:
            ok = False
        if d.q ** d.m > (2 * d.N) ** d.T_eff * 2 ** d.T_eff:
            ok = False
    report(capsys, 9, ok)


def test_no_plan_is_longer_than_k():
    """The bound behind gf's slot capacity, measured: no encoder plan of a
    code in criterion 9's scan has more than k steps, and the longest
    oracle plan over the block patterns of each gate code has exactly k,
    far below the DOT_TERMS past which evaluate_plans refuses a plan."""
    for d in scan_parameter_space() + scan_short_windows():
        assert max(len(steps) for steps in build_code(d).encoder_plan) <= d.k
    for params in GATE_CODES:
        g = build_code(validate_and_derive(StreamParams(*params)))
        d = g.derived
        longest = max(len(steps) for p in enumerate_block_patterns(d.n, d.B, d.N)
                      for _, steps in oracle_plan(g, frozenset(p.erased)).values())
        assert longest == d.k


def diagonal_misses(g) -> tuple[int, int]:
    """(admissible diagonal patterns, symbols the oracle misses on them).

    Cutting an admissible stream to the n slots of one diagonal gives an
    admissible horizon-n pattern, and padding such a pattern with clean
    slots gives an admissible stream, so these are exactly the diagonals
    admissible streams produce.  A cold-start diagonal erases a subset of
    one, and fewer erasures never delay the oracle.  A symbol j misses when
    it has no plan or its time is past its deadline min(j + T_eff, n - 1),
    the rule stream_decode applies to every diagonal.
    """
    d = g.derived
    count = misses = 0
    for size in range(d.n + 1):
        for e in combinations(range(d.n), size):
            if not is_admissible(ErasurePattern(d.n, e), d.W, d.B, d.N):
                continue
            count += 1
            plan = oracle_plan(g, frozenset(e))
            misses += sum(1 for j in range(d.k)
                          if j not in plan or plan[j][0] > d.deadlines[j])
    return count, misses


def test_criterion_10_every_admissible_diagonal_meets_its_deadlines(capsys, ex1):
    """The stream guarantee by enumeration: every diagonal pattern that an
    admissible stream can produce recovers every source symbol by its
    deadline, so every admissible stream of any length decodes within
    T_eff.  Criterion 8 samples streams; this covers them all."""
    expected = [443, 147, 3, 42, 22, 13, 39]
    got = [diagonal_misses(build_code(validate_and_derive(StreamParams(*params))))
           for params in GATE_CODES]
    ok = got == [(count, 0) for count in expected]
    # negative control: with P[0, 0] zeroed, ex1 misses deadlines
    ok = ok and diagonal_misses(mutated(ex1, 0, 0, -ex1.P[0, 0]))[1] > 0
    report(capsys, 10, ok)


@given(st.sampled_from(accepted_small_params()))
@settings(derandomize=True, max_examples=30, deadline=None)
def test_gate_holds_on_any_small_code(params):
    """Criterion 10's gate on a drawn code: every admissible horizon-n
    pattern meets its deadlines under oracle_plan."""
    count, misses = diagonal_misses(build_code(validate_and_derive(StreamParams(*params))))
    assert count > 0 and misses == 0
