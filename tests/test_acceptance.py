"""End-to-end acceptance gate.

Each test prints one CRITERION line (PASS/FAIL) so the suite output doubles
as the acceptance report.  The heavy exhaustive runs over both example codes
are computed once and shared by the recovery, deadline, and equivalence
criteria.
"""
import random
from fractions import Fraction

import pytest

from streamfec.channel import apply, enumerate_block_patterns, sample_stream_pattern
from streamfec.codes import build_gabidulin, build_mds, subcode_columns, verify_mds, verify_mrd
from streamfec.construction import (StreamParams, build_code, capacity, encode_block,
                                    validate_and_derive)
from streamfec.decoder import (StructuralFailureError, classify_pattern, deadline_table,
                               decode_structured, oracle_decode)
from streamfec.gf import GF, is_prime, next_prime
from streamfec.stream import delay_check, simulate


def report(capsys, num, ok):
    with capsys.disabled():
        print(f"\nCRITERION {num}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed"


def scan_parameter_space():
    out = []
    for T in range(1, 13):
        for B in range(1, T + 1):
            for N in range(1, B + 1):
                if T - N + 1 < B:
                    continue
                out.append(validate_and_derive(StreamParams(T + 1, T, B, N)))
    return out


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
                st = decode_structured(g, y, kind)
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
    # decode_structured raises StructuralFailureError whenever a null-out
    # leaves residual interference or the reduced system is not uniquely
    # solvable; records exist only because no such error fired.
    ok = True
    for g, records in exhaustive_runs.values():
        for _p, _kind, s, orc, st in records:
            if st.values() != orc.values() or st.values() != s:
                ok = False
    report(capsys, 6, ok)


def test_criterion_7_constituent_codes(capsys, ex1, ex2):
    ok = True
    for N in range(1, 5):
        if not verify_mds(build_mds(N, GF(next_prime(2 * N)))):
            ok = False
    for g in (ex1, ex2):
        if not verify_mrd(g.mrd, trials=100, seed=0):
            ok = False
    rng = random.Random(1)
    for trial in range(20):
        base = (ex1 if trial % 2 == 0 else ex2).mrd
        size = rng.randint(base.k + 1, base.n)
        idx = sorted(rng.sample(range(base.n), size))
        if not verify_mrd(subcode_columns(base, idx), trials=100, seed=trial):
            ok = False
    report(capsys, 7, ok)


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
    for d in scan_parameter_space():
        if not is_prime(d.q) or d.q < 2 * d.N:
            ok = False
        if any(is_prime(p) for p in range(2 * d.N, d.q)):
            ok = False  # a smaller admissible prime exists
        if d.m != d.k + d.delta or d.m > d.T:
            ok = False
        if d.q ** d.m > (2 * d.N) ** d.T * 2 ** d.T:
            ok = False
    report(capsys, 9, ok)
