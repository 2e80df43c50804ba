"""Mutation gate: every listed mutant of src must be killed by its tests.

A mutant is one exact text replacement in one file, with the reason the
original text matters and the tests that must fail once it is replaced.
Each mutant runs in a fresh temporary copy of the repository, under a
timeout; a test run that fails or times out kills it, and the report says
which.  A run that stops for any other reason, such as a test that cannot
be collected, is an error, not a kill.  The unmutated copy must first pass
every named test, so a kill is the mutant's doing.  The old text must occur
exactly once in its file, so a mutant that no longer matches the code
fails the gate instead of passing it silently.  A change that adds a check
adds the mutant that removes it.

Usage:  python scripts/mutation_gate.py
Exit status 0 iff the baseline passes and every mutant is killed.  Needs
pytest and hypothesis; uses nothing else outside the standard library.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 60  # per pytest run; the named tests take seconds


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    reason: str
    tests: tuple[str, ...]  # pytest node ids that must fail


MUTANTS = (
    Mutant("field-check-passes-all", "src/streamfec/gf.py",
           "                raise _operand_error(self, v)\n", "                pass\n",
           "Field.check is the one membership test behind every boundary below.",
           ("tests/test_gf.py::TestPackedArithmetic::test_check_rejects_the_first_non_element",)),
    Mutant("block-symbols-unchecked", "src/streamfec/decoder.py",
           "    g.field().check(v for v in y if v is not ERASED)\n", "",
           "The block decoders read y through a trusting kernel; a symbol no plan "
           "reads is otherwise never checked.",
           ("tests/test_decoder.py::TestOracle::test_received_symbol_no_plan_reads_checked",)),
    Mutant("stream-symbols-unchecked", "src/streamfec/stream.py",
           "            zero.field.check(p)  # read by a plan or not\n", "            pass\n",
           "stream_decode reads received symbols through a trusting kernel.",
           ("tests/test_stream.py::TestDecode::test_received_symbol_no_plan_reads_checked",)),
    Mutant("push-packet-unchecked", "src/streamfec/stream.py",
           "        f.check(symbols)\n", "",
           "push reads its packet through a trusting kernel: an int or a foreign "
           "element would enter the window and every later packet's parities.",
           ("tests/test_stream.py::TestEncoderEntry::test_non_element_refused[int-push]",
            "tests/test_stream.py::TestEncoderEntry::"
            "test_foreign_field_element_refused[GF(5^9)-push]",
            "tests/test_stream.py::TestEncoderEntry::test_refused_packet_leaves_the_window")),
    Mutant("encode-block-unchecked", "src/streamfec/construction.py",
           "    ext.check(s)\n", "",
           "encode_block reads its block through a trusting kernel: a foreign "
           "element's packed value would be encoded as if it were in the code's field.",
           ("tests/test_stream.py::TestEncoderEntry::test_non_element_refused[int-encode_block]",
            "tests/test_stream.py::TestEncoderEntry::"
            "test_foreign_field_element_refused[GF(7)-encode_block]")),
    Mutant("matmul-entries-unchecked", "src/streamfec/matrix.py",
           "        f.check(v for r in self.rows + other.rows for v in r)\n", "",
           "Mat does not check its entries, and a product with no rows or no "
           "columns multiplies none of them.",
           ("tests/test_matrix.py::TestMul::test_foreign_entries_rejected",)),
    Mutant("parity-shape-unchecked", "src/streamfec/construction.py",
           "        if (self.P.nrows, self.P.ncols) != (d.k, d.B):\n",
           "        if False:\n",
           "A k x 4 P for an n = 12 code encodes 11-symbol codewords, and the "
           "oracle reports every symbol recovered.",
           ("tests/test_construction.py::TestCodeIsItsParity::test_wrong_shape_parity_rejected",)),
    Mutant("parity-entries-unchecked", "src/streamfec/construction.py",
           "        self.P.field.check(v for r in self.P.rows for v in r)\n", "",
           "Every plan coefficient is an entry of P, and the kernel trusts them.",
           ("tests/test_construction.py::TestCodeIsItsParity::test_foreign_parity_entry_rejected",)),
    Mutant("verify-mds-rank-k-minus-2", "src/streamfec/codes.py",
           "if gen.select_columns(list(cols)).rank() != k:",
           "if gen.select_columns(list(cols)).rank() < k - 1:",
           "A non-MDS code whose worst k-subset has rank k - 1 must fail the check.",
           ("tests/test_codes.py::TestVerifyMds::test_repeated_parity_column_fails",)),
    Mutant("reduce-never-folds", "src/streamfec/gf.py",
           "        if v & low != v:\n", "        if False:\n",
           "A product's slots of degree >= m must reduce through the modulus.",
           ("tests/test_gf.py::TestPackedArithmetic::test_every_pair_matches_reference",)),
    Mutant("stream-too-short-unchecked", "src/streamfec/stream.py",
           "    if num_source < 0 or num_source + n - 1 > pattern.horizon:\n"
           "        raise StreamError(\"stream too short for the requested source packet "
           "count\")\n",
           "",
           "Without it, 3 encoded packets decode as 10, all at latency 0.",
           ("tests/test_stream.py::TestDecode::test_stream_too_short",)),
    Mutant("long-plan-accepted", "src/streamfec/gf.py",
           "            if len(steps) > DOT_TERMS:\n", "            if False:\n",
           "Slots hold DOT_TERMS raw products; a longer plan summed bare would "
           "carry out of its slots, so it is refused.",
           ("tests/test_gf.py::TestPackedArithmetic::test_plan_past_dot_terms_refused[7-9]",)),
    Mutant("derived-params-unchecked", "src/streamfec/construction.py",
           "        if d != validate_and_derive(StreamParams(d.W, d.T, d.B, d.N)):\n",
           "        if False:\n",
           "A derived T_eff of 20 for ex1 makes every deadline 11 and is exported; "
           "derived must be what its (W, T, B, N) derive.",
           ("tests/test_construction.py::TestCodeIsItsParity::"
            "test_derived_params_not_from_w_t_b_n_rejected[T_eff]",)),
    Mutant("explicit-modulus-reducible", "src/streamfec/gf.py",
           "    if not is_irreducible(modulus, q):\n", "    if False:\n",
           "A modulus from a JSON bundle is checked only in GF; a reducible one "
           "makes a ring with zero divisors, not a field.",
           ("tests/test_gf.py::TestFindIrreducible::test_reducible_moduli_rejected",)),
    Mutant("parity-field-unchecked", "src/streamfec/construction.py",
           "        if (self.P.field.q, self.P.field.m) != (d.q, d.m):\n",
           "        if False:\n",
           "A P over GF(5^9) for a GF(7^9) code exports q = 7 beside a G over GF(5^9).",
           ("tests/test_construction.py::TestCodeIsItsParity::"
            "test_parity_over_wrong_field_rejected",)),
    Mutant("deadline-one-slot-late", "src/streamfec/construction.py",
           "i + self.T_eff, ", "i + self.T_eff + 1, ",
           "A symbol recovered one slot after T_eff would count as on time.",
           ("tests/test_stream.py::TestDecode::"
            "test_packet_plans_read_received_slots_up_to_the_delay[params0]",)),
    Mutant("slot-zero-read-as-virtual", "src/streamfec/stream.py",
           "zero if t + off < 0 else", "zero if t + off <= 0 else",
           "Only the cold-start slots before 0 read as zero; slot 0 is received.",
           ("tests/test_stream.py::TestDecode::test_matches_reference_decoder[params0]",)),
    Mutant("packet-plan-key-one-slot-short", "src/streamfec/stream.py",
           "erased[ahead] < t + n:", "erased[ahead] < t + n - 1:",
           "A packet plan's key must hold the erasure bits of all n + k - 1 "
           "slots its k diagonals span, or two patterns share one plan.",
           ("tests/test_stream.py::TestDecode::test_sliding_key_matches_big_mask_key[params0]",
            "tests/test_stream.py::TestDecode::test_matches_reference_decoder[params2]")),
    Mutant("packet-plan-key-slid-too-far", "src/streamfec/stream.py",
           "local >>= t - prev\n", "local >>= t - prev + 1\n",
           "The key slides by the slots between two erased source packets; one "
           "more drops the erasure bit of the oldest slot the key must hold.",
           ("tests/test_stream.py::TestDecode::test_sliding_key_matches_big_mask_key[params0]",)),
    Mutant("oracle-rank-test-dropped", "src/streamfec/decoder.py",
           "        if not any(col[len(basis):]):\n", "        if True:\n",
           "A symbol whose unit vector lies outside the received span is lost; "
           "without the rank test the oracle plans it from the basis anyway.",
           ("tests/test_decoder.py::TestOracle::test_too_many_erasures_reported_failed",)),
    Mutant("rref-row-update-adds", "src/streamfec/matrix.py",
           "(slot_q - e) * prow", "e * prow",
           "A row update subtracts e times the pivot row; slot_q - e is -e with no "
           "slot negative, and e itself adds it instead.",
           ("tests/test_matrix.py::test_sparse_elimination_matches_dense_reference[0.5-7-9]",
            "tests/test_decoder.py::TestOraclePlanByRank::"
            "test_plans_reproduce_unit_vectors_on_admissible_patterns[ex1]")),
    Mutant("rref-pivot-row-unscaled", "src/streamfec/matrix.py",
           "prow = rows[r] = reduce(rows[r] * inv, ncols)", "prow = rows[r]",
           "A reduced echelon pivot is one; the updates then cancel each pivot "
           "column exactly.",
           ("tests/test_matrix.py::test_sparse_elimination_matches_dense_reference[0.5-7-9]",
            "tests/test_decoder.py::TestOraclePlanByRank::"
            "test_plans_reproduce_unit_vectors_on_admissible_patterns[ex1]")),
    Mutant("rref-stops-one-row-early", "src/streamfec/matrix.py",
           "        if r == len(rows):\n", "        if r == len(rows) - 1:\n",
           "Elimination may stop only once every row holds a pivot; one row "
           "sooner leaves the last row unreduced and its pivot unfound.",
           ("tests/test_matrix.py::test_sparse_elimination_matches_dense_reference[0.5-7-9]",
            "tests/test_decoder.py::TestOraclePlanByRank::"
            "test_plans_reproduce_unit_vectors_on_admissible_patterns[ex1]")),
    Mutant("oracle-received-sum-unnegated", "src/streamfec/decoder.py",
           "(f._slot_q - mc) * blocks[c]", "mc * blocks[c]",
           "A received source symbol takes -sum_c mu_c P[j, c], the coefficient "
           "that cancels its row, not the sum itself.",
           ("tests/test_decoder.py::TestOraclePlanMatchesReference::"
            "test_admissible_block_patterns[ex1]",
            "tests/test_decoder.py::TestOraclePlanByRank::"
            "test_plans_reproduce_unit_vectors_on_admissible_patterns[ex1]")),
    Mutant("oracle-received-symbol-dropped", "src/streamfec/decoder.py",
           "list(y[:d.k])", "[None] * d.k",
           "A received source symbol is its own value, copied from the block; "
           "no plan is evaluated for it.",
           ("tests/test_decoder.py::TestOracle::test_clean_block_recovers_at_own_slot",
            "tests/test_decoder.py::TestDecodeReport::"
            "test_lost_symbols_fail_beside_received_ones")),
    Mutant("solve-value-block-one-off", "src/streamfec/decoder.py",
           "rows[r] >> rhs * w & low", "rows[r] >> (rhs - 1) * w & low",
           "An unknown's value is its pivot row's last block, the right-hand side; "
           "the block before it is a coefficient.",
           ("tests/test_decoder.py::test_solve_matches_kernel_reference",
            "tests/test_decoder.py::TestStructuredMatchesOracle::test_all_block_patterns[ex1]")),
    Mutant("solve-known-symbol-unnegated", "src/streamfec/decoder.py",
           "(sq - p.pk) * vals[i].pk", "p.pk * vals[i].pk",
           "A known symbol leaves the right-hand side as y - P[i, c] x_i; slot_q - "
           "P[i, c] is -P[i, c] with no slot negative, and P[i, c] adds it instead.",
           ("tests/test_decoder.py::test_solve_matches_kernel_reference",
            "tests/test_decoder.py::TestStructuredMatchesOracle::test_all_block_patterns[ex1]")),
    Mutant("outer-bound-first-block-read-as-full-span", "src/streamfec/decoder.py",
           "delta + (blocks[0] + 1) * N", "B",
           "A burst that erases middle symbols must pin the outer ones by the end "
           "of the first affected sub-block's columns, not of the whole parity span.",
           ("tests/test_decoder.py::TestStructuredMatchesOracle::"
            "test_recovery_times_match_golden[ex2]",
            "tests/test_decoder.py::TestStructuredMatchesOracle::"
            "test_recovery_times_follow_the_schedule[params1]")),
    Mutant("outer-solve-without-interference", "src/streamfec/decoder.py",
           "received(0, hi), u_mid, ", "received(0, hi), [], ",
           "The outer solve reads columns the erased middle symbols meet; only "
           "nulling them out leaves the outer symbols alone in the system.",
           ("tests/test_decoder.py::TestStructuredMatchesOracle::"
            "test_recovery_times_match_golden[ex1]",
            "tests/test_decoder.py::TestStructuredMatchesOracle::"
            "test_recovery_times_match_golden[ex2]")),
    Mutant("outer-bound-arbitrary-read-as-full-span", "src/streamfec/decoder.py",
           'hi = (N if kind == "arbitrary"', 'hi = (B if kind == "arbitrary"',
           "Under at most N erasures the outer symbols are pinned by the first N "
           "parity columns, by their deadline T_eff.",
           ("tests/test_decoder.py::TestStructuredMatchesOracle::"
            "test_recovery_times_match_golden[ex1]",
            "tests/test_decoder.py::TestStructuredMatchesOracle::"
            "test_recovery_times_match_golden[ex2]")),
    Mutant("packet-plan-reads-permuted", "src/streamfec/stream.py",
           "else None, tuple(reads), steps)", "else None, tuple(reversed(reads)), steps)",
           "A packet plan's steps index its reads by position; permuted reads feed "
           "each coefficient the wrong received symbol.",
           ("tests/test_stream.py::TestDecode::test_matches_reference_decoder[params0]",)),
    Mutant("inverse-table-hit-returns-self", "src/streamfec/gf.py",
           "        if inv is not None:\n            return FieldElement(f, inv)\n",
           "        if inv is not None:\n            return self\n",
           "A table hit must return the stored inverse, the Euclid result.",
           ("tests/test_gf.py::TestInverseTable::"
            "test_second_call_is_a_hit_equal_to_euclid_and_fermat[2-5]",)),
    Mutant("inverse-table-reverse-entry-dropped", "src/streamfec/gf.py",
           "            f._inv[inv] = self.pk\n", "",
           "Inversion is an involution: a miss stores both directions.",
           ("tests/test_gf.py::TestInverseTable::test_a_miss_stores_the_reverse_entry",)),
    Mutant("inverse-table-cap-dropped", "src/streamfec/gf.py",
           "        if len(f._inv) < INVERSE_CAP - 1:  # room for both entries\n",
           "        if True:\n",
           "Without the cap a large field stores one entry per element it ever inverts.",
           ("tests/test_gf.py::TestInverseTable::test_table_stops_growing_at_the_cap",)),
    Mutant("bool-scalar-accepted", "src/streamfec/gf.py",
           "            if isinstance(value, bool):", "            if False:",
           "GF(7, 9)(True) would be one, though a bool is refused as q, m and a "
           "coefficient.",
           ("tests/test_gf.py::TestExtensionField::test_bool_scalar_rejected",)),
    Mutant("horizon-unchecked", "src/streamfec/channel.py",
           "        if type(self.horizon) is not int or self.horizon < 0:\n", "        if False:\n",
           "ErasurePattern(-3, ()) would be a pattern with a negative horizon.",
           ("tests/test_channel.py::TestErasurePattern::test_bad_horizon_rejected[-3]",)),
    Mutant("slot-width-unpadded", "src/streamfec/gf.py",
           "(q - 1) ** 2).bit_length() + q.bit_length()\n", "(q - 1) ** 2).bit_length()\n",
           "Without the spare bits x c >> s overshoots x // q by one for a slot "
           "value near 2^s, and _mod_slots drives that slot negative.",
           ("tests/test_gf.py::test_reduction_at_its_largest_slot_values",)),
    Mutant("barrett-mu-one-degree-low", "src/streamfec/gf.py",
           "[0] * (2 * m - 2) + [1]", "[0] * (2 * m - 3) + [1]",
           "The Barrett quotient is exact only with mu = floor(x^(2m-2) / f).",
           ("tests/test_gf.py::TestPackedArithmetic::test_every_pair_matches_reference",)),
    Mutant("barrett-remainder-unmasked", "src/streamfec/gf.py",
           "v = (v & low) + ((a * self._nf) & low)", "v = (v & low) + (a * self._nf)",
           "A nf spans 2m - 2 slots; its slots of degree >= m are A f's, not the "
           "remainder's, and would stay in the packed element.",
           ("tests/test_gf.py::test_reduction_at_its_largest_slot_values",
            "tests/test_gf.py::TestPackedArithmetic::test_every_pair_matches_reference[2-4]",
            "tests/test_gf.py::TestPackedArithmetic::test_every_pair_matches_reference[3-3]",
            "tests/test_gf.py::TestPackedArithmetic::test_seeded_pairs_match_reference")),
    Mutant("erased-index-type-unchecked", "src/streamfec/channel.py",
           "if type(e) is not int or not 0 <= e < self.horizon:", "if not 0 <= e < self.horizon:",
           "ErasurePattern(5, (1.5,)) would pass to plan_stream, which shifts by each index.",
           ("tests/test_channel.py::TestErasurePattern::test_non_int_index_rejected[1.5]",)),
    Mutant("ben-or-one-round-short", "src/streamfec/gf.py",
           "    for _ in range(m // 2):\n", "    for _ in range(m // 2 - 1):\n",
           "A reducible f may have no factor of degree below m/2: x^(q^(m/2)) - x "
           "must be tested too.",
           ("tests/test_gf.py::TestFindIrreducible::test_is_irreducible_matches_brute_force",)),
    Mutant("euclid-bezout-sign", "src/streamfec/gf.py",
           "self._pack([-c % self.q for c in quot])", "self._pack([c for c in quot])",
           "The Bezout coefficient keeps s a == r only as s0 - quot s1.",
           ("tests/test_gf.py::TestInverse::test_equals_fermat_reference",)),
    Mutant("ben-or-gcd-without-x", "src/streamfec/gf.py",
           "f._euclid(h - f.alpha)", "f._euclid(h)",
           "Ben-Or's gcd is with x^(q^i) - x; x^(q^i) alone is a unit whenever x "
           "does not divide f.",
           ("tests/test_gf.py::TestFindIrreducible::test_is_irreducible_matches_brute_force",)),
    Mutant("admissible-window-one-slot-wide", "src/streamfec/channel.py",
           "while erased[lo] <= e - W:", "while erased[lo] < e - W:",
           "The window that ends at erasure e is (e - W, e]; keeping e - W makes it "
           "W + 1 slots, and two events W slots apart read as one window.",
           ("tests/test_channel.py::TestIsAdmissible::test_matches_window_by_window_reference",
            "tests/test_channel.py::TestIsAdmissible::"
            "test_long_sampled_streams_match_reference[10-9-5-3]")),
    Mutant("admissible-entering-erasure-dropped", "src/streamfec/channel.py",
           "event_kind(erased[lo:j + 1], B, N)", "event_kind(erased[lo:j], B, N)",
           "Each window checked must hold the erasure that ends it, or a burst of "
           "B + 1 reads as a burst of B.",
           ("tests/test_channel.py::TestIsAdmissible::test_long_burst_violates_both_clauses",
            "tests/test_channel.py::TestIsAdmissible::"
            "test_long_sampled_streams_match_reference[6-9-3-2]")),
    Mutant("admissible-small-window-skipped", "src/streamfec/channel.py",
           "if j - lo >= N and", "if j - lo > N and",
           "Only a window of at most N erasures is one event whatever its shape; "
           "one of N + 1 must reach event_kind, or N + 1 scattered erasures pass.",
           ("tests/test_channel.py::TestIsAdmissible::"
            "test_window_of_n_plus_one_scattered_erasures_refused",
            "tests/test_channel.py::TestIsAdmissible::"
            "test_long_sampled_streams_match_reference[10-9-5-3]",
            "tests/test_channel.py::TestIsAdmissible::"
            "test_long_sampled_streams_match_reference[11-10-4-2]",
            "tests/test_channel.py::TestIsAdmissible::"
            "test_long_sampled_streams_match_reference[6-9-3-2]")),
    Mutant("plan-stream-one-packet-short", "src/streamfec/stream.py",
           "erased[:bisect_left(erased, num_source)]",
           "erased[:bisect_left(erased, num_source - 1)]",
           "The last source packet, when erased, needs its plan and its latency.",
           ("tests/test_stream.py::TestDecode::test_plan_only_latencies_match_golden",
            "tests/test_stream.py::TestDecode::test_matches_reference_decoder[params0]")),
    Mutant("sampler-below-one-unchecked", "src/streamfec/channel.py",
           "    if min(W, B, N) < 1:  # below(0) would draw forever\n"
           "        raise ChannelError(f\"W, B and N must be >= 1, got {W}, {B}, {N}\")\n", "",
           "getrandbits(0) is 0, so a draw below 0 never ends: W, B or N below 1 "
           "must be refused before the first draw.",
           ("tests/test_channel.py::TestSampleStreamPattern::"
            "test_window_burst_or_sparse_below_one_refused[W]",
            "tests/test_channel.py::TestSampleStreamPattern::"
            "test_window_burst_or_sparse_below_one_refused[B]",
            "tests/test_channel.py::TestSampleStreamPattern::"
            "test_window_burst_or_sparse_below_one_refused[N]")),
    Mutant("sample-pool-threshold-off-by-one", "src/streamfec/channel.py",
           "if span <= 21 + ", "if span < 21 + ",
           "sample draws from a pool for a 21-slot window and at most 5 erasures; "
           "its set branch redraws below 21, not below 20, and the pattern changes.",
           ("tests/test_channel.py::TestSampleStreamPattern::"
            "test_draws_match_randrange_randint_sample_reference[21]",)),
    Mutant("sampler-below-one-bit-short", "src/streamfec/channel.py",
           "k = n.bit_length()", "k = (n - 1).bit_length()",
           "randrange(n) draws n.bit_length() bits; for n a power of two one "
           "fewer also covers [0, n) but reads other values than randrange does.",
           ("tests/test_channel.py::TestSampleStreamPattern::"
            "test_draws_match_randrange_randint_sample_reference[2]",
            "tests/test_channel.py::TestSampleStreamPattern::test_long_patterns_match_golden")),
    Mutant("moore-row-from-c", "src/streamfec/codes.py",
           "mul, initial=field.one))", "mul, initial=c))",
           "A Moore row holds the points' images 1, c, c^2, ...; started at c it is "
           "c times the row, with the same row space, so only gen_moore shows it.",
           ("tests/test_codes.py::TestBuildGabidulin::"
            "test_moore_rows_match_frobenius_power_reference",
            "tests/test_codes.py::TestBuildGabidulin::test_moore_rows_are_frobenius_images",
            "tests/test_cli.py::test_golden_stdout[export_13_12_6_4-argv16]")),
    Mutant("masks-parity-swapped", "src/streamfec/gf.py",
           "((low & even, low & ~even), (high & even, high & ~even), quot, low)",
           "((low & ~even, low & even), (high & ~even, high & even), quot, low)",
           "_mod_slots reads the two slot groups alike, so only the masks' own "
           "reference sees the even and odd groups change places.",
           ("tests/test_gf.py::test_masks_match_slot_by_slot_reference[7-9]",
            "tests/test_gf.py::test_masks_match_slot_by_slot_reference[8209-1]")),
)


def _copy_repo(dest: Path) -> Path:
    shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info", "build"))
    return dest


def _run_tests(copy: Path, tests) -> str:
    """'passed', 'failed', 'timeout' or 'error' for pytest on the tests in copy."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                               *tests], cwd=copy, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    return {0: "passed", 1: "failed"}.get(proc.returncode, "error")


def _mutate(copy: Path, mutant: Mutant) -> None:
    path = copy / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"mutant {mutant.name}: old text occurs {text.count(mutant.old)} "
                         f"times in {mutant.file}, expected once")
    path.write_text(text.replace(mutant.old, mutant.new))


def main() -> int:
    start = time.monotonic()
    with tempfile.TemporaryDirectory() as tmp:
        named = sorted({t for m in MUTANTS for t in m.tests})
        baseline = _run_tests(_copy_repo(Path(tmp) / "baseline"), named)
        print(f"baseline: named tests {baseline}")
        if baseline != "passed":
            return 1
        killed = 0
        for i, mutant in enumerate(MUTANTS):
            t0 = time.monotonic()
            copy = _copy_repo(Path(tmp) / f"mutant{i}")
            _mutate(copy, mutant)
            outcome = _run_tests(copy, mutant.tests)
            shutil.rmtree(copy)
            verdict = {"failed": "killed", "timeout": "killed (timeout)",
                       "passed": "SURVIVED", "error": "ERROR"}[outcome]
            print(f"{verdict:17} {mutant.name} ({time.monotonic() - t0:.1f} s): {mutant.reason}")
            killed += outcome in ("failed", "timeout")
    print(f"{killed}/{len(MUTANTS)} mutants killed in {time.monotonic() - start:.0f} s")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
