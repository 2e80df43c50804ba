import dataclasses
import random
from pathlib import Path

import pytest

from streamfec.channel import ERASED, ErasurePattern, apply
from streamfec.stream import (StreamEncoder, StreamError, delay_check, encode_stream,
                              format_trace, parse_trace, simulate, stream_decode)
from streamfec.construction import StreamParams, build_code, encode_block, validate_and_derive
from streamfec import decoder
from streamfec.gf import FieldError


def random_packets(g, count, seed):
    rng = random.Random(seed)
    ext = g.field()
    return [[ext.random_element(rng) for _ in range(g.derived.k)] for _ in range(count)]


class TestEncoder:
    def test_systematic_rows_carry_current_packet(self, ex1):
        src = random_packets(ex1, 8, 0)
        sent = encode_stream(src, ex1)[:len(src)]
        k = ex1.derived.k
        for t, p in enumerate(src):
            assert sent[t][:k] == p

    def test_parity_rows_match_block_code_diagonals(self, ex1):
        d = ex1.derived
        src = random_packets(ex1, 30, 1)
        sent = encode_stream(src, ex1)[:len(src)]
        zero = [ex1.field().zero] * d.k

        def s(t):
            return src[t] if 0 <= t < len(src) else zero

        # channel symbol j at slot t equals symbol j of the codeword for
        # the diagonal starting at t - j
        for t in range(len(src)):
            for j in range(d.k, d.n):
                d0 = t - j
                block = [s(d0 + i)[i] for i in range(d.k)]
                cw = encode_block(block, ex1)
                assert sent[t][j] == cw[j]

    def test_flush_completes_all_diagonals(self, ex2):
        d = ex2.derived
        src = random_packets(ex2, 5, 2)
        sent = encode_stream(src, ex2)
        assert len(sent) == 5 + d.n - 1

    def test_wrong_width_rejected(self, ex1):
        enc = StreamEncoder(ex1)
        with pytest.raises(StreamError):
            enc.push([ex1.field().zero] * 6)


class TestDecode:
    def test_clean_stream_round_trip_zero_latency(self, ex1):
        src = random_packets(ex1, 12, 3)
        sent = encode_stream(src, ex1)
        decoded, rep = stream_decode(sent, ex1)
        assert decoded == src
        assert rep.failures == ()
        assert rep.max_latency == 0
        assert delay_check(rep, ex1.derived.T_eff)

    def test_full_burst_recovered_within_delay(self, ex1):
        d = ex1.derived
        src = random_packets(ex1, 25, 4)
        sent = encode_stream(src, ex1)
        pat = ErasurePattern.make(len(sent), range(10, 10 + d.B))
        decoded, rep = stream_decode(apply(sent, pat), ex1)
        assert rep.failures == ()
        assert decoded == src
        assert rep.max_latency <= d.T_eff
        assert delay_check(rep, d.T_eff)

    def test_burst_at_stream_start(self, ex2):
        d = ex2.derived
        src = random_packets(ex2, 20, 5)
        sent = encode_stream(src, ex2)
        pat = ErasurePattern.make(len(sent), range(d.B))
        decoded, rep = stream_decode(apply(sent, pat), ex2)
        assert rep.failures == ()
        assert decoded == src
        assert rep.max_latency <= d.T_eff

    def test_unaffected_packets_have_zero_latency(self, ex1):
        src = random_packets(ex1, 30, 6)
        sent = encode_stream(src, ex1)
        pat = ErasurePattern.make(len(sent), range(15, 18))
        _, rep = stream_decode(apply(sent, pat), ex1)
        assert rep.latencies[2] == 0
        assert rep.latencies[29] == 0

    def test_inadmissible_loss_reported_not_raised(self, ex1):
        d = ex1.derived
        src = random_packets(ex1, 20, 7)
        sent = encode_stream(src, ex1)
        pat = ErasurePattern.make(len(sent), range(5, 5 + d.B + 2))
        _, rep = stream_decode(apply(sent, pat), ex1)
        assert rep.failures
        assert not delay_check(rep, d.T_eff)

    def test_plan_only_matches_value_mode_latencies(self, ex2):
        src = random_packets(ex2, 25, 8)
        sent = encode_stream(src, ex2)
        pat = ErasurePattern.make(len(sent), [3, 4, 5, 6, 14, 17])
        got = apply(sent, pat)
        _, rep_vals = stream_decode(got, ex2)
        masked = [ERASED if p is ERASED else () for p in got]
        _, rep_plan = stream_decode(masked, ex2, values=False)
        assert rep_plan.latencies == rep_vals.latencies
        assert rep_plan.failures == rep_vals.failures

    def test_short_packet_rejected(self, ex1):
        sent = encode_stream(random_packets(ex1, 5, 12), ex1)
        sent[3] = sent[3][:4]
        with pytest.raises(StreamError):
            stream_decode(sent, ex1)

    def test_stream_too_short(self, ex1):
        with pytest.raises(StreamError):
            stream_decode([()] * 5, ex1, num_source=10)

    def test_plan_only_latencies_match_golden(self, ex1, ex2):
        """Seeded plan-only streams of ex1, ex2 and the W <= T code
        (6,9,3,2), admissible or not, some losing slot 0 and the last slot:
        one line per stream (code, seed, erased slots, erased_slots, then the
        per-packet latency, - for a failure) equals tests/golden."""
        codes = [ex1, ex2, build_code(validate_and_derive(StreamParams(6, 9, 3, 2)))]
        lines = []
        for g in codes:
            d = g.derived
            for seed in range(14):
                rng = random.Random(seed)
                length = rng.randint(0, 30)
                horizon = length + d.n - 1
                rate = (0.05, 0.1, 0.2, 0.4)[seed % 4]
                erased = {t for t in range(horizon) if rng.random() < rate}
                if seed % 5 == 0:
                    erased |= {0, horizon - 1}
                pat = ErasurePattern.make(horizon, erased)
                _, rep = stream_decode(apply([()] * horizon, pat), g,
                                       num_source=length, values=False)
                lat = " ".join("-" if v is None else str(v) for v in rep.latencies)
                lines.append(f"{d.W},{d.T},{d.B},{d.N} {seed} [{pat.to_text()}] "
                             f"{rep.erased_slots}: {lat}")
        golden = Path(__file__).parent / "golden" / "stream_latencies.txt"
        assert "\n".join(lines) + "\n" == golden.read_text()


class TestSimulate:
    def test_seeded_runs_reproduce(self, ex1):
        rep_a, pat_a = simulate(ex1, 60, seed=5)
        rep_b, pat_b = simulate(ex1, 60, seed=5)
        assert rep_a == rep_b
        assert pat_a.erased == pat_b.erased

    def test_value_checked_runs_recover_everything(self, ex2):
        d = ex2.derived
        for seed in range(5):
            rep, _ = simulate(ex2, 80, seed=seed)
            assert rep.failures == ()
            assert rep.max_latency <= d.T_eff

    def test_plan_only_equals_value_mode(self, ex1):
        for seed in range(3):
            rep_v, _ = simulate(ex1, 60, seed=seed, values=True)
            rep_p, _ = simulate(ex1, 60, seed=seed, values=False)
            assert rep_v == rep_p


class TestReport:
    def test_json_keys(self, ex1):
        rep, _ = simulate(ex1, 40, seed=1)
        obj = rep.to_json_obj()
        assert set(obj) == {"packets", "erased", "recovered", "max_latency", "failures"}
        assert obj["packets"] == 40
        assert obj["recovered"] == 40 - len(obj["failures"])

    def test_delay_check_within_budget(self, ex1):
        rep, _ = simulate(ex1, 40, seed=2)
        assert delay_check(rep, ex1.derived.T_eff)
        assert not delay_check(rep, rep.max_latency - 1)


class TestTrace:
    def test_out_of_range_coefficient_rejected(self, ex1):
        with pytest.raises(FieldError):
            parse_trace("0: 9,0,0,0,0,0,0,0,0\n", ex1.field(), ex1.derived.n)

    def test_non_integer_coefficient_rejected(self, ex1):
        with pytest.raises(FieldError):
            parse_trace("0: x\n", ex1.field(), ex1.derived.n)

    def test_wrong_width_rejected(self, ex1):
        one, two = "0,0,0,0,0,0,0,0,1", "0,0,0,0,0,0,0,0,1 0,0,0,0,0,0,0,0,2"
        with pytest.raises(StreamError, match="packet 0 has 1 symbols"):
            parse_trace(f"0: {one}\n1: ERASED\n2: {two}\n", ex1.field(), ex1.derived.n)

    def test_slot_label_must_match_line(self, ex1):
        sent = encode_stream(random_packets(ex1, 3, 11), ex1)[:3]
        text = format_trace(sent).replace("1: ", "7: ", 1)
        with pytest.raises(StreamError, match="line 1 is labelled slot '7'"):
            parse_trace(text, ex1.field(), ex1.derived.n)

    def test_round_trip(self, ex1):
        src = random_packets(ex1, 6, 9)
        sent = encode_stream(src, ex1)
        pat = ErasurePattern.make(len(sent), [2, 3])
        got = apply(sent, pat)
        text = format_trace(got)
        assert "2: ERASED" in text.splitlines()[2]
        back = parse_trace(text, ex1.field(), ex1.derived.n)
        assert back == got

    def test_formats_each_slot_on_own_line(self, ex1):
        src = random_packets(ex1, 3, 10)
        sent = encode_stream(src, ex1)[:len(src)]
        text = format_trace(sent)
        lines = text.strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("0: ")
        assert len(lines[1].split(": ", 1)[1].split()) == ex1.derived.n


def test_oracle_plan_cache_stays_under_its_cap(ex1, monkeypatch):
    # each slot lost with probability 0.3: inadmissible, many distinct patterns
    rng = random.Random(31)
    src = random_packets(ex1, 120, 32)
    sent = encode_stream(src, ex1)
    pat = ErasurePattern.make(len(sent), [t for t in range(len(sent)) if rng.random() < 0.3])
    received = apply(sent, pat)

    free = dataclasses.replace(ex1)
    want = stream_decode(received, free, num_source=len(src))
    assert want[1].failures and len(free._plan_cache) > 8

    monkeypatch.setattr(decoder, "ORACLE_PLAN_CAP", 8)
    capped = dataclasses.replace(ex1)
    assert stream_decode(received, capped, num_source=len(src)) == want
    assert len(capped._plan_cache) == 8
    assert stream_decode(received, capped, num_source=len(src)) == want
    assert len(capped._plan_cache) == 8
