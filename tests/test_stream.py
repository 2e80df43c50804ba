import dataclasses
import functools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from streamfec.channel import (ERASED, ErasurePattern, apply, is_admissible,
                               sample_stream_pattern)
from streamfec.stream import (StreamEncoder, StreamError, StreamReport, delay_check,
                              encode_stream, plan_stream, simulate, stream_decode)
from streamfec.construction import (StreamParams, build_code, encode_block,
                                    validate_and_derive)
from streamfec import decoder, stream
from streamfec.gf import GF, FieldMismatchError

from conftest import GATE_CODES, accepted_small_params, mutated


def random_packets(g, count, seed):
    rng = random.Random(seed)
    ext = g.field()
    return [[ext.random_element(rng) for _ in range(g.derived.k)] for _ in range(count)]


@functools.lru_cache(maxsize=None)
def code(params):
    return build_code(validate_and_derive(StreamParams(*params)))


def reference_decode(received, g, num_source, values=True):
    """stream_decode by its definition: for every diagonal, its erased
    positions as a frozenset, their oracle plan, and one sum of products for
    every source symbol the plan recovers by its deadline."""
    dd, zero = g.derived, g.field().zero
    n, k = dd.n, dd.k
    packets = [[None] * k for _ in range(num_source)] if values else None
    latency = [[None] * k for _ in range(num_source)]
    for d in range(-(k - 1), num_source):
        plan = decoder.oracle_plan(g, frozenset(p for p in range(max(0, -d), n)
                                                if received[d + p] is ERASED))
        diag = [zero if t < 0 else ERASED if received[t] is ERASED else received[t][p]
                for p, t in enumerate(range(d, d + n))] if values else ()
        for j, (rt, steps) in plan.items():
            if 0 <= d + j < num_source and rt <= dd.deadlines[j]:
                latency[d + j][j] = rt - j
                if values:
                    packets[d + j][j] = sum((c * diag[p] for p, c in steps), zero)
    report = StreamReport(sum(p is ERASED for p in received),
                          tuple(None if None in lat else max(lat) for lat in latency))
    return packets, report


def reference_encode(packets, g):
    """StreamEncoder by its definition: parity column c of the packet at t is
    the sum of coeff * symbol over encoder_plan[c] on the diagonal starting
    at t - (k + c), its source symbol i read from packet t - (k + c) + i,
    zero before 0."""
    k, zero = g.derived.k, g.field().zero
    out = []
    for t, p in enumerate(packets):
        row = list(p)
        for c, steps in enumerate(g.encoder_plan):
            start = t - (k + c)
            diag = [zero if start + i < 0 else packets[start + i][i] for i in range(k)]
            row.append(sum((coeff * diag[i] for i, coeff in steps), zero))
        out.append(row)
    return out


class TestEncoder:
    @pytest.mark.parametrize("params", [*GATE_CODES, "ex1 with P[3, 1] + 1"])
    def test_push_equals_per_column_reference(self, params):
        """The flat window and its re-indexed plans equal one diagonal list
        per parity column, for k = 1, delta = 0 and a code whose P is not
        the one build_code assembles."""
        g = mutated(code((10, 9, 5, 3)), 3, 1) if params == "ex1 with P[3, 1] + 1" else code(params)
        flush = [[g.field().zero] * g.derived.k] * (g.derived.n - 1)
        for seed in range(3):
            src = random_packets(g, 3 * g.derived.n, seed)
            assert encode_stream(src, g) == reference_encode(src + flush, g)

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


# Both encoders, each as a function of one packet or block of k source symbols.
ENCODERS = {"push": lambda g: StreamEncoder(g).push,
            "encode_block": lambda g: functools.partial(encode_block, g=g)}


class TestEncoderEntry:
    """StreamEncoder.push and encode_block admit a packet or block with one
    Field.check: they return the caller's elements and refuse, rather than
    convert, anything that is not an element of the code's field."""

    @pytest.mark.parametrize("encoder", ENCODERS)
    def test_systematic_positions_are_the_callers_elements(self, ex1, encoder):
        s = random_packets(ex1, 1, 21)[0]
        out = ENCODERS[encoder](ex1)(tuple(s))
        assert len(out) == ex1.derived.n
        assert all(a is b for a, b in zip(out, s))

    @pytest.mark.parametrize("encoder", ENCODERS)
    @pytest.mark.parametrize("bad", [3, True, None, (1,) * 9], ids=["int", "bool", "None", "coeffs"])
    def test_non_element_refused(self, ex1, encoder, bad):
        """Field.__call__ would take 3 and the coefficient tuple; the
        encoders take only elements."""
        s = random_packets(ex1, 1, 22)[0]
        s[3] = bad
        with pytest.raises(TypeError):
            ENCODERS[encoder](ex1)(s)

    @pytest.mark.parametrize("encoder", ENCODERS)
    @pytest.mark.parametrize("field", [(5, 9), (7, 1)], ids=["GF(5^9)", "GF(7)"])
    def test_foreign_field_element_refused(self, ex1, encoder, field):
        """Neither another extension field's element nor a prime-subfield
        one, which has the same packed value as an element of GF(7^9)."""
        s = random_packets(ex1, 1, 23)[0]
        s[3] = GF(*field).one
        with pytest.raises(FieldMismatchError):
            ENCODERS[encoder](ex1)(s)

    def test_refused_packet_leaves_the_window(self, ex1):
        """A refused packet, first or between two good ones, leaves the
        window as it was: the good packets encode as on a fresh encoder."""
        good = random_packets(ex1, 4, 24)
        enc, fresh = StreamEncoder(ex1), StreamEncoder(ex1)
        got = []
        for p in good:
            for bad in (3, None, GF(5, 9).one):
                with pytest.raises((TypeError, FieldMismatchError)):
                    enc.push([*p[:3], bad, *p[4:]])
            got.append(enc.push(p))
        assert got == [fresh.push(p) for p in good]


class TestDecode:
    def test_clean_stream_round_trip_zero_latency(self, ex1):
        src = random_packets(ex1, 12, 3)
        sent = encode_stream(src, ex1)
        decoded, rep = stream_decode(sent, ex1, num_source=len(src))
        assert decoded == src
        assert rep.failures == ()
        assert rep.max_latency == 0
        assert delay_check(rep, ex1.derived.T_eff)

    def test_full_burst_recovered_within_delay(self, ex1):
        d = ex1.derived
        src = random_packets(ex1, 25, 4)
        sent = encode_stream(src, ex1)
        pat = ErasurePattern.make(len(sent), range(10, 10 + d.B))
        decoded, rep = stream_decode(apply(sent, pat), ex1, num_source=len(src))
        assert rep.failures == ()
        assert decoded == src
        assert rep.max_latency <= d.T_eff
        assert delay_check(rep, d.T_eff)

    def test_burst_at_stream_start(self, ex2):
        d = ex2.derived
        src = random_packets(ex2, 20, 5)
        sent = encode_stream(src, ex2)
        pat = ErasurePattern.make(len(sent), range(d.B))
        decoded, rep = stream_decode(apply(sent, pat), ex2, num_source=len(src))
        assert rep.failures == ()
        assert decoded == src
        assert rep.max_latency <= d.T_eff

    def test_unaffected_packets_have_zero_latency(self, ex1):
        src = random_packets(ex1, 30, 6)
        sent = encode_stream(src, ex1)
        pat = ErasurePattern.make(len(sent), range(15, 18))
        _, rep = stream_decode(apply(sent, pat), ex1, num_source=len(src))
        assert rep.latencies[2] == 0
        assert rep.latencies[29] == 0

    def test_inadmissible_loss_reported_not_raised(self, ex1):
        d = ex1.derived
        src = random_packets(ex1, 20, 7)
        sent = encode_stream(src, ex1)
        pat = ErasurePattern.make(len(sent), range(5, 5 + d.B + 2))
        _, rep = stream_decode(apply(sent, pat), ex1, num_source=len(src))
        assert rep.failures
        assert not delay_check(rep, d.T_eff)

    def test_plan_only_matches_value_mode_latencies(self, ex2):
        src = random_packets(ex2, 25, 8)
        sent = encode_stream(src, ex2)
        pat = ErasurePattern.make(len(sent), [3, 4, 5, 6, 14, 17])
        _, rep_vals = stream_decode(apply(sent, pat), ex2, num_source=len(src))
        plans, rep_plan = plan_stream(ex2, pat, len(src))
        assert rep_plan == rep_vals and sorted(plans) == [3, 4, 5, 6, 14, 17]

    @pytest.mark.parametrize("params", GATE_CODES)
    def test_matches_reference_decoder(self, params):
        """Packets and report equal the per-diagonal reference exactly, and
        plan_stream's report on the pattern equals the reference's plan-only
        one, from loss-free to heavily inadmissible streams."""
        g = code(params)
        for seed in range(12):
            rate = (0, 0.05, 0.1, 0.2, 0.3, 0.5)[seed % 6]
            rng = random.Random(seed)
            for length in (0, rng.randint(1, 12), rng.randint(20, 40)):
                sent = encode_stream(random_packets(g, length, seed), g)
                pat = ErasurePattern.make(len(sent), [t for t in range(len(sent))
                                                      if rng.random() < rate])
                got = apply(sent, pat)
                assert stream_decode(got, g, length) == reference_decode(got, g, length)
                assert (plan_stream(g, pat, length)[1]
                        == reference_decode(got, g, length, values=False)[1])

    @given(st.data())
    @settings(derandomize=True, max_examples=40, deadline=None)
    def test_matches_reference_decoder_on_drawn_codes(self, data):
        """As above on a code of criterion 10's scan (n <= 12), with losses
        drawn in three parts: the first k slots, where diagonals reach before
        slot 0; the flush and the slots past it, in a received list longer
        than num_source + n - 1; and anywhere."""
        g = code(data.draw(st.sampled_from(accepted_small_params())))
        n, k = g.derived.n, g.derived.k
        length, extra = data.draw(st.integers(0, 2 * n)), data.draw(st.integers(0, n))
        horizon = length + extra + n - 1
        erased = (data.draw(st.sets(st.integers(0, min(k, horizon) - 1)))
                  | data.draw(st.sets(st.integers(length, horizon - 1)))
                  | data.draw(st.sets(st.integers(0, horizon - 1), max_size=horizon // 3)))
        sent = encode_stream(random_packets(g, length + extra, data.draw(st.integers(0, 99))), g)
        got = apply(sent, ErasurePattern.make(horizon, erased))
        assert stream_decode(got, g, length) == reference_decode(got, g, length)
        assert (plan_stream(g, ErasurePattern.make(horizon, erased), length)[1]
                == reference_decode(got, g, length, values=False)[1])

    def test_decode_work_follows_the_losses(self, ex1, monkeypatch):
        """With no erased source packet, erased flush slots or not, neither
        stream_decode nor plan_stream asks for a plan or caches one.  A lone
        loss among 10,000 packets compiles one packet plan from warm oracle
        plans; two lone losses elsewhere, one whose diagonals reach before
        slot 0, compile none."""
        calls = []
        monkeypatch.setattr(stream, "oracle_plan",
                            lambda g, erased: calls.append(erased) or decoder.oracle_plan(g, erased))
        g = dataclasses.replace(ex1)
        n, k = g.derived.n, g.derived.k
        sent = encode_stream(random_packets(g, 20, 40), g)
        for erased in ([], [20, 20 + n - 2]):
            pat = ErasurePattern.make(len(sent), erased)
            decoded, rep = stream_decode(apply(sent, pat), g, 20)
            assert decoded == [p[:k] for p in sent[:20]] and rep.erased_slots == len(erased)
            assert plan_stream(g, pat, 20) == ({}, rep)
        assert calls == [] and g._plan_cache == {}

        for j in range(k):  # the diagonals through a lone loss, each erased at j
            decoder.oracle_plan(g, frozenset({j}))
        horizon = 10_000 + n - 1
        for lost, new_plans in (([6_000], 1), ([3, 9_000], 0)):
            before, calls[:] = len(g._plan_cache), []
            _, rep = plan_stream(g, ErasurePattern.make(horizon, lost), 10_000)
            assert len(g._plan_cache) - before == new_plans
            assert len(calls) == k * new_plans
            assert rep.failures == () and all(0 < rep.latencies[t] <= g.derived.T_eff
                                              for t in lost)

    @pytest.mark.parametrize("params", [(10, 9, 5, 3), (11, 10, 4, 2), (6, 9, 3, 2)])
    def test_packet_plans_read_received_slots_up_to_the_delay(self, params):
        """After sampled admissible streams and a 30%-loss stream, every
        cached packet plan of a packet t reads only received slots in
        [t - k + 1, t + T_eff], and some read is at t + T_eff exactly: the
        decision an online decoder emits at slot t + T_eff."""
        g = dataclasses.replace(code(params))
        d = g.derived
        for seed in range(10):
            simulate(g, 300, seed, values=False)
        rng = random.Random(30)
        horizon = 300 + d.n - 1
        heavy = ErasurePattern.make(horizon, [t for t in range(horizon) if rng.random() < 0.3])
        plan_stream(g, heavy, 300)
        offsets = set()
        for local, plan in g._plan_cache.items():
            if isinstance(local, int):  # a packet plan; oracle plans have frozenset keys
                reads = plan[1]
                assert all(0 <= row < d.n and not local >> (off + d.k - 1) & 1
                           for off, row in reads)
                offsets |= {off for off, _ in reads}
        assert min(offsets) >= 1 - d.k and max(offsets) == d.T_eff

    @pytest.mark.parametrize("params", [(10, 9, 5, 3), (11, 10, 4, 2), (6, 9, 3, 2)])
    def test_sliding_key_matches_big_mask_key(self, params):
        """For every erased source slot t, plan_stream's plan equals
        _packet_plan compiled on a fresh code under the key read from the
        whole pattern as one integer, bit s + k - 1 for erased slot s:
        (mask >> t) & (2^(n + k - 1) - 1).  Sampled streams, losses at the
        cold-start slots 0 .. k - 2, in the n - 1 flush slots and a dense
        inadmissible stream; on a fresh code, whose cache then holds exactly
        the reference keys, and on one warm from the patterns before."""
        base = code(params)
        d, length, rng = base.derived, 60, random.Random(5)
        n, k, horizon = d.n, d.k, length + d.n - 1
        dense = ErasurePattern.make(horizon, [t for t in range(horizon) if rng.random() < 0.4])
        assert not is_admissible(dense, d.W, d.B, d.N)
        patterns = [sample_stream_pattern(horizon, d.W, d.B, d.N, seed) for seed in range(4)]
        patterns += [ErasurePattern.make(horizon, [*range(k - 1), 20, 20 + n - 1]),
                     ErasurePattern.make(horizon, [length - 2, length - 1,
                                                   *range(length, horizon, 2)]), dense]
        ref, warm, want = dataclasses.replace(base), dataclasses.replace(base), {}
        for pat in patterns:
            mask = sum(1 << (s + k - 1) for s in pat.erased)
            keys = {t: (mask >> t) & ((1 << (n + k - 1)) - 1)
                    for t in pat.erased if t < length}
            for key in keys.values():
                if key not in want:
                    want[key] = stream._packet_plan(ref, key)
            fresh = dataclasses.replace(base)
            for g in (fresh, warm):
                plans, _ = plan_stream(g, pat, length)
                assert plans == {t: want[key] for t, key in keys.items()}, pat.erased
            assert {key for key in fresh._plan_cache if isinstance(key, int)} == set(keys.values())

    def test_clean_stream_reduces_nothing(self, ex1, reduce_calls):
        sent = encode_stream(random_packets(ex1, 12, 13), ex1)
        reduce_calls.clear()
        decoded, _ = stream_decode(sent, ex1, num_source=12)
        assert decoded == [p[:ex1.derived.k] for p in sent[:12]]
        assert reduce_calls == []

    @pytest.mark.parametrize("symbol, error", [(3, TypeError),
                                               (GF(5, 9).one, FieldMismatchError)])
    def test_received_source_symbol_checked(self, ex1, symbol, error):
        sent = encode_stream(random_packets(ex1, 5, 14), ex1)
        sent[2] = [*sent[2][:4], symbol, *sent[2][5:]]
        with pytest.raises(error):
            stream_decode(sent, ex1, num_source=5)

    @pytest.mark.parametrize("slot, pos", [(2, 8), (7, 3)], ids=["parity", "flush"])
    @pytest.mark.parametrize("symbol, error", [(3, TypeError),
                                               (GF(5, 9).one, FieldMismatchError)])
    def test_received_symbol_no_plan_reads_checked(self, ex1, slot, pos, symbol, error):
        """Parity k + 1 of packet 2, or a symbol of flush packet 7: nothing
        is erased, so no plan reads it, yet it is checked."""
        sent = encode_stream(random_packets(ex1, 5, 14), ex1)
        sent[slot] = [*sent[slot][:pos], symbol, *sent[slot][pos + 1:]]
        with pytest.raises(error):
            stream_decode(sent, ex1, num_source=5)

    def test_short_packet_rejected(self, ex1):
        sent = encode_stream(random_packets(ex1, 5, 12), ex1)
        sent[3] = sent[3][:4]
        with pytest.raises(StreamError):
            stream_decode(sent, ex1, num_source=5)

    def test_stream_too_short(self, ex1):
        """The 14 full-width slots of 3 encoded ex1 packets hold 3 source
        packets and the n - 1 = 11 flush slots, no more; a pattern's horizon
        bounds plan_stream the same way."""
        sent = encode_stream(random_packets(ex1, 3, 15), ex1)
        assert stream_decode(sent, ex1, num_source=3)[1].packets == 3
        for num_source in (4, 10, -1):
            with pytest.raises(StreamError):
                stream_decode(sent, ex1, num_source=num_source)
            with pytest.raises(StreamError):
                plan_stream(ex1, ErasurePattern.make(len(sent), [1]), num_source)
        assert plan_stream(ex1, ErasurePattern.make(len(sent), [1]), 3)[1].packets == 3

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
                _, rep = plan_stream(g, pat, length)
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

    def test_plan_only_equals_value_mode(self, ex1, monkeypatch):
        """Plan-only simulate reads the sampled pattern alone: with apply and
        stream_decode raising, its report still equals the value run's."""
        want = [simulate(ex1, 60, seed=seed, values=True) for seed in range(3)]

        def refuse(*args, **kwargs):
            raise AssertionError("plan-only simulate touched values")

        monkeypatch.setattr(stream, "apply", refuse)
        monkeypatch.setattr(stream, "stream_decode", refuse)
        assert [simulate(ex1, 60, seed=seed, values=False) for seed in range(3)] == want


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
