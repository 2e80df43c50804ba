"""Tests of the benchmark itself, at sizes that run in seconds.

    python3 -m pytest perfbench/tests -q
"""
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from itertools import combinations
from pathlib import Path

import pytest

import run
import spans
import workloads
from streamfec import cli, stream

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

SMALL_VERIFY = (6, 5, 3, 2)  # n = 7, T_eff = 5


def admissible_block_patterns(n, W, B, N):
    """Independent count of the block patterns ``verify`` must check."""
    def window_ok(hits):
        return len(hits) <= N or (len(hits) <= B and hits[-1] - hits[0] == len(hits) - 1)

    count = 0
    for size in range(B + 1):
        for combo in combinations(range(n), size):
            if not (size <= N or combo[-1] - combo[0] == size - 1):
                continue
            if all(window_ok([e for e in combo if s <= e < s + W])
                   for s in range(n - W + 1)):
                count += 1
    return count


def small(name):
    wl = workloads.WORKLOADS[name]
    if name == "stream-ex1":
        return workloads.StreamWorkload(name, wl.params, 40, wl.why)
    if name == "planonly-ex2":
        return workloads.PlanOnlyWorkload(name, wl.params, 300, wl.why)
    W, T, B, N = SMALL_VERIFY
    return workloads.VerifyWorkload(name, SMALL_VERIFY,
                                    admissible_block_patterns(7, T + 1, B, N), wl.why)


@pytest.fixture(autouse=True)
def quick(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "WARM_SEGMENTS", 1)
    monkeypatch.setattr(workloads, "WARM_SLOTS", 200)
    monkeypatch.setattr(workloads, "span_path", lambda name, seed: tmp_path / "spans.jsonl")


NAMES = [w["name"] for w in BENCH["workloads"]]


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("traced", [False, True])
def test_smoke_reports_every_metric_with_its_unit(name, traced):
    res = workloads.run(name, 3, 0.01, traced, small(name))
    assert res.correct and res.failed == 0 and res.attempted > 0, res.lines
    wanted = BENCH["per_layer" if traced else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {k: unit for k, (_, unit) in res.metrics.items()}
    if not traced:
        assert all(v > 0 for v, _ in res.metrics.values())


def test_verify_plan_misses_equal_distinct_block_patterns():
    wl = small("verify-ex1")
    res = workloads.run(wl.name, 1, 0.01, True, wl)
    assert res.metrics["decoder.plan_misses"][0] == wl.patterns
    assert res.metrics["stream.diagonals"][0] == 0


def _corrupt_first_symbol(real):
    def stream_decode(*args, **kwargs):
        decoded, report = real(*args, **kwargs)
        if decoded is not None:  # the plan-only warm-up has no values
            decoded[3][2] = decoded[3][2] + decoded[3][2].field.one
        return decoded, report
    return stream_decode


def test_corrupted_symbol_fails_the_run(monkeypatch):
    monkeypatch.setattr(stream, "stream_decode", _corrupt_first_symbol(stream.stream_decode))
    res = workloads.run("stream-ex1", 1, 0.01, False, small("stream-ex1"))
    assert not res.correct and res.failed == 1 and res.metrics == {}


def test_late_stream_packet_fails_the_run(monkeypatch):
    real = stream.stream_decode

    def late(*args, **kwargs):
        decoded, report = real(*args, **kwargs)
        if decoded is None:
            return decoded, report
        lat = list(report.latencies)
        lat[5] = 10  # T_eff of ex1 is 9
        return decoded, dataclasses.replace(report, latencies=tuple(lat))

    monkeypatch.setattr(stream, "stream_decode", late)
    res = workloads.run("stream-ex1", 1, 0.01, False, small("stream-ex1"))
    assert not res.correct and res.failed == 1 and res.metrics == {}


def test_late_plan_only_packet_fails_the_run(monkeypatch):
    real = stream.simulate

    def late(*args, **kwargs):
        report, pat = real(*args, **kwargs)
        lat = list(report.latencies)
        lat[7] = 11  # T_eff of ex2 is 10
        return dataclasses.replace(report, latencies=tuple(lat)), pat

    monkeypatch.setattr(stream, "simulate", late)
    res = workloads.run("planonly-ex2", 1, 0.01, True, small("planonly-ex2"))
    assert not res.correct and res.failed == 1 and res.metrics == {}


@pytest.mark.parametrize("rc,summary,failed", [
    (0, {"patterns_checked": 34, "failures": []}, 0),
    (1, {"patterns_checked": 34, "failures": [{"pattern": "0,1", "trial": 0,
                                               "symbol": 2, "kind": "oracle"}]}, 1),
    (0, {"patterns_checked": 33, "failures": []}, 1),
    (1, {"patterns_checked": 34, "failures": []}, 1),
])
def test_verify_gate(rc, summary, failed):
    assert workloads.check_verify(rc, json.dumps(summary) + "\n", 34)[0] == failed


def test_failed_gate_exits_nonzero_without_numbers(monkeypatch):
    monkeypatch.setattr(stream, "stream_decode", _corrupt_first_symbol(stream.stream_decode))
    monkeypatch.setitem(workloads.WORKLOADS, "stream-ex1", small("stream-ex1"))
    monkeypatch.setenv("STREAMCODE_THREADS", "4")
    out = io.StringIO()
    with redirect_stdout(out):
        rc = run.main(["--workload", "stream-ex1", "--seed", "1", "--seconds", "0.01"])
    last = json.loads(out.getvalue().splitlines()[-1])
    assert rc == 1 and last["correct"] is False and last["metrics"] == {}
    assert "STREAMCODE_THREADS" not in os.environ


def test_spans_nest_and_self_times_are_not_negative(tmp_path):
    wl = small("verify-ex1")
    res = workloads.run(wl.name, 2, 0.01, True, wl)
    assert res.correct
    lines = (tmp_path / "spans.jsonl").read_text().splitlines()
    meta, recs = json.loads(lines[0]), [json.loads(ln) for ln in lines[1:]]
    assert meta["seed"] == 2 and meta["workload"] == wl.name and meta["nproc"] >= 1
    assert {r["workload"] for r in recs} == {wl.name}
    for r in recs:
        assert r["start"] <= r["end"]
        if r["parent"] is not None:
            p = recs[r["parent"]]
            assert p["start"] <= r["start"] and r["end"] <= p["end"], (p, r)
    table = [[r["name"], r["start"], r["end"], r["parent"], None] for r in recs]
    assert min(spans.self_times(table)) >= 0
    assert {"cli.main", "decoder.oracle_plan", "matrix.rref", "bench.job"} <= \
        {r["name"] for r in recs}


def test_self_time_subtracts_children():
    table = [["a", 0.0, 10.0, None, None], ["b", 1.0, 3.0, 0, None],
             ["c", 4.0, 8.0, 0, None], ["d", 5.0, 6.0, 2, None]]
    assert spans.self_times(table) == [4.0, 2.0, 3.0, 1.0]
    assert spans.roots(table) == [0, 0, 0, 0]


def test_tracer_restores_the_program():
    before = (cli.main, stream.StreamEncoder.push, stream.oracle_plan)
    with spans.Tracer("x").installed():
        assert cli.main is not before[0]
    assert (cli.main, stream.StreamEncoder.push, stream.oracle_plan) == before


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout.strip() == ""


def test_benchmark_json_matches_the_workloads():
    assert [(w["name"], w["why"]) for w in BENCH["workloads"]] == \
        [(w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert BENCH["command"] == ["python3", "perfbench/run.py"] and BENCH["paths"] == ["perfbench"]
