"""The benchmark's workloads, their correctness gates and their metrics.

Every workload is a closed loop: one caller runs one job at a time, and the
next job starts when the previous one returns.  A job's inputs come from a
job seed drawn from the run's ``--seed``.  Each job is checked before its
times count; a failed check raises :class:`GateFailure` and the run reports
no numbers.

The program is called through module attributes (``stream.stream_decode``,
``cli.main``), so the traced run's wrappers see the benchmark's own calls.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from streamfec import channel, cli, construction, gf, stream

import spans as spanlib
from reference import Reference

clock = time.perf_counter

TRACED_SETUP_REPS = 3  # set-ups recorded as spans in the traced run
GF_SAMPLE = 256        # seeded operands per field-kernel microbenchmark
MAX_TRACED_JOBS = 8    # bounds the span file of the traced run
WARM_SEGMENTS = 10     # plan warm-up: segments of WARM_SLOTS slots each
WARM_SLOTS = 4000
REF_SAMPLES_PER_JOB = 2  # reference-kernel timings before each job


class GateFailure(Exception):
    """A job's output was wrong; carries the operation counts so far."""

    def __init__(self, message: str, attempted: int, failed: int):
        super().__init__(message)
        self.attempted = attempted
        self.failed = failed


@dataclass
class Job:
    ops: int          # operations done: packets or block patterns
    timed_s: float    # seconds that count towards ops_per_s
    wall_s: float     # the job's whole duration, inputs and checks included
    times: dict       # named parts of timed_s (stream-ex1: encode, decode)
    push_s: list      # per-packet StreamEncoder.push latencies (stream-ex1)


# ---------------------------------------------------------------------------
# Correctness gates.  Each returns a failed-operation count and a reason.
# ---------------------------------------------------------------------------

def check_stream(src, decoded, report, T_eff: int) -> tuple[int, str]:
    """Decoded packets equal the source, none failed, none later than T_eff."""
    bad = set(report.failures)
    bad.update(t for t, lat in enumerate(report.latencies) if lat is None or lat > T_eff)
    if decoded is None or len(decoded) != len(src):
        return len(src), "decoder returned the wrong number of packets"
    bad.update(t for t, (a, b) in enumerate(zip(src, decoded)) if a != b)
    if report.packets != len(src):
        return len(src), f"report covers {report.packets} packets, sent {len(src)}"
    if bad:
        t = min(bad)
        return len(bad), (f"{len(bad)} packets wrong, failed or late; first t={t}, "
                          f"latency {report.latencies[t]}, deadline {T_eff}")
    return 0, ""


def check_plan_only(report, packets: int, T_eff: int) -> tuple[int, str]:
    """No packet failed and none was recovered later than T_eff."""
    if report.packets != packets:
        return packets, f"report covers {report.packets} packets, asked for {packets}"
    bad = set(report.failures)
    bad.update(t for t, lat in enumerate(report.latencies) if lat is None or lat > T_eff)
    if bad:
        t = min(bad)
        return len(bad), (f"{len(bad)} packets failed or late; first t={t}, "
                          f"latency {report.latencies[t]}, deadline {T_eff}")
    return 0, ""


def check_verify(rc: int, out: str, expected: int) -> tuple[int, str]:
    """Exit code 0, ``expected`` patterns checked and no failures."""
    try:
        summary = json.loads(out.strip().splitlines()[-1])
        checked, failures = summary["patterns_checked"], summary["failures"]
    except (IndexError, ValueError, KeyError, TypeError):
        return expected, f"unreadable verify output {out[-200:]!r}"
    bad = {f["pattern"] for f in failures}
    if rc != 0 or checked != expected or failures:
        return max(len(bad), 1), (f"exit code {rc}, {checked} patterns checked of "
                                  f"{expected}, {len(failures)} failures")
    return 0, ""


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def cold_setup(params: tuple) -> "construction.GeneratorSet":
    """validate_and_derive plus build_code with the field caches emptied.

    A fresh ``streamfec build`` pays the modulus search and field
    construction; clearing the two caches makes every set-up pay it too.
    The caller must use only the returned code afterwards: its field object
    is the one now interned.
    """
    gf.find_irreducible.cache_clear()
    gf._interned_field.cache_clear()
    d = construction.validate_and_derive(construction.StreamParams(*params))
    return construction.build_code(d)


def warm_plans(g, seed: int) -> None:
    """Untimed plan-only passes on other seeds, so jobs find their plans cached.

    Sampled streams show few distinct diagonal erasure patterns (290 for ex1,
    115 for ex2); WARM_SEGMENTS segments of WARM_SLOTS slots see nearly all
    of them.  Short segments keep the O(L*E) scans of the warm-up cheap.
    """
    for i in range(WARM_SEGMENTS):
        stream.simulate(g, WARM_SLOTS, seed ^ (0x5A5A5A + i), values=False)


class StreamWorkload:
    """Encode, lose and decode seeded streams with values, plans warm."""

    unit = "packets"
    setups_per_job = 1

    def __init__(self, name, params, packets, why):
        self.name, self.params, self.packets, self.why = name, params, packets, why

    def prepare(self, g, seed: int) -> None:
        self.g = g
        warm_plans(g, seed)

    def job(self, seed: int) -> Job:
        g = self.g
        d = g.derived
        ext = g.field()
        start = clock()
        rng = random.Random(seed)
        src = [[ext.random_element(rng) for _ in range(d.k)] for _ in range(self.packets)]
        enc = stream.StreamEncoder(g)
        sent, push_s = [], []
        for p in src:
            t0 = clock()
            sent.append(enc.push(p))
            push_s.append(clock() - t0)
        zero = [ext.zero] * d.k
        t0 = clock()
        for _ in range(d.n - 1):  # flush, as encode_stream does
            sent.append(enc.push(zero))
        encode_s = sum(push_s) + (clock() - t0)
        pat = channel.sample_stream_pattern(len(sent), d.W, d.B, d.N, seed)
        received = channel.apply(sent, pat)
        t0 = clock()
        decoded, report = stream.stream_decode(received, g, num_source=self.packets)
        decode_s = clock() - t0
        failed, why = check_stream(src, decoded, report, d.T_eff)
        if failed:
            raise GateFailure(f"{self.name}: {why}", self.packets, failed)
        return Job(self.packets, encode_s + decode_s, clock() - start,
                   {"encode": encode_s, "decode": decode_s}, push_s)

    def report(self, jobs: list[Job]) -> list[str]:
        packets = sum(j.ops for j in jobs)
        enc = sum(j.times["encode"] for j in jobs)
        dec = sum(j.times["decode"] for j in jobs)
        push = sorted(s for j in jobs for s in j.push_s)
        return [
            f"encode_pkts_per_s {packets / enc:.1f} packets/s",
            f"encode_push_p50_us {_quantile(push, 0.50) * 1e6:.1f} us",
            f"encode_push_p99_us {_quantile(push, 0.99) * 1e6:.1f} us "
            f"({len(push)} samples)",
            f"decode_pkts_per_s {packets / dec:.1f} packets/s",
            f"stream_symbols_per_s {self.g.derived.k * packets / (enc + dec):.1f} symbols/s",
        ]


class VerifyWorkload:
    """In-process ``streamfec verify``; each pass builds its own code, so plans are cold."""

    unit = "patterns"
    setups_per_job = 2
    # One random source block per pattern instead of the CLI's default five:
    # a pass still compiles all plans cold, and shorter passes let the
    # reference kernel follow the machine's speed through the run.
    trials = 1

    def __init__(self, name, params, patterns, why):
        self.name, self.params, self.patterns, self.why = name, params, patterns, why

    def prepare(self, g, seed: int) -> None:
        self.g = g

    def job(self, seed: int) -> Job:
        W, T, B, N = self.params
        argv = ["verify", "--W", str(W), "--T", str(T), "--B", str(B), "--N", str(N),
                "--seed", str(seed), "--trials", str(self.trials)]
        out = io.StringIO()
        start = clock()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        verify_s = clock() - start
        failed, why = check_verify(rc, out.getvalue(), self.patterns)
        if failed:
            raise GateFailure(f"{self.name}: {why}", self.patterns, failed)
        return Job(self.patterns, verify_s, clock() - start, {}, [])

    def report(self, jobs: list[Job]) -> list[str]:
        rate = sum(j.ops for j in jobs) / sum(j.timed_s for j in jobs)
        return [f"verify_patterns_per_s {rate:.2f} patterns/s"]


class PlanOnlyWorkload:
    """Plan-only ``simulate`` over a fixed horizon: loss analysis without values."""

    unit = "packets"
    setups_per_job = 1

    def __init__(self, name, params, horizon, why):
        self.name, self.params, self.horizon, self.why = name, params, horizon, why

    def prepare(self, g, seed: int) -> None:
        self.g = g
        warm_plans(g, seed)

    def job(self, seed: int) -> Job:
        start = clock()
        report, _ = stream.simulate(self.g, self.horizon, seed, values=False)
        sim_s = clock() - start
        failed, why = check_plan_only(report, self.horizon, self.g.derived.T_eff)
        if failed:
            raise GateFailure(f"{self.name}: {why}", self.horizon, failed)
        return Job(self.horizon, sim_s, clock() - start, {}, [])

    def report(self, jobs: list[Job]) -> list[str]:
        rate = sum(j.ops for j in jobs) / sum(j.timed_s for j in jobs)
        return [f"planonly_pkts_per_s {rate:.1f} packets/s"]


WORKLOADS = {
    w.name: w for w in (
        StreamWorkload(
            "stream-ex1", (10, 9, 5, 3), packets=1000,
            why="Data path: GF(7^9) multiply/add in StreamEncoder.push and in plan "
                "application dominate; matrix and cold oracle_plan hardly run. Loss "
                "events are at least W-1 clean slots apart."),
        VerifyWorkload(
            "verify-ex1", (10, 9, 5, 3), patterns=316,
            why="Control path: each in-process verify pass (one trial per pattern) "
                "compiles all 316 block plans cold; elimination, decode_structured, "
                "encode_block and inverse dominate. No stream layer."),
        PlanOnlyWorkload(
            "planonly-ex2", (11, 10, 4, 2), horizon=5000,
            why="Loss analysis with no field arithmetic on the hot path: O(L*E) scans "
                "in is_admissible, _diagonal_erasures and simulate. Second field "
                "GF(5^9) and code shape; bypasses gf."),
    )
}


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict          # name -> (value, unit)
    lines: list            # human-readable report, printed before the result


def run(name: str, seed: int, seconds: float, traced: bool, workload=None) -> Result:
    """One benchmark run; ``workload`` overrides the named one (tests shrink it)."""
    wl = workload or WORKLOADS[name]
    meta = run_meta(wl, seed)
    head = (f"{wl.name} seed {seed}: python {meta['python']}, nproc {meta['nproc']}, "
            f"cpu {meta['cpu']}")
    seeds = random.Random(seed)
    jobs: list[Job] = []
    try:
        res = (_traced_run if traced else _timed_run)(wl, seed, seconds, seeds, jobs)
    except GateFailure as exc:
        attempted = sum(j.ops for j in jobs) + exc.attempted
        res = Result(False, attempted, exc.failed, {}, [f"FAIL {exc}"])
    res.lines.insert(0, head)
    return res


def _loop(seconds: float, run_job, jobs: list, limit: int | None = None) -> list[Job]:
    """Call ``run_job`` for about ``seconds`` (at least once); append to ``jobs``.

    A job starts only if half of the previous job's time is still left, so
    a run of long jobs ends near ``seconds`` rather than up to a job late.
    """
    mine: list[Job] = []
    end = clock() + seconds
    while not mine or (clock() + mine[-1].wall_s / 2 < end
                       and (limit is None or len(mine) < limit)):
        job = run_job()
        jobs.append(job)
        mine.append(job)
    return mine


def timed_setup(params: tuple, setups: list):
    t0 = clock()
    g = cold_setup(params)
    setups.append(clock() - t0)
    return g


def _timed_run(wl, seed, seconds, seeds, jobs) -> Result:
    """End-to-end metrics, tracing off, scaled to the nominal machine speed.

    The machine's speed drifts by tens of percent over minutes, so the
    reference kernel is timed before every job, and times are scaled by
    ``NOMINAL_S`` over its mean time in this run (rates by the inverse).
    Throughput is total operations over total timed seconds, and set-ups
    are spread between jobs rather than bunched at the start.  Only the
    first set-up's code is used: set-ups in between rebuild and discard theirs.
    """
    setups: list[float] = []
    ref = Reference()
    wl.prepare(timed_setup(wl.params, setups), seed)

    def run_job():
        for _ in range(REF_SAMPLES_PER_JOB):
            ref.sample()
        for _ in range(wl.setups_per_job):
            timed_setup(wl.params, setups)
        return wl.job(seeds.getrandbits(32))

    _loop(seconds, run_job, jobs)
    ref.sample()
    ops = sum(j.ops for j in jobs)
    rate = ops / sum(j.timed_s for j in jobs)
    setup_s, scale = statistics.median(setups), ref.scale()
    metrics = {
        "ops_per_s": (rate * scale, "1/s"),
        "setup_s": (setup_s / scale, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }
    lines = [f"{wl.name}: {len(jobs)} jobs of {jobs[0].ops} {wl.unit} and "
             f"{len(setups)} cold set-ups, closed loop, one caller",
             f"reference kernel {scale:.4f} x nominal over {len(ref.samples)} samples; "
             f"unscaled ops_per_s {rate:.6g} 1/s, setup_s {setup_s:.6g} s"] + wl.report(jobs)
    return Result(True, ops, 0, metrics, lines)


def _traced_run(wl, seed, seconds, seeds, jobs) -> Result:
    """Per-layer metrics from spans, plus the tracing overhead.

    Traced jobs run first, after a traced warm-up, so the plan-miss count
    sees every erasure key the warm-up planned.  Untraced jobs on the same
    warm code fill the rest of ``seconds``; their median wall time is the
    overhead's base.  Each phase's median is scaled by the reference kernel
    timed in that phase, so the machine's drift between phases cancels.
    """
    tracer = spanlib.Tracer(wl.name)
    with tracer.installed():
        for _ in range(TRACED_SETUP_REPS):
            with tracer.span("bench.setup"):
                g = cold_setup(wl.params)
    metrics = gf_rates(g.field(), seed)
    counts: list[dict] = []  # field-operator calls per traced job
    traced_ref, plain_ref = Reference(), Reference()

    def traced_job():
        for _ in range(REF_SAMPLES_PER_JOB):
            traced_ref.sample()
        before = dict(tracer.counts)
        with tracer.span("bench.job"):
            job = wl.job(seeds.getrandbits(32))
        counts.append({k: tracer.counts[k] - before[k] for k in before})
        return job

    def plain_job():
        for _ in range(REF_SAMPLES_PER_JOB):
            plain_ref.sample()
        return wl.job(seeds.getrandbits(32))

    with tracer.installed():
        with tracer.span("bench.warmup"):
            wl.prepare(g, seed)
        end = clock() + seconds
        traced = _loop(seconds / 2, traced_job, jobs, MAX_TRACED_JOBS)
    plain = _loop(end - clock(), plain_job, jobs)
    metrics.update(layer_metrics(tracer.spans, counts))
    traced_s = statistics.median(j.wall_s for j in traced) / traced_ref.scale()
    plain_s = statistics.median(j.wall_s for j in plain) / plain_ref.scale()
    metrics["trace.overhead_ratio"] = (traced_s / plain_s - 1, "ratio")
    lines = [f"{wl.name}: {len(traced)} traced and {len(plain)} untraced jobs, "
             f"{len(tracer.spans)} spans; per-layer figures are per job, set-up "
             f"figures the median of {TRACED_SETUP_REPS} traced set-ups",
             "no layer has a waiting metric: the program has no queues or threads"]
    tracer.write(span_path(wl.name, seed), run_meta(wl, seed))
    return Result(True, sum(j.ops for j in jobs), 0, metrics, lines)


def layer_metrics(spans: list[list], counts: list[dict]) -> dict:
    """Per-layer metrics: job figures per job, set-up figures per set-up."""
    selfs = spanlib.self_times(spans)
    root = spanlib.roots(spans)
    njobs = len(counts)
    job = {}      # name -> [self seconds, calls, total seconds] summed over jobs
    setup = {}    # name -> durations under set-up roots
    plan = {"calls": 0, "misses": 0, "miss_self": 0.0, "diagonals": 0}
    for idx, (name, start, end, parent, attrs) in enumerate(spans):
        kind = spans[root[idx]][0]
        if kind == "bench.setup":
            setup.setdefault(name, []).append(end - start)
        if kind != "bench.job":
            continue
        acc = job.setdefault(name, [0.0, 0, 0.0])
        acc[0] += selfs[idx]
        acc[1] += 1
        acc[2] += end - start
        if name == "decoder.oracle_plan":
            plan["calls"] += 1
            if attrs["miss"]:
                plan["misses"] += 1
                plan["miss_self"] += selfs[idx]
            if spans[parent][0] == "stream.stream_decode":
                plan["diagonals"] += 1

    def self_s(name):
        return (job.get(name, [0.0])[0] / njobs, "s")

    def total_s(name):
        return (job.get(name, [0.0, 0, 0.0])[2] / njobs, "s")

    def calls(name):
        return (job.get(name, [0.0, 0])[1] / njobs, "count")

    def setup_s(name):
        return (statistics.median(setup[name]) if name in setup else 0.0, "s")

    return {
        "gf.mul_calls": (sum(c["gf.mul"] for c in counts) / njobs, "count"),
        "gf.inverse_calls": (sum(c["gf.inverse"] for c in counts) / njobs, "count"),
        "matrix.solve_left_calls": calls("matrix.solve_left"),
        "matrix.solve_left_self_s": self_s("matrix.solve_left"),
        "matrix.rref_self_s": self_s("matrix.rref"),
        "matrix.matmul_self_s": self_s("matrix.matmul"),
        "matrix.right_kernel_self_s": self_s("matrix.right_kernel"),
        "codes.build_gabidulin_s": setup_s("codes.build_gabidulin"),
        "codes.build_mds_s": setup_s("codes.build_mds"),
        "construction.build_code_s": setup_s("construction.build_code"),
        "construction.encode_block_self_s": self_s("construction.encode_block"),
        "channel.sample_stream_pattern_self_s": self_s("channel.sample_stream_pattern"),
        "channel.is_admissible_self_s": self_s("channel.is_admissible"),
        "channel.apply_self_s": self_s("channel.apply"),
        "channel.enumerate_block_patterns_s": total_s("channel.enumerate_block_patterns"),
        "decoder.plan_calls": (plan["calls"] / njobs, "count"),
        "decoder.plan_misses": (plan["misses"] / njobs, "count"),
        "decoder.plan_hit_ratio": (
            (plan["calls"] - plan["misses"]) / plan["calls"] if plan["calls"] else 0.0,
            "ratio"),
        "decoder.plan_miss_self_s": (plan["miss_self"] / njobs, "s"),
        "decoder.oracle_decode_self_s": self_s("decoder.oracle_decode"),
        "decoder.decode_structured_self_s": self_s("decoder.decode_structured"),
        "stream.encode_self_s": self_s("stream.push"),
        "stream.decode_self_s": self_s("stream.stream_decode"),
        "stream.simulate_self_s": self_s("stream.simulate"),
        "stream.diagonals": (plan["diagonals"] / njobs, "count"),
        "cli.verify_self_s": self_s("cli.main"),
    }


def gf_rates(field, seed: int, seconds: float = 0.3) -> dict:
    """Field-kernel rates on seeded operands from ``field``, tracing off.

    ``mul_base`` multiplies by prime-subfield elements, the shape of every
    Cauchy entry of the parity matrix.  Each rate is the median of repeated
    passes over the operands.
    """
    rng = random.Random(seed)
    xs = [field.random_element(rng) for _ in range(GF_SAMPLE)]
    ys = [field.random_element(rng) for _ in range(GF_SAMPLE)]
    base = [field(rng.randrange(1, field.q)) for _ in range(GF_SAMPLE)]
    nonzero = [x for x in xs if x]

    def mul(pairs):
        for a, b in pairs:
            a * b

    def inverse(elems):
        for a in elems:
            a.inverse()

    out = {}
    for name, fn, arg in (("gf.mul_per_s", mul, list(zip(xs, ys))),
                          ("gf.mul_base_per_s", mul, list(zip(xs, base))),
                          ("gf.inverse_per_s", inverse, nonzero[:32])):
        rates = []
        end = clock() + seconds
        while len(rates) < 3 or clock() < end:
            t0 = clock()
            fn(arg)
            rates.append(len(arg) / (clock() - t0))
        out[name] = (statistics.median(rates), "1/s")
    return out


def _quantile(sorted_vals: list, q: float) -> float:
    return sorted_vals[min(len(sorted_vals) - 1, int(q * len(sorted_vals)))]


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def span_path(name: str, seed: int) -> Path:
    out = Path(__file__).resolve().parent / "out"
    out.mkdir(exist_ok=True)
    return out / f"spans-{name}-seed{seed}.jsonl"


def run_meta(wl, seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"workload": wl.name, "why": wl.why, "seed": seed,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "argv": sys.argv}
