"""Command line front end: build, verify, simulate, capacity, export.

Exit codes: 0 on success, 1 when a verification or simulation found
failures, 2 on parameter errors and on an --out file that cannot be
written, which leaves stdout empty.  All output is deterministic given the
flags and seed.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from itertools import chain

from .channel import BudgetError, ErasurePattern, apply, enumerate_block_patterns
from .construction import (StreamParams, build_code, capacity, encode_block,
                           validate_and_derive)
# perfbench/spans.py wraps cli.classify_pattern, which nothing here calls
from .decoder import DecoderError, classify_pattern, decode_structured, oracle_decode
from .stream import StreamReport, simulate

_EXHAUSTIVE_DEFAULT_MAX_N = 14


def _build(args):
    d = validate_and_derive(StreamParams(args.W, args.T, args.B, args.N))
    return d, build_code(d)


def _write(path, obj) -> None:
    """Write obj to path as one line of JSON, keys sorted."""
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, sort_keys=True) + "\n")


def cmd_build(args) -> int:
    d, g = _build(args)
    if args.out:
        _write(args.out, g.to_json_obj())
    rate = capacity(d.T_eff, d.B, d.N)
    print(f"k={d.k} n={d.n} M={d.M} delta={d.delta} q={d.q} m={d.m} "
          f"rate={d.k}/{d.n} capacity={rate.numerator}/{rate.denominator}")
    if args.out:
        print(f"wrote {args.out}")
    return 0


def cmd_export(args) -> int:
    _, g = _build(args)
    if args.out:
        _write(args.out, g.to_json_obj())
    else:
        print(json.dumps(g.to_json_obj(), sort_keys=True))
    return 0


def _check_pattern(g, pattern, trials, seed):
    """Oracle + structured decode over random source blocks; returns failure
    dicts.  A symbol fails a decoder when its value is not the source's: the
    value is None exactly when the decoder did not recover it by its deadline."""
    d = g.derived
    ext = g.field()
    rng = random.Random(f"{seed}:{pattern.to_text()}")
    fails = []
    for trial in range(trials):
        s = [ext.random_element(rng) for _ in range(d.k)]
        y = apply(encode_block(s, g), pattern)
        orc = oracle_decode(g, y)
        try:
            st = decode_structured(g, y)
        except DecoderError as exc:
            fails.append({"pattern": pattern.to_text(), "trial": trial,
                          "symbol": -1, "kind": f"structural: {exc}"})
            continue
        fails.extend({"pattern": pattern.to_text(), "trial": trial, "symbol": i, "kind": name}
                     for i in range(d.k)
                     for name, rep in (("oracle", orc), ("structured", st))
                     if rep.symbols[i].value != s[i])
    return fails


def _random_block_patterns(d, count, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        if rng.random() < 0.5:
            length = rng.randint(1, d.B)
            start = rng.randrange(d.n - length + 1)
            idx = range(start, start + length)
        else:
            size = rng.randint(0, d.N)
            idx = rng.sample(range(d.n), size)
        out.append(ErasurePattern.make(d.n, idx))
    return out


def cmd_verify(args) -> int:
    d, g = _build(args)

    if args.erase is not None:
        pattern = ErasurePattern.from_text(d.n, args.erase)
        ext = g.field()
        rng = random.Random(args.seed)
        s = [ext.random_element(rng) for _ in range(d.k)]
        y = apply(encode_block(s, g), pattern)
        report = oracle_decode(g, y)
        print(json.dumps(report.to_json_obj(), sort_keys=True))
        return 0 if report.ok() else 1

    if args.trials < 1:
        print(f"error: --trials must be >= 1, got {args.trials}", file=sys.stderr)
        return 2
    mode = args.mode
    if mode is None:
        mode = "exhaustive" if d.n <= _EXHAUSTIVE_DEFAULT_MAX_N else "random"
    if mode == "exhaustive":
        try:
            patterns = enumerate_block_patterns(d.n, d.B, d.N)
        except BudgetError as exc:
            if args.mode == "exhaustive":
                print(f"error: {exc}; use --mode random", file=sys.stderr)
                return 2
            mode = "random"
    if mode == "random":
        space = f"~2^{d.n} subsets filtered to <= {d.N} sparse / <= {d.B} burst"
        print(f"random mode: sampling {args.trials} patterns from {space}")
        patterns = _random_block_patterns(d, args.trials, args.seed)

    trials = args.trials if mode == "exhaustive" else 5
    failures = []
    for p in patterns:
        failures.extend(_check_pattern(g, p, trials, args.seed))
    print(json.dumps({"patterns_checked": len(patterns), "failures": failures},
                     sort_keys=True))
    return 0 if not failures else 1


def cmd_simulate(args) -> int:
    for flag, value in (("--trials", args.trials), ("--len", args.len)):
        if value < 0:
            print(f"error: {flag} must be >= 0, got {value}", file=sys.stderr)
            return 2
    _, g = _build(args)
    reports = [simulate(g, args.len, args.seed + trial)[0] for trial in range(args.trials)]
    summary = {}
    if reports:
        summary = StreamReport(sum(r.erased_slots for r in reports),
                               tuple(chain.from_iterable(r.latencies for r in reports))).to_json_obj()
        summary["failures"] = [[trial, t] for trial, r in enumerate(reports) for t in r.failures]
    if args.out:
        _write(args.out, summary)
    print(json.dumps(summary, sort_keys=True))
    return 1 if summary.get("failures") else 0


def cmd_capacity(args) -> int:
    c = capacity(args.T, args.B, args.N)
    print(f"{c.numerator}/{c.denominator} ≈ {float(c):.4f}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="streamfec",
                                 description="streaming erasure codes for burst/arbitrary loss")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_params(p, need_w=True):
        if need_w:
            p.add_argument("--W", type=int, required=True)
        p.add_argument("--T", type=int, required=True)
        p.add_argument("--B", type=int, required=True)
        p.add_argument("--N", type=int, required=True)

    p = sub.add_parser("build", help="derive parameters and assemble the generator")
    add_params(p)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("verify", help="check recovery guarantees over erasure patterns")
    add_params(p)
    p.add_argument("--mode", choices=["exhaustive", "random"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=5,
                   help="exhaustive mode: random source blocks per pattern; "
                        "random mode: number of patterns, 5 blocks each")
    p.add_argument("--erase", help="single pattern: comma-separated erased positions")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("simulate", help="seeded streaming simulations")
    add_params(p)
    p.add_argument("--len", type=int, default=100)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("capacity", help="print the exact capacity fraction")
    add_params(p, need_w=False)
    p.set_defaults(fn=cmd_capacity)

    p = sub.add_parser("export", help="write the generator bundle as JSON")
    add_params(p)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_export)

    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
