"""Benchmark entry point: one workload, one run, one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload stream-ex1 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
records spans at the layer boundaries, prints the per-layer metrics and the
tracing overhead, and writes the spans to ``perfbench/out/``.  The last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``.
Exit code 0 on a correct run, 1 when a correctness gate failed, 2 when the
program's sources are missing from the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_program() -> None:
    """Import streamfec from this checkout's sources, never from elsewhere."""
    if not (SRC / "streamfec" / "__init__.py").is_file():
        raise ImportError(f"no streamfec sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import streamfec
    if Path(streamfec.__file__).resolve().parent != SRC / "streamfec":
        raise ImportError(f"streamfec imported from {streamfec.__file__}, not {SRC}")


def main(argv=None) -> int:
    # A stray setting would put verify's pattern fan-out on threads.
    os.environ.pop("STREAMCODE_THREADS", None)
    try:
        import_program()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    res = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in res.lines:
        print(line)
    for name, (value, unit) in res.metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": res.correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in res.metrics.items()},
    }))
    return 0 if res.correct else 1


if __name__ == "__main__":
    sys.exit(main())
