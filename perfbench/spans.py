"""Span recording for the traced benchmark run.

Spans are recorded from outside the program.  Each traced function is
replaced, in the namespace of the module that calls it, by a wrapper that
opens a span on entry and closes it on exit; methods are replaced on their
class.  The field operators that run millions of times per job get a
counting wrapper instead of a span.  Everything is undone on exit from
:meth:`Tracer.installed`, so untraced code runs the program unwrapped.

The program is single-threaded, so one stack gives every span its parent.
"""
from __future__ import annotations

import functools
import json
import time
import weakref
from contextlib import contextmanager

from streamfec import channel, cli, construction, decoder, stream
from streamfec.gf import FieldElement
from streamfec.matrix import Mat

# (namespace, attribute, span name).  The namespace is the module that makes
# the call, so ``(stream, "oracle_plan")`` sees the plans stream_decode asks
# for and ``(decoder, "oracle_plan")`` those oracle_decode asks for.  The
# span name is "<layer>.<function>", the layer being the defining module.
TRACED = (
    (cli, "main", "cli.main"),
    (cli, "validate_and_derive", "construction.validate_and_derive"),
    (cli, "build_code", "construction.build_code"),
    (cli, "enumerate_block_patterns", "channel.enumerate_block_patterns"),
    (cli, "apply", "channel.apply"),
    (cli, "encode_block", "construction.encode_block"),
    (cli, "classify_pattern", "decoder.classify_pattern"),
    (cli, "oracle_decode", "decoder.oracle_decode"),
    (cli, "decode_structured", "decoder.decode_structured"),
    (construction, "validate_and_derive", "construction.validate_and_derive"),
    (construction, "build_code", "construction.build_code"),
    (construction, "build_mds", "codes.build_mds"),
    (construction, "build_gabidulin", "codes.build_gabidulin"),
    (channel, "is_admissible", "channel.is_admissible"),
    (channel, "sample_stream_pattern", "channel.sample_stream_pattern"),
    (channel, "apply", "channel.apply"),
    (stream, "sample_stream_pattern", "channel.sample_stream_pattern"),
    (stream, "stream_decode", "stream.stream_decode"),
    (stream, "simulate", "stream.simulate"),
    (stream.StreamEncoder, "push", "stream.push"),
    (Mat, "__matmul__", "matrix.matmul"),
    (Mat, "rref", "matrix.rref"),
    (Mat, "solve_left", "matrix.solve_left"),
    (Mat, "right_kernel_basis", "matrix.right_kernel"),
)
PLAN_CALLERS = (decoder, stream)  # both look up oracle_plan in their globals
COUNTED = ((FieldElement, "__mul__", "gf.mul"), (FieldElement, "inverse", "gf.inverse"))


class Tracer:
    """Spans as ``[name, start, end, parent, attrs]``; a span's id is its index."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []
        self.counts = {name: 0 for _, _, name in COUNTED}
        self._stack: list[int] = []
        # id(GeneratorSet) -> (weakref to it, erasure keys already planned)
        self._plan_keys: dict[int, tuple] = {}

    @contextmanager
    def span(self, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        idx = len(spans)
        spans.append([name, clock(), None, stack[-1] if stack else None, None])
        stack.append(idx)
        try:
            yield spans[idx]
        finally:
            stack.pop()
            spans[idx][2] = clock()

    def _wrap(self, fn, name: str, tag=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None,
                          tag(*args) if tag else None])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
        return wrapper

    def _count(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    def _plan_miss(self, g, erased) -> dict:
        """A call is a miss the first time its erasure key is seen for ``g``."""
        entry = self._plan_keys.get(id(g))
        if entry is None or entry[0]() is not g:
            entry = (weakref.ref(g), set())
            self._plan_keys[id(g)] = entry
        miss = erased not in entry[1]
        entry[1].add(erased)
        return {"miss": miss}

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name in TRACED:
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, self._wrap(owner.__dict__[attr], name))
            for owner in PLAN_CALLERS:
                saved.append((owner, "oracle_plan", owner.oracle_plan))
                owner.oracle_plan = self._wrap(owner.oracle_plan, "decoder.oracle_plan",
                                               self._plan_miss)
            for owner, attr, name in COUNTED:
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, self._count(owner.__dict__[attr], name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path, meta: dict) -> None:
        """One JSON header line, then one line per span; times from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps(meta, sort_keys=True) + "\n")
            for idx, (name, start, end, parent, attrs) in enumerate(self.spans):
                rec = {"id": idx, "name": name, "start": start - t0, "end": end - t0,
                       "parent": parent, "workload": self.workload}
                if attrs:
                    rec.update(attrs)
                fh.write(json.dumps(rec) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for idx, s in enumerate(spans):
        if s[3] is not None:
            children[s[3]].append(idx)
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c in sorted(children[idx], key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def roots(spans: list[list]) -> list[int]:
    """The index of each span's outermost ancestor (parents precede children)."""
    out: list[int] = []
    for idx, s in enumerate(spans):
        out.append(idx if s[3] is None else out[s[3]])
    return out
