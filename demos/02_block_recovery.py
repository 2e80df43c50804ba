"""Erase symbols from one code block and watch the decoder meet its deadlines.

Each source symbol i carries its own deadline min(i + T, n - 1).  The demo
decodes a full-length burst and a sparse pattern with both decoders: the
elimination oracle (earliest possible recovery) and the structured pipeline
(rank-metric outer solve + Cauchy sub-block peeling).
"""
import random

from streamfec import (ErasurePattern, StreamParams, apply, build_code,
                       classify_pattern, decode_structured, encode_block,
                       oracle_decode, validate_and_derive)

g = build_code(validate_and_derive(StreamParams(W=10, T=9, B=5, N=3)))
d = g.derived
ext = g.field()
rng = random.Random(7)
source = [ext.random_element(rng) for _ in range(d.k)]
codeword = encode_block(source, g)

for label, erased in [("burst of B=5", range(0, 5)),
                      ("sparse N=3", [0, 4, 9])]:
    pattern = ErasurePattern.make(d.n, erased)
    kind = classify_pattern(pattern, d)
    y = apply(codeword, pattern)
    orc = oracle_decode(g, y)
    st = decode_structured(g, y)
    assert st.values() == orc.values() == source
    print(f"{label} -> routed to the {kind} pipeline")
    for i, (o, s) in enumerate(zip(orc.symbols, st.symbols)):
        note = "erased" if i in set(pattern.erased) else "received"
        print(f"  s[{i}] ({note}): oracle t={o.recovery_time}, "
              f"structured t={s.recovery_time}, deadline {s.deadline}")
    print()
