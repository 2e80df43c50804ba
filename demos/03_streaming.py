"""Stream packets through a lossy channel and recover them within the delay.

The block code is spread along diagonals of the (symbol row x time) grid,
giving a convolutional code with memory n - 1.  Each diagonal is decoded
as one code block, so on an admissible channel every source packet is
reproduced at most T slots after it was sent.
"""
import random

from streamfec import (StreamParams, apply, build_code, delay_check,
                       encode_stream, sample_stream_pattern, simulate,
                       stream_decode, validate_and_derive)

g = build_code(validate_and_derive(StreamParams(W=11, T=10, B=4, N=2)))
d = g.derived
ext = g.field()
rng = random.Random(3)

length = 40
src = [[ext.random_element(rng) for _ in range(d.k)] for _ in range(length)]
sent = encode_stream(src, g)
pattern = sample_stream_pattern(len(sent), d.W, d.B, d.N, seed=12)
decoded, report = stream_decode(apply(sent, pattern), g, num_source=length)

print(f"sent {length} source packets; channel erased slots {list(pattern.erased)}")
print(f"recovered {report.recovered()}/{report.packets}, "
      f"max latency {report.max_latency} (budget T={d.T})")
assert decoded == src
assert delay_check(report, d.T)

print("\nper-packet latency (slots after send until every symbol is pinned):")
print("  " + " ".join(str(v) for v in report.latencies))

print("\n100 seeded simulations of 200 packets each:")
worst = 0
for seed in range(100):
    rep, _ = simulate(g, 200, seed=seed, values=False)
    assert not rep.failures
    worst = max(worst, rep.max_latency)
print(f"  all packets recovered; worst latency {worst} <= T={d.T}")
