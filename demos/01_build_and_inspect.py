"""Build a streaming code and inspect its structure.

For a channel that, in every window of W packets, loses either a burst of
at most B packets or up to N packets at arbitrary positions, and a decoding
deadline of T packets, the library derives a systematic (n, k) block code
whose rate k/n meets the channel capacity exactly.
"""
from streamfec import StreamParams, build_code, capacity, constituents, validate_and_derive

params = StreamParams(W=10, T=9, B=5, N=3)
derived = validate_and_derive(params)
g = build_code(derived)

print(f"channel: window W={params.W}, burst B={params.B}, sparse N={params.N}, "
      f"deadline T={params.T}")
print(f"derived: k={derived.k} n={derived.n} M={derived.M} delta={derived.delta} "
      f"over GF({derived.q}^{derived.m})")
c = capacity(derived.T_eff, derived.B, derived.N)
print(f"rate {derived.k}/{derived.n} == capacity {c.numerator}/{c.denominator}")

print("\nparity support (k rows x B columns, '#' = nonzero):")
for i in range(derived.k):
    row = "".join("#" if g.P[i, j] else "." for j in range(derived.B))
    kind = ("thin overlap band" if i < derived.delta
            else "diagonal MDS block" if i < derived.B
            else "dense rank-metric band")
    print(f"  row {i}: {row}   {kind}")

mds, mrd = constituents(derived)
print("\nconstituents:")
print(f"  ({mds.n}, {mds.k}) Cauchy MDS code over GF({derived.q})")
print(f"  ({mrd.n}, {mrd.k}) Gabidulin MRD code over GF({derived.q}^{derived.m})")
