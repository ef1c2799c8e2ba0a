#!/usr/bin/env python3
"""Partition a maximum family into its four parity classes.

Against any reference set t, each member lands in the class with index
2 * (cardinality parity) + (trace parity).  Classes compose under xor of
the indices, and for a generated family the four classes have equal size
2^(n-3) for every reference away from the four degenerate choices {}, s,
sc, and the whole ground set.
"""

import deltafree as df

family = df.generate_family(df.Generator(4, df.word_of([3, 4], 4)))
print("family A(sc={3,4}), n=4:")
print(" ", [df.elements_of(w) for w in family.members])

print()
print("=== split against t={1,2,3} ===")
split = df.partition_family(family, df.word_of([1, 2, 3], 4))
for name, sub in zip(df.CLASS_NAMES, split):
    tag = "(" + name.replace("_", ",") + ")"
    sets = [df.elements_of(w) for w in sub.members]
    print(f"  class {tag:12} size {len(sub)}: {sets}")

print()
print("=== the class xor table ===")
# class index 2 * card + trace; the class of A xor B is the xor of the indices
order = [3, 2, 1, 0]
label = ["".join(part[0] for part in name.split("_")) for name in df.CLASS_NAMES]
print("      " + "  ".join(label[q] for q in order))
for p in order:
    row = "  ".join(label[p ^ q] for q in order)
    print(f"  {label[p]}  {row}")

print()
print("=== equal-split sweep over every reference set, n=4 ===")
gen = df.Generator(4, df.word_of([3, 4], 4))
equal, degenerate = [], []
for t in range(16):
    (equal if df.equal_split_expected(gen, t) else degenerate).append(t)
    observed = all(len(sub) == 2 for sub in df.partition_family(df.generate_family(gen), t))
    assert df.equal_split_expected(gen, t) == observed
print(f"  equal 2/2/2/2 split for {len(equal)} of 16 references")
print(
    "  degenerate references:",
    [df.format_element_set(t) for t in degenerate],
    "(empty, s, sc, full)",
)
