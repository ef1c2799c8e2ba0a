#!/usr/bin/env python3
"""Walk through the generator construction and its inverse.

Every maximum delta-free family over {1..n} is defined by a proper subset
sc of the ground set: keep the odd-size subsets meeting sc evenly and the
even-size subsets meeting sc oddly.  The defining set is recoverable from
the family's singletons, which makes recognition a round trip.
"""

import deltafree as df


def show(family, label):
    rendered = ", ".join(
        "{" + ",".join(map(str, df.elements_of(w))) + "}" for w in family.members
    )
    print(f"  {label} ({len(family)} sets): {rendered}")


print("=== constructing from a defining set ===")
gen = df.Generator(5, df.word_of([3, 4, 5], 5))
family = df.generate_family(gen)
show(family, "sc={3,4,5}, n=5")
print("  delta-free:", df.is_delta_free(family))
print("  maximum size 2^(n-1):", df.is_maximum_family(family))

print()
print("=== the two special defining sets ===")
show(df.generate_family(df.Generator(4, 0)), "sc={} gives all odd subsets")
point = df.generate_family(df.Generator(4, df.word_of([2, 3, 4], 4)))
show(point, "sc={2,3,4} gives every superset of {1}")

print()
print("=== recognition recovers sc from the singletons ===")
for sc_elems in ((), (3,), (3, 4), (2, 3, 4)):
    g = df.Generator(4, df.word_of(sc_elems, 4))
    fam = df.generate_family(g)
    recovered = df.recognize_generator(fam)
    print(
        f"  sc={df.format_element_set(g.sc)} -> family of {len(fam)} "
        f"-> recovered {df.format_element_set(recovered.sc)}"
    )
    assert recovered == g

print()
print("=== a family that is not generated ===")
orphan = df.Family(3, [df.word_of([1, 2], 3), df.word_of([1, 3], 3)])
print("  {{1,2},{1,3}} delta-free:", df.is_delta_free(orphan))
print("  recognized generator:", df.recognize_generator(orphan))
print("  (no singletons, so it cannot be a maximum family)")

print()
print("=== the GF(2) cross-check ===")
# the parity rule, word by word, against generate_family, which lists the
# words with odd trace against s = ground \ sc
mismatches = 0
for n in range(1, 9):
    for sc in range((1 << n) - 1):
        rule = [w for w in range(1 << n) if w.bit_count() % 2 != (w & sc).bit_count() % 2]
        lhs = df.Family(n, rule)
        rhs = df.generate_family(df.Generator(n, sc))
        mismatches += lhs != rhs
print(f"  parity-rule route vs linear-form route, n<=8: {mismatches} mismatches")
