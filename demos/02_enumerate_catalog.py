#!/usr/bin/env python3
"""Exhaustively enumerate the maximum delta-free families for n = 2..6.

The search knows nothing about defining sets: it is a DFS over candidate
subsets, pruned by a count bound and a covering bound.  Comparing its
output against the construction is the completeness check, and canonical
forms under relabeling give the isomorphism census (2^n - 1 families
falling into n classes, one per defining-set size).  Completeness comes
from the search alone; the class sizes C(n, |s|) then follow from the
form of each family, since canonical_form sends A(s) to A(2^|s| - 1)
without a relabeling search.
"""

import deltafree as df

for n in (2, 3, 4, 5, 6):
    report = df.enumerate_maximum_families(n)
    constructed = {
        df.generate_family(df.Generator(n, sc)) for sc in range((1 << n) - 1)
    }
    print(f"=== n={n} ===")
    print(f"  families found by search : {report.total}")
    print(f"  expected 2^n - 1         : {(1 << n) - 1}")
    print(f"  search equals construction: {set(report.families) == constructed}")
    complete = report.total == (1 << n) - 1 and report.all_generated
    print(f"  completeness verified     : {complete}")
    print(f"  isomorphism class sizes   : {list(report.class_sizes)}")
    print(f"  search nodes visited      : {report.nodes}")
    print(f"  elapsed                   : {report.elapsed:.3f}s")
    if n == 3:
        print("  the n=3 catalog:")
        for fam in report.families:
            sets = " ".join(
                "{" + ",".join(map(str, df.elements_of(w))) + "}" for w in fam.members
            )
            sc = df.recognize_generator(fam).sc
            print(f"    sc={df.format_element_set(sc):8} {sets}")
    print()

print("class sizes match the binomial counts C(n, |sc|):")
for n in (3, 4, 5, 6):
    report = df.enumerate_maximum_families(n)
    by_sc_size: dict[int, int] = {}
    for fam in report.families:
        k = len(df.elements_of(df.recognize_generator(fam).sc))
        by_sc_size[k] = by_sc_size.get(k, 0) + 1
    print(f"  n={n}: families grouped by |sc| -> {sorted(by_sc_size.items())}")
