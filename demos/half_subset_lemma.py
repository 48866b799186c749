"""The half-subset averaging lemma, exactly and on a weighted family.

Part 1: the window identity.  For any subset J with #J <= r/2 the sum over J
is an exact signed combination of r/2-size window sums — verified here in
rational arithmetic on random vectors.  The system keeps how many K and L
windows hold each index: all r/2 K windows and no L window for j in J, and as
many K as L windows for every other index, so 2(k - l) = r [i in J].

Part 2: the deviation bound.  If every half-size subset sum of a weighted
sequence family stays within epsilon of 1/2 on average, then every subset J
deviates from #J/r by less than (r - #J)/(r/2) * epsilon < 2*epsilon.

Run: python3 demos/half_subset_lemma.py
"""

import itertools
import random
from fractions import Fraction

from parind_lab import halfsum


def main() -> None:
    rng = random.Random(7)
    r, J = 10, (1, 4)
    system = halfsum.build_system(r, J)
    p = [Fraction(rng.randrange(0, 65), 64) for _ in range(r)]
    result = halfsum.identity_check(system, p)
    print(f"r = {r}, J = {J}")
    print(f"  K multiplicity per index: {system.k_multiplicity}")
    print(f"  L multiplicity per index: {system.l_multiplicity}")
    print(f"  lhs = {result['lhs']}  rhs = {result['rhs']}  holds = {result['holds']}")
    print(f"  coefficient (r-#J)/(r/2) = {halfsum.bound_coefficient(r, len(J))}")
    print()

    # A family that tilts two coordinates by +/- 1/40 around uniform; audit
    # every subset with an epsilon strictly above the worst half-subset
    # deviation (the hypothesis is a strict inequality).
    tilt = Fraction(1, 40)
    eps = Fraction(1, 32)
    base = [Fraction(1, r)] * r
    up = list(base)
    up[0] += tilt
    up[1] -= tilt
    down = list(base)
    down[0] -= tilt
    down[1] += tilt
    family = halfsum.WeightedSequenceFamily(
        weights=(Fraction(1, 2), Fraction(1, 2)),
        sequences=(tuple(up), tuple(down)),
    )
    every_subset = [
        subset for size in range(r + 1) for subset in itertools.combinations(range(r), size)
    ]
    check = halfsum.lemma_bound_check(family, eps, subsets=every_subset)
    tightest = min(
        row["bound"] - row["measured"]
        for row in check["subsets"]
        if 0 < row["size"] < r
    )
    print(f"family tilt = {tilt}, audited epsilon = {eps}")
    print(f"  worst half-subset deviation (sorted extreme): {check['worst_half_value']}")
    print(f"  hypothesis holds: {check['hypothesis_holds']}")
    print(f"  conclusion holds for all audited subsets: {check['conclusion_holds']}")
    print(f"  sharpest audited margin (bound - measured): {tightest}")


if __name__ == "__main__":
    main()
