"""Half-subset sums: the window construction, its exact combinatorial identity, and
the resulting deviation bound.

Given r numbers of which every half-size subset sum averages within epsilon of
1/2, every subset sum averages within 2*epsilon of its uniform value #J/r.  The
engine expresses an arbitrary subset sum as a signed combination of half-size
window sums: with J fixed, M := r - #J complement indices enumerated by f, and
x := r/2 - #J,

    K_a := J  union  { f[(a*x + t) mod M] : t < x },     a < r/2,
    L_b := { f[(b*(r/2) + t) mod M] : t < r/2 },         b < x,

both window families tile the positions [0, (r/2)*x) modulo M, so

    sum_{i in J} p_i = ( sum_a R_a - sum_b T_b ) / (r/2)

holds exactly for arbitrary p and arbitrary enumeration order f.  The window
sums are linear in p, so the system counts once how many K and L windows hold
each index and evaluates R and T as dot products with those multiplicities.
Everything in this module is exact rational arithmetic; callers with measured
floating-point probabilities get the same formulas with a small numeric slack.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import operator
import random
from collections.abc import Sequence
from fractions import Fraction
from numbers import Rational

Number = Fraction | float


@dataclasses.dataclass(frozen=True)
class HalfSubsetSystem:
    """Window construction for one subset J of {0, .., r-1} with #J <= r/2."""

    r: int
    J: tuple[int, ...]
    f: tuple[int, ...]
    K_sets: tuple[tuple[int, ...], ...] = dataclasses.field(init=False)
    L_sets: tuple[tuple[int, ...], ...] = dataclasses.field(init=False)
    # per index: how many K windows / L windows contain it, counted on the
    # windows above, so that R = sum_i k_multiplicity[i] * p_i (likewise T)
    k_multiplicity: tuple[int, ...] = dataclasses.field(
        init=False, repr=False, compare=False
    )
    l_multiplicity: tuple[int, ...] = dataclasses.field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.r < 2 or self.r % 2 != 0:
            raise ValueError(f"r must be even and positive, got {self.r}")
        if len(set(self.J)) != len(self.J) or any(not 0 <= i < self.r for i in self.J):
            raise ValueError(f"J must be a subset of range({self.r}), got {self.J}")
        if len(self.J) > self.r // 2:
            raise ValueError(
                f"window construction needs #J <= r/2; reduce #J={len(self.J)} "
                "via the complement first"
            )
        if sorted(self.f) != sorted(set(range(self.r)) - set(self.J)):
            raise ValueError("f must enumerate the complement of J")
        half = self.r // 2
        x = self.x
        m = self.complement_size
        k_sets = []
        for a in range(half):
            window = tuple(self.f[(a * x + t) % m] for t in range(x))
            k_sets.append(tuple(self.J) + window)
        l_sets = []
        for b in range(x):
            l_sets.append(tuple(self.f[(b * half + t) % m] for t in range(half)))
        object.__setattr__(self, "K_sets", tuple(k_sets))
        object.__setattr__(self, "L_sets", tuple(l_sets))
        assert all(len(k) == half for k in self.K_sets)
        assert all(len(l) == half for l in self.L_sets)
        for name, windows in (("k_multiplicity", k_sets), ("l_multiplicity", l_sets)):
            counts = [0] * self.r
            for window in windows:
                for i in window:
                    counts[i] += 1
            object.__setattr__(self, name, tuple(counts))

    @property
    def x(self) -> int:
        return self.r // 2 - len(self.J)

    @property
    def complement_size(self) -> int:
        return self.r - len(self.J)


def build_system(
    r: int, J: Sequence[int], f_order: Sequence[int] | None = None
) -> HalfSubsetSystem:
    """Construct the window system; f defaults to the ascending complement order."""
    j_tuple = tuple(J)
    if f_order is None:
        f_order = tuple(sorted(set(range(r)) - set(j_tuple)))
    return HalfSubsetSystem(r=r, J=j_tuple, f=tuple(f_order))


def identity_check(system: HalfSubsetSystem, p: Sequence[Number]) -> dict:
    """Verify sum_{i in J} p_i == (sum_a R_a - sum_b T_b) / (r/2) for this p.

    With Fraction entries the comparison is exact: p is cleared to one common
    denominator D and both sides are integer dot products with the window
    multiplicities.  Float entries take the same multiplicities in float
    arithmetic with a 1e-12 slack.  The returned dict carries both sides for
    counterexample reporting.
    """
    if len(p) != system.r:
        raise ValueError(f"p must have {system.r} entries, got {len(p)}")
    if all(isinstance(v, Rational) for v in p):
        denominators = [v.denominator for v in p]
        D = math.lcm(*denominators)
        q = [v.numerator * (D // d) for v, d in zip(p, denominators)]
        lhs_q = sum(q[i] for i in system.J)
        r_q = sum(map(operator.mul, system.k_multiplicity, q))
        t_q = sum(map(operator.mul, system.l_multiplicity, q))
        lhs = Fraction(lhs_q, D)
        rhs = Fraction(2 * (r_q - t_q), system.r * D)
        r_sum, t_sum = Fraction(r_q, D), Fraction(t_q, D)
        holds = lhs == rhs
    else:
        lhs = sum(p[i] for i in system.J)
        r_sum = sum(map(operator.mul, system.k_multiplicity, p))
        t_sum = sum(map(operator.mul, system.l_multiplicity, p))
        rhs = 2 * (r_sum - t_sum) / system.r
        holds = bool(abs(lhs - rhs) <= 1e-12)
    return {
        "holds": holds,
        "lhs": lhs,
        "rhs": rhs,
        "window_sums": {"R": r_sum, "T": t_sum},
    }


def bound_coefficient(r: int, subset_size: int) -> Fraction:
    """Sharper per-J coefficient in the deviation bound: (r - #J)/(r/2) for
    #J <= r/2, and #J/(r/2) via the complement otherwise; always < 2 for
    nonempty proper J and at most 2 overall."""
    if not 0 <= subset_size <= r:
        raise ValueError(f"subset size {subset_size} out of range for r={r}")
    if subset_size <= r // 2:
        return Fraction(r - subset_size, r // 2)
    return Fraction(subset_size, r // 2)


@dataclasses.dataclass(frozen=True)
class WeightedSequenceFamily:
    """Finitely many length-r sequences p^lambda with weights mu_lambda."""

    weights: tuple[Number, ...]
    sequences: tuple[tuple[Number, ...], ...]

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.sequences):
            raise ValueError("one weight per sequence required")
        if not self.sequences:
            raise ValueError("family must be nonempty")
        r = len(self.sequences[0])
        if any(len(seq) != r for seq in self.sequences):
            raise ValueError("all sequences must share the same length")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be nonnegative")
        total = sum(self.weights)
        exact = all(isinstance(w, Rational) for w in self.weights)
        if (exact and total != 1) or (not exact and abs(total - 1) > 1e-12):
            raise ValueError(f"weights must sum to 1, got {total}")

    @property
    def r(self) -> int:
        return len(self.sequences[0])

    def average_deviation(self, subset: Sequence[int], target: Number) -> Number:
        """mu-average of |sum_{i in subset} p^lambda_i - target|."""
        return sum(
            w * abs(sum(seq[i] for i in subset) - target)
            for w, seq in zip(self.weights, self.sequences)
        )

    def sorted_extreme_deviation(self) -> Number:
        """mu-average of the per-lambda worst half-subset deviation from 1/2.

        Upper-bounds the deviation of every fixed half-subset (average of a max
        dominates the max of averages), so it certifies the lemma hypothesis for
        all half-subsets in one O(r log r) pass per lambda.
        """
        half = self.r // 2
        target = Fraction(1, 2)
        total: Number = 0
        for w, seq in zip(self.weights, self.sequences):
            top = sum(sorted(seq, reverse=True)[:half])
            total += w * max(abs(top - target), abs((sum(seq) - top) - target))
        return total


def _enumerated_hypothesis(
    family: WeightedSequenceFamily,
) -> tuple[Number, tuple[int, ...]]:
    half = family.r // 2
    target = Fraction(1, 2)
    worst_value: Number = -1
    worst_subset: tuple[int, ...] = ()
    for subset in itertools.combinations(range(family.r), half):
        value = family.average_deviation(subset, target)
        if value > worst_value:
            worst_value, worst_subset = value, subset
    return worst_value, worst_subset


# Largest (subset count) x (weight count) product that is enumerated exactly.
_ENUMERATION_LIMIT = 200_000


def lemma_bound_check(
    family: WeightedSequenceFamily,
    epsilon: Number,
    *,
    subsets: Sequence[Sequence[int]] | None = None,
) -> dict:
    """Check the half-subset deviation lemma on a weighted family.

    Hypothesis: every half-size subset sum mu-averages within epsilon of 1/2 —
    enumerated exactly when C(r, r/2) is small, otherwise certified through the
    per-lambda sorted extreme.  Conclusion: every audited subset J deviates from
    #J/r by less than bound_coefficient(r, #J) * epsilon (< 2*epsilon).  Audited
    subsets are the provided `subsets`, else all 2^r when feasible, else
    structured prefixes plus 64 samples seeded with 0.  Enumeration is feasible
    while subsets times weights stays within 200 000.  Numeric slack 1e-12
    applies when any input is a float.
    """
    r = family.r
    if r % 2 != 0:
        raise ValueError(f"sequence length must be even, got {r}")
    exact = all(
        isinstance(v, Rational)
        for seq in family.sequences
        for v in seq
    ) and all(isinstance(w, Rational) for w in family.weights)
    slack = 0 if exact else 1e-12

    n_half = math.comb(r, r // 2)
    if n_half * len(family.weights) <= _ENUMERATION_LIMIT:
        worst_value, worst_subset = _enumerated_hypothesis(family)
        hypothesis_mode = "enumerated"
    else:
        worst_value = family.sorted_extreme_deviation()
        worst_subset = ()
        hypothesis_mode = "sorted-extreme upper bound"
    hypothesis_holds = bool(worst_value < epsilon + slack)

    if subsets is None:
        if 2**r * len(family.weights) <= _ENUMERATION_LIMIT:
            audited = [
                subset
                for size in range(r + 1)
                for subset in itertools.combinations(range(r), size)
            ]
        else:
            rng = random.Random(0)
            audited = [tuple(range(size)) for size in range(0, r + 1, max(1, r // 8))]
            audited += [
                tuple(sorted(rng.sample(range(r), rng.randrange(r + 1))))
                for _ in range(64)
            ]
    else:
        audited = [tuple(s) for s in subsets]

    conclusion = []
    all_hold = True
    for subset in audited:
        size = len(subset)
        coefficient = bound_coefficient(r, size)
        measured = family.average_deviation(subset, Fraction(size, r))
        bound = coefficient * epsilon
        holds = bool(measured < bound + slack) or size in (0, r)
        all_hold &= holds
        conclusion.append(
            {
                "subset": subset,
                "size": size,
                "coefficient": coefficient,
                "bound": bound,
                "measured": measured,
                "holds": holds,
            }
        )

    return {
        "r": r,
        "epsilon": epsilon,
        "hypothesis_mode": hypothesis_mode,
        "hypothesis_holds": hypothesis_holds,
        "worst_half_value": worst_value,
        "worst_half_subset": worst_subset,
        "conclusion_holds": all_hold,
        "subsets": conclusion,
        "passed": hypothesis_holds and all_hold,
    }
