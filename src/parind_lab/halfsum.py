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
sums are linear in p, so the system keeps only how many K and L windows hold
each index, read off the tiling: each j in J lies in all r/2 K windows and in
no L window, and with (covered, extra) = divmod((r/2)*x, M) the complement
index f[q] lies in covered + [q < extra] windows of each family.  R and T are
dot products with those multiplicities.  The identity takes exact rational
entries only; the deviation lemma also takes measured floating-point
probabilities, with a 1e-12 slack.
"""

from __future__ import annotations

import dataclasses
import math
import operator
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
    # per index: how many K windows / L windows contain it, so that
    # R = sum_i k_multiplicity[i] * p_i (likewise T)
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
        # Both families tile the positions [0, (r/2)*x) once, taken mod M.
        covered, extra = divmod(half * self.x, self.complement_size)
        l_counts = [0] * self.r
        for position, i in enumerate(self.f):
            l_counts[i] = covered + (position < extra)
        k_counts = list(l_counts)
        for j in self.J:
            k_counts[j] = half
        object.__setattr__(self, "k_multiplicity", tuple(k_counts))
        object.__setattr__(self, "l_multiplicity", tuple(l_counts))

    @property
    def x(self) -> int:
        return self.r // 2 - len(self.J)

    @property
    def complement_size(self) -> int:
        return self.r - len(self.J)


def build_system(r: int, J: Sequence[int]) -> HalfSubsetSystem:
    """The window system with f the ascending complement order."""
    j_tuple = tuple(J)
    return HalfSubsetSystem(r=r, J=j_tuple, f=tuple(sorted(set(range(r)) - set(j_tuple))))


def identity_check(system: HalfSubsetSystem, p: Sequence[Rational]) -> dict:
    """Verify sum_{i in J} p_i == (sum_a R_a - sum_b T_b) / (r/2) exactly.

    Returns {"holds", "lhs", "rhs", "R", "T"}: both sides of the identity and
    the window sums R = sum_a R_a, T = sum_b T_b, as Fractions.  Every entry
    must be a `numbers.Rational` (int, bool, Fraction, numpy integers); any
    other entry, a float among them, raises TypeError.  p is cleared to one
    common denominator D, so with integer dot products lhs_q, r_q, t_q the
    verdict is the integer test r * lhs_q == 2 (r_q - t_q), and `rhs is lhs`
    whenever the identity holds.
    """
    if len(p) != system.r:
        raise ValueError(f"p must have {system.r} entries, got {len(p)}")
    if not all(issubclass(kind, Rational) for kind in set(map(type, p))):
        raise TypeError(f"the window identity takes numbers.Rational entries only, got {p!r}")
    try:
        ratios = [v.as_integer_ratio() for v in p]
    except AttributeError:  # numpy integers; int() keeps them from overflowing
        ratios = [(int(v.numerator), int(v.denominator)) for v in p]
    D = math.lcm(*(d for _, d in ratios))
    q = [n * (D // d) for n, d in ratios]
    lhs_q = sum(q[i] for i in system.J)
    r_q = sum(map(operator.mul, system.k_multiplicity, q))
    t_q = sum(map(operator.mul, system.l_multiplicity, q))
    holds = system.r * lhs_q == 2 * (r_q - t_q)
    lhs = Fraction(lhs_q, D)
    rhs = lhs if holds else Fraction(2 * (r_q - t_q), system.r * D)
    return {"holds": holds, "lhs": lhs, "rhs": rhs, "R": Fraction(r_q, D), "T": Fraction(t_q, D)}


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


def lemma_bound_check(
    family: WeightedSequenceFamily,
    epsilon: Number,
    *,
    subsets: Sequence[Sequence[int]],
) -> dict:
    """Check the half-subset deviation lemma on a weighted family.

    Hypothesis: every half-size subset sum mu-averages within epsilon of 1/2,
    certified through `family.sorted_extreme_deviation()`, reported as
    `worst_half_value`.  It bounds every half subset's deviation, so it is a
    sufficient condition: it may be stricter than the largest deviation, never
    looser.  Conclusion: every subset J the caller names in `subsets` deviates
    from #J/r by less than bound_coefficient(r, #J) * epsilon (< 2*epsilon).
    Numeric slack 1e-12 applies when any input is a float.
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

    worst_value = family.sorted_extreme_deviation()
    hypothesis_holds = bool(worst_value < epsilon + slack)

    conclusion = []
    all_hold = True
    for subset in map(tuple, subsets):
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
        "hypothesis_holds": hypothesis_holds,
        "worst_half_value": worst_value,
        "conclusion_holds": all_hold,
        "subsets": conclusion,
        "passed": hypothesis_holds and all_hold,
    }
