"""Tests for the half-subset window construction: the exact identity, the
per-size coefficient, and the deviation lemma on weighted families."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parind_lab import halfsum

from oracles import enumerated_hypothesis, window_sets


def random_rational_vector(rng, r, denominator=64):
    return [Fraction(rng.randrange(0, denominator + 1), denominator) for _ in range(r)]


def literal_window_sums(system, p):
    """Oracle: sum p over every literal K and L window, as the identity is stated."""
    k_sets, l_sets = window_sets(system)
    lhs = sum(p[i] for i in system.J)
    r_sum = sum(p[i] for k in k_sets for i in k)
    t_sum = sum(p[i] for l in l_sets for i in l)
    return lhs, (r_sum - t_sum) / Fraction(system.r, 2), r_sum, t_sum


@st.composite
def window_systems(draw):
    """Even r <= 16, any #J <= r/2 (in any order), shuffled complement order."""
    r = draw(st.sampled_from(range(2, 17, 2)))
    size = draw(st.integers(0, r // 2))
    J = draw(st.permutations(range(r)))[:size]
    f_order = draw(st.permutations([i for i in range(r) if i not in J]))
    return halfsum.HalfSubsetSystem(r, tuple(J), tuple(f_order))


exact_entries = st.one_of(
    st.integers(-1000, 1000),
    st.booleans(),
    st.integers(-1000, 1000).map(np.int64),
    st.fractions(min_value=-10, max_value=10, max_denominator=10**6),
)


def all_subsets(r):
    return [s for size in range(r + 1) for s in itertools.combinations(range(r), size)]


def test_window_families_tile_positions():
    system = halfsum.build_system(10, (0, 1))
    k_sets, l_sets = window_sets(system)
    assert len(k_sets) == 5
    assert len(l_sets) == system.x == 3
    for window in k_sets + l_sets:
        assert len(window) == 5
    # every K window contains J itself
    for window in k_sets:
        assert set(system.J) <= set(window)


def _assert_multiplicities_count_the_windows(system):
    k_sets, l_sets = window_sets(system)
    for multiplicity, windows in ((system.k_multiplicity, k_sets), (system.l_multiplicity, l_sets)):
        assert multiplicity == tuple(sum(w.count(i) for w in windows) for i in range(system.r))
    for i, (k, l) in enumerate(zip(system.k_multiplicity, system.l_multiplicity)):
        assert 2 * (k - l) == system.r * (i in system.J)


def test_multiplicities_read_off_the_tiling_count_the_literal_windows():
    """The multiplicities are the counts over the literal windows, and their
    difference proves the identity for every p: 2 (k - l) = r [i in J].  Every
    J for even r <= 12 with the ascending complement order, plus seeded
    systems up to r = 40 with a shuffled one."""
    for r in range(2, 13, 2):
        for size in range(r // 2 + 1):
            for J in itertools.combinations(range(r), size):
                _assert_multiplicities_count_the_windows(halfsum.build_system(r, J))
    rng = random.Random(25)
    for _ in range(2000):
        r = rng.randrange(2, 41, 2)
        J = tuple(rng.sample(range(r), rng.randrange(r // 2 + 1)))
        f = [i for i in range(r) if i not in J]
        rng.shuffle(f)
        _assert_multiplicities_count_the_windows(halfsum.HalfSubsetSystem(r, J, tuple(f)))


@pytest.mark.parametrize("r", [2, 4, 6, 8, 10, 12])
def test_identity_exact_for_random_rationals(r):
    """The signed window combination reproduces the subset sum exactly, for all
    subset sizes up to r/2 and random exact p."""
    rng = random.Random(r)
    for size in range(1, r // 2 + 1):
        J = tuple(sorted(rng.sample(range(r), size)))
        system = halfsum.build_system(r, J)
        for _ in range(20):
            p = random_rational_vector(rng, r)
            result = halfsum.identity_check(system, p)
            assert result["holds"]
            assert result["lhs"] == result["rhs"]  # exact Fraction equality


def test_identity_independent_of_enumeration_order():
    rng = random.Random(5)
    J = (1, 4)
    complement = [i for i in range(8) if i not in J]
    p = random_rational_vector(rng, 8)
    references = set()
    for _ in range(10):
        order = complement[:]
        rng.shuffle(order)
        system = halfsum.HalfSubsetSystem(8, J, tuple(order))
        result = halfsum.identity_check(system, p)
        assert result["holds"]
        references.add(result["rhs"])
    assert len(references) == 1  # same value whatever the window layout


def test_identity_exhaustive_tiny_case():
    # r = 4: every J with #J <= 2, every 0/1 vector — fully enumerable
    for size in (1, 2):
        for J in itertools.combinations(range(4), size):
            system = halfsum.build_system(4, J)
            for bits in itertools.product([Fraction(0), Fraction(1)], repeat=4):
                assert halfsum.identity_check(system, list(bits))["holds"]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_identity_matches_literal_window_sums_exactly(data):
    """The multiplicity route returns exactly the literal window sums, as
    Fractions, for int, bool, numpy integer and mixed-denominator Fraction
    entries."""
    system = data.draw(window_systems())
    p = data.draw(st.lists(exact_entries, min_size=system.r, max_size=system.r))
    result = halfsum.identity_check(system, p)
    lhs, rhs, r_sum, t_sum = literal_window_sums(system, p)
    got = (result["lhs"], result["rhs"], result["R"], result["T"])
    assert got == (lhs, rhs, r_sum, t_sum)
    assert all(isinstance(v, Fraction) for v in got)
    assert result["holds"] and lhs == rhs
    assert result["rhs"] is result["lhs"]  # the integer verdict proved them equal


def test_identity_exact_for_numpy_integers_beside_large_denominators():
    """The common denominator here exceeds 2**63, so a numpy integer entry must
    not be multiplied by it in int64 arithmetic."""
    system = halfsum.build_system(4, (0,))
    p = [np.int64(3), Fraction(1, 999983), Fraction(1, 999979), Fraction(1, 999961)]
    result = halfsum.identity_check(system, p)
    assert result["holds"]
    assert result["lhs"] == Fraction(3)
    assert (result["lhs"], result["rhs"]) == literal_window_sums(system, p)[:2]


@pytest.mark.parametrize(
    "p",
    [
        [0.1, 0.7, 0.3, 0.2, 0.9, 0.4],
        [np.float64(v) for v in (0.1, 0.7, 0.3, 0.2, 0.9, 0.4)],
        [Fraction(1, 3), 0.25, 0.5, Fraction(1, 8), Fraction(1, 6), 0.5],
    ],
    ids=["float", "numpy_float", "mixed"],
)
def test_identity_check_refuses_inexact_entries(p):
    """The identity is exact only: one entry that is not a `numbers.Rational`,
    even beside Fractions, raises instead of taking a float route."""
    system = halfsum.build_system(6, (0, 3))
    with pytest.raises(TypeError, match="numbers.Rational"):
        halfsum.identity_check(system, p)


def test_identity_check_reports_a_broken_window_system():
    """One corrupted K multiplicity breaks the identity: the check says so and
    returns its own rhs, computed from the R and T it reports."""
    p = [Fraction(1, 3), Fraction(2, 7), Fraction(1, 2), 4, Fraction(5, 9), True]
    system = halfsum.build_system(6, (0, 3))
    counts = list(system.k_multiplicity)
    counts[1] += 1
    object.__setattr__(system, "k_multiplicity", tuple(counts))
    result = halfsum.identity_check(system, p)
    assert not result["holds"]
    assert result["rhs"] != result["lhs"]
    assert result["rhs"] == Fraction(2 * (result["R"] - result["T"]), system.r)
    lhs, _, r_sum, t_sum = literal_window_sums(system, p)
    assert (result["lhs"], result["R"], result["T"]) == (lhs, r_sum + p[1], t_sum)


def test_system_rejects_oversized_subsets():
    with pytest.raises(ValueError, match="complement first"):
        halfsum.build_system(6, (0, 1, 2, 3))


def test_system_rejects_odd_r():
    with pytest.raises(ValueError):
        halfsum.build_system(5, (0,))


def test_system_rejects_wrong_enumeration():
    with pytest.raises(ValueError, match="enumerate the complement"):
        halfsum.HalfSubsetSystem(4, (0,), (1, 2, 0))


def test_identity_check_rejects_wrong_length():
    system = halfsum.build_system(4, (0,))
    with pytest.raises(ValueError):
        halfsum.identity_check(system, [Fraction(1, 2)] * 3)


def test_bound_coefficient_values():
    assert halfsum.bound_coefficient(10, 2) == Fraction(8, 5)
    assert halfsum.bound_coefficient(10, 8) == Fraction(8, 5)  # via complement
    assert halfsum.bound_coefficient(10, 5) == 1
    assert halfsum.bound_coefficient(4, 0) == 2
    # strictly below 2 for nonempty proper subsets
    for r in (4, 6, 8, 10):
        for size in range(1, r):
            assert halfsum.bound_coefficient(r, size) < 2


def test_lemma_bound_on_exact_family():
    """A two-member family whose half-subset sums all sit within 1/8 of 1/2 must
    keep every subset within the coefficient-scaled deviation of #J/r."""
    uniform = tuple(Fraction(1, 4) for _ in range(4))
    tilted = (Fraction(3, 8), Fraction(1, 8), Fraction(1, 4), Fraction(1, 4))
    family = halfsum.WeightedSequenceFamily(
        weights=(Fraction(1, 2), Fraction(1, 2)), sequences=(uniform, tilted)
    )
    report = halfsum.lemma_bound_check(family, Fraction(1, 8), subsets=all_subsets(4))
    assert report["hypothesis_holds"]
    assert report["worst_half_value"] == enumerated_hypothesis(family)[0] == Fraction(1, 16)
    assert report["conclusion_holds"]
    assert len(report["subsets"]) == 16
    assert report["passed"]


def test_lemma_bound_detects_violated_hypothesis():
    # all the weight on one extreme sequence: half-subset sums stray far from 1/2
    spiky = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    family = halfsum.WeightedSequenceFamily(weights=(Fraction(1),), sequences=(spiky,))
    report = halfsum.lemma_bound_check(family, Fraction(1, 100), subsets=all_subsets(4))
    assert not report["hypothesis_holds"]
    assert report["worst_half_value"] == enumerated_hypothesis(family)[0] == Fraction(1, 2)
    assert not report["passed"]


def test_lemma_bound_is_tight_up_to_coefficient():
    """The measured deviation can exceed epsilon itself (only the scaled bound
    holds), confirming the coefficient is doing real work."""
    rng = random.Random(2)
    r = 8
    sequences = []
    for _ in range(6):
        # perturb the uniform sequence while keeping total mass moderate
        seq = [Fraction(1, r) + Fraction(rng.randrange(-3, 4), 8 * r) for _ in range(r)]
        sequences.append(tuple(seq))
    family = halfsum.WeightedSequenceFamily(
        weights=tuple(Fraction(1, 6) for _ in range(6)), sequences=tuple(sequences)
    )
    epsilon = family.sorted_extreme_deviation() + Fraction(1, 1000)
    report = halfsum.lemma_bound_check(family, epsilon, subsets=all_subsets(r))
    assert report["passed"]
    for row in report["subsets"]:
        if 0 < row["size"] < r:
            assert row["measured"] < 2 * epsilon


def test_sorted_extreme_dominates_every_half_subset():
    rng = random.Random(9)
    r = 6
    sequences = tuple(
        tuple(random_rational_vector(rng, r)) for _ in range(4)
    )
    family = halfsum.WeightedSequenceFamily(
        weights=tuple(Fraction(1, 4) for _ in range(4)), sequences=sequences
    )
    extreme = family.sorted_extreme_deviation()
    for subset in itertools.combinations(range(r), r // 2):
        assert family.average_deviation(subset, Fraction(1, 2)) <= extreme


@pytest.mark.parametrize("exact", [True, False], ids=["fraction", "float"])
def test_sorted_extreme_bounds_the_enumerated_hypothesis(exact):
    """The one hypothesis route is sufficient: the sorted extreme is at least
    the largest half-subset deviation, exactly on Fraction families and
    within 1e-15 on float ones (the float overshoot is of order 1e-16)."""
    rng = random.Random(11 if exact else 12)
    for r in range(2, 13, 2):
        for count in (1, 2, 3):
            for _ in range(4):
                raw = [[rng.randrange(0, 65) for _ in range(r)] for _ in range(count)]
                sequences = tuple(
                    tuple(Fraction(v, sum(row) or 1) for v in row) for row in raw
                )
                weights = (Fraction(1, count),) * count
                if not exact:
                    sequences = tuple(tuple(map(float, seq)) for seq in sequences)
                    weights = tuple(map(float, weights))
                family = halfsum.WeightedSequenceFamily(weights=weights, sequences=sequences)
                worst, subset = enumerated_hypothesis(family)
                assert len(subset) == r // 2
                extreme = family.sorted_extreme_deviation()
                if exact:
                    assert extreme >= worst
                else:
                    assert extreme >= worst - 1e-15


def test_family_validates_weights():
    with pytest.raises(ValueError, match="sum to 1"):
        halfsum.WeightedSequenceFamily(
            weights=(Fraction(1, 2),), sequences=((Fraction(1), Fraction(0)),)
        )
    with pytest.raises(ValueError, match="same length"):
        halfsum.WeightedSequenceFamily(
            weights=(Fraction(1, 2), Fraction(1, 2)),
            sequences=((Fraction(1),), (Fraction(1), Fraction(0))),
        )
