"""Tests for chained correlation measures on two-qubit and two-qutrit states."""

import math

import pytest

from parind_lab import chained_bell as cb
from parind_lab import embezzle as ez
from parind_lab.embezzle import phi_schmidt
from parind_lab.qcore import SparseState, SystemRegistry, joint_probability, outcome_distribution


@pytest.mark.parametrize("N", [1, 2, 4, 8, 16, 32, 64])
def test_bell_chain_matches_closed_form(N):
    state = cb.bell_state()
    report = cb.correlation_measure_IN(state, cb.ChainSpec(N=N, pair=(0, 1)))
    assert abs(report.value - cb.bell_chain_closed_form(N)) < 1e-12
    assert report.value <= cb.bell_chain_bound(N)
    assert len(report.pair_terms) == 2 * N


def test_bell_chain_n2_frozen_value():
    # 4 sin^2(pi/8) = 2 - sqrt(2)
    report = cb.correlation_measure_IN(
        cb.bell_state(), cb.ChainSpec(N=2, pair=(0, 1))
    )
    assert report.value == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-14)


def test_chain_value_decreases_in_depth():
    values = []
    for N in (1, 2, 4, 8):
        report = cb.correlation_measure_IN(
            cb.bell_state(), cb.ChainSpec(N=N, pair=(0, 1))
        )
        values.append(report.value)
    assert all(a > b for a, b in zip(values, values[1:]))


def test_pair_terms_are_equal_including_terminal():
    """Every adjacent pair of a maximally entangled chain disagrees with the
    same probability sin^2(pi/4N); the closure step is no exception."""
    N = 4
    report = cb.correlation_measure_IN(
        cb.bell_state(), cb.ChainSpec(N=N, pair=(0, 1))
    )
    expected = math.sin(math.pi / (4 * N)) ** 2
    for term in report.pair_terms:
        assert term.probability == pytest.approx(expected, abs=1e-14)


def test_adjacent_setting_pairs_alternate_sides():
    pairs = cb.adjacent_setting_pairs(2)
    assert pairs == ((0, 1), (2, 1), (2, 3), (4, 3))


def test_chain_spec_validates_inputs():
    with pytest.raises(ValueError):
        cb.ChainSpec(N=0, pair=(0, 1))
    with pytest.raises(ValueError):
        cb.ChainSpec(N=2, pair=(1, 1))


def test_chain_angles_are_evenly_spaced():
    spec = cb.ChainSpec(N=2, pair=(0, 1))
    assert spec.a_settings == (0, 2, 4)
    assert spec.b_settings == (1, 3)
    assert spec.angle(1) == pytest.approx(math.pi / 4)
    assert spec.angle(4) == pytest.approx(math.pi)


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.7, math.pi / 4])
def test_chain_triangle_inequality_holds(alpha):
    """|Pr(A_0 = 1) - Pr(A_2N = 1)| stays below the summed disagreements, for
    partially entangled states as well as the symmetric one."""
    spec = cb.ChainSpec(N=3, pair=(0, 1))
    registry = SystemRegistry((("A", 2), ("B", 2)))
    state = SparseState(
        registry, {(0, 0): math.cos(alpha), (1, 1): math.sin(alpha)}
    )
    a_family, b_family = cb.chain_families(spec, state.registry)
    result = cb.chain_triangle_check(state, 3, a_family, b_family)
    assert result["holds"]
    # setting 0 assigns +1 to (a tilt of) index 1, the terminal setting to index 0
    assert result["lhs"] == pytest.approx(abs(math.cos(2 * alpha)), abs=1e-12)


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("N", [1, 2, 4])
def test_ddim_chain_matches_closed_form(d, N):
    state = phi_schmidt([math.sqrt(1.0 / d)] * d)
    spec = cb.ChainSpec(N=N, pair=(0, 1), eigenvalue_scheme=cb.dimension_scheme)
    report = cb.correlation_measure_IN_prime(state, spec)
    cj_squared = 1.0 / d
    assert abs(report.value - cb.ddim_chain_closed_form(N, cj_squared)) < 1e-12
    assert report.value <= cb.ddim_chain_bound(N, cj_squared)


def test_ddim_chain_unequal_coefficients_rejected():
    state = phi_schmidt([math.sqrt(1.0 / 6.0), math.sqrt(1.0 / 3.0), math.sqrt(0.5)])
    spec = cb.ChainSpec(N=2, pair=(0, 1), eigenvalue_scheme=cb.dimension_scheme)
    with pytest.raises(ValueError, match="equal coefficients"):
        cb.correlation_measure_IN_prime(state, spec)


def test_ddim_chain_on_other_equal_pair():
    # c^2 = (1/6, 1/4, 1/4, 1/3): the equal slice sits at indices (1, 2)
    squares = [1.0 / 6.0, 0.25, 0.25, 1.0 / 3.0]
    state = phi_schmidt([math.sqrt(s) for s in squares])
    spec = cb.ChainSpec(N=2, pair=(1, 2), eigenvalue_scheme=cb.dimension_scheme)
    report = cb.correlation_measure_IN_prime(state, spec)
    assert abs(report.value - cb.ddim_chain_closed_form(2, 0.25)) < 1e-12


def test_observable_families_cover_all_settings():
    spec = cb.ChainSpec(N=4, pair=(0, 1))
    registry = SystemRegistry((("A", 2),))
    family = cb.chain_observables(spec, registry, "A")
    assert sorted(family) == [0, 2, 4, 6, 8]
    b_family = cb.chain_observables(spec, SystemRegistry((("B", 2),)), "B")
    assert sorted(b_family) == [1, 3, 5, 7]


def test_terminal_setting_is_flipped_first_setting():
    """The closing observable must be the first one with outcomes negated,
    otherwise the chain would telescope to zero instead of to a contradiction."""
    spec = cb.ChainSpec(N=2, pair=(0, 1))
    registry = SystemRegistry((("A", 2),))
    family = cb.chain_observables(spec, registry, "A")
    state = SparseState(registry, {(0,): 1.0})
    from parind_lab.qcore import born_probability

    # convention: eigenvalue -1 on the rotated ket, so |0> is the -1 branch at
    # angle 0 and the +1 branch at angle pi
    p_first = born_probability(state, family[0].projector_for(-1.0))
    p_last = born_probability(state, family[4].projector_for(1.0))
    assert p_first == pytest.approx(1.0)
    assert p_last == pytest.approx(1.0)


def test_dimension_scheme_distinguishes_indices():
    values = [cb.dimension_scheme((k,)) for k in range(5)]
    assert len(set(values)) == len(values)


def test_spectator_rule_closes_none_indices_in_one_zero_branch():
    """Indices the scheme maps to None share one complemented branch at 0.0;
    the others get their own branch, and without a scheme only the rotated pair
    is resolved, so a larger register is refused."""
    registry = SystemRegistry((("A", 5),))
    obs = cb.o_theta(
        0.3, (0, 1), registry, spectator_scheme=lambda index: 5.0 if index == (2,) else None
    )
    assert obs.eigenvalues == (-1.0, 1.0, 5.0, 0.0)
    assert [e for e, p in obs.branches if p.complemented] == [0.0]
    for k in (3, 4):
        state = SparseState(registry, {(k,): 1.0})
        assert outcome_distribution(state, obs)[0.0] == 1.0

    qutrit = SystemRegistry((("A", 3),))
    full = cb.o_theta(0.3, (0, 1), qutrit, spectator_scheme=cb.dimension_scheme)
    assert full.eigenvalues == (-1.0, 1.0, 4.0)
    assert not any(p.complemented for _, p in full.branches)
    with pytest.raises(ValueError, match="resolve the identity"):
        cb.o_theta(0.3, (0, 1), qutrit)


def literal_disagreement(state, obs_a, obs_b):
    """Pr(A != B) the literal way: one `joint_probability` per unequal pair."""
    return math.fsum(
        joint_probability(state, [p_a, p_b])
        for e_a, p_a in obs_a.branches
        for e_b, p_b in obs_b.branches
        if e_a != e_b
    )


@pytest.mark.parametrize("N", range(1, 9))
def test_disagreement_matches_literal_oracle_on_bell_chain(N):
    state = cb.bell_state()
    spec = cb.ChainSpec(N=N, pair=(0, 1))
    a_family, b_family = cb.chain_families(spec, state.registry)
    for a, b in cb.adjacent_setting_pairs(N):
        assert cb.disagreement_probability(
            state, a_family[a], b_family[b]
        ) == literal_disagreement(state, a_family[a], b_family[b])


@pytest.mark.parametrize("N", [2, 4])
def test_disagreement_matches_literal_oracle_on_embezzled_pair_chain(N):
    spec = ez.EmbezzleSpec.from_exact(("1/3", "2/3"), n=100)
    state = ez.embezzled_state(spec)
    stats = ez.slot_statistics(state, spec)
    ordered = sorted(spec.pairs, key=lambda p: stats.weights[p])
    families = [
        ez.pair_chain_observables(spec, N, ordered[0], ordered[-1], state.registry, side)
        for side in "AB"
    ]
    for a, b in cb.adjacent_setting_pairs(N):
        obs_a, obs_b = families[0][a], families[1][b]
        assert any(p.complemented for _, p in obs_a.branches)
        assert cb.disagreement_probability(state, obs_a, obs_b) == literal_disagreement(
            state, obs_a, obs_b
        )
