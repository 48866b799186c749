"""Tests for chained correlation measures on two-qubit and two-qutrit states."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from parind_lab import chained_bell as cb
from parind_lab import embezzle as ez
from parind_lab import qcore
from parind_lab.embezzle import phi_schmidt
from parind_lab.qcore import (
    PROB_TOL,
    SparseState,
    SystemRegistry,
    basis_span_projector,
    basis_state,
    born_table,
)

from oracles import born_probability, joint_probability, superposed_ket


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
    p_first = born_probability(state, a_family[0].projector_for(1.0))
    p_last = born_probability(state, a_family[2 * spec.N].projector_for(1.0))
    lhs = abs(p_first - p_last)
    assert lhs <= cb.chain_correlation(state, spec.N, a_family, b_family).value + PROB_TOL
    # setting 0 assigns +1 to (a tilt of) index 1, the terminal setting to index 0
    assert lhs == pytest.approx(abs(math.cos(2 * alpha)), abs=1e-12)


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


def _pair_weights(state, pair):
    """The oracle's Born weights of |lo> and |hi> on wing A."""
    registry_a = state.registry.restrict(("A",))
    return [born_probability(state, basis_span_projector(registry_a, [i])) for i in pair]


@pytest.mark.parametrize(
    "squares, pair",
    [
        ([0.5, 0.5], (0, 1)),  # d = 2: the closing branch has rank 0
        ([0.3, 0.4, 0.3], (2, 0)),
        ([1.0 / 7.0, 2.0 / 7.0, 2.0 / 7.0, 2.0 / 7.0], (3, 1)),
    ],
)
def test_ddim_chain_reads_the_oracle_weights(monkeypatch, squares, pair):
    """The pair weights `correlation_measure_IN_prime` reads from its one
    observable on A are the literal Born probabilities bit for bit, and its
    closed form and bound are those of their mean."""
    state = phi_schmidt([math.sqrt(s) for s in squares])
    spec = cb.ChainSpec(N=3, pair=pair, eigenvalue_scheme=cb.dimension_scheme)
    tables = []

    def recording_born_table(state, observables):
        table = born_table(state, observables)
        tables.append((len(observables), table))
        return table

    monkeypatch.setattr(cb, "born_table", recording_born_table)
    report = cb.correlation_measure_IN_prime(state, spec)
    weights = _pair_weights(state, pair)
    read = [table for count, table in tables if count == 1]
    assert len(read) == 1 and [read[0][(1.0,)], read[0][(-1.0,)]] == weights
    if len(squares) == 2:
        assert read[0][(0.0,)] == 0.0
    cj_squared = 0.5 * (weights[0] + weights[1])
    assert report.closed_form == cb.ddim_chain_closed_form(3, cj_squared)
    assert report.bound == cb.ddim_chain_bound(3, cj_squared)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_ddim_chain_unequal_pair_names_the_oracle_weights(d):
    """An unequal pair is refused with both oracle weights in the message."""
    rng = np.random.default_rng(d)
    registry = SystemRegistry((("A", d), ("B", d)))
    vec = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
    vec /= np.linalg.norm(vec)
    state = SparseState(registry, dict(zip(np.ndindex(d, d), vec)))
    pair = (d - 1, 0)
    lo, hi = _pair_weights(state, pair)
    message = f"rotated pair must carry equal coefficients: c_j^2 = {lo}, c_k^2 = {hi}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cb.correlation_measure_IN_prime(state, cb.ChainSpec(N=2, pair=pair))


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

    # convention: eigenvalue -1 on the rotated ket, so |0> is the -1 branch at
    # angle 0 and the +1 branch at angle pi
    p_first = born_probability(state, family[0].projector_for(-1.0))
    p_last = born_probability(state, family[4].projector_for(1.0))
    assert p_first == pytest.approx(1.0)
    assert p_last == pytest.approx(1.0)


def theta_ket_pairs():
    """(registry, lo, hi) basis pairs: on one register, in either order, and
    the (pointer, system) slot keys a half-subset ket rotates on each side."""
    qubit, ququint = SystemRegistry((("A", 2),)), SystemRegistry((("A", 5),))
    pairs = [(qubit, (0,), (1,)), (qubit, (1,), (0,)), (ququint, (3,), (1,))]
    spec = ez.EmbezzleSpec.from_exact(["1/3", "2/3"], n=10, even_denominator=True)
    host = ez.embezzled_state(spec).registry
    subset = spec.pairs[: spec.r // 2]
    pairing = ez.default_pairing(spec, subset)
    for side in "AB":
        acting = ez.slot_registry(host, side)
        pairs += [
            (acting, ez.slot_key(s, acting, side), ez.slot_key(pairing[s], acting, side))
            for s in subset
        ]
    return pairs


def test_theta_ket_is_the_literal_superposition():
    """`theta_ket` writes cos(theta/2)|lo> + sin(theta/2)|hi> from its two keys
    with the registry, key order and amplitude bits of the literal superposition
    of two basis kets, at every chain angle s pi/2N and s pi/2N + pi, N <= 16,
    s <= 2N, where theta = pi and 2 pi drop a near-zero term."""
    dropped = 0
    for registry, lo, hi in theta_ket_pairs():
        ket_lo, ket_hi = basis_state(registry, lo), basis_state(registry, hi)
        for N in range(1, 17):
            for s in range(2 * N + 1):
                for theta in (s * math.pi / (2 * N), s * math.pi / (2 * N) + math.pi):
                    ket = cb.theta_ket(theta, (lo, hi), registry)
                    oracle = superposed_ket(theta, ket_lo, ket_hi)
                    assert ket.registry == oracle.registry
                    assert list(ket.amplitudes) == list(oracle.amplitudes)
                    assert ket.values.tobytes() == oracle.values.tobytes()
                    dropped += len(ket.amplitudes) == 1
    assert dropped > 0


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
        assert born_table(state, (obs,))[(0.0,)] == 1.0

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


def _assert_pair_terms_are_literal(state, N, a_family, b_family):
    """Each pair term of the chain, read from one batch of Born tables, is
    the literal disagreement of its pair alone, bit for bit."""
    report = cb.chain_correlation(state, N, a_family, b_family)
    assert [(t.a_setting, t.b_setting) for t in report.pair_terms] == list(
        cb.adjacent_setting_pairs(N)
    )
    for term in report.pair_terms:
        obs_a, obs_b = a_family[term.a_setting], b_family[term.b_setting]
        assert term.probability == literal_disagreement(state, obs_a, obs_b)


@pytest.mark.parametrize("N", range(1, 9))
def test_disagreement_matches_literal_oracle_on_bell_chain(N):
    state = cb.bell_state()
    spec = cb.ChainSpec(N=N, pair=(0, 1))
    a_family, b_family = cb.chain_families(spec, state.registry)
    _assert_pair_terms_are_literal(state, N, a_family, b_family)


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
    assert all(any(p.complemented for _, p in obs.branches) for obs in families[0].values())
    _assert_pair_terms_are_literal(state, N, *families)


# ---------------------------------------------------------------------------
# Cost guards: one Born pass per level for a whole chain


def test_chain_correlation_projects_once_per_level(monkeypatch):
    """All 32 tables of the N = 16 Bell chain come from one Born pass: one
    `_project` call per level, two in all, where one pass per table would
    make 64."""
    calls = []
    original = qcore._project

    def counted(*args):
        calls.append(args[1])
        return original(*args)

    monkeypatch.setattr(qcore, "_project", counted)
    state = cb.bell_state()
    a_family, b_family = cb.chain_families(cb.ChainSpec(N=16, pair=(0, 1)), state.registry)
    report = cb.chain_correlation(state, 16, a_family, b_family)
    assert calls == [0, 1]
    assert report.value == cb.correlation_measure_IN(state, cb.ChainSpec(N=16, pair=(0, 1))).value


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_chain_tables_above_the_row_budget_peak_as_one_table():
    """On a support above the row budget each table takes a pass of its own,
    so the 8 tables of an N = 4 chain peak within 10 % of the largest one
    alone."""
    rows = qcore._ROW_BUDGET + 152
    registry = SystemRegistry((("A", 2), ("B", 2), ("C", rows)))
    rng = np.random.default_rng(3)
    keys = np.array([(a, a, c) for a in (0, 1) for c in range(rows // 2)], dtype=np.int64)
    values = rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))
    state = SparseState.from_arrays(registry, keys, values / np.linalg.norm(values))
    assert len(state.keys) > qcore._ROW_BUDGET
    a_family, b_family = cb.chain_families(cb.ChainSpec(N=4, pair=(0, 1)), registry)
    pairs = cb.adjacent_setting_pairs(4)
    alone = max(
        _traced_peak(lambda: born_table(state, (a_family[a], b_family[b]))) for a, b in pairs
    )
    chain = _traced_peak(lambda: cb.chain_correlation(state, 4, a_family, b_family))
    assert chain <= 1.1 * alone
