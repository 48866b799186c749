"""Tests for measurement-to-pointer couplings: first kind, second kind, POVM."""

import math

import numpy as np
import pytest

from parind_lab import couplings
from parind_lab.qcore import (
    SparseState,
    SystemRegistry,
    basis_span_projector,
    span_projector,
    squared_norm,
)

from oracles import born_probability


def qubit_state(a0, a1, label="S"):
    registry = SystemRegistry(((label, 2),))
    norm = math.sqrt(abs(a0) ** 2 + abs(a1) ** 2)
    return SparseState(registry, {(0,): a0 / norm, (1,): a1 / norm})


def pointer_distribution(state, label):
    axis = state.registry.axis(label)
    dist = {}
    for key, amp in state.amplitudes.items():
        dist[key[axis]] = dist.get(key[axis], 0.0) + abs(amp) ** 2
    return dist


def basis_projectors(registry):
    return [
        basis_span_projector(registry, [(k,)]) for k in range(registry.total_dimension)
    ]


def basis_branches(psi):
    """psi projected on each basis vector of its register."""
    return couplings.branch_amplitudes(psi, basis_projectors(psi.registry))


def test_first_kind_pointer_reproduces_born_weights():
    psi = qubit_state(0.6, 0.8)
    coupled = couplings.first_kind_coupling(psi, basis_branches(psi))
    dist = pointer_distribution(coupled, "B")
    assert dist[0] == pytest.approx(0.36)
    assert dist[1] == pytest.approx(0.64)
    assert squared_norm(coupled.amplitudes) == pytest.approx(1.0)


def test_first_kind_branch_content_is_projected_state():
    # coupling a superposition to a coarse projector keeps the branch coherent
    registry = SystemRegistry((("S", 3),))
    psi = SparseState(registry, {(0,): 0.6, (1,): 0.48, (2,): 0.64})
    coarse = [
        basis_span_projector(registry, [(0,), (1,)]),
        basis_span_projector(registry, [(2,)]),
    ]
    coupled = couplings.first_kind_coupling(psi, couplings.branch_amplitudes(psi, coarse))
    assert coupled.amplitudes[(0, 0)] == pytest.approx(0.6)
    assert coupled.amplitudes[(1, 0)] == pytest.approx(0.48)
    assert coupled.amplitudes[(2, 1)] == pytest.approx(0.64)


def test_first_kind_rejects_incomplete_projector_sets():
    psi = qubit_state(0.6, 0.8)
    half = [basis_span_projector(psi.registry, [(0,)])]
    with pytest.raises(ValueError, match="complete orthogonal set"):
        couplings.first_kind_coupling(psi, couplings.branch_amplitudes(psi, half))


def test_branch_weights_are_the_oracle_born_probabilities():
    """The clipped squared norm of each projected branch, the weight `couple`
    reads, is the literal Born probability bit for bit, over acceptance 10's
    configuration: 500 seeded instances of a random state on 2 to 4 levels
    split by a random unitary basis into 2 to d blocks."""
    rng = np.random.default_rng(2026)
    for _ in range(500):
        dim = int(rng.integers(2, 5))
        registry = SystemRegistry((("S", dim),))
        vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        vec /= np.linalg.norm(vec)
        psi = SparseState(registry, {(k,): vec[k] for k in range(dim)})
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        blocks = int(rng.integers(2, dim + 1))
        cuts = sorted(rng.choice(np.arange(1, dim), size=blocks - 1, replace=False))
        projectors = [
            span_projector(
                [SparseState(registry, {(k,): q[k, col] for k in range(dim)}) for col in group]
            )
            for group in np.split(np.arange(dim), cuts)
        ]
        weights = [
            min(1.0, max(0.0, squared_norm(branch)))
            for branch in couplings.branch_amplitudes(psi, projectors)
        ]
        assert weights == [born_probability(psi, p) for p in projectors]


def test_second_kind_pointers_always_agree():
    rng = np.random.default_rng(0)
    psi = qubit_state(1.0, 1.0j)
    post = [qubit_state(1.0, 0.0), qubit_state(1.0, 0.0)]  # identical post states
    coupled = couplings.second_kind_coupling(psi, basis_branches(psi), post)
    axis1 = coupled.registry.axis("B1")
    axis2 = coupled.registry.axis("B2")
    for key in coupled.amplitudes:
        assert key[axis1] == key[axis2]
    dist = pointer_distribution(coupled, "B1")
    assert dist[0] == pytest.approx(0.5)
    assert dist[1] == pytest.approx(0.5)


def test_second_kind_replaces_system_with_post_state():
    psi = qubit_state(0.6, 0.8)
    post = [qubit_state(0.0, 1.0), qubit_state(1.0, 0.0)]  # swap the outcomes
    coupled = couplings.second_kind_coupling(psi, basis_branches(psi), post)
    # outcome 0 (weight 0.36) now carries system state |1>
    assert coupled.amplitudes[(1, 0, 0)] == pytest.approx(0.6)
    assert coupled.amplitudes[(0, 1, 1)] == pytest.approx(0.8)


def test_second_kind_validates_post_states():
    psi = qubit_state(0.6, 0.8)
    registry = psi.registry
    bad = SparseState(registry, {(0,): 1.0})
    object.__setattr__(bad, "_amplitudes", {(0,): 0.5})  # force a broken norm
    with pytest.raises(ValueError, match="not normalized"):
        couplings.second_kind_coupling(
            psi, basis_branches(psi), [bad, qubit_state(1.0, 0.0)]
        )
    with pytest.raises(ValueError, match="one post-measurement state"):
        couplings.second_kind_coupling(psi, basis_branches(psi), [qubit_state(1.0, 0.0)])


def test_povm_set_requires_completeness():
    good = couplings.trine_povm()
    total = sum(m.conj().T @ m for m in good.matrices)
    assert np.allclose(total, np.eye(2), atol=1e-10)
    with pytest.raises(ValueError, match="resolve the identity"):
        couplings.PovmElementSet((np.eye(2) * 0.5,))


def test_povm_from_elements_validates_positivity():
    with pytest.raises(ValueError, match="not Hermitian"):
        couplings.PovmElementSet.from_elements([np.array([[0.0, 1.0], [0.0, 0.0]])])
    with pytest.raises(ValueError, match="negative eigenvalue"):
        couplings.PovmElementSet.from_elements(
            [np.diag([1.5, -0.5]), np.eye(2) - np.diag([1.5, -0.5])]
        )


def test_trine_probabilities_against_matrix_route():
    """Pointer probabilities from the coupled state must equal <psi|F_j|psi>
    computed directly with numpy — two independent routes."""
    rng = np.random.default_rng(3)
    povm = couplings.trine_povm()
    for _ in range(10):
        vec = rng.normal(size=2) + 1j * rng.normal(size=2)
        vec /= np.linalg.norm(vec)
        psi = SparseState(SystemRegistry((("S", 2),)), {(0,): vec[0], (1,): vec[1]})
        elements = [m.conj().T @ m for m in povm.matrices]
        expected = [float(np.real(vec.conj() @ f @ vec)) for f in elements]
        assert couplings.povm_probabilities(psi, povm, "S") == pytest.approx(expected)
        coupled = couplings.povm_coupling(psi, povm, "S")
        dist = pointer_distribution(coupled, "B1")
        for j, p in enumerate(expected):
            assert dist.get(j, 0.0) == pytest.approx(p, abs=1e-12)


def test_trine_probabilities_sum_to_one():
    psi = qubit_state(1.0, 0.0)
    probs = couplings.povm_probabilities(psi, couplings.trine_povm(), "S")
    assert math.fsum(probs) == pytest.approx(1.0)
    # the trine element aligned with |0> is hit hardest
    assert probs[0] == max(probs)


def test_povm_coupling_drops_zero_branches():
    projective = couplings.PovmElementSet.from_elements([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    psi = qubit_state(1.0, 0.0)
    coupled = couplings.povm_coupling(psi, projective, "S")
    assert set(coupled.amplitudes) == {(0, 0, 0)}


def test_povm_coupling_checks_dimension():
    psi = qubit_state(1.0, 0.0)
    qutrit_povm = couplings.PovmElementSet.from_elements([np.eye(3)])
    with pytest.raises(ValueError, match="does not match subsystem"):
        couplings.povm_coupling(psi, qutrit_povm, "S")


def test_povm_coupling_on_entangled_input_keeps_remote_correlations():
    """Measuring one wing of a Bell pair with the trine leaves the remote qubit
    correlated with the Kraus image, and pointer statistics stay Born-correct."""
    registry = SystemRegistry((("S", 2), ("R", 2)))
    bell = SparseState(
        registry, {(0, 0): math.sqrt(0.5), (1, 1): math.sqrt(0.5)}
    )
    povm = couplings.trine_povm()
    coupled = couplings.povm_coupling(bell, povm, "S")
    assert squared_norm(coupled.amplitudes) == pytest.approx(1.0)
    dist = pointer_distribution(coupled, "B1")
    expected = couplings.povm_probabilities(bell, povm, "S")
    for j, p in enumerate(expected):
        assert dist.get(j, 0.0) == pytest.approx(p, abs=1e-12)
    # maximally mixed marginal: each trine outcome is equally likely
    assert expected == pytest.approx((1 / 3, 1 / 3, 1 / 3))
