"""Couplings of a measured system to pointer registers.

A projective measurement of the first kind couples eigenspaces to a pointer
basis, sum_j E_j|psi> (x) |j>_B, so pointer-basis probabilities reproduce the
original measurement's Born probabilities.  Measurements of the second kind
allow arbitrary normalized post-measurement states; a second pointer register
keeps the outcome branches orthogonal regardless.  POVM measurements couple
through Kraus operators M_j with F_j = M_j^dagger M_j summing to the identity.
In every case the coupled state's pointer probabilities equal the original
outcome probabilities, which is what lets measurement statistics be analyzed as
Schmidt-state statistics downstream.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Sequence

import numpy as np

from .qcore import (
    NORM_TOL,
    DROP_TOL,
    RankedProjector,
    SparseState,
    SystemRegistry,
    project_amplitudes,
    squared_norm,
)


def pointer_distribution(state: SparseState, label: str) -> dict[int, float]:
    """Marginal distribution of the basis index of register `label`."""
    axis = state.registry.axis(label)
    dist: dict[int, float] = {}
    for key, amp in state.amplitudes.items():
        dist[key[axis]] = dist.get(key[axis], 0.0) + abs(amp) ** 2
    return dist


def branch_amplitudes(
    psi: SparseState, projectors: Sequence[RankedProjector]
) -> list[dict]:
    """Project psi through each branch and validate completeness on the state:
    branch weights must sum to the squared norm (orthogonal resolution)."""
    branches = [project_amplitudes(psi.registry, psi.amplitudes, e) for e in projectors]
    total = sum(squared_norm(b) for b in branches)
    if abs(total - 1.0) > 1e-10:
        raise ValueError(
            f"projectors are not a complete orthogonal set on the state: branch "
            f"weights sum to {total}, expected 1"
        )
    return branches


def first_kind_coupling(psi: SparseState, branches: Sequence[dict]) -> SparseState:
    """sum_j E_j|psi> (x) |j>_B from the branches E_j|psi> that
    `branch_amplitudes` projects and checks, with zero-weight branches dropped."""
    pointer = SystemRegistry((("B", len(branches)),))
    registry = psi.registry.merged_with(pointer)
    amplitudes = {}
    for j, branch in enumerate(branches):
        for key, amp in branch.items():
            amplitudes[key + (j,)] = amp
    return SparseState(registry, amplitudes)


def second_kind_coupling(
    psi: SparseState,
    branches: Sequence[dict],
    post_states: Sequence[SparseState],
) -> SparseState:
    """sum_j c_j |post_j> (x) |j>_B1 (x) |j>_B2 with c_j = ||E_j psi||, from the
    branches E_j|psi> that `branch_amplitudes` projects and checks.

    Post-measurement states may be arbitrary normalized states on the system —
    even pairwise identical — since the first pointer register keeps the
    composite branches orthogonal.
    """
    if len(post_states) != len(branches):
        raise ValueError("one post-measurement state per projector required")
    for j, post in enumerate(post_states):
        if not post.registry.same_labels(psi.registry):
            raise ValueError(f"post state {j} lives on different subsystems than psi")
        if abs(squared_norm(post.amplitudes) - 1.0) > NORM_TOL:
            raise ValueError(f"post state {j} is not normalized")
    pointers = SystemRegistry((("B1", len(branches)), ("B2", len(branches))))
    registry = psi.registry.merged_with(pointers)
    amplitudes = {}
    for j, branch in enumerate(branches):
        c_j = math.sqrt(squared_norm(branch))
        if c_j <= DROP_TOL:
            continue
        for key, amp in post_states[j].amplitudes.items():
            amplitudes[key + (j, j)] = c_j * amp
    return SparseState(registry, amplitudes)


@dataclasses.dataclass(frozen=True)
class PovmElementSet:
    """Kraus operators M_j on a single measured subsystem; the induced positive
    operators F_j = M_j^dagger M_j must resolve the identity."""

    matrices: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "matrices", tuple(np.asarray(m, dtype=complex) for m in self.matrices)
        )
        if not self.matrices:
            raise ValueError("POVM needs at least one element")
        d = self.matrices[0].shape[0]
        if any(m.shape != (d, d) for m in self.matrices):
            raise ValueError("all Kraus operators must be square and same-dimensional")
        total = sum(m.conj().T @ m for m in self.matrices)
        if not np.allclose(total, np.eye(d), atol=1e-10):
            raise ValueError(
                f"POVM elements do not resolve the identity; deviation "
                f"{np.max(np.abs(total - np.eye(d))):.3e}"
            )

    @property
    def dimension(self) -> int:
        return self.matrices[0].shape[0]

    @classmethod
    def from_elements(cls, elements: Sequence[np.ndarray]) -> PovmElementSet:
        """Factorize given positive operators via the principal square root."""
        matrices = []
        for f in elements:
            f = np.asarray(f, dtype=complex)
            if not np.allclose(f, f.conj().T, atol=1e-10):
                raise ValueError("POVM element is not Hermitian")
            w, v = np.linalg.eigh(f)
            if np.min(w) < -1e-10:
                raise ValueError(f"POVM element has negative eigenvalue {np.min(w)}")
            matrices.append(v @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T)
        return cls(tuple(matrices))


def trine_povm() -> PovmElementSet:
    """Qubit trine: F_j = (2/3) |theta_j><theta_j| at angles 0, 2pi/3, 4pi/3."""
    elements = []
    for k in range(3):
        theta = 2 * math.pi * k / 3
        ket = np.array([math.cos(theta / 2), math.sin(theta / 2)], dtype=complex)
        elements.append((2.0 / 3.0) * np.outer(ket, ket.conj()))
    return PovmElementSet.from_elements(elements)


def _kraus_image(psi: SparseState, m: np.ndarray, axis: int) -> dict:
    """Unnormalized amplitudes of M psi, with the square matrix M acting on the
    register at `axis`; entries of M at or below DROP_TOL are skipped."""
    image: dict = {}
    for key, amp in psi.amplitudes.items():
        beta = key[axis]
        for alpha in range(m.shape[0]):
            coeff = m[alpha, beta]
            if abs(coeff) <= DROP_TOL:
                continue
            new_key = key[:axis] + (alpha,) + key[axis + 1 :]
            image[new_key] = image.get(new_key, 0.0) + coeff * amp
    return image


def povm_coupling(
    psi: SparseState,
    povm: PovmElementSet,
    measured_label: str,
) -> SparseState:
    """sum_j c_j |j>_A |j>_B1 |j>_B2 with c_j = ||M_j psi|| and |j>_A the
    normalized Kraus image M_j psi / c_j; zero-probability branches dropped."""
    axis = psi.registry.axis(measured_label)
    if psi.registry.dimension(measured_label) != povm.dimension:
        raise ValueError(
            f"POVM dimension {povm.dimension} does not match subsystem "
            f"{measured_label!r} of dimension {psi.registry.dimension(measured_label)}"
        )
    n = len(povm.matrices)
    pointers = SystemRegistry((("B1", n), ("B2", n)))
    registry = psi.registry.merged_with(pointers)
    amplitudes = {}
    for j, m in enumerate(povm.matrices):
        branch = _kraus_image(psi, m, axis)
        weight = squared_norm(branch)
        if weight <= DROP_TOL:
            continue
        for key, amp in branch.items():
            if abs(amp) > DROP_TOL:
                amplitudes[key + (j, j)] = amp
    return SparseState(registry, amplitudes)


def povm_probabilities(psi: SparseState, povm: PovmElementSet, measured_label: str) -> tuple[float, ...]:
    """Born probabilities <psi| F_j |psi> evaluated directly on the system."""
    axis = psi.registry.axis(measured_label)
    return tuple(squared_norm(_kraus_image(psi, m, axis)) for m in povm.matrices)
