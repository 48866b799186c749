"""Chained measurement families and their correlation measures.

A chain interleaves 2N+1 rotated two-outcome observables between two sides of an
entangled state: side A uses even settings a in {0, 2, ..., 2N}, side B odd
settings b in {1, 3, ..., 2N-1}, with setting s measured at angle s*pi/2N.  The
correlation measure I_N sums the 2N disagreement probabilities of adjacent
settings.  For the two-qubit singlet-style state the closed form is
I_N = 2N sin^2(pi/4N) <= pi^2/(8N); rotating only a two-dimensional slice of a
d-dimensional state with equal Schmidt pair coefficients c_j = c_k gives
I'_N = 4N c_j^2 sin^2(pi/4N) <= pi^2 c_j^2 / (4N).

Disagreement events are computed by enumerating pairs of distinct eigenvalues
and summing joint Born probabilities, never by comparing operator matrices.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from collections.abc import Callable, Mapping

from .qcore import (
    MultiIndex,
    Observable,
    PROB_TOL,
    RankedProjector,
    SparseState,
    SystemRegistry,
    born_probability,
    born_table,
    complete_with_complement,
    inner_product,
    span_projector,
)

# A spectator eigenvalue rule maps a basis multi-index outside the rotated pair
# to a real eigenvalue, distinct from +-1 and from every other spectator value,
# or to None; the None indices share one complemented branch at eigenvalue 0.0.
SpectatorScheme = Callable[[MultiIndex], float | None]


def dimension_scheme(index: MultiIndex) -> float:
    """Default spectator eigenvalues for single-register chains: index + 2."""
    return float(index[0] + 2)


def _normalize_index(index: MultiIndex | int) -> MultiIndex:
    return (int(index),) if isinstance(index, int) else tuple(int(i) for i in index)


@dataclasses.dataclass(frozen=True)
class ChainSpec:
    """Parameters of a chained family: depth N, the rotated basis pair, and the
    eigenvalue rule for spectator basis states outside the rotated plane."""

    N: int
    pair: tuple[MultiIndex | int, MultiIndex | int]
    eigenvalue_scheme: SpectatorScheme | None = None

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError(f"chain depth N must be >= 1, got {self.N}")
        lo, hi = (_normalize_index(p) for p in self.pair)
        if lo == hi:
            raise ValueError("the rotated pair must consist of two distinct indices")
        object.__setattr__(self, "pair", (lo, hi))

    @property
    def a_settings(self) -> tuple[int, ...]:
        return tuple(range(0, 2 * self.N + 1, 2))

    @property
    def b_settings(self) -> tuple[int, ...]:
        return tuple(range(1, 2 * self.N, 2))

    def angle(self, setting: int) -> float:
        return setting * math.pi / (2 * self.N)


def theta_ket(
    theta: float, pair: tuple[MultiIndex | int, MultiIndex | int], registry: SystemRegistry
) -> SparseState:
    """cos(theta/2)|lo> + sin(theta/2)|hi> on a sub-registry basis pair."""
    lo, hi = (_normalize_index(p) for p in pair)
    if lo == hi:
        raise ValueError("theta ket needs two distinct basis indices")
    return superposed_ket(
        theta,
        SparseState(registry, {lo: 1.0}),
        SparseState(registry, {hi: 1.0}),
    )


def superposed_ket(theta: float, ket_lo: SparseState, ket_hi: SparseState) -> SparseState:
    """cos(theta/2) ket_lo + sin(theta/2) ket_hi for orthonormal input kets."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    amplitudes: dict[MultiIndex, complex] = {}
    for key, amp in ket_lo.amplitudes.items():
        amplitudes[key] = amplitudes.get(key, 0.0) + c * amp
    for key, amp in ket_hi.amplitudes.items():
        amplitudes[key] = amplitudes.get(key, 0.0) + s * amp
    return SparseState(ket_lo.registry, amplitudes)


def o_theta(
    theta: float,
    pair: tuple[MultiIndex | int, MultiIndex | int],
    registry: SystemRegistry,
    *,
    spectator_scheme: SpectatorScheme | None = None,
) -> Observable:
    """Two-outcome rotated observable -1*[theta] + 1*[theta+pi].

    With a scheme, every basis index outside the rotated pair gets its own
    spectator branch at `spectator_scheme(index)`, except the indices it maps to
    None, which share one complemented branch at 0.0.  Without one, only the two
    rotated branches are built, so the register must be the pair's plane.
    """
    lo, hi = (_normalize_index(p) for p in pair)
    minus = span_projector([theta_ket(theta, (lo, hi), registry)])
    plus = span_projector([theta_ket(theta + math.pi, (lo, hi), registry)])
    branches: list[tuple[float, RankedProjector]] = [(-1.0, minus), (1.0, plus)]
    if spectator_scheme is None:
        return Observable(tuple(branches))
    closed = False
    for index in itertools.product(*(range(d) for d in registry.dimensions)):
        if index in (lo, hi):
            continue
        eigenvalue = spectator_scheme(index)
        if eigenvalue is None:
            closed = True
        else:
            branches.append(
                (float(eigenvalue), span_projector([SparseState(registry, {index: 1.0})]))
            )
    if closed:
        return complete_with_complement(branches, 0.0)
    return Observable(tuple(branches))


def chain_observables(
    spec: ChainSpec, registry: SystemRegistry, side: str
) -> dict[int, Observable]:
    """The chained observable family for one side ("A": even, "B": odd settings).

    The terminal setting 2N is built as a genuine observable at angle pi, and its
    eigenvalue-flip relation to the setting-0 observable is verified rather than
    assumed.
    """
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    settings = spec.a_settings if side == "A" else spec.b_settings
    family = {
        setting: o_theta(
            spec.angle(setting),
            spec.pair,
            registry,
            spectator_scheme=spec.eigenvalue_scheme,
        )
        for setting in settings
    }
    if side == "A":
        _assert_terminal_flip(family[0], family[2 * spec.N])
    return family


def chain_families(
    spec: ChainSpec, registry: SystemRegistry
) -> tuple[dict[int, Observable], dict[int, Observable]]:
    """The A-side family on register "A" and the B-side family on register "B"
    of a bipartite registry, the two wings of `bell_state` and `phi_schmidt`."""
    return (
        chain_observables(spec, registry.restrict(("A",)), "A"),
        chain_observables(spec, registry.restrict(("B",)), "B"),
    )


def _assert_terminal_flip(first: Observable, last: Observable) -> None:
    """Check that the angle-pi observable negates the angle-0 one on its +-1 branches."""
    for eigenvalue in (-1.0, 1.0):
        p_last = last.projector_for(eigenvalue)
        p_first = first.projector_for(-eigenvalue)
        if p_last.rank_of_span != 1 or p_first.rank_of_span != 1:
            raise ValueError("flip check applies to rank-one branches")
        overlap = abs(inner_product(p_last.kets[0], p_first.kets[0]))
        if abs(overlap - 1.0) > 1e-9:
            raise AssertionError(
                f"terminal chain observable does not negate the first one "
                f"(branch {eigenvalue}: |overlap| = {overlap})"
            )


def disagreement_probability(
    state: SparseState, obs_a: Observable, obs_b: Observable
) -> float:
    """Pr(A != B): the off-diagonal cells of the joint Born table."""
    table = born_table(state, (obs_a, obs_b))
    return float(math.fsum(p for (e_a, e_b), p in table.items() if e_a != e_b))


@dataclasses.dataclass(frozen=True)
class PairTerm:
    a_setting: int
    b_setting: int
    probability: float


@dataclasses.dataclass(frozen=True)
class ChainReport:
    """Correlation-measure report: adjacent-setting disagreement probabilities,
    their fsum I (`value`, derived, never passed in), a closed-form value, the
    analytic bound, and (for approximate chains) a reference value with a
    certified deviation bound."""

    N: int
    pair_terms: tuple[PairTerm, ...]
    value: float = dataclasses.field(init=False)
    closed_form: float | None = None
    bound: float | None = None
    reference_value: float | None = None
    deviation_bound: float | None = None

    def __post_init__(self) -> None:
        for term in self.pair_terms:
            if not -PROB_TOL <= term.probability <= 1.0 + PROB_TOL:
                raise ValueError(f"pair probability {term.probability} outside [0, 1]")
        object.__setattr__(self, "value", math.fsum(t.probability for t in self.pair_terms))


def adjacent_setting_pairs(N: int) -> tuple[tuple[int, int], ...]:
    """(a, b) pairs with |a - b| = 1, enumerated as (b-1, b), (b+1, b) per odd b."""
    pairs: list[tuple[int, int]] = []
    for b in range(1, 2 * N, 2):
        pairs.append((b - 1, b))
        pairs.append((b + 1, b))
    return tuple(pairs)


def chain_correlation(
    state: SparseState,
    N: int,
    a_observables: Mapping[int, Observable],
    b_observables: Mapping[int, Observable],
    *,
    closed_form: float | None = None,
    bound: float | None = None,
    reference_value: float | None = None,
    deviation_bound: float | None = None,
) -> ChainReport:
    """Sum adjacent-setting disagreement probabilities into a ChainReport."""
    terms = tuple(
        PairTerm(a, b, disagreement_probability(state, a_observables[a], b_observables[b]))
        for a, b in adjacent_setting_pairs(N)
    )
    return ChainReport(
        N=N,
        pair_terms=terms,
        closed_form=closed_form,
        bound=bound,
        reference_value=reference_value,
        deviation_bound=deviation_bound,
    )


def bell_state() -> SparseState:
    """Maximally entangled two-qubit state (|00> + |11>)/sqrt(2) on A and B."""
    registry = SystemRegistry((("A", 2), ("B", 2)))
    amplitude = 1.0 / math.sqrt(2.0)
    return SparseState(registry, {(0, 0): amplitude, (1, 1): amplitude})


def bell_chain_closed_form(N: int) -> float:
    return 2.0 * N * math.sin(math.pi / (4 * N)) ** 2


def bell_chain_bound(N: int) -> float:
    return math.pi**2 / (8.0 * N)


def ddim_chain_closed_form(N: int, cj_squared: float) -> float:
    return 4.0 * N * cj_squared * math.sin(math.pi / (4 * N)) ** 2


def ddim_chain_bound(N: int, cj_squared: float) -> float:
    return math.pi**2 * cj_squared / (4.0 * N)


def correlation_measure_IN(state: SparseState, spec: ChainSpec) -> ChainReport:
    """Brute-force I_N for a two-outcome chain on the A/B wings of a bipartite
    state, with the closed form 2N sin^2(pi/4N) and bound pi^2/(8N) attached for
    cross-checking."""
    a_family, b_family = chain_families(spec, state.registry)
    return chain_correlation(
        state,
        spec.N,
        a_family,
        b_family,
        closed_form=bell_chain_closed_form(spec.N),
        bound=bell_chain_bound(spec.N),
    )


def correlation_measure_IN_prime(state: SparseState, spec: ChainSpec) -> ChainReport:
    """Brute-force I'_N when only a two-dimensional slice of a higher-dimensional
    state is rotated on its A/B wings; requires equal Schmidt weight on the
    rotated pair, within 1e-10 to absorb the rounding of Born weights computed
    from float amplitudes.

    The closed form 4N c_j^2 sin^2(pi/4N) and bound pi^2 c_j^2/(4N) are attached.
    """
    registry_a = state.registry.restrict(("A",))
    lo, hi = spec.pair  # normalized by ChainSpec
    weight_lo = born_probability(state, span_projector([SparseState(registry_a, {lo: 1.0})]))
    weight_hi = born_probability(state, span_projector([SparseState(registry_a, {hi: 1.0})]))
    if abs(weight_lo - weight_hi) > 1e-10:
        raise ValueError(
            f"rotated pair must carry equal coefficients: c_j^2 = {weight_lo}, "
            f"c_k^2 = {weight_hi}"
        )
    cj_squared = 0.5 * (weight_lo + weight_hi)
    a_family, b_family = chain_families(spec, state.registry)
    return chain_correlation(
        state,
        spec.N,
        a_family,
        b_family,
        closed_form=ddim_chain_closed_form(spec.N, cj_squared),
        bound=ddim_chain_bound(spec.N, cj_squared),
    )


def chain_triangle_check(
    state: SparseState,
    N: int,
    a_observables: Mapping[int, Observable],
    b_observables: Mapping[int, Observable],
) -> dict[str, float | bool]:
    """Quantum-level soundness of the chain inequality:
    |Pr(A_0 = 1) - Pr(A_2N = 1)| <= sum of adjacent disagreement probabilities."""
    p_first = born_probability(state, a_observables[0].projector_for(1.0))
    p_last = born_probability(state, a_observables[2 * N].projector_for(1.0))
    lhs = abs(p_first - p_last)
    rhs = math.fsum(
        disagreement_probability(state, a_observables[a], b_observables[b])
        for a, b in adjacent_setting_pairs(N)
    )
    return {"lhs": lhs, "rhs": float(rhs), "holds": lhs <= rhs + PROB_TOL}
