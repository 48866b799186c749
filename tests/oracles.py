"""Independent routes the tests pin the program against.  The program reads
none of them.

- `born_probability` and `joint_probability`: the literal Born route, the
  clipped squared norm of `project_amplitudes` applied projector by
  projector, which every `born_table` cell equals as a float.
- `fidelity`: the pure-state overlap |<a|b>| of two built states.
- `mismatch_probability`: the literal mismatch sum of two remote events,
  which pins the perfect-correlation cells.
- `superposed_ket`: the literal superposition cos(theta/2)|lo> + sin(theta/2)|hi>
  of two built basis kets, which pins `chained_bell.theta_ket` to its registry,
  key order and amplitude bits.
- `grouped_harmonic_sum`: the run-grouped sum that pins
  `interpolated_harmonic`.
- `StructuredBasisMap` and `apply_structured_map`: an injective partial
  basis map and its literal application, entry by entry, refusing support
  outside its domain.
- `input_state`, `embezzle_map` and `extract_side`: the map route to the
  extracted states, the extraction relabeling applied as a structured map to
  one side of tau_n (x) |00> (x) phi, which pins `embezzled_state` (both
  sides) and `one_side_embezzled_state` (side A) to their registry, key order
  and amplitude bits.
- `window_sets`: the literal K and L windows of a half-subset system, whose
  counts pin the multiplicities `HalfSubsetSystem` reads off the tiling.
- `enumerated_hypothesis`: the largest half-subset deviation from 1/2 over
  every half-size subset, which the sorted extreme must bound.
- `exact_trivial_epsilon`: the ledger's certified epsilon for the trivial
  fixture in exact rationals, which pins the float epsilon of `triviality_bound`.
"""

import dataclasses
import itertools
import math
from collections.abc import Mapping, Sequence
from fractions import Fraction

from parind_lab.embezzle import SIDES, EmbezzleSpec, phi_schmidt, tau
from parind_lab.halfsum import HalfSubsetSystem, Number, WeightedSequenceFamily
from parind_lab.hvaudit import _directed
from parind_lab.qcore import (
    NORM_TOL,
    MultiIndex,
    RankedProjector,
    SparseState,
    SystemRegistry,
    _check_disjoint,
    basis_state,
    inner_product,
    project_amplitudes,
    squared_norm,
    tensor,
)


def complement(projector: RankedProjector) -> RankedProjector:
    """Identity minus `projector`: the same kets with the complement flag flipped."""
    return RankedProjector(projector.registry, projector.kets, not projector.complemented)


def born_probability(state: SparseState, projector: RankedProjector) -> float:
    """Born probability <psi|P|psi> of a ranked projector.

    For a span this is the summed squared overlap with each ket over every
    configuration of the untouched subsystems; for a complemented projector it
    is the squared norm of the residual psi minus its span image.
    """
    projected = project_amplitudes(state.registry, state.amplitudes, projector)
    return min(1.0, max(0.0, squared_norm(projected)))


def joint_probability(state: SparseState, projectors: Sequence[RankedProjector]) -> float:
    """Born probability of a product of projectors on pairwise disjoint subsystems.

    Disjointness makes the factors commute, so the product is itself a projector
    and the joint outcome is well-defined.
    """
    _check_disjoint(projector.registry for projector in projectors)
    amplitudes: Mapping[MultiIndex, complex] = state.amplitudes
    for projector in projectors:
        amplitudes = project_amplitudes(state.registry, amplitudes, projector)
        if not amplitudes:
            return 0.0
    return min(1.0, max(0.0, squared_norm(amplitudes)))


def fidelity(a: SparseState, b: SparseState) -> float:
    """Pure-state fidelity |<a|b>|."""
    return abs(inner_product(a, b))


def mismatch_probability(
    state: SparseState,
    event_a: RankedProjector,
    event_b: RankedProjector,
    direction: str = "both",
) -> float:
    """Born probability of disagreeing remote events in `direction`, read as
    `hvaudit` reads it: "forward" (a fires, b does not), "backward" its
    mirror, or "both" their sum."""
    forward = joint_probability(state, [event_a, complement(event_b)])
    backward = joint_probability(state, [complement(event_a), event_b])
    return _directed(forward, backward, direction)


def superposed_ket(theta: float, ket_lo: SparseState, ket_hi: SparseState) -> SparseState:
    """cos(theta/2) ket_lo + sin(theta/2) ket_hi for orthonormal input kets."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    amplitudes: dict[MultiIndex, complex] = {}
    for key, amp in ket_lo.amplitudes.items():
        amplitudes[key] = amplitudes.get(key, 0.0) + c * amp
    for key, amp in ket_hi.amplitudes.items():
        amplitudes[key] = amplitudes.get(key, 0.0) + s * amp
    return SparseState(ket_lo.registry, amplitudes)


def grouped_harmonic_sum(n: int, m: int) -> float:
    """Z(n/m) as sum_{k<n} 1/(m * ceil((k+1)/m)).

    Grouping k into runs of m equal ceiling values reproduces Z(n/m) exactly,
    which pins down the floor-based interpolation of `interpolated_harmonic`.
    """
    if n < 0 or m < 1:
        raise ValueError(f"need n >= 0 and m >= 1, got n={n}, m={m}")
    return math.fsum(1.0 / (m * math.ceil((k + 1) / m)) for k in range(n))


@dataclasses.dataclass(frozen=True)
class StructuredBasisMap:
    """Injective partial basis map with per-branch phases on a sub-registry.

    `rules` sends a domain basis index to an (image index, phase) pair.  The map
    is only defined on its listed domain; applying it to a state whose support
    leaves the domain is an error, which is how "the action elsewhere is
    arbitrary" is made harmless: no computed quantity may depend on it.
    """

    registry: SystemRegistry
    rules: dict[MultiIndex, tuple[MultiIndex, complex]]

    def __post_init__(self) -> None:
        dims = self.registry.dimensions
        width = len(dims)
        normalized: dict[MultiIndex, tuple[MultiIndex, complex]] = {}
        images: set[MultiIndex] = set()
        for source, (target, phase) in self.rules.items():
            source = tuple(int(i) for i in source)
            target = tuple(int(i) for i in target)
            for key in (source, target):
                if len(key) != width or any(not 0 <= k < d for k, d in zip(key, dims)):
                    raise ValueError(f"basis index {key} out of range for dims {dims}")
            phase = complex(phase)
            if abs(abs(phase) - 1.0) > NORM_TOL:
                raise ValueError(f"phase {phase} is not unimodular")
            if target in images:
                raise ValueError(f"map is not injective: image {target} repeated")
            images.add(target)
            normalized[source] = (target, phase)
        object.__setattr__(self, "rules", normalized)


def apply_structured_map(smap: StructuredBasisMap, state: SparseState) -> SparseState:
    """Relocate amplitudes along a structured basis map; norm is preserved exactly.

    Raises with the offending basis index if the state's support leaves the map's
    domain.
    """
    host = state.registry
    acting_axes = host.axes(smap.registry.labels)
    for label in smap.registry.labels:
        if host.dimension(label) != smap.registry.dimension(label):
            raise ValueError(f"dimension mismatch on subsystem {label!r}")
    amplitudes: dict[MultiIndex, complex] = {}
    for key, amp in state.amplitudes.items():
        acting = tuple(key[i] for i in acting_axes)
        rule = smap.rules.get(acting)
        if rule is None:
            raise ValueError(
                f"state support escapes the map's domain at basis index {acting} "
                f"on subsystems {smap.registry.labels}"
            )
        target, phase = rule
        new_key = list(key)
        for axis, value in zip(acting_axes, target):
            new_key[axis] = value
        amplitudes[tuple(new_key)] = amp * phase
    return SparseState(host, amplitudes)


def input_state(spec: EmbezzleSpec) -> SparseState:
    """tau_n on the aux registers, |0>|0> pointers, Schmidt state on the systems."""
    pointers = SystemRegistry(tuple((ptr, spec.max_m) for _, ptr, _ in SIDES.values()))
    return tensor(
        tensor(tau(spec.n), basis_state(pointers, (0, 0))), phi_schmidt(spec.c)
    )


def embezzle_map(
    n: int, m: Sequence[int], registry: SystemRegistry
) -> StructuredBasisMap:
    """The extraction relabeling |k, 0, i> -> |floor(k/m_i), k mod m_i, i> for
    k < n, i < d, on an (aux, pointer, system) sub-registry in that label order."""
    if n < max(m):
        raise ValueError(f"precision n={n} must be at least max numerator {max(m)}")
    rules: dict[MultiIndex, tuple[MultiIndex, complex]] = {}
    for i, m_i in enumerate(m):
        for k in range(n):
            rules[(k, 0, i)] = ((k // m_i, k % m_i, i), 1.0)
    return StructuredBasisMap(registry, rules)


def extract_side(spec: EmbezzleSpec, state: SparseState, side: str) -> SparseState:
    """The extraction map applied to side "A" or "B"'s (aux, ptr, sys) registers."""
    # restrict() keeps host order; the map needs (aux, ptr, sys) order.
    ordered = SystemRegistry(
        tuple((label, state.registry.dimension(label)) for label in SIDES[side])
    )
    return apply_structured_map(embezzle_map(spec.n, spec.m, ordered), state)


def window_sets(
    system: HalfSubsetSystem,
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """The literal windows (K_a for a < r/2, L_b for b < x), as the `halfsum`
    docstring states them: K_a = J + (f[(a*x + t) mod M] : t < x) and
    L_b = (f[(b*(r/2) + t) mod M] : t < r/2)."""
    half, x, m, f = system.r // 2, system.x, system.complement_size, system.f
    k_sets = tuple(
        tuple(system.J) + tuple(f[(a * x + t) % m] for t in range(x)) for a in range(half)
    )
    l_sets = tuple(tuple(f[(b * half + t) % m] for t in range(half)) for b in range(x))
    return k_sets, l_sets


def enumerated_hypothesis(family: WeightedSequenceFamily) -> tuple[Number, tuple[int, ...]]:
    """The largest mu-averaged deviation of a half-size subset sum from 1/2,
    with the first subset (in `itertools.combinations` order) that attains it."""
    return max(
        (
            (family.average_deviation(subset, Fraction(1, 2)), subset)
            for subset in itertools.combinations(range(family.r), family.r // 2)
        ),
        key=lambda pair: pair[0],
    )


def exact_trivial_epsilon(spec: EmbezzleSpec) -> Fraction:
    """The certified epsilon of `triviality_bound` on the trivial fixture, exactly.

    Its one lambda reads the slot weights c_i^2 * sum_{k<n, k = j mod m_i}
    1/(k+1) / H_n, c_i the exact value of the float `spec.c[i]`; with
    L = lcm(1..n) every 1/(k+1) is the integer L/(k+1) over L, which cancels.
    No mass leaks off the slots.  epsilon_pair is the largest minus the
    smallest weight, epsilon_half the larger deviation from 1/2 of the r/2
    largest and of the r/2 smallest weights, block i is bounded by
    min(m_i * epsilon_pair, coefficient(r, m_i) * epsilon_half) plus
    max_i |m_i/r - c_i^2|, and epsilon is the largest block bound over 3."""
    L = math.lcm(*range(1, spec.n + 1))
    terms = [L // (k + 1) for k in range(spec.n)]
    harmonic = sum(terms)
    squares = [Fraction(c) ** 2 for c in spec.c]
    weights = sorted(
        squares[i] * Fraction(sum(terms[j::m_i]), harmonic)
        for i, m_i in enumerate(spec.m)
        for j in range(m_i)
    )
    half = spec.r // 2
    eps_pair = weights[-1] - weights[0]
    eps_half = max(abs(sum(part) - Fraction(1, 2)) for part in (weights[:half], weights[half:]))
    coefficient_error = max(abs(Fraction(m_i, spec.r) - sq) for m_i, sq in zip(spec.m, squares))
    blocks = [
        min(m_i * eps_pair, Fraction(max(spec.r - m_i, m_i), half) * eps_half)
        for m_i in spec.m
    ]
    return (max(blocks) + coefficient_error) / 3
