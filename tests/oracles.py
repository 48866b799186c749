"""Independent routes the tests pin the program against.  The program reads
none of them.

- `born_probability` and `joint_probability`: the literal Born route, the
  clipped squared norm of `project_amplitudes` applied projector by
  projector, which every `born_table` cell equals as a float.
- `fidelity`: the pure-state overlap |<a|b>| of two built states.
- `mismatch_probability`: the literal mismatch sum of two remote events,
  which pins the perfect-correlation cells.
- `grouped_harmonic_sum`: the run-grouped sum that pins
  `interpolated_harmonic`.
"""

import math
from collections.abc import Mapping, Sequence

from parind_lab.hvaudit import _directed
from parind_lab.qcore import (
    MultiIndex,
    RankedProjector,
    SparseState,
    _check_disjoint,
    inner_product,
    project_amplitudes,
    squared_norm,
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


def grouped_harmonic_sum(n: int, m: int) -> float:
    """Z(n/m) as sum_{k<n} 1/(m * ceil((k+1)/m)).

    Grouping k into runs of m equal ceiling values reproduces Z(n/m) exactly,
    which pins down the floor-based interpolation of `interpolated_harmonic`.
    """
    if n < 0 or m < 1:
        raise ValueError(f"need n >= 0 and m >= 1, got n={n}, m={m}")
    return math.fsum(1.0 / (m * math.ceil((k + 1) / m)) for k in range(n))
