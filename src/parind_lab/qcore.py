"""Sparse state-vector core: labeled subsystems, low-rank projectors, observables,
Born-rule probabilities, Schmidt decomposition, and pure-state distance measures.

States live on a registry of named finite-dimensional subsystems and store only
nonzero amplitudes, keyed by one basis index per subsystem.  Projectors are spans
of explicit ket lists (or complements of such spans), so rank stays small even when
the ambient product space is huge.  Unitaries appear only as structured partial
basis maps that refuse inputs outside their declared domain; nothing in this
package ever materializes a dense operator on the full product space.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from collections.abc import Iterable, Mapping, Sequence

import numpy as np

# Global tolerances.  Norm / orthogonality checks are structural and get a looser
# tolerance than probability comparisons, which sit at the end of short arithmetic
# chains.  Amplitudes below DROP_TOL are treated as exact zeros and never stored.
NORM_TOL = 1e-10
ORTHO_TOL = 1e-10
PROB_TOL = 1e-12
DROP_TOL = 1e-15

MultiIndex = tuple[int, ...]


@dataclasses.dataclass(frozen=True)
class SystemRegistry:
    """Ordered collection of uniquely labeled subsystems with fixed dimensions."""

    subsystems: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        subsystems = tuple((str(label), int(dim)) for label, dim in self.subsystems)
        object.__setattr__(self, "subsystems", subsystems)
        labels = [label for label, _ in subsystems]
        if len(set(labels)) != len(labels):
            raise ValueError(f"subsystem labels must be unique, got {labels}")
        for label, dim in subsystems:
            if dim < 1:
                raise ValueError(f"subsystem {label!r} has dimension {dim} < 1")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.subsystems)

    @property
    def dimensions(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.subsystems)

    @property
    def total_dimension(self) -> int:
        return math.prod(self.dimensions)

    def axis(self, label: str) -> int:
        for position, (name, _) in enumerate(self.subsystems):
            if name == label:
                return position
        raise KeyError(f"unknown subsystem label {label!r}")

    def axes(self, names: Iterable[str]) -> tuple[int, ...]:
        return tuple(self.axis(label) for label in names)

    def dimension(self, label: str) -> int:
        return self.subsystems[self.axis(label)][1]

    def restrict(self, names: Iterable[str]) -> SystemRegistry:
        """Sub-registry of the subsystems `names`, kept in this registry's order."""
        keep = set(names)
        missing = keep - set(self.labels)
        if missing:
            raise KeyError(f"unknown subsystem labels {sorted(missing)}")
        return SystemRegistry(tuple(s for s in self.subsystems if s[0] in keep))

    def merged_with(self, other: SystemRegistry) -> SystemRegistry:
        collision = set(self.labels) & set(other.labels)
        if collision:
            raise ValueError(f"label collision on {sorted(collision)}")
        return SystemRegistry(self.subsystems + other.subsystems)

    def same_labels(self, other: SystemRegistry) -> bool:
        return dict(self.subsystems) == dict(other.subsystems)


def _clean_amplitudes(
    registry: SystemRegistry, amplitudes: Mapping[MultiIndex, complex]
) -> dict[MultiIndex, complex]:
    """Validate index arity/range and drop amplitudes below DROP_TOL."""
    dims = registry.dimensions
    width = len(dims)
    cleaned: dict[MultiIndex, complex] = {}
    for key, amp in amplitudes.items():
        key = tuple(int(k) for k in key)
        if len(key) != width:
            raise ValueError(f"index {key} has arity {len(key)}, expected {width}")
        for k, dim in zip(key, dims):
            if not 0 <= k < dim:
                raise ValueError(f"index {key} out of range for dimensions {dims}")
        value = complex(amp)
        if abs(value) > DROP_TOL:
            cleaned[key] = value
    return cleaned


@dataclasses.dataclass(frozen=True)
class SparseState:
    """Normalized pure state stored as a map from multi-indices to amplitudes."""

    registry: SystemRegistry
    amplitudes: dict[MultiIndex, complex]

    def __post_init__(self) -> None:
        cleaned = _clean_amplitudes(self.registry, self.amplitudes)
        object.__setattr__(self, "amplitudes", cleaned)
        norm_sq = squared_norm(cleaned)
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(
                f"state is not normalized: sum of |amplitude|^2 = {norm_sq!r}"
            )

    @classmethod
    def from_terms(
        cls, registry: SystemRegistry, terms: Mapping[MultiIndex, complex]
    ) -> SparseState:
        """Build a state from raw terms rescaled to unit norm."""
        norm = math.sqrt(squared_norm(terms))
        if norm <= DROP_TOL:
            raise ValueError("cannot normalize a (numerically) zero vector")
        return cls(registry, {k: v / norm for k, v in terms.items()})

    @property
    def nonzero_count(self) -> int:
        return len(self.amplitudes)


def squared_norm(amplitudes: Mapping[MultiIndex, complex]) -> float:
    return float(math.fsum(abs(a) ** 2 for a in amplitudes.values()))


def basis_state(registry: SystemRegistry, indices: Mapping[str, int] | Sequence[int]) -> SparseState:
    """Computational basis state |i_1 i_2 ...> given per-label or positional indices."""
    if isinstance(indices, Mapping):
        missing = set(registry.labels) - set(indices)
        if missing:
            raise ValueError(f"missing basis indices for {sorted(missing)}")
        key = tuple(int(indices[label]) for label in registry.labels)
    else:
        key = tuple(int(i) for i in indices)
    return SparseState(registry, {key: 1.0})


def tensor(left: SparseState, right: SparseState) -> SparseState:
    """Tensor product on disjointly labeled registries; amplitudes multiply."""
    registry = left.registry.merged_with(right.registry)
    amplitudes: dict[MultiIndex, complex] = {}
    for key_l, amp_l in left.amplitudes.items():
        for key_r, amp_r in right.amplitudes.items():
            amplitudes[key_l + key_r] = amp_l * amp_r
    return SparseState(registry, amplitudes)


def _alignment_permutation(source: SystemRegistry, target: SystemRegistry) -> tuple[int, ...] | None:
    """Permutation taking source-ordered keys to target order, or None if identical."""
    if source.labels == target.labels:
        return None
    if not source.same_labels(target):
        raise ValueError(
            f"registry mismatch: {source.labels} vs {target.labels} (different label sets)"
        )
    return tuple(source.axis(label) for label in target.labels)


def aligned_amplitudes(state: SparseState, target: SystemRegistry) -> Mapping[MultiIndex, complex]:
    """State amplitudes re-keyed to the target registry's subsystem order."""
    perm = _alignment_permutation(state.registry, target)
    if perm is None:
        return state.amplitudes
    return {tuple(key[p] for p in perm): amp for key, amp in state.amplitudes.items()}


def inner_product(a: SparseState, b: SparseState) -> complex:
    """<a|b> over the common (label-aligned) basis."""
    amps_b = aligned_amplitudes(b, a.registry)
    small, large, conj_small = (
        (a.amplitudes, amps_b, True)
        if len(a.amplitudes) <= len(amps_b)
        else (amps_b, a.amplitudes, False)
    )
    total = 0.0 + 0.0j
    for key, amp in small.items():
        other = large.get(key)
        if other is None:
            continue
        total += amp.conjugate() * other if conj_small else other.conjugate() * amp
    return total


def fidelity(a: SparseState, b: SparseState) -> float:
    """Pure-state fidelity |<a|b>|."""
    return abs(inner_product(a, b))


def trace_distance_pure(a: SparseState, b: SparseState) -> float:
    """Pure-state trace distance sqrt(1 - F^2).

    For any projector P, |<a|P|a> - <b|P|b>| is bounded above by this distance.
    """
    f = fidelity(a, b)
    return math.sqrt(max(0.0, 1.0 - f * f))


@dataclasses.dataclass(frozen=True)
class RankedProjector:
    """Rank-k projector: the span of an orthonormal ket list, or its complement.

    `registry` is the sub-registry the projector acts on; `kets` are states over
    exactly that sub-registry.  With `complemented=True` the projector is
    identity-minus-span, which avoids materializing the identity on large spaces.
    An empty complemented projector is the identity itself.
    """

    registry: SystemRegistry
    kets: tuple[SparseState, ...]
    complemented: bool = False

    def __post_init__(self) -> None:
        kets = tuple(self.kets)
        object.__setattr__(self, "kets", kets)
        for ket in kets:
            if not ket.registry.same_labels(self.registry):
                raise ValueError(
                    f"ket registry {ket.registry.labels} does not match projector "
                    f"registry {self.registry.labels}"
                )
        for i, u in enumerate(kets):
            for v in kets[i + 1 :]:
                overlap = abs(inner_product(u, v))
                if overlap > ORTHO_TOL:
                    raise ValueError(f"projector kets are not orthogonal (|<u|v>| = {overlap})")

    @property
    def rank_of_span(self) -> int:
        return len(self.kets)

    def complement(self) -> RankedProjector:
        return RankedProjector(self.registry, self.kets, not self.complemented)


def identity_projector(registry: SystemRegistry) -> RankedProjector:
    return RankedProjector(registry, (), complemented=True)


def span_projector(kets: Sequence[SparseState]) -> RankedProjector:
    if not kets:
        raise ValueError("span projector needs at least one ket")
    return RankedProjector(kets[0].registry, tuple(kets))


def basis_span_projector(
    registry: SystemRegistry, indices: Iterable[MultiIndex | int]
) -> RankedProjector:
    """Projector onto the span of computational basis states of a sub-registry."""
    kets = []
    for index in indices:
        key = (index,) if isinstance(index, int) else tuple(index)
        kets.append(basis_state(registry, key))
    return span_projector(kets)


def _host_order(host: SystemRegistry, acting: SystemRegistry) -> SystemRegistry:
    """`acting` in the host's subsystem order, after checking that the host has
    each of its subsystems with the same dimension."""
    for label, dim in acting.subsystems:
        if label not in host.labels:
            raise KeyError(f"projector acts on unknown subsystem {label!r}")
        if host.dimension(label) != dim:
            raise ValueError(
                f"dimension mismatch on {label!r}: host {host.dimension(label)}, "
                f"projector {dim}"
            )
    return host.restrict(acting.labels)


def _check_disjoint(registries: Iterable[SystemRegistry]) -> None:
    seen: set[str] = set()
    for registry in registries:
        labels = set(registry.labels)
        overlap = seen & labels
        if overlap:
            raise ValueError(
                f"projectors overlap on subsystems {sorted(overlap)}; joint outcomes "
                "are only defined for disjoint (hence commuting) groups"
            )
        seen |= labels


class _ProjectionEngine:
    """Applies a RankedProjector to amplitude maps over a host registry.

    The host key splits into the acting part (the projector's subsystems) and the
    rest; the projector contracts each rest-group against its kets.  Groups are
    rebuilt sparsely, so cost scales with the state's nonzero count times the
    projector's total ket support, never with the ambient dimension.
    """

    def __init__(self, host: SystemRegistry, projector: RankedProjector):
        self.projector = projector
        # Work in the host's subsystem order throughout, so split keys and ket keys
        # agree even when the projector lists its subsystems differently.
        host_order = _host_order(host, projector.registry)
        self.acting_axes = host.axes(host_order.labels)
        self.rest_axes = tuple(
            i for i in range(len(host.labels)) if i not in set(self.acting_axes)
        )
        self.ket_amps: list[Mapping[MultiIndex, complex]] = [
            dict(aligned_amplitudes(ket, host_order)) for ket in projector.kets
        ]

    def _split(self, key: MultiIndex) -> tuple[MultiIndex, MultiIndex]:
        return (
            tuple(key[i] for i in self.acting_axes),
            tuple(key[i] for i in self.rest_axes),
        )

    def _join(self, acting: MultiIndex, rest: MultiIndex) -> MultiIndex:
        key = [0] * (len(acting) + len(rest))
        for axis, value in zip(self.acting_axes, acting):
            key[axis] = value
        for axis, value in zip(self.rest_axes, rest):
            key[axis] = value
        return tuple(key)

    def span_image(self, amplitudes: Mapping[MultiIndex, complex]) -> dict[MultiIndex, complex]:
        groups: dict[MultiIndex, dict[MultiIndex, complex]] = {}
        for key, amp in amplitudes.items():
            acting, rest = self._split(key)
            groups.setdefault(rest, {})[acting] = amp
        image: dict[MultiIndex, complex] = {}
        for rest, vec in groups.items():
            for ket in self.ket_amps:
                coeff = 0.0 + 0.0j
                for acting, ket_amp in ket.items():
                    value = vec.get(acting)
                    if value is not None:
                        coeff += ket_amp.conjugate() * value
                if abs(coeff) <= DROP_TOL:
                    continue
                for acting, ket_amp in ket.items():
                    full = self._join(acting, rest)
                    image[full] = image.get(full, 0.0) + coeff * ket_amp
        return {k: v for k, v in image.items() if abs(v) > DROP_TOL}

    def apply(self, amplitudes: Mapping[MultiIndex, complex]) -> dict[MultiIndex, complex]:
        image = self.span_image(amplitudes)
        if not self.projector.complemented:
            return image
        residual = dict(amplitudes)
        for key, value in image.items():
            left = residual.get(key, 0.0) - value
            if abs(left) > DROP_TOL:
                residual[key] = left
            else:
                residual.pop(key, None)
        return residual


def project_amplitudes(
    host: SystemRegistry,
    amplitudes: Mapping[MultiIndex, complex],
    projector: RankedProjector,
) -> dict[MultiIndex, complex]:
    """Amplitude map of (P psi) for a possibly unnormalized amplitude map psi."""
    return _ProjectionEngine(host, projector).apply(amplitudes)


def born_probability(state: SparseState, projector: RankedProjector) -> float:
    """Born probability <psi|P|psi> of a ranked projector.

    For a span this is the summed squared overlap with each ket over every
    configuration of the untouched subsystems; for a complemented projector it
    is the squared norm of the residual psi minus its span image.  This literal
    route is the oracle that `born_table` is tested against.
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


@dataclasses.dataclass(frozen=True)
class Observable:
    """Finite-outcome observable: distinct real eigenvalues paired with orthogonal
    ranked projectors that sum to the identity.

    At most one branch may be complemented; by convention that branch is the
    complement of the union of all other branches' kets, which closes the sum to
    the identity without materializing it.
    """

    branches: tuple[tuple[float, RankedProjector], ...]

    def __post_init__(self) -> None:
        branches = tuple((float(e), p) for e, p in self.branches)
        object.__setattr__(self, "branches", branches)
        if not branches:
            raise ValueError("observable needs at least one branch")
        eigenvalues = [e for e, _ in branches]
        if len(set(eigenvalues)) != len(eigenvalues):
            raise ValueError(f"eigenvalues must be pairwise distinct, got {eigenvalues}")
        registry = branches[0][1].registry
        for _, projector in branches:
            if not projector.registry.same_labels(registry):
                raise ValueError("all branches must act on the same subsystems")
        complemented = [p for _, p in branches if p.complemented]
        if len(complemented) > 1:
            raise ValueError("at most one complemented branch may close the sum")
        span_branches = [p for _, p in branches if not p.complemented]
        for i, p in enumerate(span_branches):
            for q in span_branches[i + 1 :]:
                for u in p.kets:
                    for v in q.kets:
                        if abs(inner_product(u, v)) > ORTHO_TOL:
                            raise ValueError("branch projectors are not orthogonal")
        if complemented:
            expected = [ket for _, p in branches if not p.complemented for ket in p.kets]
            closing = complemented[0]
            if len(closing.kets) != len(expected):
                raise ValueError(
                    "the complemented branch must be the complement of the union "
                    "of the other branches' kets"
                )
            if expected and any(u is not v for u, v in zip(closing.kets, expected)):
                # Same span test via principal angles: the Gram matrix between two
                # orthonormal families has all singular values 1 iff spans agree.
                gram = np.array(
                    [[inner_product(u, v) for v in expected] for u in closing.kets]
                )
                singular = np.linalg.svd(gram, compute_uv=False)
                if np.any(np.abs(singular - 1.0) > 10 * ORTHO_TOL):
                    raise ValueError(
                        "complemented branch span does not match the union of the "
                        "other branches' kets"
                    )
        else:
            total_rank = sum(p.rank_of_span for _, p in branches)
            if total_rank != registry.total_dimension:
                raise ValueError(
                    f"branch ranks sum to {total_rank}, expected "
                    f"{registry.total_dimension} (projectors must resolve the identity)"
                )

    @property
    def registry(self) -> SystemRegistry:
        return self.branches[0][1].registry

    @property
    def acting_subsystems(self) -> tuple[str, ...]:
        return self.registry.labels

    @property
    def eigenvalues(self) -> tuple[float, ...]:
        return tuple(e for e, _ in self.branches)

    def projector_for(self, eigenvalue: float) -> RankedProjector:
        for e, p in self.branches:
            if e == eigenvalue:
                return p
        raise KeyError(f"no branch with eigenvalue {eigenvalue}")

    def negated(self) -> Observable:
        """The observable with every eigenvalue negated and projectors untouched."""
        return Observable(tuple((-e, p) for e, p in self.branches))


def complete_with_complement(
    branches: Sequence[tuple[float, RankedProjector]], closing_eigenvalue: float
) -> Observable:
    """Close a list of span branches to a full observable with one complemented branch.

    The closing branch carries `closing_eigenvalue` on everything outside the
    union of the listed spans.
    """
    kets = tuple(ket for _, p in branches for ket in p.kets)
    registry = branches[0][1].registry
    closing = RankedProjector(registry, kets, complemented=True)
    return Observable(tuple(branches) + ((float(closing_eigenvalue), closing),))


def two_outcome_observable(kets: Sequence[SparseState]) -> Observable:
    """+1 on the span of `kets`, -1 on its complement."""
    plus = span_projector(kets)
    return complete_with_complement([(1.0, plus)], -1.0)


class _BornPlan:
    """One observable prepared for the Born sweep.

    Each distinct ket (by identity, so a closing branch shares the kets of the
    spans it closes) is stored once, aligned to the host's subsystem order,
    with the branches it belongs to.  `alphabet` numbers the acting keys the
    kets hold, in ket order, so those keys are the first `width` columns of
    every acting alphabet this observable sees.

    Two step lists turn the ket arithmetic into column operations:
    `coefficient_steps[j]` holds the j-th entry of every ket that has one, so
    adding the steps in order accumulates each coefficient in ket-entry order;
    `image_steps[b]` holds, per rank r, the entries of the branch's kets that
    are the r-th (in branch-position order) to touch their column, so adding
    the ranks in order accumulates each image entry in branch-position order.
    """

    def __init__(self, host: SystemRegistry, observable: Observable):
        host_order = _host_order(host, observable.registry)
        self.axes = host.axes(host_order.labels)
        self.dims = host_order.dimensions
        self.branch_count = len(observable.branches)
        self.residual_branches = [
            b for b, (_, p) in enumerate(observable.branches) if p.complemented
        ]
        # ket -> ((acting key, amplitude, conjugate), ...) in the ket's own order
        self.kets: list[tuple[tuple[MultiIndex, complex, complex], ...]] = []
        # ket -> [(branch, position of the ket in that branch)]
        self.members: list[list[tuple[int, int]]] = []
        ket_ids: dict[int, int] = {}
        for b, (_, projector) in enumerate(observable.branches):
            for position, ket in enumerate(projector.kets):
                k = ket_ids.get(id(ket))
                if k is None:
                    k = ket_ids[id(ket)] = len(self.kets)
                    amps = aligned_amplitudes(ket, host_order)
                    self.kets.append(tuple((a, v, v.conjugate()) for a, v in amps.items()))
                    self.members.append([])
                self.members[k].append((b, position))
        self.alphabet: dict[MultiIndex, int] = {}
        for items in self.kets:
            for key, _, _ in items:
                self.alphabet.setdefault(key, len(self.alphabet))
        self.width = len(self.alphabet)
        self.coefficient_steps = _steps(
            (j, k, self.alphabet[key], conj)
            for k, items in enumerate(self.kets)
            for j, (key, _, conj) in enumerate(items)
        )
        # branch -> (alphabet column of each image slot, image steps)
        self.image_steps: list[tuple[np.ndarray, list[_Step]]] = []
        hits: list[list[tuple[int, int]]] = [[] for _ in observable.branches]
        for k, member in enumerate(self.members):
            for b, position in member:
                hits[b].append((position, k))
        for branch_hits in hits:
            slots: dict[int, int] = {}
            touches: list[int] = []
            entries = []
            for _, k in sorted(branch_hits):
                for key, amp, _ in self.kets[k]:
                    slot = slots.setdefault(self.alphabet[key], len(slots))
                    if slot == len(touches):
                        touches.append(0)
                    entries.append((touches[slot], k, slot, amp))
                    touches[slot] += 1
            self.image_steps.append((np.array(list(slots), dtype=np.intp), _steps(entries)))


# (kets, columns, weight real parts, weight imaginary parts) of one step
_Step = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _steps(entries: Iterable[tuple[int, int, int, complex]]) -> list[_Step]:
    """(step, ket, column, weight) entries -> one `_Step` per step, in step
    order, each keeping the entries in the order given."""
    grouped: list[tuple[list[tuple[int, int]], list[complex]]] = []
    for step, k, column, weight in entries:
        if step == len(grouped):
            grouped.append(([], []))
        grouped[step][0].append((k, column))
        grouped[step][1].append(weight)
    steps = []
    for pairs, weights in grouped:
        kets, columns = np.array(pairs, dtype=np.intp).T
        w = np.array(weights, dtype=complex)
        steps.append((kets, columns, w.real, w.imag))
    return steps


# Radix codes stay below this bound, so no int64 product can overflow.
_RADIX_LIMIT = 1 << 62


def _dense(code: np.ndarray) -> tuple[np.ndarray, int]:
    """Each entry's rank among the distinct values of `code`, and their count:
    `np.unique(code, return_inverse=True)` without its per-call overhead."""
    order = code.argsort()
    ranked = code[order]
    fresh = np.empty(len(code), dtype=bool)
    fresh[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=fresh[1:])
    ranks = fresh.cumsum()
    inverse = np.empty(len(code), dtype=np.intp)
    inverse[order] = ranks - 1
    return inverse, int(ranks[-1])


def _row_codes(rows: np.ndarray, dims: Sequence[int]) -> tuple[np.ndarray, int]:
    """Dense codes of the rows of an int64 matrix whose column i is below
    dims[i]: one radix code per row, compressed whenever the next column
    could push it past `_RADIX_LIMIT`."""
    code, bound = np.zeros(len(rows), dtype=np.int64), 1
    for column, dim in zip(rows.T, dims):
        if bound * dim > _RADIX_LIMIT:
            code, bound = _dense(code)
            if bound * dim > _RADIX_LIMIT:
                column, dim = _dense(column)
        code, bound = code * dim + column, bound * dim
    return _dense(code)


def _acting_codes(plan: _BornPlan, support: np.ndarray) -> tuple[np.ndarray, int]:
    """Each support entry's column in the observable's acting alphabet (the
    plan's ket keys first, then the keys found only in the state), and the
    alphabet's size."""
    ket_rows = np.array(list(plan.alphabet), dtype=np.int64).reshape(plan.width, len(plan.axes))
    rows = np.concatenate([ket_rows, support[:, plan.axes]])
    inverse, count = _row_codes(rows, plan.dims)
    lut = np.full(count, -1, dtype=np.int64)
    lut[inverse[: plan.width]] = np.arange(plan.width)
    state_only = lut < 0
    lut[state_only] = np.arange(plan.width, count)
    return lut[inverse[plan.width :]], count


def _complex_product(ar, ai, br, bi):
    """CPython's complex product (a * b) on float components."""
    return ar * br - ai * bi, ar * bi + ai * br


def _keep(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Where |re + i im| exceeds DROP_TOL, with `abs(complex)`'s hypot."""
    return np.hypot(re, im) > DROP_TOL


def _cell_sum(re: np.ndarray, im: np.ndarray) -> float:
    """fsum of |v|^2 as `squared_norm` forms each term: abs(v) is
    hypot(re, im), squared as a Python float (`h ** 2` is pow, not h * h)."""
    return math.fsum([h**2 for h in np.hypot(re, im).tolist()])


def _descend(
    plans: Sequence[_BornPlan],
    sizes: Sequence[int],
    level: int,
    cell: tuple[int, ...],
    prefix: np.ndarray,
    prefix_count: int,
    tails: Sequence[np.ndarray],
    column: np.ndarray,
    re: np.ndarray,
    im: np.ndarray,
    sums: dict[tuple[int, ...], float],
) -> None:
    """Project entries through observables `level`, `level + 1`, ... in order,
    storing each final cell's fsum of |amplitude|^2 under its branch indices.

    Entry i sits at `column[i]` of observable `level`'s alphabet; its group is
    (prefix[i], tails[0][i], ...), where the prefix codes the untouched rest
    and the columns already projected, and tails[j] is the entry's column of
    observable level + 1 + j.
    """
    plan = plans[level]
    group, count = prefix, prefix_count
    for tail, size in zip(tails, sizes[level + 1 :]):
        group, count = _dense(group * size + tail)
    # the group vectors over the kets' columns; a zero stands for an absent key
    on_kets = column < plan.width
    occupied = group[on_kets], column[on_kets]
    dr = np.zeros((count, plan.width))
    di = np.zeros((count, plan.width))
    dr[occupied] = re[on_kets]
    di[occupied] = im[on_kets]
    off_kets = ~on_kets
    # each (group, ket) coefficient <ket|vec>, accumulated in ket-entry order
    cr = ci = np.zeros((count, 0))
    for j, (kets, columns, wr, wi) in enumerate(plan.coefficient_steps):
        pr, pi = _complex_product(wr, wi, dr[:, columns], di[:, columns])
        if j == 0:  # every ket has a first entry, in ket order
            cr, ci = pr, pi
        else:
            cr[:, kets] += pr
            ci[:, kets] += pi
    dropped = ~_keep(cr, ci)
    cr[dropped] = 0.0
    ci[dropped] = 0.0
    last = level + 1 == len(plans)
    if not last:
        rep = np.empty(count, dtype=np.intp)
        rep[group] = np.arange(len(group))
        group_prefix = prefix[rep]
        group_tails = [tail[rep] for tail in tails]
    for b, (slots, steps) in enumerate(plan.image_steps):
        ir = ii = np.zeros((count, 0))
        for r, (kets, positions, ar, ai) in enumerate(steps):
            pr, pi = _complex_product(cr[:, kets], ci[:, kets], ar, ai)
            if r == 0:  # the first touches fill the slots in order
                ir, ii = pr, pi
            else:
                ir[:, positions] += pr
                ii[:, positions] += pi
        kept = _keep(ir, ii)
        if b in plan.residual_branches:
            # the literal residual: vec minus its image, DROP_TOL-filtered
            ir[~kept] = 0.0
            ii[~kept] = 0.0
            rr, ri = dr.copy(), di.copy()
            rr[:, slots] -= ir
            ri[:, slots] -= ii
            g, c = np.nonzero(_keep(rr, ri))
            # keys no ket holds pass through unchanged
            vr = np.concatenate([rr[g, c], re[off_kets]])
            vi = np.concatenate([ri[g, c], im[off_kets]])
            g = np.concatenate([g, group[off_kets]])
            c = np.concatenate([c, column[off_kets]])
        else:
            g, s = np.nonzero(kept)
            c, vr, vi = slots[s], ir[g, s], ii[g, s]
        if not len(g):
            continue
        if last:
            sums[cell + (b,)] = _cell_sum(vr, vi)
            continue
        next_prefix, next_count = _dense(group_prefix[g] * sizes[level] + c)
        _descend(
            plans, sizes, level + 1, cell + (b,), next_prefix, next_count,
            [tail[g] for tail in group_tails[1:]], group_tails[0][g], vr, vi, sums,
        )


def born_table(
    state: SparseState, observables: Sequence[Observable]
) -> dict[tuple[float, ...], float]:
    """Born probabilities of every eigenvalue tuple of observables on pairwise
    disjoint subsystems, from one pass over the state.

    The support is encoded once as int64 codes: one for the part no
    observable touches and one acting column per observable.  The groups are
    then projected through the observables in the given order, one numpy pass
    per observable and branch, depth first.  Every cell equals
    `joint_probability(state, [projectors in that order])` (for one
    observable, `born_probability`) as a float, complemented branches
    included: they are literal residuals, never one minus the other cells.
    The kernel does the oracle's float operations in the oracle's order, with
    three rules where numpy and CPython round differently: complex products
    are CPython's, spelled out on float64 components; |z| is `np.hypot`, as
    `abs()` computes it (not `np.abs`); and each final |v|^2 is `h ** 2` on a
    Python float (not `h * h`).  A zero stands for an absent key, which can
    only change the sign of an exact zero.
    """
    obs = tuple(observables)
    if not obs:
        raise ValueError("need at least one observable")
    _check_disjoint(observable.registry for observable in obs)
    host = state.registry
    plans = [_BornPlan(host, observable) for observable in obs]
    n, width = len(state.amplitudes), len(host.labels)
    support = np.fromiter(
        itertools.chain.from_iterable(state.amplitudes), dtype=np.int64, count=n * width
    ).reshape(n, width)
    values = np.fromiter(state.amplitudes.values(), dtype=np.complex128, count=n)
    acting_axes = {axis for plan in plans for axis in plan.axes}
    rest_axes = [i for i in range(width) if i not in acting_axes]
    rest, rest_count = _row_codes(support[:, rest_axes], [host.dimensions[i] for i in rest_axes])
    columns, sizes = zip(*(_acting_codes(plan, support) for plan in plans))
    sums: dict[tuple[int, ...], float] = {}
    _descend(
        plans, sizes, 0, (), rest, rest_count, columns[1:], columns[0],
        values.real, values.imag, sums,
    )
    table: dict[tuple[float, ...], float] = {}
    for cell in itertools.product(*(range(plan.branch_count) for plan in plans)):
        eigenvalues = tuple(o.branches[b][0] for o, b in zip(obs, cell))
        table[eigenvalues] = min(1.0, max(0.0, sums.get(cell, 0.0)))
    return table


def outcome_distribution(state: SparseState, observable: Observable) -> dict[float, float]:
    """Born distribution over an observable's eigenvalues."""
    return {combo[0]: p for combo, p in born_table(state, (observable,)).items()}


@dataclasses.dataclass(frozen=True)
class SchmidtDecomposition:
    coefficients: tuple[float, ...]
    left_kets: tuple[SparseState, ...]
    right_kets: tuple[SparseState, ...]

    @property
    def rank(self) -> int:
        return len(self.coefficients)


def schmidt_decompose(
    state: SparseState,
    left_labels: Sequence[str],
    right_labels: Sequence[str],
) -> SchmidtDecomposition:
    """Schmidt decomposition across a bipartition that covers the full registry.

    Returns descending positive coefficients with matching orthonormal ket
    families, so that psi = sum_k c_k |left_k> |right_k|; singular values at or
    below 1e-12 are dropped.
    Only basis points occurring in the state's support enter the SVD, keeping the
    matrix small for sparse states.
    """
    left_set, right_set = set(left_labels), set(right_labels)
    if left_set & right_set:
        raise ValueError("bipartition halves must be disjoint")
    if left_set | right_set != set(state.registry.labels):
        raise ValueError("bipartition must cover the whole registry")
    left_registry = state.registry.restrict(left_set)
    right_registry = state.registry.restrict(right_set)
    left_axes = state.registry.axes(left_registry.labels)
    right_axes = state.registry.axes(right_registry.labels)

    rows: dict[MultiIndex, int] = {}
    cols: dict[MultiIndex, int] = {}
    entries: list[tuple[MultiIndex, MultiIndex, complex]] = []
    for key, amp in state.amplitudes.items():
        lkey = tuple(key[i] for i in left_axes)
        rkey = tuple(key[i] for i in right_axes)
        rows.setdefault(lkey, len(rows))
        cols.setdefault(rkey, len(cols))
        entries.append((lkey, rkey, amp))
    matrix = np.zeros((len(rows), len(cols)), dtype=complex)
    for lkey, rkey, amp in entries:
        matrix[rows[lkey], cols[rkey]] = amp

    u, singular_values, vh = np.linalg.svd(matrix, full_matrices=False)
    row_keys = list(rows)
    col_keys = list(cols)
    coefficients: list[float] = []
    left_kets: list[SparseState] = []
    right_kets: list[SparseState] = []
    for k, value in enumerate(singular_values):
        if value <= 1e-12:
            break
        coefficients.append(float(value))
        left_amp = {row_keys[i]: u[i, k] for i in range(len(row_keys))}
        right_amp = {col_keys[j]: vh[k, j] for j in range(len(col_keys))}
        left_kets.append(SparseState.from_terms(left_registry, left_amp))
        right_kets.append(SparseState.from_terms(right_registry, right_amp))
    return SchmidtDecomposition(tuple(coefficients), tuple(left_kets), tuple(right_kets))


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

    def inverted(self) -> StructuredBasisMap:
        return StructuredBasisMap(
            self.registry,
            {target: (source, phase.conjugate()) for source, (target, phase) in self.rules.items()},
        )


def identity_map(registry: SystemRegistry, domain: Iterable[MultiIndex]) -> StructuredBasisMap:
    return StructuredBasisMap(registry, {tuple(k): (tuple(k), 1.0) for k in domain})


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
