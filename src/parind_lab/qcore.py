"""Sparse state-vector core: labeled subsystems, low-rank projectors, observables,
and Born-rule probabilities.

States live on a registry of named finite-dimensional subsystems and store only
nonzero amplitudes, as two arrays: one int64 key row per support entry (one basis
index per subsystem) and one complex128 amplitude per row.  The key -> amplitude
mapping that `project_amplitudes` and `inner_product` read is a read-only view
built on its first read; a state built from a mapping forms its arrays on the
Born kernel's first read instead.  Projectors are spans of explicit ket lists
(or complements of such spans), so rank stays small even when the ambient
product space is huge.  Nothing in this package ever materializes a dense
operator on the full product space.
"""

from __future__ import annotations

import cmath
import dataclasses
import itertools
import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
from types import MappingProxyType
from typing import NoReturn

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
    # Derived from `subsystems` once, here, since every state, projector and
    # inner product reads them; they take no part in ==, hash or repr.
    labels: tuple[str, ...] = dataclasses.field(init=False, repr=False, compare=False)
    dimensions: tuple[int, ...] = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        subsystems = tuple((str(label), int(dim)) for label, dim in self.subsystems)
        object.__setattr__(self, "subsystems", subsystems)
        labels = [label for label, _ in subsystems]
        if len(set(labels)) != len(labels):
            raise ValueError(f"subsystem labels must be unique, got {labels}")
        for label, dim in subsystems:
            if dim < 1:
                raise ValueError(f"subsystem {label!r} has dimension {dim} < 1")
        object.__setattr__(self, "labels", tuple(labels))
        object.__setattr__(self, "dimensions", tuple(dim for _, dim in subsystems))

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
    """Validate index arity/range and drop amplitudes below DROP_TOL.

    Arity and range are checked in bulk, one min/max per axis; only a failing
    check rescans entry by entry, to name the first offending key.  A
    non-finite amplitude is kept, for the norm check to name."""
    dims = registry.dimensions
    try:
        keys = [tuple(map(int, key)) for key in amplitudes]
        values = list(map(complex, amplitudes.values()))
    except (TypeError, ValueError, OverflowError):
        _raise_first_bad_entry(amplitudes, dims)
    if keys and not (
        set(map(len, keys)) == {len(dims)}
        and all(0 <= min(axis) and max(axis) < dim for axis, dim in zip(zip(*keys), dims))
    ):
        _raise_first_bad_entry(amplitudes, dims)
    return {key: value for key, value in zip(keys, values) if not abs(value) <= DROP_TOL}


def _raise_first_bad_entry(
    amplitudes: Mapping[MultiIndex, complex], dims: tuple[int, ...]
) -> NoReturn:
    """Raise for the first entry, in mapping order, whose key has the wrong
    arity or range or whose key or amplitude does not convert."""
    width = len(dims)
    for key, amp in amplitudes.items():
        key = tuple(int(k) for k in key)
        if len(key) != width:
            raise ValueError(f"index {key} has arity {len(key)}, expected {width}")
        for k, dim in zip(key, dims):
            if not 0 <= k < dim:
                raise ValueError(f"index {key} out of range for dimensions {dims}")
        complex(amp)
    raise AssertionError("the bulk check failed on entries that all pass one by one")


def _refuse_norm(norm_sq: float, entries: Iterable[tuple[MultiIndex, complex]]) -> NoReturn:
    """Raise for a squared norm off 1: for the first non-finite amplitude
    among `entries` ((key, amplitude) pairs in key order), if the norm is
    not finite, else for the norm."""
    if not math.isfinite(norm_sq):
        for key, value in entries:
            if not cmath.isfinite(value):
                raise ValueError(f"amplitude {value!r} at index {key} is not finite")
    raise ValueError(f"state is not normalized: sum of |amplitude|^2 = {norm_sq!r}")


# SparseState refuses attribute assignment; its own fields are set with this.
_set = object.__setattr__


def _read_only(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


class SparseState:
    """Normalized pure state: one int64 key array (support x registers, one
    basis index per register) and one complex128 amplitude array, validated
    once and read-only.  Amplitudes at or below DROP_TOL are never stored.

    `SparseState(registry, mapping)` keeps the cleaned mapping and forms the
    arrays when `keys` or `values` is first read, as the Born kernel does;
    `SparseState.from_arrays` keeps the arrays and forms the mapping when
    `amplitudes` is first read.  Either form is built at most once, in key
    order, so a ket costs no array and a large state no dict until read."""

    __slots__ = ("registry", "_amplitudes", "_keys", "_values")

    def __init__(self, registry: SystemRegistry, amplitudes: Mapping[MultiIndex, complex]):
        cleaned = _clean_amplitudes(registry, amplitudes)
        try:
            norm_sq = squared_norm(cleaned)
        except OverflowError:
            norm_sq = math.inf
        if not abs(norm_sq - 1.0) <= NORM_TOL:
            _refuse_norm(norm_sq, cleaned.items())
        _set(self, "registry", registry)
        _set(self, "_amplitudes", MappingProxyType(cleaned))
        _set(self, "_keys", None)
        _set(self, "_values", None)

    @classmethod
    def from_arrays(
        cls, registry: SystemRegistry, keys: np.ndarray, values: np.ndarray
    ) -> SparseState:
        """The state with amplitude values[r] at key row keys[r], checked as a
        mapping is, in bulk and with the same messages (arity, range,
        DROP_TOL, finiteness, norm), and refusing a repeated key.  The state
        takes the arrays over as read-only views, copying them only to
        convert their dtype or to drop an entry."""
        keys = np.asarray(keys, dtype=np.int64)
        values = np.asarray(values, dtype=np.complex128)
        dims = registry.dimensions
        if keys.ndim != 2 or values.shape != keys.shape[:1]:
            raise ValueError(
                f"keys of shape {keys.shape} do not give one row per amplitude of {values.shape}"
            )
        if len(keys) and keys.shape[1] != len(dims):
            raise ValueError(
                f"index {tuple(keys[0].tolist())} has arity {keys.shape[1]}, expected {len(dims)}"
            )
        outside = ((keys < 0) | (keys >= dims)).any(axis=1)
        if outside.any():
            key = tuple(keys[outside.argmax()].tolist())
            raise ValueError(f"index {key} out of range for dimensions {dims}")
        # `not |v| <= DROP_TOL`, as for a mapping, keeps a NaN for the norm check
        kept = ~(np.hypot(values.real, values.imag) <= DROP_TOL)
        if not kept.all():
            keys, values = keys[kept], values[kept]
        code = _radix(keys, dims)[0]
        if _dense(code)[1] < len(code):
            _, first = np.unique(code, return_index=True)
            repeated = np.ones(len(code), dtype=bool)
            repeated[first] = False
            row = int(repeated.argmax())
            raise ValueError(f"index {tuple(keys[row].tolist())} is repeated")
        try:
            norm_sq = _cell_sum(values.real, values.imag)
        except OverflowError:
            norm_sq = math.inf
        if not abs(norm_sq - 1.0) <= NORM_TOL:
            _refuse_norm(norm_sq, zip(map(tuple, keys.tolist()), values.tolist()))
        state = cls.__new__(cls)
        _set(state, "registry", registry)
        _set(state, "_amplitudes", None)
        _set(state, "_keys", _read_only(keys))
        _set(state, "_values", _read_only(values))
        return state

    def __setattr__(self, name: str, value: object) -> NoReturn:
        raise AttributeError(f"SparseState is immutable; cannot set {name!r}")

    @property
    def amplitudes(self) -> Mapping[MultiIndex, complex]:
        """Read-only map from key tuples to amplitudes, in key order."""
        if self._amplitudes is None:
            mapping = dict(zip(map(tuple, self._keys.tolist()), self._values.tolist()))
            _set(self, "_amplitudes", MappingProxyType(mapping))
        return self._amplitudes

    @property
    def keys(self) -> np.ndarray:
        """The support, one int64 row of basis indices per entry."""
        if self._keys is None:
            self._fill_arrays()
        return self._keys

    @property
    def values(self) -> np.ndarray:
        """The complex128 amplitude of each row of `keys`."""
        if self._values is None:
            self._fill_arrays()
        return self._values

    def _fill_arrays(self) -> None:
        amplitudes = self._amplitudes
        n, width = len(amplitudes), len(self.registry.labels)
        keys = np.fromiter(
            itertools.chain.from_iterable(amplitudes), dtype=np.int64, count=n * width
        ).reshape(n, width)
        values = np.fromiter(amplitudes.values(), dtype=np.complex128, count=n)
        _set(self, "_keys", _read_only(keys))
        _set(self, "_values", _read_only(values))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseState):
            return NotImplemented
        return self.registry == other.registry and self.amplitudes == other.amplitudes

    def __repr__(self) -> str:
        return f"SparseState(registry={self.registry!r}, amplitudes={dict(self.amplitudes)!r})"

    def __reduce__(self):
        return (SparseState.from_arrays, (self.registry, self.keys, self.values))


def squared_norm(amplitudes: Mapping[MultiIndex, complex]) -> float:
    return float(math.fsum(abs(a) ** 2 for a in amplitudes.values()))


def basis_state(registry: SystemRegistry, indices: Sequence[int]) -> SparseState:
    """Computational basis state |i_1 i_2 ...> given positional indices."""
    return SparseState(registry, {tuple(int(i) for i in indices): 1.0})


def tensor(left: SparseState, right: SparseState) -> SparseState:
    """Tensor product on disjointly labeled registries, built from the two
    states' arrays: row (a, b), a outer, is left key a followed by right key
    b, with amplitude left[a] * right[b] as CPython multiplies complex
    numbers, spelled out on float components.  The product is checked as any
    state is (DROP_TOL, norm), so tensoring with |0> on a new register adds
    one constant column over the same amplitudes."""
    registry = left.registry.merged_with(right.registry)
    a, b = left.values, right.values
    re, im = _complex_product(a.real[:, None], a.imag[:, None], b.real, b.imag)
    split, width = len(left.registry.labels), len(registry.labels)
    keys = np.empty((len(a), len(b), width), dtype=np.int64)
    keys[:, :, :split] = left.keys[:, None]
    keys[:, :, split:] = right.keys
    values = np.empty(len(a) * len(b), dtype=np.complex128)
    values.real, values.imag = re.ravel(), im.ravel()
    return SparseState.from_arrays(registry, keys.reshape(-1, width), values)


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


def _meeting_pairs(
    registry: SystemRegistry, groups: Sequence[Sequence[SparseState]]
) -> list[tuple[SparseState, SparseState]]:
    """Pairs (u, v) of kets from different groups, u listed first, whose
    supports share a key once aligned to `registry`.  Any other pair from
    different groups has inner product exactly 0, so orthogonality checks
    read only these."""
    kets: list[SparseState] = []
    holders: dict[MultiIndex, list[tuple[int, int]]] = {}
    for group, members in enumerate(groups):
        for ket in members:
            for key in aligned_amplitudes(ket, registry):
                holders.setdefault(key, []).append((group, len(kets)))
            kets.append(ket)
    pairs = {
        (i, j)
        for sharing in holders.values()
        for (g, i), (h, j) in itertools.combinations(sharing, 2)
        if g != h
    }
    return [(kets[i], kets[j]) for i, j in sorted(pairs)]


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
        for u, v in _meeting_pairs(self.registry, [(ket,) for ket in kets]):
            overlap = abs(inner_product(u, v))
            if overlap > ORTHO_TOL:
                raise ValueError(f"projector kets are not orthogonal (|<u|v>| = {overlap})")

    @property
    def rank_of_span(self) -> int:
        return len(self.kets)


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


def project_amplitudes(
    host: SystemRegistry,
    amplitudes: Mapping[MultiIndex, complex],
    projector: RankedProjector,
) -> dict[MultiIndex, complex]:
    """Amplitude map of (P psi) for a possibly unnormalized amplitude map psi.

    The host key splits into the acting part (the projector's subsystems) and
    the rest; the projector contracts each rest-group against its kets.  Groups
    are rebuilt sparsely, so cost scales with the state's nonzero count times
    the projector's total ket support, never with the ambient dimension.  A
    complemented projector returns the residual psi minus the span image.
    """
    # Work in the host's subsystem order throughout, so split keys and ket keys
    # agree even when the projector lists its subsystems differently.
    host_order = _host_order(host, projector.registry)
    acting_axes = host.axes(host_order.labels)
    rest_axes = tuple(i for i in range(len(host.labels)) if i not in acting_axes)
    kets = [dict(aligned_amplitudes(ket, host_order)) for ket in projector.kets]
    groups: dict[MultiIndex, dict[MultiIndex, complex]] = {}
    for key, amp in amplitudes.items():
        rest = tuple(key[i] for i in rest_axes)
        groups.setdefault(rest, {})[tuple(key[i] for i in acting_axes)] = amp
    image: dict[MultiIndex, complex] = {}
    for rest, vec in groups.items():
        for ket in kets:
            coeff = 0.0 + 0.0j
            for acting, ket_amp in ket.items():
                value = vec.get(acting)
                if value is not None:
                    coeff += ket_amp.conjugate() * value
            if abs(coeff) <= DROP_TOL:
                continue
            for acting, ket_amp in ket.items():
                joined = [0] * len(host.labels)
                for axis, value in zip(acting_axes, acting):
                    joined[axis] = value
                for axis, value in zip(rest_axes, rest):
                    joined[axis] = value
                full = tuple(joined)
                image[full] = image.get(full, 0.0) + coeff * ket_amp
    image = {k: v for k, v in image.items() if abs(v) > DROP_TOL}
    if not projector.complemented:
        return image
    residual = dict(amplitudes)
    for key, value in image.items():
        left = residual.get(key, 0.0) - value
        if abs(left) > DROP_TOL:
            residual[key] = left
        else:
            residual.pop(key, None)
    return residual


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
        span_kets = [p.kets for _, p in branches if not p.complemented]
        for u, v in _meeting_pairs(registry, span_kets):
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
    """One level of a Born pass: the distinct observables (by identity) that
    the pass's tuples measure at that level, on one group of subsystems,
    merged into one plan.

    Each observable owns a block of the merged acting alphabet: the acting
    keys its kets hold, in ket order, from `offsets[j]` on, `width` columns
    in all.  Each distinct ket of an observable (by identity, so a closing
    branch shares the kets of the spans it closes) is stored once, aligned to
    the host's subsystem order, and numbered after the kets of the
    observables before it.  `coefficients` fans each merged ket-key column
    out to the ket entries holding it, as (ket, position in the ket,
    conjugate amplitude), and column `width` (a key no ket of the row's
    observable holds) to nothing; `images` fans each ket out to its image
    entries, as (branch, column, 1 + position of the ket in the branch,
    amplitude).  These positions order the oracle's running sums.
    `residuals[j]` is observable j's complemented branch, or -1.
    """

    def __init__(self, host: SystemRegistry, observables: Sequence[Observable]):
        by_key: list[list[tuple[int, int, complex]]] = []
        by_ket: list[list[tuple[int, int, int, complex]]] = []
        ket_rows: list[MultiIndex] = []
        self.offsets: list[int] = []
        self.residuals = np.full(len(observables), -1, dtype=np.int64)
        for j, observable in enumerate(observables):
            host_order = _host_order(host, observable.registry)
            self.axes, self.dims = host.axes(host_order.labels), host_order.dimensions
            for b, (_, projector) in enumerate(observable.branches):
                if projector.complemented:
                    self.residuals[j] = b
            kets: list[list[tuple[MultiIndex, complex]]] = []
            members: list[list[tuple[int, int]]] = []  # ket -> [(branch, position)]
            ket_ids: dict[int, int] = {}
            for b, (_, projector) in enumerate(observable.branches):
                for position, ket in enumerate(projector.kets):
                    k = ket_ids.get(id(ket))
                    if k is None:
                        k = ket_ids[id(ket)] = len(kets)
                        kets.append(list(aligned_amplitudes(ket, host_order).items()))
                        members.append([])
                    members[k].append((b, position))
            offset, first_ket = len(ket_rows), len(by_ket)
            alphabet: dict[MultiIndex, int] = {}
            for k, (items, member) in enumerate(zip(kets, members)):
                for position, (key, amp) in enumerate(items):
                    column = alphabet.setdefault(key, offset + len(alphabet))
                    if column == len(by_key):
                        by_key.append([])
                    by_key[column].append((first_ket + k, position, amp.conjugate()))
                by_ket.append(
                    [(b, alphabet[key], p + 1, a) for b, p in member for key, a in items]
                )
            self.offsets.append(offset)
            ket_rows.extend(alphabet)
        self.branch_span = max(len(o.branches) for o in observables)
        self.width, self.ket_count = len(ket_rows), len(by_ket)
        self.ket_rows = np.array(ket_rows, dtype=np.int64).reshape(self.width, len(self.axes))
        self.coefficients = _Fanout(by_key + [[]], 2)
        self.images = _Fanout(by_ket, 3)


class _Fanout:
    """Per source, a list of (field, ..., order, weight) entries, packed as
    one int64 row per field, the weights' parts, and each source's first
    entry and entry count."""

    def __init__(self, lists: Sequence[Sequence[tuple]], fields: int):
        self.counts = np.array([len(entries) for entries in lists], dtype=np.intp)
        self.starts = self.counts.cumsum() - self.counts
        flat = [entry for entries in lists for entry in entries]
        columns = list(zip(*flat)) or [()] * (fields + 1)
        self.fields = np.array(columns[:-1], dtype=np.int64).reshape(fields, -1)
        self.span = max(columns[-2], default=0) + 1
        weights = np.array(columns[-1], dtype=complex)
        self.wr, self.wi = weights.real, weights.imag

    def expand(self, sources: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One term per entry of each source in turn: how many terms each
        source has (for `np.repeat`) and each term's entry."""
        counts = self.counts[sources]
        shift = self.starts[sources] - counts.cumsum() + counts
        return counts, np.arange(counts.sum()) + np.repeat(shift, counts)


# Radix codes stay below this bound, so no int64 product can overflow.
_RADIX_LIMIT = 1 << 62


def _fresh(ranked: np.ndarray) -> np.ndarray:
    """Where a sorted array differs from its predecessor (always at 0)."""
    fresh = np.empty(len(ranked), dtype=bool)
    fresh[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=fresh[1:])
    return fresh


def _dense(code: np.ndarray) -> tuple[np.ndarray, int]:
    """Each entry's rank among the distinct values of `code`, and their count:
    `np.unique(code, return_inverse=True)` without its per-call overhead."""
    order = code.argsort()
    ranks = _fresh(code[order]).cumsum()
    inverse = np.empty(len(code), dtype=np.intp)
    inverse[order] = ranks - 1
    return inverse, int(ranks[-1]) if len(ranks) else 0


def _pair(
    major: np.ndarray, major_bound: int, minor: np.ndarray, minor_bound: int
) -> tuple[np.ndarray, int]:
    """The radix code of each (major, minor) pair and its bound, compressing
    `major`, then `minor`, whenever the product could pass `_RADIX_LIMIT`.
    Compression keeps the order, so codes sort as the pairs do."""
    if major_bound * minor_bound > _RADIX_LIMIT:
        major, major_bound = _dense(major)
        if major_bound * minor_bound > _RADIX_LIMIT:
            minor, minor_bound = _dense(minor)
    return major * minor_bound + minor, major_bound * minor_bound


def _radix(rows: np.ndarray, dims: Sequence[int]) -> tuple[np.ndarray, int]:
    """One code per row of an int64 matrix whose column i is below dims[i],
    ordered as the rows are, and the codes' bound."""
    code, bound = np.zeros(len(rows), dtype=np.int64), 1
    for column, dim in zip(rows.T, dims):
        code, bound = _pair(code, bound, column, dim)
    return code, bound


def _row_codes(rows: np.ndarray, dims: Sequence[int]) -> tuple[np.ndarray, int]:
    """Dense codes of the rows of an int64 matrix whose column i is below
    dims[i]."""
    return _dense(_radix(rows, dims)[0])


def _acting_columns(
    plan: _BornPlan, support: np.ndarray, owner: np.ndarray
) -> tuple[np.ndarray, int]:
    """The level's acting column of each stacked row (support entry s of
    tuple t at row t * len(support) + s, t measuring observable owner[t] of
    the plan), and the number of columns.  A key a ket of the row's
    observable holds takes its column in that observable's block; any other
    key takes `plan.width` plus its code among the level's keys."""
    rows = np.concatenate([plan.ket_rows, support[:, plan.axes]])
    inverse, count = _row_codes(rows, plan.dims)
    width, code = plan.width, np.tile(inverse[plan.width :], len(owner))
    blocks = np.repeat(np.arange(len(plan.offsets)), np.diff([*plan.offsets, width]))
    # (observable, key) pairs: each ket-key column's, then each row's
    held = blocks * count + inverse[:width]
    pairs, distinct = _dense(np.concatenate([held, np.repeat(owner, len(support)) * count + code]))
    lut = np.full(distinct, -1, dtype=np.int64)
    lut[pairs[:width]] = np.arange(width)
    columns = lut[pairs[width:]]
    state_only = columns < 0
    columns[state_only] = width + code[state_only]
    return columns, width + count


def _complex_product(ar, ai, br, bi):
    """CPython's complex product (a * b) on float components."""
    return ar * br - ai * bi, ar * bi + ai * br


def _keep(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Where |re + i im| exceeds DROP_TOL, with `abs(complex)`'s hypot."""
    return np.hypot(re, im) > DROP_TOL


def _squares(re: np.ndarray, im: np.ndarray | float = 0.0) -> Iterator[float]:
    """|v|^2 of each entry as `squared_norm` forms it (of real entries when
    `im` is left out): abs(v) is hypot(re, im), squared by libm's pow as
    `h ** 2` is on a Python float (`math.pow(h, 2.0)` calls the same pow;
    h * h rounds differently)."""
    return map(math.pow, np.hypot(re, im).tolist(), itertools.repeat(2.0))


def _cell_sum(re: np.ndarray, im: np.ndarray) -> float:
    """fsum of the entries' `_squares`: exactly rounded, so its bits do not
    depend on the entries' order."""
    return math.fsum(_squares(re, im))


def _exact_parts(terms: Sequence[float]) -> list[float]:
    """Floats whose exact sum is the exact sum of `terms`, so that one fsum
    over the parts of several lists has the bits of one fsum over all their
    terms.  Each part is the fsum of the terms less the parts so far; fsum
    is exactly rounded and an exact sum of floats is a multiple of the
    least subnormal, so the remainder shrinks by 2**-52 a part and the loop
    ends when it is exactly 0."""
    parts: list[float] = []
    while part := math.fsum(itertools.chain(terms, [-p for p in parts])):
        parts.append(part)
    return parts


def _ordered_sums(
    bins: np.ndarray, bound: int, order: np.ndarray, span: int, *weights: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray]]:
    """The oracle's running sums: per distinct bin (`bins` below `bound`),
    0.0 plus its terms' weights one by one in ascending `order` (distinct
    within a bin, below `span`), as `np.bincount` adds them in array order.
    Returns each bin's first term and, per weight array, the sums, bins
    ascending."""
    perm = _pair(bins, bound, order, span)[0].argsort(kind="stable")
    fresh = _fresh(bins[perm])
    ids = fresh.cumsum() - 1
    return perm[fresh], [np.bincount(ids, w[perm]) for w in weights]


def _coefficients(
    plan: _BornPlan, group: np.ndarray, groups: int, column: np.ndarray,
    re: np.ndarray, im: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each (group, ket) coefficient <ket|vec> above DROP_TOL, summed in
    ket-entry order: a row of its group, its ket and its parts."""
    coefficients = plan.coefficients
    counts, entry = coefficients.expand(np.minimum(column, plan.width))
    ket, order = coefficients.fields[:, entry]
    bins, bound = _pair(np.repeat(group, counts), groups, ket, plan.ket_count)
    first, (cr, ci) = _ordered_sums(
        bins, bound, order, coefficients.span,
        *_complex_product(
            coefficients.wr[entry], coefficients.wi[entry],
            np.repeat(re, counts), np.repeat(im, counts),
        ),
    )
    kept = _keep(cr, ci)
    first = first[kept]
    return np.repeat(np.arange(len(column)), counts)[first], ket[first], cr[kept], ci[kept]


def _images(
    plan: _BornPlan, size: int, group: np.ndarray, groups: int,
    row: np.ndarray, ket: np.ndarray, cr: np.ndarray, ci: np.ndarray,
    closing: np.ndarray, closing_slot: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each (group, slot) image entry of the coefficients, slot = branch *
    size + column, summed in branch-position order.  Each row of `closing`
    enters its complemented slot in `closing_slot` as the first term (order
    0) of its bin, with weight 0.0, so the sums stay the image's.  Returns
    per bin its first term (below len(closing) where a row entered it), a
    row of its group, its slot and its parts."""
    images = plan.images
    counts, entry = images.expand(ket)
    branch, image_column, order = images.fields
    slot, order = (branch * size + image_column)[entry], order[entry]
    row = np.repeat(row, counts)
    wr, wi = _complex_product(
        np.repeat(cr, counts), np.repeat(ci, counts), images.wr[entry], images.wi[entry]
    )
    if len(closing):
        zeros = np.zeros(len(closing))
        row = np.concatenate([closing, row])
        slot = np.concatenate([closing_slot, slot])
        order = np.concatenate([zeros.astype(np.int64), order])
        wr, wi = np.concatenate([zeros, wr]), np.concatenate([zeros, wi])
    bins, bound = _pair(group[row], groups, slot, plan.branch_span * size)
    first, (ir, ii) = _ordered_sums(bins, bound, order, images.span, wr, wi)
    return first, row[first], slot[first], ir, ii


def _project(
    plan: _BornPlan, level: int, rows: np.ndarray, bounds: Sequence[int],
    re: np.ndarray, im: np.ndarray, residual: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project every row through every branch of its observable at `level`
    at once.

    Row i is amplitude re[i] + i im[i] with codes rows[i] below `bounds`:
    its tuple and the branches taken so far, the untouched rest, and one
    acting column per level.  `residual[i]` is the complemented branch of
    row i's observable, or -1.  A group is the rows that agree on every code
    but this level's column, so no group mixes tuples.  Returns the
    projected rows and amplitudes.
    """
    at, size = 2 + level, bounds[2 + level]
    others = [i for i in range(len(bounds)) if i != at]
    group, groups = _radix(rows[:, others], [bounds[i] for i in others])
    column = rows[:, at]
    closing = np.flatnonzero(residual >= 0)
    first, row, slot, ir, ii = _images(
        plan, size, group, groups, *_coefficients(plan, group, groups, column, re, im),
        closing, residual[closing] * size + column[closing],
    )
    branch, image_column = np.divmod(slot, size)
    if len(closing):
        # The literal residual vec - image, with the image DROP_TOL-filtered,
        # as -image + vec; span bins keep their image and hold no row.
        sign = np.where(branch == residual[row], -1.0, 1.0) * _keep(ir, ii)
        has_row = first < len(closing)
        ir, ii = ir * sign + re[row] * has_row, ii * sign + im[row] * has_row
    kept = _keep(ir, ii)
    projected = rows[row[kept]]
    projected[:, at] = image_column[kept]
    projected[:, 0] = projected[:, 0] * plan.branch_span + branch[kept]
    return projected, ir[kept], ii[kept]


# A Born pass stacks whole tuples up to this many support rows; a state
# above it runs one tuple per pass.
_ROW_BUDGET = 1 << 11


def born_tables(
    state: SparseState, tuples: Iterable[Sequence[Observable]]
) -> list[dict[tuple[float, ...], float]]:
    """The Born table of each tuple of observables (each on pairwise disjoint
    subsystems), in order: one flat pass per level over a family of tables.

    Tuples of one arity whose levels act on the same subsystems share
    passes.  A pass stacks whole tuples' copies of the state's key and
    amplitude arrays, read as they are, up to a fixed budget of 2**11 rows,
    so a state above it runs one tuple per pass.  Each row becomes int64
    codes: its tuple and the branches taken so far, the part no observable
    touches, and one acting column per level.  A level's distinct
    observables (by identity) merge into one plan, and one flat numpy pass
    per level projects every row through every branch of its observable;
    only keys the state or a ket holds are ever formed.  The tuple is in
    every group code, so no sum ever mixes tuples, and each table has the
    bits of its own pass.

    This is the program's Born kernel for any state; the one other route,
    `embezzle.SlotStatistics.born_table`, gives the ledger's tables from the
    embezzled state's slot statistics with this kernel's bits, and the tests
    hold it to this one.  The kernel's oracle lives in `tests/oracles.py`:
    every cell equals, as a float, `joint_probability(state, [projectors in
    that order])` (for one observable, `born_probability`), the clipped
    squared norm of `project_amplitudes` applied projector by projector,
    complemented branches included: they are literal residuals, never one
    minus the other cells.  The kernel does the oracle's float operations in
    the oracle's order, with three rules where numpy and CPython round
    differently: complex products are CPython's, spelled out on float64
    components; |z| is `np.hypot`, as `abs()` computes it (not `np.abs`);
    and each final |v|^2 is `h ** 2` on a Python float (not `h * h`).
    """
    batch = [tuple(observables) for observables in tuples]
    for observables in batch:
        if not observables:
            raise ValueError("need at least one observable")
        _check_disjoint(observable.registry for observable in observables)
    families: dict[tuple[frozenset[str], ...], list[int]] = {}
    for t, observables in enumerate(batch):
        acting = tuple(frozenset(o.acting_subsystems) for o in observables)
        families.setdefault(acting, []).append(t)
    host = state.registry
    support, values = state.keys, state.values
    per_pass = max(1, _ROW_BUDGET // len(support))
    tables: list[dict[tuple[float, ...], float]] = [{} for _ in batch]
    for acting, members in families.items():
        touched = frozenset().union(*acting)
        rest_axes = [i for i, label in enumerate(host.labels) if label not in touched]
        rest = _row_codes(support[:, rest_axes], [host.dimensions[i] for i in rest_axes])
        for start in range(0, len(members), per_pass):
            chunk = members[start : start + per_pass]
            passed = _born_pass(host, support, values, rest, [batch[t] for t in chunk])
            for t, table in zip(chunk, passed):
                tables[t] = table
    return tables


def _born_pass(
    host: SystemRegistry, support: np.ndarray, values: np.ndarray,
    rest: tuple[np.ndarray, int], batch: Sequence[tuple[Observable, ...]],
) -> list[dict[tuple[float, ...], float]]:
    """The Born tables of tuples of one arity whose levels act on the same
    subsystems, from one pass over `len(batch)` stacked copies of the
    support, tuple by tuple; `rest` codes the subsystems no level touches."""
    count, n = len(batch), len(support)
    plans, owners = [], []
    for level in zip(*batch):
        distinct = list({id(observable): observable for observable in level}.values())
        index = {id(observable): j for j, observable in enumerate(distinct)}
        plans.append(_BornPlan(host, distinct))
        owners.append(np.array([index[id(observable)] for observable in level], dtype=np.intp))
    columns, sizes = zip(*(_acting_columns(p, support, owner) for p, owner in zip(plans, owners)))
    rest_code, rest_count = rest
    rows = np.stack(
        [np.repeat(np.arange(count), n), np.tile(rest_code, count), *columns], axis=1
    )
    re, im = np.tile(values.real, count), np.tile(values.imag, count)
    paths = 1  # branch paths so far, each row's code 0 is tuple * paths + path
    for level, (plan, owner) in enumerate(zip(plans, owners)):
        residual = plan.residuals[owner][rows[:, 0] // paths]
        bounds = [count * paths, rest_count, *sizes]
        rows, re, im = _project(plan, level, rows, bounds, re, im, residual)
        paths *= plan.branch_span
    order = rows[:, 0].argsort()
    cells, re, im = rows[order, 0], re[order], im[order]
    starts = np.flatnonzero(_fresh(cells)).tolist()
    sums = {
        int(cells[a]): _cell_sum(re[a:b], im[a:b])
        for a, b in zip(starts, starts[1:] + [len(cells)])
    }
    tables = []
    for t, observables in enumerate(batch):
        table: dict[tuple[float, ...], float] = {}
        for combo in itertools.product(*(enumerate(o.branches) for o in observables)):
            cell = t
            for (b, _), plan in zip(combo, plans):
                cell = cell * plan.branch_span + b
            table[tuple(e for _, (e, _) in combo)] = min(1.0, max(0.0, sums.get(cell, 0.0)))
        tables.append(table)
    return tables


def born_table(
    state: SparseState, observables: Sequence[Observable]
) -> dict[tuple[float, ...], float]:
    """Born probabilities of every eigenvalue tuple of observables on pairwise
    disjoint subsystems: the one-tuple case of `born_tables`."""
    return born_tables(state, [observables])[0]
