"""Tests for the sparse-state engine: registries, states, projectors,
observables and Born tables, and the structured basis map oracle."""

import cmath
import dataclasses
import itertools
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parind_lab import embezzle as ez
from parind_lab import qcore
from parind_lab.qcore import (
    DROP_TOL,
    PROB_TOL,
    Observable,
    RankedProjector,
    SparseState,
    SystemRegistry,
    basis_span_projector,
    basis_state,
    born_table,
    born_tables,
    complete_with_complement,
    identity_projector,
    inner_product,
    project_amplitudes,
    span_projector,
    tensor,
    two_outcome_observable,
)

from oracles import (
    StructuredBasisMap,
    apply_structured_map,
    born_probability,
    complement,
    fidelity,
    joint_probability,
)


def random_state(rng, registry, *, complex_amps=True):
    dim = registry.total_dimension
    vec = rng.normal(size=dim)
    if complex_amps:
        vec = vec + 1j * rng.normal(size=dim)
    vec = vec / np.linalg.norm(vec)
    keys = list(np.ndindex(*registry.dimensions))
    return SparseState(registry, {keys[k]: vec[k] for k in range(dim)})


def test_registry_axis_and_restrict():
    registry = SystemRegistry((("A", 2), ("B", 3), ("C", 4)))
    assert registry.axis("B") == 1
    assert registry.dimensions == (2, 3, 4)
    assert registry.total_dimension == 24
    sub = registry.restrict(("C", "A"))
    # restriction preserves host order, not request order
    assert sub.labels == ("A", "C")


def test_registry_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        SystemRegistry((("A", 2), ("A", 2)))


def test_merged_with_rejects_shared_labels():
    left = SystemRegistry((("A", 2),))
    right = SystemRegistry((("A", 3),))
    with pytest.raises(ValueError):
        left.merged_with(right)


def test_state_requires_normalization():
    registry = SystemRegistry((("A", 2),))
    with pytest.raises(ValueError):
        SparseState(registry, {(0,): 1.0, (1,): 1.0})


def test_state_drops_zero_amplitudes():
    registry = SystemRegistry((("A", 3),))
    state = SparseState(registry, {(0,): 1.0, (1,): 0.0, (2,): 1e-300})
    assert len(state.amplitudes) == 1


def test_registry_compares_hashes_and_pickles_on_its_subsystems_alone():
    """The cached label and dimension tuples take no part in ==, hash or repr,
    survive a pickle (the worker pool pickles states) and cannot be set."""
    registry = SystemRegistry((("A", 2), ("B", np.int64(3))))
    same = SystemRegistry((("A", 2), ("B", 3)))
    assert registry == same
    assert hash(registry) == hash(same) == hash(((("A", 2), ("B", 3)),))
    assert registry != SystemRegistry((("B", 3), ("A", 2)))
    assert repr(registry) == "SystemRegistry(subsystems=(('A', 2), ('B', 3)))"
    assert (registry.labels, registry.dimensions) == (("A", "B"), (2, 3))
    clone = pickle.loads(pickle.dumps(registry))
    assert clone == registry and hash(clone) == hash(registry)
    assert (clone.labels, clone.dimensions) == (("A", "B"), (2, 3))
    state = SparseState(registry, {(1, 2): 1.0})
    assert pickle.loads(pickle.dumps(state)) == state
    with pytest.raises(dataclasses.FrozenInstanceError):
        registry.labels = ("X", "Y")


def _clean_amplitudes_per_key(registry, amplitudes):
    """The per-key validation loop the bulk checks replaced: the oracle for
    every message and for the returned dict."""
    dims = registry.dimensions
    width = len(dims)
    cleaned = {}
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


def _outcome(clean, registry, amplitudes):
    try:
        return repr(list(clean(registry, amplitudes).items()))
    except Exception as exc:  # the exception itself is the outcome compared
        return type(exc), str(exc)


@st.composite
def raw_amplitude_maps(draw):
    """A registry and a raw amplitude map whose keys may have the wrong arity,
    negative indices or an index equal to its dimension, as int or np.int64,
    with amplitudes at, below and above DROP_TOL; the map may be empty."""
    dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    registry = SystemRegistry(tuple((f"R{a}", d) for a, d in enumerate(dims)))
    index = st.integers(-1, max(dims)).flatmap(
        lambda k: st.sampled_from([k, np.int64(k)])
    )
    key = st.integers(max(0, len(dims) - 1), len(dims) + 1).flatmap(
        lambda width: st.tuples(*[index] * width)
    )
    amplitude = st.sampled_from([0.0, DROP_TOL / 2, DROP_TOL, 2 * DROP_TOL, 0.6, -0.8j, 1.0])
    entries = draw(st.lists(st.tuples(key, amplitude), max_size=8))
    return registry, dict(entries)


@settings(deadline=None, max_examples=300)
@given(raw_amplitude_maps())
def test_bulk_index_checks_raise_and_return_like_the_per_key_loop(case):
    registry, amplitudes = case
    assert _outcome(qcore._clean_amplitudes, registry, amplitudes) == _outcome(
        _clean_amplitudes_per_key, registry, amplitudes
    )


def test_bulk_index_checks_name_the_first_offending_key():
    registry = SystemRegistry((("A", 2), ("B", 3)))
    with pytest.raises(ValueError, match=r"index \(0, 3\) out of range"):
        SparseState(registry, {(1, 1): 1.0, (0, 3): 0.0, (0, 0, 0): 0.0, (-1, 0): 0.0})
    with pytest.raises(ValueError, match=r"index \(0, 0, 0\) has arity 3, expected 2"):
        SparseState(registry, {(1, 1): 1.0, (0, 0, 0): 0.0, (0, 3): 0.0})
    with pytest.raises(TypeError):
        SparseState(registry, {(1, 1): 1.0, (0, None): 0.0, (0, 3): 0.0})


def test_basis_state_is_positional():
    registry = SystemRegistry((("A", 2), ("B", 3)))
    assert basis_state(registry, (1, 2)).amplitudes == {(1, 2): 1.0}


def test_tensor_multiplies_amplitudes():
    a = SparseState(SystemRegistry((("A", 2),)), {(0,): 0.6, (1,): 0.8})
    b = SparseState(SystemRegistry((("B", 2),)), {(1,): 1.0})
    joint = tensor(a, b)
    assert joint.amplitudes == {(0, 1): pytest.approx(0.6), (1, 1): pytest.approx(0.8)}


def test_inner_product_aligns_subsystem_order():
    """<a|b> must not depend on the order in which registries list subsystems."""
    reg_ab = SystemRegistry((("A", 2), ("B", 2)))
    reg_ba = SystemRegistry((("B", 2), ("A", 2)))
    a = SparseState(reg_ab, {(0, 1): 1.0})
    b = SparseState(reg_ba, {(1, 0): 1.0})  # same physical state |0>_A |1>_B
    assert inner_product(a, b) == pytest.approx(1.0)


def test_trace_distance_bounds_projector_probabilities():
    """D(a, b) >= |Pr_a(P) - Pr_b(P)| for any projector P — the inequality every
    chained deviation bound in the package ultimately rests on."""
    rng = np.random.default_rng(7)
    registry = SystemRegistry((("S", 5),))
    for _ in range(50):
        a, b = random_state(rng, registry), random_state(rng, registry)
        kets = [random_state(rng, registry)]
        p = span_projector(kets)
        gap = abs(born_probability(a, p) - born_probability(b, p))
        f = fidelity(a, b)
        assert gap <= math.sqrt(max(0.0, 1.0 - f * f)) + 1e-12


def test_span_projector_requires_orthonormal_kets():
    registry = SystemRegistry((("A", 2),))
    plus = SparseState(registry, {(0,): math.sqrt(0.5), (1,): math.sqrt(0.5)})
    with pytest.raises(ValueError):
        span_projector([plus, basis_state(registry, (0,))])


def test_orthogonality_checks_align_kets_given_in_another_label_order():
    """A ket listed as (B, A) meets |A=0, B=1> only once its keys are aligned:
    the projector and the observable must still see the overlap, and the
    projector must accept a (B, A) ket whose raw key merely looks like
    |A=0, B=1>."""
    reg_ab = SystemRegistry((("A", 2), ("B", 3)))
    reg_ba = SystemRegistry((("B", 3), ("A", 2)))
    u = basis_state(reg_ab, (0, 1))
    tilted = SparseState(reg_ba, {(1, 0): math.sqrt(0.5), (2, 1): math.sqrt(0.5)})
    with pytest.raises(ValueError, match=r"projector kets are not orthogonal \(\|<u\|v>\| = 0.70"):
        RankedProjector(reg_ab, (u, tilted))
    with pytest.raises(ValueError, match="branch projectors are not orthogonal"):
        Observable(((1.0, span_projector([u])), (-1.0, span_projector([tilted]))))
    look_alike = basis_state(reg_ba, (0, 1))  # |A=1, B=0>
    assert RankedProjector(reg_ab, (u, look_alike)).rank_of_span == 2


def test_born_probability_basics():
    registry = SystemRegistry((("A", 2),))
    plus = SparseState(registry, {(0,): math.sqrt(0.5), (1,): math.sqrt(0.5)})
    p0 = span_projector([basis_state(registry, (0,))])
    assert born_probability(plus, p0) == pytest.approx(0.5)
    assert born_probability(plus, complement(p0)) == pytest.approx(0.5)
    assert born_probability(plus, identity_projector(registry)) == pytest.approx(1.0)


def test_born_probability_embeds_subregistry_projector():
    registry = SystemRegistry((("A", 2), ("B", 2)))
    bell = SparseState(
        registry, {(0, 0): math.sqrt(0.5), (1, 1): math.sqrt(0.5)}
    )
    a_reg = registry.restrict(("A",))
    p = span_projector([basis_state(a_reg, (0,))])
    assert born_probability(bell, p) == pytest.approx(0.5)


def test_joint_probability_perfect_correlation():
    registry = SystemRegistry((("A", 2), ("B", 2)))
    bell = SparseState(registry, {(0, 0): math.sqrt(0.5), (1, 1): math.sqrt(0.5)})
    a0 = span_projector([basis_state(registry.restrict(("A",)), (0,))])
    b0 = span_projector([basis_state(registry.restrict(("B",)), (0,))])
    b1 = span_projector([basis_state(registry.restrict(("B",)), (1,))])
    assert joint_probability(bell, [a0, b0]) == pytest.approx(0.5)
    assert joint_probability(bell, [a0, b1]) == pytest.approx(0.0)


def test_joint_probability_order_invariant_on_disjoint_wings():
    rng = np.random.default_rng(3)
    registry = SystemRegistry((("A", 3), ("B", 3)))
    state = random_state(rng, registry)
    pa = basis_span_projector(registry.restrict(("A",)), [(0,), (2,)])
    pb = basis_span_projector(registry.restrict(("B",)), [(1,)])
    assert joint_probability(state, [pa, pb]) == pytest.approx(
        joint_probability(state, [pb, pa])
    )


def test_observable_rejects_nonorthogonal_branches():
    registry = SystemRegistry((("A", 2),))
    plus = SparseState(registry, {(0,): math.sqrt(0.5), (1,): math.sqrt(0.5)})
    with pytest.raises(ValueError):
        Observable(
            (
                (1.0, span_projector([basis_state(registry, (0,))])),
                (-1.0, span_projector([plus])),
            )
        )


def test_observable_rejects_duplicate_eigenvalues():
    registry = SystemRegistry((("A", 2),))
    with pytest.raises(ValueError):
        Observable(
            (
                (1.0, span_projector([basis_state(registry, (0,))])),
                (1.0, span_projector([basis_state(registry, (1,))])),
            )
        )


def test_observable_requires_identity_resolution():
    registry = SystemRegistry((("A", 3),))
    with pytest.raises(ValueError):
        Observable(
            (
                (1.0, span_projector([basis_state(registry, (0,))])),
                (-1.0, span_projector([basis_state(registry, (1,))])),
            )
        )


def test_two_outcome_observable_distribution_sums_to_one():
    rng = np.random.default_rng(5)
    registry = SystemRegistry((("S", 4),))
    state = random_state(rng, registry)
    obs = two_outcome_observable([random_state(rng, registry)])
    dist = born_table(state, (obs,))
    assert set(dist) == {(1.0,), (-1.0,)}
    assert sum(dist.values()) == pytest.approx(1.0)


def test_complete_with_complement_closes_partial_observable():
    registry = SystemRegistry((("S", 5),))
    branches = [
        (2.0, basis_span_projector(registry, [(0,), (1,)])),
        (3.0, basis_span_projector(registry, [(2,)])),
    ]
    obs = complete_with_complement(branches, 0.0)
    state = basis_state(registry, (4,))
    dist = born_table(state, (obs,))
    assert dist[(0.0,)] == pytest.approx(1.0)
    assert dist[(2.0,)] == pytest.approx(0.0)


def test_structured_map_is_norm_preserving_permutation():
    registry = SystemRegistry((("A", 4),))
    smap = StructuredBasisMap(
        registry, {(k,): (((k + 1) % 4,), 1.0) for k in range(4)}
    )
    rng = np.random.default_rng(1)
    state = random_state(rng, registry)
    mapped = apply_structured_map(smap, state)
    assert math.fsum(abs(a) ** 2 for a in mapped.amplitudes.values()) == pytest.approx(1.0)
    assert mapped.amplitudes == {
        ((k + 1) % 4,): amp for (k,), amp in state.amplitudes.items()
    }


def test_structured_map_rejects_noninjective_rules():
    registry = SystemRegistry((("A", 3),))
    with pytest.raises(ValueError):
        StructuredBasisMap(registry, {(0,): ((1,), 1.0), (2,): ((1,), 1.0)})


def test_structured_map_rejects_support_outside_domain():
    registry = SystemRegistry((("A", 2),))
    smap = StructuredBasisMap(registry, {(0,): ((0,), 1.0)})
    state = basis_state(registry, (1,))
    with pytest.raises(ValueError, match="escapes the map's domain"):
        apply_structured_map(smap, state)


def test_structured_map_acts_on_subregistry_of_host():
    host = SystemRegistry((("A", 2), ("B", 2)))
    acting = SystemRegistry((("A", 2),))
    swap = StructuredBasisMap(acting, {(0,): ((1,), 1.0), (1,): ((0,), 1.0)})
    state = SparseState(host, {(0, 1): 1.0})
    mapped = apply_structured_map(swap, state)
    assert mapped.amplitudes == {(1, 1): 1.0}


def test_projector_complement_twice_is_identity_on_probabilities():
    rng = np.random.default_rng(9)
    registry = SystemRegistry((("S", 4),))
    state = random_state(rng, registry)
    p = basis_span_projector(registry, [(0,), (3,)])
    assert born_probability(state, complement(complement(p))) == pytest.approx(
        born_probability(state, p)
    )


# ---------------------------------------------------------------------------
# The one-pass Born kernel against the literal projector oracle


def _ket(registry, amplitudes):
    return SparseState(registry, amplitudes)


def _overlapping_kets(registry, keys, signs):
    """An orthonormal family in which four kets share keys[0] and only the
    last two hold keys[3]; every other key gets its own basis ket.  A kernel
    that sums the three images out of ket order rounds differently."""
    v, p, q, u = keys[:4]
    sv, sp, sq, su = signs
    root2 = math.sqrt(2.0)
    return [
        _ket(registry, {v: sv / root2, p: sp / root2}),
        _ket(registry, {v: sv / 2, p: -sp / 2, q: sq * root2 / 2}),
        _ket(registry, {v: sv / 8**0.5, p: -sp / 8**0.5, q: -sq / 2, u: su / root2}),
        _ket(registry, {v: sv / 8**0.5, p: -sp / 8**0.5, q: -sq / 2, u: -su / root2}),
    ] + [_ket(registry, {key: 1.0}) for key in keys[4:]]


@st.composite
def _observable(draw, registry):
    """An observable on `registry` from basis kets, rotated two-term kets, one
    closed span, a dense random basis, or kets with overlapping supports."""
    keys = list(np.ndindex(*registry.dimensions))
    kind = draw(
        st.sampled_from(["basis", "rotated", "complement", "dense", "overlap", "identity"])
    )
    if kind == "identity":
        return Observable(((1.0, identity_projector(registry)),))
    order = draw(st.permutations(range(len(keys))))
    keys = [keys[i] for i in order]
    if kind == "dense":
        seed = draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        dim = len(keys)
        unitary, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        kets = [
            _ket(registry, {keys[i]: unitary[i, j] for i in range(dim)}) for j in range(dim)
        ]
    elif kind == "overlap" and len(keys) >= 4:
        signs = draw(st.tuples(*[st.sampled_from([1.0, -1.0])] * 4))
        kets = _overlapping_kets(registry, keys, signs)
        kets = [kets[i] for i in draw(st.permutations(range(len(kets))))]
    elif kind == "rotated":
        theta = draw(st.floats(0.0, 2 * math.pi, allow_nan=False))
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        kets = [
            _ket(registry, {keys[0]: c, keys[1]: s}),
            _ket(registry, {keys[0]: -s, keys[1]: c}),
        ] + [_ket(registry, {key: 1.0}) for key in keys[2:]]
    else:
        kets = [_ket(registry, {key: 1.0}) for key in keys]
    used = draw(st.integers(1, len(kets)))
    if kind == "complement":
        # one multi-ket +1 span closed by its complement
        spans = [kets[:used]]
    else:
        # consecutive runs of one to three kets per branch
        spans, start = [], 0
        while start < used:
            width = min(draw(st.integers(1, 3)), used - start)
            spans.append(kets[start : start + width])
            start += width
    branches = [(float(b), span_projector(span)) for b, span in enumerate(spans)]
    if used == len(kets) and kind != "complement":
        return Observable(tuple(branches))
    return complete_with_complement(branches, -1.0)


@st.composite
def born_cases(draw):
    """A random sparse state on 3-4 small registers and one to three
    observables on disjoint groups of one or two registers."""
    dims = draw(st.lists(st.integers(2, 3), min_size=3, max_size=4))
    registry = SystemRegistry(tuple((f"R{i}", d) for i, d in enumerate(dims)))
    keys = list(np.ndindex(*dims))
    support = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=12, unique=True))
    parts = draw(
        st.lists(
            st.tuples(st.floats(-1, 1, allow_nan=False), st.floats(-1, 1, allow_nan=False)),
            min_size=len(support),
            max_size=len(support),
        )
    )
    values = np.array([complex(re, im) for re, im in parts])
    if np.linalg.norm(values) < 1e-3:
        values[0] = 1.0
    values = values / np.linalg.norm(values)
    state = SparseState(registry, dict(zip(support, values)))
    labels = list(draw(st.permutations(registry.labels)))
    observables = []
    for _ in range(draw(st.integers(1, 3))):
        if not labels:
            break
        width = min(draw(st.integers(1, 2)), len(labels))
        group, labels = labels[:width], labels[width:]
        observables.append(draw(_observable(registry.restrict(group))))
    return state, tuple(observables)


def _literal_residual_probability(state, closing):
    """Born weight of a complemented projector, spelled out: the amplitudes
    minus the image of the span it complements."""
    span = RankedProjector(closing.registry, closing.kets)
    residual = dict(state.amplitudes)
    for key, value in project_amplitudes(state.registry, state.amplitudes, span).items():
        left = residual.get(key, 0.0) - value
        if abs(left) > DROP_TOL:
            residual[key] = left
        else:
            residual.pop(key, None)
    return min(1.0, max(0.0, math.fsum(abs(a) ** 2 for a in residual.values())))


@settings(deadline=None, max_examples=100)
@given(born_cases())
def test_born_table_matches_literal_oracle(case):
    """Every cell is the oracle's float, for every kind of ket: the kernel does
    the oracle's arithmetic in the oracle's order, so no tolerance is needed."""
    state, observables = case
    table = born_table(state, observables)
    assert len(table) == math.prod(len(o.branches) for o in observables)
    for combo, value in table.items():
        projectors = [o.projector_for(e) for o, e in zip(observables, combo)]
        if len(projectors) == 1:
            oracle = born_probability(state, projectors[0])
        else:
            oracle = joint_probability(state, projectors)
        assert value == oracle
    assert abs(math.fsum(table.values()) - 1.0) <= PROB_TOL


@settings(deadline=None, max_examples=100)
@given(born_cases())
def test_born_table_complement_cell_is_the_literal_residual(case):
    state, observables = case
    for observable in observables:
        single = born_table(state, (observable,))
        for eigenvalue, projector in observable.branches:
            if projector.complemented:
                assert single[(eigenvalue,)] == _literal_residual_probability(
                    state, projector
                )


def test_born_table_sums_overlapping_kets_in_ket_order():
    """Three kets of one branch share a key, and the support lists a key of
    the last ket first: the image must still accumulate in ket order."""
    registry = SystemRegistry((("S", 4), ("T", 2)))
    acting = registry.restrict(("S",))
    keys = [(3,), (0,), (1,), (2,)]  # u, v, p, q in the order the support meets them
    a, b, c, d = _overlapping_kets(acting, [keys[1], keys[2], keys[3], keys[0]], (1.0,) * 4)
    observable = Observable(((1.0, span_projector([a, b, c])), (-1.0, span_projector([d]))))
    rng = np.random.default_rng(2)
    for _ in range(50):
        values = rng.normal(size=8) + 1j * rng.normal(size=8)
        values /= np.linalg.norm(values)
        support = [key + (t,) for t in (0, 1) for key in keys]
        state = SparseState(registry, dict(zip(support, values)))
        table = born_table(state, (observable,))
        for (eigenvalue,), value in table.items():
            assert value == born_probability(state, observable.projector_for(eigenvalue))


def _two_ket_observable(registry, rng, keys=((0,), (1,))):
    """+1 and 0 on two orthonormal kets over `keys` with random complex
    amplitudes, -1 on the complement, so every other key meets no ket."""
    a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
    norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    a, b = complex(a / norm), complex(b / norm)
    u = _ket(registry, {keys[0]: a, keys[1]: b})
    v = _ket(registry, {keys[0]: -b.conjugate(), keys[1]: a.conjugate()})
    return complete_with_complement(
        [(1.0, span_projector([u])), (0.0, span_projector([v]))], -1.0
    )


def _cells_off_oracle(state, observables):
    """The eigenvalue tuples whose `born_table` cell is not the oracle's float."""
    off = []
    for combo, value in born_table(state, observables).items():
        projectors = [o.projector_for(e) for o, e in zip(observables, combo)]
        if len(projectors) == 1:
            oracle = born_probability(state, projectors[0])
        else:
            oracle = joint_probability(state, projectors)
        if value != oracle:
            off.append(combo)
    return off


def _numpy_product(ar, ai, br, bi):
    """numpy's complex128 product, which rounds differently from CPython's."""
    z = (ar + 1j * ai) * (br + 1j * bi)
    return z.real, z.imag


def _numpy_abs_cell_sum(re, im):
    return math.fsum([h**2 for h in np.abs(re + 1j * im).tolist()])


def _numpy_square_cell_sum(re, im):
    return math.fsum((np.hypot(re, im) ** 2).tolist())


NUMPY_STAND_INS = {
    "complex product": ("_complex_product", _numpy_product),
    "np.abs": ("_cell_sum", _numpy_abs_cell_sum),
    "h * h": ("_cell_sum", _numpy_square_cell_sum),
}


def test_born_table_keeps_the_three_float_rules(monkeypatch):
    """States and kets are searched (seeded) until the kernel with numpy's
    complex product, with np.abs for abs(), or with h * h for h ** 2 gets some
    cell wrong; the kernel as written must get every cell of each right."""
    rng = np.random.default_rng(13)
    registry = SystemRegistry((("S", 3), ("T", 3), ("U", 2)))
    keys = list(np.ndindex(*registry.dimensions))
    witnesses = {}
    for _ in range(500):
        values = rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))
        values /= np.linalg.norm(values)
        state = SparseState(registry, dict(zip(keys, values)))
        observables = tuple(
            _two_ket_observable(registry.restrict((label,)), rng) for label in ("S", "T")
        )
        for rule, (name, stand_in) in NUMPY_STAND_INS.items():
            if rule in witnesses:
                continue
            with monkeypatch.context() as patch:
                patch.setattr(qcore, name, stand_in)
                if any(_cells_off_oracle(state, observables[:k]) for k in (1, 2)):
                    witnesses[rule] = state, observables
        if len(witnesses) == len(NUMPY_STAND_INS):
            break
    assert sorted(witnesses) == sorted(NUMPY_STAND_INS)
    for state, observables in witnesses.values():
        assert _cells_off_oracle(state, observables[:1]) == []
        assert _cells_off_oracle(state, observables) == []


def test_born_table_beyond_int64_and_on_groups_that_meet_no_ket():
    """Eight registers of dimension 1000 (10^24 > 2^63 basis states).  Two
    rests differ by exactly 2^64 as base-1000 numbers, so an int64 radix code
    of R0..R6 would wrap them onto one group; codes must be compressed first.
    Groups whose R7 key is 2, 500 or 999 meet no ket of the R7 observable and
    land only in its complemented cell."""
    registry = SystemRegistry(tuple((f"R{i}", 1000) for i in range(8)))
    assert registry.total_dimension > 2**63
    far = (18, 446, 744, 73, 709, 551, 616)
    assert sum(d * 1000 ** (6 - i) for i, d in enumerate(far)) == 2**64
    rng = np.random.default_rng(7)
    keys = [rest + (k,) for rest in (far, (0,) * 7) for k in (0, 1)]
    keys += [
        tuple(int(i) for i in rng.integers(0, 1000, size=7)) + (k,)
        for k in (0, 1, 2, 500, 999, 2, 999)
    ]
    values = rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))
    values /= np.linalg.norm(values)
    state = SparseState(registry, dict(zip(keys, values)))
    last = _two_ket_observable(registry.restrict(("R7",)), rng)
    first = _two_ket_observable(registry.restrict(("R0",)), rng, keys=((0,), (18,)))
    for observables in ((last,), (last, first), (first, last)):
        assert _cells_off_oracle(state, observables) == []
    # the complemented cell holds the no-ket groups' whole weight, and more
    no_ket = math.fsum(abs(v) ** 2 for key, v in state.amplitudes.items() if key[7] >= 2)
    assert born_table(state, (last,))[(-1.0,)] >= no_ket > 0


def test_born_table_complement_subtracts_only_the_kept_image():
    """The oracle drops image entries at or below DROP_TOL before it forms
    the residual vec - image.  Here <u|psi> is about 1e-13, so the image is
    about 1e-16 at key 0 (dropped: the amplitude passes unchanged) and about
    1e-13 at key 1 (kept and subtracted)."""
    registry = SystemRegistry((("S", 3),))
    x = 1e-3
    y = math.sqrt(1.0 - x * x)
    observable = two_outcome_observable([_ket(registry, {(0,): x, (1,): y})])
    for a in np.linspace(0.5, 0.9, 9):
        b = (1e-13 - x * a) / y
        state = SparseState(registry, {(0,): a, (1,): b, (2,): math.sqrt(1 - a * a - b * b)})
        assert _cells_off_oracle(state, (observable,)) == []


def test_born_table_matches_the_oracle_on_wide_slot_observables_three_deep():
    """Both wings' 11-branch slot observables of an embezzled state and a
    seeded two-outcome observable on A2, in two orders: wider and deeper
    tables than `born_cases` draws, every cell the oracle's float."""
    spec = ez.EmbezzleSpec.from_reals((1 / math.pi, 1 - 1 / math.pi), l=10, n=60)
    state = ez.embezzled_state(spec)
    rng = np.random.default_rng(5)
    aux = state.registry.restrict(("A2",))
    keys = rng.choice(aux.dimension("A2"), size=6, replace=False)
    amps = rng.normal(size=6) + 1j * rng.normal(size=6)
    ket = _ket(aux, {(int(k),): a for k, a in zip(keys, amps / np.linalg.norm(amps))})
    slot_a, slot_b = (ez.slot_observable(spec, state.registry, side) for side in "AB")
    assert len(slot_a.branches) == len(slot_b.branches) == 11
    aux_observable = two_outcome_observable([ket])
    for observables in ((slot_a, slot_b, aux_observable), (aux_observable, slot_b, slot_a)):
        assert _cells_off_oracle(state, observables) == []


@settings(deadline=None, max_examples=100)
@given(born_cases(), st.randoms(use_true_random=False))
def test_born_table_does_not_depend_on_the_support_order(case, random):
    """The same amplitudes inserted in another order give the same table,
    cell for cell: the kernel's sums follow ket and branch order only."""
    state, observables = case
    keys = list(state.amplitudes)
    random.shuffle(keys)
    shuffled = SparseState(state.registry, {key: state.amplitudes[key] for key in keys})
    assert born_table(shuffled, observables) == born_table(state, observables)


# ---------------------------------------------------------------------------
# Property tests: one state type, built from a mapping or from arrays


def _bits(values):
    """Each complex amplitude's exact bits, the sign of a zero part included."""
    return [(complex(v).real.hex(), complex(v).imag.hex()) for v in values]


def _table_bits(table):
    """Each cell with its value's exact bits, in the table's key order."""
    return [(cell, value.hex()) for cell, value in table.items()]


@settings(deadline=None, max_examples=100)
@given(born_cases(), st.data())
def test_mapping_and_array_builds_are_one_state(case, data):
    """A `born_cases` state and a few entries at or below DROP_TOL, in a drawn
    key order, built from a mapping and from arrays: the same amplitudes in
    the same order, Born cells that are the literal oracle's floats, and a
    spectator |0>_W that only adds a constant column and moves no Born cell,
    key order and bits included."""
    state, observables = case
    registry = state.registry
    free = [key for key in np.ndindex(*registry.dimensions) if key not in state.amplitudes]
    tiny = st.lists(st.sampled_from(free), max_size=3, unique=True) if free else st.just([])
    tiny = data.draw(tiny, label="tiny")
    small = st.sampled_from([0.0, -0.0, DROP_TOL, DROP_TOL * 0.5j, complex(-DROP_TOL, 0.0)])
    entries = list(state.amplitudes.items()) + [(key, data.draw(small)) for key in tiny]
    entries = data.draw(st.permutations(entries), label="order")
    keys, values = zip(*entries)
    from_mapping = SparseState(registry, dict(entries))
    from_arrays = SparseState.from_arrays(
        registry, np.array(keys, dtype=np.int64), np.array(values, dtype=complex)
    )
    kept = [(key, complex(value)) for key, value in entries if abs(value) > DROP_TOL]
    for built in (from_mapping, from_arrays):
        assert list(built.amplitudes) == [key for key, _ in kept]
        assert _bits(built.amplitudes.values()) == _bits(value for _, value in kept)
        assert built.keys.tolist() == [list(key) for key, _ in kept]
        assert _bits(built.values.tolist()) == _bits(value for _, value in kept)
        assert not (built.keys.flags.writeable or built.values.flags.writeable)
    assert from_mapping == from_arrays == state
    for built in (from_mapping, from_arrays):
        assert _cells_off_oracle(built, observables) == []

    spectator = basis_state(SystemRegistry((("W", 2),)), (0,))
    extended = tensor(from_arrays, spectator)
    assert extended.registry.labels == registry.labels + ("W",)
    assert extended.keys[:, :-1].tolist() == from_arrays.keys.tolist()
    assert set(extended.keys[:, -1].tolist()) == {0}
    # CPython's product by 1 keeps each amplitude, up to the sign of a zero part
    product = [a * (1 + 0j) for a in from_arrays.values.tolist()]
    assert _bits(extended.values.tolist()) == _bits(product)
    assert (extended.values == from_arrays.values).all()
    # a preparation's tables serve its spectator-extended scenario as they are
    assert _table_bits(born_table(extended, observables)) == _table_bits(
        born_table(from_arrays, observables)
    )


def _mapping_build(registry, amplitudes):
    return SparseState(registry, amplitudes).amplitudes


def _array_build(registry, amplitudes):
    keys = np.array(list(amplitudes), dtype=np.int64)
    values = np.array(list(amplitudes.values()), dtype=complex)
    return SparseState.from_arrays(registry, keys, values).amplitudes


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_mapping_and_array_builds_refuse_alike(data):
    """Rows in range, or of one arity (the registry's, one less or one more)
    with indices from -1 to the largest dimension, and amplitudes that may
    be dropped, not finite or too large to square, scaled to unit norm or
    not: both constructors build the same state or raise the same error
    with the same text."""
    dims = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3), label="dims")
    registry = SystemRegistry(tuple((f"R{a}", d) for a, d in enumerate(dims)))
    if data.draw(st.booleans(), label="in range"):
        row = st.tuples(*[st.integers(0, d - 1) for d in dims])
    else:
        width = data.draw(st.integers(max(1, len(dims) - 1), len(dims) + 1), label="width")
        row = st.tuples(*[st.integers(-1, max(dims))] * width)
    keys = data.draw(st.lists(row, min_size=1, max_size=6, unique=True), label="keys")
    amplitude = st.sampled_from(
        [0.0, DROP_TOL, 0.6, -0.8j, 1.0, 0.5 + 0.5j, math.nan, -math.inf, 1e200]
    )
    values = [data.draw(amplitude) for _ in keys]
    scale = math.hypot(*(abs(v) for v in values if cmath.isfinite(v)))
    if scale and data.draw(st.booleans(), label="unit norm"):
        values = [v / scale for v in values]
    amplitudes = dict(zip(keys, values))
    assert _outcome(_mapping_build, registry, amplitudes) == _outcome(
        _array_build, registry, amplitudes
    )


def test_array_build_refuses_a_repeated_key_and_a_ragged_shape():
    registry = SystemRegistry((("A", 2), ("B", 2)))
    with pytest.raises(ValueError, match=r"index \(1, 0\) is repeated"):
        SparseState.from_arrays(registry, [[1, 0], [0, 1], [1, 0]], [0.6, 0.8, 0.0 + 1e-3])
    with pytest.raises(ValueError, match="one row per amplitude"):
        SparseState.from_arrays(registry, [[1, 0]], [0.6, 0.8])


def test_state_forms_each_view_once_and_only_on_read():
    """A mapping-built state forms its arrays on the first read of `keys` or
    `values` and an array-built state its mapping on the first read of
    `amplitudes`; later reads return the same objects, and none is writable."""
    registry = SystemRegistry((("A", 2), ("B", 2)))
    ket = SparseState(registry, {(0, 0): 0.6, (1, 1): 0.8})
    assert ket._keys is None and ket._values is None
    assert ket.keys is ket.keys and ket.values is ket.values
    rows = SparseState.from_arrays(registry, ket.keys, ket.values)
    assert rows._amplitudes is None
    assert rows.amplitudes is rows.amplitudes
    with pytest.raises(TypeError):
        rows.amplitudes[(0, 0)] = 1.0
    with pytest.raises(ValueError):
        rows.keys[0, 0] = 1
    with pytest.raises(AttributeError):
        rows.registry = registry
    assert pickle.loads(pickle.dumps(rows)) == rows == ket


def test_born_table_of_a_51_branch_slot_observable_peaks_below_20_mb():
    """One A-side slot table at (l, n) = (50, 10^4): 51 branches over a
    20 000-entry state.  Dense groups x ket-column float arrays would peak
    near 74 MB here; sparse terms need O(support x ket entries per key)."""
    spec = ez.EmbezzleSpec.from_reals((1 / math.pi, 1 - 1 / math.pi), l=50, n=10**4)
    state = ez.embezzled_state(spec)
    observable = ez.slot_observable(spec, state.registry, "A")
    assert (len(observable.branches), len(state.amplitudes)) == (51, 20_000)
    tracemalloc.start()
    try:
        born_table(state, (observable,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20e6


def test_born_table_rejects_overlapping_observables():
    registry = SystemRegistry((("A", 2), ("B", 2)))
    state = basis_state(registry, (0, 0))
    obs = two_outcome_observable([basis_state(registry.restrict(("A",)), (0,))])
    with pytest.raises(ValueError, match="overlap"):
        born_table(state, (obs, obs))
    with pytest.raises(ValueError):
        born_table(state, ())


# ---------------------------------------------------------------------------
# Property tests: a family of tables in one pass


@st.composite
def born_batches(draw):
    """A `born_cases` state and a batch of two to six tuples over a pool of
    one to three observables per group of registers, the negation of a
    drawn one (the same projector objects) among them: tuples of mixed
    arity, levels whose observables do and do not close with a complemented
    branch, and a row budget from one tuple per pass up to the whole batch."""
    state, observables = draw(born_cases())
    pools = []
    for observable in observables:
        pool = [observable]
        for _ in range(draw(st.integers(0, 2))):
            pool.append(draw(_observable(observable.registry)))
        if draw(st.booleans()):
            pool.append(draw(st.sampled_from(pool)).negated())
        pools.append(pool)
    batch = []
    for _ in range(draw(st.integers(2, 6))):
        groups = draw(st.permutations(range(len(pools))))
        arity = draw(st.integers(1, len(pools)))
        batch.append(tuple(draw(st.sampled_from(pools[g])) for g in groups[:arity]))
    rows = len(state.amplitudes)
    budget = draw(st.integers(rows, rows * len(batch)))
    return state, batch, budget


def _oracle_table(state, observables):
    """Each cell of the tuple's table from the literal oracle."""
    table = {}
    for combo in itertools.product(*(o.branches for o in observables)):
        projectors = [p for _, p in combo]
        if len(projectors) == 1:
            oracle = born_probability(state, projectors[0])
        else:
            oracle = joint_probability(state, projectors)
        table[tuple(e for e, _ in combo)] = oracle
    return table


@settings(deadline=None, max_examples=100)
@given(born_batches())
def test_born_tables_are_the_tables_of_each_tuple_alone(case):
    """A batch's tables have the bits and key order of each tuple's own
    `born_table` and every cell is the oracle's float, whatever the tuples
    share and however many of them one pass takes."""
    state, batch, budget = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qcore, "_ROW_BUDGET", budget)
        tables = born_tables(state, batch)
    assert len(tables) == len(batch)
    for observables, table in zip(batch, tables):
        assert _table_bits(table) == _table_bits(born_table(state, observables))
        assert _table_bits(table) == _table_bits(_oracle_table(state, observables))


def test_born_tables_mix_closed_and_unclosed_levels_across_the_row_budget(monkeypatch):
    """One level holds a two-outcome observable (a complemented branch), its
    negation (the same projectors) and a basis observable (none), under
    remote observables of either kind, in tuples of arity one and two; the
    batch runs in one pass, two tuples a pass and one tuple a pass, every
    table with the bits of its tuple alone and of the oracle."""
    rng = np.random.default_rng(11)
    registry = SystemRegistry((("A", 3), ("B", 3), ("C", 2)))
    state = random_state(rng, registry)
    a, b = (registry.restrict((label,)) for label in "AB")
    closed = _two_ket_observable(a, rng)
    unclosed = Observable(
        tuple((float(k), basis_span_projector(a, [(k,)])) for k in range(3))
    )
    remote = [_two_ket_observable(b, rng), Observable(((1.0, identity_projector(b)),))]
    batch = [(closed,), (unclosed, remote[0]), (closed.negated(), remote[1])]
    batch += [(first, second) for first in (closed, unclosed) for second in remote]
    alone = [_table_bits(born_table(state, observables)) for observables in batch]
    rows = len(state.amplitudes)
    for budget in (rows * len(batch), 2 * rows, 1):
        monkeypatch.setattr(qcore, "_ROW_BUDGET", budget)
        tables = born_tables(state, batch)
        assert [_table_bits(table) for table in tables] == alone
    for observables, bits in zip(batch, alone):
        assert bits == _table_bits(_oracle_table(state, observables))


def test_born_tables_refuse_as_born_table_does():
    registry = SystemRegistry((("A", 2), ("B", 2)))
    state = basis_state(registry, (0, 0))
    obs = two_outcome_observable([basis_state(registry.restrict(("A",)), (0,))])
    with pytest.raises(ValueError, match="overlap"):
        born_tables(state, [(obs,), (obs, obs)])
    with pytest.raises(ValueError, match="at least one observable"):
        born_tables(state, [(obs,), ()])
    assert born_tables(state, []) == []


# ---------------------------------------------------------------------------
# Property tests: structured basis maps


@st.composite
def sparse_states(draw):
    """A normalized state on 1-4 registers of dimension 2-4 whose amplitudes
    have small integer real and imaginary parts before normalization, so no
    entry lies near the drop tolerance."""
    dims = draw(st.lists(st.integers(2, 4), min_size=1, max_size=4))
    registry = SystemRegistry(tuple((f"R{i}", d) for i, d in enumerate(dims)))
    keys = list(np.ndindex(*dims))
    support = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=16, unique=True))
    parts = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(lambda p: p != (0, 0))
    values = [complex(*draw(parts)) for _ in support]
    norm = math.sqrt(math.fsum(abs(v) ** 2 for v in values))
    return SparseState(registry, {key: v / norm for key, v in zip(support, values)})


@settings(deadline=None, max_examples=100)
@given(sparse_states(), st.data())
def test_structured_map_moves_each_amplitude_and_preserves_norm(state, data):
    """A random phased permutation of a random register group moves each
    amplitude to its image key times its phase and keeps the norm."""
    host = state.registry
    group = data.draw(
        st.lists(st.sampled_from(host.labels), min_size=1, unique=True), label="group"
    )
    acting = host.restrict(group)
    domain = list(np.ndindex(*acting.dimensions))
    images = data.draw(st.permutations(domain), label="images")
    angles = data.draw(
        st.lists(st.floats(0, 2 * math.pi), min_size=len(domain), max_size=len(domain)),
        label="angles",
    )
    rules = {
        key: (image, complex(math.cos(a), math.sin(a)))
        for key, image, a in zip(domain, images, angles)
    }
    smap = StructuredBasisMap(acting, rules)
    mapped = apply_structured_map(smap, state)

    axes = host.axes(acting.labels)
    expected = {}
    for key, amp in state.amplitudes.items():
        target, phase = rules[tuple(key[a] for a in axes)]
        new_key = list(key)
        for axis, value in zip(axes, target):
            new_key[axis] = value
        expected[tuple(new_key)] = amp * phase
    assert mapped.amplitudes == expected
    norm_sq = math.fsum(abs(a) ** 2 for a in state.amplitudes.values())
    mapped_sq = math.fsum(abs(a) ** 2 for a in mapped.amplitudes.values())
    assert mapped_sq == pytest.approx(norm_sq, abs=1e-14)
