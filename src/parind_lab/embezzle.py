"""Embezzlement of entangled states and the approximate chained correlation measures.

The embezzling resource is the family tau_n = (1/sqrt(C_n)) sum_{j<n} (j+1)^{-1/2} |jj>
with C_n the n-th harmonic number.  A partial basis relabeling on (aux, pointer,
system) registers,

    |k>_aux |0>_ptr |i>_sys  ->  |floor(k/m_i)>_aux |k mod m_i>_ptr |i>_sys,

applied to both halves of tau_n tensored with a Schmidt state sum_i c_i |ii>
approximately extracts a uniform maximally entangled state over the r pair slots
(i, j), j < m_i, where m_i / r are the (rational) squared coefficients.  The
extraction fidelity is governed by the interpolated harmonic sum Z(y), and the
residual trace distance feeds certified error bounds for the chained correlation
measures computed on the embezzled state.

Squared coefficients are handled as exact fractions throughout; floats appear
only in amplitudes and probabilities.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from collections.abc import Mapping, Sequence
from fractions import Fraction

import numpy as np

from . import chained_bell as cb
from .qcore import (
    DROP_TOL,
    MultiIndex,
    Observable,
    PROB_TOL,
    SparseState,
    SystemRegistry,
    _check_disjoint,
    _exact_parts,
    _host_order,
    _keep,
    _squares,
    aligned_amplitudes,
    basis_span_projector,
    complete_with_complement,
    tensor,
    two_outcome_observable,
)

Pair = tuple[int, int]  # (system index i, pointer index j)


# ---------------------------------------------------------------------------
# Harmonic sums


def harmonic_number(k: int) -> float:
    """C_k = sum_{j=1}^{k} 1/j: the terms 1.0 / j formed in numpy (IEEE
    division, so each has the bits of Python's 1.0 / j) and given to one
    exactly rounded `math.fsum`."""
    if k < 0:
        raise ValueError(f"harmonic number needs k >= 0, got {k}")
    return math.fsum((1.0 / np.arange(1, k + 1, dtype=np.float64)).tolist())


def interpolated_harmonic(y: float | Fraction) -> float:
    """Z(y): the harmonic sum to floor(y), linearly interpolated up to y.

    Z(integer k) = C_k, and ln(y+1) <= Z(y) <= 1 + ln(y) for y >= 1.  Passing an
    exact Fraction avoids floor misrounding near integers.
    """
    if y < 0:
        raise ValueError(f"Z is defined for y >= 0, got {y}")
    floor = math.floor(y)
    return harmonic_number(floor) + float(y - floor) / (floor + 1)


# ---------------------------------------------------------------------------
# Exact rational machinery


def _as_exact_fraction(value: Fraction | int | str) -> Fraction:
    if isinstance(value, float):
        raise TypeError(
            f"squared coefficients must be exact rationals, got float {value!r}; "
            "use Fraction or a 'p/q' string"
        )
    return Fraction(value)


def lcd(
    fractions: Sequence[Fraction | int | str], include_half: bool = False
) -> tuple[int, tuple[int, ...]]:
    """Least common denominator r of positive fractions summing to one, with the
    integer numerators m_i = r * fraction_i.

    With `include_half` the fraction 1/2 joins the set, forcing r to be even.
    """
    fracs = [_as_exact_fraction(f) for f in fractions]
    if any(f <= 0 for f in fracs):
        raise ValueError(f"fractions must be positive, got {fracs}")
    if sum(fracs) != 1:
        raise ValueError(f"fractions must sum to 1 exactly, got sum {sum(fracs)}")
    denominators = [f.denominator for f in fracs]
    if include_half:
        denominators.append(2)
    r = math.lcm(*denominators)
    numerators = []
    for f in fracs:
        m = f * r
        assert m.denominator == 1
        numerators.append(int(m))
    return r, tuple(numerators)


# Indices tried from the bound the squares force before giving up.  For d = 2
# l_min lies within a few indices of that bound; only d >= 3 can exhaust it.
_L_MIN_SCAN = 10_000


def rational_approximants(
    c_squares: Sequence[float], l: int
) -> tuple[Fraction, ...]:
    """Squared-coefficient approximants with denominator 2l: round the first d-1
    numerators, absorb the remainder in the last, so the sum is exactly one.

    The rounding guarantees |approximant_i - c_i^2| <= d/(2l).  Raises with the
    smallest workable l when any numerator would be nonpositive, or, when that
    lies past the scan, with a workable l.
    """
    squares = [float(c) for c in c_squares]
    if any(c <= 0 for c in squares):
        raise ValueError(f"squared coefficients must be positive, got {squares}")
    if abs(math.fsum(squares) - 1.0) > 1e-9:
        raise ValueError(f"squared coefficients must sum to 1, got {math.fsum(squares)}")
    if l < 1:
        raise ValueError(f"approximation index l must be >= 1, got {l}")

    def numerators_for(level: int) -> list[int] | None:
        denom = 2 * level
        nums = [round(denom * c) for c in squares[:-1]]
        nums.append(denom - sum(nums))
        return nums if all(m >= 1 for m in nums) else None

    numerators = numerators_for(l)
    if numerators is None:
        problem = f"approximation index l={l} produces a nonpositive numerator"
        # round(2l c) >= 1 needs 2l c > 1/2, so no index below 1/(4c) - 1 works
        # for a rounded entry; for d = 2 the last numerator is
        # round(2l (1 - c_0)) and obeys the same bound.
        shares = squares[:-1] + ([1.0 - squares[0]] if len(squares) == 2 else [])
        if min(shares) <= 0 or 0.25 / min(shares) == math.inf:
            raise ValueError(f"{problem}; no approximation index is workable")
        start = max(l, *(int(0.25 / c) - 1 for c in shares))
        end = start + _L_MIN_SCAN
        for l_min in range(start, end):
            if numerators_for(l_min) is not None:
                raise ValueError(f"{problem}; smallest workable index is l_min={l_min}")
        # A rounded numerator is at most 2l c_i + 1/2, so every numerator is at
        # least 2l min(c) - (d - 1)/2, and at least 1 from l = (d + 1)/(4 min(c))
        # on, up to the slack in the squares' sum: check that index, then name it.
        bound = (len(squares) + 1) / (4 * min(squares))
        l_up = max(end, math.ceil(bound)) if bound < math.inf else None
        workable = f", but l={l_up} is" if l_up and numerators_for(l_up) else ""
        raise ValueError(f"{problem}; no index below l={end} is workable{workable}")
    return tuple(Fraction(m, 2 * l) for m in numerators)


# ---------------------------------------------------------------------------
# Register layout and specs


# The (aux, ptr, sys) registers of each side: the auxiliary register holding
# tau_n, the pointer register that receives the extracted pair index, and the
# measured system.  Pair slot (i, j) is pointer j, system i.
SIDES = {"A": ("A2", "A1", "A"), "B": ("B2", "B1", "B")}


@dataclasses.dataclass(frozen=True)
class EmbezzleSpec:
    """Schmidt coefficients with their rational (approximant) structure and the
    embezzling precision n.

    `m[i] / r` is the squared coefficient actually extracted; for exactly
    rational inputs it equals `exact_squares[i]`, otherwise it is the
    denominator-2l approximant of the true squared coefficient `c[i]**2`.
    """

    c: tuple[float, ...]
    n: int
    r: int
    m: tuple[int, ...]
    exact_squares: tuple[Fraction, ...] | None = None
    l: int | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"embezzling precision n must be >= 1, got {self.n}")
        if len(self.m) != len(self.c):
            raise ValueError("coefficient and numerator lists differ in length")
        if sum(self.m) != self.r:
            raise ValueError(f"numerators {self.m} do not sum to denominator {self.r}")
        if any(mi < 1 for mi in self.m):
            raise ValueError(f"numerators must be positive, got {self.m}")
        if self.exact_squares is not None:
            for mi, sq in zip(self.m, self.exact_squares):
                if Fraction(mi, self.r) != sq:
                    raise ValueError(f"numerator {mi}/{self.r} does not match {sq}")

    @classmethod
    def from_exact(
        cls,
        squares: Sequence[Fraction | int | str],
        n: int,
        *,
        even_denominator: bool = False,
    ) -> EmbezzleSpec:
        exact = tuple(_as_exact_fraction(sq) for sq in squares)
        r, m = lcd(exact, include_half=even_denominator)
        return cls(
            c=tuple(math.sqrt(float(sq)) for sq in exact),
            n=n,
            r=r,
            m=m,
            exact_squares=exact,
        )

    @classmethod
    def from_reals(cls, squares: Sequence[float], l: int, n: int) -> EmbezzleSpec:
        approx = rational_approximants(squares, l)
        r, m = lcd(approx, include_half=True)
        return cls(
            c=tuple(math.sqrt(float(sq)) for sq in squares),
            n=n,
            r=r,
            m=m,
            exact_squares=None,
            l=l,
        )

    @property
    def d(self) -> int:
        return len(self.c)

    @property
    def max_m(self) -> int:
        return max(self.m)

    @property
    def c_l(self) -> tuple[float, ...]:
        """Approximant coefficients sqrt(m_i / r)."""
        return tuple(math.sqrt(mi / self.r) for mi in self.m)

    @property
    def pairs(self) -> tuple[Pair, ...]:
        """The r independent pair slots (i, j), j < m_i, in lexicographic order."""
        return tuple((i, j) for i in range(self.d) for j in range(self.m[i]))

    @property
    def coefficient_error(self) -> float:
        """max_i |c_{i,l}^2 - c_i^2| (zero for exactly rational inputs)."""
        return max(abs(mi / self.r - ci**2) for mi, ci in zip(self.m, self.c))

    def with_n(self, n: int) -> EmbezzleSpec:
        return dataclasses.replace(self, n=n)


def pair_eigenvalue_scheme(pair: Pair) -> float:
    """Distinct spectator eigenvalues 2^i 3^j + 2 for pair slots (i, j)."""
    i, j = pair
    return float(2**i * 3**j + 2)


# ---------------------------------------------------------------------------
# States


def tau(n: int) -> SparseState:
    """Embezzling state (1/sqrt(C_n)) sum_{j<n} (j+1)^{-1/2} |j>|j> on the aux
    registers."""
    if n < 1:
        raise ValueError(f"tau needs n >= 1, got {n}")
    registry = SystemRegistry(tuple((aux, n) for aux, _, _ in SIDES.values()))
    c_n = harmonic_number(n)
    amplitudes = {(j, j): 1.0 / math.sqrt(c_n * (j + 1)) for j in range(n)}
    return SparseState(registry, amplitudes)


def phi_schmidt(coefficients: Sequence[float]) -> SparseState:
    """Diagonal Schmidt state sum_i c_i |i>|i> on the system registers."""
    d = len(coefficients)
    registry = SystemRegistry(tuple((sys, d) for _, _, sys in SIDES.values()))
    return SparseState(registry, {(i, i): float(c) for i, c in enumerate(coefficients)})


def embezzled_state(spec: EmbezzleSpec) -> SparseState:
    """tau_n (x) |00> (x) phi with the extraction relabeling applied on both
    sides (van Dam & Hayden 2003), built from the arrays of `_embezzled_terms`
    with no per-entry Python object.

    The registry is `_embezzled_registry(spec)`, and term (q, j, i) is key row
    (q, q, j, j, i, i).  The tests hold this state equal to the map route's,
    the extraction map applied to each side of tau_n (x) |00> (x) phi, key
    order and amplitude bits included."""
    q, j, i, amplitude = _embezzled_terms(spec, harmonic_number(spec.n))
    keys = np.stack([q, q, j, j, i, i], axis=1)
    del q, j, i  # the state's checks then peak over its two arrays alone
    return SparseState.from_arrays(_embezzled_registry(spec), keys, amplitude)


def one_side_embezzled_state(spec: EmbezzleSpec) -> SparseState:
    """tau_n (x) |00> (x) phi with the extraction relabeling applied on side A
    only, from the same terms and on the same registry as `embezzled_state`.

    Side B keeps aux level k = q m_i + j and pointer 0, so term (q, j, i) is
    key row (q, k, j, 0, i, i).  The tests hold this state equal to the map
    route's on side A, key order and amplitude bits included."""
    q, j, i, amplitude = _embezzled_terms(spec, harmonic_number(spec.n))
    k = q * np.array(spec.m, dtype=np.int64)[i] + j
    keys = np.stack([q, k, j, np.zeros_like(j), i, i], axis=1)
    del q, j, i, k
    return SparseState.from_arrays(_embezzled_registry(spec), keys, amplitude)


def _embezzled_registry(spec: EmbezzleSpec) -> SystemRegistry:
    """The registry of both extracted states: (A2, B2) of dimension n,
    (A1, B1) of dimension max m and (A, B) of dimension d."""
    sides = SIDES.values()
    return SystemRegistry(
        tuple((aux, spec.n) for aux, _, _ in sides)
        + tuple((ptr, spec.max_m) for _, ptr, _ in sides)
        + tuple((sys, spec.d) for _, _, sys in sides)
    )


def _embezzled_terms(
    spec: EmbezzleSpec, c_n: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The support of the extracted states as four arrays (q, j, i,
    amplitude) -- aux level, pointer, system -- the terms `embezzled_state`
    and `one_side_embezzled_state` are built from; `c_n` is
    `harmonic_number(spec.n)`, summed once by the caller.

    The extraction relabels |k>|0>|i> of tau_n (x) phi to |k // m_i>|k mod
    m_i>|i>, so term (k, i) has amplitude c_i / sqrt(C_n (k + 1)), computed as
    (1 / sqrt(C_n (k + 1))) * c_i like the tensor product tau_n (x) |00> (x)
    phi, and kept above DROP_TOL.  The terms come in both states' key order
    (k outer, i inner), so any sequential sum over them equals the same sum
    over either state bit for bit."""
    if spec.n < spec.max_m:
        raise ValueError(f"precision n={spec.n} must be at least max numerator {spec.max_m}")
    k = np.arange(spec.n, dtype=np.int64)[:, None]
    m = np.array(spec.m, dtype=np.int64)
    amplitude = (1.0 / np.sqrt(c_n * (k + 1))) * np.array(spec.c, dtype=np.float64)
    keep = np.abs(amplitude) > DROP_TOL
    i = np.broadcast_to(np.arange(spec.d, dtype=np.int64), keep.shape)
    return (k // m)[keep], (k % m)[keep], i[keep], amplitude[keep]


def phi_uniform_state(spec: EmbezzleSpec) -> SparseState:
    """Uniform pair-slot state: tau_n on the aux registers tensored with
    (1/sqrt(r)) sum_{(i,j)} |i,j>|i,j> on the (ptr, sys) registers."""
    registry = SystemRegistry(
        tuple(
            register
            for _, ptr, sys in SIDES.values()
            for register in ((ptr, spec.max_m), (sys, spec.d))
        )
    )
    amplitude = 1.0 / math.sqrt(spec.r)
    slots = SparseState(registry, {(j, i, j, i): amplitude for i, j in spec.pairs})
    return tensor(tau(spec.n), slots)


# ---------------------------------------------------------------------------
# Fidelity of the extraction


@dataclasses.dataclass(frozen=True)
class EmbezzlementFidelityReport:
    n: int
    computed_fidelity: float
    z_form_fidelity: float
    trace_distance: float
    distance_bound: float
    distance_bound_holds: bool
    lower_bound_holds: bool


def _chi_overlap(spec: EmbezzleSpec, c_n: float) -> float:
    """<chi | U (x) U psi>: the analytic chi amplitudes summed against
    `_embezzled_terms`, so neither state is built; `c_n` is C_n.  The sum runs
    in term order, one addition at a time (`cumsum`, not the pairwise
    `np.sum`), as a loop over the state's support would."""
    q, _, i, amplitude = _embezzled_terms(spec, c_n)
    c = np.array(spec.c, dtype=np.float64)[i]
    m = np.array(spec.m, dtype=np.int64)[i]
    terms = c / np.sqrt(c_n * (q + 1) * m) * amplitude
    return float(np.cumsum(np.concatenate(([0.0], terms)))[-1])


def _distance(f: float) -> float:
    """The pure-state trace distance sqrt(1 - f^2) at fidelity f, clipped at 0."""
    return math.sqrt(max(0.0, 1.0 - f * f))


def embezzlement_distance_bound(spec: EmbezzleSpec) -> float:
    """Certified bound sqrt(1 - (1 - ln(max m)/ln(n))^2) on the extraction trace
    distance, valid for n >= max m (derived from the Z-sum lower bound on F)."""
    m_hat = spec.max_m
    if spec.n < m_hat:
        raise ValueError(f"bound needs n >= max m, got n={spec.n}, max m={m_hat}")
    if m_hat == 1:
        return 0.0
    return _distance(1.0 - math.log(m_hat) / math.log(spec.n))


def _z_form(spec: EmbezzleSpec, c_n: float) -> float:
    """The interpolated-harmonic form sum_i c_i^2 Z(n/m_i) / Z(n), with
    Z(n) = C_n passed in.  It is a certified lower bound on the computed
    extraction fidelity, with equality exactly when every numerator m_i is 1;
    see the module tests for the per-term comparison."""
    return math.fsum(
        (c_i**2) * interpolated_harmonic(Fraction(spec.n, m_i)) / c_n
        for c_i, m_i in zip(spec.c, spec.m)
    )


def embezzlement_fidelity(spec: EmbezzleSpec) -> EmbezzlementFidelityReport:
    """Extraction fidelity F(chi, U (x) U psi) with the interpolated-harmonic form,
    the pure-state trace distance, and the certified distance bound.

    The report records whether the computed fidelity respects the Z-form lower
    bound and whether the trace distance respects its logarithmic bound; callers
    asserting stricter relations can read the raw numbers off the report.
    """
    if spec.n < spec.max_m:
        raise ValueError(f"needs n >= max m, got n={spec.n}, max m={spec.max_m}")
    c_n = harmonic_number(spec.n)
    computed = _chi_overlap(spec, c_n)
    z_form = _z_form(spec, c_n)
    distance = _distance(computed)
    bound = embezzlement_distance_bound(spec)
    return EmbezzlementFidelityReport(
        n=spec.n,
        computed_fidelity=computed,
        z_form_fidelity=z_form,
        trace_distance=distance,
        distance_bound=bound,
        distance_bound_holds=distance <= bound + PROB_TOL,
        lower_bound_holds=computed >= z_form - 1e-12,
    )


def chi_phi_fidelity(spec: EmbezzleSpec) -> float:
    """F(chi, uniform slot state) = sum_i c_{i,l} c_i, which is 1 exactly when the
    squared coefficients are already m_i / r."""
    return math.fsum(cl * ci for cl, ci in zip(spec.c_l, spec.c))


def extraction_distances(spec: EmbezzleSpec) -> tuple[float, float]:
    """(D(U psi, chi), D(chi, uniform slot state)) for chained deviation bounds."""
    overlap = _chi_overlap(spec, harmonic_number(spec.n))
    return _distance(overlap), _distance(chi_phi_fidelity(spec))


# ---------------------------------------------------------------------------
# Approximate chained correlation measures


def slot_registry(host: SystemRegistry, side: str) -> SystemRegistry:
    """The (pointer, system) registers of one side, in host order: the
    registers every slot observable of that side acts on."""
    _, ptr, sys = SIDES[side]
    return host.restrict((ptr, sys))


def slot_key(pair: Pair, acting: SystemRegistry, side: str) -> MultiIndex:
    """Basis multi-index of pair slot (i, j) in `acting`'s label order."""
    i, j = pair
    _, ptr, sys = SIDES[side]
    values = {ptr: j, sys: i}
    return tuple(values[label] for label in acting.labels)


def slot_observable(spec: EmbezzleSpec, host: SystemRegistry, side: str) -> Observable:
    """Observable resolving the pointer-system slots: eigenvalue 2^i 3^j + 2 on
    the basis ket of slot (i, j), and 0 on the unused remainder of the pointer
    register."""
    acting = slot_registry(host, side)
    branches = [
        (pair_eigenvalue_scheme(p), basis_span_projector(acting, [slot_key(p, acting, side)]))
        for p in spec.pairs
    ]
    if len(spec.pairs) == acting.total_dimension:
        return Observable(tuple(branches))
    return complete_with_complement(branches, 0.0)


def pair_chain_observables(
    spec: EmbezzleSpec,
    N: int,
    pair_lo: Pair,
    pair_hi: Pair,
    host: SystemRegistry,
    side: str,
) -> dict[int, Observable]:
    """Chained family rotating two pair slots, with distinct spectator eigenvalues
    2^i 3^j + 2 on the remaining slots; the unused part of the pointer register
    maps to no eigenvalue, so it shares the zero-eigenvalue complement branch."""
    acting = slot_registry(host, side)
    scheme = {slot_key(p, acting, side): pair_eigenvalue_scheme(p) for p in spec.pairs}
    chain_spec = cb.ChainSpec(
        N=N,
        pair=(slot_key(pair_lo, acting, side), slot_key(pair_hi, acting, side)),
        eigenvalue_scheme=scheme.get,
    )
    return cb.chain_observables(chain_spec, acting, side)


def uniform_pair_disagreement_closed_form(r: int, N: int) -> float:
    """Adjacent-setting disagreement on the uniform state of r slots
    (`phi_uniform_state`): each of the two rotated slots carries weight 1/r,
    giving (2/r) sin^2(pi/4N) per pair.  It is the extraction target chi's
    value only when every c_i^2 = m_i / r; otherwise chi's slots of block i
    weigh c_i^2 / m_i each, and its pair chains depart from this form."""
    return (2.0 / r) * math.sin(math.pi / (4 * N)) ** 2


def _require_slots(spec: EmbezzleSpec, slots: Sequence[Pair]) -> None:
    """Refuse any slot outside `spec.pairs`, for every chain route alike."""
    known = set(spec.pairs)
    for pair in slots:
        if tuple(pair) not in known:
            raise ValueError(f"pair slot {pair} is not among the spec's slots")


def _require_half_subset(
    spec: EmbezzleSpec, subset: Sequence[Pair], pairing: Mapping[Pair, Pair]
) -> list[Pair]:
    """The subset as a list of tuples, once it is checked: an even slot count,
    r/2 known slots, and a pairing that maps them one to one onto the rest."""
    if spec.r % 2 != 0:
        raise ValueError(f"half-subset chains need an even slot count, got r={spec.r}")
    subset_t = [tuple(p) for p in subset]
    _require_slots(spec, subset_t)
    if 2 * len(subset_t) != spec.r:
        raise ValueError(f"subset must contain r/2 = {spec.r // 2} slots")
    complement = set(spec.pairs).difference(subset_t)
    # a slot the pairing misses leaves the image shorter than the complement
    image = sorted(tuple(pairing[s]) for s in subset_t if s in pairing)
    if image != sorted(complement):
        raise ValueError("pairing must be a bijection from the subset onto its complement")
    return subset_t


def correlation_measure_INn(
    spec: EmbezzleSpec,
    N: int,
    pair_lo: Pair,
    pair_hi: Pair,
    *,
    state: SparseState | None = None,
) -> cb.ChainReport:
    """Approximate correlation measure on the embezzled state for a chain rotating
    two pair slots, with the extraction-target reference chain and the certified
    deviation bound 2N * D(U psi, chi).

    `state`, if given, must be `embezzled_state(spec)`, and a state on another
    registry is refused; it feeds only the literal chain, and is built here
    otherwise.  The reference chain on chi = tau_n (x) sum_s a_s |s>|s>,
    a_s = c_i / sqrt(m_i), is the slot kernel at W = a_lo^2 + a_hi^2 and
    G = a_lo a_hi: chi is slot-diagonal with real amplitudes, and its tau_n
    factor scales both by sum_k tau_k^2 = 1.  The deviation bound comes from
    the spec."""
    _require_slots(spec, (pair_lo, pair_hi))
    if state is None:
        state = embezzled_state(spec)
    elif state.registry != _embezzled_registry(spec):
        raise ValueError("state is not on the registry of embezzled_state(spec)")
    a_family = pair_chain_observables(spec, N, pair_lo, pair_hi, state.registry, "A")
    b_family = pair_chain_observables(spec, N, pair_lo, pair_hi, state.registry, "B")

    a_lo, a_hi = (spec.c[i] / math.sqrt(spec.m[i]) for i, _ in (pair_lo, pair_hi))
    reference = _two_slot_chain(spec, N, a_lo * a_lo + a_hi * a_hi, a_lo * a_hi, half_subset=False)
    d1, _ = extraction_distances(spec)
    return cb.chain_correlation(
        state,
        N,
        a_family,
        b_family,
        closed_form=reference.closed_form,
        reference_value=reference.value,
        deviation_bound=2 * N * d1,
    )


def default_pairing(spec: EmbezzleSpec, subset: Sequence[Pair]) -> dict[Pair, Pair]:
    """Order-matching bijection from a half-size slot subset onto its complement."""
    subset_t = [tuple(p) for p in subset]
    complement = [p for p in spec.pairs if p not in subset_t]
    if len(subset_t) != len(complement):
        raise ValueError(
            f"subset size {len(subset_t)} does not split the {spec.r} slots in half"
        )
    return dict(zip(subset_t, complement))


def half_subset_observable(
    spec: EmbezzleSpec,
    N: int,
    subset: Sequence[Pair],
    pairing: Mapping[Pair, Pair],
    host: SystemRegistry,
    side: str,
    setting: int,
) -> Observable:
    """One setting of the half-subset family: +1 on the span of the rotated kets
    cos(theta/2)|s> + sin(theta/2)|pairing(s)> at theta = setting * pi/(2N),
    each a `cb.theta_ket` written from the two slot keys, and -1 on the
    complement.  Refuses a chain depth N < 1."""
    if N < 1:
        raise ValueError(f"chain depth N must be >= 1, got {N}")
    subset_t = _require_half_subset(spec, subset, pairing)
    acting = slot_registry(host, side)
    theta = setting * math.pi / (2 * N)
    kets = [
        cb.theta_ket(
            theta, (slot_key(s, acting, side), slot_key(pairing[s], acting, side)), acting
        )
        for s in subset_t
    ]
    return two_outcome_observable(kets)


def half_subset_observables(
    spec: EmbezzleSpec,
    N: int,
    subset: Sequence[Pair],
    pairing: Mapping[Pair, Pair],
    host: SystemRegistry,
    side: str,
) -> dict[int, Observable]:
    """Two-outcome chained family of `half_subset_observable` settings.

    On side A the terminal setting 2N is the negation of setting 0 by definition;
    intermediate settings are genuine rotated observables.  The first setting
    is built before the others, so its `half_subset_observable` refuses N < 1.
    """
    first = 0 if side == "A" else 1
    family = {first: half_subset_observable(spec, N, subset, pairing, host, side, first)}
    for setting in range(first + 2, 2 * N, 2):
        family[setting] = half_subset_observable(spec, N, subset, pairing, host, side, setting)
    if side == "A":
        family[2 * N] = family[0].negated()
    return family


def correlation_measure_IJlNnl(
    spec: EmbezzleSpec,
    N: int,
    subset: Sequence[Pair],
    pairing: Mapping[Pair, Pair],
) -> cb.ChainReport:
    """Half-subset chained correlation measure on the embezzled state.

    The closed form attached is the uniform-slot reference 2N sin^2(pi/4N); the
    certified deviation bound combines both trace distances,
    2N * (D(U psi, chi) + D(chi, uniform)).
    """
    _require_half_subset(spec, subset, pairing)
    state = embezzled_state(spec)
    a_family = half_subset_observables(spec, N, subset, pairing, state.registry, "A")
    b_family = half_subset_observables(spec, N, subset, pairing, state.registry, "B")
    d1, d2 = extraction_distances(spec)
    return cb.chain_correlation(
        state,
        N,
        a_family,
        b_family,
        closed_form=cb.bell_chain_closed_form(N),
        deviation_bound=2 * N * (d1 + d2),
    )


# ---------------------------------------------------------------------------
# Slot statistics: exact fast evaluation of chain values on slot-diagonal states
#
# The embezzled state, the extraction target, and the uniform slot state are all
# of the form sum_s sum_q amp_s(q) |q, s>|q, s> with real amplitudes (s a pair
# slot, q an auxiliary level).  Every chain disagreement probability then reduces
# to a closed form in the slot weights w_s = sum_q amp_s(q)^2 and the auxiliary
# overlaps G_st = sum_q amp_s(q) amp_t(q), because the rotated projectors couple
# only paired slots and the contraction stays diagonal in the slot index.  With
# c^2 + s^2 = 1, the Born terms Pr(A=+1) + Pr(B=+1) - 2 Pr(A=+1, B=+1) of slot s
# rotated into t reduce to D = W (c^2 s'^2 + s^2 c'^2) - 4 c c' s s' G with
# W = w_s + w_t and G = G_st; summed over a half-subset J with partners pi(J),
# W is the weight of J and pi(J) and G = sum_{s in J} G_{s,pi(s)}.  The
# module tests pin these formulas against the literal projector route.
#
# The Born tables of slot observables come from the aux vectors too.  Entry
# (q, s) is the one row at level q in slot s on both sides, so each of
# `born_table`'s projection groups holds one row while every observable
# before the last holds only basis kets of amplitude 1; such an observable
# sends a row whole to one branch, so a table of them alone has cells that
# are unions of whole slots.  The last observable may rotate: a row at key x
# of a real ket w gets coefficient w_x a, the images (w_x a) w_y on each key
# y of the ket, each kept above DROP_TOL, and the residual a - image on x
# and -image on the other key, as `born_table` forms them.  A cell is the
# exactly rounded fsum of its values' squares, so its bits do not depend on
# their order, and a level a slot lacks (0.0) adds an exact zero.


@dataclasses.dataclass(frozen=True)
class SlotStatistics:
    """Slot weights and auxiliary amplitudes of a slot-diagonal state on
    `registry`: `aux[k]` holds amp_s(q) of slot s = pairs[k] at its levels
    q = 0 .. Q_s - 1, Q_s the slot's highest level present plus one, and 0.0
    where s has no level q.

    `born_table(observables)` gives, with no state built, `born_table(state,
    observables)` cell for cell, bits and key order included, for
    `embezzled_state(spec)` and for every state `slot_statistics` accepts
    with real amplitudes.  Each observable must act on one side's (pointer,
    system) registers and have real kets with at most two keys, no slot key
    in two kets, and its complemented branch, if any, closing its span kets
    themselves; every observable but the last must hold only basis kets of
    amplitude 1.  What the tables read (each slot's squares as exact parts,
    `qcore._exact_parts`) is derived on the first table read, so the fast
    chains pay nothing for it."""

    pairs: tuple[Pair, ...]
    weights: dict[Pair, float]
    aux: tuple[np.ndarray, ...]
    registry: SystemRegistry

    def overlap(self, links: Sequence[tuple[Pair, Pair]]) -> float:
        """sum of G_st over the (s, t) links, as one `math.fsum` of every
        product amp_s(q) amp_t(q) at the levels both slots have.  The sum is
        exactly rounded and a level only one slot has would add an exact 0.0,
        so the result has the bits of a sum over every level."""
        row = {pair: k for k, pair in enumerate(self.pairs)}
        products: list[float] = []
        for s, t in links:
            a, b = self.aux[row[s]], self.aux[row[t]]
            products += (a[: len(b)] * b[: len(a)]).tolist()
        return math.fsum(products)

    def born_table(self, observables: Sequence[Observable]) -> dict[tuple[float, ...], float]:
        obs = tuple(observables)
        if not obs:
            raise ValueError("need at least one observable")
        _check_disjoint(observable.registry for observable in obs)
        *leading, last = (self._read(observable) for observable in obs)
        if any(kets.rotated.any() for kets in leading):
            raise ValueError("only the last observable may hold a ket other than a basis ket")
        # each slot's branch on the leading observables; None where its rows vanish
        prefixes = list(zip(*(kets.destination for kets in leading))) or [()] * len(self.pairs)
        members: dict[tuple[int, ...], list] = {}
        if last.rotated.any():
            # one pass over the entries, then one fsum per cell over its slots' values
            span, residual = self._projected(last)
            _, segments = self._entries
            for (a, b), prefix, branch in zip(segments, prefixes, last.branch):
                for cell_branch, values in ((branch, span), (last.closing, residual)):
                    if cell_branch is not None and None not in prefix:
                        members.setdefault(prefix + (cell_branch,), []).append(values[a:b].ravel())
            sums = {
                cell: math.fsum(itertools.chain.from_iterable(map(_squares, views)))
                for cell, views in members.items()
            }
        else:
            # whole slots: one fsum per cell over its slots' exact parts
            for parts, prefix, branch in zip(self._parts, prefixes, last.destination):
                if None not in prefix and branch is not None:
                    members.setdefault(prefix + (branch,), []).extend(parts)
            sums = {cell: math.fsum(parts) for cell, parts in members.items()}
        table: dict[tuple[float, ...], float] = {}
        for combo in itertools.product(*(enumerate(o.branches) for o in obs)):
            cell = tuple(b for b, _ in combo)
            table[tuple(e for _, (e, _) in combo)] = min(1.0, max(0.0, sums.get(cell, 0.0)))
        return table

    @functools.cached_property
    def _entries(self) -> tuple[np.ndarray, list[tuple[int, int]]]:
        """The aux vectors flattened, slot by slot, and each slot's span there."""
        ends = np.cumsum([len(v) for v in self.aux]).tolist()
        return np.concatenate(self.aux), list(zip([0, *ends[:-1]], ends))

    @functools.cached_property
    def _parts(self) -> list[list[float]]:
        """Each slot's squared amplitudes as exact fsum parts."""
        return [_exact_parts(list(_squares(v))) for v in self.aux]

    @functools.cached_property
    def _sides(self) -> list[tuple[SystemRegistry, dict[MultiIndex, int]]]:
        """Per side, its slot registry and the slot row of each slot key there."""
        sides = []
        for side in SIDES:
            acting = slot_registry(self.registry, side)
            sides.append((acting, {slot_key(p, acting, side): s for s, p in enumerate(self.pairs)}))
        return sides

    def _read(self, observable: Observable) -> _SlotKets:
        acting = _host_order(self.registry, observable.registry)
        slot_of = next((slots for host, slots in self._sides if host == acting), None)
        if slot_of is None:
            raise ValueError(
                f"observable acts on {acting.labels}, not on one side's slot registers"
            )
        kets = _SlotKets(len(self.pairs))
        span_kets: list[SparseState] = []
        closing_kets: tuple[SparseState, ...] = ()
        for b, (_, projector) in enumerate(observable.branches):
            if projector.complemented:
                kets.closing, closing_kets = b, projector.kets
                continue
            for ket in projector.kets:
                span_kets.append(ket)
                entries = list(aligned_amplitudes(ket, acting).items())
                if len(entries) > 2 or any(amplitude.imag for _, amplitude in entries):
                    raise ValueError("slot tables need real kets with at most two keys")
                for key, amplitude in entries:
                    s = slot_of.get(key)
                    if s is None:
                        continue
                    if kets.branch[s] is not None:
                        raise ValueError(f"slot {self.pairs[s]} lies in two kets")
                    kets.branch[s] = b
                    kets.own[s] = amplitude.real
                    kets.other[s] = next((w.real for k, w in entries if k != key), 0.0)
        if kets.closing is not None and sorted(map(id, closing_kets)) != sorted(map(id, span_kets)):
            raise ValueError("the complemented branch must close the span kets themselves")
        return kets

    def _projected(self, kets: _SlotKets) -> tuple[np.ndarray, np.ndarray]:
        """Each entry's two span values (the images on its own key and on the
        other key of its ket) and its two residual values, as `born_table`
        forms them; a value it drops is 0.0 here, which adds nothing to a
        cell's exact sum."""
        a, _ = self._entries
        lengths = [len(v) for v in self.aux]
        own, other = np.repeat(kets.own, lengths), np.repeat(kets.other, lengths)
        coefficient = own * a
        live = _keep(coefficient, 0.0)
        image = np.stack([coefficient * own, coefficient * other], axis=1)
        image[~(live[:, None] & _keep(image, 0.0))] = 0.0
        residual = np.stack([a - image[:, 0], -image[:, 1]], axis=1)
        residual[~_keep(residual, 0.0)] = 0.0
        return image, residual


def _slot_statistics(
    spec: EmbezzleSpec, registry: SystemRegistry, terms: tuple[np.ndarray, ...]
) -> SlotStatistics:
    """The statistics of real support entries of a state on `registry`, as
    `_embezzled_terms` lists them: (q, j, i, amplitude), aux level, pointer,
    system.  `np.bincount` adds in entry order, one term at a time from 0.0,
    so each weight is the sequential sum of the squared amplitudes of its
    slot and each vector entry that of the amplitudes at its (slot, level);
    a vector runs up to its slot's highest level, 0.0 where a level is
    absent."""
    q, j, i, amplitude = terms
    row = np.cumsum((0,) + spec.m[:-1])[i] + j  # slot (i, j)'s row in `spec.pairs`
    weights = np.bincount(row, weights=amplitude * amplitude, minlength=spec.r)
    lengths = np.zeros(spec.r, dtype=np.int64)
    np.maximum.at(lengths, row, q + 1)
    ends = lengths.cumsum()
    flat = np.bincount((ends - lengths)[row] + q, weights=amplitude, minlength=int(ends[-1]))
    return SlotStatistics(
        pairs=spec.pairs,
        weights=dict(zip(spec.pairs, weights.tolist())),
        aux=tuple(np.split(flat, ends[:-1])),
        registry=registry,
    )


def slot_statistics(state: SparseState, spec: EmbezzleSpec) -> SlotStatistics:
    """Slot weights and auxiliary amplitudes read from the state's arrays.

    Refuses, at the first offending entry in key order, a state that is not
    slot-diagonal, has an amplitude with an imaginary part above 1e-14, or
    occupies a slot outside the spec's: the fast formulas do not apply
    there.  Slot-diagonal means one entry per (slot, level), at the same
    (level, pointer, system) on both sides."""
    keys = state.keys[:, state.registry.axes(SIDES["A"] + SIDES["B"])]
    q, j, i = keys[:, :3].T
    values = state.values
    m = np.array(spec.m, dtype=np.int64)
    # lexsort is stable, so each run of equal (q, j, i) lists its entries in key order
    order = np.lexsort((i, j, q))
    repeated = np.zeros(len(keys), dtype=bool)
    repeated[order[1:][(np.diff(keys[order, :3], axis=0) == 0).all(axis=1)]] = True
    off_diagonal = (keys[:, :3] != keys[:, 3:]).any(axis=1) | repeated
    imaginary = np.abs(values.imag) > 1e-14
    outside = (i >= spec.d) | (j >= m[np.minimum(i, spec.d - 1)])
    bad = off_diagonal | imaginary | outside
    if bad.any():
        k = int(bad.argmax())
        if off_diagonal[k]:
            raise ValueError("state is not slot-diagonal; use the literal chain route")
        if imaginary[k]:
            raise ValueError("slot fast path requires real amplitudes")
        raise ValueError(f"state occupies slot {(int(i[k]), int(j[k]))} outside the spec's slots")
    return _slot_statistics(spec, state.registry, (q, j, i, values.real))


def slot_statistics_from_spec(spec: EmbezzleSpec) -> SlotStatistics:
    """`slot_statistics(embezzled_state(spec), spec)` from `_embezzled_terms`:
    the same body over the same terms in the same order, so the same weights
    and vectors bit for bit, without building the state."""
    terms = _embezzled_terms(spec, harmonic_number(spec.n))
    return _slot_statistics(spec, _embezzled_registry(spec), terms)


class _SlotKets:
    """One observable read slot by slot: the branch of the ket holding the
    slot's key (None if no ket does), that ket's amplitude there and on its
    other key (0.0 if it has none), and the complemented branch (None if
    there is none)."""

    def __init__(self, r: int):
        self.branch: list[int | None] = [None] * r
        self.own = np.zeros(r)
        self.other = np.zeros(r)
        self.closing: int | None = None

    @property
    def rotated(self) -> np.ndarray:
        """The slots whose ket is not a basis ket of amplitude 1."""
        held = np.array([b is not None for b in self.branch])
        return held & ((self.own != 1.0) | (self.other != 0.0))

    @property
    def destination(self) -> list[int | None]:
        """Each slot's branch when no slot is rotated: its ket's branch, or
        the complemented one (None if there is none, as the row vanishes)."""
        return [self.closing if b is None else b for b in self.branch]


def _two_slot_chain(
    spec: EmbezzleSpec, N: int, weight: float, overlap: float, *, half_subset: bool
) -> cb.ChainReport:
    """The chain whose adjacent settings disagree with D(theta, phi) = W (c^2 s'^2
    + s^2 c'^2) - 4 c c' s s' G (section comment), W = `weight`, G = `overlap`,
    each term clipped to [0, 1].  A half-subset chain negates setting 0 at its
    terminal setting 2N, so that term is 1 - D(0, phi).  Both kinds carry the
    uniform slot state's closed form: 2N sin^2(pi/4N) for a half-subset chain,
    2N (2/r) sin^2(pi/4N) for a pair chain."""
    if N < 1:
        raise ValueError(f"chain depth N must be >= 1, got {N}")
    terms = []
    for a, b in cb.adjacent_setting_pairs(N):
        negated = half_subset and a == 2 * N
        theta = 0.0 if negated else a * math.pi / (2 * N)
        phi = b * math.pi / (2 * N)
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        cp, sp = math.cos(phi / 2), math.sin(phi / 2)
        value = weight * (c * c * sp * sp + s * s * cp * cp) - 4 * c * cp * s * sp * overlap
        value = max(0.0, value)
        terms.append(cb.PairTerm(a, b, min(1.0, 1.0 - value if negated else value)))
    if half_subset:
        closed_form = cb.bell_chain_closed_form(N)
    else:
        closed_form = 2 * N * uniform_pair_disagreement_closed_form(spec.r, N)
    return cb.ChainReport(N=N, pair_terms=tuple(terms), closed_form=closed_form)


def fast_half_subset_chain(
    spec: EmbezzleSpec,
    N: int,
    subset: Sequence[Pair],
    pairing: Mapping[Pair, Pair],
    stats: SlotStatistics,
) -> cb.ChainReport:
    """Half-subset chained correlation measure via slot statistics.  Summed over
    the subset J, the three Born terms give D = W (c^2 s'^2 + s^2 c'^2)
    - 4 c c' s s' G, W the weight of J and its partners pi(J) and
    G = sum_{s in J} G_{s,pi(s)}; setting 2N negates setting 0, so the
    terminal term is 1 - D(0, phi)."""
    links = [(slot, tuple(pairing[slot])) for slot in _require_half_subset(spec, subset, pairing)]
    weight = math.fsum(stats.weights[p] for link in links for p in link)
    return _two_slot_chain(spec, N, weight, stats.overlap(links), half_subset=True)


def fast_pair_chain(
    spec: EmbezzleSpec, N: int, pair_lo: Pair, pair_hi: Pair, stats: SlotStatistics
) -> cb.ChainReport:
    """Two-slot chained correlation measure via slot statistics.  Spectator slots
    agree on both sides of a slot-diagonal state, so only the rotated pair
    contributes: Pr(A != B) = (w_s + w_t)(c^2 s'^2 + s^2 c'^2) - 4 c c' s s' G_st."""
    _require_slots(spec, (pair_lo, pair_hi))
    if pair_lo == pair_hi:
        raise ValueError("the rotated pair must consist of two distinct indices")
    weight = stats.weights[pair_lo] + stats.weights[pair_hi]
    overlap = stats.overlap([(pair_lo, pair_hi)])
    return _two_slot_chain(spec, N, weight, overlap, half_subset=False)


def sorted_extreme_half_subset(spec: EmbezzleSpec, stats: SlotStatistics) -> tuple[Pair, ...]:
    """The half-subset of largest-weight slots: for a single-lambda (Born-like)
    response it realizes the maximal half-subset deviation from 1/2."""
    ordered = sorted(spec.pairs, key=lambda p: stats.weights[p], reverse=True)
    return tuple(ordered[: spec.r // 2])


def half_subset_family(
    spec: EmbezzleSpec, count: int, seed: int = 0
) -> list[tuple[tuple[Pair, ...], dict[Pair, Pair]]]:
    """Deterministic audit family of half-size slot subsets with pairings.

    Starts with structured extremes (lexicographic first half, which concentrates
    low-system slots and forces cross-system pairings; a per-system balanced
    split, which pairs within systems where possible; alternating slots) and
    fills up with seeded uniform samples.  Enumerates everything when the total
    number of half-subsets is small.
    """
    half = spec.r // 2
    all_pairs = spec.pairs
    total = math.comb(spec.r, half)
    subsets: list[tuple[Pair, ...]] = []

    if total <= max(count, 256):
        subsets = [tuple(s) for s in itertools.combinations(all_pairs, half)]
    else:
        seen: set[tuple[Pair, ...]] = set()

        def add(subset: Sequence[Pair]) -> None:
            key = tuple(sorted(subset))
            if key not in seen and len(key) == half:
                seen.add(key)
                subsets.append(key)

        add(all_pairs[:half])
        balanced: list[Pair] = []
        for i in range(spec.d):
            block = [p for p in all_pairs if p[0] == i]
            balanced.extend(block[: len(block) // 2])
        while len(balanced) < half:
            remaining = [p for p in all_pairs if p not in balanced]
            balanced.append(remaining[0])
        add(balanced[:half])
        add(all_pairs[::2][:half] if len(all_pairs[::2]) >= half else all_pairs[:half])
        rng = np.random.default_rng(seed)
        while len(subsets) < count:
            picks = rng.choice(len(all_pairs), size=half, replace=False)
            add(tuple(all_pairs[i] for i in sorted(picks)))

    return [(subset, default_pairing(spec, subset)) for subset in subsets[: max(count, 1)]]
