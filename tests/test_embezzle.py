"""Tests for Schmidt-coefficient extraction from the embezzling state: harmonic
sums, rational approximants, fidelity reports, and the approximate chains."""

import dataclasses
import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from parind_lab import chained_bell as cb
from parind_lab import cli
from parind_lab import embezzle as ez
from parind_lab.qcore import (
    DROP_TOL,
    Observable,
    SparseState,
    SystemRegistry,
    basis_state,
    born_table,
    complete_with_complement,
    identity_projector,
    span_projector,
    squared_norm,
    tensor,
)

from oracles import (
    embezzle_map,
    extract_side,
    fidelity,
    grouped_harmonic_sum,
    input_state,
)


def _chi_state(spec):
    """The extraction target chi = tau_n (x) sum_s a_s |s>|s>, built literally:
    slot s = (i, j) has amplitude a_s = c_i / sqrt(m_i) on the (pointer,
    system) registers of both sides."""
    registry = SystemRegistry(
        tuple(
            register
            for _, ptr, sys_ in ez.SIDES.values()
            for register in ((ptr, spec.max_m), (sys_, spec.d))
        )
    )
    slots = SparseState(
        registry, {(j, i, j, i): spec.c[i] / math.sqrt(spec.m[i]) for i, j in spec.pairs}
    )
    return tensor(ez.tau(spec.n), slots)


def _literal_chi_chain(spec, N, lo, hi):
    """The literal projector chain rotating slots lo and hi, on chi."""
    chi = _chi_state(spec)
    a_family, b_family = (
        ez.pair_chain_observables(spec, N, lo, hi, chi.registry, side) for side in "AB"
    )
    return cb.chain_correlation(chi, N, a_family, b_family).value


# ---------------------------------------------------------------------------
# Harmonic sums and the interpolated Z


def test_harmonic_number_small_values():
    assert ez.harmonic_number(0) == 0.0
    assert ez.harmonic_number(1) == 1.0
    assert ez.harmonic_number(4) == pytest.approx(25.0 / 12.0, abs=1e-15)


def test_harmonic_number_is_the_exactly_rounded_sum_at_large_k():
    assert ez.harmonic_number(10**5) == math.fsum(1.0 / j for j in range(1, 10**5 + 1))


@pytest.mark.parametrize("k", [0, 1, 2, 10, 10**3, 10**5])
def test_harmonic_number_has_the_bits_of_the_generator_sum(k):
    """The numpy-formed terms 1.0 / j are Python's, and fsum is exactly
    rounded, so the sum keeps the generator form's bits."""
    expected = math.fsum(1.0 / j for j in range(1, k + 1))
    assert ez.harmonic_number(k).hex() == expected.hex()


def test_harmonic_number_rejects_negative():
    with pytest.raises(ValueError):
        ez.harmonic_number(-1)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 7])
@pytest.mark.parametrize("n", [1, 2, 17, 100])
def test_interpolated_harmonic_matches_grouped_sum(n, m):
    """Z(n/m) has an independent form: group the n summands of C_n into runs of
    m equal ceilings.  The two routes must agree to near machine precision."""
    z = ez.interpolated_harmonic(Fraction(n, m))
    grouped = grouped_harmonic_sum(n, m)
    assert abs(z - grouped) < 1e-12


def test_interpolated_harmonic_integer_points():
    for k in (1, 5, 42):
        assert ez.interpolated_harmonic(k) == pytest.approx(ez.harmonic_number(k))


def test_interpolated_harmonic_log_bounds():
    for y in np.geomspace(1.0, 1e6, 40):
        z = ez.interpolated_harmonic(float(y))
        assert math.log(y + 1.0) <= z + 1e-12
        assert z <= 1.0 + math.log(y) + 1e-12


def test_grouped_sum_validates_arguments():
    with pytest.raises(ValueError):
        grouped_harmonic_sum(-1, 2)
    with pytest.raises(ValueError):
        grouped_harmonic_sum(5, 0)


# ---------------------------------------------------------------------------
# Exact rational machinery


def test_lcd_thirds():
    r, m = ez.lcd(["1/3", "2/3"])
    assert (r, m) == (3, (1, 2))


def test_lcd_include_half_forces_even_denominator():
    r, m = ez.lcd(["1/3", "2/3"], include_half=True)
    assert (r, m) == (6, (2, 4))


def test_lcd_rejects_bad_sums():
    with pytest.raises(ValueError):
        ez.lcd(["1/3", "1/3"])


def test_lcd_rejects_floats():
    with pytest.raises(TypeError):
        ez.lcd([1.0 / 3.0, 2.0 / 3.0])


def test_rational_approximants_sum_to_one_with_small_error():
    squares = [1.0 / math.pi, 1.0 - 1.0 / math.pi]
    for l in (3, 10, 50):
        approx = ez.rational_approximants(squares, l)
        assert sum(approx) == 1
        for a, c in zip(approx, squares):
            assert abs(float(a) - c) <= len(squares) / (2.0 * l)


def test_rational_approximants_reports_smallest_workable_index():
    # a tiny first coefficient rounds to numerator zero at small l
    squares = [0.01, 0.99]
    with pytest.raises(ValueError, match="l_min"):
        ez.rational_approximants(squares, 2)


@pytest.mark.parametrize("coeffs", ["0.000000001,0.999999999", "0.999999999,0.000000001"])
def test_tiny_squared_coefficient_fails_at_once_with_the_exact_l_min(coeffs):
    """l_min is about 2.5e8 here, so a search that steps l up by one never
    returns; the CLI must exit 2 at once, naming an l_min that is workable
    while l_min - 1 is not."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-m", "parind_lab.cli", "arbitrary", "--coeffs", coeffs,
         "--l", "3", "--n", "60", "--workers", "1"],
        capture_output=True, text=True, timeout=20, env=env,
    )
    assert done.returncode == 2, done.stderr
    l_min = int(re.search(r"l_min=(\d+)", done.stderr).group(1))
    squares = [float(Fraction(c)) for c in coeffs.split(",")]
    assert sum(ez.rational_approximants(squares, l_min)) == 1
    with pytest.raises(ValueError, match=f"l_min={l_min}$"):
        ez.rational_approximants(squares, l_min - 1)


def test_tiny_last_square_past_the_scan_names_a_workable_index():
    """For d >= 3 the smallest workable index can lie far past the scan (about
    2.5e8 here); the error then names an index the approximants accept."""
    squares = [0.5, 0.5 - 1e-9, 1e-9]
    with pytest.raises(ValueError, match="no index below") as refused:
        ez.rational_approximants(squares, 2)
    workable = int(re.search(r"but l=(\d+) is$", str(refused.value)).group(1))
    assert sum(ez.rational_approximants(squares, workable)) == 1


# ---------------------------------------------------------------------------
# Specs


def test_spec_from_exact_thirds():
    spec = ez.EmbezzleSpec.from_exact(["1/3", "2/3"], n=100)
    assert (spec.r, spec.m) == (3, (1, 2))
    assert spec.pairs == ((0, 0), (1, 0), (1, 1))
    assert spec.max_m == 2
    assert spec.coefficient_error == 0.0
    assert spec.c_l == pytest.approx(spec.c)


def test_spec_from_reals_has_even_denominator():
    spec = ez.EmbezzleSpec.from_reals([1.0 / math.pi, 1.0 - 1.0 / math.pi], l=10, n=50)
    # denominators reduce: 6/20 and 14/20 share the factor 2, so r = 10 here
    assert spec.r % 2 == 0
    assert (2 * 10) % spec.r == 0
    assert sum(spec.m) == spec.r
    assert spec.l == 10
    assert spec.coefficient_error <= 2.0 / (2.0 * 10)


def test_spec_rejects_inconsistent_numerators():
    with pytest.raises(ValueError):
        ez.EmbezzleSpec(c=(1.0,), n=10, r=3, m=(2,))


def test_spec_with_n_keeps_structure():
    spec = ez.EmbezzleSpec.from_exact(["1/2", "1/2"], n=10)
    bumped = spec.with_n(200)
    assert bumped.n == 200
    assert bumped.m == spec.m


def test_pair_eigenvalue_scheme_distinct_on_slots():
    spec = ez.EmbezzleSpec.from_exact(["1/6", "1/3", "1/2"], n=10)
    values = [ez.pair_eigenvalue_scheme(p) for p in spec.pairs]
    assert len(set(values)) == len(values)


# ---------------------------------------------------------------------------
# States


def test_tau_amplitudes_follow_inverse_harmonic_weights():
    n = 7
    state = ez.tau(n)
    c_n = ez.harmonic_number(n)
    for j in range(n):
        assert state.amplitudes[(j, j)] == pytest.approx(1.0 / math.sqrt(c_n * (j + 1)))


def test_phi_schmidt_is_diagonal():
    state = ez.phi_schmidt([math.sqrt(0.25), math.sqrt(0.75)])
    assert set(state.amplitudes) == {(0, 0), (1, 1)}


def test_embezzled_state_is_slot_diagonal_and_normalized():
    spec = ez.EmbezzleSpec.from_exact(["1/3", "2/3"], n=12)
    state = ez.embezzled_state(spec)
    assert squared_norm(state.amplitudes) == pytest.approx(1.0)
    stats = ez.slot_statistics(state, spec)
    assert math.fsum(stats.weights.values()) == pytest.approx(1.0)


def _map_route_state(spec):
    """The literal route to the embezzled state: the extraction map on side A,
    then on side B, of tau_n (x) |00> (x) phi."""
    state = input_state(spec)
    for side in ez.SIDES:
        state = extract_side(spec, state, side)
    return state


@st.composite
def direct_state_specs(draw):
    """Specs from exact squares, from exact squares with an even denominator,
    and from real squares through the denominator-2l approximants; d <= 4 and
    max m <= n <= 300."""
    kind = draw(st.sampled_from(["exact", "even", "reals"]))
    weights = draw(st.lists(st.integers(1, 9), min_size=2 if kind == "reals" else 1, max_size=4))
    if kind == "reals":
        try:
            spec = ez.EmbezzleSpec.from_reals(
                [w / sum(weights) for w in weights], draw(st.integers(1, 12)), n=1
            )
        except ValueError:  # l below the smallest workable index
            reject()
    else:
        squares = [Fraction(w, sum(weights)) for w in weights]
        spec = ez.EmbezzleSpec.from_exact(squares, n=1, even_denominator=kind == "even")
    return spec.with_n(draw(st.integers(spec.max_m, 300)))


@settings(deadline=None, max_examples=80)
@given(direct_state_specs())
def test_embezzled_state_is_the_map_route_state(spec):
    """The states built from the terms are the map route's states, extracted
    on both sides and on side A alone: the same registry, the same key order
    and the same amplitude bits."""
    one_side = extract_side(spec, input_state(spec), "A")
    for direct, literal in [
        (ez.embezzled_state(spec), _map_route_state(spec)),
        (ez.one_side_embezzled_state(spec), one_side),
    ]:
        assert direct.registry == literal.registry
        assert np.array_equal(direct.keys, literal.keys)
        assert list(direct.amplitudes) == list(literal.amplitudes)
        assert direct.values.tobytes() == literal.values.tobytes()


def test_embezzled_state_refuses_too_few_levels_like_the_map_route():
    spec = ez.EmbezzleSpec.from_exact(["1/6", "5/6"], n=4)
    message = "precision n=4 must be at least max numerator 5"
    with pytest.raises(ValueError, match=message):
        ez.embezzled_state(spec)
    with pytest.raises(ValueError, match=message):
        ez.one_side_embezzled_state(spec)
    with pytest.raises(ValueError, match=message):
        _map_route_state(spec)
    with pytest.raises(ValueError, match=message):
        extract_side(spec, input_state(spec), "A")
    with pytest.raises(ValueError, match=message):
        embezzle_map(spec.n, spec.m, SystemRegistry((("A2", 4), ("A1", 5), ("A", 2))))


def test_chi_state_weights_are_numerator_fractions():
    spec = ez.EmbezzleSpec.from_exact(["1/3", "2/3"], n=9)
    stats = ez.slot_statistics(_chi_state(spec), spec)
    for (i, _j), weight in stats.weights.items():
        assert weight == pytest.approx(spec.c[i] ** 2 / spec.m[i])


def test_slot_statistics_rejects_off_diagonal_states():
    spec = ez.EmbezzleSpec.from_exact(["1/3", "2/3"], n=4)
    registry = ez.embezzled_state(spec).registry
    width = len(registry.labels)
    key = tuple(0 for _ in range(width))
    bumped = list(key)
    bumped[registry.axis("B")] = 1  # break the mirror symmetry on one side
    off_diagonal = SparseState(registry, {tuple(bumped): 1.0})
    with pytest.raises(ValueError, match="not slot-diagonal"):
        ez.slot_statistics(off_diagonal, spec)


# ---------------------------------------------------------------------------
# Fidelity report


def test_direct_sum_matches_projected_overlap():
    """Two routes to the same fidelity: the literal overlap of the embezzled
    state with the materialized chi, and the overlap accumulated over the
    embezzled state's support with the analytic chi amplitudes."""
    for squares in (["1/3", "2/3"], ["1/6", "1/3", "1/2"]):
        for n in (5, 23, 60):
            spec = ez.EmbezzleSpec.from_exact(squares, n=n)
            report = ez.embezzlement_fidelity(spec)
            literal = fidelity(ez.embezzled_state(spec), _chi_state(spec))
            assert abs(report.computed_fidelity - literal) < 1e-12


def test_fidelity_frozen_two_level_oracle():
    # hand-computed: c^2 = (1/3, 2/3) at n = 2 gives F = 5/9 + 2 sqrt(2)/9
    spec = ez.EmbezzleSpec.from_exact(["1/3", "2/3"], n=2)
    report = ez.embezzlement_fidelity(spec)
    assert report.computed_fidelity == pytest.approx(
        5.0 / 9.0 + 2.0 * math.sqrt(2.0) / 9.0, abs=1e-14
    )


def test_fidelity_exceeds_z_form_when_numerators_are_nontrivial():
    spec = ez.EmbezzleSpec.from_exact(["1/3", "2/3"], n=100)
    report = ez.embezzlement_fidelity(spec)
    assert report.lower_bound_holds
    # strict gap, not a tolerance artifact
    assert report.computed_fidelity - report.z_form_fidelity > 0.01


def test_z_form_equals_direct_sum_when_all_numerators_are_one():
    # m = (1, 1): each block extracts a full copy, the grouped sum degenerates
    spec = ez.EmbezzleSpec.from_exact(["1/2", "1/2"], n=31)
    report = ez.embezzlement_fidelity(spec)
    assert abs(report.computed_fidelity - report.z_form_fidelity) < 1e-12


def test_trace_distance_bound_and_monotonicity():
    spec = ez.EmbezzleSpec.from_exact(["1/3", "2/3"], n=10)
    previous = None
    for n in (10, 40, 160, 640):
        report = ez.embezzlement_fidelity(spec.with_n(n))
        assert report.distance_bound_holds
        one_minus_f = 1.0 - report.computed_fidelity
        if previous is not None:
            assert one_minus_f < previous
        previous = one_minus_f


def test_distance_bound_requires_enough_levels():
    spec = ez.EmbezzleSpec.from_exact(["1/6", "5/6"], n=3)
    with pytest.raises(ValueError, match="n >= max m"):
        ez.embezzlement_distance_bound(spec)


def test_chi_phi_fidelity_is_one_for_exact_specs():
    spec = ez.EmbezzleSpec.from_exact(["1/6", "1/3", "1/2"], n=8)
    assert ez.chi_phi_fidelity(spec) == pytest.approx(1.0)
    d1, d2 = ez.extraction_distances(spec)
    assert d2 == pytest.approx(0.0, abs=1e-7)
    assert 0.0 < d1 < 1.0


def test_extraction_distances_match_the_fidelity_report():
    """D(U psi, chi) is the fidelity report's trace distance, and D(chi,
    uniform) comes from `chi_phi_fidelity`."""
    spec = ez.EmbezzleSpec.from_reals([1.0 / math.pi, 1.0 - 1.0 / math.pi], l=5, n=20)
    d1, d2 = ez.extraction_distances(spec)
    assert d1 == ez.embezzlement_fidelity(spec).trace_distance
    f2 = ez.chi_phi_fidelity(spec)
    assert d2 == math.sqrt(1.0 - f2 * f2)


def test_chi_phi_fidelity_below_one_for_approximants():
    spec = ez.EmbezzleSpec.from_reals([1.0 / math.pi, 1.0 - 1.0 / math.pi], l=5, n=20)
    assert ez.chi_phi_fidelity(spec) < 1.0


# ---------------------------------------------------------------------------
# Approximate chains: literal projector route vs slot fast path


def test_pair_chain_literal_vs_fast_route():
    spec = ez.EmbezzleSpec.from_exact(["1/3", "2/3"], n=30)
    state = ez.embezzled_state(spec)
    stats = ez.slot_statistics(state, spec)
    for N in (1, 2):
        literal = ez.correlation_measure_INn(spec, N, (1, 0), (1, 1), state=state)
        fast = ez.fast_pair_chain(spec, N, (1, 0), (1, 1), stats)
        assert abs(literal.value - fast.value) < 1e-12


def test_pair_chain_deviation_bound_holds():
    spec = ez.EmbezzleSpec.from_exact(["1/3", "2/3"], n=50)
    report = ez.correlation_measure_INn(spec, 2, (1, 0), (1, 1))
    assert report.reference_value is not None
    assert abs(report.value - report.reference_value) <= report.deviation_bound
    # the reference chain on the extraction target hits the closed form exactly
    assert report.reference_value == pytest.approx(report.closed_form, abs=1e-12)


def test_pair_chain_with_and_without_state_agree():
    spec = ez.EmbezzleSpec.from_exact(["1/3", "2/3"], n=20)
    given = ez.correlation_measure_INn(spec, 2, (1, 0), (1, 1), state=ez.embezzled_state(spec))
    built = ez.correlation_measure_INn(spec, 2, (1, 0), (1, 1))
    assert given.value == built.value
    assert given.reference_value == built.reference_value
    assert given.deviation_bound == built.deviation_bound


def test_pair_chain_rejects_unknown_slots():
    spec = ez.EmbezzleSpec.from_exact(["1/3", "2/3"], n=10)
    with pytest.raises(ValueError, match="not among the spec's slots"):
        ez.correlation_measure_INn(spec, 1, (0, 0), (0, 5))


def test_pair_chain_refuses_a_state_of_another_spec():
    """A state built for another n would feed the literal chain while the
    reference and the bound come from the spec."""
    spec = ez.EmbezzleSpec.from_exact(["1/3", "2/3"], n=20)
    for other in (spec.with_n(30), ez.EmbezzleSpec.from_exact(["1/6", "1/3", "1/2"], n=20)):
        with pytest.raises(ValueError, match=r"registry of embezzled_state\(spec\)"):
            ez.correlation_measure_INn(spec, 2, (1, 0), (1, 1), state=ez.embezzled_state(other))


@st.composite
def chi_reference_cases(draw):
    """An exact spec, or a `from_reals` spec whose squares are not its
    approximants (so chi is not uniform), with a depth N and two distinct
    slots."""
    if draw(st.booleans()):
        weights = draw(st.lists(st.integers(1, 4), min_size=2, max_size=3))
        spec = ez.EmbezzleSpec.from_exact([Fraction(w, sum(weights)) for w in weights], n=1)
    else:
        weights = draw(st.lists(st.floats(0.1, 1.0), min_size=2, max_size=3))
        squares = [w / math.fsum(weights) for w in weights]
        try:
            spec = ez.EmbezzleSpec.from_reals(squares, draw(st.integers(1, 4)), 1)
        except ValueError:
            reject()
        if spec.coefficient_error == 0.0:
            reject()
    spec = spec.with_n(draw(st.integers(spec.max_m, spec.max_m + 20)))
    lo, hi = draw(st.permutations(spec.pairs))[:2]
    return spec, draw(st.sampled_from([1, 2, 3])), lo, hi


@settings(deadline=None, max_examples=60)
@given(chi_reference_cases())
def test_pair_chain_reference_is_the_literal_chi_chain(case):
    """The reference the slot kernel gives at W = a_lo^2 + a_hi^2 and
    G = a_lo a_hi is the literal projector chain on the built chi."""
    spec, N, lo, hi = case
    report = ez.correlation_measure_INn(spec, N, lo, hi)
    assert abs(report.reference_value - _literal_chi_chain(spec, N, lo, hi)) < 1e-12


def test_pair_chain_reference_departs_from_the_uniform_closed_form():
    """chi is not uniform for real squares: its slots of block i weigh
    c_i^2 / m_i, 0.1592 and 0.1704 here, not 1/6."""
    spec = ez.EmbezzleSpec.from_reals([1.0 / math.pi, 1.0 - 1.0 / math.pi], l=3, n=200)
    report = ez.correlation_measure_INn(spec, 2, (0, 0), (1, 0))
    assert round(report.reference_value, 5) == 0.19320
    assert round(report.closed_form, 5) == 0.19526
    assert abs(report.reference_value - _literal_chi_chain(spec, 2, (0, 0), (1, 0))) < 1e-12


def test_half_subset_chain_literal_vs_fast_route():
    spec = ez.EmbezzleSpec.from_exact(["1/3", "2/3"], n=14, even_denominator=True)
    stats = ez.slot_statistics(ez.embezzled_state(spec), spec)
    subset = spec.pairs[: spec.r // 2]
    pairing = ez.default_pairing(spec, subset)
    for N in (1, 2):
        literal = ez.correlation_measure_IJlNnl(spec, N, subset, pairing)
        fast = ez.fast_half_subset_chain(spec, N, subset, pairing, stats)
        assert abs(literal.value - fast.value) < 1e-12


@st.composite
def small_chain_cases(draw):
    """A small exact even-denominator spec, a depth N, a half-subset with its
    pairing from `half_subset_family`, and two distinct slots."""
    weights = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    spec = ez.EmbezzleSpec.from_exact(
        [Fraction(w, sum(weights)) for w in weights], n=1, even_denominator=True
    )
    spec = spec.with_n(draw(st.integers(spec.max_m, 30)))
    subset, pairing = draw(st.sampled_from(ez.half_subset_family(spec, count=16)))
    lo, hi = draw(st.permutations(spec.pairs))[:2]
    return spec, draw(st.sampled_from([1, 2, 3])), subset, pairing, lo, hi


@settings(deadline=None, max_examples=60)
@given(small_chain_cases())
def test_both_fast_chains_equal_the_literal_routes(case):
    """Any subset, pairing and slot pair, not only the first half and the
    default pairing: the (W, G) kernel matches the projector route."""
    spec, N, subset, pairing, lo, hi = case
    stats = ez.slot_statistics_from_spec(spec)
    literal_half = ez.correlation_measure_IJlNnl(spec, N, subset, pairing)
    fast_half = ez.fast_half_subset_chain(spec, N, subset, pairing, stats)
    assert abs(fast_half.value - literal_half.value) < 1e-12
    literal_pair = ez.correlation_measure_INn(spec, N, lo, hi)
    assert abs(ez.fast_pair_chain(spec, N, lo, hi, stats).value - literal_pair.value) < 1e-12


def test_fast_chains_refuse_what_the_literal_routes_refuse():
    spec = ez.EmbezzleSpec.from_exact(["1/3", "2/3"], n=10, even_denominator=True)
    stats = ez.slot_statistics_from_spec(spec)
    subset = spec.pairs[: spec.r // 2]
    pairing = ez.default_pairing(spec, subset)
    host = ez.embezzled_state(spec).registry
    for N in (0, -1):
        # one setting and a whole half-subset family, before any angle divides by 2N
        for side, setting in (("A", 0), ("B", 1)):
            with pytest.raises(ValueError, match=f"chain depth N must be >= 1, got {N}"):
                ez.half_subset_observable(spec, N, subset, pairing, host, side, setting)
            with pytest.raises(ValueError, match=f"chain depth N must be >= 1, got {N}"):
                ez.half_subset_observables(spec, N, subset, pairing, host, side)
        with pytest.raises(ValueError, match="chain depth N must be >= 1"):
            ez.correlation_measure_INn(spec, N, (0, 0), (1, 0))
        with pytest.raises(ValueError, match="chain depth N must be >= 1"):
            ez.fast_pair_chain(spec, N, (0, 0), (1, 0), stats)
        with pytest.raises(ValueError, match="chain depth N must be >= 1"):
            ez.fast_half_subset_chain(spec, N, subset, pairing, stats)
        with pytest.raises(ValueError, match="chain depth N must be >= 1"):
            ez.correlation_measure_IJlNnl(spec, N, subset, pairing)
    with pytest.raises(ValueError, match="two distinct indices"):
        ez.correlation_measure_INn(spec, 1, (1, 0), (1, 0))
    with pytest.raises(ValueError, match="two distinct indices"):
        ez.fast_pair_chain(spec, 1, (1, 0), (1, 0), stats)
    unknown = r"pair slot \(0, 5\) is not among the spec's slots"
    with pytest.raises(ValueError, match=unknown):
        ez.correlation_measure_INn(spec, 1, (0, 0), (0, 5))
    with pytest.raises(ValueError, match=unknown):
        ez.fast_pair_chain(spec, 1, (0, 0), (0, 5), stats)
    stray = (subset[0], (0, 5)) + subset[2:]
    stray_pairing = {**pairing, (0, 5): pairing[subset[1]]}
    outside = {**pairing, subset[0]: (0, 5)}
    for half_route in (
        lambda half, partner: ez.correlation_measure_IJlNnl(spec, 1, half, partner),
        lambda half, partner: ez.fast_half_subset_chain(spec, 1, half, partner, stats),
    ):
        with pytest.raises(ValueError, match=unknown):
            half_route(stray, stray_pairing)
        with pytest.raises(ValueError, match="pairing must be a bijection"):
            half_route(subset, outside)
        with pytest.raises(ValueError, match="pairing must be a bijection"):
            half_route(subset, {})


def test_half_subset_chain_deviation_bound_holds():
    spec = ez.EmbezzleSpec.from_exact(["1/3", "2/3"], n=40, even_denominator=True)
    subset = spec.pairs[: spec.r // 2]
    pairing = ez.default_pairing(spec, subset)
    report = ez.correlation_measure_IJlNnl(spec, 2, subset, pairing)
    assert abs(report.value - report.closed_form) <= report.deviation_bound


def test_half_subset_literal_chain_on_uniform_slot_state_hits_closed_form():
    """The literal projector route on the uniform slot state gives the
    closed form 2N sin^2(pi/4N) that `correlation_measure_IJlNnl` attaches."""
    spec = ez.EmbezzleSpec.from_exact(["1/3", "2/3"], n=10, even_denominator=True)
    state = ez.phi_uniform_state(spec)
    subset = spec.pairs[: spec.r // 2]
    pairing = ez.default_pairing(spec, subset)
    N = 2
    a_family, b_family = (
        ez.half_subset_observables(spec, N, subset, pairing, state.registry, side)
        for side in "AB"
    )
    reference = cb.chain_correlation(state, N, a_family, b_family)
    closed_form = ez.correlation_measure_IJlNnl(spec, N, subset, pairing).closed_form
    assert reference.value == pytest.approx(closed_form, abs=1e-12)


def test_half_subset_uniform_reference_hits_closed_form():
    """On the uniform slot state every pair term collapses to sin^2(pi/4N),
    terminal step included."""
    spec = ez.EmbezzleSpec.from_exact(["1/3", "2/3"], n=6, even_denominator=True)
    stats = ez.slot_statistics(ez.phi_uniform_state(spec), spec)
    for N in (2, 4):
        expected = math.sin(math.pi / (4 * N)) ** 2
        subset = spec.pairs[: spec.r // 2]
        report = ez.fast_half_subset_chain(spec, N, subset, ez.default_pairing(spec, subset), stats)
        for term in report.pair_terms:
            assert term.probability == pytest.approx(expected, abs=1e-12)


def test_default_pairing_is_a_bijection_onto_complement():
    spec = ez.EmbezzleSpec.from_exact(["1/3", "2/3"], n=5, even_denominator=True)
    subset = spec.pairs[: spec.r // 2]
    pairing = ez.default_pairing(spec, subset)
    assert sorted(pairing.values()) == sorted(set(spec.pairs) - set(subset))


def test_half_subset_family_enumerates_small_cases():
    spec = ez.EmbezzleSpec.from_exact(["1/3", "2/3"], n=5, even_denominator=True)
    family = ez.half_subset_family(spec, count=500)
    assert len(family) == math.comb(6, 3)
    for subset, pairing in family:
        assert len(subset) == 3
        assert sorted(pairing.values()) == sorted(set(spec.pairs) - set(subset))


def test_sorted_extreme_half_subset_orders_by_weight():
    spec = ez.EmbezzleSpec.from_exact(["1/3", "2/3"], n=20, even_denominator=True)
    stats = ez.slot_statistics(ez.embezzled_state(spec), spec)
    extreme = ez.sorted_extreme_half_subset(spec, stats)
    assert len(extreme) == spec.r // 2
    cutoff = min(stats.weights[p] for p in extreme)
    for p in set(spec.pairs) - set(extreme):
        assert stats.weights[p] <= cutoff + 1e-15


def test_embezzled_state_fidelity_against_chi_matches_report():
    spec = ez.EmbezzleSpec.from_exact(["1/3", "2/3"], n=25)
    report = ez.embezzlement_fidelity(spec)
    direct = fidelity(ez.embezzled_state(spec), _chi_state(spec))
    assert direct == pytest.approx(report.computed_fidelity, abs=1e-12)


# ---------------------------------------------------------------------------
# Spec-only routes against the embezzled state


def _chi_overlap_on_state(spec, mapped):
    """<chi | U (x) U psi> summed over the support of the embezzled state
    `mapped` with the analytic chi amplitudes: the state-loop oracle of the
    spec-only overlap."""
    axes = mapped.registry.axes(ez.SIDES["A"] + ez.SIDES["B"])
    c_n = ez.harmonic_number(spec.n)
    total = 0.0
    for key, amp in mapped.amplitudes.items():
        q_a, j_a, i_a, q_b, j_b, i_b = (key[axis] for axis in axes)
        if (q_a, j_a, i_a) != (q_b, j_b, i_b) or j_a >= spec.m[i_a]:
            continue
        chi_amp = spec.c[i_a] / math.sqrt(c_n * (q_a + 1) * spec.m[i_a])
        total += chi_amp * amp.real
    return total


@st.composite
def embezzle_specs(draw):
    """Small specs of both kinds: exact squares with 1-4 coefficients, and
    real squares through the denominator-2l approximants."""
    if draw(st.booleans()):
        weights = draw(st.lists(st.integers(1, 9), min_size=1, max_size=4))
        squares = [Fraction(w, sum(weights)) for w in weights]
        spec = ez.EmbezzleSpec.from_exact(squares, n=1)
        return spec.with_n(draw(st.integers(spec.max_m, max(spec.max_m, 500))))
    l = draw(st.integers(1, 12))
    weights = draw(st.lists(st.integers(1, 9), min_size=2, max_size=3))
    squares = [w / sum(weights) for w in weights]
    try:
        spec = ez.EmbezzleSpec.from_reals(squares, l, n=1)
    except ValueError:  # l below the smallest workable index
        reject()
    return spec.with_n(draw(st.integers(spec.max_m, max(spec.max_m, 500))))


@settings(deadline=None, max_examples=60)
@given(embezzle_specs())
def test_spec_only_routes_equal_the_state_routes(spec):
    """Slot statistics and the chi overlap summed from the spec are the state
    routes' floats, in the same key order: no tolerance."""
    state = ez.embezzled_state(spec)
    expected = ez.slot_statistics(state, spec)
    got = ez.slot_statistics_from_spec(spec)
    assert got.pairs == expected.pairs
    assert got.weights == expected.weights
    assert list(got.weights) == list(expected.weights)
    assert [v.tobytes() for v in got.aux] == [v.tobytes() for v in expected.aux]
    c_n = ez.harmonic_number(spec.n)
    assert ez._chi_overlap(spec, c_n) == _chi_overlap_on_state(spec, state)


def _slot_statistics_loop(state, spec):
    """The entry-by-entry loop the array `slot_statistics` replaced: the
    oracle for its refusals, weights, key order and slot vectors."""
    axes = state.registry.axes(ez.SIDES["A"] + ez.SIDES["B"])
    row = {s: k for k, s in enumerate(spec.pairs)}
    weights = {s: 0.0 for s in spec.pairs}
    aux = {}
    seen = set()
    for key, amp in state.amplitudes.items():
        q_a, j_a, i_a, q_b, j_b, i_b = (key[axis] for axis in axes)
        if (q_a, j_a, i_a) != (q_b, j_b, i_b) or (q_a, j_a, i_a) in seen:
            raise ValueError("state is not slot-diagonal; use the literal chain route")
        seen.add((q_a, j_a, i_a))
        value = complex(amp)
        if abs(value.imag) > 1e-14:
            raise ValueError("slot fast path requires real amplitudes")
        slot = (i_a, j_a)
        if slot not in weights:
            raise ValueError(f"state occupies slot {slot} outside the spec's slots")
        value = value.real
        weights[slot] += value * value
        aux[row[slot], q_a] = aux.get((row[slot], q_a), 0.0) + value
    vectors = [np.zeros(1 + max((q for r, q in aux if r == k), default=-1)) for k in range(spec.r)]
    for (k, q), value in aux.items():
        vectors[k][q] = value
    return ez.SlotStatistics(
        pairs=spec.pairs, weights=weights, aux=tuple(vectors), registry=state.registry
    )


def _slot_outcome(statistics, state, spec):
    try:
        stats = statistics(state, spec)
    except ValueError as exc:  # the message itself is the outcome compared
        return str(exc)
    return (
        stats.pairs,
        list(stats.weights.items()),
        [v.tobytes() for v in stats.aux],
        stats.registry,
    )


@settings(deadline=None, max_examples=100)
@given(embezzle_specs(), st.data())
def test_slot_statistics_read_the_arrays_as_the_entry_loop_did(spec, data):
    """The embezzled state, with a spectator register or with one to three
    entries moved off the slot diagonal, to an unknown slot or to a complex
    amplitude: the vectorised checks refuse at the same first entry with the
    same message, and otherwise the statistics keep their bits."""
    state = ez.embezzled_state(spec)
    registry = state.registry
    if data.draw(st.booleans(), label="spectator"):
        state = tensor(state, SparseState(SystemRegistry((("W", 2),)), {(1,): 1.0}))
    keys, values = state.keys.copy(), state.values.copy()
    for _ in range(data.draw(st.integers(0, 3), label="edits")):
        k = data.draw(st.integers(0, len(keys) - 1), label="row")
        kind = data.draw(st.sampled_from(["register", "slot", "phase"]), label="kind")
        if kind == "phase":
            values[k] *= data.draw(st.sampled_from([1j, 1 + 1e-13j, 1 + 1e-15j]), label="phase")
        else:
            # move one register's index, or both pointers' together, by a shift
            if kind == "slot":
                labels = ("A1", "B1")
            else:
                labels = (data.draw(st.sampled_from(registry.labels), label="register"),)
            dim = registry.dimension(labels[0])
            shift = data.draw(st.integers(1, max(1, dim - 1)), label="shift")
            for label in labels:
                axis = state.registry.axis(label)
                keys[k, axis] = (keys[k, axis] + shift) % dim
    try:
        edited = SparseState.from_arrays(state.registry, keys, values)
    except ValueError:  # an edit landed on a key the support already holds
        reject()
    assert _slot_outcome(ez.slot_statistics, edited, spec) == _slot_outcome(
        _slot_statistics_loop, edited, spec
    )


def test_slot_statistics_refuse_two_entries_at_one_slot_level():
    """A spectator register in superposition puts two entries at each
    (slot, level); summing them into one aux amplitude would give the fast
    chains wrong vectors, so both the array route and the entry loop refuse
    the state as not slot-diagonal.  A spectator held in one basis state
    stays accepted, with the bare state's statistics."""
    spec = ez.EmbezzleSpec.from_exact(["1/3", "2/3"], n=20)
    state = ez.embezzled_state(spec)
    plus = SparseState(SystemRegistry((("W", 2),)), {(0,): math.sqrt(0.5), (1,): math.sqrt(0.5)})
    superposed = tensor(state, plus)
    for statistics in (ez.slot_statistics, _slot_statistics_loop):
        with pytest.raises(ValueError, match="not slot-diagonal"):
            statistics(superposed, spec)
    held = tensor(state, basis_state(SystemRegistry((("W", 2),)), (1,)))
    got, bare = ez.slot_statistics(held, spec), ez.slot_statistics(state, spec)
    assert got.weights == bare.weights
    assert [v.tobytes() for v in got.aux] == [v.tobytes() for v in bare.aux]


MIB = 2**20


def _traced_memory(build):
    """What `build()` returns, with the bytes it still holds and its peak."""
    tracemalloc.start()
    try:
        built = build()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return built, held, peak


def test_embezzled_state_at_n_1e5_peaks_below_30_mib():
    """The state is filled from `_embezzled_terms` as two arrays, about 12 MiB
    for its 200 000 entries; a dict of key tuples peaked near 78 MiB."""
    spec = ez.EmbezzleSpec.from_reals((1 / math.pi, 1 - 1 / math.pi), l=50, n=10**5)
    state, _, peak = _traced_memory(lambda: ez.embezzled_state(spec))
    assert state.keys.shape == (200_000, 6)
    assert peak < 30 * MIB


def test_spectator_extension_at_n_1e5_holds_below_15_mib_more():
    """state (x) |0>_W, as the spectator premise builds it, is the key rows
    with one more column and the product amplitudes, about 13.7 MiB; a
    copied dict held 34 MiB."""
    spec = ez.EmbezzleSpec.from_reals((1 / math.pi, 1 - 1 / math.pi), l=50, n=10**5)
    state = ez.embezzled_state(spec)
    spectator = SparseState(SystemRegistry((("W", 2),)), {(0,): 1.0})
    extended, held, _ = _traced_memory(lambda: tensor(state, spectator))
    assert extended.keys.shape == (200_000, 7)
    assert held < 15 * MIB


def _chi_overlap_loop(spec, c_n):
    """The term-by-term loop the array `_chi_overlap` replaced: k outer, i
    inner, one float addition per term kept above DROP_TOL."""
    total = 0.0
    for k in range(spec.n):
        a = 1.0 / math.sqrt(c_n * (k + 1))
        for c_i, m_i in zip(spec.c, spec.m):
            amplitude = a * c_i
            if abs(amplitude) > DROP_TOL:
                total += c_i / math.sqrt(c_n * (k // m_i + 1) * m_i) * amplitude
    return total


@pytest.mark.parametrize("n", [12_345, 99_991])
@pytest.mark.parametrize("squares", [["1/3", "2/3"], ["1/6", "1/3", "1/2"], ["1/10", "1/5", "3/10", "2/5"]])
def test_chi_overlap_is_the_sequential_loop_sum(squares, n):
    """At n where pairwise summation would round differently, the array sum
    keeps the loop's order and so its bits."""
    spec = ez.EmbezzleSpec.from_exact(squares, n=n)
    c_n = ez.harmonic_number(n)
    assert ez._chi_overlap(spec, c_n) == _chi_overlap_loop(spec, c_n)


# (spec, fidelity, z-form, trace distance, extraction distances), frozen
FIDELITY_GOLDENS = [
    (ez.EmbezzleSpec.from_exact(["1/3", "2/3"], n=100),
     0.94969166822114, 0.9115581136492605, 0.3131864226165434, (0.3131864226165434, 0.0)),
    (ez.EmbezzleSpec.from_exact(["1/3", "2/3"], n=1000),
     0.9649371287129292, 0.9383118360475993, 0.2624811186185547, (0.2624811186185547, 0.0)),
    (ez.EmbezzleSpec.from_exact(["1/6", "1/3", "1/2"], n=120),
     0.9151203961115479, 0.8556812086138269, 0.4031806798702582, (0.4031806798702582, 0.0)),
    (ez.EmbezzleSpec.from_reals([1 / math.pi, 1 - 1 / math.pi], 10, 100),
     0.7962051214629882, 0.6813014933028636, 0.6050267800321802,
     (0.6050267800321802, 0.01981033242044546)),
]


@pytest.mark.parametrize(
    "spec, fidelity, z_form, distance, distances",
    FIDELITY_GOLDENS,
    ids=["exact-d2-n100", "exact-d2-n1000", "exact-d3-n120", "reals-l10-n100"],
)
def test_fidelity_reports_sum_the_harmonic_number_once(
    monkeypatch, spec, fidelity, z_form, distance, distances
):
    """C_n is summed once per report and shared by the chi overlap, the
    embezzled terms and the Z(n) of the z-form; only the d values Z(n/m_i)
    add their own harmonic sums.  Every float stays frozen."""
    calls = []
    original = ez.harmonic_number

    def counting(k):
        calls.append(k)
        return original(k)

    monkeypatch.setattr(ez, "harmonic_number", counting)
    report = ez.embezzlement_fidelity(spec)
    assert len(calls) == spec.d + 1
    calls.clear()
    assert ez.extraction_distances(spec) == distances
    assert calls == [spec.n]
    assert report.computed_fidelity == fidelity
    assert report.z_form_fidelity == z_form
    assert report.trace_distance == distance


@pytest.mark.parametrize("squares", [["1/100", "99/100"], ["1/6", "1/3", "1/2"]])
def test_slot_vectors_hold_one_entry_per_support_term(squares):
    """Each slot keeps only its own levels, so the vectors of both builders
    hold as many entries as the embezzled state has terms, not r times the
    deepest slot's level count."""
    spec = ez.EmbezzleSpec.from_exact(squares, n=5_000)
    state = ez.embezzled_state(spec)
    for stats in (ez.slot_statistics(state, spec), ez.slot_statistics_from_spec(spec)):
        assert len(stats.aux) == spec.r
        assert sum(len(v) for v in stats.aux) == len(state.amplitudes)


def test_spec_only_slot_statistics_refuse_too_few_levels():
    spec = ez.EmbezzleSpec.from_exact(["1/6", "5/6"], n=3)
    with pytest.raises(ValueError, match="at least max numerator"):
        ez.slot_statistics_from_spec(spec)


@pytest.mark.parametrize(
    "argv",
    [
        ["sqrt-rational", "--coeffs", "1/3,2/3", "--N", "2", "--n", "50,100"],
        ["embezzle", "--coeffs", "1/3,2/3", "--n", "50,100"],
    ],
)
def test_fidelity_commands_build_no_embezzled_state(argv, monkeypatch, capsys):
    builds = []
    original = ez.embezzled_state
    monkeypatch.setattr(ez, "embezzled_state", lambda spec: builds.append(spec) or original(spec))
    assert cli.main([*argv, "--workers", "1"]) == 0
    assert capsys.readouterr().out
    assert len(builds) == 0


# ---------------------------------------------------------------------------
# Born tables from the slot statistics


@st.composite
def slot_table_cases(draw):
    """A spec with 2-4 coefficients and an even slot count, from exact
    squares or from real squares through the denominator-2l approximants,
    max m <= n <= 150; a depth N in 1-8 with a setting in 0 .. 2N; and a
    random half-subset, in random order, with a random pairing onto its
    complement."""
    weights = draw(st.lists(st.integers(1, 9), min_size=2, max_size=4))
    if draw(st.booleans()):
        squares = [Fraction(w, sum(weights)) for w in weights]
        spec = ez.EmbezzleSpec.from_exact(squares, n=1, even_denominator=True)
    else:
        try:
            spec = ez.EmbezzleSpec.from_reals(
                [w / sum(weights) for w in weights], draw(st.integers(1, 12)), n=1
            )
        except ValueError:  # l below the smallest workable index
            reject()
    spec = spec.with_n(draw(st.integers(spec.max_m, 150)))
    subset = draw(st.permutations(spec.pairs))[: spec.r // 2]
    complement = draw(st.permutations([p for p in spec.pairs if p not in subset]))
    N = draw(st.integers(1, 8))
    return spec, N, draw(st.integers(0, 2 * N)), subset, dict(zip(subset, complement))


def _table_bits(table):
    return [(cell, value.hex()) for cell, value in table.items()]


@settings(deadline=None, max_examples=60)
@given(slot_table_cases())
def test_slot_term_tables_are_the_born_tables_of_the_state(case):
    """Every table the slot statistics give, on one observable or two, is
    `born_table` on the state: the same cells in the same order, to the
    last bit.  The statistics are those of the embezzled state, summed from
    the spec or read from the built state, and those of the uniform slot
    state, a slot-diagonal state whose registers come in another order
    (tau_n's aux pair first): the route's scope is every state
    `slot_statistics` accepts with real amplitudes.  The tables cover the
    ledger's (slot observables, setting-0 half-subsets, the idle remote,
    half-subset setting 1 on the remote side against both), the other
    side's slots against a rotated setting, and the spectator-extended
    state."""
    spec, N, setting, subset, pairing = case
    embezzled, uniform = ez.embezzled_state(spec), ez.phi_uniform_state(spec)
    assert uniform.registry != embezzled.registry
    for state, routes in [
        (embezzled, (ez.slot_statistics_from_spec(spec), ez.slot_statistics(embezzled, spec))),
        (uniform, (ez.slot_statistics(uniform, spec),)),
    ]:
        host = state.registry
        assert all(stats.registry == host for stats in routes)
        slots = {side: ez.slot_observable(spec, host, side) for side in ez.SIDES}
        idle = Observable(((1.0, identity_projector(ez.slot_registry(host, "B"))),))
        half = {
            (side, k): ez.half_subset_observable(spec, N, subset, pairing, host, side, k)
            for side, k in [("A", 0), ("A", setting), ("B", 0), ("B", 1)]
        }
        remote = half["B", 1]
        extended = tensor(state, basis_state(SystemRegistry((("W", 2),)), (0,)))
        for target, observables in [
            (state, (slots["A"],)),
            (state, (slots["B"],)),
            (state, (half["A", 0],)),
            (state, (half["A", 0], remote)),
            (state, (slots["A"], remote)),
            (state, (slots["A"], idle)),
            (state, (idle,)),
            (state, (remote,)),
            (state, (slots["B"], half["A", setting])),
            (state, (half["B", 0], half["A", setting])),
            (extended, (slots["A"],)),
        ]:
            expected = _table_bits(born_table(target, observables))
            for stats in routes:
                assert _table_bits(stats.born_table(observables)) == expected


@pytest.mark.parametrize(
    "own, other",
    [(math.nextafter(1.0, 0.0), 2e-15), (math.sqrt(1.0 - 1e-14), 1e-7)],
    ids=["residual", "image"],
)
def test_slot_terms_drop_what_born_table_drops(own, other):
    """Remote kets own |s> + other |t> whose residuals or images fall at or
    below DROP_TOL, which `born_table` drops.  With own the float just below
    1, a - own**2 a on s and the image 2e-15 a on t are dropped, so the slot
    cell of s on the complemented branch holds nothing.  With other = 1e-7,
    the image 1e-14 a on t of a row at t is dropped for a below 0.1, so that
    row's residual is a itself, not a - 1e-14 a.  The slot statistics,
    from the spec and from the state, give every cell with `born_table`'s
    bits."""
    spec = ez.EmbezzleSpec.from_exact(["1/3", "2/3"], n=60, even_denominator=True)
    state = ez.embezzled_state(spec)
    acting = ez.slot_registry(state.registry, "B")
    s, t = (ez.slot_key(pair, acting, "B") for pair in spec.pairs[:2])
    ket = SparseState(acting, {s: own, t: other})
    remote = complete_with_complement([(1.0, span_projector([ket]))], -1.0)
    observables = (ez.slot_observable(spec, state.registry, "A"), remote)
    for stats in (ez.slot_statistics_from_spec(spec), ez.slot_statistics(state, spec)):
        got = stats.born_table(observables)
        assert _table_bits(got) == _table_bits(born_table(state, observables))
        if own == math.nextafter(1.0, 0.0):
            assert got[(ez.pair_eigenvalue_scheme(spec.pairs[0]), -1.0)] == 0.0


def test_slot_terms_refuse_what_they_cannot_read():
    """A rotated observable before the last, an observable off one side's
    slot registers, and a complemented branch that closes other kets than
    the spans' are refused, not read."""
    spec = ez.EmbezzleSpec.from_exact(["1/3", "2/3"], n=20, even_denominator=True)
    state = ez.embezzled_state(spec)
    host = state.registry
    subset = spec.pairs[: spec.r // 2]
    pairing = ez.default_pairing(spec, subset)
    rotated = ez.half_subset_observable(spec, 2, subset, pairing, host, "A", 1)
    pointer = Observable(((1.0, identity_projector(host.restrict(("A1",)))),))
    plus = rotated.projector_for(1.0)
    copies = tuple(SparseState(k.registry, dict(k.amplitudes)) for k in plus.kets)
    closing = dataclasses.replace(rotated.projector_for(-1.0), kets=copies)
    for stats in (ez.slot_statistics_from_spec(spec), ez.slot_statistics(state, spec)):
        with pytest.raises(ValueError, match="only the last observable"):
            stats.born_table((rotated, ez.slot_observable(spec, host, "B")))
        with pytest.raises(ValueError, match="not on one side's slot registers"):
            stats.born_table((pointer,))
        with pytest.raises(ValueError, match="close the span kets themselves"):
            stats.born_table((Observable(((1.0, plus), (-1.0, closing))),))
