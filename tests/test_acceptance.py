"""Acceptance suite: eleven end-to-end checks, one verdict line apiece.

Every check pins its tolerances and wall-clock budget explicitly and reports a
single PASS/FAIL line through the `acceptance` fixture.  Check 3 pins an
equality that is analytically unattainable whenever a block numerator exceeds
one; it is kept in its faithful form — expected red — with the certified
one-sided bound verified alongside.  Nothing here is loosened to force green.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np

from parind_lab import chained_bell as cb
from parind_lab import couplings
from parind_lab import embezzle as ez
from parind_lab import halfsum
from parind_lab import hvaudit as hv
from parind_lab.qcore import (
    SparseState,
    SystemRegistry,
    born_probability,
    span_projector,
)


def test_acceptance_01_two_outcome_chain_closed_form(acceptance):
    start = time.perf_counter()
    state = cb.bell_state()
    worst = 0.0
    bounds_ok = True
    for N in (1, 2, 4, 8, 16, 32, 64):
        report = cb.correlation_measure_IN(
            state, cb.ChainSpec(N=N, pair=(0, 1))
        )
        closed = 2.0 * N * math.sin(math.pi / (4 * N)) ** 2
        worst = max(worst, abs(report.value - closed))
        bounds_ok &= report.value <= math.pi**2 / (8.0 * N)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and bounds_ok and elapsed < 5.0
    assert acceptance(
        1,
        "two-outcome chain matches 2N sin^2(pi/4N) with bound pi^2/8N up to N=64",
        ok,
        f"max deviation {worst:.2e}, {elapsed:.1f}s",
    ), f"worst deviation {worst}, bounds_ok={bounds_ok}, elapsed={elapsed:.1f}s"


def test_acceptance_02_higher_dimension_chain_closed_form(acceptance):
    start = time.perf_counter()
    cases = [
        ([1 / 3] * 3, (0, 1)),
        ([1 / 4] * 4, (0, 1)),
        ([1 / 6, 1 / 4, 1 / 4, 1 / 3], (1, 2)),
    ]
    worst = 0.0
    bounds_ok = True
    for squares, pair in cases:
        state = ez.phi_schmidt([math.sqrt(s) for s in squares])
        cj_squared = squares[pair[0]]
        for N in (1, 2, 4, 8):
            spec = cb.ChainSpec(N=N, pair=pair, eigenvalue_scheme=cb.dimension_scheme)
            report = cb.correlation_measure_IN_prime(state, spec)
            closed = 4.0 * N * cj_squared * math.sin(math.pi / (4 * N)) ** 2
            worst = max(worst, abs(report.value - closed))
            bounds_ok &= report.value <= math.pi**2 * cj_squared / (4.0 * N)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and bounds_ok and elapsed < 5.0
    assert acceptance(
        2,
        "equal-pair chain on d=3,4 states matches 4N c^2 sin^2(pi/4N)",
        ok,
        f"max deviation {worst:.2e}, {elapsed:.1f}s",
    ), f"worst deviation {worst}, bounds_ok={bounds_ok}, elapsed={elapsed:.1f}s"


def test_acceptance_03_extraction_fidelity_identity(acceptance):
    start = time.perf_counter()
    identity_gaps = []
    bounds_ok = True
    monotone_ok = True
    for squares in (("1/3", "2/3"), ("1/6", "1/3", "1/2")):
        previous = None
        for n in (100, 1000, 10000):
            spec = ez.EmbezzleSpec.from_exact(squares, n=n)
            report = ez.embezzlement_fidelity(spec)
            # the pinned identity: direct fidelity == sum_i c_i^2 Z(n/m_i)/Z(n)
            z_n = ez.interpolated_harmonic(n)
            z_form = math.fsum(
                (c * c) * ez.interpolated_harmonic(Fraction(n, m)) / z_n
                for c, m in zip(spec.c, spec.m)
            )
            identity_gaps.append(abs(report.computed_fidelity - z_form))
            ratio = 1.0 - math.log(spec.max_m) / math.log(n)
            distance_bound = math.sqrt(max(0.0, 1.0 - ratio * ratio))
            bounds_ok &= report.trace_distance <= distance_bound + 1e-12
            one_minus_f = 1.0 - report.computed_fidelity
            if previous is not None:
                monotone_ok &= one_minus_f < previous
            previous = one_minus_f
    elapsed = time.perf_counter() - start
    identity_ok = max(identity_gaps) <= 1e-12
    ok = identity_ok and bounds_ok and monotone_ok and elapsed < 30.0
    assert acceptance(
        3,
        "extraction fidelity equals the grouped-harmonic form within 1e-12",
        ok,
        f"identity gap up to {max(identity_gaps):.2e}; one-sided bound "
        f"{'holds' if bounds_ok else 'violated'}, infidelity "
        f"{'decreases' if monotone_ok else 'not monotone'}, {elapsed:.1f}s",
    ), (
        "the pinned equality is analytically unattainable once any block "
        "numerator exceeds one: the direct fidelity strictly exceeds the "
        f"grouped-harmonic form (measured gaps {[f'{g:.3e}' for g in identity_gaps]}). "
        "The faithful check is kept red; the certified one-sided bound and the "
        "monotone infidelity decrease are verified above."
    )


def test_acceptance_04_interpolated_harmonic_oracle(acceptance):
    start = time.perf_counter()
    worst = 0.0
    for m in range(1, 8):
        for n in range(1, 501):
            z = ez.interpolated_harmonic(Fraction(n, m))
            worst = max(worst, abs(z - ez.grouped_harmonic_sum(n, m)))
    sandwich_ok = True
    for y in np.geomspace(1.0, 1e6, 181):
        z = ez.interpolated_harmonic(float(y))
        sandwich_ok &= math.log(y + 1.0) <= z + 1e-12
        sandwich_ok &= z <= 1.0 + math.log(y) + 1e-12
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and sandwich_ok and elapsed < 5.0
    assert acceptance(
        4,
        "Z(n/m) equals the grouped ceiling sum (m<=7, n<=500) with log sandwich",
        ok,
        f"max deviation {worst:.2e}, {elapsed:.1f}s",
    ), f"worst deviation {worst}, sandwich_ok={sandwich_ok}, elapsed={elapsed:.1f}s"


def test_acceptance_05_approximate_chain_convergence(acceptance):
    start = time.perf_counter()
    bound_ok = True
    monotone_ok = True
    details = []
    for N in (2, 4):
        gaps = []
        for n in (100, 1000, 2000):
            spec = ez.EmbezzleSpec.from_exact(("1/3", "2/3"), n=n)
            state = ez.embezzled_state(spec)
            stats = ez.slot_statistics(state, spec)
            ordered = sorted(spec.pairs, key=lambda p: stats.weights[p])
            report = ez.correlation_measure_INn(
                spec, N, ordered[0], ordered[-1], state=state
            )
            gap = abs(report.value - report.reference_value)
            bound_ok &= gap <= report.deviation_bound
            gaps.append(gap)
        monotone_ok &= all(a > b for a, b in zip(gaps, gaps[1:]))
        details.append(f"N={N}: gaps {', '.join(f'{g:.2e}' for g in gaps)}")
    elapsed = time.perf_counter() - start
    ok = bound_ok and monotone_ok and elapsed < 60.0
    assert acceptance(
        5,
        "approximate chain stays within 2N*D of its reference and converges",
        ok,
        "; ".join(details) + f", {elapsed:.1f}s",
    ), f"bound_ok={bound_ok}, monotone_ok={monotone_ok}, elapsed={elapsed:.1f}s"


def test_acceptance_06_half_subset_chain(acceptance):
    start = time.perf_counter()
    spec_base = ez.EmbezzleSpec.from_exact(("1/3", "2/3"), n=4, even_denominator=True)
    assert spec_base.r == 6
    subset = spec_base.pairs[: spec_base.r // 2]
    pairing = ez.default_pairing(spec_base, subset)
    uniform_stats = ez.slot_statistics(ez.phi_uniform_state(spec_base), spec_base)
    per_pair_worst = 0.0
    for N in (2, 4):
        expected = math.sin(math.pi / (4 * N)) ** 2
        fast = ez.fast_half_subset_chain(spec_base, N, subset, pairing, uniform_stats)
        for term in fast.pair_terms:
            per_pair_worst = max(per_pair_worst, abs(term.probability - expected))
    combined_ok = True
    spec_n = spec_base.with_n(2000)
    for N in (2, 4):
        report = ez.correlation_measure_IJlNnl(spec_n, N, subset, pairing)
        combined_ok &= abs(report.value - report.closed_form) <= report.deviation_bound
    elapsed = time.perf_counter() - start
    ok = per_pair_worst <= 1e-12 and combined_ok and elapsed < 60.0
    assert acceptance(
        6,
        "half-subset chain: uniform per-pair sin^2(pi/4N), combined bound at n=2000",
        ok,
        f"per-pair deviation {per_pair_worst:.2e}, {elapsed:.1f}s",
    ), f"per_pair_worst={per_pair_worst}, combined_ok={combined_ok}, elapsed={elapsed:.1f}s"


def test_acceptance_07_window_identity_exact(acceptance):
    start = time.perf_counter()
    rng = random.Random(0)
    failures = 0
    checked = 0
    for r in (2, 4, 6, 8, 10, 12):
        for size in range(1, r // 2 + 1):
            for J in itertools.combinations(range(r), size):
                system = halfsum.build_system(r, J)
                for _ in range(100):
                    p = [Fraction(rng.randrange(0, 65), 64) for _ in range(r)]
                    result = halfsum.identity_check(system, p)
                    checked += 1
                    if result["lhs"] != result["rhs"]:
                        failures += 1
    coefficient_ok = halfsum.bound_coefficient(10, 2) == Fraction(8, 5)
    for r in (2, 4, 6, 8, 10, 12):
        for size in range(0, r // 2 + 1):
            coefficient_ok &= halfsum.bound_coefficient(r, size) == Fraction(
                r - size, r // 2
            )
    elapsed = time.perf_counter() - start
    ok = failures == 0 and coefficient_ok and elapsed < 30.0
    assert acceptance(
        7,
        "window identity exact for all even r<=12, every J, 100 vectors each",
        ok,
        f"{checked} exact checks, coefficient (r-#J)/(r/2), {elapsed:.1f}s",
    ), f"failures={failures}/{checked}, coefficient_ok={coefficient_ok}, elapsed={elapsed:.1f}s"


def test_acceptance_08_perfect_correlation_events(acceptance):
    start = time.perf_counter()
    rng = random.Random(11)
    worst = 0.0
    for _ in range(100):
        d = rng.randrange(1, 5)
        raw = [rng.uniform(0.2, 1.0) for _ in range(d)]
        norm = math.sqrt(math.fsum(x * x for x in raw))
        state = ez.phi_schmidt([x / norm for x in raw])
        size = rng.randrange(1, d + 1)
        index_set = tuple(sorted(rng.sample(range(d), size)))
        events = hv.schmidt_index_events(state.registry, [index_set])
        worst = max(worst, hv.perfect_correlation_check(state, events)["max_mismatch"])
    mapped, events = hv.extraction_block_events(
        ez.EmbezzleSpec.from_exact(("1/3", "2/3"), n=200)
    )
    worst = max(worst, hv.perfect_correlation_check(mapped, events)["max_mismatch"])
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 30.0
    assert acceptance(
        8,
        "matched index and extraction-block events have vanishing mismatch",
        ok,
        f"max mismatch {worst:.2e}, {elapsed:.1f}s",
    ), f"worst={worst}, elapsed={elapsed:.1f}s"


def test_acceptance_09_fixture_refutations(acceptance):
    start = time.perf_counter()
    state = cb.bell_state()
    chain2 = cb.ChainSpec(N=2, pair=(0, 1))
    a_family, b_family = cb.chain_families(chain2, state.registry)
    pair = hv.Scenario(state, (a_family[0], b_family[1]), description="settings (0, 1)")
    idle = hv.Scenario(
        state,
        (a_family[0], hv.identity_observable(b_family[1].registry)),
        description="remote idle",
    )

    det_model, det_space = hv.fixture_model("deterministic-chain")
    det_scan = hv.refutation_scan(det_model, det_space, state, (1, 2, 3, 4))
    det_report = det_scan["reports"][1]
    det_ok = (
        det_scan["refuting_N"] == 2
        and abs(det_report["chain_value"] - (2.0 - math.sqrt(2.0))) <= 1e-12
        and det_report["chain_value"] < 1.0
        and det_report["lhs"] > det_report["chain_value"]
    )
    det_premises = hv.preaudit(det_model, det_space, [pair, idle], tol=1e-9)
    localized = det_premises["quantum completeness"]["first_failure"]
    det_ok &= (
        localized is not None
        and localized["scenario"] == "settings (0, 1)"
        and localized["deviation"] > 0.07
    )

    triv_model, triv_space = hv.fixture_model("trivial")
    triv_ok = not hv.refutation_scan(triv_model, triv_space, state, (1, 2, 3, 4))["refuted"]
    triv_premises = hv.preaudit(triv_model, triv_space, [pair, idle], tol=1e-9)
    triv_ok &= all(report["passed"] for report in triv_premises.values())
    for n in (60, 120):
        spec = ez.EmbezzleSpec.from_exact(("1/3", "2/3"), n=n, even_denominator=True)
        triv_ok &= hv.triviality_bound(triv_model, triv_space, spec, 2)["passed"]

    toy_model, toy_space = hv.fixture_model("signalling-toy")
    toy_premises = hv.preaudit(toy_model, toy_space, [pair, idle], tol=1e-9)
    toy_parind = toy_premises["parameter independence"]
    toy_ok = (
        toy_premises["quantum completeness"]["passed"]
        and not toy_parind["passed"]
        and abs(toy_parind["first_failure"]["deviation"] - 0.1) <= 1e-15
        and not hv.refutation_scan(toy_model, toy_space, state, (1, 2))["refuted"]
    )

    elapsed = time.perf_counter() - start
    ok = det_ok and triv_ok and toy_ok and elapsed < 30.0
    assert acceptance(
        9,
        "audits: deterministic chain refuted at N=2, trivial clean, toy shift 0.1",
        ok,
        f"I_2={det_report['chain_value']:.4f}, toy deviation "
        f"{toy_parind['first_failure']['deviation']:.12f}, {elapsed:.1f}s",
    ), f"det_ok={det_ok}, triv_ok={triv_ok}, toy_ok={toy_ok}, elapsed={elapsed:.1f}s"


def test_acceptance_10_coupling_transfer(acceptance):
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    trine = couplings.trine_povm()
    trine_dev = float(
        np.max(np.abs(sum(f for f in trine.elements) - np.eye(2)))
    )

    def random_state(dim):
        vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        vec /= np.linalg.norm(vec)
        registry = SystemRegistry((("S", dim),))
        return SparseState(registry, {(k,): vec[k] for k in range(dim)})

    def random_projectors(registry, blocks):
        dim = registry.total_dimension
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        cuts = sorted(rng.choice(np.arange(1, dim), size=blocks - 1, replace=False))
        projectors = []
        for group in np.split(np.arange(dim), cuts):
            kets = [
                SparseState(registry, {(k,): q[k, col] for k in range(dim)})
                for col in group
            ]
            projectors.append(span_projector(kets))
        return projectors

    def pointer_distribution(state, label):
        axis = state.registry.axis(label)
        dist = {}
        for key, amp in state.amplitudes.items():
            dist[key[axis]] = dist.get(key[axis], 0.0) + abs(amp) ** 2
        return dist

    worst = 0.0
    for k in range(500):
        kind = ("first", "second", "povm")[k % 3]
        dim = int(rng.integers(2, 5))
        psi = random_state(dim)
        if kind == "first":
            blocks = int(rng.integers(2, dim + 1))
            projectors = random_projectors(psi.registry, blocks)
            coupled = couplings.first_kind_coupling(psi, projectors)
            dist = pointer_distribution(coupled, "B")
            for j, projector in enumerate(projectors):
                expected = born_probability(psi, projector)
                worst = max(worst, abs(dist.get(j, 0.0) - expected))
        elif kind == "second":
            blocks = int(rng.integers(2, dim + 1))
            projectors = random_projectors(psi.registry, blocks)
            posts = [random_state(dim) for _ in projectors]
            coupled = couplings.second_kind_coupling(psi, projectors, posts)
            dist = pointer_distribution(coupled, "B1")
            axis1 = coupled.registry.axis("B1")
            axis2 = coupled.registry.axis("B2")
            for key in coupled.amplitudes:
                worst = max(worst, float(key[axis1] != key[axis2]))
            for j, projector in enumerate(projectors):
                expected = born_probability(psi, projector)
                worst = max(worst, abs(dist.get(j, 0.0) - expected))
        else:
            count = int(rng.integers(2, 5))
            raw = [
                (lambda a: a.conj().T @ a)(
                    rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                )
                for _ in range(count)
            ]
            total = sum(raw)
            w, v = np.linalg.eigh(total)
            root_inv = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
            povm = couplings.PovmElementSet.from_elements(
                [root_inv @ f @ root_inv for f in raw]
            )
            expected = couplings.povm_probabilities(psi, povm, "S")
            coupled = couplings.povm_coupling(psi, povm, "S")
            dist = pointer_distribution(coupled, "B1")
            for j, p in enumerate(expected):
                worst = max(worst, abs(dist.get(j, 0.0) - p))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and trine_dev <= 1e-10 and elapsed < 10.0
    assert acceptance(
        10,
        "measurement couplings transfer outcome statistics (500 instances)",
        ok,
        f"max deviation {worst:.2e}, trine completeness {trine_dev:.2e}, {elapsed:.1f}s",
    ), f"worst={worst}, trine_dev={trine_dev}, elapsed={elapsed:.1f}s"


def test_acceptance_11_resource_ledger_shrinks(acceptance):
    start = time.perf_counter()
    squares = [1.0 / math.pi, 1.0 - 1.0 / math.pi]
    model, space = hv.fixture_model("trivial")
    coarse = hv.triviality_bound(
        model, space, ez.EmbezzleSpec.from_reals(squares, l=10, n=100), 2
    )
    fine = hv.triviality_bound(
        model, space, ez.EmbezzleSpec.from_reals(squares, l=50, n=10000), 8
    )
    eps_coarse = coarse["achieved_epsilon"]
    eps_fine = fine["achieved_epsilon"]
    elapsed = time.perf_counter() - start
    frozen_ok = (
        abs(eps_coarse - 0.070009510) <= 1e-8 and abs(eps_fine - 0.065188918) <= 1e-8
    )
    ok = (
        eps_fine < eps_coarse
        and coarse["passed"]
        and fine["passed"]
        and frozen_ok
        and elapsed < 120.0
    )
    assert acceptance(
        11,
        "certified epsilon shrinks with resources: (N,l,n)=(8,50,1e4) < (2,10,1e2)",
        ok,
        f"{eps_fine:.9f} < {eps_coarse:.9f}, {elapsed:.1f}s",
    ), (
        f"eps_fine={eps_fine}, eps_coarse={eps_coarse}, frozen_ok={frozen_ok}, "
        f"coarse_passed={coarse['passed']}, fine_passed={fine['passed']}, "
        f"elapsed={elapsed:.1f}s"
    )
