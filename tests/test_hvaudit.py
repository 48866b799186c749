"""Tests for the hidden-variable audit layer: joint distributions, the fixture
models, structural checks, chained refutation, perfect-correlation transfer,
and the finite-resource ledger."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from parind_lab import chained_bell as cb
from parind_lab import embezzle as ez
from parind_lab import hvaudit as hv
from parind_lab.qcore import (
    SparseState,
    SystemRegistry,
    basis_span_projector,
    born_table,
    joint_probability,
)


def bell_families(N):
    state = cb.bell_state()
    spec = cb.ChainSpec(N=N, pair=(0, 1))
    a, b = cb.chain_families(spec, state.registry)
    return state, a, b


# ---------------------------------------------------------------------------
# Lambda spaces and scenarios


def test_lambda_space_validates_weights():
    with pytest.raises(ValueError, match="sum to 1"):
        hv.LambdaSpace((0, 1), (Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(ValueError, match="distinct"):
        hv.LambdaSpace((0, 0), (Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ValueError, match="nonnegative"):
        hv.LambdaSpace((0, 1), (Fraction(3, 2), Fraction(-1, 2)))
    with pytest.raises(ValueError, match="nonzero"):
        hv.LambdaSpace((0, 1), (Fraction(1), Fraction(0)))


def test_lambda_space_uniform_and_min_weight():
    space = hv.LambdaSpace.uniform((0, 1, 2, 3))
    assert space.min_weight == pytest.approx(0.25)
    assert math.fsum(w for _, w in space.items()) == pytest.approx(1.0)


def test_scenario_rejects_overlapping_observables():
    state, a_family, _ = bell_families(1)
    with pytest.raises(ValueError, match="disjoint"):
        hv.Scenario(state, (a_family[0], a_family[2]))


def test_scenario_rejects_unknown_subsystems():
    state, a_family, _ = bell_families(1)
    other = SparseState(SystemRegistry((("X", 2),)), {(0,): 1.0})
    with pytest.raises(KeyError):
        hv.Scenario(other, (a_family[0],))


# ---------------------------------------------------------------------------
# Born joint distributions


def test_born_joint_two_observable_algebra_matches_literal_grid():
    """Complemented cells are literal residuals, so the table equals the
    literal projector route cell by cell."""
    state, a_family, b_family = bell_families(2)
    obs = (a_family[2], b_family[1])
    table = hv.born_joint_distribution(state, obs)
    assert math.fsum(table.values()) == pytest.approx(1.0)
    for combo, value in table.items():
        projectors = [o.projector_for(e) for o, e in zip(obs, combo)]
        assert value == joint_probability(state, projectors)


def test_scenario_born_is_the_read_only_born_table():
    state, a_family, b_family = bell_families(2)
    scenario = hv.Scenario(state, (a_family[2], b_family[1]))
    table = born_table(state, scenario.observables)
    assert set(scenario.born) == set(table)
    for cell, value in table.items():
        assert scenario.born[cell] == value
    assert scenario.born is scenario.born
    with pytest.raises(TypeError):
        scenario.born[(1.0, 1.0)] = 0.0


def test_born_joint_three_observables():
    registry = SystemRegistry((("A", 2), ("B", 2), ("C", 2)))
    ghz = SparseState(
        registry, {(0, 0, 0): math.sqrt(0.5), (1, 1, 1): math.sqrt(0.5)}
    )
    families = [
        hv.identity_observable(registry.restrict((label,))) for label in "AC"
    ]
    z_b = cb.o_theta(0.0, (0, 1), registry.restrict(("B",)))
    table = hv.born_joint_distribution(ghz, (families[0], z_b, families[1]))
    assert table[(1.0, -1.0, 1.0)] == pytest.approx(0.5)
    assert table[(1.0, 1.0, 1.0)] == pytest.approx(0.5)


def test_rotation_angle_roundtrip():
    registry = SystemRegistry((("A", 2),))
    for theta in (0.0, math.pi / 8, math.pi / 2, 1.3):
        obs = cb.o_theta(theta, (0, 1), registry)
        assert hv.rotation_angle(obs) == pytest.approx(theta % (2 * math.pi))
    assert hv.rotation_angle(hv.identity_observable(registry)) is None


# ---------------------------------------------------------------------------
# Fixture audits


def test_trivial_model_passes_everything():
    model, space = hv.fixture_model("trivial")
    state, a_family, b_family = bell_families(2)
    scenarios = [
        hv.Scenario(state, (a_family[a], b_family[b]), description=f"({a}, {b})")
        for a, b in cb.adjacent_setting_pairs(2)
    ]
    assert hv.check_compquant(model, space, scenarios)["passed"]
    idle = hv.identity_observable(state.registry.restrict(("B",)))
    variants = [
        hv.Scenario(state, (a_family[0], b_family[1]), description="remote active"),
        hv.Scenario(state, (a_family[0], idle), description="remote idle"),
    ]
    assert hv.check_parind(model, space, variants)["passed"]
    assert hv.pe_invariance_check(model, space, scenarios[0])["passed"]
    scan = hv.refutation_scan(model, space, state, (1, 2, 4))
    assert not scan["refuted"]
    assert scan["refuting_N"] is None


def test_deterministic_chain_is_refuted_at_depth_two():
    model, space = hv.fixture_model("deterministic-chain")
    state = cb.bell_state()
    scan = hv.refutation_scan(model, space, state, (1, 2, 3, 4))
    assert scan["refuted"]
    assert scan["refuting_N"] == 2
    report = scan["reports"][1]
    assert report["N"] == 2
    # per-lambda determinism makes the model's setting-0 bias maximal …
    assert report["lhs"] == pytest.approx(1.0)
    # … while the quantum chain budget has shrunk below 1
    assert report["chain_value"] == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-12)
    assert not report["negation_consistency"]["holds"]


def test_deterministic_chain_compquant_failure_is_localized():
    model, space = hv.fixture_model("deterministic-chain")
    state, a_family, b_family = bell_families(2)
    scenario = hv.Scenario(
        state, (a_family[0], b_family[1]), description="settings (0, 1)"
    )
    report = hv.check_compquant(model, space, [scenario])
    assert not report["passed"]
    failure = report["first_failure"]
    assert failure["scenario"] == "settings (0, 1)"
    # outcomes always agree, so the model piles 1/2 on (+1, +1) where Born has
    # cos^2(pi/8)/2
    assert failure["outcome"] == (1.0, 1.0)
    assert failure["model_value"] == pytest.approx(0.5)
    assert failure["born_value"] == pytest.approx(math.cos(math.pi / 8) ** 2 / 2)
    assert failure["deviation"] == pytest.approx(0.07322330470336313, abs=1e-12)


def test_local_cosine_disagreement_is_linear_in_angle_gap():
    model, space = hv.fixture_model("local-cosine")  # 32 grid points
    state = cb.bell_state()
    report = hv.chained_audit(model, space, state, 2)
    for pair in report["pairs"]:
        # angle gap pi/4 -> two arcs of 4 grid points each: exactly 1/4
        assert pair["model_disagreement"] == pytest.approx(0.25, abs=1e-12)
    assert report["model_chain_value"] == pytest.approx(1.0, abs=1e-12)
    assert report["refuted"]  # lhs = 1 exceeds the quantum budget 0.5858
    assert report["compquant_max_deviation"] > 0.05


def test_local_cosine_respects_parameter_independence():
    model, space = hv.fixture_model("local-cosine", grid_points=16)
    assert model.grid_points == 16
    state, a_family, b_family = bell_families(2)
    idle = hv.identity_observable(state.registry.restrict(("B",)))
    variants = [
        hv.Scenario(state, (a_family[0], b_family[1]), description="active"),
        hv.Scenario(state, (a_family[0], idle), description="idle"),
    ]
    assert hv.check_parind(model, space, variants)["passed"]


def test_signalling_toy_fails_parind_by_its_shift():
    model, space = hv.fixture_model("signalling-toy")
    state, a_family, b_family = bell_families(2)
    idle = hv.identity_observable(state.registry.restrict(("B",)))
    variants = [
        hv.Scenario(state, (a_family[0], b_family[1]), description="active"),
        hv.Scenario(state, (a_family[0], idle), description="idle"),
    ]
    report = hv.check_parind(model, space, variants)
    assert not report["passed"]
    assert report["first_failure"]["deviation"] == pytest.approx(0.1, abs=1e-15)
    # the shifts cancel in the average, so quantum completeness still holds
    pair = hv.Scenario(state, (a_family[0], b_family[1]), description="pair")
    assert hv.check_compquant(model, space, [pair])["passed"]
    # deep chains have joint cells smaller than the shift; the model declines
    # those depths and the scan records the refusal instead of refuting
    scan = hv.refutation_scan(model, space, state, (1, 2, 4))
    assert not scan["refuted"]
    assert scan["undefined_N"] == (4,)


def test_fixture_model_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown fixture"):
        hv.fixture_model("bohmian")


@pytest.mark.parametrize(
    "name, accepted",
    [
        ("trivial", "none"),
        ("deterministic-chain", "none"),
        ("local-cosine", "grid_points"),
        ("signalling-toy", "shift"),
    ],
)
def test_fixture_model_rejects_parameters_the_fixture_does_not_read(name, accepted):
    with pytest.raises(ValueError, match=f"'grid_point'; accepted parameters: {accepted}$"):
        hv.fixture_model(name, grid_point=4)


def test_model_average_validates_model_output():
    class Broken:
        name = "broken"

        def distribution(self, scenario, lam):
            return {(1.0,): 0.7}  # does not sum to 1

    state, a_family, _ = bell_families(1)
    scenario = hv.Scenario(state, (a_family[0],))
    with pytest.raises(ValueError, match="sums to"):
        hv.model_average(Broken(), hv.LambdaSpace((0,), (Fraction(1),)), scenario)


# ---------------------------------------------------------------------------
# Perfect-correlation transfer


def test_mismatch_probability_directions():
    registry = SystemRegistry((("A", 2), ("B", 2)))
    state = SparseState(
        registry, {(0, 0): math.sqrt(0.5), (1, 1): math.sqrt(0.5)}
    )
    fine = basis_span_projector(registry.restrict(("A",)), [(0,)])
    coarse = basis_span_projector(registry.restrict(("B",)), [(0,), (1,)])
    # the fine event implies the coarse one, not conversely
    assert hv.mismatch_probability(state, fine, coarse, "forward") == pytest.approx(0.0)
    assert hv.mismatch_probability(state, fine, coarse, "backward") == pytest.approx(0.5)
    assert hv.mismatch_probability(state, fine, coarse, "both") == pytest.approx(0.5)
    with pytest.raises(ValueError):
        hv.mismatch_probability(state, fine, coarse, "sideways")


def test_schmidt_index_events_have_zero_mismatch():
    rng = np.random.default_rng(4)
    amplitudes = rng.random(4) + 0.1
    amplitudes /= np.linalg.norm(amplitudes)
    state = ez.phi_schmidt([float(a) for a in amplitudes])
    index_sets = [(0,), (1, 3), (0, 2), (0, 1, 2, 3)]
    events = hv.schmidt_index_events(state.registry, index_sets)
    report = hv.perfect_correlation_check(state, events)
    assert report["passed"]
    assert report["max_mismatch"] <= 1e-12


def test_mismatched_index_events_are_caught():
    state = ez.phi_schmidt([math.sqrt(0.5), math.sqrt(0.5)])
    a = basis_span_projector(state.registry.restrict(("A",)), [(0,)])
    b = basis_span_projector(state.registry.restrict(("B",)), [(1,)])
    report = hv.perfect_correlation_check(state, [("crossed", a, b, "both")])
    assert not report["passed"]
    assert report["max_mismatch"] == pytest.approx(1.0)


def test_extraction_block_events_vanish():
    spec = ez.EmbezzleSpec.from_exact(["1/3", "2/3"], n=50)
    mapped, events = hv.extraction_block_events(spec)
    report = hv.perfect_correlation_check(mapped, events)
    assert report["passed"]
    assert report["max_mismatch"] <= 1e-12
    descriptions = [q["event"] for q in report["quantum"]]
    assert any("implies remote block" in d for d in descriptions)
    assert any("implies some slot" in d for d in descriptions)


def test_perfect_correlation_mismatch_is_the_literal_oracle_float():
    """Each quantum mismatch is read off one Born table per event; on the
    events `parind-lab pc` can draw (every proper index set of three Schmidt
    levels, and the extraction block events) plus crossed events in every
    direction, it is exactly the float of `mismatch_probability`."""
    squares = ["1/6", "1/3", "1/2"]
    state = ez.phi_schmidt([math.sqrt(float(Fraction(q))) for q in squares])
    index_sets = [s for size in (1, 2) for s in itertools.combinations(range(3), size)]
    wing_a, wing_b = state.registry.restrict(("A",)), state.registry.restrict(("B",))
    crossed = [
        (f"{a} vs {b}", basis_span_projector(wing_a, a), basis_span_projector(wing_b, b), d)
        for a, b in (((0,), (1,)), ((0, 1), (1, 2)), ((2,), (0, 2)))
        for d in ("forward", "backward", "both")
    ]
    cases = [
        (state, hv.schmidt_index_events(state.registry, index_sets) + crossed),
        hv.extraction_block_events(ez.EmbezzleSpec.from_exact(squares, 200)),
    ]
    disagreeing = 0
    for psi, events in cases:
        report = hv.perfect_correlation_check(psi, events)
        assert len(report["quantum"]) == len(events)
        for (_, event_a, event_b, direction), entry in zip(events, report["quantum"]):
            oracle = hv.mismatch_probability(psi, event_a, event_b, direction)
            assert entry["mismatch"] == oracle
            disagreeing += oracle > 0.1
    assert disagreeing == 8


def test_perfect_correlation_model_level():
    """A model whose outcomes always agree on matched events passes the
    model-level transfer; the marginal-gap chain is certified per lambda."""
    model, space = hv.fixture_model("deterministic-chain")
    state = ez.phi_schmidt([math.sqrt(0.5), math.sqrt(0.5)])
    events = hv.schmidt_index_events(state.registry, [(0,), (1,)])
    report = hv.perfect_correlation_check(state, events, model=model, space=space)
    assert report["passed"]
    assert report["model"]["passed"]
    for entry in report["model"]["events"]:
        assert entry["marginal_gap_bounded"]
    assert report["model"]["derived_per_lambda_tolerance"] == pytest.approx(2e-9)


def test_perfect_correlation_model_level_needs_space():
    model, _ = hv.fixture_model("trivial")
    state = ez.phi_schmidt([1.0])
    events = hv.schmidt_index_events(state.registry, [(0,)])
    with pytest.raises(ValueError, match="hidden-parameter space"):
        hv.perfect_correlation_check(state, events, model=model)


# ---------------------------------------------------------------------------
# Triviality ledger


class _RemoteSensitiveModel:
    """Parameter-dependent probe: when a remote observable is active, moves
    mass between the two likeliest values of the first observable's marginal,
    with a lambda-odd sign so the average stays Born-correct."""

    name = "remote-sensitive"

    def __init__(self, delta=0.02):
        self.delta = delta

    def distribution(self, scenario, lam):
        base = hv.born_joint_distribution(scenario.state, scenario.observables)
        remote_active = len(scenario.observables) > 1 and any(
            len(o.branches) > 1 for o in scenario.observables[1:]
        )
        if not remote_active:
            return base
        marginal = {}
        for outcome, p in base.items():
            marginal[outcome[0]] = marginal.get(outcome[0], 0.0) + p
        v0, v1 = sorted(marginal, key=marginal.get, reverse=True)[:2]
        sign = self.delta if lam == 0 else -self.delta
        shifted = {}
        rest = {}
        for outcome, p in base.items():
            rest[outcome[1:]] = rest.get(outcome[1:], 0.0) + p
        for outcome, p in base.items():
            if outcome[0] == v0:
                shifted[outcome] = p + sign * rest[outcome[1:]]
            elif outcome[0] == v1:
                shifted[outcome] = p - sign * rest[outcome[1:]]
            else:
                shifted[outcome] = p
        return shifted


class _UniformOutcomeModel:
    """Quantum-incomplete probe: ignores the state entirely."""

    name = "uniform-outcomes"

    def distribution(self, scenario, lam):
        grid = [()]
        for obs in scenario.observables:
            grid = [combo + (e,) for combo in grid for e in obs.eigenvalues]
        return {combo: 1.0 / len(grid) for combo in grid}


def test_triviality_bound_on_trivial_model():
    model, space = hv.fixture_model("trivial")
    spec = ez.EmbezzleSpec.from_exact(["1/3", "2/3"], n=40, even_denominator=True)
    report = hv.triviality_bound(model, space, spec, 2)
    assert report["links_hold"]
    assert report["conclusion_holds"]
    assert report["passed"]
    assert report["achieved_epsilon"] == pytest.approx(
        max(b["final_bound"] for b in report["blocks"]) / 3.0
    )
    assert report["achieved_epsilon"] < 0.5
    # exact rational input: no approximant error term
    assert report["epsilon_coefficient"] == 0.0
    assert report["slot_leakage"]["extraction_side"] == pytest.approx(0.0, abs=1e-12)


def test_triviality_bound_builds_one_born_table_per_scenario(monkeypatch):
    """A ledger pass asks for each distinct scenario's Born table once: the
    three pre-audit scenarios, two remote variants, the spectator-extended
    scenario and one per audited half-subset (seven here)."""
    calls = []
    original = hv.born_joint_distribution

    def counted(state, observables):
        calls.append((state, tuple(observables)))
        return original(state, observables)

    monkeypatch.setattr(hv, "born_joint_distribution", counted)
    model, space = hv.fixture_model("trivial")
    spec = ez.EmbezzleSpec.from_reals([1.0 / math.pi, 1.0 - 1.0 / math.pi], l=10, n=100)
    report = hv.triviality_bound(model, space, spec, 2)
    assert report["passed"]
    assert len(report["half_subset_links"]) == 7
    assert len(calls) == 13
    assert len({(id(state), tuple(map(id, obs))) for state, obs in calls}) == 13


def test_triviality_bound_shrinks_with_resources():
    model, space = hv.fixture_model("trivial")
    coarse = ez.EmbezzleSpec.from_reals([1.0 / 3.0, 2.0 / 3.0], l=3, n=60)
    fine = ez.EmbezzleSpec.from_reals([1.0 / 3.0, 2.0 / 3.0], l=9, n=240)
    eps_coarse = hv.triviality_bound(model, space, coarse, 2)["achieved_epsilon"]
    eps_fine = hv.triviality_bound(model, space, fine, 4)["achieved_epsilon"]
    assert eps_fine < eps_coarse


def test_triviality_bound_rejects_quantum_incomplete_models():
    spec = ez.EmbezzleSpec.from_exact(["1/3", "2/3"], n=30, even_denominator=True)
    space = hv.LambdaSpace((0,), (Fraction(1),))
    with pytest.raises(ValueError, match="quantum completeness"):
        hv.triviality_bound(_UniformOutcomeModel(), space, spec, 2)


def test_triviality_bound_rejects_parameter_dependent_models():
    spec = ez.EmbezzleSpec.from_exact(["1/3", "2/3"], n=30, even_denominator=True)
    space = hv.LambdaSpace.uniform((0, 1))
    with pytest.raises(ValueError, match="parameter independence"):
        hv.triviality_bound(_RemoteSensitiveModel(), space, spec, 2)


def test_slot_observable_resolves_slots():
    spec = ez.EmbezzleSpec.from_exact(["1/3", "2/3"], n=12)
    state = ez.embezzled_state(spec)
    obs = ez.slot_observable(spec, state.registry, side="A")
    dist = hv.born_joint_distribution(state, (obs,))
    stats = ez.slot_statistics(state, spec)
    for pair in spec.pairs:
        eig = ez.pair_eigenvalue_scheme(pair)
        assert dist[(eig,)] == pytest.approx(stats.weights[pair], abs=1e-12)
    assert dist.get((0.0,), 0.0) == pytest.approx(0.0, abs=1e-12)
