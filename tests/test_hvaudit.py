"""Tests for the hidden-variable audit layer: joint distributions, the fixture
models, structural checks, chained refutation, perfect-correlation transfer,
and the finite-resource ledger."""

import csv
import functools
import itertools
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from parind_lab import chained_bell as cb
from parind_lab import embezzle as ez
from parind_lab import hvaudit as hv
from parind_lab import qcore
from parind_lab.qcore import (
    SparseState,
    SystemRegistry,
    basis_span_projector,
    basis_state,
    born_table,
    complete_with_complement,
    tensor,
)

from oracles import exact_trivial_epsilon, joint_probability, mismatch_probability

GOLDENS = Path(__file__).resolve().parents[1] / "bench" / "goldens"


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
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match=r"weight .* of hidden-parameter point 0 is not finite"):
            hv.LambdaSpace((0, 1), (bad, 1.0))


def test_lambda_space_uniform_and_min_weight():
    space = hv.LambdaSpace.uniform((0, 1, 2, 3))
    assert min(space.weights) == Fraction(1, 4)
    assert math.fsum(w for _, w in space.items()) == pytest.approx(1.0)


def test_scenario_rejects_overlapping_observables():
    state, a_family, _ = bell_families(1)
    with pytest.raises(ValueError, match="disjoint"):
        hv.Scenario(hv.Preparation.of(state), (a_family[0], a_family[2]))


def test_scenario_rejects_unknown_subsystems():
    state, a_family, _ = bell_families(1)
    other = SparseState(SystemRegistry((("X", 2),)), {(0,): 1.0})
    with pytest.raises(KeyError):
        hv.Scenario(hv.Preparation.of(other), (a_family[0],))


# ---------------------------------------------------------------------------
# Born joint distributions


def test_born_joint_two_observable_algebra_matches_literal_grid():
    """Complemented cells are literal residuals, so the table equals the
    literal projector route cell by cell."""
    state, a_family, b_family = bell_families(2)
    obs = (a_family[2], b_family[1])
    table = born_table(state, obs)
    assert math.fsum(table.values()) == pytest.approx(1.0)
    for combo, value in table.items():
        projectors = [o.projector_for(e) for o, e in zip(obs, combo)]
        assert value == joint_probability(state, projectors)


def test_scenario_born_is_the_read_only_born_table():
    state, a_family, b_family = bell_families(2)
    scenario = hv.Scenario(hv.Preparation.of(state), (a_family[2], b_family[1]))
    table = born_table(state, scenario.observables)
    assert set(scenario.born) == set(table)
    for cell, value in table.items():
        assert scenario.born[cell] == value
    assert scenario.born is scenario.born
    with pytest.raises(TypeError):
        scenario.born[(1.0, 1.0)] = 0.0


def test_fill_born_reads_each_preparations_tables_in_one_call():
    """`fill_born` calls each preparation's Born route once, for all of its
    scenarios not read yet, listed twice or not; each table has the bits and
    key order of its scenario's own `born_table`, and a table already read
    stays as it is."""
    state, a_family, b_family = bell_families(3)
    calls = []

    def counted(tuples):
        calls.append(len(tuples))
        return qcore.born_tables(state, tuples)

    first, second = (hv.Preparation(state.registry, lambda: state, counted) for _ in range(2))
    read = hv.Scenario(first, (a_family[0],))
    table = read.born
    scenarios = [
        *(hv.Scenario(first, (a_family[a], b_family[b])) for a, b in cb.adjacent_setting_pairs(3)),
        read,
        hv.Scenario(second, (a_family[0],)),
        hv.Scenario(second, (b_family[1], a_family[2])),
    ]
    hv.fill_born(scenarios + scenarios[:2])
    assert calls == [1, 6, 2]
    assert read.born is table
    for scenario in scenarios:
        expected = born_table(state, scenario.observables)
        assert [(cell, p.hex()) for cell, p in scenario.born.items()] == [
            (cell, p.hex()) for cell, p in expected.items()
        ]
    assert calls == [1, 6, 2]


def test_born_joint_three_observables():
    registry = SystemRegistry((("A", 2), ("B", 2), ("C", 2)))
    ghz = SparseState(
        registry, {(0, 0, 0): math.sqrt(0.5), (1, 1, 1): math.sqrt(0.5)}
    )
    families = [
        hv.identity_observable(registry.restrict((label,))) for label in "AC"
    ]
    z_b = cb.o_theta(0.0, (0, 1), registry.restrict(("B",)))
    table = born_table(ghz, (families[0], z_b, families[1]))
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
    preparation = hv.Preparation.of(state)
    scenarios = [
        hv.Scenario(preparation, (a_family[a], b_family[b]), description=f"({a}, {b})")
        for a, b in cb.adjacent_setting_pairs(2)
    ]
    assert hv.check_compquant(model, space, scenarios)["passed"]
    idle = hv.identity_observable(state.registry.restrict(("B",)))
    variants = [
        hv.Scenario(preparation, (a_family[0], b_family[1]), description="remote active"),
        hv.Scenario(preparation, (a_family[0], idle), description="remote idle"),
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
        hv.Preparation.of(state), (a_family[0], b_family[1]), description="settings (0, 1)"
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
    preparation = hv.Preparation.of(state)
    idle = hv.identity_observable(state.registry.restrict(("B",)))
    variants = [
        hv.Scenario(preparation, (a_family[0], b_family[1]), description="active"),
        hv.Scenario(preparation, (a_family[0], idle), description="idle"),
    ]
    assert hv.check_parind(model, space, variants)["passed"]


def test_signalling_toy_fails_parind_by_its_shift():
    model, space = hv.fixture_model("signalling-toy")
    state, a_family, b_family = bell_families(2)
    preparation = hv.Preparation.of(state)
    idle = hv.identity_observable(state.registry.restrict(("B",)))
    variants = [
        hv.Scenario(preparation, (a_family[0], b_family[1]), description="active"),
        hv.Scenario(preparation, (a_family[0], idle), description="idle"),
    ]
    report = hv.check_parind(model, space, variants)
    assert not report["passed"]
    assert report["first_failure"]["deviation"] == pytest.approx(0.1, abs=1e-15)
    # the shifts cancel in the average, so quantum completeness still holds
    pair = hv.Scenario(preparation, (a_family[0], b_family[1]), description="pair")
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


@pytest.mark.parametrize(
    "name, params, match",
    [
        ("local-cosine", {"grid_points": 4.5}, "grid_points must be an integer >= 1, got 4.5"),
        ("local-cosine", {"grid_points": True}, "got True"),
        ("local-cosine", {"grid_points": "3"}, "got '3'"),
        ("local-cosine", {"grid_points": 0}, "got 0"),
        ("signalling-toy", {"shift": True}, "shift must be a real number in \\[0, 1\\], got True"),
        ("signalling-toy", {"shift": "0.2"}, "got '0.2'"),
        ("signalling-toy", {"shift": 1.5}, "got 1.5"),
    ],
)
def test_fixture_model_rejects_bad_parameter_values(name, params, match):
    with pytest.raises(ValueError, match=match):
        hv.fixture_model(name, **params)


def test_preaudit_derives_its_checks_from_the_scenarios():
    model, space = hv.fixture_model("signalling-toy")
    state, a_family, b_family = bell_families(2)
    preparation = hv.Preparation.of(state)
    idle = hv.identity_observable(state.registry.restrict(("B",)))
    single = hv.Scenario(preparation, (a_family[0],), description="single")
    pair = hv.Scenario(preparation, (a_family[0], b_family[1]), description="pair")
    other = hv.Scenario(preparation, (a_family[2], idle), description="other")
    # a scenario alone in its index-0 group is not compared with anything
    alone = hv.preaudit(model, space, [pair, other], tol=1e-9)
    assert list(alone) == [
        "quantum completeness", "parameter independence", "spectator invariance"
    ]
    assert all(report["passed"] for report in alone.values())
    grouped = hv.preaudit(model, space, [single, pair, other], tol=1e-9)
    assert grouped["quantum completeness"]["passed"]
    failure = grouped["parameter independence"]["first_failure"]
    assert (failure["scenario_a"], failure["scenario_b"]) == ("single", "pair")
    assert failure["deviation"] == pytest.approx(0.1, abs=1e-15)
    # a refusal fails each premise it reaches instead of raising
    model, space = hv.fixture_model("deterministic-chain")
    index = basis_span_projector(state.registry.restrict(("A",)), [(0,)])
    two_valued = complete_with_complement([(2.0, index)], 0.0)
    refused = hv.preaudit(model, space, [hv.Scenario(preparation, (two_valued,))], tol=1e-9)
    assert not refused["quantum completeness"]["passed"]
    assert "undefined" in refused["quantum completeness"]["first_failure"]
    assert refused["parameter independence"]["passed"]  # nothing to compare
    assert "undefined" in refused["spectator invariance"]["first_failure"]


def test_model_average_validates_model_output():
    class Broken:
        name = "broken"

        def distribution(self, scenario, lam):
            return {(1.0,): 0.7}  # does not sum to 1

    state, a_family, _ = bell_families(1)
    scenario = hv.Scenario(hv.Preparation.of(state), (a_family[0],))
    with pytest.raises(ValueError, match="sums to"):
        hv.model_average(Broken(), hv.LambdaSpace((0,), (Fraction(1),)), scenario)


def test_non_finite_probability_is_refused_not_clipped():
    class NaNOutcome:
        """The Bell state's own marginal beside a NaN on an outcome the
        observable does not have, which clipping would read as 0."""

        name = "nan-outcome"

        def distribution(self, scenario, lam):
            return {(1.0,): 0.5, (-1.0,): 0.5, (0.0,): math.nan}

    state, a_family, _ = bell_families(1)
    scenario = hv.Scenario(hv.Preparation.of(state), (a_family[0],))
    space = hv.LambdaSpace((7,), (Fraction(1),))
    message = r"model 'nan-outcome' returned non-finite probability nan for outcome \(0\.0,\) at lambda 7"
    with pytest.raises(ValueError, match=message):
        hv.model_average(NaNOutcome(), space, scenario)
    with pytest.raises(ValueError, match=message):
        hv.check_compquant(NaNOutcome(), space, [scenario])


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
    assert mismatch_probability(state, fine, coarse, "forward") == pytest.approx(0.0)
    assert mismatch_probability(state, fine, coarse, "backward") == pytest.approx(0.5)
    assert mismatch_probability(state, fine, coarse, "both") == pytest.approx(0.5)
    with pytest.raises(ValueError):
        mismatch_probability(state, fine, coarse, "sideways")


def test_perfect_correlation_check_refuses_an_unknown_direction():
    registry = SystemRegistry((("A", 2), ("B", 2)))
    state = SparseState(registry, {(0, 0): math.sqrt(0.5), (1, 1): math.sqrt(0.5)})
    event = basis_span_projector(registry.restrict(("A",)), [(0,)])
    remote = basis_span_projector(registry.restrict(("B",)), [(0,)])
    message = "direction must be forward, backward or both, got 'sideways'"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        hv.perfect_correlation_check(state, [("index 0", event, remote, "sideways")])


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
            oracle = mismatch_probability(psi, event_a, event_b, direction)
            assert entry["mismatch"] == oracle
            disagreeing += oracle > 0.1
    assert disagreeing == 8


class _AntiCorrelatedModel:
    """Reveals lambda on the first wing and -lambda on the second, so matched
    events always disagree while each marginal keeps the Born 1/2."""

    name = "anti-correlated"

    def distribution(self, scenario, lam):
        return {(lam, -lam): 1.0}


def test_quantum_completeness_decides_perfect_correlation_for_models():
    """On the event scenarios `perfect_correlation_check` builds (each event
    completed to a +-1 observable), a quantum complete model averages the Born
    mismatch, zero, so by nonnegativity it has zero mismatch at every lambda:
    `check_compquant` on those scenarios is the whole model-level transfer."""
    state = ez.phi_schmidt([math.sqrt(0.5), math.sqrt(0.5)])
    events = hv.schmidt_index_events(state.registry, [(0,), (1,)])
    assert hv.perfect_correlation_check(state, events)["passed"]
    preparation = hv.Preparation.of(state)
    scenarios = [
        hv.Scenario(
            preparation,
            tuple(complete_with_complement([(1.0, e)], -1.0) for e in (a, b)),
            description=description,
        )
        for description, a, b, _ in events
    ]
    model, space = hv.fixture_model("deterministic-chain")
    assert hv.check_compquant(model, space, scenarios)["passed"]
    anti = _AntiCorrelatedModel()
    report = hv.check_compquant(anti, space, scenarios)
    assert not report["passed"]
    assert report["max_deviation"] == pytest.approx(0.5)
    for scenario in scenarios:
        average = hv.model_average(anti, space, scenario)
        assert average[(1.0, -1.0)] + average[(-1.0, 1.0)] == pytest.approx(1.0)


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
        base = born_table(scenario.state, scenario.observables)
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
    """A ledger pass on the trivial fixture builds no state and calls no
    `born_table`: it reads 13 distinct tables from the slot statistics,
    each once: the two slot scenarios, one per audited half-subset (seven
    here), three remote variants and the spectator-extended scenario."""

    def refuse(*args):
        raise AssertionError("the ledger must not build a state or call born_table")

    monkeypatch.setattr(hv, "born_tables", refuse)
    monkeypatch.setattr(qcore, "born_table", refuse)
    monkeypatch.setattr(qcore, "born_tables", refuse)
    monkeypatch.setattr(ez, "embezzled_state", refuse)
    reads, tables = [], []
    original_born = hv.Scenario.born.func
    original_table = ez.SlotStatistics.born_table

    def counted_born(scenario):
        reads.append((id(scenario.preparation), tuple(map(id, scenario.observables))))
        return original_born(scenario)

    born = functools.cached_property(counted_born)
    born.__set_name__(hv.Scenario, "born")
    monkeypatch.setattr(hv.Scenario, "born", born)
    def counted_table(stats, observables):
        tables.append(observables)
        return original_table(stats, observables)

    monkeypatch.setattr(ez.SlotStatistics, "born_table", counted_table)
    model, space = hv.fixture_model("trivial")
    spec = ez.EmbezzleSpec.from_reals([1.0 / math.pi, 1.0 - 1.0 / math.pi], l=10, n=100)
    report = hv.triviality_bound(model, space, spec, 2)
    assert report["passed"]
    assert len(report["half_subset_links"]) == 7
    assert len(reads) == len(set(reads)) == 13
    assert len(tables) == 13


def test_triviality_bound_walks_the_embezzled_terms_once(monkeypatch):
    """One ledger call sums the spec's slot statistics once, and both the
    Born tables and `_certify` read them: `_embezzled_terms` runs once."""
    calls = []
    original = ez._embezzled_terms

    def counted(spec, c_n):
        calls.append(spec)
        return original(spec, c_n)

    monkeypatch.setattr(ez, "_embezzled_terms", counted)
    model, space = hv.fixture_model("trivial")
    spec = ez.EmbezzleSpec.from_reals([1.0 / math.pi, 1.0 - 1.0 / math.pi], l=10, n=100)
    assert hv.triviality_bound(model, space, spec, 2)["passed"]
    assert calls == [spec]


class _StateBornModel:
    """Reads the state: echoes `born_table` on `scenario.state`, and keeps
    every state it was shown."""

    name = "state-born"

    def __init__(self):
        self.states = []

    def distribution(self, scenario, lam):
        self.states.append(scenario.state)
        return born_table(scenario.state, scenario.observables)


def _same_state(seen, expected):
    return (
        seen.registry == expected.registry
        and seen.keys.tobytes() == expected.keys.tobytes()
        and seen.values.tobytes() == expected.values.tobytes()
    )


def _assert_saw_the_state_and_its_extension(states, state):
    """The states a model was shown are one object that is `state` and one
    that is `tensor(state, |0>_W)`, key for key and bit for bit."""
    extended = tensor(state, basis_state(SystemRegistry((("W", 2),)), (0,)))
    plain = [seen for seen in states if "W" not in seen.registry.labels]
    dressed = [seen for seen in states if "W" in seen.registry.labels]
    assert plain and dressed
    assert len({id(seen) for seen in plain}) == len({id(seen) for seen in dressed}) == 1
    assert _same_state(plain[0], state)
    assert _same_state(dressed[0], extended)


@pytest.mark.parametrize("l, n, N", [(10, 100, 2), (50, 100, 8), (3, 100, 1)])
def test_a_model_that_reads_the_state_sees_the_embezzled_state(l, n, N):
    """A model may still read `scenario.state`: it is built on that read,
    once per ledger call, and is `embezzled_state(spec)` (with the spectator
    column on the extended scenario) key for key and bit for bit; a model
    that echoes `born_table` on it certifies the trivial fixture's epsilon."""
    spec = ez.EmbezzleSpec.from_reals([1.0 / math.pi, 1.0 - 1.0 / math.pi], l=l, n=n)
    trivial, space = hv.fixture_model("trivial")
    expected = hv.triviality_bound(trivial, space, spec, N)["achieved_epsilon"]
    model = _StateBornModel()
    report = hv.triviality_bound(model, space, spec, N)
    assert report["passed"]
    assert repr(report["achieved_epsilon"]) == repr(expected)
    _assert_saw_the_state_and_its_extension(model.states, ez.embezzled_state(spec))


def test_a_model_that_reads_a_built_state_sees_it_and_its_extension():
    """On the Bell audit's premises, all on one `Preparation.of(state)`, a
    model that reads `scenario.state` is shown the built state itself, and
    on the spectator-extended scenario `tensor(state, |0>_W)`, built on that
    read; a model that echoes `born_table` on them passes every premise."""
    state, a_family, b_family = bell_families(2)
    preparation = hv.Preparation.of(state)
    idle = hv.identity_observable(b_family[1].registry)
    scenarios = [
        hv.Scenario(preparation, (a_family[0],), description="setting 0 alone"),
        hv.Scenario(preparation, (a_family[0], b_family[1]), description="settings (0, 1)"),
        hv.Scenario(preparation, (a_family[0], idle), description="remote idle"),
    ]
    model = _StateBornModel()
    reports = hv.preaudit(model, hv.LambdaSpace.uniform((0, 1)), scenarios, tol=1e-9)
    assert all(report["passed"] for report in reports.values())
    assert any(seen is state for seen in model.states)
    _assert_saw_the_state_and_its_extension(model.states, state)


def test_the_spectator_premise_extends_a_built_state_only_if_read(monkeypatch):
    """The trivial fixture reads only `born`, so the spectator premise on a
    `Preparation.of(state)` scenario runs no `tensor`."""

    def refuse(*args):
        raise AssertionError("the extended state must be built only if a model reads it")

    monkeypatch.setattr(hv, "tensor", refuse)
    state, a_family, b_family = bell_families(2)
    scenario = hv.Scenario(hv.Preparation.of(state), (a_family[0], b_family[1]))
    model, space = hv.fixture_model("trivial")
    assert hv.pe_invariance_check(model, space, scenario)["passed"]


def test_parameter_independence_refuses_scenarios_on_different_preparations():
    """Two `Preparation.of` wraps of one state are different preparations;
    one preparation shared is accepted."""
    state, a_family, b_family = bell_families(1)
    first, second = hv.Preparation.of(state), hv.Preparation.of(state)
    model, space = hv.fixture_model("trivial")
    scenarios = [
        hv.Scenario(first, (a_family[0], b_family[1])),
        hv.Scenario(second, (a_family[0],)),
    ]
    with pytest.raises(ValueError, match="same preparation"):
        hv.check_parind(model, space, scenarios)
    shared = [
        hv.Scenario(first, (a_family[0], b_family[1])),
        hv.Scenario(first, (a_family[0],)),
    ]
    assert hv.check_parind(model, space, shared)["passed"]


@pytest.mark.parametrize("l, n", [(10, 100), (10, 1000), (50, 100), (3, 100)])
def test_ledger_arithmetic_on_spec_weights_matches_the_born_table_route(monkeypatch, l, n):
    """The ledger's pure arithmetic, fed the spec-only slot weights as the
    reads of a one-lambda Born-echo model, certifies the epsilon that
    `triviality_bound` reads off the Born tables, without building a state or
    a Born table."""
    model, space = hv.fixture_model("trivial")
    spec = ez.EmbezzleSpec.from_reals([1.0 / math.pi, 1.0 - 1.0 / math.pi], l=l, n=n)
    oracle = hv.triviality_bound(model, space, spec, 2)

    def refuse(*args):
        raise AssertionError("the ledger arithmetic must not build a state or a Born table")

    monkeypatch.setattr(hv, "born_tables", refuse)
    monkeypatch.setattr(ez, "embezzled_state", refuse)
    stats = ez.slot_statistics_from_spec(spec)
    weights = [stats.weights[p] for p in spec.pairs]
    family = ez.half_subset_family(spec, 6, 7)
    marginals = [[math.fsum(stats.weights[tuple(s)] for s in J)] for J, _ in family]
    side = ([weights], 0.0)
    report = hv._certify(spec, stats, 2, 7, family, [1.0], (side, side), marginals, 1e-9)
    assert report["passed"]
    assert report["achieved_epsilon"] == pytest.approx(oracle["achieved_epsilon"], rel=0, abs=1e-14)
    for block, expected in zip(report["blocks"], oracle["blocks"], strict=True):
        for key in ("final_bound", "remote_deviation", "target_deviation"):
            assert block[key] == pytest.approx(expected[key], rel=0, abs=1e-14)


def test_ledger_point_at_n_1e5_keeps_its_bits():
    """(N, l, n) = (8, 50, 10^5): 200 000 terms, read from the slot
    statistics in well under a second (3.8 s while the ledger built the
    state and ran `born_table` on it)."""
    model, space = hv.fixture_model("trivial")
    spec = ez.EmbezzleSpec.from_reals([1.0 / math.pi, 1.0 - 1.0 / math.pi], l=50, n=10**5)
    report = hv.triviality_bound(model, space, spec, 8)
    assert report["passed"]
    assert repr(report["achieved_epsilon"]) == "0.052861112648117665"


def test_fine_ledger_point_keeps_its_bits():
    """The fine point of acceptance check 11, (N, l, n) = (8, 50, 10^4), to
    the last bit: the check itself pins it only to 1e-8."""
    model, space = hv.fixture_model("trivial")
    spec = ez.EmbezzleSpec.from_reals([1.0 / math.pi, 1.0 - 1.0 / math.pi], l=50, n=10**4)
    report = hv.triviality_bound(model, space, spec, 8)
    assert report["passed"]
    assert report["achieved_epsilon"] == 0.06518891770642714


def _recorded_epsilons():
    """(N, l, n) -> the certified epsilon on record: the `ledger` goldens, the
    `arbitrary` golden rows and acceptance check 11's fine point."""
    recorded = {
        tuple(point["point"]): point["achieved_epsilon"]
        for point in json.loads((GOLDENS / "ledger.json").read_text())
    }
    with open(GOLDENS / "cli" / "arbitrary.csv", newline="") as handle:
        for row in csv.DictReader(handle):
            recorded[(int(row["N"]), int(row["l"]), int(row["n"]))] = float(row["achieved_epsilon"])
    recorded[(8, 50, 10**4)] = 0.06518891770642714
    return recorded


@pytest.mark.parametrize(
    "point, recorded",
    [pytest.param(p, e, id="N{}-l{}-n{}".format(*p)) for p, e in _recorded_epsilons().items()],
)
def test_certified_epsilon_matches_the_exact_rational_ledger(point, recorded):
    """Every input to the trivial fixture's epsilon is rational, so the ledger
    has an exact value; the float epsilon, computed and on record, is within
    a relative 1e-14 of it (measured: within 1e-15)."""
    N, l, n = point
    model, space = hv.fixture_model("trivial")
    spec = ez.EmbezzleSpec.from_reals([1.0 / math.pi, 1.0 - 1.0 / math.pi], l=l, n=n)
    report = hv.triviality_bound(model, space, spec, N)
    assert report["passed"]
    assert report["achieved_epsilon"] == recorded
    exact = exact_trivial_epsilon(spec)
    assert abs(Fraction(recorded) - exact) <= Fraction(1, 10**14) * exact


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


def test_triviality_bound_rejects_the_shipped_signalling_toy():
    """The toy signals only on +/-1 local observables, so the slot observable
    alone never catches it: the half-subset link 0 group does."""
    model, space = hv.fixture_model("signalling-toy")
    spec = ez.EmbezzleSpec.from_exact(["1/3", "2/3"], n=30, even_denominator=True)
    with pytest.raises(hv.PremiseError, match="fails parameter independence") as raised:
        hv.triviality_bound(model, space, spec, 2)
    assert "'scenario_b': 'half-subset settings (0, 1)'" in str(raised.value)
    assert isinstance(raised.value, ValueError)


class _LambdaTiltModel:
    """Lambda-dependent, and compliant as far as `preaudit` looks: on
    `LambdaSpace.uniform((0, 1))` it scales each Born row by
    1 + sigma * eta * (u(a) - u_bar), with sigma = +1 at lambda 0 and -1 at
    lambda 1, u alternating 0, 1, 0, ... over the sorted eigenvalues of the
    first observable, and u_bar = sum_a p(a) u(a) over its Born marginal.
    Each index-0 marginal, per lambda, depends on that Born marginal alone,
    and the lambda-average is Born.  The marginals of the other observables
    do move with the first one's setting, which `preaudit` does not compare.
    It keeps what it returned, by scenario description and lambda."""

    name = "lambda-tilt"

    def __init__(self, eta):
        self.eta = eta
        self.returned = {}

    def distribution(self, scenario, lam):
        born = scenario.born
        u = {e: k % 2 for k, e in enumerate(sorted(scenario.observables[0].eigenvalues))}
        u_bar = math.fsum(p * u[cell[0]] for cell, p in born.items())
        tilt = self.eta if lam == 0 else -self.eta
        dist = {cell: p * (1.0 + tilt * (u[cell[0]] - u_bar)) for cell, p in born.items()}
        self.returned[scenario.description, lam] = dist
        return dist


@pytest.mark.parametrize("eta", [0.01, 0.1, 0.5])
@pytest.mark.parametrize("N, l, n", [(2, 10, 100), (2, 10, 1000), (8, 50, 100)])
def test_the_ledger_holds_on_a_compliant_model_that_depends_on_lambda(eta, N, l, n):
    """At the `ledger` points the lambda-tilt model passes the pre-audit
    (`triviality_bound` raises no `PremiseError`), its slot responses differ
    across lambda, and every block's target deviation is within its final
    bound.  At eta = 0.5 and (8, 50, 100) its half-subset links fail: the
    chain catches the tilt there."""
    spec = ez.EmbezzleSpec.from_reals([1.0 / math.pi, 1.0 - 1.0 / math.pi], l=l, n=n)
    model = _LambdaTiltModel(eta)
    report = hv.triviality_bound(model, hv.LambdaSpace.uniform((0, 1)), spec, N)
    for side in ("extraction-side slots", "remote-side slots"):
        assert model.returned[side, 0] != model.returned[side, 1]
    assert report["conclusion_holds"]
    for block in report["blocks"]:
        assert block["target_deviation"] <= block["final_bound"]
    assert report["links_hold"] == ((eta, N, l, n) != (0.5, 8, 50, 100))


def test_slot_observable_resolves_slots():
    spec = ez.EmbezzleSpec.from_exact(["1/3", "2/3"], n=12)
    state = ez.embezzled_state(spec)
    obs = ez.slot_observable(spec, state.registry, side="A")
    dist = born_table(state, (obs,))
    stats = ez.slot_statistics(state, spec)
    for pair in spec.pairs:
        eig = ez.pair_eigenvalue_scheme(pair)
        assert dist[(eig,)] == pytest.approx(stats.weights[pair], abs=1e-12)
    assert dist.get((0.0,), 0.0) == pytest.approx(0.0, abs=1e-12)
