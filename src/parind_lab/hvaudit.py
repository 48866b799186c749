"""Audits of hidden-variable models against quantum predictions.

A hidden-variable model supplements a quantum state with a parameter lambda:
for each preparation, each choice of measurements on disjoint subsystems, and
each lambda it returns a joint outcome distribution.  The checks here probe the
two structural premises such a model can claim:

* quantum completeness -- the mu-weighted lambda average of the model's
  distributions reproduces the Born distribution of every audited scenario;
* parameter independence -- for fixed lambda, the marginal on one wing does not
  move when a remote wing switches measurements or measures nothing at all.

`preaudit` derives both checks, plus spectator invariance, from the list of
scenarios a certified number reads: quantum completeness on every scenario,
parameter independence within each group sharing the index-0 observable,
spectator invariance on the first.  The CLI's `audit` findings and the
`triviality_bound` ledger both go through it; the ledger leaves the remote
variants of half-subset links 1-6 unaudited (see its docstring).

Every scenario is on a `Preparation`: a state known by its registry, built
only when read, with a Born route of its own that gives a list of tables for
a list of observable tuples.  `Preparation.of(state)` wraps a built state,
its tables `qcore.born_tables`', one kernel pass per family of tables, and
`fill_born` reads the tables of many scenarios with one call per
preparation.  The ledger's preparation reads its tables from the embezzled
state's slot statistics (`embezzle.SlotStatistics.born_table`), with the
same bits, so a ledger call builds no state unless a model reads one.

On top of the checks sit the refutation tools.  `chained_audit` runs the
chained-correlation argument: a parameter-independent model whose setting-0
marginals are near-deterministic must violate the chain's measured correlation
budget once the chain is deep enough.  `perfect_correlation_check` verifies
that index events on the two wings of a Schmidt-correlated state never
disagree at the Born level; for a model, quantum completeness on the same
event scenarios (`check_compquant`) already bounds each lambda's mismatch, by
nonnegativity, by the check's tolerance over that lambda's weight.
`triviality_bound` assembles the full finite-resource ledger on an
embezzlement-extracted state: measured chain budgets bound how far per-lambda
slot probabilities can spread, the half-subset deviation lemma converts the
spread into block-level bounds, and the rational-approximant error is added on
top, yielding a certified epsilon such that every compliant model's block
probabilities sit within 3*epsilon of the squared target coefficients.  The
ledger is a measurement (`triviality_bound` reads the model) followed by a
pure arithmetic (`_certify`) on the numbers read and the spec's slot
statistics.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import random
import types
from collections.abc import Callable, Hashable, Iterable, Mapping, Sequence
from fractions import Fraction
from numbers import Rational, Real
from typing import Protocol, runtime_checkable

from . import chained_bell as cb
from . import embezzle as ez
from . import halfsum
from .qcore import (
    MultiIndex,
    Observable,
    RankedProjector,
    SparseState,
    SystemRegistry,
    basis_span_projector,
    basis_state,
    born_tables,
    complete_with_complement,
    identity_projector,
    tensor,
)

Outcome = tuple[float, ...]
Distribution = Mapping[Outcome, float]


class ModelUndefinedError(ValueError):
    """A model declines a scenario outside its domain of definition.

    Partial models are legitimate audit subjects; scans record the refusal for
    the offending configuration and keep going instead of aborting the sweep.
    """


# ---------------------------------------------------------------------------
# Hidden-variable spaces and measurement scenarios


@dataclasses.dataclass(frozen=True)
class LambdaSpace:
    """Finite hidden-parameter space with normalized weights.

    Weights may be exact rationals (validated exactly) or floats (validated to
    1e-12).  Points are arbitrary hashables passed through to the model.
    """

    points: tuple[Hashable, ...]
    weights: tuple[Fraction | float, ...]

    def __post_init__(self) -> None:
        if len(self.points) != len(self.weights):
            raise ValueError("one weight per hidden-parameter point required")
        if not self.points:
            raise ValueError("hidden-parameter space must be nonempty")
        if len(set(self.points)) != len(self.points):
            raise ValueError("hidden-parameter points must be distinct")
        for point, w in zip(self.points, self.weights):
            if not isinstance(w, Rational) and not math.isfinite(w):
                raise ValueError(f"weight {w} of hidden-parameter point {point!r} is not finite")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be nonnegative")
        if any(w == 0 for w in self.weights):
            raise ValueError("weights must be nonzero: drop the zero-weight points")
        total = sum(self.weights)
        if all(isinstance(w, Rational) for w in self.weights):
            if total != 1:
                raise ValueError(f"weights must sum to 1 exactly, got {total}")
        elif abs(total - 1) > 1e-12:
            raise ValueError(f"weights must sum to 1 within 1e-12, got {total}")

    def items(self) -> list[tuple[Hashable, float]]:
        return [(p, float(w)) for p, w in zip(self.points, self.weights)]

    @staticmethod
    def uniform(points: Sequence[Hashable]) -> LambdaSpace:
        pts = tuple(points)
        return LambdaSpace(pts, (Fraction(1, len(pts)),) * len(pts))


@dataclasses.dataclass(frozen=True, eq=False)
class Preparation:
    """A state known by its registry, built only when `state` is first read
    (then kept), with one Born route of its own: `born_tables(tuples)` takes
    a list of observable tuples and must give, for each, the table
    `qcore.born_table(state, observables)` gives, cell for cell, bits and
    key order included, for the observables its scenarios measure.  `of`
    wraps a built state, its tables from one `qcore.born_tables` call (one
    kernel pass per family of tables); the ledger's preparation is the
    embezzled state, its tables from the slot statistics, one
    `embezzle.SlotStatistics.born_table` per tuple.  The audits compare
    scenarios on one preparation by identity, so wrap a state once and
    share the object."""

    registry: SystemRegistry
    build: Callable[[], SparseState]
    born_tables: Callable[[Sequence[Sequence[Observable]]], list[Distribution]]

    @functools.cached_property
    def state(self) -> SparseState:
        return self.build()

    @classmethod
    def of(cls, state: SparseState) -> Preparation:
        """The preparation of a built state, its tables `born_tables`'."""
        return cls(state.registry, lambda: state, functools.partial(born_tables, state))


@dataclasses.dataclass(frozen=True, eq=False)
class Scenario:
    """A preparation together with measurements on disjoint subsystem groups;
    the preparation's state is built only if `state` is read."""

    preparation: Preparation
    observables: tuple[Observable, ...]
    description: str = ""

    def __post_init__(self) -> None:
        if not self.observables:
            raise ValueError("scenario needs at least one observable")
        seen: set[str] = set()
        for obs in self.observables:
            for label in obs.acting_subsystems:
                if label not in self.preparation.registry.labels:
                    raise KeyError(f"observable acts on unknown subsystem {label!r}")
                if label in seen:
                    raise ValueError(
                        f"observables overlap on subsystem {label!r}; scenario "
                        "measurements must act on disjoint groups"
                    )
                seen.add(label)

    @property
    def state(self) -> SparseState:
        """The prepared state, built on the preparation's first read."""
        return self.preparation.state

    @functools.cached_property
    def born(self) -> Distribution:
        """Read-only Born joint distribution of this scenario, built on first
        read (or by `fill_born`) and kept for the scenario's lifetime."""
        return types.MappingProxyType(self.preparation.born_tables([self.observables])[0])


def fill_born(scenarios: Iterable[Scenario]) -> None:
    """Read the `born` table of every scenario not read yet, with one call of
    each preparation's Born route for all of its scenarios, so a family of
    tables on a built state costs one kernel pass per level."""
    pending: dict[int, list[Scenario]] = {}
    for scenario in dict.fromkeys(scenarios):
        if "born" not in vars(scenario):
            pending.setdefault(id(scenario.preparation), []).append(scenario)
    for group in pending.values():
        tables = group[0].preparation.born_tables([s.observables for s in group])
        for scenario, table in zip(group, tables):
            vars(scenario)["born"] = types.MappingProxyType(table)


def identity_observable(registry: SystemRegistry) -> Observable:
    """The trivial 'measure nothing' observable: eigenvalue 1 on everything."""
    return Observable(((1.0, identity_projector(registry)),))


# ---------------------------------------------------------------------------
# The model interface and the built-in fixtures


@runtime_checkable
class HVModel(Protocol):
    """A hidden-variable response rule.

    `distribution` must be a pure function of (scenario, lam): same inputs,
    same numbers.  It may read the scenario's `observables`, `description`,
    Born table `born`, `preparation` and `state`, and must mutate none of
    them.  The table is the preparation's, with the bits `born_table` gives
    on the state; the state is built on the first read of `state` and shared
    by every scenario on that preparation.  On a ledger scenario
    (`triviality_bound`) the table comes from the slot statistics
    (`embezzle.SlotStatistics.born_table`) and the state is
    `embezzled_state(spec)`.
    """

    name: str

    def distribution(self, scenario: Scenario, lam: Hashable) -> Distribution:
        ...


def rotation_angle(observable: Observable) -> float | None:
    """Recover theta from a rank-one rotated two-outcome observable.

    The -1 branch of such an observable projects on cos(theta/2)|lo> +
    sin(theta/2)|hi>; the angle is read off its amplitudes.  Returns None for
    the trivial identity observable, raises for anything else.
    """
    if len(observable.branches) == 1:
        return None
    if set(observable.eigenvalues) != {1.0, -1.0}:
        raise ValueError(
            f"expected eigenvalues {{+1, -1}}, got {observable.eigenvalues}"
        )
    minus = observable.projector_for(-1.0)
    if minus.complemented or minus.rank_of_span != 1:
        raise ValueError("rotation angle requires a rank-one -1 branch")
    ket = minus.kets[0]
    if ket.registry.total_dimension != 2:
        raise ValueError("rotation angle is defined on a two-dimensional wing")
    amplitudes = dict(ket.amplitudes)
    lo = complex(amplitudes.get((0,), 0.0))
    hi = complex(amplitudes.get((1,), 0.0))
    if abs(lo.imag) > 1e-12 or abs(hi.imag) > 1e-12:
        raise ValueError("rotation angle requires real amplitudes")
    return (2.0 * math.atan2(hi.real, lo.real)) % (2.0 * math.pi)


class TrivialModel:
    """The model that ignores lambda and echoes the Born distribution.

    It is quantum-complete and parameter-independent by construction, which
    makes it the reference fixture for every audit that should pass.
    """

    name = "trivial"

    def distribution(self, scenario: Scenario, lam: Hashable) -> Distribution:
        return scenario.born


class DeterministicChainModel:
    """Maximally deterministic two-valued model: every +/-1 measurement simply
    reveals lambda.

    Single-setting marginals average to the Born 1/2, but outcomes on the two
    wings always agree, so the model's disagreement probabilities vanish and
    quantum completeness breaks on every rotated pair.  Its setting-0 marginals
    are fully deterministic per lambda, which the chained audit turns into a
    refutation as soon as the chain budget drops below 1.
    """

    name = "deterministic-chain"

    def distribution(self, scenario: Scenario, lam: Hashable) -> Distribution:
        if lam not in (1.0, -1.0):
            raise ValueError(f"{self.name} expects lambda in {{+1.0, -1.0}}, got {lam!r}")
        outcome = []
        for obs in scenario.observables:
            if len(obs.branches) == 1:
                outcome.append(obs.eigenvalues[0])
            elif set(obs.eigenvalues) == {1.0, -1.0}:
                outcome.append(float(lam))
            else:
                raise ModelUndefinedError(
                    f"{self.name} is undefined on observable with eigenvalues "
                    f"{obs.eigenvalues}"
                )
        return {tuple(outcome): 1.0}


class LocalCosineResponseModel:
    """Local deterministic response on an angle grid.

    lambda ranges over `grid_points` equally spaced angles; a rotated
    measurement at angle phi returns -1 exactly when phi - lambda falls in the
    half-circle where the cosine is positive.  Marginals reproduce the Born 1/2
    exactly for any setting, and parameter independence holds because the rule
    is local -- but adjacent-setting disagreement comes out linear in the angle
    gap (1/2N on the grid) instead of quadratic, so the model overshoots every
    quantum chain while saturating its own.
    """

    name = "local-cosine"

    def __init__(self, grid_points: int = 32):
        # bool is an int subclass, but True is no grid size
        if isinstance(grid_points, bool) or not isinstance(grid_points, int) or grid_points < 1:
            raise ValueError(f"grid_points must be an integer >= 1, got {grid_points!r}")
        self.grid_points = grid_points

    def distribution(self, scenario: Scenario, lam: Hashable) -> Distribution:
        k = int(lam)
        if not 0 <= k < self.grid_points:
            raise ValueError(
                f"{self.name} expects lambda in range({self.grid_points}), got {lam!r}"
            )
        response_angle = 2.0 * math.pi * k / self.grid_points
        outcome = []
        for obs in scenario.observables:
            try:
                phi = rotation_angle(obs)
            except ValueError as err:
                raise ModelUndefinedError(f"{self.name}: {err}") from err
            if phi is None:
                outcome.append(obs.eigenvalues[0])
                continue
            gap = (phi - response_angle) % (2.0 * math.pi)
            outcome.append(-1.0 if gap < math.pi / 2 or gap >= 3 * math.pi / 2 else 1.0)
        return {tuple(outcome): 1.0}


class SignallingToyModel:
    """Quantum-complete on average but parameter-dependent per lambda.

    With two equally weighted lambda values, the first measurement's +/-1
    marginal is shifted by +shift or -shift -- but only when some other wing
    performs a nontrivial measurement.  The shifts cancel in the average, so
    quantum completeness passes; the per-lambda marginal moves by exactly
    `shift` between a measuring and a non-measuring remote wing, which is what
    the parameter-independence check reports.
    """

    name = "signalling-toy"

    def __init__(self, shift: float = 0.1):
        if isinstance(shift, bool) or not isinstance(shift, Real) or not 0 <= shift <= 1:
            raise ValueError(f"shift must be a real number in [0, 1], got {shift!r}")
        self.shift = shift

    def distribution(self, scenario: Scenario, lam: Hashable) -> Distribution:
        if lam not in (0, 1):
            raise ValueError(f"{self.name} expects lambda in {{0, 1}}, got {lam!r}")
        base = scenario.born
        first = scenario.observables[0]
        remote_active = any(
            len(obs.branches) > 1 for obs in scenario.observables[1:]
        )
        if not remote_active or set(first.eigenvalues) != {1.0, -1.0}:
            return base
        signed = self.shift if lam == 0 else -self.shift
        rest_marginal: dict[Outcome, float] = {}
        for outcome, p in base.items():
            rest_marginal[outcome[1:]] = rest_marginal.get(outcome[1:], 0.0) + p
        shifted: dict[Outcome, float] = {}
        for outcome, p in base.items():
            delta = signed * rest_marginal[outcome[1:]]
            value = p + delta if outcome[0] == 1.0 else p - delta
            if value < -1e-12 or value > 1 + 1e-12:
                raise ModelUndefinedError(
                    f"{self.name} is undefined here: shifted probability {value} "
                    f"for outcome {outcome} leaves [0, 1]"
                )
            shifted[outcome] = min(1.0, max(0.0, value))
        return shifted


def _local_cosine_fixture(params: dict) -> tuple[HVModel, LambdaSpace]:
    model = LocalCosineResponseModel(**params)
    return model, LambdaSpace.uniform(tuple(range(model.grid_points)))


# Built-in fixture name -> (the parameters it reads, constructor of (model,
# hidden-parameter space) from them); any other parameter is refused.
_FIXTURES: dict[str, tuple[tuple[str, ...], Callable[[dict], tuple[HVModel, LambdaSpace]]]] = {
    "trivial": ((), lambda params: (TrivialModel(), LambdaSpace((0,), (Fraction(1),)))),
    "deterministic-chain": (
        (),
        lambda params: (DeterministicChainModel(), LambdaSpace.uniform((1.0, -1.0))),
    ),
    "local-cosine": (("grid_points",), _local_cosine_fixture),
    "signalling-toy": (
        ("shift",),
        lambda params: (
            SignallingToyModel(**params),
            LambdaSpace.uniform((0, 1)),
        ),
    ),
}
FIXTURE_NAMES = tuple(_FIXTURES)


def fixture_model(name: str, **params: float) -> tuple[HVModel, LambdaSpace]:
    """Instantiate a built-in model together with its hidden-parameter space;
    a parameter the fixture does not read is an error."""
    if name not in FIXTURE_NAMES:
        raise ValueError(f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}")
    accepted, build = _FIXTURES[name]
    unknown = [key for key in params if key not in accepted]
    if unknown:
        raise ValueError(
            f"fixture {name!r} does not read {', '.join(map(repr, unknown))}; "
            f"accepted parameters: {', '.join(accepted) or 'none'}"
        )
    return build(params)


# ---------------------------------------------------------------------------
# The two structural checks


def _validated_distribution(
    model: HVModel, scenario: Scenario, lam: Hashable
) -> Distribution:
    dist = model.distribution(scenario, lam)
    cleaned: dict[Outcome, float] = {}
    width = len(scenario.observables)
    for outcome, value in dist.items():
        if len(outcome) != width:
            raise ValueError(
                f"model {model.name!r} returned outcome {outcome} of wrong width "
                f"for lambda {lam!r} (expected {width} entries)"
            )
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(
                f"model {model.name!r} returned non-finite probability {value} "
                f"for outcome {outcome} at lambda {lam!r}"
            )
        if value < -1e-12:
            raise ValueError(
                f"model {model.name!r} returned negative probability {value} "
                f"at lambda {lam!r}"
            )
        cleaned[tuple(float(x) for x in outcome)] = max(0.0, value)
    total = math.fsum(cleaned.values())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(
            f"model {model.name!r} distribution sums to {total} at lambda {lam!r}"
        )
    return cleaned


def model_average(
    model: HVModel, space: LambdaSpace, scenario: Scenario
) -> Distribution:
    """mu-weighted average of the model's per-lambda distributions."""
    terms: dict[Outcome, list[float]] = {}
    for lam, weight in space.items():
        for outcome, value in _validated_distribution(model, scenario, lam).items():
            terms.setdefault(outcome, []).append(weight * value)
    return {outcome: math.fsum(values) for outcome, values in terms.items()}


def check_compquant(
    model: HVModel,
    space: LambdaSpace,
    scenarios: Sequence[Scenario],
    *,
    tol: float = 1e-9,
) -> dict:
    """Quantum completeness: model averages reproduce Born on every scenario.

    A failure is localized: the report names the scenario, the outcome tuple,
    and both probabilities.
    """
    checks = []
    first_failure = None
    for scenario in scenarios:
        born = scenario.born
        averaged = model_average(model, space, scenario)
        max_deviation, worst_outcome = 0.0, None
        for outcome in set(born) | set(averaged):
            deviation = abs(averaged.get(outcome, 0.0) - born.get(outcome, 0.0))
            if deviation > max_deviation:
                max_deviation, worst_outcome = deviation, outcome
        holds = max_deviation <= tol
        checks.append(
            {
                "scenario": scenario.description,
                "max_deviation": max_deviation,
                "worst_outcome": worst_outcome,
                "holds": holds,
            }
        )
        if not holds and first_failure is None:
            first_failure = {
                "scenario": scenario.description,
                "outcome": worst_outcome,
                "model_value": averaged.get(worst_outcome, 0.0),
                "born_value": born.get(worst_outcome, 0.0),
                "deviation": max_deviation,
            }
    return {
        "model": model.name,
        "tolerance": tol,
        "checks": checks,
        "first_failure": first_failure,
        "max_deviation": max(c["max_deviation"] for c in checks),
        "passed": first_failure is None,
    }


def _local_marginal(dist: Distribution) -> dict[float, float]:
    """The marginal of the index-0 observable."""
    marginal: dict[float, list[float]] = {}
    for outcome, value in dist.items():
        marginal.setdefault(outcome[0], []).append(value)
    return {eig: math.fsum(values) for eig, values in marginal.items()}


def check_parind(
    model: HVModel,
    space: LambdaSpace,
    scenarios: Sequence[Scenario],
    *,
    tol: float = 1e-9,
) -> dict:
    """Parameter independence: per-lambda local marginals ignore remote settings.

    All scenarios must share one `Preparation` object and the same local
    observable at index 0; the remaining slots may carry anything, including
    the identity observable standing in for 'no measurement'.  Failures name
    the lambda, the two scenarios, the outcome, and the marginal gap.
    """
    if len(scenarios) < 2:
        raise ValueError("parameter independence needs at least two scenarios")
    anchor = scenarios[0]
    for scenario in scenarios[1:]:
        if scenario.preparation is not anchor.preparation:
            raise ValueError("all scenarios must share the same preparation")
        if scenario.observables[0] is not anchor.observables[0]:
            raise ValueError("all scenarios must share the observable at index 0")
    per_lambda = []
    first_failure = None
    max_deviation = 0.0
    for lam, _ in space.items():
        marginals = [
            _local_marginal(_validated_distribution(model, sc, lam))
            for sc in scenarios
        ]
        lam_worst = 0.0
        for i in range(len(scenarios)):
            for j in range(i + 1, len(scenarios)):
                for eig in set(marginals[i]) | set(marginals[j]):
                    deviation = abs(
                        marginals[i].get(eig, 0.0) - marginals[j].get(eig, 0.0)
                    )
                    lam_worst = max(lam_worst, deviation)
                    if deviation > tol and first_failure is None:
                        first_failure = {
                            "lambda": lam,
                            "scenario_a": scenarios[i].description,
                            "scenario_b": scenarios[j].description,
                            "outcome": eig,
                            "marginal_a": marginals[i].get(eig, 0.0),
                            "marginal_b": marginals[j].get(eig, 0.0),
                            "deviation": deviation,
                        }
        per_lambda.append({"lambda": lam, "max_deviation": lam_worst})
        max_deviation = max(max_deviation, lam_worst)
    return {
        "model": model.name,
        "tolerance": tol,
        "local_index": 0,
        "per_lambda": per_lambda,
        "max_deviation": max_deviation,
        "first_failure": first_failure,
        "passed": first_failure is None,
    }


_SPECTATOR_LABEL = "W"


def pe_invariance_check(
    model: HVModel,
    space: LambdaSpace,
    scenario: Scenario,
) -> dict:
    """Premise-extension probe: attaching an unmeasured qubit spectator `W` in
    |0> must leave every per-lambda distribution unchanged (within 1e-12, the
    float rounding of a model that reads only the measured registers).  The
    extended state is `tensor(state, |0>_W)`: the state's key rows plus one
    constant column, over the same amplitudes.  It is built only if a model
    reads it, and its Born tables are the preparation's own: an unmeasured
    |0> factor moves no cell, key order and bits included."""
    preparation = scenario.preparation
    if _SPECTATOR_LABEL in preparation.registry.labels:
        raise ValueError(f"spectator label {_SPECTATOR_LABEL!r} already in use")
    spectator = basis_state(SystemRegistry(((_SPECTATOR_LABEL, 2),)), (0,))
    extended_preparation = Preparation(
        preparation.registry.merged_with(spectator.registry),
        lambda: tensor(preparation.state, spectator),
        preparation.born_tables,
    )
    extended = Scenario(
        extended_preparation,
        scenario.observables,
        description=f"{scenario.description} + spectator",
    )
    max_deviation = 0.0
    worst = None
    for lam, _ in space.items():
        bare = _validated_distribution(model, scenario, lam)
        dressed = _validated_distribution(model, extended, lam)
        for outcome in set(bare) | set(dressed):
            deviation = abs(bare.get(outcome, 0.0) - dressed.get(outcome, 0.0))
            if deviation > max_deviation:
                max_deviation, worst = deviation, (lam, outcome)
    passed = max_deviation <= 1e-12
    return {
        "model": model.name,
        "scenario": scenario.description,
        "max_deviation": max_deviation,
        "first_failure": None if passed else worst,
        "passed": passed,
    }


class PremiseError(ValueError):
    """A model fails a premise the refutation rests on, so nothing it reads
    can be certified."""


def preaudit(
    model: HVModel, space: LambdaSpace, scenarios: Sequence[Scenario], *, tol: float
) -> dict[str, dict]:
    """Premise -> report, each with `passed` and `first_failure`, for the
    scenarios a certified number reads: quantum completeness on every scenario,
    parameter independence within each group sharing its index-0 `Observable`
    object (groups of one are skipped), spectator invariance on the first
    scenario.  A model refusal (`ModelUndefinedError`) fails its premise."""
    groups: dict[int, list[Scenario]] = {}
    for scenario in scenarios:
        groups.setdefault(id(scenario.observables[0]), []).append(scenario)

    def parind() -> dict:
        # the first failing group's report, else the last group's
        report = {"passed": True, "first_failure": None}
        for group in groups.values():
            if len(group) > 1 and report["passed"]:
                report = check_parind(model, space, group, tol=tol)
        return report

    checks = {
        "quantum completeness": lambda: check_compquant(model, space, scenarios, tol=tol),
        "parameter independence": parind,
        "spectator invariance": lambda: pe_invariance_check(model, space, scenarios[0]),
    }
    reports = {}
    for premise, check in checks.items():
        try:
            reports[premise] = check()
        except ModelUndefinedError as err:
            reports[premise] = {"passed": False, "first_failure": {"undefined": str(err)}}
    return reports


# ---------------------------------------------------------------------------
# Chained-correlation audit


def chained_audit(
    model: HVModel,
    space: LambdaSpace,
    state: SparseState,
    N: int,
    *,
    tol: float = 1e-9,
) -> dict:
    """Run the chained-correlation argument against a model.

    The chain rotates basis states 0 and 1 of wing "A" against those of wing
    "B" of `state`, as on the Bell state.

    The certified inequality for a quantum-complete, parameter-independent
    model reads: the lambda-average of |Pr(A_0=+1) - Pr(A_0=-1)| is at most the
    Born value of the chain I_N.  The audit measures the left side from the
    model's setting-0 marginals, the right side from the state, and reports the
    model's own disagreement sum plus its quantum-completeness gap per pair.
    The terminal setting 2N is the negation of setting 0; models that assign it
    independent outcomes are flagged by the negation-consistency entry.
    """
    a_family, b_family = cb.chain_families(cb.ChainSpec(N=N, pair=(0, 1)), state.registry)
    preparation = Preparation.of(state)
    settings = cb.adjacent_setting_pairs(N)
    pair_scenarios = [
        Scenario(preparation, (a_family[a], b_family[b]), description=f"settings ({a}, {b})")
        for a, b in settings
    ]
    setting0 = Scenario(preparation, (a_family[0],), description="setting 0 alone")
    terminal = Scenario(preparation, (a_family[2 * N],), description="setting 2N alone")
    fill_born([*pair_scenarios, setting0, terminal])

    pairs = []
    born_terms, model_terms = [], []
    compquant_worst: tuple[float, tuple[int, int] | None] = (0.0, None)
    for (a, b), scenario in zip(settings, pair_scenarios):
        born = scenario.born
        averaged = model_average(model, space, scenario)
        born_dis = math.fsum(p for (x, y), p in born.items() if x != y)
        model_dis = math.fsum(p for (x, y), p in averaged.items() if x != y)
        gap = max(
            abs(averaged.get(o, 0.0) - born.get(o, 0.0))
            for o in set(born) | set(averaged)
        )
        if gap > compquant_worst[0]:
            compquant_worst = (gap, (a, b))
        born_terms.append(born_dis)
        model_terms.append(model_dis)
        pairs.append(
            {
                "a_setting": a,
                "b_setting": b,
                "born_disagreement": born_dis,
                "model_disagreement": model_dis,
                "compquant_deviation": gap,
            }
        )
    chain_value = math.fsum(born_terms)
    model_chain_value = math.fsum(model_terms)

    lhs_terms, delta_terms, negation_devs = [], [], []
    for lam, weight in space.items():
        p0 = _local_marginal(_validated_distribution(model, setting0, lam))
        p_term = _local_marginal(_validated_distribution(model, terminal, lam))
        plus, minus = p0.get(1.0, 0.0), p0.get(-1.0, 0.0)
        lhs_terms.append(weight * abs(plus - minus))
        delta_terms.append(weight * abs(plus - 0.5))
        negation_devs.append(abs(p_term.get(1.0, 0.0) - minus))
    lhs = math.fsum(lhs_terms)
    nontriviality = math.fsum(delta_terms)
    negation_deviation = max(negation_devs)

    refuted = lhs > chain_value + tol
    return {
        "model": model.name,
        "N": N,
        "chain_value": chain_value,
        "chain_closed_form": cb.bell_chain_closed_form(N),
        "model_chain_value": model_chain_value,
        "pairs": pairs,
        "compquant_max_deviation": compquant_worst[0],
        "compquant_worst_pair": compquant_worst[1],
        "lhs": lhs,
        "inequality_holds": not refuted,
        "refuted": refuted,
        "nontriviality": {
            "value": nontriviality,
            "bound": chain_value / 2.0,
            "holds": nontriviality <= chain_value / 2.0 + tol,
        },
        "negation_consistency": {
            "max_deviation": negation_deviation,
            "holds": negation_deviation <= tol,
        },
    }


def refutation_scan(
    model: HVModel,
    space: LambdaSpace,
    state: SparseState,
    N_values: Sequence[int],
    *,
    tol: float = 1e-9,
) -> dict:
    """Audit a model at increasing chain depths; report the first refuting N.

    A model that declines some depth (`ModelUndefinedError`) gets a stub report
    for that N and the scan continues; undefined depths never count as refuted.
    """
    reports = []
    for N in N_values:
        try:
            reports.append(chained_audit(model, space, state, N, tol=tol))
        except ModelUndefinedError as err:
            reports.append(
                {"model": model.name, "N": N, "undefined": str(err), "refuted": False}
            )
    refuting = [r["N"] for r in reports if r["refuted"]]
    return {
        "model": model.name,
        "N_values": tuple(N_values),
        "reports": reports,
        "refuting_N": min(refuting) if refuting else None,
        "refuted": bool(refuting),
        "undefined_N": tuple(r["N"] for r in reports if "undefined" in r),
    }


# ---------------------------------------------------------------------------
# Perfect-correlation transfer


def _directed(forward: float, backward: float, direction: str) -> float:
    """The mismatch of remote events a and b in one direction: "forward" is the
    one-sided event (a fires, b does not), "backward" its mirror, and "both"
    their sum, the probability that exactly one fires.  One-sided events
    express refinements: a finer event on one wing implies a coarser one on
    the other without the converse holding eventwise."""
    if direction == "forward":
        return forward
    if direction == "backward":
        return backward
    if direction == "both":
        return forward + backward
    raise ValueError(f"direction must be forward, backward or both, got {direction!r}")


# A perfect-correlation event: (description, event_a, event_b, direction), with
# direction "forward", "backward" or "both" as `_directed` reads it.
Event = tuple[str, RankedProjector, RankedProjector, str]


def schmidt_index_events(
    registry: SystemRegistry, index_sets: Iterable[Sequence[MultiIndex | int]]
) -> list[Event]:
    """Matched basis-index events on the A and B wings of a Schmidt-diagonal
    state, each required to agree in both directions."""
    a_registry = registry.restrict(("A",))
    b_registry = registry.restrict(("B",))
    events = []
    for index_set in index_sets:
        indices = tuple(index_set)
        events.append(
            (
                f"indices {sorted(indices)}",
                basis_span_projector(a_registry, indices),
                basis_span_projector(b_registry, indices),
                "both",
            )
        )
    return events


def extraction_block_events(spec: ez.EmbezzleSpec) -> tuple[SparseState, list[Event]]:
    """Events tying extraction-side slots to untouched remote blocks.

    The state is tau_n (x) |00> (x) phi extracted on side A only
    (`one_side_embezzled_state`); each slot event (i, j) on the extracted wing
    must then fire together with the plain block event i on the untouched
    remote wing.
    """
    state = ez.one_side_embezzled_state(spec)
    host = state.registry
    acting_a = ez.slot_registry(host, "A")
    _, _, b_sys = ez.SIDES["B"]
    acting_b = host.restrict((b_sys,))
    slot_keys: dict[int, list[tuple[ez.Pair, MultiIndex]]] = {}
    for pair in spec.pairs:
        slot_keys.setdefault(pair[0], []).append((pair, ez.slot_key(pair, acting_a, "A")))
    events = []
    for i, keyed in slot_keys.items():
        block_b = basis_span_projector(acting_b, [(i,)])
        block_a = basis_span_projector(acting_a, [key for _, key in keyed])
        for pair, key in keyed:
            events.append(
                (
                    f"slot {pair} implies remote block {i}",
                    basis_span_projector(acting_a, [key]),
                    block_b,
                    "forward",
                )
            )
        events.append(
            (f"remote block {i} implies some slot of {i}", block_a, block_b, "backward")
        )
        events.append((f"block {i} agreement", block_a, block_b, "both"))
    return state, events


def perfect_correlation_check(
    state: SparseState, events: Sequence[Event], *, tol: float = 1e-12
) -> dict:
    """Verify that matched remote events never disagree: each mismatch
    probability must vanish (within `tol`); for one-sided events only the
    stated direction is required to vanish."""
    # Cells (1, -1) and (-1, 1) are the one-sided mismatches, each the float
    # of the literal joint probability of one event and the other's
    # complement (the tests pin it against the oracle in tests/oracles.py).
    # Every event's table comes from one `born_tables` call.
    tables = born_tables(
        state,
        [
            tuple(complete_with_complement([(1.0, event)], -1.0) for event in (event_a, event_b))
            for _, event_a, event_b, _ in events
        ],
    )
    quantum = []
    for (description, _, _, direction), born in zip(events, tables):
        p = _directed(born[(1.0, -1.0)], born[(-1.0, 1.0)], direction)
        quantum.append({"event": description, "mismatch": p, "holds": p <= tol})
    return {
        "tolerance": tol,
        "quantum": quantum,
        "max_mismatch": max(q["mismatch"] for q in quantum),
        "passed": all(q["holds"] for q in quantum),
    }


# ---------------------------------------------------------------------------
# The finite-resource triviality ledger


def _slot_vectors(
    model: HVModel, space: LambdaSpace, spec: ez.EmbezzleSpec, scenario: Scenario
) -> tuple[list[list[float]], float]:
    """One wing's read: per-lambda slot probabilities in `spec.pairs` order,
    plus the mu-weighted mass the model put outside the slots."""
    eigenvalues = [ez.pair_eigenvalue_scheme(p) for p in spec.pairs]
    slots = set(eigenvalues)
    vectors, leak_terms = [], []
    for lam, weight in space.items():
        marginal = _local_marginal(_validated_distribution(model, scenario, lam))
        vectors.append([marginal.get(e, 0.0) for e in eigenvalues])
        leak_terms.append(weight * sum(v for e, v in marginal.items() if e not in slots))
    return vectors, math.fsum(leak_terms)


def _audited_slot_pairs(
    spec: ez.EmbezzleSpec,
    stats: ez.SlotStatistics,
    count: int,
    seed: int,
) -> list[tuple[ez.Pair, ez.Pair]]:
    ordered = sorted(spec.pairs, key=lambda p: stats.weights[p])
    chosen = [(ordered[0], ordered[-1])]
    chosen.extend(
        (spec.pairs[k], spec.pairs[k + 1]) for k in range(min(2, spec.r - 1))
    )
    rng = random.Random(seed)
    while len(chosen) < count:
        s, t = rng.sample(spec.pairs, 2)
        chosen.append((s, t))
    # first occurrence wins; a slot paired with itself is no link
    return list(dict.fromkeys((s, t) for s, t in chosen if s != t))[:count]


# The pre-audit has its own tolerance, not the ledger's `tol`: a tighter ledger
# tolerance must not reject a compliant model over float rounding in its
# lambda averages.
_PREAUDIT_TOL = 1e-7


def triviality_bound(
    model: HVModel,
    space: LambdaSpace,
    spec: ez.EmbezzleSpec,
    N: int,
    *,
    seed: int = 7,
    tol: float = 1e-9,
) -> dict:
    """Certified bound on a compliant model's block probabilities.

    Prerequisite: `preaudit` passes, within 1e-7 whatever `tol` is, on the
    scenarios the ledger reads: the two slot scenarios, one setting-0
    scenario per audited half-subset link, and three remote variants (link
    0's observable against remote setting 1, and the extraction-side slots
    against remote setting 1 and against an idle remote).  So quantum
    completeness covers every read, and parameter independence covers the
    slots and link 0; the remote variants of links 1-6 stay unaudited (each
    would add one two-observable table, one more pass over the slot
    statistics' aux vectors).
    The first failed premise raises `PremiseError`.  The ledger audits six
    half-subsets (plus the sorted extreme) and six slot pairs, both drawn
    with `seed`.

    Every scenario is on one `Preparation` of the embezzled state: its Born
    tables come from the spec's slot statistics
    (`embezzle.SlotStatistics.born_table`), with the bits of `born_table` on
    the state, and the state is built only if a model reads
    `scenario.state`.  The statistics are summed in one walk over the
    state's terms and serve both the tables and `_certify`.  Nothing is
    kept from one call to the next.

    This function is the measurement: it reads, per lambda, the model's slot
    probabilities on the extraction-side and remote-side pointer registers of
    the embezzled state and each half-subset link's setting-0 marginal.  A
    pure arithmetic (`_certify`) then turns those numbers and the spec's slot
    statistics into the report, seeing no model, state or Born table.  It
    certifies two routes from measured chain budgets to block-level bounds:

    * pair route -- epsilon_pair is the worst mu-averaged gap between two slot
      probabilities; each audited slot pair's gap is checked against its own
      measured two-slot chain value, and a block of m_i slots inherits the
      bound m_i * epsilon_pair (plus any mass the model leaked off the slots);
    * half route -- epsilon_half is the mu-average of the worst half-subset
      deviation from 1/2; each audited half-subset's deviation is checked
      against half its measured chain value, and the half-subset deviation
      lemma converts epsilon_half into a coefficient-weighted bound for every
      block.

    Each block takes the smaller route bound; adding the rational-approximant
    coefficient error gives the final per-block bound, and the certified
    epsilon is the largest final bound divided by three, matching the
    three-term shape |Pr - c_i^2| <= |Pr - m_i/r| + |m_i/r - c_i^2| with the
    chain contribution counted once more on the way to the block.
    """
    if N < 1:
        raise ValueError(f"chain depth N must be >= 1, got {N}")
    stats = ez.slot_statistics_from_spec(spec)
    preparation = Preparation(
        stats.registry,
        lambda: ez.embezzled_state(spec),
        lambda tuples: [stats.born_table(observables) for observables in tuples],
    )
    slot_a = ez.slot_observable(spec, preparation.registry, "A")
    slot_b = ez.slot_observable(spec, preparation.registry, "B")
    scenario_a = Scenario(preparation, (slot_a,), description="extraction-side slots")
    scenario_b = Scenario(preparation, (slot_b,), description="remote-side slots")

    # The audit counts (six here, six slot pairs in `_certify`) set how many
    # chain links are checked, not the certified epsilon.
    family = ez.half_subset_family(spec, 6, seed)
    extreme = ez.sorted_extreme_half_subset(spec, stats)
    if not any(set(J) == set(extreme) for J, _ in family):
        family.insert(0, (extreme, ez.default_pairing(spec, extreme)))
    j0_observables = [
        ez.half_subset_observable(spec, N, J, pairing, preparation.registry, "A", 0)
        for J, pairing in family
    ]
    link_scenarios = [
        Scenario(preparation, (obs,), description=f"half-subset {idx} at setting 0")
        for idx, obs in enumerate(j0_observables)
    ]
    remote_b = ez.half_subset_observable(
        spec, N, family[0][0], family[0][1], preparation.registry, "B", 1
    )
    pair_scenario = Scenario(
        preparation, (j0_observables[0], remote_b), description="half-subset settings (0, 1)"
    )
    remote_idle = identity_observable(ez.slot_registry(preparation.registry, "B"))
    remote_variants = [
        Scenario(preparation, (slot_a, remote_b), description="remote measures setting 1"),
        Scenario(preparation, (slot_a, remote_idle), description="remote measures nothing"),
    ]
    scenarios = [scenario_a, scenario_b, *link_scenarios, pair_scenario, *remote_variants]
    for premise, report in preaudit(model, space, scenarios, tol=_PREAUDIT_TOL).items():
        if not report["passed"]:
            raise PremiseError(
                f"model {model.name!r} fails {premise}: {report['first_failure']}"
            )

    sides = tuple(_slot_vectors(model, space, spec, sc) for sc in (scenario_a, scenario_b))
    marginals = [
        [
            _local_marginal(_validated_distribution(model, scenario, lam)).get(1.0, 0.0)
            for lam, _ in space.items()
        ]
        for scenario in link_scenarios
    ]
    weights = [weight for _, weight in space.items()]
    report = _certify(spec, stats, N, seed, family, weights, sides, marginals, tol)
    return {"model": model.name, **report}


def _certify(
    spec: ez.EmbezzleSpec, stats: ez.SlotStatistics, N: int, seed: int, family: list,
    weights: list[float], sides: tuple, marginals: list[list[float]], tol: float,
) -> dict:
    """The ledger's arithmetic, from measured numbers to links, blocks and epsilon.

    `sides` holds the extraction side's (wing A) and then the remote side's
    (wing B) `_slot_vectors` read; `marginals[k]` holds the per-lambda setting-0
    +1 marginal of link `family[k]`.  The chain budgets come from `stats`; no
    model, state or Born table is read."""
    (p_a, leak_a), (p_b, leak_b) = sides
    position = {pair: k for k, pair in enumerate(spec.pairs)}
    block_positions: dict[int, list[int]] = {}
    for pair in spec.pairs:
        block_positions.setdefault(pair[0], []).append(position[pair])

    def averaged_gap(vectors: list[list[float]], s: int, t: int) -> float:
        return math.fsum(w * abs(vec[s] - vec[t]) for w, vec in zip(weights, vectors))

    def block_deviation(vectors: list[list[float]], i: int, target: float) -> float:
        return math.fsum(
            w * abs(math.fsum(vec[k] for k in block_positions[i]) - target)
            for w, vec in zip(weights, vectors)
        )

    # Pair route: worst mu-averaged slot gap per side, plus audited chain links.
    eps_pairs = [
        max(averaged_gap(vectors, s, t) for s in range(spec.r) for t in range(s + 1, spec.r))
        for vectors, _ in sides
    ]
    pair_links = []
    for s_pair, t_pair in _audited_slot_pairs(spec, stats, 6, seed):
        budget = ez.fast_pair_chain(spec, N, s_pair, t_pair, stats).value
        measured = averaged_gap(p_b, position[s_pair], position[t_pair])
        pair_links.append(
            {
                "slots": (tuple(s_pair), tuple(t_pair)),
                "measured_gap": measured,
                "chain_budget": budget,
                "holds": measured <= budget + tol,
            }
        )

    # Half route: sorted-extreme hypothesis plus audited half-subset links.
    sequence_family = halfsum.WeightedSequenceFamily(
        weights=tuple(weights), sequences=tuple(tuple(vec) for vec in p_a)
    )
    eps_half = float(sequence_family.sorted_extreme_deviation())
    lemma = halfsum.lemma_bound_check(
        sequence_family,
        eps_half + tol,
        subsets=[tuple(ps) for ps in block_positions.values()],
    )
    j_links = []
    for (J, pairing), plus in zip(family, marginals):
        budget = ez.fast_half_subset_chain(spec, N, J, pairing, stats).value / 2.0
        subset_positions = [position[tuple(s)] for s in J]
        lhs = math.fsum(w * abs(p - 0.5) for w, p in zip(weights, plus))
        bridge = max(
            abs(p - math.fsum(vec[k] for k in subset_positions))
            for p, vec in zip(plus, p_a)
        )
        j_links.append(
            {
                "subset": tuple(tuple(s) for s in J),
                "measured_deviation": lhs,
                "chain_budget": budget,
                "bridge_deviation": bridge,
                "holds": lhs <= budget + tol,
            }
        )

    # Blocks: both routes, the smaller one wins, approximant error on top.
    eps_coeff = spec.coefficient_error
    target_squares = [c * c for c in spec.c]
    blocks = []
    for i, m_i in enumerate(spec.m):
        pair_bound, remote_bound = (
            m_i * (eps + leak / spec.r) for eps, (_, leak) in zip(eps_pairs, sides)
        )
        remote_dev = block_deviation(p_b, i, m_i / spec.r)
        target_dev = block_deviation(p_a, i, target_squares[i])
        coefficient = float(halfsum.bound_coefficient(spec.r, m_i))
        half_bound = coefficient * eps_half + (leak_a if m_i > spec.r // 2 else 0.0)
        block_bound = min(pair_bound, half_bound)
        final_bound = block_bound + eps_coeff
        blocks.append(
            {
                "system_index": i,
                "numerator": m_i,
                "pair_route_bound": pair_bound,
                "half_route_coefficient": coefficient,
                "half_route_bound": half_bound,
                "block_bound": block_bound,
                "final_bound": final_bound,
                "remote_deviation": remote_dev,
                "remote_bound": remote_bound,
                "remote_holds": remote_dev <= remote_bound + tol,
                "target_square": target_squares[i],
                "target_deviation": target_dev,
                "target_holds": target_dev <= final_bound + tol,
            }
        )

    links_hold = (
        all(link["holds"] for link in pair_links)
        and all(link["holds"] for link in j_links)
        and lemma["passed"]
    )
    conclusion_holds = all(b["remote_holds"] and b["target_holds"] for b in blocks)
    return {
        "parameters": {
            "N": N,
            "n": spec.n,
            "l": spec.l,
            "r": spec.r,
            "d": spec.d,
            "numerators": spec.m,
            "target_squares": tuple(target_squares),
            "approximant_squares": tuple(m_i / spec.r for m_i in spec.m),
        },
        "epsilon_pair": max(eps_pairs),
        "epsilon_pair_extraction_side": eps_pairs[0],
        "epsilon_pair_remote_side": eps_pairs[1],
        "epsilon_half": eps_half,
        "epsilon_coefficient": eps_coeff,
        "slot_leakage": {"extraction_side": leak_a, "remote_side": leak_b},
        "pair_links": pair_links,
        "half_subset_links": j_links,
        "lemma": lemma,
        "blocks": blocks,
        "achieved_epsilon": max(b["final_bound"] for b in blocks) / 3.0,
        "links_hold": links_hold,
        "conclusion_holds": conclusion_holds,
        "passed": links_hold and conclusion_holds,
    }
