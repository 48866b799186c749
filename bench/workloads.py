"""The four benchmark workloads.

Constructing a workload is its set-up: it builds every input from the seed and
loads the goldens.  `run_pass()` is the timed body and returns one output per
item; `check(outputs)` compares them with their references, outside the timed
body, and returns one failure message per failed item.

Why these four (the layer -> metric -> workload table is in bench/README.md):

* ledger -- the epsilon ledger is the heaviest certified number and almost all
  qcore self time: many branch projectors over one embezzled state.
* chain_literal -- the literal projector route of the approximate chain uses
  qcore differently: few calls, joint rank-one projections on both wings.
* halfsum_identity -- exact Fraction arithmetic and nothing else, so it moves
  with halfsum alone and shows that qcore work stays at zero.
* cli_reports -- the only workload through cli, couplings, validate and the
  `--workers` pool.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

from parind_lab import cli, halfsum
from parind_lab import embezzle as ez
from parind_lab import hvaudit as hv

DEFAULT_SEED = 0
BENCH_DIR = Path(__file__).resolve().parent
GOLDENS = BENCH_DIR / "goldens"
WORK = BENCH_DIR / ".work"


class Ledger:
    """`hvaudit.triviality_bound` on the trivial fixture; one item per point."""

    name = "ledger"
    squares = (1.0 / math.pi, 1.0 - 1.0 / math.pi)
    points = ((2, 10, 100), (2, 10, 1000), (8, 50, 100))
    frozen = {(2, 10, 100): 0.070009510}  # acceptance check 11, within 1e-8

    def __init__(self, seed: int, tiny: bool, goldens: Path) -> None:
        self.seed = seed
        self.model, self.space = hv.fixture_model("trivial")
        points = self.points[:1] if tiny else self.points
        self.items = [
            ((N, l, n), ez.EmbezzleSpec.from_reals(self.squares, l, n)) for N, l, n in points
        ]
        golden = json.loads((goldens / "ledger.json").read_text())
        self.golden = {tuple(p["point"]): p["achieved_epsilon"] for p in golden}

    def run_pass(self) -> list:
        return [
            hv.triviality_bound(self.model, self.space, spec, point[0], seed=self.seed)
            for point, spec in self.items
        ]

    def check(self, outputs: list) -> list[str]:
        failures = []
        for (point, _), report in zip(self.items, outputs):
            eps = report["achieved_epsilon"]
            if not report["passed"]:
                failures.append(f"ledger {point}: not passed")
            elif abs(eps - self.golden[point]) > 1e-12:
                failures.append(f"ledger {point}: epsilon {eps!r} != golden {self.golden[point]!r}")
            elif point in self.frozen and abs(eps - self.frozen[point]) > 1e-8:
                failures.append(f"ledger {point}: epsilon {eps!r} misses frozen value")
        return failures


class ChainLiteral:
    """The literal route `embezzle.correlation_measure_INn` on the embezzled
    state for squares (1/3, 2/3); one item per chain report."""

    name = "chain_literal"
    squares = ("1/3", "2/3")
    points = ((2, 100), (2, 300), (4, 100), (4, 300))

    def __init__(self, seed: int, tiny: bool, goldens: Path) -> None:
        # The inputs are fixed; the seed does not enter this workload.
        points = self.points[:1] if tiny else self.points
        self.items = [((N, n), ez.EmbezzleSpec.from_exact(self.squares, n=n)) for N, n in points]

    def run_pass(self) -> list:
        outputs = []
        for (N, _), spec in self.items:
            state = ez.embezzled_state(spec)
            stats = ez.slot_statistics(state, spec)
            ordered = sorted(spec.pairs, key=lambda p: stats.weights[p])
            report = ez.correlation_measure_INn(spec, N, ordered[0], ordered[-1], state=state)
            outputs.append((report, stats, ordered[0], ordered[-1]))
        return outputs

    def check(self, outputs: list) -> list[str]:
        failures = []
        last_gap: dict[int, float] = {}
        for ((N, n), spec), (report, stats, lo, hi) in zip(self.items, outputs):
            fast = ez.fast_pair_chain(spec, N, lo, hi, stats).value
            gap = abs(report.value - report.reference_value)
            if abs(report.value - fast) > 1e-12:
                failures.append(f"chain N={N} n={n}: literal {report.value!r} != fast {fast!r}")
            elif gap > report.deviation_bound:
                failures.append(f"chain N={N} n={n}: gap {gap!r} exceeds 2N*D")
            elif N in last_gap and not gap < last_gap[N]:
                failures.append(f"chain N={N} n={n}: gap {gap!r} did not fall with n")
            last_gap[N] = gap
        return failures


class HalfsumIdentity:
    """Acceptance check 7's window-identity sweep over even r <= 10, every J
    up to r/2, with seeded Fraction vectors, plus the `bound_coefficient` pins.
    One item is one identity check or one coefficient pin."""

    name = "halfsum_identity"
    vectors_per_subset = 25

    def __init__(self, seed: int, tiny: bool, goldens: Path) -> None:
        rng = random.Random(seed)
        rs = (2, 4) if tiny else (2, 4, 6, 8, 10)
        count = 2 if tiny else self.vectors_per_subset
        self.cases = [
            (r, J, [[Fraction(rng.randrange(0, 65), 64) for _ in range(r)] for _ in range(count)])
            for r in rs
            for size in range(1, r // 2 + 1)
            for J in itertools.combinations(range(r), size)
        ]
        self.pins = [(10, 2, Fraction(8, 5))] + [
            (r, size, Fraction(r - size, r // 2)) for r in rs for size in range(r // 2 + 1)
        ]

    def run_pass(self) -> list:
        outputs = []
        for r, J, vectors in self.cases:
            system = halfsum.build_system(r, J)
            outputs.extend(halfsum.identity_check(system, p) for p in vectors)
        outputs.extend(halfsum.bound_coefficient(r, size) for r, size, _ in self.pins)
        return outputs

    def check(self, outputs: list) -> list[str]:
        failures = []
        checks = iter(outputs)
        for r, J, vectors in self.cases:
            for p in vectors:
                result = next(checks)
                lhs = sum(p[i] for i in J)
                if not (lhs == result["lhs"] == result["rhs"] and result["holds"]):
                    failures.append(f"identity r={r} J={J} p={p}: {result['lhs']} != {result['rhs']}")
        for (r, size, expected), got in zip(self.pins, checks):
            if got != expected:
                failures.append(f"bound_coefficient({r}, {size}) = {got}, expected {expected}")
        return failures


class CliReports:
    """In-process `cli.main(argv)` over the README config of every subcommand
    with `--workers 2`, each followed by `validate` on the report it wrote.
    One item is one report."""

    name = "cli_reports"
    commands = (
        ("chain", ("chain", "--N", "1,2,4,8,16"), "csv", False),
        ("dim", ("dim", "--coeffs", "1/6,1/4,1/4,1/3", "--N", "1,2,4"), "csv", False),
        ("sqrt-rational", ("sqrt-rational", "--coeffs", "1/3,2/3", "--n", "100,1000"), "csv", False),
        ("embezzle", ("embezzle", "--coeffs", "1/3,2/3", "--N", "2", "--n", "100,400,1000"), "csv", False),
        ("lemma", ("lemma", "--r", "10", "--J", "1,4"), "json", True),
        ("pc", ("pc", "--coeffs", "1/6,1/3,1/2"), "csv", True),
        ("couple", ("couple", "--instances", "50"), "csv", True),
        ("audit-trivial", ("audit", "--model", "trivial", "--N-max", "4"), "json", False),
        ("audit-deterministic-chain",
         ("audit", "--model", "deterministic-chain", "--N-max", "4"), "json", False),
        ("arbitrary", ("arbitrary", "--coeffs", "0.3183098861837907,0.6816901138162093",
                       "--l", "10", "--n", "60,120"), "csv", False),
    )

    def __init__(self, seed: int, tiny: bool, goldens: Path) -> None:
        self.byte_goldens = seed == DEFAULT_SEED
        self.work = WORK / self.name
        self.work.mkdir(parents=True, exist_ok=True)
        self.items = []
        for name, argv, ext, seeded in self.commands:
            report = self.work / f"{name}.{ext}"
            args = [*argv, "--seed", str(seed)] if seeded else list(argv)
            self.items.append((name, seeded, report, args))
        self.goldens = {
            name: (goldens / "cli" / report.name).read_bytes()
            for name, seeded, report, _ in self.items
            if self.byte_goldens or not seeded
        }
        self.report_bytes = 0

    @staticmethod
    def argv(args: list[str], report: Path, workers: int) -> list[str]:
        return [*args, "--workers", str(workers), "--out", str(report)]

    def run_pass(self) -> list:
        outputs = []
        for name, _, report, args in self.items:
            verdict = report.with_name(f"{name}.validate.json")
            # A command that exits 0 without writing must not pass on a stale report.
            report.unlink(missing_ok=True)
            verdict.unlink(missing_ok=True)
            code = cli.main(self.argv(args, report, 2))
            valid_code = cli.main(["validate", str(report), "--out", str(verdict)])
            outputs.append((code, valid_code))
        return outputs

    def check(self, outputs: list) -> list[str]:
        failures = []
        self.report_bytes = 0
        for (name, _, report, _), (code, valid_code) in zip(self.items, outputs):
            verdict_path = report.with_name(f"{name}.validate.json")
            if code != 0 or valid_code != 0:
                failures.append(f"cli {name}: exit {code}, validate exit {valid_code}")
                continue
            if not (report.exists() and verdict_path.exists()):
                failures.append(f"cli {name}: report or validate verdict not written")
                continue
            body = report.read_bytes()
            self.report_bytes += len(body)
            verdict = json.loads(verdict_path.read_text())
            if not verdict["passed"]:
                failures.append(f"cli {name}: validate says {verdict['diagnostics']}")
            elif name in self.goldens and body != self.goldens[name]:
                failures.append(f"cli {name}: report differs from its golden")
        return failures


WORKLOADS = {w.name: w for w in (Ledger, ChainLiteral, HalfsumIdentity, CliReports)}
