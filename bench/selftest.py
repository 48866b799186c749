"""Self-test of the benchmark at tiny size.

    python3 bench/selftest.py

Checks, for every workload, that an untraced run prints every end-to-end
metric of BENCHMARK.json with its unit and passes its reference checks; that
two traced runs print every per-layer metric with its unit and repeat every
count exactly; that a deliberately corrupted golden gives failed_share > 0;
and that a directory holding only the benchmark, without the program, exits
non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "bench" / "run.py"
SCRATCH = ROOT / "bench" / ".work" / "selftest"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Per-layer metrics that count work rather than time it; they must repeat exactly.
COUNT_METRICS = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "ratio", "bytes")]
problems: list[str] = []


def expect(ok: bool, message: str) -> None:
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        problems.append(message)


def run(workload: str, trace: int, *extra: str, script: Path = RUN) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--tiny", *extra],
        capture_output=True, text=True, timeout=600, cwd=script.parents[1],
    )


def result(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.splitlines()[-1])


def check_units(workload: str, metrics: dict, wanted: list[dict]) -> None:
    for metric in wanted:
        got = metrics.get(metric["name"])
        expect(got is not None and got["unit"] == metric["unit"],
               f"{workload}: {metric['name']} printed in {metric['unit']}")


def main() -> int:
    for workload in WORKLOADS:
        done = run(workload, 0)
        expect(done.returncode == 0, f"{workload}: untraced run exits 0")
        plain = result(done)
        expect(plain["correct"] and plain["failed"] == 0 and plain["attempted"] > 0,
               f"{workload}: every output matches its reference")
        check_units(workload, plain["metrics"], SPEC["end_to_end"])

        first, second = (result(run(workload, 1)) for _ in range(2))
        check_units(workload, first["metrics"], SPEC["per_layer"])
        for name in COUNT_METRICS:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            expect(a == b, f"{workload}: {name} repeats across traced runs ({a} vs {b})")

    corrupt = SCRATCH / "goldens"
    shutil.rmtree(SCRATCH, ignore_errors=True)
    shutil.copytree(ROOT / "bench" / "goldens", corrupt)
    ledger = json.loads((corrupt / "ledger.json").read_text())
    ledger[0]["achieved_epsilon"] += 1e-9
    (corrupt / "ledger.json").write_text(json.dumps(ledger))
    chain = corrupt / "cli" / "chain.csv"
    chain.write_bytes(chain.read_bytes().replace(b"0.5857864376269049", b"0.5857864376269048"))
    for workload in ("ledger", "cli_reports"):
        done = run(workload, 0, "--goldens", str(corrupt))
        out = result(done)
        expect(done.returncode == 0 and not out["correct"] and out["failed"] > 0,
               f"{workload}: a corrupted golden gives failed_share "
               f"{out['failed'] / out['attempted']:.3f} > 0")

    bare = SCRATCH / "bare"
    shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns(".work"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = run(WORKLOADS[0], 0, script=bare / "bench" / "run.py")
    expect(done.returncode != 0 and not done.stdout.strip(),
           f"without the program the benchmark exits {done.returncode} and prints no result")
    shutil.rmtree(SCRATCH, ignore_errors=True)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
