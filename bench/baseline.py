"""Run every workload several times and summarize the results.

    python3 bench/baseline.py --label seed

Each workload of BENCHMARK.json runs ten times untraced, seed k on run k, then twice
traced at the default seed.  For each end-to-end metric the summary holds
the raw values, their median and quartiles (`statistics.quantiles(n=4)`),
and the spread: (q3 - q1) / median.  The per-layer metrics come from the
first traced run; the second checks that every count repeats.  The summary
goes to bench/results/<label>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUNS = 10


def run(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True, cwd=ROOT,
    )
    return json.loads(done.stdout.splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()

    import numpy

    summary = {
        "label": args.label,
        "machine": {"nproc": len(os.sched_getaffinity(0)),
                    "python": platform.python_version(), "numpy": numpy.__version__},
        "run_seconds": SPEC["run_seconds"],
        "workloads": {},
    }
    for workload in (w["name"] for w in SPEC["workloads"]):
        results = [run(workload, seed, 0) for seed in range(1, RUNS + 1)]
        traced = [run(workload, 0, 1) for _ in range(2)]
        end_to_end = {
            m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in results])
            for m in SPEC["end_to_end"]
        }
        layers = {m["name"]: traced[0]["metrics"][m["name"]]["value"] for m in SPEC["per_layer"]}
        summary["workloads"][workload] = {
            "correct": all(r["correct"] for r in results + traced),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": end_to_end,
            "per_layer": layers,
            "per_layer_repeat": {
                m["name"]: traced[1]["metrics"][m["name"]]["value"] for m in SPEC["per_layer"]
            },
        }
        for name, stats in end_to_end.items():
            print(f"{workload} {name} median {stats['median']:.6g} spread {stats['spread']:.3f}")
    out = ROOT / "bench" / "results" / f"{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
