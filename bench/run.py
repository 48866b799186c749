"""Benchmark entry point.

    python3 bench/run.py --workload ledger --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all

One run builds the workload from the seed, repeats its timed pass until
`--seconds` have elapsed, checks every output against its reference and prints
one metric per line followed, as the last line, by a JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  `--trace 0` reports the
end-to-end metrics: `wall_s` is the slowest pass of the run (see README.md for
why), `setup_s` the median of set-up probes spread over the run.  `--trace 1`
alternates untraced and traced passes and reports the per-layer metrics of the
traced pass with the median wall time.
`--workload all` runs every workload in its own process, one after another,
and prints each end-to-end metric per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETUP_PROBES = 5


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs and a single pass (self-test)")
    parser.add_argument("--goldens", type=Path, default=None,
                        help="golden directory (default: bench/goldens)")
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print the clock, exit (used by setup_s)")
    return parser.parse_args(argv)


def import_package() -> None:
    """Import parind_lab from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "bench"))
    import parind_lab

    origin = Path(parind_lab.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"parind_lab imported from {origin}, not from {ROOT / 'src'}")


def child_argv(args: argparse.Namespace, workload: str, *extra: str) -> list[str]:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seconds", repr(args.seconds), "--trace", str(args.trace), *extra]
    if args.seed is not None:
        argv += ["--seed", str(args.seed)]
    if args.tiny:
        argv.append("--tiny")
    if args.goldens is not None:
        argv += ["--goldens", str(args.goldens)]
    return argv


def setup_sample(args: argparse.Namespace) -> float:
    """Process start to first timed item, in a fresh interpreter.

    `time.perf_counter` is CLOCK_MONOTONIC, shared by parent and child."""
    start = time.perf_counter()
    done = subprocess.run(
        child_argv(args, args.workload, "--setup-probe"),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1]) - start


def build(args: argparse.Namespace):
    import workloads

    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    return workloads.WORKLOADS[args.workload](seed, args.tiny, args.goldens or workloads.GOLDENS)


def timed_pass(workload) -> tuple[float, list, list[str]]:
    start = time.perf_counter()
    outputs = workload.run_pass()
    wall = time.perf_counter() - start
    return wall, outputs, workload.check(outputs)


def report_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def run_workload(args: argparse.Namespace) -> int:
    workload = build(args)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    untraced, traced, setup = [], [], []
    attempted, failures = 0, []
    begin = time.perf_counter()
    while True:
        wall, outputs, failed = timed_pass(workload)
        untraced.append(wall)
        attempted += len(outputs)
        failures += failed
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                wall, outputs, failed = timed_pass(workload)
            finally:
                tracer.uninstall()
            layer = tracer.metrics(wall)
            layer["cli.report_bytes"] = getattr(workload, "report_bytes", 0)
            traced.append((wall, layer))
            attempted += len(outputs)
            failures += failed
        elif len(setup) < SETUP_PROBES:
            # Spread the set-up probes over the run; their time is not measured time.
            probe_start = time.perf_counter()
            setup.append(setup_sample(args))
            begin += time.perf_counter() - probe_start
        if args.tiny or time.perf_counter() - begin >= args.seconds:
            break
    items = attempted / (len(untraced) + len(traced))
    for message in failures[:20]:
        print(f"FAILED: {message}", file=sys.stderr)

    if tracer is None:
        wall = max(untraced)
        metrics = {
            "wall_s": (wall, "s"),
            "items_per_s": (items / wall, "1/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        traced.sort(key=lambda pair: pair[0])
        traced_wall, layer = traced[(len(traced) - 1) // 2]
        layer["traced_wall_s"] = traced_wall
        layer["trace_overhead_s"] = traced_wall - statistics.median(untraced)
        metrics = {m["name"]: (layer[m["name"]], m["unit"]) for m in per_layer}
        tracer.write_spans(ROOT / "bench" / ".work" / f"spans-{args.workload}.csv")
        if args.workload == "cli_reports":
            print(f"# {args.workload}: spans from the --workers 2 pool children are not "
                  "collected; cli.pool_wait_s holds the wait on them")

    print(f"# {args.workload}: {items:.0f} items per pass; untraced pass walls "
          f"{[round(w, 3) for w in untraced]}, traced {[round(w, 3) for w, _ in traced]}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value!r} {unit}")
    print(f"{args.workload} failed_share {len(failures) / attempted!r} ratio")
    print(report_line(not failures, attempted, len(failures), metrics))
    return 0


def run_all(args: argparse.Namespace) -> int:
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        done = subprocess.run(child_argv(args, name), capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"{name}: exited {done.returncode}")
            status = 1
            continue
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        print(f"{name} correct {result['correct']} attempted {result['attempted']} "
              f"failed {result['failed']}")
    return status


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        import_package()
        import workloads
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    os.environ.pop("PARIND_LAB_WORKERS", None)
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)} "
              "or all", file=sys.stderr)
        return 2
    if args.setup_probe:
        build(args)
        print(repr(time.perf_counter()))
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
