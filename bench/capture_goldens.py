"""Capture the goldens the benchmark checks against.

Run from the repository root at the commit whose outputs are the reference:

    python3 bench/capture_goldens.py

It writes bench/goldens/ledger.json (the certified epsilon of every ledger
point) and one byte golden per cli_reports command, produced serially
(`--workers 1`) at the default seed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

from parind_lab import cli  # noqa: E402
from parind_lab import embezzle as ez  # noqa: E402
from parind_lab import hvaudit as hv  # noqa: E402

import workloads as wl  # noqa: E402


def main() -> int:
    wl.GOLDENS.mkdir(exist_ok=True)
    model, space = hv.fixture_model("trivial")
    ledger = []
    for N, l, n in wl.Ledger.points:
        spec = ez.EmbezzleSpec.from_reals(wl.Ledger.squares, l, n)
        report = hv.triviality_bound(model, space, spec, N, seed=wl.DEFAULT_SEED)
        if not report["passed"]:
            raise SystemExit(f"ledger point {(N, l, n)} did not pass; no golden written")
        ledger.append({"point": [N, l, n], "achieved_epsilon": report["achieved_epsilon"]})
    (wl.GOLDENS / "ledger.json").write_text(json.dumps(ledger, indent=2) + "\n")

    out_dir = wl.GOLDENS / "cli"
    out_dir.mkdir(exist_ok=True)
    for name, argv, ext, seeded in wl.CliReports.commands:
        args = [*argv, "--seed", str(wl.DEFAULT_SEED)] if seeded else list(argv)
        target = out_dir / f"{name}.{ext}"
        code = cli.main(wl.CliReports.argv(args, target, 1))
        if code != 0:
            raise SystemExit(f"cli {name} exited {code}; golden not trusted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
