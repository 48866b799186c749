"""Smoke test of the narrative demos: each runs as a script and prints.

The demos call the package's public names, so a renamed or moved function
fails here rather than only when a demo is run by hand.  Every demo is
listed; `approximate_chain` takes about 0.6 s as a subprocess and 0.3 s
here, and `resource_ledger` about 0.6 s here (2-core box).
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize(
    "name",
    [
        "approximate_chain",
        "audit_tour",
        "chain_sweep",
        "couplings_tour",
        "dimension_chain",
        "extraction_fidelity",
        "half_subset_chain",
        "half_subset_lemma",
        "perfect_correlation",
        "resource_ledger",
    ],
)
def test_demo_runs_and_prints(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out.strip()
