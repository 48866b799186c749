"""Perfectly correlated events: matched Schmidt projections never disagree.

For a Schmidt-diagonal state, projecting both sides onto the same index set
gives outcomes that agree with probability 1.  The same holds for the
extraction-block projectors of the catalyst construction, which is what lets
outcome constraints propagate from one measurement to another inside the
audits.

Run: python3 demos/perfect_correlation.py
"""

import math
import random

from parind_lab import embezzle as ez
from parind_lab import hvaudit as hv


def main() -> None:
    rng = random.Random(3)
    print("random Schmidt states, matched index sets:")
    for trial in range(4):
        d = rng.randrange(2, 5)
        raw = [rng.uniform(0.2, 1.0) for _ in range(d)]
        norm = math.sqrt(math.fsum(x * x for x in raw))
        state = ez.phi_schmidt([x / norm for x in raw])
        index_set = tuple(sorted(rng.sample(range(d), rng.randrange(1, d + 1))))
        events = hv.schmidt_index_events(state.registry, [index_set])
        report = hv.perfect_correlation_check(state, events)
        print(
            f"  d={d}, I={index_set}: {len(report['quantum'])} directed events, "
            f"max mismatch {report['max_mismatch']:.2e}"
        )
    print()

    spec = ez.EmbezzleSpec.from_exact(("1/3", "2/3"), n=200)
    mapped, events = hv.extraction_block_events(spec)
    report = hv.perfect_correlation_check(mapped, events)
    print(f"extraction blocks at n={spec.n}:")
    for entry in report["quantum"][:3]:
        print(f"  {entry['event']}: mismatch {entry['mismatch']:.2e}")
    print(f"  ... ({len(report['quantum'])} events, max {report['max_mismatch']:.2e})")


if __name__ == "__main__":
    main()
