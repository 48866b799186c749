"""The resource ledger: more catalyst, finer approximants, tighter certificates.

For a compliant model (here the trivial fixture), the audit converts the
model's measured slot probabilities into a certified epsilon such that every
extraction-block probability sits within epsilon of its target square.  Two
resources feed the certificate: the catalyst size n tightens it at a fixed
approximant, while the approximant precision l shrinks the systematic
coefficient error -- at the cost of more blocks to pin.  The chain depth N
does not enter epsilon: it only sets the chain budgets each audited link is
checked against (N = 2, 8 and 16 give the same epsilon at l = 50, n = 10^4).
The finest point beats the coarsest on both counts.

Run: python3 demos/resource_ledger.py   (a few seconds at the finest point)
"""

import math
import time

from parind_lab import embezzle as ez
from parind_lab import hvaudit as hv


def main() -> None:
    squares = [1.0 / math.pi, 1.0 - 1.0 / math.pi]
    model, space = hv.fixture_model("trivial")
    print(f"target squares: 1/pi = {squares[0]:.6f}, 1 - 1/pi = {squares[1]:.6f}")
    print(f"{'N':>3} {'l':>4} {'n':>7}  {'r':>3}  {'coeff err':>10}  {'epsilon':>11}  {'time':>6}")
    for N, l, n in ((2, 10, 100), (4, 10, 1000), (8, 50, 10000)):
        start = time.perf_counter()
        spec = ez.EmbezzleSpec.from_reals(squares, l=l, n=n)
        ledger = hv.triviality_bound(model, space, spec, N)
        elapsed = time.perf_counter() - start
        assert ledger["passed"]
        print(
            f"{N:>3} {l:>4} {n:>7}  {spec.r:>3}  {spec.coefficient_error:>10.6f}"
            f"  {ledger['achieved_epsilon']:>11.9f}  {elapsed:>5.1f}s"
        )
    print()
    print(
        "Every block probability of a model that passes quantum completeness\n"
        "and parameter independence is pinned to its target square within the\n"
        "achieved epsilon.  The larger catalyst tightens the certificate at a\n"
        "fixed approximant (rows 1 -> 2); the deeper chain does not enter it.\n"
        "Refining the approximant (row 3) buys a 10x smaller coefficient error\n"
        "with more blocks to pin, and still certifies a smaller epsilon than\n"
        "the coarse starting point."
    )


if __name__ == "__main__":
    main()
