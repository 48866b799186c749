"""Chained correlations on higher-dimensional Schmidt states.

When two Schmidt coefficients are equal, rotating inside that two-dimensional
block while tagging every other index with matched spectator eigenvalues
reproduces the qubit closed form scaled by the shared weight:
I'_N = 4N c_j^2 sin^2(pi/4N).  The other blocks ride along untouched, which is
what lets a single equal pair inside any state drive the full argument.

Run: python3 demos/dimension_chain.py
"""

import math

from parind_lab import chained_bell as cb
from parind_lab import embezzle as ez


def sweep(squares: list[float], pair: tuple[int, int]) -> None:
    state = ez.phi_schmidt([math.sqrt(s) for s in squares])
    c2 = squares[pair[0]]
    pretty = ", ".join(f"{s:.4f}" for s in squares)
    print(f"squares = ({pretty}), equal pair = {pair}, c^2 = {c2:.4f}")
    for N in (1, 2, 4, 8):
        spec = cb.ChainSpec(N=N, pair=pair, eigenvalue_scheme=cb.dimension_scheme)
        report = cb.correlation_measure_IN_prime(state, spec)
        closed = 4.0 * N * c2 * math.sin(math.pi / (4 * N)) ** 2
        print(
            f"  N={N}: I'_N = {report.value:.9f}   closed = {closed:.9f}"
            f"   bound = {math.pi ** 2 * c2 / (4 * N):.6f}"
        )
    print()


def main() -> None:
    sweep([1 / 3, 1 / 3, 1 / 3], (0, 1))
    sweep([1 / 4] * 4, (2, 3))
    sweep([1 / 6, 1 / 4, 1 / 4, 1 / 3], (1, 2))


if __name__ == "__main__":
    main()
