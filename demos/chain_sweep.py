"""Sweep the chained two-outcome correlation measure on a maximally
entangled qubit pair and compare against the closed form 2N sin^2(pi/4N).

The measure decays like pi^2/(8N): doubling the chain depth roughly halves
the value, which is the quantitative engine behind the refutation audits.

Run: python3 demos/chain_sweep.py
"""

import math

from parind_lab import chained_bell as cb


def main() -> None:
    state = cb.bell_state()
    print(f"{'N':>4}  {'I_N':>12}  {'2N sin^2':>12}  {'pi^2/8N':>10}  {'N*I_N':>8}")
    for N in (1, 2, 4, 8, 16, 32, 64, 128):
        report = cb.correlation_measure_IN(
            state, cb.ChainSpec(N=N, pair=(0, 1))
        )
        closed = 2.0 * N * math.sin(math.pi / (4 * N)) ** 2
        assert abs(report.value - closed) < 1e-12
        print(
            f"{N:>4}  {report.value:>12.9f}  {closed:>12.9f}"
            f"  {math.pi ** 2 / (8 * N):>10.6f}  {N * report.value:>8.5f}"
        )
    print()
    print("N*I_N approaches pi^2/8 =", f"{math.pi ** 2 / 8:.5f}", "from below.")


if __name__ == "__main__":
    main()
