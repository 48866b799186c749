"""Chained correlations survive the extraction error.

The finite-n extraction only approximates the ideal paired state chi, so the
chain measured on U x U applied to phi x |00> differs from the reference chain
on chi.  The gap is controlled by 2N times the trace distance between the two
states, and it shrinks as the catalyst grows.

Run: python3 demos/approximate_chain.py
"""

from parind_lab import embezzle as ez


def main() -> None:
    for N in (2, 4):
        print(f"chain depth N = {N}")
        print(f"{'n':>6}  {'I_N,n':>10}  {'reference':>10}  {'|gap|':>9}  {'2N*D':>9}")
        for n in (100, 400, 1000, 2000):
            spec = ez.EmbezzleSpec.from_exact(("1/3", "2/3"), n=n)
            stats = ez.slot_statistics_from_spec(spec)
            ordered = sorted(spec.pairs, key=lambda p: stats.weights[p])
            report = ez.correlation_measure_INn(spec, N, ordered[0], ordered[-1])
            gap = abs(report.value - report.reference_value)
            assert gap <= report.deviation_bound
            print(
                f"{n:>6}  {report.value:>10.6f}  {report.reference_value:>10.6f}"
                f"  {gap:>9.6f}  {report.deviation_bound:>9.6f}"
            )
        print()


if __name__ == "__main__":
    main()
