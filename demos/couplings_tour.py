"""Measurement couplings: pointer statistics mirror source statistics.

Three flavours of unitary system-pointer coupling, all on a qubit:
first kind (branch survives intact), second kind (branch replaced by a
prescribed post-measurement state, outcome copied onto two registers), and
a POVM realised by coupling to a pointer before projecting.  In every case
the pointer distribution equals the source-side probabilities.

Run: python3 demos/couplings_tour.py
"""

import math

from parind_lab import couplings
from parind_lab.qcore import SparseState, SystemRegistry, basis_state, span_projector


def main() -> None:
    registry = SystemRegistry((("S", 2),))
    psi = SparseState(registry, {(0,): 0.6, (1,): 0.8})
    projectors = [
        span_projector([basis_state(registry, (k,))]) for k in range(2)
    ]
    print("source state: 0.6|0> + 0.8|1>  (weights 0.36 / 0.64)")
    print()

    first = couplings.first_kind_coupling(psi, projectors)
    print("first kind:", couplings.pointer_distribution(first, "B"))

    posts = [basis_state(registry, (1,)), basis_state(registry, (0,))]
    second = couplings.second_kind_coupling(psi, projectors, posts)
    print("second kind (B1):", couplings.pointer_distribution(second, "B1"))
    print("second kind (B2):", couplings.pointer_distribution(second, "B2"))
    print()

    trine = couplings.trine_povm()
    probs = couplings.povm_probabilities(psi, trine, "S")
    coupled = couplings.povm_coupling(psi, trine, "S")
    dist = couplings.pointer_distribution(coupled, "B1")
    print("trine POVM on the same state:")
    for j, p in enumerate(probs):
        print(f"  element {j}: direct {p:.6f}   pointer {dist.get(j, 0.0):.6f}")
    print(f"  total: {math.fsum(probs):.12f}")


if __name__ == "__main__":
    main()
