"""Auditing hidden-variable models against the chained-correlation ceiling.

Any model whose lambda-averaged outcomes reproduce quantum statistics and
ignore the remote setting choice is squeezed by the chain: its predicted
anti-correlation triangle value can never exceed I_N, and I_N -> 0.  The
three bundled fixtures show the possible verdicts:

* trivial            — outcomes uniformly random; survives every audit.
* deterministic-chain — lambda fixes +/-1 outcomes; refuted at N=2 and its
                        joint statistics already fail the quantum cross-check.
* signalling-toy     — reproduces quantum statistics but shifts outcome
                        weight by 0.1 when the remote side measures; caught by
                        the parameter-independence probe (and undefined at
                        depths where the shift exceeds a joint cell).

Run: python3 demos/audit_tour.py
"""

from parind_lab import chained_bell as cb
from parind_lab import hvaudit as hv


def main() -> None:
    state = cb.bell_state()
    chain2 = cb.ChainSpec(N=2, pair=(0, 1))
    a_family, b_family = cb.chain_families(chain2, state.registry)
    pair = hv.Scenario(state, (a_family[0], b_family[1]), description="settings (0, 1)")
    idle = hv.Scenario(
        state,
        (a_family[0], hv.identity_observable(b_family[1].registry)),
        description="remote idle",
    )

    for name in ("trivial", "deterministic-chain", "signalling-toy"):
        model, space = hv.fixture_model(name)
        scan = hv.refutation_scan(model, space, state, (1, 2, 3, 4))
        premises = hv.preaudit(model, space, [pair, idle], tol=1e-9)
        compquant = premises["quantum completeness"]
        parind = premises["parameter independence"]
        print(f"{name}:")
        print(f"  refuted: {scan['refuted']} (refuting N: {scan['refuting_N']})")
        if scan["undefined_N"]:
            print(f"  undefined at N: {scan['undefined_N']}")
        for report in scan["reports"]:
            if "undefined" in report:
                continue
            print(
                f"    N={report['N']}: triangle lhs = {report['lhs']:.4f}  "
                f"Born chain I_N = {report['chain_value']:.4f}  "
                f"(ideal {report['chain_closed_form']:.4f})"
            )
        print(f"  quantum completeness: {'pass' if compquant['passed'] else 'FAIL'}")
        if not compquant["passed"]:
            failure = compquant["first_failure"]
            print(
                f"    first failure at {failure['scenario']}, outcome "
                f"{failure['outcome']}: model {failure['model_value']:.4f} "
                f"vs quantum {failure['born_value']:.4f}"
            )
        print(f"  parameter independence: {'pass' if parind['passed'] else 'FAIL'}")
        if not parind["passed"]:
            failure = parind["first_failure"]
            print(
                f"    marginal shift {failure['deviation']:.4f} between "
                f"'{failure['scenario_a']}' and '{failure['scenario_b']}'"
            )
        print()


if __name__ == "__main__":
    main()
