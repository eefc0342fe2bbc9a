#!/usr/bin/env python3
"""Exhaustive verification of the weight recursions, with a shock-sign tour.

The rescaled two-layer weight satisfies boundary and bulk recursions that
relate system sizes L+1 and L+2 to L; summing them over the bottom layer
gives the four basic weight equations. All of it is checked here instance
by instance in exact arithmetic. The last section shows the sign of the
rescaled weight flipping with system size deep in the shock region while
the normalized measure stays correct.
"""

from fractions import Fraction as F

from asep2l import (
    ModelParams,
    check_basic_weight_equations,
    check_bulk,
    check_left_boundary,
    check_right_boundary,
    phi_table,
    stationary_mu,
    tilde_q_weight,
)
from asep2l.lattice import enumerate_pairs

GRID = [
    ModelParams(F(1, 3), F(1, 2), F(1, 3)),
    ModelParams(F(1, 2), F(2), F(3)),
    ModelParams(F(0), F(1), F(2)),
    ModelParams(F(1, 2), F(0), F(0)),
]


def main():
    for p in GRID:
        reports = []
        for L in range(4):
            reports.append(check_left_boundary(L, p))
            reports.append(check_right_boundary(L, p))
        for L1 in range(3):
            for L2 in range(3 - L1):
                reports.append(check_bulk(L1, L2, p))
        reports.append(check_basic_weight_equations(4, p))
        instances = sum(r.instances for r in reports)
        status = "all pass" if all(r.passed for r in reports) else "FAILURES"
        print(
            f"q={p.q} A={p.A} B={p.B}: {len(reports)} reports, "
            f"{instances} instances, {status}"
        )

    print("\nshock region sign tour (A=9, B=7, q=1/2):")
    p = ModelParams(F(1, 2), F(9), F(7))
    for L in range(1, 6):
        vals = [tilde_q_weight(t, x, p) for t, x in enumerate_pairs(L)]
        sign = "+" if vals[0] > 0 else "-"
        uniform = len({v > 0 for v in vals}) == 1
        match = phi_table(L, p).normalized() == stationary_mu(L, p)
        print(
            f"  L={L}: rescaled weights all share sign {sign} "
            f"(uniform={uniform}), normalized table equals the measure: {match}"
        )


if __name__ == "__main__":
    main()
