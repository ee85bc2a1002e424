"""Self-test of the benchmark's correctness checks.

Feeds each check in checks.py a result known to be right, which it must
accept, and one known to be wrong, which it must reject: rates shifted by
1e-6, a clean-trial distortion outside the typicality band, an r1 below the
converse, an auxiliary that breaks d2, an r1 above the oracle's slack, an r1
sequence that rises along r2, an (alpha, beta) that breaks d2, and a negative
or off-target extended-region row. Needs only numpy. Run:

    python3 rdbench/run.py --selftest
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from checks import (binary_entropy, cascade_point, check_extended_rows,
                    check_forward_rows, check_search, check_sim, expected_sim_rates)
from workloads import dsbs_tables, erasure_tables


def _names(fails):
    return {name for name, _ in fails}


def run() -> list[str]:
    """Each entry is a line of the report; a line starting 'FAIL' is a fault."""
    out = []

    def expect(label, fails, name, present):
        ok = (name in _names(fails)) == present
        verb = "rejects" if present else "accepts"
        out.append(("ok   " if ok else "FAIL ") + f"{label}: check '{name}' {verb} it")

    # simulator: the erasure auxiliary of the sim workloads
    tables = erasure_tables()
    rates = expected_sim_rates(tables, 0.15)
    _, _, e_d1, e_d2 = cascade_point(tables, tables.p_u, tables.p_xhat1, tables.g2)
    good = SimpleNamespace(rates=rates, trials=10, event_counts=(0, 1, 1, 1, 0, 0),
                           clean_trials=9, d1_mean_clean=e_d1, d2_mean_clean=e_d2)
    expect("sim, exact rates", check_sim(good, tables, 0.65, 0.15, 10), "rates", False)
    shifted = SimpleNamespace(**{**vars(good), "rates": tuple(r + 1e-6 for r in rates)})
    expect("sim, rates shifted by 1e-6", check_sim(shifted, tables, 0.65, 0.15, 10),
           "rates", True)
    outside = SimpleNamespace(**{**vars(good), "d2_mean_clean": 1.66 * e_d2})
    expect("sim, clean d2 above (1+eps) E d2", check_sim(outside, tables, 0.65, 0.15, 10),
           "band", True)

    # search: DSBS, constant U, Xhat1 = X, best terminal map g2(u, z) = z
    dsbs = dsbs_tables()
    p_u = np.zeros((2, 2, 2))
    p_u[:, :, 0] = 1.0
    p_x1 = np.zeros((2, 2, 2, 2))
    p_x1[0, :, :, 0] = 1.0
    p_x1[1, :, :, 1] = 1.0
    g2 = np.array([[0, 1], [0, 1]])
    r1_true = binary_entropy(0.2)  # H(X|Y) with Xhat1 = X
    query = (0.1, 0.4, 0.1)
    good_aux = (p_u, p_x1, g2)
    expect("search, right auxiliary",
           check_search(query, r1_true, good_aux, dsbs, 0.2, r1_true, 0.06),
           "targets", False)
    expect("search, right auxiliary",
           check_search(query, r1_true, good_aux, dsbs, 0.2, r1_true, 0.06),
           "converse", False)
    low = binary_entropy(0.2) - binary_entropy(0.1) - 0.01
    expect("search, r1 below the converse",
           check_search(query, low, good_aux, dsbs, 0.2, r1_true, 0.06),
           "converse", True)
    bad_g2 = np.array([[1, 0], [1, 0]])  # xhat2 = 1 - z, d2 = 0.62
    expect("search, auxiliary that breaks d2",
           check_search(query, r1_true, (p_u, p_x1, bad_g2), dsbs, 0.2, r1_true, 0.06),
           "targets", True)
    expect("search, r1 above oracle + slack",
           check_search(query, r1_true, good_aux, dsbs, 0.2, r1_true - 0.1, 0.06),
           "oracle", True)

    # Gaussian: the constant-U branch of a d2-slack query is exact
    va, vb = 1.0, 1.0
    rows = [dict(va=va, vb=vb, d1=0.25, d2_eff=3.0, r2=r2, r1=1.0, alpha=0.0, beta=0.0)
            for r2 in (1.0, 1.5, 2.0)]
    expect("gaussian, constant-U rows", check_forward_rows(rows, "r2"), "constraints", False)
    expect("gaussian, constant-U rows", check_forward_rows(rows, "r2"), "monotone", False)
    rising = [dict(row, r1=row["r1"] + 0.01 * i, alpha=0.0) for i, row in enumerate(rows)]
    expect("gaussian, r1 rising along r2", check_forward_rows(rising, "r2"),
           "monotone", True)
    busted = [dict(rows[0], d2_eff=0.5, alpha=0.1, beta=0.1, r1=1.0)]
    expect("gaussian, (alpha, beta) that breaks d2", check_forward_rows(busted, "r2"),
           "constraints", True)
    ext = dict(dz1=0.1, dz2=0.3, dist_z1=0.1, dist_z2=0.3, slack_r3=0.0,
               slack_r3_r5=0.2, slack_r4_r5=0.0)
    expect("extended, exact row", check_extended_rows([ext]), "slack", False)
    expect("extended, negative slack",
           check_extended_rows([dict(ext, slack_r4_r5=-1e-6)]), "slack", True)
    expect("extended, distortion off target",
           check_extended_rows([dict(ext, dist_z2=0.3 + 1e-6)]), "distortion", True)
    return out
