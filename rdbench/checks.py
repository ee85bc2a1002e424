"""Independent correctness checks for the benchmark's units.

Nothing here calls into cascade_rd. Every expected value is recomputed from
the raw source and auxiliary tables, or from the Gaussian closed forms, with
this file's own arithmetic, so a fault in a helper the program shares between
its solvers cannot hide itself. Each check returns a list of
(check name, message) failures; an empty list means the unit is correct.

selftest.py feeds every check a result known to be wrong and confirms that
the check rejects it.
"""

from __future__ import annotations

import math

import numpy as np

RATE_TOL = 1e-9  # bits; the program and this file differ only by rounding
DIST_TOL = 1e-9  # absolute slack on a distortion target
BAND_TOL = 1e-12  # relative slack on the robust-typicality distortion band
ORACLE_TOL = 2e-3  # bits; gap allowed to tests/oracles.gaussian_min_r1_oracle
MONOTONE_TOL = 1e-4  # bits; rise allowed along a relaxing sweep


# ------------------------------------------------------------ information


def entropy_bits(table) -> float:
    p = np.asarray(table, dtype=np.float64).ravel()
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum())


def _keep(joint: np.ndarray, axes) -> np.ndarray:
    drop = tuple(i for i in range(joint.ndim) if i not in axes)
    return joint.sum(axis=drop) if drop else joint


def mutual_info(joint: np.ndarray, a, b, c=()) -> float:
    """I(A;B|C) in bits of a dense joint array, by four entropies."""
    a, b, c = tuple(a), tuple(b), tuple(c)
    h_c = entropy_bits(_keep(joint, c)) if c else 0.0
    return (entropy_bits(_keep(joint, a + c)) + entropy_bits(_keep(joint, b + c))
            - entropy_bits(_keep(joint, a + b + c)) - h_c)


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def cascade_joint(pxyz, p_u, p_xhat1) -> np.ndarray:
    """p(x, y, z, u, xhat1) = p(x, y, z) p(u | x, y) p(xhat1 | x, y, u)."""
    nx, ny, nz = pxyz.shape
    nu, nh = p_u.shape[-1], p_xhat1.shape[-1]
    joint = np.zeros((nx, ny, nz, nu, nh))
    for x in range(nx):
        for y in range(ny):
            for z in range(nz):
                for u in range(nu):
                    joint[x, y, z, u, :] = (pxyz[x, y, z] * p_u[x, y, u]
                                            * p_xhat1[x, y, u, :])
    return joint


def cascade_point(tables, p_u, p_xhat1, g2):
    """(r1, r2, d1, d2) of a cascade auxiliary, from first principles."""
    joint = cascade_joint(tables.pxyz, p_u, p_xhat1)
    r1 = mutual_info(joint, (0,), (3, 4), (1,))
    r2 = mutual_info(joint, (3,), (0, 1), (2,))
    d1 = 0.0
    d2 = 0.0
    for x, y, z, u, h in np.ndindex(joint.shape):
        p = joint[x, y, z, u, h]
        d1 += p * tables.d1[x, h]
        d2 += p * tables.d2[x, g2[u, z]]
    return r1, r2, d1, d2


# -------------------------------------------------------------- simulator


def expected_sim_rates(tables, delta):
    """(R_l, R_10, R_11, R_2) the binning scheme must use for this auxiliary."""
    joint = cascade_joint(tables.pxyz, tables.p_u, tables.p_xhat1)
    return (
        mutual_info(joint, (3,), (0, 1)) + delta,
        mutual_info(joint, (3,), (0,), (1,)) + 2 * delta,
        mutual_info(joint, (4,), (0,), (3, 1)) + delta,
        mutual_info(joint, (3,), (0, 1), (2,)) + 2 * delta,
    )


def check_sim(res, tables, epsilon, delta, trials):
    """Rates against their mutual informations; clean-trial distortions in band.

    On a trial with no error event, the codeword, the relay reconstruction and
    the terminal reconstruction are robustly typical with the source, so each
    empirical distortion lies in [(1 - eps) E d, (1 + eps) E d]; the mean over
    clean trials lies there too.
    """
    fails = []
    want = expected_sim_rates(tables, delta)
    for label, got, exp in zip(("R_l", "R_10", "R_11", "R_2"), res.rates, want):
        if not abs(got - exp) <= RATE_TOL:
            fails.append(("rates", f"{label} = {got!r}, expected {exp!r}"))
    if res.trials != trials:
        fails.append(("trials", f"ran {res.trials} trials, asked for {trials}"))
    if any(not 0 <= c <= trials for c in res.event_counts):
        fails.append(("events", f"event counts {res.event_counts} outside [0, {trials}]"))
    if not 0 <= res.clean_trials <= trials - max(res.event_counts):
        fails.append(("events", f"{res.clean_trials} clean trials with events "
                                f"{res.event_counts}"))
    _, _, e_d1, e_d2 = cascade_point(tables, tables.p_u, tables.p_xhat1, tables.g2)
    if res.clean_trials > 0:
        for label, got, exp in (("d1", res.d1_mean_clean, e_d1),
                                ("d2", res.d2_mean_clean, e_d2)):
            lo = (1.0 - epsilon) * exp * (1.0 - BAND_TOL)
            hi = (1.0 + epsilon) * exp * (1.0 + BAND_TOL)
            if not lo <= got <= hi:
                fails.append(("band", f"clean-trial {label} = {got!r} outside "
                                      f"[{lo:.6g}, {hi:.6g}]"))
    return fails


# ----------------------------------------------------------------- search


def check_search(query, r1, aux_tables, tables, crossover, oracle_r1, slack):
    """Re-evaluate the returned auxiliary and bracket r1.

    The auxiliary must meet d1, d2 and r2 and reproduce r1; r1 may not beat
    the conditional rate-distortion converse h(crossover) - h(d1) of the
    doubly symmetric binary source, nor exceed the oracle's answer by more
    than the oracle's documented slack.
    """
    d1_t, d2_t, r2_t = query
    fails = []
    own_r1, own_r2, own_d1, own_d2 = cascade_point(tables, *aux_tables)
    for label, got, cap in (("d1", own_d1, d1_t), ("d2", own_d2, d2_t),
                            ("r2", own_r2, r2_t)):
        if not got <= cap + DIST_TOL:
            fails.append(("targets", f"{label} = {got!r} exceeds {cap!r}"))
    if not abs(own_r1 - r1) <= RATE_TOL:
        fails.append(("reproduce", f"reported r1 {r1!r}, auxiliary gives {own_r1!r}"))
    converse = max(0.0, binary_entropy(crossover) - binary_entropy(min(d1_t, 0.5)))
    if not r1 >= converse - RATE_TOL:
        fails.append(("converse", f"r1 {r1!r} below the converse {converse!r}"))
    if oracle_r1 is None:
        fails.append(("oracle", "oracle found no point meeting the query"))
    elif not r1 <= oracle_r1 + slack:
        fails.append(("oracle", f"r1 {r1!r} above oracle {oracle_r1!r} + {slack}"))
    return fails


# --------------------------------------------------------------- Gaussian


def gaussian_constraints(va, vb, alpha, beta):
    """(R2 cost, Var(A+B|U)) of U = alpha A + beta B + N(0, 1)."""
    var_u = alpha * alpha * va + beta * beta * vb + 1.0
    cov = alpha * va + beta * vb
    return 0.5 * math.log2(var_u), va + vb - cov * cov / var_u


def check_forward_rows(rows, swept, oracle=None, oracle_every=10):
    """Rows of a forward sweep: keys va, vb, d1, d2_eff, r2, r1, alpha, beta.

    Every row must be feasible for its own (alpha, beta) and report the r1
    that (alpha, beta) implies; every `oracle_every`-th row must sit within
    ORACLE_TOL of the brute-force oracle; r1 may not rise along the sweep,
    which only relaxes a budget or a distortion.
    """
    fails = []
    for i, row in enumerate(rows):
        rate, var_s = gaussian_constraints(row["va"], row["vb"], row["alpha"], row["beta"])
        if not rate <= row["r2"] + RATE_TOL:
            fails.append(("constraints", f"row {i}: rate {rate!r} > r2 {row['r2']!r}"))
        if not var_s <= row["d2_eff"] * (1.0 + 1e-8) + DIST_TOL:
            fails.append(("constraints", f"row {i}: Var(A+B|U) {var_s!r} > "
                                         f"{row['d2_eff']!r}"))
        want = max(0.5 * math.log2(row["va"] / row["d1"]),
                   0.5 * math.log2(1.0 + row["alpha"] ** 2 * row["va"]), 0.0)
        if not abs(row["r1"] - want) <= RATE_TOL:
            fails.append(("r1", f"row {i}: r1 {row['r1']!r}, (alpha, beta) give {want!r}"))
        if oracle is not None and i % oracle_every == 0:
            ref = oracle(row["va"], row["vb"], row["d1"], row["d2_eff"], row["r2"])
            # exactly at the threshold r2 = 1/2 log2((va + vb) / d2) the feasible
            # set is one point, which the oracle's alpha grid cannot hit
            thr = 0.5 * math.log2((row["va"] + row["vb"]) / row["d2_eff"])
            if ref is None and abs(row["r2"] - thr) <= RATE_TOL:
                continue
            if ref is None or not abs(row["r1"] - ref) <= ORACLE_TOL:
                fails.append(("oracle", f"row {i}: r1 {row['r1']!r}, oracle {ref!r}"))
    r1s = [row["r1"] for row in rows]
    for i in range(1, len(r1s)):
        if r1s[i] > r1s[i - 1] + MONOTONE_TOL:
            fails.append(("monotone", f"r1 rises along {swept}: row {i - 1} "
                                      f"{r1s[i - 1]!r} -> row {i} {r1s[i]!r}"))
            break
    return fails


def check_extended_rows(rows):
    """Rows with keys dz1, dz2, dist_z1, dist_z2 and the three slacks."""
    fails = []
    for i, row in enumerate(rows):
        for key in ("slack_r3", "slack_r3_r5", "slack_r4_r5"):
            if not row[key] >= -1e-9:
                fails.append(("slack", f"row {i}: {key} = {row[key]!r}"))
        for got, want in ((row["dist_z1"], row["dz1"]), (row["dist_z2"], row["dz2"])):
            if not abs(got - want) <= 1e-9 * max(1.0, want):
                fails.append(("distortion", f"row {i}: distortion {got!r} != "
                                            f"target {want!r}"))
    return fails
