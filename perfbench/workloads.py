"""Benchmark workloads: one README ``vacantlab`` command each, with the
check its output must pass. The checks reuse the acceptance suite's pinned
bands; none is new.

Each check takes the bytes of the command's ``--out`` file and returns a list
of problems (empty when the output is correct).
"""

from __future__ import annotations

import csv
import io
import json
from collections import defaultdict

# Tree-functional critical intensity at rho = 2 (acceptance 10) and the
# tolerance that acceptance allows the exploration route around it.
U_STAR_RHO2 = 1.3945
U_STAR_TOL = 0.05

SWEEP_HEADER = ["n", "rho", "u", "trial", "seed", "t_steps", "giant_size", "vacant_size",
                "c1_vacant", "c2_vacant", "zeta_predicted", "vacant_fraction_predicted"]


def _check_solve(data: bytes) -> list[str]:
    u = json.loads(data)["u_star"]
    problems = []
    if not u["ci95_low"] <= u["value"] <= u["ci95_high"]:
        problems.append(f"u_star {u['value']} outside its CI [{u['ci95_low']}, {u['ci95_high']}]")
    if abs(u["value"] - U_STAR_RHO2) > U_STAR_TOL:
        problems.append(f"|u_star - {U_STAR_RHO2}| = {abs(u['value'] - U_STAR_RHO2):.4f} > {U_STAR_TOL}")
    return problems


def _check_simulate(data: bytes, n_rows: int) -> list[str]:
    """Acceptance 6: the mean walk vacant fraction is within 0.02 of the
    tree-model prediction at every intensity; plus the golden header, the
    row count and each record's ordering invariant."""
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    if rows[0] != SWEEP_HEADER:
        return [f"header {rows[0]} is not the golden sweep header"]
    records = [dict(zip(SWEEP_HEADER, r)) for r in rows[1:]]
    problems = []
    if len(records) != n_rows:
        problems.append(f"{len(records)} rows, expected {n_rows}")
    fractions = defaultdict(list)
    for r in records:
        c2, c1, vac, giant, n = (int(r[k]) for k in
                                 ("c2_vacant", "c1_vacant", "vacant_size", "giant_size", "n"))
        if not c2 <= c1 <= vac <= giant <= n:
            problems.append(f"ordering invariant violated at u={r['u']} trial={r['trial']}")
        fractions[(r["u"], r["vacant_fraction_predicted"])].append(vac / n)
    for (u, predicted), obs in fractions.items():
        mean = sum(obs) / len(obs)
        if abs(mean - float(predicted)) > 0.02:
            problems.append(f"u={u}: mean vacant fraction {mean:.4f} vs predicted {predicted}")
    return problems


def _check_size(data: bytes) -> list[str]:
    """Acceptance 7: |gap - predicted_gap| <= 0.03 n."""
    rep = json.loads(data)
    err = abs(rep["gap"] - rep["predicted_gap"])
    return [] if err <= 0.03 * rep["n"] else [f"|gap - predicted_gap| = {err:.0f} > {0.03 * rep['n']:.0f}"]


def _check_hitting(data: bytes, n_vertices: int) -> list[str]:
    """Acceptance 11: mean |empirical - predicted| vacancy <= 0.03."""
    rep = json.loads(data)
    problems = []
    if len(rep["rows"]) != n_vertices:
        problems.append(f"{len(rep['rows'])} rows, expected {n_vertices}")
    if not rep["mean_abs_error"] <= 0.03:
        problems.append(f"mean_abs_error {rep['mean_abs_error']:.4f} > 0.03")
    return problems


# name -> (why, vacantlab arguments without --seed/--out, output check).
# The commands are the README's with fewer repetitions (trees, trials,
# probed vertices) and the same problem sizes, so that one run holds several
# samples of each mode: single samples on a shared 2-core box spread by
# 10-20 %.
WORKLOADS = {
    "solve": (
        "tree route to u*: capacity_samples then ~72 functional evaluations in the fsum aggregate; "
        "no graph, walk or exploration work",
        "solve --rho 2 --u 0.3 --tol 1e-10 --trees 50000 --depth 50 --radius 40".split(),
        _check_solve,
    ),
    "simulate": (
        "graph/walk route and run_trials across cores: first-visit walk kernel and 42 "
        "vacant-component extractions; no exploration",
        ("simulate --n 100000 --rho 2 --u-min 0 --u-max 1 --u-steps 21 --trials 2 --trees 50000 "
         "--format csv").split(),
        lambda data: _check_simulate(data, 21 * 2),
    ),
    "size-check": (
        "exploration process plus the bitmask walk kernel and full-graph components; no gw work",
        "size-check --n 100000 --rho 2 --u 0.3 --trials 4".split(),
        _check_size,
    ),
    "hitting": (
        "vectorised killed-walk ensemble of estimate_hitting_tail, which dominates; serial",
        "hitting --n 50000 --rho 2 --u 0.3 --vertices 2 --walks 2000".split(),
        lambda data: _check_hitting(data, 2),
    ),
}
