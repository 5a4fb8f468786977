"""Composite experiments: intensity sweeps of the vacant component
structure, the exploration-vs-walk size relation, and the per-vertex
vacancy / hitting-tail diagnostics.

Every experiment is a pure function of (parameters, root stream); trials
parallelize through engine.run_trials and stay byte-identical across
worker counts.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import astuple, dataclass, fields
from functools import partial

import numpy as np

from . import critical, exploration, walk
from .engine import RngStream, as_generator, run_trials
from .random_graph import components, edge_probability, giant_vertices, sample_er


@dataclass(frozen=True)
class SweepRecord:
    n: int
    rho: float
    u: float
    trial: int
    seed: int
    t_steps: int
    giant_size: int
    vacant_size: int
    c1_vacant: int
    c2_vacant: int
    zeta_predicted: float
    vacant_fraction_predicted: float

    def validate(self) -> None:
        ok = (self.c2_vacant <= self.c1_vacant <= self.vacant_size
              <= self.giant_size <= self.n)
        if not ok:
            raise ValueError(f"ordering invariant violated: {self}")


SWEEP_COLUMNS = [f.name for f in fields(SweepRecord)]


def sweep_records_to_csv(records: list[SweepRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    for rec in records:
        writer.writerow(astuple(rec))
    return buf.getvalue()


def _sweep_trial(n: int, rho: float, t_by_u: tuple, stream: RngStream) -> tuple:
    """One graph and one walk of its giant: the stream's seed, the giant's
    size and, per walk time, the vacant size and its two largest
    component sizes."""
    g = sample_er(n, rho, stream.substream(0))
    comp = giant_vertices(components(g))
    times = walk.run_walk_first_visits(g, comp, max(t_by_u), stream.substream(1))
    return stream.root_seed, len(comp), walk.vacant_structure(g, comp, times, t_by_u).tolist()


def sweep_vacant_structure(n: int, rho: float, u_grid, n_trials: int, root: RngStream,
                           *, caps) -> list[SweepRecord]:
    """Per (u, trial): sample a graph, walk its giant component to the
    intensity's time, and record the vacant component structure next to
    the tree-model predictions (functional evaluated on one capacity
    sample set, so every u sees common random numbers).

    ``caps`` is a zero-argument callable returning that sample set. It is
    called in this process after the sweep's own checks, so a rejected
    request draws no sample, and while the trial workers run (with one
    worker, before the trials)."""
    u_grid = [float(u) for u in u_grid]
    if any(u < 0 for u in u_grid) or sorted(u_grid) != u_grid:
        raise ValueError("u_grid must be nonnegative and ascending")
    xi = critical.solve_xi(rho)
    t_by_u = tuple(walk.walk_time(u, rho, n) for u in u_grid)
    per_trial, samples = run_trials(partial(_sweep_trial, n, rho, t_by_u), n_trials,
                                    root=root, meanwhile=caps)
    records = []
    for ui, (u, t) in enumerate(zip(u_grid, t_by_u)):
        f_u = samples.functional(u).mean
        zeta = critical.solve_zeta(rho, f_u)
        for trial, (seed, giant_size, rows) in enumerate(per_trial):
            vac_size, c1, c2 = rows[ui]
            rec = SweepRecord(n=n, rho=rho, u=u, trial=trial, seed=seed, t_steps=t,
                              giant_size=giant_size, vacant_size=vac_size,
                              c1_vacant=c1, c2_vacant=c2, zeta_predicted=zeta,
                              vacant_fraction_predicted=xi * f_u)
            rec.validate()
            records.append(rec)
    return records


@dataclass(frozen=True)
class SizeRelationReport:
    mean_vbar: float
    mean_v: float
    gap: float
    predicted_gap: float
    n: int
    rho: float
    u: float
    n_trials: int


def _size_trial(n: int, rho: float, t: int, mode: str, stream: RngStream) -> int:
    if mode == "explore":
        state = exploration.new_exploration(n, rho, stream.substream(0))
        exploration.run_to(state, t)
        return state.unvisited_count
    g = sample_er(n, rho, stream.substream(0))
    comp = giant_vertices(components(g))
    vac = walk.run_walk_vacant(g, comp, t, stream.substream(1))
    return vac.size


def size_relation_check(n: int, rho: float, u: float, n_trials: int,
                        root: RngStream) -> SizeRelationReport:
    """Independent exploration and walk runs at the same intensity; their
    mean vacant sizes should differ by the mass of the non-giant
    components, (1-xi)*n."""
    edge_probability(n, rho)  # the trials' request check, before any pool starts
    xi = critical.solve_xi(rho)
    t = walk.walk_time(u, rho, n)
    explore = partial(_size_trial, n, rho, t + exploration.default_burn_in(n), "explore")
    vbars = run_trials(explore, n_trials, root=root.substream(1))
    vs = run_trials(partial(_size_trial, n, rho, t, "walk"), n_trials, root=root.substream(2))
    mean_vbar = float(np.mean(vbars))
    mean_v = float(np.mean(vs))
    return SizeRelationReport(mean_vbar=mean_vbar, mean_v=mean_v,
                              gap=mean_vbar - mean_v, predicted_gap=(1.0 - xi) * n,
                              n=n, rho=rho, u=u, n_trials=n_trials)


@dataclass(frozen=True)
class VertexVacancyRow:
    vertex: int
    degree: int
    pi_x: float
    p_escape: float
    empirical_vacancy: float
    predicted_vacancy: float
    abs_error: float
    tail_ks_distance: float
    censored_fraction: float


@dataclass(frozen=True)
class HittingVacancyReport:
    n: int
    rho: float
    u: float
    t_steps: int
    radius: int
    mean_abs_error: float
    rows: list


def hitting_and_vacancy_report(n: int, rho: float, u: float, n_vertices_probed: int,
                               root: RngStream, *, n_walks: int = 2000,
                               radius: int | None = None) -> HittingVacancyReport:
    """Probe uniformly chosen giant vertices: empirical vacancy at the
    intensity's time versus the escape-probability prediction, plus the
    distance of the hitting tail from its exponential fit over a grid
    inside the probed window.

    One ensemble of stationary walks records the hitting tails of every
    distinct probed vertex, so the rows share walks and their empirical
    columns are correlated; a vertex drawn twice gives two rows with the
    same tail. The exact escape probabilities draw nothing and are solved
    before the ensemble, so a rejected radius costs no ensemble."""
    if n > 100_000:
        raise ValueError("n capped at 1e5 for the probing report")
    if n_vertices_probed < 1:
        raise ValueError("n_vertices_probed must be positive")
    gen = as_generator(root.substream(3))
    t = walk.walk_time(u, rho, n)
    r = walk.default_ball_radius(n, rho) if radius is None else radius
    g = sample_er(n, rho, root.substream(0))
    comp = giant_vertices(components(g))
    chosen = comp[gen.integers(0, len(comp), n_vertices_probed)].tolist()
    escapes = [walk.escape_probability(g, x, r) for x in chosen]
    ts = np.unique(np.maximum(1, np.round(np.linspace(t / 10, t, 10)).astype(np.int64)))
    probed = np.unique(chosen)
    tails = walk.estimate_hitting_tails(g, comp, probed, ts, n_walks, root.substream(5))
    tail_of = dict(zip(probed.tolist(), tails))
    rows = []
    for x, p_escape in zip(chosen, escapes):
        pi_x = walk.stationary_pi(g, comp, x)
        tailres = tail_of[x]
        empirical = float(tailres.tail[-1])
        predicted = math.exp(-t * p_escape * pi_x)
        fit = np.exp(-tailres.ts / tailres.mean_hitting)
        ks_dist = float(np.max(np.abs(tailres.tail - fit)))
        rows.append(VertexVacancyRow(
            vertex=x, degree=g.degree(x), pi_x=pi_x,
            p_escape=p_escape, empirical_vacancy=empirical,
            predicted_vacancy=predicted,
            abs_error=abs(empirical - predicted),
            tail_ks_distance=ks_dist,
            censored_fraction=tailres.censored_fraction))
    mean_err = float(np.mean([row.abs_error for row in rows]))
    return HittingVacancyReport(n=n, rho=rho, u=u, t_steps=t, radius=r,
                                mean_abs_error=mean_err, rows=rows)


def exploration_mean_degree_at(n: int, rho: float, u: float, n_trials: int,
                               root: RngStream) -> float:
    """Mean vacant-graph degree |unvisited| * rho / n after exploring to
    the intensity's time plus burn-in."""
    t = walk.walk_time(u, rho, n) + exploration.default_burn_in(n)
    sizes = run_trials(partial(_size_trial, n, rho, t, "explore"), n_trials, root=root)
    return float(np.mean(sizes)) * rho / n


# Upper end of the crossing's bisection bracket; u_star(rho = 2) is about 1.4.
CROSSING_U_HI = 4.0


def empirical_u_star_crossing(n: int, rho: float, n_trials: int, root: RngStream,
                              *, tol_u: float = 0.01) -> float:
    """Intensity at which the exploration's mean vacant degree crosses 1,
    located by bisection on [0, CROSSING_U_HI] with per-point independent
    trials (the second, simulation-only route to the critical intensity)."""
    lo, hi = 0.0, CROSSING_U_HI
    point = 0
    dlo = exploration_mean_degree_at(n, rho, 0.0, n_trials, root.substream(10, point))
    if dlo <= 1.0:
        raise ValueError("vacant degree already below 1 at u=0")
    while hi - lo > tol_u:
        point += 1
        mid = 0.5 * (lo + hi)
        d = exploration_mean_degree_at(n, rho, mid, n_trials, root.substream(10, point))
        if d > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
