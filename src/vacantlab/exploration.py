"""The walk-that-builds-the-graph process on G(n, rho/n): a walk that
steps to a uniform neighbor while its component has an unvisited vertex,
and otherwise jumps to a uniform vertex.

The graph is sampled up front and labelled once. The walk reads only
edges with a visited endpoint, since a component has an unvisited vertex
exactly when one of its visited vertices has an unvisited neighbor, so
this has the law of the process that samples a vertex's edges on its
first visit. Its unvisited vertices therefore carry a fresh G(k, rho/n)
law on their pairs (the spatial Markov property), which ``er_law_check``
tests on the graph the exploration explored.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import walk
from ._gof import chisq_pvalue_counts_vs_probs
from .engine import RngStream, as_generator, ks_uniform_pvalue, run_trials
from .random_graph import Graph, components, edge_probability, sample_er

# _uniforms draws blocks of 16, 32, ... uniforms up to _BLOCK, so a short
# exploration does not pay for thousands of draws it never uses.
_BLOCK = 1 << 13


def _uniforms(gen: np.random.Generator) -> Iterator[float]:
    """Scalar uniforms from a numpy generator, drawn a block at a time."""
    size = 16
    while True:
        yield from gen.random(size).tolist()
        size = min(2 * size, _BLOCK)


@dataclass
class ExplorationState:
    """Live state of the exploring process at time ``step`` on its
    ``graph``; it is covered when ``unvisited_count`` is 0.
    ``_unvisited_in[c]`` counts the unvisited vertices of component c; the
    adjacency and labels are Python lists, made once per state for the
    step loop."""

    graph: Graph
    step: int
    current: int
    jumps: int
    unvisited_count: int
    _visited: list = field(repr=False)
    _label: list = field(repr=False)
    _unvisited_in: list = field(repr=False)
    _indptr: list = field(repr=False)
    _indices: list = field(repr=False)
    _draw: Iterator[float] = field(repr=False)


def new_exploration(n: int, rho: float, rng) -> ExplorationState:
    """Fresh exploration: G(n, rho/n), then a uniform starting vertex,
    visited, both drawn from one generator."""
    gen = as_generator(rng)
    g = sample_er(n, rho, gen)
    labeling = components(g)
    start = int(gen.integers(0, n))
    label = labeling.label.tolist()
    unvisited_in = labeling.sizes.tolist()
    unvisited_in[label[start]] -= 1
    visited = [False] * n
    visited[start] = True
    return ExplorationState(
        graph=g,
        step=0,
        current=start,
        jumps=0,
        unvisited_count=n - 1,
        _visited=visited,
        _label=label,
        _unvisited_in=unvisited_in,
        _indptr=g.indptr.tolist(),
        _indices=g.indices.tolist(),
        _draw=_uniforms(gen),
    )


def run_to(state: ExplorationState, t: int) -> ExplorationState:
    """Advance until step == t or the state is covered. Each step moves to
    a uniform neighbor while the current component has an unvisited
    vertex, and otherwise jumps to a uniform vertex."""
    if t < state.step:
        raise ValueError("cannot advance backwards")
    n = state.graph.n
    indptr, indices = state._indptr, state._indices
    visited, label, unvisited_in = state._visited, state._label, state._unvisited_in
    draw = state._draw
    cur, step, jumps, left = state.current, state.step, state.jumps, state.unvisited_count
    while step < t and left:
        if unvisited_in[label[cur]]:
            lo = indptr[cur]
            cur = indices[lo + int(next(draw) * (indptr[cur + 1] - lo))]
        else:
            cur = int(next(draw) * n)
            jumps += 1
        step += 1
        if not visited[cur]:
            visited[cur] = True
            left -= 1
            unvisited_in[label[cur]] -= 1
    state.current, state.step, state.jumps, state.unvisited_count = cur, step, jumps, left
    return state


def default_burn_in(n: int) -> int:
    """Extra steps run beyond the nominal walk time before the vacant set
    is read: ceil(log^3 n), which dominates the walk's mixing time yet is
    o(n)."""
    return int(math.ceil(math.log(max(n, 2)) ** 3))


@dataclass(frozen=True)
class ErLawReport:
    ks_pvalue_edges: float | None
    degree_chisq_pvalue: float | None
    mean_vacant_fraction: float
    mean_vacant_mean_degree: float
    n_trials: int
    note: str = ""


def _binomial_pit(k: int, m: int, p: float, unif: float) -> float:
    """Randomized probability integral transform of a binomial count:
    P[K > k] + U * P[K = k], exactly Uniform[0,1] under the null."""
    from scipy.stats import binom

    sf = float(binom.sf(k, m, p))
    pmf = float(binom.pmf(k, m, p))
    return min(1.0, max(0.0, sf + unif * pmf))


def _er_trial(n: int, rho: float, t: int, stream: RngStream) -> tuple:
    """One exploration to time t and its vacant graph, the explored graph
    induced on the unvisited vertices: the vacant vertex count k, the
    randomized PIT of the vacant graph's edge count and its degree
    histogram (both None when p = 0 or k < 2)."""
    p = edge_probability(n, rho)
    state = run_to(new_exploration(n, rho, stream.substream(0)), t)
    k = state.unvisited_count
    if p <= 0.0 or k < 2:
        return k, None, None
    vacant_vertices = np.flatnonzero(np.logical_not(state._visited))
    a, b = walk._induced_edges(state.graph, vacant_vertices)
    unif = float(stream.substream(1).generator().random())
    pit = _binomial_pit(len(a), k * (k - 1) // 2, p, unif)
    return k, pit, np.bincount(np.bincount(np.concatenate([a, b]), minlength=k))


def er_law_check(n: int, rho: float, u: float, n_trials: int, root: RngStream) -> ErLawReport:
    """Statistical check of the vacant graph's edge law.

    Runs ``n_trials`` explorations to walk_time(u) + default_burn_in(n)
    (only the burn-in when rho <= 1, where u must be 0), reads each one's
    vacant graph, and tests (i) per-trial edge counts against their
    binomial law, pooled through a randomized PIT into a KS-uniformity
    p-value, and (ii) the pooled degree histogram against the per-trial
    binomial degree mixture by chi-square. Also reports the mean vacant
    vertex fraction and the mean vacant-graph degree, the quantity whose
    crossing of 1 locates the critical intensity.

    The p-values test the exploration itself: each trial's vacant graph
    is the graph it explored, induced on its unvisited vertices, and by
    the spatial Markov property it is G(k, rho/n) given its vertex count.

    Trials run through ``engine.run_trials``: trial i draws only from its
    own stream, so any trial replays alone and the report is identical
    for every worker count.
    """
    p = edge_probability(n, rho)
    if n_trials < 50:
        raise ValueError("need at least 50 trials")
    if u < 0:
        raise ValueError("u must be nonnegative")
    if u > 0 and rho <= 1.0:
        raise ValueError("u must be 0 when rho <= 1 (no giant component to scale the walk time)")
    from scipy.stats import binom

    t = default_burn_in(n)
    if rho > 1.0:
        t += walk.walk_time(u, rho, n)
    trials = run_trials(partial(_er_trial, n, rho, t), n_trials, root=root)
    mean_fraction = float(np.mean([size for size, _, _ in trials])) / n
    mean_degree = mean_fraction * rho
    tested = [trial for trial in trials if trial[1] is not None]
    if not tested:
        reason = "p=0" if p <= 0.0 else "fewer than 2 vacant vertices in every trial"
        return ErLawReport(ks_pvalue_edges=None, degree_chisq_pvalue=None,
                           mean_vacant_fraction=mean_fraction,
                           mean_vacant_mean_degree=mean_degree,
                           n_trials=n_trials, note=f"edge test skipped: {reason}")
    ks_p = ks_uniform_pvalue([pit for _, pit, _ in tested])
    degree_hist = np.zeros(max(len(hist) for _, _, hist in tested), dtype=np.int64)
    for _, _, hist in tested:
        degree_hist[: len(hist)] += hist
    ks_grid = np.arange(len(degree_hist))
    probs = np.zeros(len(degree_hist))
    total_vertices = float(sum(size for size, _, _ in tested))
    for big_n, _, _ in tested:
        probs += (big_n / total_vertices) * binom.pmf(ks_grid, big_n - 1, p)
    chi_p = chisq_pvalue_counts_vs_probs(degree_hist, probs)
    return ErLawReport(ks_pvalue_edges=ks_p, degree_chisq_pvalue=chi_p,
                       mean_vacant_fraction=mean_fraction,
                       mean_vacant_mean_degree=mean_degree,
                       n_trials=n_trials)
