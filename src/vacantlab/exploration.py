"""The walk-that-builds-the-graph process: a random-walk-like exploration
that samples edges of the random graph the first time they are looked at,
jumping to a uniform vertex whenever the current component is exhausted.

The unvisited vertices of this process carry a fresh random-graph law on
their untouched pairs (the spatial Markov property), which
``er_law_check`` uses by drawing those pairs afresh with ``sample_er``.

Performance notes: the unvisited set is an array with swap-removal plus a
position index for O(1) deletion and uniform sampling; per-step edge
exploration skips over the unvisited array with geometric gaps, so one
step costs O(newly opened edges) amortized. A vertex explores all its
pending edges the first time it becomes current, and every visited vertex
has been current, so pending edges at the current vertex are exactly
those toward currently-unvisited vertices. Edges are sampled only there,
so every explored edge of an unvisited vertex leads to a visited one: the
frontier is the set of unvisited vertices with an explored edge, and no
flag array is kept, only its size.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import critical, walk
from ._gof import chisq_pvalue_counts_vs_probs
from .engine import RngStream, as_generator, ks_uniform_pvalue, run_trials
from .random_graph import edge_probability, sample_er

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
    """Live state of the exploring process at time ``step``. A vertex is
    visited exactly when it is missing from ``_unvisited`` (its
    ``_position`` is -1)."""

    n: int
    p: float
    step: int
    current: int
    explored_adjacency: list
    frontier_count: int
    jumps: int
    _unvisited: list = field(repr=False)
    _position: list = field(repr=False)
    _draw: Iterator[float] = field(repr=False)
    _log1mp: float = field(repr=False, default=0.0)

    @property
    def unvisited_count(self) -> int:
        return len(self._unvisited)

    @property
    def covered(self) -> bool:
        return not self._unvisited


def _visit(state: ExplorationState, v: int) -> None:
    """First visit of v: swap-remove it from the unvisited list, then
    sample its pending edges, one Bernoulli(p) per still-unvisited vertex,
    via geometric gap skipping."""
    unvisited = state._unvisited
    pos = state._position[v]
    last = unvisited[-1]
    unvisited[pos] = last
    state._position[last] = pos
    unvisited.pop()
    state._position[v] = -1
    adj = state.explored_adjacency
    if adj[v]:  # v was on the frontier
        state.frontier_count -= 1
    count = len(unvisited)
    if count == 0 or state.p <= 0.0:
        return
    if state.p >= 1.0:
        hits = list(unvisited)
    else:
        hits = []
        log1mp = state._log1mp
        draw = state._draw
        i = -1
        while True:
            i += 1 + int(math.log(1.0 - next(draw)) / log1mp)
            if i >= count:
                break
            hits.append(unvisited[i])
    adj[v].extend(hits)
    for w in hits:
        if not adj[w]:  # w joins the frontier
            state.frontier_count += 1
        adj[w].append(v)


def new_exploration(n: int, rho: float, rng) -> ExplorationState:
    """Fresh exploration: a uniform starting vertex, visited, with its
    edges already sampled."""
    p = edge_probability(n, rho)
    gen = as_generator(rng)
    start = int(gen.integers(0, n))
    # the start goes last, so removing it leaves the others in vertex order
    unvisited = list(range(start)) + list(range(start + 1, n)) + [start]
    position = list(range(n))
    position[start + 1:] = range(start, n - 1)
    position[start] = n - 1
    state = ExplorationState(
        n=n,
        p=p,
        step=0,
        current=start,
        explored_adjacency=[[] for _ in range(n)],
        frontier_count=0,
        jumps=0,
        _unvisited=unvisited,
        _position=position,
        _draw=_uniforms(gen),
        _log1mp=math.log1p(-p) if 0.0 < p < 1.0 else 0.0,
    )
    _visit(state, start)
    return state


def advance(state: ExplorationState) -> bool:
    """One step: move to a uniform open neighbor of the current vertex or,
    when it has none or no unvisited vertex touches an open edge, jump to a
    uniform vertex; a vertex reached for the first time samples its
    pending edges. Returns False as a no-op flag when the state is already
    covered."""
    if state.covered:
        return False
    neighbors = state.explored_adjacency[state.current]
    if neighbors and state.frontier_count > 0:
        nxt = neighbors[int(next(state._draw) * len(neighbors))]
    else:
        nxt = int(next(state._draw) * state.n)
        state.jumps += 1
    if state._position[nxt] >= 0:
        _visit(state, nxt)
    state.current = nxt
    state.step += 1
    return True


def run_to(state: ExplorationState, t: int) -> ExplorationState:
    """Advance until step == t or the state is covered."""
    if t < state.step:
        raise ValueError("cannot advance backwards")
    while state.step < t and not state.covered:
        advance(state)
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
    """One exploration to time t and a fresh draw of its vacant graph:
    the vacant vertex count k, the randomized PIT of the vacant graph's
    edge count and its degree histogram (both None when p = 0 or k < 2)."""
    state = run_to(new_exploration(n, rho, stream.substream(0)), t)
    k = state.unvisited_count
    if state.p <= 0.0 or k < 2:
        return k, None, None
    gen = stream.substream(1).generator()
    # spatial Markov property: the pairs among unvisited vertices are unexplored, so this is G(k, p)
    vacant = sample_er(k, state.p * k, gen)
    pit = _binomial_pit(vacant.m, k * (k - 1) // 2, state.p, float(gen.random()))
    return k, pit, np.bincount(vacant.degrees())


def er_law_check(n: int, rho: float, u: float, n_trials: int, root: RngStream) -> ErLawReport:
    """Statistical check of the vacant graph's edge law.

    Runs ``n_trials`` explorations to walk_time(u) + default_burn_in(n)
    (only the burn-in when rho <= 1, where u must be 0), draws each one's
    vacant graph, and tests (i) per-trial edge counts against their
    binomial law, pooled through a randomized PIT into a KS-uniformity
    p-value, and (ii) the pooled degree histogram against the per-trial
    binomial degree mixture by chi-square. Also reports the mean vacant
    vertex fraction and the mean vacant-graph degree, the quantity whose
    crossing of 1 locates the critical intensity.

    The p-values do not test the exploration: each trial draws the vacant
    edges fresh with ``sample_er(k, p*k)``, so they are uniform by
    construction and check ``sample_er``, not the spatial Markov
    property. The exploration's law is checked by the test suite's
    ``TestAnnealedEquivalence`` and acceptances 07 and 10.

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
        t += walk.walk_time(u, rho, critical.solve_xi(rho), n)
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
