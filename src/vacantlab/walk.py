"""Simple random walk on a fixed connected component: stationary starts,
vacant sets at the model's time scaling and their components (one set, or
a whole time grid in one pass), hitting times, exact escape probabilities
of a ball and a spectral gap oracle (scipy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import critical
from .engine import as_generator
from .random_graph import ComponentLabeling, Graph, _hook, _label

DENSE_SPECTRAL_CAP = 5000
_BLOCK = 1 << 15
_STOP_BIT = np.int64(-1 << 63)
_FIELDS = np.int64((1 << 63) - 1)
_LOW32 = np.uint64(0xFFFFFFFF)
# escape_probability's conjugate-gradient iteration cap and relative residual
CG_MAX_ITER = 10_000
CG_RTOL = 1e-12


def walk_time(u: float, rho: float, n: int) -> int:
    """Number of walk steps carrying intensity u: round(u*rho*(2-xi)*xi*n),
    where xi = ``critical.solve_xi(rho)``, which raises unless rho > 1.

    Round-to-nearest keeps the scaling symmetric and reproducible. Raises
    unless the product is finite and below 2**63, so that every time (and
    every time grid cast to int64) fits a signed 64-bit integer.
    """
    xi = critical.solve_xi(rho)
    if u < 0:
        raise ValueError("u must be nonnegative")
    if n < 0:
        raise ValueError("n must be nonnegative")
    steps = u * rho * (2.0 - xi) * xi * n
    if not steps < 2.0 ** 63:
        raise ValueError(f"walk time u*rho*(2-xi)*xi*n = {steps:g} is not below 2**63")
    return int(math.floor(steps + 0.5))


def default_ball_radius(n: int, rho: float) -> int:
    """Ball radius used by the escape / vacancy diagnostics.

    The radius must balance two errors: a walk on the boundary must
    rarely return to the center (return probability decays like
    (rho*xi)^-r, so r >= log(50)/log(rho*xi) pushes it below ~2%), while
    the ball must stay a vanishing fraction of the component (its size
    grows like rho^r, capped at 5% of the giant). Both limits are
    measured choices: radius 2 from the coupling-style r = gamma*log(n)
    scaling biases the vacancy prediction by 0.06-0.1 at n = 5e4, far
    beyond the diagnostic bands, while radii in the 6-12 range keep it
    near 0.01. ``critical.solve_xi`` raises unless rho > 1.
    """
    xi = critical.solve_xi(rho)
    cap = math.floor(math.log(max(0.05 * xi * n, 8.0)) / math.log(rho))
    growth = rho * xi
    want = math.ceil(math.log(50.0) / math.log(growth)) if growth > 1.0 else cap
    return max(3, min(want, cap))


@dataclass(frozen=True)
class HittingTailEstimate:
    ts: np.ndarray
    tail: np.ndarray
    mean_hitting: float
    censored_fraction: float
    n_walks: int


def stationary_pi(g: Graph, component: np.ndarray, x: int) -> float:
    """Stationary weight of x on its component: degree(x) / sum of degrees."""
    total = float(g.degrees()[component].sum())
    return g.degree(x) / total


def _stationary_starts(g: Graph, component: np.ndarray, k: int, rng) -> np.ndarray:
    """k vertices drawn independently with probability proportional to
    their degree (prefix-sum inversion); a single-vertex component is
    returned without a draw."""
    if len(component) == 0:
        raise ValueError("component is empty")
    if len(component) == 1:
        return np.full(k, component[0], dtype=np.int64)
    cum = np.cumsum(g.degrees()[component].astype(np.float64))
    if cum[-1] <= 0:
        raise ValueError("component of size > 1 with all degrees 0: disconnected input")
    draws = as_generator(rng).random(k) * cum[-1]
    idx = np.minimum(np.searchsorted(cum, draws, side="right"), len(component) - 1)
    return component[idx].astype(np.int64)


def run_walk_first_visits(g: Graph, component: np.ndarray, t: int, rng) -> np.ndarray:
    """First-visit times of a single t-step stationary-start walk, -1 for
    vertices never visited. Walk prefixes nest, so one run yields the
    vacant set at every earlier time: vacant(s) = (times < 0) | (times > s).
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    gen = as_generator(rng)
    start = int(_stationary_starts(g, component, 1, gen)[0])
    times = np.full(g.n, -1, dtype=np.int64)
    times[start] = 0
    if t > 0 and g.degree(start) > 0:
        # memoryviews index the arrays in place: no n-sized list copies
        indptr, indices, first = map(memoryview, (g.indptr, g.indices, times))
        cur = start
        step = 0
        remaining = t
        while remaining > 0:
            block = gen.random(min(_BLOCK, remaining)).tolist()
            for unif in block:
                step += 1
                lo = indptr[cur]
                cur = indices[lo + int(unif * (indptr[cur + 1] - lo))]
                if first[cur] < 0:
                    first[cur] = step
            remaining -= len(block)
    return times


def run_walk_vacant(g: Graph, component: np.ndarray, t: int, rng) -> np.ndarray:
    """Run a stationary-start walk for t uniform-neighbor steps and return
    the unvisited vertices of the component; the starting vertex counts as
    visited."""
    return vacant_from_first_visits(component, run_walk_first_visits(g, component, t, rng), t)


def vacant_from_first_visits(component: np.ndarray, times: np.ndarray, s: int) -> np.ndarray:
    """Vacant vertices of the component at time s, in component order,
    derived from recorded first-visit times."""
    tv = times[component]
    return component[(tv < 0) | (tv > s)]


def _induced_edges(g: Graph, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edges induced by ``vertices``, as endpoint arrays of positions in it."""
    lookup = np.full(g.n, -1, dtype=np.int64)
    lookup[vertices] = np.arange(len(vertices))
    a, b = (lookup[e] for e in g.edge_arrays)
    keep = (a >= 0) & (b >= 0)
    return a[keep], b[keep]


def vacant_components(g: Graph, vac: np.ndarray) -> ComponentLabeling:
    """Canonical components of the subgraph induced by the vacant vertices
    ``vac`` (ids are positions in it), labelled from the masked edge list."""
    return _label(len(vac), *_induced_edges(g, vac))


def vacant_structure(g: Graph, component: np.ndarray, times: np.ndarray, ts) -> np.ndarray:
    """(vacant size, largest, second largest vacant component size) at
    every time of the ascending grid ``ts``, one row each, from one walk's
    first-visit ``times`` on ``component`` (0 where there is no such
    component).

    The vacant sets nest, so they are swept in one pass (Newman & Ziff,
    PRL 85, 4104, 2000): the vertices are ordered once by decreasing
    first-visit time, never-visited first, so every vacant set is a prefix
    of that order, and the induced edges once by their later endpoint in
    it, so every vacant set's edges are a prefix too. From the last time to
    the first, ``_hook`` merges each newly alive edge slice into one root
    array and a count of the prefix's roots gives the two sizes."""
    ts = np.asarray(ts, dtype=np.int64)
    if len(ts) and (ts[0] < 0 or (np.diff(ts) < 0).any()):
        raise ValueError("time grid must be nonnegative and ascending")
    death = times[component]
    death = np.where(death < 0, np.iinfo(np.int64).max, death)
    up = np.argsort(death)
    k = len(component)
    counts = k - np.searchsorted(death[up], ts, side="right")
    a, b = _induced_edges(g, component[up[::-1]])
    later = np.maximum(a, b)
    by_later = np.argsort(later)
    a, b, later = a[by_later], b[by_later], later[by_later]
    ends = np.searchsorted(later, counts)
    root = np.arange(k, dtype=np.int64)
    rows = np.zeros((len(ts), 3), dtype=np.int64)
    merged = 0
    for i in range(len(ts) - 1, -1, -1):
        c, e = counts[i], ends[i]
        root[:c] = _hook(root[:c], a[merged:e], b[merged:e])
        merged = e
        sizes = np.bincount(root[:c], minlength=2)
        top = sizes.argmax()
        rows[i, :2] = c, sizes[top]
        sizes[top] = 0
        rows[i, 2] = sizes.max()
    return rows


def _killed_walks(g: Graph, starts: np.ndarray, target: np.ndarray, cap: int, gen) -> np.ndarray:
    """Step every walker from ``starts`` and record its first hit of each
    target j, the vertices v with ``target[v] == j`` (-1 elsewhere); a start
    on a target hits it at step 0. A walker dies once it has hit every
    target (so one whose start covers them all draws nothing) or at ``cap``
    steps. No walker may stand on a vertex of degree 0 when it steps.

    A walker's state is a slot into one int64 word array: slot j < 2m
    stands for vertex ``indices[j]`` and slot 2m + v for a start at v. The
    word of a slot's vertex holds its CSR row start in bits 32-62, its
    degree in bits 0-31 and, in the sign bit, whether it is a target, so
    row starts must stay below 2**31 and degrees below 2**32. A step draws
    one uint32 r per live walker, in walker order, two to each 64-bit
    output of the bit generator (low half first on a little-endian
    machine; with an odd live count the high half of the step's last
    output goes unused), and moves to slot row start + (r * degree >> 32),
    a multiply-shift choice: each neighbour's chance is within 2**-32 of
    1/degree, a relative bias of at most degree/2**32. It is computed in
    place as (row start * 2**32 + r * degree) >> 32, which stays below
    2**63 since row start + degree <= 2m < 2**31. The step is one gather of
    the new words and one sign test; vertex ids are decoded only for
    walkers that land on a target.

    Returns the first-hit steps, one row per walker and one column per
    target (-1 if not hit by the cap).
    """
    indptr, indices = g.indptr, g.indices
    two_m = 2 * g.m
    if two_m >= 1 << 31:
        raise ValueError("graph too large for the killed-walk kernel: 2m must be below 2**31")
    k = int(target.max()) + 1
    stop = target >= 0
    times = np.full((len(starts), k), -1, dtype=np.int64)
    at = np.flatnonzero(stop[starts])
    times[at, target[starts[at]]] = 0
    left = (times < 0).sum(axis=1)
    flat = times.reshape(-1)  # a view: walker w, target j at w * k + j
    vertex_word = (indptr[:-1] << 32) | np.diff(indptr)
    vertex_word[stop] |= _STOP_BIT
    word = np.concatenate([vertex_word[indices], vertex_word])
    alive = np.flatnonzero(left > 0)
    w = word[two_m + starts[alive]] & _FIELDS
    draw = gen.bit_generator.random_raw
    step = 0
    while len(alive) > 0 and step < cap:
        step += 1
        r = draw((len(w) + 1) // 2).view(np.uint32)[:len(w)]
        # in place, each word becomes its next slot (row start * 2**32 + r * degree) >> 32
        wu = w.view(np.uint64)
        degree = wu & _LOW32
        wu ^= degree
        degree *= r
        wu += degree
        wu >>= 32
        pos, w = w, word[w]
        if w.min() < 0:
            on = w < 0
            wk = alive[on]
            slot = wk * k + target[indices[pos[on]]]
            first = flat[slot] < 0
            flat[slot[first]] = step
            left[wk[first]] -= 1
            w[on] &= _FIELDS
            on[on] = left[wk] == 0
            keep = ~on
            alive, w = alive[keep], w[keep]
    return times


def estimate_hitting_tails(g: Graph, component: np.ndarray, targets, ts, n_walks: int,
                           rng) -> list[HittingTailEstimate]:
    """Empirical P[H_x > t] on the given time grid for every x in
    ``targets``, plus the censored-exponential estimate of E[H_x], all from
    one ensemble of stationary-start walks, in the order of ``targets``.

    Each walker records its first hit of every target and is capped at
    max(ts); capped walks enter each mean as censored observations (total
    observed time / number of hits) and their fraction is reported. The
    estimates share walks, so they are correlated across targets. Every
    target must lie in ``component``, and every time must be nonnegative.
    """
    if n_walks < 1:
        raise ValueError("n_walks must be positive")
    ts = np.asarray(sorted(int(t) for t in ts), dtype=np.int64)
    if len(ts) == 0:
        raise ValueError("need at least one time point")
    if ts[0] < 0:
        raise ValueError("time points must be nonnegative")
    targets = np.asarray(targets, dtype=np.int64)
    if len(np.unique(targets)) < len(targets):
        raise ValueError("targets must be distinct")
    if not np.isin(targets, component).all():
        raise ValueError("every target must lie in the component")
    gen = as_generator(rng)
    cap = int(ts[-1])
    starts = _stationary_starts(g, component, n_walks, gen)
    target = np.full(g.n, -1, dtype=np.int64)
    target[targets] = np.arange(len(targets))
    times = _killed_walks(g, starts, target, cap, gen)
    out = []
    for j in range(len(targets)):
        hit_time = np.where(times[:, j] < 0, cap + 1, times[:, j])
        censored = hit_time > cap
        n_hits = int((~censored).sum())
        observed = int(np.minimum(hit_time, cap).sum())
        mean_hit = float(observed / n_hits) if n_hits > 0 else math.inf
        out.append(HittingTailEstimate(ts=ts, tail=(hit_time[:, None] > ts).mean(axis=0),
                                       mean_hitting=mean_hit, censored_fraction=float(censored.mean()),
                                       n_walks=n_walks))
    return out


def estimate_hitting_tail(g: Graph, component: np.ndarray, x: int, ts, n_walks: int, rng) -> HittingTailEstimate:
    """``estimate_hitting_tails`` for the one target x."""
    return estimate_hitting_tails(g, component, [x], ts, n_walks, rng)[0]


def ball(g: Graph, x: int, r: int) -> tuple[np.ndarray, bool]:
    """Vertices within graph distance r of x, in increasing order, and
    whether the ball already covers the whole component (empty boundary).
    Breadth-first, one CSR gather per level; the level after r only
    decides the boundary flag."""
    seen = np.zeros(g.n, dtype=bool)
    seen[x] = True
    frontier = np.array([x], dtype=np.int64)
    for depth in range(r + 1):
        lo = g.indptr[frontier]
        counts = g.indptr[frontier + 1] - lo
        nbrs = g.indices[np.repeat(lo - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())]
        frontier = np.unique(nbrs[~seen[nbrs]])
        if depth == r or len(frontier) == 0:
            break
        seen[frontier] = True
    return np.flatnonzero(seen), len(frontier) == 0


def escape_probability(g: Graph, x: int, r: int) -> float:
    """Exact probability that a walk from x leaves the radius-r ball around
    x before returning to x (0.0 if the ball covers the component): 1 - the
    mean over x's neighbours of h(v) = P_v[reach x before leaving], which
    solves (D - A)h = b on the ball minus x (degrees, adjacency, edge counts
    to x; positive definite, as each part of it touches x) by Jacobi-
    preconditioned conjugate gradients. Raises unless the residual falls to
    CG_RTOL * |b| within CG_MAX_ITER iterations."""
    if r < 1:
        raise ValueError("r must be at least 1")
    members, covers = ball(g, x, r)
    if covers:
        return 0.0
    inner = members[members != x]
    a, b = _induced_edges(g, inner)
    diag = g.degrees()[inner].astype(np.float64)
    near = np.searchsorted(inner, g.neighbors(x))
    res = np.bincount(near, minlength=len(inner)).astype(np.float64)
    goal = CG_RTOL * np.linalg.norm(res)
    h, p = np.zeros_like(res), res / diag
    rz = res @ p
    for _ in range(CG_MAX_ITER):
        q = diag * p - np.bincount(a, p[b], len(p)) - np.bincount(b, p[a], len(p))
        alpha = rz / (p @ q)
        h += alpha * p
        res -= alpha * q
        if np.linalg.norm(res) <= goal:
            return float(1.0 - h[near].mean())
        z = res / diag
        rz, rz_old = res @ z, rz
        p = z + (rz / rz_old) * p
    raise ValueError(f"escape solve did not converge in {CG_MAX_ITER} iterations")


def spectral_gap(g: Graph, component: np.ndarray) -> float:
    """Smallest nonconstant eigenvalue of I - P on the component, where P
    is the walk transition operator: 1 minus the second largest eigenvalue
    of P. Computed on the degree-symmetrized operator; bipartite
    components legitimately report values above 1.
    """
    k = len(component)
    if k > DENSE_SPECTRAL_CAP:
        raise ValueError("component too large for dense spectral solve")
    if k == 1:
        raise ValueError("spectral gap undefined on a single vertex")
    comp = np.asarray(component, dtype=np.int64)
    a, b = _induced_edges(g, comp)
    deg = g.degrees()[comp].astype(np.float64)
    dinv = 1.0 / np.sqrt(deg)
    if k <= 600:
        from scipy.linalg import eigh

        s = np.zeros((k, k))
        s[a, b] = dinv[a] * dinv[b]
        s[b, a] = s[a, b]
        evals = eigh(s, eigvals_only=True)
        second = evals[-2]
    else:
        from scipy.sparse import csr_matrix
        from scipy.sparse.linalg import eigsh

        data = np.concatenate([dinv[a] * dinv[b], dinv[a] * dinv[b]])
        rows = np.concatenate([a, b])
        cols = np.concatenate([b, a])
        s = csr_matrix((data, (rows, cols)), shape=(k, k))
        evals = eigsh(s, k=2, which="LA", tol=1e-10, return_eigenvectors=False)
        second = np.sort(evals)[0]
    return float(1.0 - second)
