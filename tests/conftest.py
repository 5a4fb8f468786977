"""Shared fixtures and independent oracles used across the test modules.

The oracles here deliberately avoid the library's own computation paths:
fixed-point iteration instead of bisection, dense harmonic solves instead
of the conductance recursion, transition-matrix powers instead of walk
simulation.
"""

from __future__ import annotations

import math
import os
from collections import deque
from pathlib import Path

import numpy as np
import pytest

import vacantlab
from vacantlab.random_graph import Graph, graph_from_edges


def cli_env() -> dict[str, str]:
    """Environment for a `python -m vacantlab.cli` subprocess: a copy of
    this process's, with the directory that holds the imported `vacantlab`
    prepended to PYTHONPATH as an absolute path, so the child runs the
    package under test whatever its working directory."""
    env = os.environ.copy()
    package_root = str(Path(vacantlab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    return env


def build_graph(n: int, edges) -> Graph:
    arr = np.array(edges, dtype=np.int64).reshape(-1, 2)
    return graph_from_edges(n, arr[:, 0], arr[:, 1])


@pytest.fixture
def path3() -> Graph:
    return build_graph(3, [(0, 1), (1, 2)])


@pytest.fixture
def triangle() -> Graph:
    return build_graph(3, [(0, 1), (1, 2), (0, 2)])


def cycle_graph(m: int) -> Graph:
    return build_graph(m, [(i, (i + 1) % m) for i in range(m)])


def complete_graph(m: int) -> Graph:
    return build_graph(m, [(i, j) for i in range(m) for j in range(i + 1, m)])


def star_graph(leaves: int) -> Graph:
    return build_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def unvisited(state) -> np.ndarray:
    """Unvisited vertices of an exploration state, in ascending order."""
    return np.flatnonzero(~visited_mask(state))


def visited_mask(state) -> np.ndarray:
    """Visited vertices of an exploration state as a boolean mask."""
    return np.array(state._visited, dtype=bool)


def xi_fixed_point_oracle(rho: float, iters: int = 400) -> float:
    """Independent route to the survival probability: iterate
    x <- 1 - exp(-rho*x); the map is a contraction near the fixed point
    for rho > 1."""
    x = 0.5
    for _ in range(iters):
        x = 1.0 - math.exp(-rho * x)
    return x


def components_oracle(k: int, a, b) -> tuple[np.ndarray, np.ndarray]:
    """Canonical component labels and sizes of the k-vertex graph with
    edges (a[i], b[i]), by breadth-first search from each unlabelled vertex
    in increasing order. Components are found in order of their smallest
    vertex, so a stable sort by decreasing size gives the canonical order."""
    adj = [[] for _ in range(k)]
    for u, v in zip(np.asarray(a).tolist(), np.asarray(b).tolist()):
        adj[u].append(v)
        adj[v].append(u)
    found = [-1] * k
    sizes = []
    for s in range(k):
        if found[s] >= 0:
            continue
        found[s] = len(sizes)
        queue = deque([s])
        size = 0
        while queue:
            v = queue.popleft()
            size += 1
            for w in adj[v]:
                if found[w] < 0:
                    found[w] = found[s]
                    queue.append(w)
        sizes.append(size)
    order = sorted(range(len(sizes)), key=lambda c: -sizes[c])
    rank = [0] * len(sizes)
    for i, c in enumerate(order):
        rank[c] = i
    return (np.array([rank[c] for c in found], dtype=np.int64),
            np.array([sizes[c] for c in order], dtype=np.int64))


def sorted_adjacency_oracle(n: int, u, v) -> list[list[int]]:
    """Sorted neighbor list of every vertex of the n-vertex graph with
    the undirected edges (u[i], v[i]), built pair by pair."""
    adj = [[] for _ in range(n)]
    for a, b in zip(np.asarray(u).tolist(), np.asarray(v).tolist()):
        adj[a].append(b)
        adj[b].append(a)
    return [sorted(nbrs) for nbrs in adj]


def induced_edges_oracle(g: Graph, vertices) -> tuple[list[int], list[int]]:
    """Edges of g among ``vertices``, as endpoint lists of positions in it,
    read through the adjacency lists."""
    pos = {v: i for i, v in enumerate(np.asarray(vertices).tolist())}
    pairs = [(i, pos[w]) for v, i in pos.items() for w in g.neighbors(v).tolist()
             if w in pos and v < w]
    return [p for p, _ in pairs], [q for _, q in pairs]


def escape_probability_harmonic_oracle(tree, radius: int) -> float:
    """Exact escape probability of the root by first-step analysis: solve
    the dense linear system for h(v) = P_v[hit root before the depth
    boundary], then escape = 1 - mean of h over the root's children."""
    n = tree.n_nodes
    parent = tree.parent
    boundary_depth = radius + 1
    children = [[] for _ in range(n)]
    for v in range(1, n):
        children[parent[v]].append(v)
    deg = np.array([len(children[v]) + (1 if v > 0 else 0) for v in range(n)], dtype=float)
    root_children = children[0]
    if not root_children:
        return 0.0
    # unknowns: h on interior nodes (depth in [1, boundary_depth-1]); h=1 at
    # root, h=0 at boundary depth; nodes beyond the boundary are irrelevant.
    interior = [v for v in range(1, n) if tree.depth[v] < boundary_depth]
    index = {v: i for i, v in enumerate(interior)}
    k = len(interior)
    a = np.eye(k)
    b = np.zeros(k)
    for v in interior:
        i = index[v]
        nbrs = [parent[v]] + children[v]
        w = 1.0 / deg[v]
        for u in nbrs:
            if u == 0:
                b[i] += w
            elif tree.depth[u] >= boundary_depth:
                continue
            else:
                a[i, index[u]] -= w
    h = np.linalg.solve(a, b) if k else np.zeros(0)
    total = 0.0
    for c in root_children:
        total += h[index[c]] if c in index else 0.0
    return 1.0 - total / len(root_children)


def bfs_distances_oracle(g: Graph, x: int, r: int) -> dict:
    """Graph distance from x of every vertex within distance r, by a
    queue-based breadth-first search."""
    dist = {x: 0}
    queue = deque([x])
    while queue:
        v = queue.popleft()
        if dist[v] == r:
            continue
        for w in g.neighbors(v).tolist():
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def escape_probability_ball_oracle(g: Graph, x: int, r: int) -> float:
    """Exact probability that a walk from x leaves the radius-r ball
    around x before returning to x: breadth-first search for the ball,
    then a dense solve of the harmonic function h(v) = P_v[reach x before
    leaving the ball] on the ball minus x (h = 1 at x, 0 outside it);
    escape = 1 - mean of h over the neighbours of x."""
    adj = [g.neighbors(v).tolist() for v in range(g.n)]
    dist = bfs_distances_oracle(g, x, r)
    index = {v: i for i, v in enumerate(v for v in dist if v != x)}
    a = np.eye(len(index))
    b = np.zeros(len(index))
    for v, i in index.items():
        for w in adj[v]:
            if w == x:
                b[i] += 1.0 / len(adj[v])
            elif w in index:
                a[i, index[w]] -= 1.0 / len(adj[v])
    h = np.linalg.solve(a, b)
    back = sum(1.0 if w == x else h[index[w]] for w in adj[x])
    return 1.0 - back / len(adj[x])


def hitting_tail_matrix_oracle(g: Graph, component: np.ndarray, x: int, ts) -> np.ndarray:
    """Exact P[H_x > t] for a stationary-start walk via powers of the
    transition matrix with the target column zeroed (killed chain)."""
    comp = np.asarray(component, dtype=np.int64)
    k = len(comp)
    pos = {int(v): i for i, v in enumerate(comp)}
    deg = g.degrees()[comp].astype(float)
    pi = deg / deg.sum()
    p = np.zeros((k, k))
    for i, v in enumerate(comp):
        for w in g.neighbors(int(v)):
            p[i, pos[int(w)]] = 1.0 / deg[i]
    xi_idx = pos[int(x)]
    survive = np.ones(k)
    survive[xi_idx] = 0.0
    mass = pi * survive  # P[X_0 != x, X_0 = v]
    kill = p.copy()
    kill[:, xi_idx] = 0.0
    out = []
    t_prev = 0
    for t in sorted(int(t) for t in ts):
        for _ in range(t - t_prev):
            mass = mass @ kill
        t_prev = t
        out.append(mass.sum())
    return np.array(out)


def fixed_graph_covering_walk(g: Graph, prefix_len: int, gen: np.random.Generator) -> list[int]:
    """Twin of the exploring process run on an already-sampled graph:
    uniform start; step to a uniform neighbor while the current vertex has
    neighbors and some unvisited vertex touches a visited one; otherwise
    jump to a uniform vertex; stop once all vertices are visited."""
    n = g.n
    visited = [False] * n
    cur = int(gen.integers(0, n))
    visited[cur] = True
    n_unvisited = n - 1
    traj = [cur]
    adj = [g.neighbors(v).tolist() for v in range(n)]
    while len(traj) <= prefix_len and n_unvisited > 0:
        frontier = any(
            not visited[w]
            for v in range(n)
            if visited[v]
            for w in adj[v]
        )
        nbrs = adj[cur]
        if nbrs and frontier:
            cur = nbrs[int(gen.integers(0, len(nbrs)))]
        else:
            cur = int(gen.integers(0, n))
        if not visited[cur]:
            visited[cur] = True
            n_unvisited -= 1
        traj.append(cur)
    while len(traj) <= prefix_len:
        traj.append(-1)  # covered: process terminated
    return traj[: prefix_len + 1]
