"""Sparse random graph sampling (edge probability rho/n) and the one
labelling kernel, ``_hook``, behind the components of a graph, of a vacant
set and of the one-pass vacant sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import as_generator

_GAP_CHUNK = 1 << 14


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph in compressed adjacency form.

    ``indices[indptr[x]:indptr[x+1]]`` is the sorted neighbor list of x.
    Symmetric, loop-free, duplicate-free; sum of degrees equals 2m.
    ``edge_arrays`` holds each edge once as read-only (u, v) arrays with
    u < v, in lexicographic order.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    edge_arrays: tuple[np.ndarray, np.ndarray]

    @property
    def m(self) -> int:
        return len(self.edge_arrays[0])

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def degree(self, x: int) -> int:
        return int(self.indptr[x + 1] - self.indptr[x])

    def neighbors(self, x: int) -> np.ndarray:
        return self.indices[self.indptr[x] : self.indptr[x + 1]]


def graph_from_edges(n: int, u: np.ndarray, v: np.ndarray) -> Graph:
    """Build a Graph from endpoint arrays of distinct undirected edges,
    in any order and orientation."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    # the directed pairs as distinct keys row*n + col: one sort orders them
    # by row, then col, which is the layout of both indices and edge_arrays
    key = np.concatenate([u * n + v, v * n + u])
    key.sort()
    cols = key % n
    # in place: a third 2m-sized array raised the peak RSS of walk trials
    rows = np.floor_divide(key, n, out=key)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    forward = rows < cols
    edges = rows[forward], cols[forward]
    for arr in edges:
        arr.flags.writeable = False
    return Graph(n=n, indptr=indptr, indices=cols, edge_arrays=edges)


@dataclass(frozen=True)
class ComponentLabeling:
    """Connected components in canonical order: ids are assigned by
    decreasing size, ties broken by the smallest contained vertex, so
    component 0 is always the giant under the documented tie-break."""

    label: np.ndarray
    sizes: np.ndarray

    @property
    def n_components(self) -> int:
        return len(self.sizes)


def _pair_from_index(k: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Decode lexicographic pair indices k in [0, n(n-1)/2) to (i, j), i<j.

    Row i holds the pairs (i, i+1), ..., (i, n-1) and starts at the exact
    integer offset S(i) = i*(2n-i-1)/2; i is the last row starting at or
    before k.
    """
    k = k.astype(np.int64)
    # built in place: each extra n-sized temporary showed in peak RSS
    starts = np.arange(n - 1, dtype=np.int64)
    starts *= 2 * n - 1 - starts
    starts //= 2
    i = np.searchsorted(starts, k, side="right") - 1
    return i, i + 1 + (k - starts[i])


def edge_probability(n: int, rho: float) -> float:
    """The edge probability rho/n of G(n, rho/n), once the request is
    checked: n at least 1, rho nonnegative and at most n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    if rho > n:
        raise ValueError("edge probability exceeds 1")
    return rho / n


def sample_er(n: int, rho: float, rng) -> Graph:
    """Sample the n-vertex random graph with every edge present
    independently with probability rho/n.

    Generation skips over the lexicographic edge enumeration with
    geometric gaps, so cost is O(n + m) rather than O(n^2); at p = 1
    every gap is 1, so the complete graph needs no separate path.
    """
    p = edge_probability(n, rho)
    gen = as_generator(rng)
    total = n * (n - 1) // 2
    if p <= 0.0 or total == 0:
        empty = np.zeros(0, dtype=np.int64)
        return graph_from_edges(n, empty, empty)
    hits = []
    pos = -1
    # expected remaining hits plus slack, so tiny graphs do not pay for a
    # full-size chunk of geometric draws
    chunk = int(min(_GAP_CHUNK, total * p * 1.25 + 16))
    while True:
        gaps = gen.geometric(p, size=chunk)
        jumps = np.cumsum(gaps)
        ks = pos + jumps
        inside = ks < total
        if not inside.all():
            hits.append(ks[inside])
            break
        hits.append(ks)
        pos = int(ks[-1])
        chunk = min(_GAP_CHUNK, chunk * 2)
    k = np.concatenate(hits)
    i, j = _pair_from_index(k, n)
    return graph_from_edges(n, i, j)


def components(g: Graph) -> ComponentLabeling:
    """Exact connected components, in the canonical order of ComponentLabeling."""
    return _label(g.n, *g.edge_arrays)


def _hook(root: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The forest ``root`` with the edges (a[i], b[i]) merged in, by hook and
    shortcut (Shiloach & Vishkin, J. Algorithms 3, 1982): each root hooks
    onto the smallest root it shares an edge with, then every vertex jumps
    to its root, until no edge joins two trees. ``root`` must map every
    vertex to its tree's smallest vertex, and the result does too: hooks
    only lower roots. ``root`` may be written into; use the result."""
    while True:
        ra, rb = root[a], root[b]
        if np.array_equal(ra, rb):
            return root
        # an edge inside one tree hooks its root onto itself, which changes nothing
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while not np.array_equal(jumped := root[root], root):
            root = jumped


def _label(k: int, a: np.ndarray, b: np.ndarray) -> ComponentLabeling:
    """Canonical components of the k-vertex graph with edges (a[i], b[i]),
    hooked from singletons by ``_hook``, so each root is its component's
    smallest vertex."""
    root = _hook(np.arange(k, dtype=np.int64), a, b)
    roots = np.flatnonzero(root == np.arange(k))
    sizes = np.bincount(root, minlength=k)[roots]
    # roots ascend, so a stable sort by -size breaks ties by smallest vertex
    order = np.argsort(-sizes, kind="stable")
    relabel = np.empty(k, dtype=np.int64)
    relabel[roots[order]] = np.arange(len(roots))
    return ComponentLabeling(label=relabel[root], sizes=sizes[order])


def giant_vertices(labeling: ComponentLabeling) -> np.ndarray:
    """Vertices of component 0, the giant under the canonical tie-break,
    in ascending order."""
    if labeling.n_components == 0:
        raise ValueError("empty labeling")
    return np.flatnonzero(labeling.label == 0)

