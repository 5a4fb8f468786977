import hashlib
import itertools
import math

import numpy as np
import pytest

from conftest import (
    build_graph,
    components_oracle,
    induced_edges_oracle,
    sorted_adjacency_oracle,
    xi_fixed_point_oracle,
)
from vacantlab.engine import derive_stream
from vacantlab.random_graph import (
    ComponentLabeling,
    components,
    giant_vertices,
    graph_from_edges,
    sample_er,
    _pair_from_index,
)
from vacantlab.walk import vacant_components


class TestPairIndex:
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 17])
    def test_bijection(self, n):
        total = n * (n - 1) // 2
        ks = np.arange(total, dtype=np.int64)
        i, j = _pair_from_index(ks, n)
        expected = [(a, b) for a in range(n) for b in range(a + 1, n)]
        assert list(zip(i.tolist(), j.tolist())) == expected


class TestSampleEr:
    def test_rho_zero_isolated(self):
        g = sample_er(3, 0.0, derive_stream(1, 0))
        assert g.m == 0 and g.n == 3

    def test_p_equal_one(self):
        g = sample_er(2, 2.0, derive_stream(1, 0))
        assert g.m == 1
        assert g.neighbors(0).tolist() == [1]

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="exceeds 1"):
            sample_er(4, 5.0, derive_stream(1, 0))
        with pytest.raises(ValueError):
            sample_er(4, -1.0, derive_stream(1, 0))
        with pytest.raises(ValueError):
            sample_er(0, 1.0, derive_stream(1, 0))

    def test_structural_invariants(self):
        for sid, (n, rho) in enumerate([(50, 1.5), (200, 2.0), (333, 0.7), (40, 8.0)]):
            g = sample_er(n, rho, derive_stream(77, sid))
            assert g.degrees().sum() == 2 * g.m
            for x in range(n):
                nbrs = g.neighbors(x).tolist()
                assert nbrs == sorted(set(nbrs))
                assert x not in nbrs
                for y in nbrs:
                    assert x in g.neighbors(y).tolist()
            lab = components(g)
            assert int(lab.sizes.sum()) == n

    def test_mean_edge_count(self):
        # mean edges = C(n,2) * rho/n = rho*(n-1)/2
        n, rho, samples = 1000, 2.0, 10_000
        gen = derive_stream(13, 0).generator()
        total = 0
        for _ in range(samples):
            total += sample_er(n, rho, gen).m
        mean = total / samples
        expect = rho * (n - 1) / 2
        band = 3 * math.sqrt(expect * (1 - rho / n)) / math.sqrt(samples)
        assert abs(mean - expect) <= band

    def test_law_matches_bernoulli_enumeration(self):
        # chi-square of the sampled edge-set distribution against the exact
        # product-Bernoulli law on all labeled graphs with n=4
        from vacantlab._gof import chisq_pvalue_counts_vs_probs

        n, rho, samples = 4, 1.2, 100_000
        p = rho / n
        pairs = list(itertools.combinations(range(n), 2))
        gen = derive_stream(21, 0).generator()
        counts = np.zeros(2 ** len(pairs), dtype=np.int64)
        for _ in range(samples):
            g = sample_er(n, rho, gen)
            mask = 0
            for b, (x, y) in enumerate(pairs):
                if y in g.neighbors(x):
                    mask |= 1 << b
            counts[mask] += 1
        probs = np.array([
            math.prod(p if (mask >> b) & 1 else 1 - p for b in range(len(pairs)))
            for mask in range(len(counts))
        ])
        assert chisq_pvalue_counts_vs_probs(counts, probs) > 0.001


class TestGraphBuild:
    @pytest.mark.parametrize("stream_id, n, rho, digest", [
        (0, 1, 0.0, "0a4e5a289e13825735fd1eeb3912d520b47516acfbf5ba5fa14a3406c2dad78c"),
        (1, 2, 2.0, "fffca6158bc0207dbf6ae430d7c830e43ee95bf4283e66bc1a425c4e45c96d50"),
        (2, 200, 2.0, "9c89451ef93dde951627e99ca93d30a67710e010a760bc30f7003be940c38e83"),
        (3, 100_000, 2.0, "0b12007681898508962435f0d53087400d7e79ffb3d65a196623aba247289115"),
    ])
    def test_layout_unchanged(self, stream_id, n, rho, digest):
        # walks draw a neighbor by its position in the list, so the layout
        # is part of every walk's replay
        g = sample_er(n, rho, derive_stream(2024, stream_id))
        h = hashlib.sha256()
        for arr in (g.indptr, g.indices, *g.edge_arrays):
            h.update(arr.dtype.str.encode())
            h.update(arr.tobytes())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("n", [1, 2, 30, 2000])
    def test_matches_adjacency_oracle(self, n):
        gen = np.random.default_rng(n)
        g0 = sample_er(n, min(4.0, float(n)), derive_stream(90, n))
        u, v = g0.edge_arrays
        order = gen.permutation(len(u))
        flip = gen.random(len(u)) < 0.5
        u, v = np.where(flip, v, u)[order], np.where(flip, u, v)[order]
        g = graph_from_edges(n, u, v)
        adj = sorted_adjacency_oracle(n, u, v)
        assert g.indptr.tolist() == [0, *itertools.accumulate(len(a) for a in adj)]
        assert g.indices.tolist() == [w for a in adj for w in a]
        a, b = g.edge_arrays
        assert g.m == len(u)
        assert list(zip(a.tolist(), b.tolist())) == sorted(
            (x, w) for x in range(n) for w in adj[x] if x < w)
        assert not a.flags.writeable and not b.flags.writeable


class TestComponents:
    def test_empty_graph(self):
        g = sample_er(3, 0.0, derive_stream(1, 0))
        lab = components(g)
        assert lab.sizes.tolist() == [1, 1, 1]

    def test_triangle(self, triangle):
        assert components(triangle).sizes.tolist() == [3]

    def test_tie_break_smallest_vertex(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        lab = components(g)
        assert lab.sizes.tolist() == [2, 2]
        assert giant_vertices(lab).tolist() == [0, 1]

    def test_giant_is_largest(self):
        g = build_graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6)])
        lab = components(g)
        assert lab.sizes.tolist() == [5, 2, 1]
        assert set(giant_vertices(lab).tolist()) == {0, 1, 2, 3, 4}

    def test_single_vertex(self):
        g = sample_er(1, 0.0, derive_stream(1, 0))
        lab = components(g)
        assert giant_vertices(lab).tolist() == [0]

    def test_empty_labeling_errors(self):
        empty = ComponentLabeling(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError, match="empty labeling"):
            giant_vertices(empty)


def labeller_graph(case: str):
    """The graphs the labeller is checked on: ER graphs around and above
    criticality, and shapes that need many hook rounds or put the smallest
    root far from a hub."""
    gen = np.random.default_rng(81)
    if case.startswith("er-"):
        rho = float(case[3:])
        return sample_er(20_000, rho, derive_stream(80, int(rho * 100)))
    if case == "path":
        perm = gen.permutation(5000)
        return graph_from_edges(5000, perm[:-1], perm[1:])
    if case == "star":
        return graph_from_edges(1000, np.arange(999), np.full(999, 999))
    if case == "binary-tree":
        perm = gen.permutation(4095)
        child = np.arange(1, 4095)
        return graph_from_edges(4095, perm[child], perm[(child - 1) // 2])
    size = {"empty": 0, "edgeless": 7}[case]
    return graph_from_edges(size, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))


LABELLER_CASES = ["er-1.0", "er-1.05", "er-2.0", "path", "star", "binary-tree", "empty", "edgeless"]


def assert_matches_oracle(lab, oracle):
    for got, want in zip((lab.label, lab.sizes), oracle):
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)


class TestLabellerOracle:
    """``components`` and ``vacant_components`` run one labeller; both are
    checked against a breadth-first search over the adjacency lists."""

    @pytest.mark.parametrize("case", LABELLER_CASES)
    def test_components_match_oracle(self, case):
        g = labeller_graph(case)
        assert_matches_oracle(components(g), components_oracle(g.n, *induced_edges_oracle(g, range(g.n))))

    @pytest.mark.parametrize("case", LABELLER_CASES)
    def test_vacant_components_match_oracle(self, case):
        g = labeller_graph(case)
        gen = np.random.default_rng(82)
        # all vertices in order, and a random subset in random order
        for vac in (np.arange(g.n), gen.permutation(g.n)[: int(0.6 * g.n)]):
            oracle = components_oracle(len(vac), *induced_edges_oracle(g, vac))
            assert_matches_oracle(vacant_components(g, vac), oracle)


class TestTypicality:
    def test_giant_fraction_concentrates(self):
        n, rho = 100_000, 2.0
        xi = xi_fixed_point_oracle(rho)
        root = derive_stream(32, 0)
        for i in range(20):
            lab = components(sample_er(n, rho, root.substream(i)))
            assert abs(lab.sizes[0] / n - xi) <= 0.01
