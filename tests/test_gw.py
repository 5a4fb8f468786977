import hashlib
import math
from functools import partial

import numpy as np
import pytest

from conftest import escape_probability_harmonic_oracle, xi_fixed_point_oracle
from vacantlab import critical, gw
from vacantlab._gof import chisq_pvalue_counts_vs_probs, chisq_pvalue_two_sample, histogram_pair
from vacantlab.engine import derive_stream
from vacantlab.gw import (
    GWTree,
    NodeBudgetExceeded,
    capacity_samples,
    capacity_samples_direct,
    conductance_to_boundary,
    generation_sizes,
    regular_tree_capacity,
    sample_gw,
    sample_gw_conditioned,
    sample_gw_rejection,
)


def unary_chain(length: int) -> GWTree:
    return GWTree(
        parent=np.arange(-1, length, dtype=np.int64),
        depth=np.arange(length + 1, dtype=np.int64),
        backbone=np.zeros(length + 1, dtype=bool),
        depth_cap=length,
    )


def bary_tree(b: int, depth: int) -> GWTree:
    parents = [np.array([-1], dtype=np.int64)]
    depths = [np.array([0], dtype=np.int64)]
    level = np.array([0], dtype=np.int64)
    total = 1
    for d in range(1, depth + 1):
        new_parents = np.repeat(level, b)
        n_new = len(new_parents)
        level = np.arange(total, total + n_new, dtype=np.int64)
        total += n_new
        parents.append(new_parents)
        depths.append(np.full(n_new, d, dtype=np.int64))
    return GWTree(
        parent=np.concatenate(parents),
        depth=np.concatenate(depths),
        backbone=np.zeros(total, dtype=bool),
        depth_cap=depth,
    )


class TestSampleGw:
    def test_rho_zero_single_root(self):
        tree = sample_gw(0.0, 5, derive_stream(1, 0))
        assert tree.n_nodes == 1
        assert tree.root_degree() == 0

    def test_root_degree_moments(self):
        gen = derive_stream(2, 0).generator()
        degs = np.array([sample_gw(2.0, 1, gen).root_degree() for _ in range(100_000)])
        assert abs(degs.mean() - 2.0) <= 3 * math.sqrt(2.0 / len(degs))
        assert abs(degs.var() - 2.0) <= 0.06

    def test_extinction_by_depth_20(self):
        # generation-size route (Poisson additivity), exact in law
        gen = derive_stream(3, 0).generator()
        extinct = 0
        samples = 100_000
        for _ in range(samples):
            extinct += generation_sizes(2.0, 20, gen)[20] == 0
        q = 1 - xi_fixed_point_oracle(2.0)
        assert abs(extinct / samples - q) <= 0.005

    def test_generation_size_route_matches_materialized(self):
        # the shortcut sampler agrees in law with the materialized trees
        gen = derive_stream(4, 0).generator()
        depth = 6
        rho = 1.2
        a = np.array([int(sample_gw(rho, depth, gen).generation_sizes()[depth]) for _ in range(20_000)])
        b = np.array([int(generation_sizes(rho, depth, gen)[depth]) for _ in range(20_000)])
        assert chisq_pvalue_two_sample(*histogram_pair(a, b)) > 0.001

    def test_node_budget_enforced(self, monkeypatch):
        monkeypatch.setattr(gw, "NODE_BUDGET", 100)
        with pytest.raises(NodeBudgetExceeded, match="node budget 100 exceeded"):
            sample_gw(3.0, 40, derive_stream(5, 0))


class TestSampleGwConditioned:
    def test_root_degree_at_least_one(self):
        gen = derive_stream(6, 0).generator()
        for _ in range(2000):
            assert sample_gw_conditioned(2.0, 1, gen).root_degree() >= 1

    def test_subcritical_rejected(self):
        with pytest.raises(ValueError, match="subcritical"):
            sample_gw_conditioned(1.0, 3, derive_stream(1, 0))

    def test_root_degree_law(self):
        # law of (positive-Poisson backbone count) + (Poisson doomed count)
        rho = 2.0
        xi = critical.solve_xi(rho)
        gen = derive_stream(7, 0).generator()
        samples = 200_000
        degs = np.array([sample_gw_conditioned(rho, 1, gen).root_degree() for _ in range(samples)])
        from scipy.stats import poisson

        kmax = int(degs.max())
        grid = np.arange(kmax + 1)
        pmf_star = poisson.pmf(grid, rho * xi) / (1 - math.exp(-rho * xi))
        pmf_star[0] = 0.0
        pmf_doom = poisson.pmf(grid, rho * (1 - xi))
        law = np.convolve(pmf_star, pmf_doom)[: kmax + 1]
        assert chisq_pvalue_counts_vs_probs(np.bincount(degs, minlength=kmax + 1), law) > 0.001
        assert abs(degs.mean() - rho * (2 - xi)) <= 3 * degs.std() / math.sqrt(samples)

    def test_backbone_child_mean_is_rho(self):
        # the survivor-offspring pgf has derivative rho at 1: the 1/xi
        # from conditioning positive cancels the xi thinning exactly
        rho = 1.8
        gen = derive_stream(8, 0).generator()
        counts = []
        for _ in range(50_000):
            tree = sample_gw_conditioned(rho, 1, gen)
            root_children = tree.parent[1:] == 0
            counts.append(int(tree.backbone[1:][root_children].sum()))
        mean = np.mean(counts)
        assert abs(mean - rho) <= 3 * np.std(counts) / math.sqrt(len(counts))

    def test_backbone_survives_to_horizon(self):
        gen = derive_stream(9, 0).generator()
        for _ in range(200):
            tree = sample_gw_conditioned(1.5, 6, gen)
            sizes = np.bincount(tree.depth[tree.backbone], minlength=7)
            assert (sizes[:7] >= 1).all()


class TestConductance:
    def test_unary_chain_series_resistance(self):
        tree = unary_chain(101)
        for r in range(0, 101):
            res = conductance_to_boundary(tree, r)
            assert abs(res.capacity - 1.0 / (r + 1)) <= 1e-12

    def test_radius_zero_counts_children(self):
        tree = bary_tree(3, 1)
        res = conductance_to_boundary(tree, 0)
        assert res.capacity == 3.0
        assert res.escape_probability == 1.0

    def test_childless_root(self):
        tree = sample_gw(0.0, 3, derive_stream(1, 0))
        res = conductance_to_boundary(tree, 2)
        assert res.capacity == 0.0
        assert res.escape_probability == 0.0

    def test_radius_validation(self):
        tree = unary_chain(5)
        with pytest.raises(ValueError, match="radius exceeds truncation"):
            conductance_to_boundary(tree, 5)

    def test_matches_regular_recursion_on_bary_trees(self):
        for b in (2, 3, 4):
            for r in (1, 3, 6):
                tree = bary_tree(b, r + 1)
                got = conductance_to_boundary(tree, r).capacity
                assert got == pytest.approx(regular_tree_capacity(b, r), abs=1e-12)

    def test_bary_fixed_point(self):
        for b in (2, 3, 4):
            assert abs(regular_tree_capacity(b, 30) - (b - 1)) <= 1e-6

    def test_agrees_with_harmonic_oracle(self):
        # brute-force first-step-analysis solve on small random trees
        gen = derive_stream(10, 0).generator()
        checked = 0
        while checked < 1000:
            tree = sample_gw(1.1, 5, gen)
            if not (2 <= tree.n_nodes <= 12):
                continue
            radius = int(gen.integers(1, 5))
            res = conductance_to_boundary(tree, radius)
            oracle = escape_probability_harmonic_oracle(tree, radius)
            assert abs(res.escape_probability - oracle) <= 1e-10
            checked += 1

    def test_radius_monotone(self):
        gen = derive_stream(11, 0).generator()
        for _ in range(200):
            tree = sample_gw_conditioned(1.5, 7, gen)
            caps = [conductance_to_boundary(tree, r).capacity for r in range(7)]
            assert all(a >= b - 1e-12 for a, b in zip(caps, caps[1:]))
            assert caps[0] == tree.root_degree()  # radius 0 grounds the children

    def test_capacity_bounded_by_degree(self):
        gen = derive_stream(12, 0).generator()
        for _ in range(200):
            tree = sample_gw_conditioned(2.0, 6, gen)
            res = conductance_to_boundary(tree, 5)
            assert 0.0 <= res.escape_probability <= 1.0
            assert res.capacity <= res.root_degree + 1e-12


class TestCapacityFunctional:
    def test_u_zero_exact_one(self):
        caps = capacity_samples(2.0, 40, 1000, derive_stream(13, 0))
        est = caps.functional(0.0)
        assert est.mean == 1.0
        assert est.std_error == 0.0
        assert caps.diagnostic.functional(0.0).mean == 1.0

    def test_monotone_in_u(self):
        caps = capacity_samples(2.0, 40, 100_000, derive_stream(14, 0))
        low = caps.functional(0.2)
        high = caps.functional(0.4)
        assert low.ci95_low > high.ci95_high

    def test_large_u_small_value(self):
        est = capacity_samples(2.0, 40, 10_000, derive_stream(15, 0)).functional(100.0)
        assert est.mean < 0.05

    def test_truncation_diagnostic_close(self):
        caps = capacity_samples(2.0, 40, 100_000, derive_stream(16, 0))
        est = caps.functional(0.3)
        diff = abs(est.mean - caps.diagnostic.functional(0.3).mean)
        width = est.ci95_high - est.ci95_low
        assert diff <= 2 * width

    def test_diagnostic_shares_root_draws(self):
        # both radii take the root's children and picks from one draw, so
        # each sample's two capacities move together (independent root
        # draws would leave them uncorrelated)
        s = capacity_samples(2.0, 12, 20_000, derive_stream(72, 0))
        assert np.corrcoef(s.caps, s.diagnostic.caps)[0, 1] > 0.5

    def test_pool_matches_per_tree_route(self):
        # the level-pool sampler against materialized trees + exact
        # conductance, at radii where materialization is feasible
        for rho, radius, n_direct in ((1.5, 6, 20_000), (2.0, 5, 10_000)):
            direct, aborted = capacity_samples_direct(rho, radius, n_direct, derive_stream(17, 0))
            assert aborted == 0
            pool = capacity_samples(rho, radius, 100_000, derive_stream(18, 0))
            for u in (0.3, 0.8):
                a = np.exp(-u * direct)
                b = np.exp(-u * pool.caps)
                se = math.hypot(a.std() / math.sqrt(len(a)), b.std() / math.sqrt(len(b)))
                assert abs(a.mean() - b.mean()) <= 4 * se, (rho, u)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="supercritical rho required"):
            capacity_samples(0.9, 40, 100, derive_stream(1, 0))
        with pytest.raises(ValueError, match="n_samples must be positive"):
            capacity_samples(2.0, 40, 0, derive_stream(1, 0))
        with pytest.raises(ValueError, match="u must be nonnegative"):
            capacity_samples(2.0, 8, 100, derive_stream(1, 0)).functional(-0.5)


def _offspring_pmf(lam: float, positive: bool, kmax: int) -> np.ndarray:
    from scipy.stats import poisson

    pmf = poisson.pmf(np.arange(kmax + 1), lam)
    if positive:
        pmf[0] = 0.0
        pmf /= 1 - math.exp(-lam)
    return pmf


class TestOwnerDraws:
    """The Poissonized child draws of the capacity pool: per-owner counts
    follow Poisson(lam), or Poisson(lam) conditioned on >= 1."""

    @pytest.mark.parametrize("positive", [False, True], ids=["doomed", "backbone"])
    @pytest.mark.parametrize("rho", [1.5, 2.0, 4.0])
    def test_counts_match_pmf(self, rho, positive):
        xi = critical.solve_xi(rho)
        lam = rho * xi if positive else rho * (1 - xi)
        m = 1_000_000
        owners, picks = gw._draws(derive_stream(81, 0).generator(), lam, m, positive)
        assert len(picks) == len(owners)
        assert picks.min() >= 0 and picks.max() < m
        counts = np.bincount(owners, minlength=m)
        assert len(counts) == m
        if positive:
            assert counts.min() >= 1
        hist = np.bincount(counts)
        assert chisq_pvalue_counts_vs_probs(hist, _offspring_pmf(lam, positive, len(hist) - 1)) > 0.001

    def test_no_children(self):
        # lam*m so small that T = 0: every owner's sum is an exact zero
        owners, picks = gw._draws(derive_stream(82, 0).generator(), 1e-12, 10)
        assert len(owners) == len(picks) == 0
        assert gw._child_sum((owners, picks), np.ones(10)).tolist() == [0.0] * 10

    def test_single_owner_positive(self):
        # m = 1: the lone owner is redrawn until it has a child
        gen = derive_stream(83, 0).generator()
        lam = 0.3
        counts = np.array([len(gw._draws(gen, lam, 1, positive=True)[0]) for _ in range(20_000)])
        assert counts.min() >= 1
        hist = np.bincount(counts)
        assert chisq_pvalue_counts_vs_probs(hist, _offspring_pmf(lam, True, len(hist) - 1)) > 0.001


class TestCapacitySamplesGolden:
    """Pool-sampler bytes are pinned: the samples at the working and the
    diagnostic radius, and the draws after them, must not change when the
    pool bookkeeping does."""

    @pytest.mark.parametrize("radius, diagnostic_radius, digest", [
        (12, 7, "bb12dca8db89f9b74e16fc6e25c4fda3de66283c76983b503a691895197f734f"),
        (6, 1, "e8f15daedd250fb6307cc728fae6e33a01b91c09ecd21bccdad100103966422d"),
        (5, None, "5a47c1266674dae03699db97a3e5a69ed5a9a318dd54e0fff87b21159a71ff75"),
        (0, None, "8af672198141944523fafb813793abdaf41bedf5d7bf4684c3857aeaafb9e413"),
    ], ids=["radius12", "radius6", "radius5", "radius0"])
    def test_samples_unchanged(self, radius, diagnostic_radius, digest):
        s = capacity_samples(2.0, radius, 2000, derive_stream(71, 0))
        assert (s.diagnostic is None) == (diagnostic_radius is None)
        h = hashlib.sha256(s.caps.tobytes())
        if s.diagnostic is not None:
            assert s.diagnostic.diagnostic is None
            h.update(s.diagnostic.caps.tobytes())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("radius, digest", [
        (12, "cdd00acf85977d52ca12fe93e6c07919b7ae3584d9079c3b78216faea5438ce9"),
        (0, "f5b11846c5765359826817de1c1ea84b5f63d945f41fe88c4fbf7d0d77b1cab0"),
    ], ids=["radius12", "radius0"])
    def test_generator_position_unchanged(self, radius, digest):
        gen = derive_stream(71, 0).generator()
        capacity_samples(2.0, radius, 2000, gen)
        assert hashlib.sha256(gen.random(4).tobytes()).hexdigest() == digest


class TestConditionedVsRejection:
    def test_sampler_laws_agree(self):
        # backbone decomposition vs the definitional rejection sampler
        # (deep survival horizon approximates non-extinction to ~1e-6),
        # compared on root degree and depth-3 generation size
        rho, depth = 1.5, 6
        samples = 20_000
        gen_a = derive_stream(19, 0).generator()
        gen_b = derive_stream(19, 1).generator()
        deg_a = np.zeros(samples, dtype=np.int64)
        gen3_a = np.zeros(samples, dtype=np.int64)
        for i in range(samples):
            t = sample_gw_conditioned(rho, depth, gen_a)
            deg_a[i] = t.root_degree()
            gen3_a[i] = t.generation_sizes()[3]
        deg_b = np.zeros(samples, dtype=np.int64)
        gen3_b = np.zeros(samples, dtype=np.int64)
        for i in range(samples):
            t = sample_gw_rejection(rho, depth, gen_b, survival_depth=30)
            deg_b[i] = t.root_degree()
            gen3_b[i] = t.generation_sizes()[3]
        assert chisq_pvalue_two_sample(*histogram_pair(deg_a, deg_b)) > 0.001
        assert chisq_pvalue_two_sample(*histogram_pair(gen3_a, gen3_b)) > 0.001

    def test_shallow_survival_horizon_is_a_different_law(self):
        # conditioning on survival only to the truncation depth is
        # detectably thinner deep in the tree; this guards the horizon
        # choice in the law test above
        rho, depth = 1.5, 6
        samples = 60_000
        gen_a = derive_stream(19, 2).generator()
        gen_b = derive_stream(19, 3).generator()
        gen3_a = np.zeros(samples, dtype=np.int64)
        gen3_b = np.zeros(samples, dtype=np.int64)
        for i in range(samples):
            gen3_a[i] = sample_gw_conditioned(rho, depth, gen_a).generation_sizes()[3]
            gen3_b[i] = sample_gw_rejection(rho, depth, gen_b).generation_sizes()[3]
        assert chisq_pvalue_two_sample(*histogram_pair(gen3_a, gen3_b)) < 0.01


class TestSamplerGolden:
    """Tree bytes and generator consumption are pinned: a refactor of a
    sampler must leave every tree, and the draws after them, unchanged."""

    @pytest.mark.parametrize("sampler, digest", [
        (sample_gw, "fc54c2de6e02896f8d62da3e013507b579245a1c2285ae85dfedcca0fe8bd5bb"),
        (sample_gw_conditioned, "3320adf073c37ac66173f66aaf4c6466836c147742362d609fb3e0e28b0e840d"),
        (sample_gw_rejection, "9e7939abc007bbfdeeff94b8a615a9786054e721c2460fcaf704703f3d0163c9"),
        (partial(sample_gw_rejection, survival_depth=30),
         "8dd760e02b8cec9790ef1014906af6fb08c5f8e758a7d34a8996036232555d4e"),
    ], ids=["sample_gw", "sample_gw_conditioned", "sample_gw_rejection",
            "sample_gw_rejection-deep-horizon"])
    def test_first_trees_unchanged(self, sampler, digest):
        gen = derive_stream(2024, 0).generator()
        h = hashlib.sha256()
        for _ in range(200):
            tree = sampler(1.5, 6, gen)
            for arr in (tree.parent, tree.depth, tree.backbone):
                h.update(arr.tobytes())
        h.update(gen.random(4).tobytes())
        assert h.hexdigest() == digest
