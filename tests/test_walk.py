import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from conftest import (
    bfs_distances_oracle,
    build_graph,
    complete_graph,
    components_oracle,
    cycle_graph,
    escape_probability_ball_oracle,
    hitting_tail_matrix_oracle,
    induced_edges_oracle,
    star_graph,
    xi_fixed_point_oracle,
)
from vacantlab import walk
from vacantlab.engine import derive_stream
from vacantlab.random_graph import components, giant_vertices, sample_er
from vacantlab.walk import (
    DENSE_SPECTRAL_CAP,
    escape_probability,
    estimate_hitting_tail,
    estimate_hitting_tails,
    run_walk_first_visits,
    run_walk_vacant,
    spectral_gap,
    vacant_components,
    vacant_from_first_visits,
    vacant_structure,
    walk_time,
)


def whole_component(g):
    return giant_vertices(components(g))


class TestWalkTime:
    def test_zero_intensity(self):
        assert walk_time(0.0, 2.0, 100) == 0

    def test_exact_arithmetic(self):
        # round(u * rho * (2 - xi) * xi * n) with xi the survival probability
        # of rho, from the fixed-point oracle; each product lies at least 1e-3
        # from a rounding boundary, far beyond what the oracle's 1e-10 error
        # in xi moves it (the last case rounds 8672.516 up)
        for u, rho, n in [(1.0, 2.0, 100), (0.3, 2.0, 50_000), (2.5, 2.0, 1000),
                          (1.0, 3.0, 1000), (0.7, 1.5, 10_000)]:
            xi = xi_fixed_point_oracle(rho)
            steps = u * rho * (2.0 - xi) * xi * n
            assert abs(steps - math.floor(steps) - 0.5) > 1e-3
            assert walk_time(u, rho, n) == math.floor(steps + 0.5)

    def test_reference_value(self):
        assert walk_time(1.0, 2.0, 100_000) == 191743

    def test_validation(self):
        with pytest.raises(ValueError):
            walk_time(-0.1, 2.0, 10)
        with pytest.raises(ValueError):
            walk_time(0.1, 0.9, 10)

    def test_time_fits_int64(self):
        # 2**63 steps would overflow the int64 time grids; the largest time
        # below it comes back exactly, and nan and inf have no step count
        lo, hi = 2.0 ** 62, 2.0 ** 63
        assert walk_time(lo, 2.0, 1) < 2 ** 63
        while math.nextafter(lo, hi) < hi:
            mid = 0.5 * (lo + hi)
            try:
                walk_time(mid, 2.0, 1)
            except ValueError:
                hi = mid
            else:
                lo = mid
        last = walk_time(lo, 2.0, 1)
        # floats in [2**62, 2**63) are multiples of 1024, one u-ulp moves about 2048
        assert 2 ** 63 - 4096 <= last < 2 ** 63 and last % 1024 == 0
        assert int(np.int64(last)) == last
        for u in (hi, 2.0 ** 63, 1e308, math.inf, math.nan):
            with pytest.raises(ValueError, match="below 2\\*\\*63"):
                walk_time(u, 2.0, 4 / 3)


class TestStationaryStart:
    def test_single_vertex_component(self):
        g = sample_er(1, 0.0, derive_stream(1, 0))
        gen = derive_stream(1, 1).generator()
        assert walk._stationary_starts(g, np.array([0]), 3, gen).tolist() == [0, 0, 0]
        assert gen.random() == derive_stream(1, 1).generator().random()

    def test_empty_component_rejected(self):
        g = sample_er(3, 0.0, derive_stream(1, 0))
        with pytest.raises(ValueError, match="empty"):
            walk._stationary_starts(g, np.zeros(0, dtype=np.int64), 1, derive_stream(1, 1))

    def test_disconnected_input_rejected(self):
        g = sample_er(3, 0.0, derive_stream(1, 0))
        with pytest.raises(ValueError, match="disconnected"):
            walk._stationary_starts(g, np.array([0, 1]), 1, derive_stream(1, 1))

    def test_path_center_frequency(self, path3):
        comp = whole_component(path3)
        gen = derive_stream(2, 0).generator()
        draws = walk._stationary_starts(path3, comp, 1_000_000, gen)
        freq = float((draws == 1).mean())
        assert abs(freq - 0.5) <= 0.002

    def test_regular_component_uniform(self):
        from vacantlab._gof import chisq_pvalue_counts_vs_probs

        g = cycle_graph(8)
        comp = whole_component(g)
        gen = derive_stream(3, 0).generator()
        draws = walk._stationary_starts(g, comp, 100_000, gen)
        counts = np.bincount(draws, minlength=8)
        assert chisq_pvalue_counts_vs_probs(counts, np.full(8, 1 / 8)) > 0.001


class TestRunWalkVacant:
    def test_zero_steps_leaves_all_but_start(self, triangle):
        comp = whole_component(triangle)
        vac = run_walk_vacant(triangle, comp, 0, derive_stream(4, 0))
        assert vac.size == len(comp) - 1

    def test_covering_cycle_empties(self):
        g = cycle_graph(3)
        vac = run_walk_vacant(g, whole_component(g), 200, derive_stream(4, 1))
        assert vac.size == 0

    def test_prefix_monotone_on_same_stream(self):
        g = sample_er(500, 2.0, derive_stream(5, 0))
        comp = whole_component(g)
        stream = derive_stream(5, 1)
        vacs = [run_walk_vacant(g, comp, t, stream) for t in (10, 50, 200)]
        assert np.isin(vacs[1], vacs[0]).all()
        assert np.isin(vacs[2], vacs[1]).all()

    def test_first_visit_times_consistent(self):
        g = sample_er(400, 2.0, derive_stream(6, 0))
        comp = whole_component(g)
        times = run_walk_first_visits(g, comp, 150, derive_stream(6, 1))
        direct = run_walk_vacant(g, comp, 150, derive_stream(6, 1))
        derived = vacant_from_first_visits(comp, times, 150)
        assert np.array_equal(direct, derived)
        # vacant vertices come in component order
        assert np.array_equal(derived, comp[np.isin(comp, derived)])
        # visited count plus vacant size partitions the component
        assert derived.size + int((times[comp] >= 0).sum() - ((times[comp] > 150).sum())) == len(comp)


class TestFirstVisitsGolden:
    """First-visit bytes and the generator's position after the walk are
    pinned: neither may change when the step loop's storage does. The
    40 000-step walk spans two blocks of uniforms."""

    SETTINGS = [(2000, 2.0, 81, 40_000), (300, 1.5, 82, 150)]

    @pytest.mark.parametrize("setting, digest", zip(SETTINGS, [
        "6630d00e069360f49f0d09ad17d43a834f105ceb395f22f43e29d5647fb17291",
        "548ef32d2caa48109022f2896de27c8a0c1d619f961e93ed4cdf91453c1d0e1b",
    ]), ids=["two-blocks", "short"])
    def test_times_unchanged(self, setting, digest):
        n, rho, seed, t = setting
        g = sample_er(n, rho, derive_stream(seed, 0))
        times = run_walk_first_visits(g, whole_component(g), t, derive_stream(seed, 1))
        assert times.dtype == np.int64
        assert hashlib.sha256(times.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("setting, digest", zip(SETTINGS, [
        "a8852341155f4b90b0840e4e2d83a4c1849a370e89df6247c6e43dea159af913",
        "d71ce7e29353ca61fa3ce892e0c23b432e665b395f0787dff20644bedafae2b6",
    ]), ids=["two-blocks", "short"])
    def test_generator_position_unchanged(self, setting, digest):
        n, rho, seed, t = setting
        g = sample_er(n, rho, derive_stream(seed, 0))
        gen = derive_stream(seed, 1).generator()
        run_walk_first_visits(g, whole_component(g), t, gen)
        assert hashlib.sha256(gen.random(4).tobytes()).hexdigest() == digest


class TestVacantComponents:
    def test_all_vacant_is_whole_component(self, triangle):
        lab = vacant_components(triangle, whole_component(triangle))
        assert lab.sizes.tolist() == [3]

    def test_none_vacant_empty(self, triangle):
        lab = vacant_components(triangle, whole_component(triangle)[:0])
        assert lab.n_components == 0

    def test_path_with_middle_removed(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        comp = whole_component(g)
        lab = vacant_components(g, comp[comp != 1])
        assert lab.sizes.tolist() == [2, 1]


class TestVacantComponentsOracle:
    """The masked-edge-list kernel against the vacant-induced subgraph
    rebuilt from the adjacency lists and labelled by breadth-first search,
    plus a direct check of the canonical order."""

    def assert_matches_reference(self, g, vac):
        got = vacant_components(g, vac)
        ref = components_oracle(len(vac), *induced_edges_oracle(g, vac))
        for a, b in zip((got.label, got.sizes), ref):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
        k, nc = len(vac), got.n_components
        assert np.array_equal(np.bincount(got.label, minlength=nc), got.sizes)
        first = np.full(nc, k)
        np.minimum.at(first, got.label, np.arange(k))
        # size-descending, equal sizes ordered by their smallest member
        assert ((got.sizes[:-1] > got.sizes[1:])
                | ((got.sizes[:-1] == got.sizes[1:]) & (first[:-1] < first[1:]))).all()
        return got

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_walk_times_match_rebuilt_subgraph(self, seed):
        g = sample_er(2000, 2.0, derive_stream(60, seed))
        comp = whole_component(g)
        ts = [0, 40, 300, 1200, 3000, 8000]
        times = run_walk_first_visits(g, comp, ts[-1], derive_stream(61, seed))
        n_comps = []
        for s in ts:
            lab = self.assert_matches_reference(g, vacant_from_first_visits(comp, times, s))
            n_comps.append(lab.n_components)
        # the grid crosses from one big piece to many: ties in size occur
        assert n_comps[0] <= 3 and max(n_comps) > 50

    def test_fully_vacant_giant(self):
        g = sample_er(2000, 2.0, derive_stream(62, 0))
        comp = whole_component(g)
        assert len(comp) < g.n
        lab = self.assert_matches_reference(g, comp)
        assert lab.sizes.tolist() == [len(comp)]

    def test_empty_vacant_set(self):
        g = sample_er(2000, 2.0, derive_stream(62, 1))
        comp = whole_component(g)
        lab = self.assert_matches_reference(g, comp[:0])
        assert lab.n_components == 0 and len(lab.label) == 0

    def test_host_is_a_small_component(self):
        g = sample_er(2000, 2.0, derive_stream(62, 2))
        host = np.flatnonzero(components(g).label == 1)
        assert 2 <= len(host) < g.n // 10
        gen = derive_stream(62, 3).generator()
        for membership in (np.ones(len(host), dtype=bool), gen.random(len(host)) < 0.6):
            self.assert_matches_reference(g, host[membership])


class TestVacantStructure:
    """The one-pass sweep against every grid time's vacant set rebuilt from
    the adjacency lists and labelled by breadth-first search."""

    @staticmethod
    def reference(g, comp, times, ts):
        rows = []
        for s in ts:
            vac = vacant_from_first_visits(comp, times, s)
            sizes = components_oracle(len(vac), *induced_edges_oracle(g, vac))[1].tolist()
            rows.append([len(vac)] + (sizes + [0, 0])[:2])
        return rows

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_er_walks_match_oracle(self, seed):
        g = sample_er(2000, 2.0, derive_stream(60, seed))
        comp = whole_component(g)
        ts = [0, 40, 300, 1200, 3000, 8000]
        times = run_walk_first_visits(g, comp, ts[-1], derive_stream(61, seed))
        rows = vacant_structure(g, comp, times, ts)
        assert rows.dtype == np.int64 and rows.shape == (len(ts), 3)
        assert rows.tolist() == self.reference(g, comp, times, ts)
        # the grid crosses from one big piece to many
        assert rows[0, 2] < rows[0, 1] and (rows[1:, 2] > 0).any()

    def test_repeated_grid_time(self):
        g = sample_er(2000, 2.0, derive_stream(60, 0))
        comp = whole_component(g)
        ts = [0, 300, 300, 1200, 1200, 1200]
        times = run_walk_first_visits(g, comp, ts[-1], derive_stream(61, 0))
        rows = vacant_structure(g, comp, times, ts).tolist()
        assert rows == self.reference(g, comp, times, ts)
        assert rows[1] == rows[2] and rows[3] == rows[4] == rows[5]

    def test_covering_walk_leaves_nothing(self):
        g = cycle_graph(8)
        comp = whole_component(g)
        times = run_walk_first_visits(g, comp, 2000, derive_stream(63, 0))
        assert (times >= 0).all()
        assert vacant_structure(g, comp, times, [0, 2000]).tolist() == [[7, 7, 0], [0, 0, 0]]

    def test_one_vacant_vertex(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        comp = whole_component(g)
        times = np.array([0, 1, 2, -1], dtype=np.int64)
        rows = vacant_structure(g, comp, times, [0, 1, 2])
        assert rows.tolist() == [[3, 3, 0], [2, 2, 0], [1, 1, 0]]

    def test_scratch_per_edge(self):
        # the sweep's traced peak reads 48 bytes per graph edge here; 76
        # when the old and reordered edge arrays are alive together
        n = 20_000
        g = sample_er(n, 2.0, derive_stream(64, 0))
        comp = whole_component(g)
        ts = [walk_time(u / 20, 2.0, n) for u in range(21)]
        times = run_walk_first_visits(g, comp, ts[-1], derive_stream(64, 1))
        tracemalloc.start()
        try:
            vacant_structure(g, comp, times, ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 60 * g.m

    @pytest.mark.parametrize("ts", [[5, 3], [0, 40, 39], [-1, 2]])
    def test_rejects_descending_or_negative_grid(self, ts):
        g = cycle_graph(8)
        comp = whole_component(g)
        times = run_walk_first_visits(g, comp, 10, derive_stream(63, 1))
        with pytest.raises(ValueError, match="nonnegative and ascending"):
            vacant_structure(g, comp, times, ts)


class TestHittingTail:
    def test_single_vertex_hits_immediately(self):
        g = sample_er(1, 0.0, derive_stream(7, 0))
        est = estimate_hitting_tail(g, np.array([0]), 0, [0, 5], 100, derive_stream(7, 1))
        assert est.tail.tolist() == [0.0, 0.0]

    def test_single_edge_matches_exact_chain(self):
        g = build_graph(2, [(0, 1)])
        comp = whole_component(g)
        ts = [0, 1, 2, 5]
        oracle = hitting_tail_matrix_oracle(g, comp, 1, ts)
        est = estimate_hitting_tail(g, comp, 1, ts, 40_000, derive_stream(8, 0))
        for emp, exact in zip(est.tail, oracle):
            assert abs(emp - exact) <= 3 * math.sqrt(0.25 / est.n_walks) + 1e-12
        assert oracle.tolist() == [0.5, 0.0, 0.0, 0.0]

    def test_path_matches_exact_chain(self, path3):
        comp = whole_component(path3)
        ts = [0, 1, 2, 3, 5, 8, 13]
        oracle = hitting_tail_matrix_oracle(path3, comp, 2, ts)
        est = estimate_hitting_tail(path3, comp, 2, ts, 40_000, derive_stream(8, 1))
        for emp, exact in zip(est.tail, oracle):
            assert abs(emp - exact) <= 4 * math.sqrt(0.25 / est.n_walks)

    @pytest.mark.parametrize("edges, targets", [
        ([(0, 1), (1, 2)], [0, 2]),
        ([(0, 1), (1, 2)], [2, 1]),
        ([(0, 1)], [0, 1]),
    ], ids=["path3-ends", "path3-end-middle", "single-edge"])
    def test_shared_ensemble_matches_exact_chain(self, edges, targets):
        # one ensemble for two targets: each tail is its own killed chain,
        # and a walker that starts on one target walks on to the other
        g = build_graph(max(max(e) for e in edges) + 1, edges)
        comp = whole_component(g)
        ts = [0, 1, 2, 3, 5, 8, 13]
        ests = estimate_hitting_tails(g, comp, targets, ts, 40_000, derive_stream(8, 3))
        for x, est in zip(targets, ests):
            oracle = hitting_tail_matrix_oracle(g, comp, x, ts)
            assert 0.0 < oracle[0] < 1.0
            for emp, exact in zip(est.tail, oracle):
                assert abs(emp - exact) <= 4 * math.sqrt(0.25 / est.n_walks)
        # the ensemble's draws do not depend on target order, so swapping
        # the targets on the same stream swaps the estimates exactly
        swapped = estimate_hitting_tails(g, comp, targets[::-1], ts, 40_000, derive_stream(8, 3))
        assert ests[0].tail.tolist() != ests[1].tail.tolist()
        for est, twin in zip(ests, swapped[::-1]):
            assert est.tail.tolist() == twin.tail.tolist()
            assert (est.mean_hitting, est.censored_fraction) == (twin.mean_hitting, twin.censored_fraction)

    def test_targets_outside_component_rejected(self):
        # a walker on the isolated vertex 0 would read vertex 1's neighbour
        # list and "hit" vertex 2, which it cannot reach
        g = build_graph(3, [(1, 2)])
        with pytest.raises(ValueError, match="lie in the component"):
            estimate_hitting_tail(g, np.array([0]), 2, [1, 5], 10, derive_stream(1, 0))
        # a target outside a larger component would be all-censored
        g = build_graph(5, [(0, 1), (1, 2), (3, 4)])
        with pytest.raises(ValueError, match="lie in the component"):
            estimate_hitting_tails(g, np.array([0, 1, 2]), [1, 3], [1, 5], 10, derive_stream(1, 1))

    @pytest.mark.parametrize("ts", [[-3], [5, -1, 2]])
    def test_negative_time_rejected(self, ts):
        # a negative time is no step count: it used to give tail 1.0, an
        # infinite mean and a censored fraction of 1
        g = cycle_graph(8)
        with pytest.raises(ValueError, match="nonnegative"):
            estimate_hitting_tails(g, whole_component(g), [0], ts, 10, derive_stream(1, 2))

    def test_censoring_reported(self):
        g = cycle_graph(50)
        comp = whole_component(g)
        est = estimate_hitting_tail(g, comp, 0, [1, 2], 500, derive_stream(8, 2))
        assert est.censored_fraction > 0.5
        assert est.n_walks == 500

    def test_exponential_fit_within_spectral_bound(self):
        # the tail's distance from its exponential fit is controlled by
        # 1/(gap * E[H_x]) plus statistical error
        n, rho, n_walks = 5000, 2.0, 2000
        g = sample_er(n, rho, derive_stream(14, 0))
        comp = whole_component(g)
        gap = spectral_gap(g, comp)
        gen = derive_stream(14, 1).generator()
        x = int(comp[gen.integers(0, len(comp))])
        r = walk.default_ball_radius(n, rho)
        esc = escape_probability(g, x, r)
        scale = 1.0 / max(esc * walk.stationary_pi(g, comp, x), 1e-9)
        ts = np.unique(np.round(np.linspace(0.4, 3.0, 8) * scale).astype(np.int64))
        est = estimate_hitting_tail(g, comp, x, ts, n_walks, derive_stream(14, 3))
        fit = np.exp(-est.ts / est.mean_hitting)
        bound = 1.0 / (gap * est.mean_hitting) + 3 * 0.5 / math.sqrt(n_walks)
        assert float(np.max(np.abs(est.tail - fit))) <= bound


class TestKilledWalkGolden:
    """Hitting-tail bytes are pinned: the killed-walk kernel's draws and
    stop rule replay exactly."""

    @pytest.mark.parametrize("ts, censored, digest", [
        ([0, 1, 10, 100, 1000, 10000, 30000], 0.0,
         "e61f8708032f9b39dafa389a70f02cf7f871823c2c32b10aed760052752679a2"),
        ([0, 10, 100, 1000], 0.463,
         "e6b760209a65d69d01c6c8df7ae754482902feabfd4cc69f67a23db47f934179"),
    ], ids=["all-hit", "censored"])
    def test_hitting_tail_unchanged(self, ts, censored, digest):
        g = sample_er(2000, 2.0, derive_stream(70, 0))
        comp = whole_component(g)
        x = int(comp[np.argmax(g.degrees()[comp])])
        est = estimate_hitting_tail(g, comp, x, ts, 1000, derive_stream(70, 1))
        # some walkers start at x
        assert 0.0 < 1.0 - est.tail[0] < 0.05 and est.censored_fraction == censored
        h = hashlib.sha256()
        for arr in (est.ts, est.tail, np.array([est.mean_hitting, est.censored_fraction])):
            h.update(arr.tobytes())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("ts, censored, digest", [
        ([0, 1, 10, 100, 1000, 10000, 30000], [0.0, 0.0, 0.0],
         "67c938f8f9e26ad8cf851b9ca95a73cbbe1b1019d5ff79551c55bd3220c422a1"),
        ([0, 10, 100, 1000], [0.4914914914914915, 0.45145145145145144, 0.5995995995995996],
         "bb55760e34d64773f096425adae45b351f4cd146cb6308fe27ae3fc417503833"),
    ], ids=["all-hit", "censored"])
    def test_three_target_tails_unchanged(self, ts, censored, digest):
        # the multi-target form `hitting` runs, with an odd walker count so
        # that some steps draw for an odd number of live walkers
        g = sample_er(2000, 2.0, derive_stream(70, 0))
        comp = whole_component(g)
        xs = comp[np.argsort(-g.degrees()[comp], kind="stable")[:3]].tolist()
        ests = estimate_hitting_tails(g, comp, xs, ts, 999, derive_stream(70, 2))
        assert [est.censored_fraction for est in ests] == censored
        h = hashlib.sha256()
        for est in ests:
            for arr in (est.ts, est.tail, np.array([est.mean_hitting, est.censored_fraction])):
                h.update(arr.tobytes())
        assert h.hexdigest() == digest


class TestEscapeGolden:
    """Escape values are pinned: the exact solve on three radius-6 balls of
    one 2000-vertex ER(2) graph must keep its values to rounding."""

    def test_escape_unchanged(self):
        g = sample_er(2000, 2.0, derive_stream(71, 0))
        comp = whole_component(g)
        r = walk.default_ball_radius(2000, 2.0)
        assert r == 6
        xs = [int(comp[0]), int(comp[len(comp) // 2]), int(comp[np.argmax(g.degrees()[comp])])]
        pinned = [0.40391925450476096, 0.15358418396852236, 0.32293154020626025]
        for x, value in zip(xs, pinned):
            assert abs(escape_probability(g, x, r) - value) <= 1e-12


class TestKilledWalkLaw:
    """The goldens pin bytes only; these pin the kernel's law. Each of 200
    streams gives one estimate's z-score against the exact value, 50 for
    each of the four highest-degree vertices (degrees 8, 7, 6, 6) of a
    477-vertex ER(2) giant. Over 25 independent sets of 200 streams the
    z-scores' mean spread with sd 0.06-0.07 and their sd with sd 0.04-0.05,
    so the bands are about four of those spreads wide. The escape
    probability at the same vertices is exact, so it meets its oracle to
    rounding."""

    N_WALKS = 200
    STREAMS_PER_VERTEX = 50

    @pytest.fixture(scope="class")
    def giant(self):
        g = sample_er(600, 2.0, derive_stream(80, 0))
        comp = whole_component(g)
        xs = comp[np.argsort(-g.degrees()[comp], kind="stable")[:4]].tolist()
        return g, comp, xs

    def assert_standard(self, z):
        assert len(z) >= 200
        assert abs(np.mean(z)) <= 0.25
        assert abs(np.std(z, ddof=1) - 1.0) <= 0.2

    def test_hitting_tail_z_scores(self, giant):
        g, comp, xs = giant
        t = 300  # near each vertex's median hitting time
        z = []
        for j, x in enumerate(xs):
            p = float(hitting_tail_matrix_oracle(g, comp, x, [t])[0])
            assert 0.3 < p < 0.7
            for i in range(self.STREAMS_PER_VERTEX):
                est = estimate_hitting_tail(g, comp, x, [t], self.N_WALKS,
                                            derive_stream(81, j).substream(i))
                z.append((est.tail[0] - p) / math.sqrt(p * (1 - p) / self.N_WALKS))
        self.assert_standard(z)

    def test_escape_matches_oracle(self, giant):
        g, comp, xs = giant
        for x in xs:
            p = escape_probability_ball_oracle(g, x, 3)
            assert 0.2 < p < 0.8
            assert abs(escape_probability(g, x, 3) - p) <= 1e-10

    def test_one_step_is_uniform_over_seven_neighbours(self):
        # vertex 1 has degree 7 (not a power of two) and a nonzero row
        # start; each leaf is its own target, so capped at one step every
        # walker hits exactly one leaf at step 1
        leaves = [0, 2, 3, 4, 5, 6, 7]
        g = build_graph(8, [(1, v) for v in leaves])
        target = np.full(8, -1, dtype=np.int64)
        target[leaves] = np.arange(len(leaves))
        n_walks = 70_000
        times = walk._killed_walks(g, np.full(n_walks, 1, dtype=np.int64), target, 1,
                                   derive_stream(83, 0).generator())
        assert ((times == 1).sum(axis=1) == 1).all()
        assert ((times == 1) | (times == -1)).all()
        counts = (times == 1).sum(axis=0)
        expected = n_walks / len(leaves)
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 22.46  # the 0.999 quantile of chi-square with 6 degrees of freedom


class TestBall:
    @staticmethod
    def _check(g, x, r):
        members, covers = walk.ball(g, x, r)
        dist = bfs_distances_oracle(g, x, r + 1)
        assert members.tolist() == sorted(v for v, d in dist.items() if d <= r)
        assert covers == (max(dist.values()) <= r)
        return covers

    def test_matches_reference_bfs(self):
        g = sample_er(2000, 2.0, derive_stream(24, 0))
        comp = giant_vertices(components(g))
        for x in comp[:: len(comp) // 10].tolist():
            for r in (1, 2, 5, 9):
                assert not self._check(g, x, r)

    def test_ball_covering_whole_component(self):
        assert self._check(cycle_graph(8), 0, 4)
        assert not self._check(cycle_graph(8), 0, 3)
        g = sample_er(2000, 2.0, derive_stream(24, 0))
        small = next(v for v in range(g.n) if 2 <= len(bfs_distances_oracle(g, v, g.n)) <= 6)
        assert self._check(g, small, g.n)

    def test_radius_one(self, path3):
        assert self._check(path3, 1, 1)
        assert not self._check(path3, 0, 1)
        assert self._check(star_graph(4), 0, 1)
        assert not self._check(star_graph(4), 2, 1)

    def test_isolated_vertex(self):
        g = build_graph(3, [(1, 2)])
        assert walk.ball(g, 0, 1)[0].tolist() == [0]
        assert self._check(g, 0, 1)


class TestEscapeProbability:
    def test_er_ball_matches_harmonic_solve(self):
        for seed in range(3):
            g = sample_er(500, 2.0, derive_stream(72, seed))
            comp = whole_component(g)
            for x in comp[:: len(comp) // 4][:4].tolist():
                for r in (1, 2, 3, 5):
                    exact = escape_probability_ball_oracle(g, x, r)
                    assert abs(escape_probability(g, x, r) - exact) <= 1e-10, (seed, x, r)

    def test_cycle_gamblers_ruin(self):
        # from x the walk steps onto a path of r + 1 edges with absorbing
        # ends at x and at distance r + 1: escape is 1 / (r + 1)
        g = cycle_graph(100)
        for r in range(1, 11):
            assert abs(escape_probability(g, 0, r) - 1.0 / (r + 1)) <= 1e-12

    def test_path_end_gamblers_ruin(self):
        g = build_graph(30, [(v, v + 1) for v in range(29)])
        for r in range(1, 11):
            assert abs(escape_probability(g, 0, r) - 1.0 / (r + 1)) <= 1e-12

    def test_star_ball_covers_component(self):
        # the ball is the whole component: every walk returns
        assert escape_probability(star_graph(6), 0, 1) == 0.0

    def test_single_edge_forces_return(self):
        assert escape_probability(build_graph(2, [(0, 1)]), 0, 1) == 0.0

    def test_unconverged_solve_raises(self, monkeypatch):
        g = sample_er(500, 2.0, derive_stream(72, 0))
        x = int(whole_component(g)[0])
        monkeypatch.setattr(walk, "CG_MAX_ITER", 1)
        with pytest.raises(ValueError, match="did not converge"):
            escape_probability(g, x, 3)


class TestSpectralGap:
    def test_complete_graphs(self):
        for m in (3, 5, 8):
            g = complete_graph(m)
            gap = spectral_gap(g, whole_component(g))
            assert gap == pytest.approx(m / (m - 1), abs=1e-8)

    def test_cycles(self):
        for m in (4, 5, 12):
            g = cycle_graph(m)
            gap = spectral_gap(g, whole_component(g))
            assert gap == pytest.approx(1 - math.cos(2 * math.pi / m), abs=1e-8)

    def test_single_edge_bipartite_mode(self):
        g = build_graph(2, [(0, 1)])
        assert spectral_gap(g, whole_component(g)) == pytest.approx(2.0, abs=1e-10)

    def test_size_cap(self):
        g = cycle_graph(DENSE_SPECTRAL_CAP + 1)
        with pytest.raises(ValueError, match="too large"):
            spectral_gap(g, whole_component(g))

    def test_er_giant_gap_lower_bound(self):
        # qualitative mixing bound: gap at least c/log^2(n) in >= 95% of
        # trials; c = 0.2 calibrated from the measured gap distribution at
        # this scale (median 0.010, 5% quantile 0.006, min 0.003 over 50
        # samples: c = 0.5 would fail ~16% of samples)
        n, rho = 3000, 2.0
        bound = 0.2 / math.log(n) ** 2
        root = derive_stream(12, 0)
        ok = 0
        trials = 50
        for i in range(trials):
            g = sample_er(n, rho, root.substream(i))
            comp = whole_component(g)
            ok += spectral_gap(g, comp) >= bound
        assert ok >= int(0.95 * trials)

    def test_iterative_path_matches_dense_reference(self):
        # component above the internal dense-eigh threshold: check the
        # iterative eigensolver against a full dense solve built here
        g = sample_er(1200, 2.0, derive_stream(13, 0))
        comp = whole_component(g)
        got = spectral_gap(g, comp)
        k = len(comp)
        assert k > 600
        lookup = np.full(g.n, -1, dtype=np.int64)
        lookup[comp] = np.arange(k)
        deg = g.degrees()[comp].astype(float)
        s = np.zeros((k, k))
        for i, v in enumerate(comp):
            for w in g.neighbors(int(v)):
                s[i, lookup[w]] = 1.0 / math.sqrt(deg[i] * deg[lookup[w]])
        evals = np.linalg.eigvalsh(s)
        assert got == pytest.approx(1.0 - evals[-2], abs=1e-7)
