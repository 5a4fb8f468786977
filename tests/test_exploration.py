import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from conftest import fixed_graph_covering_walk, unvisited, visited_mask
from vacantlab import critical, exploration, walk
from vacantlab._gof import chisq_pvalue_two_sample
from vacantlab.engine import derive_stream
from vacantlab.exploration import (
    advance,
    er_law_check,
    new_exploration,
    run_to,
)
from vacantlab.random_graph import sample_er


def assert_states_equal(a, b):
    assert a.step == b.step
    assert a.current == b.current
    assert a.jumps == b.jumps
    assert a.covered == b.covered
    assert np.array_equal(visited_mask(a), visited_mask(b))
    assert a.explored_adjacency == b.explored_adjacency


class TestBasics:
    def test_single_vertex_covered_immediately(self):
        state = new_exploration(1, 0.0, derive_stream(1, 0))
        assert state.covered
        assert state.frontier_count == 0
        assert not advance(state)  # no-op flag on covered state
        assert state.step == 0

    def test_rho_zero_every_step_jumps(self):
        state = new_exploration(5, 0.0, derive_stream(1, 1))
        steps = 0
        while not state.covered:
            advance(state)
            steps += 1
            assert steps <= 50
        assert state.jumps == state.step
        assert visited_mask(state).all()

    def test_p_one_two_vertices(self):
        state = new_exploration(2, 2.0, derive_stream(1, 2))
        advance(state)
        assert state.covered
        assert state.jumps == 0
        assert visited_mask(state).all()
        assert sorted(state.explored_adjacency[0]) == [1]

    def test_validation(self):
        with pytest.raises(ValueError):
            new_exploration(0, 1.0, derive_stream(1, 0))
        with pytest.raises(ValueError, match="exceeds 1"):
            new_exploration(4, 8.0, derive_stream(1, 0))

    def test_initial_open_edge_count_binomial(self):
        # v0 explores n-1 pairs at probability p
        n, rho, trials = 1000, 2.0, 4000
        gen = derive_stream(2, 0).generator()
        total = 0
        for _ in range(trials):
            state = new_exploration(n, rho, gen)
            total += len(state.explored_adjacency[state.current])
        mean = total / trials
        expect = rho * (n - 1) / n
        band = 3 * math.sqrt(expect / trials)
        assert abs(mean - expect) <= band


class TestDeterminism:
    def test_run_to_is_prefix_stable(self):
        stream = derive_stream(3, 0)
        a = new_exploration(200, 1.5, stream)
        run_to(a, 40)
        run_to(a, 90)
        b = new_exploration(200, 1.5, stream)
        run_to(b, 90)
        assert_states_equal(a, b)

    def test_run_to_validation(self):
        state = new_exploration(10, 1.0, derive_stream(3, 1))
        run_to(state, 4)
        with pytest.raises(ValueError):
            run_to(state, 2)


class TestInvariants:
    def test_open_edges_touch_visited_and_frontier_exact(self):
        state = new_exploration(150, 1.8, derive_stream(4, 0))
        for _ in range(200):
            if state.covered:
                break
            advance(state)
            visited = visited_mask(state)
            frontier = set()
            for v in range(state.n):
                for w in state.explored_adjacency[v]:
                    assert visited[v] or visited[w]
                    if visited[v] and not visited[w]:
                        frontier.add(w)
                    if visited[w] and not visited[v]:
                        frontier.add(v)
            assert state.frontier_count == len(frontier)
            assert state.unvisited_count + int(visited.sum()) == state.n

    def test_coverage_visits_everything(self):
        state = new_exploration(120, 2.0, derive_stream(4, 1))
        while not state.covered:
            advance(state)
        assert visited_mask(state).all()
        assert state.unvisited_count == 0

    def test_jumps_before_giant_entry_geometric(self):
        # entering a macroscopic component takes few uniform restarts
        n = 10_000
        gen = derive_stream(4, 2).generator()
        ok = 0
        trials = 100
        for _ in range(trials):
            state = new_exploration(n, 2.0, gen)
            jumps_before = 0
            new_visits = 1
            while True:
                prev_jumps = state.jumps
                advance(state)
                if state.jumps > prev_jumps:
                    if new_visits > n // 2:
                        break
                    jumps_before = state.jumps
                    new_visits = 0
                else:
                    new_visits += 1
                if new_visits > n // 2:
                    break
            ok += jumps_before <= 20
        assert ok >= 98


class TestExplorationGolden:
    """Trajectory bytes are pinned: the state after ``run_to`` must not
    change when the exploration's bookkeeping does."""

    @pytest.mark.parametrize("n, rho, seed, t, digest", [
        (1, 0.0, 1, 10, "03bdb7924d316193aeea63d2ec1c87c3ef98a8fcfcc672e2f0a8f706f29568fd"),
        (6, 0.0, 2, 100, "f1805dfa2a78a250e75d4c801816a123cc0853742bce6fdc4490fbd0e11d7e72"),
        (2, 2.0, 3, 5, "c65eef1e16e26f7dcf37076b83a0635bdc11157e6c1f453527dd4b4c2212642d"),
        (400, 0.8, 4, 600, "a382ac673f69c06c4bf3f7dff322d8dd4897ef397ad8bb40d68527488582f25f"),
        (500, 1.5, 5, 250, "e576ae93ab687531e3d2e468f1841d89726ea7e6c2de4041cf101d3aedebde71"),
        (2000, 2.0, 6, 1500, "dd4aa89a77af4c31d05f6b0e11b0d41755dd1b398af546176a5d29a841e5e831"),
        (60, 3.0, 7, 10_000, "7e837aed185b7d5d3d0f28db4420392cd0c48f7f9ccccbec66d7d63b624bdb88"),
    ], ids=["n1", "rho0", "n2-p1", "subcritical", "rho1.5", "rho2", "covered"])
    def test_state_unchanged(self, n, rho, seed, t, digest):
        state = run_to(new_exploration(n, rho, derive_stream(seed, 0)), t)
        h = hashlib.sha256()
        h.update(repr((state.step, state.current, state.jumps, state.covered,
                       state.frontier_count, state.explored_adjacency)).encode())
        h.update(unvisited(state).tobytes())
        assert h.hexdigest() == digest


class TestGeneratorConsumption:
    """The generator's position after ``run_to`` is pinned: an exploration
    on a live generator must draw the same uniforms, block by block, when
    the way it buffers them changes."""

    @pytest.mark.parametrize("n, rho, seed, t, digest", [
        (1, 0.0, 1, 5, "3db849997dc95ed2835cdd3792eb2e15c42433ccb72d626ca483c6ddfb76d245"),
        (2, 2.0, 3, 5, "2a50fe3f6982ba41ba84346f63f5a02651b3cdbd635c5396971b98516785c7e0"),
        (400, 0.8, 4, 600, "ab7449556ac56b8d8927cab6bc5d3c3cc725cba24715f27cbf4ff547f7dde4fd"),
        (2000, 2.0, 6, 1500, "da9cff84addc3f4309dac010ad923b091dd638527f35183494ef080cb9c5bb6a"),
        (60, 3.0, 7, 10_000, "a0019f98fd331ad01202e6e310c7397f0a72e5f146ef73bd73070364573aedde"),
    ], ids=["n1", "n2-p1", "subcritical", "rho2", "covered"])
    def test_draws_unchanged(self, n, rho, seed, t, digest):
        gen = derive_stream(seed, 0).generator()
        state = run_to(new_exploration(n, rho, gen), t)
        h = hashlib.sha256(repr((state.step, state.current, state.jumps,
                                 state.frontier_count)).encode())
        h.update(gen.random(4).tobytes())
        assert h.hexdigest() == digest


class TestAnnealedEquivalence:
    def test_joint_law_matches_sample_then_walk(self):
        # (final graph, trajectory prefix) under the exploring process vs
        # sampling the graph first and running the covered-jumping walk
        n, rho, prefix, samples = 3, 1.2, 3, 150_000
        gen_a = derive_stream(5, 0).generator()
        gen_b = derive_stream(5, 1).generator()
        pairs = [(0, 1), (0, 2), (1, 2)]

        def graph_mask_from_adjacency(adj):
            mask = 0
            for b, (x, y) in enumerate(pairs):
                if y in adj[x]:
                    mask |= 1 << b
            return mask

        def cell(graph_mask, traj):
            code = 0
            for v in traj:
                code = code * (n + 1) + (v + 1)
            return graph_mask * (n + 1) ** (prefix + 1) + code

        n_cells = 8 * (n + 1) ** (prefix + 1)
        counts_a = np.zeros(n_cells, dtype=np.int64)
        for _ in range(samples):
            state = new_exploration(n, rho, gen_a)
            traj = [state.current]
            while not state.covered and state.step < prefix:
                advance(state)
                traj.append(state.current)
            while len(traj) <= prefix:
                traj.append(-1)
            while not state.covered:
                advance(state)
            counts_a[cell(graph_mask_from_adjacency(state.explored_adjacency), traj)] += 1

        counts_b = np.zeros(n_cells, dtype=np.int64)
        for _ in range(samples):
            g = sample_er(n, rho, gen_b)
            adj = [g.neighbors(v).tolist() for v in range(n)]
            traj = fixed_graph_covering_walk(g, prefix, gen_b)
            counts_b[cell(graph_mask_from_adjacency(adj), traj)] += 1

        assert chisq_pvalue_two_sample(counts_a, counts_b) > 0.001


class TestVacantSnapshot:
    def test_fresh_state_has_all_but_start(self):
        state = new_exploration(50, 1.0, derive_stream(6, 0))
        vacant = unvisited(state)
        assert vacant.tolist() == [v for v in range(50) if v != state.current]
        assert state.unvisited_count == 49
        assert state.step == 0

    def test_covered_state_empty(self):
        state = new_exploration(30, 1.5, derive_stream(6, 2))
        while not state.covered:
            advance(state)
        assert len(unvisited(state)) == 0
        assert state.unvisited_count == 0


class TestErLawCheck:
    def test_rho_zero_skips_edge_test(self):
        report = er_law_check(100, 0.0, 0.0, 50, derive_stream(7, 0))
        assert report.ks_pvalue_edges is None
        assert report.degree_chisq_pvalue is None
        assert "p=0" in report.note

    def test_trial_floor(self):
        with pytest.raises(ValueError):
            er_law_check(100, 1.0, 0.1, 10, derive_stream(7, 1))

    def test_skip_note_names_too_few_vacant_vertices(self):
        # one vertex, visited at the start: p > 0 but no trial has two vacant vertices
        report = er_law_check(1, 0.5, 0.0, 50, derive_stream(7, 4))
        assert report.ks_pvalue_edges is None
        assert report.mean_vacant_fraction == 0.0
        assert report.note == "edge test skipped: fewer than 2 vacant vertices in every trial"

    def test_healthy_law_at_moderate_scale(self):
        report = er_law_check(1200, 2.0, 0.3, 120, derive_stream(7, 2))
        assert report.ks_pvalue_edges > 0.01
        assert report.degree_chisq_pvalue > 0.001
        assert 0.0 < report.mean_vacant_fraction < 1.0
        assert report.mean_vacant_mean_degree == pytest.approx(
            report.mean_vacant_fraction * 2.0)

    def test_burn_in_default_value(self):
        assert exploration.default_burn_in(100_000) == math.ceil(math.log(100_000) ** 3)


class TestErLawGolden:
    """Report bytes are pinned: each trial's vacant-graph draw must not
    change when the way it is made from the exploration does."""

    @pytest.mark.parametrize("n, rho, u, seed, digest", [
        (300, 2.0, 0.3, 1, "eed8e9b10771c52f44210aa4e7b8804599f9e63f9c6052d46264ca01a98352f1"),
        (200, 0.8, 0.0, 2, "448d33c18ad461c43a5d86511033dcdd1b82668ae5b2d806167b9849613763ba"),
        (12, 3.0, 0.0, 3, "2b2c392264838b09dc8bf7414b88f5a96e1c0fa495cb13c21dd7042089570e62"),
        (6, 1.5, 0.0, 4, "fd028d87bfdb69a572e7b63f3962656dc65050b2946c82a828c8ad523a5696dd"),
        (100, 0.0, 0.0, 5, "67329508f25ef49747458acfb7cddd33550f4ffa04af6e90405f2ad9e884c10a"),
    ], ids=["supercritical", "subcritical", "few-vacant", "n6", "rho0"])
    def test_report_unchanged(self, n, rho, u, seed, digest):
        report = er_law_check(n, rho, u, 50, derive_stream(seed, 0))
        text = json.dumps(dataclasses.asdict(report))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestSizeRelationDirection:
    def test_exploration_leaves_more_vacant_than_walk(self):
        # the exploring process also leaves the non-giant components vacant
        n, rho, u = 3000, 2.0, 0.2
        xi = critical.solve_xi(rho)
        t = walk.walk_time(u, rho, xi, n)
        gen = derive_stream(8, 0).generator()
        state = new_exploration(n, rho, gen)
        run_to(state, t + exploration.default_burn_in(n))
        g = sample_er(n, rho, derive_stream(8, 1))
        from vacantlab.random_graph import components, giant_vertices

        comp = giant_vertices(components(g))
        vac = walk.run_walk_vacant(g, comp, t, derive_stream(8, 2))
        assert state.unvisited_count > vac.size
