import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from conftest import fixed_graph_covering_walk, unvisited, visited_mask
from vacantlab import exploration, walk
from vacantlab._gof import chisq_pvalue_two_sample
from vacantlab.engine import derive_stream
from vacantlab.exploration import (
    er_law_check,
    new_exploration,
    run_to,
)
from vacantlab.random_graph import sample_er


def step(state):
    """Advance one step, or none once the state is covered."""
    return run_to(state, state.step + 1)


def run_to_cover(state):
    while state.unvisited_count:
        step(state)
    return state


def assert_states_equal(a, b):
    assert a.step == b.step
    assert a.current == b.current
    assert a.jumps == b.jumps
    assert a.unvisited_count == b.unvisited_count
    assert np.array_equal(visited_mask(a), visited_mask(b))
    for x, y in zip(a.graph.edge_arrays, b.graph.edge_arrays):
        assert np.array_equal(x, y)


class TestBasics:
    def test_single_vertex_covered_immediately(self):
        state = new_exploration(1, 0.0, derive_stream(1, 0))
        assert state.unvisited_count == 0
        run_to(state, 5)  # a covered state does not move
        assert state.step == 0
        assert state.jumps == 0

    def test_rho_zero_every_step_jumps(self):
        state = new_exploration(5, 0.0, derive_stream(1, 1))
        steps = 0
        while state.unvisited_count:
            step(state)
            steps += 1
            assert steps <= 50
        assert state.jumps == state.step
        assert visited_mask(state).all()

    def test_p_one_two_vertices(self):
        state = new_exploration(2, 2.0, derive_stream(1, 2))
        step(state)
        assert state.unvisited_count == 0
        assert state.jumps == 0
        assert visited_mask(state).all()
        assert state.graph.neighbors(0).tolist() == [1]

    def test_validation(self):
        with pytest.raises(ValueError):
            new_exploration(0, 1.0, derive_stream(1, 0))
        with pytest.raises(ValueError, match="exceeds 1"):
            new_exploration(4, 8.0, derive_stream(1, 0))

    def test_initial_open_edge_count_binomial(self):
        # the start has n-1 pairs, each an edge with probability p
        n, rho, trials = 1000, 2.0, 4000
        gen = derive_stream(2, 0).generator()
        total = 0
        for _ in range(trials):
            state = new_exploration(n, rho, gen)
            total += state.graph.degree(state.current)
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
    @pytest.mark.parametrize("n, rho, seed", [
        (150, 1.8, 0), (60, 0.8, 3), (40, 3.0, 4), (80, 1.2, 5),
    ])
    def test_jumps_exactly_when_no_visited_vertex_has_unvisited_neighbor(self, n, rho, seed):
        state = new_exploration(n, rho, derive_stream(4, seed))
        adj = [state.graph.neighbors(v).tolist() for v in range(n)]
        while state.unvisited_count:
            visited = visited_mask(state)
            frontier = any(not visited[w] for v in np.flatnonzero(visited) for w in adj[v])
            before, jumps = state.current, state.jumps
            step(state)
            assert state.jumps - jumps == (0 if frontier else 1)
            if frontier:
                assert state.current in adj[before]
            assert state.unvisited_count + int(visited_mask(state).sum()) == n
        assert state.jumps > 0

    def test_coverage_visits_everything(self):
        state = run_to_cover(new_exploration(120, 2.0, derive_stream(4, 1)))
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
                step(state)
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
        (1, 0.0, 1, 10, "a694baed3224c319191506c2154bee9b4d916703a50e6731048d0884421d0d93"),
        (6, 0.0, 2, 100, "ded95bd99835bcc9846c9228244d3239a6266891d27def37618be9ec63128f47"),
        (2, 2.0, 3, 5, "191524084fc5d081f348c682e20e24cb0bea5fdc016a57ab5421969f35e98256"),
        (400, 0.8, 4, 600, "2ce156854b4df1e0678e7219f1029f21e3e6ccd58b60aab5c5ee72a5ceeb4d22"),
        (500, 1.5, 5, 250, "eeb312991547dc8094bde299a27948a13c53f6cd8aa0c31283f458f1700f47c9"),
        (2000, 2.0, 6, 1500, "a7ee404fb84cba2e300173dfe03c5ea2fa1104dbc75b1010e4491a7b59c1534f"),
        (60, 3.0, 7, 10_000, "04aa83542d7cae616e0e82c51f72a0dd6f6ea1312a4a720630405ed04ad4e2d9"),
    ], ids=["n1", "rho0", "n2-p1", "subcritical", "rho1.5", "rho2", "covered"])
    def test_state_unchanged(self, n, rho, seed, t, digest):
        state = run_to(new_exploration(n, rho, derive_stream(seed, 0)), t)
        h = hashlib.sha256()
        h.update(repr((state.step, state.current, state.jumps, state.unvisited_count)).encode())
        for arr in state.graph.edge_arrays:
            h.update(arr.tobytes())
        h.update(unvisited(state).tobytes())
        assert h.hexdigest() == digest


class TestGeneratorConsumption:
    """The generator's position after ``run_to`` is pinned: an exploration
    on a live generator must draw the same uniforms, block by block, when
    the way it buffers them changes."""

    @pytest.mark.parametrize("n, rho, seed, t, digest", [
        (1, 0.0, 1, 5, "3db849997dc95ed2835cdd3792eb2e15c42433ccb72d626ca483c6ddfb76d245"),
        (2, 2.0, 3, 5, "f3dc429e80197314aac7097a8c2d22bd7a070b592ea4d00b7fa4df5cc95b5ecf"),
        (400, 0.8, 4, 600, "cb4cb315028d81abf966c818add5cfe8163e8a41738bc8efd364c124308fe9a5"),
        (2000, 2.0, 6, 1500, "546bce3c038f23caa99825b757874b24f248f5b72adf13497f720c4a9af81701"),
        (60, 3.0, 7, 10_000, "5ec69d5377e8e1fbac28fb425bfb13660708b8965c36c5d356e981c8c0cd6013"),
    ], ids=["n1", "n2-p1", "subcritical", "rho2", "covered"])
    def test_draws_unchanged(self, n, rho, seed, t, digest):
        gen = derive_stream(seed, 0).generator()
        state = run_to(new_exploration(n, rho, gen), t)
        h = hashlib.sha256(repr((state.step, state.current, state.jumps,
                                 state.unvisited_count)).encode())
        h.update(gen.random(4).tobytes())
        assert h.hexdigest() == digest


class TestAnnealedEquivalence:
    def test_joint_law_matches_sample_then_walk(self):
        # (graph, trajectory prefix) under the exploring process vs
        # sampling the graph first and running the covered-jumping walk
        n, rho, prefix, samples = 3, 1.2, 3, 150_000
        gen_a = derive_stream(5, 0).generator()
        gen_b = derive_stream(5, 1).generator()
        pairs = [(0, 1), (0, 2), (1, 2)]

        def graph_mask(g):
            mask = 0
            for x, y in zip(*(e.tolist() for e in g.edge_arrays)):
                mask |= 1 << pairs.index((x, y))
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
            while state.unvisited_count and state.step < prefix:
                traj.append(step(state).current)
            traj += [-1] * (prefix + 1 - len(traj))
            counts_a[cell(graph_mask(state.graph), traj)] += 1

        counts_b = np.zeros(n_cells, dtype=np.int64)
        for _ in range(samples):
            g = sample_er(n, rho, gen_b)
            traj = fixed_graph_covering_walk(g, prefix, gen_b)
            counts_b[cell(graph_mask(g), traj)] += 1

        assert chisq_pvalue_two_sample(counts_a, counts_b) > 0.001


class TestVacantSnapshot:
    def test_fresh_state_has_all_but_start(self):
        state = new_exploration(50, 1.0, derive_stream(6, 0))
        vacant = unvisited(state)
        assert vacant.tolist() == [v for v in range(50) if v != state.current]
        assert state.unvisited_count == 49
        assert state.step == 0

    def test_covered_state_empty(self):
        state = run_to_cover(new_exploration(30, 1.5, derive_stream(6, 2)))
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

    def test_trial_reads_the_explored_graph(self):
        # a trial's vacant graph is the explored graph induced on its
        # unvisited vertices, not a fresh draw of G(k, p)
        n, rho, t = 400, 2.0, 150
        for i in range(5):
            stream = derive_stream(7, 10 + i)
            k, _, hist = exploration._er_trial(n, rho, t, stream)
            state = run_to(new_exploration(n, rho, stream.substream(0)), t)
            vacant = set(unvisited(state).tolist())
            induced = sum(a in vacant and b in vacant
                          for a, b in zip(*(e.tolist() for e in state.graph.edge_arrays)))
            assert k == len(vacant)
            assert int(np.arange(len(hist)) @ hist) == 2 * induced

    def test_burn_in_default_value(self):
        assert exploration.default_burn_in(100_000) == math.ceil(math.log(100_000) ** 3)


class TestErLawGolden:
    """Report bytes are pinned: each trial's vacant-graph draw must not
    change when the way it is made from the exploration does."""

    @pytest.mark.parametrize("n, rho, u, seed, digest", [
        (300, 2.0, 0.3, 1, "35b5ae35dc33ede8cd5fa006c51222f03993976b36551c93f893c0492764f539"),
        (200, 0.8, 0.0, 2, "afffab844cc63a8d1daa1053115751d927774527be1855d294d93966c7b6b637"),
        (12, 3.0, 0.0, 3, "4a3c3ba717eedec25eb19d38e1ae831682589b3fdd8646af0f164469038870f9"),
        (6, 1.5, 0.0, 4, "2e9ff7e9e031e026d868e18aebb0bbeee8b628ac2c95744ab38ab35f50bd82df"),
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
        t = walk.walk_time(u, rho, n)
        gen = derive_stream(8, 0).generator()
        state = new_exploration(n, rho, gen)
        run_to(state, t + exploration.default_burn_in(n))
        g = sample_er(n, rho, derive_stream(8, 1))
        from vacantlab.random_graph import components, giant_vertices

        comp = giant_vertices(components(g))
        vac = walk.run_walk_vacant(g, comp, t, derive_stream(8, 2))
        assert state.unvisited_count > vac.size
