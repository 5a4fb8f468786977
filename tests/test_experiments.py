import hashlib
import math

import numpy as np
import pytest

from vacantlab import critical, engine, experiments, gw, walk
from vacantlab.engine import derive_stream
from vacantlab.experiments import (
    SWEEP_COLUMNS,
    SweepRecord,
    hitting_and_vacancy_report,
    size_relation_check,
    sweep_records_to_csv,
    sweep_vacant_structure,
)
from vacantlab.random_graph import components, giant_vertices, sample_er


@pytest.fixture(scope="module")
def small_caps():
    return gw.capacity_samples(2.0, 40, 30_000, derive_stream(40, 0))


@pytest.fixture
def serial(monkeypatch):
    """Run trials in this process: the test checks values, not parallelism."""
    monkeypatch.setenv(engine.THREADS_ENV_VAR, "1")


class TestSweep:
    def test_u_zero_removes_exactly_one_vertex(self, small_caps, serial):
        recs = sweep_vacant_structure(400, 2.0, [0.0], 6, derive_stream(41, 0), caps=lambda: small_caps)
        for r in recs:
            assert r.vacant_size == r.giant_size - 1
            # the removed start may be a cut vertex, splitting off a small piece
            assert r.c1_vacant <= r.giant_size - 1
            assert r.giant_size - 1 - r.c1_vacant <= 25
            assert r.zeta_predicted == pytest.approx(critical.solve_xi(2.0), abs=1e-9)
            assert r.vacant_fraction_predicted == pytest.approx(critical.solve_xi(2.0), abs=1e-9)

    def test_vacant_size_monotone_along_grid(self, small_caps, serial):
        grid = [0.0, 0.2, 0.5, 1.0, 1.6]
        recs = sweep_vacant_structure(600, 2.0, grid, 4, derive_stream(41, 1), caps=lambda: small_caps)
        by_trial = {}
        for r in recs:
            by_trial.setdefault(r.trial, []).append((r.u, r.vacant_size))
        for rows in by_trial.values():
            sizes = [s for _, s in sorted(rows)]
            assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_records_validate_and_csv_header(self, small_caps, serial):
        recs = sweep_vacant_structure(300, 2.0, [0.1, 0.4], 3, derive_stream(41, 2), caps=lambda: small_caps)
        text = sweep_records_to_csv(recs)
        assert text.splitlines()[0] == ",".join(SWEEP_COLUMNS)

    def test_deterministic_and_worker_invariant(self, small_caps, monkeypatch):
        args = dict(n=300, rho=2.0, u_grid=[0.3], n_trials=4)
        monkeypatch.setenv(engine.THREADS_ENV_VAR, "1")
        a = sweep_vacant_structure(root=derive_stream(41, 3), caps=lambda: small_caps, **args)
        monkeypatch.setenv(engine.THREADS_ENV_VAR, "3")
        b = sweep_vacant_structure(root=derive_stream(41, 3), caps=lambda: small_caps, **args)
        assert a == b

    def test_grid_validation(self, small_caps):
        with pytest.raises(ValueError):
            sweep_vacant_structure(300, 2.0, [0.4, 0.1], 2, derive_stream(41, 4),
                                   caps=lambda: small_caps)

    def test_invariant_violation_detected(self):
        with pytest.raises(ValueError, match="ordering invariant"):
            SweepRecord(n=10, rho=2.0, u=0.1, trial=0, seed=1, t_steps=5,
                        giant_size=8, vacant_size=9, c1_vacant=3, c2_vacant=1,
                        zeta_predicted=0.5, vacant_fraction_predicted=0.5).validate()

    def test_csv_bytes_pinned(self, serial):
        # sha256 of the sweep CSV: replay bytes must not move. The two
        # predicted columns follow capacity_samples' draws, whose stream
        # changed in version 0.2.0; the graph and walk columns did not
        root = derive_stream(47, 0)
        caps = gw.capacity_samples(2.0, 40, 2000, root.substream(901))
        recs = sweep_vacant_structure(3000, 2.0, [0.0, 0.3, 0.6, 0.9, 1.2, 1.5], 2, root, caps=lambda: caps)
        digest = hashlib.sha256(sweep_records_to_csv(recs).encode()).hexdigest()
        assert digest == "322673bff187dd66aab147ebb733a7306a9a16246d6b5ea78884d996957159b7"


class TestSizeRelation:
    def test_direction_at_u_zero(self, serial):
        rep = size_relation_check(2000, 2.0, 0.0, 3, derive_stream(42, 0))
        assert rep.mean_vbar > rep.mean_v
        assert rep.predicted_gap == pytest.approx((1 - critical.solve_xi(2.0)) * 2000)

    def test_gap_tracks_prediction_at_moderate_scale(self, serial):
        n = 20_000
        rep = size_relation_check(n, 2.0, 0.3, 5, derive_stream(42, 1))
        assert abs(rep.gap - rep.predicted_gap) <= 0.03 * n


class TestHittingVacancy:
    def test_report_fields_and_bounds(self):
        rep = hitting_and_vacancy_report(4000, 2.0, 0.3, 4, derive_stream(44, 0),
                                         n_walks=400)
        assert rep.t_steps > 0
        assert len(rep.rows) == 4
        for row in rep.rows:
            assert 0.0 <= row.empirical_vacancy <= 1.0
            assert 0.0 <= row.predicted_vacancy <= 1.0
            assert row.abs_error == pytest.approx(abs(row.empirical_vacancy - row.predicted_vacancy))
            assert row.tail_ks_distance >= 0.0
            assert 0 <= row.censored_fraction <= 1.0
        assert rep.mean_abs_error == pytest.approx(np.mean([r.abs_error for r in rep.rows]))

    def test_ball_covering_giant_predicts_certain_vacancy(self):
        # a ball that covers the whole giant has no boundary to escape to
        rep = hitting_and_vacancy_report(300, 2.0, 0.3, 2, derive_stream(44, 2),
                                         n_walks=50, radius=300)
        assert len(rep.rows) == 2
        for row in rep.rows:
            assert row.p_escape == 0.0
            assert row.predicted_vacancy == 1.0

    def test_size_cap(self):
        with pytest.raises(ValueError):
            hitting_and_vacancy_report(200_000, 2.0, 0.3, 2, derive_stream(44, 1))

    def test_readme_rows_carry_the_exact_escape(self):
        # the README command's report at seed 1: every row's p_escape is
        # the exact solve on the report's own graph and radius
        root = derive_stream(1, 0)
        rep = hitting_and_vacancy_report(50_000, 2.0, 0.3, 20, root, n_walks=2000)
        g = sample_er(50_000, 2.0, root.substream(0))
        assert len(rep.rows) == 20
        for row in rep.rows:
            assert row.p_escape == walk.escape_probability(g, row.vertex, rep.radius)
            assert row.predicted_vacancy == math.exp(-rep.t_steps * row.p_escape * row.pi_x)

    def test_repeated_probe_rows_share_one_tail(self):
        # 40 draws with replacement from a ~240-vertex giant repeat vertices;
        # the one shared ensemble holds a single tail per distinct vertex
        rep = hitting_and_vacancy_report(300, 2.0, 0.3, 40, derive_stream(44, 3), n_walks=200)
        by_vertex = {}
        for row in rep.rows:
            by_vertex.setdefault(row.vertex, []).append(row)
        repeated = [rows for rows in by_vertex.values() if len(rows) > 1]
        assert len(rep.rows) == 40 and repeated
        for rows in repeated:
            assert len({(row.empirical_vacancy, row.censored_fraction) for row in rows}) == 1

    def test_repeated_targets_rejected(self):
        g = sample_er(300, 2.0, derive_stream(44, 4))
        comp = giant_vertices(components(g))
        x = int(comp[0])
        with pytest.raises(ValueError, match="distinct"):
            walk.estimate_hitting_tails(g, comp, [x, int(comp[1]), x], [1, 5], 10,
                                        derive_stream(44, 5))


class TestCrossingRoute:
    def test_mean_degree_decreases_in_u(self, serial):
        root = derive_stream(45, 0)
        d_low = experiments.exploration_mean_degree_at(3000, 2.0, 0.2, 3, root.substream(0))
        d_high = experiments.exploration_mean_degree_at(3000, 2.0, 1.2, 3, root.substream(1))
        assert d_low > d_high

    def test_zero_trials_rejected(self, small_caps, serial):
        # no trials give no mean: the crossing must not bisect on nan
        root = derive_stream(45, 2)
        with pytest.raises(ValueError, match="n_trials must be positive"):
            sweep_vacant_structure(300, 2.0, [0.3], 0, root, caps=lambda: small_caps)
        with pytest.raises(ValueError, match="n_trials must be positive"):
            size_relation_check(300, 2.0, 0.3, 0, root)
        with pytest.raises(ValueError, match="n_trials must be positive"):
            experiments.exploration_mean_degree_at(2000, 2.0, 0.3, 0, root)
        with pytest.raises(ValueError, match="n_trials must be positive"):
            experiments.empirical_u_star_crossing(2000, 2.0, 0, root)

    def test_crossing_brackets_u_star(self, small_caps, serial):
        u_cross = experiments.empirical_u_star_crossing(10_000, 2.0, 3, derive_stream(45, 1), tol_u=0.05)
        res = critical.solve_u_star(2.0, small_caps.functional)
        assert abs(u_cross - res.u_star) <= 0.15
