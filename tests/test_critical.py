import math

import numpy as np
import pytest

from conftest import xi_fixed_point_oracle
from vacantlab import critical, gw
from vacantlab.engine import aggregate, derive_stream


class TestSolveXi:
    def test_matches_fixed_point_oracle(self):
        xi = critical.solve_xi(2.0, tol=1e-10)
        assert abs(xi - xi_fixed_point_oracle(2.0)) <= 1e-9

    def test_residual_within_tolerance(self):
        for rho in (1.2, 1.5, 2.0, 3.0, 5.0):
            xi = critical.solve_xi(rho, tol=1e-10)
            assert abs(math.exp(-rho * xi) - (1 - xi)) <= 1e-10

    def test_near_critical_limit(self):
        assert critical.solve_xi(1.0 + 1e-6) < 1e-2

    def test_dual_fixed_point_form(self):
        rho = 2.0
        xi = critical.solve_xi(rho)
        q = 1 - xi
        assert abs(math.exp(rho * (q - 1.0)) - q) <= 1e-10

    def test_subcritical_errors(self):
        with pytest.raises(ValueError, match="subcritical"):
            critical.solve_xi(1.0)
        with pytest.raises(ValueError, match="subcritical"):
            critical.solve_xi(0.5)

    def test_rho_beyond_float_resolution_raises(self):
        # above rho ~ 37.43 xi rounds to 1, so the bracket end 1 - 1e-16 is
        # already past the root: the solver names rho and the cause
        assert critical.solve_xi(37.4) < 1.0
        with pytest.raises(ValueError, match=r"^rho=40 is too large: .* within float resolution of 1$"):
            critical.solve_xi(40.0)

    def test_tolerance_below_float_resolution_raises(self):
        # next to xi(2) ~ 0.797 (float spacing ~1.1e-16) the float residual
        # never gets below 1e-20, so the solver must say so, not return.
        with pytest.raises(ValueError, match=r"tol=1e-20.*max_iter=200"):
            critical.solve_xi(2.0, tol=1e-20)

    def test_existence_chain_identity(self):
        # rho*(1 - xi) < 1 guarantees a sign change for the critical solve
        for rho in (1.2, 1.5, 2.0, 3.0, 5.0):
            xi = critical.solve_xi(rho)
            assert rho * (1 - xi) < 1


class TestSolveZeta:
    def test_boundary_identity_matches_xi(self):
        for rho in (1.5, 2.0, 3.0):
            xi = critical.solve_xi(rho, tol=1e-10)
            zeta0 = critical.solve_zeta(rho, functional_value=1.0, tol=1e-10)
            assert abs(zeta0 - xi) <= 2e-10

    def test_residual_at_solution(self):
        for rho, fval in ((2.0, 0.8), (1.5, 0.9), (3.0, 0.6)):
            xi = critical.solve_xi(rho)
            mu = rho * xi * fval + rho * (1 - xi)
            z = critical.solve_zeta(rho, fval, tol=1e-10)
            assert abs(math.exp(-z * mu) - (1 - z)) <= 1e-10

    def test_zero_at_and_below_criticality(self):
        # a vacant mean degree of 1 or below has no giant: zeta is exactly 0
        rho = 2.0
        xi = critical.solve_xi(rho)
        f_critical = (1 - rho * (1 - xi)) / (rho * xi)
        assert critical.vacant_mean_degree(rho, xi, f_critical * 0.99) < 1.0
        assert critical.solve_zeta(rho, f_critical * 0.99) == 0.0
        assert critical.solve_zeta(rho, 0.0) == 0.0
        assert critical.vacant_mean_degree(rho, xi, f_critical) == 1.0
        assert critical.solve_zeta(rho, f_critical) == 0.0
        assert critical.solve_zeta(rho, f_critical * 1.01) > 0.0

    def test_decreasing_in_u_with_common_randomness(self):
        caps = gw.capacity_samples(2.0, 20, 20_000, derive_stream(55, 0))
        grid = np.linspace(0.0, 1.2, 10)
        values = []
        for u in grid:
            f = caps.functional(u).mean
            values.append(critical.solve_zeta(2.0, f))
        assert all(a > b for a, b in zip(values, values[1:]))


class TestSolveUStar:
    def test_residual_at_zero_is_rho_minus_one(self):
        caps = gw.capacity_samples(2.0, 20, 5_000, derive_stream(56, 0))
        xi = critical.solve_xi(2.0)
        assert caps.functional(0.0).mean == 1.0
        residual = critical.vacant_mean_degree(2.0, xi, caps.functional(0.0).mean) - 1.0
        assert residual == pytest.approx(1.0, abs=1e-12)

    def test_reproducible_across_seeds(self):
        results = []
        for seed in (1, 2):
            caps = gw.capacity_samples(2.0, 40, 100_000, derive_stream(seed, 0))
            results.append(critical.solve_u_star(2.0, caps.functional))
        a, b = results
        assert a.ci_high - a.u_star <= 0.02
        # two independent estimates agree within the 95 % two-sample band:
        # |a - b| <= 1.96 * sqrt(se_a^2 + se_b^2), se = half-width / 1.96
        se_a, se_b = [(r.ci_high - r.ci_low) / 2 / 1.96 for r in results]
        assert abs(a.u_star - b.u_star) <= 1.96 * math.hypot(se_a, se_b)

    def test_broken_functional_detected(self):
        flat = lambda u: aggregate([1.0, 1.0])
        with pytest.raises(ValueError, match="no sign change"):
            critical.solve_u_star(2.0, flat)

    def test_subcritical_rejected(self):
        with pytest.raises(ValueError, match="subcritical"):
            critical.solve_u_star(0.9, lambda u: aggregate([1.0]))


class TestPredictions:
    def test_vacant_mean_degree_crosses_one_at_u_star(self):
        caps = gw.capacity_samples(2.0, 40, 50_000, derive_stream(57, 0))
        res = critical.solve_u_star(2.0, caps.functional, tol_u=1e-9)
        f_star = caps.functional(res.u_star).mean
        xi = critical.solve_xi(2.0)
        assert critical.vacant_mean_degree(2.0, xi, f_star) == pytest.approx(1.0, abs=1e-6)
