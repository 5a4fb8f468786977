"""Scalar fixed-point and root solvers for the branching-process survival
probability, the critical walk intensity, and the predicted vacant giant
fraction, plus the closed-form vacant mean degree they all rest on.

All deterministic equations are solved by bisection: the residuals are
cheap, the brackets are certain, and Monte Carlo noise in the capacity
functional would break derivative-based methods.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

DEFAULT_TOL = 1e-10
# solve_u_star doubles its upper bracket up to this intensity before giving up.
U_MAX_CAP = 1024.0
MAX_BISECT_ITER = 200


@dataclass(frozen=True)
class UStarResult:
    """Critical intensity estimate with the interval obtained by re-solving
    at the capacity functional's confidence band endpoints."""

    u_star: float
    ci_low: float
    ci_high: float


def _bisect(f, lo: float, hi: float, tol: float) -> float:
    """Root of f on [lo, hi] assuming f(lo) > 0 > f(hi), to bracket width
    and residual at most tol. Raises when ``MAX_BISECT_ITER`` halvings do not
    get there (for instance when tol is below the float resolution of the root)."""
    flo = f(lo)
    fhi = f(hi)
    if flo < 0 or fhi > 0:
        raise ValueError(f"bisection bracket invalid: f({lo})={flo}, f({hi})={fhi}")
    for _ in range(MAX_BISECT_ITER):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol and abs(fm) <= tol:
            return 0.5 * (lo + hi)
    raise ValueError(f"bisection did not reach tol={tol:g} within max_iter={MAX_BISECT_ITER} "
                     f"iterations (bracket [{lo!r}, {hi!r}])")


@functools.lru_cache(maxsize=None)
def solve_xi(rho: float, tol: float = DEFAULT_TOL) -> float:
    """Survival probability of the mean-``rho`` Poisson branching process:
    the unique solution in (0,1) of exp(-rho*x) = 1 - x.

    Raises for rho <= 1 (subcritical: no positive solution) and for rho
    above about 37.43, where xi is within float resolution of 1.
    """
    if rho <= 1.0:
        raise ValueError("subcritical: no positive solution")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    # g(x) = exp(-rho x) - 1 + x is < 0 on (0, xi) and > 0 on (xi, 1).
    g = lambda x: math.exp(-rho * x) - 1.0 + x
    if g(1.0 - 1e-16) < 0.0:  # the bracket's upper end already lies below xi
        raise ValueError(f"rho={rho:g} is too large: xi = 1 - exp(-rho*xi) is within float resolution of 1")
    return _bisect(lambda x: -g(x), 1e-16, 1.0 - 1e-16, tol)


def vacant_mean_degree(rho: float, xi: float, functional_value: float) -> float:
    """Predicted mean degree of the exploration vacant graph,
    rho*xi*F(u) + rho*(1-xi). Crosses 1 exactly at the critical intensity;
    the vacant graph has a giant component while it exceeds 1."""
    return rho * xi * functional_value + rho * (1.0 - xi)


def solve_u_star(rho: float, functional, tol_u: float = 1e-6) -> UStarResult:
    """Critical intensity: the u at which rho*xi*F(u) + rho*(1-xi) = 1,
    where F(u) is the Monte Carlo capacity functional (an EstimateCI,
    decreasing in u under common random numbers).

    The returned interval re-solves the equation along the functional's
    ci95 band. Raises when the residual never changes sign up to
    ``U_MAX_CAP`` (possible only if the functional is broken: at u=0 the
    residual is rho-1 > 0 and its large-u limit is rho*(1-xi)-1 < 0).
    """
    if rho <= 1.0:
        raise ValueError("subcritical: no critical intensity")
    xi = solve_xi(rho)

    def crossing(pick, hi: float) -> tuple[float, float]:
        """Root of the residual along ``pick`` of the functional, after
        doubling ``hi`` until the residual there is not positive. The
        residual, vacant mean degree minus 1, is positive below the
        critical intensity and negative above it."""
        res = lambda u: vacant_mean_degree(rho, xi, pick(functional(u))) - 1.0
        while res(hi) > 0.0:
            hi *= 2.0
            if hi > U_MAX_CAP:
                raise ValueError("no sign change: capacity functional looks broken")
        return _bisect(res, 0.0, hi, tol_u), hi

    u_star, hi = crossing(lambda e: e.mean, 1.0)
    # Underestimated F crosses earlier (low end), overestimated F later (high end).
    lo_end, _ = crossing(lambda e: e.ci95_low, hi)
    hi_end, _ = crossing(lambda e: e.ci95_high, hi)
    ci_low, ci_high = sorted((lo_end, hi_end))
    return UStarResult(u_star=u_star, ci_low=ci_low, ci_high=ci_high)


def solve_zeta(rho: float, functional_value: float, tol: float = DEFAULT_TOL) -> float:
    """Predicted giant fraction of the vacant graph: the unique solution in
    (0,1) of exp(-zeta*mu) = 1 - zeta, the survival equation ``solve_xi``
    solves, at mean mu = rho*xi*F(u) + rho*(1-xi) with F(u) =
    ``functional_value``, while mu > 1 (u below the critical intensity);
    0.0 when mu <= 1.
    """
    xi = solve_xi(rho, tol)
    mu = vacant_mean_degree(rho, xi, functional_value)
    return solve_xi(mu, tol) if mu > 1.0 else 0.0
