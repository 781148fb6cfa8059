"""Rate allocation across streams at a fixed total update rate.

Both the total average age and the total average peak age factor through
sum(1/p_i), a symmetric convex function minimized by the uniform split, so
the fair allocation p_i = 1/M is optimal for both. Optimality is certified
numerically by sampling the simplex rather than running an optimizer, since
the optimum is known in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import SystemConfig, _avg_age, _peak_age, age_columns, beats_arrival
from .distributions import ServiceDistribution
from .errors import InvariantViolationError, ParameterDomainError, require

__all__ = ["AllocationResult", "total_age", "optimal_allocation", "priority_frontier"]


@dataclass(frozen=True)
class AllocationResult:
    p_star: tuple[float, ...]
    delta_tot_star: float
    delta_peak_tot_star: float
    n_random_points: int
    max_violation: float


# Simplex coordinates drawn per block (rows of m); it bounds the memory a
# large sample takes.
_BLOCK = 1 << 17


def _factored_totals(inv_p_sum, m: int, lam: float, p_lam: float, ew: float):
    """Total average and peak age from sum(1/p_i): both factor through it."""
    tot = inv_p_sum / (lam * p_lam)
    return tot, tot + m * ew / p_lam


def _check_factored(tot, tot_peak, probs: np.ndarray, lam: float, p_lam: float, ew: float) -> None:
    """The totals of the splits in the rows of probs must agree with the factored
    (1/(lam P)) * sum(1/p_i) form to 1e-12 relative in every row."""
    factored, factored_peak = _factored_totals((1.0 / probs).sum(axis=1), probs.shape[1], lam, p_lam, ew)
    for label, x, y in (("total age", tot, factored), ("total peak age", tot_peak, factored_peak)):
        ok = ~(np.abs(x - y) > 1e-12 * np.abs(x))
        require(ok, f"{label}: summed {{!r}} vs factored {{!r}}", x, y, error=InvariantViolationError)


def _checked_columns(lam: float, dist: ServiceDistribution, probs: np.ndarray) -> dict[str, np.ndarray]:
    """analytic.age_columns of the splits in the rows of probs at total rate lam, its totals
    checked against the factored form."""
    columns = age_columns(np.full(len(probs), lam, dtype=float), probs, dist)
    p_lam, ew = float(beats_arrival(dist, lam)), float(dist.exp_weighted_mean(lam))
    _check_factored(columns["total_avg_age"], columns["total_peak_age"], probs, lam, p_lam, ew)
    return columns


def total_age(cfg: SystemConfig) -> tuple[float, float]:
    """(total average age, total average peak age).

    The math.fsum totals of analytic.age_columns (those of age_report),
    cross-checked against the factored (1/(lam P)) * sum(1/p_i) form to
    1e-12 relative.
    """
    columns = _checked_columns(cfg.total_rate, cfg.service, np.array([cfg.stream_probs]))
    return columns["total_avg_age"].item(), columns["total_peak_age"].item()


def optimal_allocation(
    lam: float,
    m: int,
    dist: ServiceDistribution,
    n_random_points: int = 1000,
    rng: np.random.Generator | None = None,
) -> AllocationResult:
    """The fair allocation and its total ages, with a sampled optimality check.

    The n_random_points splits are drawn uniformly on the simplex (normalised
    exponentials, one row of m draws a point). max_violation records by how
    much any sampled allocation beat the fair optimum (0 when optimality holds
    on the sample, as it must).
    """
    if m < 1:
        raise ParameterDomainError(f"need at least one stream, got {m}")
    if rng is None:
        rng = np.random.default_rng(0)
    _checked_columns(lam, dist, np.full((1, m), 1.0 / m))  # analyze's checks, on the fair split
    p_lam, ew = float(beats_arrival(dist, lam)), float(dist.exp_weighted_mean(lam))
    delta_tot_star, delta_peak_tot_star = _factored_totals(m * m, m, lam, p_lam, ew)

    max_violation = 0.0
    if m > 1:
        # normalised positive draws: each row is a split, so it needs no split check
        rows = max(1, _BLOCK // m)
        for lo in range(0, n_random_points, rows):
            e = rng.exponential(1.0, (min(rows, n_random_points - lo), m))
            probs = e / e.sum(axis=1, keepdims=True)
            rates = lam * probs
            tot, tot_peak = _avg_age(rates, p_lam).sum(axis=1), _peak_age(rates, p_lam, ew).sum(axis=1)
            _check_factored(tot, tot_peak, probs, lam, p_lam, ew)
            max_violation = max(max_violation, float(np.max(delta_tot_star - tot)))
    return AllocationResult(
        p_star=tuple([1.0 / m] * m),
        delta_tot_star=delta_tot_star,
        delta_peak_tot_star=delta_peak_tot_star,
        n_random_points=n_random_points if m > 1 else 0,
        max_violation=max_violation,
    )


def priority_frontier(
    lam: float,
    m: int,
    dist: ServiceDistribution,
    i: int,
    grid: tuple[float, ...],
) -> list[tuple[float, float, float]]:
    """Trade-off table (p_i, age of stream i, total age) along a p_i grid.

    The residual mass 1 - p_i is split equally among the other streams. The
    returned table is checked to satisfy the known monotonicity facts: the
    tagged stream's age strictly decreases in p_i and the total is minimized
    at p_i = 1/M.
    """
    if m < 2:
        raise ParameterDomainError("priority frontier needs at least two streams")
    if not 1 <= i <= m:
        raise IndexError(f"stream index {i} out of range 1..{m}")
    if len(grid) == 0:
        raise ParameterDomainError("grid must be non-empty")
    if any(not 0.0 < g < 1.0 for g in grid):
        raise ParameterDomainError(f"grid values must lie in (0, 1), got {grid}")

    probs = np.empty((len(grid), m))
    g = np.array(grid, dtype=float)
    probs[:, i - 1] = g
    probs[:, [j for j in range(m) if j != i - 1]] = (1.0 - g)[:, None] * (1.0 / (m - 1))
    columns = _checked_columns(lam, dist, probs)
    rows = list(zip(grid, columns["avg_age"][:, i - 1].tolist(), columns["total_avg_age"].tolist()))

    # consecutive rows in p_i order; the total age is convex in p_i with its minimum at 1/m
    ordered = np.array(sorted(rows)).T
    (g0, d0, t0), (g1, d1, t1) = ordered[:, :-1], ordered[:, 1:]
    rises, fair, error = g1 > g0, 1.0 / m, InvariantViolationError
    message = "stream age not strictly decreasing: {!r} at p={} vs {!r} at p={}"
    require(~rises | (d1 < d0), message, d0, g0, d1, g1, error=error)
    require(~rises | (g1 > fair) | (t1 <= t0), "total age not decreasing below the fair point", error=error)
    require(~rises | (g0 < fair) | (t1 >= t0), "total age not increasing above the fair point", error=error)
    return rows
