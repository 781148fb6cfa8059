import contextlib
import io
import json
import math

import numpy as np
import pytest

from aoi_mg11 import cli, optimizer
from aoi_mg11.analytic import SystemConfig, avg_age
from aoi_mg11.cli import main
from aoi_mg11.distributions import Deterministic, Exponential, Gamma, Uniform
from aoi_mg11.errors import InvariantViolationError, ParameterDomainError
from aoi_mg11.optimizer import optimal_allocation, priority_frontier, total_age

from conftest import random_system_config

REF = SystemConfig(1.5, (0.5, 0.3, 0.2), Exponential(1.0))


class TestTotalAge:
    def test_uniform_split(self):
        cfg = SystemConfig(1.5, (1 / 3, 1 / 3, 1 / 3), Exponential(1.0))
        tot, _ = total_age(cfg)
        assert tot == pytest.approx(15.0, rel=1e-12)

    def test_skewed_split(self):
        tot, _ = total_age(REF)
        assert tot == pytest.approx((2.0 + 10.0 / 3.0 + 5.0) / 0.6, rel=1e-12)

    def test_single_stream(self):
        cfg = SystemConfig(1.5, (1.0,), Exponential(1.0))
        tot, _ = total_age(cfg)
        assert tot == pytest.approx(1.0 / (1.5 * 0.4), rel=1e-12)

    def test_permutation_invariance(self):
        cfg2 = SystemConfig(1.5, (0.2, 0.5, 0.3), Exponential(1.0))
        assert total_age(cfg2) == pytest.approx(total_age(REF), rel=1e-12)

    def test_peak_total_offset_independent_of_p(self, rng):
        dist = Exponential(1.0)
        offsets = []
        for _ in range(10):
            raw = rng.exponential(1.0, 3)
            cfg = SystemConfig(1.5, tuple(raw / raw.sum()), dist)
            tot, peak_tot = total_age(cfg)
            offsets.append(peak_tot - tot)
        assert all(o == pytest.approx(offsets[0], rel=1e-9) for o in offsets)


class TestOptimalAllocation:
    def test_reference_values(self):
        res = optimal_allocation(1.5, 3, Exponential(1.0))
        assert res.p_star == pytest.approx((1 / 3,) * 3)
        assert res.delta_tot_star == pytest.approx(15.0, rel=1e-12)
        assert res.delta_peak_tot_star == pytest.approx(16.2, rel=1e-12)
        assert res.max_violation == 0.0

    def test_single_stream_vacuous(self):
        res = optimal_allocation(1.5, 1, Exponential(1.0))
        assert res.p_star == (1.0,)
        assert res.n_random_points == 0
        assert res.max_violation == 0.0

    def test_deterministic_two_streams(self):
        res = optimal_allocation(1.0, 2, Deterministic(1.0))
        assert res.delta_tot_star == pytest.approx(4.0 * math.e, rel=1e-12)
        assert res.max_violation == 0.0

    def test_sampled_points_strictly_above(self, rng):
        dist = Gamma(2.0, 0.5)
        res = optimal_allocation(1.0, 3, dist, n_random_points=500, rng=rng)
        star = res.delta_tot_star
        for _ in range(200):
            raw = rng.exponential(1.0, 3)
            p = raw / raw.sum()
            cfg = SystemConfig(1.0, tuple(p), dist)
            tot, _ = total_age(cfg)
            assert tot >= star
            if np.max(np.abs(p - 1 / 3)) > 1e-3:
                assert tot > star

    def test_bad_args(self):
        with pytest.raises(ParameterDomainError):
            optimal_allocation(0.0, 3, Exponential(1.0))
        with pytest.raises(ParameterDomainError):
            optimal_allocation(1.0, 0, Exponential(1.0))


FAMILIES = [Exponential(1.0), Gamma(2.0, 0.5), Deterministic(0.8), Uniform(0.0, 1.5)]


class TestBatchedSampling:
    @pytest.mark.parametrize("dist", FAMILIES)
    def test_matches_per_point_reference(self, dist):
        lam, m, n = 1.2, 3, 300
        rng = np.random.default_rng(5)
        res = optimal_allocation(lam, m, dist, n_random_points=n, rng=rng)
        ref_rng = np.random.default_rng(5)
        star = m * m / (lam * dist.laplace(lam))
        worst = 0.0
        for _ in range(n):
            raw = ref_rng.exponential(1.0, m)
            cfg = SystemConfig(lam, tuple(raw / raw.sum()), dist)
            tot = math.fsum(avg_age(cfg, i) for i in range(1, m + 1))
            assert total_age(cfg)[0] == pytest.approx(tot, rel=1e-15)
            worst = max(worst, star - tot)
        assert res.max_violation == max(0.0, worst)
        # the sample took exactly n draws of m from the generator
        assert rng.exponential(1.0, m).tolist() == ref_rng.exponential(1.0, m).tolist()

    def test_block_size_does_not_change_the_sample(self, monkeypatch):
        results = []
        for block in (optimizer._BLOCK, 7):
            monkeypatch.setattr(optimizer, "_BLOCK", block)
            rng = np.random.default_rng(11)
            res = optimal_allocation(1.2, 3, Gamma(2.0, 0.5), n_random_points=50, rng=rng)
            results.append((res, rng.exponential(1.0, 3).tolist()))
        assert results[0] == results[1]

    def test_agreement_checked_on_every_row(self, monkeypatch):
        def skewed_last_row(li, p):
            ages = 1.0 / (li * p)
            ages[-1] *= 1.0 + 1e-9
            return ages

        monkeypatch.setattr(optimizer, "_avg_age", skewed_last_row)
        with pytest.raises(InvariantViolationError):
            optimal_allocation(1.2, 3, Exponential(1.0), n_random_points=20)


class TestPriorityFrontier:
    def test_reference_grid(self):
        rows = priority_frontier(1.5, 3, Exponential(1.0), 1, (0.2, 1 / 3, 0.5, 0.8))
        ages = [r[1] for r in rows]
        assert ages == pytest.approx([25 / 3, 5.0, 10 / 3, 25 / 12], rel=1e-12)
        assert all(b < a for a, b in zip(ages, ages[1:]))

    def test_total_minimized_at_fair_point(self):
        rows = priority_frontier(1.5, 3, Exponential(1.0), 1, (0.2, 1 / 3, 0.5, 0.8))
        totals = {r[0]: r[2] for r in rows}
        assert totals[1 / 3] == pytest.approx(15.0, rel=1e-12)
        assert all(totals[1 / 3] < v for g, v in totals.items() if g != 1 / 3)

    def test_two_stream_fair_point(self):
        rows = priority_frontier(1.0, 2, Deterministic(1.0), 1, (0.5,))
        assert rows[0][2] == pytest.approx(4.0 / (1.0 * math.exp(-1.0)), rel=1e-12)

    def test_prioritize_vs_total_tension(self):
        uniform_cfg = SystemConfig(1.5, (1 / 3,) * 3, Exponential(1.0))
        uniform_age = 1.0 / (uniform_cfg.stream_rate(1) * uniform_cfg.service_beats_arrival())
        star = 9.0 / (1.5 * 0.4)
        for g, age_i, tot in priority_frontier(
            1.5, 3, Exponential(1.0), 1, tuple(np.linspace(0.35, 0.95, 13))
        ):
            assert age_i < uniform_age
            assert tot > star

    @pytest.mark.parametrize(
        "grid, ages, totals, message",
        [
            ((0.2, 0.5), [1.0, 2.0], [5.0, 4.0], "stream age not strictly decreasing: 1.0 at p=0.2 vs 2.0 at p=0.5"),
            ((0.1, 0.2), [2.0, 1.0], [5.0, 6.0], "total age not decreasing below the fair point"),
            ((0.5, 0.6), [2.0, 1.0], [6.0, 5.0], "total age not increasing above the fair point"),
        ],
        ids=["age_rises", "total_rises_below_fair", "total_falls_above_fair"],
    )
    def test_planted_violation(self, monkeypatch, grid, ages, totals, message):
        # the rows are checked in p order, whatever the order of the grid
        def planted(lam, dist, probs):
            assert probs[:, 0].tolist() == list(grid[::-1])
            return {"avg_age": np.array(ages[::-1])[:, None], "total_avg_age": np.array(totals[::-1])}

        monkeypatch.setattr(optimizer, "_checked_columns", planted)
        with pytest.raises(InvariantViolationError) as info:
            priority_frontier(1.5, 3, Exponential(1.0), 1, grid[::-1])
        assert str(info.value) == message

    @pytest.mark.parametrize("i", [1, 3])
    def test_rows_are_the_sweeps(self, i):
        # the other streams share 1 - p_i as sweep --param p<i> shares it, so
        # the library's values are the CLI's; m - 1 = 7 is no power of two
        lam, dist, m = 1.05, Uniform(0.2, 1.0), 8
        grid = np.linspace(0.02, 0.92, 4000).tolist()
        rows = priority_frontier(lam, m, dist, i, tuple(grid))
        *_, columns = cli._sweep_block(SystemConfig(lam, (1.0 / m,) * m, dist), f"p{i}", grid)
        assert [r[1] for r in rows] == columns["avg_age"][:, i - 1].tolist()
        assert [r[2] for r in rows] == columns["total_avg_age"].tolist()

    def test_bad_inputs(self):
        with pytest.raises(ParameterDomainError):
            priority_frontier(1.5, 1, Exponential(1.0), 1, (0.5,))
        with pytest.raises(ParameterDomainError):
            priority_frontier(1.5, 3, Exponential(1.0), 1, ())
        with pytest.raises(ParameterDomainError):
            priority_frontier(1.5, 3, Exponential(1.0), 1, (0.0, 0.5))
        with pytest.raises(IndexError):
            priority_frontier(1.5, 3, Exponential(1.0), 4, (0.5,))


class TestRandomConfigs:
    def test_lower_bound_over_simplex(self, rng):
        for _ in range(20):
            cfg = random_system_config(rng)
            m = cfg.num_streams
            star = m * m / (cfg.total_rate * cfg.service_beats_arrival())
            tot, _ = total_age(cfg)
            assert tot >= star * (1.0 - 1e-12)

    @pytest.mark.parametrize(
        "dist",
        [Exponential(1.0), Gamma(2.0, 0.5), Deterministic(0.8), Uniform(0.0, 1.5)],
    )
    def test_peak_and_age_optima_coincide(self, dist, rng):
        # both objectives differ by a p-independent constant, so the same
        # allocation minimizes both
        res = optimal_allocation(1.2, 4, dist, n_random_points=200, rng=rng)
        offset = 4 * dist.exp_weighted_mean(1.2) / dist.laplace(1.2)
        assert res.delta_peak_tot_star - res.delta_tot_star == pytest.approx(offset, rel=1e-12)
        assert res.max_violation == 0.0


# Systems that analyze rejects with exit 3: P(lam) underflows to 0 at the
# first, E[Y^2] overflows at the second.
OUT_OF_RANGE = [(1e6, Deterministic(1.0)), (1e-310, Exponential(1.0))]


def analyze_message(tmp_path, lam, dist, probs):
    """What `aoi analyze` prints to stderr after "domain error: " for the system."""
    path = tmp_path / "cfg.json"
    system = {"total_rate": lam, "stream_probs": probs, "service": dist.to_config()}
    path.write_text(json.dumps({"system": system}))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(["analyze", "-c", str(path)]) == 3
    return err.getvalue().removeprefix("domain error: ").rstrip("\n")


class TestFloatRange:
    """The optimizer raises where analyze exits 3, with analyze's message for the
    first system it evaluates, instead of dividing by zero or returning inf."""

    @pytest.mark.parametrize("lam, dist", OUT_OF_RANGE)
    def test_total_age(self, tmp_path, lam, dist):
        with pytest.raises(ParameterDomainError) as info:
            total_age(SystemConfig(lam, (0.5, 0.5), dist))
        assert str(info.value) == analyze_message(tmp_path, lam, dist, [0.5, 0.5])

    @pytest.mark.parametrize("lam, dist", OUT_OF_RANGE)
    def test_optimal_allocation(self, tmp_path, lam, dist):
        with pytest.raises(ParameterDomainError) as info:
            optimal_allocation(lam, 3, dist)
        assert str(info.value) == analyze_message(tmp_path, lam, dist, [1 / 3] * 3)

    @pytest.mark.parametrize("lam, dist", OUT_OF_RANGE)
    def test_priority_frontier(self, tmp_path, lam, dist):
        with pytest.raises(ParameterDomainError) as info:
            priority_frontier(lam, 3, dist, 1, (0.2, 0.5))
        assert str(info.value) == analyze_message(tmp_path, lam, dist, [0.2, 0.4, 0.4])

    def test_scalar_metric_outside_the_range_of_its_report(self, tmp_path):
        # the average age 1e160 is finite, but E[Y^2] = 2e320 is not
        cfg = SystemConfig(1e-160, (1.0,), Exponential(1.0))
        with pytest.raises(ParameterDomainError) as info:
            avg_age(cfg, 1)
        assert str(info.value) == analyze_message(tmp_path, 1e-160, Exponential(1.0), [1.0])
