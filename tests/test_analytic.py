import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoi_mg11 import analytic
from aoi_mg11.analytic import (
    SystemConfig,
    age_report,
    avg_age,
    clock_mgf_A,
    clock_mgf_B,
    interdeparture_mgf,
    mean_interdeparture,
    mean_system_time,
    moments_from_mgf,
    peak_age,
    second_moment_interdeparture,
    system_time_mgf,
)
from aoi_mg11.distributions import Deterministic, Exponential, Gamma, Uniform
from aoi_mg11.errors import InvariantViolationError, ParameterDomainError

from conftest import random_system_config

REF = SystemConfig(1.5, (0.5, 0.3, 0.2), Exponential(1.0))


class TestAges:
    def test_single_stream_exponential(self):
        cfg = SystemConfig(1.5, (1.0,), Exponential(1.0))
        assert avg_age(cfg, 1) == pytest.approx(5.0 / 3.0, rel=1e-12)

    def test_multi_stream(self):
        assert avg_age(REF, 1) == pytest.approx(10.0 / 3.0, rel=1e-12)

    def test_degenerate_service_rejected(self):
        with pytest.raises(ParameterDomainError):
            SystemConfig(1.0, (0.5, 0.5), Deterministic(0.0))

    def test_the_first_rate_where_p_underflows_is_named(self):
        # e^{-800} and e^{-900} underflow to 0
        with pytest.raises(ParameterDomainError, match=r"^P\(lam\) underflows to 0 at total rate 800.0$"):
            analytic.beats_arrival(Deterministic(1.0), np.array([1.0, 800.0, 900.0]))
        with pytest.raises(ParameterDomainError, match=r"^P\(lam\) underflows to 0 at total rate 400.0$"):
            analytic.beats_arrival(Deterministic(np.array([1.0, 2.0])), 400.0)

    def test_nan_split_rejected(self):
        # NaN is neither <= 0 nor more than the tolerance away from 1
        with pytest.raises(ParameterDomainError, match="every stream probability must be > 0"):
            SystemConfig(1.0, (0.5, 0.5, math.nan), Exponential(1.0))

    def test_peak(self):
        assert peak_age(REF, 1) == pytest.approx(10.0 / 3.0 + 0.4, rel=1e-12)

    def test_peak_minus_avg_same_for_all_streams(self):
        diffs = [peak_age(REF, i) - avg_age(REF, i) for i in (1, 2, 3)]
        assert all(d == pytest.approx(0.16 / 0.4, rel=1e-12) for d in diffs)

    def test_low_rate_peak_expansion(self):
        cfg = SystemConfig(1e-3, (1.0,), Exponential(1.0))
        # to first order 1/lam + E[S]
        assert peak_age(cfg, 1) == pytest.approx(1001.0, rel=0.005)

    @pytest.mark.parametrize("shape", [10.0**k for k in range(4, 17)])
    def test_gamma_tends_to_deterministic(self, shape):
        # Gamma(k, d/k) tends to Deterministic(d); the ages' relative gap is about 5e-3/k
        limit = SystemConfig(1.0, (1.0,), Deterministic(0.1))
        cfg = SystemConfig(1.0, (1.0,), Gamma(shape, 0.1 / shape))
        for metric in (avg_age, peak_age):
            assert metric(cfg, 1) == pytest.approx(metric(limit, 1), rel=2e-2 / shape + 1e-13)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            avg_age(REF, 4)
        with pytest.raises(IndexError):
            peak_age(REF, 0)


class TestMgfs:
    def test_system_time_normalization(self):
        assert system_time_mgf(REF, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_system_time_value(self):
        assert system_time_mgf(REF, 0.5) == pytest.approx(1.25, rel=1e-12)

    def test_system_time_point_mass(self):
        cfg = SystemConfig(1.0, (1.0,), Deterministic(1.0))
        assert system_time_mgf(cfg, -1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_interdeparture_normalization(self):
        assert interdeparture_mgf(REF, 1, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_interdeparture_values(self):
        assert interdeparture_mgf(REF, 1, -0.5) == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert interdeparture_mgf(REF, 1, -1.0) == pytest.approx(3.0 / 17.0, rel=1e-12)

    def test_interdeparture_at_zero_under_heavy_load(self):
        # P(lam) is about 1e-13 here; the MGF is still exactly 1 at s=0
        cfg = SystemConfig(1.5, (0.5, 0.3, 0.2), Deterministic(20.0))
        for i in (1, 2, 3):
            assert interdeparture_mgf(cfg, i, 0.0) == 1.0

    def test_interdeparture_pole(self):
        # lam_1 * P(lam - s) = s has a root between 0 and lam_1
        with pytest.raises(ParameterDomainError, match="^interdeparture MGF pole near s="):
            # find the pole numerically, then evaluate there
            s = 0.0
            for _ in range(200):
                s = REF.stream_rate(1) * REF.service.laplace(REF.total_rate - s)
            interdeparture_mgf(REF, 1, s)

    def test_clock_mgfs(self):
        assert clock_mgf_A(REF, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert clock_mgf_B(REF, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert clock_mgf_A(REF, 0.5) == pytest.approx(1.5, rel=1e-12)
        assert clock_mgf_B(REF, 0.5) == pytest.approx(1.25, rel=1e-12)

    def test_clock_mgf_domain(self):
        with pytest.raises(ParameterDomainError):
            clock_mgf_A(REF, 1.5)
        with pytest.raises(ParameterDomainError):
            clock_mgf_B(REF, 2.0)


class TestMoments:
    def test_order_one_exponential(self):
        assert moments_from_mgf(lambda s: 1.5 / (1.5 - s), 1) == pytest.approx(2.0 / 3.0, abs=1e-6)

    def test_interdeparture_mean(self):
        phi = lambda s: interdeparture_mgf(REF, 1, s)
        assert moments_from_mgf(phi, 1) == pytest.approx(10.0 / 3.0, rel=1e-5)

    def test_interdeparture_second_moment(self):
        phi = lambda s: interdeparture_mgf(REF, 1, s)
        assert moments_from_mgf(phi, 2) == pytest.approx(176.0 / 9.0, rel=1e-3)

    def test_closed_forms(self):
        assert mean_system_time(REF) == pytest.approx(0.4, rel=1e-12)
        assert mean_interdeparture(REF, 1) == pytest.approx(10.0 / 3.0, rel=1e-12)
        assert second_moment_interdeparture(REF, 1) == pytest.approx(176.0 / 9.0, rel=1e-12)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            moments_from_mgf(lambda s: 1.0, 3)


class TestAgeReport:
    def test_decomposition_equals_direct(self):
        rep = age_report(REF)
        s1 = rep.streams[0]
        assert s1.avg_age == pytest.approx(
            0.4 + (176.0 / 9.0) / (20.0 / 3.0), rel=1e-12
        )
        assert s1.avg_age == pytest.approx(10.0 / 3.0, rel=1e-12)

    def test_single_stream_total(self):
        cfg = SystemConfig(1.5, (1.0,), Exponential(1.0))
        rep = age_report(cfg)
        assert rep.total_avg_age == rep.streams[0].avg_age

    def test_deterministic_two_streams(self):
        cfg = SystemConfig(1.0, (0.5, 0.5), Deterministic(1.0))
        rep = age_report(cfg)
        for s in rep.streams:
            assert s.avg_age == pytest.approx(2.0 * math.e, rel=1e-12)
        assert rep.total_avg_age == pytest.approx(4.0 * math.e, rel=1e-12)

    def test_delivery_rate_is_reciprocal_mean_gap(self):
        rep = age_report(REF)
        for s in rep.streams:
            assert s.delivery_rate * s.mean_interdeparture == pytest.approx(1.0, rel=1e-12)

    def test_peak_above_avg(self):
        rep = age_report(REF)
        for s in rep.streams:
            assert s.peak_age > s.avg_age


def old_second_moment(li, p, ew):
    """E[Y^2] as it was formed before the overflow of lam_i^2 P^2 was avoided."""
    with np.errstate(all="ignore"):
        return 2.0 * (-ew / (li * p * p) + 1.0 / (li * li * p * p))


class TestSecondMomentRange:
    """E[Y^2] no longer overflows in lam_i^2 P^2, and keeps every bit where the
    old expression passed age_columns' range check (0 < E[Y^2] < inf)."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        shape=st.tuples(st.integers(1, 3), st.integers(1, 4)),
        data=st.data(),
    )
    def test_the_bits_of_the_old_expression_where_it_was_in_range(self, shape, data):
        g, m = shape
        draw = lambda elements, n: np.array(data.draw(st.lists(elements, min_size=n, max_size=n)))  # noqa: E731
        li = draw(st.floats(5e-324, 1.7976931348623157e308), g * m).reshape(g, m)
        p = draw(st.floats(5e-324, 1.0), g).reshape(g, 1)
        ew = draw(st.floats(0.0, 1.7976931348623157e308), g).reshape(g, 1)
        old = old_second_moment(li, p, ew)
        with np.errstate(all="ignore"):
            new = analytic._second_moment_interdeparture(li, p, ew)
        in_range = (0.0 < old) & (old < np.inf)
        assert new[in_range].tolist() == old[in_range].tolist()
        for (k, j), was_in_range in np.ndenumerate(in_range):
            li_s, p_s, ew_s = np.float64(li[k, j]), np.float64(p[k, 0]), np.float64(ew[k, 0])
            with np.errstate(all="ignore"):
                scalar = analytic._second_moment_interdeparture(li_s, p_s, ew_s)
            assert np.shape(scalar) == ()
            assert (scalar == new[k, j]) or (np.isnan(scalar) and np.isnan(new[k, j]))
            if was_in_range:
                assert scalar == old_second_moment(li_s, p_s, ew_s)

    def test_past_the_overflow(self):
        # Gamma(1, 1) at lam = 1e155 split (.5, .5): E[Y] ~ 2 and E[T] ~ 1e-155,
        # so E[Y^2] = 2 / (lam_i P)^2 - 2 E[S e^(-lam S)] / (lam_i P^2) ~ 8
        li, p, ew = 5e154, 1.0000000000000027e-155, 1e-310
        exact = 2 * (-Fraction(ew) / (Fraction(li) * Fraction(p) ** 2) + 1 / (Fraction(li) * Fraction(p)) ** 2)
        assert not 0.0 < old_second_moment(li, np.float64(p), ew) < np.inf
        with np.errstate(all="ignore"):
            assert analytic._second_moment_interdeparture(li, p, ew) == pytest.approx(float(exact), rel=4e-16)
        row = age_report(SystemConfig(1e155, (0.5, 0.5), Gamma(1.0, 1.0))).streams[0]
        assert row.second_moment_interdeparture == pytest.approx(2 * row.mean_interdeparture**2, rel=4e-16)
        assert row.second_moment_interdeparture == pytest.approx(8.0, rel=1e-14)


class TestPeakAboveAverage:
    def test_equal_where_system_time_rounds_away(self):
        # E[T] = 6.3e-17 is below 2^-53 of the average age 1000
        row = age_report(SystemConfig(1.58e16, (1.0,), Exponential(0.001))).streams[0]
        assert row.peak_age == row.avg_age
        assert row.mean_system_time / row.avg_age < 2.0**-53

    def test_planted_peak_below_average_raises(self, monkeypatch):
        # E[T] is 1e-12 of the average: inside the dual-route tolerance, too
        # large to round away
        def below(li, p, ew):
            return analytic._avg_age(li, p) - analytic._mean_system_time(p, ew)

        monkeypatch.setattr(analytic, "_peak_age", below)
        with pytest.raises(InvariantViolationError, match="not above average age"):
            age_report(SystemConfig(1.0, (1.0,), Exponential(1e12)))


def skewed_avg_age(monkeypatch, stream: int) -> None:
    """Plant an error 1e-6 relative in the direct average age of one stream."""
    correct = analytic._avg_age

    def skewed(li, p):
        ages = correct(li, p)
        ages[..., stream - 1] *= 1.0 + 1e-6
        return ages

    monkeypatch.setattr(analytic, "_avg_age", skewed)


class TestCheckMessages:
    def test_route_error_names_its_stream_and_values(self, monkeypatch):
        row = age_report(REF).streams[1]
        direct = row.avg_age * (1.0 + 1e-6)
        decomposed = row.mean_system_time + row.second_moment_interdeparture / (2.0 * row.mean_interdeparture)
        skewed_avg_age(monkeypatch, 2)
        with pytest.raises(InvariantViolationError) as info:
            age_report(REF)
        assert str(info.value) == (
            f"avg_age stream 2: direct formula {direct!r} disagrees with moment decomposition {decomposed!r}"
        )

    def test_earlier_check_wins_over_earlier_stream(self, monkeypatch):
        # E[Y^2] = 2 / (lam_2 P)^2 overflows at stream 2, and a route error is
        # planted at stream 1: the range check comes first
        cfg = SystemConfig(1.0, (1.0, 1e-160), Exponential(1.0))
        skewed_avg_age(monkeypatch, 1)
        with pytest.raises(ParameterDomainError) as info:
            age_report(cfg)
        assert str(info.value) == "second_moment_interdeparture is outside the float range at (1e-160, 0.5, 0.25)"


class TestRandomConfigProperties:
    def test_dual_routes_and_numeric_moments(self, rng):
        for _ in range(100):
            cfg = random_system_config(rng)
            rep = age_report(cfg)  # raises on dual-route disagreement
            assert system_time_mgf(cfg, 0.0) == pytest.approx(1.0, abs=1e-12)
            e_t = mean_system_time(cfg)
            num_t = moments_from_mgf(lambda s: system_time_mgf(cfg, s), 1)
            assert abs(num_t - e_t) <= 1e-5 * abs(e_t)
            for i in range(1, cfg.num_streams + 1):
                assert interdeparture_mgf(cfg, i, 0.0) == pytest.approx(1.0, abs=1e-12)
                phi = lambda s, i=i: interdeparture_mgf(cfg, i, s)
                e_y = mean_interdeparture(cfg, i)
                e_y2 = second_moment_interdeparture(cfg, i)
                assert abs(moments_from_mgf(phi, 1) - e_y) <= 1e-5 * abs(e_y)
                assert abs(moments_from_mgf(phi, 2) - e_y2) <= 1e-5 * abs(e_y2)
            # peak decomposition is cross-checked inside age_report
            assert rep.total_avg_age == pytest.approx(
                math.fsum(s.avg_age for s in rep.streams), rel=1e-12
            )

    def test_age_strictly_decreasing_in_own_probability(self):
        dist = Exponential(1.0)
        ages = []
        peaks = []
        for p1 in np.linspace(0.1, 0.9, 9):
            cfg = SystemConfig(1.5, (p1, 1.0 - p1), dist)
            ages.append(avg_age(cfg, 1))
            peaks.append(peak_age(cfg, 1))
        assert all(b < a for a, b in zip(ages, ages[1:]))
        assert all(b < a for a, b in zip(peaks, peaks[1:]))


# one random law of each family, and the law of c*S for each
FAMILIES = {
    "exponential": lambda rng: Exponential(float(rng.uniform(0.2, 5.0))),
    "gamma": lambda rng: Gamma(float(rng.uniform(0.3, 4.0)), float(rng.uniform(0.1, 1.5))),
    "deterministic": lambda rng: Deterministic(float(rng.uniform(0.05, 2.0))),
    "uniform": lambda rng: Uniform(float(rng.uniform(0.0, 1.0)), float(rng.uniform(1.05, 2.5))),
}


def scaled(dist, c):
    if isinstance(dist, Exponential):
        return Exponential(dist.rate / c)
    if isinstance(dist, Gamma):
        return Gamma(dist.shape, dist.scale * c)
    if isinstance(dist, Deterministic):
        return Deterministic(dist.value * c)
    return Uniform(dist.lower * c, dist.upper * c)


class TestFormulaIdentity:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_report_rows_equal_public_functions(self, family, rng):
        for _ in range(25):
            m = int(rng.integers(1, 9))
            raw = rng.exponential(1.0, m)
            cfg = SystemConfig(float(rng.uniform(0.1, 4.0)), tuple(raw / raw.sum()), FAMILIES[family](rng))
            rep = age_report(cfg)
            for row in rep.streams:
                i = row.stream
                assert row.rate == cfg.stream_rate(i)
                assert row.avg_age == avg_age(cfg, i)
                assert row.peak_age == peak_age(cfg, i)
                assert row.mean_system_time == mean_system_time(cfg)
                assert row.mean_interdeparture == mean_interdeparture(cfg, i)
                assert row.second_moment_interdeparture == second_moment_interdeparture(cfg, i)
                assert row.delivery_rate == 1.0 / mean_interdeparture(cfg, i)


services = st.one_of(
    st.builds(Exponential, st.floats(0.1, 10.0)),
    st.builds(Gamma, st.floats(0.2, 5.0), st.floats(0.05, 2.0)),
    st.builds(Deterministic, st.floats(0.01, 3.0)),
    st.builds(lambda a, w: Uniform(a, a + w), st.floats(0.0, 2.0), st.floats(0.01, 2.0)),
)


class TestTimeRescaling:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        lam=st.floats(0.01, 10.0),
        weights=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=6),
        dist=services,
        c=st.builds(lambda m, k: m * 10.0**k, st.floats(1.0, 10.0), st.integers(-15, 15)),
    )
    def test_every_metric_scales_with_time(self, lam, weights, dist, c):
        # service time c*S at rate lam/c is the same system on a clock c times slower
        probs = tuple(w / math.fsum(weights) for w in weights)
        base = age_report(SystemConfig(lam, probs, dist))
        slow = age_report(SystemConfig(lam / c, probs, scaled(dist, c)))
        powers = {
            "avg_age": 1,
            "peak_age": 1,
            "mean_system_time": 1,
            "mean_interdeparture": 1,
            "second_moment_interdeparture": 2,
            "delivery_rate": -1,
        }
        for row, row_c in zip(base.streams, slow.streams):
            for name, k in powers.items():
                want = getattr(row, name) * c**k
                assert getattr(row_c, name) == pytest.approx(want, rel=1e-12), name
        assert slow.total_avg_age == pytest.approx(base.total_avg_age * c, rel=1e-12)
        assert slow.total_peak_age == pytest.approx(base.total_peak_age * c, rel=1e-12)


class TestPlantedErrors:
    # age_report's dual-route check is relative, so it catches an error planted
    # in any one metric whatever the time unit: the README split at lam = 1.5/c
    # with each law rescaled by c
    @pytest.mark.parametrize(
        "metric", ["_avg_age", "_peak_age", "_mean_system_time", "_mean_interdeparture", "_second_moment_interdeparture"]
    )
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        dist=st.sampled_from([Exponential(1.0), Gamma(2.0, 0.5), Deterministic(0.5), Uniform(0.2, 1.0)]),
        c=st.builds(lambda m, k: m * 10.0**k, st.floats(1.0, 10.0), st.integers(-15, 15)),
        error=st.sampled_from([1e-6, 0.2]),
    )
    def test_every_planted_error_raises(self, metric, dist, c, error):
        cfg = SystemConfig(1.5 / c, (0.5, 0.3, 0.2), scaled(dist, c))
        age_report(cfg)
        correct = getattr(analytic, metric)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analytic, metric, lambda *args: (1.0 + error) * correct(*args))
            with pytest.raises(InvariantViolationError):
                age_report(cfg)


class TestStreamRelabelling:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        lam=st.floats(0.01, 10.0),
        weights=st.lists(st.floats(0.05, 1.0), min_size=2, max_size=6),
        dist=services,
        data=st.data(),
    )
    def test_permuting_the_split_permutes_every_row(self, lam, weights, dist, data):
        perm = data.draw(st.permutations(range(len(weights))))
        probs = tuple(w / math.fsum(weights) for w in weights)
        base = age_report(SystemConfig(lam, probs, dist))
        relabelled = age_report(SystemConfig(lam, tuple(probs[k] for k in perm), dist))
        for j, k in enumerate(perm):
            assert dataclasses.replace(relabelled.streams[j], stream=k + 1) == base.streams[k]
        assert relabelled.total_avg_age == base.total_avg_age
        assert relabelled.total_peak_age == base.total_peak_age
