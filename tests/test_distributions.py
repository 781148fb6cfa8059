import json
import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from aoi_mg11 import cli
from aoi_mg11.distributions import (
    Deterministic,
    Exponential,
    Gamma,
    Uniform,
    _dem1_over,
    distribution_from_config,
)
from aoi_mg11.errors import ConfigError, ParameterDomainError

# variants with a density, plus the pdf for quadrature oracles
DENSITY_VARIANTS = [
    (Exponential(1.0), lambda t: stats.expon(scale=1.0).pdf(t), (-0.5, 5.0)),
    (Exponential(2.5), lambda t: stats.expon(scale=0.4).pdf(t), (-1.0, 5.0)),
    (Gamma(2.0, 0.5), lambda t: stats.gamma(2.0, scale=0.5).pdf(t), (-1.5, 5.0)),
    (Gamma(0.7, 1.3), lambda t: stats.gamma(0.7, scale=1.3).pdf(t), (-0.5, 5.0)),
    (Uniform(0.0, 2.0), lambda t: stats.uniform(0.0, 2.0).pdf(t), (-5.0, 5.0)),
    (Uniform(0.5, 1.25), lambda t: stats.uniform(0.5, 0.75).pdf(t), (-5.0, 5.0)),
]

ALL_VARIANTS = [d for d, _, _ in DENSITY_VARIANTS] + [Deterministic(2.0), Deterministic(0.7)]


def _integrand(pdf, s, weight):
    # evaluate the density first so the exponential factor is never formed
    # where the density already vanished (it can overflow for s < 0)
    def f(t):
        d = pdf(t)
        return 0.0 if d == 0.0 else weight(t) * d * math.exp(-s * t)

    return f


def quad_laplace(pdf, s):
    val, err = integrate.quad(_integrand(pdf, s, lambda t: 1.0), 0, np.inf, limit=200)
    assert err < 1e-7 * max(1.0, abs(val))
    return val


def quad_weighted_mean(pdf, s):
    val, err = integrate.quad(_integrand(pdf, s, lambda t: t), 0, np.inf, limit=200)
    assert err < 1e-7 * max(1.0, abs(val))
    return val


class TestLaplace:
    def test_exponential_closed_form(self):
        assert Exponential(1.0).laplace(1.5) == pytest.approx(0.4, abs=1e-12)

    def test_deterministic_at_zero(self):
        assert Deterministic(2.0).laplace(0.0) == 1.0

    def test_gamma_vs_quadrature(self):
        dist = Gamma(2.0, 0.5)
        assert dist.laplace(1.0) == pytest.approx(4.0 / 9.0, abs=1e-10)
        assert dist.laplace(1.0) == pytest.approx(quad_laplace(stats.gamma(2.0, scale=0.5).pdf, 1.0), abs=1e-10)

    @pytest.mark.parametrize("dist,pdf,lo_hi", DENSITY_VARIANTS)
    def test_matches_quadrature_on_grid(self, dist, pdf, lo_hi):
        # one call on the array of s
        lo, hi = lo_hi
        grid = np.linspace(lo + 0.05, hi, 12)
        for s, value, weighted in zip(grid.tolist(), dist.laplace(grid), dist.exp_weighted_mean(grid)):
            ref = quad_laplace(pdf, s)
            assert abs(value - ref) < 1e-8 * max(1.0, abs(ref))
            ref = quad_weighted_mean(pdf, s)
            assert abs(weighted - ref) < 1e-8 * max(1.0, abs(ref))

    @pytest.mark.parametrize("dist", ALL_VARIANTS)
    def test_normalized_and_decreasing(self, dist):
        assert dist.laplace(0.0) == 1.0
        grid = np.linspace(0.0, 4.0, 15)
        vals = [dist.laplace(s) for s in grid]
        assert all(0.0 < v <= 1.0 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_uniform_near_zero_is_smooth(self):
        dist = Uniform(0.5, 2.0)
        for s in (1e-13, -1e-13, 1e-9, 1e-6, 1e-3):
            assert dist.laplace(s) == pytest.approx(
                quad_laplace(stats.uniform(0.5, 1.5).pdf, s), abs=1e-10
            )

    def test_convergence_region(self):
        with pytest.raises(ParameterDomainError):
            Exponential(1.0).laplace(-1.0)
        with pytest.raises(ParameterDomainError):
            Gamma(2.0, 0.5).laplace(-2.0)
        # deterministic and uniform converge everywhere
        Deterministic(1.0).laplace(-50.0)
        Uniform(0.0, 1.0).laplace(-50.0)


class TestExpWeightedMean:
    def test_exponential_closed_form(self):
        assert Exponential(1.0).exp_weighted_mean(1.5) == pytest.approx(0.16, abs=1e-12)

    def test_deterministic_at_zero_is_mean(self):
        assert Deterministic(2.0).exp_weighted_mean(0.0) == 2.0

    def test_gamma_vs_quadrature(self):
        dist = Gamma(2.0, 0.5)
        expected = 1.0 * 1.5 ** -3
        assert dist.exp_weighted_mean(1.0) == pytest.approx(expected, rel=1e-10)
        assert dist.exp_weighted_mean(1.0) == pytest.approx(
            quad_weighted_mean(stats.gamma(2.0, scale=0.5).pdf, 1.0), abs=1e-10
        )

    @pytest.mark.parametrize("dist", ALL_VARIANTS)
    @pytest.mark.parametrize("lam", [0.0, 0.3, 1.0, 2.5])
    def test_is_negative_laplace_derivative(self, dist, lam):
        h = 1e-5 * max(1.0, lam)
        central = (dist.laplace(lam + h) - dist.laplace(lam - h)) / (2 * h)
        assert abs(dist.exp_weighted_mean(lam) + central) < 1e-6

    def test_uniform_near_zero(self):
        dist = Uniform(0.0, 2.0)
        assert dist.exp_weighted_mean(0.0) == pytest.approx(1.0, abs=1e-12)
        for s in (1e-10, 1e-6, 1e-3):
            assert dist.exp_weighted_mean(s) == pytest.approx(
                quad_weighted_mean(stats.uniform(0.0, 2.0).pdf, s), abs=1e-9
            )


class TestArrays:
    @pytest.mark.parametrize("dist", ALL_VARIANTS)
    def test_array_of_s_is_each_element(self, dist):
        grid = np.append(np.linspace(-0.4, 6.0, 41), [0.0, 1e-300, 40.0])
        for method in (dist.laplace, dist.exp_weighted_mean):
            values = method(grid)
            assert values.shape == grid.shape
            assert values.tolist() == [float(method(s)) for s in grid.tolist()]

    @pytest.mark.parametrize(
        "cls, fields",
        [
            (Exponential, {"rate": [0.3, 1.0, 7.5, 1e-9]}),
            (Gamma, {"shape": [0.7, 2.0, 30.0, 1e16], "scale": [1.3, 0.5, 0.01, 1e-17]}),
            (Deterministic, {"value": [0.2, 1.0, 3.5, 1e-12]}),
            (Uniform, {"lower": [0.0, 0.5, 2.0, 0.0], "upper": [2.0, 1.25, 2.0 + 1e-9, 1e-12]}),
        ],
    )
    def test_array_fields_are_each_law(self, cls, fields):
        law = cls(**{name: np.array(values) for name, values in fields.items()})
        laws = [cls(*point) for point in zip(*fields.values())]
        for s in (0.0, 0.7, np.array([0.1, 1.5, 3.0, 1e6])):
            grid = np.broadcast_to(s, (len(laws),)).tolist()
            for name in ("laplace", "exp_weighted_mean"):
                each = [float(getattr(one, name)(x)) for one, x in zip(laws, grid)]
                assert getattr(law, name)(s).tolist() == each

    def test_exponential_squares_a_float_as_an_array(self):
        # a float s is squared by numpy too: the C library's pow differs from
        # it in the last bit of some values, and raises past the float range
        law = Exponential(1.0)
        grid = np.random.default_rng(3).uniform(0.0, 10.0, 10_000)
        assert law.exp_weighted_mean(grid).tolist() == [float(law.exp_weighted_mean(s)) for s in grid.tolist()]
        for s in (1e200, np.array([1.0, 1e200])):
            with pytest.raises(ParameterDomainError, match=r"^E\[S e\^\(-sS\)\] at s=1e\+200 is outside the float range$"):
                law.exp_weighted_mean(s)

    def test_the_first_bad_field_value_is_named(self):
        with pytest.raises(ParameterDomainError, match=r"^Uniform upper must exceed lower, got \[0.5, 0.4\]$"):
            Uniform(0.5, np.array([1.0, 0.4, 0.3]))
        with pytest.raises(ParameterDomainError, match=r"^Gamma scale must be > 0, got nan$"):
            Gamma(2.0, np.array([1.0, np.nan, -1.0]))

    def test_the_first_bad_argument_is_named(self):
        with pytest.raises(ParameterDomainError, match=r"^Laplace argument -3.0 <= -rate -2.0$"):
            Exponential(2.0).laplace(np.array([1.0, -3.0, -4.0]))
        with pytest.raises(ParameterDomainError, match=r"^E\[e\^\(-sS\)\] at s=-1000.0 is outside the float range$"):
            Uniform(0.0, 1.0).laplace(np.array([-1.0, -1000.0]))


def old_exponential(rate, s):
    """Exponential's laplace and exp_weighted_mean as rate / (rate + s) and
    rate / (rate + s)^2, with the sum and the square formed first: the two
    values, each with where its intermediate was in the float range."""
    with np.errstate(all="ignore"):
        total = rate + np.asarray(s, dtype=float)
        square = np.square(total)
        return rate / total, total < np.inf, rate / square, (0.0 < square) & (square < np.inf)


class TestExponentialRange:
    """Exponential's methods avoid the overflow of rate + s and of its square,
    and keep every bit where the old expression was finite."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(rate=st.floats(5e-324, 1.7976931348623157e308), data=st.data())
    def test_the_bits_of_the_old_expression_where_it_was_finite(self, rate, data):
        finite = st.floats(-rate, 1.7976931348623157e308, exclude_min=True)
        grid = np.array(data.draw(st.lists(finite, min_size=1, max_size=8)))
        law = Exponential(rate)
        laplace, sum_in_range, mean, square_in_range = old_exponential(rate, grid)
        assert law.laplace(grid)[sum_in_range].tolist() == laplace[sum_in_range].tolist()
        if square_in_range.any():
            assert law.exp_weighted_mean(grid[square_in_range]).tolist() == mean[square_in_range].tolist()
        for k, s in enumerate(grid.tolist()):
            if sum_in_range[k]:
                assert float(law.laplace(s)) == laplace[k]
            if square_in_range[k]:
                assert float(law.exp_weighted_mean(s)) == mean[k]

    def test_past_the_overflow(self):
        huge = 8.98846567431158e307  # rate + rate overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert Exponential(huge).laplace(huge) == 0.5
            assert Exponential(1e155).exp_weighted_mean(1.0) == 1e-155
            assert Exponential(1e-170).exp_weighted_mean(np.array([0.0, 1.0])).tolist() == [1e170, 1e-170]

    def test_rate_1e155_is_gamma_of_shape_1(self, tmp_path, capsys):
        rows = []
        for service in ({"type": "exponential", "rate": 1e155}, {"type": "gamma", "shape": 1.0, "scale": 1e-155}):
            config = tmp_path / "system.json"
            config.write_text(json.dumps({"system": {"total_rate": 1.0, "stream_probs": [0.5, 0.5], "service": service}}))
            assert cli.main(["analyze", "-c", str(config)]) == 0
            rows.append(capsys.readouterr().out)
        assert rows[0] == rows[1]
        assert rows[0].splitlines()[1] == "1,0.5,0.5,2,2,1e-155,2,8,0.5"

    def test_optimize_at_the_float_maximum_warns_nothing(self, capsys):
        rates = ["--rate", "8.988465674311579e+307", "--service-rate", "8.98846567431158e+307"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["optimize", *rates, "--streams", "1", "--points", "0", "--service", "exponential"])
        # P(lam) = 0.5 now, but E[S e^(-sS)] = 1 / (4 rate) is subnormal
        assert code == 3
        assert capsys.readouterr().err == "domain error: E[S e^(-sS)] at s=8.988465674311579e+307 is outside the float range\n"


class TestSampling:
    def test_deterministic_point_mass(self, rng):
        assert np.all(Deterministic(2.0).sample(rng, 10) == 2.0)

    def test_exponential_mean(self, rng):
        n = 10**6
        x = Exponential(1.0).sample(rng, n)
        assert abs(x.mean() - 1.0) < 5.0 / math.sqrt(n)

    def test_gamma_moments(self, rng):
        n = 10**6
        x = Gamma(2.0, 0.5).sample(rng, n)
        assert abs(x.mean() - 1.0) < 5.0 * math.sqrt(0.5 / n)
        assert x.var() == pytest.approx(0.5, rel=0.02)

    @pytest.mark.parametrize("dist", ALL_VARIANTS)
    def test_strictly_positive(self, rng, dist):
        assert np.all(dist.sample(rng, 10_000) > 0.0)

    @pytest.mark.parametrize("dist", ALL_VARIANTS)
    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    def test_empirical_laplace_within_5_sigma(self, rng, dist, s):
        n = 10**6
        e = np.exp(-s * np.asarray(dist.sample(rng, n), dtype=float))
        band = 5.0 * e.std(ddof=1) / math.sqrt(n) + 1e-12
        assert abs(e.mean() - dist.laplace(s)) < band


class TestParameters:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: Exponential(0.0),
            lambda: Exponential(-1.0),
            lambda: Gamma(0.0, 1.0),
            lambda: Gamma(1.0, -0.5),
            lambda: Deterministic(0.0),
            lambda: Uniform(-0.1, 1.0),
            lambda: Uniform(1.0, 1.0),
        ],
    )
    def test_rejected(self, make):
        with pytest.raises(ParameterDomainError):
            make()

    @pytest.mark.parametrize("dist", ALL_VARIANTS)
    def test_mean_positive_finite(self, dist):
        mean = dist.exp_weighted_mean(0.0)  # E[S]
        assert mean > 0
        assert math.isfinite(mean)


class TestConfigSpelling:
    @pytest.mark.parametrize("dist", ALL_VARIANTS)
    def test_round_trip(self, dist):
        assert distribution_from_config(dist.to_config()) == dist

    def test_unknown_type(self):
        with pytest.raises(ConfigError):
            distribution_from_config({"type": "pareto", "alpha": 2})

    def test_stray_field(self):
        with pytest.raises(ConfigError):
            distribution_from_config({"type": "exponential", "rate": 1.0, "mu": 1.0})

    def test_missing_field(self):
        with pytest.raises(ConfigError):
            distribution_from_config({"type": "gamma", "shape": 2.0})

    def test_bad_parameter_value(self):
        with pytest.raises(ConfigError):
            distribution_from_config({"type": "deterministic", "value": 0.0})


def test_dem1_over_relative_error_against_50_digits():
    # (e^{-x}(1 + x) - 1) / x^2 on a log grid of +-x from 1e-8 to 10, in one
    # call on the array; the closed form alone loses digits to cancellation
    # for small |x|
    grid = [sign * 10.0 ** (-8 + k / 40) for k in range(361) for sign in (1.0, -1.0)]
    values = _dem1_over(np.array(grid)).tolist()
    with localcontext() as ctx:
        ctx.prec = 50
        for x, value in zip(grid, values):
            d = Decimal(x)
            ref = ((-d).exp() * (1 + d) - 1) / (d * d)
            assert abs((Decimal(value) - ref) / ref) <= Decimal("1e-14"), x
            assert value == _dem1_over(x), x
