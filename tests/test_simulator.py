import math

import numpy as np
import pytest

from aoi_mg11.analytic import (
    SystemConfig,
    avg_age,
    clock_mgf_A,
    clock_mgf_B,
    interdeparture_mgf,
    mean_system_time,
    peak_age,
    system_time_mgf,
)
from aoi_mg11.distributions import Deterministic, Exponential, Gamma, Uniform
from aoi_mg11.errors import (
    ConditioningTooRareError,
    InsufficientDataError,
    ParameterDomainError,
)
from aoi_mg11.simulator import (
    SimParams,
    clock_conditional_sampler,
    empirical_mgf_probe,
    run,
)

REF = SystemConfig(1.5, (0.5, 0.3, 0.2), Exponential(1.0))


@pytest.fixture(scope="module")
def ref_result():
    return run(SimParams(REF, max_time=2e5, seed=42, replications=2, mgf_probes=(-0.5, -1.0)))


class TestAgainstClosedForms:
    def test_avg_and_peak_age(self, ref_result):
        for s in ref_result.streams:
            assert s.avg_age == pytest.approx(avg_age(REF, s.stream), rel=0.02)
            assert s.peak_age == pytest.approx(peak_age(REF, s.stream), rel=0.02)

    def test_mean_system_time(self, ref_result):
        for s in ref_result.streams:
            assert s.mean_system_time == pytest.approx(mean_system_time(REF), rel=0.02)

    def test_delivery_rate(self, ref_result):
        p = REF.service_beats_arrival()
        for s in ref_result.streams:
            assert s.delivery_rate == pytest.approx(REF.stream_rate(s.stream) * p, rel=0.02)

    def test_gamma_service(self):
        cfg = SystemConfig(1.5, (0.5, 0.5), Gamma(2.0, 0.5))
        res = run(SimParams(cfg, max_time=2e5, seed=7, replications=2))
        for s in res.streams:
            assert s.avg_age == pytest.approx(avg_age(cfg, s.stream), rel=0.02)

    def test_uniform_service(self):
        cfg = SystemConfig(1.0, (0.6, 0.4), Uniform(0.0, 2.0))
        res = run(SimParams(cfg, max_time=2e5, seed=7, replications=2))
        for s in res.streams:
            assert s.avg_age == pytest.approx(avg_age(cfg, s.stream), rel=0.02)

    def test_near_idle_deterministic(self):
        cfg = SystemConfig(0.01, (1.0,), Deterministic(1.0))
        res = run(SimParams(cfg, max_time=1e7, seed=3, replications=1))
        assert res.streams[0].avg_age == pytest.approx(1.0 / (0.01 * math.exp(-0.01)), rel=0.02)


class TestSamplePathIdentities:
    def test_renewal_identity(self, ref_result):
        for s in ref_result.streams:
            assert s.delivery_rate * s.mean_interdeparture == pytest.approx(1.0, abs=0.01)

    def test_age_decomposition(self, ref_result):
        for s in ref_result.streams:
            decomposed = s.mean_system_time + s.second_moment_interdeparture / (
                2.0 * s.mean_interdeparture
            )
            assert s.avg_age == pytest.approx(decomposed, rel=0.005)

    def test_peak_decomposition(self, ref_result):
        for s in ref_result.streams:
            assert s.peak_age == pytest.approx(
                s.mean_system_time + s.mean_interdeparture, rel=0.005
            )

    def test_system_time_is_winning_service(self, ref_result):
        expected = mean_system_time(REF)
        for r in range(ref_result.replications):
            for t in ref_result.tallies[r]:
                x = t.system_times
                sigma = x.std(ddof=1) / math.sqrt(len(x))
                assert abs(x.mean() - expected) < 3.0 * sigma + 0.005 * expected


class TestDeterminismAndSymmetry:
    def test_identical_seed_identical_result(self):
        p = SimParams(REF, max_time=5e4, seed=11, replications=2, mgf_probes=(-0.5,))
        a, b = run(p), run(p)
        for sa, sb in zip(a.streams, b.streams):
            assert sa == sb

    def test_different_seed_different_result(self):
        a = run(SimParams(REF, max_time=5e4, seed=11))
        b = run(SimParams(REF, max_time=5e4, seed=12))
        assert a.streams[0].avg_age != b.streams[0].avg_age

    def test_stream_relabeling_symmetry(self):
        perm = (2, 0, 1)  # new label j gets old stream perm[j]
        probs = tuple(REF.stream_probs[perm[j]] for j in range(3))
        cfg_perm = SystemConfig(REF.total_rate, probs, REF.service)
        base = run(SimParams(REF, max_time=5e4, seed=5))
        relabeled = run(
            SimParams(cfg_perm, max_time=5e4, seed=5, stream_substreams=perm)
        )
        for j in range(3):
            sa = base.streams[perm[j]]
            sb = relabeled.streams[j]
            assert sb.avg_age == sa.avg_age
            assert sb.peak_age == sa.peak_age
            assert sb.delivery_rate == sa.delivery_rate


class TestStopRules:
    def test_min_deliveries(self):
        res = run(
            SimParams(REF, min_deliveries_per_stream=2000, seed=9, replications=1)
        )
        for s in res.streams:
            assert s.deliveries >= 2000

    def test_param_validation(self):
        with pytest.raises(ParameterDomainError):
            SimParams(REF)  # no stop rule
        with pytest.raises(ParameterDomainError):
            SimParams(REF, max_time=10.0, min_deliveries_per_stream=5)
        with pytest.raises(ParameterDomainError):
            SimParams(REF, max_time=0.0)
        with pytest.raises(ParameterDomainError):
            SimParams(REF, max_time=10.0, warmup_fraction=1.0)
        with pytest.raises(ParameterDomainError):
            SimParams(REF, max_time=10.0, replications=0)
        with pytest.raises(ParameterDomainError):
            SimParams(REF, max_time=10.0, mgf_probes=(0.5,))
        with pytest.raises(ParameterDomainError):
            SimParams(REF, max_time=10.0, stream_substreams=(0, 1))


class TestEmpiricalMgf:
    def test_probe_at_zero(self, ref_result):
        tally = ref_result.tallies[0][0]
        mean, se = empirical_mgf_probe(tally, 0.0)
        assert mean == 1.0 and se == 0.0

    def test_probe_matches_closed_form(self, ref_result):
        for s in (-0.5, -1.0):
            expected = interdeparture_mgf(REF, 1, s)
            tally = ref_result.tallies[0][0]
            mean, se = empirical_mgf_probe(tally, s)
            assert abs(mean - expected) < 4.0 * se + 1e-4

    def test_aggregated_probes(self, ref_result):
        for s_stats in ref_result.streams:
            for s, (mean, se) in s_stats.mgf_probes.items():
                expected = interdeparture_mgf(REF, s_stats.stream, s)
                assert abs(mean - expected) < 6.0 * se + 0.01 * expected

    def test_positive_s_rejected(self, ref_result):
        with pytest.raises(ParameterDomainError):
            empirical_mgf_probe(ref_result.tallies[0][0], 0.5)

    def test_insufficient_data(self):
        res = run(SimParams(REF, max_time=2.0, seed=1))
        with pytest.raises(InsufficientDataError):
            empirical_mgf_probe(res.tallies[0][2], -0.5)


class TestConditionalClocks:
    N = 200_000

    def test_trivial_at_zero(self, rng):
        stats = clock_conditional_sampler(REF, 1, "A", self.N, rng)
        assert stats[0.0][0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("which", ["A", "Z"])
    def test_idle_clocks(self, rng, which):
        stats = clock_conditional_sampler(REF, 1, which, self.N, rng)
        for s, (mean, se) in stats.items():
            assert abs(mean - clock_mgf_A(REF, s)) < 5.0 * se + 1e-12

    @pytest.mark.parametrize("which", ["B", "V"])
    def test_preempting_clocks(self, rng, which):
        stats = clock_conditional_sampler(REF, 1, which, self.N, rng)
        for s, (mean, se) in stats.items():
            assert abs(mean - clock_mgf_B(REF, s)) < 5.0 * se + 1e-12

    def test_service_clock_matches_system_time(self, rng):
        stats = clock_conditional_sampler(REF, 1, "U", self.N, rng, s_values=(-0.5, 0.25))
        for s, (mean, se) in stats.items():
            assert abs(mean - system_time_mgf(REF, s)) < 5.0 * se + 1e-12

    def test_single_stream_foreign_clock_never_fires(self, rng):
        cfg = SystemConfig(1.5, (1.0,), Exponential(1.0))
        with pytest.raises(ConditioningTooRareError):
            clock_conditional_sampler(cfg, 1, "Z", 10_000, rng)

    def test_unknown_clock(self, rng):
        with pytest.raises(ParameterDomainError):
            clock_conditional_sampler(REF, 1, "Q", 100, rng)
