import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from aoi_mg11 import cli, simulator
from aoi_mg11.analytic import (
    SystemConfig,
    avg_age,
    clock_mgf_A,
    clock_mgf_B,
    interdeparture_mgf,
    mean_system_time,
    moments_from_mgf,
    peak_age,
    system_time_mgf,
)
from aoi_mg11.distributions import Deterministic, Exponential, Gamma, Uniform
from aoi_mg11.errors import InsufficientDataError, ParameterDomainError
from aoi_mg11.simulator import (
    SimParams,
    clock_conditional_sampler,
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
        second = moments_from_mgf(lambda s: system_time_mgf(REF, s), 2)
        for r in range(ref_result.replications):
            for t in ref_result.tallies[r]:
                n = t.deliveries
                sigma = math.sqrt((second - expected * expected) / n)
                assert abs(t.t_sum / n - expected) < 3.0 * sigma + 0.005 * expected


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


def traced_run(params: SimParams):
    """run with the trace of its first replication collected through the sink:
    the result, and the blocks joined into four columns."""
    blocks = []
    result = run(params, blocks.append)
    return result, tuple(np.concatenate(column) for column in zip(*blocks))


def reference_trace(params: SimParams):
    """The first replication's event trace (time rule), simulated in one piece
    and sorted by one lexsort: the brute-force reference for the streamed
    blocks, with the number of arrivals that beat the next one but are
    delivered after the horizon. The draws come in the same order whatever
    the chunk size, so the sample path is the chunked one."""
    cfg, m, horizon = params.cfg, params.cfg.num_streams, params.max_time
    # a replication's children: arrivals, services, labels, the trace's labels
    children = np.random.SeedSequence(params.seed).spawn(params.replications)[0].spawn(4)
    gaps = np.random.default_rng(children[0]).exponential(1.0 / cfg.total_rate, int(2 * cfg.total_rate * horizon) + 100)
    times = np.cumsum(gaps)
    n = int(np.searchsorted(times, horizon, side="right"))
    assert n < len(times)
    arr, nxt = times[:n], times[1 : n + 1]
    services = cfg.service.sample(np.random.default_rng(children[1]), n)
    done = arr + services
    # an arrival that beats the next one is delivered, and labelled from the
    # statistics' substream, even when its delivery falls after the horizon
    beats_next = services <= nxt - arr
    labels = np.empty(n, dtype=int)
    labels[beats_next] = np.random.default_rng(children[2]).choice(m, np.count_nonzero(beats_next), p=cfg.stream_probs)
    labels[~beats_next] = np.random.default_rng(children[3]).choice(m, np.count_nonzero(~beats_next), p=cfg.stream_probs)
    idx = np.flatnonzero(beats_next & (done <= horizon))
    pre = np.flatnonzero(~beats_next & (nxt <= horizon))
    kind = {name: code for code, name in enumerate(simulator.TRACE_KINDS)}
    columns = (
        np.concatenate((arr, done[idx], nxt[pre])),
        np.repeat([kind["arrival"], kind["delivery"], kind["preemption"]], (n, len(idx), len(pre))),
        np.concatenate((labels, labels[idx], labels[pre])) + 1,
        np.concatenate((arr, arr[idx], arr[pre])),
    )
    order = np.lexsort((columns[1], columns[0]))
    straddling = np.count_nonzero(beats_next & (done > horizon))
    return tuple(column[order] for column in columns), straddling


def trace_csv(columns) -> str:
    """The trace CSV of four columns, a value at a time."""
    rows = zip(*(column.tolist() for column in columns))
    return "time,kind,stream,generation_time\n" + "".join(
        f"{t!r},{simulator.TRACE_KINDS[k]},{s},{g!r}\n" for t, k, s, g in rows
    )


class TestDeliveredOnlyLabels:
    """Only delivered arrivals draw labels from the statistics' substream; the
    trace labels the rest from a substream of its own."""

    @pytest.mark.parametrize(
        "rule, horizons",
        [
            ({"max_time": 1e5, "replications": 2, "seed": 2}, (1e5, 1e5)),
            ({"min_deliveries_per_stream": 3, "replications": 4, "warmup_fraction": 0.5, "seed": 1}, (104.0, 65.0, 65.0, 65.0)),
        ],
        ids=["time", "count-with-reruns"],
    )
    def test_trace_does_not_change_the_statistics(self, rule, horizons):
        # the time rule spans three chunks, so a later chunk's labels would show
        # any draw the trace took from the statistics' substream; under the
        # count rule, replication 0 extends its horizon
        params = SimParams(REF, mgf_probes=(-0.5, -1.0), **rule)
        plain, (traced, trace) = run(params), traced_run(params)
        assert len(trace[0]) > 0
        assert plain.horizons == horizons
        assert traced.horizons == plain.horizons
        assert traced.streams == plain.streams
        assert traced.tallies == plain.tallies

    def test_trace_delivery_rows_match_the_tallies(self):
        res, (_, kind, stream, _) = traced_run(SimParams(REF, max_time=2e4, seed=3, warmup_fraction=0.0))
        delivered = stream[kind == simulator.TRACE_KINDS.index("delivery")]
        for t in res.tallies[0]:
            assert t.deliveries > 0
            assert np.count_nonzero(delivered == t.stream) == t.deliveries


class TestLabelLaw:
    """A replication's labels: one categorical draw per delivered arrival, from
    one of four children that every replication spawns once."""

    PROBS = (0.4, 0.25, 0.15, 0.1, 0.06, 0.03, 0.01)

    def test_frequencies_match_the_split(self):
        n = 10**6
        counts = np.bincount(simulator._labels(np.random.default_rng(16), self.PROBS, n), minlength=len(self.PROBS))
        assert chisquare(counts, n * np.array(self.PROBS)).pvalue > 1e-3
        # the test sees a split 0.5% off in stream 1 and 2
        biased = n * (np.array(self.PROBS) + np.array([0.005, -0.005, 0, 0, 0, 0, 0]))
        assert chisquare(counts, biased).pvalue < 1e-9

    def test_one_stream_is_all_zeros(self):
        labels = simulator._labels(np.random.default_rng(1), (1.0,), 1000)
        assert len(labels) == 1000 and not labels.any()

    @pytest.mark.parametrize("m", [1, 2, 255, 256, 300])
    def test_dtype_holds_the_trace_labels(self, m):
        # the trace writes label + 1, up to m
        labels = simulator._labels(np.random.default_rng(1), (1.0 / m,) * m, 10)
        assert labels.dtype == np.min_scalar_type(m)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        weights=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=300).filter(lambda w: sum(w) > 0),
        sizes=st.lists(st.sampled_from([0, 1, 65_536]), min_size=2, max_size=2),
        seed=st.integers(0, 2**32),
    )
    @example(weights=[1e-300, 1.0 - 1e-300], sizes=[65_536, 65_536], seed=0)
    @example(weights=[1.0] * 300, sizes=[65_536, 1], seed=1)  # two blocks of breakpoints
    def test_bits_and_state_are_rng_choice(self, weights, sizes, seed):
        # the labels are rng.choice's, element for element and in the same
        # dtype, and leave the generator where choice leaves it
        probs = tuple((np.array(weights) / math.fsum(weights)).tolist())
        m = len(probs)
        mine, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for n in sizes:
            labels = simulator._labels(mine, probs, n)
            expected = ref.choice(m, n, p=probs).astype(np.min_scalar_type(m))
            assert labels.dtype == expected.dtype
            assert np.array_equal(labels, expected)
        assert mine.random() == ref.random()

    def test_a_uniform_on_a_breakpoint_takes_the_next_stream(self):
        # as in choice's search of the CDF, side="right"; a draw hits a
        # breakpoint too rarely for the property above to see it
        uniforms = np.array([0.0, 0.25, 0.5, 0.75, 0.5 - 2**-53])

        class Draws:
            def random(self, n):
                return uniforms

        labels = simulator._labels(Draws(), (0.25, 0.25, 0.5), len(uniforms))
        assert labels.tolist() == [0, 1, 2, 2, 1] == np.searchsorted([0.25, 0.5, 1.0], uniforms, side="right").tolist()

    @pytest.mark.parametrize("m", [1, 3, 7])
    @pytest.mark.parametrize("traced", [False, True])
    def test_every_pass_spawns_four_children(self, m, traced):
        # a replication is one pass, whether it keeps its horizon of 50 or
        # extends it on the same path until each stream has 50 deliveries
        cfg = SystemConfig(1.5, (1.0 / m,) * m, Exponential(1.0))
        sink = (lambda block: None) if traced else None
        for min_deliveries, extends in ((None, False), (50, True)):
            seed_seq = np.random.SeedSequence(3)
            _, horizon = simulator._simulate_replication(cfg, 50.0, seed_seq, 0.0, (), min_deliveries, sink)
            assert (horizon > 50.0) == extends
            assert seed_seq.n_children_spawned == 4


class TestSamplePath:
    @pytest.mark.parametrize("carry, first", [(0.0, 1), (3.25, 0)], ids=["origin", "carried"])
    def test_arrival_times_are_the_cumulated_exponential_gaps(self, carry, first):
        # the gaps drawn in place are rng.exponential(1 / lam)'s bits
        size, cfg = 10_000, SystemConfig(1.7, (0.5, 0.3, 0.2), Exponential(1.0))
        rng_arrivals = np.random.default_rng(4)
        last, arr, *_ = simulator._sample_path(cfg, size, carry, first, rng_arrivals, np.random.default_rng(5))
        reference = np.random.default_rng(4)
        times = np.cumsum(np.concatenate(([carry], reference.exponential(1 / cfg.total_rate, size))))
        assert np.array_equal(arr, times[first:-1])
        assert last == times[-1]
        assert rng_arrivals.random() == reference.random()


class TestStopRules:
    def test_min_deliveries(self):
        res = run(
            SimParams(REF, min_deliveries_per_stream=2000, seed=9, replications=1)
        )
        for s in res.streams:
            assert s.deliveries >= 2000

    def test_count_rule_restarts_every_replication(self):
        # replication 0 needs a longer horizon; the others must not inherit it
        params = SimParams(
            REF, min_deliveries_per_stream=3, seed=1, replications=4, warmup_fraction=0.5
        )
        res = run(params)
        assert res.horizons == (104.0, 65.0, 65.0, 65.0)
        for tallies, horizon in zip(res.tallies, res.horizons):
            assert all(t.deliveries >= 3 for t in tallies)
            # the warm-up is a fraction of the first horizon, whatever the last
            assert all(t.elapsed == horizon - 0.5 * 65.0 for t in tallies)

    @pytest.mark.parametrize("chunk", [None, 16], ids=["default", "16"])
    @pytest.mark.parametrize("seed", [9, 16, 19, 22])
    def test_count_rule_continues_the_sample_path(self, tmp_path, monkeypatch, seed, chunk):
        # replication 0 extends its horizon on the path it has simulated, so
        # it is the time rule's replication on its final horizon; chunks of
        # 16 arrivals put extensions across chunk edges
        if chunk is not None:
            monkeypatch.setattr(simulator, "_CHUNK", chunk)
        system = {"total_rate": 1.5, "stream_probs": [0.5, 0.3, 0.2], "service": REF.service.to_config()}
        count = {"min_deliveries_per_stream": 3, "seed": seed, "warmup_fraction": 0.0}
        extended = run(SimParams(REF, mgf_probes=(-0.5,), **count))
        assert extended.horizons[0] > 32.5  # the first horizon, 1.3 * 3 * E[Y_3]
        timed = {"max_time": extended.horizons[0], "seed": seed, "warmup_fraction": 0.0}
        plain = run(SimParams(REF, mgf_probes=(-0.5,), **timed))

        traces = []
        for name, simulation in (("count", count), ("time", timed)):
            config, trace = tmp_path / f"{name}.json", tmp_path / f"{name}.trace.csv"
            config.write_text(json.dumps({"system": system, "simulation": simulation}))
            assert cli.main(["simulate", "-c", str(config), "--trace", str(trace)]) == 0
            traces.append(trace.read_bytes())
        assert traces[0] == traces[1]
        # the final chunk is tallied in two slices, so sums may differ in the last bits
        for a, b in zip(extended.tallies[0], plain.tallies[0]):
            assert (a.deliveries, a.peaks_count) == (b.deliveries, b.peaks_count)
            sums_a, sums_b = plain_sums(a), plain_sums(b)
            for name in SUM_FIELDS:
                assert sums_a[name] == pytest.approx(sums_b[name], rel=1e-12, abs=0.0)
            assert a.mgf_sums[-0.5] == pytest.approx(b.mgf_sums[-0.5], rel=1e-12, abs=0.0)

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

    @pytest.mark.parametrize("changes", [{"max_time": math.inf}, {"max_time": math.nan}, {"seed": -1}])
    def test_non_finite_horizon_and_negative_seed_rejected(self, changes):
        with pytest.raises(ParameterDomainError):
            SimParams(REF, **{"max_time": 10.0, **changes})


SUM_FIELDS = ("elapsed", "age_area", "peaks_sum", "y_sum", "y2_sum", "t_sum")


def plain_sums(t) -> dict[str, float]:
    """A tally's SUM_FIELDS in plain units: age_area and y2_sum are kept in
    units of t.unit**2, which depends on the replication's first horizon."""
    return {name: getattr(t, name) * (t.unit**2 if name in ("age_area", "y2_sum") else 1.0) for name in SUM_FIELDS}


class TestChunkedReplication:
    @pytest.mark.parametrize("service", [Exponential(1.0), Gamma(2.0, 0.5)], ids=["exponential", "gamma"])
    def test_chunk_size_does_not_change_results(self, tmp_path, monkeypatch, service):
        cfg = SystemConfig(1.5, (0.5, 0.3, 0.2), service)
        params = SimParams(cfg, max_time=3e4, seed=4, replications=2, mgf_probes=(-0.5, -1.0))
        system = {"total_rate": 1.5, "stream_probs": [0.5, 0.3, 0.2], "service": service.to_config()}
        config = tmp_path / "sim.json"
        config.write_text(
            json.dumps(
                {
                    "system": system,
                    "simulation": {"max_time": 3e4, "seed": 4},
                    "output": {"path": str(tmp_path / "sim.csv")},
                }
            )
        )

        def simulate(name):
            assert cli.main(["simulate", "-c", str(config), "--trace", str(tmp_path / name)]) == 0
            return run(params), (tmp_path / name).read_bytes()

        default, default_trace = simulate("default.csv")
        monkeypatch.setattr(simulator, "_CHUNK", 777)
        small, small_trace = simulate("small.csv")

        assert small_trace == default_trace
        for rep_a, rep_b in zip(default.tallies, small.tallies):
            for a, b in zip(rep_a, rep_b):
                assert a.peaks_count > 1000
                assert (a.deliveries, a.peaks_count) == (b.deliveries, b.peaks_count)
                for name in SUM_FIELDS:
                    assert getattr(b, name) == pytest.approx(getattr(a, name), rel=1e-11, abs=0.0)
                for s in params.mgf_probes:
                    assert b.mgf_sums[s] == pytest.approx(a.mgf_sums[s], rel=1e-11, abs=0.0)

    @pytest.mark.parametrize(
        "chunk, max_time, service, seed",
        [
            (3, 2e3, Exponential(1.0), 6),
            (777, 3e4, Gamma(2.0, 0.5), 6),
            (None, 1e5, Exponential(1.0), 6),
            (None, 2e4, Exponential(1.0), 2),
        ],
        ids=["3", "777", "default", "straddling"],
    )
    def test_streamed_trace_matches_the_sorted_reference(self, tmp_path, monkeypatch, chunk, max_time, service, seed):
        # small chunks put many preemptions across chunk edges; at seed
        # 2 the last arrival is delivered past the horizon, so its stream
        # comes from the statistics' substream
        if chunk is not None:
            monkeypatch.setattr(simulator, "_CHUNK", chunk)
        system = {"total_rate": 1.5, "stream_probs": [0.5, 0.3, 0.2], "service": service.to_config()}
        config, trace = tmp_path / "sim.json", tmp_path / "trace.csv"
        config.write_text(
            json.dumps(
                {
                    "system": system,
                    "simulation": {"max_time": max_time, "seed": seed, "replications": 2},
                    "output": {"path": str(tmp_path / "sim.csv")},
                }
            )
        )
        assert cli.main(["simulate", "-c", str(config), "--trace", str(trace)]) == 0
        cfg = SystemConfig(1.5, (0.5, 0.3, 0.2), service)
        columns, straddling = reference_trace(SimParams(cfg, max_time=max_time, seed=seed, replications=2))
        assert straddling == (seed == 2)
        assert trace.read_text() == trace_csv(columns)

    def test_memory_does_not_grow_with_horizon(self):
        def peak(max_time, trace=None):
            tracemalloc.start()
            try:
                run(SimParams(REF, max_time=max_time, seed=8, mgf_probes=(-0.5,)), trace)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(2e6) <= 2.0 * peak(2e5)
        # the trace is handed to its sink a chunk at a time, and not kept
        drop = lambda block: None  # noqa: E731
        assert peak(2e6, drop) <= 2.0 * peak(2e5, drop)


def event_loop_trace(params: SimParams, horizon: float) -> list[tuple]:
    """The first replication's event trace up to the horizon, one arrival at a
    time: the arrival's row, the preemption of the arrival before it if that
    one was not delivered, and the arrival's delivery if its service ends by
    the next arrival and by the horizon. A delivered arrival draws its stream
    from the labels' substream, an undelivered one from the trace's."""
    cfg, m = params.cfg, params.cfg.num_streams
    children = np.random.SeedSequence(params.seed).spawn(params.replications)[0].spawn(4)
    gaps, services, labels, trace_labels = map(np.random.default_rng, children)
    rows, preempted = [], None
    t = gaps.exponential(1.0 / cfg.total_rate)
    while t <= horizon:
        done = t + float(cfg.service.sample(services, 1)[0])
        nxt = t + gaps.exponential(1.0 / cfg.total_rate)
        delivered = done <= nxt
        stream = 1 + int((labels if delivered else trace_labels).choice(m, p=cfg.stream_probs))
        rows.append((t, "arrival", stream, t))
        if preempted is not None:
            rows.append((t, "preemption", preempted[1], preempted[0]))
        if delivered and done <= horizon:
            rows.append((done, "delivery", stream, t))
        preempted = None if delivered else (t, stream)
        t = nxt
    return rows


TRACE_LAWS = st.one_of(
    st.builds(Exponential, st.floats(0.2, 5.0)),
    st.builds(Gamma, st.floats(0.3, 4.0), st.floats(0.1, 2.0)),
    st.builds(Deterministic, st.sampled_from([1e-20, 1e-9, 0.3, 1.0, 2.5])),
    st.builds(Uniform, st.just(0.0), st.floats(1e-3, 3.0)),
)


class TestTraceOrder:
    """The streamed trace against an event loop over the arrivals: each
    arrival's row comes before its preemption of the last one and before its
    own delivery, even where the service is below half the float spacing of
    the arrival time, so that the delivery time equals it."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        weights=st.lists(st.integers(1, 5), min_size=1, max_size=4),
        rate=st.floats(0.5, 2.0),
        law=TRACE_LAWS,
        rule=st.one_of(
            st.builds(lambda t: {"max_time": t}, st.floats(20.0, 150.0)),
            st.builds(lambda n: {"min_deliveries_per_stream": n}, st.integers(5, 20)),
        ),
        seed=st.integers(0, 2**16),
        chunk=st.integers(2, 6),
    )
    @example(weights=[1, 1], rate=1.0, law=Deterministic(1e-20), rule={"max_time": 50.0}, seed=3, chunk=5)
    def test_streamed_trace_matches_the_event_loop(self, weights, rate, law, rule, seed, chunk):
        cfg = SystemConfig(rate, tuple(w / sum(weights) for w in weights), law)
        params = SimParams(cfg, seed=seed, warmup_fraction=0.0, **rule)
        blocks = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulator, "_CHUNK", chunk)
            try:
                horizon = run(params, blocks.append).horizons[0]
            except InsufficientDataError:  # the trace is whole: a short stream fails after it
                horizon = params.max_time
        time, kind, stream, generation = (np.concatenate(column).tolist() for column in zip(*blocks))
        assert len(blocks) > 1
        assert all(a <= b for a, b in zip(time, time[1:]))
        kinds = [simulator.TRACE_KINDS[k] for k in kind]
        assert list(zip(time, kinds, stream, generation)) == event_loop_trace(params, horizon)


class TestEmpiricalMgf:
    def test_aggregated_probes(self, ref_result):
        for s_stats in ref_result.streams:
            for s, (mean, se) in s_stats.mgf_probes.items():
                expected = interdeparture_mgf(REF, s_stats.stream, s)
                assert abs(mean - expected) < 6.0 * se + 0.01 * expected

    def test_insufficient_data(self):
        # a horizon of 2 leaves stream 1 no interdeparture gap to average the probe over
        with pytest.raises(InsufficientDataError, match="replication 1: stream 1 has no interdeparture gap"):
            run(SimParams(REF, max_time=2.0, seed=1, mgf_probes=(-0.5,)))


class TestConditionalClocks:
    N = 200_000

    def test_trivial_at_zero(self, rng):
        stats = clock_conditional_sampler(REF, 1, "ABUVZ", self.N, rng)
        for clock in "ABUVZ":
            assert stats[clock][0.0] == (1.0, 0.0)

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
        stats = clock_conditional_sampler(REF, 1, "U", self.N, rng)
        for s, (mean, se) in stats.items():
            assert abs(mean - system_time_mgf(REF, s)) < 5.0 * se + 1e-12

    def test_single_stream_foreign_clock_never_fires(self, rng):
        cfg = SystemConfig(1.5, (1.0,), Exponential(1.0))
        with pytest.raises(ParameterDomainError, match="^clock Z: only 0 of 10000 draws accepted$"):
            clock_conditional_sampler(cfg, 1, "Z", 10_000, rng)

    def test_unknown_clock(self, rng):
        with pytest.raises(ParameterDomainError):
            clock_conditional_sampler(REF, 1, "Q", 100, rng)


class TestOneDrawClocks:
    """One call draws (X, Lambda, S) once and reads every clock it names from
    that draw; each clock is then exactly its single-letter call at the seed."""

    FIVE = (0.2, 0.2, 0.2, 0.2, 0.2)

    @pytest.mark.parametrize("law", [Exponential(1.0), Gamma(2.0, 0.5), Deterministic(0.5), Uniform(0.2, 1.0)])
    def test_each_clock_is_its_single_letter_call(self, law):
        cfg = SystemConfig(1.5, self.FIVE, law)
        for k in range(3):
            stats = clock_conditional_sampler(cfg, 1, "ABUVZ", 20_000, np.random.default_rng(k))
            assert list(stats) == list("ABUVZ")
            for which in "ABUVZ":
                assert stats[which] == clock_conditional_sampler(cfg, 1, which, 20_000, np.random.default_rng(k))

    def test_one_stream(self):
        # with no foreign stream Lambda never fires, so neither V nor Z is seen;
        # the first such clock in the order asked is the one named
        cfg = SystemConfig(1.5, (1.0,), Exponential(1.0))
        assert list(clock_conditional_sampler(cfg, 1, "ABU", 10_000, np.random.default_rng(0))) == list("ABU")
        for which, named in (("ABUVZ", "V"), ("ABUZV", "Z")):
            with pytest.raises(ParameterDomainError, match=f"^clock {named}: only 0 of 10000 draws accepted$"):
                clock_conditional_sampler(cfg, 1, which, 10_000, np.random.default_rng(0))

    @staticmethod
    def reference_sampler(cfg, i, which, n, rng):
        # a reference: the same draws and races, boolean-mask selection and
        # a full pass over the values at every probe, s = 0 included
        lam = cfg.total_rate
        li = cfg.stream_rate(i)
        x = rng.exponential(1.0 / li, n)
        other = lam - li
        lam_clock = rng.exponential(1.0 / other, n) if other > 0 else np.full(n, np.inf)
        svc = np.asarray(cfg.service.sample(rng, n), dtype=float)
        races = {
            "A": (x, (lam_clock,)),
            "Z": (lam_clock, (x,)),
            "B": (x, (svc, lam_clock)),
            "V": (lam_clock, (svc, x)),
            "U": (svc, (x, lam_clock)),
        }
        out = {}
        for clock in which:
            winner, rivals = races[clock]
            accept = np.logical_and.reduce([winner < rival for rival in rivals])
            values = winner[accept]
            out[clock] = {}
            for s in (0.0, -lam / 3, lam / 4):
                e = np.exp(s * values)
                out[clock][s] = (float(e.mean()), float(e.std(ddof=1) / math.sqrt(len(e))))
        return out[which] if len(which) == 1 else out

    @pytest.mark.parametrize("law", [Exponential(1.0), Gamma(2.0, 0.5), Deterministic(0.5), Uniform(0.2, 1.0)])
    def test_same_bits_as_the_reference(self, law):
        cfg = SystemConfig(1.5, self.FIVE, law)
        for k in range(3):
            for which in ("ABUVZ", *"ABUVZ"):
                got = clock_conditional_sampler(cfg, 1, which, 20_000, np.random.default_rng(k))
                assert got == self.reference_sampler(cfg, 1, which, 20_000, np.random.default_rng(k))

    def test_same_bits_as_the_reference_at_full_size(self):
        cfg = SystemConfig(1.5, self.FIVE, Gamma(2.0, 0.5))
        got = clock_conditional_sampler(cfg, 1, "ABUVZ", 200_000, np.random.default_rng(7))
        assert got == self.reference_sampler(cfg, 1, "ABUVZ", 200_000, np.random.default_rng(7))

    @pytest.mark.parametrize("which", ["", "AQ", "q", "AA"])
    def test_clocks_must_be_distinct_known_letters(self, rng, which):
        with pytest.raises(ParameterDomainError, match="distinct letters of ABUVZ"):
            clock_conditional_sampler(REF, 1, which, 100, rng)

    def test_memory_of_one_draw(self):
        # the three n-float draws stay alive across the clocks, and each
        # clock adds its mask, its accepted values, one exponential buffer
        # and std's temporary: 44 n bytes at this split, against 51 n for
        # five draws. np.compress also holds an 8-byte index per accepted
        # draw while it selects, but frees it before the MGF passes.
        n = 200_000
        cfg = SystemConfig(1.5, self.FIVE, Exponential(1.0))
        # a first small call, so that what numpy allocates once is not counted
        clock_conditional_sampler(cfg, 1, "ABUVZ", 1_000, np.random.default_rng(1))
        tracemalloc.start()
        try:
            clock_conditional_sampler(cfg, 1, "ABUVZ", n, np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48 * n
