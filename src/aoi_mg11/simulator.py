"""Discrete-event simulation of the multi-stream M/G/1/1 preemptive queue.

Because every arrival evicts whatever is in service, the sample path has a
closed recursive structure: arrival k is delivered iff its service ends by
arrival k+1, else arrival k+1 preempts it. That lets a replication be
computed with vectorized numpy instead of an event-by-event loop, with
identical semantics, in chunks of a fixed number of arrivals: a chunk needs
only its first arrival and each stream's last delivery, so memory does not
grow with the horizon, and per-stream tallies are running sums.

Arrivals come from one merged exponential(lam) gap stream. Whether an arrival
is delivered does not depend on its stream, and stream labels are i.i.d. and
independent of the arrival and service times, so only the delivered arrivals
are labelled, in order, by one categorical draw from one RNG substream. The
event trace labels the undelivered arrivals from a substream of its own, so a
traced run's statistics equal an untraced run's. The trace is laid out in
the order events happen, so it needs no sort; it is handed on a chunk at a
time, so it takes no more memory than the chunk.

Each chunk's sample path is drawn on a helper thread while the calling
thread labels, tallies and traces the chunk before it, and only a chunk the
replication reads is drawn. The helper alone draws from the arrival and
service substreams, and the caller alone from the two label substreams, so
each generator draws what it would on one thread, in the same order, and
every output byte is the same.
"""

from __future__ import annotations

import contextvars
import math
import threading
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .analytic import SystemConfig, age_report
from .errors import InsufficientDataError, ParameterDomainError

__all__ = [
    "SimParams",
    "PerStreamTally",
    "StreamStats",
    "SimResult",
    "TRACE_KINDS",
    "run",
    "clock_conditional_sampler",
]


@dataclass(frozen=True)
class SimParams:
    """Simulation controls: stop rule, seed, warm-up, and replication count."""

    cfg: SystemConfig
    max_time: float | None = None
    min_deliveries_per_stream: int | None = None
    seed: int = 0
    warmup_fraction: float = 0.05
    replications: int = 1
    mgf_probes: tuple[float, ...] = ()

    def __post_init__(self):
        has_time = self.max_time is not None
        has_count = self.min_deliveries_per_stream is not None
        if has_time == has_count:
            raise ParameterDomainError(
                "exactly one of max_time / min_deliveries_per_stream must be set"
            )
        if has_time and not 0 < self.max_time < math.inf:
            raise ParameterDomainError(f"max_time must be finite and > 0, got {self.max_time}")
        if has_count and self.min_deliveries_per_stream < 1:
            raise ParameterDomainError(
                f"min_deliveries_per_stream must be >= 1, got {self.min_deliveries_per_stream}"
            )
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ParameterDomainError(
                f"warmup_fraction must be in [0, 1), got {self.warmup_fraction}"
            )
        if self.seed < 0:
            raise ParameterDomainError(f"seed must be >= 0, got {self.seed}")
        if self.replications < 1:
            raise ParameterDomainError(f"replications must be >= 1, got {self.replications}")
        if any(s > 0 for s in self.mgf_probes):
            raise ParameterDomainError("empirical MGF probes must have s <= 0")


@dataclass
class PerStreamTally:
    """Running per-stream sums for one replication, after warm-up.

    ``age_area`` and ``y2_sum`` are in units of ``unit``**2, the largest power
    of two up to the replication's first horizon (and at least the smallest
    normal float), so that they stay in the float range wherever the means
    do; the other sums are in plain units.
    ``mgf_sums`` maps each configured probe s to the sum of e^{sY} over the
    interdeparture gaps Y.
    ``last_delivery`` and ``last_generation`` carry the stream's last delivery
    and its update's generation time from chunk to chunk; until ``delivered``,
    a virtual delivery at the origin starts the age at 0 but opens no gap.
    """

    stream: int
    elapsed: float
    unit: float = 1.0
    deliveries: int = 0
    age_area: float = 0.0
    peaks_sum: float = 0.0
    peaks_count: int = 0
    y_sum: float = 0.0
    y2_sum: float = 0.0
    t_sum: float = 0.0
    mgf_sums: dict[float, float] = field(default_factory=dict)
    last_delivery: float = 0.0
    last_generation: float = 0.0
    delivered: bool = False


# Trace kind codes are indices into TRACE_KINDS. A trace block is four columns:
# time, kind code, stream, and the generation time of the update the event
# belongs to. Its rows come in the order events happen: each arrival, then its
# preemption of the arrival before it, then its own delivery; the blocks, in
# order, are the trace.
TRACE_KINDS = ("delivery", "arrival", "preemption")
_DELIVERY, _ARRIVAL, _PREEMPTION = range(3)
TraceSink = Callable[[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]], None]


@dataclass(frozen=True)
class StreamStats:
    """Replication-averaged estimates with standard-error half-widths."""

    stream: int
    deliveries: int
    avg_age: float
    avg_age_se: float
    peak_age: float
    peak_age_se: float
    mean_system_time: float
    mean_system_time_se: float
    mean_interdeparture: float
    mean_interdeparture_se: float
    second_moment_interdeparture: float
    second_moment_interdeparture_se: float
    delivery_rate: float
    delivery_rate_se: float
    mgf_probes: dict[float, tuple[float, float]]


@dataclass(frozen=True)
class SimResult:
    """Aggregated estimates; ``horizons`` holds the horizon of each replication."""

    streams: tuple[StreamStats, ...]
    replications: int
    horizons: tuple[float, ...]
    tallies: tuple[tuple[PerStreamTally, ...], ...] = field(repr=False, default=())


def _labels(rng: np.random.Generator, probs: tuple[float, ...], n: int) -> np.ndarray:
    """Streams (0-based) of n arrivals, i.i.d. with the probabilities probs:
    rng.choice(len(probs), n, p=probs)'s labels and generator state, as the count
    of the normalised CDF's breakpoints at or below one uniform per label."""
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    u = rng.random(n)
    labels = np.zeros(n, dtype=np.min_scalar_type(len(probs)))
    for lo in range(0, len(probs) - 1, 255):  # a uint8 count adds fastest, and 255 breakpoints cannot wrap it
        count = np.zeros(n, dtype=np.uint8)
        for c in cdf[:-1][lo : lo + 255]:
            count += (u >= c).view(np.uint8)
        labels += count
    return labels


# Arrivals simulated at a time. It sets the memory of a replication, whatever
# its horizon; the sample path does not depend on it.
_CHUNK = 1 << 16


def _sample_path(
    cfg: SystemConfig,
    size: int,
    carry: float,
    rng_arrivals: np.random.Generator,
    rng_service: np.random.Generator,
):
    """One chunk of the sample path, as far as the tallies and the trace read it.

    The chunk draws size arrival gaps after its first arrival, carry, and
    simulates the arrivals before its last one. Returns, in order: that last
    arrival, the next chunk's carry; the arrival times; and the indices of the
    delivered arrivals, with their delivery and service times. The chunk's
    other arrays are freed when it returns.
    """
    times = np.empty(size + 1)
    times[0] = carry
    rng_arrivals.standard_exponential(out=times[1:])  # exponential(scale) draws scale times these bits
    times[1:] *= 1.0 / cfg.total_rate
    np.cumsum(times, out=times)
    arr = times[:-1]
    services = np.asarray(cfg.service.sample(rng_service, size), dtype=float)
    done = arr + services
    # delivered iff service completes by the next arrival (ties: delivered)
    idx = np.flatnonzero(done <= times[1:])
    return times[-1], arr, idx, done[idx], services[idx]


class _Ahead:
    """A helper thread that draws a replication's chunks while the caller
    tallies the one before: draw(size, carry) starts _sample_path(cfg, size,
    carry, rng_arrivals, rng_service), result() waits for the chunk and
    returns it, or raises what the draw raised, and close() waits for a draw
    in flight and ends the thread. The draws run in a copy of the caller's
    context, so under its np.errstate."""

    def __init__(self, cfg: SystemConfig, rng_arrivals: np.random.Generator, rng_service: np.random.Generator):
        self._args, self._job, self._out = (cfg, rng_arrivals, rng_service), None, None
        self._go, self._done = threading.Lock(), threading.Lock()
        self._go.acquire()
        self._done.acquire()
        self._thread = threading.Thread(target=contextvars.copy_context().run, args=(self._serve,), daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        cfg, rng_arrivals, rng_service = self._args
        while self._go.acquire() and self._job is not None:  # close() leaves no job
            try:
                self._out = _sample_path(cfg, *self._job, rng_arrivals, rng_service)
            except BaseException as exc:
                self._out = exc
            self._done.release()

    def draw(self, size: int, carry: float) -> None:
        self._job = (size, carry)
        self._go.release()

    def result(self):
        self._done.acquire()
        out, self._job, self._out = self._out, None, None
        if isinstance(out, BaseException):
            raise out
        return out

    def close(self) -> None:
        if self._job is not None:  # the caller failed while a chunk was drawn
            self._done.acquire()
            self._job = None
        self._go.release()
        self._thread.join()


def _trace_block(
    sink: TraceSink,
    last: tuple[bool, int, float],
    rng_trace: np.random.Generator,
    probs: tuple[float, ...],
    arr: np.ndarray,
    idx: np.ndarray,
    d_label: np.ndarray,
    d_done: np.ndarray,
    horizon: float,
) -> tuple[bool, int, float]:
    """Hand the sink a chunk's trace rows up to the horizon. last is the
    (preempted, stream, time) of the arrival before the chunk; returns those
    of the chunk's last arrival.

    Each arrival owns three slots, in order: its arrival, the preemption of the
    arrival before it if that one was not delivered, and its own delivery if
    it was. The rows are the slots that happen. An undelivered arrival draws
    its stream from rng_trace."""
    n = len(arr)
    delivered = np.zeros(n, dtype=bool)
    delivered[idx] = True
    labels = np.empty(n, dtype=d_label.dtype)
    labels[idx] = d_label
    labels[~delivered] = _labels(rng_trace, probs, n - len(idx))
    labels += 1  # the trace counts streams from 1
    done = arr.copy()
    done[idx] = d_done

    def before(column, first):  # the value of each arrival's predecessor
        shifted = np.roll(column, 1)
        shifted[0] = first
        return shifted

    preempted, stream, time = last
    # the slots that happen, as indices into the chunk's n x 3 slots
    at = np.flatnonzero(np.column_stack((np.ones(n, dtype=bool), before(~delivered, preempted), delivered)))
    block = (
        np.column_stack((arr, arr, done)).ravel()[at],
        np.array((_ARRIVAL, _PREEMPTION, _DELIVERY), dtype=np.int8)[at % 3],
        np.column_stack((labels, before(labels, stream), labels)).ravel()[at],
        np.column_stack((arr, before(arr, time), arr)).ravel()[at],
    )
    cut = int(np.searchsorted(block[0], horizon, side="right"))
    sink(tuple(column[:cut] for column in block))
    return not delivered[-1], labels[-1], arr[-1]


def _simulate_replication(
    params: SimParams, horizon: float, seed_seq: np.random.SeedSequence, sink: TraceSink | None
) -> tuple[list[PerStreamTally], float]:
    """One replication on one sample path: its tallies and its horizon. Under
    the count rule, the horizon is multiplied by 1.6 on the same path until
    every stream has min_deliveries_per_stream deliveries and an interdeparture
    gap after the warm-up, which stays warmup_fraction of the first horizon."""
    cfg, probes, min_deliveries = params.cfg, params.mgf_probes, params.min_deliveries_per_stream
    rng_arrivals, rng_service, rng_labels, rng_trace = map(np.random.default_rng, seed_seq.spawn(4))

    t_w = params.warmup_fraction * horizon
    unit = math.ldexp(1.0, max(math.frexp(horizon)[1] - 1, -1022))
    tallies = [PerStreamTally(j + 1, 0.0, unit, mgf_sums=dict.fromkeys(probes, 0.0)) for j in range(cfg.num_streams)]
    # the trace's last arrival (preempted, stream, time); none precedes the first
    last_arrival = (False, 0, 0.0)

    # Each chunk simulates the arrivals before its last one, which is carried
    # into the next chunk as the look-ahead that decides the final delivery.
    # The first, from the first arrival, drawn alone, simulates size - 1, so
    # chunks end at every size-th arrival, which fixes the sums' last bits.
    # A horizon that expects fewer arrivals than _CHUNK takes chunks of those
    # and 10 standard deviations more, so it almost surely takes one.
    expected = cfg.total_rate * horizon
    size = int(min(_CHUNK, expected + 10.0 * math.sqrt(expected) + 100))
    carry = rng_arrivals.standard_exponential() * (1.0 / cfg.total_rate)
    ahead = _Ahead(cfg, rng_arrivals, rng_service)
    try:
        ahead.draw(size - 1, carry)
        while True:
            carry, arr, idx, d_done, d_services = ahead.result()
            # the next chunk is drawn while this one is tallied, if the
            # replication reads it: if it starts inside the horizon
            if carry <= horizon:
                ahead.draw(size, carry)
            d_arr = arr[idx]
            d_label = _labels(rng_labels, cfg.stream_probs, len(idx))
            # the chunk's deliveries up to the horizon, in slices: past the
            # carried arrival, a short replication extends its horizon and goes on
            lo = 0
            while True:
                hi = int(np.searchsorted(d_done, horizon, side="right"))
                _tally(tallies, t_w, d_done[lo:hi], d_arr[lo:hi], d_services[lo:hi], d_label[lo:hi])
                lo = hi
                if carry <= horizon or min_deliveries is None or all(
                    t.peaks_count and t.deliveries >= min_deliveries for t in tallies
                ):
                    break
                horizon *= 1.6
                if carry <= horizon:
                    ahead.draw(size, carry)
            if sink is not None:
                last_arrival = _trace_block(sink, last_arrival, rng_trace, cfg.stream_probs, arr, idx, d_label, d_done, horizon)
            if carry > horizon:
                break
    finally:
        ahead.close()

    # the age after each stream's last delivery, to the horizon
    for t in tallies:
        t.elapsed = horizon - t_w
        t.age_area += float(_age_area(t, t_w, t.last_delivery, t.last_generation, horizon))
    return tallies, horizon


def _age_area(t: PerStreamTally, t_w: float, prev_td, prev_gen, t_d):
    """The age's exact area from each delivery prev_td, of an update generated
    at prev_gen, to t_d, in units of t.unit**2 (exact: a power of two); a
    segment that straddles the warm-up's end t_w is clipped there."""
    x0 = np.maximum(prev_td, t_w)
    width = (t_d - x0) / t.unit
    return width * ((x0 - prev_gen) / t.unit) + 0.5 * width * width


def _tally(tallies, t_w, d_done, d_arr, d_services, d_label) -> None:
    """Add deliveries, in time order, to the running sums of their streams;
    the arrays of each stream are freed on return."""
    for j, t in enumerate(tallies):
        sel = np.flatnonzero(d_label == j)
        if not len(sel):
            continue
        t_d, gen, svc = d_done[sel], d_arr[sel], d_services[sel]
        prev_td = np.concatenate(([t.last_delivery], t_d[:-1]))
        prev_gen = np.concatenate(([t.last_generation], gen[:-1]))
        has_pred = t.delivered
        t.last_delivery, t.last_generation, t.delivered = float(t_d[-1]), float(gen[-1]), True

        # delivery times increase, so the post-warm-up ones are a suffix
        k = int(np.searchsorted(t_d, t_w))
        if k == len(t_d):
            continue
        t_d, prev_td, prev_gen, svc = t_d[k:], prev_td[k:], prev_gen[k:], svc[k:]
        t.age_area += float(np.sum(_age_area(t, t_w, prev_td, prev_gen, t_d)))
        t.deliveries += len(t_d)
        t.t_sum += float(svc.sum())

        # Y and peaks only between consecutive real deliveries
        if k == 0 and not has_pred:
            t_d, prev_td, prev_gen = t_d[1:], prev_td[1:], prev_gen[1:]
        ys = t_d - prev_td
        t.peaks_sum += float(np.sum(t_d - prev_gen))
        t.peaks_count += len(ys)
        t.y_sum += float(ys.sum())
        ys_unit = ys / t.unit
        t.y2_sum += float(np.sum(ys_unit * ys_unit))
        for s, total in t.mgf_sums.items():
            t.mgf_sums[s] = total + float(np.exp(s * ys).sum())


def _horizon_for_count(cfg: SystemConfig, n_deliveries: int, warmup_fraction: float) -> float:
    slowest = max(s.mean_interdeparture for s in age_report(cfg).streams)
    return 1.3 * n_deliveries * slowest / (1.0 - warmup_fraction)


def _tally_metrics(t: PerStreamTally) -> dict[str, float]:
    """One replication's estimate of each StreamStats metric, by field name;
    the sums in units of t.unit**2 are scaled back, exactly."""
    return {
        "avg_age": t.age_area / (t.elapsed / t.unit) * t.unit,
        "peak_age": t.peaks_sum / t.peaks_count,
        "mean_system_time": t.t_sum / t.deliveries,
        "mean_interdeparture": t.y_sum / t.peaks_count,
        "second_moment_interdeparture": t.y2_sum / t.peaks_count * t.unit * t.unit,
        "delivery_rate": t.deliveries / t.elapsed,
    }


def _mean_se(values: list[float]) -> tuple[float, float]:
    """Mean across replications, with its standard error (0 for one replication).
    Both are taken of the values scaled by the power of two that brings the
    largest into [0.5, 1), so that neither the sum nor the squares leave the
    float range, and scaled back: exact, so each is in the float range
    wherever it is itself."""
    m = np.frexp(np.max(np.abs(values)))[1]
    scaled = np.ldexp(values, -m)
    se = float(np.ldexp(scaled.std(ddof=1), m) / math.sqrt(len(scaled))) if len(scaled) > 1 else 0.0
    return float(np.ldexp(scaled.mean(), m)), se


def run(params: SimParams, trace: TraceSink | None = None) -> SimResult:
    """Run all replications and aggregate per-stream estimates.

    Replications use independently spawned seed sequences; estimates are the
    unweighted mean across replications with the replication-level standard
    error as half-width (0 when there is a single replication). Under the
    count stop rule every replication starts from the same horizon and, while
    short of deliveries or of interdeparture gaps, extends it 1.6 times on the
    same sample path; under the time rule a stream with no interdeparture gap
    after warm-up raises InsufficientDataError. The event trace of the first
    replication goes to the sink ``trace``, a block per chunk.
    """
    cfg = params.cfg
    reps = params.replications
    if params.max_time is not None:
        start = float(params.max_time)
    else:
        start = _horizon_for_count(cfg, params.min_deliveries_per_stream, params.warmup_fraction)

    all_tallies: list[tuple[PerStreamTally, ...]] = []
    horizons: list[float] = []
    for r, seed_seq in enumerate(np.random.SeedSequence(params.seed).spawn(reps)):
        tallies, horizon = _simulate_replication(params, start, seed_seq, trace if r == 0 else None)
        gapless = [t.stream for t in tallies if not t.peaks_count]
        if gapless:
            raise InsufficientDataError(
                f"replication {r + 1}: stream {gapless[0]} has no interdeparture gap "
                f"after warm-up; raise max_time"
            )
        all_tallies.append(tuple(tallies))
        horizons.append(horizon)

    streams = []
    for j in range(cfg.num_streams):
        per_stream = [all_tallies[r][j] for r in range(reps)]
        per_rep = [_tally_metrics(t) for t in per_stream]
        kwargs = {}
        for name in per_rep[0]:
            kwargs[name], kwargs[name + "_se"] = _mean_se([m[name] for m in per_rep])
        streams.append(
            StreamStats(
                stream=j + 1,
                deliveries=sum(t.deliveries for t in per_stream),
                mgf_probes={s: _mean_se([t.mgf_sums[s] / t.peaks_count for t in per_stream]) for s in params.mgf_probes},
                **kwargs,
            )
        )

    return SimResult(
        streams=tuple(streams),
        replications=reps,
        horizons=tuple(horizons),
        tallies=tuple(all_tallies),
    )


_MAX_REJECTION_RATE = 0.9999
_CLOCKS = "ABUVZ"


def clock_conditional_sampler(
    cfg: SystemConfig,
    i: int,
    which: str,
    n: int,
    rng: np.random.Generator,
) -> dict[float, tuple[float, float]] | dict[str, dict[float, tuple[float, float]]]:
    """Rejection-sample the conditional clocks A, B, U, V, Z from one draw.

    Draws n independent (X, Lambda, S) triples once and reads each clock
    named in ``which`` from them: from the idle state X races Lambda, and A
    (X wins) or Z (Lambda wins) keeps the winner; from the busy state X,
    Lambda and S race, and B, V or U keeps X, Lambda or S where it wins.
    For each clock it returns the empirical MGF (mean, standard error) at
    the probes 0, -lam/3 and lam/4, fractions of lam that scale with the
    time unit: ``{s: (mean, se)}`` for one letter, ``{clock: {s: (mean,
    se)}}`` for several. The clocks of one call are correlated (A and Z
    split the draws, and so do B, V and U), but each clock's accepted values
    are i.i.d. from its conditional law. Aborts at the first clock, in the
    order asked, with fewer than 1 in 10^4 draws accepted.
    """
    if n < 1:
        raise ParameterDomainError(f"n must be >= 1, got {n}")
    if not which or set(which) - set(_CLOCKS) or len(set(which)) < len(which):
        raise ParameterDomainError(f"clocks must be distinct letters of {_CLOCKS}, got {which!r}")
    lam = cfg.total_rate
    li = cfg.stream_rate(i)
    other = lam - li

    x = rng.exponential(1.0 / li, n)
    if other > 0:
        lam_clock = rng.exponential(1.0 / other, n)
    else:
        lam_clock = np.full(n, np.inf)
    svc = np.asarray(cfg.service.sample(rng, n), dtype=float)

    # each clock's winner and its rivals; boolean masks, not min() arrays,
    # keep the three draws the only n-float arrays alive
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
        accept = winner < rivals[0]
        for rival in rivals[1:]:
            accept &= winner < rival
        kept = int(np.count_nonzero(accept))
        if (n - kept) / n > _MAX_REJECTION_RATE or kept < 2:
            raise ParameterDomainError(f"clock {clock}: only {kept} of {n} draws accepted")
        # np.compress returns winner[accept]'s values, 4-5x faster on numpy 2.4
        out[clock] = _empirical_mgf(np.compress(accept, winner), (0.0, -lam / 3, lam / 4))
    return out[which] if len(which) == 1 else out


def _empirical_mgf(values: np.ndarray, probes: tuple[float, ...]) -> dict[float, tuple[float, float]]:
    """(mean, standard error) of e^(s V) over the values V at each probe s.

    At s = 0 it is (1.0, 0.0) without a pass: every e^(0 V) is 1, and a pass
    over them returns these two floats exactly.
    """
    # each probe's exponentials are formed in place, in one buffer
    e = np.empty_like(values)
    out = {}
    for s in probes:
        if s == 0:
            out[s] = (1.0, 0.0)
            continue
        np.exp(np.multiply(s, values, out=e), out=e)
        out[s] = (float(e.mean()), float(e.std(ddof=1) / math.sqrt(len(e))))
    return out
