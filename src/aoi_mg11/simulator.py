"""Discrete-event simulation of the multi-stream M/G/1/1 preemptive queue.

Because every arrival evicts whatever is in service, the sample path has a
closed recursive structure: arrival k is delivered iff its service duration
ends before arrival k+1 (ties, probability zero, resolve as delivery). That
lets a whole replication be computed with vectorized numpy instead of an
event-by-event loop, with identical semantics.

Arrivals come from one merged exponential(lam) gap stream. The stream label of
each arrival is drawn by competing per-stream exponential clocks, one RNG
substream per stream, so that permuting stream labels together with their
substreams permutes the results exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analytic import SystemConfig, mean_interdeparture
from .errors import (
    ConditioningTooRareError,
    InsufficientDataError,
    ParameterDomainError,
)

__all__ = [
    "SimParams",
    "PerStreamTally",
    "StreamStats",
    "SimResult",
    "TraceEvent",
    "run",
    "empirical_mgf_probe",
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
    stream_substreams: tuple[int, ...] | None = None

    def __post_init__(self):
        has_time = self.max_time is not None
        has_count = self.min_deliveries_per_stream is not None
        if has_time == has_count:
            raise ParameterDomainError(
                "exactly one of max_time / min_deliveries_per_stream must be set"
            )
        if has_time and not self.max_time > 0:
            raise ParameterDomainError(f"max_time must be > 0, got {self.max_time}")
        if has_count and self.min_deliveries_per_stream < 1:
            raise ParameterDomainError(
                f"min_deliveries_per_stream must be >= 1, got {self.min_deliveries_per_stream}"
            )
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ParameterDomainError(
                f"warmup_fraction must be in [0, 1), got {self.warmup_fraction}"
            )
        if self.replications < 1:
            raise ParameterDomainError(f"replications must be >= 1, got {self.replications}")
        if any(s > 0 for s in self.mgf_probes):
            raise ParameterDomainError("empirical MGF probes must have s <= 0")
        if self.stream_substreams is not None:
            if sorted(self.stream_substreams) != list(range(self.cfg.num_streams)):
                raise ParameterDomainError(
                    "stream_substreams must be a permutation of 0..M-1"
                )


@dataclass
class PerStreamTally:
    """Raw per-stream accounting for one replication, after warm-up."""

    stream: int
    elapsed: float
    deliveries: int
    age_area: float
    peaks_sum: float
    peaks_count: int
    y_sum: float
    y2_sum: float
    t_sum: float
    ys: np.ndarray = field(repr=False)
    system_times: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class TraceEvent:
    time: float
    kind: str  # arrival | delivery | preemption
    stream: int
    generation_time: float


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
    streams: tuple[StreamStats, ...]
    replications: int
    horizon: float
    tallies: tuple[tuple[PerStreamTally, ...], ...] = field(repr=False, default=())
    trace: tuple[TraceEvent, ...] = field(repr=False, default=())


def _arrival_times(rng: np.random.Generator, lam: float, horizon: float) -> np.ndarray:
    """Merged arrival process times, guaranteed to extend past the horizon."""
    est = int(lam * horizon + 6.0 * math.sqrt(lam * horizon + 1.0) + 16)
    chunks = []
    total = 0.0
    while total <= horizon:
        g = rng.exponential(1.0 / lam, est)
        chunks.append(g)
        total += float(g.sum())
    return np.cumsum(np.concatenate(chunks))


def _simulate_replication(
    cfg: SystemConfig,
    horizon: float,
    seed_seq: np.random.SeedSequence,
    warmup_fraction: float,
    probes: tuple[float, ...],
    substreams: tuple[int, ...],
    collect_trace: bool = False,
) -> tuple[list[PerStreamTally], list[TraceEvent]]:
    m = cfg.num_streams
    lam = cfg.total_rate
    children = seed_seq.spawn(2 + m)
    rng_arrivals = np.random.default_rng(children[0])
    rng_service = np.random.default_rng(children[1])
    rng_select = [np.random.default_rng(children[2 + substreams[j]]) for j in range(m)]

    times = _arrival_times(rng_arrivals, lam, horizon)
    n = int(np.searchsorted(times, horizon, side="right"))
    arr = times[:n]
    next_arr = times[1 : n + 1]

    # stream of each arrival via competing exponential clocks, one RNG per stream
    scores = np.empty((m, n))
    for j in range(m):
        scores[j] = rng_select[j].exponential(1.0, n) / cfg.stream_probs[j]
    labels = np.argmin(scores, axis=0)

    services = np.asarray(cfg.service.sample(rng_service, n), dtype=float)

    # delivered iff service completes before the next arrival (ties: delivered)
    # and before the horizon ends
    beats_next = services <= (next_arr - arr)
    delivered = beats_next & (arr + services <= horizon)

    t_w = warmup_fraction * horizon
    elapsed = horizon - t_w

    tallies: list[PerStreamTally] = []
    for j in range(m):
        mask = delivered & (labels == j)
        t_d = arr[mask] + services[mask]
        gen = arr[mask]
        svc = services[mask]
        # virtual delivered-at-origin update: age starts at 0
        prev_td = np.concatenate(([0.0], t_d[:-1]))
        prev_gen = np.concatenate(([0.0], gen[:-1]))

        kept = t_d >= t_w
        n_kept = int(kept.sum())

        # exact sawtooth area on [t_w, horizon]; segments straddling the
        # warm-up boundary are clipped at t_w
        x0 = np.maximum(prev_td[kept], t_w)
        width = t_d[kept] - x0
        area = float(np.sum(width * (x0 - prev_gen[kept]) + 0.5 * width * width))
        if len(t_d):
            last_td, last_gen = float(t_d[-1]), float(gen[-1])
        else:
            last_td, last_gen = 0.0, 0.0
        tail0 = max(last_td, t_w)
        tail_w = horizon - tail0
        if tail_w > 0:
            area += tail_w * (tail0 - last_gen) + 0.5 * tail_w * tail_w

        # Y and peaks only between consecutive real deliveries
        has_pred = np.arange(len(t_d)) >= 1
        sel = kept & has_pred
        ys = (t_d - prev_td)[sel]
        peaks = (t_d - prev_gen)[sel]

        tallies.append(
            PerStreamTally(
                stream=j + 1,
                elapsed=elapsed,
                deliveries=n_kept,
                age_area=area,
                peaks_sum=float(peaks.sum()),
                peaks_count=int(len(peaks)),
                y_sum=float(ys.sum()),
                y2_sum=float(np.sum(ys * ys)),
                t_sum=float(svc[kept].sum()),
                ys=ys,
                system_times=svc[kept],
            )
        )

    trace: list[TraceEvent] = []
    if collect_trace:
        for k in range(n):
            trace.append(TraceEvent(float(arr[k]), "arrival", int(labels[k]) + 1, float(arr[k])))
            if delivered[k]:
                trace.append(
                    TraceEvent(float(arr[k] + services[k]), "delivery", int(labels[k]) + 1, float(arr[k]))
                )
        preempted = ~beats_next
        for k in np.nonzero(preempted)[0]:
            if next_arr[k] <= horizon:
                trace.append(
                    TraceEvent(float(next_arr[k]), "preemption", int(labels[k]) + 1, float(arr[k]))
                )
        order = {"delivery": 0, "arrival": 1, "preemption": 2}
        trace.sort(key=lambda e: (e.time, order[e.kind]))

    return tallies, trace


def _horizon_for_count(cfg: SystemConfig, n_deliveries: int, warmup_fraction: float) -> float:
    slowest = max(mean_interdeparture(cfg, i) for i in range(1, cfg.num_streams + 1))
    return 1.3 * n_deliveries * slowest / (1.0 - warmup_fraction)


def _tally_metrics(t: PerStreamTally) -> dict[str, float]:
    """One replication's estimate of each StreamStats metric, by field name."""
    return {
        "avg_age": t.age_area / t.elapsed,
        "peak_age": t.peaks_sum / t.peaks_count if t.peaks_count else math.nan,
        "mean_system_time": t.t_sum / t.deliveries if t.deliveries else math.nan,
        "mean_interdeparture": t.y_sum / t.peaks_count if t.peaks_count else math.nan,
        "second_moment_interdeparture": t.y2_sum / t.peaks_count if t.peaks_count else math.nan,
        "delivery_rate": t.deliveries / t.elapsed,
    }


def _probe_mean(t: PerStreamTally, s: float) -> float:
    return float(np.mean(np.exp(s * t.ys))) if len(t.ys) else math.nan


def _mean_se(values: list[float]) -> tuple[float, float]:
    """Mean across replications, with its standard error (0 for one replication)."""
    vals = np.array(values)
    se = float(vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
    return float(vals.mean()), se


def run(params: SimParams, collect_trace: bool = False) -> SimResult:
    """Run all replications and aggregate per-stream estimates.

    Replications use independently spawned RNG substreams; estimates are the
    unweighted mean across replications with the replication-level standard
    error as half-width (0 when there is a single replication). The event
    trace, when requested, comes from the first replication only.
    """
    cfg = params.cfg
    reps = params.replications
    substreams = params.stream_substreams or tuple(range(cfg.num_streams))
    root = np.random.SeedSequence(params.seed)
    rep_seeds = root.spawn(reps)

    if params.max_time is not None:
        horizon = float(params.max_time)
    else:
        horizon = _horizon_for_count(cfg, params.min_deliveries_per_stream, params.warmup_fraction)

    all_tallies: list[tuple[PerStreamTally, ...]] = []
    trace: tuple[TraceEvent, ...] = ()
    for r in range(reps):
        seed_seq = rep_seeds[r]
        while True:
            tallies, tr = _simulate_replication(
                cfg,
                horizon,
                seed_seq,
                params.warmup_fraction,
                params.mgf_probes,
                substreams,
                collect_trace=collect_trace and r == 0,
            )
            if params.min_deliveries_per_stream is None or all(
                t.deliveries >= params.min_deliveries_per_stream for t in tallies
            ):
                break
            horizon *= 1.6
        all_tallies.append(tuple(tallies))
        if collect_trace and r == 0:
            trace = tuple(tr)

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
                mgf_probes={s: _mean_se([_probe_mean(t, s) for t in per_stream]) for s in params.mgf_probes},
                **kwargs,
            )
        )

    return SimResult(
        streams=tuple(streams),
        replications=reps,
        horizon=horizon,
        tallies=tuple(all_tallies),
        trace=trace,
    )


def empirical_mgf_probe(tally: PerStreamTally, s: float) -> tuple[float, float]:
    """Empirical E[e^{sY}] with standard error, from one replication's gaps."""
    if s > 0:
        raise ParameterDomainError(f"empirical MGF probe requires s <= 0, got {s}")
    if len(tally.ys) < 2:
        raise InsufficientDataError(
            f"need at least 2 interdeparture gaps, have {len(tally.ys)}"
        )
    vals = np.exp(s * tally.ys)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(len(vals)))


_MAX_REJECTION_RATE = 0.9999


def clock_conditional_sampler(
    cfg: SystemConfig,
    i: int,
    which: str,
    n: int,
    rng: np.random.Generator,
    s_values: tuple[float, ...] | None = None,
) -> dict[float, tuple[float, float]]:
    """Rejection-sample one of the conditional clocks A, B, U, V, Z.

    Draws n independent (X, Lambda, S) triples, keeps the clock value on the
    conditioning event, and returns the empirical MGF (mean, standard error)
    at each probe. Aborts if fewer than 1 in 10^4 draws are accepted.
    """
    if n < 1:
        raise ParameterDomainError(f"n must be >= 1, got {n}")
    if which not in ("A", "B", "U", "V", "Z"):
        raise ParameterDomainError(f"unknown clock {which!r}")
    lam = cfg.total_rate
    li = cfg.stream_rate(i)
    other = lam - li
    if s_values is None:
        s_values = (0.0, -0.5, 0.25 * lam)

    x = rng.exponential(1.0 / li, n)
    if other > 0:
        lam_clock = rng.exponential(1.0 / other, n)
    else:
        lam_clock = np.full(n, np.inf)
    svc = np.asarray(cfg.service.sample(rng, n), dtype=float)

    if which == "A":
        accept, vals = x < lam_clock, x
    elif which == "Z":
        accept, vals = lam_clock < x, lam_clock
    elif which == "B":
        accept, vals = x < np.minimum(svc, lam_clock), x
    elif which == "V":
        accept, vals = lam_clock < np.minimum(svc, x), lam_clock
    else:  # U: service wins against every arrival clock
        accept, vals = svc < np.minimum(x, lam_clock), svc

    kept = vals[accept]
    if (n - len(kept)) / n > _MAX_REJECTION_RATE or len(kept) < 2:
        raise ConditioningTooRareError(
            f"clock {which}: only {len(kept)} of {n} draws accepted"
        )

    out = {}
    for s in s_values:
        e = np.exp(s * kept)
        out[s] = (float(e.mean()), float(e.std(ddof=1) / math.sqrt(len(e))))
    return out
