"""Closed-form age metrics and moment generating functions.

For a total Poisson rate lam split over M streams with a common service law S,
let P(x) = E[e^{-xS}]. The key quantities:

    average age of stream i        1 / (lam_i * P(lam))
    average peak age of stream i   1 / (lam_i * P(lam)) + E[S e^{-lam S}] / P(lam)
    system-time MGF                P(lam - s) / P(lam)          (stream independent)
    interdeparture MGF, stream i   lam_i P(lam-s) / (lam_i P(lam-s) - s)

Every metric is also derivable from moments of the system time T and the
interdeparture time Y; ``age_report`` computes both routes and insists they
agree, as a permanent self-check against transcription errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import ServiceDistribution
from .errors import InvariantViolationError, ParameterDomainError, require

__all__ = [
    "SystemConfig",
    "AgeReport",
    "StreamMetrics",
    "avg_age",
    "peak_age",
    "system_time_mgf",
    "interdeparture_mgf",
    "clock_mgf_A",
    "clock_mgf_B",
    "moments_from_mgf",
    "mean_system_time",
    "mean_interdeparture",
    "second_moment_interdeparture",
    "age_columns",
    "age_report",
]

_PROB_SUM_TOL = 1e-12


@dataclass(frozen=True)
class SystemConfig:
    """Total update rate, stream split probabilities, and the service law."""

    total_rate: float
    stream_probs: tuple[float, ...]
    service: ServiceDistribution

    def __post_init__(self):
        probs = tuple(float(p) for p in self.stream_probs)
        object.__setattr__(self, "stream_probs", probs)
        check_systems(np.array([self.total_rate], dtype=float), np.array([probs]))

    @property
    def num_streams(self) -> int:
        return len(self.stream_probs)

    def stream_rate(self, i: int) -> float:
        """Rate of stream i; streams are numbered 1..M."""
        self._check_index(i)
        return self.total_rate * self.stream_probs[i - 1]

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.num_streams:
            raise IndexError(f"stream index {i} out of range 1..{self.num_streams}")

    def service_beats_arrival(self) -> float:
        """P(lam): probability a service completes before the next arrival."""
        return float(beats_arrival(self.service, self.total_rate))


def check_systems(total_rates: np.ndarray, stream_probs: np.ndarray) -> None:
    """SystemConfig's checks on the systems total_rates[g], split by the rows stream_probs[g]."""
    require((total_rates > 0) & np.isfinite(total_rates), "total_rate must be > 0, got {}", total_rates)
    require(stream_probs.shape[1] >= 1, "at least one stream is required")
    bad = (~(stream_probs > 0)).any(axis=1)  # NaN fails too
    if bad.any():
        probs = tuple(stream_probs[bad][0].tolist())
        raise ParameterDomainError(f"every stream probability must be > 0, got {probs}")
    for probs in stream_probs.tolist():
        try:
            total = math.fsum(probs)
        except OverflowError:  # finite probabilities whose sum is not
            total = math.inf
        if abs(total - 1.0) > _PROB_SUM_TOL:
            raise ParameterDomainError(f"stream probabilities must sum to 1 (got {total!r})")


def beats_arrival(service: ServiceDistribution, total_rate):
    """P(lam) of a service law at the total rates lam; the first rate where it underflows to 0 raises."""
    p = service.laplace(total_rate)
    require(p != 0.0, "P(lam) underflows to 0 at total rate {}", total_rate)
    return p


# Each metric is written once, as a function of the stream rate lam_i,
# P = P(lam) and ew = E[S e^{-lam S}], for floats and arrays alike;
# age_columns evaluates them, and the optimizer's simplex sample sums two.


def _avg_age(li: float, p: float) -> float:
    # the direct closed form. It has the value of E[Y] but stays apart from
    # it: age_report checks it against a moment decomposition built on E[Y].
    return 1.0 / (li * p)


def _peak_age(li: float, p: float, ew: float) -> float:
    return _avg_age(li, p) + _mean_system_time(p, ew)


def _mean_system_time(p: float, ew: float) -> float:
    return ew / p


def _mean_interdeparture(li: float, p: float) -> float:
    return 1.0 / (li * p)


def _second_moment_interdeparture(li: float, p: float, ew: float) -> float:
    # 2 / (lam_i P)^2 is the largest per-stream metric: where it is finite,
    # so are the others (age_columns checks its range alone)
    square = np.multiply(li, li) * p * p
    # where lam_i^2 P^2 leaves the float range, squaring 1 / (lam_i P) may not
    inverse = np.where((0.0 < square) & (square < np.inf), 1.0 / square, np.square(1.0 / (li * p)))[()]
    return 2.0 * (-ew / (li * p * p) + inverse)


def system_time_mgf(cfg: SystemConfig, s: float) -> float:
    """MGF of the system time of a delivered update (same for every stream)."""
    return float(cfg.service.laplace(cfg.total_rate - s)) / cfg.service_beats_arrival()


def interdeparture_mgf(cfg: SystemConfig, i: int, s: float) -> float:
    """MGF of the gap between consecutive deliveries of stream i."""
    num = cfg.stream_rate(i) * float(cfg.service.laplace(cfg.total_rate - s))
    den = num - s
    # relative to the operands: at heavy load num is tiny but exact
    if abs(den) <= 1e-12 * max(abs(num), abs(s)):
        raise ParameterDomainError(f"interdeparture MGF pole near s={s}")
    return num / den


def clock_mgf_A(cfg: SystemConfig, s: float) -> float:
    """MGF of the idle-state winning clock (A and Z share this law)."""
    lam = cfg.total_rate
    if s >= lam:
        raise ParameterDomainError(f"clock MGF requires s < total rate {lam}, got {s}")
    return lam / (lam - s)


def clock_mgf_B(cfg: SystemConfig, s: float) -> float:
    """MGF of the preempting-arrival clock (B and V share this law)."""
    lam = cfg.total_rate
    if s >= lam:
        raise ParameterDomainError(f"clock MGF requires s < total rate {lam}, got {s}")
    p = cfg.service_beats_arrival()
    if 1.0 - p <= 0.0:
        raise ParameterDomainError("service law is degenerate at zero; clock B undefined")
    return lam * (1.0 - float(cfg.service.laplace(lam - s))) / ((lam - s) * (1.0 - p))


def moments_from_mgf(mgf: Callable[[float], float], order: int, h: float = 1e-4) -> float:
    """Extract E[X] or E[X^2] from an MGF by central differences at 0.

    One Richardson step refines the O(h^2) central-difference estimate. h is
    an absolute step in units of 1/time: the default suits rates near 1, and
    a caller on another time scale passes a step of its own.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")

    def diff(step: float) -> float:
        if order == 1:
            return (mgf(step) - mgf(-step)) / (2.0 * step)
        return (mgf(step) - 2.0 * mgf(0.0) + mgf(-step)) / (step * step)

    coarse = diff(h)
    fine = diff(h / 2.0)
    return (4.0 * fine - coarse) / 3.0


@dataclass(frozen=True)
class StreamMetrics:
    stream: int
    rate: float
    prob: float
    avg_age: float
    peak_age: float
    delivery_rate: float
    mean_system_time: float
    mean_interdeparture: float
    second_moment_interdeparture: float


@dataclass(frozen=True)
class AgeReport:
    streams: tuple[StreamMetrics, ...]
    total_avg_age: float
    total_peak_age: float


def age_columns(
    total_rates: np.ndarray, stream_probs: np.ndarray, service: ServiceDistribution
) -> dict[str, np.ndarray]:
    """Each StreamMetrics field but the stream (G x M) and AgeReport total (G) of G systems with M streams.

    System g has total rate total_rates[g], the split stream_probs[g] and the service law service, whose
    fields are floats or arrays of G values (system g takes element g): P(lam) and E[S e^{-lam S}] are
    evaluated once for all G. The systems are checked as SystemConfig checks one, and P(lam) must not
    underflow to 0. Then, in this order: E[Y^2] must lie in the float range; each age, computed by the
    direct closed form and by the sawtooth moment decomposition (E[T] + E[Y^2]/(2 E[Y]) for the average,
    E[T] + E[Y] for the peak), must agree to 1e-9 relative, the average first; and the peak age must
    exceed the average, or equal it where E[T] is below 2^-53 of it and so rounds away. The first check
    that fails raises its error at its first failing element, in row order, whatever later checks fail
    at earlier elements.
    """
    check_systems(total_rates, stream_probs)
    p = beats_arrival(service, total_rates)[:, None]
    ew = service.exp_weighted_mean(total_rates)[:, None]
    rates = total_rates[:, None] * stream_probs
    streams = np.arange(1, rates.shape[1] + 1)
    routes = " stream {}: direct formula {!r} disagrees with moment decomposition {!r}"
    with np.errstate(all="ignore"):  # values outside the float range fail the first check
        e_t = _mean_system_time(p, ew)
        e_y2 = _second_moment_interdeparture(rates, p, ew)
        e_y = _mean_interdeparture(rates, p)
        delta = _avg_age(rates, p)
        delta_pk = _peak_age(rates, p, ew)
        in_range = (0.0 < e_y2) & (e_y2 < math.inf)
        require(in_range, "second_moment_interdeparture is outside the float range at ({!r}, {!r}, {!r})", rates, p, ew)
        avg_route, peak_route = e_t + e_y2 / (2.0 * e_y), e_t + e_y
        ok = ~(np.abs(delta - avg_route) > 1e-9 * np.abs(delta))
        require(ok, "avg_age" + routes, streams, delta, avg_route, error=InvariantViolationError)
        ok = ~(np.abs(delta_pk - peak_route) > 1e-9 * np.abs(delta_pk))
        require(ok, "peak_age" + routes, streams, delta_pk, peak_route, error=InvariantViolationError)
        ok = (delta_pk > delta) | ((delta_pk == delta) & (e_t / delta < 2.0**-53))
        peak = "peak age {!r} not above average age {!r} for stream {}"
        require(ok, peak, delta_pk, delta, streams, error=InvariantViolationError)
    return {
        "rate": rates,
        "prob": stream_probs,
        "avg_age": delta,
        "peak_age": delta_pk,
        "delivery_rate": 1.0 / e_y,
        "mean_system_time": np.repeat(e_t, rates.shape[1], axis=1),
        "mean_interdeparture": e_y,
        "second_moment_interdeparture": e_y2,
        "total_avg_age": np.array([math.fsum(row) for row in delta.tolist()]),
        "total_peak_age": np.array([math.fsum(row) for row in delta_pk.tolist()]),
    }


def age_report(cfg: SystemConfig) -> AgeReport:
    """All per-stream metrics plus totals: age_columns on the one system."""
    columns = age_columns(np.array([cfg.total_rate], dtype=float), np.array([cfg.stream_probs]), cfg.service)
    totals = [columns.pop(name).item() for name in ("total_avg_age", "total_peak_age")]
    per_stream = zip(*(c[0].tolist() for c in columns.values()))
    return AgeReport(tuple(StreamMetrics(i, *row) for i, row in enumerate(per_stream, start=1)), *totals)


# The scalar metrics are fields of age_report, so they raise where it does.


def _stream(cfg: SystemConfig, i: int) -> StreamMetrics:
    cfg._check_index(i)
    return age_report(cfg).streams[i - 1]


def avg_age(cfg: SystemConfig, i: int) -> float:
    """Long-run time-average age of stream i."""
    return _stream(cfg, i).avg_age


def peak_age(cfg: SystemConfig, i: int) -> float:
    """Long-run average peak age of stream i."""
    return _stream(cfg, i).peak_age


def mean_system_time(cfg: SystemConfig) -> float:
    """E[T] of a delivered update."""
    return age_report(cfg).streams[0].mean_system_time


def mean_interdeparture(cfg: SystemConfig, i: int) -> float:
    """E[Y] for stream i."""
    return _stream(cfg, i).mean_interdeparture


def second_moment_interdeparture(cfg: SystemConfig, i: int) -> float:
    """E[Y^2] for stream i."""
    return _stream(cfg, i).second_moment_interdeparture
