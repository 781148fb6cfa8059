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

import functools
import math
from dataclasses import dataclass
from typing import Callable

from .distributions import ServiceDistribution
from .errors import InvariantViolationError, ParameterDomainError, PoleError

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
        if not (self.total_rate > 0 and math.isfinite(self.total_rate)):
            raise ParameterDomainError(f"total_rate must be > 0, got {self.total_rate}")
        probs = tuple(float(p) for p in self.stream_probs)
        object.__setattr__(self, "stream_probs", probs)
        if len(probs) < 1:
            raise ParameterDomainError("at least one stream is required")
        if any(p <= 0 for p in probs):
            raise ParameterDomainError(f"every stream probability must be > 0, got {probs}")
        try:
            total = math.fsum(probs)
        except OverflowError:  # finite probabilities whose sum is not
            total = math.inf
        if abs(total - 1.0) > _PROB_SUM_TOL:
            raise ParameterDomainError(f"stream probabilities must sum to 1 (got {total!r})")

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
        p = self.service.laplace(self.total_rate)
        if p == 0.0:
            raise ParameterDomainError(f"P(lam) underflows to 0 at total rate {self.total_rate}")
        return p


# Each metric is written once, as a function of the stream rate lam_i,
# P = P(lam) and ew = E[S e^{-lam S}]; the public functions and age_report
# evaluate P and ew and call these.


def _representable(metric):
    """Make a metric whose value leaves the float range a ParameterDomainError.

    Every metric is positive. At extreme loads lam_i P(lam) can underflow to
    0, or a quotient can overflow or underflow; the metric then raises instead
    of ZeroDivisionError or returning inf or 0.
    """

    @functools.wraps(metric)
    def checked(*args):
        try:
            value = metric(*args)
            if 0.0 < value < math.inf:
                return value
        except ZeroDivisionError:
            pass
        raise ParameterDomainError(f"{metric.__name__.lstrip('_')} is outside the float range at {args}")

    return checked


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


@_representable
def _second_moment_interdeparture(li: float, p: float, ew: float) -> float:
    # 2 / (lam_i P)^2 is the largest per-stream metric: where it is finite,
    # so are the others (age_report evaluates it first)
    return 2.0 * (-ew / (li * p * p) + 1.0 / (li * li * p * p))


@_representable
def avg_age(cfg: SystemConfig, i: int) -> float:
    """Long-run time-average age of stream i."""
    return _avg_age(cfg.stream_rate(i), cfg.service_beats_arrival())


@_representable
def peak_age(cfg: SystemConfig, i: int) -> float:
    """Long-run average peak age of stream i."""
    ew = cfg.service.exp_weighted_mean(cfg.total_rate)
    return _peak_age(cfg.stream_rate(i), cfg.service_beats_arrival(), ew)


def system_time_mgf(cfg: SystemConfig, s: float) -> float:
    """MGF of the system time of a delivered update (same for every stream)."""
    return cfg.service.laplace(cfg.total_rate - s) / cfg.service_beats_arrival()


def interdeparture_mgf(cfg: SystemConfig, i: int, s: float) -> float:
    """MGF of the gap between consecutive deliveries of stream i."""
    num = cfg.stream_rate(i) * cfg.service.laplace(cfg.total_rate - s)
    den = num - s
    # relative to the operands: at heavy load num is tiny but exact
    if abs(den) <= 1e-12 * max(abs(num), abs(s)):
        raise PoleError(f"interdeparture MGF pole near s={s}")
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
    return lam * (1.0 - cfg.service.laplace(lam - s)) / ((lam - s) * (1.0 - p))


def moments_from_mgf(mgf: Callable[[float], float], order: int, h: float = 1e-4) -> float:
    """Extract E[X] or E[X^2] from an MGF by central differences at 0.

    One Richardson step refines the O(h^2) central-difference estimate.
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


@_representable
def mean_system_time(cfg: SystemConfig) -> float:
    """E[T] of a delivered update."""
    return _mean_system_time(cfg.service_beats_arrival(), cfg.service.exp_weighted_mean(cfg.total_rate))


@_representable
def mean_interdeparture(cfg: SystemConfig, i: int) -> float:
    """E[Y] for stream i."""
    return _mean_interdeparture(cfg.stream_rate(i), cfg.service_beats_arrival())


def second_moment_interdeparture(cfg: SystemConfig, i: int) -> float:
    """E[Y^2] for stream i."""
    ew = cfg.service.exp_weighted_mean(cfg.total_rate)
    return _second_moment_interdeparture(cfg.stream_rate(i), cfg.service_beats_arrival(), ew)


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


_DUAL_ROUTE_TOL = 1e-9


def _check_routes(metric: str, i: int, direct: float, decomposed: float) -> None:
    if abs(direct - decomposed) > _DUAL_ROUTE_TOL * max(abs(direct), 1.0):
        raise InvariantViolationError(
            f"{metric} stream {i}: direct formula {direct!r} disagrees with moment decomposition {decomposed!r}"
        )


def age_report(cfg: SystemConfig) -> AgeReport:
    """All per-stream metrics plus totals.

    Each age is computed twice: from the direct closed form and from the
    sawtooth moment decomposition (E[T] + E[Y^2]/(2 E[Y]) for the average,
    E[T] + E[Y] for the peak). Disagreement beyond 1e-9 relative means a
    formula was transcribed wrong and raises InvariantViolationError.
    P(lam) and E[S e^{-lam S}] are evaluated once for all streams.
    """
    p = cfg.service_beats_arrival()
    ew = cfg.service.exp_weighted_mean(cfg.total_rate)
    e_t = _mean_system_time(p, ew)
    rows = []
    for i, prob in enumerate(cfg.stream_probs, start=1):
        li = cfg.stream_rate(i)
        e_y2 = _second_moment_interdeparture(li, p, ew)
        e_y = _mean_interdeparture(li, p)
        delta = _avg_age(li, p)
        delta_pk = _peak_age(li, p, ew)
        _check_routes("avg_age", i, delta, e_t + e_y2 / (2.0 * e_y))
        _check_routes("peak_age", i, delta_pk, e_t + e_y)
        if not delta_pk > delta:
            raise InvariantViolationError(
                f"peak age {delta_pk!r} not above average age {delta!r} for stream {i}"
            )
        rows.append(
            StreamMetrics(
                stream=i,
                rate=li,
                prob=prob,
                avg_age=delta,
                peak_age=delta_pk,
                delivery_rate=1.0 / e_y,
                mean_system_time=e_t,
                mean_interdeparture=e_y,
                second_moment_interdeparture=e_y2,
            )
        )
    return AgeReport(
        streams=tuple(rows),
        total_avg_age=math.fsum(r.avg_age for r in rows),
        total_peak_age=math.fsum(r.peak_age for r in rows),
    )
