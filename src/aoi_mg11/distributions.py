"""Service-time distribution family.

Each variant carries its Laplace transform E[e^{-sS}] and the exponentially
weighted mean E[S e^{-sS}] in closed form, plus a sampler for simulation.
The family is a closed set of four laws so that closed forms are always
available; arbitrary user-supplied densities are deliberately not supported.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import ConfigError, ParameterDomainError, require

__all__ = [
    "ServiceDistribution",
    "Exponential",
    "Gamma",
    "Deterministic",
    "Uniform",
    "CONFIG_FIELDS",
    "distribution_from_config",
    "finite_number",
]


class ServiceDistribution:
    """Base class; concrete laws are the frozen dataclasses below.

    A law's config spelling is its ``kind`` and its dataclass fields, in
    constructor order: the law is declared once, by its class. A field is a
    float, or an array of G values for G laws of the family; the checks on
    the fields and on s name the first element that fails. A method that can
    leave the float range evaluates under np.errstate(all="ignore"), and
    either checks its value or leaves it to its caller's checks.
    """

    kind: ClassVar[str]

    def laplace(self, s):
        """E[e^{-sS}] in closed form, broadcast over s and the fields; raises outside the convergence region."""
        raise NotImplementedError

    def exp_weighted_mean(self, s):
        """E[S e^{-sS}] = -d/ds E[e^{-sS}], in closed form, broadcast as laplace is."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """size i.i.d. strictly positive draws from a law whose fields are floats."""
        raise NotImplementedError

    def to_config(self) -> dict:
        """The config spelling that distribution_from_config builds this law from."""
        return {"type": self.kind, **dataclasses.asdict(self)}


@dataclass(frozen=True)
class Exponential(ServiceDistribution):
    kind: ClassVar[str] = "exponential"
    rate: float

    def __post_init__(self):
        require((self.rate > 0) & np.isfinite(self.rate), "Exponential rate must be > 0, got {}", self.rate)

    @np.errstate(all="ignore")
    def laplace(self, s):
        require(s > -self.rate, "Laplace argument {} <= -rate {}", s, -self.rate)
        # rate + s overflows only where both pass 1e292, so halving them is exact
        k = np.where(self.rate + s < np.inf, 1.0, 0.5)
        return (k * self.rate) / (k * self.rate + k * s)

    @np.errstate(all="ignore")
    def exp_weighted_mean(self, s):
        require(s > -self.rate, "argument {} <= -rate {}", s, -self.rate)
        total = self.rate + s
        square = np.square(total)
        direct = (0.0 < square) & (square < np.inf)
        # where the square leaves the float range, dividing by rate + s twice may not
        value = np.where(direct, self.rate / square, self.rate / total / total)[()]
        require(direct | ((0.0 < value) & (value < np.inf)), "E[S e^(-sS)] at s={} is outside the float range", s)
        return value

    def sample(self, rng, size):
        return rng.exponential(1.0 / self.rate, size)


@dataclass(frozen=True)
class Gamma(ServiceDistribution):
    kind: ClassVar[str] = "gamma"
    shape: float
    scale: float

    def __post_init__(self):
        require((self.shape > 0) & np.isfinite(self.shape), "Gamma shape must be > 0, got {}", self.shape)
        require((self.scale > 0) & np.isfinite(self.scale), "Gamma scale must be > 0, got {}", self.scale)

    @np.errstate(all="ignore")
    def laplace(self, s):
        require(s > -1.0 / self.scale, "Laplace argument {} <= -1/scale {}", s, -1.0 / self.scale)
        # log1p keeps the digits of s * scale that rounding 1 + s * scale loses;
        # with a large shape, the power would multiply that loss by the shape
        return np.exp(-self.shape * np.log1p(s * self.scale))

    @np.errstate(all="ignore")
    def exp_weighted_mean(self, s):
        require(s > -1.0 / self.scale, "argument {} <= -1/scale {}", s, -1.0 / self.scale)
        return self.shape * self.scale * np.exp(-(self.shape + 1.0) * np.log1p(s * self.scale))

    def sample(self, rng, size):
        return rng.gamma(self.shape, self.scale, size)


@dataclass(frozen=True)
class Deterministic(ServiceDistribution):
    kind: ClassVar[str] = "deterministic"
    value: float

    def __post_init__(self):
        require((self.value > 0) & np.isfinite(self.value), "Deterministic value must be > 0, got {}", self.value)

    @np.errstate(all="ignore")
    def laplace(self, s):
        return np.exp(-s * self.value)

    @np.errstate(all="ignore")
    def exp_weighted_mean(self, s):
        return self.value * np.exp(-s * self.value)

    def sample(self, rng, size):
        return np.full(size, self.value)


def _em1_over(x):
    """(1 - e^{-x}) / x, stable near 0; [()] makes the result of a scalar x a scalar, not a 0-d array."""
    return np.where(x == 0.0, 1.0, -np.expm1(-x) / x)[()]


# Taylor coefficients of _dem1_over, -(-1)^k (k+1)/(k+2)!, highest order
# first: they fall below 1e-17 of the leading term by k = 15 when |x| < 1/2.
_DEM1_SERIES = tuple(-((-1) ** k) * (k + 1) / math.factorial(k + 2) for k in reversed(range(16)))


def _dem1_over(x):
    """d/dx [(1 - e^{-x}) / x] = (e^{-x}(1 + x) - 1) / x^2, stable near 0.

    The closed form loses about 2e-16 / |e^{-x}(1 + x) - 1| to cancellation,
    so below |x| = 1/2 the Taylor series is summed instead.
    """
    series = 0.0
    for c in _DEM1_SERIES:
        series = series * x + c
    return np.where(np.abs(x) < 0.5, series, (np.exp(-x) * (1.0 + x) - 1.0) / (x * x))[()]


@dataclass(frozen=True)
class Uniform(ServiceDistribution):
    kind: ClassVar[str] = "uniform"
    lower: float
    upper: float

    def __post_init__(self):
        require((self.lower >= 0) & np.isfinite(self.lower), "Uniform lower must be >= 0, got {}", self.lower)
        ok = (self.upper > self.lower) & np.isfinite(self.upper)
        require(ok, "Uniform upper must exceed lower, got [{}, {}]", self.lower, self.upper)

    @np.errstate(all="ignore")
    def laplace(self, s):
        # removable singularity at s = 0: _em1_over is accurate on any scale down to x = 0
        value = np.exp(-s * self.lower) * _em1_over(s * (self.upper - self.lower))
        require(value < np.inf, "E[e^(-sS)] at s={} is outside the float range", s)
        return value

    @np.errstate(all="ignore")
    def exp_weighted_mean(self, s):
        a, b = self.lower, self.upper
        x = s * (b - a)
        return np.exp(-s * a) * (a * _em1_over(x) - (b - a) * _dem1_over(x))

    def sample(self, rng, size):
        # exact-zero draws (possible only when lower == 0) are redrawn
        out = rng.uniform(self.lower, self.upper, size)
        bad = out <= 0.0
        while bad.any():
            out[bad] = rng.uniform(self.lower, self.upper, int(bad.sum()))
            bad = out <= 0.0
        return out


_CONFIG_CLASSES = {cls.kind: cls for cls in (Exponential, Gamma, Deterministic, Uniform)}
# The config fields of each service law, in constructor order.
CONFIG_FIELDS = {kind: tuple(f.name for f in dataclasses.fields(cls)) for kind, cls in _CONFIG_CLASSES.items()}


def finite_number(value, where: str):
    """A finite config number as a float, or a float array elementwise: no bool, string or int past the float range."""
    if isinstance(value, np.ndarray):
        require(np.isfinite(value), f"{where} must be finite, got {{!r}}", value, error=ConfigError)
        return value
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    try:
        if math.isfinite(value):
            return float(value)
    except OverflowError:
        pass
    raise ConfigError(f"{where} must be finite, got {value!r}")


def distribution_from_config(spec: dict) -> ServiceDistribution:
    """Build a distribution from its config spelling, e.g. {"type": "gamma", ...}.

    Unknown types or stray fields are rejected so that typos never silently
    change the model.
    """
    if not isinstance(spec, dict):
        raise ConfigError(f"service spec must be an object, got {type(spec).__name__}")
    kind = spec.get("type")
    if not isinstance(kind, str) or kind not in CONFIG_FIELDS:
        raise ConfigError(f"unknown service type {kind!r}; expected one of {sorted(CONFIG_FIELDS)}")
    fields = CONFIG_FIELDS[kind]
    extra = set(spec) - {"type", *fields}
    if extra:
        raise ConfigError(f"unknown field(s) {sorted(extra)} in service spec of type {kind!r}")
    missing = [f for f in fields if f not in spec]
    if missing:
        raise ConfigError(f"service spec of type {kind!r} missing field(s) {missing}")
    kwargs = {f: finite_number(spec[f], f"service field {f!r}") for f in fields}
    try:
        return _CONFIG_CLASSES[kind](**kwargs)
    except ParameterDomainError as exc:
        raise ConfigError(str(exc)) from exc
