"""Service-time distribution family.

Each variant carries its Laplace transform E[e^{-sS}] and the exponentially
weighted mean E[S e^{-sS}] in closed form, plus a sampler for simulation.
The family is a closed set of four laws so that closed forms are always
available; arbitrary user-supplied densities are deliberately not supported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ParameterDomainError

__all__ = [
    "ServiceDistribution",
    "Exponential",
    "Gamma",
    "Deterministic",
    "Uniform",
    "CONFIG_FIELDS",
    "distribution_from_config",
]


class ServiceDistribution:
    """Base class; concrete laws are the frozen dataclasses below."""

    def mean(self) -> float:
        raise NotImplementedError

    def laplace(self, s: float) -> float:
        """E[e^{-sS}] in closed form; raises outside the convergence region."""
        raise NotImplementedError

    def exp_weighted_mean(self, s: float) -> float:
        """E[S e^{-sS}] = -d/ds E[e^{-sS}], in closed form."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """i.i.d. strictly positive draws from the law."""
        raise NotImplementedError

    def to_config(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class Exponential(ServiceDistribution):
    rate: float

    def __post_init__(self):
        if not (self.rate > 0 and math.isfinite(self.rate)):
            raise ParameterDomainError(f"Exponential rate must be > 0, got {self.rate}")

    def mean(self) -> float:
        return 1.0 / self.rate

    def laplace(self, s: float) -> float:
        if s <= -self.rate:
            raise ParameterDomainError(f"Laplace argument {s} <= -rate {-self.rate}")
        return self.rate / (self.rate + s)

    def exp_weighted_mean(self, s: float) -> float:
        if s <= -self.rate:
            raise ParameterDomainError(f"argument {s} <= -rate {-self.rate}")
        return self.rate / (self.rate + s) ** 2

    def sample(self, rng, size=None):
        return rng.exponential(1.0 / self.rate, size)

    def to_config(self) -> dict:
        return {"type": "exponential", "rate": self.rate}


@dataclass(frozen=True)
class Gamma(ServiceDistribution):
    shape: float
    scale: float

    def __post_init__(self):
        if not (self.shape > 0 and math.isfinite(self.shape)):
            raise ParameterDomainError(f"Gamma shape must be > 0, got {self.shape}")
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ParameterDomainError(f"Gamma scale must be > 0, got {self.scale}")

    def mean(self) -> float:
        return self.shape * self.scale

    def laplace(self, s: float) -> float:
        if s <= -1.0 / self.scale:
            raise ParameterDomainError(f"Laplace argument {s} <= -1/scale {-1.0 / self.scale}")
        return (1.0 + s * self.scale) ** (-self.shape)

    def exp_weighted_mean(self, s: float) -> float:
        if s <= -1.0 / self.scale:
            raise ParameterDomainError(f"argument {s} <= -1/scale {-1.0 / self.scale}")
        return self.shape * self.scale * (1.0 + s * self.scale) ** (-(self.shape + 1.0))

    def sample(self, rng, size=None):
        return rng.gamma(self.shape, self.scale, size)

    def to_config(self) -> dict:
        return {"type": "gamma", "shape": self.shape, "scale": self.scale}


@dataclass(frozen=True)
class Deterministic(ServiceDistribution):
    value: float

    def __post_init__(self):
        if not (self.value > 0 and math.isfinite(self.value)):
            raise ParameterDomainError(f"Deterministic value must be > 0, got {self.value}")

    def mean(self) -> float:
        return self.value

    def laplace(self, s: float) -> float:
        return math.exp(-s * self.value)

    def exp_weighted_mean(self, s: float) -> float:
        return self.value * math.exp(-s * self.value)

    def sample(self, rng, size=None):
        if size is None:
            return self.value
        return np.full(size, self.value)

    def to_config(self) -> dict:
        return {"type": "deterministic", "value": self.value}


def _em1_over(x: float) -> float:
    """(1 - e^{-x}) / x, stable near 0."""
    if x == 0.0:
        return 1.0
    return -math.expm1(-x) / x


def _dem1_over(x: float) -> float:
    """d/dx [(1 - e^{-x}) / x] = (e^{-x}(1 + x) - 1) / x^2, stable near 0."""
    if abs(x) < 1e-4:
        # series: -1/2 + x/3 - x^2/8 + x^3/30
        return -0.5 + x / 3.0 - x * x / 8.0 + x ** 3 / 30.0
    return (math.exp(-x) * (1.0 + x) - 1.0) / (x * x)


@dataclass(frozen=True)
class Uniform(ServiceDistribution):
    lower: float
    upper: float

    def __post_init__(self):
        if not (self.lower >= 0 and math.isfinite(self.lower)):
            raise ParameterDomainError(f"Uniform lower must be >= 0, got {self.lower}")
        if not (self.upper > self.lower and math.isfinite(self.upper)):
            raise ParameterDomainError(
                f"Uniform upper must exceed lower, got [{self.lower}, {self.upper}]"
            )

    def mean(self) -> float:
        return 0.5 * (self.lower + self.upper)

    def laplace(self, s: float) -> float:
        # removable singularity at s = 0
        if abs(s) < 1e-12:
            a, b = self.lower, self.upper
            return 1.0 - s * (a + b) / 2.0 + s * s * (a * a + a * b + b * b) / 6.0
        x = s * (self.upper - self.lower)
        return math.exp(-s * self.lower) * _em1_over(x)

    def exp_weighted_mean(self, s: float) -> float:
        a, b = self.lower, self.upper
        x = s * (b - a)
        g = _em1_over(x)
        return math.exp(-s * a) * (a * g - (b - a) * _dem1_over(x))

    def sample(self, rng, size=None):
        # exact-zero draws (possible only when lower == 0) are redrawn
        if size is None:
            x = rng.uniform(self.lower, self.upper)
            while x <= 0.0:
                x = rng.uniform(self.lower, self.upper)
            return x
        out = rng.uniform(self.lower, self.upper, size)
        bad = out <= 0.0
        while bad.any():
            out[bad] = rng.uniform(self.lower, self.upper, int(bad.sum()))
            bad = out <= 0.0
        return out

    def to_config(self) -> dict:
        return {"type": "uniform", "lower": self.lower, "upper": self.upper}


# The config fields of each service law, in constructor order.
CONFIG_FIELDS = {
    "exponential": ("rate",),
    "gamma": ("shape", "scale"),
    "deterministic": ("value",),
    "uniform": ("lower", "upper"),
}

_CONFIG_CLASSES = {
    "exponential": Exponential,
    "gamma": Gamma,
    "deterministic": Deterministic,
    "uniform": Uniform,
}


def distribution_from_config(spec: dict) -> ServiceDistribution:
    """Build a distribution from its config spelling, e.g. {"type": "gamma", ...}.

    Unknown types or stray fields are rejected so that typos never silently
    change the model.
    """
    if not isinstance(spec, dict):
        raise ConfigError(f"service spec must be an object, got {type(spec).__name__}")
    kind = spec.get("type")
    if kind not in CONFIG_FIELDS:
        raise ConfigError(f"unknown service type {kind!r}; expected one of {sorted(CONFIG_FIELDS)}")
    fields = CONFIG_FIELDS[kind]
    extra = set(spec) - {"type", *fields}
    if extra:
        raise ConfigError(f"unknown field(s) {sorted(extra)} in service spec of type {kind!r}")
    missing = [f for f in fields if f not in spec]
    if missing:
        raise ConfigError(f"service spec of type {kind!r} missing field(s) {missing}")
    kwargs = {}
    for f in fields:
        v = spec[f]
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise ConfigError(f"service field {f!r} must be a number, got {v!r}")
        kwargs[f] = float(v)
    try:
        return _CONFIG_CLASSES[kind](**kwargs)
    except ParameterDomainError as exc:
        raise ConfigError(str(exc)) from exc
