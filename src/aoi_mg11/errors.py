"""Exception types shared across the package, and the elementwise check that raises them."""

import numpy as np


class AoiError(Exception):
    """Base class for all package errors: one class per exit code. The CLI
    prints ``label: message`` to stderr and exits with ``exit_code``."""


class ConfigError(AoiError):
    """A run configuration file, CLI flag, environment variable or output path failed validation."""

    exit_code = 2
    label = "config error"


class ParameterDomainError(AoiError):
    """A parameter or evaluation point is outside its admissible domain: a
    pole, a singular or divergent flow graph, or too rare a conditioning
    event included."""

    exit_code = 3
    label = "domain error"


class InsufficientDataError(AoiError):
    """Not enough recorded samples to form the requested estimate."""

    exit_code = 4
    label = "data error"


class InvariantViolationError(AoiError):
    """An internal dual-route self-check disagreed beyond tolerance; a defect."""

    exit_code = 5
    label = "internal invariant violated"


def require(ok, message: str, *values, error: type[AoiError] = ParameterDomainError) -> None:
    """Raise error(message.format(*v)) unless ok holds at every element: v are the values, broadcast
    to the shape of ok, at the first element (in C order) where it fails, as Python scalars."""
    ok = np.asarray(ok)
    if not ok.all():
        k = np.argmin(ok.ravel())
        raise error(message.format(*(np.broadcast_to(v, ok.shape).flat[k].item() for v in values)))
