"""Run-configuration file parsing and validation.

Configs are JSON with four sections: system (required), simulation, probes,
and output. Unknown fields anywhere are errors, not warnings: a silently
ignored typo in a parameter name would invalidate a validation run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analytic import SystemConfig
from .distributions import distribution_from_config, finite_number
from .errors import ConfigError, ParameterDomainError, require
from .simulator import SimParams

__all__ = ["RunConfig", "OutputSettings", "load_run_config"]


@dataclass(frozen=True)
class OutputSettings:
    format: str  # csv | json
    path: str | None
    trace_path: str | None


@dataclass(frozen=True)
class RunConfig:
    system: SystemConfig
    simulation: SimParams | None
    mgf_s_values: tuple[float, ...]
    output: OutputSettings


def _require_object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object")
    return value


def _reject_unknown(obj: dict, allowed, where: str) -> None:
    extra = set(obj) - set(allowed)
    if extra:
        raise ConfigError(f"unknown field(s) {sorted(extra)} in {where}")


def _integer(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _numbers(value, where: str) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be an array")
    return tuple(finite_number(v, f"{where}[{k}]") for k, v in enumerate(value))


def _parse_system(obj: dict) -> SystemConfig:
    _reject_unknown(obj, {"total_rate", "stream_probs", "stream_rates", "service"}, "system")
    if "service" not in obj:
        raise ConfigError("system.service is required")
    service = distribution_from_config(obj["service"])

    has_probs = "stream_probs" in obj
    has_rates = "stream_rates" in obj
    if has_probs == has_rates:
        raise ConfigError("system: exactly one of stream_probs / stream_rates must be given")

    if has_probs:
        if "total_rate" not in obj:
            raise ConfigError("system.total_rate is required with stream_probs")
        total_rate = finite_number(obj["total_rate"], "system.total_rate")
        probs = obj["stream_probs"]
        if not isinstance(probs, list) or not probs:
            raise ConfigError("system.stream_probs must be a non-empty array")
        probs = _numbers(probs, "system.stream_probs")
    else:
        rates = obj["stream_rates"]
        if not isinstance(rates, list) or not rates:
            raise ConfigError("system.stream_rates must be a non-empty array")
        rates = _numbers(rates, "system.stream_rates")
        if any(r <= 0 for r in rates):
            raise ConfigError("system.stream_rates must all be > 0")
        try:
            total = math.fsum(rates)
        except OverflowError as exc:
            raise ConfigError("system.stream_rates: the total rate overflows") from exc
        if "total_rate" in obj:
            declared = finite_number(obj["total_rate"], "system.total_rate")
            if abs(declared - total) > 1e-9 * total:
                raise ConfigError(
                    f"system.total_rate {declared!r} does not match sum of stream_rates {total!r}"
                )
        total_rate = total
        probs = tuple(r / total for r in rates)

    try:
        return SystemConfig(total_rate=total_rate, stream_probs=probs, service=service)
    except ParameterDomainError as exc:
        raise ConfigError(f"system: {exc}") from exc


# The JSON type of each simulation field; SimParams owns the defaults and ranges.
_SIMULATION_FIELDS = {
    "max_time": finite_number,
    "min_deliveries_per_stream": _integer,
    "seed": _integer,
    "replications": _integer,
    "warmup_fraction": finite_number,
}


def _parse_simulation(obj: dict, system: SystemConfig) -> SimParams:
    _reject_unknown(obj, _SIMULATION_FIELDS, "simulation")
    fields = {key: _SIMULATION_FIELDS[key](v, f"simulation.{key}") for key, v in obj.items()}
    try:
        return SimParams(system, **fields)
    except ParameterDomainError as exc:
        raise ConfigError(f"simulation: {exc}") from exc


def _parse_probes(obj: dict) -> tuple[float, ...]:
    _reject_unknown(obj, {"mgf_s_values"}, "probes")
    vals = _numbers(obj.get("mgf_s_values", []), "probes.mgf_s_values")
    message = "probes.mgf_s_values must be <= 0 (empirical MGF checks are only stable for non-positive s), got {}"
    require(np.asarray(vals) <= 0, message, vals, error=ConfigError)
    return vals


def _parse_output(obj: dict) -> OutputSettings:
    _reject_unknown(obj, {"format", "path", "trace_path"}, "output")
    fmt = obj.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"output.format must be 'csv' or 'json', got {fmt!r}")
    path = obj.get("path")
    if path is not None and not isinstance(path, str):
        raise ConfigError("output.path must be a string")
    trace_path = obj.get("trace_path")
    if trace_path is not None and not isinstance(trace_path, str):
        raise ConfigError("output.trace_path must be a string")
    return OutputSettings(format=fmt, path=path, trace_path=trace_path)


def load_run_config(path: str | Path) -> RunConfig:
    """Parse and validate a config file; raises ConfigError on any problem."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # an integer literal too long, or nesting too deep
        raise ConfigError(f"{path}: {exc}") from exc

    root = _require_object(data, "config root")
    _reject_unknown(root, {"system", "simulation", "probes", "output"}, "config root")
    if "system" not in root:
        raise ConfigError("config: the 'system' section is required")
    system = _parse_system(_require_object(root["system"], "system"))
    probes = _parse_probes(_require_object(root.get("probes", {}), "probes"))
    simulation = None
    if "simulation" in root:
        simulation = _parse_simulation(_require_object(root["simulation"], "simulation"), system)
    output = _parse_output(_require_object(root.get("output", {}), "output"))
    return RunConfig(system=system, simulation=simulation, mgf_s_values=probes, output=output)
