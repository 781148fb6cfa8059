"""The benchmark workloads: the CLI commands each runs and how to check them.

A workload joins parts. A part is one kind of use of the CLI, with the work it
counts and the check of its outputs; the part's throughput is its count over
the time of its own commands.

Every input is generated from the benchmark seed. The seed reaches the program
as ``simulation.seed`` in a generated config, or as ``AOI_SEED`` where a config
has no simulation section. The output checks recompute the expected values
here, from the model's closed forms, without calling the package.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# The README example system, used by both simulate workloads.
README_RATE = 1.5
README_PROBS = (0.5, 0.3, 0.2)
README_SERVICE_RATE = 1.0


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    outputs: tuple[Path, ...]  # files the command writes, in a fixed order


@dataclass(frozen=True)
class Part:
    """Commands of one kind, as generated for a seed in a work directory.

    ``check`` takes the captured stdout of each of the part's commands and
    returns the part's exact work count with a list of (command index within
    the part, message) for every failed output check.
    """

    work_name: str  # what the part's count counts, e.g. "arrivals"
    commands: tuple[Command, ...]
    check: Callable[[list[str]], tuple[int, list[tuple[int, str]]]]


@dataclass(frozen=True)
class Workload:
    name: str
    env: dict[str, str]
    parts: tuple[Part, ...]

    @property
    def commands(self) -> tuple[Command, ...]:
        return tuple(c for part in self.parts for c in part.commands)

    def part_slices(self) -> list[tuple[Part, slice]]:
        """Each part with the slice of ``commands`` it owns."""
        out, at = [], 0
        for part in self.parts:
            out.append((part, slice(at, at + len(part.commands))))
            at += len(part.commands)
        return out

    def check(self, stdouts: list[str]) -> tuple[dict[str, int], list[tuple[int, str]]]:
        """Every part's work count, and every failed check by workload command index."""
        counts, failures = {}, []
        for part, sl in self.part_slices():
            counts[part.work_name], part_failures = part.check(stdouts[sl])
            failures += [(sl.start + i, msg) for i, msg in part_failures]
        return counts, failures


def p_exponential(lam: float, mu: float) -> float:
    """P(lam) = E[exp(-lam S)] for S ~ Exponential(mu)."""
    return mu / (mu + lam)


def p_uniform(lam: float, a: float, b: float) -> float:
    """P(lam) = E[exp(-lam S)] for S ~ Uniform(a, b)."""
    return (math.exp(-lam * a) - math.exp(-lam * b)) / (lam * (b - a))


def _rel_close(observed: float, expected: float, rel: float) -> bool:
    return abs(observed - expected) <= rel * abs(expected)


def _write_config(path: Path, config: dict) -> Path:
    path.write_text(json.dumps(config, indent=2) + "\n")
    return path


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _readme_system() -> dict:
    return {
        "total_rate": README_RATE,
        "stream_probs": list(README_PROBS),
        "service": {"type": "exponential", "rate": README_SERVICE_RATE},
    }


def _check_simulated_ages(rows: list[dict[str, str]]) -> list[str]:
    """Each stream's avg/peak age within 1.5% + 4 se of its ref_* column."""
    problems = []
    p_lam = p_exponential(README_RATE, README_SERVICE_RATE)
    if len(rows) != len(README_PROBS):
        return [f"expected {len(README_PROBS)} stream rows, got {len(rows)}"]
    for row, prob in zip(rows, README_PROBS):
        ref_age = 1.0 / (README_RATE * prob * p_lam)
        if not _rel_close(float(row["ref_avg_age"]), ref_age, 1e-5):
            problems.append(f"stream {row['stream']}: ref_avg_age {row['ref_avg_age']} != {ref_age:.6g}")
        for col in ("avg_age", "peak_age"):
            obs, ref, se = float(row[col]), float(row["ref_" + col]), float(row[col + "_se"])
            if not abs(obs - ref) <= 0.015 * abs(ref) + 4.0 * se:
                problems.append(f"stream {row['stream']}: {col} {obs} vs ref {ref} (se {se})")
    return problems


def simulate_long(seed: int, work: Path) -> Part:
    max_time, reps = 2e6, 4
    out = work / "simulate_long.csv"
    cfg = _write_config(
        work / "simulate_long.json",
        {
            "system": _readme_system(),
            "simulation": {"max_time": max_time, "seed": seed, "replications": reps},
            "probes": {"mgf_s_values": [-0.5, -1.0]},
            "output": {"format": "csv", "path": str(out)},
        },
    )

    def check(stdouts):
        failures = [(0, msg) for msg in _check_simulated_ages(_read_csv(out))]
        return round(README_RATE * max_time * reps), failures

    return Part("arrivals", (Command(("simulate", "-c", str(cfg)), (out,)),), check)


TRACE_KINDS = ("arrival", "delivery", "preemption")


def simulate_trace(seed: int, work: Path) -> Part:
    out, trace = work / "simulate_trace.csv", work / "trace.csv"
    cfg = _write_config(
        work / "simulate_trace.json",
        {
            "system": _readme_system(),
            "simulation": {"max_time": 2e5, "seed": seed, "replications": 1},
            "probes": {"mgf_s_values": [-0.5, -1.0]},
            "output": {"format": "csv", "path": str(out)},
        },
    )

    def check(stdouts):
        problems = []
        counts = dict.fromkeys(TRACE_KINDS, 0)
        rows = 0
        last = -math.inf
        with open(trace, newline="") as fh:
            reader = csv.reader(fh)
            if next(reader) != ["time", "kind", "stream", "generation_time"]:
                problems.append("trace header is wrong")
            for time_s, kind, _, _ in reader:
                rows += 1
                t = float(time_s)
                if t < last:
                    problems.append(f"trace row {rows}: time {t} before {last}")
                    break
                last = t
                if kind not in counts:
                    problems.append(f"trace row {rows}: unknown kind {kind!r}")
                    break
                counts[kind] += 1
        p_lam = p_exponential(README_RATE, README_SERVICE_RATE)
        share = counts["delivery"] / max(counts["arrival"], 1)
        if not _rel_close(share, p_lam, 0.01):
            problems.append(f"delivery share {share:.6f} not within 1% of P(lambda) {p_lam:.6f}")
        return rows, [(0, msg) for msg in problems]

    argv = ("simulate", "-c", str(cfg), "--trace", str(trace))
    return Part("trace_events", (Command(argv, (out, trace)),), check)


VALIDATE_SERVICES = (
    {"type": "exponential", "rate": 1.0},
    {"type": "gamma", "shape": 2.0, "scale": 0.4},
    {"type": "deterministic", "value": 0.6},
    {"type": "uniform", "lower": 0.1, "upper": 1.1},
)


def validate_oracles(work: Path) -> Part:
    commands = []
    for service in VALIDATE_SERVICES:
        out = work / f"validate_{service['type']}.json"
        cfg = _write_config(
            work / f"validate_{service['type']}_config.json",
            {
                "system": {
                    "total_rate": 1.2,
                    "stream_probs": [0.3, 0.25, 0.2, 0.15, 0.1],
                    "service": service,
                },
                "probes": {"mgf_s_values": [-0.25, -0.5, -1.0, -2.0]},
                "output": {"format": "json", "path": str(out)},
            },
        )
        commands.append(Command(("validate", "-c", str(cfg)), (out,)))

    def check(stdouts):
        n_checks, failures = 0, []
        for k, cmd in enumerate(commands):
            checks = json.loads(cmd.outputs[0].read_text())["checks"]
            n_checks += len(checks)
            failures += [(k, f"check {c['name']} failed") for c in checks if c["passed"] is not True]
        return n_checks, failures

    return Part("oracle_checks", tuple(commands), check)


CLOSED_PROBS = (0.2, 0.16, 0.14, 0.12, 0.11, 0.1, 0.09, 0.08)
CLOSED_LOWER, CLOSED_UPPER = 0.2, 1.0
GRID_POINTS = 4000


def _grid(rng: random.Random, lo: float, hi: float) -> list[float]:
    """GRID_POINTS values, rounded to the 6 digits the CSV output keeps."""
    lo *= 1.0 + 0.05 * rng.random()
    hi *= 1.0 - 0.05 * rng.random()
    step = (hi - lo) / (GRID_POINTS - 1)
    return [float(f"{lo + k * step:.6g}") for k in range(GRID_POINTS)]


def analyze_sweep_optimize(seed: int, work: Path) -> Part:
    rng = random.Random(seed)
    rate = float(f"{1.0 + 0.1 * rng.random():.6g}")
    m = len(CLOSED_PROBS)
    sweeps = {
        "total_rate": _grid(rng, 0.2, 4.0),
        "p1": _grid(rng, 0.02, 0.92),
        "upper": _grid(rng, 0.3, 3.0),
    }

    def config(name: str) -> tuple[Path, Path]:
        out = work / f"{name}.csv"
        cfg = _write_config(
            work / f"{name}.json",
            {
                "system": {
                    "total_rate": rate,
                    "stream_probs": list(CLOSED_PROBS),
                    "service": {"type": "uniform", "lower": CLOSED_LOWER, "upper": CLOSED_UPPER},
                },
                "output": {"format": "csv", "path": str(out)},
            },
        )
        return cfg, out

    cfg, out = config("analyze")
    commands = [Command(("analyze", "-c", str(cfg)), (out,))]
    for param, grid in sweeps.items():
        cfg, out = config(f"sweep_{param}")
        grid_arg = ",".join(repr(v) for v in grid)
        commands.append(Command(("sweep", "-c", str(cfg), "--param", param, "--grid", grid_arg), (out,)))
    commands.append(
        Command(
            (
                "optimize", "--rate", repr(rate), "--streams", str(m), "--service", "uniform",
                "--lower", repr(CLOSED_LOWER), "--upper", repr(CLOSED_UPPER), "--points", "20000",
            ),
            (),
        )
    )

    def expected_ages(param: str | None, value: float) -> list[float]:
        """1/(lambda_i P(lambda)) for every stream, at one grid value."""
        lam, probs, upper = rate, list(CLOSED_PROBS), CLOSED_UPPER
        if param == "total_rate":
            lam = value
        elif param == "p1":
            probs = [value] + [(1.0 - value) / (m - 1)] * (m - 1)
        elif param == "upper":
            upper = value
        p_lam = p_uniform(lam, CLOSED_LOWER, upper)
        return [1.0 / (lam * p * p_lam) for p in probs]

    def check_rows(k: int, rows, param: str | None, grid: list[float]) -> list[tuple[int, str]]:
        if len(rows) != len(grid) * m:
            return [(k, f"expected {len(grid) * m} rows, got {len(rows)}")]
        failures = []
        for g, value in enumerate(grid):
            for row, want in zip(rows[g * m : (g + 1) * m], expected_ages(param, value)):
                if param is not None and float(row["value"]) != value:
                    failures.append((k, f"{param} row value {row['value']} != grid value {value!r}"))
                if not _rel_close(float(row["avg_age"]), want, 1e-5):
                    failures.append((k, f"{param or 'analyze'}={value!r} stream {row['stream']}: avg_age {row['avg_age']} != {want!r}"))
        return failures

    def check(stdouts):
        analyze_rows = [r for r in _read_csv(commands[0].outputs[0]) if r["stream"] != "total"]
        failures = check_rows(0, analyze_rows, None, [rate])
        for k, (param, grid) in enumerate(sweeps.items(), start=1):
            failures += check_rows(k, _read_csv(commands[k].outputs[0]), param, grid)
        k_opt = len(commands) - 1
        try:
            violation = json.loads(stdouts[k_opt])["verification"]["max_violation"]
        except (ValueError, KeyError) as exc:
            failures.append((k_opt, f"optimize output unreadable: {exc}"))
        else:
            if violation != 0:
                failures.append((k_opt, f"optimize max_violation {violation!r} != 0"))
        return sum(len(g) for g in sweeps.values()), failures

    return Part("grid_points", tuple(commands), check)


def simulate(seed: int, work: Path) -> Workload:
    return Workload("simulate", {}, (simulate_long(seed, work), simulate_trace(seed, work)))


def closed_forms(seed: int, work: Path) -> Workload:
    # validate has no simulation section; its Monte Carlo takes AOI_SEED.
    parts = (analyze_sweep_optimize(seed, work), validate_oracles(work))
    return Workload("closed-forms", {"AOI_SEED": str(seed)}, parts)


BUILDERS = {
    "simulate": simulate,
    "closed-forms": closed_forms,
}
