"""Command-line front end: analyze, simulate, validate, optimize, sweep.

Exit codes: 0 success, 2 config/flag error, 3 domain error, 4 replication
failure, 5 validation check failure. Output files are written atomically
(temp file + rename) so failures never leave partial files behind.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import operator
import os
import sys
import tempfile
from collections.abc import Callable, Iterator
from types import SimpleNamespace

import numpy as np

from . import analytic, flowgraph, optimizer, simulator
from .analytic import SystemConfig
from .config import RunConfig, load_run_config
from .distributions import CONFIG_FIELDS, ServiceDistribution, distribution_from_config, finite_number
from .errors import (
    AoiError,
    ConditioningTooRareError,
    ConfigError,
    DivergenceError,
    InsufficientDataError,
    InvariantViolationError,
    ParameterDomainError,
    PoleError,
    SingularSystemError,
)

EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_REPLICATION = 4
EXIT_VALIDATION = 5

# The per-stream metric set, in output order: field of analytic.StreamMetrics
# and simulator.StreamStats -> output column. Simulated rows carry a
# "<column>_se" standard error beside each value.
_METRICS = (
    ("avg_age", "avg_age"),
    ("peak_age", "peak_age"),
    ("mean_system_time", "mean_T"),
    ("mean_interdeparture", "mean_Y"),
    ("second_moment_interdeparture", "mean_Y2"),
    ("delivery_rate", "delivery_rate"),
)
_COLUMNS = tuple(column for _, column in _METRICS)
_COLUMNS_SE = tuple(name for column in _COLUMNS for name in (column, column + "_se"))
_metric_values = operator.attrgetter(*(field for field, _ in _METRICS))
_metric_values_se = operator.attrgetter(*(name for field, _ in _METRICS for name in (field, field + "_se")))
_SWEEP_COLUMNS = ("param", "value", "stream", "source", *_COLUMNS, "delta_tot", "delta_peak_tot")
# An analytic sweep row, every column of a known type; "%.6g" writes the bytes _fmt does.
_SWEEP_LINE = "%s,%.6g,%d,%s" + ",%.6g" * (len(_COLUMNS) + 2)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _csv_line(row) -> str:
    return ",".join(map(_fmt, row))


def _sweep_line(row) -> str:
    # an analytic row by _SWEEP_LINE; a simulated one, with empty totals, as _fmt writes it
    return _SWEEP_LINE % row if row[-1] is not None else _csv_line(row)


@contextlib.contextmanager
def _atomic_file(path: str) -> Iterator:
    """A text file that the with-block writes through a unique temp file in the
    same directory, renamed to path when the block ends. If anything fails, the
    temp file is removed, and an OSError is a ConfigError naming path."""
    directory, name = os.path.split(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(prefix=f"{name}.", suffix=".tmp", dir=directory or ".")
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # the mode open() would have given
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise


def _emit_table(columns: tuple[str, ...], rows: list[tuple], out, csv_line=_csv_line) -> None:
    """Write rows, tuples in column order, as CSV (6 significant digits) or JSON (full precision)."""
    if out.format == "csv":
        text = "\n".join([",".join(columns), *map(csv_line, rows)]) + "\n"
    else:
        text = json.dumps({"columns": columns, "rows": [dict(zip(columns, row)) for row in rows]}, indent=2) + "\n"
    if out.path:
        with _atomic_file(out.path) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _analyze_rows(cfg: SystemConfig) -> list[tuple]:
    report = analytic.age_report(cfg)
    total = SimpleNamespace(
        stream="total",
        rate=cfg.total_rate,
        prob=1.0,
        avg_age=report.total_avg_age,
        peak_age=report.total_peak_age,
        mean_system_time=report.streams[0].mean_system_time,
        mean_interdeparture=None,
        second_moment_interdeparture=None,
        delivery_rate=math.fsum(s.delivery_rate for s in report.streams),
    )
    return [(s.stream, s.rate, s.prob, *_metric_values(s)) for s in (*report.streams, total)]


def cmd_analyze(run_cfg: RunConfig) -> int:
    _emit_table(("stream", "lambda_i", "p_i", *_COLUMNS), _analyze_rows(run_cfg.system), run_cfg.output)
    return 0


def _simulation(run_cfg: RunConfig, seed_override: int | None, **changes) -> simulator.SimParams:
    """The config's simulation settings, with AOI_SEED and any other changes applied."""
    if run_cfg.simulation is None:
        raise ConfigError("this command requires a 'simulation' section in the config")
    if seed_override is not None:
        changes["seed"] = seed_override
    return dataclasses.replace(run_cfg.simulation, **changes)


def _simulate_rows(run_cfg: RunConfig, result: simulator.SimResult) -> list[tuple]:
    report = analytic.age_report(run_cfg.system)
    return [
        (s.stream, ref.rate, ref.prob, *_metric_values_se(s), ref.avg_age, ref.peak_age)
        for s, ref in zip(result.streams, report.streams)
    ]


def cmd_simulate(run_cfg: RunConfig, seed_override: int | None, trace_path: str | None) -> int:
    params = _simulation(run_cfg, seed_override)
    trace_path = trace_path or run_cfg.output.trace_path
    columns = ("stream", "lambda_i", "p_i", *_COLUMNS_SE, "ref_avg_age", "ref_peak_age")
    # the trace is written as it is simulated, and kept only if the command succeeds
    with contextlib.nullcontext() if trace_path is None else _atomic_file(trace_path) as fh:
        trace = None if fh is None else _trace_writer(fh, run_cfg.system.num_streams)
        result = simulator.run(params, trace)
        _emit_table(columns, _simulate_rows(run_cfg, result), run_cfg.output)
    return 0


# Trace rows formatted at a time; it bounds the text held in memory.
_TRACE_ROWS = 1 << 12


def _trace_writer(fh, num_streams: int) -> Callable[[], simulator.TraceSink]:
    """simulator.run's trace factory for fh: each pass of the first replication
    starts the file again, and its sink writes each block as CSV rows, times in
    full repr. Formatting a float is the cost here; every generation time is an
    arrival time, so the rows of a block share most of their times, and each
    distinct time is formatted once."""
    # the ",kind,stream," middle of a row, by kind * (M + 1) + stream
    middle = [f",{name},{s}," for name in simulator.TRACE_KINDS for s in range(num_streams + 1)]

    def write(block) -> None:
        for lo in range(0, len(block[0]), _TRACE_ROWS):
            t, k, s, g = (column[lo : lo + _TRACE_ROWS] for column in block)
            times, at = np.unique(np.concatenate((t, g)), return_inverse=True)
            text = list(map(repr, times.tolist()))
            mid = k.astype(np.intp) * (num_streams + 1) + s
            rows = zip(at[: len(t)].tolist(), mid.tolist(), at[len(t) :].tolist())
            fh.write("".join([f"{text[i]}{middle[c]}{text[j]}\n" for i, c, j in rows]))

    def start() -> simulator.TraceSink:
        fh.seek(0)
        fh.truncate()
        fh.write("time,kind,stream,generation_time\n")
        return write

    return start


def _run_validation(run_cfg: RunConfig, seed_override: int | None):
    """The full oracle battery; returns a list of check dicts."""
    cfg = run_cfg.system
    checks: list[dict] = []

    def add(name, observed, expected, tol):
        delta = abs(observed - expected)
        checks.append(
            {
                "name": name,
                "observed": observed,
                "expected": expected,
                "delta": delta,
                "tolerance": tol,
                "passed": bool(delta <= tol),
            }
        )

    lam = cfg.total_rate
    # default probes at fixed fractions of lam, so that they scale with the time unit
    s_values = run_cfg.mgf_s_values or (-lam / 6, -lam / 3, -2 * lam / 3)

    # interdeparture MGF: closed form vs transfer function vs elimination vs path sum
    for i in range(1, cfg.num_streams + 1):
        pr = flowgraph.clock_probs(cfg, i)
        for s in s_values:
            ref = analytic.interdeparture_mgf(cfg, i, s)
            w = flowgraph.edge_weights(cfg, s)
            add(f"transfer_function[i={i},s={s}]", flowgraph.transfer_function(w, pr), ref, 1e-10 * abs(ref))
            add(
                f"elimination[i={i},s={s}]",
                flowgraph.solve_transfer_by_elimination(flowgraph.build_graph(pr, w)),
                ref,
                1e-10 * abs(ref),
            )
            value, bound = flowgraph.path_enumeration_oracle(pr, w, max_edges=4096)
            add(f"path_sum[i={i},s={s}]", value, ref, bound + 1e-10 * abs(ref))

    # closed-form moments vs numeric differentiation of the MGFs. The step
    # 1e-3 * min(1/E[X], lam) scales with the time unit and stays 1e-3 of
    # the way to the MGF's nearest singularity: T's MGF P(lam - s) / P(lam)
    # is finite up to s = lam, and Y_i's pole lies beyond 1/E[Y_i] <= lam. A
    # mean that underflows to 0 leaves lam alone to bound the step.
    # The one report every closed-form reference below is read from:
    report = analytic.age_report(cfg)

    def step(mean: float) -> float:
        return 1e-3 * (min(1.0 / mean, lam) if mean else lam)

    e_t = report.streams[0].mean_system_time
    add(
        "mean_system_time_numeric",
        analytic.moments_from_mgf(lambda s: analytic.system_time_mgf(cfg, s), 1, h=step(e_t)),
        e_t,
        1e-5 * abs(e_t),
    )
    for i, ref_row in enumerate(report.streams, start=1):
        phi = lambda s, i=i: analytic.interdeparture_mgf(cfg, i, s)
        h = step(ref_row.mean_interdeparture)
        for name, order, ref in (
            ("mean_interdeparture_numeric", 1, ref_row.mean_interdeparture),
            ("second_moment_numeric", 2, ref_row.second_moment_interdeparture),
        ):
            add(f"{name}[i={i}]", analytic.moments_from_mgf(phi, order, h=h), ref, 1e-5 * abs(ref))

    # dual-route self-check built into age_report: a report that fails it
    # raises InvariantViolationError above, which exits 5
    add("dual_route_decomposition", 0.0, 0.0, 1e-9)

    # Monte Carlo conditional clocks vs closed-form MGFs (5 sigma)
    sim_settings = run_cfg.simulation
    mc_seed = seed_override if seed_override is not None else (sim_settings.seed if sim_settings else 0)
    rng = np.random.default_rng(np.random.SeedSequence(mc_seed).spawn(1)[0])
    clock_refs = {
        "A": analytic.clock_mgf_A,
        "Z": analytic.clock_mgf_A,
        "B": analytic.clock_mgf_B,
        "V": analytic.clock_mgf_B,
        "U": analytic.system_time_mgf,
    }
    clock_names = ["A", "B", "U"] + (["V", "Z"] if cfg.num_streams > 1 else [])
    for which in clock_names:
        stats = simulator.clock_conditional_sampler(cfg, 1, which, 200_000, rng)
        for s, (mean, se) in stats.items():
            add(f"clock_{which}_mc[s={s}]", mean, clock_refs[which](cfg, s), 5.0 * se + 1e-12)

    # simulation vs analytic ages, delivery rates, renewal identity, MGF probes
    if sim_settings is not None:
        result = simulator.run(_simulation(run_cfg, seed_override))
        p_lam = cfg.service_beats_arrival()
        for st, ref in zip(result.streams, report.streams):
            i = st.stream
            rate_ref = cfg.stream_rate(i) * p_lam
            # name, observed, expected, relative tolerance, k standard errors
            for name, observed, expected, rel, k_se in (
                ("sim_avg_age", st.avg_age, ref.avg_age, 0.015, 4.0 * st.avg_age_se),
                ("sim_peak_age", st.peak_age, ref.peak_age, 0.015, 4.0 * st.peak_age_se),
                ("sim_delivery_rate", st.delivery_rate, rate_ref, 0.01, 3.0 * st.delivery_rate_se),
            ):
                add(f"{name}[i={i}]", observed, expected, rel * abs(expected) + k_se)
            add(f"renewal_identity[i={i}]", st.delivery_rate * st.mean_interdeparture, 1.0, 0.01)
            for s, (mean, se) in st.mgf_probes.items():
                ref_val = analytic.interdeparture_mgf(cfg, i, s)
                add(f"sim_mgf_probe[i={i},s={s}]", mean, ref_val, 0.01 * abs(ref_val) + 5.0 * se)

    return checks


def cmd_validate(run_cfg: RunConfig, seed_override: int | None) -> int:
    checks = _run_validation(run_cfg, seed_override)
    for c in checks:
        status = "PASS" if c["passed"] else "FAIL"
        print(
            f"{status} {c['name']}: observed={_fmt(c['observed'])} "
            f"expected={_fmt(c['expected'])} delta={_fmt(c['delta'])} tol={_fmt(c['tolerance'])}"
        )
    n_fail = sum(1 for c in checks if not c["passed"])
    print(f"{len(checks) - n_fail}/{len(checks)} checks passed")
    if run_cfg.output.path:
        with _atomic_file(run_cfg.output.path) as fh:
            fh.write(json.dumps({"checks": checks}, indent=2) + "\n")
    return EXIT_VALIDATION if n_fail else 0


def _service_dest(field: str) -> str:
    """The optimize flag of a service-law field: --rate is the arrival rate."""
    return "service_rate" if field == "rate" else field


def _dist_from_flags(args) -> ServiceDistribution:
    kind = args.service
    spec = {"type": kind}
    for field in CONFIG_FIELDS[kind]:
        val = getattr(args, _service_dest(field))
        if val is None:
            raise ConfigError(f"--service {kind} requires --{_service_dest(field).replace('_', '-')}")
        spec[field] = val
    return distribution_from_config(spec)


def cmd_optimize(args) -> int:
    if finite_number(args.rate, "--rate") <= 0:
        raise ConfigError(f"--rate must be > 0, got {args.rate}")
    if args.streams < 1:
        raise ConfigError(f"--streams must be >= 1, got {args.streams}")
    if args.points < 0:
        raise ConfigError(f"--points must be >= 0, got {args.points}")
    dist = _dist_from_flags(args)
    result = optimizer.optimal_allocation(args.rate, args.streams, dist, n_random_points=args.points)
    payload = {
        "p_star": list(result.p_star),
        "delta_tot_star": result.delta_tot_star,
        "delta_peak_tot_star": result.delta_peak_tot_star,
        "verification": {
            "n_random_points": result.n_random_points,
            "max_violation": result.max_violation,
        },
    }
    print(json.dumps(payload, indent=2))
    return 0


def _sweep_block(base: SystemConfig, param: str, values: list[float]):
    """The total rates, splits and service laws at the grid values, and their analytic.age_columns."""
    g, m = len(values), base.num_streams
    lam, probs, laws = np.full(g, base.total_rate), np.tile(base.stream_probs, (g, 1)), [base.service] * g
    if param == "total_rate":
        lam = np.array(values)
    elif param.startswith("p"):
        try:
            idx = int(param[1:])
        except ValueError:
            idx = -1
        if not 1 <= idx <= m:
            raise ConfigError(f"sweep parameter {param!r} does not name a stream probability")
        if m < 2:
            raise ConfigError("sweeping a stream probability needs at least two streams")
        p_i = np.array(values)
        outside = ~((0.0 < p_i) & (p_i < 1.0))
        if outside.any():
            raise ConfigError(f"stream probability grid value {p_i[outside][0].item()} outside (0, 1)")
        probs = np.repeat(((1.0 - p_i) / (m - 1))[:, None], m, axis=1)
        probs[:, idx - 1] = p_i
    else:
        spec = base.service.to_config()
        fields = CONFIG_FIELDS[spec["type"]]
        if param not in fields:
            raise ConfigError(
                f"unknown sweep parameter {param!r}; expected total_rate, p<i>, "
                f"or a field of the service law {sorted(fields)}"
            )
        laws = [distribution_from_config({**spec, param: v}) for v in values]
    return lam, probs, laws, analytic.age_columns(lam, probs, laws)


def cmd_sweep(run_cfg: RunConfig, param: str, grid: list[float], with_sim: bool, seed_override) -> int:
    if not grid:
        raise ConfigError("sweep grid must be non-empty")
    base, m = run_cfg.system, run_cfg.system.num_streams
    # The grid is one block, unless it is simulated or fails: then each point is a block, in grid
    # order, so that its simulated rows follow its analytic ones and the first bad point raises.
    try:
        blocks = None if with_sim else [(grid, _sweep_block(base, param, grid))]
    except AoiError:
        blocks = None
    rows = []
    for values, (lam, probs, laws, columns) in blocks or (([v], _sweep_block(base, param, [v])) for v in grid):
        totals = (columns["total_avg_age"], columns["total_peak_age"])
        value, tot, tot_pk = (np.repeat(x, m).tolist() for x in (values, *totals))
        metrics = (columns[field].ravel().tolist() for field, _ in _METRICS)
        n = len(values) * m
        rows += zip([param] * n, value, list(range(1, m + 1)) * len(values), ["analytic"] * n, *metrics, tot, tot_pk)
        if with_sim:
            cfg = SystemConfig(lam[0].item(), tuple(probs[0].tolist()), laws[0])
            streams = simulator.run(_simulation(run_cfg, seed_override, cfg=cfg, mgf_probes=())).streams
            rows += [(param, values[0], s.stream, "simulated", *_metric_values(s), None, None) for s in streams]
    _emit_table(_SWEEP_COLUMNS, rows, run_cfg.output, _sweep_line)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aoi",
        description="Age-of-Information metrics for the multi-stream M/G/1/1 preemptive queue",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("analyze", "simulate", "validate", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("-c", "--config", required=True, help="path to JSON run config")
        if name == "simulate":
            p.add_argument("--trace", default=None, help="write an event trace CSV here")
        if name == "sweep":
            p.add_argument("--param", required=True, help="total_rate, p<i>, or a service field")
            p.add_argument("--grid", required=True, help="comma-separated grid values")
            p.add_argument("--with-sim", action="store_true", help="add simulated rows")

    p = sub.add_parser("optimize")
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--streams", type=int, required=True)
    p.add_argument("--service", required=True, choices=sorted(CONFIG_FIELDS))
    for field in dict.fromkeys(f for fields in CONFIG_FIELDS.values() for f in fields):
        dest = _service_dest(field)
        p.add_argument("--" + dest.replace("_", "-"), dest=dest, type=float, default=None)
    p.add_argument("--points", type=int, default=1000, help="random simplex points to verify")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    seed_override = None
    env_seed = os.environ.get("AOI_SEED")
    if env_seed is not None:
        try:
            seed_override = int(env_seed)
        except ValueError:
            print(f"AOI_SEED must be an integer, got {env_seed!r}", file=sys.stderr)
            return EXIT_CONFIG
        if seed_override < 0:
            print(f"AOI_SEED must be >= 0, got {seed_override}", file=sys.stderr)
            return EXIT_CONFIG

    try:
        if args.command == "optimize":
            return cmd_optimize(args)
        run_cfg = load_run_config(args.config)
        if args.command == "analyze":
            return cmd_analyze(run_cfg)
        if args.command == "simulate":
            return cmd_simulate(run_cfg, seed_override, args.trace)
        if args.command == "validate":
            return cmd_validate(run_cfg, seed_override)
        if args.command == "sweep":
            try:
                grid = [float(v) for v in args.grid.split(",") if v.strip() != ""]
            except ValueError as exc:
                raise ConfigError(f"malformed grid {args.grid!r}: {exc}") from exc
            return cmd_sweep(run_cfg, args.param, grid, args.with_sim, seed_override)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (
        ParameterDomainError,
        PoleError,
        SingularSystemError,
        DivergenceError,
        ConditioningTooRareError,
    ) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except InsufficientDataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_REPLICATION
    except InvariantViolationError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
