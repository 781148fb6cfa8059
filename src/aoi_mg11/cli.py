"""Command-line front end: analyze, simulate, validate, optimize, sweep.

Exit codes: 0 success, 2 config/flag error, 3 domain error, 4 replication
failure, 5 validation check failure. Output files are written atomically
(temp file + rename) so failures never leave partial files behind.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import os
import sys
import tempfile
from types import SimpleNamespace

import numpy as np

from . import analytic, flowgraph, optimizer, simulator
from .analytic import SystemConfig
from .config import RunConfig, SimulationSettings, load_run_config
from .distributions import CONFIG_FIELDS, ServiceDistribution, distribution_from_config
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


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _atomic_write(path: str, text: str) -> None:
    """Write through a unique temp file in the same directory, then rename."""
    directory, name = os.path.split(path)
    fd, tmp = tempfile.mkstemp(prefix=f"{name}.", suffix=".tmp", dir=directory or ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # the mode open() would have given
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _emit_table(rows: list[dict], out) -> None:
    """Write rows as CSV (6 significant digits) or JSON (full precision).

    The columns are the first row's keys; every row has the same keys in the
    same order.
    """
    columns = list(rows[0])
    if out.format == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(map(_fmt, row.values())))
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps({"columns": columns, "rows": rows}, indent=2) + "\n"
    if out.path:
        _atomic_write(out.path, text)
    else:
        sys.stdout.write(text)


def _analyze_rows(cfg: SystemConfig) -> list[dict]:
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
    rows = []
    for s in (*report.streams, total):
        row = {"stream": s.stream, "lambda_i": s.rate, "p_i": s.prob}
        row.update(zip(_COLUMNS, _metric_values(s)))
        rows.append(row)
    return rows


def cmd_analyze(run_cfg: RunConfig) -> int:
    _emit_table(_analyze_rows(run_cfg.system), run_cfg.output)
    return 0


def _sim_params(
    system: SystemConfig,
    sim: SimulationSettings | None,
    seed_override: int | None,
    probes: tuple[float, ...] = (),
) -> simulator.SimParams:
    if sim is None:
        raise ConfigError("this command requires a 'simulation' section in the config")
    return simulator.SimParams(
        cfg=system,
        max_time=sim.max_time,
        min_deliveries_per_stream=sim.min_deliveries_per_stream,
        seed=seed_override if seed_override is not None else sim.seed,
        warmup_fraction=sim.warmup_fraction,
        replications=sim.replications,
        mgf_probes=probes,
    )


def _simulate_rows(run_cfg: RunConfig, result: simulator.SimResult) -> list[dict]:
    report = analytic.age_report(run_cfg.system)
    rows = []
    for s, ref in zip(result.streams, report.streams):
        row = {"stream": s.stream, "lambda_i": ref.rate, "p_i": ref.prob}
        row.update(zip(_COLUMNS_SE, _metric_values_se(s)))
        row["ref_avg_age"] = ref.avg_age
        row["ref_peak_age"] = ref.peak_age
        rows.append(row)
    return rows


def cmd_simulate(run_cfg: RunConfig, seed_override: int | None, trace_path: str | None) -> int:
    params = _sim_params(run_cfg.system, run_cfg.simulation, seed_override, run_cfg.mgf_s_values)
    trace_path = trace_path or run_cfg.output.trace_path
    try:
        result = simulator.run(params, collect_trace=trace_path is not None)
    except AoiError:
        raise
    except Exception as exc:  # a failed replication is its own exit code
        print(f"replication failed: {exc}", file=sys.stderr)
        return EXIT_REPLICATION
    _emit_table(_simulate_rows(run_cfg, result), run_cfg.output)
    if trace_path is not None:
        lines = ["time,kind,stream,generation_time"]
        for ev in result.trace:
            lines.append(f"{ev.time!r},{ev.kind},{ev.stream},{ev.generation_time!r}")
        _atomic_write(trace_path, "\n".join(lines) + "\n")
    return 0


def _parse_expect(pairs: list[str]) -> dict[str, float]:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--expect needs KEY=VALUE, got {pair!r}")
        key, _, val = pair.partition("=")
        try:
            out[key] = float(val)
        except ValueError as exc:
            raise ConfigError(f"--expect value for {key!r} is not a number: {val!r}") from exc
    return out


def _run_validation(run_cfg: RunConfig, seed_override: int | None, expect: dict[str, float]):
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

    known_expect = set()
    s_values = run_cfg.mgf_s_values or (-0.25, -0.5, -1.0)

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

    # closed-form moments vs numeric differentiation of the MGFs
    e_t = analytic.mean_system_time(cfg)
    add(
        "mean_system_time_numeric",
        analytic.moments_from_mgf(lambda s: analytic.system_time_mgf(cfg, s), 1),
        e_t,
        1e-5 * abs(e_t),
    )
    for i in range(1, cfg.num_streams + 1):
        phi = lambda s, i=i: analytic.interdeparture_mgf(cfg, i, s)
        e_y = analytic.mean_interdeparture(cfg, i)
        e_y2 = analytic.second_moment_interdeparture(cfg, i)
        add(f"mean_interdeparture_numeric[i={i}]", analytic.moments_from_mgf(phi, 1), e_y, 1e-5 * abs(e_y))
        add(f"second_moment_numeric[i={i}]", analytic.moments_from_mgf(phi, 2), e_y2, 1e-5 * abs(e_y2))

    # dual-route self-check built into age_report
    try:
        analytic.age_report(cfg)
        add("dual_route_decomposition", 0.0, 0.0, 1e-9)
    except InvariantViolationError as exc:
        add("dual_route_decomposition", math.nan, 0.0, 1e-9)
        checks[-1].update(delta=math.inf, detail=str(exc))

    # Monte Carlo conditional clocks vs closed-form MGFs (5 sigma)
    sim_settings = run_cfg.simulation
    mc_seed = seed_override if seed_override is not None else (sim_settings.seed if sim_settings else 0)
    rng = np.random.default_rng(np.random.SeedSequence(mc_seed).spawn(1)[0])
    lam = cfg.total_rate
    clock_refs = {
        "A": lambda s: analytic.clock_mgf_A(cfg, s),
        "Z": lambda s: analytic.clock_mgf_A(cfg, s),
        "B": lambda s: analytic.clock_mgf_B(cfg, s),
        "V": lambda s: analytic.clock_mgf_B(cfg, s),
        "U": lambda s: analytic.system_time_mgf(cfg, s),
    }
    clock_names = ["A", "B", "U"] + (["V", "Z"] if cfg.num_streams > 1 else [])
    for which in clock_names:
        stats = simulator.clock_conditional_sampler(cfg, 1, which, 200_000, rng)
        for s, (mean, se) in stats.items():
            ref = clock_refs[which](s)
            add(f"clock_{which}_mc[s={s}]", mean, ref, 5.0 * se + 1e-12)

    # simulation vs analytic ages, delivery rates, renewal identity, MGF probes
    if sim_settings is not None:
        params = _sim_params(cfg, sim_settings, seed_override, run_cfg.mgf_s_values)
        result = simulator.run(params)
        report = analytic.age_report(cfg)
        p_lam = cfg.service_beats_arrival()
        for s_stats, ref in zip(result.streams, report.streams):
            i = s_stats.stream
            exp_age = expect.get(f"avg_age_{i}", ref.avg_age)
            exp_peak = expect.get(f"peak_age_{i}", ref.peak_age)
            known_expect.update({f"avg_age_{i}", f"peak_age_{i}"})
            add(
                f"sim_avg_age[i={i}]",
                s_stats.avg_age,
                exp_age,
                0.015 * abs(exp_age) + 4.0 * s_stats.avg_age_se,
            )
            add(
                f"sim_peak_age[i={i}]",
                s_stats.peak_age,
                exp_peak,
                0.015 * abs(exp_peak) + 4.0 * s_stats.peak_age_se,
            )
            rate_ref = cfg.stream_rate(i) * p_lam
            add(
                f"sim_delivery_rate[i={i}]",
                s_stats.delivery_rate,
                rate_ref,
                0.01 * rate_ref + 3.0 * s_stats.delivery_rate_se,
            )
            add(
                f"renewal_identity[i={i}]",
                s_stats.delivery_rate * s_stats.mean_interdeparture,
                1.0,
                0.01,
            )
            for s, (mean, se) in s_stats.mgf_probes.items():
                ref_val = analytic.interdeparture_mgf(cfg, i, s)
                add(f"sim_mgf_probe[i={i},s={s}]", mean, ref_val, 0.01 * abs(ref_val) + 5.0 * se)

    unknown = set(expect) - known_expect
    if unknown:
        raise ConfigError(f"--expect key(s) {sorted(unknown)} do not name any check")
    return checks


def cmd_validate(run_cfg: RunConfig, seed_override: int | None, expect: dict[str, float]) -> int:
    checks = _run_validation(run_cfg, seed_override, expect)
    for c in checks:
        status = "PASS" if c["passed"] else "FAIL"
        print(
            f"{status} {c['name']}: observed={_fmt(c['observed'])} "
            f"expected={_fmt(c['expected'])} delta={_fmt(c['delta'])} tol={_fmt(c['tolerance'])}"
        )
    n_fail = sum(1 for c in checks if not c["passed"])
    print(f"{len(checks) - n_fail}/{len(checks)} checks passed")
    if run_cfg.output.path:
        _atomic_write(run_cfg.output.path, json.dumps({"checks": checks}, indent=2) + "\n")
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
    if args.rate <= 0:
        raise ConfigError(f"--rate must be > 0, got {args.rate}")
    if args.streams < 1:
        raise ConfigError(f"--streams must be >= 1, got {args.streams}")
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


def _sweep_config(base: SystemConfig, param: str, value: float) -> SystemConfig:
    if param == "total_rate":
        return SystemConfig(value, base.stream_probs, base.service)
    if param.startswith("p"):
        try:
            idx = int(param[1:])
        except ValueError:
            idx = -1
        if not 1 <= idx <= base.num_streams:
            raise ConfigError(f"sweep parameter {param!r} does not name a stream probability")
        if base.num_streams < 2:
            raise ConfigError("sweeping a stream probability needs at least two streams")
        if not 0.0 < value < 1.0:
            raise ConfigError(f"stream probability grid value {value} outside (0, 1)")
        share = (1.0 - value) / (base.num_streams - 1)
        probs = tuple(value if j == idx - 1 else share for j in range(base.num_streams))
        return SystemConfig(base.total_rate, probs, base.service)
    service_spec = base.service.to_config()
    if param not in service_spec or param == "type":
        raise ConfigError(
            f"unknown sweep parameter {param!r}; expected total_rate, p<i>, "
            f"or a field of the service law {sorted(k for k in service_spec if k != 'type')}"
        )
    service_spec[param] = value
    return SystemConfig(base.total_rate, base.stream_probs, distribution_from_config(service_spec))


def cmd_sweep(run_cfg: RunConfig, param: str, grid: list[float], with_sim: bool, seed_override) -> int:
    if not grid:
        raise ConfigError("sweep grid must be non-empty")
    rows = []
    for value in grid:
        cfg = _sweep_config(run_cfg.system, param, value)
        report = analytic.age_report(cfg)
        sources = [("analytic", report.streams, report.total_avg_age, report.total_peak_age)]
        if with_sim:
            result = simulator.run(_sim_params(cfg, run_cfg.simulation, seed_override))
            sources.append(("simulated", result.streams, None, None))
        for source, streams, delta_tot, delta_peak_tot in sources:
            for s in streams:
                row = {"param": param, "value": value, "stream": s.stream, "source": source}
                row.update(zip(_COLUMNS, _metric_values(s)))
                row["delta_tot"] = delta_tot
                row["delta_peak_tot"] = delta_peak_tot
                rows.append(row)
    _emit_table(rows, run_cfg.output)
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
        if name == "validate":
            p.add_argument(
                "--expect",
                action="append",
                default=[],
                metavar="K=V",
                help="override an expected value, e.g. avg_age_1=99",
            )
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

    try:
        if args.command == "optimize":
            return cmd_optimize(args)
        run_cfg = load_run_config(args.config)
        if args.command == "analyze":
            return cmd_analyze(run_cfg)
        if args.command == "simulate":
            return cmd_simulate(run_cfg, seed_override, args.trace)
        if args.command == "validate":
            return cmd_validate(run_cfg, seed_override, _parse_expect(args.expect))
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
        IndexError,
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
