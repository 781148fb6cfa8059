"""Time rescaled by 2**k is an exact symmetry of every command: with every
rate multiplied by 2**k and every time by 2**-k, each output value is its
value at 2**0 times 2**(d * k), where d is the value's dimension in rates
(+1 for a rate, -1 for an age or a time, -2 for E[Y^2], 0 for a
probability), and each validate check keeps its PASS or FAIL."""

import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aoi_mg11 import cli, simulator
from aoi_mg11.analytic import SystemConfig
from aoi_mg11.cli import main
from aoi_mg11.distributions import Exponential
from aoi_mg11.simulator import SimParams

# Each law's fields at 2**0, and the dimension of each field
LAWS = {
    "exponential": ({"rate": 1.0}, {"rate": 1}),
    "gamma": ({"shape": 2.5, "scale": 0.4}, {"shape": 0, "scale": -1}),
    "deterministic": ({"value": 0.7}, {"value": -1}),
    "uniform": ({"lower": 0.2, "upper": 1.0}, {"lower": -1, "upper": -1}),
}
# The dimension of each float column of analyze and simulate; "<column>_se" has that of its column
COLUMN_DIMS = {
    "lambda_i": 1,
    "p_i": 0,
    "avg_age": -1,
    "peak_age": -1,
    "mean_T": -1,
    "mean_Y": -1,
    "mean_Y2": -2,
    "delivery_rate": 1,
    "ref_avg_age": -1,
    "ref_peak_age": -1,
    "delta_tot": -1,
    "delta_peak_tot": -1,
}
FIELD_DIMS = {
    "avg_age": -1,
    "peak_age": -1,
    "mean_system_time": -1,
    "mean_interdeparture": -1,
    "second_moment_interdeparture": -2,
    "delivery_rate": 1,
}


@pytest.fixture(autouse=True)
def no_env_seed(monkeypatch):
    monkeypatch.delenv("AOI_SEED", raising=False)


def scaled_config(law: str, k: int, max_time: float = 200.0, **output) -> dict:
    """A three-stream system of the law, with every rate times 2**k and every time times 2**-k."""
    fields, dims = LAWS[law]
    service = {"type": law, **{name: math.ldexp(v, dims[name] * k) for name, v in fields.items()}}
    return {
        "system": {"total_rate": math.ldexp(1.5, k), "stream_probs": [0.5, 0.3, 0.2], "service": service},
        "simulation": {"max_time": math.ldexp(max_time, -k), "seed": 5, "replications": 3},
        "output": {"format": "json", **output},
    }


def outputs(law: str, k: int) -> dict:
    """The JSON tables of analyze, simulate and simulate --trace at 2**k, and the trace's rows."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        table, trace, path = (os.path.join(tmp, name) for name in ("table.json", "trace.csv", "cfg.json"))
        with open(path, "w") as fh:
            json.dump(scaled_config(law, k, path=table), fh)
        runs = {"analyze": ["analyze"], "simulate": ["simulate"], "traced": ["simulate", "--trace", trace]}
        for name, argv in runs.items():
            assert main([argv[0], "-c", path, *argv[1:]]) == 0
            with open(table) as fh:
                out[name] = json.load(fh)
        with open(trace) as fh:
            out["trace"] = list(csv.reader(fh))
    return out


def assert_scaled(table: dict, base: dict, k: int, dims: dict = COLUMN_DIMS) -> None:
    assert table["columns"] == base["columns"]
    assert len(table["rows"]) == len(base["rows"])
    for row, row0 in zip(table["rows"], base["rows"]):
        for column in base["columns"]:
            if isinstance(row0[column], float):
                assert row[column] == math.ldexp(row0[column], dims[column.removesuffix("_se")] * k), column
            else:
                assert row[column] == row0[column], column


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(law=st.sampled_from(sorted(LAWS)), k=st.integers(-300, 300))
@example(law="exponential", k=20)
@example(law="gamma", k=-20)
@example(law="deterministic", k=100)
@example(law="uniform", k=-100)
def test_analyze_and_simulate_scale_exactly(law, k):
    base, scaled = outputs(law, 0), outputs(law, k)
    for name in ("analyze", "simulate", "traced"):
        assert_scaled(scaled[name], base[name], k)
    # time, kind, stream, generation time
    assert scaled["trace"][0] == base["trace"][0]
    assert len(scaled["trace"]) == len(base["trace"]) > 100
    for row, row0 in zip(scaled["trace"][1:], base["trace"][1:]):
        assert row[1:3] == row0[1:3]
        assert [float(row[0]), float(row[3])] == [math.ldexp(float(row0[0]), -k), math.ldexp(float(row0[3]), -k)]


def sweeps_and_optimize(law: str, k: int) -> tuple[dict, dict]:
    """The JSON of sweep over total_rate, p1 and the law's last field, and of
    optimize, at 2**k; and the dimension of each sweep's value column."""
    fields, dims = LAWS[law]
    field = list(fields)[-1]
    grids = {"total_rate": [0.5, 1.5, 4.0], "p1": [0.2, 0.5, 0.8], field: [fields[field] * f for f in (0.5, 1.0, 2.0)]}
    value_dims = {"total_rate": 1, "p1": 0, field: dims[field]}
    config = scaled_config(law, k)
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        table, path = os.path.join(tmp, "table.json"), os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump({**config, "output": {"format": "json", "path": table}}, fh)
        for param, grid in grids.items():
            values = ",".join(repr(math.ldexp(v, value_dims[param] * k)) for v in grid)
            assert main(["sweep", "-c", path, "--param", param, "--grid", values]) == 0
            with open(table) as fh:
                out[param] = json.load(fh)
    service = config["system"]["service"]
    flags = [f"--{cli._service_dest(name).replace('_', '-')}={v!r}" for name, v in service.items() if name != "type"]
    rate = repr(config["system"]["total_rate"])
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["optimize", f"--rate={rate}", "--streams", "3", "--service", law, *flags, "--points", "20"]) == 0
    out["optimize"] = json.loads(stdout.getvalue())
    return out, value_dims


@pytest.fixture(scope="module")
def unscaled_sweeps():
    return {law: sweeps_and_optimize(law, 0) for law in LAWS}


@pytest.mark.parametrize("k", [100, -100, 300, -300])
@pytest.mark.parametrize("law", sorted(LAWS))
def test_sweep_and_optimize_scale_exactly(law, k, unscaled_sweeps):
    (base, value_dims), (scaled, _) = unscaled_sweeps[law], sweeps_and_optimize(law, k)
    for param, d in value_dims.items():
        assert_scaled(scaled[param], base[param], k, {**COLUMN_DIMS, "value": d})
    optimum, optimum0 = scaled["optimize"], base["optimize"]
    assert optimum["p_star"] == optimum0["p_star"]
    for name in ("delta_tot_star", "delta_peak_tot_star"):
        assert optimum[name] == math.ldexp(optimum0[name], -k), name
    check, check0 = optimum["verification"], optimum0["verification"]
    assert check == {**check0, "max_violation": math.ldexp(check0["max_violation"], -k)}


def _validate(k: int) -> list[tuple[str, bool]]:
    """Each check of validate at 2**k: its name, with each probe s scaled back to 2**0, and whether it passed."""
    with tempfile.TemporaryDirectory() as tmp:
        report, path = os.path.join(tmp, "report.json"), os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(scaled_config("exponential", k, max_time=5e3, path=report), fh)
        assert main(["validate", "-c", path]) in (0, 5)
        with open(report) as fh:
            checks = json.load(fh)["checks"]
    unscale = lambda m: "s=" + repr(math.ldexp(float(m.group(1)), -k))  # noqa: E731
    return [(re.sub(r"s=([^,\]]+)", unscale, c["name"]), c["passed"]) for c in checks]


@pytest.fixture(scope="module")
def unscaled_checks():
    return _validate(0)


@pytest.mark.parametrize("k", [100, -100])
def test_validate_keeps_each_pass_and_fail(k, unscaled_checks):
    assert len(unscaled_checks) > 50
    assert _validate(k) == unscaled_checks


REF = SystemConfig(1.5, (0.5, 0.3, 0.2), Exponential(1.0))


def _scaled_run(k: int) -> simulator.SimResult:
    c = math.ldexp(1.0, k)
    cfg = SystemConfig(REF.total_rate * c, REF.stream_probs, Exponential(REF.service.rate * c))
    return simulator.run(SimParams(cfg, max_time=2e4 / c, seed=5, replications=3))


@pytest.fixture(scope="module")
def unscaled_run():
    return _scaled_run(0)


@pytest.mark.parametrize("k", [270, -270, 400, -400, 505, -505])
def test_standard_errors_are_scale_free(k, unscaled_run):
    # at 2**270 the squares of E[Y^2]'s replication values underflow, and at
    # 2**-270 they overflow; at 2**-505 the running sums of squared times
    # would overflow, were they not kept in units of the horizon
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = _scaled_run(k)
    for stream, stream0 in zip(result.streams, unscaled_run.streams):
        for field, d in FIELD_DIMS.items():
            for name in (field, field + "_se"):
                assert getattr(stream, name) == math.ldexp(getattr(stream0, name), d * k), (stream.stream, name)
                assert getattr(stream, name) > 0


@pytest.mark.parametrize("k", [900, -900])
def test_a_system_the_closed_forms_refuse_is_not_simulated(k, tmp_path, monkeypatch, capsys):
    # E[Y^2] leaves the float range at 2**900 and at 2**-900
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(scaled_config("exponential", k, max_time=2e4)))

    def run(*args):
        raise AssertionError("simulated a system that the closed forms refuse")

    monkeypatch.setattr(cli.simulator, "run", run)
    assert main(["simulate", "-c", str(path)]) == 3
    assert capsys.readouterr().err.startswith("domain error: second_moment_interdeparture is outside the float range")
    # the process's stderr is that one line: no numpy warning before it
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": src}
    command = [sys.executable, "-m", "aoi_mg11.cli", "simulate", "-c", str(path)]
    proc = subprocess.run(command, capture_output=True, env=env)
    assert proc.returncode == 3
    err = proc.stderr.decode()
    assert err.startswith("domain error: ") and err.count("\n") == 1, err
