"""The exit-code contract: ``aoi analyze`` on any JSON config and ``aoi
validate`` on any config without a simulation section return 0, 2, 3, 4 or 5,
``aoi simulate`` on any small system returns 0, 2, 3 or 4 and writes nothing
when it fails, ``aoi optimize`` on any numbers returns 0, 2 or 3, and none of
them raises."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoi_mg11 import errors
from aoi_mg11.cli import _service_dest, main
from aoi_mg11.distributions import CONFIG_FIELDS, Uniform
from aoi_mg11.errors import AoiError, ParameterDomainError

# JSON values a number field must reject
WILD = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=1),
    st.integers(-3, 3),
    st.just(10**400),
)
# positive floats across the whole exponent range, subnormals included
POSITIVE = st.one_of(st.floats(1e-3, 1e3), st.floats(0.0, 1.7976931348623157e308, exclude_min=True))


def _mostly(valid, rare):
    """``valid`` nine times in ten, so that most examples get past parsing."""
    return st.integers(0, 9).flatmap(lambda k: rare if k == 9 else valid)


FIELD = _mostly(POSITIVE, WILD)
FIELDS = _mostly(st.lists(FIELD, min_size=1, max_size=4), WILD)
# split probabilities that sum to 1, including a share too small to add to 1.0
PROBS = st.one_of(
    st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=4).map(lambda w: [x / math.fsum(w) for x in w]),
    st.floats(0.0, 1e-13, exclude_min=True).map(lambda x: [x, 1.0]),
    FIELDS,
)


def _services(field):
    """Every service law, each of its fields drawn from ``field``."""
    return st.one_of(
        *(
            st.fixed_dictionaries({"type": st.just(kind), **dict.fromkeys(fields, field)})
            for kind, fields in CONFIG_FIELDS.items()
        )
    )


SERVICE = _mostly(_services(FIELD), WILD)
SYSTEM = st.one_of(
    st.fixed_dictionaries({"total_rate": FIELD, "stream_probs": PROBS, "service": SERVICE}),
    st.fixed_dictionaries(
        {"stream_rates": FIELDS, "service": SERVICE},
        optional={"total_rate": FIELD},
    ),
)
INTEGER = _mostly(st.integers(-1, 10**6), WILD)
SIMULATION = st.fixed_dictionaries(
    {},
    optional={
        "max_time": FIELD,
        "min_deliveries_per_stream": INTEGER,
        "seed": INTEGER,
        "replications": INTEGER,
        "warmup_fraction": FIELD,
    },
)
PROBES = st.fixed_dictionaries({}, optional={"mgf_s_values": FIELDS})
CONFIG = st.fixed_dictionaries(
    {"system": SYSTEM},
    optional={
        "simulation": SIMULATION,
        "probes": PROBES,
        # no string paths, so nothing is written
        "output": st.fixed_dictionaries(
            {}, optional={"format": _mostly(st.sampled_from(["csv", "json"]), WILD)}
        ),
    },
)


# no simulation section: a random max_time can ask for an unbounded run
VALIDATE_CONFIG = st.fixed_dictionaries({"system": SYSTEM}, optional={"probes": PROBES})


def _exit_code(command: str, config) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main([command, "-c", path])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(config=CONFIG)
def test_analyze_returns_a_documented_exit_code(config):
    assert _exit_code("analyze", config) in (0, 2, 3, 4, 5)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(config=VALIDATE_CONFIG)
def test_validate_returns_a_documented_exit_code(config):
    assert _exit_code("validate", config) in (0, 2, 3, 4, 5)


def _small(lo, hi, *rare):
    """Floats in [lo, hi], or now and then a value from ``rare``."""
    return _mostly(st.floats(lo, hi), st.sampled_from(rare))


# Small systems over a horizon of at most 50, so that a run simulates a few
# thousand arrivals at most
SIMULATE_CONFIG = st.fixed_dictionaries(
    {
        "system": st.fixed_dictionaries(
            {
                "total_rate": _small(0.5, 20.0, 0.0, -1.0, math.inf, "1"),
                "stream_probs": st.lists(st.floats(0.1, 1.0), min_size=1, max_size=4).map(
                    lambda w: [x / math.fsum(w) for x in w]
                ),
                "service": _services(_small(0.1, 2.0, 0.0, math.nan, None)),
            }
        ),
        "simulation": st.fixed_dictionaries(
            {"max_time": _small(10.0, 50.0, 0.0, -5.0, math.nan, "10")},
            optional={
                "seed": _mostly(st.integers(0, 2**32), st.sampled_from([-1, 0.5, "7"])),
                "replications": _mostly(st.integers(1, 3), st.sampled_from([0, 1.5, None])),
                "warmup_fraction": _small(0.0, 0.9, 1.0, -0.1, math.nan),
            },
        ),
        "output": st.fixed_dictionaries({"format": st.sampled_from(["csv", "json"])}),
    }
)


def _simulate(config, traced: bool) -> tuple[int, str | None]:
    """The exit code of ``aoi simulate`` and its output; a failed run must
    leave no output, no trace and no temp file."""
    with tempfile.TemporaryDirectory() as tmp:
        out, trace, path = (os.path.join(tmp, name) for name in ("out", "trace.csv", "cfg.json"))
        with open(path, "w") as fh:
            json.dump({**config, "output": {**config["output"], "path": out}}, fh)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["simulate", "-c", path, *(["--trace", trace] if traced else [])])
        written = ["out", "trace.csv"] if traced else ["out"]
        assert sorted(os.listdir(tmp)) == ["cfg.json", *(written if code == 0 else [])]
        if code:
            return code, None
        with open(out) as fh:
            return code, fh.read()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(config=SIMULATE_CONFIG)
def test_simulate_returns_a_documented_exit_code(config):
    # with and without --trace: the same exit code and the same table
    code, table = _simulate(config, traced=False)
    assert code in (0, 2, 3, 4)
    assert _simulate(config, traced=True) == (code, table)


# any float: subnormals, 0, negatives, nan and inf included; rates below
# 1e-150 put E[Y^2] = 2 / (lam_i P)^2 out of the float range
NUMBER = _mostly(st.one_of(POSITIVE, st.floats(0.0, 1e-150, exclude_min=True)), st.floats())


@st.composite
def optimize_argv(draw):
    kind = draw(st.sampled_from(sorted(CONFIG_FIELDS)))
    # "--flag=value", so that argparse reads "-inf" as a value, not a flag
    flags = {"rate": NUMBER, "streams": st.integers(-1, 6), "points": st.integers(-1, 40), "service": st.just(kind)}
    flags.update({_service_dest(field).replace("_", "-"): NUMBER for field in CONFIG_FIELDS[kind]})
    return ["optimize", *(f"--{flag}={draw(value)}" for flag, value in flags.items())]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(argv=optimize_argv())
def test_optimize_returns_a_documented_exit_code(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 2, 3)
    if code == 0:  # a result, not inf
        payload = json.loads(out.getvalue())
        assert math.isfinite(payload["delta_tot_star"]) and math.isfinite(payload["delta_peak_tot_star"])


def test_validate_reports_an_mgf_outside_the_float_range(tmp_path):
    # at s = -1e-4, e^{1e-4 (upper - lower)} leaves the float range
    with pytest.raises(ParameterDomainError, match="outside the float range"):
        Uniform(1.37e-7, 2.83e18).laplace(-1e-4)
    # validate's numeric derivatives step by 1e-3 * min(1/E[X], lam) and stay in range;
    # the clock B sampler accepts no draws (P(lam) ~ 0), a domain error
    service = {"type": "uniform", "lower": 1.3712311036634774e-07, "upper": 2.8278728822300237e18}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"system": {"total_rate": 1.64927779342283e-133, "stream_probs": [1.0], "service": service}}))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(["analyze", "-c", str(path)]) == 0
        assert main(["validate", "-c", str(path)]) == 3
    assert "domain error: clock B" in err.getvalue()


def test_validate_with_a_mean_system_time_of_zero(tmp_path):
    # E[T] = shape * scale underflows to 0, so validate's numeric-derivative
    # step cannot be 1e-3 / E[T]; the clock A sampler then accepts no draws
    service = {"type": "gamma", "shape": 0.001, "scale": 5e-324}
    system = {"total_rate": 0.001, "stream_probs": [5.470563592114418e-14, 1.0], "service": service}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"system": system}))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(["analyze", "-c", str(path)]) == 0
        assert main(["validate", "-c", str(path)]) == 3
    assert "domain error: clock A: only 0 of 200000 draws accepted" in err.getvalue()


def test_a_closed_stdout_is_a_config_error():
    # a p_star of 131,072 streams is about 3 MB of JSON, more than a pipe
    # holds, so the command is still writing when its reader goes
    argv = ["optimize", "--rate", "1", "--streams", "131072", "--service", "exponential", "--service-rate", "1"]
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": src}
    command = [sys.executable, "-m", "aoi_mg11.cli", *argv, "--points", "3"]
    with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait() == 2
    assert err == "config error: cannot write stdout: Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full device")
@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "-c", "{config}"],
        ["sweep", "-c", "{config}", "--param", "p1", "--grid", "0.2,0.5"],
        ["optimize", "--rate", "1.5", "--streams", "3", "--service", "exponential", "--service-rate", "1"],
        ["validate", "-c", "{config}"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_full_stdout_is_a_config_error(tmp_path, argv):
    system = {"total_rate": 1.5, "stream_probs": [0.5, 0.3, 0.2], "service": {"type": "exponential", "rate": 1.0}}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"system": system}))
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": src}
    command = [sys.executable, "-m", "aoi_mg11.cli", *(a.format(config=config) for a in argv)]
    with open("/dev/full", "w") as full:
        proc = subprocess.run(command, stdout=full, stderr=subprocess.PIPE, env=env)
    err = proc.stderr.decode()
    assert proc.returncode == 2
    assert err == "config error: cannot write stdout: No space left on device\n"


def test_one_error_class_per_exit_code():
    # main ends every failure in one handler; a class is told apart only by its code and label
    classes = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, AoiError) and c is not AoiError]
    assert sorted(c.exit_code for c in classes) == [2, 3, 4, 5]
    assert len({c.label for c in classes}) == len(classes)
