"""The CSV writer: its '%.6g' kernel against '%' itself, and each CSV table
against '%.6g' of the same command's JSON output."""

import contextlib
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoi_mg11 import cli
from aoi_mg11.cli import main
from aoi_mg11.config import load_run_config


@pytest.fixture(autouse=True)
def no_env_seed(monkeypatch):
    monkeypatch.delenv("AOI_SEED", raising=False)


def g6(values) -> list[str]:
    """The kernel's cells, as strings."""
    chars = cli._g6(np.array(values, dtype=float))
    return [bytes(column[column != 0]).decode() for column in chars.T]


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(), min_size=1, max_size=16))
def test_kernel_writes_what_percent_writes(values):
    # st.floats() draws subnormals, +-0, +-inf and nan too
    assert g6(values) == ["%.6g" % v for v in values]


def _around_powers_of_ten():
    for k in range(-20, 31):  # the kernel writes exponents -17 to 27 itself
        p = float(f"1e{k}")
        yield from (np.nextafter(p, 0.0), p, np.nextafter(p, math.inf))


EDGES = [
    123456.5,
    1000000.5,
    999999.5,
    9.999995e-05,
    1e-4,
    1e-5,
    1e16,
    5e-324,
    1.7976931348623157e308,
    *_around_powers_of_ten(),
]


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_kernel_edges(sign):
    values = [sign * v for v in EDGES]
    assert g6(values) == ["%.6g" % v for v in values]


def test_kernel_on_random_bits_and_near_ties():
    rng = np.random.default_rng(14)
    bits = rng.integers(0, 2**63, 100_000, dtype=np.int64).view(np.float64)
    # six digits and a half, a hair either side, scaled over the whole kernel range
    digits = rng.integers(100_000, 1_000_000, 100_000) + rng.choice([0.5, 0.5 - 1e-7, 0.5 + 1e-7, 0.0], 100_000)
    scaled = digits * np.array([float(f"1e{k}") for k in rng.integers(-22, 23, 100_000)])
    values = np.concatenate([bits, -bits, scaled]).tolist()
    assert g6(values) == ["%.6g" % v for v in values]


def csv_of_json(text: str) -> str:
    """The CSV that '%.6g' of the floats of a JSON table makes, str() of its
    other cells and "" of a null: the reference the writer must equal."""
    table = json.loads(text)

    def cell(value) -> str:
        if value is None:
            return ""
        return "%.6g" % value if isinstance(value, float) else str(value)

    lines = [table["columns"], *([cell(row[c]) for c in table["columns"]] for row in table["rows"])]
    return "".join(",".join(line) + "\n" for line in lines)


# Each law, with the total rate at which P(lambda) is about p, for a law parameter x.
LOADS = {
    "exponential": lambda p, x: ({"type": "exponential", "rate": x}, x * (1.0 / p - 1.0)),
    "deterministic": lambda p, x: ({"type": "deterministic", "value": x}, -math.log(p) / x),
    "gamma": lambda p, x: ({"type": "gamma", "shape": 2.0, "scale": x}, (p**-0.5 - 1.0) / x),
    "uniform": lambda p, x: ({"type": "uniform", "lower": 0.0, "upper": x}, 2.0 * (1.0 - p) / (p * x)),
}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    law=st.sampled_from(sorted(LOADS)),
    log10_p=st.floats(-15.0, -1e-9),
    x=st.floats(0.1, 10.0),
    weights=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=4),
)
def test_csv_cells_are_the_json_values_at_any_load(law, log10_p, x, weights):
    service, lam = LOADS[law](10.0**log10_p, x)
    field = list(service)[-1]
    system = {"total_rate": lam, "stream_probs": [w / math.fsum(weights) for w in weights], "service": service}
    commands = [
        ["analyze"],
        ["sweep", "--param", "total_rate", "--grid", ",".join(repr(lam * c) for c in (0.5, 1.0, 2.0))],
        ["sweep", "--param", field, "--grid", ",".join(repr(x * c) for c in (1.0, 1.5))],
    ]
    if len(weights) > 1:
        commands.append(["sweep", "--param", "p1", "--grid", "0.1,0.5,0.9"])
    with tempfile.TemporaryDirectory() as tmp:
        for argv in commands:
            outputs = {}
            for fmt in ("csv", "json"):
                out, cfg = Path(tmp, f"out.{fmt}"), Path(tmp, f"{fmt}.json")
                cfg.write_text(json.dumps({"system": system, "output": {"format": fmt, "path": str(out)}}))
                code = main([argv[0], "-c", str(cfg), *argv[1:]])
                assert code in (0, 3)
                outputs[fmt] = (code, out.read_text() if code == 0 else None)
            (code, csv_text), (json_code, json_text) = outputs["csv"], outputs["json"]
            assert code == json_code
            if code == 0:
                assert csv_text == csv_of_json(json_text)


def _sweep_peaks(tmp_path, fmt: str, stream_probs: list[float], target: str) -> tuple[int, int]:
    """tracemalloc's peak of a sweep written as fmt to target, a file or
    stdout, at 4,000 and at 40,000 grid points. Stdout is a file here, so
    that the peak is the command's alone."""
    system = {
        "total_rate": 1.0,
        "stream_probs": stream_probs,
        "service": {"type": "uniform", "lower": 0.2, "upper": 1.0},
    }
    output = {"format": fmt, "path": str(tmp_path / f"sweep.{fmt}")} if target == "file" else {"format": fmt}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": system, "output": output}))
    run_cfg = load_run_config(str(cfg))

    def peak(points: int) -> int:
        grid = [0.2 + 3.8 * k / points for k in range(points)]
        with open(tmp_path / "stdout", "w") as stdout, contextlib.redirect_stdout(stdout):
            tracemalloc.start()
            try:
                assert cli.cmd_sweep(run_cfg, "total_rate", grid, False, None) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    return peak(4_000), peak(40_000)


def test_csv_sweep_memory_does_not_grow_with_the_grid(tmp_path):
    for target in ("file", "stdout"):
        small, large = _sweep_peaks(tmp_path, "csv", [0.2, 0.16, 0.14, 0.12, 0.11, 0.1, 0.09, 0.08], target)
        assert large <= 2.0 * small, target


def test_json_sweep_memory_does_not_grow_with_the_grid(tmp_path, monkeypatch):
    # one stream, since json.dumps with an indent takes about 0.2 ms a row
    # under tracemalloc; blocks of 1,024 rows, so that both grids span whole blocks
    monkeypatch.setattr(cli, "_SWEEP_ROWS", 1 << 10)
    for target in ("file", "stdout"):
        small, large = _sweep_peaks(tmp_path, "json", [1.0], target)
        assert large <= 2.0 * small, target
