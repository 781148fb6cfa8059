"""The table and trace writers: the '%.6g' kernel against '%' itself, the
repr kernel against repr, each CSV table against '%.6g' of the same
command's JSON output, and each JSON table against json.dumps."""

import contextlib
import io
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
    # every power of ten of a normal float; below about 1e-303, 10**(5 - e) overflows and '%' writes the cell
    for k in range(-307, 309):
        p = float(f"1e{k}")
        yield from (np.nextafter(p, 0.0), p, np.nextafter(p, math.inf))
    yield from np.geomspace(1e-305, 1e-301, 41)
    yield from (float(f"{d}e-304") for d in (9.999995, 9.999994999, 9.99999, 1.000005))


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


def test_kernel_writes_the_normal_floats_above_1e_303_itself(monkeypatch):
    # a kernel that left every cell to '%' would pass the tests above, but not this one
    left = []
    layout = cli._layout

    def spy(x, ok, *args):
        left.extend(x[~ok].tolist())
        return layout(x, ok, *args)

    monkeypatch.setattr(cli, "_layout", spy)
    values = 10.0 ** np.random.default_rng(21).uniform(-303, 308.25, 100_000)
    values = np.concatenate([values, -values]).tolist()
    assert g6(values) == ["%.6g" % v for v in values]
    assert len(left) <= 1e-4 * len(values)


def full_repr(values, text=repr) -> list[str]:
    """The repr kernel's cells, as strings."""
    chars = cli._repr(np.array(values, dtype=float), text)
    return [bytes(column[column != 0]).decode() for column in chars.T]


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(), min_size=1, max_size=16))
def test_repr_kernel_writes_what_repr_writes(values):
    # st.floats() draws subnormals, +-0, +-inf and nan too
    assert full_repr(values) == [repr(v) for v in values]


def _neighbours(values):
    for v in values:
        yield from (np.nextafter(v, 0.0).item(), v, np.nextafter(v, math.inf).item())


REPR_EDGES = [
    *_neighbours(float(f"1e{k}") for k in range(-6, 18)),  # repr is in full from 1e-4 to 1e16
    *np.ldexp(1.0, np.arange(-1074, 1024)).tolist(),  # the lower neighbour is nearer
    *_neighbours([5e-324, 1e-323, 2.2250738585072014e-308, 0.1, 0.3, 1e22, 1e23]),
    np.nextafter(1.7976931348623157e308, 0.0).item(),
    1.7976931348623157e308,
]


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_repr_kernel_edges(sign):
    values = [sign * v for v in REPR_EDGES]
    assert full_repr(values) == [repr(v) for v in values]


def test_repr_kernel_on_random_bits_short_digits_and_ties():
    rng = np.random.default_rng(18)
    bits = rng.integers(0, 2**63, 100_000, dtype=np.int64).view(np.float64)
    bits = bits[np.isfinite(bits)]
    # 1 to 17 significant digits, over the whole exponent range
    scale = 10.0 ** rng.uniform(-300, 300, 34_000)
    short = [float("%.*e" % (d, v)) for d, v in zip(rng.integers(0, 17, len(scale)).tolist(), scale.tolist())]
    # odd M / 2**(k + 1), whose M * 5**k / 2 in [1e16, 1e17) is a tie of the 17-digit rounding
    k = rng.integers(1, 23, 20_000)
    low, high = 2e16 / 5.0**k, np.minimum(2e17 / 5.0**k, 2.0**53)
    m = np.floor(low + rng.random(len(k)) * (high - low)) // 2 * 2 + 1
    tie = [2 * 10**16 < m * 5**k < 2 * 10**17 for m, k in zip(m.astype(int).tolist(), k.tolist())]
    ties = np.ldexp(m, -(k + 1))[tie]
    assert len(ties) > 19_000
    values = np.concatenate([bits, -bits, short, ties]).tolist()
    assert full_repr(values) == [repr(v) for v in values]


def test_repr_kernel_writes_arrival_times_itself():
    # the times of a trace: a kernel that left every cell to repr would pass
    # the tests above, but not this one
    times = np.cumsum(np.random.default_rng(5).exponential(1.0 / 1.5, 100_000))
    written = []

    def text(v):
        written.append(v)
        return repr(v)

    assert full_repr(times, text) == [repr(v) for v in times.tolist()]
    assert len(written) <= 0.01 * len(times)


def test_json_table_is_json_dumps():
    columns = ("name", "count", "x", "y", "z")
    blocks = [
        ((2, 3), ["a", np.array([[1], [2]]), np.array([0.1, -2.5e-7, 1e300]), None, np.array([[math.nan], [1.0]])]),
        ((1,), ["b\"\u00e9", 3, -0.0, 5e-324, math.inf]),
        ((2,), ["c", np.array([4, 5]), np.array([1e16, 1e-5]), 12345678.9, -math.inf]),
    ]
    rows = []
    for shape, values in blocks:
        cells = [np.broadcast_to(np.asarray(v, dtype=object), shape).ravel().tolist() for v in values]
        rows += [dict(zip(columns, row)) for row in zip(*cells)]
    fh = io.StringIO()
    cli._emit_table(columns, blocks, "json", fh)
    assert fh.getvalue() == json.dumps({"columns": columns, "rows": rows}, indent=2) + "\n"


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


def test_json_sweep_memory_does_not_grow_with_the_grid(tmp_path):
    for target in ("file", "stdout"):
        small, large = _sweep_peaks(tmp_path, "json", [0.2, 0.16, 0.14, 0.12, 0.11, 0.1, 0.09, 0.08], target)
        assert large <= 2.0 * small, target
