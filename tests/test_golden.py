"""Golden sweep outputs: ``aoi sweep`` must write these bytes exactly.

The last bit of some values depends on which exp, expm1 and log1p numpy runs:
on a CPU with AVX-512 it dispatches kernels of its own, elsewhere it calls the
C library's. So the sweeps run in a child process with numpy's AVX-512
kernels switched off (``NPY_DISABLE_CPU_FEATURES``), which writes the same
bytes on any x86-64 CPU. A change that means to alter the sweep's bytes
rewrites them with ``PYTHONPATH=src python tests/test_golden.py`` and says
why.
"""

import contextlib
import functools
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from aoi_mg11 import cli
from aoi_mg11.cli import main

GOLDEN = Path(__file__).parent / "golden"

SERVICES = {
    "uniform": {"type": "uniform", "lower": 0.5, "upper": 1.5},
    "gamma": {"type": "gamma", "shape": 2.0, "scale": 0.5},
}
SIMULATION = {"max_time": 1e3, "seed": 11, "replications": 2}


def _grid(lo: float, step: float, n: int) -> str:
    return ",".join(f"{lo + k * step:.6g}" for k in range(n))


# name -> (service, --param, --grid, with simulated rows)
SWEEPS = {
    f"{law}_{name}": (law, param, grid, name == "with_sim")
    for law, field, field_grid in (("uniform", "upper", _grid(0.6, 0.1, 50)), ("gamma", "scale", _grid(0.05, 0.05, 50)))
    for name, param, grid in (
        ("total_rate", "total_rate", _grid(0.1, 0.1, 50)),
        ("p1", "p1", _grid(0.02, 0.02, 49)),
        (field, field, field_grid),
        ("with_sim", "p1", _grid(0.02, 0.02, 49)),
    )
}

# (--param, --grid, exit code) on the uniform system; the first bad grid
# point decides the message
INVALID_GRIDS = (
    ("total_rate", "1,-1,2", 3),
    ("total_rate", "1,inf", 3),
    ("total_rate", "1e-320", 3),
    ("total_rate", "1,2,1e-320,-1", 3),
    ("p1", "0.5,1.2", 2),
    ("p1", "0.5,nan", 2),
    ("lower", "0.2,2.0", 2),
    ("upper", "2,0.4,inf", 2),
    ("upper", "1,nan", 2),
    ("lower", "inf", 2),
    ("lower", "0.1,-inf", 2),
)


def _config(tmp_path: Path, law: str, fmt: str, out: Path) -> str:
    config = {
        "system": {"total_rate": 1.5, "stream_probs": [0.6, 0.4], "service": SERVICES[law]},
        "simulation": SIMULATION,
        "output": {"format": fmt, "path": str(out)},
    }
    path = tmp_path / f"{law}_{fmt}.json"
    path.write_text(json.dumps(config))
    return str(path)


def _sweep(tmp_path: Path, name: str, fmt: str) -> bytes:
    law, param, grid, with_sim = SWEEPS[name]
    out = tmp_path / f"{name}.{fmt}"
    argv = ["sweep", "-c", _config(tmp_path, law, fmt, out), "--param", param, "--grid", grid]
    assert main(argv + ["--with-sim"] * with_sim) == 0
    return out.read_bytes()


def _write_sweeps(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(SWEEPS):
            for fmt in ("csv", "json"):
                (out / f"{name}.{fmt}").write_bytes(_sweep(Path(tmp), name, fmt))


def _pinned_env() -> dict[str, str]:
    """This environment, with numpy's AVX-512 kernels switched off and this
    process's ``aoi_mg11`` first on the path."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    avx512 = [
        f for f in umath.__cpu_dispatch__ if (f.startswith("AVX512") or f == "X86_V4") and umath.__cpu_features__.get(f)
    ]
    path = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(avx512), "PYTHONPATH": path}
    env.pop("AOI_SEED", None)
    return env


def _write_pinned(out: Path, rows: int | None = None) -> None:
    """Write every golden sweep into ``out`` from a child process with numpy's
    AVX-512 kernels off, ``rows`` rows to a block (default: the sweep's)."""
    argv = [sys.executable, __file__, "--write", str(out)] + [str(rows)] * (rows is not None)
    subprocess.run(argv, env=_pinned_env(), check=True)


def _invalid(tmp_path: Path, param: str, grid: str) -> tuple[int, str]:
    """The exit code and stderr of a sweep that must fail."""
    config = _config(tmp_path, "uniform", "csv", tmp_path / "never.csv")
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(["sweep", "-c", config, "--param", param, "--grid", grid])
    return code, err.getvalue()


@pytest.fixture(autouse=True)
def no_env_seed(monkeypatch):
    monkeypatch.delenv("AOI_SEED", raising=False)


@pytest.fixture(scope="module")
def pinned(tmp_path_factory):
    """The directory of every sweep at a block size, written once per size."""
    root = tmp_path_factory.mktemp("pinned")

    @functools.cache
    def sweeps(rows: int | None) -> Path:
        _write_pinned(root / f"rows_{rows}", rows)
        return root / f"rows_{rows}"

    return sweeps


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_bytes(pinned, name, fmt):
    assert (pinned(None) / f"{name}.{fmt}").read_bytes() == (GOLDEN / f"{name}.{fmt}").read_bytes()


@pytest.mark.parametrize("param, grid, code", INVALID_GRIDS)
def test_invalid_grid(tmp_path, param, grid, code):
    expected = json.loads((GOLDEN / "invalid_grids.json").read_text())[f"{param} {grid}"]
    assert _invalid(tmp_path, param, grid) == (code, expected)
    assert not (tmp_path / "never.csv").exists()


# A sweep is evaluated and written a block of rows at a time; the bytes, and
# the grid value that a failing sweep names, do not depend on the block size.
@pytest.mark.parametrize("rows", [1, 7])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_bytes_at_any_block_size(pinned, rows, name, fmt):
    assert (pinned(rows) / f"{name}.{fmt}").read_bytes() == (GOLDEN / f"{name}.{fmt}").read_bytes()


@pytest.mark.parametrize("rows", [1, 7])
@pytest.mark.parametrize("param, grid, code", INVALID_GRIDS)
def test_invalid_grid_at_any_block_size(tmp_path, monkeypatch, rows, param, grid, code):
    monkeypatch.setattr(cli, "_SWEEP_ROWS", rows)
    expected = json.loads((GOLDEN / "invalid_grids.json").read_text())[f"{param} {grid}"]
    assert _invalid(tmp_path, param, grid) == (code, expected)
    assert not (tmp_path / "never.csv").exists()


if __name__ == "__main__":
    # with no arguments, rewrite tests/golden/; `--write DIR [ROWS]` is the
    # child that writes the sweeps into DIR
    os.environ.pop("AOI_SEED", None)
    if sys.argv[1:2] == ["--write"]:
        if len(sys.argv) > 3:
            cli._SWEEP_ROWS = int(sys.argv[3])
        _write_sweeps(Path(sys.argv[2]))
    else:
        _write_pinned(GOLDEN)
        with tempfile.TemporaryDirectory() as tmp:
            messages = {f"{param} {grid}": _invalid(Path(tmp), param, grid)[1] for param, grid, _ in INVALID_GRIDS}
        (GOLDEN / "invalid_grids.json").write_text(json.dumps(messages, indent=2) + "\n")
