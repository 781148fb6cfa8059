"""One benchmark run of a workload, in a fresh interpreter.

Usage: python child.py JOB.json

The job file names the package source directory, the CLI argument lists to
run and whether to trace. The child times the import of ``aoi_mg11.cli``
(set-up), then calls ``cli.main(argv)`` once per command with stdout
captured and timed, and writes one result JSON to the path the job names.

After the commands the child also times a fixed reference computation
(``ref_s``), so that the parent can take out the speed of a shared host,
which drifts over minutes.

With tracing on, the public entry points of each layer are wrapped from here,
without editing the package. Each call becomes a span
``[name, start, end, parent index, size]`` held in memory and written once
with the result.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

# (span name, module, attribute). Each wrapper replaces the name its caller
# looks up: cli reaches the layers through module attributes, except
# load_run_config, which it imports by name, and optimal_allocation calls
# total_age through the optimizer module's globals.
TRACED_FUNCTIONS = (
    ("config.load_run_config", "cli", "load_run_config"),
    ("analytic.age_report", "analytic", "age_report"),
    ("analytic.interdeparture_mgf", "analytic", "interdeparture_mgf"),
    ("simulator.run", "simulator", "run"),
    ("simulator.clock_conditional_sampler", "simulator", "clock_conditional_sampler"),
    ("flowgraph.transfer_function", "flowgraph", "transfer_function"),
    ("flowgraph.solve_transfer_by_elimination", "flowgraph", "solve_transfer_by_elimination"),
    ("flowgraph.path_enumeration_oracle", "flowgraph", "path_enumeration_oracle"),
    ("optimizer.optimal_allocation", "optimizer", "optimal_allocation"),
    ("optimizer.total_age", "optimizer", "total_age"),
)
# sample() is looked up on the instance, so it is wrapped on each concrete law.
SAMPLED_LAWS = ("Exponential", "Gamma", "Deterministic", "Uniform")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def call(self, name: str, fn, args, kwargs, size: int = 0):
        rec = [name, 0.0, 0.0, self._open[-1] if self._open else -1, size]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced

    def wrap_sample(self, fn):
        def traced(law, rng, size=None):
            return self.call("distributions.sample", fn, (law, rng, size), {}, 1 if size is None else int(size))

        return traced

    def install(self) -> None:
        for name, module, attr in TRACED_FUNCTIONS:
            mod = importlib.import_module(f"aoi_mg11.{module}")
            setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
        distributions = importlib.import_module("aoi_mg11.distributions")
        for law in SAMPLED_LAWS:
            cls = getattr(distributions, law)
            cls.sample = self.wrap_sample(cls.sample)


def max_rss_kb() -> int:
    """Peak resident set of this process image, in KiB.

    ru_maxrss is not used: it keeps the high-water mark of the pre-exec fork,
    which is as large as the parent's resident set. VmHWM starts again at exec.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def reference_s() -> float:
    """Wall time of a fixed computation that does not use the package.

    It mixes what the package's commands do: draws and prefix sums over
    arrays larger than the caches, small-array products in a Python loop, and
    row formatting. A shared host slows each of these by its own amount.
    """
    import numpy as np

    t0 = time.perf_counter()
    rng = np.random.default_rng(12345)
    for _ in range(3):
        a = np.cumsum(rng.exponential(1.0, 2_000_000))
        np.searchsorted(a, a[::50])
    m, v, acc = np.full((4, 4), 0.2), np.ones(4), 0.0
    for _ in range(20_000):
        acc += float(v @ m[:, 0])
        v = v @ m
    for k in range(10):
        "\n".join([f"{i * 0.37:.6g},{k}" for i in range(10_000)])
    return time.perf_counter() - t0


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    t0 = time.perf_counter()
    from aoi_mg11 import cli

    setup_s = time.perf_counter() - t0
    rss_setup_kb = max_rss_kb()
    src = Path(job["src"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"aoi_mg11 was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = Tracer() if job["trace"] else None
    if tracer is not None:
        tracer.install()
    commands = []
    start = time.perf_counter()
    for argv in job["commands"]:
        buf = io.StringIO()
        error = None
        cmd_start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            try:
                if tracer is None:
                    rc = cli.main(argv)
                else:
                    rc = tracer.call("cli.main", cli.main, (argv,), {})
            except Exception:  # a traceback is a failed command, not a failed benchmark
                rc, error = -1, traceback.format_exc()
        wall = time.perf_counter() - cmd_start
        commands.append({"rc": rc, "stdout": buf.getvalue(), "error": error, "wall_s": wall})
    wall_s = time.perf_counter() - start
    peak_rss_kb = max_rss_kb()
    # After the peak is read: the reference's heap would raise it.
    ref_s = reference_s() + reference_s()

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "ref_s": ref_s,
        "rss_setup_kb": rss_setup_kb,
        "peak_rss_kb": peak_rss_kb,
        "commands": commands,
        "spans": tracer.spans if tracer is not None else [],
    }
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
