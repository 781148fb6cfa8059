"""Benchmark for the aoi CLI: runs one workload as a user would and reports metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

A run starts fresh child processes one at a time (perfbench/child.py), each of
which imports ``aoi_mg11.cli`` from ``src/`` and runs every command of the
workload once. Children are started until ``--seconds`` would be exceeded, with
a minimum of three. Every child runs the same inputs, so its outputs must be
byte-identical to the first child's, whose outputs are checked in full.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, as medians over
the children, with times scaled to the speed of the host (REFERENCE_NOMINAL_S).
``--trace 1`` alternates untraced and traced children and reports the
per-layer metrics, derived from the traced children's spans. The last line of
stdout is one JSON object: correct, attempted, failed, metrics.

``--all`` runs every workload with ``--trace 1``, prints every metric by name
with its unit (end-to-end ones from the untraced children), and exits 1 if any
output check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
WORK_PARENT = ROOT / ".perfbench_work"
CHILD_TIMEOUT_S = 60
MIN_CHILDREN = 3
SETUP_PROBES = 4
# Times reported in the result line are scaled to a host on which the child's
# reference computation (child.reference_s, run twice after the commands)
# takes this long, about its time on a 2-vCPU Xeon. The speed of a shared
# host drifts by 20-50% over minutes, and the reference, timed in the same
# child as the commands, drifts with it; the unscaled times are printed beside
# them.
REFERENCE_NOMINAL_S = 0.6

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import BUILDERS, Workload  # noqa: E402


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env(workload: Workload) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("AOI_SEED", None)
    env.update(
        PYTHONPATH=str(SRC),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        **workload.env,
    )
    return env


def run_child(workload: Workload, work: Path, trace: bool, setup_only: bool = False) -> dict | None:
    """One child process; returns its result, or None if it did not finish.

    A set-up-only child imports the CLI and runs no command.
    """
    job, result = work / "job.json", work / "result.json"
    result.unlink(missing_ok=True)
    job.write_text(
        json.dumps(
            {
                "src": str(SRC),
                "trace": trace,
                "result": str(result),
                "commands": [] if setup_only else [list(c.argv) for c in workload.commands],
            }
        )
    )
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), str(job)],
            cwd=work,
            env=child_env(workload),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"child killed after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result.exists():
        print(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}", file=sys.stderr)
        return None
    return json.loads(result.read_text())


def command_digests(workload: Workload, res: dict) -> list[str]:
    """SHA-256 of each command's output files and captured stdout."""
    digests = []
    for cmd, out in zip(workload.commands, res["commands"]):
        h = hashlib.sha256(out["stdout"].encode())
        for path in cmd.outputs:
            h.update(path.read_bytes() if path.exists() else b"<missing>")
        digests.append(h.hexdigest())
    return digests


def output_bytes(workload: Workload, res: dict) -> int:
    files = sum(p.stat().st_size for c in workload.commands for p in c.outputs if p.exists())
    return files + sum(len(out["stdout"].encode()) for out in res["commands"])


def layer_metrics(res: dict) -> dict[str, float]:
    """Per-layer metrics of one traced child, from its spans."""
    spans = res["spans"]
    busy, calls = defaultdict(float), defaultdict(int)
    covered = defaultdict(float)  # parent name -> time its direct children cover
    sized = defaultdict(int)  # parent name -> sample sizes drawn under it
    largest = defaultdict(int)  # parent name -> largest single sample size
    for name, start, end, parent, size in spans:
        busy[name] += end - start
        calls[name] += 1
        if parent >= 0:
            pname = spans[parent][0]
            covered[pname] += end - start
            if name == "distributions.sample":
                sized[pname] += size
                largest[pname] = max(largest[pname], size)

    def per(num: float, den: float) -> float:
        return num / den if den else 0.0

    run, clock = "simulator.run", "simulator.clock_conditional_sampler"
    grown_bytes = 1024 * (res["peak_rss_kb"] - res["rss_setup_kb"])
    return {
        "simulator.run.s": busy[run],
        "simulator.run.self_s": busy[run] - covered[run],
        "simulator.run.calls": calls[run],
        "simulator.run.arrivals": sized[run],
        "simulator.run.arrivals_per_busy_s": per(sized[run], busy[run]),
        "simulator.run.peak_bytes_per_arrival": per(grown_bytes, largest[run]),
        "distributions.sample.calls": calls["distributions.sample"],
        "distributions.sample.draws": sum(sized.values()),
        "distributions.sample.s": busy["distributions.sample"],
        f"{clock}.s": busy[clock],
        f"{clock}.draws": sized[clock],
        "flowgraph.path_enumeration_oracle.calls": calls["flowgraph.path_enumeration_oracle"],
        "flowgraph.path_enumeration_oracle.s": busy["flowgraph.path_enumeration_oracle"],
        "flowgraph.solve_transfer_by_elimination.s": busy["flowgraph.solve_transfer_by_elimination"],
        "flowgraph.transfer_function.s": busy["flowgraph.transfer_function"],
        "analytic.age_report.calls": calls["analytic.age_report"],
        "analytic.age_report.us_per_call": 1e6 * per(busy["analytic.age_report"], calls["analytic.age_report"]),
        "analytic.interdeparture_mgf.calls": calls["analytic.interdeparture_mgf"],
        "optimizer.optimal_allocation.s": busy["optimizer.optimal_allocation"],
        "optimizer.total_age.calls": calls["optimizer.total_age"],
        "cli.main.self_s": busy["cli.main"] - covered["cli.main"],
        "config.load_run_config.s": busy["config.load_run_config"],
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run children of one workload until the time is up; check and summarise them."""
    WORK_PARENT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_PARENT))
    try:
        return _run_workload(BUILDERS[name](seed, work), work, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_workload(workload: Workload, work: Path, seconds: float, trace: bool) -> dict:
    start = time.perf_counter()
    # Set-up is short and noisy, so it is sampled more often than the commands
    # run. The first probe only warms the bytecode and file caches, which users
    # do not pay on every run.
    setups = [run_child(workload, work, False, setup_only=True) for _ in range(SETUP_PROBES + 1)]
    if any(r is None for r in setups):
        raise SystemExit("the package could not be imported")
    n_cmds = len(workload.commands)
    problems: list[str] = []
    failed = attempted = 0
    reference: list[str] | None = None
    failed_check: set[int] = set()
    counts: dict[str, int] = {}
    untraced, traced = [], []
    counts_ref: dict | None = None
    longest = 0.0
    k = 0
    while k < (4 if trace else MIN_CHILDREN) or time.perf_counter() - start + longest <= seconds:
        tracing = trace and k % 2 == 1
        k += 1
        t0 = time.perf_counter()
        res = run_child(workload, work, tracing)
        longest = max(longest, time.perf_counter() - t0)
        attempted += n_cmds
        if res is None:
            failed += n_cmds
            problems.append("a child process failed")
            continue
        bad = {i for i, out in enumerate(res["commands"]) if out["rc"] != 0}
        for i in bad:
            out = res["commands"][i]
            problems.append(f"command {i} exited {out['rc']} {out['error'] or ''}".strip())
        digests = command_digests(workload, res)
        if reference is None:
            reference = digests
            try:
                counts, failures = workload.check([out["stdout"] for out in res["commands"]])
            except (OSError, ValueError, KeyError, StopIteration) as exc:
                failures = [(i, f"output unreadable: {exc!r}") for i in range(n_cmds)]
            for i, msg in failures:
                failed_check.add(i)
                problems.append(f"command {i}: {msg}")
        for i, (d, want) in enumerate(zip(digests, reference)):
            if d != want:
                bad.add(i)
                problems.append(f"command {i}: output differs from the first run at this seed")
        bad |= failed_check  # identical output fails the same check
        res["output_bytes"] = output_bytes(workload, res)
        if tracing:
            res["layers"] = layer_metrics(res)
            exact = {k: v for k, v in res["layers"].items() if k.endswith((".calls", ".arrivals", ".draws"))}
            exact["cli.output_bytes"] = res["output_bytes"]
            if counts_ref is None:
                counts_ref = exact
            elif exact != counts_ref:
                bad.update(range(n_cmds))
                problems.append(f"traced counts differ between runs at this seed: {exact} vs {counts_ref}")
            traced.append(res)
        else:
            untraced.append(res)
        failed += len(bad)

    if not untraced or (trace and not traced):
        raise SystemExit("no child process finished: " + "; ".join(problems[:5]))

    def scaled(r: dict, key: str) -> float:
        return r[key] * REFERENCE_NOMINAL_S / r["ref_s"]

    all_children = setups[1:] + untraced + traced
    metrics: dict[str, float] = {
        "setup_s": median(scaled(r, "setup_s") for r in all_children),
        "wall_s": median(scaled(r, "wall_s") for r in untraced),
        "peak_rss_mb": median(r["peak_rss_kb"] / 1024 for r in untraced),
        "setup_raw_s": median(r["setup_s"] for r in all_children),
        "wall_raw_s": median(r["wall_s"] for r in untraced),
        "ref_s": median(r["ref_s"] for r in all_children),
        "cli.output_bytes": median(r["output_bytes"] for r in untraced),
    }
    if traced:
        for key in traced[0]["layers"]:
            metrics[key] = median(r["layers"][key] for r in traced)
        metrics["trace.overhead_s"] = median(r["wall_s"] for r in traced) - metrics["wall_raw_s"]
    # Each part's count over the time of the part's own commands.
    throughputs = {
        f"{part.work_name}_per_s": median(
            counts[part.work_name] / sum(out["wall_s"] for out in r["commands"][sl]) for r in untraced
        )
        for part, sl in workload.part_slices()
        if part.work_name in counts
    }
    return {
        "workload": workload.name,
        "counts": counts,
        "throughputs": throughputs,
        "children": len(untraced) + len(traced),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
    }


def fmt(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else f"{value:.6g}"


def describe(summary: dict, units: dict[str, str]) -> list[str]:
    """Human-readable lines: every metric with its unit, the counts, the error rate."""
    name = summary["workload"]
    m = summary["metrics"]
    unit = lambda k: units.get(k, "s" if k.endswith("_s") else "")  # noqa: E731
    lines = [f"{name} {k} {fmt(v)} {unit(k)}".rstrip() for k, v in m.items()]
    lines += [f"{name} {k} {v:.6g} 1/s" for k, v in summary["throughputs"].items()]
    lines += [f"{name} {k} {v} count" for k, v in summary["counts"].items()]
    lines.append(f"{name} error_rate {summary['failed'] / summary['attempted']:.6g} ratio")
    lines.append(f"{name} children {summary['children']} count")
    lines += [f"{name} PROBLEM {p}" for p in summary["problems"][:20]]
    return lines


def result_line(summary: dict, wanted: list[dict]) -> str:
    return json.dumps(
        {
            "correct": summary["failed"] == 0,
            "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": {
                w["name"]: {"value": summary["metrics"][w["name"]], "unit": w["unit"]} for w in wanted
            },
        }
    )


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(BUILDERS))
    parser.add_argument("--all", action="store_true", help="run every workload, traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM unwind as on an error: subprocess.run kills and waits for the
    # running child, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if not (SRC / "aoi_mg11" / "cli.py").is_file():
        print(f"no package source at {SRC / 'aoi_mg11'}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    if args.workload is not None:
        summary = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print("\n".join(describe(summary, units)))
        print(result_line(summary, spec["per_layer"] if args.trace else spec["end_to_end"]))
        return 0

    all_correct = True
    for name in BUILDERS:
        summary = run_workload(name, args.seed, args.seconds, trace=True)
        all_correct &= summary["failed"] == 0
        print("\n".join(describe(summary, units)), flush=True)
    print("all output checks passed" if all_correct else "some output checks FAILED")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
