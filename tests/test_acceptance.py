"""Acceptance checks for the whole package.

Each test prints a single PASS/FAIL line on stderr so the verdicts are
visible even when pytest captures output.
"""

import json
import math
import sys
import time

import numpy as np
import pytest

from aoi_mg11.analytic import (
    SystemConfig,
    age_report,
    avg_age,
    clock_mgf_A,
    clock_mgf_B,
    interdeparture_mgf,
    mean_interdeparture,
    mean_system_time,
    moments_from_mgf,
    peak_age,
    second_moment_interdeparture,
    system_time_mgf,
)
from aoi_mg11.cli import main
from aoi_mg11.distributions import Deterministic, Exponential, Gamma, Uniform
from aoi_mg11.flowgraph import (
    build_graph,
    clock_probs,
    edge_weights,
    path_enumeration_oracle,
    solve_transfer_by_elimination,
    transfer_function,
)
from aoi_mg11.optimizer import optimal_allocation, priority_frontier, total_age
from aoi_mg11.simulator import SimParams, clock_conditional_sampler, run

from conftest import random_system_config

REF = SystemConfig(1.5, (0.5, 0.3, 0.2), Exponential(1.0))

FAMILIES = (
    Exponential(1.0),
    Gamma(2.0, 0.5),
    Deterministic(1.0),
    Uniform(0.0, 1.5),
)


_CAPTURE = None


@pytest.fixture(autouse=True)
def _live_verdicts(capfd):
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def report(name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    line = f"{verdict} {name}" + (f": {detail}" if detail else "")
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, file=sys.stderr)
    else:
        print(line, file=sys.stderr)
    assert ok, f"{name} failed ({detail})"


def max_rel_err(pairs):
    return max(abs(got - want) / abs(want) for got, want in pairs)


def test_criterion_1_exponential_simulation():
    t0 = time.perf_counter()
    res = run(SimParams(REF, max_time=1e6, seed=101, replications=4, warmup_fraction=0.05))
    pairs = []
    for s in res.streams:
        pairs.append((s.avg_age, avg_age(REF, s.stream)))
        pairs.append((s.peak_age, peak_age(REF, s.stream)))
    elapsed = time.perf_counter() - t0
    err = max_rel_err(pairs)
    report(
        "criterion 1 (exponential service, sim vs closed form)",
        err < 0.01 and elapsed < 60.0,
        f"max rel err {err:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_non_exponential_simulation():
    worst = 0.0
    elapsed = []
    for cfg in (
        SystemConfig(1.5, (0.5, 0.3, 0.2), Gamma(2.0, 0.5)),
        SystemConfig(1.0, (0.5, 0.5), Deterministic(1.0)),
    ):
        t0 = time.perf_counter()
        res = run(SimParams(cfg, max_time=1e6, seed=202, replications=4))
        worst = max(
            worst,
            max_rel_err([(s.avg_age, avg_age(cfg, s.stream)) for s in res.streams]),
        )
        elapsed.append(time.perf_counter() - t0)
    det = SystemConfig(1.0, (0.5, 0.5), Deterministic(1.0))
    assert avg_age(det, 1) == pytest.approx(2.0 * math.e, rel=1e-12)
    report(
        "criterion 2 (gamma and deterministic service, sim vs closed form)",
        worst < 0.01 and max(elapsed) < 60.0,
        f"max rel err {worst:.2e}, {max(elapsed):.1f}s each",
    )


def test_criterion_3_four_way_mgf_agreement(rng):
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        cfg = random_system_config(rng)
        for i in range(1, cfg.num_streams + 1):
            pr = clock_probs(cfg, i)
            for s in (0.0, -0.25, -0.5, -1.0):
                ref = interdeparture_mgf(cfg, i, s)
                w = edge_weights(cfg, s)
                closed = transfer_function(w, pr)
                solved = solve_transfer_by_elimination(build_graph(pr, w))
                depth = 2048
                while True:
                    value, bound = path_enumeration_oracle(pr, w, max_edges=depth)
                    if bound < 1e-8 or depth >= 1 << 17:
                        break
                    depth *= 2
                assert bound < 1e-8
                worst = max(
                    worst,
                    abs(closed - ref) / abs(ref),
                    abs(solved - ref) / abs(ref),
                    max(0.0, (abs(value - ref) - bound) / abs(ref)),
                )
    elapsed = time.perf_counter() - t0
    report(
        "criterion 3 (closed form, transfer function, elimination, path sum)",
        worst < 1e-10 and elapsed < 30.0,
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_conditional_clock_monte_carlo(rng):
    t0 = time.perf_counter()
    n = 1_000_000
    targets = {
        "A": lambda s: clock_mgf_A(REF, s),
        "Z": lambda s: clock_mgf_A(REF, s),
        "B": lambda s: clock_mgf_B(REF, s),
        "V": lambda s: clock_mgf_B(REF, s),
        "U": lambda s: system_time_mgf(REF, s),
    }
    worst = 0.0
    for which, target in targets.items():
        stats = clock_conditional_sampler(REF, 1, which, n, rng)
        for s, (mean, se) in stats.items():
            gap = abs(mean - target(s))
            worst = max(worst, gap / se if se > 0 else (0.0 if gap == 0 else math.inf))
    elapsed = time.perf_counter() - t0
    report(
        "criterion 4 (conditional clock samples vs closed-form transforms)",
        worst < 5.0 and elapsed < 30.0,
        f"worst deviation {worst:.2f} standard errors, {elapsed:.1f}s",
    )


def test_criterion_5_moment_consistency(rng):
    worst = 0.0
    for _ in range(100):
        cfg = random_system_config(rng)
        age_report(cfg)  # raises if the two avg-age routes differ beyond 1e-9
        e_t = mean_system_time(cfg)
        worst = max(
            worst,
            abs(moments_from_mgf(lambda s: system_time_mgf(cfg, s), 1) - e_t) / e_t,
        )
        for i in range(1, cfg.num_streams + 1):
            phi = lambda s, i=i: interdeparture_mgf(cfg, i, s)
            e_y = mean_interdeparture(cfg, i)
            e_y2 = second_moment_interdeparture(cfg, i)
            worst = max(
                worst,
                abs(moments_from_mgf(phi, 1) - e_y) / e_y,
                abs(moments_from_mgf(phi, 2) - e_y2) / e_y2,
            )
    report(
        "criterion 5 (closed-form moments vs numeric derivatives, dual age routes)",
        worst < 1e-5,
        f"max rel err {worst:.2e}",
    )


def test_criterion_6_fair_split_optimality(rng):
    t0 = time.perf_counter()
    ok = True
    for m in (2, 3, 5):
        for dist in FAMILIES:
            lam = 1.2
            star = m * m / (lam * dist.laplace(lam))
            res = optimal_allocation(lam, m, dist, n_random_points=1000, rng=rng)
            ok &= abs(res.delta_tot_star - star) <= 1e-12 * star
            ok &= res.max_violation == 0.0
            for _ in range(1000 // 4):
                raw = rng.exponential(1.0, m)
                p = raw / raw.sum()
                tot, _ = total_age(SystemConfig(lam, tuple(p), dist))
                ok &= tot >= star
                if np.max(np.abs(p - 1.0 / m)) > 1e-3:
                    ok &= tot > star
    elapsed = time.perf_counter() - t0
    report(
        "criterion 6 (uniform split minimizes total age over the simplex)",
        ok and elapsed < 5.0,
        f"{elapsed:.1f}s",
    )


def test_criterion_7_priority_frontier_monotonicity():
    m = 3
    grid = tuple(sorted(set(np.linspace(0.02, 0.98, 49)) | {1.0 / m}))
    assert len(grid) == 50
    rows = priority_frontier(1.5, m, Exponential(1.0), 1, grid)
    ages = [r[1] for r in rows]
    totals = {r[0]: r[2] for r in rows}
    decreasing = all(b < a for a, b in zip(ages, ages[1:]))
    fair = totals[1.0 / m]
    minimized = all(fair < v for g, v in totals.items() if g != 1.0 / m)
    report(
        "criterion 7 (priority frontier: own age decreasing, total minimized at fair split)",
        decreasing and minimized,
    )


def test_criterion_8_single_stream_recovery():
    worst_sim = 0.0
    for lam, target in ((0.5, 3.0), (1.0, 2.0), (2.0, 1.5)):
        cfg = SystemConfig(lam, (1.0,), Exponential(1.0))
        assert avg_age(cfg, 1) == pytest.approx(target, rel=1e-12)
        res = run(SimParams(cfg, max_time=2e5, seed=303, replications=2))
        worst_sim = max(worst_sim, abs(res.streams[0].avg_age - target) / target)
    report(
        "criterion 8 (single-stream exponential closed form and simulation)",
        worst_sim < 0.01,
        f"max sim rel err {worst_sim:.2e}",
    )


def test_criterion_9_determinism_and_renewal_identity(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    out = tmp_path / "sim.csv"
    cfg_path.write_text(
        json.dumps(
            {
                "system": {
                    "total_rate": 1.5,
                    "stream_probs": [0.5, 0.3, 0.2],
                    "service": {"type": "exponential", "rate": 1.0},
                },
                "simulation": {"max_time": 5e4, "seed": 42, "replications": 4},
                "output": {"path": str(out)},
            }
        )
    )
    assert main(["simulate", "-c", str(cfg_path)]) == 0
    first = out.read_bytes()
    assert main(["simulate", "-c", str(cfg_path)]) == 0
    identical = out.read_bytes() == first

    res = run(SimParams(REF, max_time=5e4, seed=42, replications=4))
    renewal_ok = True
    rate_ok = True
    for s in res.streams:
        renewal_ok &= abs(s.delivery_rate * s.mean_interdeparture - 1.0) < 0.01
        expected = REF.stream_rate(s.stream) * REF.service_beats_arrival()
        rate_ok &= abs(s.delivery_rate - expected) < 3.0 * s.delivery_rate_se
    report(
        "criterion 9 (byte-identical reruns, renewal identity, delivery rates)",
        identical and renewal_ok and rate_ok,
    )
