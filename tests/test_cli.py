import json
import math
import os

import pytest

from aoi_mg11 import cli
from aoi_mg11.cli import main
from aoi_mg11.errors import InsufficientDataError

REF_SYSTEM = {
    "total_rate": 1.5,
    "stream_probs": [0.5, 0.3, 0.2],
    "service": {"type": "exponential", "rate": 1.0},
}


def write_config(tmp_path, name="cfg.json", **sections):
    path = tmp_path / name
    path.write_text(json.dumps(sections))
    return str(path)


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


@pytest.fixture(autouse=True)
def no_env_seed(monkeypatch):
    monkeypatch.delenv("AOI_SEED", raising=False)


class TestAnalyze:
    def test_reference_csv(self, tmp_path):
        out = tmp_path / "report.csv"
        cfg = write_config(tmp_path, system=REF_SYSTEM, output={"path": str(out)})
        assert main(["analyze", "-c", cfg]) == 0
        rows = read_csv(out)
        row1 = rows[0]
        assert row1["stream"] == "1"
        assert float(row1["avg_age"]) == pytest.approx(3.333333, abs=1e-5)
        assert float(row1["peak_age"]) == pytest.approx(3.733333, abs=1e-5)
        assert rows[-1]["stream"] == "total"

    def test_single_stream_totals_row(self, tmp_path):
        out = tmp_path / "r.csv"
        cfg = write_config(
            tmp_path,
            system={
                "total_rate": 1.5,
                "stream_probs": [1.0],
                "service": {"type": "exponential", "rate": 1.0},
            },
            output={"path": str(out)},
        )
        assert main(["analyze", "-c", cfg]) == 0
        rows = read_csv(out)
        assert len(rows) == 2
        assert rows[0]["avg_age"] == rows[1]["avg_age"]

    def test_bad_probability_sum(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            system={
                "total_rate": 1.0,
                "stream_probs": [0.5, 0.4],
                "service": {"type": "exponential", "rate": 1.0},
            },
        )
        assert main(["analyze", "-c", cfg]) == 2
        assert "probabilities" in capsys.readouterr().err

    def test_unknown_field_rejected(self, tmp_path):
        cfg = write_config(tmp_path, system={**REF_SYSTEM, "totel_rate": 2.0})
        assert main(["analyze", "-c", cfg]) == 2

    def test_stream_rates_spelling(self, tmp_path):
        out = tmp_path / "r.csv"
        cfg = write_config(
            tmp_path,
            system={
                "stream_rates": [0.75, 0.45, 0.3],
                "service": {"type": "exponential", "rate": 1.0},
            },
            output={"path": str(out)},
        )
        assert main(["analyze", "-c", cfg]) == 0
        rows = read_csv(out)
        assert float(rows[0]["avg_age"]) == pytest.approx(10.0 / 3.0, rel=1e-5)

    def test_mismatched_total_rate_with_rates(self, tmp_path):
        cfg = write_config(
            tmp_path,
            system={
                "total_rate": 2.0,
                "stream_rates": [0.75, 0.45, 0.3],
                "service": {"type": "exponential", "rate": 1.0},
            },
        )
        assert main(["analyze", "-c", cfg]) == 2

    def test_json_round_trip(self, tmp_path):
        out = tmp_path / "r.json"
        cfg = write_config(
            tmp_path, system=REF_SYSTEM, output={"format": "json", "path": str(out)}
        )
        assert main(["analyze", "-c", cfg]) == 0
        data = json.loads(out.read_text())
        assert data["rows"][0]["avg_age"] == pytest.approx(10.0 / 3.0, rel=1e-12)

    def test_domain_error_exit_code(self, tmp_path):
        # clock MGF style domain failures map to exit 3; trigger via a config
        # whose Laplace argument falls outside the convergence region is not
        # reachable from analyze, so check the malformed-file path instead
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert main(["analyze", "-c", str(bad)]) == 2


class TestSimulate:
    def simulate_cfg(self, tmp_path, out, max_time=5e4, trace_path=None):
        output = {"path": str(out)}
        if trace_path:
            output["trace_path"] = str(trace_path)
        return write_config(
            tmp_path,
            system=REF_SYSTEM,
            simulation={"max_time": max_time, "seed": 42, "replications": 2},
            probes={"mgf_s_values": [-0.5]},
            output=output,
        )

    def test_deterministic_output(self, tmp_path):
        out = tmp_path / "sim.csv"
        cfg = self.simulate_cfg(tmp_path, out)
        assert main(["simulate", "-c", cfg]) == 0
        first = out.read_bytes()
        assert main(["simulate", "-c", cfg]) == 0
        assert out.read_bytes() == first

    def test_close_to_analytic(self, tmp_path):
        out = tmp_path / "sim.csv"
        cfg = self.simulate_cfg(tmp_path, out, max_time=2e5)
        assert main(["simulate", "-c", cfg]) == 0
        rows = read_csv(out)
        for row in rows:
            assert float(row["avg_age"]) == pytest.approx(float(row["ref_avg_age"]), rel=0.02)

    def test_join_with_analyze(self, tmp_path):
        sim_out = tmp_path / "sim.csv"
        ana_out = tmp_path / "ana.csv"
        assert main(["simulate", "-c", self.simulate_cfg(tmp_path, sim_out)]) == 0
        assert main(["analyze", "-c", write_config(tmp_path, name="a.json", system=REF_SYSTEM, output={"path": str(ana_out)})]) == 0
        sim_rows = {r["stream"]: r for r in read_csv(sim_out)}
        ana_rows = {r["stream"]: r for r in read_csv(ana_out) if r["stream"] != "total"}
        assert set(ana_rows) == set(sim_rows)
        shared = {"stream", "lambda_i", "p_i", "avg_age", "peak_age"}
        assert shared <= set(next(iter(sim_rows.values())))

    def test_trace(self, tmp_path):
        out = tmp_path / "sim.csv"
        trace = tmp_path / "trace.csv"
        cfg = self.simulate_cfg(tmp_path, out, max_time=10.0, trace_path=trace)
        assert main(["simulate", "-c", cfg]) == 0
        rows = read_csv(trace)
        times = [float(r["time"]) for r in rows]
        assert times == sorted(times)
        assert {r["kind"] for r in rows} <= {"arrival", "delivery", "preemption"}

    def test_env_seed_override(self, tmp_path, monkeypatch):
        out = tmp_path / "sim.csv"
        cfg = self.simulate_cfg(tmp_path, out)
        assert main(["simulate", "-c", cfg]) == 0
        base = out.read_bytes()
        monkeypatch.setenv("AOI_SEED", "777")
        assert main(["simulate", "-c", cfg]) == 0
        assert out.read_bytes() != base

    def test_missing_simulation_section(self, tmp_path):
        cfg = write_config(tmp_path, system=REF_SYSTEM)
        assert main(["simulate", "-c", cfg]) == 2


class TestValidate:
    def validate_cfg(self, tmp_path, report=None, probes=(-0.5,)):
        output = {"path": str(report)} if report else {}
        if output:
            output["format"] = "json"
        return write_config(
            tmp_path,
            system=REF_SYSTEM,
            simulation={"max_time": 5e4, "seed": 42, "replications": 2},
            probes={"mgf_s_values": list(probes)},
            output=output,
        )

    def test_all_pass(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        cfg = self.validate_cfg(tmp_path, report)
        assert main(["validate", "-c", cfg]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        checks = json.loads(report.read_text())["checks"]
        assert len(checks) >= 8
        assert all(c["passed"] for c in checks)

    def test_corrupted_expectation_fails(self, tmp_path, capsys):
        cfg = self.validate_cfg(tmp_path)
        assert main(["validate", "-c", cfg, "--expect", "avg_age_1=99"]) == 5
        assert "FAIL" in capsys.readouterr().out

    def test_unknown_expect_key(self, tmp_path):
        cfg = self.validate_cfg(tmp_path)
        assert main(["validate", "-c", cfg, "--expect", "bogus=1"]) == 2

    def test_positive_probe_rejected(self, tmp_path, capsys):
        cfg = self.validate_cfg(tmp_path, probes=(0.9 * 1.5,))
        assert main(["validate", "-c", cfg]) == 2
        assert "mgf_s_values" in capsys.readouterr().err

    def test_rare_conditioning_is_domain_error(self, tmp_path, capsys):
        # service almost never beats an arrival, so the clock U sampler
        # accepts no draws
        cfg = write_config(
            tmp_path,
            system={
                "total_rate": 1.5,
                "stream_probs": [0.5, 0.5],
                "service": {"type": "deterministic", "value": 9.2},
            },
        )
        assert main(["validate", "-c", cfg]) == 3
        err = capsys.readouterr().err
        assert "domain error: clock U" in err
        assert "Traceback" not in err


def test_insufficient_data_exit_code(tmp_path, monkeypatch, capsys):
    def no_data(cfg):
        raise InsufficientDataError("need at least 2 interdeparture gaps, have 0")

    monkeypatch.setattr(cli.analytic, "age_report", no_data)
    assert main(["analyze", "-c", write_config(tmp_path, system=REF_SYSTEM)]) == 4
    assert "data error" in capsys.readouterr().err


class TestOptimize:
    def test_reference(self, capsys):
        assert (
            main(
                [
                    "optimize",
                    "--rate",
                    "1.5",
                    "--streams",
                    "3",
                    "--service",
                    "exponential",
                    "--service-rate",
                    "1.0",
                ]
            )
            == 0
        )
        data = json.loads(capsys.readouterr().out)
        assert data["delta_tot_star"] == pytest.approx(15.0, rel=1e-12)
        assert data["verification"]["max_violation"] == 0.0

    def test_single_stream(self, capsys):
        assert (
            main(
                [
                    "optimize",
                    "--rate",
                    "1.0",
                    "--streams",
                    "1",
                    "--service",
                    "deterministic",
                    "--value",
                    "1.0",
                ]
            )
            == 0
        )
        assert json.loads(capsys.readouterr().out)["p_star"] == [1.0]

    def test_zero_rate(self):
        assert (
            main(
                [
                    "optimize",
                    "--rate",
                    "0",
                    "--streams",
                    "2",
                    "--service",
                    "exponential",
                    "--service-rate",
                    "1.0",
                ]
            )
            == 2
        )

    def test_missing_service_param(self):
        assert (
            main(["optimize", "--rate", "1.0", "--streams", "2", "--service", "gamma"])
            == 2
        )


class TestSweep:
    def test_priority_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cfg = write_config(tmp_path, system=REF_SYSTEM, output={"path": str(out)})
        grid = "0.2,0.3333333333333333,0.5,0.8"
        assert main(["sweep", "-c", cfg, "--param", "p1", "--grid", grid]) == 0
        rows = [r for r in read_csv(out) if r["stream"] == "1"]
        ages = [float(r["avg_age"]) for r in rows]
        assert ages == sorted(ages, reverse=True)
        assert all(b < a for a, b in zip(ages, ages[1:]))

    def test_rate_sweep_single_stream(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cfg = write_config(
            tmp_path,
            system={
                "total_rate": 1.0,
                "stream_probs": [1.0],
                "service": {"type": "exponential", "rate": 1.0},
            },
            output={"path": str(out)},
        )
        assert main(["sweep", "-c", cfg, "--param", "total_rate", "--grid", "0.5,1,2"]) == 0
        ages = [float(r["avg_age"]) for r in read_csv(out)]
        assert ages == pytest.approx([3.0, 2.0, 1.5], rel=1e-5)

    def test_service_param_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cfg = write_config(tmp_path, system=REF_SYSTEM, output={"path": str(out)})
        assert main(["sweep", "-c", cfg, "--param", "rate", "--grid", "0.5,1.0,2.0"]) == 0
        assert len(read_csv(out)) == 9

    def test_empty_grid(self, tmp_path):
        cfg = write_config(tmp_path, system=REF_SYSTEM)
        assert main(["sweep", "-c", cfg, "--param", "p1", "--grid", ""]) == 2

    def test_unknown_param(self, tmp_path):
        cfg = write_config(tmp_path, system=REF_SYSTEM)
        assert main(["sweep", "-c", cfg, "--param", "shape", "--grid", "1,2"]) == 2

    def test_with_sim_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cfg = write_config(
            tmp_path,
            system=REF_SYSTEM,
            simulation={"max_time": 1e4, "seed": 1, "replications": 1},
            output={"path": str(out)},
        )
        assert main(["sweep", "-c", cfg, "--param", "p1", "--grid", "0.3,0.5", "--with-sim"]) == 0
        rows = read_csv(out)
        assert {r["source"] for r in rows} == {"analytic", "simulated"}


METRIC_COLUMNS = ("avg_age", "peak_age", "mean_T", "mean_Y", "mean_Y2", "delivery_rate")


@pytest.mark.parametrize(
    "argv, columns",
    [
        (["analyze"], ("stream", "lambda_i", "p_i") + METRIC_COLUMNS),
        (
            ["simulate"],
            (
                "stream",
                "lambda_i",
                "p_i",
                "avg_age",
                "avg_age_se",
                "peak_age",
                "peak_age_se",
                "mean_T",
                "mean_T_se",
                "mean_Y",
                "mean_Y_se",
                "mean_Y2",
                "mean_Y2_se",
                "delivery_rate",
                "delivery_rate_se",
                "ref_avg_age",
                "ref_peak_age",
            ),
        ),
        (
            ["sweep", "--param", "p1", "--grid", "0.3,0.5", "--with-sim"],
            ("param", "value", "stream", "source") + METRIC_COLUMNS + ("delta_tot", "delta_peak_tot"),
        ),
    ],
    ids=["analyze", "simulate", "sweep"],
)
def test_column_contract(tmp_path, argv, columns):
    def run(fmt):
        out = tmp_path / f"out.{fmt}"
        cfg = write_config(
            tmp_path,
            name=f"{fmt}.json",
            system=REF_SYSTEM,
            simulation={"max_time": 2e3, "seed": 3, "replications": 2},
            output={"format": fmt, "path": str(out)},
        )
        assert main([argv[0], "-c", cfg, *argv[1:]]) == 0
        return out.read_text()

    assert tuple(run("csv").splitlines()[0].split(",")) == columns
    data = json.loads(run("json"))
    assert tuple(data["columns"]) == columns
    assert all(tuple(row) == columns for row in data["rows"])


class TestAtomicWrites:
    def test_no_partial_file_on_failure(self, tmp_path):
        out = tmp_path / "never.csv"
        cfg = write_config(
            tmp_path,
            system={
                "total_rate": 1.0,
                "stream_probs": [0.5, 0.4],
                "service": {"type": "exponential", "rate": 1.0},
            },
            output={"path": str(out)},
        )
        assert main(["analyze", "-c", cfg]) == 2
        assert not out.exists()

    def test_foreign_temp_file_untouched(self, tmp_path):
        out = tmp_path / "report.csv"
        foreign = tmp_path / "report.csv.tmp"
        foreign.write_text("another run's output")
        cfg = write_config(tmp_path, system=REF_SYSTEM, output={"path": str(out)})
        assert main(["analyze", "-c", cfg]) == 0
        assert out.read_text().startswith("stream,")
        assert foreign.read_text() == "another run's output"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "report.csv", "report.csv.tmp"]

    def test_failed_rename_leaves_nothing(self, tmp_path, monkeypatch):
        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(cli.os, "replace", fail)
        with pytest.raises(OSError, match="rename failed"):
            cli._atomic_write(str(tmp_path / "report.csv"), "a,b\n")
        assert list(tmp_path.iterdir()) == []
