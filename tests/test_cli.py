"""Command-line behavior: formats, exit codes, determinism of report files."""

import argparse
import errno
import json
import os
import random
import stat
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import toepcond.cli as cli
from toepcond import BoundsRecord, grid_sweep, theorem_check, verify_extremality
from toepcond.bounds import bracket_record
from toepcond.cli import CSV_HEADER, MAX_GRID_POINTS, main, parse_r_grid

SRC = Path(cli.__file__).resolve().parents[1]


def _json_record(rec: BoundsRecord) -> dict:
    return {key: getattr(rec, "passed" if key == "pass" else key) for key in CSV_HEADER.split(",")}


def _json_bytes(payload: dict) -> str:
    # sorted keys, two-space indent: with exact value types (2.0 vs 2,
    # True) this rendering fixes every byte of a JSON report
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# n = 1 and dyadic r, so that every float is exact on any LAPACK build
_RECORD_R25 = {"n": 1, "r": 0.25, "norm_T": 0.25, "inv_norm": 4.0, "scaled": 1.0,
               "lower": 0.75, "upper": 1.0, "pass": True}
_RECORD_R5 = {"n": 1, "r": 0.5, "norm_T": 0.5, "inv_norm": 2.0, "scaled": 1.0,
              "lower": 0.5, "upper": 1.0, "pass": True}
_RESULT_R25 = {"n": 1, "r": 0.25, "best_value": 4.0, "scaled_value": 1.0, "kronecker_gap": 0.0,
               "restarts_used": 32, "seed": 42, "best_coeffs": [[0.25, 0.0]]}
_RESULT_R5 = {"n": 1, "r": 0.5, "best_value": 2.0, "scaled_value": 1.0, "kronecker_gap": 0.0,
              "restarts_used": 32, "seed": 42, "best_coeffs": [[0.5, 0.0]]}
_SEARCH_ECHO = {"command": "search", "seed": 42, "restarts": 32, "iters": 2000}
_EXTREMAL_CSV = CSV_HEADER + "\n1,0.5,0.5,2,1,0.5,1,true\n"
_SCAN_CSV = (
    "n,r,best_value,scaled_value,kronecker_gap,restarts_used,seed,best_coeffs\n"
    "1,0.25,4,1,0,32,42,0.25+0j\n"
    "1,0.5,2,1,0,32,42,0.5+0j\n"
)
REPORT_GOLDENS = [
    (["verify", "--n-max", "1", "--r-grid", "0.25:0.5:0.25", "--format", "json"],
     _json_bytes({"config": {"command": "verify", "n_max": 1, "r_grid": "0.25:0.5:0.25"},
                  "records": [_RECORD_R25, _RECORD_R5]})),
    (["extremal", "--n", "1", "--r", "0.5"], _EXTREMAL_CSV),
    (["extremal", "--n", "1", "--r", "0.5", "--format", "json"],
     _json_bytes({"config": {"command": "extremal", "n": 1, "r": 0.5, "model": False},
                  "record": _RECORD_R5})),
    (["extremal", "--model", "--n", "1", "--r", "0.5"], _EXTREMAL_CSV),
    (["extremal", "--model", "--n", "1", "--r", "0.5", "--format", "json"],
     _json_bytes({"config": {"command": "extremal", "n": 1, "r": 0.5, "model": True},
                  "record": _RECORD_R5})),
    (["search", "--n", "1", "--r", "0.5", "--format", "json"],
     _json_bytes({"config": {**_SEARCH_ECHO, "n": 1, "r": 0.5}, "result": _RESULT_R5})),
    (["search", "--n-list", "1", "--r-list", "0.25,0.5"], _SCAN_CSV),
    (["search", "--n-list", "1", "--r-list", "0.25,0.5", "--format", "json"],
     _json_bytes({"config": {**_SEARCH_ECHO, "n_list": [1], "r_list": [0.25, 0.5]},
                  "results": [_RESULT_R25, _RESULT_R5]})),
]


@pytest.mark.parametrize("argv, expected", REPORT_GOLDENS, ids=[" ".join(argv) for argv, _ in REPORT_GOLDENS])
def test_report_bytes_are_frozen(argv, expected, tmp_path, capsys):
    out = tmp_path / "report"
    assert main(argv + ["--output", str(out)]) == 0
    capsys.readouterr()
    assert out.read_text() == expected


class TestParseRGrid:
    def test_default_grid_has_19_points(self):
        values = parse_r_grid("0.05:0.95:0.05")
        assert len(values) == 19
        assert values[0] == pytest.approx(0.05)
        assert values[-1] == pytest.approx(0.95)

    def test_default_grid_values_are_start_plus_k_step(self):
        # perfbench keys its verify rows by these exact floats
        assert parse_r_grid("0.05:0.95:0.05") == [0.05 + k * 0.05 for k in range(19)]

    def test_single_point(self):
        assert parse_r_grid("0.5:0.5:0.1") == [0.5]

    def test_point_count_is_capped(self):
        step = 0.5 / (MAX_GRID_POINTS - 1)
        assert len(parse_r_grid(f"0.25:0.75:{step!r}")) == MAX_GRID_POINTS
        with pytest.raises(ValueError, match="more than 1000 points"):
            parse_r_grid(f"0.25:0.75:{step / 2!r}")

    def test_huge_grid_is_refused_at_once(self, capsys):
        # 1e9 points: refused before any point is checked
        start = time.perf_counter()
        assert main(["verify", "--n-max", "2", "--r-grid", "0.1:0.2:0.0000000001"]) == 2
        assert time.perf_counter() - start < 1.0
        assert "more than 1000 points" in capsys.readouterr().err

    @pytest.mark.parametrize("step", ["nan", "inf"])
    def test_non_finite_step_is_usage_error(self, step, capsys):
        # start + 0*step would be NaN: an empty grid that passes vacuously
        assert main(["verify", "--n-max", "2", "--r-grid", f"0.1:0.5:{step}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: grid step must be finite and positive\n"

    def test_slack_at_the_stop_does_not_reach_one(self):
        # start + 1 * step lies within the 1e-12 slack of stop, but at 1 + 5e-13
        assert parse_r_grid("0.9999999999995:0.9999999999995:1e-12") == [0.9999999999995]

    def test_rejects_malformed_specs(self):
        for bad in ("0:1:0.1", "0.1:0.9", "0.2:0.8:-0.1", "a:b:c", "0.8:0.2:0.1", "0.1:1.0:0.1"):
            with pytest.raises(ValueError):
                parse_r_grid(bad)


class TestBound:
    def test_prints_endpoints(self, capsys):
        assert main(["bound", "--n", "3", "--r", "0.5"]) == 0
        out = capsys.readouterr().out
        assert out == "kronecker=8 lower=0.875 upper=1\n"

    def test_r_equal_one_allowed(self, capsys):
        assert main(["bound", "--n", "2", "--r", "1.0"]) == 0
        assert capsys.readouterr().out == "kronecker=1 lower=1 upper=1\n"

    def test_r_zero_is_usage_error(self, capsys):
        assert main(["bound", "--n", "2", "--r", "0.0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bound_beyond_float64_is_inf(self, capsys):
        assert main(["bound", "--n", "64", "--r", "0.000001"]) == 0
        assert capsys.readouterr().out == "kronecker=inf lower=1 upper=1\n"


class TestVerify:
    def test_small_sweep_to_stdout(self, capsys):
        code = main(["verify", "--n-max", "3", "--r-grid", "0.2:0.8:0.3"])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 9
        assert all(line.endswith(",true") for line in lines[1:])
        assert "0 failures" in captured.err

    def test_output_file_is_reproducible(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["verify", "--n-max", "2", "--r-grid", "0.3:0.7:0.2", "--output", str(a)]) == 0
        assert main(["verify", "--n-max", "2", "--r-grid", "0.3:0.7:0.2", "--output", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().startswith(CSV_HEADER + "\n")
        assert not list(tmp_path.glob(".toepcond-*"))

    def test_json_format_and_field_names(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["verify", "--n-max", "3", "--r-grid", "0.2:0.8:0.3",
                     "--format", "json", "--output", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["config"] == {"command": "verify", "n_max": 3, "r_grid": "0.2:0.8:0.3"}
        records = payload["records"]
        assert len(records) == 9
        assert all(rec["pass"] is True for rec in records)
        assert set(records[0]) == {"n", "r", "norm_T", "inv_norm", "scaled", "lower", "upper", "pass"}

    def test_failed_points_are_null_in_strict_json(self, capsys):
        # n = 2, 3 overflow at r = 1e-300; RFC 8259 has no NaN token
        assert main(["verify", "--n-max", "3", "--r-grid", "1e-300:1e-300:0.1", "--format", "json"]) == 1

        def refuse(token):
            raise AssertionError(f"non-JSON constant {token}")

        records = json.loads(capsys.readouterr().out, parse_constant=refuse)["records"]
        assert [rec["pass"] for rec in records] == [True, False, False]
        for rec in records[1:]:
            assert rec["norm_T"] is None and rec["inv_norm"] is None and rec["scaled"] is None
            assert rec["lower"] == rec["upper"] == 1.0

    def test_malformed_grid_is_usage_error(self, capsys):
        assert main(["verify", "--r-grid", "0:1:0.1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_failures_exit_one(self, capsys, monkeypatch):
        nan = float("nan")
        rec = BoundsRecord(n=1, r=0.5, norm_T=nan, inv_norm=nan, scaled=nan,
                           lower=0.5, upper=1.0, passed=False)
        monkeypatch.setattr(cli, "grid_sweep", lambda *a, **k: [rec])
        assert main(["verify", "--n-max", "1", "--r-grid", "0.5:0.5:0.1"]) == 1
        captured = capsys.readouterr()
        assert "FAIL n=1" in captured.err
        assert "1 failures" in captured.err

    def test_failure_line_names_its_cause(self, tmp_path, capsys, monkeypatch):
        nan = float("nan")
        rec = BoundsRecord(n=1, r=0.5, norm_T=nan, inv_norm=nan, scaled=nan,
                           lower=0.5, upper=1.0, passed=False,
                           error="ToepcondError: synthetic failure")
        monkeypatch.setattr(cli, "grid_sweep", lambda *a, **k: [rec])
        out = tmp_path / "fail.csv"
        assert main(["verify", "--n-max", "1", "--r-grid", "0.5:0.5:0.1", "--output", str(out)]) == 1
        fail_lines = [line for line in capsys.readouterr().err.splitlines() if line.startswith("FAIL")]
        assert len(fail_lines) == 1
        assert fail_lines[0].endswith("error=ToepcondError: synthetic failure")
        # the cause goes to stderr only; the report keeps its columns
        assert out.read_text() == CSV_HEADER + "\n1,0.5,nan,nan,nan,0.5,1,false\n"

    def test_summary_reports_the_worst_deviation(self, capsys):
        assert main(["verify", "--n-max", "3", "--r-grid", "0.2:0.8:0.3"]) == 0
        summary = capsys.readouterr().err.splitlines()[0]
        worst = max(grid_sweep(3, parse_r_grid("0.2:0.8:0.3")), key=lambda rec: abs(rec.scaled - 1.0))
        assert summary == (
            f"verify: 9 points, 0 failures; worst |scaled - 1| = "
            f"{abs(worst.scaled - 1.0):.3g} at n={worst.n} r={cli._fmt(worst.r)}"
        )
        assert abs(worst.scaled - 1.0) <= 1e-14

    def test_summary_radius_keeps_every_digit(self, capsys):
        # "%g" would round this radius to r=1, outside (0, 1); the summary
        # prints it as the FAIL lines do
        assert main(["verify", "--n-max", "3", "--r-grid", "0.999999999999:0.999999999999:0.1"]) == 0
        summary = capsys.readouterr().err.splitlines()[0]
        assert summary.endswith(" at n=1 r=0.99999999999900002")

    def test_grid_next_to_one_checks_only_its_own_point(self, capsys):
        assert main(["verify", "--n-max", "1", "--r-grid", "0.9999999999995:0.9999999999995:1e-12"]) == 0
        captured = capsys.readouterr()
        (row,) = captured.out.splitlines()[1:]
        assert row.startswith("1,0.99999999999949996,") and row.endswith(",true")
        assert captured.err.startswith("verify: 1 points, 0 failures")

    def test_overflowed_points_fail_with_their_cause(self, capsys):
        # the grid is the single point r = 1e-6, whose reciprocal series
        # leaves the float64 range at n = 52: n = 52..64 fail, the rest pass
        assert main(["verify", "--n-max", "64", "--r-grid", "0.000001:0.000001:0.000003"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("verify: 64 points, 13 failures; worst |scaled - 1| = ")
        fail_lines = [line for line in err.splitlines() if line.startswith("FAIL")]
        assert [line.split()[1] for line in fail_lines] == [f"n={n}" for n in range(52, 65)]
        assert all(line.endswith("error=SingularMatrixError: exact inverse has entries beyond the float64 range, "
                                 "first at (51, 0)") for line in fail_lines)


class TestUnwritableOutput:
    def test_missing_directory_is_usage_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.csv"
        assert main(["extremal", "--n", "2", "--r", "0.5", "--output", str(target)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot write --output {target}: {os.strerror(errno.ENOENT)}\n"
        assert list(tmp_path.iterdir()) == []

    def test_directory_target_is_usage_error(self, tmp_path, capsys):
        assert main(["verify", "--n-max", "2", "--output", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot write --output {tmp_path}: {os.strerror(errno.EISDIR)}\n"
        # the temp file written next to the target is removed again
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["extremal", "--n", "2", "--r", "0.5"],
        ["extremal", "--n", "2", "--r", "0.5", "--model", "--format", "json"],
        ["search", "--n", "2", "--r", "0.5"],
        ["search", "--n-list", "1,2", "--r-list", "0.5", "--format", "json"],
    ], ids=["extremal", "extremal-model", "search", "search-scan"])
    @pytest.mark.parametrize("target, code", [
        ("missing/x.csv", errno.ENOENT), (".", errno.EISDIR), ("new/", errno.ENOTDIR), ("", errno.ENOENT),
    ], ids=["missing", "directory", "trailing-slash", "empty"])
    def test_refused_before_anything_is_printed(self, argv, target, code, tmp_path, capsys, monkeypatch):
        # each with the error the write after the work would meet
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--output", target]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write --output {target}: {os.strerror(code)}\n"
        assert list(tmp_path.iterdir()) == []

    def test_refused_before_the_sweep(self, tmp_path, capsys, monkeypatch):
        # the n_max = 64 sweep takes most of a second; the refusal does not run it
        sweeps = []
        monkeypatch.setattr(cli, "grid_sweep", lambda *a: sweeps.append(a) or grid_sweep(*a))
        start = time.perf_counter()
        assert main(["verify", "--n-max", "64", "--output", str(tmp_path / "missing" / "x.csv")]) == 2
        assert time.perf_counter() - start < 0.2
        assert sweeps == []
        assert capsys.readouterr().err.startswith("error: cannot write --output ")


class TestOutputTargets:
    ARGV = ["extremal", "--n", "1", "--r", "0.5", "--output"]

    def test_fifo_is_written_in_place(self, tmp_path, capsys):
        # a rename would put a regular file where the reader waits
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        read = []
        reader = threading.Thread(target=lambda: read.append(fifo.read_text()), daemon=True)
        reader.start()
        assert main(self.ARGV + [str(fifo)]) == 0
        reader.join(timeout=10)
        capsys.readouterr()
        assert not reader.is_alive()
        assert read == [_EXTREMAL_CSV]
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)

    @pytest.mark.parametrize("exists", [True, False], ids=["existing", "dangling"])
    def test_symlink_target_is_written(self, exists, tmp_path, capsys):
        target, link = tmp_path / "report.csv", tmp_path / "link"
        if exists:
            target.write_text("old\n")
        link.symlink_to(target)
        assert main(self.ARGV + [str(link)]) == 0
        capsys.readouterr()
        assert link.is_symlink()
        assert target.read_text() == _EXTREMAL_CSV
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "report.csv"]

    def test_new_file_gets_the_mode_open_gives(self, tmp_path, capsys):
        umask = os.umask(0o027)
        try:
            assert main(self.ARGV + [str(tmp_path / "new.csv")]) == 0
        finally:
            os.umask(umask)
        capsys.readouterr()
        assert stat.S_IMODE(os.stat(tmp_path / "new.csv").st_mode) == 0o640

    def test_existing_file_keeps_its_mode(self, tmp_path, capsys):
        out = tmp_path / "old.csv"
        out.write_text("old\n")
        out.chmod(0o604)
        assert main(self.ARGV + [str(out)]) == 0
        capsys.readouterr()
        assert out.read_text() == _EXTREMAL_CSV
        assert stat.S_IMODE(os.stat(out).st_mode) == 0o604


class TestExtremal:
    def test_triangular_report(self, capsys):
        assert main(["extremal", "--n", "2", "--r", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "triangular Toeplitz T_r" in out
        assert "first column: (0.5, -0.75)" in out
        assert "inverse norm = " in out
        assert "scaled inverse norm" in out

    def test_model_report(self, capsys):
        assert main(["extremal", "--n", "2", "--r", "0.5", "--model"]) == 0
        out = capsys.readouterr().out
        assert "model operator" in out
        assert "defect rank = 1" in out
        assert "relative gap" in out

    def test_model_report_near_circle(self, capsys):
        # closer to |z| = 1 than any circle quadrature of 2^20 samples reaches
        assert main(["extremal", "--n", "2", "--r", "0.9999999", "--model"]) == 0
        out = capsys.readouterr().out
        norm = float(out.split("norm = ", 1)[1].split("\n", 1)[0])
        assert abs(norm - 1.0) <= 1e-12
        assert "defect rank = 1" in out

    @pytest.mark.parametrize("argv", [["--r", "0.001"], ["--model", "--r", "0.0001"]], ids=["triangular", "model"])
    def test_inverse_norm_past_the_square_root_of_float64(self, argv, capsys):
        # ||A^{-1}|| = 1e192 and 1e256 at n = 64: their squares leave float64
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["extremal", "--n", "64", *argv]) == 0
        out = capsys.readouterr().out
        scaled = float(out.split("r^n * inv = ", 1)[1].split(",", 1)[0])
        assert abs(scaled - 1.0) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 8])
    @pytest.mark.parametrize("r", ["0.999999999", "0.999999999999"])
    def test_model_defect_rank_closer_to_circle(self, n, r, capsys):
        # the defect singular value 1 - r^(2n) is below 1e-8 here
        assert main(["extremal", "--n", str(n), "--r", r, "--model"]) == 0
        assert "defect rank = 1\n" in capsys.readouterr().out

    def test_model_json_config(self, tmp_path, capsys):
        out = tmp_path / "point.json"
        assert main(["extremal", "--n", "3", "--r", "0.5", "--model",
                     "--format", "json", "--output", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["config"] == {"command": "extremal", "n": 3, "r": 0.5, "model": True}
        assert payload["record"]["pass"] is True

    def test_record_file(self, tmp_path, capsys):
        out = tmp_path / "point.csv"
        assert main(["extremal", "--n", "2", "--r", "0.5", "--output", str(out)]) == 0
        capsys.readouterr()
        lines = out.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert lines[1].startswith("2,0.5,")
        assert lines[1].endswith(",true")

    def test_missing_argument_is_usage_error(self, capsys):
        assert main(["extremal", "--n", "2"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("extra", [[], ["--model"]], ids=["triangular", "model"])
    @pytest.mark.parametrize("n", ["0", "65"])
    def test_n_outside_1_to_64_is_usage_error(self, n, extra, capsys):
        assert main(["extremal", "--n", n, "--r", "0.5", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n must lie in 1..64\n"

    @pytest.mark.parametrize("extra", [[], ["--model"]], ids=["triangular", "model"])
    @pytest.mark.parametrize("r", ["1", "1.5", "nan", "inf", "-inf"])
    def test_r_outside_the_open_interval_is_usage_error(self, r, extra, capsys):
        # the bound takes r = 1, T_r and the model operator do not, so the
        # message names their domain, not the bound's (0, 1]; an infinite r
        # is refused before it reaches the zeros r * (roots of unity)
        assert main(["extremal", "--n", "3", f"--r={r}", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: r must lie strictly between 0 and 1\n"

    def test_record_is_the_theorem_check_record(self, tmp_path, capsys):
        out = tmp_path / "point.json"
        assert main(["extremal", "--n", "5", "--r", "0.3", "--format", "json", "--output", str(out)]) == 0
        capsys.readouterr()
        assert json.loads(out.read_text())["record"] == _json_record(theorem_check(5, 0.3))

    def test_model_record_is_the_bracket_record_of_its_norms(self, tmp_path, capsys):
        out = tmp_path / "point.json"
        assert main(["extremal", "--model", "--n", "3", "--r", "0.5", "--format", "json",
                     "--output", str(out)]) == 0
        capsys.readouterr()
        report = verify_extremality(0.5, tuple(0.5 * np.exp(2j * np.pi * k / 3) for k in range(3)))
        expected = bracket_record(3, 0.5, report.norm, report.inv_norm)
        assert json.loads(out.read_text())["record"] == _json_record(expected)

    def test_reciprocal_overflow_is_a_computation_failure(self, capsys):
        assert main(["extremal", "--n", "60", "--r", "0.000001"]) == 1
        err = capsys.readouterr().err
        assert err == "error: exact inverse has entries beyond the float64 range, first at (51, 0)\n"

    def test_denormal_r_is_a_typed_error(self, capsys):
        assert main(["extremal", "--n", "2", "--r", "5e-324"]) == 1
        err = capsys.readouterr().err
        assert err == "error: exact inverse has entries beyond the float64 range, first at (0, 0)\n"

    def test_json_format_writes_a_report_without_output(self, capsys):
        assert main(["extremal", "--n", "1", "--r", "0.5", "--format", "json"]) == 0
        assert capsys.readouterr().out.endswith(
            _json_bytes({"config": {"command": "extremal", "n": 1, "r": 0.5, "model": False},
                         "record": _RECORD_R5}))

    @pytest.mark.parametrize("n, r", [(40, "0.05"), (64, "0.05"), (16, "0.000001")])
    def test_model_beyond_the_solve_range(self, n, r, capsys):
        # 1/r^n > 1e14: the closed-form inverse gives the inverse norm alone
        assert main(["extremal", "--model", "--n", str(n), "--r", r]) == 0
        out = capsys.readouterr().out
        assert "defect rank = 1\n" in out
        assert float(out.split("relative gap ", 1)[1].split(")", 1)[0]) <= 1e-12

    @pytest.mark.parametrize("n, r, first", [(64, "0.000001", "(51, 0)"), (2, "5e-324", "(0, 0)")])
    def test_model_inverse_overflow_is_a_typed_error(self, n, r, first, capsys):
        assert main(["extremal", "--model", "--n", str(n), "--r", r]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: exact inverse has entries beyond the float64 range, first at {first}\n"


class TestSearch:
    def test_single_point_csv_frozen(self, tmp_path, capsys):
        out = tmp_path / "search.csv"
        args = ["search", "--n", "1", "--r", "0.5", "--seed", "42",
                "--restarts", "4", "--iters", "100", "--output", str(out)]
        assert main(args) == 0
        text = out.read_text()
        assert text == (
            "n,r,best_value,scaled_value,kronecker_gap,restarts_used,seed,best_coeffs\n"
            "1,0.5,2,1,0,4,42,0.5+0j\n"
        )
        stdout = capsys.readouterr().out
        assert "estimate=2" in stdout
        assert complex(text.strip().split("\n")[1].split(",")[-1]) == 0.5 + 0j

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["search", "--n", "2", "--r", "0.6", "--restarts", "3", "--iters", "60"]
        assert main(base + ["--output", str(a)]) == 0
        assert main(base + ["--output", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_json_result(self, tmp_path, capsys):
        out = tmp_path / "search.json"
        assert main(["search", "--n", "1", "--r", "0.5", "--restarts", "2",
                     "--iters", "40", "--format", "json", "--output", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["config"]["seed"] == 42
        result = payload["result"]
        assert result["best_value"] == pytest.approx(2.0, abs=1e-9)
        assert result["best_coeffs"] == [[0.5, 0.0]]

    def test_scan_mode(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        assert main(["search", "--n-list", "1,2", "--r-list", "0.5",
                     "--restarts", "2", "--iters", "40", "--output", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out.count("n=") == 2
        assert captured.err == ""
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 3

    def test_scan_json_keys(self, tmp_path, capsys):
        out = tmp_path / "scan.json"
        assert main(["search", "--n-list", "1,2", "--r-list", "0.3,0.5",
                     "--format", "json", "--output", str(out)]) == 0
        assert capsys.readouterr().err == ""
        payload = json.loads(out.read_text())
        assert set(payload) == {"config", "results"}
        assert [(res["n"], res["r"]) for res in payload["results"]] == [(1, 0.3), (1, 0.5), (2, 0.3), (2, 0.5)]

    def test_scan_records_a_failing_pair_and_goes_on(self, tmp_path, capsys):
        # (2, 1e-200) leaves float64 at series coefficient 1; the other pairs
        # are rows of the report, and the failure is named on stderr
        out = tmp_path / "scan.csv"
        assert main(["search", "--n-list", "1,2", "--r-list", "0.5,1e-200", "--output", str(out)]) == 1
        captured = capsys.readouterr()
        tiny = "9.9999999999999998e-201"
        assert [line.split(" estimate=")[0] for line in captured.out.splitlines()] == [
            "n=1 r=0.5", f"n=1 r={tiny}", "n=2 r=0.5"]
        assert captured.err == (f"FAIL n=2 r={tiny} error=SingularMatrixError: "
                                "exact inverse has entries beyond the float64 range, first at (1, 0)\n")
        rows = [row.split(",")[:2] for row in out.read_text().splitlines()[1:]]
        assert rows == [["1", "0.5"], ["1", tiny], ["2", "0.5"]]

    def test_scan_json_leaves_failed_pairs_out(self, capsys):
        assert main(["search", "--n-list", "2,3", "--r-list", "1e-200", "--format", "json"]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["results"] == []
        assert [line.split(" error=")[0] for line in captured.err.splitlines()] == [
            "FAIL n=2 r=9.9999999999999998e-201", "FAIL n=3 r=9.9999999999999998e-201"]

    @pytest.mark.parametrize(
        "n_list, r_list, message",
        [("1,17", "0.5", "n must lie in 1..16"), ("1,2", "0.5,1.5", "r must lie strictly between 0 and 1"),
         ("0,1", "0.5", "n must lie in 1..16"), ("1", "0.5,nan", "r must lie strictly between 0 and 1")],
    )
    def test_scan_checks_every_pair_before_any_work(self, n_list, r_list, message, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "estimate_t_a", lambda *args: calls.append(args))
        assert main(["search", "--n-list", n_list, "--r-list", r_list]) == 2
        captured = capsys.readouterr()
        assert calls == []
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_benchmark_search_call(self, tmp_path, capsys):
        # the exact argv of perfbench's search_n3 workload, which its checker
        # reads result.seed from: these flags stay until the workload drops them
        out = tmp_path / "search.json"
        assert main(["search", "--n", "3", "--r", "0.5", "--seed", "7", "--restarts", "8",
                     "--iters", "250", "--format", "json", "--output", str(out)]) == 0
        capsys.readouterr()
        result = json.loads(out.read_text())["result"]
        assert result["seed"] == 7
        assert result["best_value"] == 8.0

    def test_missing_arguments_are_usage_errors(self, capsys):
        assert main(["search"]) == 2
        assert main(["search", "--n-list", "1,2"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("point", [["--n", "3", "--r", "0.5"], ["--n", "3"], ["--r", "0.5"]],
                             ids=["both", "n", "r"])
    def test_single_point_and_scan_options_do_not_mix(self, point, capsys):
        # a scan would ignore --n/--r
        assert main(["search", *point, "--n-list", "1", "--r-list", "0.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --n/--r and --n-list/--r-list cannot be combined\n"

    @pytest.mark.parametrize("lists, message", [
        (["--n-list", "a", "--r-list", "0.5"], "--n-list must be comma-separated integers, got 'a'"),
        (["--n-list", "1,,2", "--r-list", "0.5,"], "--n-list must be comma-separated integers, got '1,,2'"),
        (["--n-list", "1", "--r-list", "0.5,"], "--r-list must be comma-separated numbers, got '0.5,'"),
    ], ids=["letter", "empty-items", "trailing-comma"])
    def test_malformed_lists_are_usage_errors(self, lists, message, capsys):
        assert main(["search", *lists]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_tiny_r_meets_the_overflow_limit_only(self, capsys):
        # no threshold on r itself: n = 1 is exact at r = 1e-200, and n = 2
        # stops where the reciprocal series leaves float64
        assert main(["search", "--n", "1", "--r", "1e-200"]) == 0
        assert " scaled=1 gap=0 " in capsys.readouterr().out
        assert main(["search", "--n", "2", "--r", "1e-200"]) == 1
        assert capsys.readouterr().err == "error: exact inverse has entries beyond the float64 range, first at (1, 0)\n"


# three pairs in which the second call leaves to its default an option the
# first call sets, then a usage error followed by a valid call, then two
# arguments that the top level reports as unrecognized after one subcommand
# parsed the rest
PARSER_REUSE_SEQUENCE = [
    ["search", "--n", "1", "--r", "0.5", "--seed", "7", "--format", "json"],
    ["search", "--n", "1", "--r", "0.5", "--format", "json"],
    ["extremal", "--model", "--n", "2", "--r", "0.5", "--format", "json"],
    ["extremal", "--n", "2", "--r", "0.5", "--format", "json"],
    ["verify", "--n-max", "3"],
    ["verify"],
    ["extremal", "--n", "2"],
    ["bound", "--n", "3", "--r", "0.5"],
    ["bound", "--n", "3", "--r", "0.5", "--format", "csv"],
    ["search", "--bogus"],
]
_USAGE = "usage: toepcond [-h] {verify,extremal,search,bound} ...\n"


def _json_tail(out: str) -> dict:
    return json.loads(out[out.index("\n{") + 1 :])


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    """The subcommand parsers registered on a top-level parser, by name."""
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()
        for command in cli.COMMANDS:
            assert cli._build_parser(command) is cli._build_parser(command) is not cli._build_parser()

    def test_a_subcommand_parser_registers_that_subcommand_alone(self):
        assert list(_subcommands(cli._build_parser())) == list(cli.COMMANDS)
        assert list(_subcommands(cli._build_parser("bogus"))) == list(cli.COMMANDS)
        for command in cli.COMMANDS:
            assert list(_subcommands(cli._build_parser(command))) == [command]

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_help_and_usage_match_the_full_parser(self, command, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        full, alone = cli._build_parser(), cli._build_parser(command)
        assert alone.format_usage() == full.format_usage() == _USAGE
        assert _subcommands(alone)[command].format_help() == _subcommands(full)[command].format_help()
        assert _subcommands(alone)[command].prog == f"toepcond {command}"

    def test_cache_holds_one_parser_per_first_argument_kind(self, capsys):
        # no arguments, -h, an unknown word and an option first all share the
        # full parser, so five parsers at most are ever built
        cli._build_parser.cache_clear()
        for argv in [[], ["-h"], ["bogus"], ["--format", "json", "verify"],
                     *([command, "-h"] for command in cli.COMMANDS)]:
            main(argv)
        capsys.readouterr()
        assert cli._build_parser.cache_info().currsize == 5

    def test_each_call_gives_its_first_call_output(self, capsys):
        def run(argv):
            code = main(argv)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        in_sequence = [run(argv) for argv in PARSER_REUSE_SEQUENCE]
        first_calls = []
        for argv in PARSER_REUSE_SEQUENCE:
            cli._build_parser.cache_clear()
            first_calls.append(run(argv))
        assert in_sequence == first_calls
        seeds = [_json_tail(out)["config"]["seed"] for _, out, _ in in_sequence[0:2]]
        assert seeds == [7, 42]
        models = [_json_tail(out)["config"]["model"] for _, out, _ in in_sequence[2:4]]
        assert models == [True, False]
        assert [err.split(",")[0] for _, _, err in in_sequence[4:6]] == [
            "verify: 57 points", "verify: 228 points"]
        assert [code for code, _, _ in in_sequence[6:]] == [2, 0, 2, 2]
        assert in_sequence[7][1] == "kronecker=8 lower=0.875 upper=1\n"
        assert [err for _, _, err in in_sequence[8:]] == [
            _USAGE + "toepcond: error: unrecognized arguments: --format csv\n",
            _USAGE + "toepcond: error: unrecognized arguments: --bogus\n"]


class TestParser:
    def test_unknown_command(self, capsys):
        assert main(["bogus"]) == 2
        assert main([]) == 2
        capsys.readouterr()

    def test_option_prefixes_are_not_expanded(self, capsys):
        # "--m" once named the quadrature sample count; it must not turn
        # into --model by prefix matching
        assert main(["extremal", "--n", "2", "--r", "0.5", "--m"]) == 2
        assert "--m" in capsys.readouterr().err
        assert main(["verify", "--n-m", "3"]) == 2
        assert "--n-m" in capsys.readouterr().err


# what perfbench/run.py passes to main() on each workload, with its temp
# dir as "out": verify_n64, search_n3 at seed 42, and every model_sweep point
BENCHMARK_CALLS = [
    ["verify", "--n-max", "64", "--output", "out/verify.csv"],
    ["search", "--n", "3", "--r", "0.5", "--seed", "42", "--restarts", "8", "--iters", "250",
     "--format", "json", "--output", "out/search.json"],
    *(["extremal", "--model", "--n", str(n), "--r", repr(r)]
      for n in (2, 8, 32) for r in (0.5, 0.9, 0.99, 0.999, 0.9999)),
]
# every option word, then words argparse alone reads, then values of every kind
_OPTION_WORDS = sorted({flag for _, options in cli._OPTIONS.values() for flag in options})
_OTHER_WORDS = ["-h", "--", "--n=3", "--bogus"]
_VALUES = ["3", "0", "64", "0.5", "1e-300", "-3", "-0.5", "", "nan", "inf", "+4", " 7", "3_0", "xml",
           "csv", "json", "1,2", "0.25,0.5", "0.25:0.5:0.25", "out.csv", "verify"]


def _random_argvs(count: int) -> list:
    """Seeded argv: a subcommand or not, most often its required options,
    then option words, each followed by a value or not, with now and then
    another subcommand's option or a word argparse alone reads."""
    rng = random.Random(2024)
    argvs = []
    for _ in range(count):
        command = rng.choice([*cli.COMMANDS, "bogus"])
        options = cli._OPTIONS.get(command, ("", {}))[1]
        words = [flag for flag, spec in options.items() if spec.get("required") and rng.random() < 0.9]
        words += [rng.choice(list(options) or _OPTION_WORDS if rng.random() < 0.8 else _OPTION_WORDS + _OTHER_WORDS)
                  for _ in range(rng.randrange(5))]
        rng.shuffle(words)
        argv = [command]
        for word in words:
            argv.append(word)
            if word != "--model" and rng.random() < 0.95:
                argv.append(rng.choice(_VALUES[:5] if rng.random() < 0.6 else _VALUES))
        argvs.append(argv)
    return argvs


def _reprs(namespace) -> dict:
    # repr tells 3 from 3.0 and True from 1, and is equal for two NaNs
    return {key: repr(value) for key, value in vars(namespace).items()}


class TestPlainArgs:
    """A well-formed call is read from the option table, without argparse,
    into the namespace argparse gives it; argparse reads everything else."""

    def test_agrees_with_argparse_wherever_it_accepts(self):
        accepted = 0
        for argv in _random_argvs(20000):
            plain = cli._plain_args(argv)
            if plain is not None:
                accepted += 1
                assert _reprs(plain) == _reprs(cli._build_parser(argv[0]).parse_args(argv)), argv
        assert accepted > 1000

    @pytest.mark.parametrize("argv", BENCHMARK_CALLS, ids=[" ".join(argv) for argv in BENCHMARK_CALLS])
    def test_accepts_the_benchmark_calls(self, argv):
        assert cli._plain_args(argv) is not None

    @pytest.mark.parametrize("argv", [
        [], ["bogus"], ["-h"], ["verify", "-h"], ["verify", "--n-max=3"], ["verify", "--", "--n-max", "3"],
        ["search", "--n", "-3", "--r", "0.5"], ["search", "--n", "3", "--r", "-0.5"],
        ["search", "--seed", "7", "--seed", "8"], ["extremal", "--model", "--model", "--n", "2", "--r", "0.5"],
        ["extremal", "--n", "2"], ["bound", "--n", "3", "--r"], ["bound", "--n", "3", "--r", "0.5", "--format", "csv"],
        ["verify", "--format", "xml"], ["verify", "--n-max", "x"], ["verify", "--output", "-"],
    ])
    def test_leaves_everything_else_to_argparse(self, argv):
        assert cli._plain_args(argv) is None

    def test_no_parser_is_built_for_a_well_formed_call(self, capsys):
        cli._build_parser.cache_clear()
        for argv in (["verify", "--n-max", "1", "--r-grid", "0.5:0.5:0.1"], ["extremal", "--n", "1", "--r", "0.5"],
                     ["search", "--n", "1", "--r", "0.5"], ["bound", "--n", "3", "--r", "0.5"]):
            assert main(argv) == 0
        capsys.readouterr()
        assert cli._build_parser.cache_info().currsize == 0

    def test_a_well_formed_call_imports_no_argparse(self, monkeypatch):
        # in a fresh interpreter: the import and the call load neither module,
        # and help, which argparse alone prints, still works after them
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.setenv("PYTHONPATH", str(SRC))
        script = ("import sys, toepcond.cli as cli\n"
                  "code = cli.main(['bound', '--n', '3', '--r', '0.5'])\n"
                  "print(code, 'argparse' in sys.modules, 'gettext' in sys.modules)\n"
                  "cli.main(['bound', '-h'])\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
        lines = proc.stdout.splitlines()
        assert lines[:2] == ["kronecker=8 lower=0.875 upper=1", "0 False False"]
        assert lines[2] == "usage: toepcond bound [-h] --n N --r R"
        assert proc.returncode == 0
        assert proc.stderr == ""

    @pytest.mark.parametrize("argparse_only, plain", [
        (["verify", "--n-max=3"], ["verify", "--n-max", "3"]),
        (["search", "--n", "1", "--r", "0.5", "--seed", "7", "--seed", "8", "--format", "json"],
         ["search", "--n", "1", "--r", "0.5", "--seed", "8", "--format", "json"]),
        (["extremal", "--model", "--model", "--n", "2", "--r", "0.5"], ["extremal", "--model", "--n", "2", "--r", "0.5"]),
    ], ids=["equals-sign", "repeated-seed", "repeated-flag"])
    def test_spellings_only_argparse_reads_give_the_same_output(self, argparse_only, plain, capsys):
        assert cli._plain_args(argparse_only) is None and cli._plain_args(plain) is not None
        outputs = []
        for argv in (argparse_only, plain):
            code = main(argv)
            captured = capsys.readouterr()
            outputs.append((code, captured.out, captured.err))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0
        if "--seed" in plain:
            assert _json_tail(outputs[0][1])["config"]["seed"] == 8


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
class TestUnwritableStdout:
    @pytest.mark.parametrize("argv", [
        ["bound", "--n", "3", "--r", "0.5"],
        ["verify", "--n-max", "2"],
        ["search", "--n", "3", "--r", "0.5", "--format", "json"],
        ["extremal", "--model", "--n", "32", "--r", "0.5"],
    ], ids=["bound", "verify", "search", "extremal"])
    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    def test_one_error_line_and_exit_one(self, argv, unbuffered, monkeypatch):
        # buffered, the failing write is the flush after the command, so
        # verify's summary reaches stderr first; unbuffered, it is the report's
        monkeypatch.setenv("PYTHONPATH", str(SRC))
        monkeypatch.setenv("PYTHONUNBUFFERED", unbuffered)
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "toepcond.cli", *argv], stdout=full,
                                  stderr=subprocess.PIPE, text=True, timeout=60)
        lines = [line for line in proc.stderr.splitlines() if not line.startswith("verify: ")]
        assert lines == [f"error: cannot write to stdout: {os.strerror(errno.ENOSPC)}"]
        assert proc.returncode == 1


@pytest.mark.parametrize("redirect, argv, code, lines", [
    ("2>/dev/full", ["bound", "--n", "3", "--r", "7"], 2, []),
    ("2>/dev/full", ["bound", "--n", "3", "--bogus"], 2, []),
    ("2>/dev/full", ["extremal", "--n", "64", "--r", "1e-300"], 1, []),
    # with fd 1 closed at start, Python sets sys.stdout to None
    *((">&-", argv, 1, [f"error: cannot write to stdout: {os.strerror(errno.EBADF)}"])
      for argv in (["bound", "--n", "3", "--r", "0.5"], ["verify", "--n-max", "2"],
                   ["search", "--n", "3", "--r", "0.5"], ["extremal", "--model", "--n", "2", "--r", "0.5"])),
])
def test_a_stream_that_cannot_be_written_keeps_the_exit_code(redirect, argv, code, lines, monkeypatch):
    if "/dev/full" in redirect and not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    monkeypatch.setenv("PYTHONPATH", str(SRC))
    proc = subprocess.run(["sh", "-c", f'"$0" -m toepcond.cli "$@" {redirect}', sys.executable, *argv],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (code, "")
    assert [line for line in proc.stderr.splitlines() if not line.startswith("verify: ")] == lines
