"""Command-line behavior: formats, exit codes, determinism of report files."""

import json

import pytest

import toepcond.cli as cli
from toepcond import BoundsRecord
from toepcond.cli import CSV_HEADER, main, parse_r_grid


class TestParseRGrid:
    def test_default_grid_has_19_points(self):
        values = parse_r_grid("0.05:0.95:0.05")
        assert len(values) == 19
        assert values[0] == pytest.approx(0.05)
        assert values[-1] == pytest.approx(0.95)

    def test_single_point(self):
        assert parse_r_grid("0.5:0.5:0.1") == [0.5]

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
        assert payload["config"]["n_max"] == 3
        assert payload["config"]["r_grid"] == "0.2:0.8:0.3"
        records = payload["records"]
        assert len(records) == 9
        assert all(rec["pass"] is True for rec in records)
        assert set(records[0]) == {"n", "r", "norm_T", "inv_norm", "scaled", "lower", "upper", "pass"}

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

    def test_thread_cap_does_not_change_output(self, tmp_path, capsys, monkeypatch):
        serial, threaded = tmp_path / "serial.csv", tmp_path / "threaded.csv"
        monkeypatch.delenv("TCN_THREADS", raising=False)
        assert main(["verify", "--n-max", "3", "--r-grid", "0.2:0.8:0.2", "--output", str(serial)]) == 0
        monkeypatch.setenv("TCN_THREADS", "3")
        assert main(["verify", "--n-max", "3", "--r-grid", "0.2:0.8:0.2", "--output", str(threaded)]) == 0
        capsys.readouterr()
        assert serial.read_bytes() == threaded.read_bytes()

    def test_bad_thread_cap_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("TCN_THREADS", "zero")
        assert main(["verify", "--n-max", "1", "--r-grid", "0.5:0.5:0.1"]) == 2
        monkeypatch.setenv("TCN_THREADS", "0")
        assert main(["verify", "--n-max", "1", "--r-grid", "0.5:0.5:0.1"]) == 2
        capsys.readouterr()


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
        assert "inf over n at r=0.5" in captured.err
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 3

    def test_missing_arguments_are_usage_errors(self, capsys):
        assert main(["search"]) == 2
        assert main(["search", "--n-list", "1,2"]) == 2
        capsys.readouterr()


class TestParser:
    def test_unknown_command(self, capsys):
        assert main(["bogus"]) == 2
        assert main([]) == 2
        capsys.readouterr()
