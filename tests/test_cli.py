"""Sweep CLI: parsing, output formats, schema, determinism, mirror symmetry."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from twomode_dicke import cli
from twomode_dicke.cli import (
    _csv_cell,
    _parse_quantities,
    _parse_range,
    evaluate_point,
    main,
    run_sweep,
    schema,
    sweep_columns,
)
from twomode_dicke.errors import ConfigError


class TestParsing:
    def test_range(self):
        assert _parse_range("0:2:101") == (0.0, 2.0, 101)

    def test_range_errors(self):
        for bad in ("0:2", "a:2:5", "1:0.5:5", "-1:2:5", "0:2:0"):
            with pytest.raises(ConfigError):
                _parse_range(bad)

    def test_quantities(self):
        assert _parse_quantities("all") == ["gaps", "energy", "mi", "eof", "tripartite"]
        assert _parse_quantities("eof,gaps") == ["gaps", "eof"]
        with pytest.raises(ConfigError):
            _parse_quantities("bogus")

    def test_columns_stable(self):
        cols = sweep_columns(["gaps", "energy", "mi", "eof", "tripartite"])
        assert cols[:3] == ["lambda_x", "lambda_y", "goldstone_offset"]
        assert cols[-2:] == ["diverged", "error"]
        assert cols.index("nu_1") < cols.index("e_gs") < cols.index("s_x")
        assert cols.index("eof_x_j") < cols.index("tri_x_yj")


class TestEvaluatePoint:
    GROUPS = ("gaps", "energy", "mi", "eof", "tripartite")

    def test_origin(self):
        row = evaluate_point(1.0, 1.0, 0.0, 0.0, 1e-6, self.GROUPS)
        assert row["error"] is None and not row["diverged"]
        assert row["nu_1"] == row["nu_2"] == row["nu_3"] == 1.0
        assert row["e_gs"] == -1.0
        assert abs(row["mi_xy_j"]) < 1e-12 and row["eof_x_y"] == 0.0

    def test_goldstone_offset_flagged(self):
        row = evaluate_point(1.0, 1.0, 1.5, 1.5, 1e-6, self.GROUPS)
        assert row["goldstone_offset"]
        assert row["error"] is None
        assert not row["diverged"]
        assert row["mi_x_j"] > 0.0

    def test_exactly_critical_is_diverged_not_error(self):
        row = evaluate_point(1.0, 1.0, 1.0, 0.3, 1e-6, self.GROUPS)
        assert row["diverged"]
        assert row["error"] is None
        assert math.isnan(row["mi_x_j"])
        # gaps and energy still finite
        assert row["nu_1"] > 0.0 and row["e_gs"] == -1.0

    def test_bad_params_recorded_as_error(self):
        row = evaluate_point(-1.0, 1.0, 0.5, 0.5, 1e-6, self.GROUPS)
        assert row["error"] is not None


class TestRunSweep:
    def test_small_grid_row_order(self):
        rows = run_sweep(1.0, 1.0, (0.0, 0.5, 2), (0.0, 0.5, 2),
                         ["gaps", "energy", "mi", "eof", "tripartite"], 1e-6, 1)
        assert len(rows) == 4
        assert [(r["lambda_x"], r["lambda_y"]) for r in rows] == [
            (0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)]
        origin = rows[0]
        assert abs(origin["mi_x_y"]) < 1e-12 and origin["eof_x_j"] == 0.0

    def test_parallel_matches_serial(self):
        args = (1.0, 1.0, (0.0, 1.8, 4), (0.3, 1.7, 3),
                ["gaps", "energy", "mi"], 1e-6)
        serial = run_sweep(*args, 1)
        parallel = run_sweep(*args, 2)
        assert len(serial) == len(parallel)
        for a, b in zip(serial, parallel):
            assert a.keys() == b.keys()
            for key in a:
                va, vb = a[key], b[key]
                if isinstance(va, float) and math.isnan(va):
                    assert isinstance(vb, float) and math.isnan(vb)
                else:
                    assert va == vb, key

    def test_mirror_symmetry(self):
        groups = ["gaps", "energy", "mi", "eof", "tripartite"]
        a = run_sweep(1.0, 1.0, (0.2, 1.8, 3), (0.4, 1.6, 3), groups, 1e-6, 1)
        b = run_sweep(1.0, 1.0, (0.4, 1.6, 3), (0.2, 1.8, 3), groups, 1e-6, 1)
        swapped = {
            "s_x": "s_y", "s_y": "s_x", "s_xj": "s_yj", "s_yj": "s_xj",
            "mi_x_j": "mi_y_j", "mi_y_j": "mi_x_j",
            "mi_xj_y": "mi_yj_x", "mi_yj_x": "mi_xj_y",
            "eof_x_j": "eof_y_j", "eof_y_j": "eof_x_j",
        }
        symmetric = ["nu_1", "nu_2", "nu_3", "e_gs", "s_j", "s_xy",
                     "mi_xy_j", "mi_x_y", "eof_x_y", "tri_x_yj"]
        lookup = {(r["lambda_x"], r["lambda_y"]): r for r in b}
        for row in a:
            mirror = lookup[(row["lambda_y"], row["lambda_x"])]
            if row["diverged"] or mirror["diverged"]:
                continue
            for col in symmetric:
                assert abs(row[col] - mirror[col]) < 1e-8, col
            for col, twin in swapped.items():
                assert abs(row[col] - mirror[twin]) < 1e-8, col


class TestOutput:
    def test_csv_cells(self):
        assert _csv_cell(2e6) == "inf"
        assert _csv_cell(-2e6) == "-inf"
        assert _csv_cell(999999.0) == "999999"
        assert _csv_cell(math.nan) == ""
        assert _csv_cell(None) == ""
        assert _csv_cell(True) == "true"
        assert _csv_cell(1.0 / 3.0) == "0.33333333333333331"  # 17 significant digits

    def test_csv_output_and_exit_code(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code = main(["sweep", "--x", "0:0.5:2", "--y", "0:0.5:2",
                     "--threads", "1", "--out", str(out)])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == sweep_columns(["gaps", "energy", "mi", "eof", "tripartite"])
        assert len(rows) == 5

    def test_json_validates_against_schema(self, capsys):
        code = main(["sweep", "--x", "0:1.8:3", "--y", "0:1.8:3",
                     "--threads", "1", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        jsonschema.validate(doc, schema())
        assert len(doc["rows"]) == 9
        assert doc["config"]["command"] == "sweep"

    def test_diverged_row_serialized_as_null(self, capsys):
        code = main(["slice", "--y", "0.3", "--x", "1:1:1",
                     "--threads", "1", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        row = doc["rows"][0]
        assert row["diverged"] is True
        assert row["mi_x_j"] is None
        jsonschema.validate(doc, schema())

    def test_reproducible(self, capsys):
        argv = ["sweep", "--x", "0:1.9:3", "--y", "0:1.9:3", "--threads", "1",
                "--format", "csv"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first


class TestSlice:
    def test_slice_rows(self, capsys):
        code = main(["slice", "--y", "0.5", "--x", "0:2:5",
                     "--threads", "1", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert [r["lambda_y"] for r in doc["rows"]] == [0.5] * 5

    def test_first_order_jump_visible(self, capsys):
        code = main(["slice", "--y", "1.5", "--x", "1.4:1.6:5",
                     "--quantities", "mi", "--threads", "1", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        vals = [r["mi_xj_y"] for r in doc["rows"] if not r["diverged"]
                and not r["goldstone_offset"]]
        assert max(vals) - min(vals) > 0.05


class TestConfigFile:
    def test_config_file_defaults_and_cli_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"x": "0:1:2", "y": "0:1:3", "format": "json"}))
        code = main(["sweep", "--config", str(cfg), "--y", "0:1:2", "--threads", "1"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["rows"]) == 4  # x from config (2), y overridden to 2

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert main(["sweep", "--config", str(cfg)]) == 2

    def test_missing_config_file(self):
        assert main(["sweep", "--config", "/nonexistent.json"]) == 2


class TestErrors:
    def test_bad_range_exits_2(self):
        assert main(["sweep", "--x", "nope", "--threads", "1"]) == 2

    def test_bad_quantities_exits_2(self):
        assert main(["sweep", "--quantities", "nope", "--threads", "1"]) == 2

    def test_row_errors_exit_3(self, monkeypatch, capsys):
        def fake_sweep(*args, **kwargs):
            return [{"lambda_x": 0.0, "lambda_y": 0.0, "goldstone_offset": False,
                     "diverged": False, "error": "Boom"}]
        monkeypatch.setattr(cli, "run_sweep", fake_sweep)
        assert main(["sweep", "--x", "0:1:2", "--y", "0:1:2", "--threads", "1"]) == 3


class TestOracleCompare:
    def test_rows_and_schema(self, capsys):
        code = main(["oracle-compare", "--lambda-x", "0.5", "--lambda-y", "0.3",
                     "--j", "2,4", "--n-max", "4", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        jsonschema.validate(doc, schema())
        assert [r["j"] for r in doc["rows"]] == [2.0, 4.0]
        devs = [r["abs_de"] for r in doc["rows"]]
        assert devs[1] < devs[0]

    def test_python_dash_m_runs(self, tmp_path):
        out = tmp_path / "oracle.csv"
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-m", "twomode_dicke", "oracle-compare",
             "--lambda-x", "0", "--lambda-y", "0", "--j", "2", "--n-max", "2",
             "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(cli._ORACLE_COLUMNS)
        assert len(lines) == 2

    def test_zero_coupling_exact(self, capsys):
        code = main(["oracle-compare", "--lambda-x", "0", "--lambda-y", "0",
                     "--j", "2,5", "--n-max", "3", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        for row in doc["rows"]:
            assert abs(row["abs_de"]) < 1e-10
