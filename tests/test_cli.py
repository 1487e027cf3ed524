"""Sweep CLI: parsing, output formats, schema, determinism, mirror symmetry."""

import csv
import functools
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_sweep_mpmath import reference, reference_gaps

jsonschema = pytest.importorskip("jsonschema")

from twomode_dicke import cli, gaussian_info, model, oracle
from twomode_dicke.cli import (
    _csv_cell,
    _csv_cells,
    _json_cell,
    _parse_quantities,
    _parse_range,
    evaluate_point,
    main,
    run_sweep,
    schema,
    sweep_columns,
)
from twomode_dicke.errors import ConfigError
from twomode_dicke.gaussian_info import CovarianceMatrix
from twomode_dicke.symplectic import symplectic_eigenvalues, williamson

#: run_sweep against a reference: gaps agree to GAP_RTOL relative to nu_1,
#: e_gs to ENERGY_RTOL and every report column to REPORT_ATOL nats.  On an
#: exactly critical point nu_3 is exactly 0.
GAP_RTOL = 1e-10
ENERGY_RTOL = 1e-14
REPORT_ATOL = 1e-9
REPORT_COLUMNS = [c for g in ("mi", "eof", "tripartite") for c in cli.GROUP_COLUMNS[g]]
#: Over omega / omega0 in [1e-4, 1e4] the per-point Williamson path
#: (williamson_row) itself errs by up to ~1e-8 nats, so the property below
#: compares report columns to WIDE_REPORT_ATOL, and only points farther than
#: NEAR_CRITICAL from a critical line, where that error grows without bound
#: and tests/test_sweep_mpmath.py decides instead.
WIDE_REPORT_ATOL = 5e-8
NEAR_CRITICAL = 1e-6
EPSILON = 1e-6
#: The columns that give a row's coordinates: written unclipped, where every
#: other float column writes magnitudes above INF_THRESHOLD as "inf".
UNCLIPPED = ("lambda_x", "lambda_y", "j")


def limit(column):
    return sys.float_info.max if column in UNCLIPPED else cli.INF_THRESHOLD


def table_rows(table):
    """The rows of a sweep table, as evaluate_point gives them (a sweep records no error)."""
    return [dict(zip(table, values), error=None)
            for values in zip(*(column.tolist() for column in table.values()))]


def reference_output(table, columns, fmt, config_echo) -> str:
    """What write_output must write: csv.writer or json over rows of
    _csv_cell / _json_cell, with each column's limit."""
    values = {c: column.tolist() for c, column in table.items()}
    rows = [dict(zip(values, cells)) for cells in zip(*values.values())]
    buf = io.StringIO()
    if fmt == "csv":
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_csv_cell(row.get(c), limit(c)) for c in columns])
    else:
        doc = {"config": config_echo,
               "rows": [{c: _json_cell(row.get(c), limit(c)) for c in columns} for row in rows]}
        json.dump(doc, buf, indent=2)
        buf.write("\n")
    return buf.getvalue()


def assert_same_text(text, expected):
    """text == expected, reporting the first line that differs (no full diff)."""
    if text != expected:
        got, want = text.splitlines(), expected.splitlines()
        line = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                    min(len(got), len(want)))
        pytest.fail(f"line {line + 1}: got {got[line:line + 1]}, expected {want[line:line + 1]}")


def assert_rows_close(row, ref, report_atol=REPORT_ATOL):
    """The quantity columns of a sweep row against those of a reference row."""
    if "nu_1" in row:
        critical = max(row["lambda_x"], row["lambda_y"]) == 1.0
        scale = GAP_RTOL * ref["nu_1"]
        for col in ("nu_1", "nu_2") if critical else ("nu_1", "nu_2", "nu_3"):
            assert abs(row[col] - ref[col]) <= scale, (col, row, ref)
        if critical:
            assert row["nu_3"] == 0.0
    if "e_gs" in row:
        assert abs(row["e_gs"] - ref["e_gs"]) <= ENERGY_RTOL * abs(ref["e_gs"])
    for col in REPORT_COLUMNS:
        if col in row:
            a, b = row[col], ref[col]
            assert (math.isnan(a) and math.isnan(b)) or abs(a - b) <= report_atol, (col, a, b)


@functools.lru_cache(maxsize=None)
def mpmath_rows(omega, omega0, spec):
    """Reference rows of a sweep over spec x spec with every quantity group,
    from the 60-digit evaluation of tests/test_sweep_mpmath.py.

    Only for frequencies with lambda_c = 1 exactly, so that the program's
    Goldstone-offset test on absolute couplings is the one below.  Critical
    points have gaps (from the eigenvalues of Omega K) and NaN report columns.
    """
    rows = []
    for x in cli._grid(spec).tolist():
        for y in cli._grid(spec).tolist():
            offset = abs(x - y) <= EPSILON and max(x, y) > 1.0
            y_ref = mp.mpf(y) * (1 - mp.mpf(EPSILON)) if offset else mp.mpf(y)
            critical = max(x, y) == 1.0
            if critical:
                nu = reference_gaps(omega, omega0, x, y_ref)
                report = dict.fromkeys(REPORT_COLUMNS, math.nan)
            else:
                s, nu = reference(omega, omega0, x, y_ref)
                # S >= 0 as in renyi2_entropy: a decoupled mode's S is 60-digit noise.
                report = gaussian_info.report_columns(*(max(v, 0.0) for v in s))
            with mp.workdps(60):
                top = max(mp.mpf(x), y_ref)
                e_gs = -mp.mpf(omega0) / omega * (1 if top <= 1 else (top**4 + 1) / (2 * top**2))
            rows.append(dict(report, lambda_x=x, lambda_y=y, goldstone_offset=offset,
                             diverged=critical, e_gs=float(e_gs),
                             **dict(zip(("nu_1", "nu_2", "nu_3"), nu))))
    return rows


def williamson_row(omega, omega0, lx_rel, ly_rel):
    """Gaps, energy and report of one point by the per-point path of the public
    tools: C = (M M^T)^-1 / 2 from williamson(fluctuation_matrix), the gaps
    from symplectic_eigenvalues, and the Goldstone offset applied as a sweep
    applies it."""
    base = model.ModelParams(omega, omega0)
    lc = base.lambda_c
    lx, ly = lx_rel * lc, ly_rel * lc
    offset = abs(lx - ly) <= EPSILON * lc and max(lx, ly) > lc
    p = base.with_couplings(lx, ly * (1.0 - EPSILON) if offset else ly)
    K = model.fluctuation_matrix(p)
    M = williamson(K).M
    cm = CovarianceMatrix(("x", "y", "j"), 0.5 * np.linalg.inv(M @ M.T))
    return dict(gaussian_info.correlation_report(cm).to_dict(), goldstone_offset=offset,
                e_gs=model.ground_state_energy(p) / omega,
                **dict(zip(("nu_1", "nu_2", "nu_3"), symplectic_eigenvalues(K).tolist())))


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

    @pytest.mark.parametrize("omega, omega0, lx, ly", [(0.3, 4.0, 1.0, 0.0),
                                                       (0.05, 20.0, 1.0, 0.25)])
    def test_exactly_critical_despite_rounding(self, omega, omega0, lx, ly):
        # Rounding left the fluctuation matrix of these critical points
        # positive definite, and S_x came out 7.74 and 6.13 nats from noise.
        row = evaluate_point(omega, omega0, lx, ly, 1e-6, self.GROUPS)
        assert row["diverged"] and row["error"] is None
        assert math.isnan(row["s_x"])
        batched = table_rows(run_sweep(omega, omega0, (lx, lx, 1), (ly, ly, 1),
                                       list(self.GROUPS), 1e-6))[0]
        assert batched["diverged"]

    def test_bad_params_recorded_as_error(self):
        row = evaluate_point(-1.0, 1.0, 0.5, 0.5, 1e-6, self.GROUPS)
        assert row["error"] is not None


class TestRunSweep:
    def test_small_grid_row_order(self):
        rows = table_rows(run_sweep(1.0, 1.0, (0.0, 0.5, 2), (0.0, 0.5, 2),
                                    ["gaps", "energy", "mi", "eof", "tripartite"], 1e-6))
        assert len(rows) == 4
        assert [(r["lambda_x"], r["lambda_y"]) for r in rows] == [
            (0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)]
        origin = rows[0]
        assert abs(origin["mi_x_y"]) < 1e-12 and origin["eof_x_j"] == 0.0

    @pytest.mark.parametrize("omega, omega0", [(1.0, 1.0), (2.0, 0.5), (0.25, 4.0)])
    @pytest.mark.parametrize("groups", [list(cli.GROUP_ORDER), ["gaps", "energy"], ["eof"]],
                             ids=["all", "gaps-energy", "eof"])
    def test_batched_matches_scalar(self, omega, omega0, groups):
        # lambda_c is exact for these frequencies, so the grid holds exactly
        # critical rows and columns (1.0) and Goldstone-offset points (x = y > 1).
        rows = table_rows(run_sweep(omega, omega0, (0.0, 2.0, 9), (0.0, 2.0, 9), groups, EPSILON))
        ref = mpmath_rows(omega, omega0, (0.0, 2.0, 9))
        assert len(rows) == len(ref) == 81
        assert any(r["goldstone_offset"] for r in rows)
        reported = bool(set(groups) - {"gaps", "energy"})
        assert any(r["diverged"] for r in rows) == reported
        for a, b in zip(rows, ref):
            assert set(a) == set(sweep_columns(groups))
            for key in ("lambda_x", "lambda_y", "goldstone_offset"):
                assert a[key] == b[key], (key, a, b)
            assert a["diverged"] == (b["diverged"] and reported)
            assert_rows_close(a, b)

    @given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
           st.tuples(st.floats(0.0, 100.0), st.floats(0.0, 100.0), st.integers(1, 3)),
           st.tuples(st.floats(0.0, 100.0), st.floats(0.0, 100.0), st.integers(1, 3)))
    def test_batched_matches_scalar_over_frequencies(self, log_w, log_w0, x_spec, y_spec):
        omega, omega0 = 10.0 ** log_w, 10.0 ** log_w0
        x_range, y_range = ((min(a, b), max(a, b), n) for a, b, n in (x_spec, y_spec))
        groups = list(cli.GROUP_ORDER)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = table_rows(run_sweep(omega, omega0, x_range, y_range, groups, EPSILON))
        for a in rows:
            critical = max(a["lambda_x"], a["lambda_y"]) == 1.0  # no Gaussian ground state
            assert a["diverged"] == critical
            if critical or min(abs(a["lambda_x"] - 1.0),
                               abs(a["lambda_y"] - 1.0)) <= NEAR_CRITICAL:
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                b = williamson_row(omega, omega0, a["lambda_x"], a["lambda_y"])
            assert a["goldstone_offset"] == b["goldstone_offset"]
            assert_rows_close(a, b, WIDE_REPORT_ATOL)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            run_sweep(-1.0, 1.0, (0.0, 1.0, 2), (0.0, 1.0, 2), ["gaps"], 1e-6)
        with pytest.raises(ValueError):
            run_sweep(1.0, 1.0, (-0.5, 1.0, 2), (0.0, 1.0, 2), ["gaps"], 1e-6)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["omega", "omega0", "x_lo", "x_hi", "y_lo", "y_hi", "eps"])
    def test_rejects_non_finite_numbers(self, name, bad):
        numbers = {"omega": 1.0, "omega0": 1.0, "x_lo": 0.0, "x_hi": 1.0,
                   "y_lo": 0.0, "y_hi": 1.0, "eps": 1e-6}
        numbers[name] = bad
        omega, omega0, x_lo, x_hi, y_lo, y_hi, eps = numbers.values()
        with pytest.raises(ValueError, match="finite"):
            run_sweep(omega, omega0, (x_lo, x_hi, 2), (y_lo, y_hi, 2), list(cli.GROUP_ORDER), eps)

    def test_blocks_do_not_change_rows(self, monkeypatch):
        args = (0.5, 2.0, (0.0, 3.0, 7), (0.0, 3.0, 5), list(cli.GROUP_ORDER), 1e-6)
        whole = table_rows(run_sweep(*args))
        monkeypatch.setattr(cli, "BLOCK_POINTS", 4)
        blocked = table_rows(run_sweep(*args))
        assert len(blocked) == len(whole) == 35
        for a, b in zip(blocked, whole):
            assert a.keys() == b.keys()
            assert all(a[k] == b[k] or (a[k] != a[k] and b[k] != b[k]) for k in a)

    def test_mirror_symmetry(self):
        groups = ["gaps", "energy", "mi", "eof", "tripartite"]
        a = table_rows(run_sweep(1.0, 1.0, (0.2, 1.8, 3), (0.4, 1.6, 3), groups, 1e-6))
        b = table_rows(run_sweep(1.0, 1.0, (0.4, 1.6, 3), (0.2, 1.8, 3), groups, 1e-6))
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

    def test_threads_accepted_and_ignored(self, capsys):
        argv = ["sweep", "--x", "0:1.9:3", "--y", "0:1.9:3", "--format", "csv"]
        assert main(argv + ["--threads", "1"]) == 0
        first = capsys.readouterr().out
        assert main(argv + ["--threads", "4"]) == 0
        assert capsys.readouterr().out == first

    def test_reproducible(self, capsys):
        argv = ["sweep", "--x", "0:1.9:3", "--y", "0:1.9:3", "--threads", "1",
                "--format", "csv"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first


#: Cells where a formatter could part from the per-cell reference.
EDGE_FLOATS = [math.nan, 1e6, -1e6, math.nextafter(1e6, math.inf),
               -math.nextafter(1e6, math.inf), math.inf, -math.inf, -0.0, 0.0,
               1.0 / 3.0, 5e-324, 1.0, 1e22]
EDGE_OTHER = [None, True, False, 0.5, math.nan, 2e6, "ValueError: bad j, got 'x'",
              'quoted "word"', "two\nlines"]


class TestColumnWriter:
    """write_output formats by column; _csv_cell / _json_cell are the reference."""

    def test_float_column(self):
        cells = _csv_cells(np.array(EDGE_FLOATS))
        assert cells == [_csv_cell(v) for v in EDGE_FLOATS]
        assert cells[:8] == ["", "1000000", "-1000000", "inf", "-inf", "inf", "-inf", "-0"]

    def test_bool_column(self):
        assert _csv_cells(np.array([True, False, True])) == ["true", "false", "true"]

    def test_other_column_is_quoted_as_csv_writer_does(self):
        cells = _csv_cells(np.array(EDGE_OTHER, dtype=object))
        assert cells[:6] == ["", "true", "false", "0.5", "", "inf"]
        assert cells[6] == '"ValueError: bad j, got \'x\'"'
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow([_csv_cell(v) for v in EDGE_OTHER])
        assert ",".join(cells) + "\n" == buf.getvalue()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("block_points", [2048, 4])
    def test_table_matches_reference(self, fmt, block_points, monkeypatch):
        monkeypatch.setattr(cli, "BLOCK_POINTS", block_points)
        n = len(EDGE_FLOATS)
        table = {
            "f": np.array(EDGE_FLOATS),
            "b": np.arange(n) % 3 == 0,
            "o": np.array((EDGE_OTHER * 2)[:n], dtype=object),
        }
        columns = ["b", "f", "missing", "o"]
        out = io.StringIO()
        cli.write_output(table, columns, fmt, out, {"command": "test"})
        assert_same_text(out.getvalue(), reference_output(table, columns, fmt, {"command": "test"}))


class TestBlockWriter:
    """The float columns of a block are formatted together, each distinct value once."""

    def test_distinct_values_across_columns_and_blocks(self, monkeypatch):
        # -0.0 and 0.0 in one column and across columns (a writer that merges
        # values by == rather than by bits writes one as the other), values
        # equal across columns, the +-1e6 edges, and a constant column whose
        # run spans both blocks.
        monkeypatch.setattr(cli, "BLOCK_POINTS", 4)
        third, inside, beyond = 1.0 / 3.0, 1e6, math.nextafter(1e6, math.inf)
        table = {
            "a": np.array([-0.0, 0.0, third, math.nan, inside, -inside, 0.0, -0.0]),
            "b": np.array([0.0, -0.0, beyond, -beyond, third, math.inf, -math.inf, 0.0]),
            "c": np.full(8, third),
            "flag": np.arange(8) % 2 == 0,
            "note": np.array([None, "x", None, "y, z", None, None, "w", None], dtype=object),
            "d": np.array([-0.0, -0.0, math.nan, math.nan, 2.5, 2.5, -2.5, 2.5]),
            # a coordinate column shares values beyond 1e6 with the clipped "b"
            "lambda_x": np.array([beyond, 1e300, third, math.inf, -beyond, -0.0, math.nan, 0.0]),
        }
        columns = ["c", "a", "flag", "missing", "b", "note", "d", "lambda_x"]
        out = io.StringIO()
        cli.write_output(table, columns, "csv", out, {"command": "test"})
        expected = reference_output(table, columns, "csv", {"command": "test"})
        assert_same_text(out.getvalue(), expected)
        assert expected.splitlines()[1] == "0.33333333333333331,-0,true,,0,,-0,1000000.0000000001"
        assert expected.splitlines()[3].endswith(",inf,,,0.33333333333333331")


class TestParserOncePerProcess:
    def test_cached_parser_gives_same_output(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"y": 0.3}))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format": "xml"}))
        commands = [
            ["sweep", "--x", "0:2:3", "--y", "0:2:3"],
            ["slice", "--x", "0:2:3", "--y", "0.5"],
            ["oracle-compare", "--lambda-x", "1.5", "--lambda-y", "0.5",
             "--j", "2", "--n-max", "2"],
            ["slice", "--config", str(cfg), "--x", "0:1:3"],
            ["sweep", "--config", str(bad), "--x", "0:1:2", "--y", "0:1:2"],
            ["sweep", "--x", "0:2:3", "--y", "0:2:3"],
        ]

        def run(argv):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the bad config value this way
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        fresh = []
        for argv in commands:
            cli._build_parser.cache_clear()
            fresh.append(run(argv))
        cli._build_parser.cache_clear()
        cached = [run(argv) for argv in commands]
        assert [code for code, _, _ in fresh] == [0, 0, 0, 0, 2, 0]
        assert cached == fresh
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, len(commands) - 1)


#: omega = omega0 = scale multiplies lambda_c and every gap by scale and
#: changes nothing else.
SCALES = [1e-11, 1e-100, 1e100]
SCALED_GRID = ((0.0, 2.0, 9), (0.0, 2.0, 9))


@pytest.mark.filterwarnings("error")
class TestExtremeScales:
    @pytest.mark.parametrize("scale", [1e-150, 1e-80, 1e80, 1e150])
    def test_energy_is_scale_invariant(self, scale):
        ref = run_sweep(1.0, 1.0, *SCALED_GRID, ["energy"], EPSILON)["e_gs"]
        e_gs = run_sweep(scale, scale, *SCALED_GRID, ["energy"], EPSILON)["e_gs"]
        np.testing.assert_allclose(e_gs, ref, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("scale", SCALES)
    def test_gap_floor_is_relative_to_lambda_c(self, scale):
        groups = ["gaps", "mi", "eof", "tripartite"]
        ref = run_sweep(1.0, 1.0, *SCALED_GRID, groups, EPSILON)
        table = run_sweep(scale, scale, *SCALED_GRID, groups, EPSILON)
        assert not ref["diverged"].all()
        for col in REPORT_COLUMNS + ["diverged", "goldstone_offset"]:
            np.testing.assert_array_equal(table[col], ref[col], err_msg=col)
        for col in ("nu_1", "nu_2", "nu_3"):
            np.testing.assert_allclose(table[col], scale * ref[col], rtol=1e-15, atol=0.0,
                                       err_msg=col)

    def test_overflowing_points_are_diverged(self):
        table = run_sweep(1.0, 1.0, (0.0, 1e300, 3), (0.0, 2.0, 2), list(cli.GROUP_ORDER), EPSILON)
        huge = table["lambda_x"] > 1.0
        assert huge.sum() == 4
        assert table["diverged"][huge].all() and not table["diverged"][~huge].any()
        assert np.isnan(table["nu_1"][huge]).all() and np.isfinite(table["nu_1"][~huge]).all()
        assert (table["e_gs"][huge] == -math.inf).all()

    @pytest.mark.parametrize("argv", [
        ["sweep", "--x", "0:1e300:3", "--y", "0:2:2"],
        ["sweep", "--omega", "1e160", "--omega0", "1e-160", "--x", "0:2:3", "--y", "0:0:1"],
        ["sweep", "--omega", "1e80", "--omega0", "1e80", "--x", "0:2:3", "--y", "0:2:3"],
        ["slice", "--x", "0:1e300:3", "--y", "2"],
    ])
    def test_sweep_exits_0_without_error_rows(self, argv, capsys):
        assert main(argv) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert rows and all(row["error"] == "" for row in rows)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_huge_couplings_are_written_unclipped(self, fmt, capsys):
        assert main(["sweep", "--x", "0:1e300:3", "--y", "0:2:2", "--format", fmt]) == 0
        out = capsys.readouterr().out
        if fmt == "json":
            doc = json.loads(out)
            jsonschema.validate(doc, schema())
            rows = doc["rows"]
        else:
            rows = [{c: float(v) for c, v in row.items() if c.startswith("lambda")}
                    for row in csv.DictReader(io.StringIO(out))]
        assert [row["lambda_x"] for row in rows] == [0.0, 0.0, 5e299, 5e299, 1e300, 1e300]
        assert [row["lambda_y"] for row in rows] == [0.0, 2.0] * 3

    # the finite-size solve of a NaN Hamiltonian warns before it fails
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_oracle_compare_writes_its_row(self, capsys):
        code = main(["oracle-compare", "--lambda-x", "1e300", "--lambda-y", "0", "--j", "1",
                     "--n-max", "2"])
        (row,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
        assert row["diverged"] == "true" and float(row["lambda_x"]) == 1e300
        assert code == (3 if row["error"] else 0)


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


class TestSweepBytes:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sweep_output_matches_reference(self, fmt, tmp_path):
        # omega0 / omega = 1e3 with couplings up to 100 lambda_c: the energy
        # leaves [-1e6, 1e6]; lambda_x = 1 is critical, x = y > 1 offset.
        # 101 x 21 points span two blocks.
        omega, omega0, x_range, y_range = 1.0, 1e3, (0.0, 100.0, 101), (0.0, 100.0, 21)
        groups = list(cli.GROUP_ORDER)
        table = run_sweep(omega, omega0, x_range, y_range, groups, 1e-6)
        assert table["lambda_x"].size > cli.BLOCK_POINTS
        assert table["diverged"].any() and table["goldstone_offset"].any()
        assert (table["e_gs"] < -cli.INF_THRESHOLD).any()
        out = tmp_path / f"sweep.{fmt}"
        assert main(["sweep", "--omega", "1", "--omega0", "1000", "--x", "0:100:101",
                     "--y", "0:100:21", "--format", fmt, "--out", str(out)]) == 0
        text = out.read_text()
        config = json.loads(text)["config"] if fmt == "json" else None
        expected = reference_output(table, sweep_columns(groups), fmt, config)
        assert "-inf" in expected
        assert_same_text(text, expected)


class TestConfigFile:
    def test_config_file_defaults_and_cli_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"x": "0:1:2", "y": "0:1:3", "format": "json"}))
        code = main(["sweep", "--config", str(cfg), "--y", "0:1:2", "--threads", "1"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["rows"]) == 4  # x from config (2), y overridden to 2

    #: A required option of each command and the explicit flags of a small run.
    REQUIRED = {
        "oracle-compare": ({"lambda_x": 0.5, "lambda_y": 0.3}, ["--j", "2", "--n-max", "2"]),
        "slice": ({"y": 0.3}, ["--x", "0:1:3"]),
    }

    @staticmethod
    def _flags(values):
        return [a for k, v in values.items() for a in (f"--{k.replace('_', '-')}", str(v))]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", list(REQUIRED))
    def test_required_option_from_config(self, command, fmt, tmp_path, capsys):
        values, rest = self.REQUIRED[command]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        rest = rest + ["--format", fmt]
        assert main([command] + self._flags(values) + rest) == 0
        by_flag = capsys.readouterr().out
        assert main([command, "--config", str(cfg)] + rest) == 0
        assert capsys.readouterr().out == by_flag

    @pytest.mark.parametrize("command", list(REQUIRED))
    def test_flag_overrides_required_config_value(self, command, tmp_path, capsys):
        values, rest = self.REQUIRED[command]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        key = list(values)[-1]
        flags = self._flags(values | {key: 0.1})
        assert main([command] + flags + rest) == 0
        by_flag = capsys.readouterr().out
        assert main([command, "--config", str(cfg)] + flags[-2:] + rest) == 0
        assert capsys.readouterr().out == by_flag

    @pytest.mark.parametrize("with_config", [False, True])
    @pytest.mark.parametrize("command", list(REQUIRED))
    def test_missing_required_option_exits_2(self, command, with_config, tmp_path, capsys):
        values, rest = self.REQUIRED[command]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"omega": 1.0}))
        argv = [command] + (["--config", str(cfg)] if with_config else []) + rest
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "required" in err and f"--{list(values)[0].replace('_', '-')}" in err

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert main(["sweep", "--config", str(cfg)]) == 2

    def test_missing_config_file(self):
        assert main(["sweep", "--config", "/nonexistent.json"]) == 2

    @pytest.mark.parametrize("config", [
        '{"omega": [1]}',
        '{"quantities": ["mi"]}',
        '{"goldstone_epsilon": [0.1]}',
        '{"format": "xml"}',
        '{"n_max": 2.5}',
        '{"omega": true}',
    ])
    def test_bad_config_values_exit_2(self, config, tmp_path, capsys):
        # checked like the same value typed on the command line
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        command = "oracle-compare" if "n_max" in config else "sweep"
        try:
            code = main([command, "--config", str(cfg)] + TestErrors.SMALL[command])
        except SystemExit as exc:  # argparse rejects a bad type or choice this way
            code = exc.code
        assert code == 2
        assert capsys.readouterr().out == ""


class TestErrors:
    def test_bad_range_exits_2(self):
        assert main(["sweep", "--x", "nope", "--threads", "1"]) == 2

    def test_bad_quantities_exits_2(self):
        assert main(["sweep", "--quantities", "nope", "--threads", "1"]) == 2

    #: Small grids, so that a flag that is wrongly accepted runs quickly.
    SMALL = {"sweep": ["--x", "0:1:2", "--y", "0:1:2"],
             "slice": ["--x", "0:1:2", "--y", "0.5"],
             "oracle-compare": ["--lambda-x", "0", "--lambda-y", "0", "--j", "2", "--n-max", "2"]}

    @pytest.mark.parametrize("case", [
        "sweep --x nan:1:3",
        "sweep --x 0:inf:3",
        "sweep --y 0:nan:3",
        "sweep --omega nan",
        "sweep --omega inf",
        "sweep --omega0 nan",
        "sweep --omega0 inf",
        "sweep --goldstone-epsilon nan",
        "slice --y nan",
        "slice --y inf",
        "slice --x 0:nan:2",
        "oracle-compare --lambda-x nan",
        "oracle-compare --lambda-y inf",
        "oracle-compare --omega nan",
        "oracle-compare --omega0 inf",
        "oracle-compare --omega -1",
        "oracle-compare --lambda-x -1",
        "oracle-compare --j 2,nan",
        "oracle-compare --j 0",
        "oracle-compare --j -1",
        "oracle-compare --j 1.3",
        "oracle-compare --n-max 0",
        "oracle-compare --j 5000 --n-max 10",
    ])
    def test_bad_numbers_exit_2(self, case, capsys):
        command, *flags = case.split()
        assert main([command] + self.SMALL[command] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    def test_row_errors_exit_3(self, monkeypatch, capsys):
        def fake_sweep(*args, **kwargs):
            return {"lambda_x": np.zeros(1), "lambda_y": np.zeros(1),
                    "goldstone_offset": np.zeros(1, dtype=bool),
                    "diverged": np.zeros(1, dtype=bool), "error": np.array(["Boom"], dtype=object)}
        monkeypatch.setattr(cli, "run_sweep", fake_sweep)
        assert main(["sweep", "--x", "0:1:2", "--y", "0:1:2", "--threads", "1"]) == 3


#: oracle-compare --j 2,5 --n-max 6 rows (e0_per_spin, abs_de, cm_max_dev,
#: converged, diverged) at (omega, omega0, lambda_x, lambda_y), as computed
#: with the complex Hamiltonian and ARPACK's complex Arnoldi driver.
PINNED_ORACLE_ROWS = [
    ((1.0, 1.0, 0.5, 0.3), [
        (-1.0222562124978352, 0.02225621249783516, 0.015911325538459864, True, False),
        (-1.0089880884163125, 0.00898808841631249, 0.006741419384167502, True, False),
    ]),
    ((1.0, 1.0, 1.5, 0.5), [
        (-1.381322943064138, 0.03410072084191573, 0.06600037385272928, False, False),
        (-1.359255003366486, 0.01203278114426376, 0.014188631964433818, False, False),
    ]),
    ((1.0, 1.0, 0.5, 1.5), [
        (-1.3813229430641372, 0.034100720841914844, 0.06600037385272817, False, False),
        (-1.3592550033664874, 0.012032781144265092, 0.01418863196443454, False, False),
    ]),
    ((0.1, 1.0, 0.5, 0.3), [
        (-10.040896889399813, 0.04089688939981251, 0.003343258000475191, True, False),
        (-10.016406162314867, 0.016406162314867245, 0.0013559467784719503, True, False),
    ]),
    ((0.1, 1.0, 1.5, 0.5), [
        (-13.516199044597, 0.04397682237477696, 0.005541788354428534, False, False),
        (-13.49054579024151, 0.01832356801928725, 0.0020701383539041274, True, False),
    ]),
    ((0.1, 1.0, 0.5, 1.5), [
        (-13.516199044596991, 0.043976822374768076, 0.0055417883544292, False, False),
        (-13.490545790241558, 0.018323568019335212, 0.0020701383539052376, True, False),
    ]),
    ((1.0, 0.1, 0.5, 0.3), [
        (-0.10395098524662603, 0.003950985246626029, 0.018096943097348328, True, False),
        (-0.10158998189395593, 0.0015899818939559274, 0.007803073861267107, True, False),
    ]),
    ((1.0, 0.1, 1.5, 0.5), [
        (-0.14758108608162, 0.012858863859397746, 0.2769550053446438, False, False),
        (-0.1379222235034257, 0.0032000012812034573, 0.027873491966222907, False, False),
    ]),
    ((1.0, 0.1, 0.5, 1.5), [
        (-0.14758108608161988, 0.012858863859397635, 0.27695500534464523, False, False),
        (-0.1379222235034256, 0.0032000012812033463, 0.027873491966243114, False, False),
    ]),
]

#: abs_de and cm_max_dev are small differences of O(1) energies and CM
#: entries, so their last digits are eigensolver rounding: at omega/omega0 =
#: 0.1 the pinned energies differ from dense eigh by up to 8e-14 per spin.
#: Below 1 they are compared to PINNED_ABS absolute.
PINNED_ABS = 1e-12


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
        for r in doc["rows"]:
            assert r["resolve_de"] >= 0.0
            assert r["converged"] == (r["resolve_de"] * r["j"] < oracle.CONVERGENCE_TOL)

    def test_resolve_de_in_units_of_omega(self, capsys):
        code = main(["oracle-compare", "--omega", "0.5", "--lambda-x", "1.5", "--lambda-y", "0.5",
                     "--j", "2", "--n-max", "4", "--format", "json"])
        assert code == 0
        row = json.loads(capsys.readouterr().out)["rows"][0]
        p = model.ModelParams(0.5, 1.0).with_couplings(1.5 * math.sqrt(0.5), 0.5 * math.sqrt(0.5))
        res = oracle.exact_ground_state(p, oracle.TruncationSpec(j=2, n_max=4))
        assert row["resolve_de"] == res.resolve_de / 0.5

    def test_resolve_de_empty_without_resolve(self, monkeypatch, capsys):
        monkeypatch.setattr(oracle, "DIMENSION_BUDGET", oracle.TruncationSpec(j=2, n_max=2).dimension)
        assert main(["oracle-compare", "--lambda-x", "0.5", "--lambda-y", "0.3",
                     "--j", "2", "--n-max", "2"]) == 0
        row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert row["resolve_de"] == "" and row["converged"] == "false"

    @pytest.mark.parametrize("point,rows", PINNED_ORACLE_ROWS)
    def test_rows_match_pinned_values(self, point, rows, capsys):
        omega, omega0, lx, ly = point
        code = main(["oracle-compare", "--omega", repr(omega), "--omega0", repr(omega0),
                     "--lambda-x", repr(lx), "--lambda-y", repr(ly), "--j", "2,5",
                     "--n-max", "6", "--format", "json"])
        assert code == 0
        got = json.loads(capsys.readouterr().out)["rows"]
        assert len(got) == len(rows)
        for row, (e0, abs_de, cm_max_dev, converged, diverged) in zip(got, rows):
            assert row["e0_per_spin"] == pytest.approx(e0, rel=1e-12, abs=0.0)
            assert row["abs_de"] == pytest.approx(abs_de, rel=1e-12, abs=PINNED_ABS)
            assert row["cm_max_dev"] == pytest.approx(cm_max_dev, rel=1e-12, abs=PINNED_ABS)
            assert (row["converged"], row["diverged"]) == (converged, diverged)

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
        assert lines[0] == ("lambda_x,lambda_y,j,e0_per_spin,e_gs_analytic,abs_de,cm_max_dev,"
                            "converged,resolve_de,diverged,error")
        assert len(lines) == 2

    def test_cli_runs_without_scipy(self):
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "import io, sys, contextlib\n"
            "import numpy as np\n"
            "import twomode_dicke\n"
            "from twomode_dicke import cli, symplectic\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['sweep', '--x', '0:2:3', '--y', '0:2:3',\n"
            "                     '--quantities', 'all']) == 0\n"
            "    assert cli.main(['oracle-compare', '--lambda-x', '1.5', '--lambda-y', '0.5',\n"
            "                     '--j', '2,4', '--n-max', '4']) == 0\n"
            "nu = symplectic.williamson(np.diag([1.0, 1.0, 4.0, 4.0])).nu\n"
            "assert np.allclose(nu, [4.0, 1.0]), nu\n"
            "symplectic.williamson(np.eye(6))\n"
            "symplectic.standard_form(0.5 * np.eye(6))\n"
            "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
            "assert not loaded, loaded\n"
        )
        proc = subprocess.run([sys.executable, "-c", code],
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_critical_point_is_diverged_with_finite_size_energy(self, capsys):
        code = main(["oracle-compare", "--lambda-x", "1", "--lambda-y", "0",
                     "--j", "2", "--n-max", "2", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        jsonschema.validate(doc, schema())
        row = doc["rows"][0]
        assert row["diverged"] is True and row["error"] is None
        assert row["cm_max_dev"] is None
        assert math.isfinite(row["e0_per_spin"]) and math.isfinite(row["abs_de"])
        assert isinstance(row["converged"], bool)

    def test_goldstone_line_is_diverged(self, capsys):
        code = main(["oracle-compare", "--lambda-x", "1.5", "--lambda-y", "1.5",
                     "--j", "2", "--n-max", "2", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        jsonschema.validate(doc, schema())
        row = doc["rows"][0]
        assert row["diverged"] is True and row["error"] is None
        # no classical frame to solve in; the analytic energy is continuous there
        assert row["e0_per_spin"] is None and row["abs_de"] is None
        assert row["e_gs_analytic"] < -1.0

    def test_critical_point_with_inexact_lambda_c_is_diverged(self, capsys):
        code = main(["oracle-compare", "--omega", "0.3", "--omega0", "4",
                     "--lambda-x", "1", "--lambda-y", "0", "--j", "2", "--n-max", "2",
                     "--format", "json"])
        assert code == 0
        row = json.loads(capsys.readouterr().out)["rows"][0]
        assert row["diverged"] is True and row["cm_max_dev"] is None
        assert math.isfinite(row["e0_per_spin"])

    def test_zero_coupling_exact(self, capsys):
        code = main(["oracle-compare", "--lambda-x", "0", "--lambda-y", "0",
                     "--j", "2,5", "--n-max", "3", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        for row in doc["rows"]:
            assert abs(row["abs_de"]) < 1e-10
