"""Sweep CLI: parsing, output formats, schema, determinism, mirror symmetry."""

import argparse
import contextlib
import csv
import dataclasses
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
from test_oracle import counted
from test_sweep_mpmath import reference, reference_gaps

jsonschema = pytest.importorskip("jsonschema")

import twomode_dicke
from twomode_dicke import _float_text, cli, gaussian_info, model, oracle, symplectic
from twomode_dicke.cli import (
    _csv_cell,
    _csv_cells,
    _float_cells,
    _json_cell,
    _parse_quantities,
    _parse_range,
    evaluate_point,
    main,
    run_sweep,
    schema,
    sweep_columns,
)
from twomode_dicke.errors import NearSingularError, NumericalFailureError
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

def table_rows(table):
    """The rows of a sweep table, as evaluate_point gives them (a sweep records no error)."""
    return [dict(zip(table, values), error=None)
            for values in zip(*(column.tolist() for column in table.values()))]


def reference_output(table, columns, fmt, config_echo) -> str:
    """What write_output must write: csv.writer or json over rows of
    _csv_cell / _json_cell."""
    values = {c: column.tolist() for c, column in table.items()}
    rows = [dict(zip(values, cells)) for cells in zip(*values.values())]
    buf = io.StringIO()
    if fmt == "csv":
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_csv_cell(row.get(c)) for c in columns])
    else:
        doc = {"config": config_echo,
               "rows": [{c: _json_cell(row.get(c)) for c in columns} for row in rows]}
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
    Goldstone-offset test on absolute couplings is the one below; the offset
    lowers the smaller coupling (y where x = y).  Critical points have gaps
    (from the eigenvalues of Omega K) and NaN report columns.
    """
    rows = []
    for x in cli._grid(spec).tolist():
        for y in cli._grid(spec).tolist():
            offset = abs(x - y) <= EPSILON and max(x, y) > 1.0
            shrink = 1 - mp.mpf(EPSILON)
            x_ref = mp.mpf(x) * shrink if offset and x < y else mp.mpf(x)
            y_ref = mp.mpf(y) * shrink if offset and x >= y else mp.mpf(y)
            critical = max(x, y) == 1.0
            if critical:
                nu = reference_gaps(omega, omega0, x_ref, y_ref)
                report = dict.fromkeys(REPORT_COLUMNS, math.nan)
            else:
                s, nu, two_c = reference(omega, omega0, x_ref, y_ref)
                # S >= 0 as in renyi2_entropy: a decoupled mode's S is 60-digit noise.
                # g_m = det gamma of the pair without m, a cross block of 2C.
                g = [np.linalg.det(two_c[2 * k:2 * k + 2, 2 * l:2 * l + 2])
                     for k, l in ((1, 2), (0, 2), (0, 1))]
                report = gaussian_info.report_columns(*(max(v, 0.0) for v in s), *g)
            with mp.workdps(60):
                top = max(x_ref, y_ref)
                e_gs = -mp.mpf(omega0) / omega * (1 if top <= 1 else (top**4 + 1) / (2 * top**2))
            rows.append(dict(report, lambda_x=x, lambda_y=y, goldstone_offset=offset,
                             diverged=critical, e_gs=float(e_gs),
                             **dict(zip(("nu_1", "nu_2", "nu_3"), nu))))
    return rows


def williamson_row(omega, omega0, lx_rel, ly_rel):
    """Gaps, energy and report of one point by the per-point path of the public
    tools: C = (M M^T)^-1 / 2 from williamson(fluctuation_matrix), the gaps
    from symplectic_eigenvalues, and the Goldstone offset applied as a sweep
    applies it, to the smaller coupling (y where x = y)."""
    base = model.ModelParams(omega, omega0)
    lc = base.lambda_c
    lx, ly = lx_rel * lc, ly_rel * lc
    offset = abs(lx - ly) <= EPSILON * lc and max(lx, ly) > lc
    p = base.with_couplings(lx * (1.0 - EPSILON) if offset and lx < ly else lx,
                            ly * (1.0 - EPSILON) if offset and lx >= ly else ly)
    K = model.fluctuation_matrix(p)
    M, _ = williamson(K)
    cm = 0.5 * np.linalg.inv(M @ M.T)
    return dict(gaussian_info.correlation_report(cm), goldstone_offset=offset,
                e_gs=model.ground_state_energy(p) / omega,
                **dict(zip(("nu_1", "nu_2", "nu_3"), symplectic_eigenvalues(K).tolist())))


class TestParsing:
    def test_range(self):
        assert _parse_range("0:2:101") == (0.0, 2.0, 101)

    def test_range_errors(self):
        for bad in ("0:2", "a:2:5", "1:0.5:5", "-1:2:5", "0:2:0"):
            with pytest.raises(argparse.ArgumentTypeError):
                _parse_range(bad)

    def test_quantities(self):
        assert _parse_quantities("all") == ["gaps", "energy", "mi", "eof", "tripartite"]
        assert _parse_quantities("eof,gaps") == ["gaps", "eof"]
        with pytest.raises(argparse.ArgumentTypeError):
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

    def test_bad_params_raise_value_error(self):
        with pytest.raises(ValueError):
            evaluate_point(-1.0, 1.0, 0.5, 0.5, 1e-6, self.GROUPS)


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
        assert any(r["diverged"] for r in rows)
        for a, b in zip(rows, ref):
            assert set(a) == set(sweep_columns(groups))
            for key in ("lambda_x", "lambda_y", "goldstone_offset", "diverged"):
                assert a[key] == b[key], (key, a, b)
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

    @pytest.mark.parametrize("args, twins", [
        # a non-square grid
        ((0.5, 2.0, (0.0, 3.0, 7), (0.0, 3.0, 5), list(cli.GROUP_ORDER), 1e-6), 6),
        # a slice: no point has its twin on it
        ((4.0, 0.25, (0.0, 3.0, 13), (1.5, 1.5, 1), ["gaps", "mi"], 1e-6), 0),
        # Goldstone-offset rows: eps = 0.25 offsets every point above 1 within
        # 0.25 of the diagonal by lowering its smaller coupling, so an offset
        # point off the diagonal still pairs with its twin; the critical row
        # and column are diverged
        ((1.0, 1.0, (0.0, 2.0, 9), (0.0, 2.0, 9), list(cli.GROUP_ORDER), 0.25), 70),
        # no point has its twin on the grid
        ((0.1, 10.0, (0.1, 0.9, 5), (1.1, 30.0, 4), list(cli.GROUP_ORDER), 1e-6), 0),
    ], ids=["non-square", "slice", "goldstone-offset", "no-twins"])
    def test_blocks_do_not_change_rows(self, args, twins, monkeypatch):
        # A sweep factors each mirror pair (x, y), (y, x) once, at (max, min),
        # and gathers it back to both rows: its columns are bitwise those of
        # one-point sweeps, whatever the blocks, and its gaps and entropies
        # those of stacked_ground_states over every point of the grid.
        def assert_same_bits(a, b, column):
            assert a.dtype == b.dtype, column
            if a.dtype.kind != "f":
                assert np.array_equal(a, b), column
                return
            nan = np.isnan(a)
            assert np.array_equal(nan, np.isnan(b)), column
            assert np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64)), column

        omega, omega0, x_range, y_range, groups, eps = args
        whole = run_sweep(*args)
        points = list(zip(whole["lambda_x"].tolist(), whole["lambda_y"].tolist()))
        lower_x = whole["goldstone_offset"] & (whole["lambda_x"] < whole["lambda_y"])
        lower_y = whole["goldstone_offset"] & ~lower_x
        x_used = np.where(lower_x, whole["lambda_x"] * (1.0 - eps), whole["lambda_x"])
        y_used = np.where(lower_y, whole["lambda_y"] * (1.0 - eps), whole["lambda_y"])
        pairs = set(zip(x_used.tolist(), y_used.tolist()))
        assert sum((y, x) in pairs and x != y for x, y in pairs) == twins
        gs = model.stacked_ground_states(omega, omega0, x_used, y_used)
        for c, column in zip(("nu_1", "nu_2", "nu_3", "s_x", "s_y", "s_j"),
                             [*gs.nu.T, *gs.entropies.T]):
            if c in whole:
                assert_same_bits(whole[c], column, c)
        monkeypatch.setattr(cli, "BLOCK_POINTS", 4)
        blocked = run_sweep(*args)
        single = [run_sweep(omega, omega0, (x, x, 1), (y, y, 1), groups, eps) for x, y in points]
        assert whole.keys() == blocked.keys() == single[0].keys()
        for c in whole:
            assert_same_bits(whole[c], blocked[c], c)
            assert_same_bits(whole[c], np.concatenate([table[c] for table in single]), c)

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
            # off the diagonal both rows come from one factorization, and
            # tri_x_yj subtracts its two EoFs in the other order; at x = y the
            # point is its own mirror and s_x, s_y agree to rounding
            tol = 1e-8 if row["lambda_x"] == row["lambda_y"] else 0.0
            for col in symmetric:
                atol = max(tol, 1e-15) if col == "tri_x_yj" else tol
                assert abs(row[col] - mirror[col]) <= atol, col
            for col, twin in swapped.items():
                assert abs(row[col] - mirror[twin]) <= tol, col


    @pytest.mark.parametrize("grid, n_off, n_diverged", [
        ("0:3:7", 42, 4),
        # Goldstone-offset points off the diagonal, evaluated with their smaller
        # coupling lowered; lowering the larger one solved (1.5, 1.5000001) as
        # superradiant-x, and moved (1, 1 + 1e-12) and (1, 1.0000009) onto the
        # critical line lambda_x = 1, where their twins are not
        ("1.5:1.5000001:2", 2, 0),
        ("1:1.000000000001:2", 2, 0),
        ("1:1.0000009:2", 2, 0),
    ])
    def test_twin_rows_byte_identical(self, grid, n_off, n_diverged, tmp_path):
        # every sweep row off the diagonal and its twin write byte-identical
        # twin columns (tri_x_yj subtracts its two EoFs in the other order, and
        # tri_j_yx has no twin)
        out = tmp_path / "twins.csv"
        assert main(["sweep", "--omega", "0.01", "--x", grid, "--y", grid,
                     "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        lookup = {(r["lambda_x"], r["lambda_y"]): r for r in rows}
        twins = {"lambda_x": "lambda_y", "s_x": "s_y", "s_xj": "s_yj", "mi_xj_y": "mi_yj_x",
                 "mi_x_j": "mi_y_j", "eof_x_j": "eof_y_j"}
        twins.update({b: a for a, b in twins.items()})
        off = [r for r in rows if r["lambda_x"] != r["lambda_y"]]
        assert len(off) == n_off == len(rows) - math.isqrt(len(rows)), (len(rows), len(off))
        assert sum(r["diverged"] == "true" for r in off) == n_diverged
        for r in off:
            twin = lookup[(r["lambda_y"], r["lambda_x"])]
            for col in r.keys() - {"tri_x_yj", "tri_j_yx"}:
                assert r[col] == twin[twins.get(col, col)], (col, r, twin)


#: Every --quantities selection the tests below compare with all.
SELECTIONS = ["energy", "gaps", "gaps,energy", "mi", "eof", "tripartite", "all"]
#: run_sweep inputs (omega, omega0, x range, y range, goldstone_epsilon) with
#: diverged rows: critical rows and columns, Goldstone-offset rows (eps = 0.25
#: offsets every point above 1 within 0.25 of the diagonal), and at
#: omega / omega0 = 1e-308 the rows (0, 0) below the relative gap floor, (1, 0)
#: critical and (2, 0), whose pivot_V pivot_T overflows.
SELECTION_GRIDS = {
    "critical": (1.0, 1.0, (0.0, 2.0, 3), (0.0, 2.0, 3), EPSILON),
    "goldstone-offset": (1.0, 1.0, (0.0, 2.0, 9), (0.0, 2.0, 9), 0.25),
    "floor-critical-overflow": (1e-300, 1e8, (0.0, 2.0, 3), (0.0, 0.0, 1), EPSILON),
}


@pytest.mark.filterwarnings("error")
class TestQuantitySelection:
    """--quantities selects the written columns and nothing else: diverged and
    every column a selection writes are bitwise those of --quantities all."""

    @pytest.mark.parametrize("args", SELECTION_GRIDS.values(), ids=SELECTION_GRIDS)
    def test_run_sweep_columns_are_those_of_all(self, args):
        omega, omega0, x_range, y_range, eps = args
        whole = run_sweep(omega, omega0, x_range, y_range, list(cli.GROUP_ORDER), eps)
        assert whole["diverged"].any()
        for text in SELECTIONS:
            groups = _parse_quantities(text)
            table = run_sweep(omega, omega0, x_range, y_range, groups, eps)
            assert list(table) == [c for c in sweep_columns(groups) if c != "error"], text
            for c, column in table.items():
                assert column.tobytes() == whole[c].tobytes(), (text, c)

    @pytest.mark.parametrize("command", [
        "sweep --x 0:2:3 --y 0:2:3",
        "sweep --x 0:2:9 --y 0:2:9 --goldstone-epsilon 0.25",
        "sweep --omega 1e-300 --omega0 1e8 --x 0:2:3 --y 0:0:1",
        "slice --x 0:2:9 --y 1",
        "slice --x 0:2:9 --y 1 --goldstone-epsilon 0.25",
    ])
    def test_written_cells_are_those_of_all(self, command, tmp_path):
        def written(k):
            out = tmp_path / f"{k}.csv"
            assert main([*command.split(), "--quantities", SELECTIONS[k], "--out", str(out)]) == 0
            with open(out, newline="") as fh:
                return list(csv.DictReader(fh))

        whole = written(SELECTIONS.index("all"))
        assert any(row["diverged"] == "true" for row in whole)
        for k, text in enumerate(SELECTIONS):
            rows = written(k)
            assert len(rows) == len(whole), text
            for row, ref in zip(rows, whole):
                assert row == {c: ref[c] for c in row}, text
                # a float cell is empty only on a diverged row
                floats = row.keys() - {"goldstone_offset", "diverged", "error"}
                assert row["diverged"] == "true" or "" not in map(row.get, floats), (text, row)

    def test_floor_critical_and_overflow_rows_diverge_under_every_selection(self, capsys):
        # the reasons: nu_3 / lambda_c = 1e-154 < GAP_FLOOR at (0, 0), a zero
        # pivot at (1, 0) and an overflowing sigma_3, so NaN gaps, at (2, 0)
        omega, omega0, x_range, y_range, _ = SELECTION_GRIDS["floor-critical-overflow"]
        gs = model.stacked_ground_states(omega, omega0, cli._grid(x_range), cli._grid(y_range))
        lambda_c = math.sqrt(omega / omega0) * omega0
        assert gs.nu[0, 2] / lambda_c < symplectic.GAP_FLOOR and gs.nu[1, 2] == 0.0
        assert np.isnan(gs.nu[2]).all() and np.isfinite(gs.nu[:2]).all()
        for text in SELECTIONS:
            assert main(["sweep", "--omega", "1e-300", "--omega0", "1e8", "--x", "0:2:3",
                         "--y", "0:0:1", "--quantities", text]) == 0
            rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
            assert [(r["lambda_x"], r["diverged"]) for r in rows] == [
                ("0", "true"), ("1", "true"), ("2", "true")], text
            if "gaps" in _parse_quantities(text):
                assert rows[2]["nu_1"] == rows[2]["nu_2"] == rows[2]["nu_3"] == "", text


class TestOutput:
    def test_csv_cells(self):
        # every finite value is written as itself; only an infinite one as inf
        assert _csv_cell(2e6) == "2000000"
        assert _csv_cell(-2e6) == "-2000000"
        assert _csv_cell(-2.125e8) == "-212500000"
        assert _csv_cell(1e300) == "1.0000000000000001e+300"
        assert _csv_cell(999999.0) == "999999"
        assert _csv_cell(math.inf) == "inf"
        assert _csv_cell(-math.inf) == "-inf"
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

    @pytest.mark.parametrize("argv", [
        ["sweep", "--x", "0:1.8:3", "--y", "0:1.8:3"],
        ["slice", "--y", "0.3", "--x", "0:1:2"],
        ["oracle-compare", "--lambda-x", "1.5", "--lambda-y", "0.5", "--j", "2", "--n-max", "2"],
    ], ids=["sweep", "slice", "oracle-compare"])
    def test_json_config_echoes_versions(self, argv, capsys):
        assert main(argv + ["--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        jsonschema.validate(doc, schema())
        assert list(doc["config"])[-1] == "versions"
        assert doc["config"]["versions"] == {"twomode_dicke": twomode_dicke.__version__,
                                             "numpy": np.__version__}
        assert main(argv) == 0
        assert "versions" not in capsys.readouterr().out

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
        (cells,) = _float_cells([np.array(EDGE_FLOATS)])
        assert cells == [_csv_cell(v) for v in EDGE_FLOATS]
        assert cells[:8] == ["", "1000000", "-1000000", "1000000.0000000001",
                             "-1000000.0000000001", "inf", "-inf", "-0"]

    def test_float_kernel_matches_percent_17g(self):
        # The array-wide formatter of _float_cells against _csv_cell, which is
        # format(v, ".17g"): random bit patterns (NaN and inf among them), the
        # named edges, and exact 17-digit ties m / 2^t (m odd, m 5^t of 18
        # digits) with their neighbours, which the kernel cannot certify and
        # hands to "%.17g".
        rng = np.random.default_rng(23)
        random_bits = rng.integers(0, 2**64, size=1_000_000, dtype=np.uint64).view(np.float64)
        powers = 10.0 ** np.arange(-323, 309)
        with np.errstate(over="ignore"):
            edges = np.concatenate([
                powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
                0.5 * powers, 5.0 * powers, 9.5 * powers,
                [5e-324, np.finfo(float).max, 0.0, -0.0, np.inf, -np.inf, np.nan]])
        ties = []
        for t in rng.integers(1, 26, size=20_000).tolist():
            low, high = -(-10**17 // 5**t), min(10**18 // 5**t, 2**53)
            if low < high:
                m = (low + int(rng.integers(0, high - low))) | 1
                if m * 5**t < 10**18:
                    ties.append(m / 2**t)
        ties = np.array(ties)
        assert ties.size > 10_000
        named = np.array([4000000000000001 / 4, 4000000000000003 / 4])
        assert _float_text.g17(named) == ["1000000000000000.2", "1000000000000000.8"]
        values = np.concatenate([random_bits, edges, -edges, ties, np.nextafter(ties, 0.0),
                                 np.nextafter(ties, np.inf), -ties, named])
        for start in range(0, values.size, 1 << 16):
            chunk = values[start:start + (1 << 16)]
            assert _float_text.g17(chunk) == [_csv_cell(v) for v in chunk.tolist()]

    def test_float_cells_without_a_fast_cell(self):
        # every cell formatted by "%.17g" itself, and an empty block
        slow = [math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, 1e-300, -1e300,
                np.finfo(float).max]
        assert _float_cells([np.array(slow), np.array(slow[::-1])]) == [
            [_csv_cell(v) for v in slow], [_csv_cell(v) for v in slow[::-1]]]
        assert _float_cells([np.array([])]) == [[]]
        assert _float_text.g17(np.array([])) == []

    def test_bool_column(self):
        assert _csv_cells(np.array([True, False, True])) == ["true", "false", "true"]

    def test_other_column_is_quoted_as_csv_writer_does(self):
        cells = _csv_cells(np.array(EDGE_OTHER, dtype=object))
        assert cells[:6] == ["", "true", "false", "0.5", "", "2000000"]
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
        # equal across columns, huge and infinite values, and a constant
        # column whose run spans both blocks.
        monkeypatch.setattr(cli, "BLOCK_POINTS", 4)
        third, inside, beyond = 1.0 / 3.0, 1e6, math.nextafter(1e6, math.inf)
        table = {
            "a": np.array([-0.0, 0.0, third, math.nan, inside, -inside, 0.0, -0.0]),
            "b": np.array([0.0, -0.0, beyond, -beyond, third, math.inf, -math.inf, 0.0]),
            "c": np.full(8, third),
            "flag": np.arange(8) % 2 == 0,
            "note": np.array([None, "x", None, "y, z", None, None, "w", None], dtype=object),
            "d": np.array([-0.0, -0.0, math.nan, math.nan, 2.5, 2.5, -2.5, 2.5]),
            # a coordinate column shares huge values with "b"
            "lambda_x": np.array([beyond, 1e300, third, math.inf, -beyond, -0.0, math.nan, 0.0]),
        }
        columns = ["c", "a", "flag", "missing", "b", "note", "d", "lambda_x"]
        out = io.StringIO()
        cli.write_output(table, columns, "csv", out, {"command": "test"})
        expected = reference_output(table, columns, "csv", {"command": "test"})
        assert_same_text(out.getvalue(), expected)
        assert expected.splitlines()[1] == "0.33333333333333331,-0,true,,0,,-0,1000000.0000000001"
        assert expected.splitlines()[3].endswith(",1000000.0000000001,,,0.33333333333333331")
        assert expected.splitlines()[6].endswith(",inf,,2.5,-0")


class TestParserOncePerProcess:
    def test_cached_parser_gives_same_output(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"y": 0.3}))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format": "xml"}))
        # (exit code, command line); the parser rejects the bad config value
        commands = [
            (0, ["sweep", "--x", "0:2:3", "--y", "0:2:3"]),
            (0, ["slice", "--x", "0:2:3", "--y", "0.5"]),
            (0, ["oracle-compare", "--lambda-x", "1.5", "--lambda-y", "0.5",
                 "--j", "2", "--n-max", "2"]),
            (0, ["slice", "--config", str(cfg), "--x", "0:1:3"]),
            (2, ["sweep", "--config", str(bad), "--x", "0:1:2", "--y", "0:1:2"]),
            (0, ["sweep", "--x", "0:2:3", "--y", "0:2:3"]),
        ]

        def run(code, argv):
            if code == 2:
                with pytest.raises(SystemExit) as exc:
                    main(argv)
                assert exc.value.code == 2
            else:
                assert main(argv) == code
            captured = capsys.readouterr()
            return captured.out, captured.err

        fresh = []
        for code, argv in commands:
            cli._build_parser.cache_clear()
            fresh.append(run(code, argv))
        cli._build_parser.cache_clear()
        cached = [run(code, argv) for code, argv in commands]
        assert cached == fresh
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, len(commands) - 1)


#: omega = omega0 = scale multiplies lambda_c and every gap by scale and
#: changes nothing else.
SCALES = [1e-11, 1e-100, 1e100, 1e-200, 1e200]
SCALED_GRID = ((0.0, 2.0, 9), (0.0, 2.0, 9))

#: Seeded points in units of lambda_c, one per phase and one on the critical
#: line lambda_x = lambda_c (sigma_3 = 0), and the exponents k of the scales
#: s = 4^k, |k| <= 500, under which (omega, omega0) -> s (omega, omega0)
#: changes no output byte but the gaps' (which are in the unit of omega
#: itself).
_RNG = np.random.default_rng(4)
SCALE_FREE_POINTS = {
    "normal": _RNG.uniform(0.0, 0.95, 2).tolist(),
    "superradiant-x": [_RNG.uniform(1.05, 3.0), _RNG.uniform(0.0, 1.0)],
    "superradiant-y": [_RNG.uniform(0.0, 1.0), _RNG.uniform(1.05, 3.0)],
    "critical": [1.0, _RNG.uniform(0.0, 0.95)],
}
SCALE_EXPONENTS = [-500, -300, -250, -163, -8, -1, 1, 29, 250, 300, 500]
GAP_COLUMNS = cli.GROUP_COLUMNS["gaps"]


def scaled_output(ratio, k, argv):
    """CSV rows of argv run at omega = ratio 4^k and omega0 = 4^k, gap columns dropped."""
    scale = math.ldexp(1.0, 2 * k)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([*argv, "--omega", repr(ratio * scale), "--omega0", repr(scale)]) == 0
    return [{c: v for c, v in row.items() if c not in GAP_COLUMNS}
            for row in csv.DictReader(io.StringIO(out.getvalue()))]


@pytest.mark.filterwarnings("error")
class TestExtremeScales:
    # lambda_c = sqrt(omega omega0) leaves the floats at 1e-200 and 1e200
    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-150, 1e-80, 1e80, 1e150, 1e200, 1e300])
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
        # e_gs / omega overflows to -inf
        ["sweep", "--omega", "1e-160", "--omega0", "1e160", "--x", "0:2:3", "--y", "0:0:1"],
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

    def test_overflowing_sigma_3_is_diverged(self, capsys):
        # pivot_V pivot_T overflows at (2, 0) while L_V^T L_T is finite
        assert main(["sweep", "--omega", "1e-300", "--omega0", "1e8", "--x", "0:2:3",
                     "--y", "0:0:1", "--quantities", "gaps,mi"]) == 0
        row = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))[-1]
        assert (row["lambda_x"], row["lambda_y"]) == ("2", "0")
        assert row["nu_1"] == row["nu_2"] == row["nu_3"] == "" and row["diverged"] == "true"

    @pytest.mark.parametrize("argv, solved", [
        # the factorization overflows, so no finite-size solve runs
        (["--lambda-x", "1e300", "--lambda-y", "0", "--j", "1"], False),
        # sigma_3 overflows, so no finite-size solve runs
        (["--omega", "1e-300", "--omega0", "1e8", "--lambda-x", "2", "--lambda-y", "0",
          "--j", "20"], False),
        # the absolute H leaves the floats here, but H in units of lambda_c is
        # finite: the solve runs, and only the analytic CM is missing
        (["--omega", "1e308", "--omega0", "1", "--lambda-x", "1.5", "--lambda-y", "0.5",
          "--j", "1"], True),
        (["--omega", "1e4", "--omega0", "1e304", "--lambda-x", "50", "--lambda-y", "3",
          "--j", "20"], True),
        # H in fluctuation form holds no condensate term dx^2, which overflowed
        # here at j = 300: the solve runs
        (["--omega", "1e-306", "--omega0", "1", "--lambda-x", "1.5", "--lambda-y", "0.5",
          "--j", "300"], True),
    ])
    def test_oracle_compare_writes_its_row(self, argv, solved, capsys):
        code = main(["oracle-compare", *argv, "--n-max", "2"])
        (row,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
        assert float(row["lambda_x"]) == float(argv[argv.index("--lambda-x") + 1])
        assert row["diverged"] == "true" and row["error"] == ""
        assert (row["e0_per_spin"] != "", row["converged"] != "") == (solved, solved)
        assert code == 0

    @pytest.mark.parametrize("command, cells", [
        # every finite value is written as itself: e_gs = -(omega0 / 2)(x^2 + x^-2)
        ("sweep --omega 1 --omega0 1e8 --x 2:2:1 --y 0:0:1 --quantities energy",
         {"e_gs": "-212500000"}),
        # lambda_c = rho omega0 = 1e-200 where omega omega0 underflows: the gaps
        # at (0, 0) are lambda_c
        ("sweep --omega 1e-200 --omega0 1e-200 --x 0:2:3 --y 0:0:1 --quantities gaps",
         {"lambda_x": "0", "lambda_y": "0", "nu_1": format(1e-200, ".17g")}),
        # the gap floor is relative to lambda_c: this normal-phase point is not diverged
        ("sweep --omega 1e-11 --omega0 1e-11 --x 0.5:0.5:1 --y 0.3:0.3:1",
         {"diverged": "false"}),
    ], ids=["e_gs-unclipped", "gaps-at-tiny-lambda_c", "relative-gap-floor"])
    def test_sweep_writes_cells(self, command, cells, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(command.split() + ["--out", str(out)]) == 0
        with open(out, newline="") as fh:
            written = next(csv.DictReader(fh))
        assert {c: written[c] for c in cells} == cells

    def test_oracle_compare_bytes_unchanged_at_4_to_the_minus_8(self, tmp_path):
        # the oracle solves H in units of lambda_c: scaling omega and omega0 by
        # 4^-8 = 1.52587890625e-05 changes no byte
        argv = ["oracle-compare", "--lambda-x", "1.5", "--lambda-y", "0.5", "--j", "2,4",
                "--n-max", "4"]
        ref, scaled = tmp_path / "ref.csv", tmp_path / "scaled.csv"
        assert main(argv + ["--out", str(ref)]) == 0
        assert main(argv + ["--omega", "1.52587890625e-05", "--omega0", "1.52587890625e-05",
                            "--out", str(scaled)]) == 0
        assert scaled.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("k", SCALE_EXPONENTS)
    @pytest.mark.parametrize("ratio", [0.01, 1.0, 37.0])
    def test_library_is_scale_free(self, ratio, k):
        # (omega, omega0, lambda_x, lambda_y) -> 4^k (...): lambda_c = rho omega0
        # scales exactly, so the per-point functions scale or stay put bitwise
        scale = math.ldexp(1.0, 2 * k)
        base = model.ModelParams(ratio, 1.0)
        for phase, (lx, ly) in SCALE_FREE_POINTS.items():
            p = base.with_couplings(lx * base.lambda_c, ly * base.lambda_c)
            q = model.ModelParams(*(scale * v for v in (p.omega, p.omega0, p.lambda_x, p.lambda_y)))
            gs, gs_q = model.classical_ground_state(p), model.classical_ground_state(q)
            assert gs_q == dataclasses.replace(gs, energy=scale * gs.energy), phase
            assert model.ground_state_energy(q) == scale * model.ground_state_energy(p), phase
            nu = model.excitation_gaps(p)
            assert model.excitation_gaps(q) == tuple(scale * v for v in nu), phase
            np.testing.assert_array_equal(model.fluctuation_matrix(q),
                                          scale * model.fluctuation_matrix(p), err_msg=phase)
            if phase == "critical":
                for point in (p, q):
                    with pytest.raises(NearSingularError):
                        model.ground_state_cm(point)
            else:
                np.testing.assert_array_equal(model.ground_state_cm(q),
                                              model.ground_state_cm(p), err_msg=phase)

    @pytest.mark.parametrize("k", SCALE_EXPONENTS)
    @pytest.mark.parametrize("ratio", [0.01, 1.0, 37.0])
    def test_output_is_scale_free(self, ratio, k):
        grid = ["sweep", "--x", "0:3:13", "--y", "0:3:13", "--quantities", "all"]
        assert scaled_output(ratio, k, grid) == scaled_output(ratio, 0, grid)
        for phase, (lx, ly) in SCALE_FREE_POINTS.items():
            argv = ["oracle-compare", "--lambda-x", repr(lx), "--lambda-y", repr(ly),
                    "--j", "1,2.5", "--n-max", "3"]
            rows = scaled_output(ratio, k, argv)
            assert rows == scaled_output(ratio, 0, argv), phase
            assert all(row["e0_per_spin"] != "" and row["error"] == "" for row in rows), phase
        # the gaps are in the unit of omega itself: scaled exactly by 4^k
        ref = run_sweep(ratio, 1.0, (0.0, 3.0, 13), (0.0, 3.0, 13), ["gaps"], EPSILON)
        scale = math.ldexp(1.0, 2 * k)
        table = run_sweep(ratio * scale, scale, (0.0, 3.0, 13), (0.0, 3.0, 13), ["gaps"], EPSILON)
        for col in GAP_COLUMNS:
            np.testing.assert_array_equal(table[col], scale * ref[col], err_msg=col)

    def test_oracle_compare_resolves_at_omega_over_omega0_1e_minus_8(self, capsys):
        # the warm n_max + 2 re-solve stagnated here just above its residual
        # bound and raised; it now stops once its energy is resolved
        assert main(["oracle-compare", "--omega", "1e-8", "--lambda-x", "0.5", "--lambda-y", "0.3",
                     "--j", "20", "--n-max", "6"]) == 0
        (row,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
        assert row["error"] == "" and row["diverged"] == "false"
        # the energies are those of H_fl, not rounded at the scale of j e_gs
        assert float(row["resolve_de"]) <= math.ulp(float(row["e0_per_spin"])) / 8

    @pytest.mark.parametrize("argv, resolve_de", [
        (["--omega", "1e-7", "--lambda-x", "0.3", "--lambda-y", "0.8", "--j", "3",
          "--n-max", "5"], 8.078e-5),
        (["--omega", "0.0007542600574062459", "--omega0", "5934.298172806561", "--lambda-x",
          "1.361995205069325", "--lambda-y", "1.3697425556364569", "--j", "3.5",
          "--n-max", "4"], 8.005e-3),
        (["--omega", "0.00011361126854999052", "--omega0", "7776.374221452159", "--lambda-x",
          "16.876315628273293", "--lambda-y", "1.6260508072713546", "--j", "1",
          "--n-max", "1"], 0.2034),
    ], ids=["normal", "superradiant", "deep-superradiant"])
    def test_oracle_compare_solves_where_the_residual_stalls(self, argv, resolve_de, capsys):
        # the gap is 1e-10 to 1e-7 of the extensive energy here, at which the
        # residual of H with j e_gs inside its factors stalled
        assert main(["oracle-compare", *argv]) == 0
        (row,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
        assert row["error"] == "" and row["diverged"] == "false" and row["e0_per_spin"] != ""
        assert float(row["resolve_de"]) == pytest.approx(resolve_de, rel=1e-3)

    def test_oracle_compare_solves_the_deep_superradiant_corner(self, monkeypatch):
        # omega / omega0 in [1e-8, 1e-5] and both couplings in [1, 20] lambda_c:
        # with j e_gs inside the factors of H the Davidson residual stalled at
        # its rounding, solves ran up to MAX_ITERATIONS matvecs and some rows
        # were diverged
        counts = []
        hamiltonian = oracle._hamiltonian

        def counted_hamiltonian(*args):
            apply, *rest = hamiltonian(*args)
            counted_apply, count = counted(apply)
            counts.append(count)
            return counted_apply, *rest

        monkeypatch.setattr(oracle, "_hamiltonian", counted_hamiltonian)
        rng = np.random.default_rng(5)
        unsolved = []
        for _ in range(100):
            ratio = 10.0 ** rng.uniform(-8.0, -5.0)
            lx, ly = 10.0 ** rng.uniform(0.0, math.log10(20.0), 2)
            spec = oracle.TruncationSpec(j=rng.integers(1, 12) / 2, n_max=int(rng.integers(1, 7)))
            table = cli.run_oracle_compare(ratio, 1.0, lx, ly, [spec])
            if table["diverged"][0] or table["resolve_de"][0] is None:
                unsolved.append((ratio, lx, ly))
        assert max(count[0] for count in counts) <= 200
        assert not unsolved and len(counts) == 200

    def test_oracle_compare_solves_the_found_input(self, capsys):
        # the n_max solve here raised after MAX_ITERATIONS matvecs, a diverged
        # row; at 15 lambda_c and n_max = 6 the truncation is real, so
        # converged is false
        assert main(["oracle-compare", "--omega", "0.0001437210635475182", "--omega0",
                     "2253.1386507871866", "--lambda-x", "15.153259928263655", "--lambda-y",
                     "15.153262908746143", "--j", "1", "--n-max", "6"]) == 0
        (row,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
        assert row["diverged"] == "false" and row["converged"] == "false"
        assert float(row["e0_per_spin"]) == pytest.approx(-1799973698.06, rel=1e-11)
        assert float(row["resolve_de"]) == pytest.approx(0.0176, rel=1e-2)

    @pytest.mark.parametrize("argv, converged", [
        # resolve_de falls with n_max, from truncation to 5e-12, where one ulp of
        # e0_per_spin (about -1e8) is 1.5e-8
        (["--omega", "1e-8", "--lambda-x", "0.5", "--lambda-y", "0.3", "--j", "20",
          "--n-max", "6"], False),
        (["--omega", "1e-8", "--lambda-x", "0.5", "--lambda-y", "0.3", "--j", "20",
          "--n-max", "10"], True),
        (["--omega", "1e-8", "--lambda-x", "0.5", "--lambda-y", "0.3", "--j", "20",
          "--n-max", "16"], True),
        (["--omega", "1e-8", "--lambda-x", "0.5", "--lambda-y", "0.3", "--j", "20",
          "--n-max", "24"], True),
        # a truncation error of 7e-7 that rounding at the scale of j e_gs hid
        (["--omega", "0.0005177649336205972", "--omega0", "7449.118440147279", "--lambda-x",
          "0.05506733969610643", "--lambda-y", "14.053638090423949", "--j", "3",
          "--n-max", "4"], False),
    ], ids=["1e-8-n6", "1e-8-n10", "1e-8-n16", "1e-8-n24", "superradiant-y"])
    def test_oracle_compare_converged_reads_the_truncation(self, argv, converged, capsys):
        assert main(["oracle-compare", *argv]) == 0
        (row,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
        assert row["converged"] == ("true" if converged else "false")

    def oracle_rows(self, capsys, *argv):
        assert main(["oracle-compare", *argv, "--lambda-x", "1.5", "--lambda-y", "0.5",
                     "--j", "1", "--n-max", "2"]) == 0
        return list(csv.DictReader(io.StringIO(capsys.readouterr().out)))

    def test_oracle_compare_where_lambda_c_is_tiny(self, capsys):
        # lambda_c = 1e-200: the solve is that of omega = omega0 = 1
        (row,) = self.oracle_rows(capsys, "--omega", "1e-200", "--omega0", "1e-200")
        (ref,) = self.oracle_rows(capsys)
        for col in ("e0_per_spin", "cm_max_dev", "converged", "resolve_de", "diverged", "error"):
            assert row[col] == ref[col], col
        assert float(row["e_gs_analytic"]) == pytest.approx(float(ref["e_gs_analytic"]),
                                                            rel=1e-15)

    @pytest.mark.parametrize("omega, omega0", [("1e-28", "1e-68"), ("1", "1e-40")])
    def test_oracle_compare_at_omega_over_omega0_1e40(self, omega, omega0, capsys):
        (row,) = self.oracle_rows(capsys, "--omega", omega, "--omega0", omega0)
        assert row["error"] == "" and row["e0_per_spin"] != ""
        e0, e_gs = float(row["e0_per_spin"]), float(row["e_gs_analytic"])
        assert abs(e0 - e_gs) < 1e-3 * abs(e_gs)


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
        # reaches -5e6, written as itself; lambda_x = 1 is critical, x = y > 1
        # offset.
        # 101 x 21 points span two blocks.
        omega, omega0, x_range, y_range = 1.0, 1e3, (0.0, 100.0, 101), (0.0, 100.0, 21)
        groups = list(cli.GROUP_ORDER)
        table = run_sweep(omega, omega0, x_range, y_range, groups, 1e-6)
        assert table["lambda_x"].size > cli.BLOCK_POINTS
        assert table["diverged"].any() and table["goldstone_offset"].any()
        assert (table["e_gs"] < -1e6).any() and np.isfinite(table["e_gs"]).all()
        out = tmp_path / f"sweep.{fmt}"
        assert main(["sweep", "--omega", "1", "--omega0", "1000", "--x", "0:100:101",
                     "--y", "0:100:21", "--format", fmt, "--out", str(out)]) == 0
        text = out.read_text()
        config = json.loads(text)["config"] if fmt == "json" else None
        expected = reference_output(table, sweep_columns(groups), fmt, config)
        assert "inf" not in expected
        assert_same_text(text, expected)


    @pytest.mark.parametrize("command", [
        "sweep --omega 0.05 --omega0 20 --x 0:100:17 --y 0:100:17",
        "sweep --x 0:1e300:3 --y 0:2:2",
        "sweep --omega 1e80 --omega0 1e80 --x 0:2:3 --y 0:2:3",
        "sweep --omega 1e-300 --omega0 1e8 --x 0:2:3 --y 0:0:1 --quantities gaps,mi",
        "sweep --omega 1 --omega0 1e8 --x 2:2:1 --y 0:0:1 --quantities energy",
        "sweep --omega 1e-200 --omega0 1e-200 --x 0:2:3 --y 0:0:1 --quantities gaps",
        "sweep --omega 1e-11 --omega0 1e-11 --x 0.5:0.5:1 --y 0.3:0.3:1",
    ])
    def test_float_cells_are_percent_17g_of_run_sweep(self, command, tmp_path):
        # every float cell is format(v, ".17g") of the same cell of run_sweep
        # (NaN empty), on a plane-wide grid and extreme-scale sweeps; a
        # round-trip check alone would pass a wrong 17th digit, since any
        # "%.17g" string is its own round-trip
        argv = command.split()
        out = tmp_path / "sweep.csv"
        assert main(argv + ["--out", str(out)]) == 0
        args = cli._parse_args(argv)
        table = run_sweep(args.omega, args.omega0, args.x, args.y, args.quantities,
                          args.goldstone_epsilon)
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        floats = [c for c in table if table[c].dtype.kind == "f"]
        assert len(rows) == table["lambda_x"].size and len(floats) > 2, command
        for c in floats:
            want = ["" if math.isnan(v) else format(v, ".17g") for v in table[c].tolist()]
            assert [row[c] for row in rows] == want, c


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
        "oracle-compare": ({"lambda_x": 1.5, "lambda_y": 0.5}, ["--j", "2,4", "--n-max", "4"]),
        "slice": ({"y": 0.3}, ["--x", "0:1:3"]),
    }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", list(REQUIRED))
    def test_required_option_from_config(self, command, fmt, tmp_path, capsys):
        values, rest = self.REQUIRED[command]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        rest = rest + ["--format", fmt]
        assert main([command] + flags_of(values) + rest) == 0
        by_flag = capsys.readouterr().out
        assert main([command, "--config", str(cfg)] + rest) == 0
        assert capsys.readouterr().out == by_flag

    @pytest.mark.parametrize("command", list(REQUIRED))
    def test_flag_overrides_required_config_value(self, command, tmp_path, capsys):
        values, rest = self.REQUIRED[command]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        key = list(values)[-1]
        flags = flags_of(values | {key: 0.1})
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


def flags_of(values: dict) -> list[str]:
    """The command-line flags that give the options of ``values`` (keys as in a config file)."""
    return [a for k, v in values.items() for a in (f"--{k.replace('_', '-')}", str(v))]


def json_value(text: str):
    """text as a config file value: a JSON number where it reads as one, else a string."""
    try:
        return json.loads(text)
    except ValueError:
        return text


#: Small runs, so that input that is wrongly accepted runs quickly.
SMALL = {"sweep": {"x": "0:1:2", "y": "0:1:2"},
         "slice": {"x": "0:1:2", "y": "0.5"},
         "oracle-compare": {"lambda_x": "0", "lambda_y": "0", "j": "2", "n_max": "2"}}

#: Option values rejected both as flags and as the values of a config file
#: (numbers there as JSON numbers); stderr names the first option.
BAD_VALUES = [
    "sweep --x nope --threads 1",
    "sweep --quantities nope --threads 1",
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
]

#: Config files rejected for their form or for a value: (command, file text,
#: what stderr names).
BAD_CONFIGS = [
    ("sweep", '{"bogus": 1}', "bogus"),
    ("sweep", "[1]", "--config"),
    ("sweep", '{"omega": [1]}', "omega"),
    ("sweep", '{"quantities": ["mi"]}', "quantities"),
    ("sweep", '{"goldstone_epsilon": [0.1]}', "goldstone_epsilon"),
    ("sweep", '{"format": "xml"}', "--format"),
    ("oracle-compare", '{"n_max": 2.5}', "--n-max"),
    ("oracle-compare", '{"j": "1.3"}', "--j"),
    ("sweep", '{"omega": true}', "omega"),
]


def _rejected_inputs():
    """(command, option values given as flags, config file text or None, what
    stderr names) for each rejected input."""
    cases = []
    for line in BAD_VALUES:
        command, *words = line.split()
        values = {w[2:].replace("-", "_"): v for w, v in zip(words[::2], words[1::2])}
        cases.append(pytest.param(command, values, None, words[0], id=line))
        config = json.dumps({k: json_value(v) for k, v in values.items()})
        cases.append(pytest.param(command, {}, config, words[0], id=f"{command} {config}"))
    cases += [pytest.param(command, {}, config, named, id=f"{command} {config}")
              for command, config, named in BAD_CONFIGS]
    cases.append(pytest.param("sweep", {"config": "/nonexistent.json"}, None, "--config",
                              id="sweep --config /nonexistent.json"))
    return cases


class TestErrors:
    @pytest.mark.parametrize("command, values, config, named", _rejected_inputs())
    def test_rejected_input_exits_2(self, command, values, config, named, tmp_path, capsys):
        """The parser rejects bad input: SystemExit(2), nothing on stdout and its
        message, naming the option, on stderr.  A config file sets the options
        of the small run that it names."""
        argv = [command]
        small = SMALL[command]
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(config)
            argv += ["--config", str(cfg)]
            keys = json.loads(config)
            small = {k: v for k, v in small.items() if not (isinstance(keys, dict) and k in keys)}
        with pytest.raises(SystemExit) as exc:
            main(argv + flags_of(small) + flags_of(values))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: " in captured.err and named in captured.err, captured.err

    def test_row_errors_exit_3(self, monkeypatch, capsys):
        def fake_sweep(*args, **kwargs):
            return {"lambda_x": np.zeros(1), "lambda_y": np.zeros(1),
                    "goldstone_offset": np.zeros(1, dtype=bool),
                    "diverged": np.zeros(1, dtype=bool), "error": np.array(["Boom"], dtype=object)}
        monkeypatch.setattr(cli, "run_sweep", fake_sweep)
        assert main(["sweep", "--x", "0:1:2", "--y", "0:1:2", "--threads", "1"]) == 3


#: oracle-compare --j 2,5 --n-max 6 rows (e0_per_spin, abs_de, cm_max_dev,
#: converged, diverged) at (omega, omega0, lambda_x, lambda_y), as computed
#: with the complex Hamiltonian and ARPACK's complex Arnoldi driver, with the
#: absolute field 1e-4.  converged is the rule resolve_de j < CONVERGENCE_TOL
#: with resolve_de in units of omega, as written.
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
        (-10.016406162314867, 0.016406162314867245, 0.0013559467784719503, False, False),
    ]),
    ((0.1, 1.0, 1.5, 0.5), [
        (-13.516199044597, 0.04397682237477696, 0.005541788354428534, False, False),
        (-13.49054579024151, 0.01832356801928725, 0.0020701383539041274, False, False),
    ]),
    ((0.1, 1.0, 0.5, 1.5), [
        (-13.516199044596991, 0.043976822374768076, 0.0055417883544292, False, False),
        (-13.490545790241558, 0.018323568019335212, 0.0020701383539052376, False, False),
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
        # converged is the rule on resolve_de as written, in units of omega
        for omega in ("1", "0.1", "10"):
            assert main(["oracle-compare", "--omega", omega, "--lambda-x", "0.5",
                         "--lambda-y", "0.3", "--j", "2,5", "--n-max", "6",
                         "--format", "json"]) == 0
            for r in json.loads(capsys.readouterr().out)["rows"]:
                assert r["resolve_de"] >= 0.0
                assert r["converged"] == (r["resolve_de"] * r["j"] < oracle.CONVERGENCE_TOL)

    def test_resolve_de_in_units_of_omega(self, capsys):
        code = main(["oracle-compare", "--omega", "0.5", "--lambda-x", "1.5", "--lambda-y", "0.5",
                     "--j", "2", "--n-max", "4", "--format", "json"])
        assert code == 0
        row = json.loads(capsys.readouterr().out)["rows"][0]
        # the result's energies are in units of omega: those of the point
        # scaled by 2, where omega = 1 and they are absolute
        spec = oracle.TruncationSpec(j=2, n_max=4)
        for scale in (1.0, 2.0):
            p = model.ModelParams(0.5 * scale, scale, 1.5 * math.sqrt(0.5) * scale,
                                  0.5 * math.sqrt(0.5) * scale)
            res = oracle.exact_ground_state(p, spec)
            assert (row["resolve_de"], row["e0_per_spin"]) == (res.resolve_de,
                                                               res.energy_per_spin)

    def test_resolve_de_empty_without_resolve(self, monkeypatch, capsys):
        monkeypatch.setattr(oracle, "DIMENSION_BUDGET", oracle.TruncationSpec(j=2, n_max=2).dimension)
        assert main(["oracle-compare", "--lambda-x", "0.5", "--lambda-y", "0.3",
                     "--j", "2", "--n-max", "2"]) == 0
        row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert row["resolve_de"] == "" and row["converged"] == "false"

    @pytest.mark.parametrize("point,rows", PINNED_ORACLE_ROWS)
    def test_rows_match_pinned_values(self, point, rows, monkeypatch, capsys):
        omega, omega0, lx, ly = point
        # the absolute field of the pinned rows, in the units of lambda_c the oracle solves in
        monkeypatch.setattr(oracle, "SYMMETRY_BREAKING_FIELD", 1e-4 / math.sqrt(omega * omega0))
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

    @pytest.mark.parametrize("error", [NumericalFailureError, OverflowError])
    def test_failed_solve_is_a_diverged_row(self, error, monkeypatch, capsys):
        # no input with finite gaps is known to overflow a factor of H, so the
        # OverflowError of exact_ground_state is raised here by hand
        def fail(*args, **kwargs):
            raise error("failed")
        monkeypatch.setattr(oracle, "exact_ground_state", fail)
        assert main(["oracle-compare", "--lambda-x", "0.5", "--lambda-y", "0.3",
                     "--j", "2", "--n-max", "2"]) == 0
        (row,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
        assert row["error"] == "" and row["diverged"] == "true"
        for col in ("e0_per_spin", "abs_de", "cm_max_dev", "converged", "resolve_de"):
            assert row[col] == "", col

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("boom")
        monkeypatch.setattr(oracle, "exact_ground_state", broken)
        with pytest.raises(RuntimeError, match="boom"):
            main(["oracle-compare", "--lambda-x", "0.5", "--lambda-y", "0.3",
                  "--j", "2", "--n-max", "2"])

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

    @pytest.mark.parametrize("x, y", [(0.5, 1.5), (0.3, 0.5)])
    def test_mirror_rows_write_equal_cells(self, x, y, tmp_path):
        # a point with lambda_y > lambda_x, superradiant-y or normal, is solved
        # and measured as the x <-> y mirror image of its twin
        def rows(lx, ly):
            out = tmp_path / f"{lx}-{ly}.csv"
            assert main(["oracle-compare", "--omega", "0.1", "--lambda-x", repr(lx),
                         "--lambda-y", repr(ly), "--j", "2,4", "--n-max", "4",
                         "--out", str(out)]) == 0
            with open(out, newline="") as fh:
                return list(csv.DictReader(fh))

        y_rows, x_rows = rows(x, y), rows(y, x)
        assert len(y_rows) == len(x_rows) == 2
        for ry, rx in zip(y_rows, x_rows):
            for col in ("e0_per_spin", "abs_de", "cm_max_dev", "converged", "resolve_de"):
                assert ry[col] == rx[col], (col, ry[col], rx[col])

    @pytest.mark.parametrize("command", [
        "oracle-compare --lambda-x 0.5 --lambda-y 0.3 --j 2,4 --n-max 4",
        "oracle-compare --lambda-x 1.5 --lambda-y 0.5 --j 2,4 --n-max 4",
        "oracle-compare --lambda-x 0.5 --lambda-y 1.5 --j 2,4 --n-max 4",
        "oracle-compare --omega 0.1 --lambda-x 1.5 --lambda-y 0.5 --j 2,4 --n-max 4",
        "oracle-compare --omega0 0.1 --lambda-x 1.5 --lambda-y 0.5 --j 2,4 --n-max 4",
        "sweep --x 0:2:3 --y 0:2:3 --quantities all",
    ])
    def test_python_dash_m_exits_0(self, command):
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-m", "twomode_dicke", *command.split()],
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

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
            "_, nu = symplectic.williamson(np.diag([1.0, 1.0, 4.0, 4.0]))\n"
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
