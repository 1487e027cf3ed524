"""Output check applied to every run of every workload.

Each expected row either passes or is counted as failed, with a reason.  A
row fails when it is missing, carries an ``error``, or breaks one of the
invariants below.  Tolerances are those of ``tests/test_acceptance.py``:

- MI additivity I(xy:j) = I(x:j) + I(y:j) to 1e-8 (criterion 4);
- monogamy residuals >= -1e-9 (criterion 5), the same slack for
  0 <= E(i:j) <= min(S_i, S_j);
- x<->y mirror symmetry on square grids to 1e-8, relative above 1;
- ``diverged`` only where max(lambda_x, lambda_y) = 1 exactly;
- oracle: no error rows, and abs_de and cm_max_dev strictly decreasing as j
  grows (criterion 10).

Separately, ``consistent`` is false when the output contradicts the CLI's
contract in a way no row count expresses: a written file without the
required columns, surplus rows, or an exit code of 3 without error rows (or
0 with them).
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from workloads import expected_rows, grid_counts, option, spin_lengths

ADDITIVITY_TOL = 1e-8
MONOGAMY_TOL = 1e-9
MIRROR_TOL = 1e-8

GAP_COLUMNS = ["nu_1", "nu_2", "nu_3", "e_gs"]
REPORT_COLUMNS = [
    "s_x", "s_y", "s_j", "s_xy", "s_xj", "s_yj",
    "mi_xy_j", "mi_xj_y", "mi_yj_x", "mi_x_y", "mi_x_j", "mi_y_j",
    "eof_x_j", "eof_y_j", "eof_x_y", "tri_x_yj", "tri_j_yx",
]
SWEEP_COLUMNS = (["lambda_x", "lambda_y", "goldstone_offset"] + GAP_COLUMNS
                 + REPORT_COLUMNS + ["diverged", "error"])
ORACLE_COLUMNS = ["lambda_x", "lambda_y", "j", "e0_per_spin", "e_gs_analytic",
                  "abs_de", "cm_max_dev", "converged", "diverged", "error"]

#: Each column's image under x <-> y.  tri_j_yx = S_x - E(x:j) - E(x:y) has
#: no mirror column and is not compared.
MIRROR = {c: c for c in GAP_COLUMNS + REPORT_COLUMNS if c != "tri_j_yx"}
for _a, _b in (("s_x", "s_y"), ("s_xj", "s_yj"), ("mi_xj_y", "mi_yj_x"),
               ("mi_x_j", "mi_y_j"), ("eof_x_j", "eof_y_j")):
    MIRROR[_a], MIRROR[_b] = _b, _a

#: Exit codes of the CLI: 0 success, 3 at least one error row.
OK_EXIT_CODES = (0, 3)


@dataclass
class CheckResult:
    expected: int = 0
    failed: int = 0
    consistent: bool = True
    reasons: Counter = field(default_factory=Counter)
    rows: int = 0
    rows_error: int = 0
    rows_diverged: int = 0
    rows_goldstone_offset: int = 0

    def fail(self, reason: str, count: int = 1) -> None:
        if count:
            self.failed += count
            self.reasons[reason] += count

    def merge(self, other: "CheckResult") -> None:
        self.expected += other.expected
        self.failed += other.failed
        self.consistent = self.consistent and other.consistent
        self.reasons.update(other.reasons)
        self.rows += other.rows
        self.rows_error += other.rows_error
        self.rows_diverged += other.rows_diverged
        self.rows_goldstone_offset += other.rows_goldstone_offset


def over_repetitions(checks: list[CheckResult]) -> CheckResult:
    """The verdict on a workload's rows when each repetition runs them all again.

    A row is one operation however often it runs: ``expected`` is the rows of
    one repetition and ``failed`` the most rows any repetition failed, so the
    counts depend on the inputs alone and not on how many repetitions fit in
    the run.  Repetitions that fail different numbers of rows (output that
    differs from run to run) are noted as a reason of their own.
    """
    verdict = CheckResult()
    verdict.merge(max(checks, key=lambda c: c.failed))
    verdict.consistent = all(c.consistent for c in checks)
    if len({c.failed for c in checks}) > 1:
        verdict.reasons["repetitions disagree"] += 1
    return verdict


def _value(cell: str) -> float:
    """A numeric CSV cell: a float, or the documented inf / -inf clip token."""
    if cell == "inf":
        return math.inf
    if cell == "-inf":
        return -math.inf
    value = float(cell)  # empty or malformed cells raise ValueError
    if not math.isfinite(value):
        raise ValueError(f"non-finite cell {cell!r}")
    return value


def _axis(spec: str) -> np.ndarray:
    lo, hi, count = spec.split(":")
    if int(count) == 1:
        return np.array([float(lo)])
    return np.linspace(float(lo), float(hi), int(count))


def _rows(text: str, required: list[str], result: CheckResult) -> list[dict]:
    """Parse the CSV, counting missing rows as failed and noting surplus ones."""
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None or not set(required) <= set(reader.fieldnames):
        result.consistent = False
        result.fail("no readable output", result.expected)
        return []
    rows = list(reader)
    if len(rows) > result.expected:
        result.consistent = False
        rows = rows[:result.expected]
    result.rows = len(rows)
    result.fail("missing row", result.expected - len(rows))
    return rows


def _close(a: float, b: float, tol: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _sweep_row_problem(row: dict) -> tuple[str | None, dict]:
    """First invariant a sweep row breaks (or None) and its parsed values."""
    if row["error"]:
        return "error row", {}
    lx, ly = float(row["lambda_x"]), float(row["lambda_y"])
    try:
        vals = {c: _value(row[c]) for c in GAP_COLUMNS}
    except ValueError:
        return "gap or energy value missing or not finite", {}
    if row["diverged"] == "true":
        if max(lx, ly) != 1.0:
            return "diverged off the critical lines", {}
        return None, {}
    try:
        vals.update({c: _value(row[c]) for c in REPORT_COLUMNS})
    except ValueError:
        return "correlation value missing or not finite", {}
    if not abs(vals["mi_xy_j"] - vals["mi_x_j"] - vals["mi_y_j"]) <= ADDITIVITY_TOL:
        return "MI additivity", vals
    if not min(vals["tri_x_yj"], vals["tri_j_yx"]) >= -MONOGAMY_TOL:
        return "negative monogamy residual", vals
    for a, b in (("x", "j"), ("y", "j"), ("x", "y")):
        e = vals[f"eof_{a}_{b}"]
        if not -MONOGAMY_TOL <= e <= min(vals[f"s_{a}"], vals[f"s_{b}"]) + MONOGAMY_TOL:
            return "EoF outside [0, min(S_i, S_j)]", vals
    return None, vals


def check_sweep(text: str, argv: list[str]) -> CheckResult:
    """Check the CSV that ``sweep`` wrote for command line ``argv``."""
    nx, ny = grid_counts(argv)
    result = CheckResult(expected=nx * ny)
    rows = _rows(text, SWEEP_COLUMNS, result)

    xs, ys = _axis(option(argv, "--x")), _axis(option(argv, "--y"))
    good: dict[tuple[int, int], dict] = {}
    for n, row in enumerate(rows):
        ix, iy = divmod(n, ny)
        result.rows_error += bool(row["error"])
        result.rows_diverged += row["diverged"] == "true"
        offset = row["goldstone_offset"] == "true"
        result.rows_goldstone_offset += offset
        try:
            placed = (float(row["lambda_x"]), float(row["lambda_y"])) == (xs[ix], ys[iy])
        except ValueError:
            placed = False
        if not placed:
            result.fail("row out of place")
            continue
        problem, vals = _sweep_row_problem(row)
        if problem:
            result.fail(problem)
        elif vals and not offset:
            good[ix, iy] = vals

    if option(argv, "--x") == option(argv, "--y"):
        for (ix, iy), vals in good.items():
            if ix == iy or (iy, ix) not in good:
                continue
            twin = good[iy, ix]
            if not all(_close(vals[c], twin[m], MIRROR_TOL) for c, m in MIRROR.items()):
                result.fail("x<->y mirror asymmetry")
    return result


def check_oracle(text: str, argv: list[str]) -> CheckResult:
    """Check the CSV that ``oracle-compare`` wrote for command line ``argv``."""
    sizes = spin_lengths(argv)
    result = CheckResult(expected=len(sizes))
    rows = _rows(text, ORACLE_COLUMNS, result)

    previous = None
    for row, j in zip(rows, sizes):
        result.rows_error += bool(row["error"])
        result.rows_diverged += row["diverged"] == "true"
        if row["error"]:
            result.fail("error row")
            previous = None
            continue
        try:
            if float(row["j"]) != j:
                raise ValueError("row out of place")
            devs = (_value(row["abs_de"]), _value(row["cm_max_dev"]))
            _value(row["e0_per_spin"])
        except ValueError:
            result.fail("oracle value missing, not finite or out of place")
            previous = None
            continue
        if row["diverged"] == "true":
            result.fail("oracle row diverged")
        elif previous is not None and not all(d < p for d, p in zip(devs, previous)):
            result.fail("deviation from the analytic result does not shrink with j")
        previous = devs
    return result


def check(text: str, argv: list[str], exit_code: int | None) -> CheckResult:
    """Check one command's output; ``text`` is empty when it wrote none.

    A command that crashed, was killed or exited with a code other than 0
    or 3 fails all its rows.
    """
    if exit_code not in OK_EXIT_CODES:
        result = CheckResult(expected=expected_rows(argv))
        result.fail(f"command exited with code {exit_code}", result.expected)
        return result
    result = check_sweep(text, argv) if argv[0] == "sweep" else check_oracle(text, argv)
    if (exit_code == 3) != (result.rows_error > 0):
        result.consistent = False
    return result
