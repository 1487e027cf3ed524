"""Self-tests of the benchmark, on tiny grids.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import FUNCTIONS, Tracer  # noqa: E402

from twomode_dicke import cli  # noqa: E402

TINY = ["sweep", "--x", "0:2:5", "--y", "0:2:5", "--quantities", "all", "--threads", "1"]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def tiny_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("sweep") / "tiny.csv"
    assert cli.main(TINY + ["--out", str(path)]) == 0
    return path.read_text()


def _edit(text, n, **cells):
    """Row n (0-based, after the header) with some cells replaced."""
    lines = text.splitlines()
    header = lines[0].split(",")
    values = lines[n + 1].split(",")
    for key, value in cells.items():
        values[header.index(key)] = value
    lines[n + 1] = ",".join(values)
    return "\n".join(lines) + "\n"


def test_clean_tiny_sweep_passes(tiny_csv):
    result = check.check(tiny_csv, TINY, 0)
    assert (result.expected, result.rows, result.failed) == (25, 25, 0)
    assert result.consistent
    assert result.rows_diverged == 5          # max(lambda_x, lambda_y) = 1 exactly
    assert result.rows_goldstone_offset == 2  # (1.5, 1.5) and (2, 2)


def test_planted_negative_residual_is_flagged(tiny_csv):
    result = check.check(_edit(tiny_csv, 6, tri_x_yj="-0.001"), TINY, 0)
    assert result.failed == 1 and result.reasons == {"negative monogamy residual": 1}


def test_planted_error_row_is_flagged(tiny_csv):
    text = _edit(tiny_csv, 6, error="RuntimeError: planted")
    result = check.check(text, TINY, 3)
    assert result.failed == 1 and result.reasons == {"error row": 1}
    assert result.consistent
    assert not check.check(text, TINY, 0).consistent  # exit 0 despite an error row


def test_missing_row_is_flagged(tiny_csv):
    text = "\n".join(tiny_csv.splitlines()[:-1]) + "\n"
    result = check.check(text, TINY, 0)
    assert result.failed == 1 and result.reasons == {"missing row": 1}


def test_crashed_command_fails_every_row(tiny_csv):
    result = check.check(tiny_csv, TINY, 1)
    assert result.failed == result.expected == 25


def test_other_planted_defects_are_flagged(tiny_csv):
    cases = {
        "MI additivity": {"mi_xy_j": "5"},
        "EoF outside [0, min(S_i, S_j)]": {"eof_x_y": "3"},
        "correlation value missing or not finite": {"s_x": ""},
        "diverged off the critical lines": {"diverged": "true"},
        "row out of place": {"lambda_y": "0.25"},
    }
    for reason, cells in cases.items():
        assert check.check(_edit(tiny_csv, 6, **cells), TINY, 0).reasons == {reason: 1}, reason


def test_mirror_asymmetry_is_flagged(tiny_csv):
    # rows are row-major in lambda_x: row 5 is (0.5, 0), the mirror of row 1 (0, 0.5)
    text = _edit(tiny_csv, 5, nu_1="1.25")
    assert check.check(text, TINY, 0).reasons == {"x<->y mirror asymmetry": 2}


def test_repetitions_count_each_row_once(tiny_csv):
    clean = check.check(tiny_csv, TINY, 0)
    planted = check.check(_edit(tiny_csv, 6, tri_x_yj="-0.001"), TINY, 0)
    same = check.over_repetitions([planted, planted, planted])
    assert (same.expected, same.failed, same.consistent) == (25, 1, True)
    assert same.reasons == {"negative monogamy residual": 1}
    mixed = check.over_repetitions([clean, planted, clean])
    assert (mixed.expected, mixed.failed) == (25, 1)
    assert mixed.reasons["repetitions disagree"] == 1


ORACLE_ARGV = ["oracle-compare", "--lambda-x", "1.5", "--lambda-y", "0.5",
               "--j", "5,10", "--n-max", "10"]
ORACLE_CSV = ("lambda_x,lambda_y,j,e0_per_spin,e_gs_analytic,abs_de,cm_max_dev,"
              "converged,diverged,error\n"
              "1.5,0.5,5,-1.359,-1.347,{0},0.0143,true,false,\n"
              "1.5,0.5,10,-1.353,-1.347,{1},0.0064,true,false,\n")


def test_oracle_deviation_must_shrink_with_j():
    assert check.check(ORACLE_CSV.format(0.012, 0.006), ORACLE_ARGV, 0).failed == 0
    grown = check.check(ORACLE_CSV.format(0.012, 0.013), ORACLE_ARGV, 0)
    assert grown.reasons == {"deviation from the analytic result does not shrink with j": 1}


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert all(workloads.WHY[w["name"]] == w["why"] for w in spec["workloads"])


def test_same_seed_gives_identical_inputs():
    for name in workloads.WORKLOADS:
        assert workloads.generate(name, 7) == workloads.generate(name, 7)


def test_other_seed_changes_plane_wide_inputs():
    assert workloads.generate("plane-wide", 7) != workloads.generate("plane-wide", 8)
    assert workloads.generate("oracle", 7) != workloads.generate("oracle", 8)
    assert workloads.generate("plane-all", 7) == workloads.generate("plane-all", 8)


def test_plane_wide_pairs_cover_every_cell_once():
    cells = workloads.PLANE_WIDE_CELLS
    pairs = workloads.plane_wide_pairs(3)
    assert len(pairs) == cells * cells
    lo, hi = workloads.PLANE_WIDE_LOG10_RANGE
    seen = {tuple(int((math.log10(v) - lo) / (hi - lo) * cells) for v in pair)
            for pair in pairs}
    assert seen == {(i, k) for i in range(cells) for k in range(cells)}


def test_oracle_point_stays_in_superradiant_x_phase():
    assert workloads.oracle_point(0) == (1.5, 0.5)
    for seed in range(1, 50):
        lx, ly = workloads.oracle_point(seed)
        assert 1.3 < lx < 1.7 and 0.3 < ly < 0.7


def test_tracer_counts_calls_and_self_time(tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main(TINY + ["--out", str(tmp_path / "t.csv")]) == 0
    finally:
        tracer.uninstall()
    stats = tracer.stats()
    assert set(stats) == set(FUNCTIONS)
    assert stats["cli.evaluate_point"]["calls"] == 25
    assert stats["cli.run_sweep"]["calls"] == stats["cli.write_output"]["calls"] == 1
    assert stats["model.ground_state_cm"]["raised"] == 5  # the diverged rows
    assert stats["symplectic.standard_form"]["calls"] == 25 - 5
    assert all(s["self_s"] >= 0.0 for s in stats.values())
    total = sum(s["self_s"] for s in stats.values())
    run_span = next(s for s in tracer.spans if s[0] == "cli.run_sweep")
    assert total <= (run_span[3] - run_span[2]) + stats["cli.write_output"]["self_s"] + 1e-6
    assert not hasattr(cli.evaluate_point, "__wrapped__")  # uninstalled
    tracer.write(str(tmp_path / "spans.jsonl.gz"))
    assert (tmp_path / "spans.jsonl.gz").stat().st_size > 0

