"""Seeded inputs of the benchmark workloads.

A workload is a list of command lines for ``twomode_dicke.cli.main``; one
repetition of the workload runs all of them, in order, in one fresh process.
The command lines depend only on the workload name and the seed, and they are
all the program receives.  The ``--out`` path is appended by run.py.
"""

from __future__ import annotations

import random

#: Why each workload is in the benchmark (also copied into BENCHMARK.json).
WHY = {
    "plane-all": "canonical 101x101 plane, all quantities, default process pool:"
                 " every analytic layer plus pool and CSV output",
    "plane-wide": "seeded (omega, omega0) pairs over four decades, couplings to"
                  " 100 lambda_c, single-threaded: ill-conditioned inputs where rows fail",
    "oracle": "finite-j exact diagonalization at a seeded superradiant-x point;"
              " bypasses every sweep layer",
}

#: plane-wide: the log10 square [-2, 2]^2 of (omega, omega0) is cut into
#: CELLS x CELLS cells and one log-uniform pair is drawn in each.  Stratifying
#: keeps the mix of regimes, and so the run time and the failure share, close
#: to the same for every seed while each pair still moves with the seed.
PLANE_WIDE_CELLS = 4
PLANE_WIDE_LOG10_RANGE = (-2.0, 2.0)
PLANE_WIDE_GRID = "0:100:17"

#: oracle: seed 0 is the canonical point (1.5, 0.5) lambda_c of the ROADMAP
#: baselines; any other seed moves it uniformly by up to ORACLE_JITTER on each
#: axis, which stays inside the superradiant-x phase and clear of the critical
#: lines lambda_x = 1 and lambda_x = lambda_y.
ORACLE_POINT = (1.5, 0.5)
ORACLE_JITTER = 0.1
ORACLE_SIZES = "5,10,20"
ORACLE_N_MAX = "10"


def plane_all(seed: int) -> list[list[str]]:
    del seed  # the canonical plane does not depend on the seed
    return [["sweep", "--omega", "1", "--omega0", "1", "--x", "0:2:101",
             "--y", "0:2:101", "--quantities", "all"]]


def plane_wide_pairs(seed: int) -> list[tuple[float, float]]:
    rng = random.Random(f"plane-wide/{seed}")
    lo, hi = PLANE_WIDE_LOG10_RANGE
    width = (hi - lo) / PLANE_WIDE_CELLS
    pairs = []
    for i in range(PLANE_WIDE_CELLS):
        for k in range(PLANE_WIDE_CELLS):
            log_w = lo + width * (i + rng.random())
            log_w0 = lo + width * (k + rng.random())
            pairs.append((10.0 ** log_w, 10.0 ** log_w0))
    return pairs


def plane_wide(seed: int) -> list[list[str]]:
    return [["sweep", "--omega", repr(w), "--omega0", repr(w0),
             "--x", PLANE_WIDE_GRID, "--y", PLANE_WIDE_GRID,
             "--quantities", "all", "--threads", "1"]
            for w, w0 in plane_wide_pairs(seed)]


def oracle_point(seed: int) -> tuple[float, float]:
    lx, ly = ORACLE_POINT
    if seed == 0:
        return lx, ly
    rng = random.Random(f"oracle/{seed}")
    return (lx + rng.uniform(-ORACLE_JITTER, ORACLE_JITTER),
            ly + rng.uniform(-ORACLE_JITTER, ORACLE_JITTER))


def oracle(seed: int) -> list[list[str]]:
    lx, ly = oracle_point(seed)
    return [["oracle-compare", "--omega", "1", "--omega0", "1",
             "--lambda-x", repr(lx), "--lambda-y", repr(ly),
             "--j", ORACLE_SIZES, "--n-max", ORACLE_N_MAX]]


WORKLOADS = {"plane-all": plane_all, "plane-wide": plane_wide, "oracle": oracle}


def generate(name: str, seed: int) -> list[list[str]]:
    """The command lines of one repetition of workload ``name``."""
    return WORKLOADS[name](seed)


def serial(argv: list[str]) -> list[str]:
    """The same command forced onto one process (traced runs)."""
    if argv[0] != "sweep":
        return list(argv)
    out = list(argv)
    if "--threads" in out:
        out[out.index("--threads") + 1] = "1"
    else:
        out += ["--threads", "1"]
    return out


def option(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def spin_lengths(argv: list[str]) -> list[float]:
    return [float(t) for t in option(argv, "--j").split(",")]


def hilbert_dimensions(argv: list[str]) -> list[int]:
    """(n_max + 1)^2 (2j + 1) for each j of an oracle-compare command."""
    n_max = int(option(argv, "--n-max"))
    return [(n_max + 1) ** 2 * (int(round(2.0 * j)) + 1) for j in spin_lengths(argv)]


def grid_counts(argv: list[str]) -> tuple[int, int]:
    return tuple(int(option(argv, flag).split(":")[2]) for flag in ("--x", "--y"))


def expected_rows(argv: list[str]) -> int:
    if argv[0] == "sweep":
        nx, ny = grid_counts(argv)
        return nx * ny
    return len(spin_lengths(argv))


def input_size(argv: list[str]) -> dict:
    if argv[0] == "sweep":
        return {"rows": expected_rows(argv)}
    return {"rows": expected_rows(argv), "hilbert_dimensions": hilbert_dimensions(argv)}
