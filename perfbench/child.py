"""One repetition of a workload in a fresh interpreter (started by run.py).

Protocol: the child imports ``twomode_dicke.cli`` from the checkout's
``src`` and prints ``ready``; set-up time ends there.  It then reads one JSON
job from stdin, runs ``cli.main(argv)`` for each command of the job, and
prints one JSON line with the wall time and exit code of each command, its
own peak RSS and, when asked, the environment or the trace statistics.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _blas() -> dict:
    """Build and run-time settings of the OpenBLAS libraries NumPy and SciPy loaded."""
    import ctypes
    import re

    import numpy as np
    import scipy

    info = {
        "numpy_blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"],
        "scipy_blas": scipy.show_config(mode="dicts")["Build Dependencies"]["blas"],
        "env": {k: os.environ.get(k) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "runtime_threads": {},
    }
    for key in ("numpy_blas", "scipy_blas"):
        info[key] = {k: info[key].get(k) for k in ("name", "version", "openblas configuration")}
    with open("/proc/self/maps") as fh:
        libs = sorted(set(re.findall(r"/\S*openblas\S*\.so\S*", fh.read())))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["runtime_threads"][os.path.basename(path)] = fn()
                break
    return info


def _environment() -> dict:
    import numpy as np
    import scipy

    import twomode_dicke

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "twomode_dicke": getattr(twomode_dicke, "__version__", None),
        "blas": _blas(),
    }


def _run(cli, argv: list[str], log) -> tuple[float, int]:
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash of the program fails this command's rows
        traceback.print_exc(file=log)
        code = 1
    return time.perf_counter() - start, code


def main() -> int:
    sys.path.insert(0, SRC)
    from twomode_dicke import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"twomode_dicke imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    print("ready", flush=True)

    job = json.loads(sys.stdin.readline())
    result: dict = {"walls": [], "exit_codes": []}
    if job.get("environment"):
        result["environment"] = _environment()

    # A traced job names which commands run with the tracer installed; the
    # runner pairs each untraced command with a traced copy right after it.
    traced = job.get("traced", [False] * len(job["commands"]))
    tracer = None
    if any(traced):
        from tracing import Tracer

        tracer = Tracer()
    for argv, on in zip(job["commands"], traced):
        if on:
            tracer.install()
        wall, code = _run(cli, argv, sys.stderr)
        if on:
            tracer.uninstall()
        result["walls"].append(wall)
        result["exit_codes"].append(code)
    if tracer is not None:
        result["trace"] = tracer.stats()
        result["oracle_dimension"] = tracer.dimension
        tracer.write(job["spans_path"])
        result["first_solve_s"] = _first_solve_s(
            [argv for argv, on in zip(job["commands"], traced) if on])

    result["peak_rss_kb"] = _peak_rss_kb()
    print(json.dumps(result), flush=True)
    return 0


def _peak_rss_kb() -> int:
    """High-water RSS of this process image.  ru_maxrss is not used: after
    fork and exec it still holds the parent's RSS from before the exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def _first_solve_s(commands: list[list[str]]) -> float:
    """Time of the oracle solves of the oracle-compare commands, with the same
    specs but check_convergence=False (no n_max + 2 re-solve)."""
    from twomode_dicke import model, oracle

    from workloads import option, spin_lengths

    total = 0.0
    for argv in (a for a in commands if a[0] == "oracle-compare"):
        base = model.ModelParams(omega=float(option(argv, "--omega")),
                                 omega0=float(option(argv, "--omega0")))
        p = base.with_couplings(float(option(argv, "--lambda-x")) * base.lambda_c,
                                float(option(argv, "--lambda-y")) * base.lambda_c)
        n_max = int(option(argv, "--n-max"))
        for j in spin_lengths(argv):
            spec = oracle.TruncationSpec(j=j, n_max=n_max)
            start = time.perf_counter()
            oracle.exact_ground_state(p, spec, check_convergence=False)
            total += time.perf_counter() - start
    return total


if __name__ == "__main__":
    sys.exit(main())
