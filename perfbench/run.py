"""Benchmark runner for the twomode_dicke CLI.

    python3 perfbench/run.py --workload plane-wide --seed 0 --seconds 55 --trace 0

Runs from the root of a source checkout.  Every repetition of the workload is
a fresh child interpreter (child.py) that imports ``twomode_dicke.cli`` from
``src`` and calls ``cli.main(argv)`` for each generated command line, one
child at a time.  The output of every command is checked (check.py).

``--trace 0`` reports the end-to-end metrics: the median set-up time over
several fresh interpreters, and the median wall time and peak RSS of the
repetitions that fit in ``--seconds``, plus the share of rows that passed the
check.  ``attempted`` and ``failed`` count the workload's rows once, however
many repetitions ran, so they depend on the seed alone.  ``--trace 1`` runs
the workload once untraced and once traced, both on one process, and reports
the per-layer metrics of the traced run.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The full result (environment, inputs, samples, check
failures) is written to perfbench/out/<workload>-seed<seed>-trace<t>.json and
the spans of a traced run to perfbench/out/spans-<workload>-seed<seed>.jsonl.gz.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import check
import workloads
from tracing import FUNCTIONS, RAISING

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")

#: Fresh interpreters started only to time set-up; every repetition adds one more.
SETUP_ONLY_CHILDREN = 3
#: Every child is killed once the run has lasted this long, so that the run
#: ends well inside three minutes whatever the program does.
HARD_LIMIT_S = 165.0
#: Interval of the RSS sampler that adds up the child and its pool workers.
RSS_INTERVAL_S = 0.1

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ok_share": "share"}


def per_layer_units() -> dict:
    units = {}
    for name in FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if name in RAISING:
            units[f"{name}.raised"] = "count"
    units.update({
        "cli.rows": "count", "cli.rows_error": "count", "cli.rows_diverged": "count",
        "cli.rows_goldstone_offset": "count", "cli.output_bytes": "bytes",
        "oracle.dimension": "count", "oracle.first_solve_s": "s",
        "oracle.resolve_share": "share", "trace.overhead_share": "share",
    })
    return units


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failing row)."""


def _tree_rss(root_pid: int) -> int:
    """Summed RSS in bytes of a process and all its descendants, read from /proc."""
    parents = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        parents[int(entry)] = int(stat[stat.rindex(")") + 2:].split()[1])
    tree, frontier = {root_pid}, [root_pid]
    while frontier:
        pid = frontier.pop()
        for child, parent in parents.items():
            if parent == pid and child not in tree:
                tree.add(child)
                frontier.append(child)
    total = 0
    for pid in tree:
        try:
            with open(f"/proc/{pid}/statm") as fh:
                total += int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
        except OSError:
            pass
    return total


class RssSampler(threading.Thread):
    def __init__(self, pid: int):
        super().__init__(daemon=True)
        self.pid = pid
        self.peak = 0
        self._done = threading.Event()

    def run(self) -> None:
        while True:
            self.peak = max(self.peak, _tree_rss(self.pid))
            if self._done.wait(RSS_INTERVAL_S):
                return

    def stop(self) -> int:
        self._done.set()
        self.join()
        return self.peak


def _stop(proc: subprocess.Popen) -> None:
    """Kill the child's process group (its pool workers included) and wait for all of it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)  # members left that another parent must reap
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _read_ready(proc: subprocess.Popen, timeout: float) -> bytes:
    line = b""
    end = time.monotonic() + timeout
    while not line.endswith(b"\n"):
        if not select.select([proc.stdout], [], [], max(0.0, end - time.monotonic()))[0]:
            break
        chunk = os.read(proc.stdout.fileno(), 64)
        if not chunk:
            break
        line += chunk
    return line


class Spawner:
    """Spawns children one at a time, all under one hard deadline."""

    def __init__(self, work: str):
        self.work = work
        self.hard_end = time.monotonic() + HARD_LIMIT_S

    def spawn(self, job: dict) -> dict:
        """Run one child; returns its set-up time, peak RSS and result line."""
        remaining = self.hard_end - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before the run finished")
        with open(os.path.join(self.work, "child.log"), "ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, CHILD], stdin=subprocess.PIPE,
                                    stdout=subprocess.PIPE, stderr=log, cwd=ROOT,
                                    bufsize=0, start_new_session=True)
            try:
                ready = _read_ready(proc, remaining)
                setup_s = time.perf_counter() - start
                if ready != b"ready\n":
                    raise BenchError("the child could not import twomode_dicke.cli from src/"
                                     f" (see {os.path.join(self.work, 'child.log')})")
                sampler = RssSampler(proc.pid)
                sampler.start()
                job_start = time.perf_counter()
                try:
                    out, _ = proc.communicate(json.dumps(job).encode() + b"\n",
                                              timeout=self.hard_end - time.monotonic())
                except subprocess.TimeoutExpired:
                    _stop(proc)
                    out, _ = proc.communicate()
                job_s = time.perf_counter() - job_start
                tree_peak = sampler.stop()
            finally:
                _stop(proc)
        lines = out.decode(errors="replace").strip().splitlines()
        try:
            result = json.loads(lines[-1]) if proc.returncode == 0 else {}
        except (IndexError, json.JSONDecodeError):
            result = {}
        peak = max(tree_peak, 1024 * result.get("peak_rss_kb", 0))
        # a child that died gives no wall times; its whole run time stands in
        wall_s = sum(result["walls"]) if "walls" in result else job_s
        return {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_bytes": peak, "result": result}


def _repetition(spawner: Spawner, commands: list[list[str]], tag: str, **job) -> dict:
    """One child running every command, followed by the check of each output."""
    paths = [os.path.join(spawner.work, f"{tag}-{i}.csv") for i in range(len(commands))]
    argvs = [argv + ["--out", path] for argv, path in zip(commands, paths)]
    started = time.monotonic()
    run = spawner.spawn(dict(job, commands=argvs))
    codes = run["result"].get("exit_codes", [])
    verdict = check.CheckResult()
    run["checks"], run["output_bytes"] = [], []
    for i, (argv, path) in enumerate(zip(commands, paths)):
        text = ""
        if os.path.exists(path):
            with open(path) as fh:
                text = fh.read()
            os.remove(path)
        run["checks"].append(check.check(text, argv, codes[i] if i < len(codes) else None))
        run["output_bytes"].append(len(text.encode()))
        verdict.merge(run["checks"][-1])
    run.update(check=verdict, duration_s=time.monotonic() - started)
    return run


def _environment(child_env: dict, commands: list[list[str]]) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh
                              if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        **child_env,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "input_size": [workloads.input_size(argv) for argv in commands],
    }


def _measure(spawner: Spawner, commands: list[list[str]], seconds: float):
    """End-to-end metrics: repeat the workload until ``seconds`` are used."""
    start = time.monotonic()
    first = spawner.spawn({"commands": [], "environment": True})
    setups = [first["setup_s"]]
    for _ in range(SETUP_ONLY_CHILDREN - 1):
        setups.append(spawner.spawn({"commands": []})["setup_s"])
    reps = []
    while True:
        reps.append(_repetition(spawner, commands, f"rep{len(reps)}"))
        setups.append(reps[-1]["setup_s"])
        typical = statistics.median(r["duration_s"] for r in reps)
        if time.monotonic() - start + typical > seconds:
            break
    verdict = check.over_repetitions([rep["check"] for rep in reps])
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_bytes"] for r in reps) / 2**20,
        "ok_share": 1.0 - verdict.failed / verdict.expected,
    }
    samples = {"setup_s": setups, "wall_s": [r["wall_s"] for r in reps],
               "peak_rss_mb": [r["peak_rss_bytes"] / 2**20 for r in reps]}
    return metrics, verdict, samples, first["result"].get("environment", {})


def _trace(spawner: Spawner, commands: list[list[str]], spans_path: str):
    """Per-layer metrics from one child that runs each command untraced and
    then traced, so that the overhead compares neighbouring runs."""
    serial = [workloads.serial(argv) for argv in commands]
    first = spawner.spawn({"commands": [], "environment": True})
    paired = [argv for argv in serial for _ in range(2)]
    run = _repetition(spawner, paired, "trace", traced=[False, True] * len(serial),
                      spans_path=spans_path)
    result = run["result"]
    if "trace" not in result:
        raise BenchError("the traced child returned no trace statistics")
    metrics = {}
    for name, entry in result["trace"].items():
        metrics[f"{name}.calls"] = entry["calls"]
        metrics[f"{name}.self_s"] = entry["self_s"]
        if name in RAISING:
            metrics[f"{name}.raised"] = entry["raised"]
    untraced, verdict = check.CheckResult(), check.CheckResult()
    for plain_check, traced_check in zip(run["checks"][0::2], run["checks"][1::2]):
        untraced.merge(plain_check)
        verdict.merge(traced_check)
    plain_s, traced_s = sum(result["walls"][0::2]), sum(result["walls"][1::2])
    egs_self = metrics["oracle.exact_ground_state.self_s"]
    first_solve = result.get("first_solve_s", 0.0)
    metrics.update({
        "cli.rows": verdict.rows,
        "cli.rows_error": verdict.rows_error,
        "cli.rows_diverged": verdict.rows_diverged,
        "cli.rows_goldstone_offset": verdict.rows_goldstone_offset,
        "cli.output_bytes": sum(run["output_bytes"][1::2]),
        "oracle.dimension": result.get("oracle_dimension", 0),
        "oracle.first_solve_s": first_solve,
        "oracle.resolve_share": 1.0 - first_solve / egs_self if egs_self > 0 else 0.0,
        "trace.overhead_share": traced_s / plain_s - 1.0,
    })
    samples = {"untraced_wall_s": result["walls"][0::2], "traced_wall_s": result["walls"][1::2]}
    return (metrics, check.over_repetitions([untraced, verdict]), samples,
            first["result"].get("environment", {}))


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through the cleanup of the running child


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "twomode_dicke", "cli.py")):
        print(f"perfbench: error: no twomode_dicke sources under {ROOT}/src", file=sys.stderr)
        return 1
    commands = workloads.generate(args.workload, args.seed)
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    try:
        spawner = Spawner(work)
        if args.trace:
            metrics, verdict, samples, child_env = _trace(spawner, commands, spans_path)
            units = per_layer_units()
        else:
            metrics, verdict, samples, child_env = _measure(spawner, commands, args.seconds)
            units = END_TO_END
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": commands,
        "environment": _environment(child_env, commands),
        "samples": samples,
        "check": {"attempted": verdict.expected, "failed": verdict.failed,
                  "consistent": verdict.consistent, "reasons": dict(verdict.reasons)},
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    if args.trace:
        record["spans"] = os.path.relpath(spans_path, ROOT)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)

    print("environment " + json.dumps(record["environment"]))
    print("inputs " + json.dumps({"seed": args.seed, "commands": commands}))
    print("check " + json.dumps(record["check"]))
    for name, unit in units.items():
        print(f"{args.workload:<11} {name:<44} {metrics[name]:>16.6g} {unit}")
    share = verdict.failed / verdict.expected
    print(f"{args.workload:<11} {'failed_share':<44} {share:>16.6g} share"
          f" ({verdict.failed} of {verdict.expected} rows)")
    print(json.dumps({"correct": verdict.consistent, "attempted": verdict.expected,
                      "failed": verdict.failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
