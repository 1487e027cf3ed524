"""Every end-to-end metric of every workload, one workload after another.

    python3 perfbench/report.py --seed 0 --seconds 55

Runs run.py's untraced measurement for each workload in turn and prints its
output, including one line per metric with its unit.
"""

import argparse
import sys

import run
import workloads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", default="0")
    parser.add_argument("--seconds", default="55")
    args = parser.parse_args()
    code = 0
    for name in workloads.WORKLOADS:
        code = max(code, run.main(["--workload", name, "--seed", args.seed,
                                   "--seconds", args.seconds, "--trace", "0"]))
    return code


if __name__ == "__main__":
    sys.exit(main())
