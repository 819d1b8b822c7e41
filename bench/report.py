"""Print every end-to-end metric of every workload, by name with its unit,
together with the environment.

    python3 bench/report.py [--seed 1] [--seconds 25]
    python3 bench/report.py --smoke

``--smoke`` is the benchmark's own test: a tiny run of each workload, untraced
and traced, that fails unless every metric BENCHMARK.json declares is
printed, the outputs pass their checks and the traced and untraced digests
agree.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from run import declared

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, seed: int, seconds: float, traced: bool):
    """(printed lines, summary) of one run of run.py."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if traced else "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=180, check=True)
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    spec = declared()
    seconds = args.seconds or (0.5 if args.smoke else spec["run_seconds"])
    passes = [False, True] if args.smoke else [False]
    problems = []
    for w in spec["workloads"]:
        for traced in passes:
            names = [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]
            lines, summary = run(w["name"], args.seed, seconds, traced)
            print(f"== {w['name']} ({'traced' if traced else 'end to end'}): "
                  f"{summary['attempted']} operations, {summary['failed']} failed")
            for line in lines:
                if line.startswith(("env:", "failure", "problem")) or " = " in line:
                    print(f"   {line}")
            printed = {line.split(" = ")[0] for line in lines if " = " in line}
            for name in names:
                if name not in printed or name not in summary["metrics"]:
                    problems.append(f"{w['name']}: metric {name} not reported")
            extra = set(summary["metrics"]) - set(names)
            if extra:
                problems.append(f"{w['name']}: undeclared metrics {sorted(extra)}")
            if not summary["correct"]:
                problems.append(f"{w['name']}: outputs failed their checks")
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
