"""thicket benchmark: one workload run, end-to-end or traced.

    python3 bench/run.py --workload distance --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The package is used from ``src/`` as it
stands; nothing is installed.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it give every metric by name with its unit, the
environment, and any failure.  ``correct`` is false if any output fails its
check; an operation that raises or times out has no output and counts in
``failed`` (and against ``ok_ratio``).  Metric names and units are read from
``BENCHMARK.json``.

Load: one process, one thread, closed loop (the next operation is issued
only after the previous one returns).  A pass over the operations runs in a
fresh interpreter, so the package's memo caches start cold, as they do for
every CLI call.

``--trace 0`` makes one pass, checks every output and reports the end-to-end
metrics.  ``--trace 1`` makes one untraced and one traced pass over the same
operations and reports the per-layer metrics of the traced one,
``trace.overhead_ratio`` (traced / untraced time inside operations) and
whether the two result digests agree.  Spans go to ``.bench_out/``.

``--seconds`` sets the number of operations through a per-workload rate
calibrated on a 2-core Xeon (Python 3.11), so the operations, every count
metric and the digest depend only on the seed and ``--seconds``, never on
the clock.

Times are reported at reference speed.  On the reference machine, a shared
2-core Xeon VM, CPU speed drifts by 20-40 % over tens of seconds, which
moved every raw timing between runs by more than any useful bound.  So the
worker times a fixed piece of pure-Python work that uses no package code
after every operation, and each latency and set-up sample is multiplied by
``REFERENCE_PROBE_S`` over the median probe time of the operations around
it.  A change to the package cannot move the probe, so a slower program
still reads slower; a slower machine does not.  The unscaled values are
printed on the lines before the result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# Operations per second of --seconds on the reference machine.
RATES = {"distance": 22, "decompose": 36, "bulk-io": 8}
REFERENCE_PROBE_S = 0.00045   # median speed-probe time, reference machine
SPEED_WINDOW = 5         # probes on each side that set an operation's speed
RUN_LIMIT_S = 160        # no pass may outlive this; the run must end < 180 s


def declared() -> dict:
    """BENCHMARK.json: the workloads and the metric names and units."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def units(kind: str) -> dict:
    """{name: unit} of the declared ``end_to_end`` or ``per_layer`` metrics."""
    return {m["name"]: m["unit"] for m in declared()[kind]}


def child_env() -> dict:
    """A fixed hash seed: str and enum hashes order the package's sets, so
    without it two runs on one input can do different amounts of work."""
    return dict(os.environ, PYTHONHASHSEED="0")


def run_pass(workload: str, seed: int, count: int, traced: bool,
             timeout_s: float) -> dict:
    spans = os.path.join(OUT_DIR, f"{workload}-seed{seed}.spans.tsv")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload,
           str(seed), str(count), str(int(traced)), spans]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=child_env(),
                          text=True, timeout=timeout_s, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile_ms(latencies, q: float) -> float:
    """Nearest-rank percentile.  A timed-out operation's latency is its time
    until the cap stopped it, so it ranks above the completed ones and a
    percentile that lands on it is a lower bound."""
    values = sorted(latencies)
    return 1000 * values[max(1, math.ceil(q * len(values))) - 1]


def speed_scale(res: dict) -> list[float]:
    """Per operation, REFERENCE_PROBE_S over the median probe time of the
    operations within SPEED_WINDOW of it."""
    probes = res["speed_s"]
    return [REFERENCE_PROBE_S / statistics.median(
                probes[max(0, i - SPEED_WINDOW):i + SPEED_WINDOW + 1])
            for i in range(len(probes))]


def end_to_end(res: dict, scale: list[float]) -> dict:
    attempted = res["attempted"]
    failed = sum(res["failures"].values())
    lat = [x * k for x, k in zip(res["latencies"], scale)]
    busy = sum(lat)
    return {
        "setup_s": statistics.median(x * scale[i] for i, x in res["setup_s"]),
        "ops_per_s": (attempted - failed) / busy,
        "op_p50_ms": percentile_ms(lat, 0.5),
        "op_p90_ms": percentile_ms(lat, 0.9),
        "ok_ratio": (attempted - failed) / attempted,
        "exact_ratio": res["exact"] / attempted,
        "peak_rss_mb": res["peak_rss_kb"] / 1024,
    }


def environment() -> dict:
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(), "cpu_count": os.cpu_count()}


def _terminate(signum, frame):
    # SystemExit unwinds through subprocess.run, which kills and reaps the
    # running pass before re-raising.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(RATES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "thicket", "__init__.py")):
        print(f"error: no thicket package under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    started = time.perf_counter()
    count = max(1, round(RATES[args.workload] * args.seconds))
    print(f"env: {json.dumps(environment())}")
    print(f"workload: {args.workload} seed {args.seed} operations {count} "
          f"(closed loop, 1 process, 1 thread)")
    os.makedirs(OUT_DIR, exist_ok=True)

    def budget():
        return RUN_LIMIT_S - (time.perf_counter() - started)

    problems = []
    if args.trace:
        plain = run_pass(args.workload, args.seed, count, False, budget())
        traced = run_pass(args.workload, args.seed, count, True, budget())
        names = units("per_layer")
        metrics = {name: traced["layers"][name]
                   for name in names if name != "trace.overhead_ratio"}
        traced_s = sum(traced["latencies"])
        metrics["trace.overhead_ratio"] = (
            sum(x * k for x, k in zip(traced["latencies"], speed_scale(traced)))
            / sum(x * k for x, k in zip(plain["latencies"], speed_scale(plain))))
        self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        print(f"spans {traced['spans']}; layer self time {self_total:.3f} s of "
              f"{traced_s:.3f} s traced time in operations")
        print(f"digest untraced {plain['digest']} traced {traced['digest']}")
        if self_total > traced_s:
            problems.append("layer self time exceeds traced time")
        if plain["digest"] != traced["digest"] and \
                "timeout" not in plain["failures"] | traced["failures"]:
            problems.append("traced and untraced result digests differ")
        first = plain
    else:
        first = run_pass(args.workload, args.seed, count, False, budget())
        names = units("end_to_end")
        values = end_to_end(first, speed_scale(first))
        metrics = {name: values[name] for name in names}
        raw = end_to_end(first, [1.0] * first["attempted"])
        print(f"digest {first['digest']}")
        print(f"speed probe median {statistics.median(first['speed_s']) * 1e3:.4f} ms "
              f"(reference {REFERENCE_PROBE_S * 1e3:.4f} ms); unscaled: " + ", ".join(
                  f"{k} {raw[k]:.6g}" for k in ("setup_s", "ops_per_s", "op_p50_ms",
                                                "op_p90_ms")))
    for key, n in sorted(first["failures"].items()):
        print(f"failure x{n}: {key}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {names[name]}")
    for p in problems:
        print(f"problem: {p}")
    summary = {
        "correct": first["wrong"] == 0 and not problems,
        "attempted": first["attempted"],
        "failed": sum(first["failures"].values()),
        "metrics": {name: {"value": value, "unit": names[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
