"""One workload run in a fresh interpreter: generate the inputs, run them in
a closed loop (one caller, one thread, the next operation issued only after
the previous one returns), check every output and print one JSON summary.

Usage: python3 bench/worker.py WORKLOAD SEED COUNT TRACE SPANS

Run by ``run.py``; the interpreter is fresh, so the package's memo caches
start cold as they do for every CLI call.

Between operations, outside the timed spans, the worker times a fixed
piece of pure-Python work (``speed_probe``) after every operation, and
starts ``SETUP_PROBES`` fresh interpreters, spread evenly over the run, to
sample set-up time.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import signal
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [SRC, HERE]

import inputs  # noqa: E402
import ops  # noqa: E402
import layers  # noqa: E402


SETUP_PROBES = 15
CAP_S = 20.0             # per-operation time cap

# Fresh interpreter to ready: import the package and make the first hom_dim
# call, which loads the frozen Hom table.
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import thicket
from thicket import Bar, Interval, hom_dim
from thicket.barcode import CLOSED
iv = Interval(0, CLOSED, 1, CLOSED)
hom_dim(Bar(iv, 0), Bar(iv, 0))
sys.stdout.write("ready\\n")
sys.stdout.flush()
"""


def setup_probe() -> float:
    """Seconds from starting a fresh interpreter until it reports ready."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_CODE, SRC],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        if proc.wait(timeout=30) != 0 or line.strip() != "ready":
            raise RuntimeError("set-up probe failed")
    return t1 - t0


def speed_probe() -> float:
    """Seconds taken by a fixed piece of pure-Python work (rational
    arithmetic, tuples, dicts and lists, as the package does) that uses no
    package code."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, 150):
        acc += Fraction(i % 7, i % 5 + 1)
        table[(i, i % 3)] = [x * i % 5 for x in range(8)]
    return time.perf_counter() - t0


class OpTimeout(BaseException):
    """Raised by the interval timer inside an operation that ran past the
    cap.  A BaseException, so no ``except Exception`` in the package can
    swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def main(argv) -> int:
    workload, seed, count, traced, spans_path = argv
    seed, count = int(seed), int(count)
    op_list = inputs.GENERATORS[workload](seed, count)
    probe_after = {(k * count) // SETUP_PROBES for k in range(SETUP_PROBES)}
    setup = []
    speed = []

    rec = layers.Recorder() if traced == "1" else None
    if rec is not None:
        layers.install(rec, callers=[ops])
    signal.signal(signal.SIGALRM, _on_alarm)

    latencies = []           # seconds, one per operation
    failures: dict[str, int] = {}
    wrong = 0                # outputs that failed their check
    exact = 0
    digest = hashlib.sha256()
    for i, op in enumerate(op_list):
        out = error = None
        if rec is not None:
            rec.begin(i)
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, CAP_S)
            try:
                out = ops.execute(op)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpTimeout:
            error = "timeout"
        except Exception as exc:            # a program defect: record, go on
            error = f"exception {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if rec is not None:
            rec.end()
        if error is None:
            error = ops.check(op, out)      # outside the timed span
            wrong += error is not None
        latencies.append(t1 - t0)
        if error is None:
            exact += ops.is_exact(op, out)
            digest.update(ops.canonical(op, out).encode())
        else:
            key = error if error == "timeout" else f"{op[0]}: {error}"[:200]
            failures[key] = failures.get(key, 0) + 1
            digest.update(f"failed {error}".encode())
        digest.update(b"\n")
        speed.append(speed_probe())
        if i in probe_after:
            setup.append((i, setup_probe()))

    result = {
        "workload": workload,
        "attempted": len(op_list),
        "failures": failures,
        "latencies": latencies,
        "wrong": wrong,
        "exact": exact,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "digest": digest.hexdigest(),
        "setup_s": setup,
        "speed_s": speed,
    }
    if rec is not None:
        result["layers"] = layers.layer_metrics(rec)
        result["spans"] = len(rec.starts)
        rec.write(spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
