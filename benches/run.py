"""Benchmark of the xnadhm verification library.

Print every metric of every workload, with units:

    python3 benches/run.py

Run one workload; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics:

    python3 benches/run.py --workload roundtrip --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the per-layer tracer instead (see ``tracing.py``), then
replays the same rounds untraced and requires identical outcomes.  The
library is imported from ``src/`` next to this directory; it runs in this
one process, with one BLAS thread and campaign ``jobs=1``.
"""

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one BLAS/OpenMP thread, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import reference  # noqa: E402  (imports numpy)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOAD_NAMES = ("roundtrip", "transitions", "oracle")

#: seed of the published figures; HELD_OUT_SEED is kept for checking a
#: later speed claim on inputs it was not tuned on
DEFAULT_SEED = 0
HELD_OUT_SEED = 1504

#: fresh interpreters timed for setup_s (after one that fills __pycache__)
SETUP_REPEATS = 5

#: a run measures at least this many rounds, whatever --seconds says
MIN_ROUNDS = 3

#: a run that has not finished this many seconds after its measuring time
#: is stopped with an error
GRACE_S = 60

#: in a traced run, the share of --seconds given to the traced pass (the
#: untraced replay of the same rounds takes less), and the fewest samples
#: the traced pass collects so that ten lie beyond the 90th percentile
TRACE_SHARE = 0.6
MIN_TRACED_SAMPLES = 200

SETUP_CODE = f"""
import sys, time
sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]
t0 = time.perf_counter()
import xnadhm.campaigns
xnadhm.campaigns.load_bruteforce_fixtures()
setup = time.perf_counter() - t0
import reference
reference.seconds_per_rep()
print(setup, reference.seconds_per_rep(400))
"""


def setup_seconds():
    """Median time for a fresh interpreter to import xnadhm and load the
    bundled GF(5) fixtures, at nominal host speed."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE],
                             capture_output=True, text=True, check=True,
                             timeout=120)
        setup, rep_s = map(float, out.stdout.split())
        if i:
            times.append(setup * reference.NOMINAL_REP_S / rep_s)
    return statistics.median(times)


class Totals:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatch = False

    def add(self, rnd):
        self.attempted += rnd.attempted
        self.failed += rnd.failed


class HostClock:
    """Runs the samples and campaigns of workload rounds and adds up their
    time at nominal host speed: the reference kernel runs after each call,
    and the call's time is scaled by ``NOMINAL_REP_S`` over the mean kernel
    time per repetition just before and just after it.  ``span``, when
    given, wraps each sample (the tracer's per-sample span)."""

    def __init__(self, span=None):
        self._span = span
        self.nominal_s = 0.0
        self._rep_s = reference.seconds_per_rep()

    def _timed(self, fn, args):
        t0 = time.perf_counter()
        out = fn(*args)
        dt = time.perf_counter() - t0
        rep_s = reference.seconds_per_rep()
        self.nominal_s += dt * 2 * reference.NOMINAL_REP_S / (self._rep_s
                                                              + rep_s)
        self._rep_s = rep_s
        return out

    def sample(self, fn, *args):
        if self._span is not None:
            return self._timed(self._span, (fn, *args))
        return self._timed(fn, args)

    def block(self, fn, *args):
        return self._timed(fn, args)


def timed_rounds(workload, totals, seconds=0.0, min_samples=0, count=None,
                 span=None):
    """Run rounds 1, 2, ... for ``seconds``, and at least MIN_ROUNDS rounds
    and ``min_samples`` samples; or exactly ``count`` rounds.

    Returns the samples per second at nominal host speed, and the rounds'
    outcomes when ``count`` or ``span`` is given (a traced pass and its
    replay); otherwise they are dropped, so memory does not grow with the
    number of rounds.
    """
    clock = HostClock(span)
    keep = count is not None or span is not None
    outcomes = []
    rounds = samples = 0
    start = time.perf_counter()

    def more():
        if count is not None:
            return rounds < count
        return (time.perf_counter() - start < seconds
                or rounds < MIN_ROUNDS or samples < min_samples)

    while more():
        rnd = workload.round(1 + rounds, clock)
        rounds += 1
        samples += rnd.attempted
        totals.add(rnd)
        if keep:
            outcomes.append(rnd.outcomes)
    return samples / clock.nominal_s, outcomes


def run_untraced(workload, seconds, totals):
    rate, _ = timed_rounds(workload, totals, seconds)
    return {"setup_s": (setup_seconds(), "s"),
            "samples_per_s": (rate, "1/s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MiB")}


def run_traced(workload, seconds, totals):
    from tracing import Tracer

    tracer = Tracer()
    with tracer:
        traced_rate, traced = timed_rounds(
            workload, totals, TRACE_SHARE * seconds,
            min_samples=MIN_TRACED_SAMPLES, span=tracer.sample)
    # the same rounds again without tracing: outcomes must be identical
    untraced_rate, replayed = timed_rounds(workload, totals,
                                           count=len(traced))
    for outcomes, again in zip(traced, replayed):
        if again != outcomes:
            totals.failed += sum(a != b for a, b in zip(again, outcomes))
            totals.mismatch = True
    metrics = tracer.metrics()
    metrics["trace.samples_per_s"] = (traced_rate, "1/s")
    metrics["trace.untraced_samples_per_s"] = (untraced_rate, "1/s")
    metrics["trace.overhead_samples_per_s"] = (untraced_rate - traced_rate,
                                               "1/s")
    return metrics


def environment(args):
    import numpy

    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "jobs": 1,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def _overrun(signum, frame):
    raise TimeoutError("the run did not finish in time")


def run_workload(args):
    if not (SRC / "xnadhm" / "__init__.py").is_file():
        print(f"benchmark: no library sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import xnadhm

    if not Path(xnadhm.__file__).resolve().is_relative_to(SRC):
        print(f"benchmark: xnadhm was imported from {xnadhm.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    env = environment(args)
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()), flush=True)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    totals = Totals()
    signal.signal(signal.SIGALRM, _overrun)
    signal.alarm(int(2 * args.seconds) + GRACE_S)
    try:
        totals.add(workload.round(0))          # warm-up round, checked too
        if args.trace:
            metrics = run_traced(workload, args.seconds, totals)
        else:
            metrics = run_untraced(workload, args.seconds, totals)
    except TimeoutError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
    if totals.attempted == 0:
        print("benchmark: no sample was verified", file=sys.stderr)
        return 1
    width = max(map(len, metrics))
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:.6g} {unit}")
    print(f"{'fail_ratio':<{width}}  {totals.failed / totals.attempted:.6g} "
          f"ratio ({totals.failed} of {totals.attempted} samples)")
    if totals.mismatch:
        print("benchmark: traced and untraced outcomes differ",
              file=sys.stderr)
    print(json.dumps({
        "correct": totals.failed == 0 and not totals.mismatch,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


def run_all(args):
    """Every workload in its own process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)]
        print(f"== {name}", flush=True)
        status = max(status, subprocess.run(cmd).returncode)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (held-out seed: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
