#!/usr/bin/env python3
"""sigfrac benchmark.

    python3 bench/run.py --workload analytic --seed 1 --seconds 20 --trace 0

Runs one workload (see workloads.py and README.md) as a closed loop with
a single client: each request is a ``sigfrac.cli.main(argv)`` call in
this process with stdout captured, and the next request starts when the
previous one has returned and its output has been checked.  The loop
stops at the first cycle boundary after ``--seconds`` of wall time.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` replays the
start of the same request stream untraced and then traced, and reports
the per-layer metrics: span self times per request, the tracing
overhead, and the layer microbenchmarks of layers.py.  The last line of
stdout is the JSON result; a line before it records the environment.
"""

from __future__ import annotations

import argparse
import io
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# one cold start: interpreter, package import and CLI parser; the
# non-zero exit catches a sigfrac imported from anywhere but argv[1]
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import sigfrac.cli; "
              "sigfrac.cli.build_parser(); "
              "sys.exit(sigfrac.__file__ != sys.argv[1] + '/sigfrac/__init__.py')")
SETUP_REPEATS = 7
TRACE_SHARE = 0.25     # share of --seconds replayed untraced, then traced
MODULES = ("cli", "specfun", "rayleigh", "approx", "plp", "transforms",
           "montecarlo")


def load_program():
    """Import the checkout's sigfrac, refusing any other installed copy."""
    if not (SRC / "sigfrac" / "__init__.py").is_file():
        sys.exit(f"error: no sigfrac sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sigfrac
    import sigfrac.cli
    if Path(sigfrac.__file__).resolve() != SRC / "sigfrac" / "__init__.py":
        sys.exit(f"error: sigfrac resolves to {sigfrac.__file__}, not {SRC}")
    return sigfrac.cli


@dataclass
class Record:
    req: object
    latency: float
    ok: bool
    rows: int
    flagged: int


def execute(cli, req, check_rng, checks):
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(req.argv))
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code = None
        err.write(traceback.format_exc())
    latency = time.perf_counter() - t0
    if code != 0:
        problems, rows, flagged = [f"exit code {code}: {err.getvalue().strip()}"], 0, 0
    else:
        try:
            res = checks.check(req, out.getvalue(), check_rng)
            problems, rows, flagged = res.problems, res.rows, res.flagged
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problems, rows, flagged = [f"unreadable output: {exc!r}"], 0, 0
    for p in problems:
        print(f"FAILED {' '.join(req.argv)}: {p}", file=sys.stderr)
    return Record(req, latency, not problems, rows, flagged)


def closed_loop(cli, cycles, seconds, check_rng, checks, tracer=None,
                alternate_cpus=False):
    """Run whole cycles until `seconds` of wall time have passed.

    With alternate_cpus, cycle i runs pinned to the i-th CPU in turn, so
    a single-process run samples every CPU equally; the CPUs of a shared
    host can differ in speed by 10%.  Returns the records and the cycles
    that ran, for a replay."""
    recs, ran = [], []
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)
    t_start = time.perf_counter()
    try:
        for i, cycle in enumerate(cycles):
            if alternate_cpus:
                os.sched_setaffinity(0, {cpus[i % len(cpus)]})
            ran.append(cycle)
            for req in cycle:
                if tracer is not None:
                    tracer.request = len(recs)
                recs.append(execute(cli, req, check_rng, checks))
            if time.perf_counter() - t_start >= seconds:
                break
    finally:
        os.sched_setaffinity(0, allowed)
    return recs, ran


def measure_setup():
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-E", "-s", "-c", SETUP_CODE, str(SRC)],
                       check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def peak_rss_mb():
    """This process's peak RSS plus the largest child's (workers), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def cycle_p99(lat, ran):
    """Median over cycles of each cycle's 99th latency percentile.

    A run of a Monte Carlo workload holds only 12-60 requests, so a p99
    pooled over the run is its single slowest request, and one stall of
    the host moved it by 25-75% between runs of the same code.  Every
    cycle holds each request type once, so this is the typical latency
    of the slowest request type, and a stall moves one cycle of many."""
    per_cycle, i = [], 0
    for cycle in ran:
        part = lat[i:i + len(cycle)]
        i += len(cycle)
        per_cycle.append(
            statistics.quantiles(part, n=100, method="inclusive")[98])
    return statistics.median(per_cycle)


def end_to_end(recs, ran):
    """End-to-end metrics; call before any other child process is started."""
    lat = [r.latency for r in recs]
    busy = sum(lat)
    p50 = statistics.median(lat)
    # an analytic request delivers its output rows, a Monte Carlo one its
    # realizations
    samples = sum(r.req.samples or r.rows for r in recs)
    return {
        "req_per_s": (len(recs) / busy, "1/s"),
        "latency_p50_ms": (p50 * 1e3, "ms"),
        "latency_p99_ms": (cycle_p99(lat, ran) * 1e3, "ms"),
        "samples_per_s": (samples / busy, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def span_metrics(tracer, recs):
    """Per-request span counts and self times of the traced pass."""
    n = len(recs)
    per_name = tracer.per_name()

    # a function that a later version no longer has counts as zero
    def calls(name):
        return per_name.get(name, (0, 0.0))[0] / n

    def self_ms(name):
        return per_name.get(name, (0, 0.0))[1] * 1e3 / n

    out = {f"layer.{mod}.self_ms": (
        sum(self_ms(k) for k in per_name if k.startswith(mod + ".")), "ms/req")
        for mod in MODULES}
    emit = ("cli.emit_curve", "cli.emit_json", "cli.write_rows", "cli.curve_doc")
    out.update({
        "specfun.quad.calls": (calls("specfun.quad"), "count/req"),
        "specfun.quad.self_ms": (self_ms("specfun.quad"), "ms/req"),
        "specfun.find_root.calls": (calls("specfun.find_root"), "count/req"),
        "rayleigh.sf_ccdf_exact.calls": (
            calls("rayleigh.sf_ccdf_exact"), "count/req"),
        "rayleigh.sf_ccdf_exact.self_ms": (
            self_ms("rayleigh.sf_ccdf_exact"), "ms/req"),
        "cli.emit.self_ms": (sum(self_ms(k) for k in emit), "ms/req"),
        "cli.rows": (sum(r.rows for r in recs) / n, "count/req"),
    })
    return out


def main(argv=None):
    import workloads
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")

    cli = load_program()
    import checks
    import layers
    import scipy
    import tracing

    nproc = len(os.sched_getaffinity(0))
    env = {"nproc": nproc, "python": platform.python_version(),
           "numpy": np.__version__, "scipy": scipy.__version__,
           "start_method": multiprocessing.get_start_method(),
           "SIGFRAC_THREADS": os.environ.get("SIGFRAC_THREADS")}
    print("# env " + json.dumps(env), flush=True)
    # the worker count is fixed here so that a stray setting cannot move it
    os.environ["SIGFRAC_THREADS"] = str(nproc)

    check_rng = np.random.default_rng([args.seed, 1])
    cycles = workloads.cycles(args.workload, args.seed)
    first = next(cycles)
    warm = execute(cli, first[0], check_rng, checks)

    def stream():
        yield first
        yield from cycles

    # worker processes inherit the affinity, so only single-process
    # workloads alternate their CPUs
    alternate = args.workload in workloads.SINGLE_PROCESS

    if args.trace == 0:
        recs, ran = closed_loop(cli, stream(), args.seconds, check_rng, checks,
                                alternate_cpus=alternate)
        metrics = end_to_end(recs, ran)
        metrics["setup_s"] = (measure_setup(), "s")
    else:
        metrics = layers.import_times(str(SRC), SETUP_CODE)
        plain, ran = closed_loop(cli, stream(), args.seconds * TRACE_SHARE,
                                 check_rng, checks, alternate_cpus=alternate)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, _ = closed_loop(cli, ran, float("inf"), check_rng, checks,
                                    tracer, alternate_cpus=alternate)
        finally:
            tracer.uninstall()
        overhead = (sum(r.latency for r in traced)
                    / sum(r.latency for r in plain) - 1.0)
        metrics["trace.overhead_pct"] = (overhead * 100.0, "%")
        metrics.update(span_metrics(tracer, traced))
        metrics.update(layers.all_layers(nproc))
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.npz")
        recs = plain + traced

    failed = sum(not r.ok for r in recs) + (not warm.ok)
    attempted = len(recs) + 1
    if args.trace == 1:
        metrics["error_rate"] = (failed / attempted, "ratio")
        metrics["montecarlo.flagged"] = (
            float(sum(r.flagged for r in recs) + warm.flagged), "count")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
