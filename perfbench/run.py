"""Benchmark runner for linking-saddle.

Usage (from the repository root):

    python3 perfbench/run.py --workload solve-square128 --seed 1 --seconds 45 --trace 0

``--trace 0`` prints the end-to-end metrics: set-up time and peak
resident memory from fresh processes, job time, and the share of jobs
whose outputs pass every check. Set-up and job times are medians of
wall times scaled to the reference machine's speed (see
``calibrate.py``); the wall times are printed and kept in the report.
``--trace 1`` alternates untraced and traced jobs, prints the per-layer
metrics of the traced ones and the tracing overhead, then runs the
one-shot size ladder, witness pipeline and refine. Timed jobs run one
at a time, in this single process. The
last line of standard output is the result as one JSON object; a fuller
report and the spans are written under ``.perfbench/`` in the
repository root.
"""

import os

NPROC = len(os.sched_getaffinity(0))
# Pinned before numpy is imported anywhere in this process or its children.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "LINKING_SADDLE_THREADS": str(min(4, NPROC)),
}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")

from calibrate import REFERENCE_S, reference_task  # noqa: E402
from metrics import per_layer_values, units  # noqa: E402
from tracer import Tracer, job_summary  # noqa: E402
from workloads import (LADDER, WORKLOADS, PackageMissing, RefineSquare16,  # noqa: E402
                       WitnessSquare32, check_ladder, ladder_solve, load_package)

SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 120


def quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": NPROC,
        "pinned": PINNED_ENV,
        "commit": "unknown",
    }
    try:
        # the ceiling stops git from finding a repository above the checkout
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)})
        if proc.returncode == 0:
            env["commit"] = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return env


class Ledger:
    """Jobs attempted and the checks each failed one broke."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, label, broken):
        self.attempted += 1
        if broken:
            self.failures.append({"job": label, "checks": broken})
            print(f"job {label} FAILED: " + "; ".join(broken), file=sys.stderr)

    def record(self, label, run, check):
        """Run ``run()`` timed, then ``check(result)``; returns the seconds."""
        start = time.perf_counter()
        try:
            result = run()
            seconds = time.perf_counter() - start
            broken = check(result)
        except Exception:  # a job that raises is a failed job, not a dead benchmark
            seconds = time.perf_counter() - start
            broken = [traceback.format_exc(limit=3).strip().splitlines()[-1]]
        self.add(label, broken)
        return seconds

    @property
    def failed(self):
        return len(self.failures)


def fresh_processes(workload, seed, job_dir, ledger, between):
    """Set-up times of SETUP_REPEATS fresh processes; the last also runs one job.

    Calls ``between()`` after each process. Returns (set-up seconds, peak
    RSS in MiB of the process that ran the job).
    """
    samples = []
    for i in range(SETUP_REPEATS):
        argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)]
        if i == SETUP_REPEATS - 1:
            argv.append(job_dir)
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append(result["setup_s"])
        between()
    ledger.add("fresh-process job", result["failures"])
    return samples, result["peak_rss_mib"]


def traced_job(tracer, job_id, ledger, label, run, check):
    """One job with the tracer installed; returns (seconds, per-layer summary)."""
    first = len(tracer.spans)
    before = tracer.counter_totals()
    tracer.job = job_id
    tracer.install()
    try:
        seconds = ledger.record(label, run, check)
    finally:
        tracer.uninstall()
    after = tracer.counter_totals()
    counts = {name: after[name] - before.get(name, 0) for name in after}
    return seconds, job_summary(tracer.spans[first:], counts)


def run_jobs(wl, ledger, seconds, out_dir, tracer=None, between=lambda: None):
    """Jobs until ``seconds`` have passed.

    The first job warms caches and lazy set-up; it is checked but not
    timed, and its outputs are the reference that later jobs of the same
    seed must reproduce. With a tracer, timed jobs alternate untraced and
    traced; returns (untraced times, traced times, per-job summaries).
    Calls ``between()`` after the warm-up and after each untraced job.
    """
    plain, traced, summaries = [], [], []
    start = time.perf_counter()
    ref_dir = os.path.join(out_dir, "ref")
    ledger.record("job0-warm-up", lambda: wl.run(ref_dir), lambda r: wl.check(r, ref_dir))
    between()
    k = 1
    while True:
        job_dir = os.path.join(out_dir, "job")
        run = lambda: wl.run(job_dir)  # noqa: E731
        check = lambda r: wl.check(r, job_dir)  # noqa: E731
        if tracer is not None and k % 2 == 1:
            job_s, summary = traced_job(tracer, k, ledger, f"job{k}-traced", run, check)
            traced.append(job_s)
            summaries.append(summary)
        else:
            plain.append(ledger.record(f"job{k}", run, check))
            between()
        k += 1
        elapsed = time.perf_counter() - start
        typical = statistics.median(plain + traced)
        # stop when one more typical job would overrun the window by more than half of it
        if elapsed + 0.5 * typical >= seconds and plain and (tracer is None or traced):
            return plain, traced, summaries


def run_one_shots(ls, tracer, ledger, seed, out_dir):
    """The size ladder, one witness pipeline and one refine, each traced once."""
    figures = {}
    for label, make_config, n in LADDER:
        ladder_dir = os.path.join(out_dir, f"ladder-{label}")
        figures[f"ladder.{label}"] = traced_job(
            tracer, f"ladder-{label}", ledger, f"ladder-{label}",
            lambda: ladder_solve(ls, ladder_dir, make_config(n, seed)),
            lambda rc: check_ladder(ladder_dir, rc))
    for label, cls in (("witness32", WitnessSquare32), ("refine16", RefineSquare16)):
        job_dir = os.path.join(out_dir, label)
        wl = cls(ls, job_dir, seed)
        figures[label] = traced_job(tracer, label, ledger, label,
                                    lambda: wl.run(job_dir),
                                    lambda r: wl.check(r, job_dir))
    return figures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        ls = load_package(ROOT)
    except (PackageMissing, ImportError) as exc:
        print(f"cannot load the package: {exc}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = os.path.join(OUT, f"work-{tag}")
    shutil.rmtree(out_dir, ignore_errors=True)
    wl = WORKLOADS[args.workload](ls, out_dir, args.seed)
    ledger = Ledger()
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}

    if args.trace == 0:
        reference_s = []
        reference_task()  # warm-up: the first call pays for lazy set-up
        between = lambda: reference_s.append(reference_task())  # noqa: E731
        between()
        setup, peak_rss = fresh_processes(args.workload, args.seed,
                                          os.path.join(out_dir, "fresh"), ledger, between)
        plain, _, _ = run_jobs(wl, ledger, args.seconds, out_dir, between=between)
        speed = REFERENCE_S / statistics.median(reference_s)
        values = {
            "setup_s": speed * statistics.median(setup),
            "job_s": speed * statistics.median(plain),
            "peak_rss_mib": peak_rss,
            "pass_ratio": 1.0 - ledger.failed / ledger.attempted,
        }
        report["samples"] = {"setup_wall_s": setup, "job_wall_s": plain,
                             "reference_s": reference_s}
        report["speed_factor"] = speed
        unit_of = units()
        for name, samples in report["samples"].items():
            q1, q2, q3 = quartiles(samples)
            print(f"{name}: median {q2:.4f} s, quartiles {q1:.4f} .. {q3:.4f} s, "
                  f"{len(samples)} samples")
        print(f"speed factor {speed:.4f}: setup_s {values['setup_s']:.4f} s, "
              f"job_s {values['job_s']:.4f} s at reference speed")
        print(f"peak_rss_mib: {values['peak_rss_mib']:.1f} MiB")
    else:
        tracer = Tracer()
        plain, traced, summaries = run_jobs(wl, ledger, args.seconds, out_dir, tracer)
        one_shots = run_one_shots(ls, tracer, ledger, args.seed, out_dir)
        values, unit_of, repeats = per_layer_values(plain, traced, summaries, one_shots)
        report["samples"] = {"untraced_job_s": plain, "traced_job_s": traced}
        report["job_summaries"] = summaries
        report["one_shots"] = {label: {"job_s": s, **summary}
                               for label, (s, summary) in one_shots.items()}
        report["counts_repeat_across_traced_jobs"] = repeats
        print(f"tracing overhead: {values['trace.overhead_s']:+.4f} s per job "
              f"({len(traced)} traced, {len(plain)} untraced jobs)")
        if not repeats:
            print("note: per-job counts differ between traced jobs", file=sys.stderr)
        tracer.write_spans(os.path.join(OUT, f"spans-{tag}.jsonl.gz"))

    print(f"fail_ratio: {ledger.failed}/{ledger.attempted} jobs failed")
    shutil.rmtree(out_dir, ignore_errors=True)
    report["attempted"] = ledger.attempted
    report["failures"] = ledger.failures
    report["metrics"] = values
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"report-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print("environment: " + json.dumps(report["environment"]))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit_of[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
