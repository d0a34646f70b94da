"""Turn traced perfbench reports into one BENCH_<label>.json.

Usage (from the repository root):

    python3 perfbench/run.py --workload solve-square128 --seed 7 --seconds 45 --trace 1
    python3 bench/bench_json.py --label <label> .perfbench/report-*-trace1.json

A ``--trace 1`` report holds one traced run of each one-shot job: the
size ladder (1D n=255, 64², 128² and 255² solves), the 32² witness
pipeline and the four-level refine from 16². For every such job the
BENCH file keeps the wall time, the time of each CLI stage, and the self
time and call count of each traced kernel. Given several reports of one
commit, every figure is the median over them, and ``repeats`` says how
many. The file also records the environment the reports were taken in.
Times are raw wall seconds with BLAS pinned to one thread. The file is
written to ``bench/BENCH_<label>.json``. Standard library only.
"""

import argparse
import json
import os
import re
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
STAGE = "cli.stage."


def job_figures(summaries):
    """Median wall, stage and kernel figures of one job over its summaries."""
    def median(key):
        return statistics.median(s.get(key, 0) for s in summaries)

    keys = sorted(set().union(*summaries))
    stages = {key[len(STAGE):-2]: median(key)
              for key in keys if key.startswith(STAGE) and key.endswith(".s")}
    kernels = {key[:-len(".self_s")]: {"self_s": median(key),
                                       "calls": median(key[:-len(".self_s")] + ".calls")}
               for key in keys if key.endswith(".self_s") and not key.startswith(STAGE)}
    return {"job_s": median("job_s"), "stages": stages, "kernels": kernels}


def bench(reports, label):
    if any(r.get("trace") != 1 for r in reports):
        raise ValueError("every report must come from a --trace 1 run")
    commits = {r["environment"]["commit"] for r in reports}
    if len(commits) != 1:
        raise ValueError(f"reports must be of one commit, got {sorted(commits)}")
    jobs = sorted(set().union(*(r["one_shots"] for r in reports)))
    missing = [job for job in jobs for r in reports if job not in r["one_shots"]]
    if missing:
        raise ValueError(f"reports lack one-shot jobs {sorted(set(missing))}")
    return {
        "label": label,
        "repeats": len(reports),
        "environment": reports[0]["environment"],
        "workloads": sorted({f"{r['workload']} seed {r['seed']}" for r in reports}),
        "failed_jobs": sum(len(r["failures"]) for r in reports),
        "jobs": {job: job_figures([r["one_shots"][job] for r in reports]) for job in jobs},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("reports", nargs="+")
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9._-]+", args.label):
        parser.error(f"label {args.label!r} must be letters, digits, '.', '_' or '-'")
    reports = []
    for path in args.reports:
        with open(path, encoding="utf-8") as fh:
            reports.append(json.load(fh))
    try:
        result = bench(reports, args.label)
    except (KeyError, ValueError) as exc:
        print(f"bench_json: {exc}", file=sys.stderr)
        return 2
    out = os.path.join(HERE, f"BENCH_{args.label}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
