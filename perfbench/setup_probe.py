"""Set-up time, and optionally one job, of a workload in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <workload> <seed> [<job output dir>]

Times what every CLI run pays before its first iterate: importing the
package, discretizing the workload's grid(s), the first stiffness solve
(which builds the sparse LU factorization) and the modal eigen basis.
Given an output directory, it then runs one job of the workload, checks
it, and reports the peak resident memory of this process, which is what
one CLI run of the job holds. Prints one JSON object. The caller pins
the BLAS threads.
"""

import json
import os
import resource
import sys
import time


def main(workload: str, seed: int, job_dir: str = "") -> None:
    start = time.perf_counter()
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, here)
    from workloads import WORKLOADS, load_package

    ls = load_package(os.path.dirname(here))
    import numpy as np

    for dimension, n in WORKLOADS[workload].grids:
        domain = ls.DomainSpec.interval(n) if dimension == 1 else ls.DomainSpec.square(n)
        problem = ls.discretize(ls.ProblemSpec(domain, ls.power_nonlinearity(),
                                               lam=0.0, delta=0.0))
        problem.op.solve(np.ones(problem.n))
        ls.build_modal_basis(ls.DiagonalSplitting(problem.grid, problem.op))
    result = {"setup_s": time.perf_counter() - start}
    if job_dir:
        wl = WORKLOADS[workload](ls, job_dir, seed)
        try:
            result["failures"] = wl.check(wl.run(job_dir), job_dir)
        except Exception as exc:  # a job that raises is a failed job
            result["failures"] = [f"{type(exc).__name__}: {exc}"]
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), *sys.argv[3:])
