"""Speed of the host during a run, from a fixed reference task.

A shared host slows every process on it by 20-50% for minutes at a time
(the same solve job took 4.1 s for ten minutes and then 4.9 s), which no
window within the benchmark's time limit averages out. So a run times a
fixed reference task between its timed tasks, and scales its median
times by REFERENCE_S over the median of the reference times of the run.
The times it reports are what the work would take on the reference
machine: a change to the package moves them, a slow phase of the host
much less. One reference time is a short snapshot that can read 1.5x
slower than the jobs around it, which is why the scale comes from the
median over the run and not from the times next to each job.

The reference task mixes what the workloads spend their time on:
interpreted Python, numpy on vectors of a few thousand entries, and a
sparse LU factorization and solve. It uses numpy and scipy only, never
the package, so a change to the package cannot move it.
"""

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as sla

# Median seconds of the reference task on the reference machine (2 shared
# CPUs, numpy 2.4.6, scipy 1.17.1, scipy-openblas 0.3.31), over 132 runs
# in 14 minutes.
REFERENCE_S = 0.18

_N = 48
_T = sp.diags([-np.ones(_N - 1), 2.0 * np.ones(_N), -np.ones(_N - 1)], [-1, 0, 1])
_LAPLACIAN = (sp.kron(_T, sp.eye(_N)) + sp.kron(sp.eye(_N), _T)).tocsc()
_RNG = np.random.default_rng(0)
_RHS = _RNG.standard_normal(_N * _N)
_VEC = _RNG.standard_normal(4096)


def reference_task() -> float:
    """Run the reference task once; returns its wall seconds."""
    start = time.perf_counter()
    acc = 0
    table = {}
    for i in range(300_000):
        acc += i * i % 7
        table[i & 255] = acc
    for _ in range(1500):
        y = np.sqrt(np.abs(_VEC) + 1.0) * _VEC
        acc += float(y @ _VEC)
    for _ in range(15):
        acc += float(sla.splu(_LAPLACIAN).solve(_RHS)[0])
    return time.perf_counter() - start
