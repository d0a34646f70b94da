"""Independent references the test suite checks the library against.

Everything here is deliberately built from different numerics than the
package: fixed-step RK4 plus bisection for the boundary-value problem,
composite Simpson for integrals, dense O(n^2) arithmetic elsewhere, and
the algorithms that faster package kernels replaced (the probe-grid
crest search, the whole-block Newton solve, the full pilot sweeps of
the radii search and its sampled embedding constant, LAPACK's
tridiagonal eigensolver, the numpy forms of the chart kernels, the
state-space displacement residual, the hybr multistart root sweep of
the degree count, the linear program of the compactness fit and the
fixed-step flow map). No imports from
linking_saddle are allowed in this module.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


def _integrate(slope: float, n_steps: int, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """RK4 for w'' = -(lam*w + w^3) on [0,1] from w(0)=0, w'(0)=slope.

    On Python floats: each stage is y + (h/2) k, and the update is
    y + (h/6) (((k1 + 2 k2) + 2 k3) + k4), componentwise.
    """
    h = 1.0 / n_steps
    half, sixth = 0.5 * h, h / 6.0
    w = [0.0] * (n_steps + 1)
    dw = [0.0] * (n_steps + 1)
    w[0], dw[0] = 0.0, slope
    y0, y1 = 0.0, slope
    for i in range(n_steps):
        a1, b1 = y1, -(lam * y0 + y0 ** 3)
        t0, t1 = y0 + half * a1, y1 + half * b1
        a2, b2 = t1, -(lam * t0 + t0 ** 3)
        t0, t1 = y0 + half * a2, y1 + half * b2
        a3, b3 = t1, -(lam * t0 + t0 ** 3)
        t0, t1 = y0 + h * a3, y1 + h * b3
        a4, b4 = t1, -(lam * t0 + t0 ** 3)
        y0 = y0 + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        y1 = y1 + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        w[i + 1], dw[i + 1] = y0, y1
    return np.array(w), np.array(dw)


def _end_value(slope: float, n_steps: int, lam: float) -> float:
    return _integrate(slope, n_steps, lam)[0][-1]


@lru_cache(maxsize=None)
def shooting_ground_state(n_steps: int = 8192, lam: float = 0.0):
    """Positive solution of -w'' = lam*w + w^3, w(0)=w(1)=0, by bisection.

    Returns (x, w, w') sampled at n_steps+1 equispaced points.
    """
    lo = 1e-3
    if _end_value(lo, n_steps, lam) <= 0.0:
        raise RuntimeError("lower shooting bracket failed")
    hi = 1.0
    while _end_value(hi, n_steps, lam) > 0.0:
        hi *= 2.0
        if hi > 1e8:
            raise RuntimeError("no sign change found for the shooting bracket")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _end_value(mid, n_steps, lam) > 0.0:
            lo = mid
        else:
            hi = mid
    slope = 0.5 * (lo + hi)
    w, dw = _integrate(slope, n_steps, lam)
    x = np.linspace(0.0, 1.0, n_steps + 1)
    if np.min(w[1:-1]) <= 0.0:
        raise RuntimeError("shooting solution is not positive inside the interval")
    return x, w, dw


def simpson(values: np.ndarray, h: float) -> float:
    """Composite Simpson rule; len(values) must be odd."""
    if len(values) % 2 == 0:
        raise ValueError("need an even number of intervals")
    acc = values[0] + values[-1] + 4.0 * np.sum(values[1:-1:2]) + 2.0 * np.sum(values[2:-2:2])
    return float(acc * h / 3.0)


@lru_cache(maxsize=None)
def reference_critical_value(n_steps: int = 8192, lam: float = 0.0) -> float:
    """Continuum energy at the symmetric pair (w, w) built on the ground state.

    The cross term contributes the Dirichlet integral of w and each
    potential contributes the quarter-quartic integral, so the value is
    int w'^2 - int w^4 / 2.
    """
    _, w, dw = shooting_ground_state(n_steps, lam)
    h = 1.0 / n_steps
    return simpson(dw**2, h) - 0.5 * simpson(w**4, h)


def dense_dirichlet_matrix(n: int, length: float = 1.0) -> np.ndarray:
    """Second-difference stiffness matrix assembled entry by entry."""
    h = length / (n + 1)
    mat = np.zeros((n, n))
    for i in range(n):
        mat[i, i] = 2.0 / h
        if i + 1 < n:
            mat[i, i + 1] = -1.0 / h
            mat[i + 1, i] = -1.0 / h
    return mat


def csr_stiffness(counts: tuple[int, ...], widths: tuple[float, ...]):
    """The stiffness matrix in the compressed-row form the package stored before.

    (1/h) tridiag(-1, 2, -1) per axis; in 2D hy kron(K1x, I) + hx kron(I, K1y).
    """
    import scipy.sparse as sp

    factors = [sp.diags([np.full(n - 1, -1.0 / h), np.full(n, 2.0 / h), np.full(n - 1, -1.0 / h)],
                        [-1, 0, 1], format="csr") for n, h in zip(counts, widths)]
    if len(counts) == 1:
        return factors[0]
    (nx, ny), (hx, hy) = counts, widths
    return (hy * sp.kron(factors[0], sp.identity(ny, format="csr"))
            + hx * sp.kron(sp.identity(nx, format="csr"), factors[1])).tocsr()


def dirichlet_eigenvalue_1d(k: int, n: int, length: float = 1.0) -> float:
    """Closed-form k-th eigenvalue of the n-point second-difference matrix,
    scaled the way the package scales its eigenproblem (per unit cell volume)."""
    h = length / (n + 1)
    return (2.0 - 2.0 * np.cos(k * np.pi / (n + 1))) / (h * h)


def tridiagonal_eigenvalues(n: int, h: float) -> np.ndarray:
    """Ascending eigenvalues of tridiag(-1, 2, -1) / h^2 by LAPACK (``eigh_tridiagonal``)."""
    from scipy.linalg import eigh_tridiagonal

    return eigh_tridiagonal(np.full(n, 2.0 / (h * h)), np.full(n - 1, -1.0 / (h * h)),
                            eigvals_only=True)


def chart_contains(xi, chart_dim: int, rho: float, tol: float = 1e-9) -> bool:
    """Membership of a chart point in the half-ball, as ``np.linalg.norm`` computed it."""
    xi = np.asarray(xi, dtype=float)
    return bool(xi.shape == (chart_dim,) and xi[-1] >= -tol * rho
                and np.linalg.norm(xi) <= rho * (1.0 + tol))


def boundary_clearance(xi: np.ndarray, rho: float) -> tuple[float, float]:
    """Base and cap clearance of a chart point, clamped at 0, with numpy scalars."""
    lam_rel = xi[-1] / rho
    slack = 1.0 - float(np.dot(xi, xi)) / rho**2
    return max(0.0, lam_rel - 1e-6), max(0.0, slack - 1e-6)


def modal_push_chart(xi: np.ndarray, rho: float, amplitude: float, mode: int,
                     sheared: bool) -> np.ndarray:
    """The modal push of one chart point: xi moved along ``mode`` by its tapered weight."""
    q1, q2 = boundary_clearance(xi, rho)
    w = q1 * q2 * (xi[-1] / rho if sheared else 1.0)
    if w == 0.0:
        return xi
    eta = np.array(xi, dtype=float)
    eta[mode] += amplitude * w
    return eta


def homotopy_chart_value(gram: np.ndarray, r: float, t: float, xi: np.ndarray,
                         eta: np.ndarray) -> np.ndarray:
    """H_t(xi) from the deformed chart point eta, assembled with ``np.append``."""
    d_y = gram.shape[0] - 1
    anchor_norm = float(np.sqrt(gram[-1, -1]))
    out = t * np.append(gram[:d_y] @ eta, abs(eta[-1]) * anchor_norm) + (1.0 - t) * xi
    out[-1] -= r
    return out


def statepair_displacement_residual(frame, gamma, rows) -> float:
    """Worst reconstruction error of gamma(xi) - xi . B from its declared mode span.

    The row loop of states that ``displacement_residual`` replaced: each
    displacement is built as a state and measured against its
    reconstruction from the declared antidiagonal modes.
    """
    if gamma.displacement_modes is None:
        return 0.0
    worst = 0.0
    for row in rows:
        moved = gamma(row) - frame.state_from_chart(row)
        worst = max(worst, _span_residual(frame, moved, gamma.displacement_modes))
    return worst


def _span_residual(frame, x, modes) -> float:
    """Energy norm of x minus its reconstruction from the listed antidiagonal modes."""
    coeffs = frame.basis.coefficients(x)
    recon = type(x).zeros(x.size)
    for k in modes:
        recon = recon + coeffs[k] * frame.basis.direction(k)
    return frame.splitting.pair_norm(x - recon)


def ray_argmax_grid(energy, t_current: float):
    """Crest of a ray energy by the probe grid the package searched with before.

    ``energy(tau)`` is the energy at base + tau*direction, -inf where it
    overflows. A geometric probe grid brackets the highest crest it
    resolves and a bounded Brent search refines it; a far probe tells a
    crest from a ray that keeps rising, for which the result is None.
    Comparing energies resolves a crest to about the square root of the
    machine epsilon, relative.
    """
    from scipy.optimize import minimize_scalar

    scale = max(abs(t_current), 1.0)
    taus = np.concatenate([[0.0], np.geomspace(scale / 256.0, 64.0 * scale, 33)])
    vals = np.array([energy(t) for t in taus])
    far_tau = 64.0 * scale * 2.0**14
    far = energy(far_tau)
    k = int(np.argmax(vals))
    if k == taus.size - 1:
        if far >= vals[-1]:
            return None
        taus = np.concatenate([taus, np.geomspace(64.0 * scale, far_tau, 33)[1:]])
        vals = np.concatenate([vals, [energy(t) for t in taus[34:]]])
        k = int(np.argmax(vals))
        if k == taus.size - 1:
            return None
    if k == 0:
        lo, hi = 0.0, taus[1] if vals[0] >= vals[1] else taus[2]
    else:
        lo, hi = taus[k - 1], taus[min(k + 1, taus.size - 1)]
    result = minimize_scalar(lambda t: -energy(t), bounds=(lo, hi), method="bounded",
                             options={"xatol": 1e-12 * max(1.0, hi)})
    return float(result.x)


def newton_block_step(k, a: np.ndarray, b: np.ndarray, res_u: np.ndarray,
                      res_v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Newton step (u, v) from the full 2n x 2n sum/difference system.

    ``k`` is the sparse stiffness matrix, ``a`` and ``b`` the nodal
    weights vol * (lam + f'(u)) and vol * (delta + g'(v)); the sum p and
    the difference q of the step solve one sparse LU of the whole block.
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import spsolve

    n = a.size
    avg, off = sp.diags(0.5 * (a + b)), sp.diags(0.5 * (b - a))
    system = sp.bmat([[k - avg, off], [off, -(k + avg)]], format="csc")
    sol = spsolve(system, np.concatenate([-(res_u + res_v), -(res_u - res_v)]))
    p, q = sol[:n], sol[n:]
    return 0.5 * (p + q), 0.5 * (p - q)


def doubling_pilot(boundary_energies, r: float, max_doublings: int):
    """The outer radius by the pilot loop ``choose_radii`` ran before.

    ``boundary_energies(rho)`` returns the energies of every pilot
    boundary row at outer radius rho. rho = r * 2^k for k = 1, 2, ...
    until the full sweep's maximum is nonpositive. Returns
    ``(rho, k, maximum)``, or None when no doubling passes.
    """
    for k in range(1, max_doublings + 1):
        rho = r * 2.0**k
        top = max(boundary_energies(rho))
        if top <= 0:
            return rho, k, top
    return None


def sampled_embedding_constant(problem, seed: int, field_samples: int = 64) -> float:
    """Sampled sup of vol*sum|w|^p over |w|_K^p on the grid.

    Candidates: the principal mode (the smooth extremizer), smoothed
    random fields (one stiffness solve), and raw random fields.
    """
    rng = np.random.default_rng(seed)
    grid, op = problem.grid, problem.op
    p = problem.nl.p
    vol = grid.cell_volume

    def ratio(w: np.ndarray) -> float:
        energy = op.product(w, w)
        if energy <= 0:
            return 0.0
        with np.errstate(over="ignore"):
            top = vol * np.sum(np.abs(w) ** (p - 2.0) * (w * w))
        try:
            return float(top / energy ** (p / 2.0))
        except OverflowError:
            return float("nan")

    ratios = [ratio(problem.eigenpairs(1)[1][0])]
    for _ in range(field_samples):
        w = rng.standard_normal(problem.n)
        ratios += [ratio(w), ratio(op.solve(w))]
    # np.max, unlike max, keeps a nan
    return float(np.max(ratios))


def fixed_step_flow(gradient, update, x0, steps: int, step: float):
    """The undamped flow map: ``steps`` updates of size ``step``, none of them checked.

    ``gradient(x)`` is the gradient at x and ``update(x, g, s)`` one flow
    update of size s from x along g.
    """
    x = x0.copy()
    for _ in range(steps):
        x = update(x, gradient(x), step)
    return x


def fd_jacobian(map_fn, xi: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of a map of one chart point, one column at a time."""
    d = xi.size
    jac = np.empty((d, d))
    for j in range(d):
        h = 1e-6 * max(1.0, abs(xi[j]))
        e = np.zeros(d)
        e[j] = h
        jac[:, j] = (map_fn(xi + e) - map_fn(xi - e)) / (2.0 * h)
    return jac


def hybr_root_sweep(map_fn, starts: np.ndarray, r: float, rho: float,
                    residual_tol: float) -> np.ndarray:
    """The degree count's root sweep as it ran before: MINPACK hybr from each start.

    ``map_fn`` maps one chart point. A root is kept when it is finite, its
    residual is at most ``residual_tol`` max(1, r), it lies inside the
    half-ball of radius rho (last coordinate at least 1e-9 r, norm at most
    rho (1 - 1e-9)), and it is farther than max(1e-6, 1e-5 rho) from every
    root kept before it. The roots are returned in sorted order, (k, d).
    """
    from scipy.optimize import root as find_root

    scale = max(1.0, r)
    tol = max(1e-6, 1e-5 * rho)
    roots = []
    for start in starts:
        root = find_root(map_fn, start, method="hybr", tol=1e-13).x
        if not np.isfinite(root).all():
            continue
        if np.abs(map_fn(root)).max() > residual_tol * scale:
            continue
        if root[-1] < 1e-9 * r or math.sqrt(root @ root) > rho * (1 - 1e-9):
            continue
        if all(math.sqrt((root - kept) @ (root - kept)) > tol for kept in roots):
            roots.append(root)
    roots.sort(key=lambda row: tuple(np.round(row, 9)))
    return np.array(roots, dtype=float).reshape(-1, len(starts[0]))


def linprog_affine_fit(a: np.ndarray, b: np.ndarray) -> tuple[float, float, float]:
    """min c1 mean(b) + c2 over c1, c2 >= 0 with c1 b + c2 >= a, by HiGHS, as (c1, c2, objective).

    HiGHS meets the constraints to its feasibility tolerance, so c2 is
    lifted by the worst violation left, as the compactness fit did.
    """
    from scipy.optimize import linprog

    lp = linprog(
        c=[float(np.mean(b)), 1.0],
        A_ub=np.column_stack([-b, -np.ones_like(b)]),
        b_ub=-a,
        bounds=[(0.0, None), (0.0, None)],
        method="highs",
    )
    if not lp.success:
        raise RuntimeError(f"linprog failed: {lp.message}")
    c1, c2 = float(lp.x[0]), float(lp.x[1])
    c2 += max(float(np.max(a - (c1 * b + c2))), 0.0)
    return c1, c2, c1 * float(np.mean(b)) + c2
