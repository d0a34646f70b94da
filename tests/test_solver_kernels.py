"""The solver's crest search and Newton step against the code they replaced.

``_ray_argmax`` finds a crest of the ray energy by a safeguarded Newton
iteration on its slope ``_ray_slope``; before, a geometric probe grid of
energies and a bounded Brent search found it (``oracles.ray_argmax_grid``).
Every ray the solver searches has an antidiagonal base (b, -b) and a
diagonal direction (q, q), so ``_ray`` expands its cross term from two
stiffness products; before, it took four for any base and direction
(``oracles.ray_cross_coefficients``).
``_newton_step`` solves two n x n blocks where the second variation
decouples, by K^-1-preconditioned MINRES with a check of the true
residual; before, it always factored the 2n x 2n block by sparse LU
(``oracles.newton_block_step``). On a symmetric problem the diagonal route
of ``solve_saddle`` relies on that step keeping a symmetric iterate on the
diagonal bitwise. Its MINRES (``solver._minres``) is a port of scipy's
``scipy.sparse.linalg.minres``, which it called before, and must return the
same bytes after the same number of iterations.
"""

import re
import warnings

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from linking_saddle import (
    DomainSpec,
    EnergyOverflowError,
    ProblemSpec,
    StatePair,
    directional_derivative,
    discretize,
    euler_lagrange_residual,
    evaluate_J,
    newton_solve,
    power_nonlinearity,
    zero_nonlinearity,
)
from linking_saddle import solver
from linking_saddle.solver import _newton_step, _ray, _ray_argmax, _ray_energy, _ray_slope

from oracles import csr_stiffness, newton_block_step, ray_argmax_grid, ray_cross_coefficients

GRIDS = (
    DomainSpec.interval(1),
    DomainSpec.interval(23),
    DomainSpec.square(5),
    DomainSpec.rectangle(6, 3, 1.0, 2.5),
    DomainSpec.rectangle(4, 7, 0.3, 1.1),
)
PRESETS = {"power": power_nonlinearity, "zero": zero_nonlinearity}

# (grid, preset, lam, delta); a delta of None makes the problem swap symmetric
problem_args = (
    st.integers(0, len(GRIDS) - 1),
    st.sampled_from(sorted(PRESETS)),
    st.floats(-30.0, 30.0),
    st.one_of(st.none(), st.floats(-30.0, 30.0)),
)


def make_problem(grid_index, preset, lam, delta):
    return discretize(ProblemSpec(GRIDS[grid_index], PRESETS[preset](), lam=lam,
                                  delta=lam if delta is None else delta))


def random_ray(problem, seed, base_scale):
    """The fields b, q of a ray (b, -b) + tau (q, q): b of the given size, (q, q) of norm 1."""
    rng = np.random.default_rng(seed)
    b, q = rng.standard_normal((2, problem.n))
    return base_scale * b, q / problem.pair_norm(StatePair.diagonal(q))


def ray_pairs(b, q):
    """The base (b, -b) and the direction (q, q) of a ray, as state pairs."""
    return StatePair(b, -b), StatePair.diagonal(q)


def probe_grid(t_current):
    """The oracle's positive probes, its extension out to the far probe included."""
    scale = max(abs(t_current), 1.0)
    return np.concatenate([np.geomspace(scale / 256.0, 64.0 * scale, 33),
                           np.geomspace(64.0 * scale, 64.0 * scale * 2.0**14, 33)[1:]])


def slope_or_overflow(problem, base, direction, tau):
    try:
        return directional_derivative(problem, base + tau * direction, direction)
    except EnergyOverflowError:
        return -np.inf


ray_args = (
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 0.1, 1.0]),
)


@settings(max_examples=80)
@given(st.integers(0, len(GRIDS) - 1), *ray_args, st.sampled_from([1e-3, 1.0, 1e3]))
def test_ray_coefficients_match_the_four_product_expansion(grid_index, seed, base_scale,
                                                           size):
    problem = make_problem(grid_index, "power", 0.0, None)
    b, q = random_ray(problem, seed, base_scale)
    b, q = size * b, size * q
    ray = _ray(problem, b, q)
    base, direction = ray_pairs(b, q)
    k = csr_stiffness(problem.grid.shape, problem.grid.h)
    c0, c1, c2 = ray_cross_coefficients(k, base.u, base.v,
                                        direction.u, direction.v)
    # no linear term, so 2 tau c2 is the whole slope of the cross term
    assert ray.c2 == c2
    assert c1 == 0.0


@settings(max_examples=80)
@given(*problem_args, *ray_args, st.floats(0.0, 1e3))
def test_ray_slope_matches_directional_derivative(grid_index, preset, lam, delta, seed,
                                                  base_scale, tau):
    problem = make_problem(grid_index, preset, lam, delta)
    b, q = random_ray(problem, seed, base_scale)
    base, direction = ray_pairs(b, q)
    ray = _ray(problem, b, q)
    slope, curvature = _ray_slope(problem, ray, tau)
    x = base + tau * direction
    vol, nl, op = problem.grid.cell_volume, problem.nl, problem.op
    du, dv = direction.u, direction.v
    fu, gv = nl.f(x.u), nl.g(x.v)
    dfu, dgv = nl.df(x.u), nl.dg(x.v)
    kbu, kbv, kdu, kdv = (op.apply(w) for w in (base.u, base.v, du, dv))
    # every product of the expanded formulas, in absolute value
    cross_size = (np.abs(base.u * kdv).sum() + np.abs(base.v * kdu).sum()
                  + np.abs(du * kbv).sum() + np.abs(dv * kbu).sum()
                  + 2.0 * tau * (np.abs(du * kdv).sum() + np.abs(dv * kdu).sum()))
    slope_size = cross_size + vol * (
        abs(problem.lam) * np.abs(x.u * du).sum() + abs(problem.delta) * np.abs(x.v * dv).sum()
        + np.abs(fu * du).sum() + np.abs(gv * dv).sum())
    assert abs(slope - directional_derivative(problem, x, direction)) <= 1e-12 * slope_size
    want = 2.0 * op.product(du, dv) - vol * (
        problem.lam * float(du @ du) + problem.delta * float(dv @ dv)
        + float(dfu @ (du * du)) + float(dgv @ (dv * dv)))
    curvature_size = 2.0 * np.abs(du * kdv).sum() + vol * (
        abs(problem.lam) * float(du @ du) + abs(problem.delta) * float(dv @ dv)
        + np.abs(dfu * du * du).sum() + np.abs(dgv * dv * dv).sum())
    assert abs(curvature - want) <= 1e-12 * curvature_size
    if delta is None:
        # swapping u and v negates the base
        mirror = _ray(problem, -b, q)
        assert _ray_slope(problem, mirror, tau) == (slope, curvature)


def test_ray_slope_overflow_is_minus_infinity(toy_problem):
    ray = _ray(toy_problem, np.zeros(1), np.ones(1))
    assert _ray_energy(toy_problem, ray, 1e200) == -np.inf
    assert _ray_slope(toy_problem, ray, 1e200) == (-np.inf, -np.inf)


@settings(max_examples=80)
@given(*problem_args, *ray_args, st.floats(0.0, 20.0))
def test_ray_argmax_matches_probe_grid_search(grid_index, preset, lam, delta, seed,
                                              base_scale, t_current):
    problem = make_problem(grid_index, preset, lam, delta)
    b, q = random_ray(problem, seed, base_scale)
    base, direction = ray_pairs(b, q)
    # compare only rays whose slope changes sign at most once, from rising to
    # falling, on the oracle's probes: there the crest is unique
    rising = [slope_or_overflow(problem, base, direction, t) > 0.0 for t in probe_grid(t_current)]
    assume(rising == sorted(rising, reverse=True))
    ray = _ray(problem, b, q)
    got = _ray_argmax(problem, b, q, t_current)
    want = ray_argmax_grid(lambda t: _ray_energy(problem, ray, t), t_current)
    assert (got is None) == (want is None)
    if want is None:
        return
    # an energy comparison resolves the crest to about sqrt(eps), relative
    assert abs(got - want) <= 1e-6 * max(1.0, want)
    ref = evaluate_J(problem, base + want * direction)
    size = (abs(ref.cross) + abs(ref.quad_u) + abs(ref.quad_v)
            + abs(ref.potential_u) + abs(ref.potential_v))
    assert evaluate_J(problem, base + got * direction).total >= ref.total - 1e-12 * size


@settings(max_examples=60)
@given(st.integers(0, len(GRIDS) - 1), st.sampled_from(sorted(PRESETS)),
       st.floats(-30.0, 30.0), *ray_args, st.floats(0.0, 20.0))
def test_ray_argmax_is_swap_symmetric_bitwise(grid_index, preset, lam, seed, base_scale,
                                              t_current):
    problem = make_problem(grid_index, preset, lam, None)
    b, q = random_ray(problem, seed, base_scale)
    got = _ray_argmax(problem, b, q, t_current)
    # swapping u and v negates the base
    assert _ray_argmax(problem, -b, q, t_current) == got


def test_ray_argmax_two_crests_takes_the_crest_reached_from_t_current():
    # on the one-node problem with lam = 2, delta = 0 (K = 4, vol = 1/2) the
    # ray (1, -1) + tau (1, 1) has slope 4 tau - 1 - tau^3: the energy falls
    # from the base, so tau = 0 is a crest of the half-line, turns near 0.254
    # and peaks near 1.861, higher than at the base
    problem = discretize(ProblemSpec(DomainSpec.interval(1), power_nonlinearity(),
                                     lam=2.0, delta=0.0))
    b, q = np.ones(1), np.ones(1)
    ray = _ray(problem, b, q)
    inner, outer = 0.25410169, 1.86080585
    assert _ray_energy(problem, ray, outer) > _ray_energy(problem, ray, 0.0)
    for t_current in (0.0, 0.1, 0.25):
        # a collapsed bracket returns its lower end, the base
        assert _ray_argmax(problem, b, q, t_current) == 0.0, t_current
    for t_current in (0.3, 1.0, 2.0, 7.5):
        got = _ray_argmax(problem, b, q, t_current)
        assert got == pytest.approx(outer, abs=1e-8), t_current
        slope, curvature = _ray_slope(problem, ray, got)
        assert abs(slope) <= 1e-12 and curvature < 0.0
    assert _ray_slope(problem, ray, inner)[0] == pytest.approx(0.0, abs=1e-7)
    for t_current in (0.0, 7.5):
        # the probe grid of the replaced search took the highest crest it resolved
        want = ray_argmax_grid(lambda t: _ray_energy(problem, ray, t), t_current)
        assert want == pytest.approx(outer, abs=1e-6)


NEWTON_ITERATES = ("symmetric", "antisymmetric", "random")


def random_newton_system(grid_index, preset, lam, delta, iterate, seed):
    """A problem, an iterate of the given kind and a random first-order residual there."""
    problem = make_problem(grid_index, preset, lam, delta)
    rng = np.random.default_rng(seed)
    w, z = rng.standard_normal((2, problem.n))
    x = StatePair(w, {"symmetric": w, "antisymmetric": -w, "random": z}[iterate].copy())
    return problem, x, StatePair(*rng.standard_normal((2, problem.n)))


@settings(max_examples=80)
@given(*problem_args, st.sampled_from(NEWTON_ITERATES), st.integers(0, 2**32 - 1))
def test_newton_step_matches_block_solve(grid_index, preset, lam, delta, iterate, seed):
    problem, x, res = random_newton_system(grid_index, preset, lam, delta, iterate, seed)
    vol, nl = problem.grid.cell_volume, problem.nl
    a = vol * (problem.lam + nl.df(x.u))
    b = vol * (problem.delta + nl.dg(x.v))
    want_u, want_v = newton_block_step(csr_stiffness(problem.grid.shape, problem.grid.h), a, b,
                                       res.u, res.v)
    got = _newton_step(problem, x, res)
    size = max(np.max(np.abs(want_u)), np.max(np.abs(want_v)))
    assert np.max(np.abs(got.u - want_u)) <= 1e-10 * size
    assert np.max(np.abs(got.v - want_v)) <= 1e-10 * size
    if delta is None and iterate == "symmetric":
        step = _newton_step(problem, x, euler_lagrange_residual(problem, x))
        assert np.array_equal(step.u, step.v)


# forcing terms of inexact steps; newton_solve asks min(0.01, gn^2)
FORCING_TERMS = (1e-8, 1e-4, 1e-2, 0.1)


@settings(max_examples=80)
@given(*problem_args, st.sampled_from(NEWTON_ITERATES), st.sampled_from(FORCING_TERMS),
       st.integers(0, 2**32 - 1))
def test_inexact_newton_step_meets_its_forcing_term(grid_index, preset, lam, delta, iterate,
                                                    eta, seed):
    # |F's + F|_* <= 2 eta |F|_* in the dual norm sqrt(r . K^-1 r) per block, with
    # F' the dense sum/difference block and K^-1 a dense inverse
    problem, x, res = random_newton_system(grid_index, preset, lam, delta, iterate, seed)
    try:
        step = _newton_step(problem, x, res, eta)
    except solver._StepFailed:
        # only a system the exact step refuses too, such as one node at K = a
        with pytest.raises(solver._StepFailed):
            _newton_step(problem, x, res)
        return
    vol, nl, n = problem.grid.cell_volume, problem.nl, problem.n
    a = vol * (problem.lam + nl.df(x.u))
    b = vol * (problem.delta + nl.dg(x.v))
    k = csr_stiffness(problem.grid.shape, problem.grid.h).toarray()
    avg, off = np.diag(0.5 * (a + b)), np.diag(0.5 * (b - a))
    system = np.block([[k - avg, off], [off, -(k + avg)]])
    rhs = -np.concatenate([res.u + res.v, res.u - res.v])
    linear = system @ np.concatenate([step.u + step.v, step.u - step.v]) - rhs
    k_inv = np.linalg.inv(k)

    def dual_norm(r):
        return np.sqrt(sum(part @ k_inv @ part for part in r.reshape(2, n)))

    assert dual_norm(linear) <= 2.0 * eta * dual_norm(rhs)


@settings(max_examples=80)
@given(*problem_args, st.sampled_from(NEWTON_ITERATES),
       st.sampled_from([0.0, 1e-300, 1e-12, solver._EXACT_FORCING]), st.integers(0, 2**32 - 1))
def test_newton_step_at_the_forcing_floor_is_the_exact_step(grid_index, preset, lam, delta,
                                                            iterate, eta, seed):
    problem, x, res = random_newton_system(grid_index, preset, lam, delta, iterate, seed)
    want = _newton_step(problem, x, res)
    got = _newton_step(problem, x, res, eta)
    assert got.u.tobytes() == want.u.tobytes() and got.v.tobytes() == want.v.tobytes()


def test_newton_reports_a_singular_decoupled_block():
    # one node: K = 4 and vol = 1/2, so at u = v = 1 a = vol * (lam + 3) and
    # b = vol * (delta + 3). lam = delta = 5 decouples with K - a = 0; lam = 1 and
    # delta = 13 give a = 2, b = 8, and the 2 x 2 block has determinant ab - K^2 = 0
    for lam, delta in ((5.0, None), (1.0, 13.0)):
        problem = make_problem(0, "power", lam, delta)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = newton_solve(problem, x0=StatePair(np.ones(1), np.ones(1)))
        assert report.message.startswith("second-variation system is singular: MINRES residual ")
        assert not report.converged
        # the failure is named once, with no library warning on the way
        assert not caught, [str(w.message) for w in caught]


# (domain, lam, delta): the first decouples at its symmetric iterates, the
# second always solves the coupled block
KRYLOV_PROBLEMS = ((DomainSpec.square(10), 0.0, 0.0),
                   (DomainSpec.rectangle(12, 9), 1.0, 3.0))


def assert_newton_runs_preconditioned_minres(problem, monkeypatch):
    """Newton from the default start, with its linear algebra counted and guarded.

    Every Newton system is one ``_minres`` run, each of its preconditioner
    applications calls ``op._factor`` once per block, and no dense solve,
    inverse or least-squares fit sees a matrix of n or more rows.
    """
    n, op = problem.n, problem.op
    systems, runs, factored, applications = [], [], [], []
    minres_solve, minres, factor = solver._minres_solve, solver._minres, op._factor

    def counting_solve(op, avg, off, rhs, eta=None):
        systems.append(rhs.size // n)
        return minres_solve(op, avg, off, rhs, eta)

    def counting_minres(matvec, psolve, b, rtol, maxiter, eta=0.0):
        def counted_psolve(r):
            before = len(factored)
            out = psolve(r)
            applications.append((len(factored) - before, r.size // n))
            return out
        runs.append(b.size // n)
        return minres(matvec, counted_psolve, b, rtol, maxiter, eta)

    def counting_factor(rhs):
        factored.append(rhs.size)
        return factor(rhs)

    def guarded(name, original):
        def guard(a, *args, **kwargs):
            if np.ndim(a) >= 2 and np.shape(a)[-2] >= n:
                raise AssertionError(f"np.linalg.{name} ran on a {np.shape(a)} matrix")
            return original(a, *args, **kwargs)
        return guard

    monkeypatch.setattr(solver, "_minres_solve", counting_solve)
    monkeypatch.setattr(solver, "_minres", counting_minres)
    monkeypatch.setitem(op.__dict__, "_factor", counting_factor)
    for name in ("solve", "inv", "lstsq"):
        monkeypatch.setattr(np.linalg, name, guarded(name, getattr(np.linalg, name)))
    report = newton_solve(problem)
    assert report.converged and report.nontrivial
    assert report.iterations >= 2
    # one MINRES run per Newton system, on the system's blocks
    assert systems and runs == systems
    # each preconditioner application solves K once per block, and only through _factor
    assert applications and all(calls == blocks for calls, blocks in applications)
    assert set(factored) == {n}


@pytest.mark.parametrize("domain, lam, delta", KRYLOV_PROBLEMS, ids=("symmetric", "coupled"))
def test_newton_on_2d_grids_factors_nothing(domain, lam, delta, monkeypatch):
    problem = discretize(ProblemSpec(domain, power_nonlinearity(), lam=lam, delta=delta))
    assert_newton_runs_preconditioned_minres(problem, monkeypatch)


@pytest.mark.parametrize("lam, delta", ((0.0, 0.0), (1.0, 3.0)), ids=("symmetric", "coupled"))
def test_newton_on_1d_grids_assembles_no_block(lam, delta, monkeypatch):
    # 1D grids take the same MINRES path; only K itself is factored, by its LDL^T
    problem = discretize(ProblemSpec(DomainSpec.interval(63), power_nonlinearity(),
                                     lam=lam, delta=delta))
    assert_newton_runs_preconditioned_minres(problem, monkeypatch)


@pytest.mark.parametrize("lam, delta", ((0.0, 0.0), (1.0, 3.0)), ids=("symmetric", "coupled"))
@pytest.mark.parametrize("nx, ny", ((24, 18), (96, 72)))
def test_minres_count_does_not_grow_with_the_mesh(nx, ny, lam, delta, monkeypatch):
    # K^-1 (K -/+ A) is the identity plus a compact operator: about a dozen
    # iterations per n x n solve and under 33 per coupled block on both grids;
    # without the preconditioner the same solves take 48 to over 200
    monkeypatch.setattr(solver, "_MINRES_MAX_ITER", 40)
    problem = discretize(ProblemSpec(DomainSpec.rectangle(nx, ny), power_nonlinearity(),
                                     lam=lam, delta=delta))
    assert newton_solve(problem).converged


# the exact step's miss is Euclidean, against op.rtol; the first, inexact step
# (its gradient norm is above 0.1, so eta = 0.01) misses in the dual norm
MINRES_MISSES = {
    "exact": r"MINRES residual \S+ exceeds 1\.0e-10 \* \|rhs\| = \S+",
    "inexact": r"MINRES residual \S+ exceeds 2 \* eta \* \|rhs\|_\* = \S+ in the dual norm "
               r"at eta = 1\.0e-02",
}


@pytest.mark.parametrize("domain, lam, delta, step", [
    (*args, step) for step in MINRES_MISSES for args in KRYLOV_PROBLEMS
], ids=("symmetric", "coupled", "symmetric-inexact", "coupled-inexact"))
def test_newton_names_a_minres_miss(domain, lam, delta, step, monkeypatch):
    problem = discretize(ProblemSpec(domain, power_nonlinearity(), lam=lam, delta=delta))
    monkeypatch.setattr(solver, "_MINRES_MAX_ITER", 1)
    if step == "exact":
        # a forcing term of 0 asks every step to be exact
        monkeypatch.setattr(solver, "_FORCING_MAX", 0.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = newton_solve(problem)
    assert not report.converged and report.iterations == 0
    assert re.fullmatch(r"second-variation system is singular: " + MINRES_MISSES[step]
                        + r" at gradient norm \S+, tolerance 1e-10", report.message), report.message
    assert not caught, [str(w.message) for w in caught]


@settings(max_examples=80)
@given(st.integers(0, len(GRIDS) - 1), st.floats(3.0, 8.0), st.floats(0.0, 30.0),
       st.sampled_from([0.1, 1.0, 4.0]), st.sampled_from([None, *FORCING_TERMS]),
       st.integers(0, 2**32 - 1))
def test_newton_step_keeps_a_symmetric_iterate_on_the_diagonal(grid_index, p, lam, scale, eta,
                                                               seed):
    # exact (eta None) and inexact steps alike
    problem = discretize(ProblemSpec(GRIDS[grid_index], power_nonlinearity(p), lam=lam, delta=lam))
    w = scale * np.random.default_rng(seed).standard_normal(problem.n)
    x = StatePair.diagonal(w)
    res, g, _ = solver._grad_and_norm(problem, x)
    assert np.array_equal(res.u, res.v) and np.array_equal(g.u, g.v)
    try:
        step = _newton_step(problem, x, res, eta)
    except solver._StepFailed:
        return
    assert np.array_equal(step.u, step.v)


def scipy_minres(matvec, psolve, b):
    """scipy's MINRES with the settings ``_minres_solve`` uses; returns x and the iterations."""
    n = b.size
    iterations = []
    x, _ = spla.minres(spla.LinearOperator((n, n), matvec=matvec, dtype=float), b,
                       rtol=1e-14, maxiter=solver._MINRES_MAX_ITER,
                       M=spla.LinearOperator((n, n), matvec=psolve, dtype=float),
                       callback=iterations.append)
    return x, len(iterations)


def assert_minres_matches_scipy(matvec, psolve, b):
    # a forcing term of 0 turns the one stop that is not scipy's off
    x, iterations, _ = solver._minres(matvec, psolve, b, 1e-14, solver._MINRES_MAX_ITER, 0.0)
    want, want_iterations = scipy_minres(matvec, psolve, b)
    assert x.tobytes() == want.tobytes()
    assert iterations == want_iterations
    return iterations


@settings(max_examples=80)
@given(st.integers(1, 24), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0),
       st.sampled_from([1e-3, 1.0, 1e3]), st.integers(0, 2))
def test_minres_port_matches_scipy_on_indefinite_systems(n, seed, negative_share, spread,
                                                         null_dimension):
    # A = Q diag(eigenvalues) Q^T with a share of them negative and up to two
    # zero (a singular A stops MINRES on its least-squares test), M = B B^T + I
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigenvalues = rng.uniform(0.1, 1.0, n) * spread ** rng.uniform(-1.0, 1.0, n)
    eigenvalues[rng.uniform(size=n) < negative_share] *= -1.0
    eigenvalues[:min(null_dimension, n - 1)] = 0.0
    a = (q * eigenvalues) @ q.T
    m = rng.standard_normal((n, n))
    m = m @ m.T + np.eye(n)
    assert_minres_matches_scipy(lambda x: a @ x, lambda r: m @ r, rng.standard_normal(n))


def newton_minres_system(problem, x, res, blocks):
    """The ``(matvec, psolve, rhs)`` that ``_minres_solve`` hands to MINRES at x,
    and whether ``_minres_solve`` refused the solve's true residual.

    ``blocks`` picks the p block (K - A) p = rhs_p, the coupled block, or the
    q block -(K + A) q = rhs_q in the form (K + A) q = -rhs_q that
    ``_newton_step`` passes.
    """
    vol, nl = problem.grid.cell_volume, problem.nl
    a = vol * (problem.lam + nl.df(x.u))
    b = vol * (problem.delta + nl.dg(x.v))
    avg, rhs = {1: (0.5 * (a + b), -(res.u + res.v)),
                2: (0.5 * (a + b), -np.concatenate([res.u + res.v, res.u - res.v])),
                "q": (-0.5 * (a + b), res.u - res.v)}[blocks]
    systems = []
    port = solver._minres

    def recording(matvec, psolve, rhs, rtol, maxiter, eta=0.0):
        systems.append((matvec, psolve, rhs))
        return port(matvec, psolve, rhs, rtol, maxiter, eta)

    refused = False
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "_minres", recording)
        try:
            solver._minres_solve(problem.op, avg, 0.5 * (b - a), rhs)
        except solver._StepFailed:
            refused = True
    (system,) = systems
    return system, refused


@pytest.mark.parametrize("blocks", [1, 2, "q"])
def test_minres_port_matches_scipy_on_newton_systems(blocks):
    # the systems _minres_solve hands to MINRES at a state of a 16^2 problem
    problem = discretize(ProblemSpec(DomainSpec.square(16), power_nonlinearity(),
                                     lam=3.0, delta=1.5))
    rng = np.random.default_rng(3 if blocks == "q" else blocks)
    x = StatePair(*rng.standard_normal((2, problem.n)))
    res = euler_lagrange_residual(problem, x)
    system, refused = newton_minres_system(problem, x, res, blocks)
    assert not refused
    assert assert_minres_matches_scipy(*system) >= 5


@settings(max_examples=60)
@given(*problem_args, st.sampled_from(NEWTON_ITERATES), st.sampled_from([1, 2, "q"]),
       st.integers(0, 2**32 - 1))
def test_minres_without_the_forcing_stop_matches_scipy(grid_index, preset, lam, delta, iterate,
                                                       blocks, seed):
    # the Newton systems of 1D, square and rectangle grids at random states, whether
    # or not the true residual check passes afterwards
    problem, x, res = random_newton_system(grid_index, preset, lam, delta, iterate, seed)
    system, _ = newton_minres_system(problem, x, res, blocks)
    assert_minres_matches_scipy(*system)


def test_minres_port_matches_scipy_on_an_invariant_subspace():
    # b lies along one eigenvector of A and M = 1e-10 I, so the second Lanczos
    # vector is rounding noise (beta / beta1 <= 10 eps). At these scales the
    # residual estimate after the first step is still above rtol, so only the
    # invariant-subspace test stops MINRES there; without it the port runs on
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 6)))
    a = (q * np.array([1.0, -2.0, 3.0, -4.0, 5.0, 6.0])) @ q.T
    b = 1e-4 * q[:, 0]

    def matvec(x):
        return a @ x

    def psolve(r):
        return 1e-10 * r

    beta1 = np.sqrt(b @ psolve(b))
    v = psolve(b) / beta1
    r2 = matvec(v) - ((v @ matvec(v)) / beta1) * b
    assert np.sqrt(r2 @ psolve(r2)) <= 10 * np.finfo(float).eps * beta1
    assert assert_minres_matches_scipy(matvec, psolve, b) == 1
