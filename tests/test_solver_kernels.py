"""The solver's crest search and Newton step against the code they replaced.

``_ray_argmax`` finds a crest of the ray energy by a safeguarded Newton
iteration on its slope ``_ray_slope``; before, a geometric probe grid of
energies and a bounded Brent search found it (``oracles.ray_argmax_grid``).
``_newton_step`` solves two n x n blocks where the second variation
decouples; before, it always factored the 2n x 2n block
(``oracles.newton_block_step``).
"""

import warnings

import numpy as np
import pytest
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
from linking_saddle.solver import _newton_step, _ray, _ray_argmax, _ray_energy, _ray_slope

from oracles import newton_block_step, ray_argmax_grid

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


def random_ray(problem, seed, base_scale, diagonal):
    """A base of the given size and a direction of unit energy norm, diagonal on request."""
    rng = np.random.default_rng(seed)
    base = base_scale * StatePair(*rng.standard_normal((2, problem.n)))
    du, dv = rng.standard_normal((2, problem.n))
    direction = StatePair(du, du.copy()) if diagonal else StatePair(du, dv)
    return base, (1.0 / problem.pair_norm(direction)) * direction


def swapped(x):
    return StatePair(x.v, x.u)


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
    st.booleans(),
)


@settings(max_examples=80)
@given(*problem_args, *ray_args, st.floats(0.0, 1e3))
def test_ray_slope_matches_directional_derivative(grid_index, preset, lam, delta, seed,
                                                  base_scale, diagonal, tau):
    problem = make_problem(grid_index, preset, lam, delta)
    base, direction = random_ray(problem, seed, base_scale, diagonal)
    ray = _ray(problem, base, direction)
    slope, curvature = _ray_slope(problem, ray, tau)
    x = base + tau * direction
    pts, vol, nl, op = problem.grid.coords, problem.grid.cell_volume, problem.nl, problem.op
    du, dv = direction.u, direction.v
    fu, gv = nl.f(pts, x.u), nl.g(pts, x.v)
    dfu, dgv = nl.df(pts, x.u), nl.dg(pts, x.v)
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
        mirror = _ray(problem, swapped(base), swapped(direction))
        assert _ray_slope(problem, mirror, tau) == (slope, curvature)


def test_ray_slope_overflow_is_minus_infinity(toy_problem):
    ray = _ray(toy_problem, StatePair.zeros(1), StatePair(np.ones(1), np.ones(1)))
    assert _ray_energy(toy_problem, ray, 1e200) == -np.inf
    assert _ray_slope(toy_problem, ray, 1e200) == (-np.inf, -np.inf)


@settings(max_examples=80)
@given(*problem_args, *ray_args, st.floats(0.0, 20.0))
def test_ray_argmax_matches_probe_grid_search(grid_index, preset, lam, delta, seed,
                                              base_scale, diagonal, t_current):
    problem = make_problem(grid_index, preset, lam, delta)
    base, direction = random_ray(problem, seed, base_scale, diagonal)
    # compare only rays whose slope changes sign at most once, from rising to
    # falling, on the oracle's probes: there the crest is unique
    rising = [slope_or_overflow(problem, base, direction, t) > 0.0 for t in probe_grid(t_current)]
    assume(rising == sorted(rising, reverse=True))
    ray = _ray(problem, base, direction)
    got = _ray_argmax(problem, base, direction, t_current)
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
                                              diagonal, t_current):
    problem = make_problem(grid_index, preset, lam, None)
    base, direction = random_ray(problem, seed, base_scale, diagonal)
    got = _ray_argmax(problem, base, direction, t_current)
    assert _ray_argmax(problem, swapped(base), swapped(direction), t_current) == got


def test_ray_argmax_two_crests_takes_the_crest_reached_from_t_current(toy_problem):
    # on this ray of the one-node problem the slope falls through zero near
    # 1.04 (a crest), rises through it near 3.71 and falls again near 7.21,
    # to a crest about twice as high as the first
    base = StatePair(np.array([2.25]), np.array([4.0]))
    direction = StatePair(np.array([-0.7]), np.array([-0.95]))
    ray = _ray(toy_problem, base, direction)
    first, second = 1.0396, 7.2064
    assert _ray_energy(toy_problem, ray, second) > 2.0 * _ray_energy(toy_problem, ray, first)
    for t_current, crest in ((0.0, first), (0.5, first), (2.0, first),
                             (7.0, second), (7.5, second)):
        got = _ray_argmax(toy_problem, base, direction, t_current)
        assert got == pytest.approx(crest, abs=1e-4), t_current
        slope, curvature = _ray_slope(toy_problem, ray, got)
        assert abs(slope) <= 1e-12 and curvature < 0.0
        # the probe grid of the replaced search took the highest crest it resolved
        want = ray_argmax_grid(lambda t: _ray_energy(toy_problem, ray, t), t_current)
        assert want == pytest.approx(second, abs=1e-4)


NEWTON_ITERATES = ("symmetric", "antisymmetric", "random")


@settings(max_examples=80)
@given(*problem_args, st.sampled_from(NEWTON_ITERATES), st.integers(0, 2**32 - 1))
def test_newton_step_matches_block_solve(grid_index, preset, lam, delta, iterate, seed):
    problem = make_problem(grid_index, preset, lam, delta)
    rng = np.random.default_rng(seed)
    w, z = rng.standard_normal((2, problem.n))
    x = StatePair(w, {"symmetric": w, "antisymmetric": -w, "random": z}[iterate].copy())
    res = StatePair(*rng.standard_normal((2, problem.n)))
    vol, pts, nl = problem.grid.cell_volume, problem.grid.coords, problem.nl
    a = vol * (problem.lam + nl.df(pts, x.u))
    b = vol * (problem.delta + nl.dg(pts, x.v))
    want_u, want_v = newton_block_step(problem.op.matrix, a, b, res.u, res.v)
    got = _newton_step(problem, x, res)
    size = max(np.max(np.abs(want_u)), np.max(np.abs(want_v)))
    assert np.max(np.abs(got.u - want_u)) <= 1e-10 * size
    assert np.max(np.abs(got.v - want_v)) <= 1e-10 * size
    if delta is None and iterate == "symmetric":
        step = _newton_step(problem, x, euler_lagrange_residual(problem, x))
        assert np.array_equal(step.u, step.v)


def test_newton_reports_a_singular_decoupled_block():
    # one node: K = 4 and vol = 1/2, so at u = v = 1 a = vol * (lam + 3) and
    # b = vol * (delta + 3). lam = delta = 5 decouples with K - a = 0; lam = 1 and
    # delta = 13 give a = 2, b = 8, and the 2 x 2 block has determinant ab - K^2 = 0
    for lam, delta in ((5.0, None), (1.0, 13.0)):
        problem = make_problem(0, "power", lam, delta)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = newton_solve(problem, x0=StatePair(np.ones(1), np.ones(1)))
        assert report.message == "second-variation system is singular"
        assert not report.converged
        # the failure is named once, with no library warning on the way
        assert not caught, [str(w.message) for w in caught]
