"""The proved geometry bounds against the energies they bound.

``estimate_geometry`` reports a floor of J on the diagonal sphere N and
ceilings of J on the base and the cap of the half-ball Q in
R+ anchor + E-, where E- is the whole antidiagonal subspace. The floor
must lie below J at every point of N, and each ceiling above J at every
point of its part of the boundary: at chart rows, and at fields with no
component along the chart modes. The Green diagonal behind the floor is
pinned to the dense inverse. Shifts cover lam != delta with
lam + delta < 0.9 lam1, and the anchors lie along the principal mode and
along a solved state (the frame of acceptance criterion C08).
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linking_saddle import (
    DomainSpec,
    GeometryCertificationError,
    NonlinearitySpec,
    ProblemSpec,
    StatePair,
    build_frame,
    choose_radii,
    discretize,
    estimate_geometry,
    evaluate_J,
    linking,
    power_nonlinearity,
    solve_saddle,
)

from oracles import csr_stiffness


GRIDS = (
    DomainSpec.interval(1),
    DomainSpec.interval(7),
    DomainSpec.interval(31),
    DomainSpec.rectangle(6, 3, 1.0, 2.5),
    DomainSpec.rectangle(4, 7, 0.3, 1.1),
    DomainSpec.square(9),
    DomainSpec.rectangle(12, 5),
)


@settings(max_examples=80)
@given(st.one_of(st.builds(DomainSpec.interval, st.integers(1, 64), st.floats(0.1, 10.0)),
                 st.builds(DomainSpec.rectangle, st.integers(1, 12), st.integers(1, 9),
                           st.floats(0.1, 10.0), st.floats(0.1, 10.0))))
@example(DomainSpec.interval(64))
@example(DomainSpec.rectangle(12, 9))
def test_green_diagonal_is_the_diagonal_of_the_inverse(domain):
    problem = discretize(ProblemSpec(domain, power_nonlinearity()))
    want = np.diag(np.linalg.inv(csr_stiffness(domain.interior_counts,
                                               domain.mesh_widths).toarray()))
    got = linking._green_diagonal(problem)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)


def shifted_problem(domain, p, scale, total, split):
    """The power preset with lam + delta = total lam1, split as split : 1 - split."""
    lam1 = discretize(ProblemSpec(domain, power_nonlinearity(p))).principal_eigenvalue()
    return discretize(ProblemSpec(domain, power_nonlinearity(p, scale),
                                  lam=total * split * lam1, delta=total * (1.0 - split) * lam1))


problem_args = (
    st.sampled_from(GRIDS),
    st.sampled_from([3.0, 4.0, 8.0]),
    st.floats(0.1, 10.0),
    st.floats(0.0, 0.9, exclude_max=True),
    st.floats(0.0, 1.0),
)


def diagonal_field(problem, rng, kind):
    """A rough, a smooth or a concentrated field: white noise, K^-1 of it, or a Green's function."""
    w = rng.standard_normal(problem.n)
    if kind == 1:
        w = problem.op.solve(w)
    elif kind == 2:
        w = problem.op.solve(np.eye(problem.n)[rng.integers(problem.n)])
    return w


@settings(max_examples=100)
@given(*problem_args, st.floats(0.05, 5.0), st.integers(0, 2**32 - 1), st.integers(0, 2))
# on one node c0 is attained, and near resonance the floor is within 0.05 s^2 of J
@example(DomainSpec.interval(1), 4.0, 10.0, 0.899, 0.5, 3.0, 0, 0)
def test_sphere_floor_is_below_J_on_the_sphere(domain, p, scale, total, split, r, seed, kind):
    problem = shifted_problem(domain, p, scale, total, split)
    frame = build_frame(problem, r, 2.0 * r)
    geo = estimate_geometry(frame)
    assert geo.sphere_floor <= geo.sphere_min
    rng = np.random.default_rng(seed)
    for _ in range(4):
        w = diagonal_field(problem, rng, kind)
        w *= r / frame.splitting.pair_norm(StatePair.diagonal(w))
        energy = evaluate_J(problem, StatePair.diagonal(w)).total
        assert geo.sphere_floor <= energy + 1e-12 * max(1.0, abs(energy))


def assert_ceilings_hold(frame, rng, fraction, kind):
    """J <= cap_max on cap points and J <= base_max = 0 on base points, to rounding.

    The points are chart rows, and fields of E- with no component along
    the chart modes, at the anchor coordinate t = fraction rho on the cap.
    """
    problem, rho = frame.problem, frame.rho
    geo = estimate_geometry(frame)
    assert geo.base_max == 0.0 and geo.boundary_max == max(0.0, geo.cap_max)
    tol = 1e-11 * max(1.0, rho * rho)

    def energy(x):
        return evaluate_J(problem, x).total

    dim = frame.chart_dim
    # after the 2 dim corners, 12 cap rows and then 12 base rows
    caps, bases = np.split(linking._boundary_rows(rng, dim, rho, 2 * dim + 24)[2 * dim:], 2)
    for xi in caps:
        assert energy(frame.state_from_chart(xi)) <= geo.cap_max + tol
    for xi in bases:
        assert energy(frame.state_from_chart(xi)) <= geo.base_max + tol

    # w off the chart modes phi_k: w - sum_k <w, phi_k>_K phi_k
    modes = frame.basis.modes
    w = diagonal_field(problem, rng, kind)
    w = w - (modes @ problem.op.apply(w)) @ modes
    half_norm = frame.splitting.pair_norm(StatePair.diagonal(w)) / np.sqrt(2.0)  # |w|_K
    t = fraction * rho
    unit = frame.anchor / frame.r
    # on the cap t^2 + 2 |w|_K^2 = rho^2; on the base t = 0
    cap_w = w * (np.sqrt(0.5 * (rho * rho - t * t)) / half_norm)
    assert energy(t * unit + StatePair(-cap_w, cap_w)) <= geo.cap_max + tol
    base_w = w * (np.sqrt(0.5) * fraction * rho / half_norm)
    assert energy(StatePair(-base_w, base_w)) <= geo.base_max + tol


@settings(max_examples=100)
@given(*problem_args, st.integers(1, 4), st.floats(1.5, 64.0), st.integers(0, 2**32 - 1),
       st.floats(0.0, 1.0), st.integers(0, 2))
def test_ceilings_are_above_J_on_the_principal_frame(domain, p, scale, total, split, d_y, ratio,
                                                     seed, fraction, kind):
    problem = shifted_problem(domain, p, scale, total, split)
    d_y = min(d_y, problem.n - 1) if problem.n > 1 else 1
    r = choose_radii(problem).r
    frame = build_frame(problem, r, ratio * r, d_y=d_y)
    if problem.n == d_y:  # one node: E- is the chart mode itself
        return
    assert_ceilings_hold(frame, np.random.default_rng(seed), fraction, kind)


@lru_cache(maxsize=None)
def solved_frame(d_y):
    """The frame of C08: 32 x 32, the chosen radii, anchored along the solved state."""
    problem = discretize(ProblemSpec(DomainSpec.square(32), power_nonlinearity()))
    state = solved_square32(problem).state
    radii = choose_radii(problem)
    return build_frame(problem, radii.r, radii.rho, d_y=d_y, anchor_direction=state)


_SOLVED = {}


def solved_square32(problem):
    if "rep" not in _SOLVED:
        _SOLVED["rep"] = solve_saddle(problem)
    return _SOLVED["rep"]


@settings(max_examples=40)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0), st.integers(0, 2))
def test_ceilings_are_above_J_on_the_solved_anchor_frame(d_y, seed, fraction, kind):
    assert_ceilings_hold(solved_frame(d_y), np.random.default_rng(seed), fraction, kind)


def unequal_coupling():
    """f = t^3 and g = t^2: F != G, so neither bound has a proof."""
    quartic, cubic = power_nonlinearity(4.0), power_nonlinearity(3.0)
    return NonlinearitySpec(name="unequal", f=quartic.f, F=quartic.F, g=cubic.f, G=cubic.F,
                            df=quartic.df, dg=cubic.df, p=4.0, mu=3.0)


def test_geometry_refuses_a_coupling_without_a_proof():
    problem = discretize(ProblemSpec(DomainSpec.interval(15), unequal_coupling()))
    message = ("coupling 'unequal' is not F = G = a|t|^p: the sphere floor and the boundary "
               "ceiling are proved for the power and zero presets only")
    for certify in (lambda: choose_radii(problem),
                    lambda: estimate_geometry(build_frame(problem, 1.0, 2.0))):
        with pytest.raises(GeometryCertificationError) as caught:
            certify()
        assert str(caught.value) == message


def test_geometry_refuses_a_coupling_that_is_not_homogeneous():
    quartic = power_nonlinearity(4.0)

    def potential(t):
        return quartic.F(t) + np.asarray(t, dtype=float) ** 6

    spec = NonlinearitySpec(name="quartic-sextic", f=quartic.f, F=potential, g=quartic.f,
                            G=potential, df=quartic.df, dg=quartic.df, p=4.0, mu=4.0)
    problem = discretize(ProblemSpec(DomainSpec.interval(15), spec))
    with pytest.raises(GeometryCertificationError, match="^coupling 'quartic-sextic' is not"):
        choose_radii(problem)
