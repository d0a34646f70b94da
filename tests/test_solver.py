import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from linking_saddle import (
    DiagonalSplitting,
    DomainSpec,
    EnergyOverflowError,
    InvalidSpecError,
    ProblemSpec,
    SolverConfig,
    StatePair,
    build_frame,
    choose_radii,
    discretize,
    estimate_geometry,
    euler_lagrange_residual,
    evaluate_J,
    flow_deformation,
    flow_map,
    identity_deformation,
    minimax_consistency,
    newton_solve,
    power_nonlinearity,
    ps_monitor,
    riesz_gradient,
    sample_sets,
    signflow_solve,
    solve_saddle,
    witness_predicate,
    zero_nonlinearity,
    deformation_witness_search,
)
from linking_saddle import solver
from linking_saddle.solver import IterateTrace, _ray, _ray_energy

from conftest import random_state
from oracles import csr_stiffness, fixed_step_flow, linprog_affine_fit

CREST = 2.0 * np.sqrt(2.0)


@pytest.fixture(scope="module")
def zero_problem():
    spec = ProblemSpec(domain=DomainSpec.interval(15), nonlinearity=zero_nonlinearity())
    return discretize(spec)


# lam != delta: swapping u and v changes J, so solve_saddle takes the flow
SHIFTS = {"lam": 3.0, "delta": 1.5}


@pytest.fixture(scope="module")
def shifted_line():
    return discretize(ProblemSpec(DomainSpec.interval(31), power_nonlinearity(), **SHIFTS))


@pytest.fixture(scope="module")
def shifted_square():
    return discretize(ProblemSpec(DomainSpec.square(16), power_nonlinearity(), **SHIFTS))


@pytest.fixture(scope="module")
def solved_line(line_problem):
    report = solve_saddle(line_problem)
    assert report.converged and report.nontrivial
    return report


def test_residual_zero_at_toy_crest(toy_problem):
    x = StatePair(np.array([CREST]), np.array([CREST]))
    res = euler_lagrange_residual(toy_problem, x)
    assert np.max(np.abs(res.u)) <= 1e-12
    assert np.max(np.abs(res.v)) <= 1e-12
    assert euler_lagrange_residual(toy_problem, StatePair.zeros(1)).u == 0.0


def test_dual_norm_matches_gradient_norm(square_problem):
    for seed in range(6):
        x = random_state(square_problem, seed)
        res = euler_lagrange_residual(square_problem, x)
        g = riesz_gradient(square_problem, x)
        # the gradient norm the solver reports is the dual norm of the residual
        assert solver._grad_and_norm(square_problem, x)[2] == square_problem.pair_norm(g)
        # the gradient is the stiffness solve of each residual component
        assert np.array_equal(g.u, square_problem.op.solve(res.u))
        assert np.array_equal(g.v, square_problem.op.solve(res.v))


def test_first_variation_overflow_names_the_residual(square_problem):
    x = 1e200 * random_state(square_problem, 0)
    for fn in (euler_lagrange_residual, riesz_gradient):
        with pytest.raises(EnergyOverflowError, match="first-order residual"):
            fn(square_problem, x)


def test_newton_from_near_crest(toy_problem):
    x0 = StatePair(np.array([2.5]), np.array([2.5]))
    report = newton_solve(toy_problem, x0=x0)
    assert report.converged and report.nontrivial
    assert report.state.u[0] == pytest.approx(CREST, abs=1e-10)
    assert report.critical_value == pytest.approx(16.0, abs=1e-10)
    assert report.gradient_norm <= 1e-10


def test_newton_from_low_ground_reports_trivial(toy_problem):
    # (1, 1) sits in the basin of the zero solution; the solver must say so
    report = newton_solve(toy_problem, x0=StatePair(np.array([1.0]), np.array([1.0])))
    assert report.converged
    assert not report.nontrivial
    assert np.max(np.abs(report.state.u)) <= 1e-8


def _newton_symmetric_steps(problem, monkeypatch):
    """Newton from a symmetric start; every iterate and step must keep u == v bitwise."""
    newton_step = solver._newton_step
    steps = []

    def checked(problem, x, res, eta=None):
        step = newton_step(problem, x, res, eta)
        assert np.array_equal(x.u, x.v)
        assert np.array_equal(step.u, step.v)
        steps.append(step)
        return step

    monkeypatch.setattr(solver, "_newton_step", checked)
    w = np.sin(np.linspace(0.1, 3.0, problem.n))
    report = newton_solve(problem, x0=StatePair(w.copy(), w.copy()))
    assert np.array_equal(report.state.u, report.state.v)
    return report, steps


def test_newton_keeps_swap_symmetry_bitwise(line_problem, monkeypatch):
    report, steps = _newton_symmetric_steps(line_problem, monkeypatch)
    assert len(steps) == report.iterations >= 1


def test_newton_keeps_swap_symmetry_bitwise_2d(square_problem, monkeypatch):
    report, steps = _newton_symmetric_steps(square_problem, monkeypatch)
    assert len(report.trace) > 1
    assert len(steps) == report.iterations


@pytest.mark.parametrize("method", ["signflow", "newton"])
def test_accepted_gradient_is_not_recomputed(line_problem, monkeypatch, method):
    riesz = solver.riesz_gradient
    seen = []

    def recording(problem, x, **kwargs):
        key = (x.u.tobytes(), x.v.tobytes())
        assert key not in seen, "gradient computed twice at one state"
        seen.append(key)
        return riesz(problem, x, **kwargs)

    monkeypatch.setattr(solver, "riesz_gradient", recording)
    if method == "signflow":
        report = signflow_solve(line_problem, SolverConfig(flow_tol=1e-4))
    else:
        w = np.sin(np.linspace(0.1, 3.0, line_problem.n))
        report = newton_solve(line_problem, x0=StatePair(w, w))
    assert report.converged and report.iterations >= 2
    assert len(seen) > report.iterations


RAY_GRIDS = (
    DomainSpec.interval(1),
    DomainSpec.interval(23),
    DomainSpec.square(5),
    DomainSpec.rectangle(6, 3, 1.0, 2.5),
    DomainSpec.rectangle(4, 7, 0.3, 1.1),
)


@settings(max_examples=60)
@given(
    st.sampled_from(RAY_GRIDS),
    st.floats(min_value=-30.0, max_value=30.0),
    st.floats(min_value=-30.0, max_value=30.0),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=0.0, max_value=80.0),
)
def test_ray_energy_matches_evaluate_J(domain, lam, delta, seed, log_scale):
    problem = discretize(ProblemSpec(domain, power_nonlinearity(), lam=lam, delta=delta))
    rng = np.random.default_rng(seed)
    # the rays the solver searches: an antidiagonal base (b, -b) and a diagonal direction (q, q)
    b, q = rng.standard_normal((2, problem.n))
    base, direction = StatePair(b, -b), StatePair.diagonal(q)
    ray = _ray(problem, b, q)
    # the probe grid of the replaced crest search, then the far probe that
    # _ray_argmax still compares; at t_current = 1e72 the far probe
    # overflows the potential and the others do not
    taus = np.concatenate([
        np.concatenate([[0.0], np.geomspace(scale / 256.0, 64.0 * scale, 33),
                        [64.0 * scale * 2.0**14]])
        for scale in (10.0**log_scale, 1e72)
    ])
    for tau in taus:
        got = _ray_energy(problem, ray, tau)
        try:
            want = evaluate_J(problem, base + tau * direction).total
        except EnergyOverflowError:
            want = -np.inf
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_signflow_zero_preset_contracts_exactly(zero_problem):
    rng = np.random.default_rng(3)
    w = rng.standard_normal(zero_problem.n)
    x0 = StatePair(w.copy(), w.copy())
    report = signflow_solve(zero_problem, SolverConfig(flow_tol=1e-12), x0=x0)
    norms = report.trace.state_norms
    assert norms[0] > 0.0
    for a, b in zip(norms, norms[1:]):
        if a <= 1e-12:
            break
        assert b / a == pytest.approx(1.0 - solver.FLOW_STEP, abs=1e-12)
    assert norms[-1] < 1e-6 * norms[0]


def test_signflow_toy_reaches_crest_level(toy_problem):
    x0 = StatePair(np.array([2.0]), np.array([2.0]))
    report = signflow_solve(toy_problem, SolverConfig(flow_tol=1e-8), x0=x0)
    assert report.converged
    assert report.critical_value == pytest.approx(16.0, abs=1e-6)


def test_default_pipeline_toy(toy_problem):
    report = solve_saddle(toy_problem)
    assert report.method == "diagonal-newton"
    assert report.message == "gradient tolerance reached"
    assert report.converged and report.nontrivial
    assert report.critical_value == pytest.approx(16.0, abs=1e-10)
    assert report.state.u[0] == pytest.approx(CREST, abs=1e-10)


def test_default_pipeline_shifted_toy():
    problem = discretize(ProblemSpec(DomainSpec.interval(1), power_nonlinearity(), **SHIFTS))
    report = solve_saddle(problem)
    assert report.method == "flow-then-newton"
    assert report.message == "gradient tolerance reached"
    assert report.converged and report.nontrivial
    # one node: K = 4 and vol = 1/2, so 8 v = lam u + u^3 and 8 u = delta v + v^3
    (u,), (v,) = report.state.u, report.state.v
    assert 8.0 * v == pytest.approx(SHIFTS["lam"] * u + u**3, rel=1e-12)
    assert 8.0 * u == pytest.approx(SHIFTS["delta"] * v + v**3, rel=1e-12)
    assert u != v


def test_line_solution_solves_equations(line_problem, solved_line):
    gradient_norm = line_problem.pair_norm(riesz_gradient(line_problem, solved_line.state))
    assert gradient_norm == solved_line.gradient_norm <= 1e-9
    # symmetric data: both components are the same positive bump
    assert np.array_equal(solved_line.state.u, solved_line.state.v)
    assert np.all(solved_line.state.u > 0.0)


def _sine_start(problem, amplitude):
    """A diagonal sine bump, its gradient norm and its energy."""
    w = amplitude * np.sin(np.pi * problem.grid.coords[:, 0])
    x = StatePair(w, w.copy())
    return x, problem.pair_norm(riesz_gradient(problem, x)), evaluate_J(problem, x).total


def test_flow_then_newton_reports_failed_flow_stage(shifted_line, monkeypatch):
    # Newton's full step from the unit sine bump fails the basin test even with
    # the triviality screen off, so the one flow step the budget allows is taken
    x0, gn, energy = _sine_start(shifted_line, 1.0)
    res = euler_lagrange_residual(shifted_line, x0)
    assert solver._basin_trial(shifted_line, x0, res, gn, energy, floor=0.0) is None
    monkeypatch.setattr(solver, "FLOW_MAX_ITER", 1)
    report = solve_saddle(shifted_line, x0=x0)
    assert report.method == "flow-then-newton"
    assert report.converged and report.nontrivial
    assert report.message == (
        "flow stage: iteration budget exhausted; newton stage: gradient tolerance reached"
    )


def _guards(problem, x, step, gn, energy, floor):
    """The three handoff conditions for the trial x + step, measured independently."""
    trial = x + step
    return (problem.pair_norm(riesz_gradient(problem, trial)) <= 0.1 * gn,
            problem.pair_norm(trial) > floor,
            abs(evaluate_J(problem, trial).total - energy) <= gn * problem.pair_norm(step))


def test_basin_trial_fails_on_each_guard(line_problem, monkeypatch):
    # from a small bump Newton heads for the trivial state, which the floor
    # solve_saddle sets, 0.1 of the principal crest's energy norm, rejects
    x, gn, energy = _sine_start(line_problem, 0.1)
    res = euler_lagrange_residual(line_problem, x)
    crest, floor = solver._initial_state(line_problem, None)
    assert floor == pytest.approx(0.1 * line_problem.pair_norm(crest), rel=1e-12)
    step = solver._newton_step(line_problem, x, res)
    assert _guards(line_problem, x, step, gn, energy, floor) == (True, False, True)
    assert solver._basin_trial(line_problem, x, res, gn, energy, floor=floor) is None
    trial, res_trial, g, gn_trial, energy_trial = solver._basin_trial(line_problem, x, res, gn,
                                                                      energy, floor=0.0)
    assert np.array_equal(trial.u, (x + step).u) and np.array_equal(trial.v, (x + step).v)
    assert gn_trial == line_problem.pair_norm(g) <= 0.1 * gn
    assert energy_trial == evaluate_J(line_problem, trial).total
    want = euler_lagrange_residual(line_problem, trial)
    assert np.array_equal(res_trial.u, want.u) and np.array_equal(res_trial.v, want.v)

    # half the Newton step contracts the gradient only about twofold
    newton_step = solver._newton_step
    monkeypatch.setattr(solver, "_newton_step", lambda *args: 0.5 * newton_step(*args))
    assert _guards(line_problem, x, 0.5 * step, gn, energy, floor=0.0) == (False, True, True)
    assert solver._basin_trial(line_problem, x, res, gn, energy, floor=0.0) is None
    monkeypatch.undo()

    # an energy that leaves the quadratic model at the trial
    def shifted(problem, state):
        out = evaluate_J(problem, state)
        return dataclasses.replace(out, cross=out.cross + 10.0 * gn * problem.pair_norm(step))

    monkeypatch.setattr(solver, "evaluate_J", shifted)
    assert _guards(line_problem, x, step, gn, energy, floor=0.0)[:2] == (True, True)
    assert solver._basin_trial(line_problem, x, res, gn, energy, floor=0.0) is None


def test_basin_trial_treats_a_failed_step_as_outside(line_problem, monkeypatch):
    x, gn, energy = _sine_start(line_problem, 0.1)
    res = euler_lagrange_residual(line_problem, x)

    def failing(*args):
        raise solver._StepFailed("second-variation system is singular")

    monkeypatch.setattr(solver, "_newton_step", failing)
    assert solver._basin_trial(line_problem, x, res, gn, energy, floor=0.0) is None
    monkeypatch.setattr(solver, "_newton_step", lambda problem, x, res: 1e300 * x)
    assert solver._basin_trial(line_problem, x, res, gn, energy, floor=0.0) is None


def test_basin_trials_are_due_when_the_gradient_halves(shifted_line, monkeypatch):
    tried = []

    def outside(problem, x, res, gn, energy, floor):
        tried.append(gn)
        return None

    monkeypatch.setattr(solver, "_basin_trial", outside)
    report = solve_saddle(shifted_line)
    assert report.converged and report.nontrivial
    # no trial passes, so the flow runs to flow_tol as it does on its own; a
    # trial is due at its first iterate and wherever the gradient norm has
    # halved since the last one, and none at the iterate that meets flow_tol
    flow = signflow_solve(shifted_line)
    due, want = np.inf, []
    for gn in flow.trace.gradient_norms[:-1]:
        if gn <= due:
            want.append(gn)
            due = 0.5 * gn
    assert tried == want and len(want) >= 3


def test_newton_starts_from_the_accepted_trial(shifted_square, monkeypatch):
    basin_trial = solver._basin_trial
    jumps = []

    def recording(*args, **kwargs):
        jump = basin_trial(*args, **kwargs)
        if jump is not None:
            jumps.append(jump[0])
        return jump

    monkeypatch.setattr(solver, "_basin_trial", recording)
    report = solve_saddle(shifted_square)
    assert report.converged and report.nontrivial
    (trial,) = jumps
    # the trial ends the flow stage as a full step, and Newton's first row repeats it
    energy = evaluate_J(shifted_square, trial).total
    k = report.trace.energies.index(energy)
    assert report.trace.energies[k + 1] == energy
    assert report.trace.step_sizes[k:k + 2] == [1.0, 0.0]
    assert report.iterations == len(report.trace) - 2


def test_newton_starts_from_the_handoff_gradient_norm_and_energy(monkeypatch):
    # the default solve equals its flow stage followed by a Newton run from the
    # handoff state, row for row, but does not recompute that state's
    # gradient and energy
    problem = discretize(ProblemSpec(DomainSpec.square(32), power_nonlinearity(), **SHIFTS))
    counts = {"riesz_gradient": 0, "evaluate_J": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name in counts:
        monkeypatch.setattr(solver, name, counting(name, getattr(solver, name)))
    report = solve_saddle(problem)
    together = dict(counts)
    counts.update(riesz_gradient=0, evaluate_J=0)
    cfg = SolverConfig()
    _, floor = solver._initial_state(problem, None)
    flow = signflow_solve(problem, cfg, _basin=lambda x, res, gn, energy: solver._basin_trial(
        problem, x, res, gn, energy, floor))
    assert flow.message == "Newton basin reached"
    newton = newton_solve(problem, cfg, x0=flow.state, _floor=floor)
    assert together == {"riesz_gradient": counts["riesz_gradient"] - 1,
                        "evaluate_J": counts["evaluate_J"] - 1}
    for name in ("energies", "gradient_norms", "step_sizes", "state_norms", "mu_norms"):
        assert getattr(report.trace, name) == getattr(flow.trace, name) + getattr(newton.trace, name)
    assert np.array_equal(report.state.u, newton.state.u)
    assert report.converged and report.nontrivial


def test_newton_stops_once_its_iterates_cluster(line_problem, solved_line):
    # at a converged state Newton still takes a step; the gradient norm may
    # rise there by rounding, and staying within grad_tol accepts the step
    report = newton_solve(line_problem, x0=solved_line.state)
    assert report.converged and report.iterations >= 1
    assert report.message == "gradient tolerance reached"
    ps = ps_monitor(line_problem, report.trace, 1e-10)
    assert ps.tail_cauchy and ps.tail_diameter <= solver.TAIL_TOL
    assert ps_monitor(line_problem, solved_line.trace, 1e-10).tail_diameter <= solver.TAIL_TOL


LINE_GRIDS = (DomainSpec.interval(1), DomainSpec.interval(7), DomainSpec.interval(23))
HANDOFF_GRIDS = LINE_GRIDS + (DomainSpec.square(5), DomainSpec.square(8),
                              DomainSpec.rectangle(6, 3, 1.0, 2.5),
                              DomainSpec.rectangle(4, 7, 0.3, 1.1))


@settings(max_examples=40)
@given(st.sampled_from(HANDOFF_GRIDS), st.floats(0.0, 10.0), st.floats(0.0, 10.0))
def test_basin_handoff_matches_the_full_flow(domain, lam, delta):
    # the route the handoff replaces: flow to flow_tol, then Newton from there
    assume(lam != delta)
    problem = discretize(ProblemSpec(domain, power_nonlinearity(), lam=lam, delta=delta))
    fast = solve_saddle(problem)
    assert fast.method == "flow-then-newton"
    flow = signflow_solve(problem)
    full = newton_solve(problem, x0=flow.state)
    assert (fast.converged, fast.nontrivial) == (full.converged, full.nontrivial)
    assert fast.converged
    assert abs(fast.critical_value - full.critical_value) <= 1e-12 * abs(full.critical_value)


@settings(max_examples=40)
@given(st.sampled_from(HANDOFF_GRIDS), st.floats(0.0, 10.0))
def test_diagonal_route_matches_the_full_flow(domain, lam):
    # the route the diagonal Newton replaces on symmetric problems
    problem = discretize(ProblemSpec(domain, power_nonlinearity(), lam=lam, delta=lam))
    fast = solve_saddle(problem)
    # past the first eigenvalue the principal ray has no crest, and the zero
    # start takes the flow; the pair route also runs, saying why, where the
    # diagonal route declines its point
    crest = np.any(solver._initial_state(problem, None)[0].u != 0.0)
    declined = fast.message.startswith("diagonal route: ")
    assert fast.method == ("diagonal-newton" if crest and not declined else "flow-then-newton")
    assert crest or not declined
    full = newton_solve(problem, x0=signflow_solve(problem).state)
    assert (fast.converged, fast.nontrivial) == (full.converged, full.nontrivial)
    assert abs(fast.critical_value - full.critical_value) <= 1e-12 * abs(full.critical_value)


def test_pinned_newton_rejects_a_trial_pinned_to_the_trivial_state():
    # past the first eigenvalue the energy falls from 0 along the principal
    # mode, so every Newton trial from the sine bump pins to tau = 0
    problem = discretize(ProblemSpec(DomainSpec.interval(31), power_nonlinearity(),
                                     lam=12.0, delta=12.0))
    assert problem.eigenpairs(1)[0][0] < 12.0
    w = np.sin(np.pi * problem.grid.coords[:, 0])
    x0 = StatePair(w, w.copy())
    report = newton_solve(problem, x0=x0, _pin=True)
    assert report.method == "diagonal-newton"
    # the stall names the gradient norm it stopped at and the tolerance
    stalled = (f"line search stalled at gradient norm {report.gradient_norm:.4g}, "
               f"tolerance {SolverConfig().grad_tol:.4g}")
    assert report.message == stalled
    assert not report.converged and not report.nontrivial
    assert np.array_equal(report.state.u, w) and np.array_equal(report.state.v, w)
    # solve_saddle then takes the pair route from the same start
    fallback = solve_saddle(problem, x0=x0)
    assert fallback.method == "flow-then-newton"
    assert fallback.message == f"diagonal route: {stalled}; gradient tolerance reached"


@pytest.mark.parametrize("lam", [10.0, 12.0, 30.0])
def test_a_start_on_a_crestless_problem_sets_the_triviality_floor(lam):
    # past the first eigenvalue the principal ray has no crest; from the sine
    # bump the solve converges to a state of energy norm below 1e-19, which
    # the floor of 0.1 times the start's norm calls trivial
    problem = discretize(ProblemSpec(DomainSpec.interval(31), power_nonlinearity(),
                                     lam=lam, delta=lam))
    w = np.sin(np.pi * problem.grid.coords[:, 0])
    x0 = StatePair(w, w.copy())
    _, floor = solver._initial_state(problem, x0)
    assert floor == solver.TRIVIAL_FRACTION * problem.pair_norm(x0) > 0.3
    assert solver._initial_state(problem, None)[1] == 0.0
    report = solve_saddle(problem, x0=x0)
    assert report.converged and not report.nontrivial
    assert report.trace.state_norms[-1] < 1e-19


def test_diagonal_route_declines_a_second_negative_direction():
    # on this coarse, long rectangle the pinned Newton from the principal
    # crest stays symmetric about the middle and stops at a critical point of
    # twice the least level, whose second variation has two negative directions
    problem = discretize(ProblemSpec(DomainSpec.rectangle(6, 3, 1.0, 2.5), power_nonlinearity()))
    diagonal = newton_solve(problem, x0=solver._initial_state(problem, None)[0], _pin=True)
    assert diagonal.converged and diagonal.nontrivial
    ratio = solver._second_curvature_ratio(problem, diagonal.state.u)
    assert ratio > 2.5
    report = solve_saddle(problem)
    assert report.method == "flow-then-newton"
    assert report.message == (f"diagonal route: a second negative curvature direction "
                              f"(nu_2 = {ratio:.6g}); gradient tolerance reached")
    assert report.converged and report.nontrivial
    assert report.critical_value < 0.5 * diagonal.critical_value
    assert solver._second_curvature_ratio(problem, report.state.u) < 1.0


@pytest.mark.parametrize("domain", [DomainSpec.interval(5), DomainSpec.interval(255),
                                    DomainSpec.square(16), DomainSpec.rectangle(8, 14, 0.3, 1.1),
                                    DomainSpec.interval(2), DomainSpec.interval(3),
                                    DomainSpec.interval(4)],
                         ids=["1d5", "1d255", "16sq", "rect8x14", "1d2", "1d3", "1d4"])
def test_second_curvature_ratio_is_the_second_eigenvalue_of_the_pencil(domain):
    problem = discretize(ProblemSpec(domain, power_nonlinearity(), lam=2.0, delta=2.0))
    w = signflow_solve(problem).state.u
    a = problem.grid.cell_volume * (2.0 + problem.nl.df(w))
    k = csr_stiffness(domain.interior_counts, domain.mesh_widths).toarray()
    dense = scipy.linalg.eigh(np.diag(a), k, eigvals_only=True)
    assert solver._second_curvature_ratio(problem, w) == pytest.approx(dense[-2], rel=1e-8)


# the long rectangles the diagonal route declines, with nu_2 to its printed digits
DECLINED = {
    "rect6x3": (DomainSpec.rectangle(6, 3, 1.0, 2.5),
                "diagonal route: a second negative curvature direction (nu_2 = 2.57646); "
                "gradient tolerance reached"),
    "rect4x7": (DomainSpec.rectangle(4, 7, 0.3, 1.1),
                "diagonal route: a second negative curvature direction (nu_2 = 2.96477); "
                "gradient tolerance reached"),
}


@pytest.mark.parametrize("domain, message", DECLINED.values(), ids=DECLINED.keys())
def test_diagonal_route_declines_the_long_rectangles(domain, message):
    report = solve_saddle(discretize(ProblemSpec(domain, power_nonlinearity())))
    assert report.method == "flow-then-newton"
    assert report.message == message
    assert report.converged and report.nontrivial


def _twin_coupling():
    """The power coupling with g an equal function that is a different object."""
    nl = power_nonlinearity()
    return dataclasses.replace(nl, g=lambda t: nl.f(t))


@pytest.mark.parametrize("nonlinearity, lam, delta, start, method", [
    (power_nonlinearity, 0.0, 0.0, None, "diagonal-newton"),
    (power_nonlinearity, 2.0, 2.0, None, "diagonal-newton"),
    (power_nonlinearity, 0.0, 0.0, "diagonal", "diagonal-newton"),
    (power_nonlinearity, 3.0, 1.5, None, "flow-then-newton"),
    (power_nonlinearity, 1.5, 3.0, None, "flow-then-newton"),
    (power_nonlinearity, 0.0, 0.0, "asymmetric", "flow-then-newton"),
    (_twin_coupling, 0.0, 0.0, None, "flow-then-newton"),
], ids=["default", "shifted-equally", "diagonal-start", "lam>delta", "lam<delta",
        "asymmetric-start", "twin-coupling"])
def test_solve_takes_the_diagonal_route_exactly_on_symmetric_problems(nonlinearity, lam, delta,
                                                                      start, method):
    problem = discretize(ProblemSpec(DomainSpec.interval(31), nonlinearity(), lam=lam,
                                     delta=delta))
    w = np.sin(np.pi * problem.grid.coords[:, 0])
    x0 = {None: None, "diagonal": StatePair(w, w.copy()),
          "asymmetric": StatePair(w, 1.5 * w)}[start]
    report = solve_saddle(problem, x0=x0)
    assert report.method == method
    assert report.converged and report.nontrivial


@pytest.mark.parametrize("domain, p", [(DomainSpec.square(32), 8.0),
                                       (DomainSpec.interval(63), 120.0)],
                         ids=["32sq-p8", "1d63-p120"])
def test_diagonal_newton_converges_where_the_flow_was_slow(domain, p):
    # the flow took 39 iterations on the first and ran out of its 400 on the second
    problem = discretize(ProblemSpec(domain, power_nonlinearity(p)))
    report = solve_saddle(problem)
    assert report.method == "diagonal-newton"
    assert report.converged and report.nontrivial
    assert report.iterations < 10
    ps = ps_monitor(problem, report.trace, 1e-10)
    assert ps.ok


def test_diagonal_trace_rows_are_the_pair_kernels(square_problem):
    report = solve_saddle(square_problem)
    assert report.method == "diagonal-newton" and len(report.trace) >= 2
    trace = report.trace
    for k, x in zip((-2, -1), trace.last_states):
        assert np.array_equal(x.u, x.v)
        _, _, gn = solver._grad_and_norm(square_problem, x)
        assert trace.energies[k] == evaluate_J(square_problem, x).total
        assert trace.gradient_norms[k] == gn
        assert trace.state_norms[k] == square_problem.pair_norm(x)
        assert trace.mu_norms[k] == solver._mu_norm(square_problem, x)
    # the report's residual, critical value and gradient norm are those of the final pair
    x = report.state
    res = euler_lagrange_residual(square_problem, x)
    assert np.array_equal(report.residual.u, res.u) and np.array_equal(report.residual.v, res.v)
    assert report.critical_value == evaluate_J(square_problem, x).total == trace.energies[-1]
    assert report.gradient_norm == trace.gradient_norms[-1] <= 1e-10
    assert report.iterations == len(trace) - 1


def test_zero_preset_converges_to_trivial(zero_problem):
    report = solve_saddle(zero_problem)
    assert report.method == "flow-then-newton"
    assert report.converged
    assert not report.nontrivial
    # the principal ray has no crest, so the floor is 0 and the solve ends
    # exactly at the zero start, the one trivial state
    assert solver._initial_state(zero_problem, None)[1] == 0.0
    assert report.trace.state_norms[-1] == 0.0


def test_solver_config_validation():
    with pytest.raises(InvalidSpecError, match="grad_tol"):
        SolverConfig(grad_tol=0.0)
    with pytest.raises(InvalidSpecError, match="flow_tol"):
        SolverConfig(flow_tol=-1.0)
    with pytest.raises(InvalidSpecError, match="max_iter"):
        SolverConfig(max_iter=0)
    assert [f.name for f in dataclasses.fields(SolverConfig)] == ["grad_tol", "max_iter",
                                                                  "flow_tol"]


def test_trace_bookkeeping():
    trace = IterateTrace()
    assert len(trace) == 0
    states = [StatePair.zeros(3) for _ in range(3)]
    for k, state in enumerate(states):
        trace.append(1.0 + k, 0.5, 0.1, 2.0, 3.0 + k, state)
    assert len(trace) == 3
    assert trace.energies == [1.0, 2.0, 3.0]
    assert trace.mu_norms == [3.0, 4.0, 5.0]
    assert trace.last_states == states[1:]


@settings(max_examples=200)
@given(st.lists(st.tuples(st.floats(0.0, 1e3), st.floats(0.0, 1e3)), min_size=1, max_size=24),
       st.floats(0.5, 3.0))
def test_affine_fit_matches_the_linear_program(pairs, power):
    # (energy norm, mu norm) pairs; the mu norms grow like a power of the energy norm
    b = np.array([p[0] for p in pairs])
    a = np.array([p[1] for p in pairs]) + b**power
    c1, c2 = solver._affine_fit(a, b)
    _, _, want = linprog_affine_fit(a, b)
    assert c1 >= 0.0 and c2 >= 0.0
    assert abs(c1 * np.mean(b) + c2 - want) <= 1e-12 * max(abs(want), 1e-300)
    # c2 is max(0, max(a - c1 b)), so only rounding can leave a constraint short
    assert np.all(c1 * b + c2 - a >= -1e-15 * np.maximum(a, 1.0))


def test_ps_monitor_healthy_trace(line_problem, solved_line):
    report = ps_monitor(line_problem, solved_line.trace, grad_tol=1e-10)
    assert report.bounded
    assert report.grad_converged
    assert report.tail_cauchy
    assert report.fit_ok
    assert report.fit_slack >= -1e-9 * max(1.0, report.fit_c2)
    assert report.ok


def test_ps_monitor_constant_trace(toy_problem):
    trace = IterateTrace()
    x = StatePair(np.array([CREST]), np.array([CREST]))
    for _ in range(5):
        trace.append(16.0, 1e-12, 0.0, 8.0, toy_problem.grid.cell_volume * 2.0 * CREST**4,
                     x.copy())
    report = ps_monitor(toy_problem, trace, grad_tol=1e-10)
    assert report.tail_diameter == 0.0
    assert report.ok


def test_ps_monitor_empty_trace(toy_problem):
    with pytest.raises(InvalidSpecError):
        ps_monitor(toy_problem, IterateTrace(), grad_tol=1e-10)


def test_ps_monitor_flags_unbounded(toy_problem):
    trace = IterateTrace()
    x = StatePair(np.array([1.0]), np.array([1.0]))
    trace.append(float("inf"), 1.0, 0.1, 1.0, 2.0, x)
    report = ps_monitor(toy_problem, trace, grad_tol=1e-10)
    assert not report.bounded
    assert not report.ok


def test_minimax_consistency_edges():
    assert minimax_consistency(1.0, 0.5)
    assert not minimax_consistency(0.4, 0.5)
    assert minimax_consistency(0.5 - 1e-12, 0.5)  # equality up to tolerance


def test_minimax_tolerance_is_relative_to_the_level():
    # intersect on 1D nx = 15 at p = 2.05 and scale 3.5694218829: the identity
    # image undercuts J at the anchor by 2.4e-8, which is 2e-15 relative
    assert minimax_consistency(12105276.658075109, 12105276.658075133)
    assert not minimax_consistency(12105276.0, 12105276.658075133)
    # below |J| = 1 the slack is MINIMAX_TOL itself
    assert minimax_consistency(-0.5 - 0.9e-8, -0.5)
    assert not minimax_consistency(-0.5 - 1.1e-8, -0.5)


def test_witness_predicate_strictness():
    level, eps, prox = 10.0, 0.1, 1.0
    ok = witness_predicate(10.05, 0.1, 0.5, level, eps, prox)
    assert ok
    # gradient bound is strict
    assert not witness_predicate(10.05, 8.0 * eps / prox, 0.5, level, eps, prox)
    assert witness_predicate(10.05, 8.0 * eps / prox - 1e-9, 0.5, level, eps, prox)
    # energy window is closed
    assert witness_predicate(level + 2.0 * eps, 0.1, 0.5, level, eps, prox)
    assert not witness_predicate(level + 2.0 * eps + 1e-9, 0.1, 0.5, level, eps, prox)
    # proximity cap
    assert not witness_predicate(10.0, 0.1, 2.0 * prox + 1e-9, level, eps, prox)


@pytest.fixture(scope="module")
def witness_setup(line_problem, solved_line):
    choice = choose_radii(line_problem)
    frame = build_frame(line_problem, choice.r, choice.rho, anchor_direction=solved_line.state)
    from linking_saddle import estimate_geometry

    geo = estimate_geometry(frame)
    return frame, geo


def test_witness_search_finds_near_critical_point(line_problem, solved_line, witness_setup):
    frame, geo = witness_setup
    gamma = flow_deformation(line_problem, frame, steps=12, step=0.2)
    level = solved_line.critical_value
    eps = 0.1 * abs(level)
    report = deformation_witness_search(
        line_problem, frame, gamma, level, geo.boundary_max, eps=eps, prox=1.0
    )
    assert report.precondition_ok
    assert report.found
    assert abs(report.energy - level) <= 2.0 * eps
    assert report.gradient_norm < 8.0 * eps / 1.0
    assert report.distance <= 2.0


def test_witness_search_budget_exhaustion(line_problem, solved_line, witness_setup):
    frame, geo = witness_setup
    gamma = flow_deformation(line_problem, frame, steps=2, step=1e-4)
    level = solved_line.critical_value
    eps = 0.1 * abs(level)
    # a huge proximity radius makes the gradient clause nearly unreachable
    # for a flow this slow, so the budget runs out
    report = deformation_witness_search(
        line_problem, frame, gamma, level, geo.boundary_max,
        eps=eps, prox=1e6, flow_steps=2, flow_step=1e-4,
    )
    assert not report.found
    assert "budget" in report.reason


def test_witness_search_validates_inputs(line_problem, witness_setup):
    frame, geo = witness_setup
    gamma = flow_deformation(line_problem, frame, steps=2, step=0.1)
    with pytest.raises(InvalidSpecError):
        deformation_witness_search(line_problem, frame, gamma, 10.0, 0.0, eps=-1.0, prox=1.0)
    with pytest.raises(InvalidSpecError):
        deformation_witness_search(line_problem, frame, gamma, 10.0, 9.99, eps=5.0, prox=1.0)
    with pytest.raises(InvalidSpecError):
        deformation_witness_search(line_problem, frame, gamma, 10.0, 0.0, eps=1.0, prox=0.0)
    with pytest.raises(InvalidSpecError, match="flow_steps"):
        deformation_witness_search(line_problem, frame, gamma, 10.0, 0.0, eps=1.0, prox=1.0,
                                   flow_steps=-1)


def test_witness_search_refuses_a_problem_that_is_not_the_frames(line_problem, solved_line):
    # a search on p = 4 with a frame and flow built on p = 6 reported "witness found"
    other = discretize(ProblemSpec(DomainSpec.interval(31), power_nonlinearity(p=6.0)))
    choice = choose_radii(other)
    frame = build_frame(other, choice.r, choice.rho)
    geo = estimate_geometry(frame)
    level = solved_line.critical_value
    with pytest.raises(InvalidSpecError, match="another problem"):
        flow_deformation(line_problem, frame)
    gamma = flow_deformation(other, frame)
    with pytest.raises(InvalidSpecError, match="another problem"):
        deformation_witness_search(line_problem, frame, gamma, level, geo.boundary_max,
                                   eps=0.1 * abs(level), prox=1.0)


def test_flow_update_repins_a_collapsed_diagonal_on_the_principal_mode(line_problem):
    # a state and a gradient with no diagonal part leave nothing to pin the
    # crest along, so the update re-pins it along the principal diagonal mode
    w = np.sin(np.pi * line_problem.grid.coords[:, 0])
    x = StatePair(w, -w)
    split = DiagonalSplitting(line_problem.grid, line_problem.op)
    moved = solver._flow_update(split, line_problem, x, x, 0.25)
    p_new = split.antidiagonal_part(x) + 0.25 * split.antidiagonal_part(x)
    direction = solver._principal_direction(line_problem)
    assert line_problem.pair_norm(direction) == pytest.approx(1.0, rel=1e-12)
    tau = solver._ray_argmax(line_problem, p_new.u, direction.u, 0.0)
    assert tau > 0.0
    want = p_new + (0.5 * tau) * direction
    assert np.array_equal(moved.u, want.u) and np.array_equal(moved.v, want.v)


def test_flow_map_keeps_crest_fixed(toy_problem):
    x = StatePair(np.array([CREST]), np.array([CREST]))
    moved = flow_map(toy_problem, x, steps=5, step=0.2)
    assert moved.u == pytest.approx(x.u, rel=1e-8)


def test_flow_map_is_the_fixed_step_flow_where_no_trial_is_rejected(line_problem, solved_line,
                                                                    monkeypatch):
    frame = build_frame(line_problem, 4.0, 16.0, anchor_direction=solved_line.state)
    split = frame.splitting
    updates = []
    update = solver._flow_update
    monkeypatch.setattr(solver, "_flow_update",
                        lambda *args: updates.append(args[-1]) or update(*args))
    rows = sample_sets(frame, interior_count=6, seed=3)
    for xi in rows:
        x0 = frame.state_from_chart(xi)
        updates.clear()
        moved = flow_map(line_problem, x0, 12, 0.2)
        # twelve trials, each of the full step: none was rejected
        assert updates == [0.2] * 12
        want = fixed_step_flow(lambda x: riesz_gradient(line_problem, x),
                               lambda x, g, s: update(split, line_problem, x, g, s),
                               x0, 12, 0.2)
        assert np.array_equal(moved.u, want.u) and np.array_equal(moved.v, want.v)


@pytest.fixture(scope="module")
def square32_solved():
    problem = discretize(ProblemSpec(DomainSpec.square(32), power_nonlinearity()))
    report = solve_saddle(problem)
    assert report.converged and report.nontrivial
    return problem, report


def test_witness_search_reports_where_the_undamped_flow_overflows(square32_solved):
    # twice the certified rho: the undamped flow map overflowed on frame samples
    # this wide, and the search raised EnergyOverflowError instead of reporting
    problem, rep = square32_solved
    radii = choose_radii(problem)
    frame = build_frame(problem, radii.r, 2.0 * radii.rho, anchor_direction=rep.state)
    geo = estimate_geometry(frame)
    gamma = flow_deformation(problem, frame)
    eps = 0.1 * rep.critical_value
    report = deformation_witness_search(problem, frame, gamma, rep.critical_value,
                                        geo.boundary_max, eps=eps, prox=1.0)
    assert report.precondition_ok and report.found
    assert np.isfinite([report.energy, report.gradient_norm, report.sup_value]).all()
    assert abs(report.energy - rep.critical_value) <= 2.0 * eps
    assert report.gradient_norm < 8.0 * eps


def _evaluated_states(monkeypatch):
    """The (u, v) bytes of each state ``solver.evaluate_J`` is called on, in call order."""
    states = []
    evaluate = solver.evaluate_J

    def counting(problem, x):
        states.append((x.u.tobytes(), x.v.tobytes()))
        return evaluate(problem, x)

    monkeypatch.setattr(solver, "evaluate_J", counting)
    return states


def test_solve_evaluates_each_energy_once(shifted_line, monkeypatch):
    jumps = []
    basin = solver._basin_trial
    monkeypatch.setattr(solver, "_basin_trial",
                        lambda *args, **kwargs: jumps.append(basin(*args, **kwargs)) or jumps[-1])
    states = _evaluated_states(monkeypatch)
    report = solve_saddle(shifted_line)
    assert report.converged and report.nontrivial
    # the flow hands off, and the energy of the handoff state is the basin trial's
    assert jumps[-1] is not None
    assert report.trace.energies.count(jumps[-1][4]) == 2  # the last flow row and Newton's first
    assert len(states) == len(set(states))


def test_diagonal_route_evaluates_each_energy_once(line_problem, monkeypatch):
    states = _evaluated_states(monkeypatch)
    report = solve_saddle(line_problem)
    assert report.method == "diagonal-newton" and report.converged and report.nontrivial
    # one energy per trace row; the crest pins evaluate the ray energy instead
    assert len(states) == len(set(states)) == len(report.trace)


def test_witness_search_evaluates_each_energy_once(line_problem, witness_setup, solved_line,
                                                   monkeypatch):
    frame, geo = witness_setup
    gamma = flow_deformation(line_problem, frame, steps=2, step=1e-4)
    level = solved_line.critical_value
    states = _evaluated_states(monkeypatch)
    report = deformation_witness_search(line_problem, frame, gamma, level, geo.boundary_max,
                                        eps=0.1 * abs(level), prox=1e6, flow_steps=2,
                                        flow_step=1e-4)
    assert report.iterations == 2
    # the images, then one energy per flow step
    assert len(states) == len(set(states)) == frame.chart_dim * 2 + 48 + 2


def test_witness_search_solves_one_gradient_per_flow_step(line_problem, witness_setup,
                                                         solved_line, monkeypatch):
    frame, geo = witness_setup
    gamma = flow_deformation(line_problem, frame, steps=2, step=1e-4)
    level = solved_line.critical_value
    gradients, updates = [], []
    riesz, update = solver.riesz_gradient, solver._flow_update
    monkeypatch.setattr(solver, "riesz_gradient",
                        lambda *args, **kwargs: gradients.append(1) or riesz(*args, **kwargs))
    monkeypatch.setattr(solver, "_flow_update", lambda *args: updates.append(1) or update(*args))
    counts = {}
    for steps in (0, 2, 10):
        gradients.clear()
        updates.clear()
        report = deformation_witness_search(line_problem, frame, gamma, level, geo.boundary_max,
                                            eps=0.1 * abs(level), prox=1e6, flow_steps=steps,
                                            flow_step=1e-4)
        assert not report.found and report.iterations == steps
        counts[steps] = (len(gradients), len(updates))
    # the images cost the same at every budget; past them, each step takes one
    # trial and solves one gradient, at that trial
    for steps in (2, 10):
        assert (counts[steps][0] - counts[0][0], counts[steps][1] - counts[0][1]) == (steps, steps)


def test_witness_search_stops_where_the_step_collapses(line_problem, witness_setup,
                                                       solved_line, monkeypatch):
    frame, geo = witness_setup
    level = solved_line.critical_value
    tried = []
    update = solver._flow_update
    # every trial overflows the energy, so every trial is rejected
    monkeypatch.setattr(solver, "_flow_update",
                        lambda *args: tried.append(args[-1]) or 1e300 * update(*args))
    chain, s = [], 0.2
    while s >= solver._MIN_FLOW_STEP:
        chain.append(s)
        s *= 0.5
    for steps in (1, 10, 119):
        tried.clear()
        report = deformation_witness_search(line_problem, frame, identity_deformation(frame),
                                            level, geo.boundary_max, eps=0.1 * abs(level),
                                            prox=1e6, flow_steps=steps, flow_step=0.2)
        assert report.precondition_ok and not report.found
        assert (report.reason, report.iterations) == ("step size collapsed", 0)
        # one chain of halvings, not one per step of the budget
        assert tried == chain


def test_witness_search_reports_an_overflowing_image():
    problem = discretize(ProblemSpec(DomainSpec.interval(15), power_nonlinearity(p=80)))
    frame = build_frame(problem, 1.0, 1e6)
    report = deformation_witness_search(problem, frame, identity_deformation(frame), 10.0, 0.0,
                                        eps=1.0, prox=1.0)
    assert not report.found and not report.precondition_ok
    assert report.sup_value == report.energy == np.inf and report.iterations == 0
    # the overflowing row is the cap top, the second corner probe
    assert report.reason == ("deformed sample 1 overflows: "
                             "energy term 'potential-u' is not finite: inf")


@pytest.fixture(scope="module")
def line63():
    return discretize(ProblemSpec(DomainSpec.interval(63), power_nonlinearity()))


def test_eigen_start_reaches_the_anchor_starts_critical_value(line63):
    # the unit principal mode lies off the crest that starts a default solve
    anchor = solve_saddle(line63)
    assert anchor.converged and anchor.nontrivial
    x0 = solver._principal_direction(line63)
    for report in (solve_saddle(line63, x0=x0),
                   signflow_solve(line63, SolverConfig(flow_tol=1e-10), x0=x0)):
        assert report.converged and report.nontrivial
        assert report.critical_value == pytest.approx(anchor.critical_value, rel=1e-14)


def test_newton_alone_from_the_eigen_start_falls_to_the_trivial_state(line63):
    # the sign-respecting flow is what escapes the trivial basin
    report = newton_solve(line63, x0=solver._principal_direction(line63))
    assert report.converged and not report.nontrivial
    assert abs(report.critical_value) < 1e-30 and report.trace.state_norms[-1] < 1e-10


def test_zero_start_stays_trivial(line63):
    for solve in (solve_saddle, signflow_solve, newton_solve):
        report = solve(line63, x0=StatePair.zeros(63))
        assert report.converged and not report.nontrivial
        assert report.critical_value == 0.0
    # the zero start is already critical; solve_saddle keeps it off the diagonal route
    assert solve_saddle(line63, x0=StatePair.zeros(63)).method == "flow-then-newton"


def test_flow_deformation_fixes_boundary(line_problem, witness_setup):
    frame, _ = witness_setup
    from linking_saddle import linking

    gamma = flow_deformation(line_problem, frame, steps=4, step=0.1)
    for row in linking._boundary_rows(np.random.default_rng(8), frame.chart_dim, frame.rho, 24):
        x = frame.state_from_chart(row)
        gx = gamma(row)
        assert np.array_equal(gx.u, x.u) and np.array_equal(gx.v, x.v)


# (domain, lam, delta): a diagonal solve; a symmetric rectangle whose diagonal
# point is declined, and the same rectangle shifted, both finished by the flow
# route's Newton stage; a shifted line; a symmetric shift on the diagonal
FORCING_SOLVES = {
    "sq32": (DomainSpec.square(32), 0.0, 0.0),
    "rect12x6": (DomainSpec.rectangle(12, 6, 1.0, 2.5), 0.0, 0.0),
    "shifted-rect12x6": (DomainSpec.rectangle(12, 6, 1.0, 2.5), 2.0, 0.0),
    "shifted-line63": (DomainSpec.interval(63), 3.0, 1.0),
    "symshift-sq32": (DomainSpec.square(32), 5.0, 5.0),
}


@pytest.mark.parametrize("name", FORCING_SOLVES)
def test_inexact_newton_solves_as_the_exact_newton(name, monkeypatch):
    # the same solve with every Newton step exact, as when the forcing term is 0
    domain, lam, delta = FORCING_SOLVES[name]
    problem = discretize(ProblemSpec(domain, power_nonlinearity(), lam=lam, delta=delta))
    minres, counts = solver._minres, []

    def counting(*args):
        out = minres(*args)
        counts.append(out[1])
        return out

    monkeypatch.setattr(solver, "_minres", counting)
    got = solve_saddle(problem)
    inexact_iterations = sum(counts)
    counts.clear()
    monkeypatch.setattr(solver, "_FORCING_MAX", 0.0)
    want = solve_saddle(problem)
    assert (got.method, got.converged, got.nontrivial) == (want.method, want.converged,
                                                           want.nontrivial)
    assert got.converged and got.nontrivial
    assert abs(got.critical_value - want.critical_value) <= 1e-12 * abs(want.critical_value)
    assert problem.pair_norm(got.state - want.state) <= 1e-12 * problem.pair_norm(want.state)
    assert inexact_iterations < sum(counts)
