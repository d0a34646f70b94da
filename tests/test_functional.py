import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linking_saddle import (
    DomainSpec,
    EnergyOverflowError,
    GridMismatchError,
    InvalidSpecError,
    NonlinearitySpec,
    ProblemSpec,
    StatePair,
    directional_derivative,
    discretize,
    evaluate_J,
    power_nonlinearity,
    riesz_gradient,
    validate_hypotheses,
    zero_nonlinearity,
)

from conftest import random_state


def test_toy_energy_at_ones(toy_problem):
    x = StatePair(np.array([1.0]), np.array([1.0]))
    bd = evaluate_J(toy_problem, x)
    # cross = 4, each potential = (1/2)*(1/4)
    assert bd.cross == 4.0
    assert bd.potential_u == 0.125
    assert bd.total == 3.75


def test_toy_energy_at_crest(toy_problem):
    s = 2.0 * np.sqrt(2.0)
    x = StatePair(np.array([s]), np.array([s]))
    assert evaluate_J(toy_problem, x).total == pytest.approx(16.0, abs=1e-12)


def test_breakdown_total_identity(rect_problem):
    for seed in range(8):
        x = random_state(rect_problem, seed)
        bd = evaluate_J(rect_problem, x)
        regrouped = bd.cross - ((bd.quad_u + bd.quad_v) + (bd.potential_u + bd.potential_v))
        assert bd.total == regrouped


def test_swap_symmetry_is_exact(rect_problem):
    # same nonlinearity on both components, lam == delta == 0
    for seed in range(10):
        x = random_state(rect_problem, seed)
        a = evaluate_J(rect_problem, x).total
        b = evaluate_J(rect_problem, StatePair(x.v.copy(), x.u.copy())).total
        assert a == b


def test_directional_derivative_second_order(square_problem):
    rng = np.random.default_rng(11)
    orders = []
    for seed in range(6):
        x = random_state(square_problem, seed)
        d = StatePair(rng.standard_normal(square_problem.n), rng.standard_normal(square_problem.n))
        exact = directional_derivative(square_problem, x, d)
        errs = []
        for eps in (1e-3, 5e-4):
            plus = evaluate_J(square_problem, x + eps * d).total
            minus = evaluate_J(square_problem, x - eps * d).total
            errs.append(abs((plus - minus) / (2.0 * eps) - exact))
        if errs[1] > 1e-12:  # below that, roundoff hides the order
            orders.append(np.log(errs[0] / errs[1]) / np.log(2.0))
    assert orders and min(orders) > 1.9


def test_riesz_gradient_represents_derivative(square_problem):
    rng = np.random.default_rng(13)
    for seed in range(5):
        x = random_state(square_problem, seed)
        g = riesz_gradient(square_problem, x)
        for _ in range(3):
            d = StatePair(rng.standard_normal(square_problem.n), rng.standard_normal(square_problem.n))
            lhs = directional_derivative(square_problem, x, d)
            rhs = square_problem.pair_dot(g, d)
            assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-8)


def test_energy_overflow_names_the_term(toy_problem):
    x = StatePair(np.array([1e80]), np.array([1.0]))
    with pytest.raises(EnergyOverflowError, match="potential-u"):
        evaluate_J(toy_problem, x)


def test_shape_guard(toy_problem):
    with pytest.raises((GridMismatchError, ValueError)):
        evaluate_J(toy_problem, StatePair(np.ones(2), np.ones(2)))


def test_hypotheses_power_all_pass():
    report = validate_hypotheses(power_nonlinearity())
    assert report.growth_ok and report.small_amplitude_ok and report.superquadratic_ok
    assert report.all_ok


def test_hypotheses_zero_fails_superquadratic():
    report = validate_hypotheses(zero_nonlinearity())
    assert not report.superquadratic_ok
    assert not report.all_ok
    assert any("superquadratic" in key for key in report.witnesses)


def test_hypotheses_linear_fails_small_amplitude():
    def f(t):
        return np.asarray(t, dtype=float)

    def F(t):
        return 0.5 * np.asarray(t, dtype=float) ** 2

    linear = NonlinearitySpec(name="linear", f=f, F=F, g=f, G=F, df=np.ones_like,
                              dg=np.ones_like, p=3.0, mu=3.0)
    report = validate_hypotheses(linear)
    assert not report.small_amplitude_ok
    witness_keys = [k for k in report.witnesses if "small-amplitude" in k]
    assert witness_keys
    # the witness records a sample point where |f(t)/t| stays order one
    t, ratio = report.witnesses[witness_keys[0]]
    assert abs(ratio) > 0.5


@pytest.mark.parametrize("p, ok", [(4.0, True), (80.0, True), (120.0, True),
                                   (200.0, False), (400.0, False)])
def test_hypotheses_fail_samples_they_cannot_judge(p, ok):
    # from p = 200 on, |t|^(p - 1) overflows at the far samples; inf - inf is
    # nan there, and a sample that is not finite must fail, not pass
    report = validate_hypotheses(power_nonlinearity(p=p))
    assert report.all_ok is ok
    assert report.small_amplitude_ok
    if ok:
        assert report.witnesses == {}
    else:
        assert not report.growth_ok and not report.superquadratic_ok
        assert sorted(report.witnesses) == ["growth-f", "growth-g",
                                            "superquadratic-f", "superquadratic-g"]
        for t, measured in report.witnesses.values():
            assert np.isfinite(t) and not np.isfinite(measured)


def test_hypotheses_fail_a_nan_sample():
    nl = power_nonlinearity()
    spoiled = dataclasses.replace(nl, f=lambda t: np.where(t == t.max(), np.nan, nl.f(t)))
    report = validate_hypotheses(spoiled)
    assert not report.growth_ok and not report.superquadratic_ok
    assert report.witnesses["growth-f"][0] == 100.0
    assert np.isnan(report.witnesses["growth-f"][1])
    assert "growth-g" not in report.witnesses


@pytest.mark.parametrize("p", [3.0, 4.0, 6.0])
def test_power_growth_bound_resampled(p):
    nl = power_nonlinearity(p=p)
    rng = np.random.default_rng(17)
    t = np.concatenate([rng.uniform(-50, 50, 400), rng.uniform(-1e-3, 1e-3, 100)])
    bound = nl.scale * (1.0 + np.abs(t) ** (p - 1.0))
    assert np.all(np.abs(nl.f(t)) <= bound * (1.0 + 1e-12))


def test_nonlinearity_validation():
    with pytest.raises(InvalidSpecError):
        power_nonlinearity(p=2.0)
    with pytest.raises(InvalidSpecError):
        power_nonlinearity(scale=0.0)


def test_problem_spec_rejects_nonfinite():
    with pytest.raises(InvalidSpecError):
        ProblemSpec(
            domain=DomainSpec.interval(3),
            nonlinearity=power_nonlinearity(),
            lam=float("nan"),
        )


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-30.0, max_value=30.0, allow_nan=False))
def test_power_derivative_matches_slope(t):
    nl = power_nonlinearity()
    h = 1e-6 * (1.0 + abs(t))
    fd = (nl.f(t + h) - nl.f(t - h)) / (2.0 * h)
    assert nl.df(t) == pytest.approx(fd, rel=1e-5, abs=1e-4)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=2.5, max_value=6.0, allow_nan=False),
    st.floats(min_value=0.1, max_value=3.0, allow_nan=False),
)
def test_power_potential_is_antiderivative(p, scale):
    nl = power_nonlinearity(p=p, scale=scale)
    t = np.linspace(-4.0, 4.0, 401)
    mid = 0.5 * (t[1:] + t[:-1])
    increments = nl.f(mid) * np.diff(t)
    rebuilt = nl.F(t[0]) + np.concatenate([[0.0], np.cumsum(increments)])
    have = nl.F(t)
    assert np.max(np.abs(rebuilt - have)) <= 1e-3 * (1.0 + np.max(np.abs(have)))
