"""The mirror rule of the pair kernels, against the two-sided code it replaced.

On a symmetric problem (``Problem.symmetric``: f = g, F = G, f' = g' as
the same objects, and lam and delta the same double) at a pair whose u
and v are the same doubles bit for bit (``state.mirrored``), each v-term
of a kernel is the same floating-point operations as its u-term. The
kernels then take that term once: ``pair_dot``, ``evaluate_J``,
``euler_lagrange_residual``, the Newton coefficients of ``_newton_step``,
``_ray_slope`` and ``_mu_norm``. Before, each took both sides
(``oracles.two_sided_*``), and every result must keep its bytes: the sign
of every zero and the payload of every NaN included.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linking_saddle import (
    DomainSpec,
    EnergyOverflowError,
    ProblemSpec,
    StatePair,
    discretize,
    euler_lagrange_residual,
    evaluate_J,
    pair_dot,
    power_nonlinearity,
    solve_saddle,
)
from linking_saddle import functional, solver, state
from linking_saddle.state import mirrored

from oracles import (two_sided_energy_terms, two_sided_mu_norm, two_sided_newton_step,
                     two_sided_pair_dot, two_sided_ray_slope, two_sided_residual)

GRIDS = (
    DomainSpec.interval(1),
    DomainSpec.interval(9),
    DomainSpec.square(4),
    DomainSpec.rectangle(5, 3, 1.0, 2.5),
)


def _twin_coupling():
    # g computes f, but is another object, so the problem is not symmetric
    nl = power_nonlinearity()
    return dataclasses.replace(nl, g=lambda t: nl.f(t))


# (coupling, delta from lam); "signed-zero" pairs lam = 0.0 with delta = -0.0
KINDS = {
    "symmetric": (power_nonlinearity, lambda lam: lam),
    "shifted": (power_nonlinearity, lambda lam: lam + 1.5),
    "twin": (_twin_coupling, lambda lam: lam),
    "signed-zero": (power_nonlinearity, None),
}
# how v is made from u: the same buffer, a copy, or a copy that differs at one
# entry by the sign of a zero, by one ulp or by a NaN payload; "nan" is a copy
# of a u holding a NaN, and "other" an independent field
RELATIONS = ("same", "copy", "signed-zero", "ulp", "nan-payload", "nan", "other")


def nan_with_payload(payload: int) -> float:
    return float(np.array([0x7FF8000000000000 | payload], dtype=np.uint64).view(np.float64)[0])


def make_problem(grid_index, kind, lam):
    coupling, delta = KINDS[kind]
    lam, delta = (0.0, -0.0) if delta is None else (lam, delta(lam))
    return discretize(ProblemSpec(GRIDS[grid_index], coupling(), lam=lam, delta=delta))


def make_pair(problem, relation, seed, scale):
    rng = np.random.default_rng(seed)
    u = scale * rng.standard_normal(problem.n)
    k = int(rng.integers(problem.n))
    if relation == "signed-zero":
        u[k] = 0.0
    if relation in ("nan", "nan-payload"):
        u[k] = nan_with_payload(1)
    if relation == "same":
        return StatePair(u, u)
    v = scale * rng.standard_normal(problem.n) if relation == "other" else u.copy()
    if relation == "signed-zero":
        v[k] = -0.0
    elif relation == "ulp":
        v[k] = np.nextafter(u[k], np.inf)
    elif relation == "nan-payload":
        v[k] = nan_with_payload(2)
    return StatePair(u, v)


def bits(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


pair_args = (
    st.integers(0, len(GRIDS) - 1),
    st.sampled_from(sorted(KINDS)),
    st.floats(-5.0, 5.0),
    st.sampled_from(RELATIONS),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1e-3, 1.0, 1e80]),
)


@settings(max_examples=200)
@given(*pair_args)
def test_mirrored_kernels_match_the_two_sided_code(grid_index, kind, lam, relation, seed,
                                                   scale):
    problem = make_problem(grid_index, kind, lam)
    x = make_pair(problem, relation, seed, scale)
    assert problem.symmetric == (kind == "symmetric")
    assert mirrored(x.u, x.v) == (x.u.tobytes() == x.v.tobytes())

    y = make_pair(problem, relation, seed + 1, 1.0)
    for a, b in ((x, x), (x, y), (y, x)):
        assert bits(pair_dot(problem.op, a, b)) == bits(
            two_sided_pair_dot(problem.op, a.u, a.v, b.u, b.v))
    with np.errstate(over="ignore"):
        assert bits(solver._mu_norm(problem, x)) == bits(two_sided_mu_norm(problem, x.u, x.v))

    terms = two_sided_energy_terms(problem, x.u, x.v)
    labels = ("cross", "quadratic-u", "quadratic-v", "potential-u", "potential-v")
    bad = [label for label, term in zip(labels, terms) if not np.isfinite(term)]
    if bad:
        with pytest.raises(EnergyOverflowError, match=f"'{bad[0]}'"):
            evaluate_J(problem, x)
    else:
        got = evaluate_J(problem, x)
        assert bits([got.cross, got.quad_u, got.quad_v, got.potential_u,
                     got.potential_v]) == bits(terms)

    res_u, res_v = two_sided_residual(problem, x.u, x.v)
    if np.all(np.isfinite(res_u)) and np.all(np.isfinite(res_v)):
        res = euler_lagrange_residual(problem, x)
        assert bits(res.u) == bits(res_u) and bits(res.v) == bits(res_v)
        # no pair hands out two aliases of one buffer
        assert not np.shares_memory(res.u, res.v)
    else:
        with pytest.raises(EnergyOverflowError):
            euler_lagrange_residual(problem, x)


@settings(max_examples=120)
@given(*pair_args[:3], st.sampled_from(("same", "copy", "signed-zero", "ulp", "other")),
       st.integers(0, 2**32 - 1), st.booleans())
def test_mirrored_newton_step_matches_the_two_sided_code(grid_index, kind, lam, relation,
                                                        seed, at_residual):
    problem = make_problem(grid_index, kind, lam)
    x = make_pair(problem, relation, seed, 1.0)
    # the residual at x, as the solver takes it, or an unrelated one
    res = (euler_lagrange_residual(problem, x) if at_residual
           else StatePair(*np.random.default_rng(seed + 1).standard_normal((2, problem.n))))
    try:
        want = two_sided_newton_step(problem, x.u, x.v, res.u, res.v, solver._minres)
    except RuntimeError as exc:
        with pytest.raises(solver._StepFailed) as failed:
            solver._newton_step(problem, x, res)
        assert str(failed.value) == str(exc)
        return
    got = solver._newton_step(problem, x, res)
    assert bits(got.u) == bits(want[0]) and bits(got.v) == bits(want[1])


@settings(max_examples=120)
@given(*pair_args[:3], st.sampled_from(("zero", "zero, q with -0.0", "subnormal", "random")),
       st.integers(0, 2**32 - 1), st.floats(0.0, 50.0))
def test_mirrored_ray_kernels_match_the_two_sided_code(grid_index, kind, lam, base_kind,
                                                      seed, tau):
    problem = make_problem(grid_index, kind, lam)
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(problem.n)
    k = int(rng.integers(problem.n))
    base = np.zeros(problem.n)
    if base_kind == "zero, q with -0.0":
        q[k] = -0.0  # u = 0.0 + -0.0 and v = -0.0 - 0.0 differ in the sign of a zero
    elif base_kind == "subnormal":
        base[k] = 5e-324
    elif base_kind == "random":
        base = rng.standard_normal(problem.n)
    ray = solver._ray(problem, base, q)
    assert bits([ray.c2]) == bits([float(q @ problem.op.apply(q))])
    assert bits(solver._ray_slope(problem, ray, tau)) == bits(
        two_sided_ray_slope(problem, base, q, ray.c2, tau))


class Counting:
    """A stiffness kernel, ``_matvec`` or ``_factor``, counting the vectors it takes."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.vectors = 0

    def __call__(self, x):
        self.vectors += 1 if np.ndim(x) == 1 else np.shape(x)[0]
        return self.kernel(x)


@pytest.mark.parametrize("base_scale", [0.0, 1.0], ids=["zero-base", "nonzero-base"])
def test_a_ray_takes_one_stiffness_product(base_scale, monkeypatch):
    # c2 = <q, K q> is the only product; the energy along the ray is evaluate_J's
    problem = make_problem(2, "shifted", 1.0)
    base, q = np.random.default_rng(5).standard_normal((2, problem.n))
    products = Counting(problem.op._matvec)
    monkeypatch.setattr(problem.op, "_matvec", products)
    solver._ray(problem, base_scale * base, q)
    assert products.vectors == 1


def counted_solve(monkeypatch):
    problem = discretize(ProblemSpec(DomainSpec.square(32), power_nonlinearity()))
    products, solves = Counting(problem.op._matvec), Counting(problem.op._factor)
    with monkeypatch.context() as patch:
        patch.setattr(problem.op, "_matvec", products)
        patch.setattr(problem.op, "_factor", solves)
        report = solve_saddle(problem)
    return report, products.vectors, solves.vectors


def test_a_diagonal_solve_takes_each_mirror_once(monkeypatch):
    report, products, solves = counted_solve(monkeypatch)
    assert report.method == "diagonal-newton" and report.converged
    with monkeypatch.context() as patch:
        for module in (state, functional, solver):
            patch.setattr(module, "mirrored", lambda a, b: False)
        two_sided, two_sided_products, two_sided_solves = counted_solve(monkeypatch)
    assert bits(report.state.u) == bits(two_sided.state.u)
    assert bits(report.state.v) == bits(two_sided.state.v)
    assert report.trace.energies == two_sided.trace.energies
    # every K^-1 solve stays; the products of the mirrored halves go
    assert solves == two_sided_solves
    assert products < two_sided_products
