"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the summary lines.
Every expected value here is either exact arithmetic or frozen from the
independent oracles in oracles.py; tolerances are pinned, not tuned.
"""
import csv

import numpy as np
import pytest

from linking_saddle import (
    DiagonalSplitting,
    DomainSpec,
    NonlinearitySpec,
    ProblemSpec,
    StatePair,
    brouwer_degree_small,
    build_frame,
    build_modal_basis,
    choose_radii,
    deformation_witness_search,
    directional_derivative,
    discretize,
    estimate_geometry,
    evaluate_J,
    flow_deformation,
    homotopy_chart_map,
    intersection_point,
    minimax_consistency,
    mixed_weak_norm,
    power_nonlinearity,
    riesz_gradient,
    shipped_deformations,
    solve_saddle,
    weighted_modal_norm,
)
from linking_saddle.cli import main as cli_main

from oracles import _integrate, reference_critical_value, shooting_ground_state

CREST = 2.0 * np.sqrt(2.0)


def report(cid, ok, detail):
    print(f"{cid}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{cid} failed: {detail}"


def cubic_problem(domain):
    return discretize(ProblemSpec(domain, power_nonlinearity(), lam=0.0, delta=0.0))


def seeded_state(problem, seed):
    rng = np.random.default_rng(seed)
    return StatePair(rng.standard_normal(problem.n), rng.standard_normal(problem.n))


@pytest.fixture(scope="module")
def line_solutions():
    out = {}
    for n in (31, 63, 127, 255):
        out[n] = solve_saddle(cubic_problem(DomainSpec.interval(n)))
    return out


@pytest.fixture(scope="module")
def square32():
    return cubic_problem(DomainSpec.square(32))


def test_c01_splitting_identities():
    worst = 0.0
    checked = 0
    for domain in (DomainSpec.interval(15), DomainSpec.interval(31),
                   DomainSpec.square(16), DomainSpec.square(32)):
        problem = cubic_problem(domain)
        split = DiagonalSplitting(problem.grid, problem.op)
        for seed in range(100):
            x = seeded_state(problem, seed)
            y = seeded_state(problem, 10_000 + seed)
            p, q = split.antidiagonal_part(x), split.diagonal_part(x)
            total = split.pair_norm(x) ** 2
            scale = max(1.0, total)
            errs = (
                np.max(np.abs((p + q).u - x.u)) + np.max(np.abs((p + q).v - x.v)),
                split.pair_norm(split.antidiagonal_part(q)),
                split.pair_norm(split.diagonal_part(p)),
                abs(split.pair_dot(split.antidiagonal_part(x), split.diagonal_part(y))),
                abs(split.pair_norm(p) ** 2 + split.pair_norm(q) ** 2 - total),
                abs(float(x.u @ problem.op.apply(x.v))
                    - (0.5 * split.pair_norm(q) ** 2 - 0.5 * split.pair_norm(p) ** 2)),
            )
            worst = max(worst, max(errs) / scale)
            checked += 1
    report("C01", worst <= 1e-10,
           f"splitting identities on {checked} states across 4 grids, worst rel err {worst:.2e}")


def test_c02_weak_norm_bounds_and_sequence():
    problem = cubic_problem(DomainSpec.interval(63))
    split = DiagonalSplitting(problem.grid, problem.op)
    basis = build_modal_basis(split, count=32)
    slack = 1.0 + 1e-12
    for seed in range(100):
        x = seeded_state(problem, seed)
        y = split.antidiagonal_part(x)
        tau = mixed_weak_norm(basis, x)
        assert weighted_modal_norm(basis, y) <= split.pair_norm(y) * slack
        assert split.pair_norm(split.diagonal_part(x)) <= tau * slack
        assert weighted_modal_norm(basis, y) <= tau * slack
    # bounded sequence: weak-mode tail shrinks geometrically, energy norm stays 1/2
    taus = []
    for k in range(32):
        step = 0.5 * basis.direction(k)
        assert split.pair_norm(step) == pytest.approx(0.5, rel=1e-10)
        tau_k = mixed_weak_norm(basis, step)
        assert tau_k == pytest.approx(2.0 ** (-k - 2), rel=1e-10)
        taus.append(tau_k)
    assert all(a > b for a, b in zip(taus, taus[1:]))
    report("C02", True,
           f"norm comparisons on 100 samples; sequence tail {taus[-1]:.2e} at constant norm 0.5")


def test_c03_gradient_against_central_differences():
    problem = cubic_problem(DomainSpec.square(16))
    rng = np.random.default_rng(7)
    orders = []
    riesz_worst = 0.0
    for seed in range(50):
        x = seeded_state(problem, seed)
        d = StatePair(rng.standard_normal(problem.n), rng.standard_normal(problem.n))
        exact = directional_derivative(problem, x, d)
        errs = []
        for eps in (1e-3, 5e-4):
            plus = evaluate_J(problem, x + eps * d).total
            minus = evaluate_J(problem, x - eps * d).total
            errs.append(abs((plus - minus) / (2.0 * eps) - exact))
        if errs[1] > 1e-12:  # below that roundoff hides the order
            orders.append(np.log(errs[0] / errs[1]) / np.log(2.0))
        g = riesz_gradient(problem, x)
        gap = abs(problem.pair_dot(g, d) - exact) / max(1.0, abs(exact))
        riesz_worst = max(riesz_worst, gap)
    ok = len(orders) >= 40 and min(orders) >= 1.9 and riesz_worst <= 1e-8
    report("C03", ok,
           f"{len(orders)} measurable pairs, min order {min(orders):.3f}, "
           f"Riesz gap {riesz_worst:.2e}")


def test_c04_toy_closed_form():
    problem = cubic_problem(DomainSpec.interval(1))
    rep = solve_saddle(problem)
    geo = estimate_geometry(build_frame(problem, 1.0, 2.0))
    u_err = max(abs(float(rep.state.u[0]) - CREST), abs(float(rep.state.v[0]) - CREST))
    c_err = abs(rep.critical_value - 16.0)
    b_err = abs(geo.sphere_min - 127.0 / 256.0)
    ok = (rep.converged and rep.nontrivial and u_err <= 1e-10 and c_err <= 1e-10
          and b_err <= 1e-12 and minimax_consistency(rep.critical_value, geo.sphere_min))
    report("C04", ok,
           f"|u-2sqrt2|={u_err:.1e}, |c-16|={c_err:.1e}, |b-127/256|={b_err:.1e}, minimax ok")


def test_c05_pde_oracle_convergence(line_solutions):
    _, w_ref, _ = shooting_ground_state()
    errs = {}
    for n in (127, 255):
        rep = line_solutions[n]
        assert rep.converged
        assert np.array_equal(rep.state.u, rep.state.v)
        stride = 8192 // (n + 1)
        w_nodes = w_ref[stride::stride][:n]
        errs[n] = float(np.max(np.abs(rep.state.u - w_nodes)))
    ratio = errs[127] / errs[255]
    c_gap = abs(line_solutions[255].critical_value - reference_critical_value())
    ok = 3.5 <= ratio <= 4.5 and c_gap < 1e-2
    report("C05", ok,
           f"node errors {errs[127]:.2e} -> {errs[255]:.2e}, ratio {ratio:.3f}, "
           f"level gap to shooting oracle {c_gap:.2e}")


def _integrate_arrays(slope, n_steps, lam):
    """The RK4 oracle in the numpy-array form it had before it ran on Python floats."""
    h = 1.0 / n_steps
    w = np.empty(n_steps + 1)
    dw = np.empty(n_steps + 1)
    w[0], dw[0] = 0.0, slope

    def rhs(y):
        return np.array([y[1], -(lam * y[0] + y[0] ** 3)])

    y = np.array([0.0, slope])
    for i in range(n_steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        w[i + 1], dw[i + 1] = y
    return w, dw


@pytest.mark.parametrize("lam", [0.0, 5.0])
@pytest.mark.parametrize("slope", [1e-3, 0.5, 3.0, 10.0, 40.0])
def test_rk4_oracle_matches_the_array_form(slope, lam):
    # the C05 oracle is bitwise its array form, on a short integration
    got, want = _integrate(slope, 512, lam), _integrate_arrays(slope, 512, lam)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_c06_geometry_certificate(square32):
    radii = choose_radii(square32)
    geo = estimate_geometry(build_frame(square32, radii.r, radii.rho))
    ok = (geo.sphere_min > 0.0 >= geo.boundary_max and geo.margin > 0.0
          and geo.base_max <= 0.0 and geo.certified)
    report("C06", ok,
           f"32x32 auto radii r={radii.r:.3f} rho={radii.rho:.3f}: "
           f"b={geo.sphere_min:.4f} > 0 >= a={geo.boundary_max:.4f}, margin {geo.margin:.4f}")


def test_c07_intersection_and_degree():
    problem = cubic_problem(DomainSpec.interval(31))
    rows = []
    for d_y in (1, 2):
        radii = choose_radii(problem)
        frame = build_frame(problem, radii.r, radii.rho, d_y=d_y)
        geo = estimate_geometry(frame)
        gammas = shipped_deformations(frame)
        assert sum(1 for g in gammas if g.name != "identity") >= 2
        for gamma in gammas:
            cert = intersection_point(gamma)
            deg0 = brouwer_degree_small(homotopy_chart_map(gamma, 0.0), frame).degree
            deg1 = brouwer_degree_small(homotopy_chart_map(gamma, 1.0), frame).degree
            ok = (cert.antidiagonal_residual <= 1e-8 and cert.radius_residual <= 1e-8
                  and deg0 == 1 and deg1 == 1
                  and cert.energy >= geo.sphere_min - 1e-8)
            rows.append((d_y, gamma.name, ok))
    all_ok = all(ok for _, _, ok in rows)
    report("C07", all_ok,
           f"{len(rows)} certified intersections at antidiagonal dims 2 and 3, all degree 1")


def test_c08_deformation_witness(square32):
    rep = solve_saddle(square32)
    assert rep.converged and rep.nontrivial
    radii = choose_radii(square32)
    frame = build_frame(square32, radii.r, radii.rho, anchor_direction=rep.state)
    geo = estimate_geometry(frame)
    gamma = flow_deformation(square32, frame)
    eps = 0.1 * rep.critical_value
    wit = deformation_witness_search(square32, frame, gamma, rep.critical_value,
                                     geo.boundary_max, eps=eps, prox=1.0)
    clauses = (abs(wit.energy - rep.critical_value) <= 2.0 * eps,
               wit.distance <= 2.0,
               wit.gradient_norm < 8.0 * eps)
    ok = wit.found and wit.precondition_ok and all(clauses)
    report("C08", ok,
           f"witness at |J-c|={abs(wit.energy - rep.critical_value):.3f} (cap {2 * eps:.3f}), "
           f"dist={wit.distance:.3f}, grad={wit.gradient_norm:.3e} (cap {8 * eps:.3f})")


def test_c09_mesh_refinement_cauchy(line_solutions):
    levels = [line_solutions[n].critical_value for n in (31, 63, 127, 255)]
    diffs = [b - a for a, b in zip(levels, levels[1:])]
    ratios = [d0 / d1 for d0, d1 in zip(diffs, diffs[1:])]
    ok = all(3.0 <= r <= 5.0 for r in ratios)
    report("C09", ok,
           "successive-difference ratios " + ", ".join(f"{r:.3f}" for r in ratios))


def test_c10_deterministic_runs(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("domain.dimension = 1\ndomain.nx = 31\nproblem.preset = power\n"
                   "frame.seed = 42\n")
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert cli_main(["solve", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        outs.append(out)
    names = ("saddle_report.csv", "trace.csv", "solution.csv")
    same = all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in names)
    with open(outs[0] / "saddle_report.csv", newline="") as fh:
        row = next(csv.DictReader(fh))
    report("C10", same and row["converged"] == "true",
           f"repeated seeded runs byte-identical across {len(names)} report files")
