"""Certify that deformed half-balls still cross the sphere, by a homotopy check and one path.

Any admissible deformation of the half-ball must intersect the small sphere.  The
check reduces to a finite-dimensional degree argument: the homotopy from the affine
map xi - r e_last to the deformed chart map must stay off zero on the frame boundary,
so both ends have degree 1, and one continuation path from r e_last follows that
homotopy to the root, which is then certified on the state.
"""
from linking_saddle import (
    DomainSpec,
    ProblemSpec,
    brouwer_degree_small,
    build_frame,
    choose_radii,
    discretize,
    estimate_geometry,
    homotopy_chart_map,
    intersection_point,
    power_nonlinearity,
    shipped_deformations,
)

problem = discretize(ProblemSpec(DomainSpec.interval(31), power_nonlinearity(),
                                 lam=0.0, delta=0.0))
radii = choose_radii(problem)
frame = build_frame(problem, radii.r, radii.rho, d_y=2)
geo = estimate_geometry(frame)
print(f"frame: r = {frame.r:.4f}, rho = {frame.rho:.4f}, "
      f"chart dimension {frame.d_y + 1}")
print(f"sphere floor b = {geo.sphere_floor:.6f}\n")

for gamma in shipped_deformations(frame):
    deg0 = brouwer_degree_small(homotopy_chart_map(gamma, 0.0), frame)
    deg1 = brouwer_degree_small(homotopy_chart_map(gamma, 1.0), frame)
    cert = intersection_point(gamma, root=deg1.roots[0])
    print(f"{gamma.name:12s} deg(H0) = {deg0.degree}, deg(H1) = {deg1.degree}")
    print(f"             antidiagonal residual {cert.antidiagonal_residual:.2e}, "
          f"radius residual {cert.radius_residual:.2e}")
    print(f"             J at the crossing = {cert.energy:.6f} >= b "
          f"({cert.energy >= geo.sphere_floor})")
