"""Pick linking radii automatically and certify the sphere/boundary separation.

The saddle level is pinned between the infimum of J on a small diagonal sphere
and its supremum on the boundary of a larger half-ball.  Both sides are proved
bounds in closed form: a floor of J on the sphere from a Green-function bound
on the embedding constant, and a ceiling of J on the whole half-ball boundary
from Jensen's inequality on the anchor ray.  choose_radii searches for radii
where the gap is open, and estimate_geometry reports it.
"""
from linking_saddle import (
    DomainSpec,
    ProblemSpec,
    build_frame,
    choose_radii,
    discretize,
    estimate_geometry,
    power_nonlinearity,
)

problem = discretize(ProblemSpec(DomainSpec.square(16), power_nonlinearity(),
                                 lam=0.0, delta=0.0))

radii = choose_radii(problem)
print(f"chosen radii: sphere r = {radii.r:.4f}, half-ball rho = {radii.rho:.4f} "
      f"(r doubled {radii.doublings} times)")
print(f"embedding bound c0 = {radii.embedding_constant:.4f}, "
      f"spectral margin eps = {radii.eps:.4f}")

frame = build_frame(problem, radii.r, radii.rho)
geo = estimate_geometry(frame)
print(f"\nsphere floor     b = {geo.sphere_floor:10.4f}  (J at the anchor: {geo.sphere_min:.4f})")
print(f"boundary ceiling a = {geo.boundary_max:10.4f}")
print(f"margin b - a       = {geo.margin:10.4f}")
print(f"base of the half-ball: ceiling = {geo.base_max:.4f}")
print(f"cap of the half-ball: ceiling = {geo.cap_max:.4f}")
print(f"certified: {geo.certified}")

# oversized radii break the separation; the report says so honestly
bad = estimate_geometry(build_frame(problem, 40.0, 80.0))
print(f"\nwith oversized radii the floor dips negative: b = {bad.sphere_floor:.2f}, "
      f"certified = {bad.certified}")
