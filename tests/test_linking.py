import numpy as np
import pytest

from linking_saddle import (
    BoundaryZeroError,
    DeformationGamma,
    DegenerateRootError,
    DomainMembershipError,
    DomainSpec,
    GeometryCertificationError,
    IntersectionNotFoundError,
    InvalidSpecError,
    ProblemSpec,
    StatePair,
    anchor_shear_deformation,
    brouwer_degree_small,
    build_frame,
    choose_radii,
    discretize,
    displacement_residual,
    estimate_geometry,
    evaluate_J,
    flow_deformation,
    homotopy_chart_map,
    identity_deformation,
    intersection_point,
    modal_shift_deformation,
    power_nonlinearity,
    sample_sets,
    shipped_deformations,
    zero_nonlinearity,
)


@pytest.fixture(scope="module")
def line_frame(line_problem):
    choice = choose_radii(line_problem)
    return build_frame(line_problem, choice.r, choice.rho)


@pytest.fixture(scope="module")
def toy_frame(toy_problem):
    return build_frame(toy_problem, 1.0, 2.0)


@pytest.fixture(scope="module")
def zero_problem():
    spec = ProblemSpec(domain=DomainSpec.interval(15), nonlinearity=zero_nonlinearity())
    return discretize(spec)


def test_sample_sets_contracts(line_problem, line_frame):
    samples = sample_sets(line_frame, sphere_count=40, boundary_count=60, interior_count=30, seed=4)
    r, rho = line_frame.r, line_frame.rho
    norms = [line_problem.pair_norm(s) for s in samples.sphere_states]
    assert np.allclose(norms, r, rtol=1e-10)
    # the anchor and its negative are always among the sphere probes
    diffs = [np.max(np.abs(s.u - line_frame.anchor.u)) for s in samples.sphere_states]
    sums = [np.max(np.abs(s.u + line_frame.anchor.u)) for s in samples.sphere_states]
    assert min(diffs) == 0.0 and min(sums) == 0.0

    chart_norms = np.linalg.norm(samples.boundary_chart, axis=1)
    last = samples.boundary_chart[:, -1]
    on_base = last == 0.0
    on_cap = np.abs(chart_norms - rho) <= 1e-9 * rho
    assert np.all(on_base | on_cap)
    assert np.any(on_base) and np.any(on_cap)
    assert np.all(last >= 0.0)

    interior_last = samples.interior_chart[:, -1]
    assert np.all(interior_last > 0.0)
    assert np.all(np.linalg.norm(samples.interior_chart, axis=1) < rho)


def test_sample_sets_deterministic(line_frame):
    a = sample_sets(line_frame, seed=9)
    b = sample_sets(line_frame, seed=9)
    assert np.array_equal(a.boundary_chart, b.boundary_chart)
    assert np.array_equal(a.interior_chart, b.interior_chart)
    for sa, sb in zip(a.sphere_states, b.sphere_states):
        assert np.array_equal(sa.u, sb.u) and np.array_equal(sa.v, sb.v)


def test_toy_sphere_minimum_closed_form(toy_problem, toy_frame):
    # one node: the sphere probe set is exactly {anchor, -anchor}, and
    # J there is 1/2 - 1/256 on both
    geo = estimate_geometry(toy_frame, sample_sets(toy_frame, seed=0))
    assert geo.sphere_min == pytest.approx(127.0 / 256.0, abs=1e-12)
    assert geo.base_max <= 0.0
    # rho = 2 is too tight for separation; the chosen radii do certify
    choice = choose_radii(toy_problem)
    wide = build_frame(toy_problem, choice.r, choice.rho)
    assert estimate_geometry(wide, sample_sets(wide, seed=0)).certified


def test_zero_preset_sphere_value(zero_problem):
    frame = build_frame(zero_problem, 1.0, 2.0)
    geo = estimate_geometry(frame, sample_sets(frame, seed=1))
    # without potentials J on the diagonal sphere is exactly r^2/2
    assert geo.sphere_min == pytest.approx(0.5, rel=1e-12)
    assert not geo.certified  # the cap reaches rho^2/2 > sphere level


def test_choose_radii_invariants(line_problem):
    choice = choose_radii(line_problem)
    assert 0.0 < choice.r < choice.rho
    assert choice.eps > 0.0
    assert choice.floor_value > 0.0
    assert choice.boundary_pilot_max <= 0.0
    assert choice.note == ""
    frame = build_frame(line_problem, choice.r, choice.rho)
    geo = estimate_geometry(frame, sample_sets(frame, seed=0))
    assert geo.certified


def test_choose_radii_zero_preset_flagged(zero_problem):
    choice = choose_radii(zero_problem)
    assert (choice.r, choice.rho) == (1.0, 2.0)
    assert choice.note != ""


def test_choose_radii_rejects_bad_shifts():
    base = DomainSpec.interval(15)
    with pytest.raises(GeometryCertificationError):
        choose_radii(discretize(ProblemSpec(domain=base, nonlinearity=power_nonlinearity(), lam=-1.0)))
    lam1 = discretize(ProblemSpec(domain=base, nonlinearity=power_nonlinearity())).principal_eigenvalue()
    crowded = ProblemSpec(domain=base, nonlinearity=power_nonlinearity(), lam=lam1, delta=lam1)
    with pytest.raises(GeometryCertificationError):
        choose_radii(discretize(crowded))


def test_frame_validation(line_problem):
    with pytest.raises(InvalidSpecError):
        build_frame(line_problem, 2.0, 1.0)
    with pytest.raises(InvalidSpecError):
        build_frame(line_problem, 1.0, 2.0, d_y=50)
    # an anchor with no diagonal component cannot span the ray
    bad = StatePair(np.ones(31), -np.ones(31))
    with pytest.raises(InvalidSpecError):
        build_frame(line_problem, 1.0, 2.0, anchor_direction=bad)


def test_chart_round_trip(line_frame):
    rng = np.random.default_rng(21)
    for _ in range(10):
        xi = rng.uniform(-0.3, 0.3, line_frame.chart_dim) * line_frame.rho
        xi[-1] = abs(xi[-1]) + 0.05 * line_frame.r
        if np.linalg.norm(xi) >= line_frame.rho:
            continue
        back = line_frame.chart_from_state(line_frame.state_from_chart(xi))
        assert back == pytest.approx(xi, rel=1e-10, abs=1e-12)


def test_membership_guards(line_frame):
    below = np.zeros(line_frame.chart_dim)
    below[-1] = -0.1 * line_frame.r
    with pytest.raises(DomainMembershipError):
        line_frame.require_member(below)
    outside = np.zeros(line_frame.chart_dim)
    outside[-1] = 2.0 * line_frame.rho
    with pytest.raises(DomainMembershipError):
        line_frame.require_member(outside)


def test_homotopy_start_is_affine(line_frame):
    gamma = identity_deformation(line_frame)
    h0 = homotopy_chart_map(line_frame, gamma, 0.0)
    rng = np.random.default_rng(31)
    for _ in range(8):
        xi = rng.uniform(-0.2, 0.2, line_frame.chart_dim) * line_frame.rho
        xi[-1] = abs(xi[-1])
        want = xi.copy()
        want[-1] = xi[-1] - line_frame.r
        assert h0(xi) == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_homotopy_time_bounds(line_frame):
    gamma = identity_deformation(line_frame)
    # the time is checked once, when the map is built
    with pytest.raises(InvalidSpecError):
        homotopy_chart_map(line_frame, gamma, -0.1)
    with pytest.raises(InvalidSpecError):
        homotopy_chart_map(line_frame, gamma, 1.5)


def test_identity_intersection_is_on_the_ray(line_frame, line_problem):
    cert = intersection_point(line_frame, identity_deformation(line_frame))
    want = np.zeros(line_frame.chart_dim)
    want[-1] = line_frame.r
    assert cert.chart == pytest.approx(want, abs=1e-8 * line_frame.r)
    assert cert.antidiagonal_residual <= 1e-8
    assert cert.radius_residual <= 1e-8
    anchor_energy = evaluate_J(line_problem, line_frame.anchor).total
    assert cert.energy == pytest.approx(anchor_energy, rel=1e-8)


@pytest.mark.parametrize("d_y", [1, 2])
def test_shipped_deformations_certify(line_problem, d_y):
    choice = choose_radii(line_problem, d_y=d_y)
    frame = build_frame(line_problem, choice.r, choice.rho, d_y=d_y)
    for gamma in shipped_deformations(frame):
        cert = intersection_point(frame, gamma)
        assert cert.antidiagonal_residual <= 1e-8
        assert cert.radius_residual <= 1e-8
        start = brouwer_degree_small(homotopy_chart_map(frame, gamma, 0.0), frame)
        end = brouwer_degree_small(homotopy_chart_map(frame, gamma, 1.0), frame)
        assert start.degree == 1
        assert end.degree == 1


def test_boundary_points_are_fixed_bitwise(line_frame):
    samples = sample_sets(line_frame, boundary_count=48, seed=2)
    for gamma in shipped_deformations(line_frame):
        if gamma.name == "identity":
            continue
        for row in samples.boundary_chart:
            x = line_frame.state_from_chart(row)
            gx = gamma(row)
            assert np.array_equal(gx.u, x.u) and np.array_equal(gx.v, x.v)


def test_deformations_never_map_states_back_to_the_chart(line_problem, monkeypatch):
    choice = choose_radii(line_problem)
    frame = build_frame(line_problem, choice.r, choice.rho, d_y=2)
    gammas = shipped_deformations(frame) + [flow_deformation(line_problem, frame, steps=2)]

    def refuse(x):
        raise AssertionError("a deformation called chart_from_state")

    monkeypatch.setattr(frame, "chart_from_state", refuse)
    for row in sample_sets(frame, interior_count=6, seed=4).interior_chart:
        for gamma in gammas:
            assert gamma(row).is_finite(), gamma.name


def test_interior_points_do_move(line_frame):
    gamma = modal_shift_deformation(line_frame, mode=0)
    mid = np.zeros(line_frame.chart_dim)
    mid[-1] = 0.5 * line_frame.rho
    x = line_frame.state_from_chart(mid)
    gx = gamma(mid)
    assert np.max(np.abs(gx.u - x.u)) > 1e-6


def test_displacement_residual_accounts_for_motion(line_frame):
    samples = sample_sets(line_frame, interior_count=16, seed=5)
    for gamma in shipped_deformations(line_frame):
        assert displacement_residual(line_frame, gamma, samples.interior_chart) <= 1e-10


def test_affine_degree_conventions(line_frame):
    z = np.zeros(line_frame.chart_dim)
    z[-1] = 0.5 * line_frame.rho
    z[0] = 0.1 * line_frame.rho

    plus = brouwer_degree_small(lambda xi: xi - z, line_frame)
    assert plus.degree == 1 and len(plus.roots) == 1

    # chart dimension is even here, so full reflection preserves orientation
    minus = brouwer_degree_small(lambda xi: z - xi, line_frame)
    assert minus.degree == 1

    # root pushed outside the half-ball: nothing to count
    far = np.zeros(line_frame.chart_dim)
    far[-1] = -2.0 * line_frame.rho
    none = brouwer_degree_small(lambda xi: xi - far, line_frame)
    assert none.degree == 0 and len(none.roots) == 0


def test_degenerate_root_detected(line_frame):
    z = np.zeros(line_frame.chart_dim)
    z[-1] = 0.5 * line_frame.rho
    squash = np.ones(line_frame.chart_dim)
    squash[0] = 1e-9

    with pytest.raises(DegenerateRootError):
        brouwer_degree_small(lambda xi: squash * (xi - z), line_frame)


def test_boundary_zero_detected(line_frame):
    top = np.zeros(line_frame.chart_dim)
    top[-1] = line_frame.rho
    with pytest.raises(BoundaryZeroError):
        brouwer_degree_small(lambda xi: xi - top, line_frame)


def test_out_of_span_deformation_rejected(line_frame):
    stray = line_frame.basis.direction(line_frame.d_y + 3)

    def fn(xi):
        bump = 0.3 * line_frame.r
        return line_frame.state_from_chart(xi) + bump * stray

    gamma = DeformationGamma(name="stray", fn=fn)
    with pytest.raises(DomainMembershipError):
        intersection_point(line_frame, gamma)


def test_start_map_does_not_depend_on_the_deformation(line_frame):
    maps = [homotopy_chart_map(line_frame, g, 0.0) for g in shipped_deformations(line_frame)]
    for xi in sample_sets(line_frame, interior_count=16, seed=9).interior_chart:
        first = maps[0](xi)
        for chart_map in maps[1:]:
            assert np.array_equal(chart_map(xi), first)


def test_intersection_point_takes_the_degree_roots(line_frame):
    for gamma in shipped_deformations(line_frame):
        deg = brouwer_degree_small(homotopy_chart_map(line_frame, gamma, 1.0), line_frame)
        shared = intersection_point(line_frame, gamma, roots=deg.roots)
        swept = intersection_point(line_frame, gamma)
        assert np.array_equal(shared.chart, swept.chart)
        assert shared.energy == swept.energy
    with pytest.raises(IntersectionNotFoundError):
        intersection_point(line_frame, gamma, roots=np.empty((0, line_frame.chart_dim)))
    # the chart checks run before any given root is certified
    stray = line_frame.basis.direction(line_frame.d_y + 3)
    gamma = DeformationGamma(
        name="stray", fn=lambda xi: line_frame.state_from_chart(xi) + (0.3 * line_frame.r) * stray)
    with pytest.raises(DomainMembershipError):
        intersection_point(line_frame, gamma, roots=deg.roots)


def test_intersection_certificate_reconstructs_state(line_frame):
    gamma = anchor_shear_deformation(line_frame)
    cert = intersection_point(line_frame, gamma)
    rebuilt = gamma(cert.chart)
    assert np.max(np.abs(rebuilt.u - cert.image.u)) <= 1e-12
    assert np.max(np.abs(rebuilt.v - cert.image.v)) <= 1e-12
