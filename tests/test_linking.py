import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    build_modal_basis,
    choose_radii,
    discretize,
    displacement_residual,
    estimate_geometry,
    evaluate_J,
    flow_deformation,
    homotopy_chart_map,
    identity_deformation,
    intersection_point,
    linking,
    modal_shift_deformation,
    power_nonlinearity,
    sample_sets,
    shipped_deformations,
    zero_nonlinearity,
)
from oracles import doubling_pilot, fd_jacobian, hybr_root_sweep, sampled_embedding_constant


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
    norms = [line_problem.pair_norm(StatePair.diagonal(w)) for w in samples.sphere_fields]
    assert np.allclose(norms, r, rtol=1e-10)
    # the anchor and its negative are always among the sphere probes
    diffs = [np.max(np.abs(w - line_frame.anchor.u)) for w in samples.sphere_fields]
    sums = [np.max(np.abs(w + line_frame.anchor.u)) for w in samples.sphere_fields]
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
    assert np.array_equal(a.sphere_fields, b.sphere_fields)


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


@pytest.mark.parametrize("domain, d_y", [
    (DomainSpec.interval(255), 1), (DomainSpec.interval(255), 2),
    (DomainSpec.square(32), 1), (DomainSpec.square(32), 2),
    (DomainSpec.rectangle(12, 5), 1), (DomainSpec.rectangle(12, 5), 2),
    (DomainSpec.interval(1), 1),
])
def test_choose_radii_matches_the_full_pilot_sweep(domain, d_y):
    # the sweeps stop at their first positive energy and take the cross
    # term from the chart; the radii are those of the full evaluate_J sweeps
    problem = discretize(ProblemSpec(domain, power_nonlinearity()))
    seed = 5
    choice = choose_radii(problem, d_y=d_y, seed=seed)

    def boundary_energies(rho):
        pilot = build_frame(problem, choice.r, rho, d_y=d_y)
        rows = sample_sets(pilot, sphere_count=2, boundary_count=linking.RADII_PILOT_BOUNDARY,
                           interior_count=2, seed=seed + 1).boundary_chart
        return [evaluate_J(problem, pilot.state_from_chart(row)).total for row in rows]

    rho, doublings, top = doubling_pilot(boundary_energies, choice.r,
                                         linking.RADII_MAX_DOUBLINGS)
    assert (choice.rho, choice.doublings, choice.boundary_pilot_max) == (rho, doublings, top)


@pytest.mark.parametrize("d_y, seed", [(1, 0), (2, 5), (3, 11), (4, 123)])
def test_choose_radii_draws_the_pilot_rows_once(square_problem, monkeypatch, d_y, seed):
    # the rows at rho = 2^k r are those at 2r times 2^(k - 1), bitwise
    draws = []
    boundary_rows = linking._boundary_rows
    monkeypatch.setattr(linking, "_boundary_rows",
                        lambda *args: draws.append(args[1:]) or boundary_rows(*args))
    choice = choose_radii(square_problem, d_y=d_y, seed=seed)
    fill = max(linking.RADII_PILOT_BOUNDARY - 2 * (d_y + 1), 0)
    assert draws == [(d_y + 1, 2.0 * choice.r, (fill + 1) // 2, fill // 2)]
    # the per-doubling draw: each doubling fails on its own rows but the last
    pilot = build_frame(square_problem, choice.r, 2.0 * choice.r, d_y=d_y)
    for k in range(1, choice.doublings + 1):
        rows = boundary_rows(np.random.default_rng(seed + 1), d_y + 1, choice.r * 2.0**k,
                             (fill + 1) // 2, fill // 2)
        top = max(linking._chart_energies(pilot, rows))
        assert (top <= 0) is (k == choice.doublings)
    assert (choice.rho, choice.boundary_pilot_max) == (choice.r * 2.0**choice.doublings, top)


@settings(max_examples=200)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(1, 11),
       st.floats(1e-3, 1e3))
def test_pilot_rows_scale_exactly_with_rho(seed, dim, k, r):
    def draw(rho):
        return linking._boundary_rows(np.random.default_rng(seed), dim, rho, 45, 44)

    assert np.array_equal(draw(2.0 * r) * 2.0**(k - 1), draw(r * 2.0**k))


def test_choose_radii_builds_one_pilot_frame(square_problem, monkeypatch):
    # each doubling draws rows of its own rho; the pilot's chart does not depend on rho
    built = []
    real = linking.build_frame
    monkeypatch.setattr(linking, "build_frame",
                        lambda *args, **kwargs: built.append(real(*args, **kwargs)) or built[-1])
    choice = choose_radii(square_problem, d_y=2, seed=5)
    assert choice.doublings >= 2
    (pilot,) = built
    assert pilot.r == choice.r


def _power_problem(domain, p=4.0):
    return discretize(ProblemSpec(domain, power_nonlinearity(p=p, mu=p)))


@settings(max_examples=60)
@given(st.one_of(st.builds(DomainSpec.interval, st.integers(1, 300)),
                 st.builds(DomainSpec.rectangle, st.integers(1, 40), st.integers(1, 40))),
       st.floats(2.0, 12.0, exclude_min=True), st.integers(0, 2**32 - 1))
@example(DomainSpec.interval(15), 80.0, 0)
@example(DomainSpec.interval(15), 80.0, 7)
@example(DomainSpec.interval(63), 120.0, 0)
@example(DomainSpec.interval(63), 120.0, 12345)
@example(DomainSpec.interval(2), 8.0, 0)
@example(DomainSpec.interval(4), 12.0, 0)
@example(DomainSpec.rectangle(2, 2), 4.0, 0)
@example(DomainSpec.rectangle(1, 2), 7.9, 0)
def test_embedding_constant_is_at_least_the_sampled_one(domain, p, seed):
    # at p = 80 and 120 a smoothed random field beats the principal mode by far,
    # and on two nodes, 2 x 2 or 1D n = 4 at p = 12 so does its iterated field;
    # where the principal mode is the extremal field a random field can beat
    # its rounding by an ulp
    problem = _power_problem(domain, p)
    sampled = sampled_embedding_constant(problem, seed)
    assert linking._embedding_constant(problem) >= sampled - 4.0 * np.spacing(sampled)


def test_choose_radii_does_not_depend_on_the_seed_through_c0():
    problem = _power_problem(DomainSpec.interval(15), 80.0)
    choices = [choose_radii(problem, seed=seed) for seed in (0, 7, 12345)]
    assert len({(c.embedding_constant, c.r) for c in choices}) == 1


@pytest.mark.parametrize("domain", [DomainSpec.interval(255), DomainSpec.square(32),
                                    DomainSpec.square(128), DomainSpec.rectangle(12, 5)])
def test_embedding_constant_takes_at_most_its_step_cap(domain, monkeypatch):
    problem = _power_problem(domain)
    solves, per_start = [], []
    solve, power_ratio = problem.op.solve, linking._power_ratio
    monkeypatch.setattr(problem.op, "solve", lambda rhs: solves.append(1) or solve(rhs))

    def counting(problem, w):
        before = len(solves)
        value = power_ratio(problem, w)
        per_start.append(len(solves) - before)
        return value

    monkeypatch.setattr(linking, "_power_ratio", counting)
    linking._embedding_constant(problem)
    assert len(per_start) == 2 and max(per_start) <= linking.RADII_POWER_STEPS
    # from the principal mode the ratio stops rising before the cap
    assert per_start[0] < linking.RADII_POWER_STEPS


@pytest.mark.parametrize("p", [2.5, 4.0, 7.0, 12.0])
def test_embedding_constant_on_one_node_is_closed_form(p):
    # h = 1/2, K = 4 and vol = 1/2: the field w = 1/2 has |w|_K = 1
    exact = 0.5 * 0.5**p
    c0 = linking._embedding_constant(_power_problem(DomainSpec.interval(1), p))
    assert abs(c0 - exact) <= 2.0 * np.spacing(exact)
    if p == 4.0:
        assert c0 == 0.03125


class CountingMatrix:
    """A stiffness matrix that counts the vectors it multiplies."""

    def __init__(self, matrix):
        self.matrix = matrix
        self.vectors = 0

    def __matmul__(self, x):
        self.vectors += 1 if np.ndim(x) == 1 else np.shape(x)[1]
        return self.matrix @ x


@pytest.mark.parametrize("d_y", [1, 2])
def test_geometry_matvecs_do_not_grow_with_the_boundary_count(square_problem, monkeypatch,
                                                              d_y):
    counts = []
    for boundary_count in (32, 128):
        frame = build_frame(square_problem, 1.0, 4.0, d_y=d_y)
        samples = sample_sets(frame, sphere_count=8, boundary_count=boundary_count, seed=3)
        counter = CountingMatrix(square_problem.op.matrix)
        with monkeypatch.context() as patch:
            patch.setattr(square_problem.op, "matrix", counter)
            estimate_geometry(frame, samples)
        counts.append(counter.vectors)
    # one per sphere field, and the d_y + 1 rows of the cross Gram matrix
    assert counts == [8 + d_y + 1] * 2


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
    # the energy inner products of xi . B with the rows of B give back G xi,
    # and the chart Gram G is the identity up to eigenvector rounding
    gram = line_frame._chart_gram
    assert np.max(np.abs(gram - np.eye(line_frame.chart_dim))) <= 1e-10
    split = line_frame.splitting
    rows = [line_frame.basis.direction(k) for k in range(line_frame.d_y)]
    rows.append(line_frame.anchor / line_frame.r)
    rng = np.random.default_rng(21)
    for _ in range(10):
        xi = rng.uniform(-0.3, 0.3, line_frame.chart_dim) * line_frame.rho
        xi[-1] = abs(xi[-1]) + 0.05 * line_frame.r
        if np.linalg.norm(xi) >= line_frame.rho:
            continue
        x = line_frame.state_from_chart(xi)
        back = np.array([split.pair_dot(x, row) for row in rows])
        assert back == pytest.approx(xi, rel=1e-10, abs=1e-12)
        assert back == pytest.approx(gram @ xi, rel=1e-12, abs=1e-12)


def test_membership_guards(line_frame):
    below = np.zeros(line_frame.chart_dim)
    below[-1] = -0.1 * line_frame.r
    with pytest.raises(DomainMembershipError):
        line_frame.require_member(below)
    outside = np.zeros(line_frame.chart_dim)
    outside[-1] = 2.0 * line_frame.rho
    with pytest.raises(DomainMembershipError):
        line_frame.require_member(outside)


def test_require_member_names_the_first_row_outside(line_frame):
    r, rho = line_frame.r, line_frame.rho
    rows = np.zeros((4, line_frame.chart_dim))
    rows[:, -1] = 0.5 * rho
    rows[2, -1] = -0.1 * r
    rows[3, -1] = 2.0 * rho
    assert line_frame.require_member(rows[:2]) is not None
    with pytest.raises(DomainMembershipError) as caught:
        line_frame.require_member(rows)
    assert str(caught.value) == (f"chart row 2 outside the frame half-ball: |xi|={0.1 * r:.6g}, "
                                 f"last={-0.1 * r:.6g}, rho={rho:.6g}")
    with pytest.raises(DomainMembershipError, match="^chart row 0 outside"):
        line_frame.require_member(rows[3])
    with pytest.raises(DomainMembershipError, match="chart rows must have shape"):
        line_frame.require_member(rows[None])


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


def test_homotopy_time_bounds(line_frame, line_problem):
    gamma = identity_deformation(line_frame)
    # the time is checked once, when the map is built
    with pytest.raises(InvalidSpecError):
        homotopy_chart_map(line_frame, gamma, -0.1)
    with pytest.raises(InvalidSpecError):
        homotopy_chart_map(line_frame, gamma, 1.5)
    # so is the chart map: the flow leaves the chart
    with pytest.raises(DomainMembershipError):
        homotopy_chart_map(line_frame, flow_deformation(line_problem, line_frame), 1.0)


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
def test_certificate_residuals_on_the_benchmark_grid(d_y):
    # on n = 255 the rows of B are energy-orthonormal only to about 1e-12;
    # the homotopy's Gram matrix keeps both residuals at rounding level
    problem = discretize(ProblemSpec(DomainSpec.interval(255), power_nonlinearity()))
    choice = choose_radii(problem, d_y=d_y)
    frame = build_frame(problem, choice.r, choice.rho, d_y=d_y)
    for gamma in shipped_deformations(frame):
        cert = intersection_point(frame, gamma)
        assert cert.antidiagonal_residual <= 1e-13, gamma.name
        assert cert.radius_residual <= 1e-13, gamma.name


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


@pytest.mark.parametrize("domain,d_y", [
    *(pytest.param(DomainSpec.interval(255), d_y, id=f"line255-dy{d_y}") for d_y in (1, 2, 3)),
    *(pytest.param(DomainSpec.rectangle(12, 5), d_y, id=f"rect12x5-dy{d_y}") for d_y in (1, 2)),
    *(pytest.param(DomainSpec.square(16), d_y, id=f"sq16-dy{d_y}") for d_y in (1, 2)),
])
def test_newton_sweep_matches_the_hybr_sweep(domain, d_y):
    problem = discretize(ProblemSpec(domain, power_nonlinearity()))
    choice = choose_radii(problem, d_y=d_y)
    frame = build_frame(problem, choice.r, choice.rho, d_y=d_y)
    starts = linking._start_lattice(frame, linking.SWEEP_STARTS_PER_AXIS)
    for gamma in shipped_deformations(frame):
        for t in (0.0, 1.0):
            map_fn = homotopy_chart_map(frame, gamma, t)
            report = brouwer_degree_small(map_fn, frame)
            want = hybr_root_sweep(map_fn, starts, frame.r, frame.rho, linking.SWEEP_RESIDUAL_TOL)
            assert report.roots.shape == want.shape, (gamma.name, t)
            assert np.max(np.abs(report.roots - want)) <= 1e-12 * frame.rho, (gamma.name, t)
            dets = [np.linalg.det(fd_jacobian(map_fn, root)) for root in want]
            assert report.degree == int(np.sum(np.sign(dets)))
            # the batched Jacobian is the single-row one, bitwise
            for root, det in zip(report.roots, report.determinants):
                assert det == np.linalg.det(fd_jacobian(map_fn, root))


def test_boundary_points_are_fixed_bitwise(line_frame):
    samples = sample_sets(line_frame, boundary_count=48, seed=2)
    for gamma in shipped_deformations(line_frame):
        if gamma.name == "identity":
            continue
        for row in samples.boundary_chart:
            x = line_frame.state_from_chart(row)
            gx = gamma(row)
            assert np.array_equal(gx.u, x.u) and np.array_equal(gx.v, x.v)


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
    assert none.roots.shape == (0, line_frame.chart_dim) and none.determinants.shape == (0,)
    assert none.roots.dtype == none.determinants.dtype == np.float64


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


def test_degree_boundary_is_drawn_once_per_frame(line_problem, monkeypatch):
    draws = []
    boundary_rows = linking._boundary_rows
    monkeypatch.setattr(linking, "_boundary_rows",
                        lambda *args: draws.append(args[1:]) or boundary_rows(*args))
    frame = build_frame(line_problem, 0.7, 3.0, d_y=2)
    map_fn = homotopy_chart_map(frame, identity_deformation(frame), 1.0)
    report = brouwer_degree_small(map_fn, frame)
    rows = frame._degree_rows
    assert not rows.flags.writeable
    assert np.array_equal(rows, boundary_rows(np.random.default_rng(7), 3, 3.0, 150, 150))
    assert np.max(np.linalg.norm(rows, axis=1)) == pytest.approx(3.0)
    # the boundary minimum is the least Euclidean norm of the map on those rows
    assert report.boundary_min == min(np.linalg.norm(map_fn(row)) for row in rows)
    brouwer_degree_small(map_fn, frame)
    assert frame._degree_rows is rows and draws == [(3, 3.0, 150, 150)]
    # the radius is fixed when the frame is built
    with pytest.raises(dataclasses.FrozenInstanceError):
        frame.rho = 4.0
    assert frame.rho == 3.0 and frame._degree_rows is rows


def stray_direction(frame):
    """An antidiagonal mode direction outside the frame's chart."""
    return build_modal_basis(frame.splitting, frame.d_y + 4).direction(frame.d_y + 3)


def test_out_of_span_deformation_rejected(line_frame):
    stray = stray_direction(line_frame)

    def fn(xi):
        bump = 0.3 * line_frame.r
        return line_frame.state_from_chart(xi) + bump * stray

    # a deformation is one map: a state map beside a chart map is refused when built
    with pytest.raises(InvalidSpecError, match="exactly one"):
        DeformationGamma(name="stray", frame=line_frame, fn=fn, chart=lambda xi: xi)
    # a state map leaves the chart, so the intersection solver refuses it
    with pytest.raises(DomainMembershipError, match="not chart compatible"):
        intersection_point(line_frame, DeformationGamma("stray", line_frame, fn=fn))
    # a modal push outside the chart is refused when it is built
    with pytest.raises(InvalidSpecError):
        modal_shift_deformation(line_frame, mode=line_frame.d_y)


def test_a_deformation_is_one_map(line_problem, line_frame):
    state_map = flow_deformation(line_problem, line_frame, steps=1)
    assert state_map.chart is None and state_map.displacement_modes is None
    with pytest.raises(InvalidSpecError, match="exactly one"):
        DeformationGamma("none", line_frame)
    with pytest.raises(InvalidSpecError, match="declares no modes"):
        DeformationGamma("flow", line_frame, fn=state_map.fn, displacement_modes=(0,))
    for modes in (None, (line_frame.d_y,), (-1,), (0.0,), "0", np.arange(1)):
        with pytest.raises(InvalidSpecError, match="mode indices"):
            DeformationGamma("push", line_frame, chart=lambda xi: xi, displacement_modes=modes)
    # a chart map's state is its image row times B, and it is frozen
    gamma = DeformationGamma("push", line_frame, chart=lambda xi: 2.0 * xi,
                             displacement_modes=range(line_frame.d_y))
    xi = np.full(line_frame.chart_dim, 0.1 * line_frame.rho)
    want = line_frame.state_from_chart(2.0 * xi)
    assert np.array_equal(gamma(xi).u, want.u) and np.array_equal(gamma(xi).v, want.v)
    with pytest.raises(dataclasses.FrozenInstanceError):
        gamma.fn = state_map.fn


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
    # a state map beside the chart map is refused before any root is certified
    stray = stray_direction(line_frame)
    with pytest.raises(InvalidSpecError, match="exactly one"):
        DeformationGamma(
            name="stray", frame=line_frame,
            fn=lambda xi: line_frame.state_from_chart(xi) + (0.3 * line_frame.r) * stray,
            chart=lambda xi: xi)


def test_intersection_certificate_reconstructs_state(line_frame):
    gamma = anchor_shear_deformation(line_frame)
    cert = intersection_point(line_frame, gamma)
    rebuilt = gamma(cert.chart)
    assert np.max(np.abs(rebuilt.u - cert.image.u)) <= 1e-12
    assert np.max(np.abs(rebuilt.v - cert.image.v)) <= 1e-12
