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
from oracles import (doubling_pilot, fd_jacobian, first_come_roots, hybr_root_sweep,
                     norm_base_rows, norm_boundary_rows, norm_cap_rows, norm_interior_rows,
                     sampled_embedding_constant)


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


def test_sample_sets_contracts(line_frame):
    samples = sample_sets(line_frame, interior_count=30, seed=4)
    assert samples.interior_chart.shape == (30, line_frame.chart_dim)
    interior_last = samples.interior_chart[:, -1]
    assert np.all(interior_last > 0.0)
    assert np.all(np.linalg.norm(samples.interior_chart, axis=1) < line_frame.rho)


def test_sample_sets_deterministic(line_frame):
    a = sample_sets(line_frame, seed=9)
    b = sample_sets(line_frame, seed=9)
    assert np.array_equal(a.interior_chart, b.interior_chart)


def test_toy_sphere_minimum_closed_form(toy_problem, toy_frame):
    # one node: the sphere is exactly {anchor, -anchor}, and J there is
    # 1/2 - 1/256; the floor 1/4 - 2 (1/4) (1/32) (1/4) is below it
    geo = estimate_geometry(toy_frame)
    assert geo.sphere_min == pytest.approx(127.0 / 256.0, abs=1e-12)
    assert geo.sphere_floor == pytest.approx(0.25 - 1.0 / 256.0, abs=1e-15)
    assert geo.base_max == 0.0
    # rho = 2 is too tight for separation; the chosen radii do certify
    assert not geo.certified
    choice = choose_radii(toy_problem)
    wide = build_frame(toy_problem, choice.r, choice.rho)
    assert estimate_geometry(wide).certified


def test_zero_preset_sphere_value(zero_problem):
    frame = build_frame(zero_problem, 1.0, 2.0)
    geo = estimate_geometry(frame)
    # without potentials J on the diagonal sphere is exactly r^2/2, and
    # its floor r^2/4; the cap ceiling is rho^2/2, at the cap top
    assert geo.sphere_min == pytest.approx(0.5, rel=1e-12)
    assert geo.sphere_floor == pytest.approx(0.25, rel=1e-12)
    assert geo.cap_max == pytest.approx(2.0, rel=1e-12)
    assert not geo.certified


def test_choose_radii_invariants(line_problem):
    choice = choose_radii(line_problem)
    assert 0.0 < choice.r < choice.rho
    assert choice.eps > 0.0
    assert choice.floor_value > 0.0
    assert choice.note == ""
    frame = build_frame(line_problem, choice.r, choice.rho)
    geo = estimate_geometry(frame)
    assert geo.certified and geo.boundary_max == 0.0 and geo.cap_max <= 0.0
    assert geo.sphere_floor == pytest.approx(choice.floor_value, rel=1e-14)


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
    # rho is the first doubling whose frame the full geometry certifies, and
    # the rows the sampled pilot sweep drew on that frame all have J <= 0
    problem = discretize(ProblemSpec(domain, power_nonlinearity()))
    choice = choose_radii(problem, seed=5)

    def boundary_energies(rho):
        return [estimate_geometry(build_frame(problem, choice.r, rho, d_y=d_y)).boundary_max]

    rho, doublings, top = doubling_pilot(boundary_energies, choice.r,
                                         linking.RADII_MAX_DOUBLINGS)
    assert (choice.rho, choice.doublings, top) == (rho, doublings, 0.0)
    frame = build_frame(problem, choice.r, choice.rho, d_y=d_y)
    rows = linking._boundary_rows(np.random.default_rng(6), d_y + 1, choice.rho, 96)
    assert max(evaluate_J(problem, frame.state_from_chart(row)).total for row in rows) <= 0.0


@settings(max_examples=200)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(1, 11),
       st.floats(1e-3, 1e3))
def test_pilot_rows_scale_exactly_with_rho(seed, dim, k, r):
    def draw(rho):
        return linking._boundary_rows(np.random.default_rng(seed), dim, rho, 2 * dim + 89)

    assert np.array_equal(draw(2.0 * r) * 2.0**(k - 1), draw(r * 2.0**k))


def _power_problem(domain, p=4.0):
    return discretize(ProblemSpec(domain, power_nonlinearity(p=p)))


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
    # and on two nodes, 2 x 2 or 1D n = 4 at p = 12 a concentrated field does;
    # the Green bound is above every sample, to rounding
    problem = _power_problem(domain, p)
    sampled = sampled_embedding_constant(problem, seed)
    assert linking._floor_constants(problem)[1] >= sampled - 4.0 * np.spacing(sampled)


def test_choose_radii_does_not_depend_on_the_seed_through_c0():
    problem = _power_problem(DomainSpec.interval(15), 80.0)
    choices = [choose_radii(problem, seed=seed) for seed in (0, 7, 12345)]
    assert len({(c.embedding_constant, c.r) for c in choices}) == 1


@pytest.mark.parametrize("p", [2.5, 4.0, 7.0, 12.0])
def test_embedding_constant_on_one_node_is_closed_form(p):
    # h = 1/2, K = 4 and vol = 1/2: the field w = 1/2 has |w|_K = 1, and the
    # Green bound G^((p - 2)/2) / lam1 with G = 1/4 and lam1 = 8 is attained
    exact = 0.5 * 0.5**p
    problem = _power_problem(DomainSpec.interval(1), p)
    c0 = linking._floor_constants(problem)[1]
    assert abs(c0 - exact) <= 2.0 * np.spacing(exact)
    if p == 4.0:
        # lam1 = 16 sin^2(pi/4) is 8 to rounding
        assert c0 == 0.25 / problem.principal_eigenvalue()


class CountingProducts:
    """A stiffness operator's K products (``_matvec``), counting the vectors multiplied."""

    def __init__(self, matvec):
        self.matvec = matvec
        self.vectors = 0

    def __call__(self, x):
        self.vectors += 1 if np.ndim(x) == 1 else np.shape(x)[0]
        return self.matvec(x)


@pytest.mark.parametrize("d_y", [1, 2])
def test_geometry_matvecs_do_not_grow_with_the_boundary_count(square_problem, monkeypatch,
                                                              d_y):
    # the ceiling covers the whole boundary of Q at a cost that does not depend on rho
    square_problem.principal_eigenvalue()  # cached once per problem
    counts = []
    for rho in (4.0, 64.0):
        frame = build_frame(square_problem, 1.0, rho, d_y=d_y)
        counter = CountingProducts(square_problem.op._matvec)
        with monkeypatch.context() as patch:
            patch.setattr(square_problem.op, "_matvec", counter)
            estimate_geometry(frame)
        counts.append(counter.vectors)
    # one for J at the anchor, whose u and v are mirrored, and one for the
    # norm of the anchor's field
    assert counts == [2, 2]


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
    h0 = homotopy_chart_map(gamma, 0.0)
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
        homotopy_chart_map(gamma, -0.1)
    with pytest.raises(InvalidSpecError):
        homotopy_chart_map(gamma, 1.5)


def test_identity_intersection_is_on_the_ray(line_frame, line_problem):
    cert = intersection_point(identity_deformation(line_frame))
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
    choice = choose_radii(problem)
    frame = build_frame(problem, choice.r, choice.rho, d_y=d_y)
    for gamma in shipped_deformations(frame):
        cert = intersection_point(gamma)
        assert cert.antidiagonal_residual <= 1e-13, gamma.name
        assert cert.radius_residual <= 1e-13, gamma.name


@pytest.mark.parametrize("d_y", [1, 2])
def test_shipped_deformations_certify(line_problem, d_y):
    choice = choose_radii(line_problem)
    frame = build_frame(line_problem, choice.r, choice.rho, d_y=d_y)
    for gamma in shipped_deformations(frame):
        cert = intersection_point(gamma)
        assert cert.antidiagonal_residual <= 1e-8
        assert cert.radius_residual <= 1e-8
        start = brouwer_degree_small(homotopy_chart_map(gamma, 0.0), frame)
        end = brouwer_degree_small(homotopy_chart_map(gamma, 1.0), frame)
        assert start.degree == 1
        assert end.degree == 1


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.builds(DomainSpec.interval, st.integers(3, 40)),
                 st.builds(DomainSpec.rectangle, st.integers(2, 8), st.integers(2, 8))),
       st.integers(1, 3), st.floats(2e-5, 10.0), st.floats(0.0, 1.0))
@example(DomainSpec.interval(3), 3, 2e-5, 0.0)
@example(DomainSpec.rectangle(2, 2), 1, 10.0, 1.0)
def test_every_shipped_start_map_has_the_proved_degree(domain, d_y, rho, fraction):
    # the CLI writes AFFINE_START_DEGREE without a sweep; the library's root count
    # must agree on every frame with min(r, rho - r) >= 1e-5
    r = 1e-5 + fraction * (rho - 2e-5)
    frame = build_frame(_power_problem(domain), r, rho, d_y=d_y)
    assert min(frame.r, frame.rho - frame.r) >= 1e-5 - 2.0 * np.spacing(rho)
    for gamma in shipped_deformations(frame):
        report = brouwer_degree_small(homotopy_chart_map(gamma, 0.0), frame)
        assert report.degree == linking.AFFINE_START_DEGREE == 1, gamma.name


@pytest.mark.parametrize("domain,d_y", [
    *(pytest.param(DomainSpec.interval(255), d_y, id=f"line255-dy{d_y}") for d_y in (1, 2, 3)),
    *(pytest.param(DomainSpec.rectangle(12, 5), d_y, id=f"rect12x5-dy{d_y}") for d_y in (1, 2)),
    *(pytest.param(DomainSpec.square(16), d_y, id=f"sq16-dy{d_y}") for d_y in (1, 2)),
])
def test_newton_sweep_matches_the_hybr_sweep(domain, d_y):
    problem = discretize(ProblemSpec(domain, power_nonlinearity()))
    choice = choose_radii(problem)
    frame = build_frame(problem, choice.r, choice.rho, d_y=d_y)
    starts = linking._start_lattice(frame, linking.SWEEP_STARTS_PER_AXIS)
    for gamma in shipped_deformations(frame):
        for t in (0.0, 1.0):
            map_fn = homotopy_chart_map(gamma, t)
            report = brouwer_degree_small(map_fn, frame)
            want = hybr_root_sweep(map_fn, starts, frame.r, frame.rho, linking.SWEEP_RESIDUAL_TOL)
            assert report.roots.shape == want.shape, (gamma.name, t)
            assert np.max(np.abs(report.roots - want)) <= 1e-12 * frame.rho, (gamma.name, t)
            dets = [np.linalg.det(fd_jacobian(map_fn, root)) for root in want]
            assert report.degree == int(np.sum(np.sign(dets)))
            # the batched Jacobian is the single-row one, bitwise
            for root, det in zip(report.roots, report.determinants):
                assert det == np.linalg.det(fd_jacobian(map_fn, root))


@st.composite
def end_sets(draw):
    """Sweep ends in chart dimension 2 to 4 and a merge distance tol.

    Bases sit on a dyadic lattice, so with tol = 2^-10 an end moved by tol
    along one axis lies exactly tol away. Kinds: a lone end; a tight
    cluster, repeats included; a pair exactly tol apart; and a chain
    e1, e2, e3 whose neighbours lie within tol while e1 and e3 do not.
    """
    dim = draw(st.integers(2, 4))
    tol = draw(st.sampled_from([2.0**-10, 1e-6, 3e-5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for kind in draw(st.lists(st.sampled_from(["lone", "cluster", "gap", "chain"]),
                              max_size=6)):
        base = rng.integers(-64, 65, dim) / 64.0
        axis = np.eye(dim)[rng.integers(dim)]
        if kind == "lone":
            rows.append(base)
        elif kind == "cluster":
            size = int(rng.integers(2, 6))
            rows.extend(base + rng.uniform(-0.25, 0.25, (size, dim)) * tol * rng.integers(0, 2))
        elif kind == "gap":
            rows.extend([base, base + tol * axis])
        else:
            rows.extend([base, base + 0.75 * tol * axis, base + 1.5 * tol * axis])
    order = draw(st.permutations(range(len(rows))))
    return np.array(rows, dtype=float).reshape(-1, dim)[list(order)], tol


@settings(max_examples=300)
@given(end_sets())
def test_first_come_rows_match_the_first_come_loop(ends_tol):
    ends, tol = ends_tol
    got, want = linking._first_come_rows(ends, tol), first_come_roots(ends, tol)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_first_come_rows_keep_chain_ends_and_drop_exact_gaps(dim):
    tol = 2.0**-10
    axis = np.eye(dim)[0]
    base = np.full(dim, 0.5)
    assert linking._first_come_rows(np.empty((0, dim)), tol).shape == (0, dim)
    assert np.array_equal(linking._first_come_rows(base[None], tol), base[None])
    # a chain: e2 is within tol of e1 and e3, but e1 and e3 are 1.5 tol apart
    chain = np.array([base, base + 0.75 * tol * axis, base + 1.5 * tol * axis])
    assert np.array_equal(linking._first_come_rows(chain, tol), chain[[0, 2]])
    assert np.array_equal(linking._first_come_rows(chain[[1, 0, 2]], tol), chain[[1]])
    # a repeated end is merged, and an end exactly tol away is too
    assert np.array_equal(linking._first_come_rows(chain[[0, 0, 2]], tol), chain[[0, 2]])
    gap = np.array([base, base + tol * axis])
    assert np.sqrt(np.sum((gap[1] - gap[0]) ** 2)) == tol
    assert np.array_equal(linking._first_come_rows(gap, tol), gap[:1])


@pytest.mark.parametrize("d_y", [1, 2, 3])
def test_sweep_starts_are_the_start_lattice_built_once(line_problem, d_y):
    frame = build_frame(line_problem, 0.7, 3.0, d_y=d_y)
    starts = frame._sweep_starts
    assert not starts.flags.writeable and frame._sweep_starts is starts
    want = linking._start_lattice(frame, linking.SWEEP_STARTS_PER_AXIS)
    assert starts.shape == want.shape and starts.tobytes() == want.tobytes()


@settings(max_examples=120)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.floats(1e-3, 1e3), st.integers(0, 40))
def test_chart_samplers_match_the_norm_forms(seed, dim, rho, count):
    for ours, theirs in ((linking._boundary_rows, norm_boundary_rows),
                         (linking._base_rows, norm_base_rows),
                         (linking._interior_rows, norm_interior_rows)):
        got = ours(np.random.default_rng(seed), dim, rho, count)
        want = theirs(np.random.default_rng(seed), dim, rho, count)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


class ScriptedNormals:
    """Gaussian draws from one fixed sequence, and uniform draws from another.

    The chosen ``tiny_rows`` are shrunk below 1e-12, and the first entry of
    each of the ``tiny_leads`` rows alone.
    """

    def __init__(self, seed, dim, tiny_rows, tiny_leads=()):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((100, dim))
        values[tiny_rows] *= 1e-13
        values[list(tiny_leads), 0] *= 1e-13
        self.values, self.at = values.ravel(), 0
        self.uniforms = iter(rng.random(100).tolist())

    def standard_normal(self, size):
        n = int(np.prod(size))
        self.at += n
        return self.values[self.at - n:self.at].reshape(size).copy()

    def random(self):
        return next(self.uniforms)

    uniform = random


@settings(max_examples=80)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(0, 40),
       st.lists(st.integers(0, 59), max_size=20))
def test_cap_rows_skip_short_draws_as_the_row_loop_did(seed, dim, count, tiny_rows):
    got = linking._cap_rows(ScriptedNormals(seed, dim, tiny_rows), dim, 3.0, count)
    want = norm_cap_rows(ScriptedNormals(seed, dim, tiny_rows), dim, 3.0, count)
    assert got.shape == want.shape == (count, dim) and got.tobytes() == want.tobytes()


@settings(max_examples=80)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(0, 40),
       st.lists(st.integers(0, 59), max_size=20), st.lists(st.integers(0, 59), max_size=20))
def test_base_rows_skip_short_draws_as_the_row_loop_did(seed, dim, count, tiny_rows,
                                                        tiny_leads):
    # a short draw takes no uniform; a draw with only its first entry tiny is kept
    got = linking._base_rows(ScriptedNormals(seed, dim - 1, tiny_rows, tiny_leads), dim, 3.0,
                             count)
    want = norm_base_rows(ScriptedNormals(seed, dim - 1, tiny_rows, tiny_leads), dim, 3.0,
                          count)
    assert got.shape == want.shape == (count, dim) and got.tobytes() == want.tobytes()


def test_boundary_points_are_fixed_bitwise(line_frame):
    rows = linking._boundary_rows(np.random.default_rng(2), line_frame.chart_dim,
                                  line_frame.rho, 48)
    for gamma in shipped_deformations(line_frame):
        if gamma.name == "identity":
            continue
        for row in rows:
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
        assert displacement_residual(gamma, samples.interior_chart) <= 1e-10


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
    map_fn = homotopy_chart_map(identity_deformation(frame), 1.0)
    report = brouwer_degree_small(map_fn, frame)
    rows = frame._degree_rows
    assert not rows.flags.writeable
    # the corners, then 150 cap rows and 150 base rows from one stream
    rng = np.random.default_rng(7)
    assert np.array_equal(rows, np.vstack([linking._boundary_corner_rows(3, 3.0),
                                           linking._cap_rows(rng, 3, 3.0, 150),
                                           linking._base_rows(rng, 3, 3.0, 150)]))
    assert np.max(np.linalg.norm(rows, axis=1)) == pytest.approx(3.0)
    # the boundary minimum is the least Euclidean norm of the map on those rows
    assert report.boundary_min == min(np.linalg.norm(map_fn(row)) for row in rows)
    brouwer_degree_small(map_fn, frame)
    assert frame._degree_rows is rows and draws == [(3, 3.0, 306)]
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

    # a state map leaves the chart, so the intersection solver refuses it
    with pytest.raises(DomainMembershipError, match="not chart compatible"):
        intersection_point(fn)
    # a modal push outside the chart is refused when it is built
    with pytest.raises(InvalidSpecError):
        modal_shift_deformation(line_frame, mode=line_frame.d_y)


def test_a_deformation_is_one_map(line_frame):
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
        gamma.chart = lambda xi: xi


def test_certificates_refuse_the_flow_map(line_problem, line_frame):
    flow = flow_deformation(line_problem, line_frame, steps=1)
    rows = sample_sets(line_frame, interior_count=4, seed=5).interior_chart
    for certify in (lambda: homotopy_chart_map(flow, 1.0), lambda: intersection_point(flow),
                    lambda: displacement_residual(flow, rows)):
        with pytest.raises(DomainMembershipError, match="not chart compatible"):
            certify()


def test_certificates_read_the_frame_of_the_deformation(line_problem):
    # a shift built on one frame is certified on that frame, beside a second
    # frame of the same problem and d_y with twice the radii
    frame = build_frame(line_problem, 0.7, 3.0)
    other = build_frame(line_problem, 1.4, 6.0)
    gamma = modal_shift_deformation(frame)
    assert other.d_y == frame.d_y and gamma.frame is frame
    start = brouwer_degree_small(homotopy_chart_map(gamma, 0.0), frame)
    want = np.zeros(frame.chart_dim)
    want[-1] = 0.7
    assert start.degree == 1
    assert start.roots == pytest.approx(want[None], abs=1e-12)
    cert = intersection_point(gamma)
    assert frame.splitting.pair_norm(cert.image) == pytest.approx(0.7, rel=1e-10)
    rows = sample_sets(frame, interior_count=8, seed=3).interior_chart
    assert displacement_residual(gamma, rows) == 0.0


def test_start_map_does_not_depend_on_the_deformation(line_frame):
    maps = [homotopy_chart_map(g, 0.0) for g in shipped_deformations(line_frame)]
    for xi in sample_sets(line_frame, interior_count=16, seed=9).interior_chart:
        first = maps[0](xi)
        for chart_map in maps[1:]:
            assert np.array_equal(chart_map(xi), first)


def test_intersection_point_takes_the_degree_roots(line_frame):
    for gamma in shipped_deformations(line_frame):
        deg = brouwer_degree_small(homotopy_chart_map(gamma, 1.0), line_frame)
        shared = intersection_point(gamma, roots=deg.roots)
        swept = intersection_point(gamma)
        assert np.array_equal(shared.chart, swept.chart)
        assert shared.energy == swept.energy
    with pytest.raises(IntersectionNotFoundError):
        intersection_point(gamma, roots=np.empty((0, line_frame.chart_dim)))


def test_intersection_certificate_reconstructs_state(line_frame):
    gamma = anchor_shear_deformation(line_frame)
    cert = intersection_point(gamma)
    rebuilt = gamma(cert.chart)
    assert np.max(np.abs(rebuilt.u - cert.image.u)) <= 1e-12
    assert np.max(np.abs(rebuilt.v - cert.image.v)) <= 1e-12
