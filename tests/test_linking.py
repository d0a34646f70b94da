import dataclasses
import re

import numpy as np
import pytest
from hypothesis import event, example, given, settings
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
    LinkingSaddleError,
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
from oracles import (doubling_pilot, equal_step_path_root, fd_jacobian, hybr_root_sweep,
                     norm_interior_rows, sampled_embedding_constant)


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
    rows = sample_sets(line_frame, interior_count=30, seed=4)
    assert rows.shape == (30, line_frame.chart_dim)
    assert np.all(rows[:, -1] > 0.0)
    assert np.all(np.linalg.norm(rows, axis=1) < line_frame.rho)


def test_sample_sets_deterministic(line_frame):
    a = sample_sets(line_frame, seed=9)
    b = sample_sets(line_frame, seed=9)
    assert a.shape == (12, line_frame.chart_dim) and np.array_equal(a, b)


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
    # the CLI writes AFFINE_START_DEGREE without a degree call at t = 0; the
    # library's homotopy check and path must agree on every frame with
    # min(r, rho - r) >= 1e-5
    r = 1e-5 + fraction * (rho - 2e-5)
    frame = build_frame(_power_problem(domain), r, rho, d_y=d_y)
    assert min(frame.r, frame.rho - frame.r) >= 1e-5 - 2.0 * np.spacing(rho)
    for gamma in shipped_deformations(frame):
        report = brouwer_degree_small(homotopy_chart_map(gamma, 0.0), frame)
        assert report.degree == linking.AFFINE_START_DEGREE == 1, gamma.name


@pytest.mark.parametrize("domain,d_y", [
    *(pytest.param(DomainSpec.interval(255), d_y, id=f"line255-dy{d_y}") for d_y in (1, 2, 3)),
    *(pytest.param(DomainSpec.rectangle(12, 5), d_y, id=f"rect12x5-dy{d_y}") for d_y in (1, 2)),
    *(pytest.param(DomainSpec.square(16), d_y, id=f"sq16-dy{d_y}") for d_y in (1, 2, 3)),
])
@settings(max_examples=4, deadline=None)
@given(st.one_of(st.none(), st.floats(0.5, 50.0)), st.floats(0.02, 0.98))
@example(None, 0.5)
def test_newton_sweep_matches_the_hybr_sweep(domain, d_y, rho, fraction):
    # the one root the path reaches is the only root a hybr sweep from the old
    # start lattice finds, on choose_radii's radii (rho None) and on drawn ones
    problem = _power_problem(domain)
    if rho is None:
        choice = choose_radii(problem)
        r, rho = choice.r, choice.rho
    else:
        r = fraction * rho
    frame = build_frame(problem, r, rho, d_y=d_y)
    starts = linking._start_lattice(frame, 4)
    for gamma in shipped_deformations(frame):
        for t in (0.0, 1.0):
            map_fn = homotopy_chart_map(gamma, t)
            report = brouwer_degree_small(map_fn, frame)
            want = hybr_root_sweep(map_fn, starts, frame.r, frame.rho, linking.PATH_RESIDUAL_TOL)
            assert report.roots.shape == want.shape == (1, frame.chart_dim), (gamma.name, t)
            assert np.max(np.abs(report.roots - want)) <= 1e-12 * frame.rho, (gamma.name, t)
            assert np.linalg.det(fd_jacobian(map_fn, want[0])) > 0.0
            assert report.degree == linking.AFFINE_START_DEGREE
            # the path's Jacobian at its end is the single-row one, bitwise
            root, jac = linking._path_root(map_fn, frame)
            assert root.tobytes() == report.roots[0].tobytes()
            assert jac.tobytes() == fd_jacobian(map_fn, root).tobytes()
        # without roots, the certificate follows the same path to the same root
        cert = intersection_point(gamma)
        assert cert.chart.tobytes() == report.roots[0].tobytes()


@settings(max_examples=120)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.floats(1e-3, 1e3), st.integers(0, 40))
def test_chart_samplers_match_the_norm_forms(seed, dim, rho, count):
    got = linking._interior_rows(np.random.default_rng(seed), dim, rho, count)
    want = norm_interior_rows(np.random.default_rng(seed), dim, rho, count)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def assert_boundary_rows(rows, dim, rho, count):
    """The corner probes first, bitwise; then ceil(fill/2) cap rows and floor(fill/2) base rows.

    A cap row has |xi| = rho to rounding and a nonnegative last entry; a
    base row has last entry 0.0 and |xi| <= rho, to rounding.
    """
    fill = max(count - 2 * dim, 0)
    assert rows.shape == (2 * dim + fill, dim) and np.isfinite(rows).all()
    corners = np.zeros((2 * dim, dim))
    corners[1, -1] = rho
    for k in range(dim - 1):
        corners[2 + 2 * k, k], corners[3 + 2 * k, k] = rho, -rho
    assert rows[:2 * dim].tobytes() == corners.tobytes()
    caps, bases = np.split(rows[2 * dim:], [(fill + 1) // 2])
    assert np.all(np.abs(np.linalg.norm(caps, axis=1) - rho) <= 1e-15 * dim * rho)
    assert np.all(caps[:, -1] >= 0.0)
    assert np.all(bases[:, -1] == 0.0)
    assert np.all(np.linalg.norm(bases, axis=1) <= rho * (1.0 + 1e-15 * dim))


@settings(max_examples=120)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.floats(1e-3, 1e3), st.integers(0, 40))
def test_boundary_rows_lie_on_the_boundary(seed, dim, rho, count):
    rows = linking._boundary_rows(np.random.default_rng(seed), dim, rho, count)
    assert_boundary_rows(rows, dim, rho, count)
    again = linking._boundary_rows(np.random.default_rng(seed), dim, rho, count)
    assert again.tobytes() == rows.tobytes()


class ScriptedNormals:
    """Gaussian draws from one fixed sequence, and uniform draws from another.

    The chosen ``tiny_rows`` are set to zero, and the first entry of each
    of the ``tiny_leads`` rows alone, so a row kept without a redraw would
    scale 0 / 0.
    """

    def __init__(self, seed, dim, tiny_rows, tiny_leads=()):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((100, dim))
        values[tiny_rows] = 0.0
        values[list(tiny_leads), 0] = 0.0
        self.values, self.at = values.ravel(), 0
        self.uniforms = iter(rng.random(100).tolist())

    def standard_normal(self, size):
        n = int(np.prod(size))
        self.at += n
        return self.values[self.at - n:self.at].reshape(size).copy()

    def random(self, size):
        return np.array([next(self.uniforms) for _ in range(size)])


def first_pass_rows(normals, dim, rho, count):
    """The fill rows ``_boundary_rows`` makes of its first Gaussian block, and which are short.

    Cap rows take |g| with a nonnegative last entry, base rows g with a last
    entry 0.0; the base radii take the first floor(fill/2) uniforms, which
    the sampler draws after every redraw. A row that is not short must come
    out bitwise as here, as the row loop kept every draw it did not skip.
    """
    fill = max(count - 2 * dim, 0)
    caps = (fill + 1) // 2
    g = normals.standard_normal((fill, dim))
    g[:caps, -1] = np.abs(g[:caps, -1])
    g[caps:, -1] = 0.0
    norm = np.sqrt(linking._row_dots(g))
    radii = np.full(fill, rho)
    radii[caps:] *= np.array(list(normals.uniforms)[:fill - caps]) ** (1.0 / (dim - 1))
    return (radii / norm)[:, None] * g, norm < 1e-12, caps


@settings(max_examples=80)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(0, 40),
       st.lists(st.integers(0, 59), max_size=20))
def test_cap_rows_skip_short_draws_as_the_row_loop_did(seed, dim, count, tiny_rows):
    # a zero row is short on the cap; it is drawn again, and no other row moves
    rows = linking._boundary_rows(ScriptedNormals(seed, dim, tiny_rows), dim, 3.0, count)
    assert_boundary_rows(rows, dim, 3.0, count)
    with np.errstate(divide="ignore", invalid="ignore"):
        want, short, caps = first_pass_rows(ScriptedNormals(seed, dim, tiny_rows), dim, 3.0,
                                            count)
    kept = ~short[:caps]
    assert rows[2 * dim:][:caps][kept].tobytes() == want[:caps][kept].tobytes()


@settings(max_examples=80)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(0, 40),
       st.lists(st.integers(0, 59), max_size=20), st.lists(st.integers(0, 59), max_size=20))
def test_base_rows_skip_short_draws_as_the_row_loop_did(seed, dim, count, tiny_rows,
                                                        tiny_leads):
    # a zero row is short on the base; a zero first entry alone is short on
    # the base when dim = 2, as the base drops the last entry. A short draw
    # takes no uniform, and a draw with only its first entry zero at dim > 2 is kept
    rows = linking._boundary_rows(ScriptedNormals(seed, dim, tiny_rows, tiny_leads), dim, 3.0,
                                  count)
    assert_boundary_rows(rows, dim, 3.0, count)
    with np.errstate(divide="ignore", invalid="ignore"):
        want, short, caps = first_pass_rows(ScriptedNormals(seed, dim, tiny_rows, tiny_leads),
                                            dim, 3.0, count)
    kept = ~short[caps:]
    assert rows[2 * dim + caps:][kept].tobytes() == want[caps:][kept].tobytes()


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
    rows = sample_sets(line_frame, interior_count=16, seed=5)
    for gamma in shipped_deformations(line_frame):
        assert displacement_residual(gamma, rows) <= 1e-10


def test_affine_degree_conventions(line_problem, line_frame):
    # the affine start map itself: degree 1, its root r e_last
    start = line_frame.r * np.eye(line_frame.chart_dim)[-1]
    report = brouwer_degree_small(lambda xi: xi - start, line_frame)
    assert report.degree == linking.AFFINE_START_DEGREE == 1
    assert report.roots.tobytes() == start[None].tobytes()

    # maps that move the boundary are refused, whatever their degree: a sample
    # cannot show that their homotopy stays off zero between the rows
    z = np.zeros(line_frame.chart_dim)
    z[-1] = 0.5 * line_frame.rho
    z[0] = 0.1 * line_frame.rho
    far = np.zeros(line_frame.chart_dim)
    far[-1] = -2.0 * line_frame.rho
    for map_fn in (lambda xi: xi - z, lambda xi: z - xi, lambda xi: xi - far):
        with pytest.raises(DomainMembershipError, match=r"^map moves the frame boundary: "):
            brouwer_degree_small(map_fn, line_frame)

    # degree 0: roots (-1, 2) and (1, 2) with det -2 and +2; its straight homotopy
    # vanishes on the cap near xi_0 = -3.81, t = 0.22, between the rows, while the
    # path from r e_last reaches (1, 2) with no fold
    frame = build_frame(line_problem, 1.0, 4.0)
    with pytest.raises(DomainMembershipError, match=r"^map moves the frame boundary: "):
        brouwer_degree_small(_decoupled(lambda x: x * x - 1.0), frame)


def _decoupled(first):
    """The chart map xi -> (first(xi_0), xi_1 - 2) of a two-dimensional chart."""
    return lambda xi: np.stack([first(xi[..., 0]), xi[..., 1] - 2.0], axis=-1)


@pytest.mark.parametrize("d_y", range(1, 9))
def test_path_of_the_start_map_stays_at_r_e_last(line_problem, d_y):
    frame = build_frame(line_problem, 0.7, 3.0, d_y=d_y)
    for gamma in shipped_deformations(frame):
        root, jac = linking._path_root(homotopy_chart_map(gamma, 0.0), frame)
        assert root.tobytes() == (0.7 * np.eye(d_y + 1)[-1]).tobytes()
        assert np.max(np.abs(jac - np.eye(d_y + 1))) <= 1e-9


def test_path_halves_its_t_step_where_newton_overshoots(line_problem, monkeypatch):
    frame = build_frame(line_problem, 1.0, 4.0)
    # Newton on arctan overshoots from afar; shorter t-steps keep each start close
    map_fn = _decoupled(lambda x: np.arctan(10.0 * (x - 0.8)))
    root, _ = linking._path_root(map_fn, frame)
    assert np.max(np.abs(root - [0.8, 2.0])) <= 1e-12
    monkeypatch.setattr(linking, "PATH_MIN_T_STEP", 1.0)
    with pytest.raises(IntersectionNotFoundError, match=r"at t = 1 \("):
        linking._path_root(map_fn, frame)


def _path_outcome(path, *args):
    """(error class, root, Jacobian) of one path; the error class is None where it succeeds."""
    try:
        return (None, *path(*args))
    except LinkingSaddleError as exc:
        return type(exc), None, None


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.builds(DomainSpec.interval, st.integers(6, 63)),
                 st.builds(DomainSpec.rectangle, st.integers(4, 19), st.integers(4, 19))),
       st.integers(1, 6), st.sampled_from([3.0, 4.0, 6.0]),
       st.floats(0.0, 3.0, exclude_max=True), st.floats(0.25, 4.0), st.floats(0.05, 0.95))
@example(DomainSpec.rectangle(19, 19), 6, 6.0, 2.99, 4.0, 0.95)
@example(DomainSpec.interval(63), 6, 3.0, 0.0, 0.25, 0.05)
def test_path_from_t_one_matches_the_four_step_path(domain, d_y, p, shift, scale, fraction):
    # trying t = 1 first reaches the root the four equal t-steps reached, on
    # choose_radii's radii scaled, at lam = delta; the two schedules can end on
    # different last Newton iterates, so the roots agree to rounding, often bitwise
    problem = discretize(ProblemSpec(domain, power_nonlinearity(p=p), lam=shift, delta=shift))
    rho = scale * choose_radii(problem).rho
    frame = build_frame(problem, fraction * rho, rho, d_y=d_y)
    tolerances = (linking.PATH_MIN_T_STEP, linking.PATH_NEWTON_STEPS, linking.PATH_STEP_TOL,
                  linking.PATH_RESIDUAL_TOL)
    for gamma in shipped_deformations(frame):
        map_fn = homotopy_chart_map(gamma, 1.0)
        error, root, jac = _path_outcome(linking._path_root, map_fn, frame)
        want = _path_outcome(equal_step_path_root, map_fn, frame, tolerances,
                             IntersectionNotFoundError)
        assert error is want[0], gamma.name
        if error is None:
            assert np.max(np.abs(root - want[1])) <= 1e-12 * np.max(np.abs(want[1])), gamma.name
            assert np.sign(np.linalg.det(jac)) == np.sign(np.linalg.det(want[2])), gamma.name
            event("root bitwise equal" if root.tobytes() == want[1].tobytes() else "root moved")


@pytest.mark.parametrize("domain,d_y", [
    *(pytest.param(DomainSpec.interval(255), d_y, id=f"line255-dy{d_y}") for d_y in (1, 2)),
    pytest.param(DomainSpec.square(16), 3, id="sq16-dy3"),
])
def test_shipped_paths_reach_t_one_without_halving(domain, d_y, monkeypatch):
    # on the benchmark's line255 frames and on sq16 at d_y 3, Newton on H_1
    # converges from r e_last: a least t-step of 1 refuses any halved step,
    # and every path still ends
    problem = _power_problem(domain)
    choice = choose_radii(problem)
    frame = build_frame(problem, choice.r, choice.rho, d_y=d_y)
    monkeypatch.setattr(linking, "PATH_MIN_T_STEP", 1.0)
    for gamma in shipped_deformations(frame):
        root, _ = linking._path_root(homotopy_chart_map(gamma, 1.0), frame)
        intersection_point(gamma, root)


def test_path_stops_at_a_fold(line_problem):
    # H_t vanishes where t = x (2 exp(-x^2) + x^2 / 8): along the root curve t
    # rises to 0.908 at x = 0.78, falls to 0.735 and reaches 1 at x = 1.94; no
    # boundary zero, so the degree is 1, but a path in t cannot turn at the fold
    frame = build_frame(line_problem, 1.0, 4.0)
    map_fn = _decoupled(lambda x: x - 1.0 / (2.0 * np.exp(-x * x) + x * x / 8.0))
    with pytest.raises(IntersectionNotFoundError, match=r"^the path from r e_last stalled") as err:
        linking._path_root(map_fn, frame)
    assert 0.9083 < float(re.search(r"at t = ([0-9.]+) ", str(err.value)).group(1)) < 0.91


def test_degenerate_root_detected(line_frame):
    # xi - p plus a bump that vanishes on the boundary: the boundary stays put,
    # the root stays at p = r e_last and its Jacobian is diag(1e-10, 1, ...)
    r, rho = line_frame.r, line_frame.rho
    p = r * np.eye(line_frame.chart_dim)[-1]
    squash = np.zeros(line_frame.chart_dim)
    squash[0] = -(1.0 - 1e-10) * rho**3 / (r * (rho**2 - r**2))

    def map_fn(xi):
        bump = xi[..., -1] * (rho**2 - np.sum(xi * xi, axis=-1)) / rho**3
        return (xi - p) * (1.0 + bump[..., None] * squash)

    with pytest.raises(DegenerateRootError):
        brouwer_degree_small(map_fn, line_frame)


def test_boundary_zero_detected(line_problem, line_frame):
    top = np.zeros(line_frame.chart_dim)
    top[-1] = line_frame.rho
    with pytest.raises(BoundaryZeroError):
        brouwer_degree_small(lambda xi: xi - top, line_frame)
    # at r = 1e-6 the base center keeps |H_1| = 1e-6, but the homotopy's
    # bound, r less the Gram defect, falls below it
    frame = build_frame(line_problem, 1e-6, 3.0)
    with pytest.raises(BoundaryZeroError, match=r"^homotopy from xi - r e_last is not proved"):
        brouwer_degree_small(homotopy_chart_map(identity_deformation(frame), 1.0), frame)


def test_boundary_bound_refusal_names_its_parts():
    # at rho = 1e12 r the rounding slack rho 1e-12 alone reaches r = 1, so the
    # bound min(r, rho - r) - delta is negative whatever the Gram defect
    problem = discretize(ProblemSpec(DomainSpec.interval(15), power_nonlinearity()))
    frame = build_frame(problem, 1.0, 1e12)
    with pytest.raises(BoundaryZeroError) as err:
        brouwer_degree_small(homotopy_chart_map(identity_deformation(frame), 1.0), frame)
    match = re.fullmatch(
        r"homotopy from xi - r e_last is not proved off zero on the frame boundary "
        r"\(bound (\S+) = min\(r, rho - r\) - delta at rho/r = 1\.000e\+12; "
        r"delta = rho \|E\|_F \+ rho 1e-12 = (\S+) \+ 1\.000e\+00\)", str(err.value))
    assert match, str(err.value)
    bound, gram_part = (float(group) for group in match.groups())
    assert 0.0 <= gram_part < 1.0
    assert bound == pytest.approx(1.0 - (gram_part + 1.0), rel=1e-3)


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
    # the 6 corners, then 150 cap rows and 150 base rows, of seed 7
    assert_boundary_rows(rows, 3, 3.0, 306)
    assert rows.tobytes() == boundary_rows(np.random.default_rng(7), 3, 3.0, 306).tobytes()
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
    rows = sample_sets(line_frame, interior_count=4, seed=5)
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
    rows = sample_sets(frame, interior_count=8, seed=3)
    assert displacement_residual(gamma, rows) == 0.0


def test_start_map_does_not_depend_on_the_deformation(line_frame):
    maps = [homotopy_chart_map(g, 0.0) for g in shipped_deformations(line_frame)]
    for xi in sample_sets(line_frame, interior_count=16, seed=9):
        first = maps[0](xi)
        for chart_map in maps[1:]:
            assert np.array_equal(chart_map(xi), first)


def test_intersection_point_takes_the_degree_roots(line_frame):
    for gamma in shipped_deformations(line_frame):
        deg = brouwer_degree_small(homotopy_chart_map(gamma, 1.0), line_frame)
        shared = intersection_point(gamma, deg.roots[0])
        followed = intersection_point(gamma)
        assert np.array_equal(shared.chart, followed.chart)
        assert shared.energy == followed.energy
    # a point off N is refused, and the failure names its residuals: the base
    # centre maps to the zero state, whose radius residual is r
    with pytest.raises(IntersectionNotFoundError,
                       match=r"antidiagonal residual 0\.000e\+00 and radius residual "):
        intersection_point(gamma, np.zeros(line_frame.chart_dim))


def test_intersection_certificate_reconstructs_state(line_frame):
    gamma = anchor_shear_deformation(line_frame)
    cert = intersection_point(gamma)
    rebuilt = gamma(cert.chart)
    assert np.max(np.abs(rebuilt.u - cert.image.u)) <= 1e-12
    assert np.max(np.abs(rebuilt.v - cert.image.v)) <= 1e-12
