"""The dense chart kernels against the StatePair formulas they replaced.

``LinkingFrame`` evaluates its chart as a dense product with the mode
rows, and ``ModalBasis.coefficients`` as one product with the rows
K phi_k / sqrt(2). Deformations take chart points and read their
weights from them, and the homotopy evaluates a deformation's chart map
with the chart's Gram matrix G, building no state. The oracles below
are the loops over ``StatePair`` algebra and sparse stiffness applies
that those kernels replaced, the inverse chart of the ``OracleFrame``
twin, and the state-to-state deformations that mapped each state back
to the chart; every kernel must agree with its oracle to 1e-12 relative
to the size of its inputs. The displacement
residual of a chart map is sqrt(z^T G z) of its chart displacement z off
the declared modes; its oracle is the state-space residual it replaced,
to 1e-12 max(1, r). The homotopy, the
half-ball membership test and the boundary clearance of the tapers take
Python scalars and ``x @ x`` norms on their chart vectors; they must
agree bitwise with the numpy forms they replaced. The homotopy and the
modal pushes map a block of chart rows in one call; each row of the
block must be bitwise the single-row numpy form of that row. The
central-difference Jacobian taken from one map call on the stencil of a
row whose stencil stays in the half-ball must be bitwise the
one-column-at-a-time differences of that row.
"""

import dataclasses
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linking_saddle import (
    DeformationGamma,
    DomainMembershipError,
    DomainSpec,
    LinkingFrame,
    ProblemSpec,
    StatePair,
    build_frame,
    discretize,
    displacement_residual,
    flow_deformation,
    flow_map,
    homotopy_chart_map,
    power_nonlinearity,
    shipped_deformations,
)
from linking_saddle.linking import _boundary_clearance, _stencil, _stencil_jacobian
from oracles import (boundary_clearance, chart_contains, fd_jacobian, homotopy_chart_value,
                     modal_push_chart, statepair_displacement_residual)

REL = 1e-12

GRIDS = (
    DomainSpec.interval(7),
    DomainSpec.interval(31),
    DomainSpec.rectangle(6, 3, 1.0, 2.5),
    DomainSpec.rectangle(4, 7, 0.3, 1.1),
)


def oracle_coefficients(basis, x):
    op = basis.splitting.op
    return (basis.modes @ op.apply(x.v) - basis.modes @ op.apply(x.u)) / np.sqrt(2.0)


class OracleFrame(LinkingFrame):
    """A frame whose chart maps are the StatePair loops."""

    def state_from_chart(self, xi):
        xi = np.asarray(xi, dtype=float)
        out = (xi[-1] / self.r) * self.anchor
        for k in range(self.d_y):
            out = out + xi[k] * self.basis.direction(k)
        return out

    def chart_from_state(self, x):
        coeffs = oracle_coefficients(self.basis, x)[: self.d_y]
        last = self.splitting.pair_dot(x, self.anchor) / self.r
        return np.concatenate([coeffs, [last]])

    def antidiagonal_from_chart(self, xi):
        flat = np.asarray(xi, dtype=float).copy()
        flat[-1] = 0.0
        return self.state_from_chart(flat)


def oracle_weight(frame, xi, ramp=None):
    """The boundary weight: the taper, or the flow's ramp when ``ramp`` is given."""
    q1 = max(0.0, xi[-1] / frame.rho - 1e-6)
    q2 = max(0.0, 1.0 - float(np.dot(xi, xi)) / frame.rho**2 - 1e-6)
    if ramp is None:
        return q1 * q2
    return min(1.0, q1 / ramp) * min(1.0, q2 / ramp)


def oracle_deformations(frame, scale=0.25):
    """Identity, shift and shear as maps of states, each mapping its state back to the chart."""
    direction = frame.basis.direction(0)
    amplitude = scale * frame.r

    def push(sheared):
        def fn(x):
            xi = frame.chart_from_state(x)
            w = oracle_weight(frame, xi) * (xi[-1] / frame.rho if sheared else 1.0)
            return x.copy() if w == 0.0 else x + (amplitude * w) * direction
        return fn

    return [lambda x: x.copy(), push(False), push(True)]


def oracle_flow_deformation(problem, frame, steps, step):
    def fn(x):
        w = oracle_weight(frame, frame.chart_from_state(x), ramp=0.05)
        if w == 0.0:
            return x.copy()
        return x + w * (flow_map(problem, x, steps, step) - x)
    return fn


def oracle_chart_map(frame, gamma, t, xi):
    split = frame.splitting
    gu = gamma(frame.state_from_chart(xi))
    p_part = split.antidiagonal_part(gu)
    q_norm = split.pair_norm(split.diagonal_part(gu))
    y_out = t * p_part + (1.0 - t) * frame.antidiagonal_from_chart(xi)
    coeff = (t / frame.r) * q_norm + (1.0 - t) * xi[-1] / frame.r - 1.0
    head = oracle_coefficients(frame.basis, y_out)[: frame.d_y]
    return np.concatenate([head, [coeff * frame.r]])


@lru_cache(maxsize=None)
def frames(grid_index, d_y, anchor_seed):
    """The kernel frame and its oracle twin; a seed gives a random anchor direction."""
    problem = discretize(ProblemSpec(GRIDS[grid_index], power_nonlinearity()))
    anchor = None
    if anchor_seed is not None:
        rng = np.random.default_rng(anchor_seed)
        anchor = StatePair(*rng.standard_normal((2, problem.n)))
    frame = build_frame(problem, 0.7, 3.0, d_y=d_y, anchor_direction=anchor)
    twin = OracleFrame(**{f.name: getattr(frame, f.name) for f in dataclasses.fields(frame)})
    return frame, twin


def half_ball_point(frame, rng, fraction):
    g = rng.standard_normal(frame.chart_dim)
    g[-1] = abs(g[-1])
    return (fraction * frame.rho / max(np.linalg.norm(g), 1e-300)) * g


def assert_state_close(got, want, scale):
    assert np.max(np.abs(got.u - want.u)) <= REL * scale
    assert np.max(np.abs(got.v - want.v)) <= REL * scale


frame_args = (
    st.integers(0, len(GRIDS) - 1),
    st.integers(1, 3),
    st.one_of(st.none(), st.integers(0, 2**32 - 1)),
)


@settings(max_examples=60)
@given(*frame_args, st.integers(0, 2**32 - 1), st.floats(0.0, 0.999))
def test_chart_kernels_match_statepair_loops(grid_index, d_y, anchor_seed, seed, fraction):
    frame, twin = frames(grid_index, d_y, anchor_seed)
    rng = np.random.default_rng(seed)
    xi = half_ball_point(frame, rng, fraction)
    # bound on the nodal entries of xi . B over the whole half-ball
    entry = max(np.max(np.abs(frame.basis.modes[:d_y])),
                np.max(np.abs(frame.anchor.u)) / frame.r)
    reach = np.sqrt(frame.chart_dim) * frame.rho * entry

    assert_state_close(frame.state_from_chart(xi), twin.state_from_chart(xi), reach)

    # G xi is the inverse chart of xi . B; the chart is an isometry
    got = frame._chart_gram @ xi
    want = twin.chart_from_state(twin.state_from_chart(xi))
    assert got.shape == (frame.chart_dim,)
    assert np.max(np.abs(got - want)) <= REL * frame.rho

    x = StatePair(*rng.standard_normal((2, frame.problem.n)))
    # every mode direction has unit energy norm
    size = frame.splitting.pair_norm(x)
    coeffs = frame.basis.coefficients(x)
    assert coeffs.shape == (frame.basis.count,)
    assert np.max(np.abs(coeffs - oracle_coefficients(frame.basis, x))) <= REL * size


@settings(max_examples=60)
@given(*frame_args, st.integers(0, 2**32 - 1), st.floats(0.0, 0.999),
       st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
def test_homotopy_chart_map_matches_statepair_loops(grid_index, d_y, anchor_seed, seed,
                                                    fraction, t):
    frame, twin = frames(grid_index, d_y, anchor_seed)
    xi = half_ball_point(frame, np.random.default_rng(seed), fraction)
    # the chart is an isometry, so each value is of the size of rho and r
    scale = frame.rho + frame.r
    for gamma, oracle_gamma in zip(shipped_deformations(frame), oracle_deformations(twin)):
        got = homotopy_chart_map(gamma, t)(xi)
        want = oracle_chart_map(twin, oracle_gamma, t, xi)
        assert got.shape == (frame.chart_dim,)
        assert np.max(np.abs(got - want)) <= REL * scale, gamma.name


@settings(max_examples=40)
@given(*frame_args, st.integers(0, 2**32 - 1), st.floats(0.0, 0.999))
def test_deformations_match_statepair_maps(grid_index, d_y, anchor_seed, seed, fraction):
    frame, twin = frames(grid_index, d_y, anchor_seed)
    problem = frame.problem
    xi = half_ball_point(frame, np.random.default_rng(seed), fraction)
    # the oracles take the state xi . B, as every caller passed them
    x = frame.state_from_chart(xi)
    pairs = list(zip(shipped_deformations(frame), oracle_deformations(twin)))
    pairs.append((flow_deformation(problem, frame, steps=2, step=0.2),
                  oracle_flow_deformation(problem, twin, 2, 0.2)))
    for gamma, oracle_gamma in pairs:
        got, want = gamma(xi), oracle_gamma(x)
        scale = max(np.max(np.abs(x.u)), np.max(np.abs(x.v)),
                    np.max(np.abs((want - x).u)), np.max(np.abs((want - x).v)), frame.r)
        assert_state_close(got, want, scale)


@settings(max_examples=60)
@given(*frame_args, st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_displacement_residual_matches_the_state_space_residual(grid_index, d_y, anchor_seed,
                                                                 seed, m):
    frame, _ = frames(grid_index, d_y, anchor_seed)
    rng = np.random.default_rng(seed)
    rows = np.array([half_ball_point(frame, rng, f) for f in rng.uniform(0.0, 0.999, m)])
    gammas = shipped_deformations(frame)
    # a constant shift of r times up to one on a random set of chart coordinates, the
    # anchor coordinate included, with a random set of declared modes
    shift = frame.r * rng.uniform(-1.0, 1.0, frame.chart_dim) * rng.integers(0, 2, frame.chart_dim)
    modes = tuple(int(k) for k in np.flatnonzero(rng.integers(0, 2, d_y)))
    gammas.append(DeformationGamma("shift", frame, chart=lambda xi: xi + shift,
                                   displacement_modes=modes))
    for gamma in gammas:
        got = displacement_residual(gamma, rows)
        want = statepair_displacement_residual(gamma, rows)
        assert abs(got - want) <= REL * max(1.0, frame.r), gamma.name
    off = np.delete(shift, modes)
    # the shipped pushes move only their declared mode, and exactly
    assert [displacement_residual(g, rows) for g in gammas[:-1]] == [0.0] * 3
    # a move off the declared modes is seen, at its energy norm
    assert (got > 0.0) is bool(np.any(off != 0.0))
    assert got == pytest.approx(np.sqrt(off @ off), rel=1e-12)


@settings(max_examples=80)
@given(*frame_args, st.integers(0, 2**32 - 1), st.floats(0.0, 1.05), st.booleans(),
       st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
def test_lean_chart_kernels_match_the_numpy_forms(grid_index, d_y, anchor_seed, seed,
                                                  fraction, below, t):
    frame, _ = frames(grid_index, d_y, anchor_seed)
    xi = half_ball_point(frame, np.random.default_rng(seed), fraction)
    if below:
        # on or under the base: inside the membership tolerance, at it, or past it
        xi[-1] = -(seed % 4) * 0.5e-9 * frame.rho
    inside = chart_contains(xi, frame.chart_dim, frame.rho)
    assert bool(frame._inside(xi)) is inside
    assert _boundary_clearance(frame, xi) == boundary_clearance(xi, frame.rho)
    for gamma in shipped_deformations(frame):
        chart_map = homotopy_chart_map(gamma, t)
        if not inside:
            with pytest.raises(DomainMembershipError):
                chart_map(xi)
            continue
        got = chart_map(xi)
        want = homotopy_chart_value(frame._chart_gram, frame.r, t, xi, gamma.chart(xi))
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@settings(max_examples=80)
@given(*frame_args, st.integers(0, 2**32 - 1), st.integers(1, 8),
       st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
def test_batched_homotopy_rows_match_the_single_row_forms(grid_index, d_y, anchor_seed, seed,
                                                          m, t):
    frame, _ = frames(grid_index, d_y, anchor_seed)
    rng = np.random.default_rng(seed)
    rows = np.array([half_ball_point(frame, rng, f) for f in rng.uniform(0.0, 1.05, m)])
    # rows on or under the base: inside the membership tolerance, at it, or past it
    below = rng.integers(0, 2, m).astype(bool)
    rows[below, -1] = -rng.integers(0, 4, int(below.sum())) * 0.5e-9 * frame.rho
    inside = [chart_contains(row, frame.chart_dim, frame.rho) for row in rows]
    amplitude = 0.25 * frame.r
    oracle_charts = [lambda xi: xi,
                     lambda xi: modal_push_chart(xi, frame.rho, amplitude, 0, False),
                     lambda xi: modal_push_chart(xi, frame.rho, amplitude, 0, True)]
    for gamma, oracle_chart in zip(shipped_deformations(frame), oracle_charts):
        chart_map = homotopy_chart_map(gamma, t)
        if not all(inside):
            with pytest.raises(DomainMembershipError, match=rf"^chart row {inside.index(False)} "):
                chart_map(rows)
            continue
        got, etas = chart_map(rows), gamma.chart(rows)
        assert got.shape == etas.shape == rows.shape
        for xi, eta, value in zip(rows, etas, got):
            want_eta = oracle_chart(xi)
            want = homotopy_chart_value(frame._chart_gram, frame.r, t, xi, want_eta)
            for a, b in ((eta, want_eta), (value, want)):
                assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@settings(max_examples=60)
@given(*frame_args, st.integers(0, 2**32 - 1), st.integers(1, 8),
       st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
def test_sweep_jacobians_are_the_central_jacobians(grid_index, d_y, anchor_seed, seed, m, t):
    frame, _ = frames(grid_index, d_y, anchor_seed)
    rng = np.random.default_rng(seed)
    # a row on the cap has stencil points outside the half-ball; it is skipped
    fractions = np.where(rng.integers(0, 2, m), 1.0, rng.uniform(0.0, 0.99, m))
    rows = [half_ball_point(frame, rng, f) for f in fractions]
    d = frame.chart_dim
    for gamma in shipped_deformations(frame):
        map_fn = homotopy_chart_map(gamma, t)
        for row in rows:
            points, h = _stencil(row)
            assert points.shape == (2 * d, d) and h.shape == (d,)
            if not frame._inside(points).all():
                continue
            jac = _stencil_jacobian(map_fn(points), h)
            assert jac.tobytes() == fd_jacobian(map_fn, row).tobytes()
