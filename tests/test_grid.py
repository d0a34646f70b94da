import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from linking_saddle import (
    DomainSpec,
    GridMismatchError,
    InvalidSpecError,
    LinearSolveError,
    StiffnessOperator,
    build_grid,
    eigenpairs,
    principal_eigenpair,
)

from linking_saddle.grid import _eigen_factors_1d
from oracles import (csr_stiffness, dense_dirichlet_matrix, dirichlet_eigenvalue_1d,
                     tridiagonal_eigenvalues)

EPS = np.finfo(float).eps


def test_single_node_matrix_is_4():
    grid, op = build_grid(DomainSpec.interval(1))
    assert np.array_equal(op.apply(np.eye(1)), [[4.0]])
    assert grid.cell_volume == 0.5


def test_single_node_square_product():
    # one interior node, unit square: K has the lone entry 4
    grid, op = build_grid(DomainSpec.square(1))
    a = np.array([0.7])
    assert op.product(a, a) == pytest.approx(4.0 * 0.49, rel=1e-15)
    assert grid.cell_volume == 0.25


@pytest.mark.parametrize("n", [3, 7, 15])
def test_matrix_matches_dense_assembly(n):
    _, op = build_grid(DomainSpec.interval(n))
    dense = dense_dirichlet_matrix(n)
    assert np.max(np.abs(op.apply(np.eye(n)) - dense)) == 0.0


def test_2d_form_matches_edge_sums():
    grid, op = build_grid(DomainSpec.rectangle(4, 3, 1.0, 2.0))
    rng = np.random.default_rng(5)
    for _ in range(4):
        u = rng.standard_normal(grid.n_interior)
        mesh = grid.as_mesh(u)
        hx, hy = grid.h
        padded = np.pad(mesh, 1)
        dx = np.diff(padded, axis=0)
        dy = np.diff(padded, axis=1)
        form = np.sum(dx * dx) * hy / hx + np.sum(dy * dy) * hx / hy
        assert op.product(u, u) == pytest.approx(form, rel=1e-12)


def test_quadrature_of_one():
    grid1, _ = build_grid(DomainSpec.interval(1))
    assert grid1.integrate(np.ones(1)) == 0.5
    grid2, _ = build_grid(DomainSpec.square(1))
    assert grid2.integrate(np.ones(1)) == 0.25
    # n interior cells each of width 1/(n+1)
    grid3, _ = build_grid(DomainSpec.interval(9))
    assert grid3.integrate(np.ones(9)) == pytest.approx(0.9, rel=1e-15)


def test_matrix_is_symmetric():
    for spec in (DomainSpec.interval(31), DomainSpec.rectangle(12, 9)):
        grid, op = build_grid(spec)
        mat = op.apply(np.eye(grid.n_interior))  # row i is K e_i
        assert np.abs(mat - mat.T).max() <= 1e-12


def test_principal_eigenvalue_closed_form():
    grid, op = build_grid(DomainSpec.interval(3))
    lam, vec = principal_eigenpair(grid, op)
    assert lam == pytest.approx(32.0 - 16.0 * np.sqrt(2.0), rel=1e-14)
    # eigen-residual in the scaled problem
    resid = op.apply(vec) - lam * grid.cell_volume * vec
    assert np.max(np.abs(resid)) <= 1e-12


@pytest.mark.parametrize("n", [3, 7, 15])
def test_eigenvalues_match_closed_form(n):
    grid, op = build_grid(DomainSpec.interval(n))
    evals, _ = eigenpairs(grid, op, min(n, 7))
    for k, lam in enumerate(evals, start=1):
        assert lam == pytest.approx(dirichlet_eigenvalue_1d(k, n), rel=1e-10)


@pytest.mark.parametrize("n", [1, 2, 3, 127, 128, 255, 1023])
def test_closed_form_factors_are_orthonormal_sine_columns(n):
    w, v = _eigen_factors_1d(n, 1.0 / (n + 1))
    # the first row, sqrt(2/(n+1)) sin(pi k/(n+1)), is positive before any
    # sign flip, so it recovers the symmetric sine matrix bitwise
    assert np.all(v[0] != 0.0)
    sine = v * np.sign(v[0])
    assert np.array_equal(sine, sine.T)
    assert np.max(np.abs(v.T @ v - np.eye(n))) <= 4.0 * np.sqrt(n) * EPS
    # sign convention: the largest-magnitude entry of each column is positive
    assert np.all(v[np.argmax(np.abs(v), axis=0), np.arange(n)] > 0.0)
    # a leading block of columns is bitwise the full factor's
    count = min(n, 5)
    w_head, v_head = _eigen_factors_1d(n, 1.0 / (n + 1), count)
    assert np.array_equal(w_head, w[:count]) and np.array_equal(v_head, v[:, :count])


@pytest.mark.parametrize("n", [1, 2, 3, 127, 128, 255, 1023])
def test_closed_form_eigenvalues_match_lapack(n):
    h = 1.0 / (n + 1)
    w, _ = _eigen_factors_1d(n, h)
    ref = tridiagonal_eigenvalues(n, h)
    assert np.all(np.diff(w) > 0.0)
    # a backward-stable solver is exact to a few eps times the largest eigenvalue
    assert np.max(np.abs(w - ref)) <= 32.0 * EPS * ref[-1]


def test_fine_grid_approaches_continuum():
    grid, op = build_grid(DomainSpec.interval(255))
    lam, _ = principal_eigenpair(grid, op)
    assert lam == pytest.approx(np.pi**2, rel=1e-3)


def test_eigenvectors_are_energy_orthonormal():
    grid, op = build_grid(DomainSpec.interval(15))
    _, vecs = eigenpairs(grid, op, 6)
    for i in range(6):
        for j in range(6):
            want = 1.0 if i == j else 0.0
            assert op.product(vecs[i], vecs[j]) == pytest.approx(want, abs=1e-12)


def test_2d_eigenpairs_satisfy_problem():
    grid, op = build_grid(DomainSpec.rectangle(6, 5, 1.0, 1.5))
    evals, vecs = eigenpairs(grid, op, 8)
    assert list(evals) == sorted(evals)
    for lam, vec in zip(evals, vecs):
        resid = op.apply(vec) - lam * grid.cell_volume * vec
        assert np.max(np.abs(resid)) <= 1e-10 * np.max(np.abs(op.apply(vec)))


def test_eigen_sign_is_deterministic():
    grid, op = build_grid(DomainSpec.interval(15))
    _, a = eigenpairs(grid, op, 5)
    _, b = eigenpairs(grid, op, 5)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("spec", [DomainSpec.interval(41), DomainSpec.rectangle(11, 13)])
def test_solve_round_trip(spec):
    grid, op = build_grid(spec)
    rng = np.random.default_rng(2)
    rhs = rng.standard_normal(grid.n_interior)
    x = op.solve(rhs)
    assert np.linalg.norm(op.apply(x) - rhs) <= 1e-9 * np.linalg.norm(rhs)


@settings(max_examples=40)
@given(
    st.integers(min_value=1, max_value=24),
    st.integers(min_value=1, max_value=24),
    st.floats(min_value=0.2, max_value=5.0),
    st.floats(min_value=0.2, max_value=5.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_2d_solve_matches_sparse_lu(nx, ny, lx, ly, seed):
    assume(nx != ny)
    grid, op = build_grid(DomainSpec.rectangle(nx, ny, lx, ly))
    assume(grid.h[0] != grid.h[1])
    rhs = np.random.default_rng(seed).standard_normal(grid.n_interior)
    w = op.solve(rhs)
    ref = spla.spsolve(csr_stiffness(grid.shape, grid.h).tocsc(), rhs)
    assert np.linalg.norm(w - ref) <= op.rtol * np.linalg.norm(ref)
    assert np.array_equal(op.solve(rhs), w)
    # an equal right-hand side in another buffer, 8 bytes off its alignment
    shifted = np.concatenate([[0.0], rhs])[1:]
    assert np.array_equal(op.solve(shifted), w)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4095), st.floats(0.05, 20.0), st.integers(-100, 100),
       st.integers(0, 2**32 - 1))
def test_1d_solve_matches_sparse_lu(n, length, exponent, seed):
    # the closed-form LDL^T against SuperLU; tridiag(-1, 2, -1) has condition
    # number about 0.4 n^2, so both carry forward errors up to about n^2 eps
    grid, op = build_grid(DomainSpec.interval(n, length))
    rhs = np.random.default_rng(seed).standard_normal(n) * 10.0**exponent
    w = op.solve(rhs)  # its residual check passes
    ref = spla.spsolve(csr_stiffness(grid.shape, grid.h).tocsc(), rhs)
    assert np.linalg.norm(w - ref) <= n * n * EPS * np.linalg.norm(ref)


def test_2d_solve_keeps_residual_check():
    grid, _ = build_grid(DomainSpec.rectangle(11, 7, 1.0, 2.0))
    strict = StiffnessOperator(grid)
    strict.rtol = 1e-18
    with pytest.raises(LinearSolveError):
        strict.solve(np.random.default_rng(4).standard_normal(grid.n_interior))


def test_coercivity_on_random_fields():
    grid, op = build_grid(DomainSpec.interval(31))
    lam1, _ = principal_eigenpair(grid, op)
    rng = np.random.default_rng(7)
    for _ in range(50):
        u = rng.standard_normal(31)
        energy = op.product(u, u)
        assert lam1 * grid.integrate(u * u) <= energy * (1.0 + 1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=2**32 - 1))
def test_energy_form_positive(n, seed):
    grid, op = build_grid(DomainSpec.interval(n))
    u = np.random.default_rng(seed).standard_normal(n)
    if np.any(u != 0.0):
        assert op.product(u, u) > 0.0


def test_field_shape_guard():
    grid, op = build_grid(DomainSpec.interval(8))
    with pytest.raises(GridMismatchError):
        grid.check_field(np.ones(9))
    with pytest.raises(GridMismatchError):
        op.apply(np.ones(7))
    with pytest.raises(GridMismatchError):
        op.apply(np.ones((2, 7)))


def test_nonfinite_integrand_rejected():
    grid, _ = build_grid(DomainSpec.interval(4))
    bad = np.array([1.0, np.nan, 0.0, 2.0])
    with pytest.raises(GridMismatchError):
        grid.integrate(bad)


def test_bad_domain_specs():
    with pytest.raises(InvalidSpecError):
        DomainSpec.interval(0)
    with pytest.raises(InvalidSpecError):
        DomainSpec.interval(4, -1.0)
    with pytest.raises(InvalidSpecError):
        DomainSpec(3, (1.0, 1.0, 1.0), (2, 2, 2))


def test_eigen_count_bounds():
    grid, op = build_grid(DomainSpec.interval(5))
    with pytest.raises(InvalidSpecError):
        eigenpairs(grid, op, 0)
    with pytest.raises(InvalidSpecError):
        eigenpairs(grid, op, 6)
