"""The kernels every stage shares, against the code they replaced.

The stiffness operator multiplies by a numpy stencil of its diagonals;
before, it was a scipy matrix, stored by compressed rows
(``oracles.csr_stiffness``) and, in 2D, built as two kron products
converted by ``todia()`` (``oracles.kron_dia_stiffness``). On 2D grids the 1D
eigenpairs of the axes are built once per operator and shared by
``eigenpairs`` and the fast-diagonalization solve; before, every call
factored each axis, as 1D grids still build their modes on each call. The
power potential is (s/p) |t|^(p-2) t^2; before, it was (s/p) |t|^p. The
solution writer formats each distinct double of its block once, and the
heatmap writer fills one template for the whole image; before, both
formatted one row at a time.
"""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import linking_saddle.grid as grid_module
from linking_saddle import (
    DiagonalSplitting,
    DomainSpec,
    LinearSolveError,
    ProblemSpec,
    build_frame,
    build_grid,
    build_modal_basis,
    choose_radii,
    discretize,
    eigenpairs,
    estimate_geometry,
    power_nonlinearity,
    solve_saddle,
)
from linking_saddle.reporting import write_float_csv, write_pgm

from oracles import csr_stiffness, kron_dia_stiffness

domains = st.one_of(
    st.integers(1, 300).map(DomainSpec.interval),
    st.integers(1, 48).map(DomainSpec.square),
    st.tuples(st.integers(1, 40), st.integers(1, 40),
              st.floats(0.5, 3.0), st.floats(0.5, 3.0)).map(lambda a: DomainSpec.rectangle(*a)),
)


def same_bits(a, b) -> bool:
    """Equal floats, with the sign of zero and NaN in the same places."""
    a, b = np.asarray(a), np.asarray(b)
    return bool(np.array_equal(a, b, equal_nan=True)
                and np.array_equal(np.signbit(a), np.signbit(b)))


def field_block(rng, rows: int, n: int, scale: float) -> np.ndarray:
    """Normal draws times ``scale``, with about one entry in six +0.0 and one in six -0.0."""
    block = rng.standard_normal((rows, n)) * scale
    zeros = rng.integers(0, 6, size=block.shape)
    block[zeros == 0] = 0.0
    block[zeros == 1] = -0.0
    return block


# unit, subnormal, tiny and large fields; products of the last may overflow
SCALES = st.sampled_from([1.0, 1e-310, 1e-300, 1e300])


@settings(max_examples=80)
@given(domains, st.integers(-310, 300), st.integers(-200, 200), st.integers(1, 4),
       st.integers(0, 2**32 - 1))
def test_stiffness_products_match_the_csr_assembly(spec, scale_u, scale_v, rows, seed):
    # 10^-310 draws subnormal fields; large ones overflow some products
    grid, op = build_grid(spec)
    ref = csr_stiffness(spec.interior_counts, spec.mesh_widths)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(grid.n_interior) * 10.0**scale_u
    v = rng.standard_normal(grid.n_interior) * 10.0**scale_v
    block = field_block(rng, rows, grid.n_interior, 10.0**scale_u)
    with np.errstate(over="ignore", invalid="ignore"):
        assert same_bits(op.apply(u), ref @ u)
        assert same_bits(op.apply(block), (ref @ block.T).T)
        assert same_bits(op.product(u, v), float(u @ (ref @ v)))


@settings(max_examples=120)
@given(st.integers(1, 40), st.integers(1, 40), st.floats(0.05, 20.0), st.floats(0.05, 20.0),
       st.integers(1, 5), SCALES, st.integers(0, 2**32 - 1))
@example(128, 128, 1.0, 1.0, 3, 1.0, 0)
@example(12, 5, 1.0, 2.5, 1, 1e300, 1)
@example(20, 13, 0.3, 1.1, 4, 1e-310, 2)
@example(9, 2, 1.0, 1.0, 2, 1.0, 3)
def test_2d_stiffness_diagonals_match_the_kron_build(nx, ny, lx, ly, rows, scale, seed):
    # each field of a block, and a lone field, multiplied bitwise as scipy's
    # diagonal and compressed-row products multiply them; at ny = 2 the kron
    # build also stores two diagonals of explicit zeros (offsets +-3)
    spec = DomainSpec.rectangle(nx, ny, lx, ly)
    _, op = build_grid(spec)
    block = field_block(np.random.default_rng(seed), rows, nx * ny, scale)
    for ref in (kron_dia_stiffness(spec.interior_counts, spec.mesh_widths),
                csr_stiffness(spec.interior_counts, spec.mesh_widths)):
        with np.errstate(over="ignore", invalid="ignore"):
            assert same_bits(op.apply(block), (ref @ block.T).T)
            assert same_bits(op.apply(block[0]), ref @ block[0])


def fresh_eigenpairs(grid, count, factors_1d):
    """``eigenpairs`` as built before: each axis factored anew, the 2D modes sorted in Python."""
    factors = [factors_1d(n, h) for n, h in zip(grid.shape, grid.h)]
    if grid.dimension == 1:
        ((w, v),) = factors
        evals, vecs = w[:count], v[:, :count].T
    else:
        (wx, vx), (wy, vy) = factors
        lam = (wx[:, None] + wy[None, :]).ravel()
        # ascending, ties broken by the x mode, then the y mode
        modes = sorted(range(lam.size), key=lambda f: (lam[f], *divmod(f, wy.size)))[:count]
        evals = lam[modes]
        vecs = np.array([np.outer(vx[:, i], vy[:, j]).ravel()
                         for i, j in (divmod(f, wy.size) for f in modes)])
    return evals, vecs / np.sqrt(evals * grid.cell_volume)[:, None]


def counting_factors(monkeypatch):
    """Patch the 1D factorization to record its (n, h); return the record and the original."""
    fresh = grid_module._eigen_factors_1d
    calls = []

    def counting(n, h, *count):
        calls.append((n, h))
        return fresh(n, h, *count)

    monkeypatch.setattr(grid_module, "_eigen_factors_1d", counting)
    return calls, fresh


@pytest.mark.parametrize("spec", [
    DomainSpec.interval(255), DomainSpec.interval(1), DomainSpec.square(24),
    DomainSpec.rectangle(12, 5), DomainSpec.rectangle(9, 9, 1.0, 2.0),
])
def test_eigenpairs_match_a_fresh_factorization(spec, monkeypatch):
    grid, op = build_grid(spec)
    calls, fresh = counting_factors(monkeypatch)
    count = min(7, grid.n_interior)
    evals, vecs = eigenpairs(grid, op, count)
    ref_evals, ref_vecs = fresh_eigenpairs(grid, count, fresh)
    assert np.array_equal(evals, ref_evals) and np.array_equal(vecs, ref_vecs)
    # an axis equal to the other, in count and mesh width, shares its pair
    assert calls == list(dict.fromkeys(zip(grid.shape, grid.h)))


@pytest.mark.parametrize("spec", [
    DomainSpec.square(24), DomainSpec.rectangle(12, 5), DomainSpec.rectangle(9, 9, 1.0, 2.0),
])
def test_2d_operators_factor_each_axis_once(spec, monkeypatch):
    grid, op = build_grid(spec)
    calls, _ = counting_factors(monkeypatch)
    eigenpairs(grid, op, 3)
    build_modal_basis(DiagonalSplitting(grid, op), 5)
    op.solve(np.ones(grid.n_interior))
    assert calls == list(dict.fromkeys(zip(grid.shape, grid.h)))
    # the shared factors are read-only, so no caller can change them
    for w, v in op._eigen_factors:
        assert not (w.flags.writeable or v.flags.writeable)


def test_1d_operators_keep_no_dense_eigenbasis(monkeypatch):
    # the 1D solve is an LU; each eigenpairs call factors the axis and drops it
    grid, op = build_grid(DomainSpec.interval(255))
    calls, _ = counting_factors(monkeypatch)
    eigenpairs(grid, op, 3)
    build_modal_basis(DiagonalSplitting(grid, op), 5)
    op.solve(np.ones(grid.n_interior))
    assert calls == [(255, 1.0 / 256)] * 2
    assert "_eigen_factors" not in vars(op)


def test_a_2d_pipeline_factors_its_axis_once(monkeypatch):
    calls, _ = counting_factors(monkeypatch)
    problem = discretize(ProblemSpec(DomainSpec.square(16), power_nonlinearity()))
    choice = choose_radii(problem, d_y=2, seed=7)
    frame = build_frame(problem, choice.r, choice.rho, d_y=2)
    assert estimate_geometry(frame, seed=7).certified
    assert solve_saddle(problem).converged
    assert calls == [(16, 1.0 / 17)]


def test_eigenpair_failure_names_the_relative_residual():
    # at 2047 nodes even the exact sine modes miss the 1e-10 residual check
    grid, op = build_grid(DomainSpec.interval(2047))
    with pytest.raises(LinearSolveError) as info:
        eigenpairs(grid, op, 1)
    match = re.fullmatch(r"modal basis: eigenpair 0 relative residual (\S+) exceeds 1e-10",
                         str(info.value))
    assert match
    vec = fresh_eigenpairs(grid, 1, grid_module._eigen_factors_1d)[1][0]
    ref = csr_stiffness(grid.shape, grid.h)
    w, _ = grid_module._eigen_factors_1d(grid.shape[0], grid.h[0])
    relative = np.linalg.norm(ref @ vec - w[0] * grid.cell_volume * vec) / np.linalg.norm(ref @ vec)
    assert float(match.group(1)) == pytest.approx(relative, rel=1e-3)
    assert relative > 1e-10


# Each form rounds one power (under one ulp) and then one product (the
# direct power) or three: their relative gap stays under 4 eps.
@settings(max_examples=200)
@given(st.sampled_from([2.5, 3.0, 4.0, 5.5]), st.floats(0.1, 10.0),
       st.lists(st.floats(1e-50, 1e50), min_size=1, max_size=64), st.booleans())
def test_power_potential_matches_the_direct_power(p, scale, magnitudes, negative):
    nl = power_nonlinearity(p, scale=scale)
    t = np.array(magnitudes) * (-1.0 if negative else 1.0)
    direct = (scale / p) * np.abs(t) ** p
    potential = nl.F(t)
    assert np.all(np.abs(potential - direct) <= 4.0 * np.finfo(float).eps * direct)
    assert np.array_equal(nl.G(t), potential)
    assert np.array_equal(nl.F(np.zeros(3)), np.zeros(3))


def test_power_potential_at_the_default_exponent_is_within_2_ulp():
    # at p = 4 numpy squares for |t|^2; the two forms then stay within 2 ulp
    t = np.random.default_rng(3).standard_normal(20000) * 10.0 ** np.linspace(-60, 60, 20000)
    np.testing.assert_array_max_ulp(power_nonlinearity().F(t), 0.25 * np.abs(t) ** 4.0,
                                    maxulp=2)


float_cells = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


def row_format(header, rows) -> bytes:
    """The CSV as written one row at a time, each cell by ``%.17g``."""
    lines = [",".join(header)] + [",".join("%.17g" % v for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


@settings(max_examples=60)
@given(st.integers(1, 4).flatmap(lambda k: st.lists(st.lists(float_cells, min_size=k, max_size=k),
                                                     min_size=1, max_size=30)))
def test_float_block_matches_the_row_format(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("csv") / "block.csv"
    header = [f"c{k}" for k in range(len(rows[0]))]
    write_float_csv(str(path), header, [np.array(col) for col in zip(*rows)])
    assert path.read_bytes() == row_format(header, rows)


# 0.0 and -0.0, two NaN payloads, +-inf, subnormals and two ordinary values
POOL_BITS = [0x0000000000000000, 0x8000000000000000, 0x7FF8000000000001, 0x7FF8000000000002,
             0x7FF0000000000000, 0xFFF0000000000000, 0x0000000000000001, 0x800FFFFFFFFFFFFF,
             0x3FF0000000000000, 0xBFD5555555555555]


@settings(max_examples=60)
@given(st.lists(float_cells, max_size=3), st.integers(2, 3), st.integers(1, 30),
       st.integers(0, 2**32 - 1))
def test_float_block_of_repeated_cells_matches_the_row_format(tmp_path_factory, extra, width,
                                                              length, seed):
    pool = np.concatenate([np.array(POOL_BITS, dtype=np.uint64).view(np.float64), extra])
    block = pool[np.random.default_rng(seed).integers(pool.size, size=(length, width))]
    block[0, :2] = 0.0, -0.0
    columns = [*block.T, block[:, 1]]  # the last column repeats one verbatim
    path = tmp_path_factory.mktemp("csv") / "block.csv"
    header = [f"c{k}" for k in range(len(columns))]
    write_float_csv(str(path), header, columns)
    assert path.read_bytes() == row_format(header, zip(*columns))


@settings(max_examples=40)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**32 - 1), st.booleans())
def test_heatmap_rows_match_the_row_format(tmp_path_factory, rows, cols, seed, flat):
    path = tmp_path_factory.mktemp("pgm") / "map.pgm"
    mesh = np.full((rows, cols), 0.5) if flat else np.random.default_rng(seed).standard_normal((rows, cols))
    image = write_pgm(str(path), mesh, comment="u component")
    lo, hi = mesh.min(), mesh.max()
    gray = (np.rint((mesh - lo) / (hi - lo) * 255.0).astype(int) if hi > lo
            else np.full(mesh.shape, 128, dtype=int))
    lines = ["P2", "# u component", f"{cols} {rows}", "255"]
    lines += [" ".join(str(v) for v in row) for row in gray]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
    # the returned image, written again under another comment
    again = path.with_name("again.pgm")
    write_pgm(str(again), image, comment="v component")
    lines[1] = "# v component"
    assert again.read_bytes() == ("\n".join(lines) + "\n").encode()
