import dataclasses
import inspect

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from curveband import grid_basis
from curveband.grid_basis import (
    BASIS_FAMILIES,
    BasisMatrix,
    Grid,
    analyze,
    basis_for,
    check_orthonormality,
    fourier_basis,
    haar_basis,
    make_grid,
    synthesize,
)


def test_make_grid_m2():
    g = make_grid(2)
    assert_array_equal(g.points, [0.25, 0.75])


def test_make_grid_m4():
    g = make_grid(4)
    assert_array_equal(g.points, [0.125, 0.375, 0.625, 0.875])
    # m fixes the design: grids compare and hash by m, and take no points
    assert Grid(8) == make_grid(8) and hash(Grid(8)) == hash(make_grid(8))
    assert Grid(8) != Grid(16)
    with pytest.raises(TypeError):
        Grid(4, g.points)


def test_make_grid_m256_first_point():
    g = make_grid(256)
    assert g.m == 256
    assert g.points[0] == 1.0 / 512.0


@pytest.mark.parametrize("m", [2, 3, 24, 1000, 1024])
def test_a_grid_holds_only_m_and_computes_its_points_on_each_read(m):
    assert [f.name for f in dataclasses.fields(Grid)] == ["m"]
    grid = Grid(m)
    expected = (np.arange(1, m + 1) - 0.5) / m
    assert grid.points.tobytes() == expected.tobytes()
    # each read is a fresh array, so writing into one leaves the next as it was
    first = grid.points
    first[0] = 0.9
    assert grid.points.tobytes() == expected.tobytes()


def test_make_grid_rejects_small_m():
    with pytest.raises(ValueError):
        make_grid(1)
    # a whole float or a bool is not a size either; both basis builders
    # would fail on it later
    for bad in [4.5, 4.0, True]:
        with pytest.raises(ValueError, match="m >= 2"):
            make_grid(bad)
    assert make_grid(np.int64(4)) == make_grid(4)


def test_fourier_first_column_constant():
    b = fourier_basis(make_grid(4))
    assert_array_equal(b.values[:, 0], np.ones(4))


def test_fourier_cos_sin_pair_orthogonal():
    b = fourier_basis(make_grid(4))
    assert abs(np.mean(b.values[:, 1] * b.values[:, 2])) < 1e-14


def test_fourier_even_m_alternating_last_column():
    b = fourier_basis(make_grid(8))
    assert_array_equal(b.values[:, -1], (-1.0) ** np.arange(8))


@pytest.mark.parametrize("m", [16, 64, 256])
def test_fourier_orthonormality(m):
    assert check_orthonormality(fourier_basis(make_grid(m))) < 1e-10


@pytest.mark.parametrize("m", [3, 5, 63])
def test_fourier_orthonormality_odd_m(m):
    assert check_orthonormality(fourier_basis(make_grid(m))) < 1e-10


def test_haar_m2():
    b = haar_basis(make_grid(2))
    assert_array_equal(b.values[:, 0], [1.0, 1.0])
    assert_array_equal(b.values[:, 1], [1.0, -1.0])


def test_haar_m4_mother_wavelet():
    b = haar_basis(make_grid(4))
    assert_array_equal(b.values[:, 1], [1.0, 1.0, -1.0, -1.0])


@pytest.mark.parametrize("m", [2, 3, 12, 16, 24, 64, 100, 256, 1000])
@pytest.mark.parametrize("family", BASIS_FAMILIES)
def test_every_family_builds_orthonormal_on_any_m(family, m):
    b = basis_for(family, make_grid(m))
    assert b.family == family and b.m == m
    assert check_orthonormality(b) < 1e-10
    # every column after the constant is orthogonal to it: zero mean
    assert np.max(np.abs(b.values[:, 1:].mean(axis=0))) < 1e-10


def _dyadic_haar_reference(m):
    # the m = 2^J construction: level l holds 2^l blocks of m / 2^l indices,
    # +2^(l/2) on a block's first half and -2^(l/2) on its second
    cols = [np.ones(m)]
    for l in range(int(np.log2(m))):
        width = m >> l
        for q in range(2**l):
            col = np.zeros(m)
            col[q * width:q * width + width // 2] = 1.0
            col[q * width + width // 2:(q + 1) * width] = -1.0
            cols.append(2.0 ** (l / 2.0) * col)
    return np.column_stack(cols)


@pytest.mark.parametrize("J", range(1, 12))
def test_haar_on_a_dyadic_grid_is_the_balanced_system_bit_for_bit(J):
    values = haar_basis(make_grid(2**J)).values
    assert values.tobytes() == _dyadic_haar_reference(2**J).tobytes()


def test_haar_splits_an_odd_block_first_part_longer():
    # m = 3: the root block splits 2 + 1, then its first part 1 + 1
    b = haar_basis(make_grid(3))
    assert_allclose(b.values[:, 1], [np.sqrt(0.5), np.sqrt(0.5), -np.sqrt(2.0)], rtol=0, atol=1e-15)
    assert_allclose(b.values[:, 2], [np.sqrt(1.5), -np.sqrt(1.5), 0.0], rtol=0, atol=1e-15)


def test_haar_sup_norms_by_level():
    # constant, then level l occupies 2^l columns with sup norm 2^(l/2)
    b = haar_basis(make_grid(16))
    expected = [1.0]
    for l in range(4):
        expected.extend([2.0 ** (l / 2.0)] * 2**l)
    assert_allclose(b.sup_norms, expected, rtol=0, atol=1e-15)
    assert_allclose(np.max(np.abs(b.values), axis=0), b.sup_norms)


def test_fourier_sup_norms_bounded():
    b = fourier_basis(make_grid(64))
    assert np.all(b.sup_norms <= np.sqrt(2.0) + 1e-15)
    assert_allclose(np.max(np.abs(b.values), axis=0), b.sup_norms)


def test_basis_for_builds_named_family_and_rejects_unknown():
    g = make_grid(8)
    assert_array_equal(basis_for("fourier", g).values, fourier_basis(g).values)
    assert_array_equal(basis_for("haar", g).values, haar_basis(g).values)
    # a list cannot be a cache key, so it is rejected before the lookup
    for name in ["fourir", "wavelet", "Haar", "", ["fourier"], None]:
        with pytest.raises(ValueError, match="unknown basis family"):
            basis_for(name, g)


@pytest.mark.parametrize("family", ["fourier", "haar"])
def test_basis_for_cache_hit_is_the_read_only_miss(family):
    grid_basis._cached_basis.cache_clear()
    miss = basis_for(family, make_grid(16))
    hit = basis_for(family, make_grid(16))
    assert hit is miss
    built = {"fourier": fourier_basis, "haar": haar_basis}[family](make_grid(16))
    assert np.array_equal(hit.values, built.values)
    assert not miss.values.flags.writeable and not miss.sup_norms.flags.writeable
    assert grid_basis._cached_basis.cache_info()[:2] == (1, 1)


def test_basis_for_builds_through_the_module_global_once(monkeypatch):
    calls = []

    def counting(grid):
        calls.append(grid.m)
        return fourier_basis(grid)

    monkeypatch.setattr(grid_basis, "fourier_basis", counting)
    grid_basis._cached_basis.cache_clear()
    basis_for("fourier", make_grid(8))
    basis_for("fourier", make_grid(8))
    assert calls == [8]


def test_basis_for_stays_a_plain_public_function():
    # a benchmark tracer wraps only plain functions named in __all__
    assert inspect.isfunction(basis_for) and "basis_for" in grid_basis.__all__


def test_analyze_constant_vector():
    b = fourier_basis(make_grid(16))
    mu = analyze(np.full(16, 3.5), b)
    assert abs(mu[0] - 3.5) < 1e-12
    assert np.max(np.abs(mu[1:])) < 1e-12


def test_analyze_matches_brute_force():
    rng = np.random.default_rng(7)
    b = haar_basis(make_grid(8))
    v = rng.normal(size=8)
    mu = analyze(v, b)
    for k in range(8):
        direct = sum(v[j] * b.values[j, k] for j in range(8)) / 8.0
        assert abs(mu[k] - direct) < 1e-12


def test_synthesize_zero_and_unit():
    b = fourier_basis(make_grid(8))
    assert_array_equal(synthesize(np.zeros(8), b), np.zeros(8))
    e1 = np.zeros(8)
    e1[0] = 1.0
    assert_allclose(synthesize(e1, b), np.ones(8), rtol=0, atol=1e-15)


@pytest.mark.parametrize("family", [fourier_basis, haar_basis])
def test_round_trips(family):
    rng = np.random.default_rng(11)
    b = family(make_grid(32))
    for _ in range(5):
        mu = rng.uniform(-10, 10, 32)
        assert np.max(np.abs(analyze(synthesize(mu, b), b) - mu)) < 1e-9
        v = rng.uniform(-10, 10, 32)
        assert np.max(np.abs(synthesize(analyze(v, b), b) - v)) < 1e-9


def test_length_mismatch_errors():
    b = fourier_basis(make_grid(8))
    with pytest.raises(ValueError):
        analyze(np.zeros(7), b)
    with pytest.raises(ValueError):
        synthesize(np.zeros(9), b)


def test_corrupted_basis_detected():
    b = fourier_basis(make_grid(16))
    vals = b.values.copy()
    vals[3, 5] += 0.5
    corrupted = BasisMatrix(family="fourier", values=vals)
    assert check_orthonormality(corrupted) > 1e-3
    # the grid and sup norms come from the matrix, which must be square
    assert corrupted.grid == b.grid
    assert_array_equal(corrupted.sup_norms, np.max(np.abs(vals), axis=0))
    for bad in (np.ones((4, 3)), np.ones(4)):
        with pytest.raises(ValueError, match="square"):
            BasisMatrix(family="fourier", values=bad)
    for given in ({"grid": b.grid}, {"sup_norms": b.sup_norms}):
        with pytest.raises(TypeError):
            BasisMatrix(family="fourier", values=b.values, **given)


def test_basis_matrices_are_frozen():
    b = fourier_basis(make_grid(8))
    with pytest.raises(ValueError):
        b.values[0, 0] = 2.0
    # a grid's points are computed on each read, so a write changes no basis
    points = b.grid.points
    points[0] = 0.9
    assert_array_equal(b.grid.points, (np.arange(1, 9) - 0.5) / 8)


def test_basis_matrix_rejects_an_unknown_family_and_nonfinite_values():
    for family in ("bogus", "Haar", None):
        with pytest.raises(ValueError, match="unknown basis family"):
            BasisMatrix(family, np.eye(8))
    one_inf = np.eye(8)
    one_inf[2, 5] = np.inf
    for bad in (np.full((8, 8), np.nan), one_inf):
        with pytest.raises(ValueError, match="basis values must be finite"):
            BasisMatrix("fourier", bad)
