"""Property tests at random grid sizes, panel sizes and levels.

Examples are derandomized, so every run draws the same cases and a failure
replays as it was seen.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from curveband.bands import _build_band
from curveband.estimator import fit, per_curve_coeffs, pooled_stats
from curveband.grid_basis import BASIS_FAMILIES, analyze, basis_for, make_grid, synthesize
from curveband.process_sim import CurvePanel

SETTINGS = settings(derandomize=True, deadline=None, max_examples=40, database=None)

# haar needs m a power of two; fourier takes any m >= 2
GRID_SIZES = {"fourier": st.integers(2, 200), "haar": st.integers(1, 8).map(lambda j: 2**j)}
FAMILY_AND_M = st.sampled_from(BASIS_FAMILIES).flatmap(lambda fam: st.tuples(st.just(fam), GRID_SIZES[fam]))
SEEDS = st.integers(0, 2**32 - 1)


def _random_stats(family, m, n, alpha, delta, seed):
    rng = np.random.default_rng(seed)
    basis = basis_for(family, make_grid(m))
    mean = rng.normal(scale=rng.uniform(0.0, 3.0), size=m)
    panel = CurvePanel(Y=mean + rng.normal(size=(n, m)))
    return basis, pooled_stats(per_curve_coeffs(panel, basis), alpha, delta)


@SETTINGS
@given(family_m=FAMILY_AND_M, seed=SEEDS)
def test_analyze_synthesize_round_trip(family_m, seed):
    family, m = family_m
    basis = basis_for(family, make_grid(m))
    rng = np.random.default_rng(seed)
    mu = rng.uniform(-10, 10, m)
    assert np.max(np.abs(analyze(synthesize(mu, basis), basis) - mu)) < 1e-9
    v = rng.uniform(-10, 10, m)
    assert np.max(np.abs(synthesize(analyze(v, basis), basis) - v)) < 1e-9


@SETTINGS
@given(family_m=FAMILY_AND_M, n=st.integers(2, 60), alpha=st.floats(1e-4, 0.5),
       delta=st.floats(0.0, 0.2), seed=SEEDS)
def test_proposed_hard1_band_lies_inside_hard3(family_m, n, alpha, delta, seed):
    basis, stats = _random_stats(*family_m, n, alpha, delta, seed)
    narrow = _build_band("proposed_hard1", basis, stats, None)
    wide = _build_band("proposed_hard3", basis, stats, None)
    assert np.all(wide.lower <= narrow.lower)
    assert np.all(narrow.upper <= wide.upper)


@SETTINGS
@given(family_m=FAMILY_AND_M, n=st.integers(2, 60), alpha=st.floats(1e-4, 0.5),
       multiplier=st.sampled_from((1, 2)), seed=SEEDS)
def test_hard_and_soft_keep_the_same_coefficients(family_m, n, alpha, multiplier, seed):
    basis, stats = _random_stats(*family_m, n, alpha, 0.0, seed)
    hard = fit("hard", stats, basis, multiplier)
    soft = fit("soft", stats, basis, multiplier)
    np.testing.assert_array_equal(hard.active, soft.active)
    # soft shrinks every kept coefficient toward zero without changing its sign
    assert np.all(np.abs(soft.coeffs) <= np.abs(hard.coeffs))
    assert np.all(soft.coeffs * hard.coeffs >= 0.0)
