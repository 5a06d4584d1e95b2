"""Property tests at random grid sizes, panel sizes and levels.

Examples are derandomized, so every run draws the same cases and a failure
replays as it was seen.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from curveband.bands import BAND_KINDS, COMPETITOR_KINDS, _build_band, _competitor_bands, covers
from curveband.estimator import (
    RULE_MULTIPLIERS,
    Moments,
    fit,
    moments,
    per_curve_coeffs,
    pooled_stats,
    theoretical_levels,
    truncated_target,
)
from curveband.grid_basis import BASIS_FAMILIES, analyze, basis_for, make_grid, synthesize
from curveband.metrics_bench import omega_event_check, oracle_check_thm1, oracle_check_thm2
from curveband.process_sim import CurvePanel, ProcessSpec

SETTINGS = settings(derandomize=True, deadline=None, max_examples=40, database=None)

# every family builds on every m >= 2
FAMILY_AND_M = st.tuples(st.sampled_from(BASIS_FAMILIES), st.integers(2, 200))
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
@given(family_m=FAMILY_AND_M, n=st.integers(2, 60), seed=SEEDS)
def test_the_mean_curve_analyses_to_the_pooled_coefficient_means(family_m, n, seed):
    # analysis is linear, so a competitor band may centre at the mean curve's
    # coefficients in place of the pooled per-curve ones
    family, m = family_m
    rng = np.random.default_rng(seed)
    basis = basis_for(family, make_grid(m))
    Y = rng.normal(scale=rng.uniform(0.1, 100.0), size=m) + rng.normal(size=(n, m))
    pooled = moments(per_curve_coeffs(CurvePanel(Y), basis), 1).mean
    mean = moments(Y, 1).mean
    assert np.max(np.abs(analyze(mean, basis) - pooled)) <= 1e-13 * np.max(np.abs(Y))


@SETTINGS
@given(n=st.integers(2, 60), m=st.integers(1, 80), seed=SEEDS)
def test_curve_moments_are_numpys_mean_and_variance_bit_for_bit(n, m, seed):
    rng = np.random.default_rng(seed)
    Y = rng.normal(scale=rng.uniform(0.1, 100.0), size=m) + rng.normal(size=(n, m))
    _, mean, var = moments(Y, 2)
    assert moments(Y, 0) == (n, None, None)
    np.testing.assert_array_equal(moments(Y, 1).mean, mean)
    assert mean.tobytes() == Y.mean(axis=0).tobytes()
    assert var.tobytes() == Y.var(axis=0, ddof=1).tobytes()


@SETTINGS
@given(family_m=FAMILY_AND_M, n=st.integers(2, 60), alpha=st.floats(1e-4, 0.5),
       delta=st.floats(0.0, 0.2), seed=SEEDS)
def test_proposed_hard1_band_lies_inside_hard3(family_m, n, alpha, delta, seed):
    basis, stats = _random_stats(*family_m, n, alpha, delta, seed)
    narrow = _build_band("proposed_hard1", basis, stats)
    wide = _build_band("proposed_hard3", basis, stats)
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


@SETTINGS
@given(family=st.sampled_from(BASIS_FAMILIES), m=st.sampled_from((2, 8, 16, 64)), n=st.integers(2, 30),
       chunk=st.integers(1, 4), alpha=st.floats(1e-4, 0.5), delta=st.floats(0.0, 0.2), seed=SEEDS)
def test_each_slice_of_a_stacked_call_equals_the_single_replicate_call(family, m, n, chunk, alpha, delta, seed):
    rng = np.random.default_rng(seed)
    basis = basis_for(family, make_grid(m))
    mean = rng.normal(scale=rng.uniform(0.0, 3.0), size=m)
    stack = np.stack([per_curve_coeffs(CurvePanel(mean + rng.normal(size=(n, m))), basis) for _ in range(chunk)])
    stats = pooled_stats(stack, alpha, delta)
    singles = [pooled_stats(pc, alpha, delta) for pc in stack]

    def slice_equal(stacked, single):
        assert stacked.shape == (chunk, *np.shape(single[0]))
        for r in range(chunk):
            assert np.array_equal(stacked[r], single[r])

    for order in (0, 1, 2):
        got, ones = moments(stack, order), [moments(pc, order) for pc in stack]
        assert got.n == n and all(one.n == n for one in ones)
        assert got[1 + order:] == (None,) * (2 - order)
        for name in ("mean", "var")[:order]:
            slice_equal(getattr(got, name), [getattr(one, name) for one in ones])
    for got in (stats, pooled_stats(moments(stack, 2), alpha, delta)):
        for name in ("mu_hat", "s_k", "r_hat", "r_tilde"):
            slice_equal(getattr(got, name), [getattr(s, name) for s in singles])
    assert (stats.n, stats.m) == (singles[0].n, singles[0].m) == (n, m)
    for rule, multipliers in RULE_MULTIPLIERS.items():
        for k in multipliers:
            est = fit(rule, stats, basis, k)
            ones = [fit(rule, s, basis, k) for s in singles]
            for name in ("coeffs", "active", "values"):
                slice_equal(getattr(est, name), [getattr(one, name) for one in ones])
    slice_equal(synthesize(stats.mu_hat, basis), [synthesize(s.mu_hat, basis) for s in singles])
    slice_equal(analyze(stats.mu_hat, basis), [analyze(s.mu_hat, basis) for s in singles])
    levels = rng.uniform(0.0, 2.0 * np.max(np.abs(stats.mu_hat)), m)
    for got, want in zip(truncated_target(stats.mu_hat, levels, basis),
                         zip(*(truncated_target(s.mu_hat, levels, basis) for s in singles))):
        slice_equal(got, want)

    # the first replicate's own spread as the known levels, so omega and the
    # norm bounds can pass on it and fail on the others
    theory = theoretical_levels(singles[0].s_k, 0.0, n, alpha, delta)
    mu_true = singles[0].mu_hat
    process_var = rng.uniform(0.0, 1.0, m)
    target = fit("hard", singles[0], basis).values
    # the competitor bands read the curves' moments: the pooled means stand
    # in for the mean curves, and a stacked V for the sample variance
    process = ProcessSpec(kind="bm")
    curves = Moments(n, stats.mu_hat, np.tile(process_var, (chunk, 1)))
    ones_curves = [Moments(n, s.mu_hat, process_var) for s in singles]

    def every_band(stats, curves):
        built = _competitor_bands(COMPETITOR_KINDS, basis, curves, process, alpha)
        return [built[kind] if kind in built else _build_band(kind, basis, stats) for kind in BAND_KINDS]

    ones = [every_band(s, c) for s, c in zip(singles, ones_curves)]
    for b, band in enumerate(every_band(stats, curves)):
        for name in ("center", "half_width", "lower", "upper"):
            slice_equal(getattr(band, name), [getattr(one[b], name) for one in ones])
        slice_equal(covers(band, target), [covers(one[b], target) for one in ones])
    slice_equal(omega_event_check(stats, theory, mu_true), [omega_event_check(s, theory, mu_true) for s in singles])
    for check in (oracle_check_thm1, oracle_check_thm2):
        got = check(stats, basis, theory, mu_true)
        ones = [check(s, basis, theory, mu_true) for s in singles]
        for j in range(2):
            slice_equal(got[j], [one[j] for one in ones])

    # one replicate keeps its types: bools, a tuple of bools, 1-D arrays
    one = singles[0]
    assert type(covers(_build_band("proposed_hard1", basis, one), target)) is bool
    assert type(omega_event_check(one, theory, mu_true)) is bool
    for check in (oracle_check_thm1, oracle_check_thm2):
        result = check(one, basis, theory, mu_true)
        assert type(result) is tuple and [type(x) for x in result] == [bool, bool]
    assert fit("soft", one, basis).values.shape == one.mu_hat.shape == (m,)
    for band in _competitor_bands(COMPETITOR_KINDS, basis, ones_curves[0], process, alpha).values():
        assert band.center.shape == band.half_width.shape == (m,)
