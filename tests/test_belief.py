"""Tests for mixture beliefs, densities, and the observation update."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmop import (
    Gaussian,
    GaussianMixtureBelief,
    GridError,
    InvalidParameterError,
    ObservationModel,
    bayes_update,
    gaussian_pdf,
    mixture_mean,
    mixture_pdf,
    posterior_oracle,
)
from gmop.belief import _masked_normalize, _normalize_log_weights


def two_mode_belief() -> GaussianMixtureBelief:
    # Modes at -2 and 3; the second mode's spread of 1.5 is stored as the
    # variance 2.25 because mode parameters are (mean, variance, weight).
    return GaussianMixtureBelief.from_arrays([-2.0, 3.0], [1.0, 2.25], [0.3, 0.7])


def normal_density(x: float, mean: float, variance: float) -> float:
    return math.exp(-((x - mean) ** 2) / (2.0 * variance)) / math.sqrt(
        2.0 * math.pi * variance
    )


# ---------------------------------------------------------------------------
# densities


def test_gaussian_pdf_standard_normal_at_zero():
    value = gaussian_pdf(0.0, Gaussian(mean=0.0, variance=1.0))
    assert value == pytest.approx(0.3989422804014327, rel=1e-12)
    assert value == pytest.approx(0.398942, abs=1e-6)


@pytest.mark.parametrize("variance", [0.25, 1.0, 2.25, 7.0])
def test_gaussian_pdf_peak_is_inverse_sqrt_scale(variance):
    peak = gaussian_pdf(1.3, Gaussian(mean=1.3, variance=variance))
    assert peak == pytest.approx(1.0 / math.sqrt(2.0 * math.pi * variance), rel=1e-12)


def test_gaussian_pdf_shift_invariant_at_center():
    # Same height at the mean regardless of where the mean sits.
    assert gaussian_pdf(-2.0, Gaussian(-2.0, 1.0)) == pytest.approx(
        0.398942, abs=1e-6
    )


def test_gaussian_pdf_positive_and_finite():
    g = Gaussian(mean=0.5, variance=0.01)
    for x in np.linspace(-50.0, 50.0, 101):
        value = gaussian_pdf(float(x), g)
        assert value >= 0.0
        assert math.isfinite(value)


def test_gaussian_pdf_integrates_to_one():
    g = Gaussian(mean=-1.0, variance=2.25)
    xs = np.linspace(-1.0 - 12 * 1.5, -1.0 + 12 * 1.5, 200_001)
    total = np.trapezoid([gaussian_pdf(float(x), g) for x in xs], xs)
    assert total == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("variance", [0.0, -1.0, math.nan, math.inf])
def test_gaussian_rejects_non_positive_variance(variance):
    with pytest.raises(InvalidParameterError):
        Gaussian(mean=0.0, variance=variance)


def test_mixture_pdf_single_mode_matches_gaussian():
    b = GaussianMixtureBelief.from_arrays([0.7], [0.4], [1.0])
    g = Gaussian(mean=0.7, variance=0.4)
    for x in np.linspace(-4.0, 4.0, 33):
        assert mixture_pdf(float(x), b) == pytest.approx(
            gaussian_pdf(float(x), g), rel=1e-14
        )


def test_mixture_pdf_two_mode_componentwise():
    b = two_mode_belief()
    expected = 0.3 * normal_density(0.0, -2.0, 1.0) + 0.7 * normal_density(
        0.0, 3.0, 2.25
    )
    assert mixture_pdf(0.0, b) == pytest.approx(expected, rel=1e-14)
    assert mixture_pdf(0.0, b) == pytest.approx(0.04139307432677751, rel=1e-12)


def test_mixture_pdf_dominates_weighted_smallest_component():
    b = two_mode_belief()
    for x in np.linspace(-8.0, 9.0, 69):
        components = [
            normal_density(float(x), m.mean, m.variance) for m in b.modes
        ]
        floor = min(b.weights) * min(components)
        assert mixture_pdf(float(x), b) >= floor


def test_mixture_mean_examples():
    single = GaussianMixtureBelief.from_arrays([2.5], [1.0], [1.0])
    assert mixture_mean(single) == pytest.approx(2.5, abs=0.0)
    assert mixture_mean(two_mode_belief()) == pytest.approx(1.5, rel=1e-14)
    symmetric = GaussianMixtureBelief.from_arrays([-3.0, 3.0], [1.0, 1.0], [0.5, 0.5])
    assert mixture_mean(symmetric) == pytest.approx(0.0, abs=1e-15)


def test_mixture_construction_rejects_bad_weights():
    with pytest.raises(InvalidParameterError):
        GaussianMixtureBelief.from_arrays([0.0, 1.0], [1.0, 1.0], [0.3, 0.6])
    with pytest.raises(InvalidParameterError):
        GaussianMixtureBelief.from_arrays([0.0, 1.0], [1.0, 1.0], [1.2, -0.2])
    with pytest.raises(InvalidParameterError):
        GaussianMixtureBelief.from_arrays([], [], [])


def test_mixture_construction_accepts_tolerated_sum_slack():
    b = GaussianMixtureBelief.from_arrays([0.0, 1.0], [1.0, 1.0], [0.3, 0.7 + 5e-13])
    assert sum(b.weights) == pytest.approx(1.0, abs=1e-12)


def test_mixture_construction_rejects_bad_variances():
    with pytest.raises(InvalidParameterError):
        GaussianMixtureBelief.from_arrays([0.0, 1.0], [1.0, 0.0], [0.5, 0.5])
    with pytest.raises(InvalidParameterError):
        GaussianMixtureBelief.from_arrays([0.0, 1.0], [1.0, -2.0], [0.5, 0.5])


def test_observation_model_rejects_bad_noise():
    with pytest.raises(InvalidParameterError):
        ObservationModel(theta=1.0, sigma_y=0.0)
    with pytest.raises(InvalidParameterError):
        ObservationModel(theta=math.nan, sigma_y=1.0)


# ---------------------------------------------------------------------------
# observation update


def test_bayes_update_conjugate_single_mode():
    prior = GaussianMixtureBelief.from_arrays([0.0], [1.0], [1.0])
    posterior, degenerate = bayes_update(prior, y=2.0, sigma_y=1.0)
    assert not degenerate
    assert posterior.means[0] == pytest.approx(1.0, abs=1e-15)
    assert posterior.variances[0] == pytest.approx(0.5, abs=1e-15)
    assert posterior.weights[0] == pytest.approx(1.0, abs=0.0)


def test_bayes_update_observation_at_mode_mean_leaves_it_fixed():
    prior = two_mode_belief()
    posterior, _ = bayes_update(prior, y=-2.0, sigma_y=0.3)
    assert posterior.means[0] == pytest.approx(-2.0, abs=0.0)
    # The other mode moves toward the observation.
    assert -2.0 < posterior.means[1] < 3.0


def test_bayes_update_weights_use_prior_mode_density_at_y():
    prior = two_mode_belief()
    y = 0.0
    posterior, degenerate = bayes_update(prior, y=y, sigma_y=0.5)
    assert not degenerate
    numerators = [
        w * normal_density(y, m, v)
        for w, m, v in zip(prior.weights, prior.means, prior.variances)
    ]
    expected = np.array(numerators) / sum(numerators)
    np.testing.assert_allclose(posterior.weights, expected, rtol=1e-12)
    # The weight step ignores sigma_y entirely: only the gains change.
    alt, _ = bayes_update(prior, y=y, sigma_y=5.0)
    np.testing.assert_allclose(alt.weights, posterior.weights, rtol=1e-12)


def test_bayes_update_mode_count_and_simplex_preserved():
    prior = two_mode_belief()
    posterior, _ = bayes_update(prior, y=1.2, sigma_y=0.1)
    assert posterior.n_modes == prior.n_modes
    assert abs(sum(posterior.weights) - 1.0) <= 1e-12


@pytest.mark.parametrize("sigma_y", [0.01, 0.1, 1.0, 25.0])
def test_bayes_update_contracts_every_variance(sigma_y):
    prior = two_mode_belief()
    posterior, _ = bayes_update(prior, y=0.4, sigma_y=sigma_y)
    for before, after in zip(prior.variances, posterior.variances):
        assert after < before


def test_bayes_update_far_observation_degenerates_to_uniform():
    prior = GaussianMixtureBelief.from_arrays(
        [0.0, 1.0], [1e-3, 1e-3], [0.5, 0.5]
    )
    with np.errstate(over="ignore"):
        posterior, degenerate = bayes_update(prior, y=1e200, sigma_y=1.0)
    assert degenerate
    np.testing.assert_allclose(posterior.weights, [0.5, 0.5], atol=0.0)


def test_bayes_update_one_mode_may_underflow_to_zero():
    # One mode 60 sigma away underflows alone; the survivor takes all mass.
    prior = GaussianMixtureBelief.from_arrays([0.0, 60.0], [1.0, 1.0], [0.5, 0.5])
    posterior, degenerate = bayes_update(prior, y=0.0, sigma_y=1.0)
    assert not degenerate
    assert posterior.weights[0] == pytest.approx(1.0, abs=0.0)
    assert posterior.weights[1] == pytest.approx(0.0, abs=0.0)


def test_bayes_update_rejects_bad_inputs():
    prior = two_mode_belief()
    with pytest.raises(InvalidParameterError):
        bayes_update(prior, y=0.0, sigma_y=0.0)
    with pytest.raises(InvalidParameterError):
        bayes_update(prior, y=math.inf, sigma_y=1.0)


# ---------------------------------------------------------------------------
# quadrature oracle


def test_oracle_conjugate_moments_match_closed_form():
    prior = GaussianMixtureBelief.from_arrays([0.0], [1.0], [1.0])
    grid = posterior_oracle(prior, y=2.0, sigma_y=1.0)
    assert grid.mean() == pytest.approx(1.0, abs=1e-6)
    assert grid.variance() == pytest.approx(0.5, abs=1e-6)
    assert grid.mode_mass(0) == pytest.approx(1.0, abs=1e-12)


def test_oracle_density_normalized():
    grid = posterior_oracle(two_mode_belief(), y=0.5, sigma_y=0.5)
    total = np.trapezoid(grid.density, grid.xs)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_oracle_two_mode_masses_match_update_weights():
    prior = two_mode_belief()
    y, sigma_y = 0.0, 0.5
    posterior, _ = bayes_update(prior, y=y, sigma_y=sigma_y)
    grid = posterior_oracle(prior, y=y, sigma_y=sigma_y)
    for j in range(prior.n_modes):
        assert grid.mode_mass(j) == pytest.approx(posterior.weights[j], abs=1e-6)
        assert grid.mode_mean(j) == pytest.approx(posterior.means[j], abs=1e-6)
        assert grid.mode_variance(j) == pytest.approx(
            posterior.variances[j], abs=1e-6
        )


def test_oracle_zero_weight_mode_has_zero_mass():
    prior = GaussianMixtureBelief.from_arrays([0.0, 4.0], [1.0, 1.0], [1.0, 0.0])
    grid = posterior_oracle(prior, y=1.0, sigma_y=1.0)
    assert grid.mode_mass(1) == 0.0
    assert math.isnan(grid.mode_mean(1))
    assert grid.mode_mass(0) == pytest.approx(1.0, abs=1e-12)


def test_oracle_rejects_coarse_grid():
    with pytest.raises(GridError):
        posterior_oracle(two_mode_belief(), y=0.0, sigma_y=1.0, n=5000)


def test_oracle_rejects_narrow_grid():
    with pytest.raises(GridError):
        posterior_oracle(two_mode_belief(), y=0.0, sigma_y=1.0, lo=-4.0, hi=4.0)


def test_oracle_rejects_bad_sigma_y():
    with pytest.raises(InvalidParameterError):
        posterior_oracle(two_mode_belief(), y=0.0, sigma_y=-1.0)


# ---------------------------------------------------------------------------
# randomized properties

mixtures = st.integers(min_value=1, max_value=4).flatmap(
    lambda m: st.tuples(
        st.lists(
            st.floats(min_value=-5.0, max_value=5.0), min_size=m, max_size=m
        ),
        st.lists(
            st.floats(min_value=0.1, max_value=5.0), min_size=m, max_size=m
        ),
        st.lists(
            st.floats(min_value=0.05, max_value=1.0), min_size=m, max_size=m
        ),
    )
)


def build_mixture(raw) -> GaussianMixtureBelief:
    means, variances, raw_weights = raw
    weights = np.array(raw_weights) / sum(raw_weights)
    return GaussianMixtureBelief.from_arrays(means, variances, weights)


@settings(max_examples=200, deadline=None)
@given(
    raw=mixtures,
    y=st.floats(min_value=-5.0, max_value=5.0),
    sigma_y=st.floats(min_value=0.1, max_value=5.0),
)
def test_property_update_closure(raw, y, sigma_y):
    prior = build_mixture(raw)
    posterior, _ = bayes_update(prior, y=y, sigma_y=sigma_y)
    assert posterior.n_modes == prior.n_modes
    assert abs(sum(posterior.weights) - 1.0) <= 1e-12
    for before, after in zip(prior.variances, posterior.variances):
        assert 0.0 < after < before


@settings(max_examples=100, deadline=None)
@given(
    raw=mixtures,
    y=st.floats(min_value=-5.0, max_value=5.0),
    sigma_y=st.floats(min_value=0.1, max_value=5.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_update_order_invariant(raw, y, sigma_y, seed):
    prior = build_mixture(raw)
    perm = np.random.default_rng(seed).permutation(prior.n_modes)
    shuffled = GaussianMixtureBelief.from_arrays(
        np.array(prior.means)[perm],
        np.array(prior.variances)[perm],
        np.array(prior.weights)[perm],
    )
    direct, _ = bayes_update(prior, y=y, sigma_y=sigma_y)
    permuted, _ = bayes_update(shuffled, y=y, sigma_y=sigma_y)
    np.testing.assert_allclose(
        np.array(permuted.means), np.array(direct.means)[perm], rtol=0, atol=1e-14
    )
    np.testing.assert_allclose(
        np.array(permuted.variances),
        np.array(direct.variances)[perm],
        rtol=0,
        atol=1e-14,
    )
    np.testing.assert_allclose(
        np.array(permuted.weights), np.array(direct.weights)[perm], rtol=0, atol=1e-13
    )


@settings(max_examples=50, deadline=None)
@given(raw=mixtures, x=st.floats(min_value=-10.0, max_value=10.0))
def test_property_mixture_pdf_componentwise(raw, x):
    b = build_mixture(raw)
    expected = sum(
        w * normal_density(x, m, v)
        for w, m, v in zip(b.weights, b.means, b.variances)
    )
    assert mixture_pdf(x, b) == pytest.approx(expected, rel=1e-12, abs=1e-300)


# ---------------------------------------------------------------------------
# log-weight normalization


@settings(max_examples=200)
@given(
    rows=st.integers(min_value=1, max_value=20),
    modes=st.integers(min_value=1, max_value=5),
    scale=st.floats(min_value=1e-3, max_value=1e3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_normalize_matches_masked_path_on_finite_rows(
    rows, modes, scale, seed
):
    log_w = scale * np.random.default_rng(seed).standard_normal((rows, modes))
    weights, degenerate = _normalize_log_weights(log_w)
    masked, masked_degenerate = _masked_normalize(
        log_w, np.max(log_w, axis=1, keepdims=True)
    )
    assert degenerate == masked_degenerate == 0
    np.testing.assert_array_equal(weights, masked)
    single, _ = _normalize_log_weights(log_w[0])
    np.testing.assert_array_equal(single, masked[0])


@settings(max_examples=200)
@given(
    rows=st.integers(min_value=1, max_value=20),
    modes=st.integers(min_value=1, max_value=5),
    scale=st.floats(min_value=1e-3, max_value=1e3),
    dead=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_normalize_into_out_matches_allocating_call(
    rows, modes, scale, dead, seed
):
    # dead > 0 sends some rows (dead = 1: every row) to all -inf, so the
    # masked path runs; single -inf entries stay on either path.
    r = np.random.default_rng(seed)
    log_w = scale * r.standard_normal((rows, modes))
    log_w[r.random((rows, modes)) < 0.2] = -np.inf
    log_w[r.random(rows) < dead] = -np.inf
    want, want_degenerate = _normalize_log_weights(log_w)
    buf = np.full_like(log_w, np.nan)
    got, degenerate = _normalize_log_weights(log_w, out=buf)
    assert got is buf
    assert degenerate == want_degenerate
    np.testing.assert_array_equal(buf, want)
    in_place = log_w.copy()
    _, degenerate = _normalize_log_weights(in_place, out=in_place)
    assert degenerate == want_degenerate
    np.testing.assert_array_equal(in_place, want)
    row = np.full(modes, np.nan)
    single, degenerate = _normalize_log_weights(log_w[0], out=row)
    assert single is row
    assert degenerate == (not np.isfinite(log_w[0]).any())
    np.testing.assert_array_equal(row, want[0])


def test_normalize_all_minus_inf_rows_fall_back_to_uniform():
    log_w = np.array([[0.0, -1.0, -np.inf], [-np.inf] * 3, [2.0, 2.0, 2.0]])
    weights, degenerate = _normalize_log_weights(log_w)
    assert degenerate == 1
    np.testing.assert_array_equal(weights[1], np.full(3, 1.0 / 3.0))
    finite, _ = _normalize_log_weights(log_w[[0, 2]])
    np.testing.assert_array_equal(weights[[0, 2]], finite)
    single, count = _normalize_log_weights(np.full(2, -np.inf))
    assert count == 1
    np.testing.assert_array_equal(single, [0.5, 0.5])
