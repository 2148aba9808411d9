"""Tests for the closed-form predictors and stability diagnostics."""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from gmop import (
    AgentState,
    GaussianMixtureBelief,
    InstabilityError,
    InvalidParameterError,
    ObservationModel,
    PolicyConfig,
    SocialGraph,
    add_influencer_hub,
    asymptotic_mean_cov,
    assign_random_weights,
    build_graph,
    build_system_matrices,
    generate_watts_strogatz,
    load_preset,
    normalize_in_weights,
    predict,
    sigma_fixed_point,
    simulate,
    stability_report,
    stubborn_equilibrium,
    theory,
    verify_covariance_fixed_point,
)
from gmop import analysis
from gmop.analysis import sweep


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def seeded_graph(n: int = 50, seed: int = 7, wseed: int = 9) -> SocialGraph:
    g = assign_random_weights(
        generate_watts_strogatz(n, 3, 0.2, rng(seed)), rng(wseed)
    )
    return normalize_in_weights(g)


def iterate_variance_map(nu: float, sigma_y: float, x0: float = 1.0, steps: int = 10_000):
    x = x0
    for _ in range(steps):
        x = x * sigma_y / (x + sigma_y) + nu
    return x


# ---------------------------------------------------------------------------
# variance fixed point


def test_sigma_fixed_point_zero_inflation():
    for sigma_y in (0.05, 0.1, 1.0, 10.0):
        assert sigma_fixed_point(0.0, sigma_y) == 0.0


def test_sigma_fixed_point_reference_values():
    assert sigma_fixed_point(0.1, 0.1) == pytest.approx(0.161803, abs=1e-6)
    assert sigma_fixed_point(0.1, 0.1) == pytest.approx(
        0.1618033988749895, rel=1e-14
    )
    assert sigma_fixed_point(0.1, 1.0) == pytest.approx(0.370156, abs=1e-6)


@pytest.mark.parametrize("nu", [0.01, 0.1, 1.0])
@pytest.mark.parametrize("sigma_y", [0.1, 1.0, 10.0])
def test_sigma_fixed_point_matches_iteration_oracle(nu, sigma_y):
    si = sigma_fixed_point(nu, sigma_y)
    assert si == pytest.approx(iterate_variance_map(nu, sigma_y), abs=1e-10)


@pytest.mark.parametrize("nu", [0.0, 0.01, 0.1, 1.0])
@pytest.mark.parametrize("sigma_y", [0.1, 1.0, 10.0])
def test_sigma_fixed_point_residual_grid(nu, sigma_y):
    si = sigma_fixed_point(nu, sigma_y)
    residual = abs(si - (si * sigma_y / (si + sigma_y) + nu))
    assert residual <= 1e-12


def test_sigma_fixed_point_rejects_bad_inputs():
    with pytest.raises(InvalidParameterError):
        sigma_fixed_point(-0.1, 1.0)
    with pytest.raises(InvalidParameterError):
        sigma_fixed_point(0.1, 0.0)
    with pytest.raises(InvalidParameterError):
        sigma_fixed_point(0.1, -1.0)


@pytest.mark.parametrize("nu", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("sigma_y", [0.1, 1.0])
def test_variance_map_contraction_rate(nu, sigma_y):
    # The update map's slope never exceeds (sigma_y / (nu + sigma_y))^2 on
    # [nu, inf), which is what makes the fixed point an attractor.
    bound = (sigma_y / (nu + sigma_y)) ** 2
    r = rng(314)
    xs = nu + 100.0 * r.random(1000)
    ys = nu + 100.0 * r.random(1000)

    def gmap(x):
        return x * sigma_y / (x + sigma_y) + nu

    lhs = np.abs(gmap(xs) - gmap(ys))
    rhs = bound * np.abs(xs - ys) + 1e-12
    assert np.all(lhs <= rhs)


# ---------------------------------------------------------------------------
# asymptotic mean and covariance


def test_asymptotic_mean_is_truth_everywhere():
    mean, _ = asymptotic_mean_cov(theta=1.0, sigma_y=0.1, sigma_inf=0.1618, n=50)
    np.testing.assert_array_equal(mean, np.ones(50))


def test_asymptotic_cov_zero_at_zero_sigma_inf():
    _, c = asymptotic_mean_cov(theta=1.0, sigma_y=0.1, sigma_inf=0.0, n=5)
    assert c == 0.0


def test_asymptotic_cov_reference_values():
    si1 = sigma_fixed_point(0.1, 0.1)
    _, c1 = asymptotic_mean_cov(1.0, 0.1, si1, 50)
    assert c1 == pytest.approx(0.1 * si1 / (si1 + 0.2), rel=1e-14)
    assert c1 == pytest.approx(0.044722, abs=1e-6)
    si2 = sigma_fixed_point(0.1, 1.0)
    _, c2 = asymptotic_mean_cov(1.0, 1.0, si2, 50)
    assert c2 == pytest.approx(1.0 * si2 / (si2 + 2.0), rel=1e-14)
    assert c2 == pytest.approx(0.156155, abs=2e-5)


def test_asymptotic_rejects_bad_inputs():
    with pytest.raises(InvalidParameterError):
        asymptotic_mean_cov(math.nan, 0.1, 0.1, 5)
    with pytest.raises(InvalidParameterError):
        asymptotic_mean_cov(1.0, 0.0, 0.1, 5)
    with pytest.raises(InvalidParameterError):
        asymptotic_mean_cov(1.0, 0.1, -0.1, 5)
    with pytest.raises(InvalidParameterError):
        asymptotic_mean_cov(1.0, 0.1, 0.1, 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_operator_inputs_are_rejected(bad):
    g = seeded_graph(n=10)
    for args, name in [
        ((bad, 0.1, 0.1), "delta_mu"), ((0.6, bad, 0.1), "sigma_inf"),
        ((0.6, 0.1, bad), "sigma_y"),
    ]:
        with pytest.raises(InvalidParameterError, match=name):
            build_system_matrices(g, *args)
    with pytest.raises(InvalidParameterError, match="sigma_y"):
        asymptotic_mean_cov(1.0, bad, 0.1, 2)
    with pytest.raises(InvalidParameterError, match="sigma_inf"):
        asymptotic_mean_cov(1.0, 0.1, bad, 2)


def test_covariance_residual_zero_inflation_case():
    g = SocialGraph.from_edges(2, [(1, 2, 0.5), (2, 1, 0.5)])
    mats = build_system_matrices(g, delta_mu=0.6, sigma_inf=0.0, sigma_y=0.1)
    residual = verify_covariance_fixed_point(
        np.zeros((2, 2)), mats.A, mats.B, sigma_y=0.1
    )
    assert residual == 0.0


def test_covariance_residual_two_node_closed_form():
    si = sigma_fixed_point(0.1, 0.1)
    _, c = asymptotic_mean_cov(1.0, 0.1, si, 2)
    g = SocialGraph.from_edges(2, [(1, 2, 0.5), (2, 1, 0.5)])
    mats = build_system_matrices(g, delta_mu=0.6, sigma_inf=si, sigma_y=0.1)
    P = c * np.ones((2, 2))
    assert verify_covariance_fixed_point(P, mats.A, mats.B, 0.1) <= 1e-8


def test_covariance_residual_network_closed_form():
    g = seeded_graph()
    si = sigma_fixed_point(0.1, 0.1)
    _, c = asymptotic_mean_cov(1.0, 0.1, si, g.n)
    mats = build_system_matrices(g, delta_mu=0.6, sigma_inf=si, sigma_y=0.1)
    P = c * np.ones((g.n, g.n))
    assert verify_covariance_fixed_point(P, mats.A, mats.B, 0.1) <= 1e-8


def test_covariance_residual_detects_wrong_matrix():
    si = sigma_fixed_point(0.1, 0.1)
    _, c = asymptotic_mean_cov(1.0, 0.1, si, 2)
    g = SocialGraph.from_edges(2, [(1, 2, 0.5), (2, 1, 0.5)])
    mats = build_system_matrices(g, delta_mu=0.6, sigma_inf=si, sigma_y=0.1)
    P = c * np.ones((2, 2)) + np.diag([0.01, 0.0])
    assert verify_covariance_fixed_point(P, mats.A, mats.B, 0.1) > 1e-4


# ---------------------------------------------------------------------------
# stubborn equilibrium


def test_stubborn_truthful_opinion_recovers_consensus():
    g = seeded_graph()
    si = sigma_fixed_point(0.1, 0.1)
    gamma = stubborn_equilibrium(
        g, 0.6, si, 0.1, stubborn_id=1, mu_dagger=1.0, theta=1.0
    )
    assert gamma.shape == (g.n - 1,)
    np.testing.assert_allclose(gamma, 1.0, atol=1e-10)


def test_stubborn_zero_coupling_cannot_influence():
    g = seeded_graph(n=10)
    si = sigma_fixed_point(0.1, 0.1)
    gamma = stubborn_equilibrium(
        g, 0.0, si, 0.1, stubborn_id=1, mu_dagger=-1.0, theta=1.0
    )
    np.testing.assert_allclose(gamma, 1.0, atol=1e-12)


def test_stubborn_two_node_closed_form():
    g = SocialGraph.from_edges(2, [(1, 2, 1.0)])
    si = sigma_fixed_point(0.1, 0.1)
    s = 0.1 / (si + 0.1)
    delta, theta, mu_dagger = 0.6, 1.0, -1.0
    gamma = stubborn_equilibrium(
        g, delta, si, 0.1, stubborn_id=1, mu_dagger=mu_dagger, theta=theta
    )
    closed = ((1.0 - s) * theta + s * delta * mu_dagger) / (1.0 - s * (1.0 - delta))
    assert gamma.shape == (1,)
    assert gamma[0] == pytest.approx(closed, abs=1e-12)
    assert gamma[0] == pytest.approx(0.45897, abs=2e-5)


def test_stubborn_equilibrium_matches_noise_free_simulation():
    g = seeded_graph(n=10)
    nu, sigma_y, delta, theta, mu_dagger = 0.1, 0.1, 0.6, 1.0, -1.0
    si = sigma_fixed_point(nu, sigma_y)
    stub = 3
    gamma = stubborn_equilibrium(
        g, delta, si, sigma_y, stubborn_id=stub, mu_dagger=mu_dagger, theta=theta
    )
    states = []
    for j in range(g.n):
        stubborn = j + 1 == stub
        mean = mu_dagger if stubborn else 0.5
        states.append(
            AgentState(
                belief=GaussianMixtureBelief.from_arrays([mean], [si], [1.0]),
                stubborn=stubborn,
                stubborn_value=mu_dagger,
            )
        )
    rec = simulate(
        states,
        g,
        PolicyConfig(delta_mu=delta, delta_sigma=0.1, nu=nu, weight_policy="identity"),
        ObservationModel(theta=theta, sigma_y=sigma_y),
        horizon=3000,
        rng=rng(0),
        gain_mode="steady",
        sigma_inf=si,
        noise_free=True,
    )
    final = rec.means[-1, :, 0]
    keep = [j for j in range(g.n) if j + 1 != stub]
    np.testing.assert_allclose(final[keep], gamma, atol=1e-8)
    assert final[stub - 1] == mu_dagger


def test_stubborn_equilibrium_rejects_unstable_block():
    g = SocialGraph.from_edges(2, [(1, 2, 10.0), (2, 1, 10.0)])
    si = sigma_fixed_point(0.1, 0.1)
    with pytest.raises(InstabilityError):
        stubborn_equilibrium(
            g, 0.6, si, 0.1, stubborn_id=1, mu_dagger=-1.0, theta=1.0
        )


def test_stubborn_equilibrium_rejects_bad_node():
    g = seeded_graph(n=5)
    si = sigma_fixed_point(0.1, 0.1)
    with pytest.raises(InvalidParameterError):
        stubborn_equilibrium(g, 0.6, si, 0.1, stubborn_id=0, mu_dagger=0.0, theta=1.0)
    with pytest.raises(InvalidParameterError):
        stubborn_equilibrium(g, 0.6, si, 0.1, stubborn_id=6, mu_dagger=0.0, theta=1.0)


# ---------------------------------------------------------------------------
# centrality


#: (nu, certified): at nu = 0.1 the ||A||_inf certificate scores every node
#: from one inverse; at nu = 0, sigma_scalar = 1 and no bound falls below one,
#: so every node's block is eigensolved and solved on its own.
ROUTES = ((0.1, True), (0.0, False))


def swept_scores(g, nu, certified, mu_dagger=-1.0, delta_mu=0.6):
    """:func:`sweep`'s scores at sigma_y = 0.1, theta = 1, after checking that
    every node is stable and that the sweep took the expected route."""
    with mock.patch.object(
        analysis, "_pinned_solve", wraps=analysis._pinned_solve
    ) as solve:
        score, _, _, stable = sweep(
            g, delta_mu, sigma_fixed_point(nu, 0.1), 0.1, mu_dagger, 1.0
        )
    assert stable.all()
    assert solve.call_count == (0 if certified else g.n)
    return score


def test_centrality_zero_for_truthful_stubborn():
    g = seeded_graph(n=20)
    for nu, certified in ROUTES:
        assert swept_scores(g, nu, certified, mu_dagger=1.0).max() <= 1e-12


def test_centrality_zero_for_node_without_out_edges():
    # Certified only: at nu = 0 nodes 1 and 2 form a closed class, which
    # leaves node 3's block with an exact eigenvalue of one.
    g = SocialGraph.from_edges(3, [(1, 2, 0.5), (2, 1, 0.5), (1, 3, 0.5)])
    assert swept_scores(g, 0.1, certified=True)[2] <= 1e-12


def test_centrality_permutation_equivariance():
    g = seeded_graph(n=8)
    # Relabel the nodes with a fixed permutation: new node i is old perm[i].
    perm = np.array([0, 3, 1, 2, 6, 7, 4, 5])
    relabeled = SocialGraph(n=8, weights=g.weights[np.ix_(perm, perm)])
    for nu, certified in ROUTES:
        direct = swept_scores(g, nu, certified)
        moved = swept_scores(relabeled, nu, certified)
        np.testing.assert_allclose(moved, direct[perm], rtol=0, atol=1e-12)


def test_centrality_hub_beats_lattice_node():
    g = generate_watts_strogatz(50, 3, 0.2, rng(7))
    g = add_influencer_hub(g, 1, 0.5, rng(8))
    g = normalize_in_weights(assign_random_weights(g, rng(9)))
    score = swept_scores(g, 0.1, certified=True)
    assert score[0] > score[24]
    # The S1 graph (hub at node 1) with raw in-weights bounds ||A||_inf
    # above one at delta_mu = 0.2, yet every pinned block is stable.
    net = load_preset("S1").network
    raw = build_graph(replace(net, normalize_in_weights=False))
    score = swept_scores(raw, 0.1, certified=False, delta_mu=0.2)
    assert score[0] > score[24]
    # At nu = 0 nothing injects the truth, so on the connected S1 graph any
    # pinned node drags the whole crowd to mu_dagger: every score is
    # |mu_dagger - theta| = 2, and the hub cannot beat the lattice.
    score = swept_scores(build_graph(net), 0.0, certified=False)
    np.testing.assert_allclose(score, 2.0, rtol=1e-12)


# ---------------------------------------------------------------------------
# stability report and combined prediction


def test_stability_report_on_generated_network():
    g = seeded_graph()
    si = sigma_fixed_point(0.1, 0.1)
    report = stability_report(g, 0.6, si, 0.1)
    assert report.conditions["row_sum_ok"]
    assert report.conditions["spectral_ok"]
    assert not report.conditions["degenerate_gain"]
    assert report.stubborn_spectral_radius is None
    assert report.gate == ("spectral radius", report.spectral_radius)
    # In-weight normalization makes A a scaled stochastic matrix, so the
    # radius equals the scalar gain exactly.
    assert report.spectral_radius == pytest.approx(0.1 / (si + 0.1), rel=1e-9)


def test_stability_report_flags_unstable_system():
    g = SocialGraph.from_edges(2, [(1, 2, 10.0), (2, 1, 10.0)])
    si = sigma_fixed_point(0.1, 0.1)
    report = stability_report(g, 0.6, si, 0.1)
    assert report.spectral_radius >= 1.0
    assert not report.conditions["spectral_ok"]


def test_stability_report_empty_graph():
    g = SocialGraph(n=4, weights=np.zeros((4, 4)))
    si = sigma_fixed_point(0.1, 0.1)
    report = stability_report(g, 0.6, si, 0.1)
    assert report.spectral_radius == pytest.approx(0.1 / (si + 0.1), rel=1e-12)
    assert report.conditions["spectral_ok"]


def test_stability_report_flags_degenerate_gain():
    g = seeded_graph(n=10)
    report = stability_report(g, 0.6, 0.0, 0.1)
    assert report.conditions["degenerate_gain"]


def test_stability_report_stubborn_block():
    g = seeded_graph(n=10)
    si = sigma_fixed_point(0.1, 0.1)
    report = theory(g, 0.6, 0.1, 0.1, 1.0, stubborn_id=1, mu_dagger=-1.0)[0]
    assert report.stubborn_spectral_radius is not None
    assert report.stubborn_spectral_radius < 1.0
    assert report.conditions["stubborn_spectral_ok"]
    assert report.gate == (
        "reduced-system spectral radius", report.stubborn_spectral_radius
    )
    # The rest of the report is the plain stability report.
    assert replace(report, stubborn_spectral_radius=None) == stability_report(
        g, 0.6, si, 0.1
    )
    with pytest.raises(InvalidParameterError):
        theory(g, 0.6, 0.1, 0.1, 1.0, stubborn_id=11, mu_dagger=-1.0)


def test_predict_without_stubborn():
    g = seeded_graph(n=10)
    pred = predict(g, 0.6, nu=0.1, sigma_y=0.1, theta=1.0)
    report, _ = theory(g, 0.6, nu=0.1, sigma_y=0.1, theta=1.0)
    np.testing.assert_array_equal(pred.limit_mean, np.ones(10))
    assert report.sigma_inf == pytest.approx(0.1618033988749895, rel=1e-14)
    assert pred.limit_cov_scalar > 0.0
    assert report.conditions["spectral_ok"]
    assert pred.gamma is None and pred.centrality is None


def test_predict_with_stubborn_places_mu_dagger():
    g = seeded_graph(n=10)
    pred = predict(
        g, 0.6, nu=0.1, sigma_y=0.1, theta=1.0, stubborn_id=3, mu_dagger=-1.0
    )
    assert pred.limit_mean[2] == -1.0
    others = np.delete(pred.limit_mean, 2)
    assert np.all(others > -1.0)
    assert np.all(others < 1.0)  # dragged strictly below the truth
    gamma = stubborn_equilibrium(
        g, 0.6, sigma_fixed_point(0.1, 0.1), 0.1, stubborn_id=3, mu_dagger=-1.0,
        theta=1.0,
    )
    np.testing.assert_array_equal(others, gamma)
    np.testing.assert_array_equal(pred.gamma, gamma)
    assert pred.centrality == float(np.mean(np.abs(gamma - 1.0)))


def test_predict_requires_mu_dagger_with_stubborn():
    g = seeded_graph(n=5)
    with pytest.raises(InvalidParameterError):
        predict(g, 0.6, nu=0.1, sigma_y=0.1, theta=1.0, stubborn_id=2)


def test_theory_reports_without_prediction_when_unstable():
    g = SocialGraph.from_edges(2, [(1, 2, 10.0), (2, 1, 10.0)])
    report, prediction = theory(g, 0.6, nu=0.1, sigma_y=0.1, theta=1.0)
    assert prediction is None
    assert report == stability_report(g, 0.6, sigma_fixed_point(0.1, 0.1), 0.1)


@pytest.mark.parametrize("nu", [0.1, 0.0])
def test_centrality_needs_two_nodes(nu):
    # The crowd j != s of a one-node graph is empty: no score exists.
    g = SocialGraph(n=1, weights=np.zeros((1, 1)))
    si = sigma_fixed_point(nu, 0.1)
    with pytest.raises(InvalidParameterError, match="at least two nodes, got 1"):
        sweep(g, 0.6, si, 0.1, -1.0, 1.0)


def test_predict_one_node_graph_with_its_node_pinned():
    g = SocialGraph(n=1, weights=np.zeros((1, 1)))
    pred = predict(g, 0.6, 0.1, 0.1, 1.0, stubborn_id=1, mu_dagger=-1.0)
    assert pred.limit_mean.tolist() == [-1.0]
    assert pred.gamma.shape == (0,) and pred.centrality is None  # no malleable agent
    si = sigma_fixed_point(0.1, 0.1)
    report = theory(g, 0.6, 0.1, 0.1, 1.0, stubborn_id=1, mu_dagger=-1.0)[0]
    assert report.stubborn_spectral_radius == 0.0
    assert report.conditions["stubborn_spectral_ok"]
    assert replace(report, stubborn_spectral_radius=None) == stability_report(
        g, 0.6, si, 0.1
    )
    gamma = stubborn_equilibrium(g, 0.6, si, 0.1, stubborn_id=1, mu_dagger=-1.0, theta=1.0)
    assert gamma.shape == (0,)
    # At sigma_inf = 0, ||A||_inf = 1 does not certify, so the empty block is
    # eigensolved: its radius is 0 and gamma is empty.
    gamma = stubborn_equilibrium(g, 0.6, 0.0, 0.1, stubborn_id=1, mu_dagger=-1.0, theta=1.0)
    assert gamma.shape == (0,)


@pytest.mark.parametrize("mu_dagger", [math.nan, math.inf, -math.inf])
def test_non_finite_mu_dagger_is_rejected(mu_dagger):
    g = seeded_graph(n=10)
    si = sigma_fixed_point(0.1, 0.1)
    raw = SocialGraph.from_edges(3, [(1, 2, 5.0), (2, 3, 5.0), (3, 1, 5.0)])
    with pytest.raises(InvalidParameterError, match="mu_dagger must be finite"):
        stubborn_equilibrium(g, 0.6, si, 0.1, stubborn_id=2, mu_dagger=mu_dagger,
                             theta=1.0)
    with pytest.raises(InvalidParameterError, match="mu_dagger must be finite"):
        theory(g, 0.6, 0.1, 0.1, 1.0, stubborn_id=2, mu_dagger=mu_dagger)
    for graph in (g, raw):  # certified and uncertified sweeps
        with pytest.raises(InvalidParameterError, match="mu_dagger must be finite"):
            sweep(graph, 0.6, si, 0.1, mu_dagger, 1.0)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_non_finite_theta_is_rejected(theta):
    g = seeded_graph(n=10)
    si = sigma_fixed_point(0.1, 0.1)
    raw = SocialGraph.from_edges(3, [(1, 2, 5.0), (2, 3, 5.0), (3, 1, 5.0)])
    with pytest.raises(InvalidParameterError, match="theta must be finite"):
        stubborn_equilibrium(g, 0.6, si, 0.1, stubborn_id=2, mu_dagger=-1.0,
                             theta=theta)
    with pytest.raises(InvalidParameterError, match="theta must be finite"):
        theory(g, 0.6, 0.1, 0.1, theta, stubborn_id=2, mu_dagger=-1.0)
    for graph in (g, raw):  # certified and uncertified sweeps
        with pytest.raises(InvalidParameterError, match="theta must be finite"):
            sweep(graph, 0.6, si, 0.1, -1.0, theta)
