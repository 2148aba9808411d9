"""Tests for the step engine, social mixing policies, and trajectories."""

import hashlib
import itertools
import logging

import numpy as np
import pytest
from scipy import sparse

from gmop import (
    AgentState,
    GaussianMixtureBelief,
    InvalidParameterError,
    ObservationModel,
    PolicyConfig,
    SocialGraph,
    TrajectoryRecord,
    bayes_update,
    build_system_matrices,
    draw_observation,
    assign_random_weights,
    generate_watts_strogatz,
    normalize_in_weights,
    sigma_fixed_point,
    simulate,
    step,
)
from gmop.belief import (
    _bayes_arrays_exact,
    _bayes_arrays_steady,
    _normalize_log_weights,
)
from gmop.dynamics import GEOMETRIC_WEIGHT_FLOOR, VARIANCE_FLOOR


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def two_node_graph(w: float = 1.0) -> SocialGraph:
    return SocialGraph.from_edges(2, [(1, 2, w), (2, 1, w)])


def ring_graph(n: int) -> SocialGraph:
    return SocialGraph.from_edges(n, [(j + 1, (j + 1) % n + 1, 0.5) for j in range(n)])


def empty_graph(n: int) -> SocialGraph:
    return SocialGraph(n=n, weights=np.zeros((n, n)))


def plain_policy(**overrides) -> PolicyConfig:
    base = dict(delta_mu=0.6, delta_sigma=0.1, nu=0.1, weight_policy="identity")
    base.update(overrides)
    return PolicyConfig(**base)


def uniform_states(means_rows, variance=1.0) -> list[AgentState]:
    states = []
    for row in means_rows:
        row = np.atleast_1d(np.asarray(row, dtype=float))
        m = row.size
        belief = GaussianMixtureBelief.from_arrays(
            row, np.full(m, variance), np.full(m, 1.0 / m)
        )
        states.append(AgentState(belief=belief, stubborn=False, stubborn_value=0.0))
    return states


# ---------------------------------------------------------------------------
# observation draws


def test_draw_observation_degenerate_noise_hugs_theta():
    obs = ObservationModel(theta=2.0, sigma_y=1e-12)
    r = rng(1003)
    draws = np.array([draw_observation(obs, r) for _ in range(1000)])
    assert np.max(np.abs(draws - 2.0)) < 1e-5


def test_draw_observation_sample_mean():
    obs = ObservationModel(theta=1.0, sigma_y=0.1)
    r = rng(1001)
    draws = np.array([draw_observation(obs, r) for _ in range(100_000)])
    assert draws.mean() == pytest.approx(1.0, abs=0.004)


def test_draw_observation_sample_variance():
    obs = ObservationModel(theta=0.0, sigma_y=1.0)
    r = rng(1002)
    draws = np.array([draw_observation(obs, r) for _ in range(100_000)])
    assert draws.var(ddof=1) == pytest.approx(1.0, abs=0.015)


# ---------------------------------------------------------------------------
# social mixing, observed through the engine
#
# With steady gain at sigma_inf = 0 the Bayesian stage leaves means untouched
# (gain 0), so one step on means is pure social mixing. Elsewhere the
# post-Bayes values come from bayes_update, the per-agent oracle.


def mixed_means(means_rows, g, delta_mu=0.6) -> np.ndarray:
    rec = simulate(
        uniform_states(means_rows),
        g,
        plain_policy(delta_mu=delta_mu),
        ObservationModel(theta=1.0, sigma_y=0.1),
        horizon=1,
        rng=rng(0),
        gain_mode="steady",
        sigma_inf=0.0,
        noise_free=True,
    )
    return rec.means[0]


def one_exact_step(states, g, policy, obs=ObservationModel(theta=1.0, sigma_y=0.1)):
    """One noise-free exact-gain step; returns (record, post-Bayes beliefs)."""
    rec = simulate(states, g, policy, obs, horizon=1, rng=rng(0), noise_free=True)
    post = [bayes_update(s.belief, obs.theta, obs.sigma_y)[0] for s in states]
    return rec, post


def weighted_states(weight_rows, means=(0.0, 2.0)) -> list[AgentState]:
    return [
        AgentState(
            belief=GaussianMixtureBelief.from_arrays(means, [1.0] * len(means), w)
        )
        for w in weight_rows
    ]


def test_social_means_consensus_is_fixed_point():
    out = mixed_means([[1.3], [1.3]], two_node_graph(0.7))
    np.testing.assert_allclose(out[:, 0], [1.3, 1.3], atol=1e-15)


def test_social_means_hand_example():
    out = mixed_means([[0.0], [1.0]], two_node_graph(1.0))
    np.testing.assert_allclose(out[:, 0], [0.6, 0.4], atol=1e-15)


def test_social_means_modes_mix_independently():
    g = two_node_graph(1.0)
    out = mixed_means([[0.0, 5.0], [1.0, 7.0]], g)
    col0 = mixed_means([[0.0], [1.0]], g)
    col1 = mixed_means([[5.0], [7.0]], g)
    np.testing.assert_array_equal(out[:, :1], col0)
    np.testing.assert_array_equal(out[:, 1:], col1)


def test_social_means_only_in_neighbors_count():
    g = SocialGraph.from_edges(2, [(1, 2, 1.0)])  # 1 influences 2, not back
    out = mixed_means([[0.0], [1.0]], g, delta_mu=0.5)
    np.testing.assert_allclose(out[:, 0], [0.0, 0.5], atol=1e-15)


def consensus_variances(nu: float) -> tuple[np.ndarray, float]:
    rec, post = one_exact_step(
        uniform_states([[0.5], [0.5]], variance=2.0),
        two_node_graph(0.4),
        plain_policy(delta_sigma=0.1, nu=nu),
    )
    return rec.variances[0, :, 0], post[0].variances[0]


def test_social_variances_consensus_gains_nu():
    out, post = consensus_variances(nu=0.1)
    np.testing.assert_allclose(out, [post + 0.1] * 2, atol=1e-15)


def test_social_variances_consensus_zero_nu_unchanged():
    out, post = consensus_variances(nu=0.0)
    np.testing.assert_allclose(out, [post] * 2, atol=1e-15)


def test_social_variances_hand_example():
    states = uniform_states([[0.5], [0.5]], variance=1.0)
    states[1] = uniform_states([[0.5]], variance=2.0)[0]
    rec, post = one_exact_step(
        states, two_node_graph(1.0), plain_policy(delta_sigma=0.1, nu=0.1)
    )
    v1, v2 = post[0].variances[0], post[1].variances[0]
    expected = [v1 + 0.1 * (v2 - v1) + 0.1, v2 + 0.1 * (v1 - v2) + 0.1]
    np.testing.assert_allclose(rec.variances[0, :, 0], expected, atol=1e-15)


def test_social_variances_clamp_logged(caplog):
    states = uniform_states([[0.5], [0.5]], variance=0.001)
    states[1] = uniform_states([[0.5]], variance=10.0)[0]
    with caplog.at_level(logging.WARNING, logger="gmop.dynamics"):
        rec, _ = one_exact_step(
            states,
            two_node_graph(1.0),
            plain_policy(delta_sigma=5.0, nu=0.0),
            ObservationModel(theta=1.0, sigma_y=10.0),
        )
    assert rec.variances[0, 1, 0] == VARIANCE_FLOOR
    assert np.all(rec.variances > 0.0)
    assert any("1 variance clamps" in r.getMessage() for r in caplog.records)


# ---------------------------------------------------------------------------
# social mixing: weights


def test_weight_identity_policy_returns_input():
    states = weighted_states([[0.3, 0.7], [0.9, 0.1]])
    rec, post = one_exact_step(states, two_node_graph(1.0), plain_policy())
    np.testing.assert_array_equal(rec.weights[0], [b.weights for b in post])


def test_weight_geometric_shared_vector_is_fixed_point():
    states = weighted_states([[0.3, 0.7], [0.3, 0.7]])
    rec, post = one_exact_step(
        states, two_node_graph(0.8), plain_policy(weight_policy="geometric")
    )
    np.testing.assert_allclose(rec.weights[0], [post[0].weights] * 2, atol=1e-15)


def test_weight_geometric_hand_example():
    # Single edge 1 -> 2 with weight 1: agent 2 copies agent 1's ratios.
    g = SocialGraph.from_edges(2, [(1, 2, 1.0)])
    states = weighted_states([[0.5, 0.5], [0.9, 0.1]])
    rec, post = one_exact_step(states, g, plain_policy(weight_policy="geometric"))
    np.testing.assert_allclose(rec.weights[0, 1], post[0].weights, atol=1e-12)
    np.testing.assert_allclose(rec.weights[0, 0], post[0].weights, atol=1e-15)


def test_weight_geometric_survives_exact_zero():
    states = weighted_states([[1.0, 0.0], [0.5, 0.5]])
    rec, post = one_exact_step(
        states, two_node_graph(1.0), plain_policy(weight_policy="geometric")
    )
    assert post[0].weights[1] == 0.0
    np.testing.assert_allclose(rec.weights[0].sum(axis=1), [1.0, 1.0], atol=1e-12)
    assert np.all(rec.weights[0] >= 0.0)


def test_policy_config_validation():
    with pytest.raises(InvalidParameterError):
        plain_policy(delta_mu=0.0)
    with pytest.raises(InvalidParameterError):
        plain_policy(nu=-0.1)
    with pytest.raises(InvalidParameterError):
        plain_policy(delta_sigma=-0.1)
    with pytest.raises(InvalidParameterError):
        plain_policy(weight_policy="other")


# ---------------------------------------------------------------------------
# single step


def test_step_empty_graph_reduces_to_per_agent_filtering():
    g = empty_graph(3)
    states = uniform_states([[0.0, 2.0], [1.0, -1.0], [0.5, 0.5]])
    policy = plain_policy(nu=0.0, delta_sigma=0.0)
    obs = ObservationModel(theta=1.0, sigma_y=0.5)
    new_states, y = step(states, g, policy, obs, rng(42))
    for before, after in zip(states, new_states):
        expected, _ = bayes_update(before.belief, y, 0.5)
        np.testing.assert_allclose(after.belief.means, expected.means, atol=1e-15)
        np.testing.assert_allclose(
            after.belief.variances, expected.variances, atol=1e-15
        )
        np.testing.assert_allclose(
            after.belief.weights, expected.weights, atol=1e-15
        )


def test_step_stubborn_means_pinned():
    g = two_node_graph(1.0)
    states = uniform_states([[0.4, -0.6], [1.0, 0.0]])
    states[0] = AgentState(
        belief=states[0].belief, stubborn=True, stubborn_value=-1.0
    )
    new_states, _ = step(
        states, g, plain_policy(), ObservationModel(theta=1.0, sigma_y=0.1), rng(5)
    )
    assert new_states[0].belief.means == (-1.0, -1.0)
    assert new_states[0].stubborn
    # Stubbornness pins means only; variances still move.
    assert new_states[0].belief.variances != states[0].belief.variances


def test_step_matches_linear_system_in_steady_mode():
    g = two_node_graph(0.5)
    theta, sigma_y, nu, delta_mu = 1.0, 0.1, 0.1, 0.6
    si = sigma_fixed_point(nu, sigma_y)
    mu0 = np.array([0.3, -0.8])
    states = uniform_states([[m] for m in mu0], variance=si)
    new_states, y = step(
        states,
        g,
        plain_policy(delta_mu=delta_mu, nu=nu),
        ObservationModel(theta=theta, sigma_y=sigma_y),
        rng(0),
        gain_mode="steady",
        sigma_inf=si,
        noise_free=True,
    )
    assert y == theta
    mats = build_system_matrices(g, delta_mu, si, sigma_y)
    expected = mats.A @ mu0 + mats.B @ np.full(2, theta)
    got = np.array([s.belief.means[0] for s in new_states])
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_step_freezes_variances_at_sigma_inf_in_steady_mode():
    si = sigma_fixed_point(0.1, 0.1)
    new_states, _ = step(
        uniform_states([[0.3, 0.5], [-0.8, 0.1]], variance=1.0),
        two_node_graph(0.5),
        plain_policy(),
        ObservationModel(theta=1.0, sigma_y=0.1),
        rng(0),
        gain_mode="steady",
        sigma_inf=si,
    )
    for s in new_states:
        assert s.belief.variances == (si, si)


def test_step_rejects_state_count_mismatch():
    with pytest.raises(InvalidParameterError):
        step(
            uniform_states([[0.0]]),
            two_node_graph(),
            plain_policy(),
            ObservationModel(theta=1.0, sigma_y=0.1),
            rng(0),
        )


# ---------------------------------------------------------------------------
# full runs


def test_simulate_single_step_shapes():
    g = two_node_graph(0.5)
    rec = simulate(
        uniform_states([[0.0, 1.0], [1.0, 0.0]]),
        g,
        plain_policy(),
        ObservationModel(theta=1.0, sigma_y=0.1),
        horizon=1,
        rng=rng(1),
    )
    assert rec.n_steps == 1
    assert rec.n_agents == 2
    assert rec.n_modes == 2
    assert rec.observations.shape == (1,)
    assert rec.observation_for(1, 1) == rec.observation_for(1, 2)


def test_simulate_rejects_zero_horizon():
    with pytest.raises(InvalidParameterError):
        simulate(
            uniform_states([[0.0], [1.0]]),
            two_node_graph(),
            plain_policy(),
            ObservationModel(theta=1.0, sigma_y=0.1),
            horizon=0,
            rng=rng(1),
        )


def test_simulate_rejects_bad_gain_settings():
    args = (
        uniform_states([[0.0], [1.0]]),
        two_node_graph(),
        plain_policy(),
        ObservationModel(theta=1.0, sigma_y=0.1),
    )
    for kwargs in (
        dict(gain_mode="other"),
        dict(gain_mode="steady"),
        dict(gain_mode="steady", sigma_inf=-0.1),
    ):
        with pytest.raises(InvalidParameterError):
            simulate(*args, horizon=1, rng=rng(1), **kwargs)


def test_simulate_identical_seeds_identical_records():
    g = two_node_graph(0.5)

    def run():
        return simulate(
            uniform_states([[0.0, 1.0], [1.0, 0.0]]),
            g,
            plain_policy(),
            ObservationModel(theta=1.0, sigma_y=0.1),
            horizon=50,
            rng=rng(77),
        )

    a, b = run(), run()
    np.testing.assert_array_equal(a.means, b.means)
    np.testing.assert_array_equal(a.variances, b.variances)
    np.testing.assert_array_equal(a.weights, b.weights)
    np.testing.assert_array_equal(a.observations, b.observations)


def test_simulate_mode_permutation_equivariance():
    g = two_node_graph(0.5)
    obs = ObservationModel(theta=1.0, sigma_y=0.1)
    rows = [[0.2, -0.7], [0.9, 0.1]]
    direct = simulate(
        uniform_states(rows), g, plain_policy(), obs, horizon=30, rng=rng(3)
    )
    swapped = simulate(
        uniform_states([r[::-1] for r in rows]),
        g,
        plain_policy(),
        obs,
        horizon=30,
        rng=rng(3),
    )
    np.testing.assert_allclose(swapped.means, direct.means[:, :, ::-1], atol=0.0)
    np.testing.assert_allclose(
        swapped.variances, direct.variances[:, :, ::-1], atol=0.0
    )


def test_simulate_simplex_holds_under_both_policies():
    g = two_node_graph(0.5)
    obs = ObservationModel(theta=1.0, sigma_y=0.1)
    for policy_name in ("identity", "geometric"):
        rec = simulate(
            uniform_states([[0.2, -0.7], [0.9, 0.1]]),
            g,
            plain_policy(weight_policy=policy_name),
            obs,
            horizon=200,
            rng=rng(4),
        )
        sums = rec.weights.sum(axis=2)
        assert np.max(np.abs(sums - 1.0)) <= 1e-10
        rec.validate()


def test_simulate_stubborn_means_pinned_every_step():
    g = two_node_graph(0.5)
    states = uniform_states([[0.4, -0.6], [1.0, 0.0]])
    states[0] = AgentState(
        belief=states[0].belief, stubborn=True, stubborn_value=-1.0
    )
    rec = simulate(
        states,
        g,
        plain_policy(),
        ObservationModel(theta=1.0, sigma_y=0.1),
        horizon=100,
        rng=rng(6),
    )
    np.testing.assert_array_equal(rec.means[:, 0, :], -1.0)


def test_simulate_counts_variance_clamps(caplog):
    g = two_node_graph(1.0)
    # Hugely unequal spreads plus an aggressive mixing rate drive the wide
    # agent's variance negative before the clamp.
    states = [
        AgentState(
            belief=GaussianMixtureBelief.from_arrays([0.0], [1e-4], [1.0]),
            stubborn=False,
            stubborn_value=0.0,
        ),
        AgentState(
            belief=GaussianMixtureBelief.from_arrays([1.0], [10.0], [1.0]),
            stubborn=False,
            stubborn_value=0.0,
        ),
    ]
    with caplog.at_level(logging.WARNING, logger="gmop.dynamics"):
        rec = simulate(
            states,
            g,
            plain_policy(delta_sigma=5.0, nu=0.0),
            ObservationModel(theta=1.0, sigma_y=10.0),
            horizon=5,
            rng=rng(8),
        )
    clamps = rec.stats.variance_clamps
    assert clamps > 0
    warnings = [r for r in caplog.records if r.name == "gmop.dynamics"]
    assert len(warnings) == 1
    assert f"{clamps} variance clamps" in warnings[0].getMessage()


def test_simulate_independent_observations_shape():
    g = two_node_graph(0.5)
    rec = simulate(
        uniform_states([[0.0], [1.0]]),
        g,
        plain_policy(),
        ObservationModel(theta=1.0, sigma_y=0.1),
        horizon=7,
        rng=rng(9),
        observation="independent",
    )
    assert rec.observations.shape == (7, 2)
    assert rec.observation_for(1, 1) != rec.observation_for(1, 2)


def test_simulate_step_is_bayes_update_then_mixing():
    g = two_node_graph(0.5)
    sigma_y, r_mu, r_sigma, nu = 0.1, 0.6 * 0.5, 0.1 * 0.5, 0.1
    states = uniform_states([[0.0], [1.0]])
    rec = simulate(
        states,
        g,
        plain_policy(),
        ObservationModel(theta=1.0, sigma_y=sigma_y),
        horizon=3,
        rng=rng(10),
    )
    beliefs = [s.belief for s in states]
    for k in range(rec.n_steps):
        post = [bayes_update(b, rec.observations[k], sigma_y)[0] for b in beliefs]
        (m1,), (m2,) = (b.means for b in post)
        (v1,), (v2,) = (b.variances for b in post)
        np.testing.assert_allclose(
            rec.means[k, :, 0],
            [m1 + r_mu * (m2 - m1), m2 + r_mu * (m1 - m2)],
            atol=1e-12,
        )
        np.testing.assert_allclose(
            rec.variances[k, :, 0],
            [v1 + r_sigma * (v2 - v1) + nu, v2 + r_sigma * (v1 - v2) + nu],
            atol=1e-12,
        )
        beliefs = [
            GaussianMixtureBelief.from_arrays(
                rec.means[k, j], rec.variances[k, j], rec.weights[k, j]
            )
            for j in range(2)
        ]


# ---------------------------------------------------------------------------
# dense reference step


def oracle_graph(kind: str, n: int, r: np.random.Generator) -> SocialGraph:
    raw = assign_random_weights(generate_watts_strogatz(n, 4, 0.3, r), r)
    if kind == "normalized":
        return normalize_in_weights(raw)
    if kind == "signed":
        return SocialGraph.from_edges(n, [(i, j, w - 0.5) for i, j, w in raw.edges()])
    return raw


@pytest.mark.parametrize("kind", ["normalized", "raw", "signed"])
@pytest.mark.parametrize(
    "gain_mode,weight_policy,stubborn",
    list(itertools.product(("exact", "steady"), ("identity", "geometric"), (False, True))),
)
def test_simulate_matches_dense_reference_step(
    kind, gain_mode, weight_policy, stubborn
):
    # Each recorded step is replayed from the previous record with dense
    # n x n mixing products; the engine mixes with CSR products.
    n, horizon, sigma_y, pinned = 40, 30, 0.1, 3
    r = rng(31)
    g = oracle_graph(kind, n, r)
    states = [
        AgentState(
            belief=GaussianMixtureBelief.from_arrays(row, [1.0, 0.5], [0.4, 0.6])
        )
        for row in r.normal(size=(n, 2))
    ]
    if stubborn:
        states[pinned] = AgentState(
            states[pinned].belief, stubborn=True, stubborn_value=-1.0
        )
    policy = plain_policy(weight_policy=weight_policy)
    sigma_inf = sigma_fixed_point(policy.nu, sigma_y)
    rec = simulate(
        states, g, policy, ObservationModel(theta=1.0, sigma_y=sigma_y), horizon,
        rng(5), gain_mode=gain_mode, sigma_inf=sigma_inf,
    )
    w = g.weights

    def mix(rate: float) -> np.ndarray:
        return np.eye(n) + rate * (w.T - np.diag(w.sum(axis=0)))

    means, variances, weights = (
        np.array([getattr(s.belief, f) for s in states])
        for f in ("means", "variances", "weights")
    )
    if gain_mode == "steady":
        variances = np.full_like(variances, sigma_inf)
    for k in range(horizon):
        y = rec.observations[k]
        if gain_mode == "steady":
            post_means, post_weights, _ = _bayes_arrays_steady(
                means, weights, y, sigma_inf, sigma_y
            )
        else:
            post_means, post_vars, post_weights, _ = _bayes_arrays_exact(
                means, variances, weights, y, sigma_y
            )
            variances = mix(policy.delta_sigma) @ post_vars + policy.nu
            if np.any(variances <= 0.0):
                variances = np.maximum(variances, VARIANCE_FLOOR)
        means = mix(policy.delta_mu) @ post_means
        weights = post_weights
        if weight_policy == "geometric":
            log_w = np.log(np.maximum(post_weights, GEOMETRIC_WEIGHT_FLOOR))
            weights, _ = _normalize_log_weights(mix(1.0) @ log_w)
        if stubborn:
            means[pinned] = -1.0
        for want, got in zip((means, variances, weights),
                             (rec.means[k], rec.variances[k], rec.weights[k])):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)
        means, variances, weights = rec.means[k], rec.variances[k], rec.weights[k]


# ---------------------------------------------------------------------------
# golden engine records
#
# SHA-256 of the recorded means, variances and weights of 200-step n = 50 runs
# over every gain mode, weight policy and stubbornness setting. A change to
# the engine that moves any recorded bit fails here, including the order in
# which a mixing product adds a row (CSR: ascending column order).

GOLDEN_ENGINE_DIGESTS = {
    ("exact", "identity", False): "b02b7872971fb9c23ad401f4ea7ba30e4876144eac95d47a4fd9efa4e6fe54c2",
    ("exact", "identity", True): "81908257ce6a0a37504ab0c0851f807a7c63f6f804c145d069a5c6209ae07bcb",
    ("exact", "geometric", False): "5ee95c76526943887547e0cea700b2132d2585bcec767db81e32b52d92d03542",
    ("exact", "geometric", True): "6fa8dc4368b34016be4d6b09e78cd6433da4b773cd89ecf37cf851eee8d6d4b9",
    ("steady", "identity", False): "026348bb8c06da2ebe59dd08fca5c24c676e0418698f493e38c36b7af20a8db7",
    ("steady", "identity", True): "ad8b536acfbf627c78e8b58e3b3ee61f964b50a24afd19e0d8fbc24b34e60e5c",
    ("steady", "geometric", False): "4071b602defe92f76b28a536940b1cf09be3ea7449b442f025dcdfbc4af39ca1",
    ("steady", "geometric", True): "bef42e31e65203291c3e6c873f15ee5cb5a5a839cd7e8e5c93e1c053df4d2a9a",
}


def golden_run(gain_mode, weight_policy, stubborn, **kwargs):
    r = rng(2024)
    g = normalize_in_weights(
        assign_random_weights(generate_watts_strogatz(50, 4, 0.1, r), r)
    )
    states = [
        AgentState(
            belief=GaussianMixtureBelief.from_arrays(row, [1.0, 1.0], [0.3, 0.7])
        )
        for row in r.normal(size=(50, 2))
    ]
    if stubborn:
        states[0] = AgentState(
            belief=states[0].belief, stubborn=True, stubborn_value=-1.0
        )
    return simulate(
        states,
        g,
        plain_policy(weight_policy=weight_policy),
        ObservationModel(theta=1.0, sigma_y=0.1),
        horizon=200,
        rng=rng(7),
        gain_mode=gain_mode,
        sigma_inf=sigma_fixed_point(0.1, 0.1),
        **kwargs,
    )


def record_digest(arrays) -> str:
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(arr.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "gain_mode,weight_policy,stubborn",
    list(itertools.product(("exact", "steady"), ("identity", "geometric"), (False, True))),
)
def test_simulate_matches_golden_digest(gain_mode, weight_policy, stubborn):
    rec = golden_run(gain_mode, weight_policy, stubborn)
    digest = record_digest((rec.means, rec.variances, rec.weights))
    assert digest == GOLDEN_ENGINE_DIGESTS[gain_mode, weight_policy, stubborn]


# The same stubborn runs under both observation schemes, with and without
# noise, hashing the recorded observations as well.
GOLDEN_OBSERVED_DIGESTS = {
    ("exact", "identity", "shared", False):
        "e762819044bd8658d745004a51251c7a4982d6f29a15d62e29dafa6966fb7674",
    ("exact", "identity", "shared", True):
        "a659bf2705cbe11585b316b508723d20191d6e8116ad57083a607e086980b301",
    ("exact", "identity", "independent", False):
        "496ed38e2545bf2d31aba8fd455530ca605fbd73fa2f11c69cd43bf4eb1c8f8d",
    ("exact", "identity", "independent", True):
        "fef740e2a570127129440c3064722a74b69ade6224dc3b354621824e7dfdc9fe",
    ("exact", "geometric", "shared", False):
        "0211fbc0cc289256451b24e965bffde388136b7a0043cecaa953330a25f2ea6c",
    ("exact", "geometric", "shared", True):
        "53be3a4d65a0f066ba5c8a3111ea6e251a847d56dcc459561c4af4931799f89d",
    ("exact", "geometric", "independent", False):
        "983f8668aaaa22677b2dd23bc831a2e70b050d4575b8807354aa7e6eeb26837f",
    ("exact", "geometric", "independent", True):
        "044c1eadee8302f534099f07ba80dfef746e6a0bda77b7ddd149d0185392aab1",
    ("steady", "identity", "shared", False):
        "5f7e20e4c4ad94524e0d9fc104f88d93e42ed071aff349cfc486055d5cbe520e",
    ("steady", "identity", "shared", True):
        "badc55a57fbd84cf6f7312a701d1c9fe3708ccb6a37bc1c1501f73f89d5ffc5b",
    ("steady", "identity", "independent", False):
        "ad3df4c23f5df63ec63e44f6c14f8a072302b76507033d9d9f44afd31f2f22b2",
    ("steady", "identity", "independent", True):
        "7b6f0635d1b9e659f417455e681888755576583842b0f13861fa6504c65a827a",
    ("steady", "geometric", "shared", False):
        "adb369842e485de8a2d6ebf87a99d7a514ebd13ec83e562c654d55643fa2e857",
    ("steady", "geometric", "shared", True):
        "d428e76a1e54bedf2c5e8f6093e652db5cbc4c5dc1a7748a4c7babb30c1b2a42",
    ("steady", "geometric", "independent", False):
        "b29774759d70e025ac8a361411524fe333054f6eb196e30ae87f970562c5c2a2",
    ("steady", "geometric", "independent", True):
        "856e55946d87c44676028d4d8cf7e89cc8506bbef30a7f2f946311136453fac2",
}


@pytest.mark.parametrize(
    "gain_mode,weight_policy,observation,noise_free",
    list(itertools.product(
        ("exact", "steady"), ("identity", "geometric"), ("shared", "independent"),
        (False, True),
    )),
)
def test_simulate_matches_golden_digest_with_observations(
    gain_mode, weight_policy, observation, noise_free
):
    rec = golden_run(
        gain_mode, weight_policy, True, observation=observation, noise_free=noise_free
    )
    digest = record_digest((rec.means, rec.variances, rec.weights, rec.observations))
    key = gain_mode, weight_policy, observation, noise_free
    assert digest == GOLDEN_OBSERVED_DIGESTS[key]


@pytest.mark.parametrize(
    "observation,noise_free,normals_per_step",
    [("shared", False, 1), ("independent", False, 5), ("shared", True, 0),
     ("independent", True, 0)],
)
def test_simulate_leaves_generator_after_documented_draws(
    observation, noise_free, normals_per_step
):
    # Callers keep drawing from the generator they passed in, so a run must
    # consume exactly horizon * normals_per_step standard normals.
    horizon, seed = 13, 404
    r = rng(seed)
    simulate(
        uniform_states([[0.0, 1.0]] * 5),
        ring_graph(5),
        plain_policy(),
        ObservationModel(theta=1.0, sigma_y=0.1),
        horizon=horizon,
        rng=r,
        observation=observation,
        noise_free=noise_free,
    )
    fresh = rng(seed)
    fresh.standard_normal(horizon * normals_per_step)
    assert r.standard_normal() == fresh.standard_normal()


@pytest.mark.parametrize(
    "gain_mode,weight_policy",
    list(itertools.product(("exact", "steady"), ("identity", "geometric"))),
)
def test_simulate_makes_one_sparse_product_per_step(
    monkeypatch, gain_mode, weight_policy
):
    # Means, variances (exact gain) and log weights (geometric policy) are
    # mixed by one block-diagonal product per step.
    products = []
    matmul = sparse.csr_array.__matmul__

    def counting(self, other):
        products.append(self.shape)
        return matmul(self, other)

    monkeypatch.setattr(sparse.csr_array, "__matmul__", counting)
    n, horizon = 6, 9
    simulate(
        uniform_states([[0.0, 1.0]] * n),
        ring_graph(n),
        plain_policy(weight_policy=weight_policy),
        ObservationModel(theta=1.0, sigma_y=0.1),
        horizon=horizon,
        rng=rng(3),
        gain_mode=gain_mode,
        sigma_inf=sigma_fixed_point(0.1, 0.1),
    )
    blocks = 1 + (gain_mode == "exact") + (weight_policy == "geometric")
    assert products == [(blocks * n, blocks * n)] * horizon


# ---------------------------------------------------------------------------
# trailing statistics and serialization


def test_trailing_means_window_math():
    means = np.arange(12, dtype=float).reshape(3, 2, 2)
    rec = TrajectoryRecord(
        means=means,
        variances=np.ones_like(means),
        weights=np.full_like(means, 0.5),
        observations=np.zeros(3),
    )
    np.testing.assert_allclose(rec.trailing_means(2), means[-2:].mean(axis=0))
    np.testing.assert_allclose(rec.trailing_means(1), means[-1])
    mixture = rec.trailing_mixture_means(2)
    expected = (0.5 * means[-2:]).sum(axis=2).mean(axis=0)
    np.testing.assert_allclose(mixture, expected)
    with pytest.raises(InvalidParameterError):
        rec.trailing_means(4)
    with pytest.raises(InvalidParameterError):
        rec.trailing_means(0)


def test_validate_rejects_broken_simplex():
    means = np.zeros((2, 2, 2))
    rec = TrajectoryRecord(
        means=means,
        variances=np.ones_like(means),
        weights=np.full_like(means, 0.5),
        observations=np.zeros(2),
    )
    rec.validate()
    rec.weights[0, 0, 0] = 0.9
    with pytest.raises(InvalidParameterError):
        rec.validate()


def test_trajectory_csv_round_trip(tmp_path):
    g = two_node_graph(0.5)
    rec = simulate(
        uniform_states([[0.2, -0.7], [0.9, 0.1]]),
        g,
        plain_policy(),
        ObservationModel(theta=1.0, sigma_y=0.1),
        horizon=20,
        rng=rng(12),
    )
    path = tmp_path / "trajectory.csv"
    rec.to_csv(path)
    loaded = TrajectoryRecord.from_csv(path)
    np.testing.assert_array_equal(loaded.means, rec.means)
    np.testing.assert_array_equal(loaded.variances, rec.variances)
    np.testing.assert_array_equal(loaded.weights, rec.weights)
    np.testing.assert_array_equal(loaded.observations, rec.observations)


def test_trajectory_csv_round_trip_independent_observations(tmp_path):
    g = two_node_graph(0.5)
    rec = simulate(
        uniform_states([[0.2], [0.9]]),
        g,
        plain_policy(),
        ObservationModel(theta=1.0, sigma_y=0.1),
        horizon=5,
        rng=rng(13),
        observation="independent",
    )
    path = tmp_path / "trajectory.csv"
    rec.to_csv(path)
    loaded = TrajectoryRecord.from_csv(path)
    assert loaded.observations.shape == (5, 2)
    np.testing.assert_array_equal(loaded.observations, rec.observations)


# SHA-256 of trajectory.csv for the stubborn exact geometric golden run under
# each observation scheme: pins every written byte of to_csv.
TRAJECTORY_CSV_DIGESTS = {
    "shared": "03c2065a2a4852268e97d5c6fe4203561264cc6f7a080da6dca6a8cf23198a03",
    "independent": "dda73fb85d6b3e76f3b955375dabb9ce5056d2283f2c8e5d87feb60fb20b0c04",
}


@pytest.mark.parametrize("observation", ["shared", "independent"])
def test_to_csv_matches_golden_digest(tmp_path, observation):
    rec = golden_run("exact", "geometric", True, observation=observation)
    path = tmp_path / "trajectory.csv"
    rec.to_csv(path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == TRAJECTORY_CSV_DIGESTS[observation]


def test_trajectory_csv_rejects_malformed_files(tmp_path):
    header = "k,agent,mode,mu,sigma,alpha,y\n"
    row = "1,1,1,0.0,1.0,1.0,0.5\n"
    cases = {
        "bad_header": "a,b,c\n",
        "empty": header,
        # (1,1,2) and (1,2,1) cells missing
        "gappy": header + row + "1,2,2,0.0,1.0,1.0,0.5\n",
        "step_0": header + row + "0,1,1,9.0,1.0,1.0,0.5\n",
        # the full 2-step grid with its steps in reverse order
        "reordered": header + "2,1,1,0.0,1.0,1.0,0.5\n" + row,
        "non_numeric": header + "1,1,1,0.0,x,1.0,0.5\n",
        "short_row": header + row + "2,1,1,0.0,1.0,1.0\n",
        "six_columns": header + "1,1,1,0.0,1.0,1.0\n",
    }
    for name, text in cases.items():
        path = tmp_path / f"{name}.csv"
        path.write_text(text)
        with pytest.raises(InvalidParameterError) as excinfo:
            TrajectoryRecord.from_csv(path)
        assert str(excinfo.value).startswith(f"{path}: "), name


@pytest.mark.parametrize("obs_shape", [(3,), (3, 2)], ids=["shared", "independent"])
def test_trajectory_csv_round_trip_keeps_non_finite_values_exactly(tmp_path, obs_shape):
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-310])
    grid = np.resize(special, (3, 2, 2))
    rec = TrajectoryRecord(
        means=grid,
        variances=grid[::-1].copy(),
        weights=np.full((3, 2, 2), 0.5),
        observations=np.resize([-0.0, 1.5, -2.5], obs_shape),
    )
    path = tmp_path / "trajectory.csv"
    rec.to_csv(path)
    loaded = TrajectoryRecord.from_csv(path)
    for name in ("means", "variances", "weights", "observations"):
        want, got = getattr(rec, name), getattr(loaded, name)
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
