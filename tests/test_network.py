"""Tests for graph construction, system matrices, and spectral diagnostics."""

import hashlib
import logging
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse

from gmop import (
    InvalidParameterError,
    SocialGraph,
    add_influencer_hub,
    assign_random_weights,
    build_graph,
    build_system_matrices,
    check_row_sum_condition,
    generate_watts_strogatz,
    load_edge_list,
    load_preset,
    normalize_in_weights,
    save_edge_list,
    spectral_radius,
)
from gmop.network import DENSE_EIG_LIMIT, _arpack_radius, _mixing_matrix


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def two_node_symmetric(w: float = 0.5) -> SocialGraph:
    return SocialGraph.from_edges(2, [(1, 2, w), (2, 1, w)])


def undirected_degrees(g: SocialGraph) -> np.ndarray:
    return (g.weights != 0.0).sum(axis=1)


# ---------------------------------------------------------------------------
# graph type


def test_from_edges_round_trips_edges():
    g = SocialGraph.from_edges(3, [(1, 2, 0.5), (3, 1, 0.25)])
    assert g.n == 3
    assert g.n_edges == 2
    assert g.weights[0, 1] != 0.0 and g.weights[2, 0] != 0.0
    assert g.weights[1, 0] == 0.0
    assert sorted(g.edges()) == [(1, 2, 0.5), (3, 1, 0.25)]


def test_from_edges_rejects_self_loops_and_duplicates():
    with pytest.raises(InvalidParameterError):
        SocialGraph.from_edges(3, [(1, 1, 0.5)])
    with pytest.raises(InvalidParameterError):
        SocialGraph.from_edges(3, [(1, 2, 0.5), (1, 2, 0.7)])
    with pytest.raises(InvalidParameterError):
        SocialGraph.from_edges(3, [(0, 2, 0.5)])
    with pytest.raises(InvalidParameterError):
        SocialGraph.from_edges(3, [(1, 4, 0.5)])
    with pytest.raises(InvalidParameterError):
        SocialGraph.from_edges(3, [(1, 2, 0.0)])


def test_graph_weights_are_immutable():
    g = two_node_symmetric()
    with pytest.raises((ValueError, RuntimeError)):
        g.weights[0, 1] = 9.0


# ---------------------------------------------------------------------------
# CSR storage


def random_graphs(n: int = 40, seed: int = 3) -> dict[str, SocialGraph]:
    """A normalized, a raw-weight and a signed-weight graph on n nodes."""
    topology = generate_watts_strogatz(n, 4, 0.3, rng(seed))
    raw = assign_random_weights(topology, rng(seed + 1))
    signed = SocialGraph.from_edges(n, [(i, j, w - 0.5) for i, j, w in raw.edges()])
    return {"normalized": normalize_in_weights(raw), "raw": raw, "signed": signed}


def test_graph_stores_canonical_read_only_csr():
    g = random_graphs()["raw"]
    assert g.csr.format == "csr" and g.csr.has_canonical_format
    assert g.csr.nnz == g.n_edges and np.all(g.csr.data != 0.0)
    for arr in (g.csr.data, g.csr.indices, g.csr.indptr):
        with pytest.raises(ValueError):
            arr[0] = arr[0]
    assert g.weights is g.weights
    np.testing.assert_array_equal(g.weights, g.csr.toarray())
    rows, cols = np.nonzero(g.weights)
    assert list(g.edges()) == [
        (i + 1, j + 1, g.weights[i, j]) for i, j in zip(rows, cols)
    ]


def test_constructor_takes_dense_and_sparse_weights_alike():
    w = random_graphs()["signed"].weights
    for weights in (w, sparse.coo_array(w), sparse.csc_array(w)):
        g = SocialGraph(n=40, weights=weights)
        np.testing.assert_array_equal(g.weights, w)
        np.testing.assert_array_equal(g.csr.indices, sparse.csr_array(w).indices)
    explicit_zero = sparse.csr_array(([0.0, 2.0], ([0, 1], [1, 0])), shape=(2, 2))
    assert SocialGraph(n=2, weights=explicit_zero).n_edges == 1
    bad_cases = [
        (np.ones((2, 3)), r"shape \(2, 2\)"),
        (np.array([[0.0, np.inf], [1.0, 0.0]]), "finite"),
        (np.array([[1.0, 0.5], [0.5, 0.0]]), "self-loops"),
    ]
    for dense, message in bad_cases:
        for weights in (dense, sparse.csr_array(dense)):
            with pytest.raises(InvalidParameterError, match=message):
                SocialGraph(n=2, weights=weights)


@pytest.mark.parametrize("kind", ["normalized", "raw", "signed"])
def test_sparse_builds_equal_the_dense_formulas_bitwise(kind):
    g = random_graphs()[kind]
    w = g.weights
    np.testing.assert_array_equal(g.in_weight_sums(), w.sum(axis=0))
    for rate in (0.0, 0.1, 0.6, 1.0):
        dense = np.eye(g.n) + rate * (w.T - np.diag(w.sum(axis=0)))
        np.testing.assert_array_equal(_mixing_matrix(g, rate).toarray(), dense)
    mats = build_system_matrices(g, delta_mu=0.6, sigma_inf=0.161803, sigma_y=0.1)
    dense = np.eye(g.n) + 0.6 * (w.T - np.diag(w.sum(axis=0)))
    np.testing.assert_array_equal(mats.A, mats.sigma_scalar * dense)


# SHA-256 of save_edge_list output: pins the order in which the builders draw
# from their generators and every written weight bit.
GRAPH_EDGE_DIGESTS = {
    "S1": "51dde3f2a9f33d4e9a9d79ef8a20c6e60228955203615fd0a27ec987c126049a",
    "n400-raw": "5380f75b3895f6744907a416582fef91e5e97ef1e809a4fd0a3cb6ea996c1e47",
}


def test_build_graph_edge_lists_match_golden_digests(tmp_path):
    net = load_preset("S1").network
    nets = {
        "S1": net,
        "n400-raw": replace(net, n=400, seed=3, p_ws=0.5, normalize_in_weights=False),
    }
    for name, config in nets.items():
        save_edge_list(build_graph(config), tmp_path / name)
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest == GRAPH_EDGE_DIGESTS[name], name


def bfs_connected(g: SocialGraph) -> bool:
    """Weak connectivity by depth-first search over the dense adjacency."""
    adj = (g.weights != 0.0) | (g.weights.T != 0.0)
    seen = np.zeros(g.n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        node = stack.pop()
        for nxt in np.nonzero(adj[node])[0]:
            if not seen[nxt]:
                seen[nxt] = True
                stack.append(int(nxt))
    return bool(seen.all())


def test_is_connected_matches_search_on_random_graphs():
    r = rng(17)
    verdicts = set()
    for _ in range(200):
        n = int(r.integers(1, 30))
        mask = (r.random((n, n)) < r.uniform(0.0, 0.15)) & ~np.eye(n, dtype=bool)
        g = SocialGraph(n=n, weights=np.where(mask, r.uniform(-1.0, 1.0, (n, n)), 0.0))
        assert g.is_connected() == bfs_connected(g)
        verdicts.add(g.is_connected())
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# small-world generator


def test_ring_lattice_without_rewiring():
    g = generate_watts_strogatz(50, 3, 0.0, rng(7))
    degrees = undirected_degrees(g)
    assert np.all(degrees == 2)  # floor(3/2) neighbors per side
    assert g.n_edges == 2 * 50 * (3 // 2)
    assert g.is_connected()


def test_ring_lattice_even_k():
    g = generate_watts_strogatz(12, 4, 0.0, rng(0))
    assert np.all(undirected_degrees(g) == 4)


def test_full_rewiring_preserves_edge_count():
    g = generate_watts_strogatz(10, 4, 1.0, rng(3))
    adj = g.weights != 0.0
    np.testing.assert_array_equal(adj, adj.T)
    assert not np.any(np.diag(adj))
    # 10 * floor(4/2) = 20 undirected edges survive as 40 directed entries.
    assert g.n_edges == 40
    assert np.count_nonzero(np.triu(adj)) == 20


def test_partial_rewiring_keeps_symmetric_adjacency():
    g = generate_watts_strogatz(50, 3, 0.2, rng(7))
    adj = g.weights != 0.0
    np.testing.assert_array_equal(adj, adj.T)
    assert g.n_edges == 2 * 50
    assert not np.any(np.diag(adj))


def test_generator_determinism():
    a = generate_watts_strogatz(50, 3, 0.2, rng(7))
    b = generate_watts_strogatz(50, 3, 0.2, rng(7))
    np.testing.assert_array_equal(a.weights, b.weights)


def test_generator_rejects_bad_parameters():
    with pytest.raises(InvalidParameterError):
        generate_watts_strogatz(2, 1, 0.0, rng(0))
    with pytest.raises(InvalidParameterError):
        generate_watts_strogatz(10, 10, 0.0, rng(0))
    with pytest.raises(InvalidParameterError):
        generate_watts_strogatz(10, 0, 0.0, rng(0))
    with pytest.raises(InvalidParameterError):
        generate_watts_strogatz(10, 3, 1.5, rng(0))


def test_build_graph_reports_disconnection_of_final_graph(caplog):
    net = load_preset("S1").network
    # Fully rewired ring without the hub: seed 3 falls apart.
    with caplog.at_level(logging.WARNING, logger="gmop"):
        g = build_graph(replace(net, hub_fraction=0.0, p_ws=1.0, seed=3))
    assert not g.is_connected()
    assert any("disconnected" in r.message for r in caplog.records)
    # The S1 lattice at n = 500 is disconnected before the hub joins it; the
    # finished graph is connected, so nothing is logged.
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="gmop"):
        g = build_graph(replace(net, n=500))
    assert g.is_connected()
    assert caplog.records == []


# ---------------------------------------------------------------------------
# influencer hub


def test_hub_links_half_the_network():
    g = generate_watts_strogatz(50, 3, 0.2, rng(7))
    hubbed = add_influencer_hub(g, 1, 0.5, rng(8))
    adj = hubbed.weights != 0.0
    np.testing.assert_array_equal(adj, adj.T)
    assert adj[0].sum() >= 24  # floor(0.5 * 49) new peers, plus lattice ones
    # Non-hub rows gain at most the hub edge.
    before = g.weights != 0.0
    changed = adj != before
    assert np.all(changed[1:, 1:] == False)  # noqa: E712 - array comparison


def test_hub_fraction_floor_zero_is_identity():
    g = generate_watts_strogatz(50, 3, 0.2, rng(7))
    hubbed = add_influencer_hub(g, 1, 0.01, rng(8))
    np.testing.assert_array_equal(hubbed.weights, g.weights)


def test_hub_already_fully_connected_is_identity():
    n = 6
    w = 1.0 - np.eye(n)
    g = SocialGraph(n=n, weights=w)
    hubbed = add_influencer_hub(g, 1, 1.0, rng(0))
    np.testing.assert_array_equal(hubbed.weights, g.weights)


def test_hub_rejects_bad_arguments():
    g = generate_watts_strogatz(10, 2, 0.0, rng(0))
    with pytest.raises(InvalidParameterError):
        add_influencer_hub(g, 0, 0.5, rng(0))
    with pytest.raises(InvalidParameterError):
        add_influencer_hub(g, 1, 0.0, rng(0))
    with pytest.raises(InvalidParameterError):
        add_influencer_hub(g, 1, 1.5, rng(0))


# ---------------------------------------------------------------------------
# weights


def test_random_weights_in_open_unit_interval():
    g = assign_random_weights(generate_watts_strogatz(50, 3, 0.2, rng(7)), rng(9))
    values = np.array([w for _, _, w in g.edges()])
    assert values.size == g.n_edges
    assert np.all(values > 0.0)
    assert np.all(values < 1.0)


def test_random_weights_asymmetric_on_symmetric_adjacency():
    g = assign_random_weights(generate_watts_strogatz(50, 3, 0.2, rng(7)), rng(9))
    w = g.weights
    mask = (w > 0) & (w.T > 0)
    iu = np.triu(mask, k=1)
    assert iu.sum() > 0
    assert not np.allclose(w[iu], w.T[iu])


def test_random_weights_deterministic():
    base = generate_watts_strogatz(50, 3, 0.2, rng(7))
    a = assign_random_weights(base, rng(9))
    b = assign_random_weights(base, rng(9))
    np.testing.assert_array_equal(a.weights, b.weights)


def test_random_weights_preserve_adjacency():
    base = generate_watts_strogatz(50, 3, 0.2, rng(7))
    weighted = assign_random_weights(base, rng(9))
    np.testing.assert_array_equal(weighted.weights != 0.0, base.weights != 0.0)


def test_normalize_in_weights_unit_column_sums():
    g = assign_random_weights(generate_watts_strogatz(50, 3, 0.2, rng(7)), rng(9))
    scaled = normalize_in_weights(g)
    np.testing.assert_allclose(scaled.in_weight_sums(), np.ones(50), atol=1e-14)
    np.testing.assert_array_equal(scaled.weights != 0.0, g.weights != 0.0)


def test_normalize_in_weights_skips_isolated_in_nodes():
    g = SocialGraph.from_edges(3, [(1, 2, 4.0)])  # node 1 and 3 have no in-edges
    scaled = normalize_in_weights(g)
    np.testing.assert_allclose(scaled.in_weight_sums(), [0.0, 1.0, 0.0])


# ---------------------------------------------------------------------------
# matrices


def test_in_weight_sums_empty_graph():
    g = SocialGraph(n=4, weights=np.zeros((4, 4)))
    np.testing.assert_array_equal(g.in_weight_sums(), np.zeros(4))


def test_in_weight_sums_two_node():
    np.testing.assert_allclose(two_node_symmetric(0.5).in_weight_sums(), [0.5, 0.5])


def test_in_weight_sums_star():
    m = 5
    edges = [(i, 1, 1.0) for i in range(2, m + 2)]
    g = SocialGraph.from_edges(m + 1, edges)
    sums = g.in_weight_sums()
    assert sums[0] == m
    np.testing.assert_allclose(sums[1:], 0.0)


def test_system_matrices_two_node_inner_matrix():
    mats = build_system_matrices(
        two_node_symmetric(0.5), delta_mu=0.6, sigma_inf=0.2, sigma_y=0.1
    )
    inner = mats.A / mats.sigma_scalar
    np.testing.assert_allclose(inner, [[0.7, 0.3], [0.3, 0.7]], atol=1e-15)
    assert mats.sigma_scalar == pytest.approx(0.1 / 0.3, rel=1e-15)
    np.testing.assert_allclose(mats.B, (1.0 - mats.sigma_scalar) * np.eye(2))


def test_system_matrices_zero_coupling():
    mats = build_system_matrices(
        two_node_symmetric(0.5), delta_mu=0.0, sigma_inf=0.2, sigma_y=0.1
    )
    np.testing.assert_allclose(mats.A, mats.sigma_scalar * np.eye(2), atol=1e-15)


def test_system_matrices_affine_rows_sum_to_one():
    g = assign_random_weights(generate_watts_strogatz(50, 3, 0.2, rng(7)), rng(9))
    mats = build_system_matrices(g, delta_mu=0.6, sigma_inf=0.161803, sigma_y=0.1)
    ones = np.ones(50)
    np.testing.assert_allclose((mats.A + mats.B) @ ones, ones, atol=1e-12)


def test_system_matrices_sigma_scalar_in_unit_interval():
    mats = build_system_matrices(
        two_node_symmetric(), delta_mu=0.6, sigma_inf=0.370156, sigma_y=1.0
    )
    assert 0.0 < mats.sigma_scalar < 1.0


def test_system_matrices_reject_bad_noise():
    with pytest.raises(InvalidParameterError):
        build_system_matrices(
            two_node_symmetric(), delta_mu=0.6, sigma_inf=0.2, sigma_y=0.0
        )
    with pytest.raises(InvalidParameterError):
        build_system_matrices(
            two_node_symmetric(), delta_mu=0.6, sigma_inf=-0.1, sigma_y=1.0
        )


def edge_file(tmp_path, text: str):
    path = tmp_path / "g.edges"
    path.write_text(text)
    return path


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda tmp: SocialGraph(n=0, weights=np.zeros((0, 0))),
         "n must be positive, got 0"),
        (lambda tmp: build_system_matrices(two_node_symmetric(), -0.1, 0.2, 1.0),
         "delta_mu must be >= 0, got -0.1"),
        (lambda tmp: load_edge_list(edge_file(tmp, "n=two\n")), "bad header 'n=two'"),
        (lambda tmp: load_edge_list(edge_file(tmp, "n=2\n1 2 inf\n")),
         ":2: non-finite weight"),
    ],
    ids=["no-nodes", "negative-delta-mu", "bad-header", "infinite-weight"],
)
def test_graph_layer_rejects_invalid_input(tmp_path, call, message):
    with pytest.raises(InvalidParameterError, match=message):
        call(tmp_path)


# ---------------------------------------------------------------------------
# spectral radius


def test_spectral_radius_doubly_stochastic_pair():
    assert spectral_radius(np.array([[0.7, 0.3], [0.3, 0.7]])) == pytest.approx(
        1.0, rel=1e-12
    )


def test_spectral_radius_identity():
    assert spectral_radius(np.eye(5)) == pytest.approx(1.0, rel=1e-12)


def test_spectral_radius_scaled_matrix():
    # 0.38197 is the S1-scale gain 0.1 / (0.161803 + 0.1).
    m = 0.38197 * np.array([[0.7, 0.3], [0.3, 0.7]])
    assert spectral_radius(m) == pytest.approx(0.38197, rel=1e-9)
    assert spectral_radius(m) < 1.0


def test_spectral_radius_of_empty_matrix_is_zero():
    # The reduced block of a one-node graph with its node pinned is 0x0.
    assert spectral_radius(np.zeros((0, 0))) == 0.0
    assert spectral_radius(sparse.csr_array((0, 0))) == 0.0


def test_spectral_radius_rejects_non_square():
    with pytest.raises(InvalidParameterError):
        spectral_radius(np.ones((2, 3)))


def char_poly_radius(m: np.ndarray) -> float:
    """Spectral radius from explicit characteristic polynomial coefficients."""
    if m.shape == (2, 2):
        coeffs = [1.0, -np.trace(m), np.linalg.det(m)]
    else:
        minors = sum(
            np.linalg.det(m[np.ix_(idx, idx)])
            for idx in ([0, 1], [0, 2], [1, 2])
        )
        coeffs = [1.0, -np.trace(m), minors, -np.linalg.det(m)]
    return float(np.max(np.abs(np.roots(coeffs))))


@pytest.mark.parametrize("size", [2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_spectral_radius_matches_characteristic_polynomial(size, seed):
    m = rng(seed).normal(size=(size, size))
    assert spectral_radius(m) == pytest.approx(char_poly_radius(m), rel=1e-9)


def test_sparse_eig_path_matches_dense():
    m = rng(11).random((40, 40))
    assert _arpack_radius(m) == pytest.approx(spectral_radius(m), rel=1e-8)


def csr_radius_cases() -> dict[str, sparse.csr_array]:
    """Mean operators A at n = 600 from a normalized, a raw and a signed graph."""
    n = 600
    graphs = random_graphs(n, seed=8)
    graphs["S1"] = build_graph(replace(load_preset("S1").network, n=n))
    return {
        kind: sparse.csr_array(build_system_matrices(g, 0.6, 0.161803, 0.1).A)
        for kind, g in graphs.items()
    }


@pytest.mark.parametrize("kind", ["S1", "normalized", "raw", "signed"])
def test_csr_iterative_radius_matches_dense_eigvals(kind):
    m = csr_radius_cases()[kind]
    assert m.shape[0] > DENSE_EIG_LIMIT
    assert np.any(m.data < 0.0) == (kind in ("raw", "signed"))
    dense = float(np.max(np.abs(np.linalg.eigvals(m.toarray()))))
    assert spectral_radius(m) == pytest.approx(dense, rel=1e-9)


def test_iterative_radius_finds_isolated_top_eigenvalue():
    # Magnitudes cluster just below the isolated real top eigenvalue
    # 0.73654; 20 Arnoldi vectors settled on a complex pair at 0.72919.
    m = sparse.random_array((600, 600), density=0.01, rng=rng(21), format="csr")
    m.data -= 0.5
    assert m.shape[0] > DENSE_EIG_LIMIT
    dense = float(np.max(np.abs(np.linalg.eigvals(m.toarray()))))
    assert dense == pytest.approx(0.7365352479, rel=1e-9)
    assert spectral_radius(m) == pytest.approx(dense, rel=1e-9)


def test_spectral_radius_validates_sparse_input():
    with pytest.raises(InvalidParameterError, match="square"):
        spectral_radius(sparse.csr_array(np.ones((2, 3))))
    with pytest.raises(InvalidParameterError, match="finite"):
        spectral_radius(sparse.csr_array(np.array([[0.0, np.nan], [1.0, 0.0]])))
    m = sparse.csr_array(np.array([[0.7, 0.3], [0.3, 0.7]]))
    assert spectral_radius(m) == spectral_radius(m.toarray())


def test_spectral_radius_above_dense_limit():
    n = DENSE_EIG_LIMIT + 8
    m = rng(5).random((n, n))
    m = 0.9 * m / m.sum(axis=1, keepdims=True)  # rho known: 0.9 exactly
    assert spectral_radius(m) == pytest.approx(0.9, rel=1e-8)


# ---------------------------------------------------------------------------
# row-sum identity


def test_row_sum_residual_on_generated_graph():
    g = assign_random_weights(generate_watts_strogatz(50, 3, 0.2, rng(7)), rng(9))
    assert check_row_sum_condition(g) <= 1e-12


def test_row_sum_residual_empty_graph():
    g = SocialGraph(n=3, weights=np.zeros((3, 3)))
    assert check_row_sum_condition(g) == 0.0


# ---------------------------------------------------------------------------
# serialization


def test_edge_list_round_trip(tmp_path):
    g = assign_random_weights(generate_watts_strogatz(20, 4, 0.3, rng(2)), rng(3))
    path = tmp_path / "graph.edges"
    save_edge_list(g, path)
    loaded = load_edge_list(path)
    assert loaded.n == g.n
    np.testing.assert_array_equal(loaded.weights, g.weights)


def test_edge_list_bytes_deterministic(tmp_path):
    g = assign_random_weights(generate_watts_strogatz(20, 4, 0.3, rng(2)), rng(3))
    p1, p2 = tmp_path / "a.edges", tmp_path / "b.edges"
    save_edge_list(g, p1)
    save_edge_list(g, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_edge_list_accepts_negative_weights(tmp_path):
    g = SocialGraph.from_edges(3, [(1, 2, -0.5), (2, 3, 1.5)])
    path = tmp_path / "signed.edges"
    save_edge_list(g, path)
    loaded = load_edge_list(path)
    np.testing.assert_array_equal(loaded.weights, g.weights)


def test_edge_list_loader_rejects_malformed_input(tmp_path):
    cases = {
        "missing_header.edges": "1 2 0.5\n",
        "bad_count.edges": "n=2\n1 2 0.5 extra\n",
        "self_loop.edges": "n=2\n1 1 0.5\n",
        "out_of_range.edges": "n=2\n1 3 0.5\n",
        "bad_number.edges": "n=2\n1 2 abc\n",
    }
    for name, text in cases.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(InvalidParameterError):
            load_edge_list(path)
