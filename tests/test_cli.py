"""End-to-end tests for the experiment runner and its file outputs."""

import hashlib
import json
import logging
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gmop import (
    ConfigError,
    InstabilityError,
    ObservationModel,
    SocialGraph,
    build_graph,
    centrality_score,
    child_rng,
    emit_plot_data,
    initial_states,
    load_config,
    load_preset,
    predict,
    run_experiment,
    save_config,
    sigma_fixed_point,
    simulate,
    stability_report,
    stubborn_equilibrium,
    sweep_centrality,
)
import gmop
from gmop import analysis
from gmop.cli import _parse_nodes, main, write_centrality_csv

ARTIFACTS = ("config.json", "graph.edges", "trajectory.csv", "summary.json",
             "empirics.json")


def small_config(preset: str = "S1", horizon: int = 80, window: int = 40):
    cfg = load_preset(preset)
    return replace(cfg, run=replace(cfg.run, horizon=horizon, trailing_window=window))


def raw_weight_config(horizon: int = 20, window: int = 10):
    cfg = small_config(horizon=horizon, window=window)
    return replace(cfg, network=replace(cfg.network, normalize_in_weights=False))


# ---------------------------------------------------------------------------
# pipeline pieces


def test_build_graph_is_seeded_pipeline():
    net = load_preset("S1").network
    a, b = build_graph(net), build_graph(net)
    np.testing.assert_array_equal(a.weights, b.weights)
    assert a.n == 50
    assert a.is_connected()
    # Hub wiring: node 1 ends up adjacent to at least half the network.
    assert a.adjacency()[0].sum() >= 24
    # In-weight normalization leaves every in-sum at exactly one.
    np.testing.assert_allclose(a.in_weight_sums(), np.ones(50), atol=1e-12)


def test_build_graph_honors_normalization_flag():
    net = replace(load_preset("S1").network, normalize_in_weights=False)
    g = build_graph(net)
    sums = g.in_weight_sums()
    assert np.max(np.abs(sums - 1.0)) > 0.1  # raw uniform draws, not rescaled


def test_initial_states_follow_mode_ranges():
    cfg = load_preset("S1")
    states = initial_states(cfg, child_rng(cfg.run.seed, "init"))
    assert len(states) == 50
    for state in states:
        assert not state.stubborn
        m1, m2 = state.belief.means
        assert 0.0 <= m1 <= 1.0
        assert -1.0 <= m2 <= 0.0
        assert state.belief.variances == (1.0, 1.0)
        assert state.belief.weights == (0.5, 0.5)


def test_initial_states_stubborn_pins_node_and_keeps_stream():
    s1, s3 = load_preset("S1"), load_preset("S3")
    plain = initial_states(s1, child_rng(s1.run.seed, "init"))
    pinned = initial_states(s3, child_rng(s3.run.seed, "init"))
    assert pinned[0].stubborn
    assert pinned[0].belief.means == (-1.0, -1.0)
    # The stubborn node consumes its draws, so everyone else's initial
    # beliefs are identical between the two settings.
    for a, b in zip(plain[1:], pinned[1:]):
        assert a.belief == b.belief


# ---------------------------------------------------------------------------
# run_experiment


def test_run_experiment_writes_all_artifacts(tmp_path):
    result = run_experiment(small_config(), out_dir=tmp_path / "run")
    for name in ARTIFACTS:
        assert (tmp_path / "run" / name).exists()
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["conditions"]["spectral_ok"] is True
    assert summary["sigma_inf"] == pytest.approx(0.1618033988749895, rel=1e-12)
    assert summary["limit_mean"] == [1.0] * 50
    assert summary["gamma"] is None
    empirics = json.loads((tmp_path / "run" / "empirics.json").read_text())
    assert empirics["trailing_window"] == 40
    assert len(empirics["trailing_means"]) == 50
    assert isinstance(empirics["within_tolerance"], bool)
    assert empirics["max_abs_deviation"] is not None
    # The recorded config can be reloaded and names the run directory.
    reloaded = load_config(tmp_path / "run" / "config.json")
    assert reloaded.run.output_dir == str(tmp_path / "run")
    assert reloaded.run.horizon == 80


def test_run_experiment_stubborn_summary_has_gamma(tmp_path):
    result = run_experiment(small_config("S3"), out_dir=tmp_path)
    summary = result.summary
    assert summary["gamma"] is not None
    assert len(summary["gamma"]) == 49
    assert summary["limit_mean"][0] == -1.0
    assert summary["stubborn_spectral_radius"] < 1.0


def test_run_experiment_byte_determinism(tmp_path):
    cfg = small_config()
    out = tmp_path / "run"
    run_experiment(cfg, out_dir=out)
    first = {name: (out / name).read_bytes() for name in ARTIFACTS}
    run_experiment(cfg, out_dir=out)
    second = {name: (out / name).read_bytes() for name in ARTIFACTS}
    assert first == second


def test_run_experiment_seed_changes_trajectory(tmp_path):
    cfg = small_config()
    a = run_experiment(cfg, out_dir=tmp_path / "a")
    b = run_experiment(
        replace(cfg, run=replace(cfg.run, seed=cfg.run.seed + 1)),
        out_dir=tmp_path / "b",
    )
    assert not np.array_equal(a.record.observations, b.record.observations)
    # The network seed is independent of the run seed, so the graph is shared.
    np.testing.assert_array_equal(a.graph.weights, b.graph.weights)


def test_run_experiment_aborts_on_unstable_system(tmp_path):
    with pytest.raises(InstabilityError):
        run_experiment(raw_weight_config(), out_dir=tmp_path)
    assert not (tmp_path / "trajectory.csv").exists()


def test_run_experiment_force_runs_unstable_system(tmp_path):
    result = run_experiment(raw_weight_config(), out_dir=tmp_path, force=True)
    assert result.summary["limit_mean"] is None
    assert result.summary["conditions"]["spectral_ok"] is False
    assert result.empirics["predictions"] is None
    assert (tmp_path / "trajectory.csv").exists()


# SHA-256 of the null-prediction artifacts of forced raw-weight runs.
FORCED_UNSTABLE_DIGESTS = {
    None: {
        "summary.json": "5249c22bd38eedcdab78aaaab5a53a601fc5a3702ba52c99e521909c96894c92",
        "empirics.json": "fb2f5fbffbe868e3b59a69f7e99966faa6de12b8937c2071704e8aace87739c0",
    },
    2: {
        "summary.json": "ed9ee5098bbc7038c21bbcb9689b040d7a54c6eb61b242b189a804d4c01124f6",
        "empirics.json": "4a881ba39d2fd133bef748448e8a2b0fe89fd2e53c6d5d775f7d58a980b5d6fc",
    },
}


@pytest.mark.parametrize(
    "stubborn, message",
    [(None, r"^spectral radius 2\.839289 >= 1;"),
     (2, r"^reduced-system spectral radius 2\.835576 >= 1;")],
    ids=["plain", "stubborn-node-2"],
)
def test_forced_unstable_artifacts_match_golden_digests(tmp_path, stubborn, message):
    cfg = raw_weight_config()
    if stubborn is not None:
        pinned = replace(cfg.stubborn, enabled=True, node=stubborn, mu_dagger=-1.0)
        cfg = replace(cfg, stubborn=pinned)
    with pytest.raises(InstabilityError, match=message):
        run_experiment(cfg, out_dir=tmp_path)
    run_experiment(cfg, out_dir=tmp_path, force=True)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in FORCED_UNSTABLE_DIGESTS[stubborn]
    }
    assert digests == FORCED_UNSTABLE_DIGESTS[stubborn]


def test_predict_rejects_unstable_reduced_block():
    cfg = raw_weight_config()
    g = build_graph(cfg.network)
    policy, model = cfg.policy, cfg.model
    with pytest.raises(InstabilityError) as from_predict:
        predict(g, policy.delta_mu, policy.nu, model.sigma_y, model.theta,
                stubborn_id=2, mu_dagger=-1.0)
    sigma_inf = sigma_fixed_point(policy.nu, model.sigma_y)
    with pytest.raises(InstabilityError) as from_solve:
        stubborn_equilibrium(g, policy.delta_mu, sigma_inf, model.sigma_y,
                             stubborn_id=2, mu_dagger=-1.0, theta=model.theta)
    assert str(from_predict.value) == str(from_solve.value)
    assert str(from_solve.value) == (
        "reduced system is unstable: spectral radius 2.835576 >= 1"
    )


def test_one_eigensolve_per_radius(tmp_path, capsys, monkeypatch):
    calls = []
    original = analysis.spectral_radius

    def counting(m):
        calls.append(m.shape)
        return original(m)

    monkeypatch.setattr(analysis, "spectral_radius", counting)

    def count(action) -> int:
        calls.clear()
        action()
        return len(calls)

    # rho(A) alone without a stubborn agent; rho(A) and the reduced block with one.
    s1, s3 = small_config("S1", 10, 5), small_config("S3", 10, 5)
    assert count(lambda: run_experiment(s1, out_dir=tmp_path / "s1")) == 1
    assert count(lambda: run_experiment(s3, out_dir=tmp_path / "s3")) == 2
    assert count(lambda: main(["predict", "--preset", "S3"])) == 2
    capsys.readouterr()


def test_one_system_build_per_command(tmp_path, capsys, monkeypatch):
    calls = []
    original = analysis._mean_operator

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(analysis, "_mean_operator", counting)

    def count(action) -> int:
        calls.clear()
        action()
        return len(calls)

    # The stability report's build serves the pinned solve as well.
    s1, s3 = small_config("S1", 10, 5), small_config("S3", 10, 5)
    assert count(lambda: run_experiment(s1, out_dir=tmp_path / "s1")) == 1
    assert count(lambda: run_experiment(s3, out_dir=tmp_path / "s3")) == 1
    assert count(lambda: main(["predict", "--preset", "S3"])) == 1
    capsys.readouterr()


def test_library_path_at_n4000_stays_sparse():
    # One dense float n x n array at n = 4000 is 122 MiB.
    cfg = load_preset("S1")
    cfg = replace(cfg, network=replace(cfg.network, n=4000),
                  run=replace(cfg.run, horizon=2, trailing_window=2))
    sigma_inf = sigma_fixed_point(cfg.policy.nu, cfg.model.sigma_y)
    tracemalloc.start()
    try:
        g = build_graph(cfg.network)
        report = stability_report(g, cfg.policy.delta_mu, sigma_inf, cfg.model.sigma_y)
        record = simulate(
            initial_states(cfg, child_rng(cfg.run.seed, "init")), g, cfg.policy,
            ObservationModel(theta=cfg.model.theta, sigma_y=cfg.model.sigma_y), 2,
            child_rng(cfg.run.seed, "observations"),
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.conditions["spectral_ok"] and record.n_steps == 2
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"


# ---------------------------------------------------------------------------
# centrality sweep


def test_sweep_schema_and_hub_rank():
    rows = sweep_centrality(small_config(), mu_dagger=-1.0)
    assert len(rows) == 50
    assert set(rows[0]) == {"node", "score", "gamma_min", "gamma_max", "stable"}
    assert rows[0]["node"] == 1  # the hub drags the crowd hardest
    scores = [r["score"] for r in rows]
    assert scores == sorted(scores, reverse=True)
    assert all(r["stable"] for r in rows)
    assert all(r["gamma_min"] <= r["gamma_max"] for r in rows)


def test_sweep_truthful_opinion_scores_nothing():
    rows = sweep_centrality(small_config(), mu_dagger=1.0)
    assert all(abs(r["score"]) <= 1e-12 for r in rows)


def test_sweep_marks_unstable_nodes():
    # Without in-weight normalization the heavy hub drives the system
    # unstable; only removing the hub itself leaves a solvable block.
    rows = sweep_centrality(raw_weight_config(), mu_dagger=-1.0)
    stable = [r for r in rows if r["stable"]]
    unstable = [r for r in rows if not r["stable"]]
    assert [r["node"] for r in stable] == [1]
    assert len(unstable) == 49
    assert all(math.isnan(r["score"]) for r in unstable)
    assert all(math.isnan(r["gamma_min"]) for r in unstable)
    # Stable rows sort first; the unstable tail keeps node order.
    assert rows[0]["node"] == 1
    assert [r["node"] for r in rows[1:]] == list(range(2, 51))


def sweep_config(n: int, seed: int, delta_mu: float = 0.6, nu: float = 0.1):
    """S3 parameters on a seeded n-node graph, as the n = 200 sweep benchmark."""
    cfg = load_preset("S3")
    return replace(
        cfg,
        network=replace(cfg.network, n=n, seed=seed),
        policy=replace(cfg.policy, delta_mu=delta_mu, nu=nu),
    )


def counted(monkeypatch, name: str) -> list:
    """Record the calls to ``analysis.<name>`` made through the module."""
    calls = []
    original = getattr(analysis, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(analysis, name, counting)
    return calls


def per_node_sweep(monkeypatch, cfg, mu_dagger: float) -> list[dict]:
    """The sweep with one stubborn_equilibrium solve per node (the oracle)."""
    with monkeypatch.context() as m:
        m.setattr(analysis, "_sweep_from_inverse", lambda *args: None)
        return sweep_centrality(cfg, mu_dagger)


def assert_same_rows(fast: list[dict], slow: list[dict]) -> None:
    assert [(r["node"], r["stable"]) for r in fast] == [
        (r["node"], r["stable"]) for r in slow
    ]
    for f, s in zip(fast, slow):
        for key in ("score", "gamma_min", "gamma_max"):
            assert f[key] == pytest.approx(s[key], rel=0, abs=1e-14, nan_ok=True), (
                f["node"], key,
            )


def signed_graph(scale: float) -> SocialGraph:
    """A 40-node graph whose edge weights take both signs."""
    topology = gmop.generate_watts_strogatz(40, 3, 0.3, np.random.default_rng(4))
    w = gmop.assign_random_weights(topology, np.random.default_rng(5))
    return SocialGraph.from_edges(
        w.n, [(i, j, scale * (x - 0.5)) for i, j, x in w.edges()]
    )


@pytest.mark.parametrize(
    "seed,delta_mu,nu,mu_dagger",
    [(1, 0.05, 0.01, -1.0), (2, 0.3, 0.1, 2.5), (3, 0.6, 0.5, -1.0),
     (4, 0.9, 1.0, 0.0), (5, 1.0, 0.05, 3.0)],
)
def test_sweep_from_inverse_matches_per_node_oracle(
    monkeypatch, seed, delta_mu, nu, mu_dagger
):
    cfg = sweep_config(40, seed, delta_mu, nu)
    pinned = counted(monkeypatch, "stubborn_equilibrium")
    fast = sweep_centrality(cfg, mu_dagger)
    assert not pinned
    assert_same_rows(fast, per_node_sweep(monkeypatch, cfg, mu_dagger))
    assert len(pinned) == 40


def test_sweep_from_inverse_matches_oracle_on_signed_weights(monkeypatch):
    # Small signed weights still certify: the bound does not need A >= 0.
    monkeypatch.setattr(gmop.cli, "build_graph", lambda net: signed_graph(1.0))
    cfg = small_config()
    pinned = counted(monkeypatch, "stubborn_equilibrium")
    fast = sweep_centrality(cfg, -1.0)
    assert not pinned
    assert_same_rows(fast, per_node_sweep(monkeypatch, cfg, -1.0))


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_sweep_n200_matches_oracle(monkeypatch, seed):
    cfg = sweep_config(200, seed)
    fast = sweep_centrality(cfg, -1.0)
    slow = per_node_sweep(monkeypatch, cfg, -1.0)
    assert_same_rows(fast, slow)
    # The benchmark's re-derivation: relative 1e-12 on five fixed nodes.
    by_node = {r["node"]: r for r in slow}
    for r in fast:
        if r["node"] in (1, 50, 100, 150, 200):
            for key in ("score", "gamma_min", "gamma_max"):
                assert math.isclose(r[key], by_node[r["node"]][key], rel_tol=1e-12)


def test_certified_sweep_runs_no_eigensolve_and_no_pinned_solve(monkeypatch):
    cfg = sweep_config(200, 1)
    radii = counted(monkeypatch, "spectral_radius")
    pinned = counted(monkeypatch, "stubborn_equilibrium")
    rows = sweep_centrality(cfg, -1.0)
    assert len(rows) == 200 and all(r["stable"] for r in rows)
    assert (len(radii), len(pinned)) == (0, 0)
    # The per-node oracle passes the same certificate before its eigensolve.
    per_node_sweep(monkeypatch, cfg, -1.0)
    assert (len(radii), len(pinned)) == (0, 200)


@pytest.mark.parametrize("kind", ["raw", "signed", "nu0"])
def test_uncertified_sweep_solves_per_node(monkeypatch, kind):
    cfg = raw_weight_config() if kind == "raw" else small_config()
    if kind == "signed":
        monkeypatch.setattr(gmop.cli, "build_graph", lambda net: signed_graph(5.0))
    if kind == "nu0":
        cfg = replace(cfg, policy=replace(cfg.policy, nu=0.0))
    pinned = counted(monkeypatch, "stubborn_equilibrium")
    rows = sweep_centrality(cfg, -1.0)
    assert len(pinned) == len(rows)


def test_nu_zero_closed_class_stays_unstable(monkeypatch):
    # {1, 2, 3} has in-edges only from itself, so at nu = 0 (sigma_scalar = 1)
    # its block of A is stochastic: pinning node 4 leaves rho(A_sub) = 1.
    # Every row of |A| happens to sum to 1 - ulp in floating point.
    edges = [(1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2), (1, 4), (2, 4), (3, 4)]
    weights = [0.33, 0.18, 0.96, 0.16, 0.93, 0.56, 0.92, 0.78, 0.72]
    g = gmop.normalize_in_weights(
        SocialGraph.from_edges(4, [(i, j, w) for (i, j), w in zip(edges, weights)])
    )
    a, sigma_scalar = gmop.network._mean_operator(g, 0.3, 0.0, 0.1)
    assert sigma_scalar == 1.0
    assert float(abs(a).sum(axis=1).max()) < 1.0
    assert analysis._inf_norm_bound(a) >= 1.0
    with pytest.raises(InstabilityError):
        stubborn_equilibrium(g, 0.3, 0.0, 0.1, stubborn_id=4, mu_dagger=-1.0, theta=1.0)

    monkeypatch.setattr(gmop.cli, "build_graph", lambda net: g)
    cfg = small_config()
    cfg = replace(cfg, policy=replace(cfg.policy, delta_mu=0.3, nu=0.0))
    pinned = counted(monkeypatch, "stubborn_equilibrium")
    rows = sweep_centrality(cfg, -1.0)
    assert len(pinned) == 4
    assert [r["stable"] for r in rows] == [True, True, True, False]
    assert rows[-1]["node"] == 4 and math.isnan(rows[-1]["score"])


def test_complete_graph_symmetry_gives_equal_scores():
    n = 5
    w = (1.0 - np.eye(n)) / (n - 1)
    g = SocialGraph(n=n, weights=w)
    si = sigma_fixed_point(0.1, 0.1)
    scores = [
        centrality_score(g, 0.6, si, 0.1, node=s, mu_dagger=-1.0, theta=1.0)
        for s in range(1, n + 1)
    ]
    assert max(scores) - min(scores) <= 1e-10


def test_write_centrality_csv_format(tmp_path):
    rows = [
        {"node": 2, "score": 0.5, "gamma_min": 0.1, "gamma_max": 0.9, "stable": True},
        {"node": 1, "score": float("nan"), "gamma_min": float("nan"),
         "gamma_max": float("nan"), "stable": False},
    ]
    path = tmp_path / "centrality.csv"
    write_centrality_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "node,score,gamma_min,gamma_max,stable"
    assert lines[1].startswith("2,")
    assert lines[1].endswith(",true")
    assert lines[2].startswith("1,nan,")
    assert lines[2].endswith(",false")


# SHA-256 of centrality.csv for the raw-weight sweep: one stable row, then 49
# unstable rows of nan scores and false flags.
CENTRALITY_CSV_DIGEST = "e570241643de9a1e708f4621acd1ceac49e9ebf470792135ef8a084016ea2bc5"


def test_write_centrality_csv_matches_golden_digest(tmp_path):
    path = tmp_path / "centrality.csv"
    write_centrality_csv(sweep_centrality(raw_weight_config(), mu_dagger=-1.0), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CENTRALITY_CSV_DIGEST


# ---------------------------------------------------------------------------
# plot data


def test_emit_plot_data_files_and_reference_columns(tmp_path):
    result = run_experiment(small_config(), out_dir=tmp_path / "run")
    si = result.summary["sigma_inf"]
    paths = emit_plot_data(
        result.record,
        selection=list(range(1, 10)),
        out_dir=tmp_path / "plots",
        sigma_inf=si,
        mean_references=np.asarray(result.summary["limit_mean"]),
        trailing_window=40,
    )
    var_lines = paths["variance"].read_text().splitlines()
    assert var_lines[0] == "k,agent,mode,sigma,sigma_ref"
    # 80 steps x 9 agents x 2 modes rows after the header.
    assert len(var_lines) == 1 + 80 * 9 * 2
    refs = {line.split(",")[4] for line in var_lines[1:]}
    assert len(refs) == 1
    assert float(refs.pop()) == pytest.approx(si, rel=1e-15)

    mean_lines = paths["mean"].read_text().splitlines()
    assert mean_lines[0] == "k,agent,mode,mu,reference"
    assert {line.split(",")[4] for line in mean_lines[1:]} == {f"{1.0:.16e}"}

    eq_lines = paths["equilibrium"].read_text().splitlines()
    assert eq_lines[0] == "node,value"
    assert len(eq_lines) == 1 + 50


# SHA-256 of the three plot CSVs of an 80-step S1 run: once for an unsorted
# selection with a repeat and the theory's references, once with no mean
# references (a nan column).
PLOT_DATA_DIGESTS = {
    "unsorted-repeat": {
        "variance": "22ab94b45e4a248c3e191eba62792d43d839837513f405cf3885bad4a1cbecf2",
        "mean": "53da1f84306702cf38eaefcf96f3dce28a3a9c537d670b8fd3aec2785fbeb1f6",
        "equilibrium": "461657964f8a9430334f02b53d85244ead51b60d6d79bbb69f1faec95ccae6f3",
    },
    "no-references": {
        "variance": "07dd98ecd679609ba79698f7defcf0d2d643ca6869c4c0a252657cb0972a567f",
        "mean": "f4de7cddffc028790bd2b8b35af072fc4137f6a6c94a77d12fedb59b66c518cb",
        "equilibrium": "461657964f8a9430334f02b53d85244ead51b60d6d79bbb69f1faec95ccae6f3",
    },
}


def test_emit_plot_data_matches_golden_digests(tmp_path):
    result = run_experiment(small_config(), out_dir=tmp_path / "run")
    cases = {
        "unsorted-repeat": ([3, 1, 2, 3], np.asarray(result.summary["limit_mean"])),
        "no-references": ([50, 1], None),
    }
    for name, (selection, references) in cases.items():
        paths = emit_plot_data(
            result.record, selection, tmp_path / name,
            sigma_inf=result.summary["sigma_inf"], mean_references=references,
            trailing_window=40,
        )
        digests = {
            key: hashlib.sha256(path.read_bytes()).hexdigest()
            for key, path in paths.items()
        }
        assert digests == PLOT_DATA_DIGESTS[name], name


def test_emit_plot_data_rejects_bad_selection(tmp_path):
    result = run_experiment(small_config(), out_dir=tmp_path / "run")
    with pytest.raises(ConfigError):
        emit_plot_data(
            result.record, [], tmp_path / "plots",
            sigma_inf=0.16, mean_references=None, trailing_window=40,
        )
    with pytest.raises(ConfigError):
        emit_plot_data(
            result.record, [51], tmp_path / "plots",
            sigma_inf=0.16, mean_references=None, trailing_window=40,
        )


def test_parse_nodes_forms():
    assert _parse_nodes("1-9") == list(range(1, 10))
    assert _parse_nodes("1,3,7") == [1, 3, 7]
    assert _parse_nodes("2-4,9") == [2, 3, 4, 9]
    for bad in ("x", "5-2", "", "1..3"):
        with pytest.raises(ConfigError):
            _parse_nodes(bad)


# ---------------------------------------------------------------------------
# command line entry


def write_config(tmp_path, cfg) -> str:
    path = tmp_path / "config.json"
    save_config(cfg, path)
    return str(path)


def test_main_run_then_emit_plots(tmp_path, capsys):
    cfg_path = write_config(tmp_path, small_config())
    out = tmp_path / "run"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    assert main(["emit-plots", "--run", str(out), "--nodes", "1-3"]) == 0
    for name in ("variance_trajectories", "mean_trajectories", "equilibrium_map"):
        assert (out / "plots" / f"{name}.csv").exists()
    capsys.readouterr()


@pytest.mark.parametrize(
    "row", ["1,1,1,0.5,x,0.5,1.0", "1,1,1,0.5,0.1,0.5"], ids=["non-numeric", "short-row"]
)
def test_main_emit_plots_reports_malformed_trajectory(tmp_path, capsys, row):
    out = tmp_path / "run"
    run_experiment(small_config(horizon=2, window=1), out_dir=out)
    trajectory = out / "trajectory.csv"
    lines = trajectory.read_text().splitlines()
    trajectory.write_text("\n".join([*lines[:-1], row]) + "\n")
    assert main(["emit-plots", "--run", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {trajectory}: ")


def test_main_predict_stdout(tmp_path, capsys):
    assert main(["predict", "--preset", "S1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["sigma_inf"] == pytest.approx(0.161803, abs=1e-6)
    assert doc["limit_mean"] == [1.0] * 50


def test_main_predict_stubborn_summary_file(tmp_path, capsys):
    assert main(["predict", "--preset", "S3", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "summary.json").read_text())
    assert doc["gamma"] is not None
    assert doc["limit_mean"][0] == -1.0
    capsys.readouterr()


def test_main_requires_exactly_one_config_source(tmp_path, capsys):
    cfg_path = write_config(tmp_path, small_config())
    assert main(["run"]) == 1
    assert main(["run", "--config", cfg_path, "--preset", "S1"]) == 1
    capsys.readouterr()


def test_main_instability_exit_code(tmp_path, capsys):
    cfg_path = write_config(tmp_path, raw_weight_config())
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "--force" in err


@pytest.mark.parametrize(
    "command, pinned, line",
    [
        ("predict", None,
         "error: spectral radius 2.839289 >= 1; the configured dynamics diverge "
         "(row-sum residual 2.220e-15)."),
        ("predict", 2,
         "error: reduced-system spectral radius 2.835576 >= 1; the configured "
         "dynamics diverge (row-sum residual 2.220e-15)."),
        ("run", None,
         "error: spectral radius 2.839289 >= 1; the configured dynamics diverge "
         "(row-sum residual 2.220e-15). Pass --force to simulate anyway."),
        ("run", 2,
         "error: reduced-system spectral radius 2.835576 >= 1; the configured "
         "dynamics diverge (row-sum residual 2.220e-15). Pass --force to simulate "
         "anyway."),
    ],
    ids=["predict", "predict-pinned", "run", "run-pinned"],
)
def test_main_instability_message_names_the_gate(tmp_path, capsys, command, pinned,
                                                 line):
    # run and predict share one message, led by the radius that gated; only
    # run, which has --force, offers it.
    cfg = raw_weight_config()
    if pinned is not None:
        cfg = replace(cfg, stubborn=replace(cfg.stubborn, enabled=True, node=pinned))
    args = [command, "--config", write_config(tmp_path, cfg)]
    if command == "run":
        args += ["--out", str(tmp_path / "run")]
    assert main(args) == 2
    assert capsys.readouterr().err == line + "\n"


@pytest.mark.parametrize("flags, shown", [([], True), (["--log-level", "error"], False),
                                          (["-v", "INFO"], True)])
def test_main_log_level_shows_or_hides_guard_warning(tmp_path, caplog, capsys,
                                                     flags, shown):
    cfg_path = write_config(tmp_path, raw_weight_config(horizon=400, window=10))
    argv = flags + ["run", "--config", cfg_path, "--out", str(tmp_path / "run"),
                    "--force"]
    assert main(argv) == 0
    capsys.readouterr()
    guards = [r for r in caplog.records
              if r.name == "gmop.dynamics" and "weight degeneracies" in r.getMessage()]
    assert len(guards) == (1 if shown else 0)
    assert logging.getLogger("gmop").level == logging.NOTSET


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_divergent_run_warns_once_with_first_non_finite_step(tmp_path, caplog):
    # The forced raw-weight run's means overflow to inf and then NaN; numpy
    # raises no warning, and the one guard warning names where it started.
    with caplog.at_level(logging.WARNING, logger="gmop.dynamics"):
        result = run_experiment(raw_weight_config(horizon=1000), out_dir=tmp_path,
                                force=True)
    [message] = [r.getMessage() for r in caplog.records if r.name == "gmop.dynamics"]
    assert message.endswith("; means non-finite from step 683")
    finite = np.isfinite(result.record.means).all(axis=(1, 2))
    assert finite[:682].all() and not finite[682]


def test_main_seed_precedence(tmp_path, capsys, monkeypatch):
    cfg_path = write_config(tmp_path, small_config())

    def run_and_read_seed(args, out_name):
        out = tmp_path / out_name
        assert main(["run", "--config", cfg_path, "--out", str(out), *args]) == 0
        return load_config(out / "config.json").run.seed

    monkeypatch.setenv("GMOP_SEED", "99")
    assert run_and_read_seed([], "env") == 99
    assert run_and_read_seed(["--seed", "7"], "flag") == 7  # flag beats env
    monkeypatch.delenv("GMOP_SEED")
    assert run_and_read_seed([], "config") == 23
    capsys.readouterr()


def test_main_rejects_malformed_seed_env(tmp_path, capsys, monkeypatch):
    cfg_path = write_config(tmp_path, small_config())
    monkeypatch.setenv("GMOP_SEED", "abc")
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert "GMOP_SEED" in err


def test_module_entry_point_smoke():
    # The child imports the same gmop as this process, installed or not.
    src = str(Path(gmop.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "gmop", "predict", "--preset", "S2"],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["sigma_inf"] == pytest.approx(0.370156, abs=1e-6)
