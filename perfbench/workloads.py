"""The four gmop workloads: generated configs, one op each, and output checks.

A workload is built from the seed in its constructor (the set-up that
``setup_s`` times). ``op(kind, out_dir)`` is the timed unit of work and
returns what the check needs; ``check(kind, output)`` runs outside the timed
region and returns a list of problems, empty when the output is correct.
``corrupt(kind, output)`` damages an output so the self-test can confirm the
check notices.

Why these four, and what each leaves out:

- presets: ``gmop run``, ``emit-plots`` and ``predict`` on S1..S4. Writing and
  re-reading the ~20 MB trajectory CSV dominates; the only workload with an
  artifact write and read path, and the one with the duplicate eigensolves.
  Run by name only: BENCHMARK.json does not gate it, because other tenants
  of a shared host move its memory-bound op time by more than the bound.
- scale-n2000: the README library path at n = 2000. The dense n x n mixing
  matrices dominate and n > DENSE_EIG_LIMIT takes the iterative eigensolve.
  No CSV I/O, no sweep.
- sweep-n200: ``gmop sweep-centrality`` at n = 200, N dense eigensolves plus
  N solves. No engine, no trajectory I/O.
- small-long: ``simulate`` at n = 50 for 20000 steps with geometric weights.
  The per-step Python work and the belief kernels dominate; n x n products
  are cheap, so per-call overheads of a sparse product would show here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy.sparse.linalg  # noqa: F401  gmop imports it lazily for n > DENSE_EIG_LIMIT

import gmop
from gmop import analysis, cli
from gmop.config import load_preset, save_config

PRESETS = ("S1", "S2", "S3", "S4")
RUN_ARTIFACTS = ("config.json", "graph.edges", "trajectory.csv", "summary.json",
                 "empirics.json")
MU_DAGGER = -1.0
#: Relative agreement required between a re-derived and a written value.
REL_TOL = 1e-12
#: Replay tolerance: the plain update sums in another order than the engine.
REPLAY_RTOL = 1e-9
REPLAY_ATOL = 1e-12
#: Engine steps replayed from the start of the trajectory (the last one is too).
REPLAY_STEPS = 5


class OpFailed(Exception):
    """A gmop command returned a nonzero exit code."""


def _gmop(argv: list[str]) -> str:
    """Run one gmop command in this process; return what it printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise OpFailed(f"gmop {' '.join(argv)} exited with {code}")
    return buf.getvalue()


def _line_count(path: Path) -> int:
    with open(path, "rb") as f:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: f.read(1 << 20), b""))


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL)


class Presets:
    """gmop run, emit-plots and predict for one preset per op, S1..S4 in turn."""

    name = "presets"
    work_unit = "trajectory rows written + read"
    kinds = PRESETS

    def __init__(self, seed: int, workdir: Path, smoke: bool) -> None:
        self.seed = seed
        self.configs = {}
        for preset in PRESETS:
            cfg = load_preset(preset)
            if smoke:
                cfg = replace(cfg, run=replace(cfg.run, horizon=400, trailing_window=200))
            path = workdir / f"{preset}.json"
            save_config(cfg, path)
            self.configs[preset] = (cfg, path)
        self._edges: dict[str, int] = {}
        self.tolerance_misses = 0

    def _rows(self, preset: str) -> int:
        cfg = self.configs[preset][0]
        return cfg.run.horizon * cfg.network.n * cfg.model.modes

    def work(self, preset: str) -> int:
        return 2 * self._rows(preset)

    def op(self, preset: str, out: Path):
        path = str(self.configs[preset][1])
        run_dir = out / "run"
        seed = str(self.seed)
        _gmop(["run", "--config", path, "--seed", seed, "--out", str(run_dir)])
        _gmop(["emit-plots", "--run", str(run_dir)])
        predicted = _gmop(["predict", "--config", path, "--seed", seed])
        return run_dir, predicted

    def check(self, preset: str, output) -> list[str]:
        run_dir, predicted = output
        cfg = self.configs[preset][0]
        if preset not in self._edges:
            self._edges[preset] = cli.build_graph(cfg.network).n_edges
        n, modes, horizon = cfg.network.n, cfg.model.modes, cfg.run.horizon
        plotted = horizon * min(9, n) * modes
        expected_lines = {
            "config.json": None,
            "graph.edges": 1 + self._edges[preset],
            "trajectory.csv": 1 + self._rows(preset),
            "summary.json": None,
            "empirics.json": None,
            "plots/variance_trajectories.csv": 1 + plotted,
            "plots/mean_trajectories.csv": 1 + plotted,
            "plots/equilibrium_map.csv": 1 + n,
        }
        problems = []
        for rel, lines in expected_lines.items():
            path = run_dir / rel
            if not path.is_file():
                problems.append(f"{rel} missing")
            elif lines is not None and _line_count(path) != lines:
                problems.append(f"{rel} has {_line_count(path)} lines, expected {lines}")
        if problems:
            return problems

        if (run_dir / "summary.json").read_text() != predicted:
            problems.append("summary.json differs from the gmop predict output")
        summary = json.loads(predicted)
        empirics = json.loads((run_dir / "empirics.json").read_text())
        if empirics["predictions"] != summary["limit_mean"]:
            problems.append("empirics.json predictions differ from summary.json limit_mean")
        if empirics["stats"] != {"variance_clamps": 0, "weight_degeneracies": 0}:
            problems.append(f"engine guards fired: {empirics['stats']}")
        # The plot CSVs come from the trajectory read back from disk, empirics
        # from the one in memory, so equal values mean the CSV round-trips.
        eq_map = (run_dir / "plots/equilibrium_map.csv").read_text().splitlines()[1:]
        read_back = [float(line.split(",")[1]) for line in eq_map]
        if not all(map(_close, read_back, empirics["trailing_mixture_means"])):
            problems.append("equilibrium_map.csv disagrees with empirics.json")
        if empirics["within_tolerance"] is not True:
            self.tolerance_misses += 1
        return problems

    def corrupt(self, preset: str, output) -> None:
        summary = output[0] / "summary.json"
        summary.write_text(summary.read_text().replace('"sigma_inf": ', '"sigma_inf": -', 1))


class SweepN200:
    """gmop sweep-centrality on S3 parameters at n = 200 (n = 20 in smoke mode)."""

    name = "sweep-n200"
    work_unit = "swept nodes"
    kinds = ("sweep",)

    def __init__(self, seed: int, workdir: Path, smoke: bool) -> None:
        self.seed = seed
        base = load_preset("S3")
        self.cfg = replace(base, network=replace(base.network, n=20 if smoke else 200, seed=seed))
        self.path = workdir / "sweep.json"
        save_config(self.cfg, self.path)
        self._graph = None

    def work(self, kind: str) -> int:
        return self.cfg.network.n

    def op(self, kind: str, out: Path) -> Path:
        _gmop(["sweep-centrality", "--config", str(self.path), "--seed", str(self.seed),
               "--mu-dagger", str(MU_DAGGER), "--out", str(out)])
        return out / "centrality.csv"

    def check(self, kind: str, path: Path) -> list[str]:
        n = self.cfg.network.n
        lines = path.read_text().splitlines()
        if lines[0] != "node,score,gamma_min,gamma_max,stable":
            return [f"centrality.csv header {lines[0]!r}"]
        rows = {}
        for line in lines[1:]:
            node, score, lo, hi, stable = line.split(",")
            rows[int(node)] = (float(score), float(lo), float(hi), stable)
        if sorted(rows) != list(range(1, n + 1)):
            return [f"centrality.csv has {len(rows)} rows for {n} nodes"]
        problems = [f"node {k} not stable" for k, row in rows.items() if row[3] != "true"]

        cfg = self.cfg
        if self._graph is None:
            self._graph = cli.build_graph(cfg.network)
        sigma_inf = analysis.sigma_fixed_point(cfg.policy.nu, cfg.model.sigma_y)
        theta = cfg.model.theta
        for node in sorted({1, n // 4, n // 2, 3 * n // 4, n}):
            gamma = analysis.stubborn_equilibrium(
                self._graph, cfg.policy.delta_mu, sigma_inf, cfg.model.sigma_y,
                node, MU_DAGGER, theta,
            )
            expected = (float(np.mean(np.abs(gamma - theta))), float(np.min(gamma)),
                        float(np.max(gamma)))
            if not all(map(_close, rows[node][:3], expected)):
                problems.append(f"node {node}: wrote {rows[node][:3]}, re-derived {expected}")
        return problems

    def corrupt(self, kind: str, path: Path) -> None:
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines[1:], start=1):
            node, score, rest = line.split(",", 2)
            if node == "1":
                lines[i] = f"{node},{float(score) * (1 + 1e-9):.16e},{rest}"
        path.write_text("\n".join(lines) + "\n")


class EngineWorkload:
    """The README library path: build_graph, optionally stability_report, simulate."""

    work_unit = "agent-steps"
    kinds = ("simulate",)

    def __init__(self, name: str, seed: int, *, n: int, horizon: int,
                 weight_policy: str, report: bool) -> None:
        self.name = name
        base = load_preset("S1")
        self.cfg = replace(
            base,
            network=replace(base.network, n=n, seed=seed),
            policy=replace(base.policy, weight_policy=weight_policy),
            run=replace(base.run, horizon=horizon,
                        trailing_window=min(horizon, base.run.trailing_window), seed=seed),
        )
        self.report = report
        self.obs = gmop.ObservationModel(theta=self.cfg.model.theta,
                                         sigma_y=self.cfg.model.sigma_y)

    def work(self, kind: str) -> int:
        return self.cfg.network.n * self.cfg.run.horizon

    def op(self, kind: str, out: Path):
        cfg = self.cfg
        g = gmop.build_graph(cfg.network)
        report = None
        if self.report:
            sigma_inf = gmop.sigma_fixed_point(cfg.policy.nu, cfg.model.sigma_y)
            report = gmop.stability_report(g, cfg.policy.delta_mu, sigma_inf, cfg.model.sigma_y)
        states = gmop.initial_states(cfg, gmop.child_rng(cfg.run.seed, "init"))
        record = gmop.simulate(states, g, cfg.policy, self.obs, cfg.run.horizon,
                               gmop.child_rng(cfg.run.seed, "observations"))
        return g, report, states, record

    def check(self, kind: str, output) -> list[str]:
        g, report, states, record = output
        problems = []
        if report is not None and not report.conditions["spectral_ok"]:
            problems.append(f"stability report: {report.conditions}")
        if record.stats.variance_clamps or record.stats.weight_degeneracies:
            problems.append(f"engine guards fired: {record.stats}")
        horizon = self.cfg.run.horizon
        if record.means.shape != (horizon, g.n, self.cfg.model.modes):
            return problems + [f"trajectory shape {record.means.shape}"]
        start = tuple(np.array([getattr(s.belief, f) for s in states])
                      for f in ("means", "variances", "weights"))
        for k in sorted(set(range(min(REPLAY_STEPS, horizon))) | {horizon - 1}):
            prev = start if k == 0 else (record.means[k - 1], record.variances[k - 1],
                                         record.weights[k - 1])
            want = replay_step(*prev, float(record.observations[k]), g, self.cfg)
            got = (record.means[k], record.variances[k], record.weights[k])
            for label, w, v in zip(("means", "variances", "weights"), want, got):
                if not np.allclose(v, w, rtol=REPLAY_RTOL, atol=REPLAY_ATOL):
                    problems.append(f"step {k + 1} {label} disagree with the replay "
                                    f"by {np.max(np.abs(v - w)):.3e}")
        return problems

    def corrupt(self, kind: str, output) -> None:
        output[3].means[1, 0, 0] += 1e-6


def replay_step(means, variances, weights, y, g, cfg):
    """One engine step written out plainly from the README's update rule.

    Bayes per mode with the exact gain, then every agent moves towards its
    in-neighbours: x + rate * (W^T x - d * x), with d the in-weight sums.
    Geometric weights mix the log weights with rate one and renormalise.
    """
    sigma_y, policy = cfg.model.sigma_y, cfg.policy
    w_t, d = g.weights.T, g.in_weight_sums()[:, None]

    def mix(x, rate):
        return x + rate * (w_t @ x - d * x)

    def normalise(log_w):
        p = np.exp(log_w - log_w.max(axis=1, keepdims=True))
        return p / p.sum(axis=1, keepdims=True)

    post_means = means + variances / (variances + sigma_y) * (y - means)
    post_vars = variances * sigma_y / (variances + sigma_y)
    post_weights = normalise(np.log(weights) - 0.5 * np.log(2 * np.pi * variances)
                             - (y - means) ** 2 / (2 * variances))
    new_weights = post_weights
    if policy.weight_policy == "geometric":
        new_weights = normalise(mix(np.log(np.maximum(post_weights, 1e-300)), 1.0))
    return (mix(post_means, policy.delta_mu),
            mix(post_vars, policy.delta_sigma) + policy.nu,
            new_weights)


def make(name: str, seed: int, workdir: Path, smoke: bool):
    """Build workload ``name`` from ``seed``; smoke mode shrinks every size."""
    if name == "presets":
        return Presets(seed, workdir, smoke)
    if name == "sweep-n200":
        return SweepN200(seed, workdir, smoke)
    if name == "scale-n2000":
        return EngineWorkload(name, seed, n=100 if smoke else 2000,
                              horizon=50 if smoke else 500,
                              weight_policy="identity", report=True)
    if name == "small-long":
        return EngineWorkload(name, seed, n=50, horizon=500 if smoke else 20000,
                              weight_policy="geometric", report=False)
    raise ValueError(f"unknown workload {name!r}")


def artifacts_identical(workdir: Path, digests: dict[str, str]) -> int:
    """Count the S1..S4 run artifacts, at the preset seed, matching ``digests``.

    ``gmop run --preset S`` writes to its default ``runs/S``, which config.json
    records, so it runs with ``workdir`` as the working directory.
    """
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for preset in PRESETS:
            _gmop(["run", "--preset", preset])
    finally:
        os.chdir(cwd)
    matches = 0
    for preset in PRESETS:
        for artifact in RUN_ARTIFACTS:
            data = (workdir / "runs" / preset / artifact).read_bytes()
            matches += hashlib.sha256(data).hexdigest() == digests.get(f"{preset}/{artifact}")
    return matches
