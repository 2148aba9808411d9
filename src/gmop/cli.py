"""Command-line pipeline: generate, simulate, analyze, emit files.

Subcommands:

- ``run``: build the seeded network, simulate, and write the run artifacts
  (resolved config, graph edge list, trajectory CSV, theory summary JSON,
  empirics JSON) into the output directory.
- ``predict``: theory only, no simulation; print or write the summary JSON.
- ``sweep-centrality``: make each node stubborn in turn and rank nodes by
  how far they can drag the crowd's equilibrium from the truth.
- ``emit-plots``: turn a finished run directory into long-format plot CSVs.

A config is a strict JSON file or a preset name (S1..S4). ``--seed``
overrides the config's run seed; the network seed always comes from the
config so replicates share one network instance. The global
``-v/--log-level`` flag (default WARNING) sets which of gmop's log records,
such as the engine's one guard warning per run, reach stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import analysis
from .belief import GaussianMixtureBelief, ObservationModel
from .config import (
    NetworkConfig,
    PRESET_NAMES,
    SimulationConfig,
    child_rng,
    load_config,
    save_config,
)
from .dynamics import AgentState, TrajectoryRecord, simulate
from .errors import ConfigError, GmopError, InstabilityError
from .network import (
    SocialGraph,
    add_influencer_hub,
    assign_random_weights,
    generate_watts_strogatz,
    _write_table,
    normalize_in_weights,
    save_edge_list,
)

__all__ = [
    "build_graph",
    "initial_states",
    "run_experiment",
    "RunResult",
    "sweep_centrality",
    "emit_plot_data",
    "main",
]

#: Baseline slack added to every Monte Carlo tolerance.
TOLERANCE_EPS = 1e-6

LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")

log = logging.getLogger(__name__)


def build_graph(net: NetworkConfig) -> SocialGraph:
    """Run the seeded construction pipeline: topology, hub, weights, scaling.

    Each stage consumes its own labeled substream of network.seed, so e.g.
    turning the hub off does not change the lattice. The final normalization
    stage (on by default) rescales each node's in-weights to sum to one,
    which keeps the mean dynamics contractive for any delta_mu in (0, 1];
    disable it via network.normalize_in_weights to study raw-weight graphs.
    A disconnected final graph is allowed but logged as a diagnostic.
    """
    g = generate_watts_strogatz(
        net.n, net.k_ws, net.p_ws, child_rng(net.seed, "topology")
    )
    if net.hub_fraction > 0.0:
        g = add_influencer_hub(
            g, net.hub_node, net.hub_fraction, child_rng(net.seed, "hub")
        )
    g = assign_random_weights(g, child_rng(net.seed, "weights"))
    if net.normalize_in_weights:
        g = normalize_in_weights(g)
    if not g.is_connected():
        log.warning(
            "generated graph is disconnected (n=%d, k_ws=%d, p_ws=%g, hub=%g)",
            net.n, net.k_ws, net.p_ws, net.hub_fraction,
        )
    return g


def initial_states(
    config: SimulationConfig, rng: np.random.Generator
) -> list[AgentState]:
    """Draw initial beliefs: mode means uniform in their configured ranges.

    Draw order is fixed (mode-major: all agents' mode 1 means, then mode 2,
    ...) so results are reproducible. The stubborn agent consumes its draws
    like everyone else, then has its means overwritten with mu_dagger; that
    keeps the stream alignment identical between stubborn and plain runs of
    the same seed.
    """
    n = config.network.n
    model, stubborn = config.model, config.stubborn
    means = np.empty((n, model.modes))
    for i, (lo, hi) in enumerate(model.init_mean_ranges):
        means[:, i] = rng.uniform(lo, hi, size=n)
    pinned = -1 if stubborn is None else stubborn.node - 1
    if stubborn is not None:
        means[pinned] = stubborn.mu_dagger
    return [
        AgentState(
            belief=GaussianMixtureBelief(row, model.init_variances, model.init_weights),
            stubborn=j == pinned,
            stubborn_value=stubborn.mu_dagger if j == pinned else 0.0,
        )
        for j, row in enumerate(means.tolist())
    ]


def _write_json(doc: dict, path: Path) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n")


def _theory(config: SimulationConfig, g: SocialGraph):
    """:func:`analysis.theory` on a config: (report, prediction)."""
    stubborn = config.stubborn
    pin = () if stubborn is None else (stubborn.node, stubborn.mu_dagger)
    return analysis.theory(
        g, config.policy.delta_mu, config.policy.nu, config.model.sigma_y,
        config.model.theta, *pin,
    )


def _diverges(report: "analysis.StabilityReport", hint: str = "") -> InstabilityError:
    """The error for a gate radius of at least one, shared by run and predict."""
    gate_name, gate = report.gate
    return InstabilityError(
        f"{gate_name} {gate:.6f} >= 1; the configured dynamics diverge "
        f"(row-sum residual {report.row_sum_residual:.3e}).{hint}"
    )


def _build_empirics(
    config: SimulationConfig,
    record: TrajectoryRecord,
    prediction: "analysis.TheoryPrediction | None",
    sigma_inf: float,
) -> dict:
    window = config.run.trailing_window
    trailing = record.trailing_means(window)
    mixture = record.trailing_mixture_means(window)
    _, c = analysis.asymptotic_mean_cov(
        config.model.theta, config.model.sigma_y, sigma_inf, config.network.n
    )
    tolerance = 4.0 * math.sqrt(c / window) + TOLERANCE_EPS
    doc = {
        "trailing_window": window,
        "tolerance": tolerance,
        "trailing_means": [[float(x) for x in row] for row in trailing],
        "trailing_mixture_means": [float(x) for x in mixture],
        "predictions": None,
        "abs_deviations": None,
        "max_abs_deviation": None,
        "within_tolerance": None,
        "stats": {
            "variance_clamps": record.stats.variance_clamps,
            "weight_degeneracies": record.stats.weight_degeneracies,
        },
    }
    if prediction is not None:
        preds = np.asarray(prediction.limit_mean, dtype=float)
        deviations = np.max(np.abs(trailing - preds[:, None]), axis=1)
        doc["predictions"] = [float(x) for x in preds]
        doc["abs_deviations"] = [float(x) for x in deviations]
        doc["max_abs_deviation"] = float(np.max(deviations))
        doc["within_tolerance"] = bool(np.max(deviations) <= tolerance)
    return doc


@dataclass
class RunResult:
    """Everything a run produced, in memory and on disk."""

    out_dir: Path
    paths: dict
    summary: dict
    empirics: dict
    record: TrajectoryRecord
    graph: SocialGraph


def run_experiment(
    config: SimulationConfig,
    out_dir: str | Path | None = None,
    force: bool = False,
) -> RunResult:
    """Execute the full pipeline for one config and write its artifacts.

    Aborts before simulating when the configured system is unstable (the
    relevant spectral radius is at least one), unless force is set; a forced
    unstable run records null predictions.
    """
    g = build_graph(config.network)
    report, prediction = _theory(config, g)
    if prediction is None and not force:
        raise _diverges(report, " Pass --force to simulate anyway.")

    record = simulate(
        initial_states(config, child_rng(config.run.seed, "init")),
        g,
        config.policy,
        ObservationModel(theta=config.model.theta, sigma_y=config.model.sigma_y),
        config.run.horizon,
        child_rng(config.run.seed, "observations"),
        gain_mode=config.run.gain_mode,
        sigma_inf=report.sigma_inf if config.run.gain_mode == "steady" else None,
        observation=config.run.observation,
    )

    out = Path(out_dir) if out_dir is not None else Path(config.run.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    resolved = replace(config, run=replace(config.run, output_dir=str(out)))

    summary = analysis.build_summary(prediction, report)
    empirics = _build_empirics(resolved, record, prediction, report.sigma_inf)

    paths = {
        "config": out / "config.json",
        "graph": out / "graph.edges",
        "trajectory": out / "trajectory.csv",
        "summary": out / "summary.json",
        "empirics": out / "empirics.json",
    }
    save_config(resolved, paths["config"])
    save_edge_list(g, paths["graph"])
    record.to_csv(paths["trajectory"])
    _write_json(summary, paths["summary"])
    _write_json(empirics, paths["empirics"])
    return RunResult(
        out_dir=out, paths=paths, summary=summary, empirics=empirics,
        record=record, graph=g,
    )


def sweep_centrality(config: SimulationConfig, mu_dagger: float) -> list[dict]:
    """Score every node by making it stubborn with opinion mu_dagger.

    Returns rows sorted by descending score, unstable nodes last with NaN
    entries and stable=False; ties keep node order, so the rows are
    deterministic for a given config. The scores come from
    :func:`analysis.sweep`.
    """
    g = build_graph(config.network)
    sigma_inf = analysis.sigma_fixed_point(config.policy.nu, config.model.sigma_y)
    swept = analysis.sweep(
        g, config.policy.delta_mu, sigma_inf, config.model.sigma_y, mu_dagger,
        config.model.theta,
    )
    rows = [
        {"node": node, "score": score, "gamma_min": lo, "gamma_max": hi,
         "stable": stable}
        for node, (score, lo, hi, stable) in enumerate(
            zip(*(column.tolist() for column in swept)), start=1
        )
    ]
    rows.sort(
        key=lambda r: (not r["stable"], -r["score"] if r["stable"] else 0.0, r["node"])
    )
    return rows


def write_centrality_csv(rows: list[dict], path: str | Path) -> None:
    names = ("node", "score", "gamma_min", "gamma_max")
    columns = [[r[name] for r in rows] for name in names]
    columns.append(["true" if r["stable"] else "false" for r in rows])
    _write_table(
        path, "node,score,gamma_min,gamma_max,stable", "%d,%.16e,%.16e,%.16e,%s",
        columns,
    )


def emit_plot_data(
    record: TrajectoryRecord,
    selection: list[int],
    out_dir: str | Path,
    *,
    sigma_inf: float,
    mean_references: np.ndarray | None,
    trailing_window: int,
) -> dict:
    """Write long-format plot CSVs for a finished trajectory.

    Emits variance trajectories (with the fixed-point reference), mean
    trajectories (with the per-agent limit reference), and the per-node
    equilibrium map from trailing mixture means.
    """
    if not selection:
        raise ConfigError("selection must name at least one agent")
    for agent in selection:
        if not (1 <= agent <= record.n_agents):
            raise ConfigError(
                f"selection agent {agent} outside [1, {record.n_agents}]"
            )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    equilibrium = record.trailing_mixture_means(trailing_window)
    chosen = np.asarray(selection) - 1
    refs = math.nan if mean_references is None else (
        np.asarray(mean_references, dtype=float)[chosen, None]
    )
    k, pick, mode = np.indices(
        (record.n_steps, chosen.size, record.n_modes), sparse=True
    )
    ids = (k + 1, chosen[pick] + 1, mode + 1)
    paths = {
        "variance": out / "variance_trajectories.csv",
        "mean": out / "mean_trajectories.csv",
        "equilibrium": out / "equilibrium_map.csv",
    }
    _write_table(
        paths["variance"], "k,agent,mode,sigma,sigma_ref", "%d,%d,%d,%.16e,%.16e",
        (*ids, record.variances[:, chosen], sigma_inf),
    )
    _write_table(
        paths["mean"], "k,agent,mode,mu,reference", "%d,%d,%d,%.16e,%.16e",
        (*ids, record.means[:, chosen], refs),
    )
    _write_table(
        paths["equilibrium"], "node,value", "%d,%.16e",
        (np.arange(1, record.n_agents + 1), equilibrium),
    )
    return paths


def _parse_nodes(spec: str, n: int) -> list[int]:
    """Parse a selection of agents in [1, n] like '1-9' or '1,3,7' (ranges and
    ids mix; an id is a range of one). Each part is bounded before it expands."""
    nodes: list[int] = []
    for part in filter(None, (p.strip() for p in spec.split(","))):
        lo_s, dash, hi_s = part.partition("-")
        try:
            lo, hi = int(lo_s), int(hi_s if dash else lo_s)
        except ValueError:
            raise ConfigError(f"bad node selection {part!r}") from None
        if hi < lo:
            raise ConfigError(f"bad node range {part!r}")
        if lo < 1 or hi > n:
            raise ConfigError(f"node selection {part!r} outside [1, {n}]")
        nodes.extend(range(lo, hi + 1))
    if not nodes:
        raise ConfigError(f"empty node selection {spec!r}")
    return nodes


def _resolve_config(args: argparse.Namespace) -> SimulationConfig:
    if bool(args.config) == bool(args.preset):
        raise ConfigError("pass exactly one of --config PATH or --preset NAME")
    config = load_config(args.config if args.config else args.preset)
    seed = getattr(args, "seed", None)
    if seed is not None:  # RunConfig rejects a negative seed
        config = replace(config, run=replace(config.run, seed=seed))
    return config


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to a strict-schema JSON config")
    parser.add_argument(
        "--preset", choices=PRESET_NAMES, help="standard setting S1..S4"
    )


def _cmd_run(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    result = run_experiment(config, out_dir=args.out, force=args.force)
    for name in ("config", "graph", "trajectory", "summary", "empirics"):
        print(f"{name}: {result.paths[name]}")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    g = build_graph(config.network)
    report, prediction = _theory(config, g)
    if prediction is None:
        raise _diverges(report)
    summary = analysis.build_summary(prediction, report)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(summary, out / "summary.json")
        print(f"summary: {out / 'summary.json'}")
    else:
        print(json.dumps(summary, indent=2))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    rows = sweep_centrality(config, args.mu_dagger)
    out = Path(args.out) if args.out else Path(config.run.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "centrality.csv"
    write_centrality_csv(rows, path)
    print(f"centrality: {path}")
    return 0


def _cmd_emit_plots(args: argparse.Namespace) -> int:
    run_dir = Path(args.run)
    config_path = run_dir / "config.json"
    summary_path = run_dir / "summary.json"
    trajectory_path = run_dir / "trajectory.csv"
    for path in (config_path, summary_path, trajectory_path):
        if not path.exists():
            raise ConfigError(f"{run_dir} is not a run directory (missing {path.name})")
    config = load_config(config_path)
    record = TrajectoryRecord.from_csv(trajectory_path)
    try:
        summary = json.loads(summary_path.read_text())
        sigma_inf = float(summary["sigma_inf"])
    except ValueError as exc:  # not JSON, or sigma_inf not a number
        raise ConfigError(f"{summary_path}: {exc}") from None
    except (KeyError, TypeError):
        raise ConfigError(f"{summary_path}: no numeric sigma_inf") from None
    references = summary.get("limit_mean")
    if references is not None and not (
        isinstance(references, list) and len(references) == record.n_agents
        and all(type(x) in (int, float) for x in references)
    ):
        raise ConfigError(
            f"{summary_path}: limit_mean is neither null nor a list of "
            f"{record.n_agents} numbers"
        )
    if args.nodes is None:
        selection = list(range(1, min(9, record.n_agents) + 1))
    else:
        selection = _parse_nodes(args.nodes, record.n_agents)
    paths = emit_plot_data(
        record,
        selection,
        run_dir / "plots",
        sigma_inf=sigma_inf,
        mean_references=None if references is None else np.asarray(references),
        trailing_window=config.run.trailing_window,
    )
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


@contextlib.contextmanager
def _log_level(level: str):
    """Pass gmop's log records at `level` and above for one command.

    A program that already handles gmop's records keeps its handlers; else
    one stderr handler is added for the command (logging's last-resort
    handler, the only one otherwise, drops records below WARNING).
    """
    logger = logging.getLogger("gmop")
    previous = logger.level
    handler = None
    if not logger.hasHandlers():
        handler = logging.StreamHandler()
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        logger.addHandler(handler)
    logger.setLevel(level)
    try:
        yield
    finally:
        logger.setLevel(previous)
        if handler is not None:
            logger.removeHandler(handler)


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise ConfigError, so they exit 1 like any
    other input error; exit 2 is left to unstable dynamics."""

    def error(self, message: str):
        raise ConfigError(message)


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(
        prog="gmop",
        description=(
            "Simulate multi-modal opinion dynamics on social networks and "
            "check the runs against their closed-form predictions."
        ),
    )
    parser.add_argument(
        "-v", "--log-level", default="WARNING", type=str.upper, choices=LOG_LEVELS,
        help="report gmop's log records at this level and above (default: WARNING)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate one config and write artifacts")
    _add_config_args(run_p)
    run_p.add_argument("--seed", type=int, help="override the run seed")
    run_p.add_argument("--out", help="output directory (default: config run.output_dir)")
    run_p.add_argument(
        "--force", action="store_true",
        help="simulate even when the configured dynamics are unstable",
    )

    predict_p = sub.add_parser("predict", help="closed-form predictions only")
    _add_config_args(predict_p)
    predict_p.add_argument("--seed", type=int, help="override the run seed")
    predict_p.add_argument("--out", help="write summary.json here instead of stdout")

    sweep_p = sub.add_parser(
        "sweep-centrality", help="rank nodes by stubborn-agent leverage"
    )
    _add_config_args(sweep_p)
    sweep_p.add_argument("--seed", type=int, help="override the run seed")
    sweep_p.add_argument(
        "--mu-dagger", type=float, required=True, dest="mu_dagger",
        help="stubborn opinion to plant at each node in turn",
    )
    sweep_p.add_argument("--out", help="output directory")

    plots_p = sub.add_parser("emit-plots", help="write plot CSVs for a run directory")
    plots_p.add_argument("--run", required=True, help="run directory to read")
    plots_p.add_argument(
        "--nodes", help="agent selection, e.g. '1-9' or '1,3,7' (default: first 9)"
    )

    commands = {
        "run": _cmd_run,
        "predict": _cmd_predict,
        "sweep-centrality": _cmd_sweep,
        "emit-plots": _cmd_emit_plots,
    }
    try:
        args = parser.parse_args(argv)
        with _log_level(args.log_level):
            return commands[args.command](args)
    except InstabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GmopError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
