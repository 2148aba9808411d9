"""Per-step simulation engine.

One loop in :func:`simulate` is the only implementation of a step, and
:func:`step` is one :func:`simulate` step. Each step (1) takes one noisy
observation of the source, (2) folds it into every agent's mixture belief
with the Bayesian update, (3) mixes means, variances, and weights with
in-neighbors through the social policies, all reading post-Bayes values only
(Jacobi-style, never partially updated neighbors), and (4) overwrites
stubborn agents' mode means with their pinned value. The post-Bayes means,
variances and log weights are stacked into one preallocated buffer and mixed
by one product with a block-diagonal CSR operator, built once per run from
the policies' mixing matrices. Every observation is drawn before the loop in
one call, which leaves the generator where per-step draws would. State is
stacked into (agents, modes) arrays; the engine is deterministic given the
generator passed in. Variances that mixing drives non-positive are clamped
to ``VARIANCE_FLOOR``; the clamps and the weight degeneracies are counted in
``RunStats`` and reported in one warning per run, which also names the first
step whose means are not finite. The step loop runs under one ``np.errstate``,
so a diverging run raises no NumPy overflow warnings of its own.

Two gain modes exist. The default "exact" mode runs the full per-mode gains
and variance recursion. The "steady" mode freezes every variance at the
fixed point sigma_inf and uses the constant gain sigma_inf/(sigma_inf +
sigma_y), which makes one engine step on means exactly equal to the linear
map A mu + B 1 y of the matrix form.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy import sparse

from .belief import (
    GaussianMixtureBelief,
    ObservationModel,
    _bayes_arrays_exact,
    _bayes_arrays_steady,
    _normalize_log_weights,
)
from .errors import InvalidParameterError
from .network import SocialGraph, _mixing_matrix, _write_table

__all__ = [
    "PolicyConfig",
    "AgentState",
    "RunStats",
    "TrajectoryRecord",
    "step",
    "simulate",
]

log = logging.getLogger(__name__)

#: Variances produced by the social step are clamped up to this floor.
VARIANCE_FLOOR = 1e-12

#: Weights below this floor enter the geometric policy's log transform at the floor.
GEOMETRIC_WEIGHT_FLOOR = 1e-300

#: Recorded weights must sum to 1 per agent within this tolerance.
SIMPLEX_TOL = 1e-10

_CSV_HEADER = "k,agent,mode,mu,sigma,alpha,y"

WEIGHT_POLICIES = ("identity", "geometric")
GAIN_MODES = ("exact", "steady")
OBSERVATIONS = ("shared", "independent")


@dataclass(frozen=True)
class PolicyConfig:
    """Social mixing rates and the weight policy selector.

    delta_mu scales mean mixing, delta_sigma scales variance mixing, nu is
    the constant variance inflation added every step, and weight_policy picks
    how mode weights react to neighbors: "identity" leaves them to the
    Bayesian update alone, "geometric" mixes their logs with edge weights as
    exponents.
    """

    delta_mu: float
    delta_sigma: float
    nu: float
    weight_policy: str = "identity"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.delta_mu) and self.delta_mu > 0.0):
            raise InvalidParameterError(
                f"delta_mu must be positive, got {self.delta_mu}"
            )
        if not (math.isfinite(self.delta_sigma) and self.delta_sigma >= 0.0):
            raise InvalidParameterError(
                f"delta_sigma must be >= 0, got {self.delta_sigma}"
            )
        if not (math.isfinite(self.nu) and self.nu >= 0.0):
            raise InvalidParameterError(f"nu must be >= 0, got {self.nu}")
        if self.weight_policy not in WEIGHT_POLICIES:
            raise InvalidParameterError(
                f"weight_policy must be one of {WEIGHT_POLICIES}, "
                f"got {self.weight_policy!r}"
            )


@dataclass(frozen=True)
class AgentState:
    """One agent's belief plus its stubbornness setting."""

    belief: GaussianMixtureBelief
    stubborn: bool = False
    stubborn_value: float = 0.0

    def __post_init__(self) -> None:
        if self.stubborn and not math.isfinite(self.stubborn_value):
            raise InvalidParameterError("stubborn_value must be finite")


@dataclass
class RunStats:
    """Diagnostics accumulated over a run."""

    variance_clamps: int = 0
    weight_degeneracies: int = 0


@dataclass
class TrajectoryRecord:
    """Everything a run produced, stacked by step.

    means, variances, weights have shape (horizon, n_agents, n_modes) and
    hold post-social-step values; step k of the run (1-based in the CSV) is
    row k-1. observations has shape (horizon,) for a shared draw per step or
    (horizon, n_agents) for independent draws.
    """

    means: np.ndarray
    variances: np.ndarray
    weights: np.ndarray
    observations: np.ndarray
    stats: RunStats = field(default_factory=RunStats)

    @property
    def n_steps(self) -> int:
        return self.means.shape[0]

    @property
    def n_agents(self) -> int:
        return self.means.shape[1]

    @property
    def n_modes(self) -> int:
        return self.means.shape[2]

    def trailing_means(self, window: int) -> np.ndarray:
        """Per-agent per-mode average of means over the last `window` steps."""
        if not (1 <= window <= self.n_steps):
            raise InvalidParameterError(
                f"window must lie in [1, {self.n_steps}], got {window}"
            )
        return self.means[-window:].mean(axis=0)

    def trailing_mixture_means(self, window: int) -> np.ndarray:
        """Per-agent average of the weight-mixed mean over the last `window` steps."""
        if not (1 <= window <= self.n_steps):
            raise InvalidParameterError(
                f"window must lie in [1, {self.n_steps}], got {window}"
            )
        mixed = np.sum(self.weights[-window:] * self.means[-window:], axis=2)
        return mixed.mean(axis=0)

    def validate(self) -> None:
        """Check recorded-shape consistency and the per-step weight simplex."""
        shape = self.means.shape
        if self.variances.shape != shape or self.weights.shape != shape:
            raise InvalidParameterError("trajectory arrays disagree on shape")
        sums = self.weights.sum(axis=2)
        worst = float(np.max(np.abs(sums - 1.0), initial=0.0))
        if worst > SIMPLEX_TOL:
            raise InvalidParameterError(
                f"recorded weights leave the simplex by {worst:.3e}"
            )

    def to_csv(self, path: str | Path) -> None:
        """Write the long-format trajectory: k,agent,mode,mu,sigma,alpha,y.

        Rows run over steps, then agents, then modes, with 1-based ids; values
        print with 17 significant digits.
        """
        k, agent, mode = (i + 1 for i in np.indices(self.means.shape, sparse=True))
        y = self.observations.reshape(self.n_steps, -1, 1)  # (t, 1|n, 1)
        _write_table(
            path, _CSV_HEADER, "%d,%d,%d,%.16e,%.16e,%.16e,%.16e",
            (k, agent, mode, self.means, self.variances, self.weights, y),
        )

    @classmethod
    def from_csv(cls, path: str | Path) -> "TrajectoryRecord":
        """Read a trajectory written by :meth:`to_csv`.

        Needs the full (k, agent, mode) grid in the written row order, with
        one y per (k, agent); reads non-finite values as written. Observations
        equal across agents read back as shared, shape (t,): so does a
        one-agent record with independent observations, which the format
        cannot tell apart.
        """
        with open(path) as f:
            header = f.readline().rstrip("\n")
            if header != _CSV_HEADER:
                raise InvalidParameterError(f"{path}: unexpected header {header!r}")
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                try:
                    table = np.loadtxt(f, delimiter=",", ndmin=2, usecols=range(7))
                except ValueError as exc:
                    raise InvalidParameterError(f"{path}: {exc}") from exc
        if table.size == 0:
            raise InvalidParameterError(f"{path}: empty trajectory")
        # The last row holds (t, n, m); each row must sit where to_csv puts it.
        shape = tuple(int(x) for x in table[-1, :3] if 1 <= x <= len(table))
        if (len(shape) != 3 or math.prod(shape) != len(table) or not np.array_equal(
                table[:, :3], np.indices(shape).reshape(3, -1).T + 1)):
            raise InvalidParameterError(f"{path}: incomplete trajectory grid")
        means, variances, weights, y = table[:, 3:].T.reshape(4, *shape)
        obs = y[:, :, 0]
        if not np.array_equal(y, np.broadcast_to(obs[..., None], shape), equal_nan=True):
            raise InvalidParameterError(f"{path}: y differs across one agent's modes")
        observations = obs[:, 0] if np.all(obs == obs[:, :1]) else obs
        return cls(
            means=means, variances=variances, weights=weights,
            observations=observations,
        )


def _states_to_arrays(
    states: Sequence[AgentState],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    if not states:
        raise InvalidParameterError("need at least one agent")
    m = states[0].belief.n_modes
    if any(s.belief.n_modes != m for s in states):
        raise InvalidParameterError("all agents must have the same mode count")
    means = np.array([s.belief.means for s in states], dtype=float)
    variances = np.array([s.belief.variances for s in states], dtype=float)
    weights = np.array([s.belief.weights for s in states], dtype=float)
    stubborn = np.array([s.stubborn for s in states], dtype=bool)
    values = np.array([s.stubborn_value for s in states], dtype=float)
    return means, variances, weights, stubborn, values


def step(
    states: Sequence[AgentState],
    g: SocialGraph,
    policy: PolicyConfig,
    obs: ObservationModel,
    rng: np.random.Generator,
    *,
    gain_mode: str = "exact",
    sigma_inf: float | None = None,
    noise_free: bool = False,
) -> tuple[list[AgentState], float]:
    """Advance every agent one step; returns (new states, observation).

    This is one :func:`simulate` step with a shared observation, so the
    order, the gain modes and the guards are those of :func:`simulate`.
    """
    rec = simulate(
        states, g, policy, obs, 1, rng,
        gain_mode=gain_mode, sigma_inf=sigma_inf, noise_free=noise_free,
    )
    new_states = [
        replace(
            s,
            belief=GaussianMixtureBelief(
                rec.means[0, j], rec.variances[0, j], rec.weights[0, j]
            ),
        )
        for j, s in enumerate(states)
    ]
    return new_states, float(rec.observations[0])


def simulate(
    states: Sequence[AgentState],
    g: SocialGraph,
    policy: PolicyConfig,
    obs: ObservationModel,
    horizon: int,
    rng: np.random.Generator,
    *,
    gain_mode: str = "exact",
    sigma_inf: float | None = None,
    observation: str = "shared",
    noise_free: bool = False,
) -> TrajectoryRecord:
    """Run the engine `horizon` steps from the given initial states.

    The initial states are step 0 and are not recorded; rows hold the states
    after steps 1..horizon. With observation="independent" each agent draws
    its own y per step (an off-contract exploration variant; the shared draw
    is what the linear theory models). noise_free pins every draw at theta.
    A run whose guards fired logs one warning with their counts.
    """
    if horizon < 1:
        raise InvalidParameterError(f"horizon must be >= 1, got {horizon}")
    if observation not in OBSERVATIONS:
        raise InvalidParameterError(
            f"observation must be one of {OBSERVATIONS}, got {observation!r}"
        )
    if gain_mode not in GAIN_MODES:
        raise InvalidParameterError(
            f"gain_mode must be one of {GAIN_MODES}, got {gain_mode!r}"
        )
    means, variances, weights, stubborn, values = _states_to_arrays(states)
    if len(states) != g.n:
        raise InvalidParameterError(
            f"graph has {g.n} nodes but {len(states)} states were given"
        )
    steady = gain_mode == "steady"
    if steady:
        if sigma_inf is None:
            raise InvalidParameterError(
                "steady gain mode needs sigma_inf (see sigma_fixed_point)"
            )
        if sigma_inf < 0.0:
            raise InvalidParameterError(f"sigma_inf must be >= 0, got {sigma_inf}")
        variances = np.full_like(variances, sigma_inf)
    geometric = policy.weight_policy == "geometric"
    any_stubborn = bool(stubborn.any())
    n, m = means.shape
    blocks = [_mixing_matrix(g, policy.delta_mu)]
    if not steady:
        blocks.append(_mixing_matrix(g, policy.delta_sigma))
    if geometric:
        blocks.append(_mixing_matrix(g, 1.0))
    # One product mixes every stacked post-Bayes quantity. Each row of the
    # block-diagonal CSR keeps its block's stored entries in order, so its
    # sums are bit for bit those of one product per block.
    operator = sparse.block_diag(blocks, format="csr")
    stacked = np.empty((len(blocks) * n, m))
    post_means = stacked[:n]
    post_vars = None if steady else stacked[n:2 * n]
    post_weights = stacked[-n:] if geometric else weights

    shape = horizon if observation == "shared" else (horizon, n)
    if noise_free:
        rec_obs = np.full(shape, obs.theta, dtype=float)
    else:
        rec_obs = obs.theta + math.sqrt(obs.sigma_y) * rng.standard_normal(shape)
    rec_means = np.empty((horizon, n, m))
    rec_vars = np.empty((horizon, n, m))
    rec_weights = np.empty((horizon, n, m))
    stats = RunStats()

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(horizon):
            if steady:
                _, _, degenerate = _bayes_arrays_steady(
                    means, weights, rec_obs[k], sigma_inf, obs.sigma_y,
                    out=(post_means, post_weights),
                )
            else:
                _, _, _, degenerate = _bayes_arrays_exact(
                    means, variances, weights, rec_obs[k], obs.sigma_y,
                    out=(post_means, post_vars, post_weights),
                )
            stats.weight_degeneracies += degenerate
            if geometric:
                np.maximum(post_weights, GEOMETRIC_WEIGHT_FLOOR, out=post_weights)
                np.log(post_weights, out=post_weights)
            mixed = operator @ stacked
            means = mixed[:n]
            if any_stubborn:
                means[stubborn, :] = values[stubborn, None]
            if not steady:
                variances = mixed[n:2 * n]
                variances += policy.nu
                bad = int(np.count_nonzero(variances <= 0.0))
                if bad:
                    stats.variance_clamps += bad
                    np.maximum(variances, VARIANCE_FLOOR, out=variances)
            if geometric:
                weights, degenerate = _normalize_log_weights(mixed[-n:], out=mixed[-n:])
                stats.weight_degeneracies += degenerate
            rec_means[k] = means
            rec_vars[k] = variances
            rec_weights[k] = weights

    if stats.variance_clamps or stats.weight_degeneracies:
        diverged = np.flatnonzero(~np.isfinite(rec_means).all(axis=(1, 2)))
        log.warning(
            "run of %d steps: %d variance clamps, %d weight degeneracies%s",
            horizon, stats.variance_clamps, stats.weight_degeneracies,
            f"; means non-finite from step {diverged[0] + 1}" if diverged.size else "",
        )
    record = TrajectoryRecord(
        means=rec_means,
        variances=rec_vars,
        weights=rec_weights,
        observations=rec_obs,
        stats=stats,
    )
    record.validate()
    return record
