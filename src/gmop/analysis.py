"""Closed-form predictors and stability diagnostics for the mean dynamics.

The common mode variance has a unique fixed point sigma_inf = (nu +
sqrt(nu^2 + 4 nu sigma_y)) / 2, zero exactly when nu is zero. At that fixed
point the stacked mean dynamics are linear, mu[k+1] = A mu[k] + B 1 y[k];
when the spectral radius of A is below one the means converge in expectation
to the truth theta with limiting covariance c 1 1^T, c = sigma_y *
sigma_inf / (sigma_inf + 2 sigma_y). Pinning one agent's means to mu_dagger
shifts the crowd to the equilibrium gamma of the reduced block system, and
the average displacement of gamma from theta measures how much leverage that
agent has over the network. :func:`sweep` scores every node that way from
one build of A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .belief import _require_finite
from .errors import InstabilityError, InvalidParameterError, NumericalError
from .network import (
    SocialGraph,
    _mean_operator,
    check_row_sum_condition,
    spectral_radius,
)

__all__ = [
    "TheoryPrediction",
    "StabilityReport",
    "sigma_fixed_point",
    "asymptotic_mean_cov",
    "verify_covariance_fixed_point",
    "stubborn_equilibrium",
    "sweep",
    "stability_report",
    "theory",
    "predict",
    "build_summary",
]


def sigma_fixed_point(nu: float, sigma_y: float) -> float:
    """Unique non-negative fixed point of x -> x*sigma_y/(x+sigma_y) + nu.

    Returns (nu + sqrt(nu^2 + 4*nu*sigma_y)) / 2; zero when nu is zero.
    """
    if not (math.isfinite(nu) and nu >= 0.0):
        raise InvalidParameterError(f"nu must be >= 0, got {nu}")
    if not (math.isfinite(sigma_y) and sigma_y > 0.0):
        raise InvalidParameterError(f"sigma_y must be positive, got {sigma_y}")
    return (nu + math.sqrt(nu * nu + 4.0 * nu * sigma_y)) / 2.0


def asymptotic_mean_cov(
    theta: float, sigma_y: float, sigma_inf: float, n: int
) -> tuple[np.ndarray, float]:
    """Limits of the stacked mean process under the stability conditions.

    Returns (mean vector, c) where the mean is theta at every agent and the
    limiting covariance is c times the all-ones matrix, with
    c = sigma_y * sigma_inf / (sigma_inf + 2 * sigma_y).
    """
    if not math.isfinite(theta):
        raise InvalidParameterError(f"theta must be finite, got {theta}")
    if not (math.isfinite(sigma_y) and sigma_y > 0.0):
        raise InvalidParameterError(f"sigma_y must be positive, got {sigma_y}")
    if not (math.isfinite(sigma_inf) and sigma_inf >= 0.0):
        raise InvalidParameterError(f"sigma_inf must be >= 0, got {sigma_inf}")
    if n < 1:
        raise InvalidParameterError(f"n must be positive, got {n}")
    c = sigma_y * sigma_inf / (sigma_inf + 2.0 * sigma_y)
    return np.full(n, float(theta)), c


def verify_covariance_fixed_point(
    P: np.ndarray, A: np.ndarray, B_eff: np.ndarray, sigma_y: float
) -> float:
    """Max-abs residual of P - (A P A^T + sigma_y * B_eff 1 1^T B_eff^T)."""
    P = np.asarray(P, dtype=float)
    A = np.asarray(A, dtype=float)
    B_eff = np.asarray(B_eff, dtype=float)
    n = A.shape[0]
    ones = np.ones((n, 1))
    forcing = sigma_y * (B_eff @ ones) @ (B_eff @ ones).T
    residual = P - (A @ P @ A.T + forcing)
    return float(np.max(np.abs(residual)))


def stubborn_equilibrium(
    g: SocialGraph,
    delta_mu: float,
    sigma_inf: float,
    sigma_y: float,
    stubborn_id: int,
    mu_dagger: float,
    theta: float,
) -> np.ndarray:
    """Limit means gamma of the malleable agents when one agent is pinned.

    Solves (I - A_sub) gamma = B_sub 1 theta + a_col mu_dagger, where the
    block partition removes the stubborn agent's row and column. The result
    is ordered by original node id with the stubborn node skipped.

    Raises InstabilityError when the reduced block's spectral radius reaches
    one, and NumericalError (with a condition estimate) if the solve fails.
    The radius is eigensolved only when ||A||_inf does not bound it below one.
    """
    a, sigma_scalar = _mean_operator(g, delta_mu, sigma_inf, sigma_y)
    a_sub, a_col = _reduced(a, stubborn_id)
    # rho(A_sub) <= ||A_sub||_inf <= ||A||_inf, so a bound below one settles
    # stability without the eigensolve.
    bound = _inf_norm_bound(a)
    rho = bound if bound < 1.0 else spectral_radius(a_sub)
    return _pinned_solve(a_sub, a_col, rho, sigma_scalar, mu_dagger, theta)


def _inf_norm_bound(a: sparse.csr_array) -> float:
    """Upper bound on ||A||_inf = max_i sum_j |A_ij| that absorbs rounding.

    A row of k stored entries, each within a few ulp of the model's exact
    entry, sums to within about 2 k ulp of the exact row sum; the relative
    slack 2 (k + 1) eps covers both errors. So a row-stochastic A (nu = 0,
    sigma_scalar = 1) never bounds below one, however its sums round.
    """
    k = int(np.diff(a.indptr).max(initial=0))
    norm = float(abs(a).sum(axis=1).max(initial=0.0))
    return norm * (1.0 + 2.0 * (k + 1) * np.finfo(float).eps)


def _reduced(
    a: sparse.csr_array, stubborn_id: int
) -> tuple[sparse.csr_array, np.ndarray]:
    """A_sub, A without stubborn_id's row and column (CSR), and a_col, the
    column of A that carries the pinned opinion to the other agents."""
    n = a.shape[0]
    if not (1 <= stubborn_id <= n):
        raise InvalidParameterError(
            f"stubborn node must lie in [1, {n}], got {stubborn_id}"
        )
    keep = np.delete(np.arange(n), stubborn_id - 1)
    rows = a[keep]
    return rows[:, keep], rows[:, [stubborn_id - 1]].toarray()[:, 0]


def _pinned_solve(
    a_sub: sparse.csr_array, a_col: np.ndarray, rho: float, sigma_scalar: float,
    mu_dagger: float, theta: float,
) -> np.ndarray:
    """Solve (I - A_sub) gamma = (1 - sigma_scalar) theta + a_col mu_dagger,
    gated on rho, the radius of A_sub that the caller found."""
    _require_finite("mu_dagger", mu_dagger)
    _require_finite("theta", theta)
    if rho >= 1.0:
        raise InstabilityError(
            f"reduced system is unstable: spectral radius {rho:.6f} >= 1"
        )
    system = np.eye(a_sub.shape[0]) - a_sub.toarray()
    rhs = (1.0 - sigma_scalar) * theta + a_col * mu_dagger
    try:
        gamma = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"singular reduced system (condition estimate "
            f"{np.linalg.cond(system):.3e})"
        ) from exc
    if not np.all(np.isfinite(gamma)):
        raise NumericalError(
            f"non-finite equilibrium (condition estimate "
            f"{np.linalg.cond(system):.3e})"
        )
    return gamma


def sweep(
    g: SocialGraph,
    delta_mu: float,
    sigma_inf: float,
    sigma_y: float,
    mu_dagger: float,
    theta: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Score, gamma_min, gamma_max and stable flag of every node, in node order.

    Builds A once. When ||A||_inf < 1 (:func:`_inf_norm_bound`), every
    reduced block is stable, since rho(A_sub) <= ||A_sub||_inf <= ||A||_inf,
    the condition number of I - A is at most (1 + ||A||_inf) / (1 - ||A||_inf),
    and one inverse scores every node: rows of A + B sum to one, so pinning
    node s at mu_dagger gives the Friedkin-Johnsen equilibrium
    gamma(s) = theta + (mu_dagger - theta) h(s), where h(s) is G e_s / G_ss
    with entry s dropped and G = (I - A)^-1, and
    score(s) = |mu_dagger - theta| * mean_j |h_j(s)|. Otherwise each node's
    reduced block of that A is eigensolved and solved as in
    :func:`stubborn_equilibrium`; a node whose block is unstable or singular
    reads NaN with stable False. The crowd j != s of a one-node graph is
    empty, so the sweep needs at least two nodes.
    """
    if g.n < 2:
        raise InvalidParameterError(f"centrality needs at least two nodes, got {g.n}")
    _require_finite("mu_dagger", mu_dagger)
    _require_finite("theta", theta)
    a, sigma_scalar = _mean_operator(g, delta_mu, sigma_inf, sigma_y)
    n = g.n
    if _inf_norm_bound(a) < 1.0:
        green = np.linalg.inv(np.eye(n) - a.toarray())
        # Row s of h is column s of G over G_ss with entry s dropped.
        h = (green / np.diag(green)).T[~np.eye(n, dtype=bool)].reshape(n, n - 1)
        shift = mu_dagger - theta
        gamma = theta + shift * h
        score = abs(shift) * np.mean(np.abs(h), axis=1)
        return score, gamma.min(axis=1), gamma.max(axis=1), np.ones(n, dtype=bool)
    score, gamma_min, gamma_max = np.full((3, n), np.nan)
    stable = np.zeros(n, dtype=bool)
    for s in range(n):
        a_sub, a_col = _reduced(a, s + 1)
        try:
            gamma = _pinned_solve(
                a_sub, a_col, spectral_radius(a_sub), sigma_scalar, mu_dagger, theta
            )
        except (InstabilityError, NumericalError):
            continue
        score[s] = np.mean(np.abs(gamma - theta))
        gamma_min[s], gamma_max[s], stable[s] = gamma.min(), gamma.max(), True
    return score, gamma_min, gamma_max, stable


@dataclass(frozen=True)
class TheoryPrediction:
    """Bundle of the closed-form limits for one configured system.

    With a stubborn agent, gamma is the malleable agents' limit (node order,
    the stubborn node skipped) and centrality is mean |gamma - theta|; both
    are None without one, and centrality is None when no agent is malleable.
    sigma_inf, the radii and the conditions are on the :class:`StabilityReport`
    that :func:`theory` returns with it.
    """

    limit_mean: np.ndarray
    limit_cov_scalar: float
    gamma: np.ndarray | None
    centrality: float | None


#: Row-sum residuals above this fail the identity check.
ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class StabilityReport:
    """Hypothesis checks for the convergence results."""

    spectral_radius: float
    stubborn_spectral_radius: float | None
    row_sum_residual: float
    sigma_inf: float

    @property
    def conditions(self) -> dict:
        """Pass/fail flags; stubborn_spectral_ok only with a stubborn agent."""
        conditions = {
            "row_sum_ok": self.row_sum_residual <= ROW_SUM_TOL,
            "spectral_ok": self.spectral_radius < 1.0,
            "degenerate_gain": self.sigma_inf == 0.0,
        }
        if self.stubborn_spectral_radius is not None:
            conditions["stubborn_spectral_ok"] = self.stubborn_spectral_radius < 1.0
        return conditions

    @property
    def gate(self) -> tuple[str, float]:
        """Name and value of the deciding radius: rho(A), or the reduced block's."""
        if self.stubborn_spectral_radius is None:
            return "spectral radius", self.spectral_radius
        return "reduced-system spectral radius", self.stubborn_spectral_radius

    def to_dict(self) -> dict:
        return {
            "sigma_inf": self.sigma_inf,
            "spectral_radius": self.spectral_radius,
            "stubborn_spectral_radius": self.stubborn_spectral_radius,
            "row_sum_residual": self.row_sum_residual,
            "conditions": self.conditions,
        }


def stability_report(
    g: SocialGraph,
    delta_mu: float,
    sigma_inf: float,
    sigma_y: float,
) -> StabilityReport:
    """Evaluate the spectral and row-sum hypotheses on a concrete graph.

    Reports rho(A), the row-sum residual, and pass/fail booleans (the radius
    of the block without a stubborn node comes from :func:`theory`).
    sigma_inf = 0 is flagged as the degenerate-gain regime: the constant-gain
    abstraction then collapses to pure averaging with no observation
    injection, so the linear predictions stop being meaningful. There the
    in-Laplacian's rows sum to zero, so A 1 = 1 and rho(A) >= 1 in exact
    arithmetic; a computed rho just below one is rounding.
    """
    a, _ = _mean_operator(g, delta_mu, sigma_inf, sigma_y)
    return _stability_report(g, a, sigma_inf, None)


def _stability_report(
    g: SocialGraph, a: sparse.csr_array, sigma_inf: float,
    a_sub: sparse.csr_array | None,
) -> StabilityReport:
    """Body of :func:`stability_report` on the built A and reduced block."""
    return StabilityReport(
        spectral_radius=spectral_radius(a),
        stubborn_spectral_radius=None if a_sub is None else spectral_radius(a_sub),
        row_sum_residual=check_row_sum_condition(g),
        sigma_inf=sigma_inf,
    )


def theory(
    g: SocialGraph,
    delta_mu: float,
    nu: float,
    sigma_y: float,
    theta: float,
    stubborn_id: int | None = None,
    mu_dagger: float | None = None,
) -> tuple[StabilityReport, TheoryPrediction | None]:
    """The stability report and, built from the same A, the closed-form limits.

    The prediction is None exactly when the report's gate radius is >= 1. Its
    limit mean is theta everywhere, or gamma with mu_dagger at a stubborn agent.
    """
    if stubborn_id is not None and mu_dagger is None:
        raise InvalidParameterError("mu_dagger required with a stubborn agent")
    sigma_inf = sigma_fixed_point(nu, sigma_y)
    a, sigma_scalar = _mean_operator(g, delta_mu, sigma_inf, sigma_y)
    a_sub, a_col = (None, None) if stubborn_id is None else _reduced(a, stubborn_id)
    report = _stability_report(g, a, sigma_inf, a_sub)
    rho = report.gate[1]
    if rho >= 1.0:
        return report, None
    limit_mean, c = asymptotic_mean_cov(theta, sigma_y, sigma_inf, g.n)
    gamma = centrality = None
    if a_sub is not None:
        gamma = _pinned_solve(a_sub, a_col, rho, sigma_scalar, mu_dagger, theta)
        limit_mean = np.insert(gamma, stubborn_id - 1, mu_dagger)
        if gamma.size:
            centrality = float(np.mean(np.abs(gamma - theta)))
    return report, TheoryPrediction(
        limit_mean=limit_mean, limit_cov_scalar=c, gamma=gamma, centrality=centrality
    )


def predict(
    g: SocialGraph,
    delta_mu: float,
    nu: float,
    sigma_y: float,
    theta: float,
    stubborn_id: int | None = None,
    mu_dagger: float | None = None,
) -> TheoryPrediction:
    """:func:`theory`'s prediction; InstabilityError when its gate radius is >= 1."""
    report, prediction = theory(g, delta_mu, nu, sigma_y, theta, stubborn_id, mu_dagger)
    if prediction is None:
        system = "system" if stubborn_id is None else "reduced system"
        raise InstabilityError(
            f"{system} is unstable: spectral radius {report.gate[1]:.6f} >= 1"
        )
    return prediction


def build_summary(
    prediction: TheoryPrediction | None, report: StabilityReport
) -> dict:
    """Assemble the summary document written next to run artifacts.

    With no prediction (an unstable system simulated under --force) the
    limit fields are null and only the stability report is filled in.
    """
    gamma = None if prediction is None else prediction.gamma
    return {
        **report.to_dict(),
        "limit_mean": (
            None if prediction is None
            else [float(x) for x in prediction.limit_mean]
        ),
        "limit_cov_scalar": None if prediction is None else prediction.limit_cov_scalar,
        "gamma": None if gamma is None else [float(x) for x in gamma],
        "centrality": None if prediction is None else prediction.centrality,
    }
