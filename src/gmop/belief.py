"""Gaussian-mixture beliefs and their observation update.

Each agent's opinion about a scalar quantity is a finite Gaussian mixture:
mode j has mean mu_j, variance sigma_j, and weight alpha_j, with the weights
on the probability simplex. Observations y = theta + noise are folded in mode
by mode: means move by the Kalman gain sigma/(sigma + sigma_y), variances
contract to sigma*sigma_y/(sigma + sigma_y), and weights are rescaled by the
prior mode density at y and renormalized. A trapezoidal quadrature oracle over
the pointwise product prior(x) * N(y | x, sigma_y) provides an independent
numerical check of the closed-form update.

A belief is stored as its three per-mode sequences: ``means``,
``variances`` and ``weights``, float tuples of one common length. The engine
runs on the same data stacked into (agents, modes) arrays.

All variances in this package are variances, not standard deviations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import GridError, InvalidParameterError

__all__ = [
    "GaussianMixtureBelief",
    "ObservationModel",
    "bayes_update",
    "posterior_oracle",
    "PosteriorGrid",
]

#: Weight sums must match 1 at least this tightly to count as a simplex.
WEIGHT_SUM_TOL = 1e-12


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise InvalidParameterError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class GaussianMixtureBelief:
    """Ordered finite mixture of scalar Gaussians with simplex weights.

    Mode j has mean ``means[j]``, variance ``variances[j]`` and weight
    ``weights[j]``. The constructor takes any three sequences of numbers and
    stores them as float tuples of one common length, at least one.
    Instances are immutable; the observation update returns a new belief.
    Weights must be non-negative and sum to 1 within ``WEIGHT_SUM_TOL``.
    Individual weights may be exactly 0 (a mode can die by underflow without
    being dropped).
    """

    means: tuple[float, ...]
    variances: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        means, variances, weights = (
            tuple(map(float, values))
            for values in (self.means, self.variances, self.weights)
        )
        if not len(means) == len(variances) == len(weights):
            raise InvalidParameterError(
                "means, variances and weights must have one length, got "
                f"{len(means)}, {len(variances)} and {len(weights)}"
            )
        if not means:
            raise InvalidParameterError("a belief needs at least one mode")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "variances", variances)
        object.__setattr__(self, "weights", weights)
        total = 0.0
        for idx, (mean, variance, weight) in enumerate(zip(means, variances, weights)):
            _require_finite(f"means[{idx}]", mean)
            if not math.isfinite(variance) or variance <= 0.0:
                raise InvalidParameterError(
                    f"variances[{idx}] must be positive, got {variance}"
                )
            if not math.isfinite(weight) or weight < 0.0 or weight > 1.0:
                raise InvalidParameterError(
                    f"weights[{idx}] must lie in [0, 1], got {weight}"
                )
            total += weight
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise InvalidParameterError(
                f"weights must sum to 1 within {WEIGHT_SUM_TOL}, got {total!r}"
            )

    @classmethod
    def from_arrays(
        cls,
        means: Iterable[float],
        variances: Iterable[float],
        weights: Iterable[float],
    ) -> "GaussianMixtureBelief":
        """The constructor under its older name."""
        return cls(means, variances, weights)

    @property
    def n_modes(self) -> int:
        return len(self.means)


@dataclass(frozen=True)
class ObservationModel:
    """Noisy scalar source: observations are theta plus N(0, sigma_y) noise."""

    theta: float
    sigma_y: float

    def __post_init__(self) -> None:
        _require_finite("theta", self.theta)
        _require_finite("sigma_y", self.sigma_y)
        if self.sigma_y <= 0.0:
            raise InvalidParameterError(
                f"sigma_y must be positive, got {self.sigma_y}"
            )


def _normal_pdf(x, mean, variance):
    """Vectorized N(x | mean, variance) density. Inputs must be positive-variance."""
    x = np.asarray(x, dtype=float)
    return np.exp(-((x - mean) ** 2) / (2.0 * variance)) / np.sqrt(
        2.0 * np.pi * variance
    )


def _normalize_log_weights(
    log_w: np.ndarray, out: np.ndarray | None = None
) -> tuple[np.ndarray, int]:
    """Renormalize per-row log weights with a max shift.

    Rows whose every entry is non-finite (all mode numerators underflowed or
    the inputs were degenerate) fall back to uniform weights. Returns the
    normalized weights and the number of degenerate rows. When every row's
    shift is finite, each row's largest numerator is exactly one, so no total
    can vanish or overflow and the rows are normalized without masking. The
    weights are written into ``out`` when given, which may be ``log_w``
    itself.
    """
    log_w = np.asarray(log_w, dtype=float)
    if out is None:
        out = np.empty_like(log_w)
    if log_w.ndim == 1:
        log_w, weights = log_w[None, :], out[None, :]
    else:
        weights = out
    # The ufuncs' own reductions: the ndarray methods add a Python wrapper.
    shift = np.maximum.reduce(log_w, axis=1, keepdims=True)
    if np.isfinite(shift).all():
        np.subtract(log_w, shift, out=weights)
        np.exp(weights, out=weights)
        np.divide(weights, np.add.reduce(weights, axis=1, keepdims=True), out=weights)
        degenerate = 0
    else:
        _, degenerate = _masked_normalize(log_w, shift, weights)
    return out, degenerate


def _masked_normalize(
    log_w: np.ndarray, shift: np.ndarray, out: np.ndarray | None = None
) -> tuple[np.ndarray, int]:
    """Row normalization that sets degenerate rows to uniform weights."""
    bad = ~np.isfinite(shift[:, 0])
    with np.errstate(invalid="ignore"):
        numer = np.exp(log_w - shift)
    total = numer.sum(axis=1, keepdims=True)
    bad |= ~np.isfinite(total[:, 0]) | (total[:, 0] <= 0.0)
    weights = np.empty_like(log_w) if out is None else out
    ok = ~bad
    if ok.any():
        weights[ok] = numer[ok] / total[ok]
    if bad.any():
        weights[bad] = 1.0 / log_w.shape[1]
    return weights, int(np.count_nonzero(bad))


def _observation_column(y) -> np.ndarray:
    """A scalar y, or per-agent observations as a column against (agents, M)."""
    y = np.asarray(y, dtype=float)
    return y[..., None] if y.ndim else y


def _bayes_arrays_exact(means, variances, weights, y, sigma_y, out=None):
    """Observation update on stacked mode arrays, exact per-mode gains.

    means, variances, weights have shape (..., M); y is a scalar or an array
    broadcastable against the leading axes (one observation per agent).
    Returns (means', variances', weights', degenerate_row_count). ``out``, a
    triple of arrays shaped like means, receives the three updated arrays;
    its weight array may be ``weights`` itself, the other two must not
    overlap the inputs.
    """
    if out is None:
        out = tuple(np.empty(np.shape(means)) for _ in range(3))
    post_means, post_vars, post_weights = out
    innov = np.subtract(_observation_column(y), means)
    scratch = np.add(variances, sigma_y)
    # post_means = means + variances / (variances + sigma_y) * innov
    np.divide(variances, scratch, out=post_means)
    np.multiply(post_means, innov, out=post_means)
    np.add(means, post_means, out=post_means)
    # post_vars = variances * (sigma_y / (variances + sigma_y)); post_vars
    # holds 2 * variances first, the denominator of the innovation term.
    np.multiply(2.0, variances, out=post_vars)
    np.square(innov, out=innov)
    np.divide(innov, post_vars, out=innov)
    np.divide(sigma_y, scratch, out=post_vars)
    np.multiply(variances, post_vars, out=post_vars)
    # log_like = -0.5 * log(2 pi variances) - innov**2 / (2 variances)
    np.multiply(2.0 * np.pi, variances, out=scratch)
    np.log(scratch, out=scratch)
    np.multiply(-0.5, scratch, out=scratch)
    np.subtract(scratch, innov, out=scratch)
    # post_weights = normalized(log(weights) + log_like)
    with np.errstate(divide="ignore"):
        np.log(weights, out=post_weights)
    np.add(post_weights, scratch, out=post_weights)
    _, degenerate = _normalize_log_weights(post_weights, out=post_weights)
    return post_means, post_vars, post_weights, degenerate


def _bayes_arrays_steady(means, weights, y, sigma_inf, sigma_y, out=None):
    """Constant-gain observation update with variances frozen at sigma_inf.

    The weight exponent uses the fixed-point innovation scale
    (y - mu)^2 / (2 * (sigma_inf + sigma_y)); the common normalization factor
    cancels in the renormalization and is omitted. ``out``, a pair of arrays
    shaped like means, receives (means', weights'); its weight array may be
    ``weights`` itself, its mean array must not overlap the inputs.
    """
    if out is None:
        out = tuple(np.empty(np.shape(means)) for _ in range(2))
    post_means, post_weights = out
    innov = np.subtract(_observation_column(y), means)
    gain = sigma_inf / (sigma_inf + sigma_y)
    np.multiply(gain, innov, out=post_means)
    np.add(means, post_means, out=post_means)
    # log_like = -(innov**2) / (2 * (sigma_inf + sigma_y))
    np.square(innov, out=innov)
    np.negative(innov, out=innov)
    np.divide(innov, 2.0 * (sigma_inf + sigma_y), out=innov)
    with np.errstate(divide="ignore"):
        np.log(weights, out=post_weights)
    np.add(post_weights, innov, out=post_weights)
    _, degenerate = _normalize_log_weights(post_weights, out=post_weights)
    return post_means, post_weights, degenerate


def bayes_update(
    belief: GaussianMixtureBelief, y: float, sigma_y: float
) -> tuple[GaussianMixtureBelief, bool]:
    """Fold one noisy observation into a mixture belief.

    Per mode: the mean moves by the gain sigma/(sigma + sigma_y) times the
    innovation (y - mu), the variance contracts to sigma*sigma_y/(sigma +
    sigma_y), and the weight is scaled by the prior mode density at y before
    renormalization. Weight arithmetic runs in log space with a max shift;
    if every numerator underflows the weights fall back to uniform and the
    degeneracy flag is set.

    Parameters
    ----------
    belief : GaussianMixtureBelief
        Prior belief.
    y : float
        Observed value.
    sigma_y : float
        Observation noise variance, positive.

    Returns
    -------
    (GaussianMixtureBelief, bool)
        The updated belief and whether the uniform-weight fallback fired.
    """
    _require_finite("y", y)
    _require_finite("sigma_y", sigma_y)
    if sigma_y <= 0.0:
        raise InvalidParameterError(f"sigma_y must be positive, got {sigma_y}")
    post_means, post_vars, post_weights, degenerate = _bayes_arrays_exact(
        belief.means, belief.variances, belief.weights, y, sigma_y
    )
    updated = GaussianMixtureBelief(post_means, post_vars, post_weights)
    return updated, bool(degenerate)


@dataclass(frozen=True)
class PosteriorGrid:
    """Gridded posterior produced by :func:`posterior_oracle`.

    ``density`` integrates to 1 over ``xs`` by trapezoidal quadrature. Mode
    masses follow the same prior-density-at-y weighting convention as
    :func:`bayes_update`, evaluated by interpolating the gridded prior mode
    densities at the observation, so the two are directly comparable. Mode
    means and variances are quadrature moments of the per-mode pointwise
    product prior_mode(x) * N(y | x, sigma_y).
    """

    xs: np.ndarray
    density: np.ndarray
    mode_masses: np.ndarray
    _mode_joint: np.ndarray = field(repr=False)

    def mean(self) -> float:
        """Posterior mean by trapezoidal quadrature."""
        return float(np.trapezoid(self.xs * self.density, self.xs))

    def variance(self) -> float:
        """Posterior variance by trapezoidal quadrature."""
        m = self.mean()
        return float(np.trapezoid((self.xs - m) ** 2 * self.density, self.xs))

    def mode_mass(self, j: int) -> float:
        """Updated weight of mode j under the prior-density-at-y convention."""
        return float(self.mode_masses[j])

    def mode_mean(self, j: int) -> float:
        """Quadrature mean of mode j's joint slice. NaN for a zero-weight mode."""
        u = self._mode_joint[j]
        z = np.trapezoid(u, self.xs)
        if z <= 0.0:
            return math.nan
        return float(np.trapezoid(self.xs * u, self.xs) / z)

    def mode_variance(self, j: int) -> float:
        """Quadrature variance of mode j's joint slice. NaN for a zero-weight mode."""
        u = self._mode_joint[j]
        z = np.trapezoid(u, self.xs)
        if z <= 0.0:
            return math.nan
        m = np.trapezoid(self.xs * u, self.xs) / z
        return float(np.trapezoid((self.xs - m) ** 2 * u, self.xs) / z)


#: Number of quadrature points on the oracle's grid.
GRID_POINTS = 200_000

#: Fraction of posterior mass tolerated within one cell of a grid boundary.
GRID_BOUNDARY_MASS = 1e-6


def posterior_oracle(
    belief: GaussianMixtureBelief, y: float, sigma_y: float
) -> PosteriorGrid:
    """Numerically condition a mixture belief on one observation.

    Evaluates prior(x) * N(y | x, sigma_y) pointwise on a uniform grid of
    ``GRID_POINTS`` points spanning 10 standard deviations around every mode
    and the observation, and normalizes by trapezoidal integration. Serves as
    the independent check of :func:`bayes_update`: mode means and variances
    come from quadrature moments, and mode masses apply the same
    prior-density-at-y weighting via interpolation on the grid.

    Parameters
    ----------
    belief : GaussianMixtureBelief
        Prior belief.
    y : float
        Observed value.
    sigma_y : float
        Observation noise variance, positive.

    Raises
    ------
    GridError
        If the posterior mass or every mode density at y underflows on the
        grid, or the density leaves more than ``GRID_BOUNDARY_MASS`` of its
        mass within one cell of a boundary.
    """
    _require_finite("y", y)
    _require_finite("sigma_y", sigma_y)
    if sigma_y <= 0.0:
        raise InvalidParameterError(f"sigma_y must be positive, got {sigma_y}")

    means, variances, weights = np.array(
        (belief.means, belief.variances, belief.weights)
    )
    stds = np.sqrt(variances)
    sy = math.sqrt(sigma_y)
    lo = min(float(np.min(means - 10.0 * stds)), y - 10.0 * sy)
    hi = max(float(np.max(means + 10.0 * stds)), y + 10.0 * sy)

    xs = np.linspace(lo, hi, GRID_POINTS)
    prior_modes = _normal_pdf(xs[None, :], means[:, None], variances[:, None])
    likelihood = _normal_pdf(xs, y, sigma_y)
    mode_joint = weights[:, None] * prior_modes * likelihood[None, :]
    total = mode_joint.sum(axis=0)
    z = float(np.trapezoid(total, xs))
    if z <= 0.0 or not math.isfinite(z):
        raise GridError("posterior mass underflowed on the grid")
    density = total / z

    dx = xs[1] - xs[0]
    edge_mass = 0.5 * (density[0] + density[1]) * dx
    edge_mass += 0.5 * (density[-2] + density[-1]) * dx
    if edge_mass > GRID_BOUNDARY_MASS:
        raise GridError(
            f"grid too narrow: {edge_mass:.3e} of posterior mass sits within "
            f"one cell of a boundary (limit {GRID_BOUNDARY_MASS})"
        )

    # Mode masses by the update rule's convention: prior mode density at y,
    # read off the sampled grid rather than the closed form.
    density_at_y = np.array(
        [np.interp(y, xs, prior_modes[j]) for j in range(len(means))]
    )
    numer = weights * density_at_y
    if numer.sum() <= 0.0:
        raise GridError("every mode density underflowed at the observation")
    masses = numer / numer.sum()

    return PosteriorGrid(
        xs=xs, density=density, mode_masses=masses, _mode_joint=mode_joint
    )
