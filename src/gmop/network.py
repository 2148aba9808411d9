"""Social graph construction and linear-system extraction.

Graphs are weighted and directed: edge (i, j) means agent i influences agent
j, and w_ij may differ from w_ji even when the adjacency is symmetric. The
experiment topology is a Watts-Strogatz ring with rewiring, plus an optional
influencer hub wired symmetrically to a fraction of the other nodes, plus
independent Uniform(0,1) edge weights. An optional normalization stage
rescales each node's incoming weights to sum to one; with that scaling the
mean update matrix is a positive multiple of a row-stochastic matrix, so the
linear dynamics are contractive for any mixing rate delta_mu in (0, 1].
Unnormalized graphs are fully supported; the spectral diagnostics report
whether their dynamics are stable.

A graph stores its edges once, as a CSR array; the mixing and mean-update
operators built from it are CSR too, so memory and work grow with the edge
count rather than with n^2. Node ids are 1-based in the public API and the
edge-list file format; the weight matrix is indexed 0-based with
weights[i-1, j-1] = w_ij.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
from scipy.sparse import linalg as sparse_linalg

from .errors import InvalidParameterError

__all__ = [
    "SocialGraph",
    "SystemMatrices",
    "generate_watts_strogatz",
    "add_influencer_hub",
    "assign_random_weights",
    "normalize_in_weights",
    "build_system_matrices",
    "spectral_radius",
    "check_row_sum_condition",
    "save_edge_list",
    "load_edge_list",
]

log = logging.getLogger(__name__)

#: Largest matrix handed to the dense eigensolver by spectral_radius.
DENSE_EIG_LIMIT = 512

#: Rows that _write_table formats per block, bounding its string buffers.
_TABLE_BLOCK_ROWS = 2**14


def _frozen_array(values: np.ndarray) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, init=False, eq=False)
class SocialGraph:
    """Weighted directed graph on n agents, stored as a CSR array.

    Row i of ``csr`` (0-based) holds the out-edges of agent i+1 with sorted
    column indices: ``csr[i, j]`` is the weight of the directed edge from
    agent i+1 to agent j+1. Only present edges are stored, every stored
    weight is nonzero, and there are no self-loops. The constructor takes
    the weights as a dense (n, n) array or a scipy sparse matrix; ``weights``
    is a dense view of them, built on first access. Instances are immutable:
    the CSR arrays and the dense view are read-only.
    """

    n: int
    csr: sparse.csr_array

    def __init__(self, n: int, weights: np.ndarray | sparse.sparray) -> None:
        if n < 1:
            raise InvalidParameterError(f"n must be positive, got {n}")
        if sparse.issparse(weights):
            w = sparse.csr_array(weights, dtype=float, copy=True)
            w.sum_duplicates()
            values = w.data
        else:
            w = values = np.asarray(weights, dtype=float)
        if w.shape != (n, n):
            raise InvalidParameterError(
                f"weights must have shape ({n}, {n}), got {w.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise InvalidParameterError("weights must be finite")
        if np.any(w.diagonal() != 0.0):
            raise InvalidParameterError("self-loops are not allowed")
        csr = sparse.csr_array(w)
        csr.eliminate_zeros()
        for arr in (csr.data, csr.indices, csr.indptr):
            arr.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "csr", csr)

    @classmethod
    def from_edges(
        cls, n: int, edges: Iterable[tuple[int, int, float]]
    ) -> "SocialGraph":
        """Build a graph from (i, j, w_ij) triples with 1-based node ids."""
        seen: set[tuple[int, int]] = set()
        rows, cols, values = [], [], []
        for i, j, weight in edges:
            if not (1 <= i <= n and 1 <= j <= n):
                raise InvalidParameterError(
                    f"edge ({i}, {j}) references a node outside [1, {n}]"
                )
            if i == j:
                raise InvalidParameterError(f"self-loop on node {i}")
            if (i, j) in seen:
                raise InvalidParameterError(f"duplicate edge ({i}, {j})")
            if weight == 0.0:
                raise InvalidParameterError(
                    f"edge ({i}, {j}) has zero weight; absent edges are implicit"
                )
            seen.add((i, j))
            rows.append(i - 1)
            cols.append(j - 1)
            values.append(weight)
        return cls(n=n, weights=_coo(n, rows, cols, values))

    @cached_property
    def weights(self) -> np.ndarray:
        """Dense read-only (n, n) weights; 0.0 exactly where no edge exists."""
        return _frozen_array(self.csr.toarray())

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Yield (i, j, w_ij) with 1-based ids in row-major order."""
        coo = self.csr.tocoo()
        for i, j, w in zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()):
            yield i + 1, j + 1, w

    @property
    def n_edges(self) -> int:
        return int(self.csr.nnz)

    def in_weight_sums(self) -> np.ndarray:
        """Vector of incoming-weight sums, one per node, added in row order."""
        sums = np.bincount(self.csr.indices, weights=self.csr.data, minlength=self.n)
        return sums.astype(float, copy=False)  # bincount of no edges gives ints

    def is_connected(self) -> bool:
        """Weak connectivity of the underlying undirected adjacency."""
        count, _ = csgraph.connected_components(
            self.csr, directed=True, connection="weak"
        )
        return count == 1


def _coo(n: int, rows, cols, values) -> sparse.coo_array:
    """n x n sparse weights with the given 0-based entries."""
    return sparse.coo_array(
        (np.asarray(values, dtype=float),
         (np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64))),
        shape=(n, n),
    )


def _reweighted(g: SocialGraph, values: np.ndarray) -> SocialGraph:
    """g's edges, in CSR order, carrying new weights."""
    csr = g.csr
    return SocialGraph(
        n=g.n,
        weights=sparse.csr_array((values, csr.indices, csr.indptr), shape=csr.shape),
    )


def generate_watts_strogatz(
    n: int, k_ws: int, p_ws: float, rng: np.random.Generator
) -> SocialGraph:
    """Generate a small-world ring with symmetric unweighted adjacency.

    Starts from a ring lattice where each node links to its floor(k_ws/2)
    nearest neighbors on each side, then rewires the far endpoint of each
    lattice edge with probability p_ws, avoiding self-loops and duplicate
    edges. Edge count is preserved. Present edges carry weight 1.0 until
    :func:`assign_random_weights` replaces them.

    The rewiring scan is deterministic given the generator state: offsets
    d = 1..floor(k_ws/2) in the outer loop, nodes in ascending order inside.
    The result may be disconnected; ``build_graph`` checks the finished graph.
    """
    if n < 3:
        raise InvalidParameterError(f"n must be at least 3, got {n}")
    if k_ws < 1:
        raise InvalidParameterError(f"k_ws must be at least 1, got {k_ws}")
    if k_ws >= n:
        raise InvalidParameterError(f"k_ws must be below n, got k_ws={k_ws}, n={n}")
    if not (0.0 <= p_ws <= 1.0):
        raise InvalidParameterError(f"p_ws must lie in [0, 1], got {p_ws}")

    half = k_ws // 2
    neighbors: list[set[int]] = [set() for _ in range(n)]
    for d in range(1, half + 1):
        for i in range(n):
            j = (i + d) % n
            neighbors[i].add(j)
            neighbors[j].add(i)

    for d in range(1, half + 1):
        for i in range(n):
            j = (i + d) % n
            if j not in neighbors[i]:
                continue  # already rewired away as some earlier edge's target
            if rng.random() >= p_ws:
                continue
            free = np.ones(n, dtype=bool)
            free[list(neighbors[i])] = False
            free[i] = False
            candidates = np.flatnonzero(free)
            if candidates.size == 0:
                continue
            new_j = int(candidates[rng.integers(candidates.size)])
            neighbors[i].discard(j)
            neighbors[j].discard(i)
            neighbors[i].add(new_j)
            neighbors[new_j].add(i)

    rows = [i for i in range(n) for _ in neighbors[i]]
    cols = [j for i in range(n) for j in sorted(neighbors[i])]
    return SocialGraph(n=n, weights=_coo(n, rows, cols, np.ones(len(rows))))


def add_influencer_hub(
    g: SocialGraph, hub: int, fraction: float, rng: np.random.Generator
) -> SocialGraph:
    """Wire a hub node symmetrically to a fraction of the other nodes.

    Selects floor(fraction * (n-1)) distinct non-hub targets uniformly among
    the nodes not already adjacent to the hub (fewer if the candidate pool is
    smaller) and adds both directed edges for each, with placeholder weight
    1.0. Returns a new graph; the input is untouched.
    """
    if not (1 <= hub <= g.n):
        raise InvalidParameterError(f"hub must lie in [1, {g.n}], got {hub}")
    if not (0.0 < fraction <= 1.0):
        raise InvalidParameterError(f"fraction must lie in (0, 1], got {fraction}")
    count = int(math.floor(fraction * (g.n - 1)))
    if count == 0:
        return g
    h = hub - 1
    edges = g.csr.tocoo()
    linked = np.zeros(g.n, dtype=bool)
    linked[edges.col[edges.row == h]] = True
    linked[edges.row[edges.col == h]] = True
    linked[h] = True
    pool = np.flatnonzero(~linked)
    if pool.size == 0:
        return g
    count = min(count, int(pool.size))
    chosen = rng.choice(pool, size=count, replace=False)
    hub_ids = np.full(count, h)
    spokes = _coo(
        g.n, np.concatenate([hub_ids, chosen]), np.concatenate([chosen, hub_ids]),
        np.ones(2 * count),
    )
    return SocialGraph(n=g.n, weights=g.csr + spokes)


def assign_random_weights(g: SocialGraph, rng: np.random.Generator) -> SocialGraph:
    """Replace every present edge weight with an independent Uniform(0,1) draw.

    Each directed edge draws separately, so w_ij != w_ji in general even on
    symmetric adjacency. Draws happen in row-major edge order, which pins the
    result for a given generator state. An exact 0.0 draw is redrawn, keeping
    weights in the open interval and edge presence identical to adjacency.
    """
    draws = rng.random(g.n_edges)
    for idx in np.nonzero(draws == 0.0)[0]:
        value = 0.0
        while value == 0.0:
            value = rng.random()
        draws[idx] = value
    return _reweighted(g, draws)


def normalize_in_weights(g: SocialGraph) -> SocialGraph:
    """Rescale each node's incoming weights to sum to one.

    After this step the in-weight diagonal is the identity (on nodes that
    have any in-edges; isolated-in nodes are left untouched), and the mean
    update matrix built from the graph is Sigma_scalar times a row-stochastic
    matrix for any delta_mu in (0, 1], which bounds its spectral radius by
    Sigma_scalar. Intended for positively weighted graphs such as the output
    of :func:`assign_random_weights`.
    """
    sums = g.in_weight_sums()
    scale = np.where(sums != 0.0, sums, 1.0)
    return _reweighted(g, g.csr.data / scale[g.csr.indices])


def _in_laplacian(g: SocialGraph) -> sparse.csr_array:
    """W^T - D as CSR: row j holds w_lj at column l and -D_jj at column j."""
    return (g.csr.T - sparse.diags_array(g.in_weight_sums())).tocsr()


def _mixing_matrix(g: SocialGraph, rate: float) -> sparse.csr_array:
    """I + rate * (W^T - D) as CSR: one in-neighbor averaging step on columns."""
    return (sparse.eye_array(g.n, format="csr") + rate * _in_laplacian(g)).tocsr()


@dataclass(frozen=True)
class SystemMatrices:
    """Linear form of the mean dynamics: mu[k+1] = A mu[k] + B 1 y[k].

    A encodes one Bayesian gain step followed by one social mixing step, row
    j aggregating over the in-neighbors of j. sigma_scalar is the gain factor
    sigma_y / (sigma_inf + sigma_y); B = (1 - sigma_scalar) I. Rows of A + B
    sum to one.
    """

    A: np.ndarray
    B: np.ndarray
    sigma_scalar: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "A", _frozen_array(self.A))
        object.__setattr__(self, "B", _frozen_array(self.B))


def build_system_matrices(
    g: SocialGraph, delta_mu: float, sigma_inf: float, sigma_y: float
) -> SystemMatrices:
    """Assemble the linear mean-update matrices for a weighted graph.

    Row j of A implements the per-agent update
    mu_j <- sigma_scalar * (mu_j + delta_mu * sum_l w_lj (mu_l - mu_j)),
    i.e. aggregation over in-neighbors, which makes (A + B) row sums equal
    one identically regardless of the weights. A and B are dense; A is the
    densified CSR operator of :func:`_mean_operator`.
    """
    a, scalar = _mean_operator(g, delta_mu, sigma_inf, sigma_y)
    return SystemMatrices(
        A=a.toarray(), B=(1.0 - scalar) * np.eye(g.n), sigma_scalar=scalar
    )


def _mean_operator(
    g: SocialGraph, delta_mu: float, sigma_inf: float, sigma_y: float
) -> tuple[sparse.csr_array, float]:
    """A of :func:`build_system_matrices` as CSR, and its sigma_scalar."""
    if not (math.isfinite(sigma_y) and sigma_y > 0.0):
        raise InvalidParameterError(f"sigma_y must be positive, got {sigma_y}")
    if not (math.isfinite(sigma_inf) and sigma_inf >= 0.0):
        raise InvalidParameterError(f"sigma_inf must be >= 0, got {sigma_inf}")
    if not (math.isfinite(delta_mu) and delta_mu >= 0.0):
        raise InvalidParameterError(f"delta_mu must be >= 0, got {delta_mu}")
    scalar = sigma_y / (sigma_inf + sigma_y)
    return scalar * _mixing_matrix(g, delta_mu), scalar


def _arpack_radius(m: np.ndarray | sparse.sparray) -> float:
    v0 = np.linspace(1.0, 2.0, m.shape[0])  # fixed start vector, deterministic
    # With ARPACK's default 20 Arnoldi vectors, k = 1 can settle on a complex
    # pair just below an isolated top eigenvalue when the magnitudes cluster
    # (signed random matrices); 40 vectors find it.
    vals = sparse_linalg.eigs(
        m, k=1, which="LM", v0=v0, tol=1e-9, ncv=40, return_eigenvectors=False
    )
    return float(np.max(np.abs(vals)))


def spectral_radius(m: np.ndarray | sparse.sparray) -> float:
    """Largest eigenvalue magnitude of a square dense or scipy sparse matrix.

    Up to ``DENSE_EIG_LIMIT`` nodes the matrix is densified for a dense
    eigensolve; above that an iterative largest-magnitude solve runs on the
    matrix as given (CSR stays sparse), falling back to the dense path if the
    iteration fails to converge. Relative accuracy 1e-9 or better.
    """
    if sparse.issparse(m):
        m = sparse.csr_array(m, dtype=float)
        values = m.data
    else:
        m = values = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidParameterError(f"matrix must be square, got shape {m.shape}")
    if not np.all(np.isfinite(values)):
        raise InvalidParameterError("matrix entries must be finite")
    if m.shape[0] > DENSE_EIG_LIMIT:
        try:
            return _arpack_radius(m)
        except sparse_linalg.ArpackError:  # pragma: no cover - rare
            log.warning("iterative eigensolve failed, falling back to dense")
    dense = m.toarray() if sparse.issparse(m) else m
    return float(np.max(np.abs(np.linalg.eigvals(dense)), initial=0.0))


def check_row_sum_condition(g: SocialGraph) -> float:
    """Max-abs residual of (W - D) 1 = 0 in the in-neighbor convention.

    Zero up to rounding by construction: row j of the CSR W^T - D adds the
    in-weights of j in column order with -D_jj among them, a different
    reduction path from the one that formed D_jj.
    """
    return float(np.max(np.abs(_in_laplacian(g) @ np.ones(g.n)), initial=0.0))


def _write_table(path: str | Path, header: str, fmt: str, columns: Iterable) -> None:
    """Write `header`, then one ``fmt % row`` line per row of `columns`.

    The columns broadcast to one shape and are read in C order, a block of
    ``_TABLE_BLOCK_ROWS`` rows at a time.
    """
    columns = np.broadcast_arrays(*columns)
    line = fmt + "\n"
    with open(path, "w") as f:
        f.write(header + "\n")
        for start in range(0, columns[0].size, _TABLE_BLOCK_ROWS):
            stop = start + _TABLE_BLOCK_ROWS
            block = [c.flat[start:stop].tolist() for c in columns]
            f.write("".join([line % row for row in zip(*block)]))


def save_edge_list(g: SocialGraph, path: str | Path) -> None:
    """Write the plain-text edge list: header ``n=<N>``, lines ``i j w_ij``.

    Node ids are 1-based; weights print with 17 significant digits so the
    loader round-trips exactly.
    """
    coo = g.csr.tocoo()
    _write_table(path, f"n={g.n}", "%d %d %.16e", (coo.row + 1, coo.col + 1, coo.data))


def load_edge_list(path: str | Path) -> SocialGraph:
    """Read a graph written by :func:`save_edge_list`.

    Accepts any finite nonzero weights, including negative ones. Rejects
    self-loops, duplicate edges, out-of-range ids, and malformed lines.
    """
    text = Path(path).read_text()
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("n="):
        raise InvalidParameterError(f"{path}: missing 'n=<N>' header")
    try:
        n = int(lines[0][2:])
    except ValueError as exc:
        raise InvalidParameterError(f"{path}: bad header {lines[0]!r}") from exc
    edges = []
    for lineno, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != 3:
            raise InvalidParameterError(f"{path}:{lineno}: expected 'i j w', got {ln!r}")
        try:
            i, j, w = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise InvalidParameterError(f"{path}:{lineno}: bad edge line {ln!r}") from exc
        if not math.isfinite(w):
            raise InvalidParameterError(f"{path}:{lineno}: non-finite weight")
        edges.append((i, j, w))
    return SocialGraph.from_edges(n, edges)
