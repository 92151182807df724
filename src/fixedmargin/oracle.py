"""Exact enumeration oracle for small margin-constrained state spaces.

For desk-sized margins the full set of positive-probability matrices can be
enumerated, giving exact state probabilities, exact one-step transition
kernels for both samplers, and graph questions (connectivity, shortest swap
paths, diameter).  That is the ground truth the samplers are verified
against: detailed balance and stationarity of the kernels, connectivity of
the proposal graph, and divergence of empirical visit frequencies.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .chains import ALGORITHMS, Trace
from .curveball import _candidates, _columns, _trade_prob
from .matrices import BinaryMatrix, WeightMatrix, _accept_prob
from .swap import _swap_weights


class SpaceTooLargeError(RuntimeError):
    """Enumeration aborted because the state count exceeded the cap."""


class StateNotInSpaceError(KeyError):
    """A matrix does not belong to the enumerated space."""


@dataclass
class EnumeratedSpace:
    """Every positive-probability matrix for fixed margins and weights.

    `probabilities[s]` is the exact model probability of `states[s]`;
    log_kappa is the log of the normalizing constant kappa, the sum of
    cell-weight products over all states.  States are listed in a
    deterministic row-wise order; `index_of` finds a matrix by its row bitsets.
    """

    row_sums: np.ndarray
    col_sums: np.ndarray
    weights: WeightMatrix
    states: list[BinaryMatrix]
    probabilities: np.ndarray
    log_kappa: float
    _index: dict[tuple[int, ...], int] = field(repr=False, default_factory=dict)

    def __len__(self) -> int:
        return len(self.states)

    @property
    def kappa(self) -> float:
        """exp(log_kappa): 0.0 when it underflows, inf when it overflows."""
        with np.errstate(over="ignore"):
            return float(np.exp(self.log_kappa))

    def index_of(self, matrix: BinaryMatrix) -> int:
        index = None
        if (matrix.m, matrix.n) == (self.weights.m, self.weights.n):
            index = self._index.get(tuple(matrix._rows))
        if index is None:
            raise StateNotInSpaceError(
                "matrix is not a positive-probability state of this space"
            )
        return index


def enumerate_space(row_sums, col_sums, weights: WeightMatrix | None = None,
                    cap: int = 1_000_000) -> EnumeratedSpace:
    """Enumerate all binary matrices with the given margins and no 1 on a zero weight.

    Row-wise backtracking with column-capacity pruning.  Infeasible margins
    yield an empty space (log_kappa -inf), not an error.  Raises
    SpaceTooLargeError as soon as more than `cap` states are found.
    """
    r = np.asarray(row_sums, dtype=np.int64)
    c = np.asarray(col_sums, dtype=np.int64)
    if r.ndim != 1 or c.ndim != 1:
        raise ValueError("margins must be 1-D integer sequences")
    if (r < 0).any() or (c < 0).any():
        raise ValueError("margins must be nonnegative")
    m, n = r.size, c.size
    if weights is None:
        weights = WeightMatrix.all_ones(m, n)
    if (weights.m, weights.n) != (m, n):
        raise ValueError(
            f"weights are {weights.m}x{weights.n} but margins imply {m}x{n}"
        )

    states: list[BinaryMatrix] = []
    if m > 0 and n > 0 and r.sum() == c.sum() and (r <= n).all() and (c <= m).all():
        allowed = [_columns(mask) for mask in weights._pos_masks]
        remaining = c.tolist()
        chosen: list[int] = []

        def descend(i: int) -> None:
            if i == m:
                if len(states) >= cap:
                    raise SpaceTooLargeError(
                        f"state space exceeds the cap of {cap} states"
                    )
                states.append(BinaryMatrix._from_row_bits(chosen, n))
                return
            rows_left_after = m - i - 1
            open_cols = [j for j in allowed[i] if remaining[j] > 0]
            need = int(r[i])
            if len(open_cols) < need:
                return
            for cols in itertools.combinations(open_cols, need):
                ok = True
                for j in cols:
                    remaining[j] -= 1
                for j in range(n):
                    if remaining[j] > rows_left_after:
                        ok = False
                        break
                if ok:
                    chosen.append(sum(1 << j for j in cols))
                    descend(i + 1)
                    chosen.pop()
                for j in cols:
                    remaining[j] += 1

        descend(0)

    if not states:
        return EnumeratedSpace(r, c, weights, [], np.zeros(0), -math.inf, {})

    logw = np.array(weights._log_rows)
    logps = np.array([float(logw[state.entries == 1].sum()) for state in states])
    peak = logps.max()
    scaled = np.exp(logps - peak)
    total = scaled.sum()
    probabilities = scaled / total
    index = {tuple(state._rows): idx for idx, state in enumerate(states)}
    return EnumeratedSpace(r, c, weights, states, probabilities,
                           float(peak + np.log(total)), index)


def _max_pairwise_hamming(space: EnumeratedSpace) -> int:
    flat = np.array([state.entries.ravel() for state in space.states], dtype=np.int16)
    worst = 0
    for i in range(len(flat) - 1):
        worst = max(worst, int(np.abs(flat[i + 1:] - flat[i]).sum(axis=1).max()))
    return worst


def _require_algorithm(algorithm: str) -> None:
    if algorithm not in ALGORITHMS:
        raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {algorithm!r}")


def exact_kernel(space: EnumeratedSpace, algorithm: str) -> np.ndarray:
    """Exact one-step transition matrix of the chosen sampler on the space.

    Row s holds the probabilities of every possible state after one proposal
    from states[s], including the self-transition mass from no-op proposals
    and rejections.  Rows sum to one up to float roundoff.
    """
    _require_algorithm(algorithm)
    size = len(space.states)
    kernel = np.zeros((size, size))
    if algorithm == "swap":
        _fill_swap_kernel(space, kernel)
    else:
        _fill_curveball_kernel(space, kernel)
    return kernel


def _target_index(space: EnumeratedSpace, rows, i: int, ip: int, moved: int) -> int:
    # index of the state reached by flipping the `moved` columns of rows i and i'
    target = list(rows)
    target[i] ^= moved
    target[ip] ^= moved
    return space._index[tuple(target)]


def _fill_swap_kernel(space: EnumeratedSpace, kernel: np.ndarray) -> None:
    weights = space.weights
    for s, state in enumerate(space.states):
        ones = state.ones
        k = len(ones)
        if k < 2:
            kernel[s, s] = 1.0
            continue
        inv_pairs = 1.0 / (k * (k - 1) // 2)
        rows = state._rows
        for (i, j), (ip, jp) in itertools.combinations(ones, 2):
            # a pair that is no checkerboard moves nowhere, as if always rejected
            d = _swap_weights(rows, weights._log_rows, i, j, ip, jp)
            p = 0.0 if d is None else _accept_prob(d)
            if p > 0.0:
                kernel[s, _target_index(space, rows, i, ip, 1 << j | 1 << jp)] += inv_pairs * p
            kernel[s, s] += inv_pairs * (1.0 - p)


def _fill_curveball_kernel(space: EnumeratedSpace, kernel: np.ndarray) -> None:
    weights = space.weights
    m = weights.m
    if m < 2:
        raise ValueError("the curveball kernel needs at least two rows")
    inv_pairs = 1.0 / (m * (m - 1) // 2)
    for s, state in enumerate(space.states):
        rows = state._rows
        for i, ip in itertools.combinations(range(m), 2):
            cand_a, cand_b = _candidates(rows, weights._pos_masks, i, ip)
            if not cand_a or not cand_b:
                kernel[s, s] += inv_pairs
                continue
            cand_i = _columns(cand_a)
            pool = cand_i + _columns(cand_b)
            a = len(cand_i)
            set_i = set(cand_i)
            inv_splits = inv_pairs / math.comb(len(pool), a)
            for head in itertools.combinations(pool, a):
                gained_i = sorted(j for j in head if j not in set_i)
                head_set = set(head)
                gained_ip = sorted(j for j in cand_i if j not in head_set)
                p = _trade_prob(weights._log_rows, i, ip, gained_i, gained_ip)
                if gained_i:
                    moved = sum(1 << j for j in gained_i + gained_ip)
                    kernel[s, _target_index(space, rows, i, ip, moved)] += inv_splits * p
                    kernel[s, s] += inv_splits * (1.0 - p)
                else:
                    kernel[s, s] += inv_splits


def balance_residual(space: EnumeratedSpace, kernel: np.ndarray) -> float:
    """Largest violation of detailed balance |P(s) K(s,t) - P(t) K(t,s)|."""
    flow = space.probabilities[:, None] * kernel
    return float(np.abs(flow - flow.T).max())


def stationarity_residual(space: EnumeratedSpace, kernel: np.ndarray) -> float:
    """Sup-norm of pi K - pi for the exact probability vector pi."""
    pi = space.probabilities
    return float(np.abs(pi @ kernel - pi).max())


def _adjacency(kernel: np.ndarray) -> list[np.ndarray]:
    # each state's positive-transition targets, its own self-loop left out
    targets = (np.flatnonzero(row > 0.0) for row in kernel)
    return [t[t != s] for s, t in enumerate(targets)]


def connectivity(space: EnumeratedSpace, algorithm: str, kernel: np.ndarray | None = None) -> list[list[int]]:
    """Connected components of the positive-transition graph, as index lists.

    A single component means the sampler can reach every positive-probability
    state; more than one means the chain is reducible on this input and its
    long-run frequencies depend on the starting matrix.
    """
    if kernel is None:
        kernel = exact_kernel(space, algorithm)
    neighbors = _adjacency(kernel)
    size = len(space.states)
    seen = np.zeros(size, dtype=bool)
    components: list[list[int]] = []
    for start in range(size):
        if seen[start]:
            continue
        queue = [start]
        seen[start] = True
        comp = []
        while queue:
            node = queue.pop()
            comp.append(node)
            for nxt in neighbors[node]:
                if not seen[nxt]:
                    seen[nxt] = True
                    queue.append(int(nxt))
        components.append(sorted(comp))
    return components


def _bfs_distances(neighbors, start: int, size: int) -> np.ndarray:
    dist = np.full(size, -1, dtype=np.int64)
    dist[start] = 0
    frontier = [start]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for node in frontier:
            for nb in neighbors[node]:
                if dist[nb] < 0:
                    dist[nb] = d
                    nxt.append(int(nb))
        frontier = nxt
    return dist


def min_swaps(space: EnumeratedSpace, a, b, algorithm: str = "swap",
              kernel: np.ndarray | None = None) -> int | None:
    """Fewest proposals connecting two states, or None when unreachable.

    `a` and `b` may be state indices or BinaryMatrix instances belonging to
    the space.  Distances are BFS shortest paths in the positive-transition
    graph of the chosen sampler.
    """
    _require_algorithm(algorithm)
    ia = a if isinstance(a, (int, np.integer)) else space.index_of(a)
    ib = b if isinstance(b, (int, np.integer)) else space.index_of(b)
    if ia == ib:
        return 0
    if kernel is None:
        kernel = exact_kernel(space, algorithm)
    dist = _bfs_distances(_adjacency(kernel), int(ia), len(space.states))
    return int(dist[ib]) if dist[ib] >= 0 else None


def diameter(space: EnumeratedSpace, algorithm: str = "swap",
             kernel: np.ndarray | None = None) -> int:
    """Largest pairwise BFS distance; raises ValueError on a disconnected space."""
    _require_algorithm(algorithm)
    if kernel is None:
        kernel = exact_kernel(space, algorithm)
    neighbors = _adjacency(kernel)
    size = len(space.states)
    if size == 0:
        raise ValueError("the space is empty")
    worst = 0
    for start in range(size):
        dist = _bfs_distances(neighbors, start, size)
        if (dist < 0).any():
            raise ValueError("the space is disconnected; the diameter is undefined")
        worst = max(worst, int(dist.max()))
    return worst


@dataclass(frozen=True)
class SampleComparison:
    """Empirical visit frequencies of retained matrices against exact probabilities."""

    n_samples: int
    counts: np.ndarray
    frequencies: np.ndarray
    kl_divergence: float
    total_variation: float


def empirical_distribution(traces, space: EnumeratedSpace) -> SampleComparison:
    """Tabulate retained matrices over the space and compare to exact probabilities.

    Accepts one trace or an iterable of traces; every trace must have been
    run with matrices kept.  A retained matrix outside the space raises
    StateNotInSpaceError.  Reports KL(empirical || exact) over visited states
    and the total variation distance.
    """
    if isinstance(traces, Trace):
        traces = [traces]
    counts = np.zeros(len(space.states), dtype=np.int64)
    for trace in traces:
        if trace.matrices is None:
            raise ValueError("trace was run without keep_matrices; no states to compare")
        for matrix in trace.matrices:
            counts[space.index_of(matrix)] += 1
    total = int(counts.sum())
    if total == 0:
        raise ValueError("no retained matrices to compare")
    freq = counts / total
    visited = freq > 0
    kl = float(np.sum(freq[visited] * np.log(freq[visited] / space.probabilities[visited])))
    tv = 0.5 * float(np.abs(freq - space.probabilities).sum())
    return SampleComparison(total, counts, freq, kl, tv)
