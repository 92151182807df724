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
from array import array
from dataclasses import dataclass, field

import numpy as np

from .chains import ALGORITHMS, SAMPLERS, Trace
from .matrices import BinaryMatrix, WeightMatrix, _columns


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
    _moves: dict[str, MoveGraph] = field(repr=False, default_factory=dict)

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
        need = r.tolist()
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
            for cols in itertools.combinations(open_cols, need[i]):
                for j in cols:
                    remaining[j] -= 1
                if max(remaining) <= rows_left_after:
                    chosen.append(sum(1 << j for j in cols))
                    descend(i + 1)
                    chosen.pop()
                for j in cols:
                    remaining[j] += 1

        descend(0)

    if not states:
        return EnumeratedSpace(r, c, weights, [], np.zeros(0), -math.inf, {})

    logps = np.array([float(weights.log_weights[state.entries == 1].sum()) for state in states])
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


@dataclass(frozen=True, eq=False)
class MoveGraph:
    """Every legal one-step move of one sampler on an enumerated space.

    Move k goes from state src[k] to state dst[k] != src[k] with one-step
    probability prob[k], and stay[s] is the probability of remaining at
    state s.  A move is listed whenever its target is a state of the space,
    even when its probability underflows to 0.0, so the graph's edges come
    from move legality, not from floats.  Moves are listed source by source,
    so src is sorted, and no (src, dst) pair repeats.  The reverse of a legal
    move is legal, so the graph is symmetric.  targets[s] lists state s's
    move targets, for the breadth-first searches.  The space caches its
    graphs, so the arrays are read-only and the lists are not to be changed.
    """

    src: np.ndarray
    dst: np.ndarray
    prob: np.ndarray
    stay: np.ndarray
    targets: list[list[int]]


def move_graph(space: EnumeratedSpace, algorithm: str) -> MoveGraph:
    """The sampler's legal moves, built once per space and algorithm; `_start` may refuse them."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {algorithm!r}")
    graph = space._moves.get(algorithm)
    if graph is None:
        if space.states:  # every state has the same shape
            SAMPLERS[algorithm]._start(space.states[0])
        *columns, targets = _moves(space, SAMPLERS[algorithm]._outcomes)
        columns = [np.frombuffer(column, dtype=column.typecode) for column in columns]
        for column in columns:
            column.flags.writeable = False  # every caller shares the cached graph
        graph = space._moves[algorithm] = MoveGraph(*columns, targets)
    return graph


def exact_kernel(space: EnumeratedSpace, algorithm: str) -> np.ndarray:
    """Exact one-step transition matrix of the chosen sampler on the space.

    Row s holds the probabilities of every possible state after one proposal
    from states[s], including the self-transition mass from no-op proposals
    and rejections.  Rows sum to one up to float roundoff.  This is the dense
    S x S view of `move_graph`; the oracle's own checks read the moves.
    """
    graph = move_graph(space, algorithm)
    kernel = np.zeros((len(graph.stay), len(graph.stay)))
    kernel[graph.src, graph.dst] = graph.prob
    np.fill_diagonal(kernel, graph.stay)
    return kernel


def _moves(space: EnumeratedSpace, outcomes):
    """The move graph's columns and target lists, accumulated one proposal outcome at a time.

    `outcomes` is a sampler's `_outcomes`.  An outcome moves nowhere, with
    p = 0.0, when it flips nothing or its target is not a state: a swap
    that lands a 1 on a zero weight.  The target lists share the index ints
    of `space._index`.
    """
    index, weights = space._index, space.weights
    src, dst, prob, stay, targets = array("q"), array("q"), array("d"), array("d"), []
    for s, state in enumerate(space.states):
        rows = state._rows
        mass, out = 0.0, []
        for share, i, ip, moved, p in outcomes(rows, weights):
            t = None
            if moved:
                target = list(rows)
                target[i] ^= moved
                target[ip] ^= moved
                t = index.get(tuple(target))
            if t is None:
                p = 0.0
            else:
                src.append(s)
                dst.append(t)
                prob.append(share * p)
                out.append(t)
            mass += share * (1.0 - p)
        stay.append(mass)
        targets.append(out)
    return src, dst, prob, stay, targets


def balance_residual(space: EnumeratedSpace, algorithm: str) -> float:
    """Largest violation of detailed balance |P(s) K(s,t) - P(t) K(t,s)|."""
    graph = move_graph(space, algorithm)
    if not len(graph.src):
        return 0.0
    size = len(graph.stay)
    flow = space.probabilities[graph.src] * graph.prob
    # pair each move s -> t with its reverse t -> s, whose flow is 0 if unlisted
    keys = graph.src * size + graph.dst
    order = np.argsort(keys)
    reverse = graph.dst * size + graph.src
    at = order[np.minimum(np.searchsorted(keys[order], reverse), len(keys) - 1)]
    back = np.where(keys[at] == reverse, flow[at], 0.0)
    return float(np.abs(flow - back).max())


def stationarity_residual(space: EnumeratedSpace, algorithm: str) -> float:
    """Sup-norm of pi K - pi for the exact probability vector pi."""
    graph = move_graph(space, algorithm)
    pi = space.probabilities
    pi_k = np.bincount(graph.dst, weights=pi[graph.src] * graph.prob,
                       minlength=len(pi)) + pi * graph.stay
    return float(np.abs(pi_k - pi).max(initial=0.0))


def _layers(targets: list[list[int]], source: int, seen: bytearray):
    """Breadth-first layers over the move targets, nearest first.

    Yields [source], then the states first reached at distance 1, 2, ...
    Each state is marked in `seen` when reached; at a yield, exactly the
    states of that layer and the nearer ones are marked.
    """
    seen[source] = 1
    layer = [source]
    while layer:
        yield layer
        grown = []
        for s in layer:
            for t in targets[s]:
                if not seen[t]:
                    seen[t] = 1
                    grown.append(t)
        layer = grown


def connectivity(space: EnumeratedSpace, algorithm: str) -> list[list[int]]:
    """Connected components of the legal-move graph, as sorted index lists.

    A single component means the sampler can reach every positive-probability
    state; more than one means the chain is reducible on this input and its
    long-run frequencies depend on the starting matrix.  Each component is
    the breadth-first reach of its lowest state, and components come in the
    order of their lowest states; the graph is symmetric, so reach is
    mutual.  Swap and curveball have the same components.
    """
    targets = move_graph(space, algorithm).targets
    seen = bytearray(len(targets))
    components: list[list[int]] = []
    for s in range(len(targets)):
        if not seen[s]:
            components.append(sorted(t for layer in _layers(targets, s, seen) for t in layer))
    return components


def min_swaps(space: EnumeratedSpace, a, b, algorithm: str = "swap") -> int | None:
    """Fewest proposals connecting two states, or None when unreachable.

    `a` and `b` may be state indices or BinaryMatrix instances belonging to
    the space.  Distances are BFS shortest paths in the legal-move graph of
    the chosen sampler.
    """
    targets = move_graph(space, algorithm).targets
    ia = int(a) if isinstance(a, (int, np.integer)) else space.index_of(a)
    ib = int(b) if isinstance(b, (int, np.integer)) else space.index_of(b)
    if not (0 <= ia < len(targets) and 0 <= ib < len(targets)):
        raise StateNotInSpaceError(f"indices {ia}, {ib}: the space has {len(targets)} states")
    seen = bytearray(len(targets))
    for distance, _ in enumerate(_layers(targets, ia, seen)):
        if seen[ib]:
            return distance
    return None


def diameter(space: EnumeratedSpace, algorithm: str = "swap") -> int:
    """Largest pairwise BFS distance; raises ValueError on a disconnected space.

    All sources expand at once: reach[s] is a bitset of the states within
    the current distance of s, and one round ORs in the sets of s's move
    targets, until every set is full.
    """
    targets = move_graph(space, algorithm).targets
    if len(space) == 0:
        raise ValueError("the space is empty")
    full = (1 << len(space)) - 1
    reach = [1 << s for s in range(len(space))]
    rounds = 0
    while any(bits != full for bits in reach):
        grown = []
        for bits, out in zip(reach, targets):
            for t in out:
                bits |= reach[t]
            grown.append(bits)
        if grown == reach:
            raise ValueError("the space is disconnected; the diameter is undefined")
        reach = grown
        rounds += 1
    return rounds


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
