"""Exact enumeration oracle for small margin-constrained state spaces.

For desk-sized margins the full set of positive-probability matrices can be
enumerated, giving exact state probabilities, exact one-step transition
kernels for both samplers, and graph questions (connectivity, shortest swap
paths, diameter).  That is the ground truth the samplers are verified
against: detailed balance and stationarity of the kernels, connectivity of
the proposal graph, and divergence of empirical visit frequencies.
"""
from __future__ import annotations

import functools
import itertools
import math
from array import array
from collections import Counter
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
    deterministic row-wise order; `_keys` maps their packed keys, as
    `_state_rows` lists them, to indices, and serves `index_of`.
    """

    row_sums: np.ndarray
    col_sums: np.ndarray
    weights: WeightMatrix
    states: list[BinaryMatrix]
    probabilities: np.ndarray
    log_kappa: float
    _keys: dict[int, int] = field(repr=False, default_factory=dict)
    _moves: dict[str, MoveGraph] = field(repr=False, default_factory=dict)

    def __len__(self) -> int:
        return len(self.states)

    @property
    def kappa(self) -> float:
        """exp(log_kappa): 0.0 when it underflows, inf when it overflows."""
        with np.errstate(over="ignore"):
            return float(np.exp(self.log_kappa))

    def index_of(self, matrix: BinaryMatrix) -> int:
        return self._index(matrix._rows, matrix.n)

    def _index(self, rows, n: int) -> int:
        """The index of the state whose row bitsets, n columns wide, are `rows`."""
        key = 0
        for row in reversed(rows):
            key = key << n | row
        index = self._keys.get(key) if (len(rows), n) == (self.weights.m, self.weights.n) else None
        if index is None:
            raise StateNotInSpaceError(
                "matrix is not a positive-probability state of this space"
            )
        return index


def _margins(row_sums, col_sums, weights: WeightMatrix | None):
    """Validated margins as int64 arrays, and the weights (all ones when None)."""
    r = np.asarray(row_sums, dtype=np.int64)
    c = np.asarray(col_sums, dtype=np.int64)
    if r.ndim != 1 or c.ndim != 1:
        raise ValueError("margins must be 1-D integer sequences")
    if (r < 0).any() or (c < 0).any():
        raise ValueError("margins must be nonnegative")
    if weights is None:
        weights = WeightMatrix.all_ones(r.size, c.size)
    if (weights.m, weights.n) != (r.size, c.size):
        raise ValueError(
            f"weights are {weights.m}x{weights.n} but margins imply {r.size}x{c.size}"
        )
    return r, c, weights


def _state_rows(r: np.ndarray, c: np.ndarray, weights: WeightMatrix, cap: int) -> list[int]:
    """Every state as one packed int, row i in bits i*n .. i*n + n - 1.

    A depth-first listing: row i takes its columns in
    `itertools.combinations` order over its open allowed columns, keeping a
    choice only if no column then needs more 1s than rows are left, and the
    rows below follow in the same order.  Rows i .. m-1 depend only on i
    and the column capacities the rows above leave, so `suffixes` lists
    them once per (i, capacities) in each call, already at their bit
    positions, and each choice of row i is ORed onto every such tail in one
    list comprehension.  Infeasible margins give no state.  Raises
    SpaceTooLargeError as soon as any list holds more than `cap` keys: a
    suffix list of length L already implies at least L states.
    """
    m, n = r.size, c.size
    if not (m > 0 and n > 0 and r.sum() == c.sum() and (r <= n).all() and (c <= m).all()):
        return []
    allowed = [_columns(mask) for mask in weights._pos_masks]
    need = r.tolist()

    @functools.cache
    def suffixes(i: int, remaining: tuple[int, ...]) -> list[int]:
        # rows i .. m-1, in place, of every state whose rows above leave `remaining`
        if i == m:
            return [0]
        rows_left_after = m - i - 1
        left = list(remaining)
        keys: list[int] = []
        for cols in itertools.combinations([j for j in allowed[i] if left[j] > 0], need[i]):
            for j in cols:
                left[j] -= 1
            if max(left) <= rows_left_after:
                bits = sum(1 << j for j in cols) << i * n
                keys += [bits | tail for tail in suffixes(i + 1, tuple(left))]
                if len(keys) > cap:
                    raise SpaceTooLargeError(f"state space exceeds the cap of {cap} states")
            for j in cols:
                left[j] += 1
        return keys

    try:
        return suffixes(0, tuple(c.tolist()))
    finally:
        suffixes.cache_clear()  # the cache refers to itself, so it would wait for the collector


def enumerate_space(row_sums, col_sums, weights: WeightMatrix | None = None,
                    cap: int = 1_000_000) -> EnumeratedSpace:
    """Enumerate all binary matrices with the given margins and no 1 on a zero weight.

    The states are those of `_state_rows`, in its order.  Infeasible
    margins yield an empty space (log_kappa -inf), not an error.  Raises
    SpaceTooLargeError as soon as more than `cap` states are found.
    """
    r, c, weights = _margins(row_sums, col_sums, weights)
    keys = _state_rows(r, c, weights, cap)
    if not keys:
        return EnumeratedSpace(r, c, weights, [], np.zeros(0), -math.inf, {})

    m, n, full = r.size, c.size, (1 << c.size) - 1
    shifts = range(0, m * n, n)
    states = [BinaryMatrix._from_row_bits([key >> s & full for s in shifts], n) for key in keys]
    # a key's set bits, ascending, are its state's cells in row-major order, so each
    # gathered row is `log_weights[entries == 1]`, summed over the contiguous last axis
    # in the same pairwise order, bit for bit; 4,096 states at a time bound the temporaries
    flat, width, sums = weights.log_weights.ravel(), (m * n + 7) // 8, []
    for start in range(0, len(keys), 4096):
        part = keys[start:start + 4096]
        packed = np.frombuffer(b"".join(key.to_bytes(width, "little") for key in part), np.uint8)
        bits = np.unpackbits(packed.reshape(-1, width), axis=1, count=m * n, bitorder="little")
        sums.append(flat[np.nonzero(bits)[1].reshape(len(part), -1)].sum(axis=1))
    logps = np.concatenate(sums)
    peak = logps.max()
    scaled = np.exp(logps - peak)
    total = scaled.sum()
    probabilities = scaled / total
    return EnumeratedSpace(r, c, weights, states, probabilities, float(peak + np.log(total)),
                           dict(zip(keys, range(len(keys)))))


def swap_components(row_sums, col_sums, weights: WeightMatrix | None = None,
                    cap: int = 1_000_000) -> int:
    """How many components swap moves split the space into; 0 when it is empty.

    This is `len(connectivity(space, algorithm))` for every sampler, read
    from move legality alone.  A trade of k columns is k legal swaps in
    sequence, and each legal swap is a one-column trade, so swap and
    curveball have the same components and one count certifies both.

    A checkerboard swap between rows i and i' is legal when its target is a
    state, that is, when neither 1 it moves lands on a zero weight.  States
    are the packed ints of `_state_rows`, and a breadth-first search over
    legal swaps marks them in one set, so memory grows with the number of
    states, not of moves.  The search stops once every state is reached.
    Raises SpaceTooLargeError as soon as more than `cap` states are found.
    """
    r, c, weights = _margins(row_sums, col_sums, weights)
    keys = _state_rows(r, c, weights, cap)
    m, n = r.size, c.size
    full, pos = (1 << n) - 1, weights._pos_masks
    # only rows with a 1 and a 0 can swap; `both` flips the same columns in either row
    active = [i for i in range(m) if 0 < r[i] < n]
    pairs = [(i, ip, 1 << i * n | 1 << ip * n) for i, ip in itertools.combinations(active, 2)]
    total, seen = len(keys), set()
    components = 0
    for start in keys:
        if len(seen) == total:
            break
        if start in seen:
            continue
        components += 1
        seen.add(start)
        reached = [start]
        for key in reached:  # a breadth-first queue: the loop reads what it appends
            if len(seen) == total:
                break
            rows = [key >> i * n & full for i in range(m)]
            for i, ip, both in pairs:
                # the 1s row i can hand to row i', and those it can take back
                give = rows[i] & ~rows[ip] & pos[ip]
                take = rows[ip] & ~rows[i] & pos[i] if give else 0
                while take:
                    b = take & -take
                    take ^= b
                    rest = give
                    while rest:
                        a = rest & -rest
                        rest ^= a
                        target = key ^ (a | b) * both
                        if target not in seen:
                            seen.add(target)
                            reached.append(target)
    return components


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

    `outcomes` is a sampler's `_outcomes`, given every state's row bitsets.
    An outcome moves nowhere, with p = 0.0, when it flips nothing or its
    target is not a state: a swap that lands a 1 on a zero weight.  A target
    is one XOR of the state's packed key, looked up in `space._keys`, whose
    index ints the target lists share.
    """
    keys, n = space._keys, space.weights.n
    src, dst, prob, stay, targets = array("q"), array("q"), array("d"), array("d"), []
    listed = outcomes((state._rows for state in space.states), space.weights)
    for s, (key, state_outcomes) in enumerate(zip(keys, listed)):
        mass, out = 0.0, []
        for share, i, ip, moved, p in state_outcomes:
            t = keys.get(key ^ (moved << i * n | moved << ip * n)) if moved else None
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
    n = space.weights.n
    counts = np.zeros(len(space.states), dtype=np.int64)
    for trace in traces:
        if trace.matrices is None:
            raise ValueError("trace was run without keep_matrices; no states to compare")
        # a matrix of another width would pack to a wrong key: it is left out, so the tally falls short
        tally = Counter(tuple(matrix._rows) for matrix in trace.matrices if matrix.n == n)
        if tally.total() < len(trace.matrices):
            raise StateNotInSpaceError("a retained matrix has another shape than the space")
        for rows, count in tally.items():
            counts[space._index(rows, n)] += count
    total = int(counts.sum())
    if total == 0:
        raise ValueError("no retained matrices to compare")
    freq = counts / total
    visited = freq > 0
    kl = float(np.sum(freq[visited] * np.log(freq[visited] / space.probabilities[visited])))
    tv = 0.5 * float(np.abs(freq - space.probabilities).sum())
    return SampleComparison(total, counts, freq, kl, tv)
