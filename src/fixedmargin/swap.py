"""Weighted checkerboard swap: one-pair proposals with a logistic acceptance.

A proposal picks an unordered pair of 1-cells uniformly at random (all
C(k, 2) pairs are eligible, including pairs sharing a row or column, which
simply fail the checkerboard test).  A checkerboard pair, 1s at (i, j) and
(i', j') with the opposite corners empty, is swapped to (i, j') and (i', j)
with probability 1 / (1 + exp(d)), the logistic of the log-odds

    d = (l[i, j] + l[i', j']) - (l[i', j] + l[i, j']),   l = log w.

That is w[i', j] w[i, j'] / (w[i, j] w[i', j'] + w[i', j] w[i, j']) without
the products' underflow or overflow; it makes the chain reversible with respect
to the cell-weight product model.  Margins are preserved by construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from ._streams import UniformStream, draw_pair
from .matrices import BinaryMatrix, WeightMatrix, _accept_prob, _cells

_OUTCOMES = ("no-checkerboard", "rejected", "swapped")


@dataclass(frozen=True)
class SwapProposal:
    """One sampled pair of 1-cells and its acceptance probability.

    `swap_probability` is None when the pair is not a checkerboard (shared
    row, shared column, or an occupied opposite corner).
    """

    ones_pair: tuple[tuple[int, int], tuple[int, int]]
    is_checkerboard: bool
    swap_probability: float | None


def _swap_weights(rows, log_rows, i: int, j: int, i_prime: int, j_prime: int):
    """Log-odds d against swapping 1s at (i, j), (i', j') to (i, j'), (i', j).

    `rows` are the state's row bitsets.  Returns None when the pair is not a
    checkerboard: a shared row or column, or an occupied opposite corner.
    The swap is accepted with probability `_accept_prob(d)`.
    """
    if i == i_prime or j == j_prime or rows[i] >> j_prime & 1 or rows[i_prime] >> j & 1:
        return None
    return ((log_rows[i][j] + log_rows[i_prime][j_prime])
            - (log_rows[i_prime][j] + log_rows[i][j_prime]))


def swap_probability(weights: WeightMatrix, i: int, j: int, i_prime: int, j_prime: int) -> float:
    """Acceptance probability for swapping 1s at (i, j), (i', j') to (i, j'), (i', j).

    Requires distinct rows and distinct columns inside the matrix, never
    counted from its end.  Raises ValueError when both the current and the
    swapped cell pairs have zero weight (a 0/0 ratio, unreachable from any
    matrix that is compatible with the weights).
    """
    m, n = weights.m, weights.n
    if not (0 <= i < m and 0 <= i_prime < m and 0 <= j < n and 0 <= j_prime < n):
        raise ValueError(f"swap cells must lie in rows 0..{m - 1} and columns 0..{n - 1}")
    # in an otherwise empty matrix only a shared row or column breaks the checkerboard
    d = _swap_weights([0] * m, weights._log_rows, i, j, i_prime, j_prime)
    if d is None:
        raise ValueError("swap cells must occupy distinct rows and distinct columns")
    if d != d:  # NaN, from -inf - -inf: both pairs hold a zero weight
        raise ValueError("both cell pairs have zero weight; the state is incompatible")
    return _accept_prob(d)


def _start(state: BinaryMatrix) -> str | None:
    """Why a swap chain from `state` can never move, or None; any shape can run."""
    if len(state.ones) < 2:
        return "swap chain on a matrix with fewer than two 1s can never move"
    return None


def _stepper(state: BinaryMatrix, weights: WeightMatrix, u):
    """One-proposal step function over `state`; returns 0 no-op, 1 reject, 2 swap.

    An accepted swap of the cells at positions a, b of `state.ones` flips
    the state's row bitsets and rewrites both slots in place, keeping their
    rows and exchanging their columns; `entries` is left to the caller.
    """
    rows, ones, log_rows = state._rows, state.ones, weights._log_rows
    k = len(ones)

    def step() -> int:
        if k < 2:
            return 0
        a, b = draw_pair(k, u)
        i, j = ones[a]
        ip, jp = ones[b]
        d = _swap_weights(rows, log_rows, i, j, ip, jp)
        if d is None:
            return 0
        if u() < _accept_prob(d):
            ones[a] = (i, jp)
            ones[b] = (ip, j)
            flip = 1 << j | 1 << jp
            rows[i] ^= flip
            rows[ip] ^= flip
            return 2
        return 1

    return step


def _outcomes(states, weights: WeightMatrix):
    """One iterator of outcomes per state's row bitsets in `states`, as (share, i, i', moved, p).

    Each pair of a state's k 1-cells has share 1 / C(k, 2) and flips the
    columns `moved` in rows i and i' with probability p; moved is 0 for no
    checkerboard.
    """
    def state_outcomes(rows):
        ones = _cells(rows)
        k = len(ones)
        if k < 2:
            yield 1.0, 0, 0, 0, 0.0
            return
        inv_pairs = 1.0 / (k * (k - 1) // 2)
        for (i, j), (ip, jp) in combinations(ones, 2):
            d = _swap_weights(rows, weights._log_rows, i, j, ip, jp)
            if d is None:
                yield inv_pairs, i, ip, 0, 0.0
            else:
                yield inv_pairs, i, ip, 1 << j | 1 << jp, _accept_prob(d)

    return map(state_outcomes, states)


def propose_swap(state: BinaryMatrix, weights: WeightMatrix, rng) -> SwapProposal | None:
    """Sample one pair of 1-cells and report what a step would do with it.

    Read-only companion to `swap_step` for inspection and testing; the state
    is not modified.  Returns None when the matrix has fewer than two 1s and
    no pair can be drawn.
    """
    k = len(state.ones)
    if k < 2:
        return None
    a, b = draw_pair(k, UniformStream(rng, block=2).u)
    first, second = state.ones[a], state.ones[b]
    (i, j), (ip, jp) = first, second
    d = _swap_weights(state._rows, weights._log_rows, i, j, ip, jp)
    return SwapProposal((first, second), d is not None, None if d is None else _accept_prob(d))


def swap_step(state: BinaryMatrix, weights: WeightMatrix, rng) -> str:
    """Run one weighted swap proposal, mutating `state` in place.

    Returns one of "no-checkerboard", "rejected", "swapped".  The caller is
    responsible for `state` being compatible with `weights`; a matrix with
    fewer than two 1s can never move and every proposal reports
    "no-checkerboard".
    """
    outcome = _stepper(state, weights, UniformStream(rng, block=4).u)()
    if outcome == 2:
        state._entries = None
    return _OUTCOMES[outcome]
