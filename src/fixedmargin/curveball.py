"""Weighted curveball: two rows trade whole sets of columns per proposal.

A proposal draws an unordered pair of distinct rows uniformly.  The tradeable
columns of row i against row i' are the columns where row i has a 1, row i'
has a 0, and w[i', j] > 0 (so the 1 could legally relocate); symmetrically
for row i'.  If either side is empty the proposal is a no-trade.  Otherwise
the union of both candidate lists is permuted uniformly and split back into
two sets of the original sizes.  Writing j_i for the columns row i would
gain and j_i' for those row i' would gain, the trade is accepted with the
swap's logistic 1 / (1 + exp(d)) of the log-odds, with l = log w,

    d = sum(l[i', j] - l[i, j], j in j_i) + sum(l[i, j] - l[i', j], j in j_i'),

so a one-column trade, which is a checkerboard swap, gets the swap's exact
probability.  A permutation that reproduces the current sets is an identity
trade, accepted as a self-transition without a coin flip.  One accepted trade
can move many 1s at once, which is what makes this chain mix faster than
single swaps on most inputs.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import trunc

from ._streams import UniformStream, draw_pair
from .matrices import BinaryMatrix, WeightMatrix, _accept_prob, _RowBitsView

NO_TRADE = "no-trade"
REJECTED = "rejected"
TRADED = "traded"

_OUTCOMES = (NO_TRADE, REJECTED, TRADED)


@dataclass(frozen=True)
class TradeProposal:
    """A drawn row pair, its tradeable columns, and the proposed exchange.

    `moved_to_i` lists columns whose 1 would move from row i' to row i;
    `moved_to_i_prime` the reverse direction.  Both are empty for an identity
    trade, whose probability is reported as 1 (accepted self-transition).
    """

    rows: tuple[int, int]
    candidates_i: tuple[int, ...]
    candidates_i_prime: tuple[int, ...]
    moved_to_i: tuple[int, ...]
    moved_to_i_prime: tuple[int, ...]
    trade_probability: float


def _candidates(rows, pos_masks, i: int, ip: int) -> tuple[int, int]:
    # column bitmasks row i could hand to row i' and the reverse: a 1 here,
    # a 0 there, and a positive weight on the receiving row
    r_i = rows[i]
    r_ip = rows[ip]
    return r_i & ~r_ip & pos_masks[ip], r_ip & ~r_i & pos_masks[i]


def _columns(mask: int) -> list[int]:
    """Set bits of a column bitmask, ascending."""
    cols = []
    while mask:
        low = mask & -mask
        cols.append(low.bit_length() - 1)
        mask ^= low
    return cols


def _shuffle_split(cand_i, cand_ip, u):
    """Uniform split of the candidate union back into the original sizes.

    Returns the columns gained by each row (sorted).  Fisher-Yates on the
    concatenated list; the first len(cand_i) entries become row i's new
    exclusive columns.
    """
    pool = cand_i + cand_ip
    for x in range(len(pool) - 1, 0, -1):
        r = trunc(u() * (x + 1))
        pool[x], pool[r] = pool[r], pool[x]
    a = len(cand_i)
    keep_i = set(cand_i)
    gained_i = [j for j in pool[:a] if j not in keep_i]
    gained_ip = [j for j in pool[a:] if j in keep_i]
    gained_i.sort()
    gained_ip.sort()
    return gained_i, gained_ip


def _trade_prob(log_rows, i, ip, gained_i, gained_ip) -> float:
    # empty move sets mean an identity trade, accepted outright
    if not gained_i:
        return 1.0
    l_i = log_rows[i]
    l_ip = log_rows[ip]
    s_new = 0.0
    s_old = 0.0
    for j in gained_i:
        s_new += l_i[j]
        s_old += l_ip[j]
    for j in gained_ip:
        s_new += l_ip[j]
        s_old += l_i[j]
    return _accept_prob(s_old - s_new)


def trade_probability(weights: WeightMatrix, i: int, i_prime: int, moved_to_i, moved_to_i_prime) -> float:
    """Acceptance probability for a proposed trade between rows i and i'.

    `moved_to_i` are the columns row i would gain (currently 1 in row i'),
    `moved_to_i_prime` those row i' would gain.  The sets must be equal-sized
    and disjoint, and every cell involved must have positive weight, which
    the candidate construction guarantees for proposals drawn in-sampler.
    Empty sets are the identity trade and return 1.
    """
    gi = sorted(moved_to_i)
    gip = sorted(moved_to_i_prime)
    if len(gi) != len(gip):
        raise ValueError("a trade moves equally many columns in each direction")
    if set(gi) & set(gip):
        raise ValueError("a column cannot move in both directions")
    both = weights._pos_masks[i] & weights._pos_masks[i_prime]
    for j in gi + gip:
        if not both >> j & 1:
            raise ValueError(f"column {j} touches a zero weight; not a valid trade")
    return _trade_prob(weights._log_rows, i, i_prime, gi, gip)


def _stepper(rows, pos_masks, log_rows, u):
    """One-proposal step function over row bitsets; returns 0 no-trade, 1 reject, 2 trade.

    Identity trades count as accepted.  An accepted trade flips the moved
    columns in both rows' bitsets, in place.
    """
    m = len(rows)

    def step() -> int:
        a, b = draw_pair(m, u)
        cand_a, cand_b = _candidates(rows, pos_masks, a, b)
        if not cand_a or not cand_b:
            return 0
        if not (cand_a & (cand_a - 1) or cand_b & (cand_b - 1)):
            # a two-column pool: the single shuffle draw either keeps the split
            # (identity trade) or crosses it, exactly as the general path would
            if trunc(u() * 2):
                return 2
            gained_a = [cand_b.bit_length() - 1]
            gained_b = [cand_a.bit_length() - 1]
            moved = cand_a | cand_b
        else:
            gained_a, gained_b = _shuffle_split(_columns(cand_a), _columns(cand_b), u)
            if not gained_a:
                return 2
            moved = 0
            for j in gained_a + gained_b:
                moved |= 1 << j
        if u() < _trade_prob(log_rows, a, b, gained_a, gained_b):
            rows[a] ^= moved
            rows[b] ^= moved
            return 2
        return 1

    return step


def propose_trade(state: BinaryMatrix, weights: WeightMatrix, rng, rows=None) -> TradeProposal | None:
    """Draw one trade proposal without touching the state.

    `rows` fixes the row pair instead of drawing it, which is handy for
    exercising the split distribution.  Returns None when either candidate
    set is empty (the no-trade outcome).
    """
    m = state.m
    if m < 2:
        raise ValueError("curveball needs at least two rows")
    u = UniformStream(rng, block=8).u
    if rows is None:
        a, b = draw_pair(m, u)
    else:
        a, b = rows
        if a == b:
            raise ValueError("row pair must be distinct")
    cand_a, cand_b = _candidates(_RowBitsView(state.entries), weights._pos_masks, a, b)
    if not cand_a or not cand_b:
        return None
    cand_i, cand_ip = _columns(cand_a), _columns(cand_b)
    gained_i, gained_ip = _shuffle_split(cand_i, cand_ip, u)
    return TradeProposal(
        rows=(a, b),
        candidates_i=tuple(cand_i),
        candidates_i_prime=tuple(cand_ip),
        moved_to_i=tuple(gained_i),
        moved_to_i_prime=tuple(gained_ip),
        trade_probability=_trade_prob(weights._log_rows, a, b, gained_i, gained_ip),
    )


def curveball_step(state: BinaryMatrix, weights: WeightMatrix, rng) -> str:
    """Run one weighted curveball proposal, mutating `state` in place.

    Returns one of "no-trade", "rejected", "traded".  Identity trades count
    as "traded".  Requires at least two rows.  Each moved 1 keeps its slot
    in `state.ones`, with its row changed.
    """
    if state.m < 2:
        raise ValueError("curveball needs at least two rows")
    ones = state.ones  # read before the step moves any entry: it is built lazily
    rows = _RowBitsView(state.entries)
    outcome = _stepper(rows, weights._pos_masks, weights._log_rows,
                       UniformStream(rng, block=16).u)()
    if rows.written:
        a, b = rows.written
        for idx, (i, j) in enumerate(ones):
            if (i == a or i == b) and not state.entries[i, j]:
                ones[idx] = (a + b - i, j)
    return _OUTCOMES[outcome]
