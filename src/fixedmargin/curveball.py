"""Weighted curveball: two rows trade whole sets of columns per proposal.

A proposal draws an unordered pair of distinct rows uniformly.  The tradeable
columns of row i against row i' are the columns where row i has a 1, row i'
has a 0, and w[i', j] > 0 (so the 1 could legally relocate); symmetrically
for row i'.  If either side is empty the proposal is a no-trade.  Otherwise
the a + b pooled candidates are split uniformly back into sets of the
original sizes (Carstens, Berger & Strona's trade law), drawn in time that
grows with the number k of columns that cross, not with the pool: k from its
hypergeometric law C(a, k) C(b, k) / C(a + b, a), then k of each row's
candidates, uniformly, to hand over.  Writing j_i for the columns row i would
gain and j_i' for those row i' would gain, the trade is accepted with the
swap's logistic 1 / (1 + exp(d)) of the log-odds, with l = log w,

    d = sum(l[i', j] - l[i, j], j in j_i) + sum(l[i, j] - l[i', j], j in j_i'),

so a one-column trade, which is a checkerboard swap, gets the swap's exact
probability.  A split with k = 0 reproduces the current sets: an identity
trade, accepted as a self-transition without a coin flip.  One accepted trade
can move many 1s at once, which is what makes this chain mix faster than
single swaps on most inputs.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import combinations
from math import comb, trunc

from ._streams import UniformStream, draw_pair
from .matrices import BinaryMatrix, WeightMatrix, _accept_prob, _columns

_OUTCOMES = ("no-trade", "rejected", "traded")


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


@lru_cache(maxsize=1024)  # pool sizes give up to n**2 / 4 keys
def _crossing_law(a: int, b: int) -> tuple[float, ...]:
    """P(k) for k = 0..min(a, b): the chance that a uniform split crosses k columns each way.

    A uniform split leaves row i a uniform a-subset of the a + b pooled
    candidates, k of them from row i', with the hypergeometric probability
    C(a, k) C(b, k) / C(a + b, a).  Each value is that ratio of exact
    integers, correctly rounded, so no pool is too large for it.
    """
    k = min(a, b)
    total = comb(a + b, a)
    count = comb(max(a, b), k)  # C(a, k) C(b, k) at the largest k
    law = [0.0] * (k + 1)
    while True:
        law[k] = count / total
        if not k:
            return tuple(law)
        count = count * k * k // ((a - k + 1) * (b - k + 1))
        k -= 1


def _pick(cols: list[int], k: int, u) -> list[int]:
    # k of the ascending columns, uniformly without replacement, sorted: a
    # partial Fisher-Yates that reorders `cols` and draws nothing when k
    # takes them all
    n = len(cols)
    if k < n:
        for t in range(k):
            r = t + trunc(u() * (n - t))
            cols[t], cols[r] = cols[r], cols[t]
        return sorted(cols[:k])
    return cols


def _draw_split(cand_i: list[int], cand_ip: list[int], u) -> tuple[list[int], list[int]]:
    """A uniform split of the pooled candidates, as the columns each row gains.

    Draws the number k of crossing columns by inverting `_crossing_law` from
    k = min(a, b) down with one uniform, then k of each row's candidates to
    hand over: at most 1 + 2k uniforms, where a shuffle of the pool takes
    a + b - 1.  Both lists are sorted, and both empty for the identity
    split; the candidate lists are reordered.
    """
    law = _crossing_law(len(cand_i), len(cand_ip))
    k = len(law) - 1
    c = u()
    cut = law[k]
    while k and c >= cut:
        k -= 1
        cut += law[k]
    if not k:
        return [], []
    gained_ip = _pick(cand_i, k, u)
    gained_i = _pick(cand_ip, k, u)
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
    m, n = weights.m, weights.n
    if not (0 <= i < m and 0 <= i_prime < m) or i == i_prime:
        raise ValueError(f"row pair must be two distinct rows in 0..{m - 1}, got {(i, i_prime)}")
    gi = sorted(moved_to_i)
    gip = sorted(moved_to_i_prime)
    if len(gi) != len(gip):
        raise ValueError("a trade moves equally many columns in each direction")
    if len(set(gi + gip)) < 2 * len(gi):
        raise ValueError("a column moves once: not twice, nor in both directions")
    both = weights._pos_masks[i] & weights._pos_masks[i_prime]
    for j in gi + gip:
        if not 0 <= j < n:
            raise ValueError(f"column {j} is not in 0..{n - 1}")
        if not both >> j & 1:
            raise ValueError(f"column {j} touches a zero weight; not a valid trade")
    return _trade_prob(weights._log_rows, i, i_prime, gi, gip)


def _start(state: BinaryMatrix) -> None:
    """Raise ValueError unless `state` has the two rows a trade needs."""
    if state.m < 2:
        raise ValueError("curveball needs at least two rows")


def _stepper(state: BinaryMatrix, weights: WeightMatrix, u):
    """One-proposal step function over `state`; returns 0 no-trade, 1 reject, 2 trade.

    Identity trades count as accepted.  An accepted trade flips the moved
    columns in both rows' bitsets, in place; cached views are left to the caller.
    """
    rows, pos_masks, log_rows = state._rows, weights._pos_masks, weights._log_rows
    m = len(rows)
    half = _crossing_law(1, 1)[1]

    def step() -> int:
        a, b = draw_pair(m, u)
        cand_a, cand_b = _candidates(rows, pos_masks, a, b)
        if not cand_a or not cand_b:
            return 0
        if not (cand_a & (cand_a - 1) or cand_b & (cand_b - 1)):
            # a two-column pool: the draw of k is its only draw, and crosses
            # below P(1) = 1/2, exactly as `_draw_split` would
            if u() >= half:
                return 2
            gained_a = [cand_b.bit_length() - 1]
            gained_b = [cand_a.bit_length() - 1]
            moved = cand_a | cand_b
        else:
            gained_a, gained_b = _draw_split(_columns(cand_a), _columns(cand_b), u)
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


def _outcomes(states, weights: WeightMatrix):
    """One list of outcomes per state's row bitsets in `states`, as (share, i, i', moved, p).

    For each of the C(m, 2) row pairs, the outcomes of `_draw_split`: k
    crossing columns with probability P(k), then each pair of k-subsets
    equally likely.  A trade flips the columns `moved` in rows i and i' with
    probability p; moved is 0 for a no-trade or the identity trade.  A
    pair's outcomes depend on the state only through its two candidate
    masks, so they are listed once per (i, i', cand_i, cand_i') and
    replayed, from a table emptied between states past 2**15 outcomes.
    """
    m, log_rows, pos_masks = weights.m, weights._log_rows, weights._pos_masks
    pairs, held = list(combinations(range(m), 2)), 0  # held: outcomes in the table

    @cache
    def pair_outcomes(i, ip, cand_a, cand_b) -> list:
        nonlocal held
        inv_pairs = 1.0 / len(pairs)
        cand_i, cand_ip = _columns(cand_a), _columns(cand_b)
        a, b = len(cand_i), len(cand_ip)
        law = _crossing_law(a, b)  # (1.0,) when a side is empty: the no-trade
        outcomes = [(inv_pairs * law[0], i, ip, 0, 0.0)]  # or the identity trade
        for k in range(1, len(law)):
            share = inv_pairs * law[k] / (comb(a, k) * comb(b, k))
            for gained_ip in combinations(cand_i, k):
                for gained_i in combinations(cand_ip, k):
                    moved = sum(1 << j for j in gained_i + gained_ip)
                    p = _trade_prob(log_rows, i, ip, gained_i, gained_ip)
                    outcomes.append((share, i, ip, moved, p))
        held += len(outcomes)
        return outcomes

    def state_outcomes(rows) -> list:
        nonlocal held
        if held > 1 << 15:  # bounds memory where states rarely repeat a pair's masks
            pair_outcomes.cache_clear()
            held = 0
        return [outcome for i, ip in pairs
                for outcome in pair_outcomes(i, ip, *_candidates(rows, pos_masks, i, ip))]

    return map(state_outcomes, states)


def propose_trade(state: BinaryMatrix, weights: WeightMatrix, rng, rows=None) -> TradeProposal | None:
    """Draw one trade proposal without touching the state.

    `rows` fixes the row pair instead of drawing it, which is handy for
    exercising the split distribution.  Returns None when either candidate
    set is empty (the no-trade outcome).
    """
    _start(state)
    m = state.m
    u = UniformStream(rng, block=8).u
    if rows is None:
        a, b = draw_pair(m, u)
    else:
        a, b = rows
        if not (0 <= a < m and 0 <= b < m) or a == b:
            raise ValueError(f"row pair must be two distinct rows in 0..{m - 1}, got {rows}")
    cand_a, cand_b = _candidates(state._rows, weights._pos_masks, a, b)
    if not cand_a or not cand_b:
        return None
    cand_i, cand_ip = tuple(_columns(cand_a)), tuple(_columns(cand_b))
    gained_i, gained_ip = _draw_split(list(cand_i), list(cand_ip), u)
    return TradeProposal(
        rows=(a, b),
        candidates_i=cand_i,
        candidates_i_prime=cand_ip,
        moved_to_i=tuple(gained_i),
        moved_to_i_prime=tuple(gained_ip),
        trade_probability=_trade_prob(weights._log_rows, a, b, gained_i, gained_ip),
    )


def curveball_step(state: BinaryMatrix, weights: WeightMatrix, rng) -> str:
    """Run one weighted curveball proposal, mutating `state` in place.

    Returns one of "no-trade", "rejected", "traded".  Identity trades count
    as "traded".  Requires at least two rows.  A trade drops the state's
    cached `entries` and `ones`, so `ones` is next read in row-major order.
    """
    _start(state)
    outcome = _stepper(state, weights, UniformStream(rng, block=16).u)()
    if outcome == 2:
        state._entries = state._ones = None
    return _OUTCOMES[outcome]
