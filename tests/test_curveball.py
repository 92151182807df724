"""Trade acceptance values, split uniformity, and curveball chain safety."""

from collections import Counter

import numpy as np
import pytest
import scipy.stats

from fixedmargin import (
    BinaryMatrix,
    WeightMatrix,
    compute_margins,
    curveball_step,
    propose_trade,
    swap_probability,
    trade_probability,
)


def ones_matrix(m, n, cells):
    ent = np.zeros((m, n), dtype=np.int8)
    for i, j in cells:
        ent[i, j] = 1
    return BinaryMatrix(ent)


# -- acceptance probability -------------------------------------------------------


def test_identity_trade_probability_is_one():
    w = WeightMatrix.all_ones(2, 2)
    assert trade_probability(w, 0, 1, [], []) == 1.0


def test_uniform_single_column_trade_is_half():
    w = WeightMatrix.all_ones(2, 2)
    assert trade_probability(w, 0, 1, [1], [0]) == 0.5


def test_single_column_trade_equals_swap_probability():
    # trading one column between two rows is exactly a checkerboard swap,
    # and both go through one acceptance function, so they agree to the bit
    rng = np.random.default_rng(314159)
    for _ in range(1000):
        m, n = int(rng.integers(2, 5)), int(rng.integers(2, 6))
        w = WeightMatrix(rng.lognormal(0.0, 3.0, size=(m, n)))
        i, ip = rng.choice(m, size=2, replace=False)
        j, jp = rng.choice(n, size=2, replace=False)
        # a 1 sits at (i, j) and (ip, jp); the swap moves them across
        via_swap = swap_probability(w, int(i), int(j), int(ip), int(jp))
        via_trade = trade_probability(w, int(i), int(ip), [int(jp)], [int(j)])
        assert via_trade == via_swap


def test_trade_probability_extreme_weights_saturate():
    w = WeightMatrix([[1e-300, 1e300], [1e300, 1e-300]])
    assert trade_probability(w, 0, 1, [1], [0]) == 1.0
    assert trade_probability(w, 0, 1, [0], [1]) == 0.0


def test_trade_probability_validates_inputs():
    w = WeightMatrix.all_ones(3, 4)
    with pytest.raises(ValueError, match="equally many"):
        trade_probability(w, 0, 1, [0, 1], [2])
    with pytest.raises(ValueError, match="both directions"):
        trade_probability(w, 0, 1, [0], [0])
    zero = WeightMatrix([[1.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="zero weight"):
        trade_probability(zero, 0, 1, [1], [0])


def test_trade_probabilities_of_the_two_directions_sum_to_one():
    rng = np.random.default_rng(271828)
    for _ in range(300):
        w = WeightMatrix(rng.lognormal(0.0, 1.5, size=(2, 6)))
        cols = rng.permutation(6)
        there = [int(c) for c in sorted(cols[:2])]
        back = [int(c) for c in sorted(cols[2:4])]
        forward = trade_probability(w, 0, 1, there, back)
        reverse = trade_probability(w, 0, 1, back, there)
        assert forward + reverse == pytest.approx(1.0)


# -- proposal sampling --------------------------------------------------------------


def test_identical_rows_cannot_trade():
    state = ones_matrix(2, 3, [(0, 0), (0, 2), (1, 0), (1, 2)])
    w = WeightMatrix.all_ones(2, 3)
    assert propose_trade(state, w, np.random.default_rng(1)) is None


def test_zero_weights_can_block_all_candidates():
    # row 0 owns column 0, but w[1,0] = 0 forbids relocating it
    state = BinaryMatrix.identity(2)
    w = WeightMatrix([[1.0, 1.0], [0.0, 1.0]])
    assert propose_trade(state, w, np.random.default_rng(2), rows=(0, 1)) is None


def test_propose_trade_reports_consistent_fields(alternating_weights):
    state = BinaryMatrix.identity(3)
    rng = np.random.default_rng(88)
    saw_identity = saw_cross = False
    for _ in range(300):
        prop = propose_trade(state, alternating_weights, rng)
        if prop is None:
            continue
        assert len(prop.moved_to_i) == len(prop.moved_to_i_prime)
        assert set(prop.moved_to_i) <= set(prop.candidates_i_prime)
        assert set(prop.moved_to_i_prime) <= set(prop.candidates_i)
        if prop.moved_to_i:
            saw_cross = True
            assert prop.trade_probability == pytest.approx(
                trade_probability(
                    alternating_weights,
                    prop.rows[0],
                    prop.rows[1],
                    list(prop.moved_to_i),
                    list(prop.moved_to_i_prime),
                )
            )
        else:
            saw_identity = True
            assert prop.trade_probability == 1.0
    assert saw_identity and saw_cross


def test_splits_are_uniform_over_all_head_choices():
    # rows with exclusive columns {0,1,2} and {3,4} pool five columns; the
    # ten 3-subsets for row 0 must come out equally often
    state = ones_matrix(2, 5, [(0, 0), (0, 1), (0, 2), (1, 3), (1, 4)])
    w = WeightMatrix.all_ones(2, 5)
    rng = np.random.default_rng(140)
    draws = 20000
    tallies = Counter()
    for _ in range(draws):
        prop = propose_trade(state, w, rng, rows=(0, 1))
        tallies[(prop.moved_to_i, prop.moved_to_i_prime)] += 1
    assert len(tallies) == 10
    result = scipy.stats.chisquare(list(tallies.values()))
    assert result.pvalue > 0.001


def test_propose_trade_requires_two_rows():
    state = ones_matrix(1, 2, [(0, 0)])
    w = WeightMatrix.all_ones(1, 2)
    with pytest.raises(ValueError, match="two rows"):
        propose_trade(state, w, np.random.default_rng(0))
    with pytest.raises(ValueError, match="distinct"):
        propose_trade(BinaryMatrix.identity(2), WeightMatrix.all_ones(2, 2),
                      np.random.default_rng(0), rows=(1, 1))


# -- stepping ---------------------------------------------------------------------


def test_two_by_two_uniform_state_change_rate():
    # the pool has two columns: half the proposals keep the split (identity),
    # the other half cross and are accepted with probability 1/2, so the
    # state flips a quarter of the time
    w = WeightMatrix.all_ones(2, 2)
    state = BinaryMatrix.identity(2)
    rng = np.random.default_rng(41)
    flips = 0
    rejected = 0
    before = state.entries.copy()
    for _ in range(20000):
        outcome = curveball_step(state, w, rng)
        if not np.array_equal(state.entries, before):
            flips += 1
            before = state.entries.copy()
        if outcome == "rejected":
            rejected += 1
    assert abs(flips / 20000 - 0.25) < 0.02
    assert abs(rejected / 20000 - 0.25) < 0.02


def test_curveball_requires_two_rows():
    state = ones_matrix(1, 3, [(0, 1)])
    w = WeightMatrix.all_ones(1, 3)
    with pytest.raises(ValueError, match="two rows"):
        curveball_step(state, w, np.random.default_rng(0))


def test_margins_conserved_over_long_runs():
    rng = np.random.default_rng(2025)
    for trial in range(5):
        m, n = int(rng.integers(3, 6)), int(rng.integers(3, 7))
        ent = (rng.random((m, n)) < 0.5).astype(np.int8)
        state = BinaryMatrix(ent)
        weights = WeightMatrix(rng.lognormal(0.0, 1.0, size=(m, n)))
        r0, c0 = compute_margins(state)
        for _ in range(5000):
            curveball_step(state, weights, rng)
        r1, c1 = compute_margins(state)
        assert np.array_equal(r0, r1) and np.array_equal(c0, c1)
        state.validate()


def test_structural_zeros_never_acquire_ones():
    rng = np.random.default_rng(61)
    w = np.ones((4, 5))
    w[3, :2] = 0.0
    w[2, 0] = 0.0
    weights = WeightMatrix(w)
    ent = (rng.random((4, 5)) < 0.6).astype(np.int8)
    ent[w == 0.0] = 0
    state = BinaryMatrix(ent)
    for _ in range(20000):
        curveball_step(state, weights, rng)
    assert not state.entries[w == 0.0].any()
    state.validate()
