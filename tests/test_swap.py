"""Swap acceptance values, proposal distribution, and long-run safety."""

import numpy as np
import pytest

from fixedmargin import (
    BinaryMatrix,
    WeightMatrix,
    compute_margins,
    propose_swap,
    swap_probability,
    swap_step,
)


def ones_matrix(m, n, cells):
    ent = np.zeros((m, n), dtype=np.int8)
    for i, j in cells:
        ent[i, j] = 1
    return BinaryMatrix(ent)


# -- acceptance probability ------------------------------------------------------


def test_swap_probability_uniform_weights_is_half():
    w = WeightMatrix.all_ones(2, 2)
    assert swap_probability(w, 0, 0, 1, 1) == 0.5


def test_swap_probability_alternating_weights(alternating_weights):
    # moving the diagonal pair (0,0),(1,1) to (0,1),(1,0) multiplies the
    # state weight by 4, so the move is accepted 4 times out of 5
    assert swap_probability(alternating_weights, 0, 0, 1, 1) == pytest.approx(0.8)
    # and the reverse move is accepted 1 time out of 5
    assert swap_probability(alternating_weights, 0, 1, 1, 0) == pytest.approx(0.2)


def test_swap_probability_zero_target_never_accepts():
    w = WeightMatrix([[1.0, 0.0], [1.0, 1.0]])
    assert swap_probability(w, 0, 0, 1, 1) == 0.0


def test_swap_probability_rejects_degenerate_pairs():
    w = WeightMatrix.all_ones(3, 3)
    with pytest.raises(ValueError, match="distinct rows"):
        swap_probability(w, 0, 0, 0, 1)
    with pytest.raises(ValueError, match="distinct rows"):
        swap_probability(w, 0, 1, 2, 1)
    both_zero = WeightMatrix([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="zero weight"):
        swap_probability(both_zero, 0, 0, 1, 1)
    # indices are never counted from the end of the matrix
    w = WeightMatrix.all_ones(4, 5)
    for cells in [(-1, 0, 0, 1), (0, -1, 1, 0), (0, 0, -1, 1), (0, 0, 1, -1),
                  (4, 0, 0, 1), (0, 5, 1, 0), (0, 0, 4, 1), (0, 0, 1, 5)]:
        with pytest.raises(ValueError, match=r"rows 0\.\.3 and columns 0\.\.4"):
            swap_probability(w, *cells)


def test_swap_probabilities_of_the_two_directions_sum_to_one():
    rng = np.random.default_rng(1812)
    for _ in range(200):
        w = WeightMatrix(rng.lognormal(0.0, 2.0, size=(2, 2)))
        forward = swap_probability(w, 0, 0, 1, 1)
        backward = swap_probability(w, 0, 1, 1, 0)
        assert forward + backward == pytest.approx(1.0)


# -- proposal sampling -----------------------------------------------------------


def test_propose_swap_needs_two_ones():
    w = WeightMatrix.all_ones(2, 2)
    assert propose_swap(ones_matrix(2, 2, [(0, 0)]), w, np.random.default_rng(0)) is None


def test_propose_swap_reports_checkerboards_consistently(alternating_weights):
    state = BinaryMatrix.identity(3)
    rng = np.random.default_rng(99)
    seen_checkerboard = False
    for _ in range(200):
        prop = propose_swap(state, alternating_weights, rng)
        (i, j), (ip, jp) = prop.ones_pair
        assert (i, j) != (ip, jp)
        if prop.is_checkerboard:
            seen_checkerboard = True
            assert prop.swap_probability == pytest.approx(
                swap_probability(alternating_weights, i, j, ip, jp)
            )
        else:
            assert prop.swap_probability is None
    assert seen_checkerboard


def test_one_pairs_are_drawn_uniformly():
    # identity 3x3 has three 1s, so three unordered pairs, each 1/3
    state = BinaryMatrix.identity(3)
    w = WeightMatrix.all_ones(3, 3)
    rng = np.random.default_rng(31337)
    counts = {}
    draws = 30000
    for _ in range(draws):
        prop = propose_swap(state, w, rng)
        key = frozenset(prop.ones_pair)
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 3
    for count in counts.values():
        assert abs(count / draws - 1 / 3) < 0.02


# -- stepping --------------------------------------------------------------------


def test_two_by_two_uniform_acceptance_rate():
    # the only pair is the diagonal, always a checkerboard, accepted half
    # the time under flat weights
    w = WeightMatrix.all_ones(2, 2)
    state = BinaryMatrix.identity(2)
    rng = np.random.default_rng(7)
    outcomes = {"no-checkerboard": 0, "rejected": 0, "swapped": 0}
    for _ in range(10000):
        outcomes[swap_step(state, w, rng)] += 1
    assert outcomes["no-checkerboard"] == 0
    assert abs(outcomes["swapped"] / 10000 - 0.5) < 0.025


def test_zero_weight_cell_blocks_all_moves():
    # with w[0,1] = 0 the identity 2x2 cannot go anywhere: every proposal
    # is the diagonal pair and its swap probability is zero
    w = WeightMatrix([[1.0, 0.0], [1.0, 1.0]])
    state = BinaryMatrix.identity(2)
    rng = np.random.default_rng(12)
    for _ in range(1000):
        assert swap_step(state, w, rng) == "rejected"
    assert state == BinaryMatrix.identity(2)


def test_small_matrix_never_moves():
    w = WeightMatrix.all_ones(2, 2)
    state = ones_matrix(2, 2, [(1, 0)])
    rng = np.random.default_rng(5)
    for _ in range(50):
        assert swap_step(state, w, rng) == "no-checkerboard"
    assert state.ones == [(1, 0)]


def test_margins_conserved_over_long_runs():
    rng = np.random.default_rng(2024)
    for trial in range(5):
        m, n = int(rng.integers(3, 6)), int(rng.integers(3, 7))
        ent = (rng.random((m, n)) < 0.5).astype(np.int8)
        state = BinaryMatrix(ent)
        weights = WeightMatrix(rng.lognormal(0.0, 1.0, size=(m, n)))
        r0, c0 = compute_margins(state)
        for _ in range(5000):
            swap_step(state, weights, rng)
        r1, c1 = compute_margins(state)
        assert np.array_equal(r0, r1) and np.array_equal(c0, c1)
        state.validate()  # ones list, index, and entries still agree


def test_structural_zeros_never_acquire_ones():
    rng = np.random.default_rng(60)
    w = np.ones((4, 5))
    w[3, :2] = 0.0
    w[2, 0] = 0.0  # bottom-left staircase, connectivity preserved
    weights = WeightMatrix(w)
    ent = (rng.random((4, 5)) < 0.6).astype(np.int8)
    ent[w == 0.0] = 0
    state = BinaryMatrix(ent)
    for _ in range(20000):
        swap_step(state, weights, rng)
    assert not state.entries[w == 0.0].any()
    state.validate()
