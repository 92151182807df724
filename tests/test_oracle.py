"""Exact enumeration, transition kernels, and the graph-level chain properties.

The enumeration itself is cross-checked against a brute-force sweep over all
2^(mn) candidate matrices, and the kernels against hand-derived one-step
probabilities plus single-step simulation frequencies, so the oracle does not
certify the samplers with machinery the samplers share.
"""

import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.csgraph

from fixedmargin import (
    BinaryMatrix,
    ChainConfig,
    ChainCounters,
    SpaceTooLargeError,
    StateNotInSpaceError,
    Trace,
    WeightMatrix,
    balance_residual,
    connectivity,
    curveball_step,
    diameter,
    empirical_distribution,
    enumerate_space,
    exact_kernel,
    hamming_distance,
    min_swaps,
    move_graph,
    random_binary_matrix,
    run_chain,
    stationarity_residual,
    swap_components,
    swap_step,
    with_corner_zeros,
)
from fixedmargin import curveball
from fixedmargin.chains import ALGORITHMS


def perm_matrix(sigma):
    n = len(sigma)
    ent = np.zeros((n, n), dtype=np.int8)
    for i, j in enumerate(sigma):
        ent[i, j] = 1
    return BinaryMatrix(ent)


# row-wise enumeration lists the six 3x3 permutation states in this order
PERMS3 = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]


# -- enumeration -----------------------------------------------------------------


def test_alternating_space_probabilities(alternating_weights, unit_margins):
    space = enumerate_space(*unit_margins, alternating_weights)
    assert len(space) == 6
    assert space.kappa == pytest.approx(18.0, rel=1e-12)
    assert [space.index_of(perm_matrix(p)) for p in PERMS3] == list(range(6))
    expected = np.array([1 / 18, 2 / 9, 2 / 9, 2 / 9, 2 / 9, 1 / 18])
    assert np.allclose(space.probabilities, expected, rtol=1e-12)


def test_uniform_weights_and_omitted_weights_agree(unit_margins):
    explicit = enumerate_space(*unit_margins, WeightMatrix.all_ones(3, 3))
    implicit = enumerate_space(*unit_margins)
    assert len(explicit) == len(implicit) == 6
    assert np.allclose(implicit.probabilities, 1 / 6, rtol=1e-12)
    assert implicit.kappa == pytest.approx(6.0)


def test_forced_single_state_space():
    space = enumerate_space([2, 0], [1, 1])
    assert len(space) == 1
    assert space.states[0].entries.tolist() == [[1, 1], [0, 0]]
    assert space.probabilities.tolist() == [1.0]


def test_infeasible_margins_yield_an_empty_space():
    for r, c in ([[3], [1, 1]], [[1, 1], [2, 2]], [[2, 2], [1, 1, 1]]):
        space = enumerate_space(r, c)
        assert len(space) == 0 and space.kappa == 0.0


def test_margin_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        enumerate_space([1, -1], [0, 0])
    with pytest.raises(ValueError, match="1-D"):
        enumerate_space([[1, 1]], [1, 1])
    with pytest.raises(ValueError, match="margins imply"):
        enumerate_space([1, 1], [1, 1], WeightMatrix.all_ones(3, 3))


def test_cap_is_enforced():
    with pytest.raises(SpaceTooLargeError):
        enumerate_space([3] * 6, [3] * 6, cap=100)


def test_enumeration_order_is_deterministic(alternating_weights, unit_margins):
    first = enumerate_space(*unit_margins, alternating_weights)
    second = enumerate_space(*unit_margins, alternating_weights)
    assert [s.key() for s in first.states] == [s.key() for s in second.states]


def test_transposed_margins_enumerate_the_same_space():
    rng = np.random.default_rng(808)
    for _ in range(5):
        ent = (rng.random((3, 4)) < 0.5).astype(np.int8)
        w = WeightMatrix(rng.lognormal(0.0, 1.0, size=(3, 4)))
        space = enumerate_space(ent.sum(1), ent.sum(0), w)
        flipped = enumerate_space(ent.sum(0), ent.sum(1), WeightMatrix(w.weights.T))
        assert len(space) == len(flipped)
        assert space.kappa == pytest.approx(flipped.kappa, rel=1e-12)


def _brute_force_space(r, c, weights):
    # independent oracle: scan every binary matrix of the shape
    m, n = len(r), len(c)
    states, kappa = {}, 0.0
    for bits in itertools.product((0, 1), repeat=m * n):
        ent = np.array(bits, dtype=np.int8).reshape(m, n)
        if ent.sum(1).tolist() != list(r) or ent.sum(0).tolist() != list(c):
            continue
        if ent[weights.weights == 0.0].any():
            continue
        product = float(np.prod(np.where(ent == 1, weights.weights, 1.0)))
        states[np.packbits(ent, axis=None).tobytes()] = product
        kappa += product
    return states, kappa


def test_enumeration_matches_brute_force_scan():
    rng = np.random.default_rng(4242)
    nonempty = 0
    for trial in range(8):
        m, n = (3, 3) if trial % 2 else (3, 4)
        w = rng.lognormal(0.0, 1.0, size=(m, n))
        w[rng.random((m, n)) < 0.2] = 0.0
        weights = WeightMatrix(w)
        ent = (rng.random((m, n)) < 0.5).astype(np.int8)
        ent[w == 0.0] = 0
        r, c = ent.sum(1).tolist(), ent.sum(0).tolist()
        space = enumerate_space(r, c, weights)
        expected, kappa = _brute_force_space(r, c, weights)
        assert {s.key() for s in space.states} == set(expected)
        if not expected:
            continue
        nonempty += 1
        assert space.kappa == pytest.approx(kappa, rel=1e-12)
        for state, prob in zip(space.states, space.probabilities):
            assert prob == pytest.approx(expected[state.key()] / kappa, rel=1e-12)
    assert nonempty >= 4


def _per_state_law(space):
    # the per-state formula the enumeration's batched gather must reproduce bit for bit
    logps = np.array([float(space.weights.log_weights[state.entries == 1].sum())
                      for state in space.states])
    peak = logps.max()
    scaled = np.exp(logps - peak)
    total = scaled.sum()
    return scaled / total, float(peak + np.log(total))


def test_log_probabilities_match_the_per_state_formula_bit_for_bit(
        alternating_weights, unit_margins, zero_pattern_spaces, no_diagonal):
    rng = np.random.default_rng(1818)
    spaces = [
        enumerate_space(*unit_margins, alternating_weights),
        *zero_pattern_spaces,
        enumerate_space([1] * 3, [1] * 3, no_diagonal[0]),
        enumerate_space([2] * 5, [2] * 5, WeightMatrix(rng.lognormal(0.0, 1.0, size=(5, 5)))),
        # weights spanning 1e-150 .. 1e150
        enumerate_space([2, 1, 2, 1], [1, 2, 1, 2], WeightMatrix(10.0 ** rng.uniform(-150, 150, (4, 4)))),
        # 5,040 states: more than one chunk of the gather
        enumerate_space([1] * 7, [1] * 7, WeightMatrix(rng.lognormal(0.0, 1.0, size=(7, 7)))),
        # all margins 0: one state with no 1 to gather
        enumerate_space([0, 0], [0, 0, 0], WeightMatrix(rng.lognormal(0.0, 1.0, size=(2, 3)))),
    ]
    assert [len(space) for space in spaces[-4:]] == [2040, 34, 5040, 1]
    for space in spaces:
        probabilities, log_kappa = _per_state_law(space)
        assert space.probabilities.tobytes() == probabilities.tobytes()
        assert space.log_kappa == log_kappa


# -- exact kernels ----------------------------------------------------------------


def test_two_state_swap_kernel_is_symmetric_half():
    space = enumerate_space([1, 1], [1, 1])
    kernel = exact_kernel(space, "swap")
    assert np.allclose(kernel, [[0.5, 0.5], [0.5, 0.5]])


def test_swap_kernel_row_from_identity(alternating_weights, unit_margins):
    # three 1-pairs, each drawn with probability 1/3: two of them move to a
    # state of weight 4 (accepted 4/5), the corner pair moves to the other
    # diagonal (weight 1, accepted 1/2)
    space = enumerate_space(*unit_margins, alternating_weights)
    kernel = exact_kernel(space, "swap")
    row = kernel[space.index_of(perm_matrix((0, 1, 2)))]
    expected = {
        (0, 1, 2): 0.3,
        (0, 2, 1): 4 / 15,
        (1, 0, 2): 4 / 15,
        (2, 1, 0): 1 / 6,
    }
    for sigma, value in expected.items():
        assert row[space.index_of(perm_matrix(sigma))] == pytest.approx(value, rel=1e-12)
    assert row[space.index_of(perm_matrix((1, 2, 0)))] == 0.0
    assert row[space.index_of(perm_matrix((2, 0, 1)))] == 0.0


def test_curveball_kernel_row_from_identity(alternating_weights, unit_margins):
    # each of the three row pairs trades a two-column pool: half the splits
    # are the identity, the crossing split is accepted like the matching swap
    space = enumerate_space(*unit_margins, alternating_weights)
    kernel = exact_kernel(space, "curveball")
    row = kernel[space.index_of(perm_matrix((0, 1, 2)))]
    expected = {
        (0, 1, 2): 0.65,
        (0, 2, 1): 2 / 15,
        (1, 0, 2): 2 / 15,
        (2, 1, 0): 1 / 12,
    }
    for sigma, value in expected.items():
        assert row[space.index_of(perm_matrix(sigma))] == pytest.approx(value, rel=1e-12)


def _head_shares(a: int, b: int) -> dict:
    # every ordering of a pool of a + b positions is equally likely under
    # Fisher-Yates; row i keeps the first a of them
    orders = list(itertools.permutations(range(a + b)))
    shares = {}
    for order in orders:
        head = frozenset(order[:a])
        shares[head] = shares.get(head, 0) + 1
    return {head: count / len(orders) for head, count in shares.items()}


def reference_curveball_kernel(space) -> np.ndarray:
    """The curveball kernel from its definition, with no code of the sampler.

    An ordered row pair is drawn uniformly; each row's candidates are its
    columns with a 1 where the other row has a 0 and a positive weight; the
    pooled candidates are put in every order, and row i keeps the first
    len(candidates of i) of them.  A split that changes the matrix is
    accepted with W(new) / (W(new) + W(old)), W the cell-weight product.
    """
    w = space.weights.weights.tolist()
    m, n = len(w), len(w[0])
    index = {tuple(map(tuple, state.entries.tolist())): s for s, state in enumerate(space.states)}
    kernel = np.zeros((len(space), len(space)))
    share_of_pair = 1.0 / (m * (m - 1))
    for s, state in enumerate(space.states):
        x = state.entries.tolist()
        for i, ip in itertools.permutations(range(m), 2):
            cand_i = [j for j in range(n) if x[i][j] and not x[ip][j] and w[ip][j] > 0]
            cand_ip = [j for j in range(n) if x[ip][j] and not x[i][j] and w[i][j] > 0]
            if not cand_i or not cand_ip:
                kernel[s, s] += share_of_pair
                continue
            pool = cand_i + cand_ip
            for head, share in _head_shares(len(cand_i), len(cand_ip)).items():
                y = [list(row) for row in x]
                for pos, j in enumerate(pool):
                    y[i][j], y[ip][j] = (1, 0) if pos in head else (0, 1)
                moved = [(r, j) for r in (i, ip) for j in pool if y[r][j] != x[r][j]]
                w_old = math.prod(w[r][j] for r, j in moved if x[r][j])
                w_new = math.prod(w[r][j] for r, j in moved if y[r][j])
                accept = w_new / (w_new + w_old) if moved else 1.0
                kernel[s, index[tuple(map(tuple, y))]] += share_of_pair * share * accept
                kernel[s, s] += share_of_pair * share * (1.0 - accept)
    return kernel


@pytest.mark.parametrize("space", [
    lambda: enumerate_space([1, 1, 1], [1, 1, 1],
                            WeightMatrix([[1.0, 2.0, 1.0], [2.0, 1.0, 2.0], [1.0, 2.0, 1.0]])),
    lambda: enumerate_space([1, 1, 1], [1, 1, 1], WeightMatrix(1.0 - np.eye(3))),
    lambda: enumerate_space([2] * 5, [2] * 5),
], ids=["toy", "zero-diagonal", "two-margin-5x5"])
def test_curveball_kernel_matches_every_ordering_of_the_pool(space):
    space = space()
    reference = reference_curveball_kernel(space)
    assert np.abs(exact_kernel(space, "curveball") - reference).max() <= 1e-15


def test_kernel_rows_sum_to_one_and_balance_holds():
    rng = np.random.default_rng(505)
    for _ in range(6):
        ent = (rng.random((4, 4)) < 0.5).astype(np.int8)
        weights = WeightMatrix(rng.lognormal(0.0, 1.0, size=(4, 4)))
        space = enumerate_space(ent.sum(1), ent.sum(0), weights)
        if len(space) < 2:
            continue
        for algorithm in ALGORITHMS:
            kernel = exact_kernel(space, algorithm)
            assert np.allclose(kernel.sum(axis=1), 1.0, atol=1e-12)
            assert balance_residual(space, algorithm) < 1e-12
            assert stationarity_residual(space, algorithm) < 1e-12


def test_each_move_graph_build_lists_its_own_outcomes():
    # equal margins, so equal candidate masks, and different weights, built
    # one after the other: an outcome table that outlived one build, or was
    # keyed without the weights, would hand the second space the first's law
    rng = np.random.default_rng(1819)
    graphs = []
    for _ in range(2):
        space = enumerate_space([2] * 4, [2] * 4, WeightMatrix(rng.lognormal(0.0, 1.0, size=(4, 4))))
        graphs.append(move_graph(space, "curveball"))
        assert balance_residual(space, "curveball") < 1e-12
        assert stationarity_residual(space, "curveball") < 1e-12
    first, second = graphs
    assert np.array_equal(first.src, second.src) and np.array_equal(first.dst, second.dst)
    assert not np.array_equal(first.prob, second.prob)


def test_curveball_outcome_table_stays_bounded_where_states_never_repeat():
    # with three rows, two rows fix the third, so no two states share a row
    # pair's candidate masks: the listing has 148,860 outcomes, none twice,
    # and a table kept for the whole build would hold them all at once
    rng = np.random.default_rng(1820)
    weights = WeightMatrix(rng.lognormal(0.0, 1.0, size=(3, 9)))
    space = enumerate_space([4, 4, 4], [2, 1, 2, 1, 1, 2, 1, 1, 1], weights)
    rows = [state._rows for state in space.states]
    blocks, listed = sys.getallocatedblocks(), 0
    listing = curveball._outcomes(rows, weights)
    for s, outcomes in enumerate(listing):
        listed += len(outcomes)
        if s % 97 == 0:  # a fresh call, with a fresh table, lists the same outcomes
            assert outcomes == next(curveball._outcomes([rows[s]], weights))
    assert listed == 148_860
    # the live listing's table holds at most 2**15 outcomes of a few small
    # blocks each (46,000 blocks here); all 148,860 of them take over 380,000
    assert sys.getallocatedblocks() - blocks < (1 << 15) * 4
    del listing
    assert balance_residual(space, "curveball") < 1e-12
    assert stationarity_residual(space, "curveball") < 1e-12


def test_exact_probabilities_are_the_stationary_eigenvector(alternating_weights, unit_margins):
    # independent route to the stationary law: the kernel's left eigenvector
    # at eigenvalue one must reproduce the enumerated probabilities
    space = enumerate_space(*unit_margins, alternating_weights)
    for algorithm in ALGORITHMS:
        kernel = exact_kernel(space, algorithm)
        eigvals, eigvecs = np.linalg.eig(kernel.T)
        lead = np.argmin(np.abs(eigvals - 1.0))
        assert abs(eigvals[lead] - 1.0) < 1e-12
        pi = np.real(eigvecs[:, lead])
        pi = pi / pi.sum()
        assert np.allclose(pi, space.probabilities, atol=1e-10)


def test_weight_scaling_leaves_probabilities_unchanged():
    # multiplying row i by a_i and column j by b_j multiplies every state's
    # weight by prod a_i^r_i * prod b_j^c_j: the law and the kernels stay put,
    # and only log_kappa shifts, even where kappa leaves the float range
    r, c = [2, 1, 2, 1], [1, 2, 1, 2]
    base = WeightMatrix(np.random.default_rng(227).lognormal(0.0, 1.0, size=(4, 4)))
    space = enumerate_space(r, c, base)
    kernels = {algorithm: exact_kernel(space, algorithm) for algorithm in ALGORITHMS}
    for a, b in [
        (np.full(4, 3.7), np.ones(4)),
        (np.array([0.5, 2.0, 7.0, 1e-3]), np.ones(4)),
        (np.ones(4), np.array([3.0, 0.2, 1.0, 40.0])),
        (np.full(4, 1e-170), np.ones(4)),
        (np.ones(4), np.full(4, 1e170)),
    ]:
        scaled = enumerate_space(r, c, WeightMatrix(base.weights * a[:, None] * b[None, :]))
        assert np.allclose(space.probabilities, scaled.probabilities, rtol=1e-12)
        shift = float(np.dot(r, np.log(a)) + np.dot(c, np.log(b)))
        assert scaled.log_kappa == pytest.approx(space.log_kappa + shift, rel=1e-12)
        if abs(space.log_kappa + shift) < 700.0:
            assert scaled.kappa == pytest.approx(space.kappa * np.exp(shift), rel=1e-12)
        else:
            assert scaled.kappa == (np.inf if shift > 0.0 else 0.0)
        for algorithm, kernel in kernels.items():
            assert np.allclose(exact_kernel(scaled, algorithm), kernel, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("scale", [1e-170, 1e170])
def test_samplers_follow_the_law_at_extreme_weight_scales(alternating_weights, unit_margins,
                                                          algorithm, scale):
    # products of such weights leave the float range; a sampler that forms
    # them freezes (TV 0.94 here) instead of mixing (TV below 0.032 over 30 seeds)
    weights = WeightMatrix(alternating_weights.weights * scale)
    space = enumerate_space(*unit_margins, weights)
    config = ChainConfig(algorithm=algorithm, burn_in=100, thin=10, retained=3_000,
                         seed=1, statistics=(), keep_matrices=True)
    trace = run_chain(BinaryMatrix.identity(3), weights, config)
    assert empirical_distribution(trace, space).total_variation < 0.05


def test_every_swap_move_is_also_a_curveball_move():
    rng = np.random.default_rng(1010)
    for _ in range(5):
        ent = (rng.random((4, 4)) < 0.5).astype(np.int8)
        weights = WeightMatrix(rng.lognormal(0.0, 0.5, size=(4, 4)))
        space = enumerate_space(ent.sum(1), ent.sum(0), weights)
        if len(space) < 2:
            continue
        swap_kernel = exact_kernel(space, "swap")
        curve_kernel = exact_kernel(space, "curveball")
        off = ~np.eye(len(space), dtype=bool)
        reachable = off & (swap_kernel > 1e-15)
        assert (curve_kernel[reachable] > 0.0).all()


def test_single_step_frequencies_match_the_kernel_row(alternating_weights, unit_margins):
    space = enumerate_space(*unit_margins, alternating_weights)
    start = space.index_of(perm_matrix((0, 1, 2)))
    for algorithm, step in (("swap", swap_step), ("curveball", curveball_step)):
        kernel = exact_kernel(space, algorithm)
        rng = np.random.default_rng(6060)
        counts = np.zeros(len(space))
        draws = 20000
        for _ in range(draws):
            state = space.states[start].copy()
            step(state, alternating_weights, rng)
            counts[space.index_of(state)] += 1
        assert np.abs(counts / draws - kernel[start]).max() < 0.015, algorithm


def test_kernel_rejects_unknown_algorithm(unit_margins):
    space = enumerate_space(*unit_margins)
    with pytest.raises(ValueError, match="algorithm"):
        exact_kernel(space, "flip")


# -- connectivity, distance, diameter ----------------------------------------------


def test_alternating_space_is_connected_with_diameter_two(alternating_weights, unit_margins):
    space = enumerate_space(*unit_margins, alternating_weights)
    for algorithm in ALGORITHMS:
        components = connectivity(space, algorithm)
        assert len(components) == 1
        assert sorted(components[0]) == list(range(6))
    assert diameter(space, "swap") == 2
    assert diameter(space, "curveball") == 2


def test_connectivity_builds_no_dense_kernel():
    space = enumerate_space([1] * 6, [1] * 6)
    kernel_bytes = len(space) ** 2 * np.dtype(np.float64).itemsize
    tracemalloc.start()
    try:
        components = connectivity(space, "swap")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(components) == 1
    assert peak < kernel_bytes / 4


def test_forbidden_diagonal_splits_the_space(no_diagonal):
    weights, up, down = no_diagonal
    space = enumerate_space([1, 1, 1], [1, 1, 1], weights)
    assert len(space) == 2  # only the two 3-cycles avoid the diagonal
    for algorithm in ALGORITHMS:
        components = connectivity(space, algorithm)
        assert len(components) == 2
        comp_of = {}
        for idx, comp in enumerate(components):
            for state in comp:
                comp_of[state] = idx
        assert comp_of[space.index_of(up)] != comp_of[space.index_of(down)]
        assert min_swaps(space, up, down, algorithm) is None
    with pytest.raises(ValueError, match="disconnected"):
        diameter(space, "swap")


def test_far_pair_distance_exceeds_half_hamming(far_pair):
    weights, a, b = far_pair
    space = enumerate_space([1] * 5, [1] * 5, weights)
    assert hamming_distance(a, b) == 6
    distance = min_swaps(space, a, b, "swap")
    # half the Hamming distance would allow at most 2 intermediate swaps
    # (6/2 - 1); the zero pattern forces a much longer detour, and the
    # exact count is deliberately left unasserted
    assert distance is not None
    assert distance > 2


def test_min_swaps_basics(alternating_weights, unit_margins):
    space = enumerate_space(*unit_margins, alternating_weights)
    identity = perm_matrix((0, 1, 2))
    assert min_swaps(space, identity, identity) == 0
    assert min_swaps(space, identity, perm_matrix((1, 0, 2))) == 1
    assert min_swaps(space, 0, 5) == 1  # indices work too
    with pytest.raises(StateNotInSpaceError):
        min_swaps(space, identity, BinaryMatrix(np.ones((3, 3), dtype=np.int8)))


@pytest.mark.parametrize("a, b", [(0, -1), (0, 6), (-1, 0), (6, 0)])
def test_min_swaps_refuses_an_index_outside_the_space(unit_margins, a, b):
    # a negative index would otherwise count from the end of the space
    space = enumerate_space(*unit_margins)
    with pytest.raises(StateNotInSpaceError, match="the space has 6 states"):
        min_swaps(space, a, b)


def test_staircase_zero_spaces_meet_the_pairwise_distance_bound():
    # with a monotonic zero pattern every pair of states is connected by at
    # most half its Hamming distance in swaps
    rng = np.random.default_rng(3131)
    checked = 0
    for _ in range(14):
        m = n = int(rng.integers(4, 6))
        weights = with_corner_zeros(WeightMatrix.all_ones(m, n), float(rng.uniform(0.1, 0.35)))
        ent = (rng.random((m, n)) < 0.5).astype(np.int8)
        ent[weights.weights == 0.0] = 0
        space = enumerate_space(ent.sum(1), ent.sum(0), weights)
        if not 2 <= len(space) <= 400:
            continue
        checked += 1
        kernel = exact_kernel(space, "swap")
        adjacency = (kernel > 0.0) & ~np.eye(len(space), dtype=bool)
        dist = scipy.sparse.csgraph.shortest_path(adjacency.astype(float), unweighted=True)
        assert np.isfinite(dist).all()  # connected
        for s in range(len(space)):
            for t in range(s + 1, len(space)):
                bound = hamming_distance(space.states[s], space.states[t]) / 2
                assert dist[s, t] <= bound
    assert checked >= 5


@pytest.fixture(scope="module")
def zero_pattern_spaces():
    """Forty seeded 4x4 and 5x5 spaces behind random zero patterns.

    Weights are log-normal(0, 0.5) with about 40% of the cells zeroed; half
    the spaces have unit margins, half the margins of a random matrix that
    avoids the zeros.  Some of them are disconnected.
    """
    rng = np.random.default_rng(4242)
    spaces = []
    while len(spaces) < 40:
        n = 4 + len(spaces) % 2
        w = rng.lognormal(0.0, 0.5, size=(n, n))
        w[rng.random((n, n)) < 0.4] = 0.0
        weights = WeightMatrix(w)
        margins = ([1] * n, [1] * n)
        if len(spaces) % 4 < 2:
            matrix = random_binary_matrix(n, n, 0.5, rng, weights=weights)
            margins = (matrix.row_sums, matrix.col_sums)
        space = enumerate_space(*margins, weights)
        if len(space) >= 2:
            spaces.append(space)
    return spaces


def test_move_graph_matches_the_dense_kernel(zero_pattern_spaces):
    for space in zero_pattern_spaces:
        for algorithm in ALGORITHMS:
            graph = move_graph(space, algorithm)
            kernel = exact_kernel(space, algorithm)
            support = kernel > 0.0
            np.fill_diagonal(support, False)
            moves = np.zeros_like(support)
            moves[graph.src, graph.dst] = True
            assert len(graph.src) == int(moves.sum())  # no pair repeats
            assert np.array_equal(moves, support)
            assert np.array_equal(moves, moves.T)  # every move can be undone
            assert np.array_equal(np.diag(kernel), graph.stay)
            assert move_graph(space, algorithm) is graph
            # the residuals read the moves; the dense formulas are the reference
            flow = space.probabilities[:, None] * kernel
            assert balance_residual(space, algorithm) == np.abs(flow - flow.T).max()
            pi = space.probabilities
            assert stationarity_residual(space, algorithm) == pytest.approx(
                np.abs(pi @ kernel - pi).max(), rel=0.0, abs=1e-15)
            assert not any(column.flags.writeable
                           for column in (graph.src, graph.dst, graph.prob, graph.stay))


def _band_space():
    """4x4 unit margins with w > 0 only at (i, i) and (i, i+1 mod 4).

    Its two states, the identity and the 4-cycle, differ on all eight cells,
    so no swap joins them.
    """
    w = np.zeros((4, 4))
    for i in range(4):
        w[i, i] = 1.0 + i
        w[i, (i + 1) % 4] = 2.0
    return enumerate_space([1] * 4, [1] * 4, WeightMatrix(w))


def test_every_algorithm_has_swaps_components(zero_pattern_spaces, no_diagonal):
    # the CLI certifies every sampler with swap moves: a trade of k columns
    # is k legal swaps in a row, and a legal swap is a one-column trade
    band = _band_space()
    diagonal = enumerate_space([1] * 3, [1] * 3, no_diagonal[0])
    split = 0
    for space in [*zero_pattern_spaces, diagonal, band]:
        components = connectivity(space, "swap")
        count = swap_components(space.row_sums, space.col_sums, space.weights)
        for algorithm in ALGORITHMS:
            assert connectivity(space, algorithm) == components
            assert count == len(connectivity(space, algorithm))
        _, labels = scipy.sparse.csgraph.connected_components(exact_kernel(space, "swap") > 0.0)
        expected = {}
        for state, label in enumerate(labels.tolist()):
            expected.setdefault(label, []).append(state)
        assert components == list(expected.values())
        split += len(components) > 1
    assert split >= 3
    assert len(band) == 2
    assert swap_components(band.row_sums, band.col_sums, band.weights) == 2
    assert swap_components(diagonal.row_sums, diagonal.col_sums, diagonal.weights) == 2


def test_swap_components_keeps_the_enumeration_cap():
    # S_4 has 24 states, connected by transpositions
    assert swap_components([1] * 4, [1] * 4, cap=24) == 1
    with pytest.raises(SpaceTooLargeError, match="cap of 23"):
        swap_components([1] * 4, [1] * 4, cap=23)
    with pytest.raises(SpaceTooLargeError, match="cap of 23"):
        enumerate_space([1] * 4, [1] * 4, cap=23)
    # infeasible margins: no state, so no component
    assert swap_components([3], [1, 1]) == 0
    assert len(connectivity(enumerate_space([3], [1, 1]), "swap")) == 0


def test_curveball_move_graph_needs_two_rows():
    space = enumerate_space([2], [1, 1, 0])
    assert len(space) == 1
    with pytest.raises(ValueError, match="two rows"):
        move_graph(space, "curveball")
    # with no state there is no start to refuse, and no move
    empty = enumerate_space([3], [1, 1])
    assert len(empty) == 0
    assert len(move_graph(empty, "curveball").stay) == 0


def test_diameter_and_min_swaps_match_shortest_paths(zero_pattern_spaces):
    rng = np.random.default_rng(77)
    for space in zero_pattern_spaces:
        for algorithm in ALGORITHMS:
            adjacency = exact_kernel(space, algorithm) > 0.0
            np.fill_diagonal(adjacency, False)
            dist = scipy.sparse.csgraph.shortest_path(adjacency.astype(float), unweighted=True)
            if np.isfinite(dist).all():
                assert diameter(space, algorithm) == int(dist.max())
            else:
                with pytest.raises(ValueError, match="disconnected"):
                    diameter(space, algorithm)
            for a, b in rng.integers(len(space), size=(10, 2)).tolist():
                expected = int(dist[a, b]) if np.isfinite(dist[a, b]) else None
                assert min_swaps(space, a, b, algorithm) == expected


def test_curveball_diameter_is_smaller_on_the_two_margin_5x5_space():
    space = enumerate_space([2] * 5, [2] * 5)
    assert len(space) == 2040
    assert diameter(space, "swap") == 6
    assert diameter(space, "curveball") == 5


def test_diameter_of_empty_space_raises():
    space = enumerate_space([3], [1, 1])
    with pytest.raises(ValueError):
        diameter(space, "swap")


# -- empirical distribution comparison ----------------------------------------------


def _fake_trace(matrices):
    config = ChainConfig(retained=len(matrices), keep_matrices=True, statistics=())
    return Trace(config=config, chain_index=0, values={}, matrices=matrices,
                 counters=ChainCounters(len(matrices), 0, 0, 0))


def test_exact_replication_has_zero_divergence():
    # visiting both uniform states once reproduces the law bit for bit
    space = enumerate_space([1, 1], [1, 1])
    identity = BinaryMatrix.identity(2)
    flipped = BinaryMatrix([[0, 1], [1, 0]])
    comparison = empirical_distribution(_fake_trace([identity, flipped]), space)
    assert comparison.n_samples == 2
    assert comparison.counts.tolist() == [1, 1]
    assert comparison.kl_divergence == 0.0
    assert comparison.total_variation == 0.0


def test_uniform_visits_against_a_skewed_law():
    # KL(uniform || (0.8, 0.2)) = log(5/4) and TV = 0.3, both hand-derived
    space = enumerate_space([1, 1], [1, 1], WeightMatrix([[2.0, 1.0], [1.0, 2.0]]))
    identity = BinaryMatrix.identity(2)
    flipped = BinaryMatrix([[0, 1], [1, 0]])
    comparison = empirical_distribution(_fake_trace([identity, flipped]), space)
    assert comparison.kl_divergence == pytest.approx(np.log(1.25), rel=1e-12)
    assert comparison.total_variation == pytest.approx(0.3, rel=1e-12)


def test_multiple_traces_pool_their_counts():
    space = enumerate_space([1, 1], [1, 1])
    identity = BinaryMatrix.identity(2)
    flipped = BinaryMatrix([[0, 1], [1, 0]])
    traces = [_fake_trace([identity]), _fake_trace([flipped, flipped])]
    comparison = empirical_distribution(traces, space)
    assert comparison.n_samples == 3
    assert comparison.counts.tolist() == [1, 2]


def test_retained_chain_states_live_in_the_space(alternating_weights, unit_margins):
    space = enumerate_space(*unit_margins, alternating_weights)
    config = ChainConfig(algorithm="curveball", burn_in=50, thin=5, retained=200,
                         seed=3, keep_matrices=True)
    trace = run_chain(BinaryMatrix.identity(3), alternating_weights, config)
    comparison = empirical_distribution(trace, space)
    assert comparison.n_samples == 200
    assert comparison.frequencies.sum() == pytest.approx(1.0)


def test_foreign_matrix_is_rejected(no_diagonal, alternating_weights, unit_margins):
    weights, up, _ = no_diagonal
    space = enumerate_space(*unit_margins, weights)
    with pytest.raises(StateNotInSpaceError):
        empirical_distribution(_fake_trace([BinaryMatrix.identity(3)]), space)
    full_space = enumerate_space(*unit_margins, alternating_weights)
    with pytest.raises(StateNotInSpaceError):
        empirical_distribution(_fake_trace([BinaryMatrix.identity(4)]), full_space)


def test_matrix_of_another_shape_is_not_in_the_space(unit_margins):
    # the 3x4 matrix with column 0 full packs to the same key bytes as the
    # 3x3 identity, state 0 of the unit-margin space
    space = enumerate_space(*unit_margins)
    wide = BinaryMatrix([[1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]])
    assert wide.key() == space.states[0].key()
    with pytest.raises(StateNotInSpaceError):
        space.index_of(wide)
    with pytest.raises(StateNotInSpaceError):
        empirical_distribution(_fake_trace([wide]), space)
    with pytest.raises(StateNotInSpaceError):
        min_swaps(space, wide, space.states[0])


def test_trace_without_matrices_is_rejected(alternating_weights, unit_margins):
    space = enumerate_space(*unit_margins, alternating_weights)
    config = ChainConfig(retained=20, seed=1)
    trace = run_chain(BinaryMatrix.identity(3), alternating_weights, config)
    with pytest.raises(ValueError, match="keep_matrices"):
        empirical_distribution(trace, space)
