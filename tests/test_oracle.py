"""Exact enumeration, transition kernels, and the graph-level chain properties.

The enumeration itself is cross-checked against a brute-force sweep over all
2^(mn) candidate matrices, and the kernels against hand-derived one-step
probabilities plus single-step simulation frequencies, so the oracle does not
certify the samplers with machinery the samplers share.
"""

import itertools

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
    run_chain,
    stationarity_residual,
    swap_step,
    with_corner_zeros,
)


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


def test_kernel_rows_sum_to_one_and_balance_holds():
    rng = np.random.default_rng(505)
    for _ in range(6):
        ent = (rng.random((4, 4)) < 0.5).astype(np.int8)
        weights = WeightMatrix(rng.lognormal(0.0, 1.0, size=(4, 4)))
        space = enumerate_space(ent.sum(1), ent.sum(0), weights)
        if len(space) < 2:
            continue
        for algorithm in ("swap", "curveball"):
            kernel = exact_kernel(space, algorithm)
            assert np.allclose(kernel.sum(axis=1), 1.0, atol=1e-12)
            assert balance_residual(space, kernel) < 1e-12
            assert stationarity_residual(space, kernel) < 1e-12


def test_exact_probabilities_are_the_stationary_eigenvector(alternating_weights, unit_margins):
    # independent route to the stationary law: the kernel's left eigenvector
    # at eigenvalue one must reproduce the enumerated probabilities
    space = enumerate_space(*unit_margins, alternating_weights)
    for algorithm in ("swap", "curveball"):
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
    kernels = {algorithm: exact_kernel(space, algorithm) for algorithm in ("swap", "curveball")}
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


@pytest.mark.parametrize("algorithm", ["swap", "curveball"])
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
    for algorithm in ("swap", "curveball"):
        components = connectivity(space, algorithm)
        assert len(components) == 1
        assert sorted(components[0]) == list(range(6))
    assert diameter(space, "swap") == 2
    assert diameter(space, "curveball") == 2


def test_forbidden_diagonal_splits_the_space(no_diagonal):
    weights, up, down = no_diagonal
    space = enumerate_space([1, 1, 1], [1, 1, 1], weights)
    assert len(space) == 2  # only the two 3-cycles avoid the diagonal
    for algorithm in ("swap", "curveball"):
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


def test_trace_without_matrices_is_rejected(alternating_weights, unit_margins):
    space = enumerate_space(*unit_margins, alternating_weights)
    config = ChainConfig(retained=20, seed=1)
    trace = run_chain(BinaryMatrix.identity(3), alternating_weights, config)
    with pytest.raises(ValueError, match="keep_matrices"):
        empirical_distribution(trace, space)
