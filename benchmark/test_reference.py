"""Tests of the benchmark's reference computations: python3 -m pytest benchmark -q"""
import itertools
import math

import numpy as np
import pytest

import reference

TOY_WEIGHTS = [[1.0, 2.0, 1.0], [2.0, 1.0, 2.0], [1.0, 2.0, 1.0]]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_ryser_permanent_matches_brute_force(n):
    rng = np.random.default_rng(n)
    w = rng.uniform(0.1, 3.0, size=(n, n))
    w[rng.random((n, n)) < 0.2] = 0.0
    assert math.isclose(reference.permanent(w), reference.permanent_brute(w), rel_tol=1e-13)


def test_permanent_of_all_ones_is_factorial():
    assert reference.permanent(np.ones((6, 6))) == 720.0


def test_toy_law_by_brute_force():
    law = reference.permutation_law(TOY_WEIGHTS)
    assert len(law) == 6
    # the identity and the anti-diagonal carry weight 1, the other four weight 4
    assert law[(0, 1, 2)] == pytest.approx(1 / 18, rel=1e-15)
    assert law[(2, 1, 0)] == pytest.approx(1 / 18, rel=1e-15)
    assert sorted(law.values())[2:] == pytest.approx([2 / 9] * 4, rel=1e-15)
    assert math.fsum(law.values()) == pytest.approx(1.0, rel=1e-15)


def test_law_drops_permutations_through_zeros():
    w = np.ones((4, 4))
    w[0, 0] = w[1, 2] = 0.0
    law = reference.permutation_law(w)
    assert set(law) == set(reference.permutations_avoiding(w))
    # inclusion-exclusion: 24 - 2 * 6 + 2
    assert len(law) == 14


def test_permutation_of_reads_the_one_per_row():
    assert reference.permutation_of([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == (1, 2, 0)
    with pytest.raises(ValueError):
        reference.permutation_of([[1, 1], [0, 0]])


def test_c_score_pairwise_definition():
    # rows {0,1}, {1,2}, {3}: pairs (1*1), (2*1), (2*1) -> mean 5/3
    a = [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]]
    assert reference.c_score(a) == 2.0 * 5 / 6
    assert reference.c_score([[1, 0], [1, 0]]) == 0.0


def test_c_score_matches_matrix_formula():
    rng = np.random.default_rng(3)
    a = (rng.random((12, 9)) < 0.4).astype(int)
    shared = a @ a.T
    r = a.sum(axis=1)
    pairs = [(r[i] - shared[i, j]) * (r[j] - shared[i, j])
             for i, j in itertools.combinations(range(12), 2)]
    assert reference.c_score(a) == 2.0 * sum(pairs) / (12 * 11)


def test_diag_divergence_loop():
    assert reference.diag_divergence(np.eye(4, dtype=int)) == 0.0
    anti = np.fliplr(np.eye(3, dtype=int))
    assert reference.diag_divergence(anti) == (2 + 0 + 2) / (3 * 3)


def _ar1(phi, n, seed):
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = noise[0] / math.sqrt(1 - phi * phi)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + noise[t]
    return x


@pytest.mark.parametrize("phi", [0.0, 0.5, 0.9, -0.4])
def test_ar_ess_on_ar1_series(phi):
    # an AR(1) series of length n has ESS n (1 - phi) / (1 + phi)
    n = 100_000
    expected = n * (1 - phi) / (1 + phi)
    estimates = [reference.ar_ess(_ar1(phi, n, seed)) for seed in range(3)]
    for value in estimates:
        assert value == pytest.approx(expected, rel=0.08)


def test_ar_ess_of_constant_series_is_zero():
    assert reference.ar_ess(np.full(50, 0.25)) == 0.0


@pytest.mark.parametrize("phi", [0.5, 0.9])
def test_pooled_ar_ess_on_short_ar1_chains(phi):
    # 50 chains of 400: the pooled fit sees all 20,000 values at once
    chains = [_ar1(phi, 400, seed) + 3.0 for seed in range(50)]
    expected = 20_000 * (1 - phi) / (1 + phi)
    assert reference.pooled_ar_ess(chains) == pytest.approx(expected, rel=0.1)
