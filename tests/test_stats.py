"""Matrix statistics, chain diagnostics, and empirical p-values."""

import numpy as np
import pytest

from fixedmargin import (
    BinaryMatrix,
    ChainConfig,
    WeightMatrix,
    c_score,
    diagnose,
    diagonal_divergence,
    empirical_p_value,
    ess,
    evaluate_statistic,
    get_statistic,
    mcse_tukey_hanning,
    run_chain,
)


def ones_matrix(m, n, cells):
    ent = np.zeros((m, n), dtype=np.int8)
    for i, j in cells:
        ent[i, j] = 1
    return BinaryMatrix(ent)


# -- diagonal divergence -----------------------------------------------------------


def test_identity_has_zero_divergence():
    for n in (2, 3, 5, 8):
        assert diagonal_divergence(BinaryMatrix.identity(n)) == 0.0


def test_anti_diagonal_divergence_value():
    anti = ones_matrix(3, 3, [(0, 2), (1, 1), (2, 0)])
    assert diagonal_divergence(anti) == 4 / 9


def test_full_matrix_divergence_value():
    full = BinaryMatrix(np.ones((2, 2), dtype=np.int8))
    assert diagonal_divergence(full) == 0.25


def test_divergence_range_and_transpose_invariance():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        ent = (rng.random((n, n)) < 0.5).astype(np.int8)
        if not ent.any():
            ent[0, 0] = 1
        a = BinaryMatrix(ent)
        t = diagonal_divergence(a)
        assert 0.0 <= t <= (n - 1) / n
        assert diagonal_divergence(BinaryMatrix(ent.T)) == t


def test_divergence_preconditions():
    with pytest.raises(ValueError, match="square"):
        diagonal_divergence(BinaryMatrix(np.ones((2, 3), dtype=np.int8)))
    with pytest.raises(ValueError, match="all-zero"):
        diagonal_divergence(BinaryMatrix(np.zeros((3, 3), dtype=np.int8)))


# -- c-score -------------------------------------------------------------------------


def test_c_score_of_the_two_by_two_identity_is_one():
    assert c_score(BinaryMatrix.identity(2)) == 1.0


def test_c_score_of_the_three_by_three_identity():
    # every row pair shares no column, contributing (1-0)(1-0) = 1 each
    assert c_score(BinaryMatrix.identity(3)) == 1.0


def test_identical_rows_score_zero():
    a = BinaryMatrix([[1, 0, 1], [1, 0, 1]])
    assert c_score(a) == 0.0


def test_c_score_is_nonnegative_and_column_permutation_invariant():
    rng = np.random.default_rng(12)
    for _ in range(50):
        m, n = int(rng.integers(2, 6)), int(rng.integers(2, 8))
        ent = (rng.random((m, n)) < 0.5).astype(np.int8)
        a = BinaryMatrix(ent)
        value = c_score(a)
        assert value >= 0.0
        perm = rng.permutation(n)
        assert c_score(BinaryMatrix(ent[:, perm])) == pytest.approx(value, rel=1e-12)


def _c_score_int64(entries) -> float:
    # the C-score in exact int64 arithmetic, the way it was first computed
    ent = np.asarray(entries, dtype=np.int64)
    shared = ent @ ent.T
    r = ent.sum(axis=1)
    upper = np.triu((r[:, None] - shared) * (r[None, :] - shared), k=1)
    return float(2.0 * upper.sum() / (ent.shape[0] * (ent.shape[0] - 1)))


def test_c_score_equals_the_int64_computation_bit_for_bit():
    rng = np.random.default_rng(5150)
    shapes = [(2, 1), (120, 120)] + [(int(rng.integers(2, 121)), int(rng.integers(1, 121)))
                                     for _ in range(40)]
    for m, n in shapes:
        ent = (rng.random((m, n)) < rng.random()).astype(np.int8)
        ent[rng.random(m) < 0.1] = 0  # all-zero rows
        ent[rng.random(m) < 0.1] = 1  # all-one rows
        assert c_score(BinaryMatrix(ent)) == _c_score_int64(ent), (m, n)
    for fill in (0, 1):
        ent = np.full((5, 7), fill, dtype=np.int8)
        assert c_score(BinaryMatrix(ent)) == _c_score_int64(ent) == 0.0


def test_c_score_needs_two_rows():
    with pytest.raises(ValueError, match="two rows"):
        c_score(BinaryMatrix([[1, 0, 1]]))


# -- statistic registry ----------------------------------------------------------------


def test_registry_lookup_and_evaluation():
    t_def = get_statistic("diag-divergence")
    assert t_def.square_only
    c_def = get_statistic("c-score")
    assert not c_def.square_only
    value = evaluate_statistic("c-score", BinaryMatrix.identity(2))
    assert value.name == "c-score" and value.value == 1.0


def test_unknown_statistic_is_an_error():
    with pytest.raises(ValueError, match="diag-divergence"):
        get_statistic("banana")


# -- effective sample size ---------------------------------------------------------------


def test_iid_trace_ess_is_near_the_sample_size():
    rng = np.random.default_rng(1234)
    x = rng.standard_normal(10000)
    estimate = ess(x)
    assert estimate <= 10000  # capped by construction
    assert estimate > 8500


def test_correlated_trace_has_much_smaller_ess():
    rng = np.random.default_rng(99)
    n, phi = 10000, 0.9
    x = np.empty(n)
    x[0] = rng.standard_normal()
    for t in range(1, n):
        x[t] = phi * x[t - 1] + rng.standard_normal()
    # an AR(1) with phi = 0.9 has ESS about n/19
    estimate = ess(x)
    assert estimate < 0.2 * n
    assert estimate > 0.02 * n


def test_alternating_trace_is_capped_at_n():
    x = np.tile([1.0, -1.0], 500)
    report = diagnose(x)
    assert report.ess == 1000.0
    assert report.ess_capped
    assert not report.zero_variance


def test_constant_trace_reports_zero_with_a_flag():
    report = diagnose(np.ones(500))
    assert report.ess == 0.0
    assert report.mcse == 0.0
    assert report.zero_variance


def test_ess_length_precondition():
    with pytest.raises(ValueError):
        ess(np.arange(5))


# -- Monte Carlo standard error -------------------------------------------------------------


def test_iid_mcse_matches_sigma_over_root_n():
    rng = np.random.default_rng(4321)
    x = rng.standard_normal(10000)
    estimate = mcse_tukey_hanning(x)
    assert abs(estimate - 0.01) < 0.002


def test_mcse_and_ess_agree_on_iid_data():
    # the spectral variance at frequency zero and the autocorrelation sum
    # measure the same thing: mcse^2 * ess recovers the sample variance
    rng = np.random.default_rng(777)
    for _ in range(5):
        x = rng.standard_normal(5000) * float(rng.uniform(0.5, 3.0))
        relation = mcse_tukey_hanning(x) ** 2 * ess(x)
        assert relation == pytest.approx(np.var(x), rel=0.3)


def test_mcse_length_precondition():
    with pytest.raises(ValueError):
        mcse_tukey_hanning(np.arange(50, dtype=float))


def test_state_indicator_mcse_band(alternating_weights):
    # indicator traces of a well-thinned small-space chain behave like
    # near-iid Bernoulli draws, so their mcse sits near sqrt(p(1-p)/n)
    config = ChainConfig(algorithm="swap", burn_in=1000, thin=200, retained=1000,
                         seed=17, keep_matrices=True, statistics=())
    trace = run_chain(BinaryMatrix.identity(3), alternating_weights, config)
    keys = sorted({m.key() for m in trace.matrices})
    assert len(keys) == 6
    for key in keys:
        indicator = np.array([float(m.key() == key) for m in trace.matrices])
        estimate = mcse_tukey_hanning(indicator)
        assert 0.004 < estimate < 0.022


def test_diagnose_packages_both_estimates():
    rng = np.random.default_rng(2718)
    x = rng.standard_normal(2000)
    report = diagnose(x)
    assert report.n == 2000
    assert report.ess == ess(x)
    assert report.mcse == mcse_tukey_hanning(x)
    assert report.truncation_lag >= 0
    with pytest.raises(ValueError):
        diagnose(x[:80])


# -- empirical p-values -------------------------------------------------------------------


def test_p_value_extremes():
    null = np.arange(4999, dtype=float)
    assert empirical_p_value(1e9, null, "upper") == 0.0002
    assert empirical_p_value(-1e9, null, "upper") == 1.0
    assert empirical_p_value(-1e9, null, "lower") == 0.0002
    assert empirical_p_value(1e9, null, "lower") == 1.0


def test_p_value_at_the_median_is_near_half():
    null = np.arange(101, dtype=float)
    assert abs(empirical_p_value(50.0, null, "upper") - 0.5) < 0.02
    assert abs(empirical_p_value(50.0, null, "lower") - 0.5) < 0.02


def test_p_value_ties_count_toward_the_tail():
    null = np.array([1.0, 2.0, 2.0, 3.0])
    assert empirical_p_value(2.0, null, "upper") == pytest.approx(4 / 5)
    assert empirical_p_value(2.0, null, "lower") == pytest.approx(4 / 5)


def test_p_value_validation():
    with pytest.raises(ValueError):
        empirical_p_value(1.0, [], "upper")
    with pytest.raises(ValueError, match="tail"):
        empirical_p_value(1.0, [1.0], "sideways")
