"""Chain harness: configs, determinism, ensembles, and the input generators."""

import concurrent.futures

import numpy as np
import pytest

from fixedmargin import chains
from fixedmargin import (
    BinaryMatrix,
    ChainConfig,
    CompatibilityError,
    WeightMatrix,
    compute_margins,
    is_monotonic,
    load_chain_config,
    preset_weights,
    random_binary_matrix,
    run_chain,
    run_ensemble,
    swap_step,
    with_corner_zeros,
    with_random_zeros,
)


# -- configs ---------------------------------------------------------------------


def test_config_defaults_and_totals():
    config = ChainConfig()
    assert config.algorithm == "swap"
    assert config.total_proposals == 1000
    config = ChainConfig(burn_in=100, thin=7, retained=30)
    assert config.total_proposals == 100 + 7 * 30


def test_config_validation():
    with pytest.raises(ValueError, match="algorithm"):
        ChainConfig(algorithm="shuffle")
    with pytest.raises(ValueError, match="burn_in"):
        ChainConfig(burn_in=-1)
    with pytest.raises(ValueError, match="thin"):
        ChainConfig(thin=0)
    with pytest.raises(ValueError, match="retained"):
        ChainConfig(retained=0)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        ChainConfig(seed=-1)
    with pytest.raises(ValueError, match="unknown statistic"):
        ChainConfig(statistics=("banana",))


def test_check_start_decides_every_start_condition():
    lone = BinaryMatrix(np.array([[0, 1], [0, 0]]))
    ones = WeightMatrix.all_ones(2, 2)
    assert "can never move" in chains.check_start(lone, ones, ChainConfig())
    assert chains.check_start(lone, ones, ChainConfig(algorithm="curveball")) is None
    with pytest.raises(CompatibilityError):
        chains.check_start(lone, WeightMatrix([[1.0, 0.0], [1.0, 1.0]]), ChainConfig())
    row = BinaryMatrix(np.array([[1, 0, 1]]))
    with pytest.raises(ValueError, match="square matrix, got 1x3"):
        chains.check_start(row, WeightMatrix.all_ones(1, 3), ChainConfig())
    with pytest.raises(ValueError, match="two rows"):
        chains.check_start(row, WeightMatrix.all_ones(1, 3),
                           ChainConfig(algorithm="curveball", statistics=("c-score",)))
    # margins are fixed, so a statistic undefined at the start is undefined everywhere
    with pytest.raises(ValueError, match="at least two rows"):
        chains.check_start(row, WeightMatrix.all_ones(1, 3), ChainConfig(statistics=("c-score",)))
    empty = BinaryMatrix(np.zeros((3, 3), dtype=np.int8))
    with pytest.raises(ValueError, match="undefined for an all-zero matrix"):
        chains.check_start(empty, WeightMatrix.all_ones(3, 3), ChainConfig())


def test_config_accepts_statistic_lists():
    config = ChainConfig(statistics=["c-score", "diag-divergence"])
    assert config.statistics == ("c-score", "diag-divergence")


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# sampling setup\n"
        "algorithm = curveball\n"
        "burn_in = 250\n"
        "thin = 10\n"
        "retained = 50\n"
        "seed = 9\n"
        "statistics = c-score, diag-divergence\n"
        "keep_matrices = true\n"
    )
    config = load_chain_config(path)
    assert config == ChainConfig(algorithm="curveball", burn_in=250, thin=10,
                                 retained=50, seed=9,
                                 statistics=("c-score", "diag-divergence"),
                                 keep_matrices=True)


def test_config_file_defaults_and_errors(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 4\n")
    assert load_chain_config(path) == ChainConfig(seed=4)
    path.write_text("cadence = 5\n")
    with pytest.raises(ValueError, match="unknown key"):
        load_chain_config(path)
    path.write_text("just a line\n")
    with pytest.raises(ValueError, match="key=value"):
        load_chain_config(path)
    path.write_text("keep_matrices = maybe\n")
    with pytest.raises(ValueError, match="keep_matrices"):
        load_chain_config(path)


# -- single chains ------------------------------------------------------------------


def test_counters_partition_the_proposals(alternating_weights):
    config = ChainConfig(burn_in=37, thin=3, retained=20, seed=5)
    trace = run_chain(BinaryMatrix.identity(3), alternating_weights, config)
    counters = trace.counters
    assert counters.proposals == config.total_proposals
    assert counters.no_ops + counters.rejections + counters.acceptances == counters.proposals
    assert len(trace.values["diag-divergence"]) == 20
    assert trace.matrices is None


def test_same_seed_reproduces_the_trace_bitwise(alternating_weights):
    config = ChainConfig(algorithm="curveball", burn_in=20, thin=2, retained=100,
                         seed=123, keep_matrices=True)
    first = run_chain(BinaryMatrix.identity(3), alternating_weights, config)
    second = run_chain(BinaryMatrix.identity(3), alternating_weights, config)
    assert np.array_equal(first.values["diag-divergence"], second.values["diag-divergence"])
    assert all(a == b for a, b in zip(first.matrices, second.matrices))
    assert first.counters == second.counters


def test_swap_chain_ignores_the_ones_order_of_a_stepped_start():
    # swap_step rewrites two slots of `ones` in place, leaving them out of
    # row-major order; the chain must run as from a fresh matrix
    rng = np.random.default_rng(21)
    weights = WeightMatrix(rng.lognormal(0.0, 1.0, size=(5, 6)))
    state = BinaryMatrix([[1, 1, 0, 0, 1, 0], [0, 1, 1, 0, 0, 1], [1, 0, 1, 1, 0, 0],
                          [0, 0, 1, 1, 1, 0], [1, 0, 0, 1, 0, 1]])
    for _ in range(1_000):
        if state.ones != sorted(state.ones):
            break
        swap_step(state, weights, rng)
    fresh = BinaryMatrix(state.entries)
    assert fresh.ones == sorted(state.ones)
    rows, ones = list(state._rows), list(state.ones)
    config = ChainConfig(burn_in=50, thin=3, retained=40, seed=6, statistics=("c-score",),
                         keep_matrices=True)
    first, second = run_chain(state, weights, config), run_chain(fresh, weights, config)
    assert (state._rows, state.ones) == (rows, ones)  # the chain stepped a copy
    assert first.counters == second.counters
    assert np.array_equal(first.values["c-score"], second.values["c-score"])
    assert first.matrices == second.matrices


def test_initial_matrix_is_not_mutated(alternating_weights):
    # compare the row bitsets and the 1-cell list, not a cached `entries`
    for algorithm in chains.ALGORITHMS:
        initial = BinaryMatrix.identity(3)
        run_chain(initial, alternating_weights,
                  ChainConfig(algorithm=algorithm, retained=200, seed=8))
        assert initial == BinaryMatrix.identity(3), algorithm
        assert initial.ones == [(0, 0), (1, 1), (2, 2)], algorithm


def test_retention_instants_are_proposal_counts(alternating_weights):
    # retaining every state of a thin-1 run and the final state of an
    # equivalent single-retention run must agree step for step
    dense = ChainConfig(burn_in=0, thin=1, retained=4, seed=77, keep_matrices=True)
    sparse = ChainConfig(burn_in=2, thin=2, retained=1, seed=77, keep_matrices=True)
    full = run_chain(BinaryMatrix.identity(3), alternating_weights, dense)
    last = run_chain(BinaryMatrix.identity(3), alternating_weights, sparse)
    assert last.matrices[0] == full.matrices[3]
    assert last.values["diag-divergence"][0] == full.values["diag-divergence"][3]


def test_distinct_chain_indices_decorrelate(alternating_weights):
    config = ChainConfig(retained=60, seed=42, keep_matrices=True)
    zero = run_chain(BinaryMatrix.identity(3), alternating_weights, config, chain_index=0)
    one = run_chain(BinaryMatrix.identity(3), alternating_weights, config, chain_index=1)
    assert any(a != b for a, b in zip(zero.matrices, one.matrices))


def test_square_only_statistic_rejected_on_rectangles():
    weights = WeightMatrix.all_ones(2, 3)
    initial = BinaryMatrix([[1, 0, 1], [0, 1, 0]])
    with pytest.raises(ValueError, match="square"):
        run_chain(initial, weights, ChainConfig(statistics=("diag-divergence",)))
    trace = run_chain(initial, weights, ChainConfig(statistics=("c-score",), retained=10, seed=2))
    assert len(trace.values["c-score"]) == 10


def test_curveball_needs_two_rows():
    weights = WeightMatrix.all_ones(1, 3)
    initial = BinaryMatrix([[1, 0, 1]])
    with pytest.raises(ValueError, match="two rows"):
        run_chain(initial, weights, ChainConfig(algorithm="curveball", statistics=()))


def test_swap_chain_with_one_one_warns_and_stays_put():
    weights = WeightMatrix.all_ones(2, 2)
    initial = BinaryMatrix([[0, 1], [0, 0]])
    config = ChainConfig(retained=25, seed=1, statistics=(), keep_matrices=True)
    with pytest.warns(UserWarning, match="never move"):
        trace = run_chain(initial, weights, config)
    assert trace.counters.no_ops == config.total_proposals
    assert all(m == initial for m in trace.matrices)


def test_incompatible_start_is_rejected():
    weights = WeightMatrix([[1.0, 1.0], [1.0, 0.0]])
    with pytest.raises(CompatibilityError):
        run_chain(BinaryMatrix.identity(2), weights, ChainConfig(statistics=()))


def test_chain_respects_margins_and_zero_pattern():
    rng = np.random.default_rng(4000)
    weights = with_corner_zeros(preset_weights("uniform05", 5, 6, rng=rng), 0.2)
    initial = random_binary_matrix(5, 6, 0.5, rng=rng, weights=weights)
    config = ChainConfig(algorithm="curveball", burn_in=0, thin=1, retained=4000,
                         seed=10, statistics=(), keep_matrices=True)
    trace = run_chain(initial, weights, config)
    r0, c0 = compute_margins(initial)
    final = trace.matrices[-1]
    r1, c1 = compute_margins(final)
    assert np.array_equal(r0, r1) and np.array_equal(c0, c1)
    assert not final.entries[weights.weights == 0.0].any()
    final.validate()


# -- ensembles ------------------------------------------------------------------------


def test_single_chain_ensemble_equals_run_chain(alternating_weights):
    config = ChainConfig(burn_in=10, thin=2, retained=50, seed=31)
    alone = run_chain(BinaryMatrix.identity(3), alternating_weights, config)
    ensemble = run_ensemble(BinaryMatrix.identity(3), alternating_weights, config, 1)
    assert np.array_equal(alone.values["diag-divergence"],
                          ensemble[0].values["diag-divergence"])


def test_parallel_and_serial_ensembles_agree(alternating_weights):
    config = ChainConfig(algorithm="curveball", burn_in=10, thin=2, retained=40, seed=77)
    serial = run_ensemble(BinaryMatrix.identity(3), alternating_weights, config, 4, n_jobs=1)
    parallel = run_ensemble(BinaryMatrix.identity(3), alternating_weights, config, 4, n_jobs=2)
    for a, b in zip(serial, parallel):
        assert a.chain_index == b.chain_index
        assert np.array_equal(a.values["diag-divergence"], b.values["diag-divergence"])
        assert a.counters == b.counters


@pytest.mark.parametrize("n_chains, n_jobs, cpus, workers", [
    (1, 4, 8, None),      # one chain runs serially, whatever --jobs says
    (3, 100, 8, 3),       # no more workers than chains
    (5, 100, 2, 2),       # no more workers than CPUs
    (5, 4, None, None),   # an unknown CPU count counts as one
])
def test_ensemble_caps_its_worker_processes(monkeypatch, alternating_weights,
                                            n_chains, n_jobs, cpus, workers):
    started = []

    class FakePool:
        # records the pool size and maps in process, so no worker ever starts
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(chains.os, "cpu_count", lambda: cpus)
    config = ChainConfig(burn_in=5, thin=2, retained=10, seed=3)
    traces = run_ensemble(BinaryMatrix.identity(3), alternating_weights, config,
                          n_chains, n_jobs=n_jobs)
    assert started == ([] if workers is None else [workers])
    serial = [run_chain(BinaryMatrix.identity(3), alternating_weights, config, chain_index=i)
              for i in range(n_chains)]
    for a, b in zip(traces, serial, strict=True):
        assert a.counters == b.counters
        assert np.array_equal(a.values["diag-divergence"], b.values["diag-divergence"])


def test_ensemble_checks_its_start_before_any_worker_starts(monkeypatch):
    def no_pool(max_workers):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(chains.os, "cpu_count", lambda: 2)
    with pytest.raises(CompatibilityError):
        run_ensemble(BinaryMatrix.identity(2), WeightMatrix([[0.0, 1.0], [1.0, 1.0]]),
                     ChainConfig(), 2, n_jobs=2)


def test_ensemble_chains_differ_from_each_other(alternating_weights):
    config = ChainConfig(retained=60, seed=5, keep_matrices=True)
    traces = run_ensemble(BinaryMatrix.identity(3), alternating_weights, config, 3)
    assert [t.chain_index for t in traces] == [0, 1, 2]
    assert any(a != b for a, b in zip(traces[0].matrices, traces[1].matrices))


def test_ensemble_size_validation(alternating_weights):
    with pytest.raises(ValueError, match="n_chains"):
        run_ensemble(BinaryMatrix.identity(3), alternating_weights, ChainConfig(), 0)


# -- input generators --------------------------------------------------------------------


def test_preset_weights_shapes_and_ranges():
    assert np.all(preset_weights("ones", 3, 4).weights == 1.0)
    exp = preset_weights("exponential", 5, 5, rng=1)
    assert exp.weights.shape == (5, 5) and (exp.weights > 0).all()
    half = preset_weights("uniform05", 4, 4, rng=2)
    assert ((half.weights >= 0.5) & (half.weights <= 1.0)).all()
    unit = preset_weights("uniform01", 4, 4, rng=3)
    assert ((unit.weights >= 0.0) & (unit.weights <= 1.0)).all()
    with pytest.raises(ValueError, match="preset"):
        preset_weights("cauchy", 2, 2)


def test_random_zeros_masks_cells():
    base = preset_weights("uniform05", 20, 20, rng=4)
    masked = with_random_zeros(base, 0.3, rng=5)
    fraction = (masked.weights == 0.0).mean()
    assert 0.2 < fraction < 0.4
    assert not with_random_zeros(base, 0.0, rng=6).zero_pattern
    with pytest.raises(ValueError):
        with_random_zeros(base, 1.5)


def test_corner_zeros_are_monotonic_and_cover_the_fraction():
    rng = np.random.default_rng(8)
    for fraction in (0.0, 0.1, 0.25, 0.5):
        weights = with_corner_zeros(preset_weights("uniform05", 6, 7, rng=rng), fraction)
        zeros = (weights.weights == 0.0).sum()
        assert zeros >= fraction * 42
        assert is_monotonic(weights).is_monotonic


def test_random_binary_matrix_density_and_masking():
    dense = random_binary_matrix(40, 40, 0.5, rng=9)
    assert 0.4 < dense.entries.mean() < 0.6
    weights = with_corner_zeros(WeightMatrix.all_ones(10, 10), 0.3)
    masked = random_binary_matrix(10, 10, 0.9, rng=10, weights=weights)
    assert not masked.entries[weights.weights == 0.0].any()
    with pytest.raises(ValueError, match="density"):
        random_binary_matrix(3, 3, 1.5)
    with pytest.raises(ValueError, match="shape"):
        random_binary_matrix(3, 3, 0.5, weights=WeightMatrix.all_ones(2, 2))
