"""Golden same-seed pins: counters and retained states of seeded runs.

These values were recorded from the reference implementation.  Any change
to the random stream, to the outcome of a single proposal, or to what is
retained shows up here as a changed digest, so a refactor of the sampling
code that keeps these tests green provably leaves the chain untouched.  A
change that alters the stream on purpose must say so and re-pin them.
"""

import hashlib

import numpy as np
import pytest

from fixedmargin import (
    BinaryMatrix,
    WeightMatrix,
    curveball_step,
    propose_swap,
    propose_trade,
    swap_step,
)
from fixedmargin.chains import ChainConfig, preset_weights, random_binary_matrix, run_chain

TOY_WEIGHTS = [[1.0, 2.0, 1.0], [2.0, 1.0, 2.0], [1.0, 2.0, 1.0]]


def _digest(trace) -> str:
    h = hashlib.sha256()
    for matrix in trace.matrices:
        h.update(matrix.key())
    for name in sorted(trace.values):
        h.update(trace.values[name].tobytes())
    return h.hexdigest()[:16]


def _counters(trace):
    c = trace.counters
    return (c.proposals, c.no_ops, c.rejections, c.acceptances)


@pytest.mark.parametrize("algorithm, counters, digest", [
    ("swap", (301_000, 0, 171_188, 129_812), "6c61c0952052865c"),
    ("curveball", (301_000, 0, 85_402, 215_598), "fc79d4f7ef0b0642"),
])
def test_toy_space_trace_is_pinned(algorithm, counters, digest):
    config = ChainConfig(algorithm=algorithm, burn_in=1_000, thin=300, retained=1_000,
                         seed=11, keep_matrices=True)
    trace = run_chain(BinaryMatrix.identity(3), WeightMatrix(TOY_WEIGHTS), config)
    assert _counters(trace) == counters
    assert _digest(trace) == digest


@pytest.mark.parametrize("algorithm, counters, digest", [
    ("swap", (302_000, 148_635, 120_578, 32_787), "ea1136ee857c6392"),
    ("curveball", (302_000, 12_316, 231_904, 57_780), "57cc7110a4ddd01e"),
])
def test_weighted_20x20_trace_is_pinned(algorithm, counters, digest):
    rng = np.random.default_rng(2020)
    weights = preset_weights("exponential", 20, 20, rng)
    start = random_binary_matrix(20, 20, 0.25, rng)
    config = ChainConfig(algorithm=algorithm, burn_in=2_000, thin=1_000, retained=300,
                         seed=12, statistics=("diag-divergence", "c-score"),
                         keep_matrices=True)
    trace = run_chain(start, weights, config)
    assert _counters(trace) == counters
    assert _digest(trace) == digest


def test_public_step_functions_are_pinned():
    # alternating runs of swap and curveball steps on one matrix also pin the
    # order of the 1-cell list, which decides the pair a later swap draws
    rng = np.random.default_rng(13)
    weights = WeightMatrix(rng.lognormal(0.0, 1.0, size=(5, 6)))
    state = random_binary_matrix(5, 6, 0.5, rng)
    outcomes = []
    h = hashlib.sha256()
    for k in range(3000):
        step = swap_step if (k // 7) % 2 == 0 else curveball_step
        outcomes.append(step(state, weights, rng))
        h.update(state.key())
        h.update(repr(state.ones).encode())
        h.update(repr((propose_swap(state, weights, rng),
                       propose_trade(state, weights, rng))).encode())
    state.validate()
    assert hashlib.sha256(" ".join(outcomes).encode()).hexdigest()[:16] == "86d7970fda920ca9"
    # h also hashes the reported acceptance floats, so it pins their last bits
    assert h.hexdigest()[:16] == "bf6abd2bad94b20c"
