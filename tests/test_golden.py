"""Golden same-seed pins: counters and retained states of seeded runs, the
bytes the CLI writes, and the oracle's move graphs, components and distances.

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
from fixedmargin.cli import main
from fixedmargin.oracle import connectivity, diameter, enumerate_space, min_swaps, move_graph

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
    ("curveball", (302_000, 12_385, 231_470, 58_145), "6b7bc1f68c6e623c"),
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
    assert hashlib.sha256(" ".join(outcomes).encode()).hexdigest()[:16] == "da0a1a992bd066f5"
    # h also hashes the reported acceptance floats, so it pins their last bits
    assert h.hexdigest()[:16] == "5b8554599381179e"


# -- CLI bytes ----------------------------------------------------------------

# Zeros at (0,0) and (1,1) are not monotonic under any row/column order, yet
# the space they leave is one component, so `sample` prints and reports the
# automatic connectivity certificate.
ZERO_PAIR_WEIGHTS = "0 1 2 1\n2 0 1 3\n1 2 1 0.5\n3 1 0.5 2\n"
ZERO_PAIR_MATRIX = "0 1 1 0\n1 0 0 1\n1 1 0 0\n0 0 1 1\n"
NO_DIAGONAL_WEIGHTS = "0 1 1\n1 0 1\n1 1 0\n"
CYCLE_MATRIX = "0 1 0\n0 0 1\n1 0 0\n"


def _cli_digest(tmp_path, capsys, argv, inputs) -> tuple[int, str]:
    """Exit code and a digest of stdout, stderr and every file under out/.

    `inputs` maps file names to the text written into tmp_path before the
    run; "{tmp}" in argv stands for tmp_path, and tmp_path is masked in all
    output, so the digest does not depend on where the test runs.
    """
    for name, text in inputs.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    capsys.readouterr()
    code = main([arg.replace("{tmp}", str(tmp_path)) for arg in argv])
    captured = capsys.readouterr()
    h = hashlib.sha256()

    def update(text: str) -> None:
        h.update(text.replace(str(tmp_path), "<tmp>").encode())
        h.update(b"\0")

    update(captured.out)
    update(captured.err)
    out = tmp_path / "out"
    for path in sorted(out.rglob("*")) if out.exists() else []:
        update(path.relative_to(out).as_posix())
        update(path.read_text(encoding="utf-8"))
    return code, h.hexdigest()[:16]


@pytest.mark.parametrize("argv, inputs, expected", [
    (["sample", "{tmp}/m.txt", "--weights", "{tmp}/w.txt", "--algorithm", "curveball",
      "--chains", "2", "--burn-in", "20", "--thin", "3", "--samples", "12", "--seed", "5",
      "--stats", "diag-divergence,c-score", "--keep-matrices", "--out", "{tmp}/out"],
     {"m.txt": ZERO_PAIR_MATRIX, "w.txt": ZERO_PAIR_WEIGHTS}, (0, "b594d04b65a46978")),
    (["nullmodel", "{tmp}/m.txt", "--weights", "{tmp}/w.txt", "--algorithm", "swap",
      "--burn-in", "50", "--thin", "4", "--samples", "120", "--seed", "3",
      "--out", "{tmp}/out"],
     {"m.txt": ZERO_PAIR_MATRIX, "w.txt": ZERO_PAIR_WEIGHTS}, (0, "52b40578c6ff4ab1")),
    (["nullmodel", "{tmp}/m.txt", "--weights", "{tmp}/w.txt", "--samples", "15",
      "--strict", "--out", "{tmp}/out"],
     {"m.txt": CYCLE_MATRIX, "w.txt": NO_DIAGONAL_WEIGHTS}, (2, "7bcc2cedcd5c7ce0")),
    (["verify", "--rows", "1,1,1", "--cols", "1,1,1", "--weights", "{tmp}/w.txt"],
     {"w.txt": "1 2 1\n2 1 2\n1 2 1\n"}, (0, "09cb28bb32acce4d")),
    (["enumerate", "--rows", "1,1,1", "--cols", "1,1,1", "--weights", "{tmp}/w.txt"],
     {"w.txt": "1 2 1\n2 1 2\n1 2 1\n"}, (0, "7c33852908b81f0a")),
], ids=["sample-kept-certified", "nullmodel", "nullmodel-strict", "verify", "enumerate"])
def test_cli_output_bytes_are_pinned(tmp_path, capsys, argv, inputs, expected):
    assert _cli_digest(tmp_path, capsys, argv, inputs) == expected


# -- oracle -------------------------------------------------------------------


def _zero_pattern_spaces(count: int) -> list:
    # the recipe of tests/test_oracle.py's zero_pattern_spaces fixture: seeded
    # 4x4 and 5x5 spaces behind random zero patterns, some disconnected
    rng = np.random.default_rng(4242)
    spaces = []
    while len(spaces) < count:
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


ORACLE_SPACES = {
    "toy": lambda: [enumerate_space([1, 1, 1], [1, 1, 1], WeightMatrix(TOY_WEIGHTS))],
    "zero-patterns": lambda: _zero_pattern_spaces(10) + [
        enumerate_space([1] * 3, [1] * 3, WeightMatrix(1.0 - np.eye(3)))],
    "two-margin-5x5": lambda: [enumerate_space([2] * 5, [2] * 5)],
}


def _oracle_digest(spaces, algorithm) -> tuple[int, str]:
    """Split spaces and a digest of the moves, components and distances."""
    h = hashlib.sha256()
    split = 0
    for space in spaces:
        graph = move_graph(space, algorithm)
        for column in (graph.src, graph.dst, graph.prob, graph.stay):
            h.update(column.tobytes())
        components = connectivity(space, algorithm)
        h.update(repr(components).encode())
        split += len(components) > 1
        if len(components) == 1:
            h.update(repr(diameter(space, algorithm)).encode())
        size = len(space)
        for a, b in [(0, size - 1), (0, size // 2), (size // 3, 2 * size // 3), (1, 1)]:
            h.update(repr(min_swaps(space, a, b, algorithm)).encode())
    return split, h.hexdigest()[:16]


@pytest.mark.parametrize("name, algorithm, expected", [
    ("toy", "swap", (0, "58686a508c43fb27")),
    ("toy", "curveball", (0, "0d6f95cdf965bbef")),
    ("zero-patterns", "swap", (2, "7a8040515781380b")),
    ("zero-patterns", "curveball", (2, "61d6363e4cd8d3e3")),
    ("two-margin-5x5", "swap", (0, "76cb1ad618cb5d87")),
    ("two-margin-5x5", "curveball", (0, "f17bf2d06ef92316")),
])
def test_oracle_graphs_are_pinned(name, algorithm, expected):
    assert _oracle_digest(ORACLE_SPACES[name](), algorithm) == expected
