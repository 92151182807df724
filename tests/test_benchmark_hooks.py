"""The benchmark's traced run still finds every program name it wraps.

`benchmark/tracing.py` replaces module-level functions of the package by
name.  Installing it here, and making one traced chain run and one traced
kernel build on the toy space, turns a renamed hook target into a failing
test rather than a failing traced benchmark run.
"""

import sys
from pathlib import Path

import pytest

from fixedmargin import BinaryMatrix, WeightMatrix, chains, matrices, oracle
from fixedmargin.chains import ChainConfig

BENCHMARK_DIR = Path(__file__).resolve().parent.parent / "benchmark"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARK_DIR))
    import tracing

    yield tracing
    sys.modules.pop("tracing", None)


def test_traced_run_chain_and_kernel_record_their_spans(tracing, alternating_weights,
                                                        unit_margins):
    originals = (chains.run_chain, oracle.exact_kernel,
                 matrices.BinaryMatrix.__dict__["_from_row_bits"], matrices.WeightMatrix.__init__)
    recorder = tracing.Recorder()
    undo = tracing.install(recorder)
    try:
        config = ChainConfig(burn_in=10, thin=2, retained=5, seed=1, keep_matrices=True)
        trace = chains.run_chain(BinaryMatrix.identity(3), alternating_weights, config)
        space = oracle.enumerate_space(*unit_margins, WeightMatrix(alternating_weights.weights))
        kernel = oracle.exact_kernel(space, "curveball")
    finally:
        tracing.uninstall(undo)
    assert len(trace.matrices) == 5 and kernel.shape == (6, 6)
    names = {span[2] for span in recorder.spans}
    assert {"chains.run_chain", "matrices.snapshot", "stats.diag_divergence", "oracle.enumerate",
            "oracle.kernel.curveball", "matrices.weights_build"} <= names
    assert (chains.run_chain, oracle.exact_kernel,
            matrices.BinaryMatrix.__dict__["_from_row_bits"],
            matrices.WeightMatrix.__init__) == originals
