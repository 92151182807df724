"""The traced run: spans around the program's module-level functions, and the per-layer metrics.

`install` replaces functions in the program's modules with wrappers that
record one span per call (name, start, end, parent span, attributes) in a
`Recorder`; `uninstall` puts the originals back.  Nothing in the program is
edited.  Spans are kept in memory and written as JSON lines when the run
ends.  A layer's self time is its span's duration minus that of its child
spans.
"""
from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import contextmanager

from fixedmargin import chains, cli, matrices, oracle, stats
from fixedmargin._streams import UniformStream
from fixedmargin.chains import ChainConfig


class Recorder:
    """Spans in memory: [id, parent id or None, name, start, end, attributes].

    Calls made inside an opaque span record no spans of their own; their
    time stays in the opaque span's self time.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[list] = []
        self.opaque = False

    @contextmanager
    def span(self, name: str, attrs: dict | None = None, opaque: bool = False):
        record = [len(self.spans), self._stack[-1][0] if self._stack else None, name,
                  time.perf_counter(), None, attrs or {}]
        self.spans.append(record)
        self._stack.append(record)
        self.opaque = opaque
        try:
            yield record
        finally:
            self.opaque = False
            self._stack.pop()
            record[4] = time.perf_counter()

    def write(self, path) -> None:
        """One JSON array per line: [id, parent, name, start, end, attributes]."""
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def _wrapper(recorder: Recorder, func, name, attrs=None, opaque=False):
    @functools.wraps(func)
    def traced(*args, **kwargs):
        if recorder.opaque:
            return func(*args, **kwargs)
        span_name = name(*args, **kwargs) if callable(name) else name
        with recorder.span(span_name, opaque=opaque) as record:
            result = func(*args, **kwargs)
            if attrs is not None:
                record[5] = attrs(result)
        return result

    return traced


def _chain_attrs(trace) -> dict:
    c = trace.counters
    return {"algorithm": trace.config.algorithm, "proposals": c.proposals, "no_ops": c.no_ops,
            "rejections": c.rejections, "acceptances": c.acceptances}


def _kernel_name(space, algorithm, *args, **kwargs) -> str:
    return f"oracle.kernel.{algorithm}"


# (span name, attributes of the result, the namespaces that hold the function);
# a kernel build looks up a snapshot per transition, so its calls are not spanned
_TARGETS = [
    ("chains.run_chain", _chain_attrs, [(chains, "run_chain"), (cli, "run_chain")]),
    ("oracle.enumerate", lambda space: {"states": len(space)},
     [(oracle, "enumerate_space"), (cli, "enumerate_space")]),
    (_kernel_name, lambda kernel: {"bytes": kernel.nbytes},
     [(oracle, "exact_kernel"), (cli, "exact_kernel")]),
    ("oracle.connectivity", None, [(oracle, "connectivity"), (cli, "connectivity")]),
    ("oracle.diameter", None, [(oracle, "diameter"), (cli, "diameter")]),
    ("oracle.residuals", None, [(oracle, "balance_residual"), (cli, "balance_residual")]),
    ("oracle.residuals", None, [(oracle, "stationarity_residual"), (cli, "stationarity_residual")]),
    ("oracle.empirical", None, [(oracle, "empirical_distribution")]),
    ("stats.diagnose", None, [(stats, "diagnose"), (cli, "diagnose")]),
    ("cli.hamming_bound", None, [(cli, "_max_pairwise_hamming")]),
    ("cli.trace_write", None, [(cli, "_write_trace_csv")]),
    ("cli.zero_check", None, [(cli, "_check_zero_pattern")]),
    ("cli.sample", None, [(cli, "cmd_sample")]),
    ("cli.enumerate", None, [(cli, "cmd_enumerate")]),
    ("cli.verify", None, [(cli, "cmd_verify")]),
    ("cli.nullmodel", None, [(cli, "cmd_nullmodel")]),
]
_STATISTIC_SPANS = {"c-score": "stats.c_score", "diag-divergence": "stats.diag_divergence"}


def install(recorder: Recorder) -> list:
    """Wrap the traced functions; returns what `uninstall` needs to undo it."""
    undo = []
    for name, attrs, places in _TARGETS:
        owner, attr = places[0]
        traced = _wrapper(recorder, getattr(owner, attr), name, attrs, opaque=name is _kernel_name)
        for owner, attr in places:
            undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, traced)
    # the registry holds the statistic functions that run_chain and the CLI
    # call; get_statistic reads it at call time
    undo.append((stats, "STATISTICS", stats.STATISTICS))
    stats.STATISTICS = {
        key: stats.StatisticDef(d.name, _wrapper(recorder, d.func, _STATISTIC_SPANS[key]), d.square_only)
        for key, d in stats.STATISTICS.items()
    }
    snapshot = matrices.BinaryMatrix.__dict__["_from_row_bits"]
    undo.append((matrices.BinaryMatrix, "_from_row_bits", snapshot))
    matrices.BinaryMatrix._from_row_bits = classmethod(
        _wrapper(recorder, snapshot.__func__, "matrices.snapshot"))
    init = matrices.WeightMatrix.__init__
    undo.append((matrices.WeightMatrix, "__init__", init))
    matrices.WeightMatrix.__init__ = _wrapper(recorder, init, "matrices.weights_build")
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


# -- per-layer metrics -------------------------------------------------------

PER_LAYER_UNITS = {
    "streams.uniforms_per_proposal.swap": "count",
    "streams.uniforms_per_proposal.curveball": "count",
    "swap.step_ns": "ns",
    "curveball.step_ns": "ns",
    "swap.accept_ratio": "ratio",
    "swap.noop_ratio": "ratio",
    "curveball.accept_ratio": "ratio",
    "curveball.noop_ratio": "ratio",
    "chains.run_chain_s": "s",
    "matrices.snapshot_us": "us",
    "matrices.snapshots": "count",
    "matrices.weights_build_ms": "ms",
    "stats.c_score_us": "us",
    "stats.c_score_calls": "count",
    "stats.diag_divergence_us": "us",
    "stats.diag_divergence_calls": "count",
    "stats.diagnose_ms": "ms",
    "oracle.enumerate_s": "s",
    "oracle.states": "count",
    "oracle.kernel_s.swap": "s",
    "oracle.kernel_s.curveball": "s",
    "oracle.kernel_bytes": "bytes",
    "oracle.connectivity_s": "s",
    "oracle.diameter_s": "s",
    "oracle.residuals_s": "s",
    "oracle.empirical_s": "s",
    "cli.hamming_bound_s": "s",
    "cli.diameter_share": "ratio",
    "cli.trace_write_s": "s",
    "cli.zero_check_s": "s",
    "trace.overhead_s": "s",
}


def _round_layers(spans: list[list]) -> dict[str, float]:
    """Per-layer figures of one traced round from its spans."""
    duration = {s[0]: s[4] - s[3] for s in spans}
    child_time = dict.fromkeys(duration, 0.0)
    for s in spans:
        if s[1] in child_time:
            child_time[s[1]] += duration[s[0]]
    total, self_time, calls = {}, {}, {}
    for s in spans:
        total[s[2]] = total.get(s[2], 0.0) + duration[s[0]]
        self_time[s[2]] = self_time.get(s[2], 0.0) + duration[s[0]] - child_time[s[0]]
        calls[s[2]] = calls.get(s[2], 0) + 1

    def mean_us(name):
        return 1e6 * total[name] / calls[name] if calls.get(name) else 0.0

    out = {
        "chains.run_chain_s": self_time.get("chains.run_chain", 0.0),
        "matrices.snapshot_us": mean_us("matrices.snapshot"),
        "matrices.snapshots": calls.get("matrices.snapshot", 0),
        "stats.c_score_us": mean_us("stats.c_score"),
        "stats.c_score_calls": calls.get("stats.c_score", 0),
        "stats.diag_divergence_us": mean_us("stats.diag_divergence"),
        "stats.diag_divergence_calls": calls.get("stats.diag_divergence", 0),
        "stats.diagnose_ms": 1e3 * total.get("stats.diagnose", 0.0),
        "oracle.enumerate_s": self_time.get("oracle.enumerate", 0.0),
        "oracle.states": sum(s[5]["states"] for s in spans if s[2] == "oracle.enumerate"),
        "oracle.kernel_s.swap": self_time.get("oracle.kernel.swap", 0.0),
        "oracle.kernel_s.curveball": self_time.get("oracle.kernel.curveball", 0.0),
        "oracle.kernel_bytes": max([s[5]["bytes"] for s in spans if s[2].startswith("oracle.kernel.")],
                                   default=0),
        "oracle.connectivity_s": self_time.get("oracle.connectivity", 0.0),
        "oracle.diameter_s": self_time.get("oracle.diameter", 0.0),
        "oracle.residuals_s": self_time.get("oracle.residuals", 0.0),
        "oracle.empirical_s": self_time.get("oracle.empirical", 0.0),
        "cli.hamming_bound_s": self_time.get("cli.hamming_bound", 0.0),
        "cli.diameter_share": (total.get("oracle.diameter", 0.0) / total["cli.verify"]
                               if total.get("cli.verify") else 0.0),
        "cli.trace_write_s": self_time.get("cli.trace_write", 0.0),
        "cli.zero_check_s": self_time.get("cli.zero_check", 0.0),
    }
    for algorithm in ("swap", "curveball"):
        runs = [s[5] for s in spans if s[2] == "chains.run_chain" and s[5]["algorithm"] == algorithm]
        proposals = sum(r["proposals"] for r in runs) or 1
        out[f"{algorithm}.accept_ratio"] = sum(r["acceptances"] for r in runs) / proposals
        out[f"{algorithm}.noop_ratio"] = sum(r["no_ops"] for r in runs) / proposals
    return out


def layer_metrics(recorder: Recorder, setup_span: int, round_spans: list[int]) -> dict[str, float]:
    """Mean per-layer figures over the traced rounds, plus set-up's weight builds."""
    children: dict[int, list[list]] = {}
    for s in recorder.spans:
        children.setdefault(s[1], []).append(s)

    def subtree(root: int) -> list[list]:
        out, todo = [], [root]
        while todo:
            sid = todo.pop()
            out.append(recorder.spans[sid])
            todo.extend(c[0] for c in children.get(sid, []))
        return out

    per_round = [_round_layers(subtree(root)) for root in round_spans]
    merged = {name: statistics.fmean(r[name] for r in per_round) for name in per_round[0]}
    merged["matrices.weights_build_ms"] = 1e3 * sum(
        s[4] - s[3] for s in subtree(setup_span) if s[2] == "matrices.weights_build")
    return merged


def step_probes(matrix, weights, seed: int) -> dict[str, float]:
    """ns per proposal of a statistics-free run_chain, and uniforms drawn per proposal."""
    streams = []

    class CountingStream:
        def __init__(self, rng, block: int = 16384):
            inner = UniformStream(rng, block).u
            self.count = 0

            def u():
                self.count += 1
                return inner()

            self.u = u
            streams.append(self)

    out = {}
    for algorithm, proposals in (("swap", 200_000), ("curveball", 20_000)):
        config = ChainConfig(algorithm=algorithm, burn_in=proposals - 1, thin=1, retained=1,
                             seed=seed, statistics=())
        start = time.perf_counter()
        chains.run_chain(matrix, weights, config)
        out[f"{algorithm}.step_ns"] = 1e9 * (time.perf_counter() - start) / proposals
        chains.UniformStream = CountingStream
        try:
            chains.run_chain(matrix, weights, config)
        finally:
            chains.UniformStream = UniformStream
        out[f"streams.uniforms_per_proposal.{algorithm}"] = streams.pop().count / proposals
    return out
