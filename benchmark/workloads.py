"""The benchmark's four workloads: inputs, timed rounds, checks and metrics.

A workload builds its inputs once from the seed, writes them as files and
reads them back through the library (that is the set-up).  A round then
runs the workload's operations, each timed alone.  Every round runs the
same operations on the same inputs; each operation gives its chains a
seed of its own, 10000 * seed + 10 * round + repetition, so the rounds of a
run add up to more chains.  After each
round, outside its timed region, its outputs are checked against the
independent computations in `reference.py`.

The program is driven from outside only: `fixedmargin.cli.main` in this
process, and the library's public functions.
"""
from __future__ import annotations

import csv
import io
import json
import math
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import hostspeed
import reference
from fixedmargin import chains, cli, oracle
from fixedmargin.chains import ChainConfig
from fixedmargin.matrices import read_binary_matrix, read_weight_matrix

ALGORITHMS = ("swap", "curveball")
TOY_WEIGHTS = [[1.0, 2.0, 1.0], [2.0, 1.0, 2.0], [1.0, 2.0, 1.0]]
# standard deviations a toy state frequency may stray from its exact probability
TOY_Z = 5.0


@dataclass
class Op:
    """One timed operation of a round and what it produced.

    `host` is the host's slowness around the operation (`hostspeed.factor`);
    `normalised` is its time at the nominal host speed.
    """

    name: str
    algorithm: str | None
    seconds: float
    output: object
    proposals: int = 0
    counts_for_rate: bool = True
    config: ChainConfig | None = None
    host: float = 1.0

    @property
    def normalised(self) -> float:
        return self.seconds / self.host


@dataclass
class CliRun:
    code: int
    stdout: str
    stderr: str

    def report(self) -> dict:
        return json.loads(self.stdout)


@dataclass
class Checked:
    """Problems found per operation, plus each algorithm's chains read from outputs.

    `chains` holds the statistic's series of every chain that counts for the
    sampler metrics; ESS is estimated from all of a run's chains at once.
    """

    problems: dict[str, list[str]] = field(default_factory=dict)
    chains: dict[str, list[np.ndarray]] = field(default_factory=dict)

    def chain(self, algorithm: str, values) -> None:
        self.chains.setdefault(algorithm, []).append(np.asarray(values, dtype=np.float64))

    def expect(self, op: str, ok: bool, message: str) -> None:
        self.problems.setdefault(op, [])
        if not ok:
            self.problems[op].append(message)


def _timed(recorder, op_name: str, algorithm: str | None, func, proposals: int = 0,
           counts_for_rate: bool = True, config: ChainConfig | None = None) -> Op:
    before = hostspeed.last()
    with recorder.span(f"op.{op_name}") if recorder is not None else nullcontext():
        start = time.perf_counter()
        output = func()
        seconds = time.perf_counter() - start
    host = hostspeed.factor(before, hostspeed.after(seconds))
    return Op(op_name, algorithm, seconds, output, proposals, counts_for_rate, config, host)


def _cli(argv: list[str]) -> CliRun:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return CliRun(code, out.getvalue(), err.getvalue())


def _write_matrix(path: Path, rows) -> str:
    # repr of a float round-trips exactly, so the program reads the drawn values
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(" ".join(repr(float(v)) if isinstance(v, float) else str(int(v))
                              for v in row) + "\n")
    return str(path)


def _random_fill(row_sums, col_sums, allowed: np.ndarray, rng) -> np.ndarray:
    """A 0/1 matrix with exactly these margins and 1s only where `allowed`.

    Rows are filled one at a time, the most constrained first, each taking
    its columns without replacement with probability proportional to their
    remaining capacity; a fill that gets stuck starts over.
    """
    m, n = allowed.shape
    order = np.lexsort((-np.asarray(row_sums), allowed.sum(axis=1)))
    for _ in range(100):
        capacity = np.array(col_sums, dtype=float)
        a = np.zeros((m, n), dtype=int)
        for i in order:
            p = capacity * allowed[i]
            if np.count_nonzero(p) < row_sums[i]:
                break
            cols = rng.choice(n, row_sums[i], replace=False, p=p / p.sum())
            a[i, cols] = 1
            capacity[cols] -= 1
        else:
            return a
    raise RuntimeError("could not fill a matrix with these margins")


def _read_trace_csv(path: str) -> tuple[list[int], dict[str, list[float]]]:
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    rows = list(csv.reader(lines))
    header, body = rows[0], rows[1:]
    iterations = [int(row[0]) for row in body]
    columns = {name: [float(row[k + 1]) for row in body] for k, name in enumerate(header[1:])}
    return iterations, columns


class Workload:
    """Shared round bookkeeping; subclasses set up inputs and define the operations."""

    name = ""
    # operations that fail on every run because of a known fault in the program
    known_faults: frozenset[str] = frozenset()

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        work.mkdir(parents=True, exist_ok=True)
        key = sum(map(ord, self.name))
        self.rng = np.random.default_rng([seed, key])
        # the weights (and structural zeros) are the same for every seed, so
        # that seeds vary the data and the chains, not the law
        self.model_rng = np.random.default_rng(key)

    def chain_seed(self, r: int, repetition: int = 0) -> int:
        return 10_000 * self.seed + 10 * r + repetition

    def run_round(self, r: int, recorder=None) -> list[Op]:
        raise NotImplementedError

    def check(self, ops: list[Op], r: int) -> Checked:
        raise NotImplementedError

    def _check_cli_chain(self, checked: Checked, op: Op, report_chain: dict, statistic: str,
                         own_statistic, chain_index: int = 0,
                         companion_samples: int = 20) -> list[float]:
        """Checks shared by `sample` and `nullmodel` chains; returns the CSV trace.

        The chain started from `self.matrix` with weights `self.weights`
        (drawn as `self.weight_array`).  A same-seed companion run keeps
        matrices for the first retained instants: each kept state has the
        input margins and no 1 on a zero weight, and the benchmark's own
        statistic of it equals the CSV value.
        """
        config = op.config
        counters = report_chain["counters"]
        total = config.burn_in + config.thin * config.retained
        checked.expect(op.name, counters["proposals"] == total,
                       f"chain {chain_index}: {counters['proposals']} proposals, expected {total}")
        outcomes = counters["no_ops"] + counters["rejections"] + counters["acceptances"]
        checked.expect(op.name, outcomes == total,
                       f"chain {chain_index}: outcome counters add up to {outcomes}, not {total}")
        iterations, columns = _read_trace_csv(report_chain["trace_file"])
        values = columns.get(statistic, [])
        checked.expect(op.name, len(values) == config.retained,
                       f"chain {chain_index}: {len(values)} trace rows, expected {config.retained}")
        checked.expect(op.name, iterations == [config.burn_in + config.thin * (r + 1)
                                               for r in range(config.retained)],
                       f"chain {chain_index}: wrong iteration column")
        matrix, weights = self.matrix, self.weight_array
        companion = chains.run_chain(matrix, self.weights, ChainConfig(
            algorithm=config.algorithm, burn_in=config.burn_in, thin=config.thin,
            retained=companion_samples, seed=config.seed, statistics=(statistic,),
            keep_matrices=True), chain_index=chain_index)
        row_sums = matrix.entries.sum(axis=1)
        col_sums = matrix.entries.sum(axis=0)
        for r, state in enumerate(companion.matrices):
            ent = state.entries
            checked.expect(op.name, np.array_equal(ent.sum(axis=1), row_sums)
                           and np.array_equal(ent.sum(axis=0), col_sums),
                           f"chain {chain_index} sample {r}: margins changed")
            checked.expect(op.name, not (ent.astype(bool) & (weights == 0.0)).any(),
                           f"chain {chain_index} sample {r}: a 1 on a zero weight")
            own = own_statistic(ent.tolist())
            checked.expect(op.name, r < len(values) and own == values[r],
                           f"chain {chain_index} sample {r}: {statistic} {own!r} but the CSV has "
                           f"{values[r] if r < len(values) else None!r}")
        return values


# -- toy-exact ---------------------------------------------------------------


class ToyExact(Workload):
    """AC-1's weighted 3x3 toy space, kept states tabulated against the exact law."""

    name = "toy-exact"
    known_faults = frozenset({"toy.swap.scaled-1e-170"})
    THIN = 10
    BURN_IN = 100
    RETAINED = 6_000
    # 5% of the main runs: mending the scaled swap cannot move the metrics much
    SCALED_RETAINED = 300
    SCALE = 1e-170

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.law = reference.permutation_law(TOY_WEIGHTS)
        self.matrix = read_binary_matrix(_write_matrix(work / "toy-start.txt", np.eye(3, dtype=int)))
        self.weights = read_weight_matrix(_write_matrix(work / "toy-weights.txt", TOY_WEIGHTS))
        scaled = [[w * self.SCALE for w in row] for row in TOY_WEIGHTS]
        self.scaled_weights = read_weight_matrix(_write_matrix(work / "toy-weights-scaled.txt", scaled))
        self.space = oracle.enumerate_space([1, 1, 1], [1, 1, 1], self.weights)

    def _config(self, algorithm: str, retained: int, r: int) -> ChainConfig:
        return ChainConfig(algorithm=algorithm, burn_in=self.BURN_IN, thin=self.THIN,
                           retained=retained, seed=self.chain_seed(r), statistics=(),
                           keep_matrices=True)

    def _op(self, weights, config):
        trace = chains.run_chain(self.matrix, weights, config)
        return trace, oracle.empirical_distribution(trace, self.space)

    def run_round(self, r: int, recorder=None) -> list[Op]:
        ops = []
        for algorithm in ALGORITHMS:
            config = self._config(algorithm, self.RETAINED, r)
            ops.append(_timed(recorder, f"toy.{algorithm}", algorithm,
                              lambda: self._op(self.weights, config), config.total_proposals))
        for algorithm in ALGORITHMS:
            config = self._config(algorithm, self.SCALED_RETAINED, r)
            ops.append(_timed(recorder, f"toy.{algorithm}.scaled-1e-170", algorithm,
                              lambda: self._op(self.scaled_weights, config),
                              config.total_proposals, counts_for_rate=False))
        return ops

    def check(self, ops: list[Op], r: int) -> Checked:
        checked = Checked()
        perms = list(self.law)
        position = {p: k for k, p in enumerate(perms)}
        divergence = {p: reference.diag_divergence([[int(p[i] == j) for j in range(3)] for i in range(3)])
                      for p in perms}
        for op in ops:
            trace, comparison = op.output
            config = trace.config
            c = trace.counters
            checked.expect(op.name, c.no_ops + c.rejections + c.acceptances == config.total_proposals,
                           "outcome counters do not add up")
            try:
                series = [reference.permutation_of(state.entries.tolist()) for state in trace.matrices]
            except ValueError:
                checked.expect(op.name, False, "a kept state is not a permutation matrix")
                continue
            n = len(series)
            checked.expect(op.name, n == config.retained, f"{n} kept states, expected {config.retained}")
            index = np.array([position.get(p, -1) for p in series])
            checked.expect(op.name, (index >= 0).all(), "a kept state has zero probability")
            counts = np.bincount(index[index >= 0], minlength=len(perms))
            freq = counts / n
            exact = np.array([self.law[p] for p in perms])
            tv = 0.5 * float(np.abs(freq - exact).sum())
            program_counts = {tuple(int(v) for v in np.argmax(s.entries, axis=1)): int(k)
                              for s, k in zip(self.space.states, comparison.counts)}
            checked.expect(op.name, all(program_counts[p] == counts[position[p]] for p in perms),
                           "empirical_distribution counts differ from the benchmark's tabulation")
            checked.expect(op.name, abs(comparison.total_variation - tv) <= 1e-12,
                           f"program TV {comparison.total_variation} but the benchmark's is {tv}")
            tv_tolerance = 0.0
            for k, p in enumerate(perms):
                n_eff = min(reference.ar_ess((index == k).astype(float)), n)
                # a chain that barely moves carries no information about the law
                checked.expect(op.name, n_eff >= n / 10,
                               f"state {p}: effective sample size {n_eff:.0f} of {n}; the chain does not mix")
                tolerance = TOY_Z * math.sqrt(exact[k] * (1 - exact[k]) / max(n_eff, 1.0))
                tv_tolerance += 0.5 * tolerance
                checked.expect(op.name, abs(freq[k] - exact[k]) <= tolerance,
                               f"state {p}: frequency {freq[k]:.4f}, exact {exact[k]:.4f}, "
                               f"tolerance {tolerance:.4f}")
            checked.expect(op.name, tv <= tv_tolerance, f"TV {tv:.4f} above {tv_tolerance:.4f}")
            if op.counts_for_rate:
                checked.chain(op.algorithm, [divergence[p] for p in series])
        return checked


# -- mixing ------------------------------------------------------------------


class Mixing(Workload):
    """`fixedmargin sample`, several chains per algorithm, diag-divergence at a large thin."""

    name = "mixing"
    SIZE = 60
    ONES_PER_LINE = 9  # every row and column: density 0.15
    ZERO_BLOCK = 12  # bottom-left corner block of structural zeros, monotone
    # (chains, burn_in, thin, samples).  A chain should span some 30
    # autocorrelation times for its ESS estimate to hold: about 2,000 samples
    # at thin 40 for curveball.  ESS is known to about 1/sqrt(ESS), so
    # curveball, with about a sixth of swap's ESS per second here, gets most
    # of the round.  One chain per call keeps rounds short; a run has one
    # chain per algorithm per round.
    PLAN = {"swap": (1, 20_000, 200, 1_200), "curveball": (1, 4_000, 40, 2_000)}

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        n, rng = self.SIZE, self.rng
        w = self.model_rng.exponential(1.0, size=(n, n))
        w[w == 0.0] = 1.0
        w[n - self.ZERO_BLOCK:, : self.ZERO_BLOCK] = 0.0
        margins = [self.ONES_PER_LINE] * n
        a = _random_fill(margins, margins, w > 0.0, rng)
        self.weight_array = w
        self.matrix_path = _write_matrix(work / "mixing-matrix.txt", a)
        self.weights_path = _write_matrix(work / "mixing-weights.txt", w)
        self.matrix = read_binary_matrix(self.matrix_path)
        self.weights = read_weight_matrix(self.weights_path)

    def _config(self, algorithm: str, r: int) -> ChainConfig:
        _, burn_in, thin, samples = self.PLAN[algorithm]
        return ChainConfig(algorithm=algorithm, burn_in=burn_in, thin=thin, retained=samples,
                           seed=self.chain_seed(r), statistics=("diag-divergence",))

    def run_round(self, r: int, recorder=None) -> list[Op]:
        ops = []
        for algorithm in ALGORITHMS:
            config = self._config(algorithm, r)
            n_chains = self.PLAN[algorithm][0]
            argv = ["sample", self.matrix_path, "--weights", self.weights_path,
                    "--algorithm", algorithm, "--burn-in", str(config.burn_in),
                    "--thin", str(config.thin), "--samples", str(config.retained),
                    "--chains", str(n_chains), "--jobs", "1", "--seed", str(config.seed),
                    "--stats", "diag-divergence", "--out", str(self.work / f"sample-{algorithm}")]
            ops.append(_timed(recorder, f"sample.{algorithm}", algorithm, lambda: _cli(argv),
                              n_chains * config.total_proposals, config=config))
        return ops

    def check(self, ops: list[Op], r: int) -> Checked:
        checked = Checked()
        for op in ops:
            run = op.output
            checked.expect(op.name, run.code == 0, f"exit code {run.code}: {run.stderr.strip()}")
            if run.code != 0:
                continue
            report = run.report()
            checked.expect(op.name, len(report["chains"]) == self.PLAN[op.algorithm][0],
                           "wrong number of chains")
            for entry in report["chains"]:
                values = self._check_cli_chain(checked, op, entry, "diag-divergence",
                                               reference.diag_divergence, entry["chain"])
                checked.chain(op.algorithm, values)
        return checked


# -- nullmodel-cscore --------------------------------------------------------


class NullmodelCscore(Workload):
    """`fixedmargin nullmodel` with the C-score: the paper's null-model use."""

    name = "nullmodel-cscore"
    SIZE = 100
    # (burn_in, thin, samples) of one nullmodel call, which runs one chain of
    # some 35 autocorrelation times of the C-score.  At thin 150 a curveball
    # interval costs about as much as one c_score call; swap gets the thin
    # that costs about the same time
    PLAN = {"curveball": (1_500, 150, 300), "swap": (12_000, 1_200, 200)}

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        n, rng = self.SIZE, self.rng
        # heterogeneous margins, the same for rows and columns and for every
        # seed: sums rise from 3 to 30.  Positive log-normal weights, not rank one
        margins = [round(3 + 27 * ((i + 0.5) / n) ** 2) for i in range(n)]
        a = _random_fill(margins, margins, np.ones((n, n), dtype=bool), rng)
        w = self.model_rng.lognormal(0.0, 0.5, size=(n, n))
        self.weight_array = w
        self.matrix_path = _write_matrix(work / "null-matrix.txt", a)
        self.weights_path = _write_matrix(work / "null-weights.txt", w)
        self.matrix = read_binary_matrix(self.matrix_path)
        self.weights = read_weight_matrix(self.weights_path)

    def _config(self, algorithm: str, r: int) -> ChainConfig:
        burn_in, thin, samples = self.PLAN[algorithm]
        return ChainConfig(algorithm=algorithm, burn_in=burn_in, thin=thin, retained=samples,
                           seed=self.chain_seed(r), statistics=("c-score",))

    def run_round(self, r: int, recorder=None) -> list[Op]:
        ops = []
        for algorithm in self.PLAN:
            config = self._config(algorithm, r)
            argv = ["nullmodel", self.matrix_path, "--weights", self.weights_path,
                    "--statistic", "c-score", "--algorithm", algorithm,
                    "--burn-in", str(config.burn_in), "--thin", str(config.thin),
                    "--samples", str(config.retained), "--seed", str(config.seed),
                    "--out", str(self.work / f"null-{algorithm}")]
            ops.append(_timed(recorder, f"nullmodel.{algorithm}", algorithm,
                              lambda: _cli(argv), config.total_proposals, config=config))
        return ops

    def check(self, ops: list[Op], r: int) -> Checked:
        checked = Checked()
        observed = reference.c_score(self.matrix.entries.tolist())
        for op in ops:
            run = op.output
            checked.expect(op.name, run.code == 0, f"exit code {run.code}: {run.stderr.strip()}")
            if run.code != 0:
                continue
            report = run.report()
            result = report["result"]
            checked.expect(op.name, result["observed"] == observed,
                           f"observed C-score {result['observed']!r}, benchmark {observed!r}")
            values = self._check_cli_chain(checked, op, report["chains"][0], "c-score",
                                           reference.c_score, companion_samples=8)
            p_value = (1 + sum(v >= observed for v in values)) / (1 + len(values))
            checked.expect(op.name, result["p_value"] == p_value and result["n_null"] == len(values),
                           f"p-value {result['p_value']!r}, recomputed from the CSV {p_value!r}")
            checked.chain(op.algorithm, values)
        return checked


# -- oracle-verify -----------------------------------------------------------


class OracleVerify(Workload):
    """`verify` on two unit-margin spaces, `enumerate` on the second, and sampling behind its zeros.

    The second space has three structural zeros in distinct rows and
    columns.  That pattern is never monotonic, so `sample` certifies
    connectivity by enumerating the space and building a dense kernel.
    Every such pattern is the same up to row and column relabelling, so the
    space has 3,216 states whatever the seed.
    """

    name = "oracle-verify"
    ZEROS = 3
    # one chain per `sample` call, four calls per algorithm in a round: a
    # run holds one round, and its rates are medians over the calls
    SAMPLE_CHAINS = 1
    # (burn_in, thin, samples) on the 7x7 space
    PLAN = {"swap": (2_000, 20, 2_000), "curveball": (2_000, 20, 2_000)}

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        model, rng = self.model_rng, self.rng
        w6 = model.uniform(0.5, 2.0, size=(6, 6))
        w7 = model.uniform(0.5, 2.0, size=(7, 7))
        w7[model.choice(7, self.ZEROS, replace=False), model.choice(7, self.ZEROS, replace=False)] = 0.0
        start = rng.permutation(7)
        while (w7[np.arange(7), start] == 0.0).any():
            start = rng.permutation(7)
        self.w6, self.weight_array = w6, w7
        self.w6_path = _write_matrix(work / "s6-weights.txt", w6)
        self.weights_path = _write_matrix(work / "z7-weights.txt", w7)
        self.matrix_path = _write_matrix(work / "z7-start.txt", np.eye(7, dtype=int)[start])
        self.weights = read_weight_matrix(self.weights_path)
        self.matrix = read_binary_matrix(self.matrix_path)

    def _sample(self, recorder, algorithm: str, r: int, repetition: int) -> Op:
        burn_in, thin, samples = self.PLAN[algorithm]
        config = ChainConfig(algorithm=algorithm, burn_in=burn_in, thin=thin, retained=samples,
                             seed=self.chain_seed(r, repetition), statistics=("diag-divergence",))
        argv = ["sample", self.matrix_path, "--weights", self.weights_path, "--algorithm", algorithm,
                "--burn-in", str(burn_in), "--thin", str(thin), "--samples", str(samples),
                "--chains", str(self.SAMPLE_CHAINS), "--jobs", "1", "--seed", str(config.seed),
                "--stats", "diag-divergence",
                "--out", str(self.work / f"sample-{algorithm}-{repetition}")]
        return _timed(recorder, f"sample.{algorithm}#{repetition + 1}", algorithm, lambda: _cli(argv),
                      self.SAMPLE_CHAINS * config.total_proposals, config=config)

    def run_round(self, r: int, recorder=None) -> list[Op]:
        unit6, unit7 = ",".join(["1"] * 6), ",".join(["1"] * 7)
        verify6 = ["verify", "--rows", unit6, "--cols", unit6, "--weights", self.w6_path,
                   "--algorithm", "both"]
        verify7 = ["verify", "--rows", unit7, "--cols", unit7, "--weights", self.weights_path,
                   "--algorithm", "both", "--cap", "4000"]
        enumerate7 = ["enumerate", "--rows", unit7, "--cols", unit7, "--weights", self.weights_path,
                      "--cap", "4000", "--out", str(self.work / "z7-space.csv")]
        # the short sample calls run four times, around the long calls, so
        # that their time is taken at four moments of the round
        ops = [self._sample(recorder, algorithm, r, 0) for algorithm in ALGORITHMS]
        ops.append(_timed(recorder, "verify.s6", None, lambda: _cli(verify6)))
        ops += [self._sample(recorder, algorithm, r, 1) for algorithm in ALGORITHMS]
        ops.append(_timed(recorder, "verify.z7", None, lambda: _cli(verify7)))
        ops += [self._sample(recorder, algorithm, r, 2) for algorithm in ALGORITHMS]
        ops.append(_timed(recorder, "enumerate.z7", None, lambda: _cli(enumerate7)))
        ops += [self._sample(recorder, algorithm, r, 3) for algorithm in ALGORITHMS]
        return ops

    def _check_verify(self, checked: Checked, op: Op, w: np.ndarray, diameter: int | None) -> None:
        report = op.output.report()
        states = len(reference.permutations_avoiding(w))
        kappa = reference.permanent(w)
        checked.expect(op.name, report["states"] == states,
                       f"{report['states']} states, {states} permutations avoid the zeros")
        checked.expect(op.name, math.isclose(report["kappa"], kappa, rel_tol=1e-12, abs_tol=0.0),
                       f"kappa {report['kappa']!r}, Ryser permanent {kappa!r}")
        checked.expect(op.name, report["passed"] is True, "verify did not pass")
        if diameter is not None:
            for algorithm in ALGORITHMS:
                value = report["algorithms"][algorithm]["checks"]["diameter"].get("value")
                checked.expect(op.name, value == diameter,
                               f"{algorithm} diameter {value}, the transposition distance is {diameter}")

    def _check_enumerate(self, checked: Checked, op: Op) -> None:
        w = self.weight_array
        kappa = reference.permanent(w)
        seen = set()
        with open(self.work / "z7-space.csv", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("# kappa:"):
                    value = float(line.split(":", 1)[1])
                    checked.expect(op.name, math.isclose(value, kappa, rel_tol=1e-12, abs_tol=0.0),
                                   f"kappa {value!r}, Ryser permanent {kappa!r}")
                if line.startswith("#") or line.startswith("state,"):
                    continue
                state, prob = line.strip().split(",")
                perm = reference.permutation_of([[int(c) for c in row] for row in state.split("/")])
                seen.add(perm)
                expected = math.prod(w[i][perm[i]] for i in range(7)) / kappa
                checked.expect(op.name, math.isclose(float(prob), expected, rel_tol=1e-12, abs_tol=0.0),
                               f"state {state}: probability {prob}, expected {expected!r}")
        checked.expect(op.name, seen == set(reference.permutations_avoiding(w)),
                       "the enumerated states are not the permutations avoiding the zeros")

    def check(self, ops: list[Op], r: int) -> Checked:
        checked = Checked()
        for op in ops:
            run = op.output
            checked.expect(op.name, run.code == 0, f"exit code {run.code}: {run.stderr.strip()}")
            if run.code != 0:
                continue
            if op.name == "verify.s6":
                # zero-free S_6: both diameters are the Cayley transposition distance n - 1
                self._check_verify(checked, op, self.w6, diameter=5)
            elif op.name == "verify.z7":
                self._check_verify(checked, op, self.weight_array, diameter=None)
            elif op.name == "enumerate.z7":
                self._check_enumerate(checked, op)
            else:
                checked.expect(op.name, "connectivity check passed" in run.stderr,
                               f"connectivity was not certified: {run.stderr.strip()}")
                for entry in run.report()["chains"]:
                    values = self._check_cli_chain(checked, op, entry, "diag-divergence",
                                                   reference.diag_divergence, entry["chain"])
                    checked.chain(op.algorithm, values)
        return checked


WORKLOADS = {cls.name: cls for cls in (ToyExact, Mixing, NullmodelCscore, OracleVerify)}
