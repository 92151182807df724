"""Command-line front end for sampling, enumeration, and verification.

Four subcommands: ``sample`` runs one or more chains and writes statistic
traces as CSV, ``enumerate`` lists every state of a small space with its
exact probability, ``verify`` checks the exact kernels against the target
law, and ``nullmodel`` computes an empirical p-value for an observed
matrix.  Machine-readable reports go to stdout as JSON; CSV files carry
their metadata in leading ``#`` comments.

Exit codes: 0 success, 1 usage or parse problem, 2 verification failure,
3 infeasible or incompatible input.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .chains import ChainConfig, Trace, load_chain_config, run_chain, run_ensemble
from .matrices import (
    BinaryMatrix,
    CompatibilityError,
    MatrixFormatError,
    WeightMatrix,
    apply_power,
    is_monotonic,
    read_binary_matrix,
    read_weight_matrix,
    require_compatible,
    write_binary_matrix,
)
from .oracle import (
    SpaceTooLargeError,
    _max_pairwise_hamming,
    balance_residual,
    connectivity,
    diameter,
    enumerate_space,
    exact_kernel,
    stationarity_residual,
)
from .stats import diagnose, empirical_p_value, ess, evaluate_statistic

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2
EXIT_INCOMPATIBLE = 3

# States enumerated when `sample`/`nullmodel` try to certify connectivity
# behind a non-monotonic zero pattern.  Deliberately small: the check is a
# safety net, not the main enumeration path.
_AUTO_CHECK_CAP = 20_000


class _UsageError(Exception):
    """Bad command line; mapped to exit code 1 instead of argparse's 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise _UsageError(message)


@dataclass
class RunReport:
    """JSON-ready account of one CLI run.

    `chains` holds one entry per chain with its counters, per-statistic
    summaries (mean, sd, ess, mcse) and file paths; `files` repeats every
    path the run wrote so callers can existence-check them in one place.
    """

    command: str
    config: dict
    matrix: dict
    chains: list
    files: list
    notes: list = field(default_factory=list)
    result: dict | None = None

    def as_dict(self) -> dict:
        out = {
            "command": self.command,
            "config": self.config,
            "matrix": self.matrix,
            "chains": self.chains,
            "files": self.files,
            "notes": self.notes,
        }
        if self.result is not None:
            out["result"] = self.result
        return out


# -- shared helpers -----------------------------------------------------------


def _fmt(value) -> str:
    # repr of a builtin float round-trips exactly; numpy scalars do not
    # print the same way across versions, so always convert first.
    return repr(float(value))


def _load_weights(args, shape: tuple[int, int]) -> WeightMatrix:
    if args.weights is not None:
        weights = read_weight_matrix(args.weights)
        if (weights.m, weights.n) != shape:
            raise ValueError(
                f"weights shape {(weights.m, weights.n)} does not match the matrix shape {shape}"
            )
    else:
        weights = WeightMatrix.all_ones(*shape)
    if args.weight_power is not None and args.weight_power != 1.0:
        weights = apply_power(weights, args.weight_power)
    return weights


def _parse_margin_list(text: str, label: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise _UsageError(f"--{label} must be a comma-separated list of integers") from None


def _resolve_margins(args):
    """Margins and weights from either a matrix file or --rows/--cols."""
    has_file = args.matrix is not None
    has_lists = args.rows is not None or args.cols is not None
    if has_file == has_lists:
        raise _UsageError("give either a matrix file or --rows and --cols, not both")
    if has_file:
        matrix = read_binary_matrix(args.matrix)
        row_sums = [int(v) for v in matrix.row_sums]
        col_sums = [int(v) for v in matrix.col_sums]
    else:
        if args.rows is None or args.cols is None:
            raise _UsageError("--rows and --cols must be given together")
        row_sums = _parse_margin_list(args.rows, "rows")
        col_sums = _parse_margin_list(args.cols, "cols")
    weights = _load_weights(args, (len(row_sums), len(col_sums)))
    return row_sums, col_sums, weights


def _check_zero_pattern(matrix: BinaryMatrix, weights: WeightMatrix,
                        algorithm: str, strict: bool) -> tuple[list[str], bool]:
    """Warnings about non-monotonic structural zeros, plus an abort flag.

    A monotonic zero pattern keeps the chain irreducible, so only other
    patterns trigger the automatic connectivity check.  The second return
    value is True when --strict is set and connectivity was not certified.
    """
    notes: list[str] = []
    if not weights.zero_pattern:
        return notes, False
    if is_monotonic(weights).is_monotonic:
        return notes, False
    notes.append(
        "structural zeros are not monotonic under any row/column order; "
        "the chain is not guaranteed to reach every state"
    )
    certified = False
    try:
        space = enumerate_space(matrix.row_sums, matrix.col_sums, weights,
                                cap=_AUTO_CHECK_CAP)
    except SpaceTooLargeError:
        notes.append(
            f"connectivity not checked: the state space exceeds {_AUTO_CHECK_CAP} states"
        )
    else:
        components = connectivity(space, algorithm)
        if len(components) <= 1:
            certified = True
            notes.append("connectivity check passed: the space is a single component")
        else:
            notes.append(
                f"connectivity check failed: {len(components)} components; "
                "sampling cannot reach every state and results would be biased"
            )
    return notes, strict and not certified


def _trace_summary(values: np.ndarray) -> dict:
    summary = {
        "n": int(values.size),
        "mean": float(np.mean(values)),
        "sd": float(np.std(values)),
        "ess": None,
        "mcse": None,
    }
    if values.size >= 100:
        report = diagnose(values)
        summary["ess"] = float(report.ess)
        summary["mcse"] = float(report.mcse)
    elif values.size >= 10:
        summary["ess"] = float(ess(values))
    return summary


def _write_trace_csv(path: Path, matrix: BinaryMatrix, trace: Trace,
                     kind: str = "sample") -> None:
    config = trace.config
    names = list(config.statistics)
    lines = [
        f"# fixedmargin {kind} trace",
        f"# chain: {trace.chain_index}",
        f"# algorithm: {config.algorithm}",
        f"# matrix: {matrix.m}x{matrix.n} with {int(matrix.row_sums.sum())} ones",
        f"# burn_in: {config.burn_in}",
        f"# thin: {config.thin}",
        f"# retained: {config.retained}",
        f"# seed: {config.seed}",
    ]
    columns = [trace.values[name] for name in names]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in lines:
            fh.write(line + "\n")
        fh.write("iteration," + ",".join(names) + "\n")
        for row in range(config.retained):
            iteration = config.burn_in + config.thin * (row + 1)
            cells = [_fmt(col[row]) for col in columns]
            fh.write(",".join([str(iteration)] + cells) + "\n")


def _matrix_echo(matrix: BinaryMatrix) -> dict:
    return {
        "rows": matrix.m,
        "cols": matrix.n,
        "ones": int(matrix.row_sums.sum()),
        "row_sums": [int(v) for v in matrix.row_sums],
        "col_sums": [int(v) for v in matrix.col_sums],
    }


def _chain_entry(trace: Trace, trace_file: Path,
                 matrix_files: list[str] | None = None) -> dict:
    entry = {
        "chain": trace.chain_index,
        "counters": asdict(trace.counters),
        "statistics": {name: _trace_summary(values)
                       for name, values in trace.values.items()},
        "trace_file": str(trace_file),
    }
    if matrix_files is not None:
        entry["matrix_files"] = matrix_files
    return entry


def _encode_state(matrix: BinaryMatrix) -> str:
    return "/".join("".join(str(int(v)) for v in row) for row in matrix.entries)


# -- subcommands --------------------------------------------------------------


def cmd_sample(args) -> int:
    matrix = read_binary_matrix(args.matrix)
    weights = _load_weights(args, (matrix.m, matrix.n))
    require_compatible(matrix, weights)

    base = load_chain_config(args.config) if args.config is not None else ChainConfig()
    overrides = {
        "algorithm": args.algorithm,
        "burn_in": args.burn_in,
        "thin": args.thin,
        "retained": args.samples,
        "seed": args.seed,
        "keep_matrices": True if args.keep_matrices else None,
        "statistics": (tuple(s.strip() for s in args.stats.split(",") if s.strip())
                       if args.stats is not None else None),
    }
    config = replace(base, **{k: v for k, v in overrides.items() if v is not None})
    if not config.statistics:
        raise _UsageError("--stats must name at least one statistic")

    notes, abort = _check_zero_pattern(matrix, weights, config.algorithm, args.strict)
    for note in notes:
        print(f"warning: {note}", file=sys.stderr)
    if abort:
        print("error: connectivity was not certified and --strict is set", file=sys.stderr)
        return EXIT_VERIFICATION

    traces = run_ensemble(matrix, weights, config, n_chains=args.chains, n_jobs=args.jobs)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    files: list[str] = []
    chain_entries = []
    for trace in traces:
        csv_path = out_dir / f"chain-{trace.chain_index:03d}.csv"
        _write_trace_csv(csv_path, matrix, trace)
        files.append(str(csv_path))
        matrix_files: list[str] | None = None
        if config.keep_matrices:
            matrix_files = []
            for row, state in enumerate(trace.matrices):
                state_path = out_dir / f"chain-{trace.chain_index:03d}-state-{row:05d}.txt"
                write_binary_matrix(
                    state, state_path,
                    header=f"chain {trace.chain_index} retained sample {row}",
                )
                matrix_files.append(str(state_path))
            files.extend(matrix_files)
        chain_entries.append(_chain_entry(trace, csv_path, matrix_files))

    report = RunReport(
        command="sample",
        config={
            "algorithm": config.algorithm,
            "burn_in": config.burn_in,
            "thin": config.thin,
            "retained": config.retained,
            "seed": config.seed,
            "statistics": list(config.statistics),
            "keep_matrices": config.keep_matrices,
            "chains": args.chains,
            "jobs": args.jobs,
            "weights": args.weights,
            "weight_power": args.weight_power,
            "out": str(out_dir),
        },
        matrix=_matrix_echo(matrix),
        chains=chain_entries,
        files=files,
        notes=notes,
    )
    print(json.dumps(report.as_dict(), indent=2))
    return EXIT_OK


def cmd_enumerate(args) -> int:
    row_sums, col_sums, weights = _resolve_margins(args)
    space = enumerate_space(row_sums, col_sums, weights, cap=args.cap)
    lines = [
        "# fixedmargin enumerate",
        f"# rows: {','.join(str(v) for v in row_sums)}",
        f"# cols: {','.join(str(v) for v in col_sums)}",
        f"# states: {len(space)}",
        "state,probability",
    ]
    for state, prob in zip(space.states, space.probabilities):
        lines.append(f"{_encode_state(state)},{_fmt(prob)}")
    lines.append(f"# log_kappa: {_fmt(space.log_kappa)}")
    lines.append(f"# kappa: {_fmt(space.kappa)}")
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        out_path = Path(args.out)
        if out_path.parent != Path(""):
            out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(text, encoding="utf-8")
    return EXIT_OK


def cmd_verify(args) -> int:
    row_sums, col_sums, weights = _resolve_margins(args)
    space = enumerate_space(row_sums, col_sums, weights, cap=args.cap)
    algorithms = ["swap", "curveball"] if args.algorithm == "both" else [args.algorithm]
    tolerance = args.tolerance
    report = {
        "command": "verify",
        "rows": row_sums,
        "cols": col_sums,
        "states": len(space),
        # JSON has no inf or nan; an unrepresentable kappa is null
        "log_kappa": space.log_kappa if np.isfinite(space.log_kappa) else None,
        "kappa": space.kappa if np.isfinite(space.kappa) else None,
        "tolerance": tolerance,
        "algorithms": {},
    }
    if len(space) == 0:
        # Infeasible margins: nothing to verify, and nothing wrong either.
        report["empty_space"] = True
        report["passed"] = True
        print(json.dumps(report, indent=2))
        return EXIT_OK

    # The diameter bound (diameter <= max pairwise Hamming distance / 2)
    # is only guaranteed for monotonic zero patterns; elsewhere shortest
    # paths may detour and the check would reject correct kernels.
    bound_applies = (not weights.zero_pattern) or is_monotonic(weights).is_monotonic
    all_passed = True
    for algorithm in algorithms:
        kernel = exact_kernel(space, algorithm)
        balance = balance_residual(space, kernel)
        stationarity = stationarity_residual(space, kernel)
        components = connectivity(space, algorithm, kernel=kernel)
        connected = len(components) <= 1
        checks: dict[str, dict] = {
            "balance": {"max_residual": balance, "passed": bool(balance < tolerance)},
            "stationarity": {"max_residual": stationarity,
                             "passed": bool(stationarity < tolerance)},
            "connectivity": {"components": len(components), "passed": connected},
        }
        if not connected:
            checks["diameter"] = {"status": "skipped", "reason": "the space is disconnected"}
        elif not bound_applies:
            checks["diameter"] = {
                "status": "skipped",
                "reason": "no diameter bound applies to a non-monotonic zero pattern",
            }
        else:
            value = diameter(space, algorithm, kernel=kernel)
            bound = _max_pairwise_hamming(space) // 2
            checks["diameter"] = {"value": value, "bound": bound,
                                  "passed": bool(value <= bound)}
        algorithm_passed = all(check.get("passed", True) for check in checks.values())
        report["algorithms"][algorithm] = {
            "checks": checks,
            "sampling_valid": bool(algorithm_passed and connected),
        }
        all_passed = all_passed and algorithm_passed
    report["passed"] = all_passed
    print(json.dumps(report, indent=2))
    return EXIT_OK if all_passed else EXIT_VERIFICATION


def cmd_nullmodel(args) -> int:
    observed = read_binary_matrix(args.matrix)
    weights = _load_weights(args, (observed.m, observed.n))
    require_compatible(observed, weights)
    observed_value = evaluate_statistic(args.statistic, observed).value

    config = ChainConfig(
        algorithm=args.algorithm,
        burn_in=args.burn_in,
        thin=args.thin,
        retained=args.samples,
        seed=args.seed,
        statistics=(args.statistic,),
    )
    notes, abort = _check_zero_pattern(observed, weights, config.algorithm, args.strict)
    for note in notes:
        print(f"warning: {note}", file=sys.stderr)
    if abort:
        print("error: connectivity was not certified and --strict is set", file=sys.stderr)
        return EXIT_VERIFICATION

    trace = run_chain(observed, weights, config)
    null_values = trace.values[args.statistic]
    p_value = empirical_p_value(observed_value, null_values, tail=args.tail)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"null-{args.statistic}.csv"
    _write_trace_csv(csv_path, observed, trace, kind="nullmodel")

    report = RunReport(
        command="nullmodel",
        config={
            "algorithm": config.algorithm,
            "burn_in": config.burn_in,
            "thin": config.thin,
            "retained": config.retained,
            "seed": config.seed,
            "statistic": args.statistic,
            "tail": args.tail,
            "weights": args.weights,
            "weight_power": args.weight_power,
            "out": str(out_dir),
        },
        matrix=_matrix_echo(observed),
        chains=[_chain_entry(trace, csv_path)],
        files=[str(csv_path)],
        notes=notes,
        result={
            "statistic": args.statistic,
            "observed": float(observed_value),
            "tail": args.tail,
            "p_value": float(p_value),
            "n_null": int(null_values.size),
        },
    )
    print(json.dumps(report.as_dict(), indent=2))
    return EXIT_OK


# -- parser -------------------------------------------------------------------


def _add_weight_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--weights", metavar="PATH",
                        help="weight matrix file; omitted means uniform weights")
    parser.add_argument("--weight-power", type=float, default=None, metavar="P",
                        help="raise every weight to this power after loading")


def _add_margin_inputs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("matrix", nargs="?",
                        help="binary matrix file whose margins define the space")
    parser.add_argument("--rows", metavar="LIST",
                        help="comma-separated row sums (alternative to a matrix file)")
    parser.add_argument("--cols", metavar="LIST",
                        help="comma-separated column sums")
    _add_weight_options(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fixedmargin",
        description="Weighted sampling of binary matrices with fixed margins.",
    )
    sub = parser.add_subparsers(dest="subcommand", metavar="COMMAND")

    p = sub.add_parser("sample", help="run chains and write statistic traces")
    p.add_argument("matrix", help="binary matrix file; start state and margins")
    _add_weight_options(p)
    p.add_argument("--algorithm", choices=("swap", "curveball"))
    p.add_argument("--burn-in", type=int, dest="burn_in", metavar="N")
    p.add_argument("--thin", type=int, metavar="N")
    p.add_argument("--samples", type=int, metavar="N",
                   help="retained samples per chain")
    p.add_argument("--chains", type=int, default=1, metavar="N")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes for multi-chain runs")
    p.add_argument("--seed", type=int, metavar="S")
    p.add_argument("--stats", metavar="LIST",
                   help="comma-separated statistic names to record")
    p.add_argument("--keep-matrices", action="store_true",
                   help="also write each retained state as a matrix file")
    p.add_argument("--out", default=".", metavar="DIR")
    p.add_argument("--config", metavar="PATH",
                   help="key=value chain config file; explicit flags override it")
    p.add_argument("--strict", action="store_true",
                   help="fail instead of proceeding when connectivity is uncertified")
    p.set_defaults(handler=cmd_sample)

    p = sub.add_parser("enumerate", help="list every state with its exact probability")
    _add_margin_inputs(p)
    p.add_argument("--cap", type=int, default=1_000_000, metavar="N",
                   help="refuse spaces larger than this many states")
    p.add_argument("--out", metavar="FILE", help="write CSV here instead of stdout")
    p.set_defaults(handler=cmd_enumerate)

    p = sub.add_parser("verify", help="check exact kernels against the target law")
    _add_margin_inputs(p)
    p.add_argument("--algorithm", choices=("swap", "curveball", "both"), default="both")
    p.add_argument("--cap", type=int, default=2_000, metavar="N",
                   help="refuse spaces larger than this many states")
    p.add_argument("--tolerance", type=float, default=1e-12, metavar="T",
                   help="largest acceptable balance/stationarity residual")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("nullmodel", help="empirical p-value of an observed matrix")
    p.add_argument("matrix", help="observed binary matrix file")
    _add_weight_options(p)
    p.add_argument("--statistic", default="c-score", metavar="NAME")
    p.add_argument("--algorithm", choices=("swap", "curveball"), default="curveball")
    p.add_argument("--burn-in", type=int, dest="burn_in", default=1_000, metavar="N")
    p.add_argument("--thin", type=int, default=500, metavar="N")
    p.add_argument("--samples", type=int, default=5_000, metavar="N")
    p.add_argument("--seed", type=int, default=0, metavar="S")
    p.add_argument("--tail", choices=("upper", "lower"), default="upper")
    p.add_argument("--out", default=".", metavar="DIR")
    p.add_argument("--strict", action="store_true",
                   help="fail instead of proceeding when connectivity is uncertified")
    p.set_defaults(handler=cmd_nullmodel)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "handler"):
            parser.print_usage(sys.stderr)
            print("error: a command is required", file=sys.stderr)
            return EXIT_USAGE
        return args.handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CompatibilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMPATIBLE
    except SpaceTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMPATIBLE
    except (MatrixFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
