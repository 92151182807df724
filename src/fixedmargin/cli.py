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
import math
import sys
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .chains import (ALGORITHMS, ChainConfig, ImmobileChainWarning, Trace, _name_list,
                     check_start, load_chain_config, run_chain, run_ensemble)
from .matrices import (
    BinaryMatrix,
    CompatibilityError,
    MatrixFormatError,
    WeightMatrix,
    apply_power,
    is_monotonic,
    read_binary_matrix,
    read_weight_matrix,
    write_binary_matrix,
)
from .oracle import (
    SpaceTooLargeError,
    _max_pairwise_hamming,
    balance_residual,
    connectivity,
    diameter,
    enumerate_space,
    exact_kernel,  # noqa: F401  unused here; benchmark/tracing.py wraps cli.exact_kernel
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
                        strict: bool) -> tuple[list[str], bool]:
    """Notes on non-monotonic structural zeros, printed as warnings, plus an abort flag.

    A monotonic zero pattern keeps the chain irreducible, so only other
    patterns trigger the automatic connectivity check.  The second return
    value is True, and an error is printed, when --strict is set and
    connectivity was not certified.
    """
    notes: list[str] = []
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
        # Certifies both samplers: a trade of k columns is k legal swaps in
        # sequence, and each legal swap is a one-column trade, so swap and
        # curveball have the same components.
        components = connectivity(space, "swap")
        if len(components) <= 1:
            certified = True
            notes.append("connectivity check passed: the space is a single component")
        else:
            notes.append(
                f"connectivity check failed: {len(components)} components; "
                "sampling cannot reach every state and results would be biased"
            )
    for note in notes:
        print(f"warning: {note}", file=sys.stderr)
    abort = strict and not certified
    if abort:
        print("error: connectivity was not certified and --strict is set", file=sys.stderr)
    return notes, abort


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


def _print_report(command: str, config: dict, matrix: BinaryMatrix, chains: list,
                  notes: list, reason: str | None, result: dict | None = None) -> int:
    """Print the JSON report of `sample` or `nullmodel`; return EXIT_OK.

    `chains` holds one entry per chain with its counters, per-statistic
    summaries (mean, sd, ess, mcse) and file paths; the report's `files`
    repeats every path the run wrote so callers can existence-check them
    in one place.  `reason`, from `check_start`, says why the chains can
    never move; it adds one note and one warning line.
    """
    if reason is not None:
        print(f"warning: {reason}", file=sys.stderr)
        notes.append(reason)
    report = {
        "command": command,
        "config": config,
        "matrix": {
            "rows": matrix.m,
            "cols": matrix.n,
            "ones": int(matrix.row_sums.sum()),
            "row_sums": [int(v) for v in matrix.row_sums],
            "col_sums": [int(v) for v in matrix.col_sums],
        },
        "chains": chains,
        "files": [path for entry in chains
                  for path in [entry["trace_file"], *entry.get("matrix_files", [])]],
        "notes": notes,
    }
    if result is not None:
        report["result"] = result
    print(json.dumps(report, indent=2))
    return EXIT_OK


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
    return "/".join(format(row, f"0{matrix.n}b")[::-1] for row in matrix._rows)


# -- subcommands --------------------------------------------------------------


def cmd_sample(args) -> int:
    matrix = read_binary_matrix(args.matrix)
    weights = _load_weights(args, (matrix.m, matrix.n))

    base = load_chain_config(args.config) if args.config is not None else ChainConfig()
    overrides = {
        "algorithm": args.algorithm,
        "burn_in": args.burn_in,
        "thin": args.thin,
        "retained": args.samples,
        "seed": args.seed,
        "keep_matrices": True if args.keep_matrices else None,
        "statistics": _name_list(args.stats) if args.stats is not None else None,
    }
    config = replace(base, **{k: v for k, v in overrides.items() if v is not None})
    if not config.statistics:
        raise _UsageError("--stats must name at least one statistic")
    reason = check_start(matrix, weights, config)

    notes, abort = _check_zero_pattern(matrix, weights, args.strict)
    if abort:
        return EXIT_VERIFICATION
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    traces = run_ensemble(matrix, weights, config, n_chains=args.chains, n_jobs=args.jobs)
    chain_entries = []
    for trace in traces:
        csv_path = out_dir / f"chain-{trace.chain_index:03d}.csv"
        _write_trace_csv(csv_path, matrix, trace)
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
        chain_entries.append(_chain_entry(trace, csv_path, matrix_files))

    # ChainConfig's fields are the first keys, in order; the tuple of
    # statistics serialises as the same JSON list
    echo = {**asdict(config), "chains": args.chains, "jobs": args.jobs,
            "weights": args.weights, "weight_power": args.weight_power, "out": str(out_dir)}
    return _print_report("sample", echo, matrix, chain_entries, notes, reason)


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
    algorithms = list(ALGORITHMS) if args.algorithm == "both" else [args.algorithm]
    report = {
        "command": "verify",
        "rows": row_sums,
        "cols": col_sums,
        "states": len(space),
        # JSON has no inf or nan; an unrepresentable kappa is null
        "log_kappa": space.log_kappa if np.isfinite(space.log_kappa) else None,
        "kappa": space.kappa if np.isfinite(space.kappa) else None,
        "tolerance": args.tolerance,
        "algorithms": {},
    }
    if len(space) == 0:
        # Infeasible margins: nothing to verify, and nothing wrong either.
        report["empty_space"] = True
        algorithms = []

    # The diameter bound (diameter <= max pairwise Hamming distance / 2)
    # is only guaranteed for monotonic zero patterns; elsewhere shortest
    # paths may detour and the check would reject correct kernels.
    bound_applies = is_monotonic(weights).is_monotonic
    bound = None  # one O(S^2 mn) scan serves every algorithm, and only if one needs it
    all_passed = True
    for algorithm in algorithms:
        balance = balance_residual(space, algorithm)
        stationarity = stationarity_residual(space, algorithm)
        components = connectivity(space, algorithm)
        connected = len(components) <= 1
        checks: dict[str, dict] = {
            "balance": {"max_residual": balance, "passed": bool(balance < args.tolerance)},
            "stationarity": {"max_residual": stationarity,
                             "passed": bool(stationarity < args.tolerance)},
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
            value = diameter(space, algorithm)
            if bound is None:
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
    config = ChainConfig(
        algorithm=args.algorithm,
        burn_in=args.burn_in,
        thin=args.thin,
        retained=args.samples,
        seed=args.seed,
        statistics=(args.statistic,),
    )
    reason = check_start(observed, weights, config)
    observed_value = evaluate_statistic(args.statistic, observed).value

    notes, abort = _check_zero_pattern(observed, weights, args.strict)
    if abort:
        return EXIT_VERIFICATION
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    trace = run_chain(observed, weights, config)
    null_values = trace.values[args.statistic]
    p_value = empirical_p_value(observed_value, null_values, tail=args.tail)
    csv_path = out_dir / f"null-{args.statistic}.csv"
    _write_trace_csv(csv_path, observed, trace, kind="nullmodel")

    echo = {k: v for k, v in asdict(config).items() if k not in ("statistics", "keep_matrices")}
    echo.update(statistic=args.statistic, tail=args.tail, weights=args.weights,
                weight_power=args.weight_power, out=str(out_dir))
    result = {
        "statistic": args.statistic,
        "observed": float(observed_value),
        "tail": args.tail,
        "p_value": float(p_value),
        "n_null": int(null_values.size),
    }
    return _print_report("nullmodel", echo, observed, [_chain_entry(trace, csv_path)],
                         notes, reason, result)


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
    p.add_argument("--algorithm", choices=ALGORITHMS)
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
    p.add_argument("--algorithm", choices=ALGORITHMS + ("both",), default="both")
    p.add_argument("--cap", type=int, default=2_000, metavar="N",
                   help="refuse spaces larger than this many states")
    p.add_argument("--tolerance", type=float, default=1e-12, metavar="T",
                   help="largest acceptable balance/stationarity residual")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("nullmodel", help="empirical p-value of an observed matrix")
    p.add_argument("matrix", help="observed binary matrix file")
    _add_weight_options(p)
    p.add_argument("--statistic", default="c-score", metavar="NAME")
    p.add_argument("--algorithm", choices=ALGORITHMS, default="curveball")
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
            raise _UsageError("a command is required")
        for option in ("chains", "jobs", "cap", "tolerance"):
            value = getattr(args, option, None)
            if value is not None and not (value > 0 and math.isfinite(value)):
                raise _UsageError(f"--{option} must be finite and above 0, got {value}")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ImmobileChainWarning)  # reported as a note instead
            return args.handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CompatibilityError, SpaceTooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMPATIBLE
    except (MatrixFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())
