"""Run one benchmark workload and print its result as the last line of stdout.

    python3 benchmark/run.py --workload mixing --seed 1 --seconds 25 --trace 0

Run from the repository root.  The program is imported from `src/` of the
checkout this file sits in.  With `--trace 0` the result holds the
end-to-end metrics; with `--trace 1` it holds the per-layer metrics of a
traced run, whose spans are written to `spans.jsonl` in the run's folder
under `benchmark/runs/`.  See benchmark/README.md.
"""
import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from contextlib import nullcontext  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _round_seconds(rounds, keep=lambda op: True) -> float:
    """One round's time with every operation at its median over the rounds.

    Times are normalised to the nominal host speed (see hostspeed.py).
    `op#k` is repetition k of operation `op` within a round; repetitions
    share one median.
    """
    times: dict[str, list[float]] = {}
    for ops in rounds:
        for op in ops:
            times.setdefault(op.name.split("#")[0], []).append(op.normalised)
    return sum(statistics.median(times[op.name.split("#")[0]]) for op in rounds[0] if keep(op))


def _sampler_metrics(rounds, ess) -> dict:
    """Proposals and ESS per second of each algorithm's operations.

    ESS per proposal comes from all rounds' chains, and the time from one
    round with every operation at its median normalised time.
    """
    out = {}
    for algorithm in ("swap", "curveball"):
        def mine(op):
            return op.algorithm == algorithm and op.counts_for_rate

        seconds = _round_seconds(rounds, mine)
        proposals = [sum(op.proposals for op in ops if mine(op)) for ops in rounds]
        out[f"{algorithm}.proposals_per_s"] = _metric(proposals[0] / seconds, "1/s")
        ess_per_proposal = ess.get(algorithm, 0.0) / sum(proposals)
        out[f"{algorithm}.ess_per_s"] = _metric(ess_per_proposal * proposals[0] / seconds, "1/s")
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "fixedmargin" / "__init__.py").is_file():
        print(f"error: no fixedmargin sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import fixedmargin
    import hostspeed
    import reference
    import tracing
    import workloads

    if Path(fixedmargin.__file__).resolve().parent != ROOT / "src" / "fixedmargin":
        print(f"error: imported fixedmargin from {fixedmargin.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    run_dir = BENCH_DIR / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    recorder = tracing.Recorder() if args.trace else None
    undo = tracing.install(recorder) if recorder else None
    with recorder.span("setup") if recorder else nullcontext():
        workload = workloads.WORKLOADS[args.workload](args.seed, run_dir / "work")
    setup_s = time.perf_counter() - _PROCESS_START
    if undo:
        tracing.uninstall(undo)
    hostspeed.warm_up()

    # whole rounds, ending at the round boundary nearest to --seconds of timed
    # operations; a traced run alternates untraced and traced rounds.  Each
    # round is checked after its timed region.
    rounds, traced_rounds, round_spans = [], [], []
    chain_series: dict[str, list] = {}
    failed = 0
    unexpected: set[str] = set()
    timed = 0.0
    r = 0
    while r == 0 or (recorder and not traced_rounds) or timed * (1 + 0.5 / r) < args.seconds:
        hostspeed.measure()
        if recorder and len(rounds) > len(traced_rounds):
            undo = tracing.install(recorder)
            try:
                with recorder.span("round") as record:
                    ops = workload.run_round(r, recorder)
            finally:
                tracing.uninstall(undo)
            traced_rounds.append(ops)
            round_spans.append(record[0])
        else:
            ops = workload.run_round(r)
            rounds.append(ops)
        timed += sum(op.seconds for op in ops)
        checked = workload.check(ops, r)
        for op in ops:
            op.output = None
        for algorithm, series in checked.chains.items():
            chain_series.setdefault(algorithm, []).extend(series)
        for name, problems in checked.problems.items():
            if problems:
                failed += 1
                if name not in workload.known_faults:
                    unexpected.add(name)
                for problem in problems:
                    kind = "known fault" if name in workload.known_faults else "FAILED"
                    print(f"{kind}: {args.workload} round {r} {name}: {problem}", file=sys.stderr)
        r += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # one fit per algorithm over all its chains: steadier than a sum of per-chain fits
    ess = {algorithm: reference.pooled_ar_ess(series) for algorithm, series in chain_series.items()}

    if recorder:
        metrics = {name: _metric(value, tracing.PER_LAYER_UNITS[name])
                   for name, value in tracing.layer_metrics(recorder, 0, round_spans).items()}
        for name, value in tracing.step_probes(workload.matrix, workload.weights, args.seed).items():
            metrics[name] = _metric(value, tracing.PER_LAYER_UNITS[name])
        overhead = _round_seconds(traced_rounds) - _round_seconds(rounds)
        metrics["trace.overhead_s"] = _metric(overhead, "s")
        metrics = {name: metrics[name] for name in tracing.PER_LAYER_UNITS}
        recorder.write(run_dir / "spans.jsonl")
    else:
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "wall_s": _metric(_round_seconds(rounds), "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }
        metrics.update(_sampler_metrics(rounds, ess))

    result = {
        "correct": not unexpected,
        "attempted": sum(len(ops) for ops in rounds + traced_rounds),
        "failed": failed,
        "metrics": metrics,
    }
    shutil.rmtree(run_dir / "work", ignore_errors=True)
    detail = dict(result, rounds=[{op.name: [op.seconds, op.host] for op in ops} for ops in rounds],
                  traced_rounds=[{op.name: [op.seconds, op.host] for op in ops}
                                 for ops in traced_rounds],
                  ess=ess)
    (run_dir / "result.json").write_text(json.dumps(detail, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
