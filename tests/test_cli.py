"""End-to-end checks of the command-line entry points.

Each test drives `main` in process with an explicit argv, then inspects
the JSON report on stdout, the files it names, and the exit code.  A
single subprocess test covers the `python -m` route.
"""

import concurrent.futures
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fixedmargin
from fixedmargin import chains, cli
from fixedmargin.cli import main
from fixedmargin.matrices import BinaryMatrix, read_binary_matrix, write_binary_matrix
from fixedmargin.stats import c_score

TOY_MATRIX = "1 0 0\n0 1 0\n0 0 1\n"
TOY_WEIGHTS = "1 2 1\n2 1 2\n1 2 1\n"
NO_DIAGONAL_WEIGHTS = "0 1 1\n1 0 1\n1 1 0\n"
CYCLE_MATRIX = "0 1 0\n0 0 1\n1 0 0\n"
# a 3x4 start behind zeros in three rows and columns: not monotonic, so
# `sample` and `nullmodel` enumerate its space to certify connectivity
RECT_MATRIX = "0 1 0 1\n1 0 0 1\n1 1 0 0\n"
RECT_WEIGHTS = "0 1 1 1\n1 0 1 1\n1 1 0 1\n"


def _write(path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture()
def toy_files(tmp_path):
    matrix = _write(tmp_path / "m.txt", TOY_MATRIX)
    weights = _write(tmp_path / "w.txt", TOY_WEIGHTS)
    return matrix, weights


def _report(capsys) -> dict:
    return json.loads(capsys.readouterr().out)


def _csv_parts(text: str):
    """(comment lines, header, data rows) of a trace or enumeration CSV."""
    lines = text.strip().split("\n")
    comments = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    return comments, body[0], body[1:]


# -- sample -------------------------------------------------------------------


def test_sample_report_counters_and_csv(tmp_path, toy_files, capsys):
    matrix, weights = toy_files
    out = tmp_path / "run"
    code = main([
        "sample", matrix, "--weights", weights, "--algorithm", "swap",
        "--burn-in", "30", "--thin", "5", "--samples", "12", "--seed", "7",
        "--stats", "diag-divergence,c-score", "--out", str(out),
    ])
    assert code == 0
    report = _report(capsys)
    assert report["command"] == "sample"
    assert report["config"]["algorithm"] == "swap"
    assert report["config"]["retained"] == 12
    assert report["matrix"]["row_sums"] == [1, 1, 1]

    counters = report["chains"][0]["counters"]
    assert counters["proposals"] == 30 + 5 * 12
    assert (counters["no_ops"] + counters["rejections"] + counters["acceptances"]
            == counters["proposals"])
    summary = report["chains"][0]["statistics"]["diag-divergence"]
    assert summary["n"] == 12 and 0.0 <= summary["mean"] <= 1.0

    # every file named in the report exists and parses
    assert report["files"], "report should name its outputs"
    comments, header, rows = _csv_parts((out / "chain-000.csv").read_text())
    assert header == "iteration,diag-divergence,c-score"
    assert len(rows) == 12
    iterations = [int(r.split(",")[0]) for r in rows]
    assert iterations[0] == 35 and iterations[-1] == 90
    for row in rows:
        for cell in row.split(",")[1:]:
            float(cell)
    assert any("seed: 7" in c for c in comments)


def test_sample_rerun_is_byte_identical(tmp_path, toy_files, capsys):
    matrix, weights = toy_files
    argv = ["sample", matrix, "--weights", weights, "--seed", "11",
            "--burn-in", "20", "--samples", "50"]
    assert main(argv + ["--out", str(tmp_path / "a")]) == 0
    assert main(argv + ["--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    first = (tmp_path / "a" / "chain-000.csv").read_bytes()
    second = (tmp_path / "b" / "chain-000.csv").read_bytes()
    assert first == second


def test_weight_power_zero_equals_uniform(tmp_path, toy_files, capsys):
    matrix, weights = toy_files
    base = ["--seed", "11", "--samples", "40"]
    assert main(["sample", matrix, "--weights", weights, "--weight-power", "0",
                 *base, "--out", str(tmp_path / "p0")]) == 0
    assert main(["sample", matrix, *base, "--out", str(tmp_path / "uw")]) == 0
    capsys.readouterr()
    assert ((tmp_path / "p0" / "chain-000.csv").read_bytes()
            == (tmp_path / "uw" / "chain-000.csv").read_bytes())


def test_parallel_chains_match_serial(tmp_path, toy_files, capsys):
    matrix, weights = toy_files
    base = ["sample", matrix, "--weights", weights, "--seed", "5",
            "--samples", "30", "--chains", "3"]
    assert main(base + ["--jobs", "3", "--out", str(tmp_path / "par")]) == 0
    assert main(base + ["--jobs", "1", "--out", str(tmp_path / "ser")]) == 0
    capsys.readouterr()
    for name in ("chain-000.csv", "chain-001.csv", "chain-002.csv"):
        assert ((tmp_path / "par" / name).read_bytes()
                == (tmp_path / "ser" / name).read_bytes())


def test_kept_matrices_are_enumerated_states(tmp_path, toy_files, capsys):
    matrix, weights = toy_files
    out = tmp_path / "run"
    code = main(["sample", matrix, "--weights", weights, "--algorithm", "curveball",
                 "--thin", "3", "--samples", "40", "--seed", "2",
                 "--keep-matrices", "--out", str(out)])
    assert code == 0
    report = _report(capsys)
    matrix_files = report["chains"][0]["matrix_files"]
    assert len(matrix_files) == 40

    enum_path = tmp_path / "space.csv"
    assert main(["enumerate", matrix, "--weights", weights,
                 "--out", str(enum_path)]) == 0
    _, _, rows = _csv_parts(enum_path.read_text())
    states = {row.split(",")[0] for row in rows}
    assert len(states) == 6

    for path in matrix_files:
        kept = read_binary_matrix(path)
        encoded = "/".join("".join(str(int(v)) for v in row) for row in kept.entries)
        assert encoded in states


def test_sample_accepts_config_file_with_flag_overrides(tmp_path, toy_files, capsys):
    matrix, weights = toy_files
    config = _write(tmp_path / "chain.cfg",
                    "algorithm = curveball\nburn_in = 10\nthin = 2\n"
                    "retained = 8\nseed = 3\nstatistics = c-score\n")
    code = main(["sample", matrix, "--weights", weights, "--config", config,
                 "--samples", "5", "--out", str(tmp_path / "run")])
    assert code == 0
    report = _report(capsys)
    assert report["config"]["algorithm"] == "curveball"
    assert report["config"]["burn_in"] == 10
    assert report["config"]["retained"] == 5  # flag wins over the file
    assert report["config"]["statistics"] == ["c-score"]
    _, header, rows = _csv_parts((tmp_path / "run" / "chain-000.csv").read_text())
    assert header == "iteration,c-score"
    assert len(rows) == 5


def test_sample_missing_file_is_usage_error(tmp_path, capsys):
    assert main(["sample", str(tmp_path / "absent.txt")]) == 1
    assert "error:" in capsys.readouterr().err


def test_sample_bad_matrix_token_is_usage_error(tmp_path, capsys):
    bad = _write(tmp_path / "bad.txt", "1 0\n2 1\n")
    assert main(["sample", bad]) == 1
    assert "invalid binary entry" in capsys.readouterr().err


def test_sample_incompatible_start_exits_3(tmp_path, capsys):
    matrix = _write(tmp_path / "m.txt", "1 0\n0 1\n")
    weights = _write(tmp_path / "w.txt", "0 1\n1 1\n")
    assert main(["sample", matrix, "--weights", weights]) == 3
    assert "(0, 0)" in capsys.readouterr().err


def test_sample_square_statistic_on_rectangle_is_usage_error(tmp_path, capsys):
    rect = _write(tmp_path / "r.txt", "1 1 0\n0 1 1\n")
    assert main(["sample", rect, "--stats", "diag-divergence"]) == 1
    assert "square" in capsys.readouterr().err


def test_sample_rejects_empty_statistic_list(tmp_path, toy_files, capsys):
    matrix, _ = toy_files
    assert main(["sample", matrix, "--stats", ","]) == 1
    assert "at least one statistic" in capsys.readouterr().err


def test_sample_warns_on_non_monotonic_zeros_and_proceeds(tmp_path, capsys):
    matrix = _write(tmp_path / "m.txt", CYCLE_MATRIX)
    weights = _write(tmp_path / "w.txt", NO_DIAGONAL_WEIGHTS)
    code = main(["sample", matrix, "--weights", weights, "--samples", "15",
                 "--out", str(tmp_path / "run")])
    assert code == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert "not monotonic" in captured.err
    assert any("not monotonic" in note for note in report["notes"])
    assert any("connectivity check failed: 2 components" in note
               for note in report["notes"])


def test_sample_strict_aborts_without_certified_connectivity(tmp_path, capsys):
    matrix = _write(tmp_path / "m.txt", CYCLE_MATRIX)
    weights = _write(tmp_path / "w.txt", NO_DIAGONAL_WEIGHTS)
    code = main(["sample", matrix, "--weights", weights, "--samples", "15",
                 "--strict", "--out", str(tmp_path / "run")])
    assert code == 2
    assert "--strict" in capsys.readouterr().err


def test_sample_strict_allows_certified_connected_zeros(tmp_path, capsys):
    # zeros at (0,0) and (1,1) are non-monotonic, yet the 3-state space
    # they leave is connected, so the automatic check certifies the run
    matrix = _write(tmp_path / "m.txt", "0 1 0\n0 0 1\n1 0 0\n")
    weights = _write(tmp_path / "w.txt", "0 1 1\n1 0 1\n1 1 1\n")
    code = main(["sample", matrix, "--weights", weights, "--samples", "15",
                 "--strict", "--out", str(tmp_path / "run")])
    assert code == 0
    report = _report(capsys)
    assert any("connectivity check passed" in note for note in report["notes"])


def test_sample_strict_certifies_curveball_at_extreme_weight_range(tmp_path, capsys):
    # a trade between rows 2 and 3 of the identity has acceptance
    # probability about 1e-610, which is 0.0 in floats; it is still a legal
    # move, so the space is one component
    weights = np.ones((4, 4))
    weights[0, 0] = weights[1, 1] = 0.0
    weights[2, 2] = weights[3, 3] = 1e305
    weights_path = _write(tmp_path / "w.txt",
                          "\n".join(" ".join(repr(x) for x in row) for row in weights.tolist()))
    matrix = _write(tmp_path / "m.txt", "0 1 0 0\n1 0 0 0\n0 0 1 0\n0 0 0 1\n")
    code = main(["sample", matrix, "--weights", weights_path, "--algorithm", "curveball",
                 "--samples", "15", "--strict", "--out", str(tmp_path / "run")])
    assert code == 0
    report = _report(capsys)
    assert any("connectivity check passed" in note for note in report["notes"])


# -- start checks: refused before the zero check, a worker or a chain ----------


@pytest.fixture()
def rect_files(tmp_path):
    return (_write(tmp_path / "rect.txt", RECT_MATRIX),
            _write(tmp_path / "rect-w.txt", RECT_WEIGHTS))


@pytest.mark.parametrize("extra", [[], ["--chains", "2", "--jobs", "2"]], ids=["serial", "jobs-2"])
def test_square_statistic_on_rectangle_is_refused_before_any_work(monkeypatch, tmp_path,
                                                                  rect_files, capsys, extra):
    pools = []

    class RecordingPool:
        # records the pool size and maps in process, so no worker ever starts
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return list(map(fn, jobs))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(chains.os, "cpu_count", lambda: 2)
    matrix, weights = rect_files
    code = main(["sample", matrix, "--weights", weights, "--out", str(tmp_path / "run")] + extra)
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert pools == []
    assert "'diag-divergence' needs a square matrix, got 3x4" in err
    assert "warning:" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("matrix_text, stat", [
    ("1 0 1\n", "c-score"),
    ("0 0 0\n0 0 0\n0 0 0\n", "diag-divergence"),
], ids=["one-row-c-score", "all-zero-diag-divergence"])
def test_statistic_undefined_at_the_start_is_refused_before_any_work(tmp_path, capsys,
                                                                      matrix_text, stat):
    matrix = _write(tmp_path / "m.txt", matrix_text)
    code = main(["sample", matrix, "--stats", stat, "--burn-in", "100000",
                 "--out", str(tmp_path / "run")])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert "at least two rows" in err or "all-zero matrix" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["sample", "nullmodel"])
def test_negative_seed_is_refused_before_any_work(tmp_path, rect_files, capsys, command):
    matrix, weights = rect_files
    code = main([command, matrix, "--weights", weights, "--seed", "-1",
                 "--out", str(tmp_path / "run")]
                + (["--stats", "c-score"] if command == "sample" else []))
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert "seed must be >= 0, got -1" in err and "warning:" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["sample", "nullmodel"])
def test_out_naming_a_file_is_refused_before_any_chain_runs(monkeypatch, tmp_path, toy_files,
                                                            capsys, command):
    def no_chain(*args, **kwargs):
        raise AssertionError("a chain ran")

    monkeypatch.setattr(cli, "run_ensemble", no_chain)
    monkeypatch.setattr(cli, "run_chain", no_chain)
    matrix, weights = toy_files
    taken = _write(tmp_path / "taken", "")
    code = main([command, matrix, "--weights", weights, "--out", taken])
    out, err = capsys.readouterr()
    assert code == 1 and out == "" and "error:" in err


@pytest.mark.parametrize("command", ["sample", "nullmodel"])
def test_strict_abort_leaves_no_output_directory(tmp_path, capsys, command):
    matrix = _write(tmp_path / "m.txt", CYCLE_MATRIX)
    weights = _write(tmp_path / "w.txt", NO_DIAGONAL_WEIGHTS)
    code = main([command, matrix, "--weights", weights, "--strict",
                 "--out", str(tmp_path / "run")])
    capsys.readouterr()
    assert code == 2
    assert not (tmp_path / "run").exists()


def test_auto_check_memory_stays_bounded(tmp_path):
    # 8x8 unit margins behind a zero diagonal: 14,833 states, whose dense
    # kernel alone would take 1.76 GB; the certificate must stay small
    weights = _write(tmp_path / "w.txt", "\n".join(
        " ".join("0" if i == j else "1" for j in range(8)) for i in range(8)))
    matrix = _write(tmp_path / "m.txt", "\n".join(
        " ".join("1" if j == (i + 1) % 8 else "0" for j in range(8)) for i in range(8)))
    argv = ["sample", matrix, "--weights", weights, "--samples", "10", "--strict",
            "--out", str(tmp_path / "run")]
    script = ("import resource, sys\n"
              "from fixedmargin.cli import main\n"
              f"code = main({argv!r})\n"
              "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    src = str(Path(fixedmargin.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    code, max_rss_kb = proc.stdout.strip().split("\n")[-1].split()
    assert code == "0"
    assert "connectivity check passed" in proc.stderr
    assert int(max_rss_kb) < 250 * 1024


# -- enumerate ----------------------------------------------------------------


def test_enumerate_toy_space_to_stdout(tmp_path, toy_files, capsys):
    matrix, weights = toy_files
    assert main(["enumerate", matrix, "--weights", weights]) == 0
    text = capsys.readouterr().out
    comments, header, rows = _csv_parts(text)
    assert header == "state,probability"
    assert len(rows) == 6
    assert rows[0].split(",")[0] == "100/010/001"
    assert "# states: 6" in comments
    kappa_line = [c for c in comments if c.startswith("# kappa:")]
    assert len(kappa_line) == 1
    assert abs(float(kappa_line[0].split(":")[1]) - 18.0) < 1e-11
    # footer position: log_kappa, then kappa last
    log_line, last = text.strip().split("\n")[-2:]
    assert last.startswith("# kappa:")
    assert log_line.startswith("# log_kappa:")
    assert float(log_line.split(":")[1]) == pytest.approx(np.log(18.0), rel=1e-12)
    total = sum(float(r.split(",")[1]) for r in rows)
    assert abs(total - 1.0) < 1e-12


def test_enumerate_margins_without_matrix_file(capsys):
    assert main(["enumerate", "--rows", "1,1", "--cols", "1,1"]) == 0
    _, _, rows = _csv_parts(capsys.readouterr().out)
    assert {r.split(",")[0] for r in rows} == {"10/01", "01/10"}
    assert all(float(r.split(",")[1]) == 0.5 for r in rows)


def test_enumerate_infeasible_margins_give_empty_csv(capsys):
    assert main(["enumerate", "--rows", "3", "--cols", "1,1"]) == 0
    comments, header, rows = _csv_parts(capsys.readouterr().out)
    assert rows == []
    assert "# states: 0" in comments
    assert "# kappa: 0.0" in comments
    assert "# log_kappa: -inf" in comments


def test_enumerate_cap_refusal_exits_3(capsys):
    code = main(["enumerate", "--rows", "3,3,3,3,3,3", "--cols", "3,3,3,3,3,3",
                 "--cap", "50"])
    assert code == 3
    assert "cap" in capsys.readouterr().err


def test_enumerate_input_source_conflicts(tmp_path, toy_files, capsys):
    matrix, _ = toy_files
    assert main(["enumerate", matrix, "--rows", "1,1,1", "--cols", "1,1,1"]) == 1
    assert main(["enumerate", "--rows", "1,1,1"]) == 1
    assert main(["enumerate", "--rows", "1,x", "--cols", "1,1"]) == 1
    assert main(["enumerate"]) == 1
    capsys.readouterr()


def test_enumerate_out_file_matches_stdout(tmp_path, toy_files, capsys):
    matrix, weights = toy_files
    assert main(["enumerate", matrix, "--weights", weights]) == 0
    stdout_text = capsys.readouterr().out
    out_path = tmp_path / "space.csv"
    assert main(["enumerate", matrix, "--weights", weights,
                 "--out", str(out_path)]) == 0
    assert out_path.read_text(encoding="utf-8") == stdout_text


# -- verify -------------------------------------------------------------------


def test_verify_toy_space_passes_all_checks(tmp_path, toy_files, capsys):
    matrix, weights = toy_files
    # the toy law at three weight scales; at 1e170 kappa is beyond the float
    # range, so the report carries null, and log_kappa holds the value
    for scale, kappa in [(1.0, pytest.approx(18.0, rel=1e-12)), (1e-170, 0.0), (1e170, None)]:
        if scale != 1.0:
            weights = _write(tmp_path / "w-scaled.txt", "\n".join(
                " ".join(repr(float(w) * scale) for w in row.split())
                for row in TOY_WEIGHTS.splitlines()))
        assert main(["verify", matrix, "--weights", weights]) == 0
        report = _report(capsys)
        assert report["passed"] is True
        assert report["kappa"] == kappa
        assert report["log_kappa"] == pytest.approx(np.log(18.0) + 3 * np.log(scale), rel=1e-12)
        assert set(report["algorithms"]) == {"swap", "curveball"}
        for entry in report["algorithms"].values():
            checks = entry["checks"]
            assert checks["balance"]["passed"] and checks["balance"]["max_residual"] < 1e-12
            assert checks["stationarity"]["passed"]
            assert checks["stationarity"]["max_residual"] < 1e-12
            assert checks["connectivity"] == {"components": 1, "passed": True}
            assert checks["diameter"] == {"value": 2, "bound": 3, "passed": True}
            assert entry["sampling_valid"] is True


def test_verify_disconnected_space_fails_with_exit_2(tmp_path, capsys):
    matrix = _write(tmp_path / "m.txt", CYCLE_MATRIX)
    weights = _write(tmp_path / "w.txt", NO_DIAGONAL_WEIGHTS)
    code = main(["verify", matrix, "--weights", weights, "--algorithm", "swap"])
    assert code == 2
    report = _report(capsys)
    checks = report["algorithms"]["swap"]["checks"]
    assert checks["connectivity"] == {"components": 2, "passed": False}
    assert checks["balance"]["passed"]  # balance holds even when disconnected
    assert checks["diameter"]["status"] == "skipped"
    assert report["algorithms"]["swap"]["sampling_valid"] is False
    assert report["passed"] is False


def test_verify_skips_diameter_bound_for_non_monotonic_zeros(tmp_path, capsys):
    matrix = _write(tmp_path / "m.txt", "0 1 0\n0 0 1\n1 0 0\n")
    weights = _write(tmp_path / "w.txt", "0 1 1\n1 0 1\n1 1 1\n")
    assert main(["verify", matrix, "--weights", weights]) == 0
    report = _report(capsys)
    for entry in report["algorithms"].values():
        assert entry["checks"]["connectivity"]["passed"]
        assert entry["checks"]["diameter"]["status"] == "skipped"
        assert "monotonic" in entry["checks"]["diameter"]["reason"]
        assert entry["sampling_valid"] is True


def test_verify_connects_the_space_at_extreme_weight_range(tmp_path, capsys):
    # some swaps here have acceptance probability about 1e-640, 0.0 in
    # floats; connectivity comes from legal moves, so nothing splits
    weights = np.ones((3, 3))
    weights[0, 0] = weights[1, 1] = 1e160
    weights[0, 1] = weights[1, 0] = 1e-160
    weights_path = _write(tmp_path / "w.txt",
                          "\n".join(" ".join(repr(x) for x in row) for row in weights.tolist()))
    code = main(["verify", "--rows", "1,1,1", "--cols", "1,1,1", "--weights", weights_path])
    report = _report(capsys)
    for entry in report["algorithms"].values():
        assert entry["checks"]["connectivity"] == {"components": 1, "passed": True}
        assert entry["sampling_valid"] is True
    assert code == 0


def test_verify_computes_the_hamming_bound_once(monkeypatch, toy_files, capsys):
    calls = []
    original = fixedmargin.cli._max_pairwise_hamming
    monkeypatch.setattr(fixedmargin.cli, "_max_pairwise_hamming",
                        lambda space: calls.append(space) or original(space))
    matrix, weights = toy_files
    assert main(["verify", matrix, "--weights", weights, "--algorithm", "both"]) == 0
    report = _report(capsys)
    assert len(calls) == 1
    for entry in report["algorithms"].values():
        assert entry["checks"]["diameter"]["bound"] == 3


def test_verify_empty_space_passes_vacuously(capsys):
    assert main(["verify", "--rows", "2", "--cols", "1"]) == 0
    report = _report(capsys)
    assert report["empty_space"] is True and report["states"] == 0
    assert report["kappa"] == 0.0 and report["log_kappa"] is None


def test_verify_cap_refusal_exits_3(capsys):
    code = main(["verify", "--rows", "3,3,3,3,3,3", "--cols", "3,3,3,3,3,3",
                 "--cap", "10"])
    assert code == 3
    capsys.readouterr()


# -- nullmodel ----------------------------------------------------------------


def test_nullmodel_p_value_matches_trace_recount(tmp_path, capsys):
    # two identical row pairs maximize the c-score for these margins, so
    # the upper-tail p-value is the null mass at that maximum
    blocky = _write(tmp_path / "obs.txt", "1 1 0 0\n1 1 0 0\n0 0 1 1\n0 0 1 1\n")
    out = tmp_path / "null"
    code = main(["nullmodel", blocky, "--burn-in", "200", "--thin", "20",
                 "--samples", "300", "--seed", "9", "--out", str(out)])
    assert code == 0
    report = _report(capsys)
    result = report["result"]
    observed = c_score(read_binary_matrix(blocky))
    assert result["observed"] == pytest.approx(observed)
    assert result["statistic"] == "c-score" and result["tail"] == "upper"

    _, header, rows = _csv_parts((out / "null-c-score.csv").read_text())
    assert header == "iteration,c-score"
    assert len(rows) == 300
    null_values = np.array([float(r.split(",")[1]) for r in rows])
    recounted = (1 + int((null_values >= observed).sum())) / (1 + len(null_values))
    assert result["p_value"] == pytest.approx(recounted)
    assert 0.0 < result["p_value"] < 1.0


def test_nullmodel_weights_shift_the_p_value(tmp_path, capsys):
    # weights that favor the observed block structure make the observed
    # c-score ordinary under the null, so its p-value grows
    blocky = _write(tmp_path / "obs.txt", "1 1 0 0\n1 1 0 0\n0 0 1 1\n0 0 1 1\n")
    favoring = _write(tmp_path / "w.txt",
                      "5 5 1 1\n5 5 1 1\n1 1 5 5\n1 1 5 5\n")
    args = ["--burn-in", "200", "--thin", "20", "--samples", "300", "--seed", "9"]
    assert main(["nullmodel", blocky, *args, "--out", str(tmp_path / "u")]) == 0
    p_uniform = _report(capsys)["result"]["p_value"]
    assert main(["nullmodel", blocky, "--weights", favoring, *args,
                 "--out", str(tmp_path / "w")]) == 0
    p_weighted = _report(capsys)["result"]["p_value"]
    assert p_weighted > p_uniform


def test_nullmodel_single_state_space_gives_p_one(tmp_path, capsys):
    lone = _write(tmp_path / "obs.txt", "1 0\n0 0\n")
    for tail in ("upper", "lower"):
        code = main(["nullmodel", lone, "--burn-in", "10", "--thin", "2",
                     "--samples", "20", "--tail", tail,
                     "--out", str(tmp_path / tail)])
        assert code == 0
        assert _report(capsys)["result"]["p_value"] == 1.0


def test_nullmodel_rerun_is_byte_identical(tmp_path, toy_files, capsys):
    matrix, weights = toy_files
    args = ["nullmodel", matrix, "--weights", weights, "--burn-in", "50",
            "--thin", "10", "--samples", "80", "--seed", "4"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    assert ((tmp_path / "a" / "null-c-score.csv").read_bytes()
            == (tmp_path / "b" / "null-c-score.csv").read_bytes())


# -- weight powers ------------------------------------------------------------


@pytest.mark.parametrize("power", ["inf", "-inf", "nan", "1e308"])
def test_weight_power_that_is_not_finite_or_overflows_exits_1(toy_files, capsys, power):
    # 1e308 * log 2 is finite, but a sum of four such logs is not
    _, weights = toy_files
    code = main(["enumerate", "--rows", "1,1,1", "--cols", "1,1,1", "--weights", weights,
                 f"--weight-power={power}"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == "" and "weight power" in err


def test_weight_power_keeps_a_tiny_weight_positive(tmp_path, capsys):
    # 1e-10 ** 40 underflows in linear space; in logs the cell stays a legal 1
    tiny = _write(tmp_path / "w.txt", "1e-10 1 1\n1 1 1\n1 1 1\n")
    assert main(["enumerate", "--rows", "1,1,1", "--cols", "1,1,1", "--weights", tiny,
                 "--weight-power", "40"]) == 0
    comments, _, rows = _csv_parts(capsys.readouterr().out)
    assert "# states: 6" in comments and len(rows) == 6
    identity = _write(tmp_path / "m.txt", TOY_MATRIX)
    assert main(["nullmodel", identity, "--weights", tiny, "--weight-power", "40",
                 "--burn-in", "10", "--thin", "2", "--samples", "20",
                 "--out", str(tmp_path / "null")]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["enumerate", "--rows", "1,1", "--cols", "1,1"],
    ["nullmodel", "{matrix}", "--out", "{out}"],
], ids=["enumerate", "nullmodel"])
def test_weight_below_the_float_range_is_refused(tmp_path, capsys, argv):
    # float("1e-400") is 0.0; read as a structural zero it would drop a
    # state, and refuse the valid start below as incompatible
    weights = _write(tmp_path / "w.txt", "1 1e-400\n1 1\n")
    matrix = _write(tmp_path / "m.txt", "0 1\n1 0\n")
    code = main([arg.format(matrix=matrix, out=tmp_path / "run") for arg in argv]
                + ["--weights", weights])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert "w.txt:1: weight 1e-400 is nonzero" in err
    assert not (tmp_path / "run").exists()


def test_weight_power_on_huge_weights_verifies_like_the_unscaled_law(tmp_path, toy_files,
                                                                     capsys):
    # scaling every weight by 1e170 leaves the law unchanged; squaring 2e170
    # in linear space would overflow
    matrix, weights = toy_files
    huge = _write(tmp_path / "w-huge.txt", "\n".join(
        " ".join(repr(float(w) * 1e170) for w in row.split()) for row in TOY_WEIGHTS.splitlines()))
    reports = []
    for path in (weights, huge):
        assert main(["verify", matrix, "--weights", path, "--weight-power", "2"]) == 0
        out, err = capsys.readouterr()
        assert "RuntimeWarning" not in err
        reports.append(json.loads(out))

    def shape(report):
        return (report["states"], report["passed"],
                {name: (entry["checks"]["connectivity"], entry["checks"]["diameter"])
                 for name, entry in report["algorithms"].items()})

    assert shape(reports[1]) == shape(reports[0])
    assert reports[0]["states"] == 6 and reports[0]["passed"] is True


@pytest.mark.parametrize("argv", [
    ["sample", "{matrix}", "--chains", "2", "--jobs", "1"],
    ["sample", "{matrix}", "--chains", "2", "--jobs", "2"],
    ["nullmodel", "{matrix}", "--burn-in", "0", "--thin", "1", "--samples", "30"],
], ids=["sample-jobs-1", "sample-jobs-2", "nullmodel"])
def test_immobile_swap_chain_is_one_note(tmp_path, capfd, argv):
    # capfd, not capsys: worker processes write to the inherited stderr
    matrix = _write(tmp_path / "m.txt", "0 1\n0 0\n")
    code = main([arg.replace("{matrix}", matrix) for arg in argv]
                + ["--algorithm", "swap", "--out", str(tmp_path / "run")])
    out, err = capfd.readouterr()
    assert code == 0
    assert json.loads(out)["notes"] == [
        "swap chain on a matrix with fewer than two 1s can never move"]
    assert err.count("warning:") == 1 and "never move" in err
    assert "UserWarning" not in err and ".py:" not in err


@pytest.mark.parametrize("argv", [
    ["verify", "--rows", "1,1", "--cols", "1,1", "--tolerance", "nan"],
    ["verify", "--rows", "1,1", "--cols", "1,1", "--tolerance", "-1"],
    ["verify", "--rows", "1,1", "--cols", "1,1", "--tolerance", "inf"],
    ["verify", "--rows", "1,1", "--cols", "1,1", "--cap", "-5"],
    ["enumerate", "--rows", "1,1", "--cols", "1,1", "--cap", "0"],
    ["sample", "{matrix}", "--jobs", "0"],
    ["sample", "{matrix}", "--jobs", "-2"],
    ["sample", "{matrix}", "--chains", "0"],
    ["sample", "{matrix}", "--chains", "-1"],
])
def test_option_out_of_range_is_usage_error(tmp_path, toy_files, capsys, argv):
    matrix, _ = toy_files
    code = main([arg.replace("{matrix}", matrix) for arg in argv]
                + (["--out", str(tmp_path / "run")] if argv[0] == "sample" else []))
    out, err = capsys.readouterr()
    assert code == 1
    assert out == "" and f"{argv[-2]} must be finite and above 0" in err
    assert not (tmp_path / "run").exists()


def test_state_text_matches_the_per_cell_rendering(tmp_path):
    # the digests pin states of fewer than 8 columns; this one spans two bytes per row
    rng = np.random.default_rng(12)
    ent = (rng.random((4, 13)) < 0.5).astype(np.int8)
    ent[0, 12] = ent[1, 0] = 1
    matrix = BinaryMatrix(ent)
    rows = ["".join(str(int(v)) for v in row) for row in ent]
    assert cli._encode_state(matrix) == "/".join(rows)
    path = tmp_path / "state.txt"
    write_binary_matrix(matrix, path, header="a state")
    assert path.read_text() == "# a state\n" + "".join(" ".join(row) + "\n" for row in rows)


# -- entry points and dispatch ------------------------------------------------


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    assert "command is required" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_bad_choice_is_usage_error(tmp_path, toy_files, capsys):
    matrix, _ = toy_files
    assert main(["sample", matrix, "--algorithm", "bogus"]) == 1
    capsys.readouterr()


def test_module_execution_shows_help():
    proc = subprocess.run([sys.executable, "-m", "fixedmargin", "--help"],
                          capture_output=True, timeout=60)
    assert proc.returncode == 0
    assert b"sample" in proc.stdout and b"enumerate" in proc.stdout


def test_the_cli_loads_no_process_pool_until_workers_start():
    # run_ensemble imports the pool inside its worker branch, so a start
    # that runs no workers pays nothing for concurrent.futures; scipy is a
    # test-only dependency and the program never imports it
    src = str(Path(fixedmargin.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    script = ("import sys\n"
              "from fixedmargin.cli import main\n"
              "main(['verify', '--rows', '1,1', '--cols', '1,1'])\n"
              "print('concurrent.futures' in sys.modules, 'scipy' in sys.modules,\n"
              "      file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip().split("\n")[-1] == "False False"
