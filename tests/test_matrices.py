"""Matrix types, margin bookkeeping, zero-pattern analysis, and the text format."""

import itertools
import pickle

import numpy as np
import pytest

from fixedmargin import (
    BinaryMatrix,
    CompatibilityError,
    MatrixFormatError,
    WeightMatrix,
    apply_power,
    check_compatibility,
    compute_margins,
    curveball_step,
    hamming_distance,
    is_monotonic,
    read_binary_matrix,
    read_weight_matrix,
    require_compatible,
    swap_step,
    write_binary_matrix,
    write_weight_matrix,
)


def ones_matrix(m, n, cells):
    ent = np.zeros((m, n), dtype=np.int8)
    for i, j in cells:
        ent[i, j] = 1
    return BinaryMatrix(ent)


# -- construction and bookkeeping ---------------------------------------------


def test_margins_cached_and_returned_as_copies():
    a = BinaryMatrix([[1, 0, 1], [0, 1, 0]])
    r, c = compute_margins(a)
    assert r.tolist() == [2, 1]
    assert c.tolist() == [1, 1, 1]
    r[0] = 99
    assert a.row_sums[0] == 2  # caller edits must not reach the cache


def test_ones_list_matches_entries():
    a = BinaryMatrix([[0, 1], [1, 1]])
    assert sorted(a.ones) == [(0, 1), (1, 0), (1, 1)]
    a.validate()


def test_rejects_non_binary_and_non_2d():
    with pytest.raises(ValueError):
        BinaryMatrix([[0, 2], [1, 0]])
    with pytest.raises(ValueError):
        BinaryMatrix([0, 1, 1])


def test_identity_copy_and_key():
    a = BinaryMatrix.identity(3)
    b = a.copy()
    assert a == b and a.key() == b.key()
    assert b.entries is not a.entries
    c = ones_matrix(3, 3, [(0, 1), (1, 0), (2, 2)])
    assert a != c and a.key() != c.key()


def test_bitset_and_entry_constructors_agree():
    rng = np.random.default_rng(4)
    for m, n in [(4, 9), (3, 16), (5, 1), (1, 30)]:
        ent = (rng.random((m, n)) < 0.4).astype(np.int8)
        rows = [int("".join(str(v) for v in row[::-1]), 2) for row in ent]
        a = BinaryMatrix(ent)
        b = BinaryMatrix._from_row_bits(rows, n)
        assert np.array_equal(a.entries, ent) and np.array_equal(b.entries, ent)
        assert a.entries.dtype == b.entries.dtype == np.int8
        assert a.ones == b.ones == [(int(i), int(j)) for i, j in np.argwhere(ent)]
        assert a.key() == b.key() == np.packbits(ent, axis=None).tobytes()
        assert np.array_equal(a.row_sums, b.row_sums) and np.array_equal(a.col_sums, b.col_sums)
        assert a == b == BinaryMatrix(ent.astype(float)) == BinaryMatrix(ent.astype(bool))
        c = b.copy()
        c._rows[0] ^= 1  # a copy owns its bitsets
        assert c != b and b == a
        assert pickle.loads(pickle.dumps(b)) == a
        a.validate()
        b.validate()


def test_entries_are_read_only():
    a = BinaryMatrix([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        a.entries[0, 1] = 1
    assert a.entries.tolist() == [[1, 0], [0, 1]]


@pytest.mark.parametrize("step", [swap_step, curveball_step])
def test_steps_keep_every_view_in_step_with_the_bitsets(step):
    rng = np.random.default_rng(8)
    weights = WeightMatrix(rng.lognormal(0.0, 1.0, size=(6, 7)))
    state = BinaryMatrix((rng.random((6, 7)) < 0.45).astype(np.int8))
    for _ in range(300):
        state.entries  # cached before the step, so a stale cache would show
        step(state, weights, rng)
        fresh = BinaryMatrix(state.entries.copy())
        assert fresh == state and fresh.key() == state.key()
        assert sorted(state.ones) == fresh.ones
        state.validate()


def test_zero_rows_and_columns_are_legal():
    a = BinaryMatrix(np.zeros((2, 3), dtype=np.int8))
    assert a.row_sums.tolist() == [0, 0]
    assert a.ones == []
    a.validate()


# -- compatibility with weights ------------------------------------------------


def test_check_compatibility_lists_violating_cells():
    a = ones_matrix(2, 2, [(0, 0), (1, 1)])
    w = WeightMatrix([[1.0, 1.0], [1.0, 0.0]])
    assert check_compatibility(a, w) == [(1, 1)]
    with pytest.raises(CompatibilityError) as exc:
        require_compatible(a, w)
    assert exc.value.violations == [(1, 1)]


def test_compatibility_ok_and_dimension_mismatch():
    a = BinaryMatrix.identity(2)
    assert check_compatibility(a, WeightMatrix.all_ones(2, 2)) == []
    with pytest.raises(ValueError):
        check_compatibility(a, WeightMatrix.all_ones(2, 3))


def test_weight_matrix_rejects_bad_values():
    with pytest.raises(ValueError):
        WeightMatrix([[1.0, -0.5]])
    with pytest.raises(ValueError):
        WeightMatrix([[1.0, np.inf]])
    with pytest.raises(ValueError):
        WeightMatrix([[1.0, np.nan]])


def test_zero_pattern_recorded():
    w = WeightMatrix([[0.0, 1.0], [2.0, 0.0]])
    assert set(w.zero_pattern) == {(0, 0), (1, 1)}
    assert not WeightMatrix.all_ones(2, 2).zero_pattern


# -- distances and weight powers -----------------------------------------------


def test_hamming_distance_basic():
    a = BinaryMatrix.identity(3)
    b = ones_matrix(3, 3, [(0, 1), (1, 0), (2, 2)])
    assert hamming_distance(a, a) == 0
    assert hamming_distance(a, b) == 4
    with pytest.raises(ValueError):
        hamming_distance(a, BinaryMatrix.identity(4))


def test_far_pair_hamming_distance_is_six(far_pair):
    _, a, b = far_pair
    assert hamming_distance(a, b) == 6


def test_apply_power_cases():
    w = WeightMatrix([[0.5, 2.0], [1.0, 4.0]])
    squared = apply_power(w, 2.0)
    assert np.allclose(squared.weights, [[0.25, 4.0], [1.0, 16.0]])
    inverse = apply_power(w, -1.0)
    assert np.allclose(inverse.weights, [[2.0, 0.5], [1.0, 0.25]])
    flat = apply_power(WeightMatrix([[0.0, 3.0]]), 0.0)
    assert np.all(flat.weights == 1.0)  # power zero erases zeros on purpose
    with pytest.raises(ValueError):
        apply_power(WeightMatrix([[0.0, 3.0]]), -2.0)


def test_apply_power_scales_the_logs_and_zeros_are_the_neg_inf_cells():
    rng = np.random.default_rng(53)
    w = rng.lognormal(0.0, 3.0, size=(4, 5))
    w[0, 1] = w[2, 3] = 0.0
    w[1, 1] = 1e-300
    base = WeightMatrix(w)
    for power in (2.0, 0.37, 40.0):
        powered = apply_power(base, power)
        assert np.array_equal(powered.log_weights, power * base.log_weights)
        assert np.isfinite(powered.log_weights[1, 1])  # 1e-300 ** 40 stays positive
    from_logs = WeightMatrix._from_logs(base.log_weights)
    for matrix in (base, powered, from_logs):
        cells = {(int(i), int(j)) for i, j in np.argwhere(np.isneginf(matrix.log_weights))}
        assert matrix.zero_pattern == cells == {(0, 1), (2, 3)}
        again = pickle.loads(pickle.dumps(matrix))
        assert np.array_equal(again.log_weights, matrix.log_weights)
        assert np.array_equal(again.weights, matrix.weights)
        assert again._log_rows == matrix._log_rows and again._pos_masks == matrix._pos_masks
    assert np.array_equal(base.weights, w)  # the caller's linear record is kept as given


# -- zero-pattern monotonicity ---------------------------------------------------


def _is_staircase(mask):
    # zeros of every row form a left prefix, prefix lengths non-increasing
    lengths = []
    for row in mask:
        idx = np.flatnonzero(row)
        if idx.size and idx[-1] != idx.size - 1:
            return False
        lengths.append(idx.size)
    return all(a >= b for a, b in zip(lengths, lengths[1:]))


def _monotonic_by_exhaustive_search(mask):
    m, n = mask.shape
    return any(
        _is_staircase(mask[list(pr)][:, list(pc)])
        for pr in itertools.permutations(range(m))
        for pc in itertools.permutations(range(n))
    )


def test_no_zeros_is_monotonic():
    report = is_monotonic(WeightMatrix.all_ones(3, 4))
    assert report.is_monotonic
    assert sorted(report.row_order) == [0, 1, 2]


def test_upper_triangle_zeros_are_monotonic():
    # zeros strictly above the diagonal pack into a staircase after
    # reversing the column order
    w = np.ones((4, 4))
    w[np.triu_indices(4, k=1)] = 0.0
    report = is_monotonic(WeightMatrix(w))
    assert report.is_monotonic


def test_diagonal_zeros_are_not_monotonic(no_diagonal):
    weights, _, _ = no_diagonal
    assert not is_monotonic(weights).is_monotonic


def test_far_pair_zeros_are_not_monotonic(far_pair):
    weights, _, _ = far_pair
    assert not is_monotonic(weights).is_monotonic


def test_monotonic_witness_replays_to_a_staircase():
    rng = np.random.default_rng(4021)
    for _ in range(25):
        w = np.ones((4, 5))
        depth = rng.integers(1, 4)
        for i in range(depth):
            w[3 - i, : depth - i] = 0.0  # bottom-left corner triangle
        perm_r = rng.permutation(4)
        perm_c = rng.permutation(5)
        report = is_monotonic(WeightMatrix(w[perm_r][:, perm_c]))
        assert report.is_monotonic
        shuffled = (w[perm_r][:, perm_c] == 0.0)
        replayed = shuffled[list(report.row_order)][:, list(report.col_order)]
        assert _is_staircase(replayed)


def test_monotonicity_matches_exhaustive_search():
    rng = np.random.default_rng(90210)
    checked_true = 0
    for trial in range(60):
        m, n = (3, 3) if trial % 2 else (4, 4)
        mask = rng.random((m, n)) < 0.3
        w = np.ones((m, n))
        w[mask] = 0.0
        got = is_monotonic(WeightMatrix(w)).is_monotonic
        want = _monotonic_by_exhaustive_search(mask)
        assert got == want, f"disagreement on zero pattern\n{mask.astype(int)}"
        checked_true += got
    assert checked_true > 0  # the sweep must exercise both outcomes


def test_monotonicity_is_permutation_invariant():
    rng = np.random.default_rng(777)
    for _ in range(30):
        mask = rng.random((4, 4)) < 0.35
        w = np.ones((4, 4))
        w[mask] = 0.0
        base = is_monotonic(WeightMatrix(w)).is_monotonic
        pr, pc = rng.permutation(4), rng.permutation(4)
        assert is_monotonic(WeightMatrix(w[pr][:, pc])).is_monotonic == base


# -- text format -----------------------------------------------------------------


def test_binary_matrix_round_trip(tmp_path):
    a = ones_matrix(3, 4, [(0, 0), (1, 2), (2, 3), (2, 0)])
    path = tmp_path / "m.txt"
    write_binary_matrix(a, path, header="margins 1 1 2")
    again = read_binary_matrix(path)
    assert again == a
    assert path.read_text().startswith("# margins 1 1 2\n")


def test_weight_matrix_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(52)
    w = WeightMatrix(rng.random((3, 3)) * 7)
    path = tmp_path / "w.txt"
    write_weight_matrix(w, path)
    again = read_weight_matrix(path)
    assert np.array_equal(again.weights, w.weights)  # repr round-trips floats


def test_weight_matrix_writer_refuses_weights_outside_the_float_range(tmp_path):
    # at power 40, 1e-10 and 1e10 become 1e-400 and 1e400: positive and
    # finite as logs, but 0.0 and inf as floats
    w = apply_power(WeightMatrix([[1e-10, 1.0], [1.0, 1e10]]), 40)
    path = tmp_path / "w.txt"
    with pytest.raises(ValueError, match=r"weight \(0, 0\)"):
        write_weight_matrix(w, path)
    assert not path.exists()
    w = apply_power(WeightMatrix([[1.0, 1.0], [1.0, 1e10]]), 40)
    with pytest.raises(ValueError, match=r"weight \(1, 1\)"):
        write_weight_matrix(w, path)
    assert not path.exists()


def test_reader_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("# a comment\n\n1 0\n# another\n0 1\n\n")
    assert read_binary_matrix(path) == BinaryMatrix.identity(2)


def test_reader_rejects_ragged_rows(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("1 0 1\n0 1\n")
    with pytest.raises(MatrixFormatError, match="expected 3 entries"):
        read_binary_matrix(path)


def test_reader_rejects_non_binary_tokens(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("1 0\n0 2\n")
    with pytest.raises(MatrixFormatError, match="invalid binary entry"):
        read_binary_matrix(path)


def test_weight_reader_rejects_bad_tokens(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("1.0 x\n")
    with pytest.raises(MatrixFormatError, match="invalid weight"):
        read_weight_matrix(path)
    path.write_text("1.0 -2\n")
    with pytest.raises(MatrixFormatError, match="nonnegative"):
        read_weight_matrix(path)
    path.write_text("1.0 inf\n")
    with pytest.raises(MatrixFormatError, match="finite"):
        read_weight_matrix(path)


def test_reader_rejects_empty_file(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("# nothing here\n")
    with pytest.raises(MatrixFormatError, match="no matrix rows"):
        read_binary_matrix(path)


@pytest.mark.parametrize("token", ["0", "0.0", "-0", "0e5"])
def test_weight_reader_reads_a_zero_token_as_a_structural_zero(tmp_path, token):
    path = tmp_path / "w.txt"
    path.write_text(f"1 {token}\n1 1\n")
    assert read_weight_matrix(path).zero_pattern == {(0, 1)}


@pytest.mark.parametrize("token", ["1e-400", "-1e-400", "0.1e-330"])
def test_weight_reader_refuses_a_nonzero_token_that_rounds_to_zero(tmp_path, token):
    # float() reads these as 0.0, which would be a structural zero
    path = tmp_path / "w.txt"
    path.write_text(f"# tiny\n1 {token}\n1 1\n")
    with pytest.raises(MatrixFormatError, match=rf"w\.txt:2: weight {token} is nonzero"):
        read_weight_matrix(path)
