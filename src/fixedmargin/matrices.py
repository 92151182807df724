"""Binary matrices with fixed margins and the nonnegative weights that bias sampling.

The sampling model assigns each binary matrix A a probability proportional to
the product of w_ij over its 1-cells.  A weight of zero therefore forbids a 1
in that cell (a structural zero).  This module holds the two matrix types, the
margin/compatibility bookkeeping, the monotonicity test for zero patterns, and
the plain-text matrix file format shared by the command line tools.

A binary matrix is stored as one Python int per row whose bit j is the entry
in column j; only this module converts such bitsets to and from numpy arrays.
A weight matrix is stored as natural log-weights, -inf on structural zeros,
and the samplers, the oracle and every zero decision read those logs.
"""
from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from math import exp, inf, isfinite, log

import numpy as np


class MatrixFormatError(ValueError):
    """A matrix text file could not be parsed."""


class CompatibilityError(ValueError):
    """A binary matrix carries a 1 on a zero-weight cell."""

    def __init__(self, violations):
        self.violations = list(violations)
        shown = ", ".join(str(v) for v in self.violations[:8])
        more = "" if len(self.violations) <= 8 else f" (+{len(self.violations) - 8} more)"
        super().__init__(f"matrix has 1-entries on zero-weight cells: {shown}{more}")


class BinaryMatrix:
    """0/1 matrix stored as one int bitset per row; bit j of row i is entry (i, j).

    The row bitsets are the state.  `entries`, a read-only int8 array, and
    `ones`, the (row, col) coordinates of the 1s in row-major order, are
    built from them on first read and cached; the margins are summed from
    `entries`.  Only `swap_step`, `curveball_step` and `run_chain`, on its
    private copy, step a BinaryMatrix.  A swap rewrites its two cells' slots
    in `ones`; the public steps drop the cached `entries`, a trade also `ones`.
    """

    __slots__ = ("_rows", "m", "n", "_entries", "_ones")

    def __init__(self, entries):
        ent = np.asarray(entries)
        if ent.ndim != 2:
            raise ValueError(f"expected a 2-D array, got shape {ent.shape}")
        if ent.size and not ((ent == 0) | (ent == 1)).all():
            raise ValueError("binary matrix entries must be 0 or 1")
        self._reset(_pack_rows(ent != 0), ent.shape[1])

    def _reset(self, rows: list[int], n: int) -> None:
        self._rows = rows
        self.m, self.n = len(rows), n
        self._entries = self._ones = None

    @classmethod
    def _from_row_bits(cls, rows, n: int) -> "BinaryMatrix":
        """A matrix with n columns holding a copy of the row bitsets `rows`."""
        state = cls.__new__(cls)
        state._reset(list(rows), n)
        return state

    @property
    def entries(self) -> np.ndarray:
        if self._entries is None:
            width = (self.n + 7) // 8
            buf = b"".join(row.to_bytes(width, "little") for row in self._rows)
            packed = np.frombuffer(buf, dtype=np.uint8).reshape(self.m, width)
            # astype, not view: a kept matrix then caches one small array, not two
            ent = np.unpackbits(packed, axis=1, count=self.n, bitorder="little").astype(np.int8)
            ent.setflags(write=False)
            self._entries = ent
        return self._entries

    @property
    def ones(self) -> list[tuple[int, int]]:
        if self._ones is None:
            self._ones = _cells(self._rows)
        return self._ones

    @property
    def row_sums(self) -> np.ndarray:
        return self.entries.sum(axis=1, dtype=np.int64)

    @property
    def col_sums(self) -> np.ndarray:
        return self.entries.sum(axis=0, dtype=np.int64)

    @classmethod
    def identity(cls, n: int) -> "BinaryMatrix":
        return cls(np.eye(n, dtype=np.int8))

    def copy(self) -> "BinaryMatrix":
        return BinaryMatrix._from_row_bits(self._rows, self.n)

    def key(self) -> bytes:
        """Row-major bit encoding; within one shape, equal keys mean equal matrices."""
        return np.packbits(self.entries, axis=None).tobytes()

    def __eq__(self, other):
        if not isinstance(other, BinaryMatrix):
            return NotImplemented
        return (self.m, self.n) == (other.m, other.n) and self._rows == other._rows

    def __repr__(self):
        return f"BinaryMatrix({self.m}x{self.n}, ones={len(self.ones)})"

    def __reduce__(self):
        return (BinaryMatrix, (self.entries,))

    def validate(self):
        """Recount the 1-cells from the row bitsets.

        Debug helper for tests: raises AssertionError when the cached
        `entries` or `ones` disagree with the bitsets.
        """
        ent = self.entries
        assert ent.shape == (self.m, self.n)
        assert _pack_rows(ent) == self._rows, "entries drifted from the bitsets"
        expect = {(int(i), int(j)) for i, j in np.argwhere(ent)}
        assert len(self.ones) == len(expect) == len(set(self.ones))
        assert set(self.ones) == expect


def _pack_rows(a: np.ndarray) -> list[int]:
    """One int per row of a 2-D boolean or 0/1 array, bit j set where column j is nonzero."""
    packed = np.packbits(a, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _columns(mask: int) -> list[int]:
    """Set bits of a column bitmask, ascending."""
    cols = []
    while mask:
        j = mask.bit_length() - 1
        cols.append(j)
        mask ^= 1 << j
    cols.reverse()
    return cols


def _cells(rows) -> list[tuple[int, int]]:
    """The (row, col) coordinates of the 1s of the row bitsets `rows`, row-major."""
    return [(i, j) for i, row in enumerate(rows) for j in _columns(row)]


def _accept_prob(d: float) -> float:
    """w_new / (w_old + w_new) from d = log w_old - log w_new; every acceptance uses it."""
    return 0.0 if d > 700.0 else 1.0 / (1.0 + exp(d))


class WeightMatrix:
    """Nonnegative cell weights, held as natural logs; zero cells are structural zeros.

    The read-only `log_weights`, -inf on zeros, is the one representation;
    `zero_pattern`, `_log_rows` (nested lists) and `_pos_masks` (positive
    columns per row) derive from it.  `weights` is a record for files and
    display only: the caller's array, or exp of the logs (maybe 0 or inf).
    """

    __slots__ = ("log_weights", "weights", "m", "n", "zero_pattern", "_log_rows", "_pos_masks")

    def __init__(self, weights):
        w = np.array(weights, dtype=np.float64)
        if w.ndim != 2:
            raise ValueError(f"expected a 2-D array, got shape {w.shape}")
        if w.size and not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        if w.size and (w < 0).any():
            raise ValueError("weights must be nonnegative")
        # math.log, not np.log, which rounds the last bit of some values differently
        logs = [[log(x) if x else -inf for x in row] for row in w.tolist()]
        self._set_logs(np.array(logs, dtype=np.float64).reshape(w.shape), w)

    @classmethod
    def _from_logs(cls, logs, weights=None) -> "WeightMatrix":
        """The matrix on log-weights `logs`, with `weights` (default: their exp) as record."""
        matrix = cls.__new__(cls)
        matrix._set_logs(np.array(logs, dtype=np.float64), weights)
        return matrix

    def _set_logs(self, logs: np.ndarray, weights: np.ndarray | None) -> None:
        if weights is None:
            with np.errstate(over="ignore"):
                weights = np.exp(logs)
        logs.setflags(write=False)
        weights.setflags(write=False)
        self.log_weights, self.weights = logs, weights
        self.m, self.n = logs.shape
        zeros = np.isneginf(logs)
        self.zero_pattern = frozenset((int(i), int(j)) for i, j in np.argwhere(zeros))
        self._log_rows = logs.tolist()
        self._pos_masks = _pack_rows(~zeros)

    @classmethod
    def all_ones(cls, m: int, n: int) -> "WeightMatrix":
        return cls(np.ones((m, n)))

    def __repr__(self):
        return f"WeightMatrix({self.m}x{self.n}, zeros={len(self.zero_pattern)})"

    def __reduce__(self):
        return (WeightMatrix._from_logs, (np.array(self.log_weights), np.array(self.weights)))


@dataclass(frozen=True)
class MonotonicReport:
    """Outcome of the zero-pattern monotonicity test.

    When `is_monotonic` holds, applying `row_order` / `col_order` (position k
    takes original row/column `order[k]`) packs every zero into an upper-left
    staircase: a zero at (i, j) implies zeros everywhere above it in its
    column and to its left in its row.  The orders are None otherwise.
    """

    is_monotonic: bool
    row_order: tuple[int, ...] | None
    col_order: tuple[int, ...] | None


def compute_margins(matrix: BinaryMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Row and column sums of a binary matrix."""
    return matrix.row_sums, matrix.col_sums


def check_compatibility(matrix: BinaryMatrix, weights: WeightMatrix) -> list[tuple[int, int]]:
    """Cells where the matrix has a 1 but the weight is zero.

    An empty list means the matrix has positive probability under the weight
    model.  Raises ValueError on mismatched dimensions.
    """
    if (matrix.m, matrix.n) != (weights.m, weights.n):
        raise ValueError(
            f"matrix is {matrix.m}x{matrix.n} but weights are {weights.m}x{weights.n}"
        )
    bad = np.argwhere((matrix.entries == 1) & np.isneginf(weights.log_weights))
    return [(int(i), int(j)) for i, j in bad]


def require_compatible(matrix: BinaryMatrix, weights: WeightMatrix) -> None:
    violations = check_compatibility(matrix, weights)
    if violations:
        raise CompatibilityError(violations)


def hamming_distance(a: BinaryMatrix, b: BinaryMatrix) -> int:
    """Number of cells where the two matrices differ."""
    if (a.m, a.n) != (b.m, b.n):
        raise ValueError(f"dimension mismatch: {a.m}x{a.n} vs {b.m}x{b.n}")
    return int(np.count_nonzero(a.entries != b.entries))


def apply_power(weights: WeightMatrix, power: float) -> WeightMatrix:
    """Raise every weight to `power`, sharpening or flattening the model.

    The log-weights are multiplied by `power`, so tiny weights stay positive.
    Power 0 returns an all-ones matrix (the uniform model), erasing any
    structural zeros.  Positive powers keep the zero pattern.  A negative
    power on a matrix with zeros is an error since it would send those cells
    to infinity; so is a power that is not finite, or one under which a sum
    of 2mn logs, which bounds every state's log-weight and log-odds, overflows.
    """
    power = float(power)
    if not isfinite(power):
        raise ValueError(f"weight power must be finite, got {power}")
    if power == 0:
        return WeightMatrix.all_ones(weights.m, weights.n)
    if power < 0 and weights.zero_pattern:
        raise ValueError("negative power is undefined on zero weights")
    logs = weights.log_weights
    largest = float(np.max(np.abs(logs), where=np.isfinite(logs), initial=0.0))
    if not isfinite(abs(power) * largest * (2 * weights.m * weights.n)):
        raise ValueError(f"weight power {power} overflows the sums of the log-weights")
    return WeightMatrix._from_logs(power * logs)


def is_monotonic(weights: WeightMatrix) -> MonotonicReport:
    """Decide whether the zero pattern can be permuted into a corner staircase.

    A pattern is monotonic when some row/column permutation leaves every zero
    with only zeros above it and to its left.  Sorting rows and columns by
    descending zero count is decisive: if any witness arrangement exists the
    count-sorted one is also a witness, because staircase rows (columns) with
    equal zero counts carry identical zero sets.  Runs in O(mn log mn).
    Monotonic zero patterns keep the swap chain connected; non-monotonic ones
    may split the state space.
    """
    if not weights.zero_pattern:
        return MonotonicReport(True, tuple(range(weights.m)), tuple(range(weights.n)))
    mask = np.isneginf(weights.log_weights)
    row_counts = mask.sum(axis=1)
    col_counts = mask.sum(axis=0)
    row_order = np.argsort(-row_counts, kind="stable")
    col_order = np.argsort(-col_counts, kind="stable")
    arranged = mask[np.ix_(row_order, col_order)]
    # a staircase: each row's zeros are exactly a prefix as long as its count
    if np.array_equal(arranged, np.arange(weights.n) < row_counts[row_order][:, None]):
        return MonotonicReport(True, tuple(int(i) for i in row_order), tuple(int(j) for j in col_order))
    return MonotonicReport(False, None, None)


# -- plain-text matrix files -------------------------------------------------
#
# One matrix row per line, entries separated by whitespace.  Lines starting
# with '#' are comments; blank lines are skipped.  All rows must have equal
# length.  Binary files allow only the tokens 0 and 1; weight files allow
# nonnegative decimals.


def _read_rows(path) -> list[tuple[int, list[str]]]:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            rows.append((lineno, stripped.split()))
    if not rows:
        raise MatrixFormatError(f"{path}: no matrix rows found")
    width = len(rows[0][1])
    for lineno, tokens in rows:
        if len(tokens) != width:
            raise MatrixFormatError(
                f"{path}:{lineno}: expected {width} entries per row, got {len(tokens)}"
            )
    return rows


def read_binary_matrix(path) -> BinaryMatrix:
    """Parse a 0/1 matrix file (see the module notes for the format)."""
    rows = _read_rows(path)
    data = []
    for lineno, tokens in rows:
        for tok in tokens:
            if tok not in ("0", "1"):
                raise MatrixFormatError(f"{path}:{lineno}: invalid binary entry {tok!r}")
        data.append([int(tok) for tok in tokens])
    return BinaryMatrix(np.array(data, dtype=np.int8))


def read_weight_matrix(path) -> WeightMatrix:
    """Parse a nonnegative weight matrix file; only a token whose value is 0 is a zero weight."""
    rows = _read_rows(path)
    data = []
    for lineno, tokens in rows:
        parsed = []
        for tok in tokens:
            try:
                value = float(tok)
            except ValueError:
                raise MatrixFormatError(f"{path}:{lineno}: invalid weight {tok!r}") from None
            if not np.isfinite(value) or value < 0:
                raise MatrixFormatError(
                    f"{path}:{lineno}: weights must be finite and nonnegative, got {tok}"
                )
            if value == 0 and Decimal(tok) != 0:
                raise MatrixFormatError(
                    f"{path}:{lineno}: weight {tok} is nonzero but rounds to 0.0 as a float"
                )
            parsed.append(value)
        data.append(parsed)
    return WeightMatrix(np.array(data))


def write_binary_matrix(matrix: BinaryMatrix, path, header: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            for line in header.splitlines():
                fh.write(f"# {line}\n")
        for row in matrix._rows:
            fh.write(" ".join(format(row, f"0{matrix.n}b")[::-1]) + "\n")


def write_weight_matrix(weights: WeightMatrix, path, header: str | None = None) -> None:
    """Write the linear weights; refuse a positive weight that is 0.0 or inf as a float."""
    linear = weights.weights
    lost = ~np.isfinite(linear) | ((linear == 0) & (weights.log_weights > -np.inf))
    if lost.any():
        i, j = np.argwhere(lost)[0]
        raise ValueError(
            f"weight ({i}, {j}) has log {float(weights.log_weights[i, j])!r}, "
            "outside the range a file of linear weights can hold"
        )
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            for line in header.splitlines():
                fh.write(f"# {line}\n")
        for row in linear:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")
