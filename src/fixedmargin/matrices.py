"""Binary matrices with fixed margins and the nonnegative weights that bias sampling.

The sampling model assigns each binary matrix A a probability proportional to
the product of w_ij over its 1-cells.  A weight of zero therefore forbids a 1
in that cell (a structural zero).  This module holds the two matrix types, the
margin/compatibility bookkeeping, the monotonicity test for zero patterns, and
the plain-text matrix file format shared by the command line tools.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import exp, inf, log

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
    """Dense 0/1 matrix with cached margins and its list of 1-cells.

    `entries` is the int8 array; `ones` lists the (row, col) coordinates of
    its 1s, in row-major order when first read.  Margins are computed once,
    at construction.  Chains run on row bitsets of their own; only the
    public `swap_step` and `curveball_step` mutate a BinaryMatrix, moving
    1s in `entries` and rewriting the moved cells' slots in `ones`, so both
    stay in step and the margins stay valid.  Treat `entries` and `ones` as
    read-only otherwise.
    """

    __slots__ = ("entries", "m", "n", "row_sums", "col_sums", "_ones")

    def __init__(self, entries):
        ent = np.asarray(entries)
        if ent.ndim != 2:
            raise ValueError(f"expected a 2-D array, got shape {ent.shape}")
        if ent.size and not ((ent == 0) | (ent == 1)).all():
            raise ValueError("binary matrix entries must be 0 or 1")
        self.entries = np.ascontiguousarray(ent, dtype=np.int8)
        self.m, self.n = self.entries.shape
        self.row_sums = self.entries.sum(axis=1, dtype=np.int64)
        self.col_sums = self.entries.sum(axis=0, dtype=np.int64)
        self._ones = None

    @property
    def ones(self) -> list[tuple[int, int]]:
        if self._ones is None:
            rows, cols = np.nonzero(self.entries)
            self._ones = list(zip(rows.tolist(), cols.tolist()))
        return self._ones

    @classmethod
    def identity(cls, n: int) -> "BinaryMatrix":
        return cls(np.eye(n, dtype=np.int8))

    def copy(self) -> "BinaryMatrix":
        return BinaryMatrix(self.entries.copy())

    def key(self) -> bytes:
        """Canonical row-major bit encoding; states with equal keys are equal."""
        return np.packbits(self.entries, axis=None).tobytes()

    def _row_bits(self) -> list[int]:
        """One int per row whose bit j is the entry in column j."""
        return list(_RowBitsView(self.entries))

    @classmethod
    def _from_row_bits(cls, rows, n: int) -> "BinaryMatrix":
        """Inverse of `_row_bits` for a matrix with n columns."""
        width = (n + 7) // 8
        buf = b"".join(row.to_bytes(width, "little") for row in rows)
        packed = np.frombuffer(buf, dtype=np.uint8).reshape(len(rows), width)
        return cls(np.unpackbits(packed, axis=1, count=n, bitorder="little"))

    def __eq__(self, other):
        if not isinstance(other, BinaryMatrix):
            return NotImplemented
        return self.entries.shape == other.entries.shape and np.array_equal(
            self.entries, other.entries
        )

    def __repr__(self):
        return f"BinaryMatrix({self.m}x{self.n}, ones={len(self.ones)})"

    def __reduce__(self):
        return (BinaryMatrix, (self.entries.copy(),))

    def validate(self):
        """Recount the 1-cells and margins from the entry array.

        Debug helper for tests: raises AssertionError when `ones` or the
        margins cached at construction disagree with `entries`.
        """
        ent = self.entries
        assert ent.shape == (self.m, self.n)
        assert np.isin(ent, (0, 1)).all()
        assert np.array_equal(ent.sum(axis=1), self.row_sums), "row sums drifted"
        assert np.array_equal(ent.sum(axis=0), self.col_sums), "column sums drifted"
        expect = {(int(i), int(j)) for i, j in np.argwhere(ent)}
        assert len(self.ones) == len(expect) == len(set(self.ones))
        assert set(self.ones) == expect


def _accept_prob(d: float) -> float:
    """w_new / (w_old + w_new) from d = log w_old - log w_new; every acceptance uses it."""
    return 0.0 if d > 700.0 else 1.0 / (1.0 + exp(d))


class _RowBitsView:
    """Row bitsets of an entry array, read and written in place.

    Lets the samplers' bitset step functions run on a BinaryMatrix itself:
    reading row i packs that row into an int whose bit j is column j, and
    assigning row i unpacks the new bits into the array.  `written` lists
    the rows assigned so far.
    """

    __slots__ = ("entries", "written")

    def __init__(self, entries: np.ndarray):
        self.entries = entries
        self.written: list[int] = []

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> int:
        return int.from_bytes(np.packbits(self.entries[i], bitorder="little").tobytes(), "little")

    def __setitem__(self, i: int, bits: int) -> None:
        n = self.entries.shape[1]
        packed = np.frombuffer(bits.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
        self.entries[i] = np.unpackbits(packed, count=n, bitorder="little")
        self.written.append(i)


class WeightMatrix:
    """Nonnegative cell weights; zero cells are structural zeros.

    The weight array is frozen after construction.  `zero_pattern` lists the
    structurally forbidden cells as a frozenset of (row, col) pairs.  The
    samplers and the oracle read only the natural logs, as nested lists with
    -inf on structural zeros, and one bitmask per row of the columns with
    positive weight; in logs, tiny and huge weights cannot under- or overflow.
    """

    __slots__ = ("weights", "m", "n", "zero_pattern", "_log_rows", "_pos_masks")

    def __init__(self, weights):
        w = np.array(weights, dtype=np.float64)
        if w.ndim != 2:
            raise ValueError(f"expected a 2-D array, got shape {w.shape}")
        if w.size and not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        if w.size and (w < 0).any():
            raise ValueError("weights must be nonnegative")
        w.setflags(write=False)
        self.weights = w
        self.m, self.n = w.shape
        self.zero_pattern = frozenset((int(i), int(j)) for i, j in np.argwhere(w == 0.0))
        self._log_rows = [[log(x) if x > 0.0 else -inf for x in row] for row in w.tolist()]
        self._pos_masks = list(_RowBitsView(w > 0.0))

    @classmethod
    def all_ones(cls, m: int, n: int) -> "WeightMatrix":
        return cls(np.ones((m, n)))

    def __repr__(self):
        return f"WeightMatrix({self.m}x{self.n}, zeros={len(self.zero_pattern)})"

    def __reduce__(self):
        return (WeightMatrix, (np.array(self.weights),))


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
    """Row and column sums of a binary matrix, as cached at construction."""
    return matrix.row_sums.copy(), matrix.col_sums.copy()


def check_compatibility(matrix: BinaryMatrix, weights: WeightMatrix) -> list[tuple[int, int]]:
    """Cells where the matrix has a 1 but the weight is zero.

    An empty list means the matrix has positive probability under the weight
    model.  Raises ValueError on mismatched dimensions.
    """
    if (matrix.m, matrix.n) != (weights.m, weights.n):
        raise ValueError(
            f"matrix is {matrix.m}x{matrix.n} but weights are {weights.m}x{weights.n}"
        )
    bad = np.argwhere((matrix.entries == 1) & (weights.weights == 0.0))
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

    Power 0 returns an all-ones matrix (the uniform model), erasing any
    structural zeros.  Positive powers keep the zero pattern.  A negative
    power on a matrix with zeros is an error since it would send those cells
    to infinity.
    """
    if power == 0:
        return WeightMatrix.all_ones(weights.m, weights.n)
    if power < 0 and weights.zero_pattern:
        raise ValueError("negative power is undefined on zero weights")
    return WeightMatrix(np.power(weights.weights, power))


def _is_staircase(mask: np.ndarray, prefix_lengths) -> bool:
    # mask rows must be zero-prefixes of the stated lengths, nothing else
    for i, z in enumerate(prefix_lengths):
        row = mask[i]
        if not row[:z].all():
            return False
        if row[z:].any():
            return False
    return True


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
    mask = weights.weights == 0.0
    row_counts = mask.sum(axis=1)
    col_counts = mask.sum(axis=0)
    row_order = np.argsort(-row_counts, kind="stable")
    col_order = np.argsort(-col_counts, kind="stable")
    arranged = mask[np.ix_(row_order, col_order)]
    if _is_staircase(arranged, row_counts[row_order]):
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
    """Parse a nonnegative weight matrix file."""
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
            parsed.append(value)
        data.append(parsed)
    return WeightMatrix(np.array(data))


def write_binary_matrix(matrix: BinaryMatrix, path, header: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            for line in header.splitlines():
                fh.write(f"# {line}\n")
        for row in matrix.entries:
            fh.write(" ".join(str(int(v)) for v in row) + "\n")


def write_weight_matrix(weights: WeightMatrix, path, header: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            for line in header.splitlines():
                fh.write(f"# {line}\n")
        for row in weights.weights:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")
