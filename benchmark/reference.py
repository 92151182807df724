"""Reference computations the benchmark checks the program against.

Nothing here imports fixedmargin: each quantity is computed from its
definition, so a fault in the program cannot cancel out in a check.  The
matrices are 0/1 row lists or arrays; weights are nested lists or arrays.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


def permanent(w) -> float:
    """Ryser's formula in exact rational arithmetic, rounded once to float.

    perm(W) = (-1)^n sum over column subsets S of (-1)^|S| prod_i sum_{j in S} w_ij.
    The alternating sum cancels heavily, so it is evaluated on the exact
    binary values of the float weights and rounded only at the end.
    """
    rows = [[Fraction(float(x)) for x in row] for row in w]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("the permanent needs a square matrix")
    total = Fraction(0)
    for size in range(1, n + 1):
        sign = -1 if size % 2 else 1
        for subset in itertools.combinations(range(n), size):
            term = Fraction(1)
            for row in rows:
                term *= sum(row[j] for j in subset)
            total += sign * term
    return float(total if n % 2 == 0 else -total)


def permanent_brute(w) -> float:
    """Sum over all n! permutations of the product of the chosen entries."""
    n = len(w)
    return math.fsum(math.prod(float(w[i][p[i]]) for i in range(n))
                     for p in itertools.permutations(range(n)))


def permutations_avoiding(w) -> list[tuple[int, ...]]:
    """Permutations p with w[i][p[i]] > 0 for every row i, in lexicographic order.

    These are the states of the unit-margin space on W: one 1 per row and
    column, none on a structural zero.
    """
    n = len(w)
    return [p for p in itertools.permutations(range(n))
            if all(w[i][p[i]] > 0 for i in range(n))]


def permutation_law(w) -> dict[tuple[int, ...], float]:
    """Exact law of the unit-margin space by brute force: prod w / sum of prods."""
    n = len(w)
    prods = {p: math.prod(float(w[i][p[i]]) for i in range(n)) for p in itertools.permutations(range(n))}
    total = math.fsum(prods.values())
    return {p: v / total for p, v in prods.items() if v > 0}


def permutation_of(entries) -> tuple[int, ...]:
    """Column of the single 1 in each row of a permutation matrix."""
    cols = []
    for row in entries:
        ones = [j for j, v in enumerate(row) if v]
        if len(ones) != 1:
            raise ValueError("not a permutation matrix")
        cols.append(ones[0])
    return tuple(cols)


def c_score(entries) -> float:
    """Mean over row pairs i < j of (r_i - S_ij)(r_j - S_ij), by a pairwise loop.

    S_ij is the number of columns rows i and j share.  The integer total is
    scaled by 2 / (m (m - 1)).
    """
    bits = [int("".join("1" if v else "0" for v in row), 2) for row in entries]
    sums = [b.bit_count() for b in bits]
    m = len(bits)
    total = 0
    for i in range(m - 1):
        bi, ri = bits[i], sums[i]
        for j in range(i + 1, m):
            shared = (bi & bits[j]).bit_count()
            total += (ri - shared) * (sums[j] - shared)
    return 2.0 * total / (m * (m - 1))


def diag_divergence(entries) -> float:
    """Sum of |i - j| over the 1-cells, divided by (number of 1s) * n, by a cell loop."""
    total = 0
    count = 0
    n = 0
    for i, row in enumerate(entries):
        n = len(row)
        for j, v in enumerate(row):
            if v:
                total += abs(i - j)
                count += 1
    return total / (count * n)


def ar_ess(values) -> float:
    """Effective sample size of one series; see `pooled_ar_ess`."""
    return pooled_ar_ess([values])


def pooled_ar_ess(chains) -> float:
    """Effective sample size from an autoregressive fit, pooled over chains.

    The spectral density at frequency zero is read from an AR(p) model fitted
    by Yule-Walker (Levinson-Durbin recursion), with p chosen by AIC up to
    10 log10(n) for the shortest chain's length n; ESS = N * variance / S(0)
    for N values in all.  For one chain this is the estimator of R's
    coda::effectiveSize.  Chains of the same law and thinning share one fit:
    their autocovariances, each about its own chain's mean, are summed, which
    estimates the ESS of k chains more steadily than the sum of k separate
    fits.  A constant series has ESS 0.
    """
    series = [np.asarray(values, dtype=np.float64) for values in chains]
    shortest = min(x.size for x in series)
    if shortest < 10:
        raise ValueError(f"need at least 10 values for an ESS estimate, got {shortest}")
    n = sum(x.size for x in series)
    max_order = min(shortest - 1, int(10 * math.log10(shortest)))
    acov = np.zeros(max_order + 1)
    for x in series:
        spectrum = np.fft.rfft(x - x.mean(), 2 * x.size)
        acov += np.fft.irfft(spectrum * np.conj(spectrum))[: max_order + 1]
    acov /= n
    if acov[0] <= 0.0:
        return 0.0
    phi = np.zeros(0)
    var = acov[0]
    best_aic, best_var, best_phi = n * math.log(var), var, phi
    for k in range(1, max_order + 1):
        refl = (acov[k] - phi @ acov[k - 1:0:-1]) / var
        phi = np.append(phi - refl * phi[::-1], refl)
        var *= 1.0 - refl * refl
        if var <= 0.0:
            break
        aic = n * math.log(var) + 2 * k
        if aic < best_aic:
            best_aic, best_var, best_phi = aic, var, phi
    spectrum_zero = best_var / (1.0 - best_phi.sum()) ** 2
    return float(n * acov[0] / spectrum_zero)
