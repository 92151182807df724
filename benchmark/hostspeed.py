"""The host's speed, measured next to every timed operation.

On a virtual machine that shares its cores with other tenants, speed can
swing by up to 2x in spells of milliseconds to minutes (as on the 2-vCPU
Xeon VM that README.md's figures come from): a 25-second run can fall
wholly inside a slow spell, and medians inside a run cannot undo that.  So
the benchmark runs four small fixed kernels of its own at the start of
every round and right after every timed operation, outside its timed
region: integer arithmetic, small-object allocation, a bitset swap chain
and small numpy calls.  They do not call the program, so no change to the
program moves them.

`factor` is the geometric mean, over the four kernels, of their time
around an operation (the mean of the measurement before it and after it)
over the kernel's nominal time.  An operation's normalised time is its
measured time divided by that factor: the seconds it would have taken at
the nominal speed.
"""
from __future__ import annotations

import math
import random
import time

import numpy as np


def _arith() -> int:
    s = 0
    for i in range(40_000):
        s += i * i % 7
    return s


def _alloc() -> int:
    d = {}
    for i in range(10_000):
        d[i % 997] = (i, i + 1, [i] * 3)
    return len(d)


def _chain() -> int:
    rnd = random.Random(5)
    rows = [(1 << (i % 50)) | (1 << (i * 7 % 50)) | (1 << (i * 13 % 50)) for i in range(50)]
    moves = 0
    for _ in range(2_000):
        a, b = rnd.randrange(50), rnd.randrange(50)
        x, y = rows[a] & ~rows[b], rows[b] & ~rows[a]
        if x and y:
            flip = (x & -x) | (y & -y)
            rows[a] ^= flip
            rows[b] ^= flip
            moves += 1
    return moves


def _numpy() -> float:
    rng = np.random.default_rng(1)
    s = 0.0
    for _ in range(800):
        s += float(np.sort(rng.random(64))[3])
    return s


KERNELS = (_arith, _alloc, _chain, _numpy)
# each kernel's median time in seconds in a fast spell of the 2-vCPU Xeon VM
# that README.md's figures come from
NOMINAL = (0.0030, 0.0027, 0.0025, 0.0022)


_last: tuple[float, ...] | None = None


def measure(repeats: int = 1) -> tuple[float, ...]:
    """Seconds each kernel takes now, the mean of `repeats` passes.

    The result is kept as the next operation's `last()`.
    """
    global _last
    total = [0.0] * len(KERNELS)
    for _ in range(repeats):
        for k, kernel in enumerate(KERNELS):
            start = time.perf_counter()
            kernel()
            total[k] += time.perf_counter() - start
    _last = tuple(t / repeats for t in total)
    return _last


def after(seconds: float) -> tuple[float, ...]:
    """A measurement at the end of an operation that took `seconds`.

    It lasts about 3% of the operation, so that it averages the host's
    speed over a span that grows with the span it stands for.
    """
    return measure(max(1, round(0.03 * seconds / sum(NOMINAL))))


def last() -> tuple[float, ...]:
    """The latest measurement: the end of the previous operation or the start of the round."""
    return _last if _last is not None else measure()


def warm_up() -> None:
    """Run the kernels until the interpreter has specialised them, then measure."""
    for _ in range(5):
        measure()


def factor(start, end) -> float:
    """How much slower than nominal the host ran between two measurements."""
    logs = [math.log((s + e) / 2 / nominal) for s, e, nominal in zip(start, end, NOMINAL)]
    return math.exp(sum(logs) / len(logs))
