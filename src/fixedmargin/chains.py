"""Chain orchestration: configs, traces, ensembles, and input generators.

A chain counts proposals, not accepted moves: a run executes burn_in
proposals, then records the configured statistics every thin proposals until
`retained` snapshots exist, for burn_in + thin * retained proposals total.
Chain i of an ensemble draws from the generator seeded with
SeedSequence(config.seed, spawn_key=(i,)), so results are reproducible and
independent of how many chains run or whether they run in parallel.
"""
from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import curveball, swap
from ._streams import UniformStream
from .matrices import BinaryMatrix, WeightMatrix, require_compatible
from .stats import get_statistic

ALGORITHMS = ("swap", "curveball")


@dataclass(frozen=True)
class ChainConfig:
    """Everything that determines a run besides the initial matrix and weights.

    `statistics` names entries of the statistic registry to record at each
    retention instant; `keep_matrices` additionally stores a copy of the
    state at those instants.  Burn-in and thinning are counted in proposals.
    """

    algorithm: str = "swap"
    burn_in: int = 0
    thin: int = 1
    retained: int = 1000
    seed: int = 0
    statistics: tuple[str, ...] = ("diag-divergence",)
    keep_matrices: bool = False

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        if self.retained < 1:
            raise ValueError("retained must be >= 1")
        object.__setattr__(self, "statistics", tuple(self.statistics))
        for name in self.statistics:
            get_statistic(name)

    @property
    def total_proposals(self) -> int:
        return self.burn_in + self.thin * self.retained


@dataclass(frozen=True)
class ChainCounters:
    proposals: int
    no_ops: int
    rejections: int
    acceptances: int


@dataclass
class Trace:
    """Recorded output of one chain.

    `values[name]` is the float array of one statistic at the retention
    instants; `matrices` holds state copies at the same instants when the
    config asked for them, else None.
    """

    config: ChainConfig
    chain_index: int
    values: dict[str, np.ndarray]
    matrices: list[BinaryMatrix] | None
    counters: ChainCounters


def _chain_rng(seed: int, chain_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chain_index,)))


def run_chain(initial: BinaryMatrix, weights: WeightMatrix, config: ChainConfig,
              chain_index: int = 0) -> Trace:
    """Run one chain from `initial`; the argument is not mutated.

    The chain runs on row bitsets of its own; statistics and kept matrices
    see a BinaryMatrix built from them at each retention instant.

    The initial matrix must be compatible with the weights (no 1 on a zero
    weight).  Requesting a square-only statistic on a non-square matrix is an
    error.  A swap chain on a matrix with fewer than two 1s can never move;
    it runs anyway and warns once.
    """
    require_compatible(initial, weights)
    stat_defs = [get_statistic(name) for name in config.statistics]
    for stat in stat_defs:
        if stat.square_only and initial.m != initial.n:
            raise ValueError(
                f"statistic {stat.name!r} needs a square matrix, got {initial.m}x{initial.n}"
            )
    rows = initial._row_bits()
    u = UniformStream(_chain_rng(config.seed, chain_index)).u
    if config.algorithm == "curveball":
        if initial.m < 2:
            raise ValueError("curveball needs at least two rows")
        step = curveball._stepper(rows, weights._pos_masks, weights._log_rows, u)
    else:
        if len(initial.ones) < 2:
            warnings.warn(
                "swap chain on a matrix with fewer than two 1s can never move",
                stacklevel=2,
            )
        step = swap._stepper(rows, initial.copy().ones, weights._log_rows, u)

    counts = [0, 0, 0]
    recorders = [(stat.name, stat.func, []) for stat in stat_defs]
    kept: list[BinaryMatrix] | None = [] if config.keep_matrices else None
    for _ in range(config.burn_in):
        counts[step()] += 1
    # a statistic is a function of the state, so its values are reused
    # until the state next changes; every kept matrix is a fresh object
    last_rows = last_values = None
    for _ in range(config.retained):
        for _ in range(config.thin):
            counts[step()] += 1
        if kept is not None:
            kept.append(BinaryMatrix._from_row_bits(rows, initial.n))
        if recorders:
            if rows != last_rows:
                snapshot = kept[-1] if kept else BinaryMatrix._from_row_bits(rows, initial.n)
                last_values = [func(snapshot) for _, func, _ in recorders]
                last_rows = rows.copy()
            for (_, _, out), value in zip(recorders, last_values):
                out.append(value)

    return Trace(
        config=config,
        chain_index=chain_index,
        values={name: np.asarray(out, dtype=np.float64) for name, _, out in recorders},
        matrices=kept,
        counters=ChainCounters(proposals=config.total_proposals, no_ops=counts[0],
                               rejections=counts[1], acceptances=counts[2]),
    )


def _run_indexed(args) -> Trace:
    initial, weights, config, index = args
    return run_chain(initial, weights, config, chain_index=index)


def run_ensemble(initial: BinaryMatrix, weights: WeightMatrix, config: ChainConfig,
                 n_chains: int, n_jobs: int = 1) -> list[Trace]:
    """Run independent chains 0..n_chains-1 of the same config.

    Chains differ only in their seed derivation, so the result is identical
    whether they run serially or across `n_jobs` worker processes.
    """
    if n_chains < 1:
        raise ValueError("n_chains must be >= 1")
    jobs = [(initial, weights, config, index) for index in range(n_chains)]
    if n_jobs > 1:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            return list(pool.map(_run_indexed, jobs))
    return [_run_indexed(job) for job in jobs]


# -- input generators ---------------------------------------------------------

WEIGHT_PRESETS = ("ones", "exponential", "uniform01", "uniform05")


def preset_weights(name: str, m: int, n: int, rng=None) -> WeightMatrix:
    """Weight matrices with iid entries from a named distribution.

    "ones" is the uniform model; "exponential" draws Exponential(1);
    "uniform01" draws Uniform(0, 1); "uniform05" draws Uniform(0.5, 1).
    """
    rng = np.random.default_rng(rng)
    if name == "ones":
        return WeightMatrix.all_ones(m, n)
    if name == "exponential":
        return WeightMatrix(rng.exponential(1.0, size=(m, n)))
    if name == "uniform01":
        return WeightMatrix(rng.random(size=(m, n)))
    if name == "uniform05":
        return WeightMatrix(rng.uniform(0.5, 1.0, size=(m, n)))
    raise ValueError(f"unknown preset {name!r}; known presets: {', '.join(WEIGHT_PRESETS)}")


def with_random_zeros(weights: WeightMatrix, prob: float, rng=None) -> WeightMatrix:
    """Zero out each cell independently with probability `prob`.

    Scattered zeros are almost never monotonic, so chains on such weights may
    be reducible; this mirrors a worst-case zero pattern for stress tests.
    """
    if not 0 <= prob <= 1:
        raise ValueError("prob must be in [0, 1]")
    rng = np.random.default_rng(rng)
    keep = rng.random(size=(weights.m, weights.n)) >= prob
    return WeightMatrix(weights.weights * keep)


def with_corner_zeros(weights: WeightMatrix, fraction: float) -> WeightMatrix:
    """Zero out the smallest bottom-left corner triangle covering >= `fraction`.

    The triangle is the set of cells within a fixed grid distance of the
    bottom-left corner, so the zero pattern is monotonic by construction and
    the swap chain stays connected.
    """
    if not 0 <= fraction <= 1:
        raise ValueError("fraction must be in [0, 1]")
    m, n = weights.m, weights.n
    rows = np.arange(m)[:, None]
    cols = np.arange(n)[None, :]
    corner_depth = (m - 1 - rows) + cols
    target = fraction * m * n
    side = 0
    while side <= m + n and (corner_depth < side).sum() < target:
        side += 1
    mask = corner_depth >= side
    return WeightMatrix(weights.weights * mask)


def random_binary_matrix(m: int, n: int, density: float, rng=None,
                         weights: WeightMatrix | None = None) -> BinaryMatrix:
    """Bernoulli(density) matrix, with cells on zero weights forced to 0.

    The realized density is therefore a bit below `density` whenever the
    weights carry structural zeros.
    """
    if not 0 <= density <= 1:
        raise ValueError("density must be in [0, 1]")
    rng = np.random.default_rng(rng)
    ent = (rng.random(size=(m, n)) < density).astype(np.int8)
    if weights is not None:
        if (weights.m, weights.n) != (m, n):
            raise ValueError("weights shape does not match the requested matrix shape")
        ent[weights.weights == 0.0] = 0
    return BinaryMatrix(ent)


# -- config files --------------------------------------------------------------

_CONFIG_KEYS = ("algorithm", "burn_in", "thin", "retained", "seed", "statistics", "keep_matrices")


def load_chain_config(path) -> ChainConfig:
    """Read a ChainConfig from a key=value file.

    Recognized keys match the ChainConfig fields; `statistics` is a
    comma-separated list and `keep_matrices` accepts true/false/1/0.  Lines
    starting with '#' and blank lines are ignored.  Missing keys take the
    ChainConfig defaults.
    """
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
            key, _, raw = stripped.partition("=")
            key = key.strip()
            raw = raw.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(
                    f"{path}:{lineno}: unknown key {key!r}; known keys: {', '.join(_CONFIG_KEYS)}"
                )
            if key in ("burn_in", "thin", "retained", "seed"):
                values[key] = int(raw)
            elif key == "statistics":
                values[key] = tuple(s.strip() for s in raw.split(",") if s.strip())
            elif key == "keep_matrices":
                lowered = raw.lower()
                if lowered not in ("true", "false", "1", "0"):
                    raise ValueError(f"{path}:{lineno}: keep_matrices must be true/false/1/0")
                values[key] = lowered in ("true", "1")
            else:
                values[key] = raw
    return ChainConfig(**values)
