"""
How fast do the two chains forget their start?
==============================================

The swap chain moves at most two 1s per step; a curveball trade can
relocate many at once.  On larger matrices that difference shows up
directly in the effective sample size (ESS) of any statistic traced
along the run: more effective samples per iteration means faster
mixing.  A curveball step also costs more time than a swap step, so
the figure that decides which chain to run is ESS per second.

Ten seeds per algorithm on a 20x20 problem, 10,000 iterations each.
"""

import time

import numpy as np

from fixedmargin import WeightMatrix
from fixedmargin.chains import ChainConfig, random_binary_matrix, run_chain
from fixedmargin.stats import diagnose

start = random_binary_matrix(20, 20, 0.25, np.random.default_rng(42))
weights = WeightMatrix.all_ones(20, 20)
print(f"start: 20x20 with {int(start.row_sums.sum())} ones\n")

ess_mean, ess_rate = {}, {}
for algorithm in ("swap", "curveball"):
    sizes, seconds = [], 0.0
    for seed in range(10):
        config = ChainConfig(algorithm=algorithm, burn_in=0, thin=1,
                             retained=10_000, seed=seed,
                             statistics=("diag-divergence",))
        begin = time.perf_counter()
        trace = run_chain(start, weights, config)
        seconds += time.perf_counter() - begin
        sizes.append(diagnose(trace.values["diag-divergence"]).ess)
    ess_mean[algorithm] = np.mean(sizes)
    # the chains' own time, statistics included; the ESS estimate is not
    ess_rate[algorithm] = np.sum(sizes) / seconds
    print(f"{algorithm:9s} ESS per seed: "
          + " ".join(f"{v:6.0f}" for v in sizes)
          + f"   {seconds:.2f} s, ESS/s {ess_rate[algorithm]:.0f}")

per_step = ess_mean["curveball"] / ess_mean["swap"]
per_second = ess_rate["curveball"] / ess_rate["swap"]
print(f"\nmean ESS: swap {ess_mean['swap']:.0f}, curveball {ess_mean['curveball']:.0f} "
      f"({per_step:.1f}x)")
print(f"ESS per second: swap {ess_rate['swap']:.0f}, curveball {ess_rate['curveball']:.0f} "
      f"({per_second:.2f}x)")
print(f"per retained sample the curveball chain carries {per_step:.1f}x the "
      f"information; per second of sampling it delivers {per_second:.2f}x "
      f"the effective samples, so on this problem "
      f"{'curveball' if per_second > 1 else 'swap'} is the faster way to them")
