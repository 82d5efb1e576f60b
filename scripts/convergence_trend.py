#!/usr/bin/env python3
"""Report how the truncated log partition sum approaches the exact value as
the size budget grows.

For each tiny instance, prints |truncated(t) - log Xi| for t = 1..6.  The
series is asymptotic in general, so the errors are printed for the reader
to judge, neither asserted nor labelled.

Usage: python scripts/convergence_trend.py
"""

import math

from hypercount import (gen_linear_regular, partition_function,
                        truncated_log_xi)
from hypercount.errors import GenerationError


def main() -> None:
    cases = [(3, 2, 1, 0), (3, 3, 1, 0), (3, 3, 2, 1), (3, 4, 2, 0)]
    for k, n, r, seed in cases:
        try:
            G = gen_linear_regular(k, n, r, seed=seed)
        except GenerationError:
            continue
        cls = 0
        exact = math.log(float(partition_function(G, cls, n)))
        errors = [abs(float(truncated_log_xi(G, cls, t)) - exact)
                  for t in range(1, 7)]
        trend = " ".join(f"{e:.3e}" for e in errors)
        print(f"k={k} n={n} r={r} seed={seed}: |trunc(t) - log Xi| = {trend}")


if __name__ == "__main__":
    main()
