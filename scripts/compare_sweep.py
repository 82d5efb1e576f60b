#!/usr/bin/env python3
"""Sweep seeded instances and compare the exact independent-set count
against truncated-expansion estimates and closed forms.

Prints a CSV table (stdout) with relative errors.  The truncation guarantee
is asymptotic, so at desk scale the errors are reported, not judged.

Usage: python scripts/compare_sweep.py [max_n]
"""

import sys

from hypercount import (closed_form_t1, count_independent_sets,
                        estimate_count, gen_linear_regular)
from hypercount.errors import GenerationError
from hypercount.logdomain import log_of, relative_error


def rel_error(log_est: float, exact: int) -> float:
    return relative_error(log_est, log_of(exact))


def main() -> None:
    max_n = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    print("k,n,r,seed,exact,rel_err_t1,rel_err_t2,rel_err_closed_t1")
    for k in (3, 4):
        for n in range(2, max_n + 1):
            for r in (1, 2):
                if r > n:
                    continue
                for seed in (0, 1):
                    try:
                        G = gen_linear_regular(k, n, r, seed=seed)
                    except GenerationError:
                        continue
                    exact = count_independent_sets(G)
                    e1 = rel_error(estimate_count(G, 1).log_value, exact)
                    e2 = rel_error(estimate_count(G, 2).log_value, exact)
                    c1 = rel_error(closed_form_t1(k, n, r).log_value, exact)
                    print(f"{k},{n},{r},{seed},{exact},"
                          f"{e1:.6g},{e2:.6g},{c1:.6g}")


if __name__ == "__main__":
    main()
