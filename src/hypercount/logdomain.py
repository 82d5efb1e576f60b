"""Log-domain arithmetic for counts too large for floating point.

Quantities like 2^((k-1)n) * exp(...) overflow doubles almost immediately,
so estimates are carried as plain float natural logarithms: log_of takes
the logarithm of an exact count, log_sum_exp combines logarithms,
relative_error compares them and format_log renders one for printing.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

Number = Union[int, float, Fraction]


def log_sum_exp(values: Iterable[float]) -> float:
    vals = list(values)
    if not vals:
        return float("-inf")
    peak = max(vals)
    if peak == float("-inf"):
        return peak
    return peak + math.log(sum(math.exp(v - peak) for v in vals))


def relative_error(log_estimate: float, log_exact: float) -> float:
    """The relative error exp(log_estimate - log_exact) - 1 of an estimate
    given in the log domain, or inf when the ratio is past the float
    range."""
    try:
        return math.exp(log_estimate - log_exact) - 1
    except OverflowError:
        return math.inf


def log_of(x: Number) -> float:
    """The natural logarithm of a non-negative int, Fraction or float of
    any size: -inf at 0, ValueError below it."""
    if x < 0:
        raise ValueError("log_of takes non-negative reals")
    if x == 0:
        return float("-inf")
    if isinstance(x, Fraction):
        # math.log takes ints of any size, but not a Fraction over the float
        # range
        return math.log(x.numerator) - math.log(x.denominator)
    return math.log(x)


def format_log(log: float) -> str:
    """The real exp(log) in scientific notation with a six-digit mantissa,
    or '0' at -inf."""
    if log == float("-inf"):
        return "0"
    exp10 = log / math.log(10)
    mantissa = 10 ** (exp10 - math.floor(exp10))
    return f"{mantissa:.6f}e{math.floor(exp10):+d}"
