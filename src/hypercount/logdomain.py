"""Log-domain representation for counts too large for floating point.

Quantities like 2^((k-1)n) * exp(...) overflow doubles almost immediately,
so estimates are carried as natural logarithms and only combined through
log-sum-exp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


@dataclass(frozen=True)
class LogValue:
    """A non-negative real stored as its natural logarithm."""

    log: float

    @classmethod
    def of(cls, x: Number) -> "LogValue":
        if x < 0:
            raise ValueError("LogValue represents non-negative reals")
        if x == 0:
            return cls(float("-inf"))
        if isinstance(x, Fraction):
            # math.log takes ints of any size, but not a Fraction over
            # the float range
            return cls(math.log(x.numerator) - math.log(x.denominator))
        return cls(math.log(x))

    @classmethod
    def from_log(cls, log: float) -> "LogValue":
        return cls(float(log))

    @property
    def log10(self) -> float:
        return self.log / math.log(10)

    def __str__(self) -> str:
        if self.log == float("-inf"):
            return "0"
        exp10 = self.log10
        mantissa = 10 ** (exp10 - math.floor(exp10))
        return f"{mantissa:.6f}e{math.floor(exp10):+d}"

