"""Closed-form constants and estimates for linear regular instances.

Everything that can be a rational is a rational.  The size-2 closed form
carries both the printed pair-cluster count and the enumeration-derived one
(they differ by the diagonal pair), never silently preferring either.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import InputError


def gamma_k(k: int) -> Fraction:
    """2^(k-1) / (2^(k-1) - 1): the reciprocal singleton weight per edge in
    linear instances."""
    if k < 2:
        raise InputError("gamma_k requires k >= 2")
    return Fraction(1 << (k - 1), (1 << (k - 1)) - 1)


class ClosedFormEstimate(NamedTuple):
    """log_value = log(k) + (k-1) n log(2) + exponent, carried exactly in the
    exponent and as a float at the log boundary."""

    exponent: Fraction
    log_value: float
    corrected_exponent: Optional[Fraction] = None
    corrected_log_value: Optional[float] = None
    correction_delta: Optional[Fraction] = None


def _assemble_log(k: int, n: int, exponent: Fraction) -> float:
    return math.log(k) + (k - 1) * n * math.log(2) + float(exponent)


def _check_args(k: int, n: int, r: int) -> None:
    if k < 3:
        raise InputError("closed forms require k >= 3")
    if n < 1 or r < 1:
        raise InputError("closed forms require n >= 1 and r >= 1")


def singleton_sum(k: int, n: int, r: int) -> Fraction:
    """Total weight of the n single-vertex clusters of one class in a linear
    r-regular instance: each link graph is a perfect matching of r edges."""
    return n * gamma_k(k) ** (-r)


def closed_form_t1(k: int, n: int, r: int) -> ClosedFormEstimate:
    """Size-1 truncation for linear r-regular instances."""
    _check_args(k, n, r)
    exponent = singleton_sum(k, n, r)
    return ClosedFormEstimate(exponent=exponent,
                              log_value=_assemble_log(k, n, exponent))


def ordered_pair_sum_enumerated(k: int, n: int, r: int) -> Fraction:
    """Aggregate weight of ordered singleton-pair clusters using the
    enumeration-derived count: each vertex has (k-1)r(r-1) distinct
    shared-neighbour partners plus itself once, so there are
    n((k-1)r(r-1) + 1) ordered pairs."""
    pairs = (k - 1) * r * (r - 1) + 1
    return Fraction(-1, 2) * n * pairs * gamma_k(k) ** (-2 * r)


def pair_polymer_sum(k: int, n: int, r: int) -> Fraction:
    """Aggregate weight of the (1/2) n (k-1) r (r-1) two-vertex polymers in a
    girth-at-least-5 linear r-regular instance."""
    half_pairs = Fraction(n * (k - 1) * r * (r - 1), 2)
    shared = Fraction(1, 2) + Fraction(1, 2) * Fraction((1 << (k - 2)) - 1,
                                                        1 << (k - 2)) ** 2
    return half_pairs * gamma_k(k) ** (-(2 * r - 2)) * shared


def closed_form_t2(k: int, n: int, r: int) -> ClosedFormEstimate:
    """Size-2 truncation for girth-at-least-5 linear r-regular instances.

    `exponent` follows the printed formula verbatim; `corrected_exponent`
    replaces the printed ordered-pair count by the enumeration-derived one.
    Their difference is ((k-1)r - 1) n / (2 gamma^(2r)) exactly.
    """
    _check_args(k, n, r)
    gamma = gamma_k(k)
    bracket = (Fraction(r - 1, r) * gamma ** 2
               * (1 + Fraction((1 << (k - 2)) - 1, 1 << (k - 2)) ** 2)
               - 2)
    exponent = (singleton_sum(k, n, r)
                + Fraction(k - 1, 4) * r * r * n * gamma ** (-2 * r) * bracket)
    corrected = (singleton_sum(k, n, r)
                 + ordered_pair_sum_enumerated(k, n, r)
                 + pair_polymer_sum(k, n, r))
    delta = corrected - exponent
    return ClosedFormEstimate(
        exponent=exponent,
        log_value=_assemble_log(k, n, exponent),
        corrected_exponent=corrected,
        corrected_log_value=_assemble_log(k, n, corrected),
        correction_delta=delta,
    )
