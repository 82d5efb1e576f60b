"""Log-domain values: huge integers, rationals, log-sum-exp and rendering."""

import math
from fractions import Fraction

import pytest

from hypercount import format_log, log_of, log_sum_exp
from hypercount.logdomain import relative_error


def test_huge_integer():
    assert log_of(2 ** 2000) == pytest.approx(2000 * math.log(2), rel=1e-12)


def test_fraction_and_int_agree():
    assert log_of(Fraction(3, 4)) == pytest.approx(math.log(0.75))
    assert log_of(12) == pytest.approx(math.log(12))


def test_zero_and_negative():
    assert log_of(0) == float("-inf")
    with pytest.raises(ValueError):
        log_of(-1)


def test_log_sum_exp():
    assert log_sum_exp([]) == float("-inf")
    assert log_sum_exp([math.log(3), math.log(5)]) == pytest.approx(math.log(8))


def test_relative_error_beyond_the_float_range():
    assert relative_error(math.log(3), math.log(2)) == math.exp(
        math.log(3) - math.log(2)) - 1
    assert relative_error(-1000.0, 0.0) == -1
    assert relative_error(1000.0, 0.0) == math.inf


def test_rendering():
    assert format_log(log_of(0)) == "0"
    assert format_log(log_of(10 ** 50)).endswith("e+50")
    assert log_of(1000) / math.log(10) == pytest.approx(3)
