"""Log-domain values: huge integers, rationals, log-sum-exp and rendering."""

import math
from fractions import Fraction

import pytest

from hypercount import LogValue, log_sum_exp
from hypercount.logdomain import relative_error


def test_huge_integer():
    v = LogValue.of(2 ** 2000)
    assert v.log == pytest.approx(2000 * math.log(2), rel=1e-12)


def test_fraction_and_int_agree():
    assert LogValue.of(Fraction(3, 4)).log == pytest.approx(math.log(0.75))
    assert LogValue.of(12).log == pytest.approx(math.log(12))


def test_zero_and_negative():
    assert LogValue.of(0).log == float("-inf")
    with pytest.raises(ValueError):
        LogValue.of(-1)


def test_log_sum_exp():
    assert log_sum_exp([]) == float("-inf")
    assert log_sum_exp([math.log(3), math.log(5)]) == pytest.approx(math.log(8))


def test_relative_error_beyond_the_float_range():
    assert relative_error(math.log(3), math.log(2)) == math.exp(
        math.log(3) - math.log(2)) - 1
    assert relative_error(-1000.0, 0.0) == -1
    assert relative_error(1000.0, 0.0) == math.inf


def test_rendering():
    assert str(LogValue.of(0)) == "0"
    assert str(LogValue.of(10 ** 50)).endswith("e+50")
    assert LogValue.of(1000).log10 == pytest.approx(3)
