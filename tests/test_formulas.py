"""Closed-form constants and estimates, checked against the engine and
against independent high-precision recomputation."""

import math
from fractions import Fraction

import pytest
from mpmath import mp

from hypercount import (InputError, closed_form_t1, closed_form_t2,
                        gamma_k, gen_linear_regular,
                        ordered_pair_sum_enumerated, pair_polymer_sum,
                        singleton_sum, truncated_log_xi)
from hypercount.errors import GenerationError

from oracles import alpha_kt, expected_t2_delta, ordered_pair_sum_printed


class TestGamma:
    @pytest.mark.parametrize("k,value", [(2, 2), (3, Fraction(4, 3)),
                                         (4, Fraction(8, 7))])
    def test_values(self, k, value):
        assert gamma_k(k) == value

    def test_rejects_small_k(self):
        with pytest.raises(InputError):
            gamma_k(1)


class TestAlpha:
    def test_in_unit_interval(self):
        for k in range(2, 9):
            for t in range(1, 7):
                a = alpha_kt(k, t)
                assert 0 < a.value < 1
                assert a.decay_branch > 0 and a.balance_branch > 0

    def test_k3_t1_value(self):
        a = alpha_kt(3, 1)
        # independent recomputation of the first branch at 50 digits
        with mp.workdps(50):
            expected = float(mp.mpf("0.5") * mp.log(mp.mpf(4) / 3, 2)
                             / mp.e ** 2)
        assert a.value == pytest.approx(expected, rel=1e-12)
        assert a.value == pytest.approx(0.02808, abs=5e-6)
        assert a.decay_branch < a.balance_branch

    def test_large_t_takes_decay_branch(self):
        for k in (3, 5):
            prev = None
            for t in range(3, 8):
                a = alpha_kt(k, t)
                assert a.value == a.decay_branch < a.balance_branch
                if prev is not None:
                    assert a.value < prev
                prev = a.value


class TestClosedFormT1:
    def test_substitution_example(self):
        est = closed_form_t1(3, 1, 1)
        assert est.exponent == Fraction(3, 4)
        assert est.log_value == pytest.approx(math.log(3) + 2 * math.log(2)
                                              + 0.75, rel=1e-12)

    def test_exponent_vanishes_for_large_r(self):
        values = [closed_form_t1(3, 4, r).exponent for r in range(1, 26)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < Fraction(1, 100)

    def test_degree_threshold_caps_exponent(self):
        # whenever gamma^r >= n the singleton term contributes at most e
        for k in (3, 4):
            for n in range(1, 30):
                for r in range(1, 14):
                    if gamma_k(k) ** r >= n:
                        assert closed_form_t1(k, n, r).exponent <= 1

    def test_engine_equality(self):
        for k, n, r, seed in [(3, 3, 1, 0), (3, 5, 2, 1), (4, 4, 2, 5)]:
            G = gen_linear_regular(k, n, r, seed=seed)
            for cls in range(k):
                assert truncated_log_xi(G, cls, 1) == \
                    closed_form_t1(k, n, r).exponent

    def test_input_gates(self):
        with pytest.raises(InputError):
            closed_form_t1(2, 1, 1)
        with pytest.raises(InputError):
            closed_form_t1(3, 0, 1)


class TestClosedFormT2:
    def test_aggregates_assemble_printed_formula(self):
        # printed bracket == singleton + printed pairs + pair polymers
        for k in (3, 4, 5):
            for n in (1, 4, 7):
                for r in (1, 2, 3, 5):
                    est = closed_form_t2(k, n, r)
                    assembled = (singleton_sum(k, n, r)
                                 + ordered_pair_sum_printed(k, n, r)
                                 + pair_polymer_sum(k, n, r))
                    assert est.exponent == assembled

    def test_corrected_uses_enumerated_pairs(self):
        for k, n, r in [(3, 2, 1), (3, 6, 2), (4, 5, 2)]:
            est = closed_form_t2(k, n, r)
            assert est.corrected_exponent == (singleton_sum(k, n, r)
                                              + ordered_pair_sum_enumerated(k, n, r)
                                              + pair_polymer_sum(k, n, r))

    def test_delta_closed_form(self):
        for k in (3, 4):
            for n in (1, 3, 6):
                for r in (1, 2, 4):
                    est = closed_form_t2(k, n, r)
                    assert est.correction_delta == expected_t2_delta(k, n, r)

    def test_single_edge_example(self):
        est = closed_form_t2(3, 1, 1)
        assert est.exponent == Fraction(3, 4) - Fraction(9, 16)
        assert est.corrected_exponent == Fraction(15, 32)
        assert est.correction_delta == Fraction(9, 32)

    def test_engine_equality_girth5(self):
        cases = [(3, n, r, seed) for n in (4, 6) for r in (1, 2)
                 for seed in (0, 1)] + [(4, 5, 1, 0)]
        tested = 0
        for k, n, r, seed in cases:
            try:
                G = gen_linear_regular(k, n, r, seed=seed, min_girth=5)
            except GenerationError:
                continue
            est = closed_form_t2(k, n, r)
            for cls in range(k):
                assert truncated_log_xi(G, cls, 2) == est.corrected_exponent
            tested += 1
        assert tested >= 5
