"""Exact security math against brute-force oracles and frozen values."""

import math
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from qauthsim.secparams import (
    evasion_prob,
    forgery_prob,
    improvement_limit,
    pns_approx_evasion,
    pns_effective_d,
    pns_exact_evasion,
    pns_required_d,
    ratio_d_over_k,
    required_d,
    required_k,
    subset_success_prob,
)


def _subset_success_oracle(k: int, d: int, g: int) -> Fraction:
    """Enumerate every g-sized guess over k+d positions (keys fixed at the
    front), weighting each covering guess by its undetected probability."""
    total = Fraction(0)
    keys = frozenset(range(k))
    for chosen in combinations(range(k + d), g):
        if keys <= set(chosen):
            total += Fraction(3, 4) ** (g - k)
    return total / comb(k + d, g)


class TestForgeryEvasion:
    def test_forgery_values(self):
        assert forgery_prob(0) == 1
        assert forgery_prob(6) == Fraction(1, 64)
        assert float(forgery_prob(6)) == 0.015625
        assert forgery_prob(17) == Fraction(1, 131072)
        assert abs(float(forgery_prob(17)) - 7.6294e-6) < 1e-9

    def test_evasion_values(self):
        assert evasion_prob(0) == 1
        assert evasion_prob(1) == Fraction(3, 4)
        assert evasion_prob(41) == Fraction(3 ** 41, 4 ** 41)
        assert abs(float(evasion_prob(41)) - 7.54e-6) < 1e-8

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            forgery_prob(-1)
        with pytest.raises(ValueError):
            evasion_prob(-1)


class TestRequiredCounts:
    def test_headline_sizing(self):
        target = Fraction(1, 2 ** 17)
        assert required_k(target) == 17
        assert required_d(target) == 41

    def test_rounded_constant_would_overshoot(self):
        # the rounded slot factor 3.48 lands on 42 here; the exact
        # minimality search is what recovers 41
        d_rounded = math.ceil(-3.48 * math.log(2 ** -17))
        assert d_rounded == 42
        assert required_d(Fraction(1, 2 ** 17)) == 41

    def test_half(self):
        assert required_k(0.5) == 1
        assert required_d(0.5) == 3

    def test_one_in_a_million(self):
        target = Fraction(1, 10 ** 6)
        assert required_k(target) == 20
        assert required_d(target) == 49

    def test_below_float_range(self):
        # 2**-2000 underflows a float; the search must not depend on one
        target = Fraction(1, 2 ** 2000)
        assert required_k(target) == 2000
        d = required_d(target)
        assert evasion_prob(d) <= target < evasion_prob(d - 1)

    def test_range_validation(self):
        for bad in (0, 1, -0.5, 1.5):
            with pytest.raises(ValueError):
                required_k(bad)
            with pytest.raises(ValueError):
                required_d(bad)

    @settings(max_examples=200, deadline=None)
    @given(st.fractions(min_value=Fraction(1, 10 ** 12),
                        max_value=Fraction(1, 2)))
    def test_postconditions_and_minimality(self, target):
        k = required_k(target)
        d = required_d(target)
        assert forgery_prob(k) <= target
        assert evasion_prob(d) <= target
        if k > 0:
            assert forgery_prob(k - 1) > target
        if d > 0:
            assert evasion_prob(d - 1) > target

    @settings(max_examples=100, deadline=None)
    @given(st.fractions(min_value=Fraction(1, 10 ** 9), max_value=Fraction(1, 2)),
           st.fractions(min_value=Fraction(1, 10 ** 9), max_value=Fraction(1, 2)))
    def test_monotone_in_target(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert required_k(lo) >= required_k(hi)
        assert required_d(lo) >= required_d(hi)

    def test_ratio(self):
        r = ratio_d_over_k()
        assert round(r, 2) == 2.41
        assert abs(r - math.log(2) / math.log(4 / 3)) == 0
        # the asymptotic ratio shows up in large sizings
        target = Fraction(1, 10 ** 9)
        assert abs(required_d(target) / required_k(target) - r) < 0.05


class TestSubsetGuess:
    def test_matches_enumeration_everywhere(self):
        for k in range(1, 4):
            for d in range(0, 6):
                for g in range(k, k + d + 1):
                    assert subset_success_prob(k, d, g) == \
                        _subset_success_oracle(k, d, g), (k, d, g)

    def test_boundaries(self):
        assert subset_success_prob(2, 3, 2) == Fraction(1, comb(5, 2))
        assert subset_success_prob(2, 3, 5) == evasion_prob(3)
        assert subset_success_prob(2, 3, 3) == Fraction(27, 120)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            subset_success_prob(2, 3, 1)
        with pytest.raises(ValueError):
            subset_success_prob(2, 3, 6)
        with pytest.raises(ValueError):
            subset_success_prob(0, 3, 2)

    def test_gain_ratio_identity(self):
        # growing the guess by one multiplies the success probability by
        # the ratio of covering counts times the per-slot evasion factor
        for k in range(1, 4):
            for d in range(1, 6):
                for g in range(k, k + d):
                    lhs = subset_success_prob(k, d, g + 1) / \
                        subset_success_prob(k, d, g)
                    assert lhs == Fraction(g + 1, g + 1 - k) * Fraction(3, 4)

    def test_improvement_boundary(self):
        assert improvement_limit(1) == 3
        assert improvement_limit(3) == 11
        # strict improvement below the limit, none at or above it
        for k in range(1, 5):
            d = 4 * k + 4
            limit = improvement_limit(k)
            for g in range(k, k + d):
                gain = subset_success_prob(k, d, g + 1) > subset_success_prob(k, d, g)
                assert gain == (g < limit), (k, g)

    def test_small_case_monotone_to_the_cap(self):
        # k+d below the improvement limit: guessing everything is best
        vals = [subset_success_prob(2, 3, g) for g in range(2, 6)]
        assert vals == sorted(vals)
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_best_guess_count(self):
        # at d ~ 2.41k, k + d <= 4k - 1: guessing every position is best
        for k in range(2, 11):
            d = math.ceil(2.41 * k)
            best = max(range(k, k + d + 1),
                       key=lambda g: subset_success_prob(k, d, g))
            assert best == k + d
        # with many more positions the optimum stops at the improvement limit
        best = max(range(2, 23), key=lambda g: subset_success_prob(2, 20, g))
        assert best == improvement_limit(2) == 7


class TestPNS:
    def test_effective_and_required(self):
        assert pns_effective_d(16, 0.5) == 8.0
        assert pns_required_d(16, 0.5) == 32
        assert pns_required_d(16, 1.0) == 16
        assert pns_required_d(10, 0.3) == 34  # ceil(33.33)

    def test_exact_evasion_frozen(self):
        assert pns_exact_evasion(16, 0.5) == \
            Fraction(33232930569601, 281474976710656)
        assert pns_exact_evasion(16, 0.5) == Fraction(7, 8) ** 16
        assert abs(float(pns_exact_evasion(16, 0.5)) - 0.11807) < 1e-5

    def test_approx_frozen(self):
        assert abs(pns_approx_evasion(16, 0.5) - 0.75 ** 8) == 0
        assert abs(pns_approx_evasion(16, 0.5) - 0.1001) < 1e-4

    def test_single_photon_limit(self):
        assert pns_exact_evasion(8, 1.0) == evasion_prob(8)
        assert pns_approx_evasion(8, 1.0) == 0.75 ** 8

    def test_exact_dominates_approximation(self):
        for p1_pct in range(5, 100, 5):
            p1 = Fraction(p1_pct, 100)
            for d in (1, 4, 16, 40):
                exact = float(pns_exact_evasion(d, p1))
                approx = pns_approx_evasion(d, p1)
                assert exact >= approx - 1e-15, (p1, d)

    def test_inflation_restores_target(self):
        # approx-model evasion at the inflated count never exceeds the
        # single-photon target: p1 * ceil(d/p1) >= d, exactly
        for p1_pct in (10, 25, 50, 73, 100):
            p1 = Fraction(p1_pct, 100)
            for d in (1, 8, 16, 41):
                inflated = pns_required_d(d, p1)
                assert p1 * inflated >= d
                assert pns_approx_evasion(inflated, p1) <= float(evasion_prob(d)) * (1 + 1e-12)

    def test_p1_validation(self):
        for bad in (0, -0.1, 1.01):
            with pytest.raises(ValueError):
                pns_exact_evasion(4, bad)
        with pytest.raises(ValueError):
            pns_required_d(-1, 0.5)
