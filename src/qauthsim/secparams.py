"""Closed-form security quantities, computed exactly.

Everything here is a pure function over rationals.  Floats are accepted at
the boundary and converted with ``Fraction`` (exact for every float), and
results that are probabilities come back as ``Fraction`` so tests can
compare without tolerance.

Sizing functions use exact minimality searches instead of the familiar
rounded constants: with the rounded factor 3.48 the detection-slot count
for a 2^-17 target comes out 42, while the true minimum is 41.  The exact
slot ratio ln 2 / ln(4/3) = 2.40942... is exposed for reporting only.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb

Probability = Fraction
_NumberIn = float | int | Fraction


def _as_fraction(value: _NumberIn, name: str) -> Fraction:
    frac = Fraction(value)
    if not 0 < frac < 1:
        raise ValueError(f"{name} must be in (0, 1), got {value!r}")
    return frac


def forgery_prob(k: int) -> Probability:
    """Chance a token of k random bits is guessed outright."""
    if k < 0:
        raise ValueError("k must be non-negative")
    return Fraction(1, 1 << k)


def evasion_prob(d: int) -> Probability:
    """Chance a measure-everything tap disturbs none of d detection slots."""
    if d < 0:
        raise ValueError("d must be non-negative")
    return Fraction(3 ** d, 4 ** d)


def _min_exponent(base: Fraction, target: Fraction) -> int:
    """Smallest e >= 0 with base**e <= target, for base in (0,1).

    The starting guess comes from logs of the integer numerators and
    denominators (a float of the target itself underflows to 0 below about
    1e-308); the answer is settled by exact integer comparisons, so
    boundary cases cannot round the wrong way.
    """
    def log(x: Fraction) -> float:
        return math.log(x.numerator) - math.log(x.denominator)

    guess = max(0, int(log(target) / log(base)) - 2)
    e = guess
    while base ** e > target:
        e += 1
    while e > 0 and base ** (e - 1) <= target:
        e -= 1
    return e


def required_k(target: _NumberIn) -> int:
    """Minimal key-bit count with forgery_prob(k) <= target."""
    return _min_exponent(Fraction(1, 2), _as_fraction(target, "target"))


def required_d(target: _NumberIn) -> int:
    """Minimal detection-slot count with evasion_prob(d) <= target."""
    return _min_exponent(Fraction(3, 4), _as_fraction(target, "target"))


def ratio_d_over_k() -> float:
    """Asymptotic detection-to-key slot ratio, ln 2 / ln(4/3) = 2.4094..."""
    return math.log(2) / math.log(4 / 3)


def subset_success_prob(k: int, d: int, g: int) -> Probability:
    """Chance that guessing g of the k+d positions covers every key slot
    and the g-k touched detection slots all go unnoticed."""
    if k < 1 or d < 0:
        raise ValueError("need k >= 1 and d >= 0")
    if not k <= g <= k + d:
        raise ValueError(f"g must be in [{k}, {k + d}], got {g}")
    covering = Fraction(comb(d, g - k), comb(k + d, g))
    return covering * Fraction(3, 4) ** (g - k)


def improvement_limit(k: int) -> int:
    """Guessing more positions helps strictly while g < 4k - 1: growing the
    guess from g to g + 1 multiplies the success probability by
    (g + 1) / (g + 1 - k) * 3/4."""
    if k < 1:
        raise ValueError("k must be positive")
    return 4 * k - 1


def pns_effective_d(d: int, p1: _NumberIn) -> float:
    """Detection slots an ideal splitter effectively faces: p1 * d."""
    return float(_p1_fraction(p1) * d)


def pns_required_d(d_target: int, p1: _NumberIn) -> int:
    """Slots needed so the splitter still effectively faces d_target."""
    if d_target < 0:
        raise ValueError("d_target must be non-negative")
    return math.ceil(Fraction(d_target) / _p1_fraction(p1))


def pns_exact_evasion(d: int, p1: _NumberIn) -> Probability:
    """Per-slot model: a slot is single-photon (and measured, risking
    detection at 1/4) with probability p1, else split silently."""
    if d < 0:
        raise ValueError("d must be non-negative")
    return (1 - _p1_fraction(p1) / 4) ** d


def pns_approx_evasion(d: int, p1: _NumberIn) -> float:
    """First-order approximation 0.75^(p1*d); reported beside the exact
    value, which is always at least as large."""
    if d < 0:
        raise ValueError("d must be non-negative")
    return 0.75 ** float(_p1_fraction(p1) * d)


def _p1_fraction(p1: _NumberIn) -> Fraction:
    frac = Fraction(p1)
    if not 0 < frac <= 1:
        raise ValueError(f"p1 must be in (0, 1], got {p1!r}")
    return frac
