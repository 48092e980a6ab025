"""Correctness gate for the benchmark's scenario runs.

Every graded metric of every scenario run is checked.  A metric whose
closed form is exactly 0 or 1 has zero binomial sigma, so the harness's
verdict is exact and is checked on every pass.  A metric with a nonzero
sigma is pooled over all passes of the run and graded once, with the
harness's rule (|mean - analytic| <= 4 sigma, sigma = sqrt(a(1-a)/n)).

Grading the statistical metrics per pass instead would make a correct
program fail: a run makes thousands of 4-sigma comparisons, each with a
false-alarm rate of about 6e-5, and at the paper sizing some closed forms
are rare events (0.75^41 = 7.5e-6 intercept evasion, 2^-17 forgery under
the measured rule) where a single occurrence in fewer than ~8000 trials
is already beyond 4 sigma.  Where the pooled sample is still too small for
the normal approximation (n a (1-a) < 9) the pooled count is graded with
exact binomial tails at the same one-sided level as 4 sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

Z = 4.0
TAIL = 0.5 * math.erfc(Z / math.sqrt(2.0))  # one-sided P(N(0,1) > 4)


def binom_tails(x: int, n: int, p: float) -> tuple[float, float]:
    """(P[X <= x], P[X >= x]) for X ~ Binomial(n, p), 0 < p < 1."""
    log_p, log_q = math.log(p), math.log1p(-p)

    def pmf(j: int) -> float:
        return math.exp(math.lgamma(n + 1) - math.lgamma(j + 1)
                        - math.lgamma(n - j + 1) + j * log_p + (n - j) * log_q)

    below = sum(pmf(j) for j in range(x))  # P[X < x]
    return min(1.0, below + pmf(x)), max(0.0, 1.0 - below)


def within_bound(mean: float, n: int, analytic: float) -> bool:
    """The harness's 4-sigma rule, or exact tails where it is not valid."""
    variance = analytic * (1.0 - analytic)
    if n * variance >= 9.0:
        return abs(mean - analytic) <= Z * math.sqrt(variance / n)
    low, high = binom_tails(round(mean * n), n, analytic)
    return min(low, high) >= TAIL


@dataclass
class _Pool:
    analytic: float
    num: float = 0.0
    den: int = 0


@dataclass
class Gate:
    """Per-scenario pools of the statistical metrics, plus the checks that
    are exact per pass."""

    pools: dict[tuple[str, str], _Pool] = field(default_factory=dict)

    def check_pass(self, label: str, report) -> list[str]:
        """Failures of one scenario run; pools its statistical metrics."""
        failures = []
        for m in report.metrics:
            if m.verdict is None:
                continue
            if m.analytic in (0.0, 1.0):
                if m.verdict != "pass":
                    failures.append(f"{m.name}={m.mean} expected {m.analytic}")
                continue
            self.pool(label, m.name, m.analytic, m.mean * m.n, m.n)
        return failures

    def pool(self, label: str, name: str, analytic: float, hits: float,
             n: int) -> None:
        """Add ``hits`` successes in ``n`` samples to a pooled metric."""
        pool = self.pools.setdefault((label, name), _Pool(analytic))
        pool.num += hits
        pool.den += n

    def pooled_failures(self) -> dict[str, list[str]]:
        """Scenario label -> statistical metrics that fail the pooled check."""
        out: dict[str, list[str]] = {}
        for (label, name), pool in self.pools.items():
            if pool.den and not within_bound(pool.num / pool.den, pool.den,
                                             pool.analytic):
                out.setdefault(label, []).append(
                    f"{name}={pool.num / pool.den:.6g} over n={pool.den},"
                    f" closed form {pool.analytic:.6g}")
        return out


def lost_stream_prob(k: int, d: int, p_loss: float) -> float:
    """Chance at least one of the 2(k+d) emitted photons is lost."""
    return 1.0 - (1.0 - p_loss) ** (2 * (k + d))
