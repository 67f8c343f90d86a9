import math

import mpmath
import pytest

from rareflow import oracles


def binomial_tail_mpmath(n, p, k_min):
    with mpmath.workdps(50):
        p = mpmath.mpf(p)
        return float(mpmath.fsum(mpmath.binomial(n, k) * p**k * (1 - p) ** (n - k) for k in range(k_min, n + 1)))


class TestBinomialTail:
    @pytest.mark.parametrize("n, p, k_min", [
        (2000, 0.25, 1000),   # ~3e-127, far past the old overflow at n ~ 1030
        (2000, 0.4, 1000),
        (2000, 0.1, 150),     # near 1: the tail holds the mode
        (5000, 0.25, 1700),   # ~5e-46
        (5000, 0.5, 2600),
        (5000, 0.3, 1400),
    ])
    def test_large_n_against_mpmath(self, n, p, k_min):
        exact = binomial_tail_mpmath(n, p, k_min)
        assert oracles.binomial_tail(n, p, k_min) == pytest.approx(exact, rel=1e-10, abs=0.0)

    def test_small_n_matches_direct_sum(self):
        direct = sum(math.comb(25, k) * 0.25**k * 0.75 ** (25 - k) for k in range(13, 26))
        assert oracles.binomial_tail(25, 0.25, 13) == pytest.approx(direct, rel=1e-14)

    def test_edges(self):
        assert oracles.binomial_tail(10, 0.3, 0) == 1.0
        assert oracles.binomial_tail(10, 0.3, 11) == 0.0
        assert oracles.binomial_tail(10, 0.3, 10) == pytest.approx(0.3**10, rel=1e-13)
