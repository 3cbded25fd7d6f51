import math

import mpmath as mp
import numpy as np
import pytest

from sigfrac.specfun import (NumericError, beta_fn, harmonic, hyp2f1_11,
                             sinc_pi)

from reference import quad


class TestBeta:
    def test_known_values(self):
        assert beta_fn(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
        assert beta_fn(0.5, 0.5) == pytest.approx(math.pi, rel=1e-13)
        assert beta_fn(2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            beta_fn(0.0, 1.0)
        with pytest.raises(ValueError):
            beta_fn(1.0, -2.0)


class TestSinc:
    def test_values(self):
        assert sinc_pi(0.0) == 1.0
        assert sinc_pi(0.5) == pytest.approx(2.0 / math.pi, rel=1e-14)
        assert sinc_pi(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_reflection_identity(self):
        # Gamma(1+d) Gamma(1-d) sinc(d) = 1 on a fine grid
        for d in np.linspace(0.01, 0.99, 99):
            prod = math.exp(math.lgamma(1.0 + d) + math.lgamma(1.0 - d)) \
                * sinc_pi(d)
            assert prod == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("x", [0.9, 0.99, 0.9999, 1.0 - 1e-8])
    def test_near_one_against_mpmath(self, x):
        # sin(pi x) alone loses about 1e-16/(1 - x) relative here
        ref = mp.sin(mp.pi * mp.mpf(x)) / (mp.pi * mp.mpf(x))
        assert sinc_pi(x) == pytest.approx(float(ref), rel=1e-15, abs=0.0)


class TestHarmonic:
    def test_values(self):
        assert harmonic(1) == 1.0
        assert harmonic(3) == pytest.approx(11.0 / 6.0, rel=1e-15)
        assert harmonic(4) == pytest.approx(25.0 / 12.0, rel=1e-15)

    def test_increment(self):
        for i in range(2, 60):
            assert harmonic(i) - harmonic(i - 1) == pytest.approx(
                1.0 / i, abs=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            harmonic(0)

    def test_large_index(self):
        # constant time; the next asymptotic term, 1/(12 i^2), is below
        # an ulp here
        i = 10**15
        assert harmonic(i) == pytest.approx(
            math.log(i) + np.euler_gamma + 0.5 / i, rel=2e-16)


def brute_ccdf_series(delta, t, terms=10_000):
    """Fbar_SF(t) as a ratio of truncated series: sum t^n / sum a_n t^n."""
    num = 0.0
    den = 0.0
    tn = 1.0
    an = 1.0
    for n in range(terms):
        num += tn
        den += an * tn
        an *= (n + 1.0) / (n + 1.0 - delta)
        tn *= t
    return num / den


class TestHyp2f1:
    # the mpmath oracles of the closed form run on rayleigh.sf_ccdf_exact
    def test_unit_at_zero(self):
        for d in (0.1, 0.5, 0.9):
            assert hyp2f1_11(d, 0.0) == 1.0

    def test_against_brute_force_ccdf(self):
        # 1/((1-t) 2F1) must match the direct double-series ratio
        v = hyp2f1_11(0.5, 0.5)
        assert 1.0 / (0.5 * v) == pytest.approx(brute_ccdf_series(0.5, 0.5),
                                                rel=1e-12)

    def test_euler_transform_oracle_near_one(self):
        # direct summation of the Euler-transformed series
        # (1-t)^(-1-d) 2F1(-d, -d; 1-d; t) as independent oracle
        d, t = 0.5, 0.99
        s = 1.0
        term = 1.0
        for n in range(200_000):
            term *= (n - d) * (n - d) / ((n + 1.0 - d) * (n + 1.0)) * t
            s += term
            if abs(term) < 1e-16 * s:
                break
        oracle = (1.0 - t) ** (-1.0 - d) * s
        assert hyp2f1_11(d, t) == pytest.approx(oracle, rel=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            hyp2f1_11(0.5, 1.0)
        with pytest.raises(ValueError):
            hyp2f1_11(1.2, 0.5)


class TestQuad:
    # the adaptive reference quadrature the other test modules use
    def test_constant(self):
        assert quad(lambda t: 1.0, 0.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_sqrt_singularity(self):
        v = quad(lambda t: t ** -0.5, 0.0, 1.0, left_power=0.5)
        assert v == pytest.approx(2.0, rel=1e-9)

    def test_beta_density_normalization(self):
        d = 0.3
        c = math.sin(math.pi * d) / math.pi
        v = quad(lambda t: c * t ** -d * (1.0 - t) ** (d - 1.0), 0.0, 1.0,
                 left_power=1.0 - d, right_power=d)
        assert v == pytest.approx(1.0, rel=1e-9)

    def test_monomials(self):
        for k in range(5):
            v = quad(lambda t, k=k: t ** k, 0.0, 1.0)
            assert v == pytest.approx(1.0 / (k + 1.0), rel=1e-11)

    def test_beta_integrals(self):
        for p, q in ((0.5, 0.5), (0.3, 1.7), (2.0, 0.25)):
            v = quad(lambda t: t ** (p - 1.0) * (1.0 - t) ** (q - 1.0),
                     0.0, 1.0, left_power=p, right_power=q)
            assert v == pytest.approx(beta_fn(p, q), rel=1e-9)

    def test_infinite_range(self):
        v = quad(lambda x: math.exp(-x), 0.0, math.inf)
        assert v == pytest.approx(1.0, rel=1e-11)

    def test_nonconvergent_reports_error(self):
        # f(x) = 1/x on (0, 1] diverges; the error report must surface
        with pytest.raises(NumericError):
            quad(lambda t: 1.0 / t, 1e-300, 1.0)

