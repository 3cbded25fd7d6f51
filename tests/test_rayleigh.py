import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

import sigfrac as sg
from sigfrac import rayleigh
from sigfrac.rayleigh import (NetworkParams, misr, sf_ccdf_exact,
                              sf_moment_exact, sf_pdf_exact, sir_ccdf_exact)

from reference import nba_nakagami_ccdf, quad

DELTAS = (0.25, 0.4, 0.5, 2.0 / 3.0, 0.8)


def eq1_series(delta, theta, terms=400_000):
    """Direct series of 1/2F1(1, -d; 1-d; -theta), valid for theta <= 1."""
    s = 1.0
    term = 1.0
    for n in range(terms):
        term *= (n - delta) / (n + 1.0 - delta) * -theta
        s += term
        if abs(term) < 1e-14 * abs(s):
            break
    return 1.0 / s


class TestParams:
    def test_constructors(self):
        p = NetworkParams.from_alpha(4.0)
        assert p.delta == 0.5
        p = NetworkParams.from_delta(0.4)
        assert p.alpha == pytest.approx(5.0, rel=1e-15)

    def test_validation(self):
        for alpha in (2.0, math.inf):
            with pytest.raises(ValueError):
                NetworkParams.from_alpha(alpha)
        with pytest.raises(ValueError):
            NetworkParams.from_delta(1.0)

    def test_delta_is_the_one_field(self):
        assert [f.name for f in dataclasses.fields(NetworkParams)] == ["delta"]

    def test_alpha_round_trips_at_output_precision(self):
        # alpha is derived as 2/delta, which may differ from the alpha
        # given in the last bit, never in the 12 digits an output keeps
        rng = np.random.default_rng(26)
        alphas = list(5.0 - 2.8 * rng.random(10_000))   # (2.2, 5]
        for alpha in alphas + [3.0, 3.5, 4.0, 20.0, 200.0, 2.0002]:
            got = NetworkParams.from_alpha(alpha).alpha
            assert "%.12g" % got == "%.12g" % alpha


class TestMisr:
    def test_values(self):
        assert misr(NetworkParams.from_delta(0.5)) == pytest.approx(1.0)
        assert misr(NetworkParams.from_delta(2.0 / 3.0)) == pytest.approx(2.0)
        assert misr(NetworkParams.from_delta(0.4)) == pytest.approx(2.0 / 3.0)


class TestSfCcdf:
    def test_endpoints(self):
        for d in DELTAS + (0.1, 0.9):
            p = NetworkParams.from_delta(d)
            assert sf_ccdf_exact(p, 0.0) == 1.0
            assert sf_ccdf_exact(p, 1.0) == 0.0
            ends = sf_ccdf_exact(p, np.array([0.0, 1.0]))
            assert ends.tolist() == [1.0, 0.0]

    def test_frozen_value(self, params_half):
        assert sf_ccdf_exact(params_half, 0.5) == pytest.approx(
            0.56009915351155738, rel=1e-12)

    def test_against_mpmath(self):
        for d in DELTAS:
            p = NetworkParams.from_delta(d)
            for t in (0.01, 0.2, 0.5, 0.8, 0.99, 0.9999, 1.0 - 1e-7):
                ref = float(1.0 / ((1 - mp.mpf(t)) * mp.hyp2f1(1, 1, 1 - d, t)))
                assert sf_ccdf_exact(p, t) == pytest.approx(ref, rel=1e-9)

    def test_against_mpmath_full_domain(self):
        for d in (0.25, 0.4, 0.5, 2.0 / 3.0, 0.85):
            p = NetworkParams.from_delta(d)
            for t in (0.05, 0.3, 0.5, 0.7, 0.9, 0.99, 0.9999, 1.0 - 1e-6):
                ref = float(1 / ((1 - mp.mpf(t)) * mp.hyp2f1(1, 1, 1 - d, t)))
                got = sf_ccdf_exact(p, t)
                assert got == pytest.approx(ref, rel=1e-10), (d, t)

    def test_against_mpmath_40_digits(self):
        # out to t = 1 - 1e-13, where betainc itself (instead of the
        # betaincc complement) would be 1e-10 off
        ts = np.concatenate([np.logspace(-12, -1, 12),
                             np.linspace(0.1, 0.9, 9),
                             1.0 - np.logspace(-2, -13, 12)])
        with mp.workdps(40):
            for d in (0.02, 0.1, 0.3, 0.5, 2.0 / 3.0, 0.9, 0.99):
                p = NetworkParams.from_delta(d)
                got = sf_ccdf_exact(p, ts)
                for t, g in zip(ts, got):
                    t = mp.mpf(float(t))
                    ref = 1 / ((1 - t) * mp.hyp2f1(1, 1, 1 - mp.mpf(d), t))
                    assert g == pytest.approx(float(ref), rel=1e-13), (d, t)

    def test_array_matches_scalar(self):
        # bit for bit, on both sides of the t = 1/2 switch and at the ends
        grid = np.concatenate([np.linspace(0.0, 1.0, 101), [0.5, 0.5 + 1e-16,
                               1e-300, 1.0 - 1e-16]])
        for d in DELTAS:
            p = NetworkParams.from_delta(d)
            got = sf_ccdf_exact(p, grid)
            assert got.tolist() == [sf_ccdf_exact(p, float(t)) for t in grid]
            theta = np.logspace(-3, 3, 25)
            got = sir_ccdf_exact(p, theta)
            assert got.tolist() == [sir_ccdf_exact(p, float(x)) for x in theta]

    def test_monotone_on_grid(self):
        grid = np.linspace(0.0, 1.0, 1000)
        for d in DELTAS:
            p = NetworkParams.from_delta(d)
            vals = [sf_ccdf_exact(p, t) for t in grid]
            assert np.all(np.diff(vals) < 0.0)

    def test_ordering_in_delta(self):
        # smaller delta (larger alpha) means stochastically larger SF
        grid = np.linspace(0.05, 0.95, 19)
        for lo, hi in zip(DELTAS, DELTAS[1:]):
            plo, phi = NetworkParams.from_delta(lo), NetworkParams.from_delta(hi)
            for t in grid:
                assert sf_ccdf_exact(plo, t) > sf_ccdf_exact(phi, t)

    def test_domain(self, params_half):
        with pytest.raises(ValueError):
            sf_ccdf_exact(params_half, -0.1)
        with pytest.raises(ValueError):
            sf_ccdf_exact(params_half, 1.1)
        with pytest.raises(ValueError):
            sf_ccdf_exact(params_half, math.nan)
        with pytest.raises(ValueError):
            sf_ccdf_exact(params_half, np.array([0.2, math.nan, 0.5]))


class TestIntegerNakagamiReference:
    """The finite-sum Nakagami-m law of tests/reference.py, the Monte
    Carlo's oracle for integer m > 1."""

    @pytest.mark.parametrize("d", (0.1,) + DELTAS + (0.9,))
    def test_m1_is_the_rayleigh_law(self, d):
        t = np.concatenate([np.linspace(0.0, 0.99, 100), [0.999, 0.9999]])
        np.testing.assert_allclose(
            nba_nakagami_ccdf(d, 1, t),
            sf_ccdf_exact(NetworkParams.from_delta(d), t), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("d, m", [(2.0 / 3.0, 2), (0.4, 3)])
    def test_against_mpmath(self, d, m):
        # the defining sum with L's derivatives taken numerically at 30
        # digits
        def ref(t):
            s = m * mp.mpf(t) / (1 - mp.mpf(t))
            L = lambda x: 1 / mp.hyp2f1(m, -d, 1 - d, -x / m)
            return float(sum((-s) ** j / mp.factorial(j) * mp.diff(L, s, j)
                             for j in range(m)))
        for t in (0.05, 0.3, 0.5, 0.8, 0.99):
            assert nba_nakagami_ccdf(d, m, t) == pytest.approx(ref(t),
                                                               rel=1e-13)

    def test_m_must_be_a_positive_integer(self):
        with pytest.raises(ValueError):
            nba_nakagami_ccdf(0.5, 1.5, 0.3)
        with pytest.raises(ValueError):
            nba_nakagami_ccdf(0.5, 0, 0.3)


class TestSirCcdf:
    def test_composition_identity(self, params_half):
        for th in np.logspace(-3, 3, 25):
            t = th / (1.0 + th)
            assert sir_ccdf_exact(params_half, th) == sf_ccdf_exact(
                params_half, t)

    def test_against_direct_series(self):
        # the -theta-argument hypergeometric form, summed directly
        for d in (0.4, 0.5, 2.0 / 3.0):
            p = NetworkParams.from_delta(d)
            for th in (0.01, 0.1, 0.5, 0.9):
                assert sir_ccdf_exact(p, th) == pytest.approx(
                    eq1_series(d, th), rel=1e-9)

    def test_domain(self, params_half):
        with pytest.raises(ValueError):
            sir_ccdf_exact(params_half, -1.0)
        with pytest.raises(ValueError):
            sir_ccdf_exact(params_half, np.array([0.2, math.nan]))
        # inf maps to t = nan; the check names theta, not the inner t
        with pytest.raises(ValueError, match="theta must be in"):
            sir_ccdf_exact(params_half, math.inf)


class TestSfPdf:
    def test_zero_limit_is_misr(self):
        for d in (0.4, 0.5):
            p = NetworkParams.from_delta(d)
            assert sf_pdf_exact(p, 1e-5) == pytest.approx(misr(p), rel=1e-3)

    def test_normalization(self, params_half):
        # the density diverges like (1-t)^(d-1) at 1; the last 1e-4 of
        # the domain's mass is the (independently tested) ccdf
        cut = 1.0 - 1e-4
        mass = quad(lambda t: sf_pdf_exact(params_half, t), 1e-9, cut)
        mass += sf_ccdf_exact(params_half, cut)
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_against_mpmath_derivative(self):
        ts = (1e-9, 1e-5, 0.01, 0.2, 0.5, 0.8, 0.99, 1.0 - 1e-5, 1.0 - 1e-9)
        with mp.workdps(40):
            for d in (0.05, 0.1, 0.4, 0.5, 2.0 / 3.0, 0.9):
                p = NetworkParams.from_delta(d)
                got = sf_pdf_exact(p, np.array(ts))
                for t, g in zip(ts, got):
                    ref = -mp.diff(lambda x: 1 / ((1 - x) * mp.hyp2f1(
                        1, 1, 1 - mp.mpf(d), x)), mp.mpf(t))
                    assert g == pytest.approx(float(ref), rel=1e-12), (d, t)

    def test_endpoints_rejected(self, params_half):
        with pytest.raises(ValueError):
            sf_pdf_exact(params_half, 0.0)
        with pytest.raises(ValueError):
            sf_pdf_exact(params_half, 1.0)


class TestMoments:
    def test_small_delta_mean_near_one(self):
        p = NetworkParams.from_delta(0.05)
        m = sf_moment_exact(p, 1)
        assert m > 0.9
        assert m == pytest.approx(0.950850510119, rel=1e-8)

    def test_frozen_values(self, params_half):
        assert sf_moment_exact(params_half, 1) == pytest.approx(
            0.55742389486067, rel=1e-9)
        assert sf_moment_exact(params_half, 2) == pytest.approx(
            0.41226906374009, rel=1e-9)

    def test_against_mpmath(self):
        # the ccdf itself carries the float rounding of sinc(delta), about
        # 1e-16/(1 - delta) relative: that is the whole 7e-13 at 0.9999
        with mp.workdps(30):
            for d in (1e-3, 0.05, 0.3, 0.5, 2.0 / 3.0, 0.9, 0.99, 0.9999):
                p = NetworkParams.from_delta(d)
                c = 1 - mp.mpf(d)
                for k in (1, 2, 3):
                    ref = k * mp.quad(
                        lambda t: t ** (k - 1) / ((1 - t) * mp.hyp2f1(1, 1, c, t)),
                        [0, 1e-4, 0.01, 0.5, 1])
                    assert sf_moment_exact(p, k) == pytest.approx(
                        float(ref), rel=1e-11), (d, k)

    def test_against_adaptive_quadrature(self):
        # QUADPACK with the (1-t)^delta endpoint weight, on scalar calls
        for d in DELTAS:
            p = NetworkParams.from_delta(d)
            for k in (1, 2, 3):
                ref = k * quad(lambda t: t ** (k - 1) * sf_ccdf_exact(p, t),
                               0.0, 1.0, right_power=1.0 + d)
                assert sf_moment_exact(p, k) == pytest.approx(ref, rel=1e-11)

    def test_accuracy_check_passes_across_delta(self):
        # the half-step check must not fire anywhere on this range; a
        # rule with twice the step fails it from about delta = 0.9994 up
        deltas = np.concatenate([np.logspace(-6, -1, 11),
                                 np.linspace(0.15, 0.95, 17),
                                 1.0 - np.logspace(-1.5, -5, 15)])
        for d in deltas:
            p = NetworkParams.from_delta(float(d))
            for k in (1, 2, 3):
                assert 0.0 < sf_moment_exact(p, k) < 1.0

    def test_accuracy_check_raises(self, params_half, monkeypatch):
        # a half-step rule that disagrees must surface, never be returned
        monkeypatch.setattr(rayleigh, "_TS_W_HALF", 0.5 * rayleigh._TS_W_HALF)
        with pytest.raises(sg.NumericError, match="accuracy target"):
            sf_moment_exact(params_half, 1)

    def test_order_domain(self, params_half):
        with pytest.raises(ValueError, match="moment order"):
            sf_moment_exact(params_half, 0)

    def test_moment_monotone_in_order(self):
        for d in DELTAS:
            p = NetworkParams.from_delta(d)
            m1, m2 = sf_moment_exact(p, 1), sf_moment_exact(p, 2)
            assert 0.0 < m2 < m1 < 1.0

    def test_mc_cross_check(self, params_half):
        cfg = sg.SimConfig(params=params_half,
                           fading=sg.FadingModel.nakagami(1.0),
                           assoc=sg.AssociationRule.nba(),
                           samples=10**5, seed=31)
        dist = sg.sample_sf(cfg).dist
        m = sf_moment_exact(params_half, 1)
        se = float(dist.samples.std()) / math.sqrt(dist.samples.size)
        assert abs(sg.empirical_moment(dist, 1) - m) < 3.0 * se
