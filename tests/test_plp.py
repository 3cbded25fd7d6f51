import math

import mpmath as mp
import numpy as np
import pytest

import sigfrac as sg
from sigfrac.plp import (flat_cdf_asymptote, flatness_rate, g1_unit_crossing,
                         g_n, g_n_is_exact, log_sf_gap, mean_sf1_upper_bound,
                         mean_sf_ratio, misf, ordered_pathloss_pdf, ratio_cdf,
                         rba_cdf, rba_mean, rba_pdf)
from sigfrac.rayleigh import NetworkParams

from reference import quad

DELTAS = (0.3, 0.4, 0.5, 2.0 / 3.0, 0.8)


class TestOrderedPdf:
    def test_k1_is_weibull(self, params_half):
        # k = 1 density is d x^(d-1) e^(-x^d), the Weibull law
        d = 0.5
        for x in (0.1, 0.5, 1.0, 3.0):
            ref = d * x ** (d - 1.0) * math.exp(-x ** d)
            assert ordered_pathloss_pdf(params_half, 1, x) == pytest.approx(
                ref, rel=1e-13)

    def test_k1_ccdf_by_quadrature(self, params_half):
        # integrating the k = 1 pdf beyond x reproduces exp(-x^d)
        for x in (0.5, 1.0, 2.0):
            tail = quad(lambda y: ordered_pathloss_pdf(params_half, 1, y),
                        x, math.inf)
            assert tail == pytest.approx(math.exp(-x ** 0.5), rel=1e-9)

    def test_normalization_k2(self, params_half):
        mass = quad(lambda x: ordered_pathloss_pdf(params_half, 2, x),
                    1e-12, math.inf)
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_domain(self, params_half):
        with pytest.raises(ValueError):
            ordered_pathloss_pdf(params_half, 0, 1.0)
        with pytest.raises(ValueError):
            ordered_pathloss_pdf(params_half, 1, 0.0)


class TestRatioLaw:
    def test_cdf_values(self, params_half):
        assert ratio_cdf(params_half, 1, 1.0) == 1.0
        assert ratio_cdf(params_half, 2, 0.25) == pytest.approx(0.25, rel=1e-14)

    def test_mean_by_quadrature(self):
        for d in (0.4, 0.5, 0.8):
            p = NetworkParams.from_delta(d)
            for i in (1, 2, 5):
                mean = quad(lambda r: 1.0 - ratio_cdf(p, i, r), 0.0, 1.0)
                assert mean == pytest.approx(i * d / (1.0 + i * d), abs=1e-9)


class TestMeanRatios:
    def test_values(self, params_half):
        assert mean_sf_ratio(params_half, 1) == pytest.approx(1.0, rel=1e-14)
        assert mean_sf_ratio(params_half, 2) == pytest.approx(1.0 / 3.0,
                                                              rel=1e-13)

    def test_sum_to_misf(self):
        for d in (0.4, 0.5, 2.0 / 3.0):
            p = NetworkParams.from_delta(d)
            total = sum(mean_sf_ratio(p, i) for i in range(1, 201))
            # tail bound: terms ~ G(1+1/d) i^(-1/d), summed beyond 200
            inv = 1.0 / d
            tail = math.gamma(1.0 + inv) * 200.0 ** (1.0 - inv) / (inv - 1.0)
            assert abs(total - misf(p)) < 1.05 * tail
            assert total < misf(p)


class TestLogGaps:
    def test_values(self, params_half):
        assert log_sf_gap(params_half, 1) == pytest.approx(2.0, rel=1e-14)
        assert log_sf_gap(params_half, 3) == pytest.approx(11.0 / 3.0,
                                                           rel=1e-14)

    @pytest.mark.parametrize("stat", [mean_sf_ratio, log_sf_gap])
    def test_order_below_one_refused(self, params_half, stat):
        with pytest.raises(ValueError, match="^i must be >= 1, got 0$"):
            stat(params_half, 0)

    def test_mc_agreement(self, nofad_half_top5, params_half):
        vals = nofad_half_top5[:100_000]
        for i in (1, 2):
            gaps = np.log(vals[:, 0]) - np.log(vals[:, i])
            se = gaps.std() / math.sqrt(len(gaps))
            assert abs(gaps.mean() - log_sf_gap(params_half, i)) < 3.0 * se


class TestGn:
    def test_special_values_at_half(self, params_half):
        refs = [2.0 / math.pi, 1.0 / math.pi, 4.0 / (3.0 * math.pi ** 2),
                1.0 / (2.0 * math.pi ** 2)]
        for n, ref in enumerate(refs, start=1):
            assert g_n(params_half, n, 0.5) == pytest.approx(ref, abs=1e-12)

    def test_g1_closed_form(self):
        for d in (0.3, 0.5, 0.8):
            p = NetworkParams.from_delta(d)
            for t in np.linspace(0.05, 0.95, 19):
                ref = sg.sinc_pi(d) * (1.0 / t - 1.0) ** d
                assert g_n(p, 1, t) == pytest.approx(ref, rel=1e-12)

    def test_monotone_in_t_and_n(self):
        for d in DELTAS:
            p = NetworkParams.from_delta(d)
            grid = np.linspace(0.5, 0.99, 50)
            for n in (1, 2, 3):
                vals = [g_n(p, n, t) for t in grid]
                assert np.all(np.diff(vals) < 0.0)
            for t in grid:
                assert g_n(p, 1, t) >= g_n(p, 2, t) >= g_n(p, 3, t)

    def test_exactness_flag(self):
        assert g_n_is_exact(0.5)
        assert g_n_is_exact(0.75)
        assert not g_n_is_exact(0.49)

    def test_upper_bound_region_exceeds_one(self, params_half):
        # below 1/2 the expression can leave [0, 1]; that is why it is
        # only an upper bound there
        assert g_n(params_half, 1, 0.2) > 1.0

    def test_domain(self, params_half):
        for t in (0.0, 1.0, math.nan):
            with pytest.raises(ValueError):
                g_n(params_half, 1, t)

    @pytest.mark.parametrize("n, d, t, bad", [
        (5, 0.9, 1e-300, "1e-300"),
        (5, 0.9, np.array([0.5, 1e-300, 1e-310]), "1e-300"),
        (1, 0.99, np.array([5e-324, 0.5]), "5e-324")])
    def test_overflow_names_the_first_t(self, n, d, t, bad):
        # no RuntimeWarning, and the first t whose value passes the
        # largest double
        with pytest.raises(ValueError,
                           match=f"^g_{n}\\(t\\) overflows a double at t = {bad}$"):
            g_n(NetworkParams.from_delta(d), n, t)

    def test_joint_event_mc_agreement(self, nofad_half_top5, params_half):
        # P(SF_n + t (SF_1+...+SF_{n-1}) > t) = g_n(t) on t >= 1/2
        vals = nofad_half_top5
        nsamp = vals.shape[0]
        for t in (0.5, 0.6, 0.75, 0.9):
            for n in (1, 2, 3):
                ref = g_n(params_half, n, t)
                emp = np.mean(
                    vals[:, n - 1] + t * vals[:, :n - 1].sum(axis=1) > t)
                se = math.sqrt(ref * (1.0 - ref) / nsamp)
                assert abs(emp - ref) < 3.0 * se, (n, t)


class TestSf1Bound:
    def test_crossing_closed_form(self):
        for d in (0.3, 0.5, 0.7):
            p = NetworkParams.from_delta(d)
            t0 = g1_unit_crossing(p)
            assert g_n(p, 1, t0) == pytest.approx(1.0, abs=1e-12)

    def test_small_delta_near_one(self):
        assert mean_sf1_upper_bound(NetworkParams.from_delta(0.05)) > 0.95

    def test_frozen_values(self):
        refs = {0.3: 0.789236271777118, 0.5: 0.639092926771892,
                0.7: 0.468135326927068}
        for d, ref in refs.items():
            assert mean_sf1_upper_bound(NetworkParams.from_delta(d)) == \
                pytest.approx(ref, rel=1e-9)

    def test_decreasing_in_delta(self):
        ds = np.arange(0.2, 0.90, 0.03)
        vals = [mean_sf1_upper_bound(NetworkParams.from_delta(d)) for d in ds]
        assert np.all(np.diff(vals) < 0.0)


class TestRba:
    def test_pdf_normalization(self):
        for d in (0.3, 0.5, 2.0 / 3.0, 0.8):
            p = NetworkParams.from_delta(d)
            mass = quad(lambda t: rba_pdf(p, t), 0.0, 1.0,
                        left_power=1.0 - d, right_power=d)
            assert mass == pytest.approx(1.0, abs=1e-8)

    def test_mean(self):
        for d in (0.3, 0.5, 0.8):
            p = NetworkParams.from_delta(d)
            mean = quad(lambda t: t * rba_pdf(p, t), 0.0, 1.0,
                        left_power=2.0 - d, right_power=d)
            assert mean == pytest.approx(1.0 - d, abs=1e-8)
            assert rba_mean(p) == 1.0 - d

    @pytest.mark.parametrize("t", [5e-324, np.array([0.5, 5e-324])])
    def test_pdf_overflow_names_the_t(self, t):
        with pytest.raises(ValueError, match="^the rba density overflows a "
                                             "double at t = 5e-324$"):
            rba_pdf(NetworkParams.from_delta(0.99), t)

    def test_arcsine_cdf(self, params_half):
        assert rba_cdf(params_half, 0.5) == pytest.approx(0.5, rel=1e-13)
        assert rba_cdf(params_half, 0.25) == pytest.approx(1.0 / 3.0,
                                                           rel=1e-13)

    def test_cdf_matches_regularized_beta(self):
        # mpmath's incomplete beta as an independent oracle
        for d in (0.3, 2.0 / 3.0):
            p = NetworkParams.from_delta(d)
            for t in (0.01, 0.2, 0.5, 0.8, 0.99):
                ref = float(mp.betainc(1.0 - d, d, 0.0, t, regularized=True))
                assert rba_cdf(p, t) == pytest.approx(ref, abs=1e-9)


class TestFlatness:
    def test_self_consistency(self):
        for d in (0.4, 0.5, 2.0 / 3.0):
            p = NetworkParams.from_delta(d)
            s = flatness_rate(p)
            assert s > 0.0
            assert abs(float(mp.hyp1f1(-d, 1.0 - d, s))) < 1e-9

    @pytest.mark.parametrize("d", [0.01, 0.05, 0.3, 0.9, 0.999])
    def test_against_mpmath_root(self, d):
        # the positive zero of 1F1(-d; 1-d; s), bracketed by a sign scan
        # on a log grid and refined by mpmath at 30 digits
        f = lambda s: mp.hyp1f1(-d, 1 - mp.mpf(d), s)
        with mp.workdps(30):
            grid = np.logspace(-4, 2, 61)
            k = next(i for i in range(60) if f(grid[i]) > 0 >= f(grid[i + 1]))
            ref = mp.findroot(f, (grid[k], grid[k + 1]), solver="anderson")
        assert flatness_rate(NetworkParams.from_delta(d)) == pytest.approx(
            float(ref), rel=1e-12)

    def test_frozen_values(self):
        refs = {0.4: 1.16751374090153, 0.5: 0.854032656598197,
                2.0 / 3.0: 0.469732640172123}
        for d, ref in refs.items():
            assert flatness_rate(NetworkParams.from_delta(d)) == \
                pytest.approx(ref, rel=1e-10)

    def test_negative_argument_form_has_no_zero(self):
        # 1F1(-d, 1-d, -s) = e^-s 1F1(1, 1-d, s) > 0: the zero sits on
        # the positive axis only
        for d in (0.3, 0.5, 0.8):
            for s in np.linspace(0.01, 80.0, 40):
                assert mp.hyp1f1(-d, 1.0 - d, -s) > 0.0

    def test_mc_flatness(self, nofad_half_top5, params_half):
        # the cdf at t = 0.05 is ~ e^(-s*(1/t-1)) ~ 1e-8: far below 1e-3
        sf1 = nofad_half_top5[:, 0]
        assert np.mean(sf1 <= 0.05) < 1e-3
        assert flat_cdf_asymptote(params_half, 0.05) < 1e-6
