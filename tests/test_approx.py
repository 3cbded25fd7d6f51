import dataclasses
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import sigfrac as sg
from sigfrac.approx import (CONVEXITY_THRESHOLD, GBParams, best_inverse,
                            best_sf_ccdf, best_sir_ccdf, convexity_sign,
                            gb_cdf, gb_fit, gb_moment, gb_params_from_pq,
                            gb_pdf, markov_lower_bound, nba_m_cdf_asymptote,
                            poly_ccdf, rational_ccdf, rational_coeff,
                            tail_ccdf)
from sigfrac.rayleigh import NetworkParams, misr, sf_ccdf_exact

from reference import quad


def exact_taylor_coeffs(order):
    """Taylor coefficients of the exact ccdf at delta = 1/2, via exact
    rational arithmetic on the series ratio (independent oracle)."""
    # a_n = n! G(1/2)/G(n+1/2) obeys a_{n+1} = a_n (n+1)/(n+1/2)
    a = [Fraction(1)]
    for n in range(order):
        a.append(a[-1] * Fraction(2 * (n + 1), 2 * n + 1))
    # solve f * D = N with N_k = 1
    f = []
    for k in range(order + 1):
        s = Fraction(1) - sum(f[j] * a[k - j] for j in range(k))
        f.append(s)
    return f


class TestRational:
    def test_coefficients(self, params_half):
        assert rational_coeff(params_half, 0) == pytest.approx(1.0, rel=1e-14)
        assert rational_coeff(params_half, 1) == pytest.approx(2.0, rel=1e-13)
        assert rational_coeff(params_half, 2) == pytest.approx(8.0 / 3.0,
                                                               rel=1e-13)

    def test_unit_at_zero(self):
        for d in (0.3, 0.5, 0.8):
            p = NetworkParams.from_delta(d)
            for s in (1, 2, 3):
                assert rational_ccdf(p, s, 0.0) == 1.0

    def test_order2_display(self, params_half):
        for t in np.linspace(0.0, 0.9, 10):
            ref = (1.0 + t + t * t) / (1.0 + 2.0 * t + 8.0 / 3.0 * t * t)
            assert rational_ccdf(params_half, 2, t) == pytest.approx(
                ref, rel=1e-13)

    def test_array_matches_scalar(self):
        # one array call computes the coefficients once but must keep
        # the scalar loop's order of operations, bit for bit
        grid = np.linspace(0.0, 0.999, 400)
        for d in (0.1, 0.5, 0.9):
            p = NetworkParams.from_delta(d)
            for s in (1, 3, 6):
                arr = rational_ccdf(p, s, grid)
                assert isinstance(arr, np.ndarray) and arr.shape == grid.shape
                assert arr.tolist() == [rational_ccdf(p, s, float(t))
                                        for t in grid]

    def test_domain(self, params_half):
        for t in (1.0, -0.1, np.array([0.2, 1.0]), np.array([math.nan])):
            with pytest.raises(ValueError):
                rational_ccdf(params_half, 2, t)

    def test_taylor_match(self, params_half):
        # first s Taylor coefficients at 0 match the exact ccdf's
        exact = exact_taylor_coeffs(4)
        for s in (1, 2, 3, 4):
            h = 1e-3
            grid = np.arange(9) * h
            vals = [rational_ccdf(params_half, s, t) for t in grid]
            fit = np.polynomial.polynomial.polyfit(grid, vals, 6)
            for k in range(s + 1):
                assert fit[k] == pytest.approx(float(exact[k]), abs=2e-4), (s, k)

    def test_asymptotic_order(self, params_half):
        # |rational_s - exact| = o(t^s): the ratio decays linearly in t
        for s in (1, 2, 3):
            ratios = []
            for t in (1e-2, 1e-3):
                err = abs(rational_ccdf(params_half, s, t)
                          - sf_ccdf_exact(params_half, t))
                ratios.append(err / t ** s)
            assert ratios[1] < ratios[0] / 8.0


class TestPoly:
    def test_values(self, params_half):
        assert poly_ccdf(params_half, 1, 0.0) == 1.0
        assert poly_ccdf(params_half, 2, 0.0) == 1.0
        assert poly_ccdf(params_half, 1, 0.2) == pytest.approx(0.8, rel=1e-14)
        assert poly_ccdf(params_half, 2, 0.2) == pytest.approx(
            1.0 - 0.2 + (0.5 / 1.5) * 0.04, rel=1e-13)

    def test_convexity_sign(self):
        assert convexity_sign(NetworkParams.from_delta(0.5)) == 1
        assert convexity_sign(NetworkParams.from_delta(0.3)) == -1
        assert convexity_sign(
            NetworkParams.from_delta(CONVEXITY_THRESHOLD)) == 0

    def test_bound_orientation(self):
        # convex regime: poly1 <= exact <= poly2 near 0
        for d in (0.45, 0.5, 2.0 / 3.0):
            p = NetworkParams.from_delta(d)
            for t in np.linspace(1e-3, 0.1, 25):
                ex = sf_ccdf_exact(p, t)
                assert poly_ccdf(p, 1, t) <= ex <= poly_ccdf(p, 2, t)
        # concave regime: both are upper bounds
        p = NetworkParams.from_delta(0.3)
        for t in np.linspace(1e-3, 0.1, 25):
            ex = sf_ccdf_exact(p, t)
            assert poly_ccdf(p, 1, t) >= ex
            assert poly_ccdf(p, 2, t) >= ex

    def test_domain(self, params_half):
        with pytest.raises(ValueError):
            poly_ccdf(params_half, 1, 1.5)
        with pytest.raises(ValueError):
            poly_ccdf(params_half, 2, -0.1)


class TestTail:
    def test_zero_at_one(self):
        for d in (0.4, 0.5, 2.0 / 3.0):
            p = NetworkParams.from_delta(d)
            assert tail_ccdf(p, 1, 1.0) == 0.0
            assert tail_ccdf(p, 2, 1.0) == 0.0

    def test_first_order_value(self, params_half):
        ref = (2.0 / math.pi) * math.sqrt(0.5)
        assert tail_ccdf(params_half, 1, 0.5) == pytest.approx(ref, rel=1e-13)

    def test_quality_scan(self):
        # the second-order tail hugs the exact ccdf on the upper third;
        # relative error is within 2% from t = 0.75 on and within 0.02
        # absolute everywhere above 2/3
        for d in (0.4, 0.5, 2.0 / 3.0):
            p = NetworkParams.from_delta(d)
            for t in np.linspace(2.0 / 3.0 + 1e-3, 0.999, 120):
                ex = sf_ccdf_exact(p, t)
                err = abs(tail_ccdf(p, 2, t) - ex)
                assert err < 0.02
                if t >= 0.75:
                    assert err / ex < 0.02


class TestBest:
    def test_endpoints(self, params_half):
        assert best_sf_ccdf(params_half, 0.0) == 1.0
        assert best_sf_ccdf(params_half, 1.0) == 0.0

    def test_value(self, params_half):
        assert best_sf_ccdf(params_half, 0.5) == pytest.approx(
            (0.5 / 1.5) ** 0.5, rel=1e-13)

    def test_sir_form_consistent(self):
        for d in (0.4, 0.5, 0.8):
            p = NetworkParams.from_delta(d)
            for th in np.logspace(-2, 2, 17):
                t = th / (1.0 + th)
                assert best_sir_ccdf(p, th) == pytest.approx(
                    best_sf_ccdf(p, t), rel=1e-12)

    def test_slope_at_zero(self):
        for d in (0.4, 0.5, 2.0 / 3.0):
            p = NetworkParams.from_delta(d)
            h = 1e-7
            slope = (best_sf_ccdf(p, h) - 1.0) / h
            assert slope == pytest.approx(-misr(p), abs=1e-5)

    def test_tail_exponent(self, params_half):
        # log-log slope against (1-t) tends to delta
        t = 1.0 - 1e-6
        num = math.log(best_sf_ccdf(params_half, t))
        grown = math.log(best_sf_ccdf(params_half, 1.0 - 1e-7))
        slope = (grown - num) / (math.log(1e-7) - math.log(1e-6))
        assert slope == pytest.approx(0.5, abs=1e-3)

    def test_inverse(self, params_half):
        assert best_inverse(params_half, 1.0) == 0.0
        assert best_inverse(params_half, (0.5 / 1.5) ** 0.5) == pytest.approx(
            0.5, rel=1e-12)
        rng = np.random.default_rng(3)
        for r in rng.uniform(0.01, 1.0, size=100):
            t = best_inverse(params_half, r)
            assert best_sf_ccdf(params_half, t) == pytest.approx(r, abs=1e-12)


class TestGeneralizedBeta:
    def test_reduces_to_tail_matched_form(self, params_half):
        # p = 1, q = delta, b = 1-delta gives mu/((1-t)^(1-d) (1+mu t)^(1+d))
        gbp = gb_params_from_pq(params_half, 1.0, 0.5)
        assert gbp.b == pytest.approx(0.5, rel=1e-13)
        mu = misr(params_half)
        for t in np.linspace(0.05, 0.95, 19):
            ref = mu / ((1.0 - t) ** 0.5 * (1.0 + mu * t) ** 1.5)
            assert gb_pdf(gbp, t) == pytest.approx(ref, rel=1e-12)

    def test_exponent_is_derived_from_p(self):
        fields = [f.name for f in dataclasses.fields(GBParams)]
        assert fields == ["b", "p", "q"]
        for pp in (0.7, 0.8648, 1.0, 3.0):
            assert GBParams(b=0.5, p=pp, q=0.5).a == 1.0 / pp

    def test_density_at_zero_is_misr(self):
        for d in (0.4, 0.5, 2.0 / 3.0):
            p = NetworkParams.from_delta(d)
            for pq in ((1.0, d), (0.8648, 0.5276), (1.2, 0.45)):
                gbp = gb_params_from_pq(p, *pq)
                assert gb_pdf(gbp, 1e-9) == pytest.approx(misr(p), rel=1e-6)

    def test_table_normalization(self):
        rows = ((0.4, 0.7385, 0.4164), (0.5, 0.8648, 0.5276),
                (2.0 / 3.0, 0.9296, 0.7089))
        for d, pp, qq in rows:
            gbp = gb_params_from_pq(NetworkParams.from_delta(d), pp, qq)
            mass = TestGeneralizedBeta._moment_by_quadrature(gbp, 0)
            assert mass == pytest.approx(1.0, abs=1e-8)

    @staticmethod
    def _moment_by_quadrature(gbp, k, w_max=1.0):
        # integrate in the distance-to-1 variable so the (q-1) power sees
        # an exact coordinate; 1-(1-w)^a via expm1/log1p.  With k = 0 and
        # w_max = 1 - t this is the ccdf at t.
        a, b, p, q = gbp.a, gbp.b, gbp.p, gbp.q
        cb = a / (b * sg.beta_fn(p, q))
        bma = b ** -a - 1.0

        def f(w):
            s = -math.expm1(a * math.log1p(-w))
            return ((1.0 - w) ** k * cb * s ** (q - 1.0)
                    / (1.0 + bma * (1.0 - s)) ** (p + q))

        return quad(f, 0.0, w_max, left_power=q)

    def test_moment_formula_vs_quadrature(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            pp = rng.uniform(0.4, 2.5)
            qq = rng.uniform(0.3, 2.0)
            b = rng.uniform(0.25, 1.0)
            gbp = GBParams(b=b, p=pp, q=qq)
            for k in (1, 2):
                direct = self._moment_by_quadrature(gbp, k)
                assert gb_moment(gbp, k) == pytest.approx(direct, rel=1e-7)
            # the closed-form cdf against quadrature of the density, on
            # both sides of its t = 1/2 branch
            for t in (0.05, 0.3, 0.5):
                direct = quad(lambda x: gb_pdf(gbp, x), 0.0, t)
                assert gb_cdf(gbp, t) == pytest.approx(direct, abs=1e-9)
            for t in (0.7, 0.95, 1.0 - 1e-6):
                ccdf = self._moment_by_quadrature(gbp, 0, w_max=1.0 - t)
                assert 1.0 - gb_cdf(gbp, t) == pytest.approx(ccdf, rel=1e-7)

    def test_moment_against_mpmath(self):
        # (p, q, b, k), the first two putting 2F1 at the arguments
        # (1.8, 0.9; 2.7; 0.64) and (2.6, 1.73; 3.1; 0.55), the last at
        # the delta = 1/2 fit
        cases = [(0.9, 0.9, 0.36 ** 0.9, 1),
                 (2.6 / 3.0, 0.5, 0.45 ** (2.6 / 3.0), 2),
                 (0.867878216063, 0.528299167141, 0.555427676035, 2)]
        for pp, qq, b, k in cases:
            gbp = GBParams(b=b, p=pp, q=qq)
            with mp.workdps(30):
                z = 1 - mp.mpf(b) ** (1 / mp.mpf(pp))
                ref = (mp.mpf(b) ** k * mp.beta((k + 1) * pp, qq)
                       / mp.beta(pp, qq)
                       * mp.hyp2f1((k + 1) * pp, k * pp, (k + 1) * pp + qq, z))
            assert gb_moment(gbp, k) == pytest.approx(float(ref), rel=1e-12)

    def test_moment_domain(self):
        # b^a underflows to 0, so z = 1
        with pytest.raises(ValueError):
            gb_moment(GBParams(b=1e-5, p=0.01, q=0.5), 1)
        # scipy's 2F1 is inf here (the value is 4.59): an error, not inf
        gbp = GBParams(b=6e-14 ** 0.1, p=0.1, q=0.072)
        with pytest.raises(sg.NumericError):
            gb_moment(gbp, 1)

    def test_cdf_endpoints(self, params_half):
        gbp = gb_params_from_pq(params_half, 1.0, 0.5)
        assert gb_cdf(gbp, 0.0) == 0.0
        assert gb_cdf(gbp, 1.0) == 1.0
        assert gb_cdf(gbp, 0.5) + (1.0 - gb_cdf(gbp, 0.5)) == 1.0
        grid = np.array([-1.0, 0.0, 0.3, 0.5, 0.7, 1.0, 2.0])
        assert gb_cdf(gbp, grid).tolist() == [gb_cdf(gbp, t) for t in grid]
        assert gb_cdf(gbp, grid)[[0, 1, 5, 6]].tolist() == [0.0, 0.0, 1.0, 1.0]


# unique exact solutions of the two-moment system, 40-digit arithmetic
EXACT_FIT = {
    0.4: (0.715793532753, 0.739480953496, 0.41649655908),
    0.5: (0.555427676035, 0.867878216063, 0.528299167141),
    2.0 / 3.0: (0.359717825789, 0.92924103129, 0.708694378379),
}


class TestFit:
    def test_matches_exact_solution(self):
        for d, (b, pp, qq) in EXACT_FIT.items():
            fit = gb_fit(NetworkParams.from_delta(d))
            assert fit.residual <= 1e-6
            assert fit.params.b == pytest.approx(b, abs=1e-6)
            assert fit.params.p == pytest.approx(pp, abs=1e-6)
            assert fit.params.q == pytest.approx(qq, abs=1e-6)

    def test_achieved_moments(self, params_half):
        fit = gb_fit(params_half)
        assert fit.nfev > 0
        for tgt, got in zip(fit.target_moments, fit.achieved_moments):
            assert got == pytest.approx(tgt, rel=1e-8)

    def test_other_deltas_converge(self):
        # 0.385 is just above the fold where the moment solution is lost
        # 10/11 is alpha = 2.2, the smallest alpha the benchmark draws
        for d in (0.385, 0.39, 0.45, 0.75, 10.0 / 11.0, 0.99):
            fit = gb_fit(NetworkParams.from_delta(d))
            assert fit.residual <= 1e-6

    def test_small_delta_leaves_family(self):
        # below a fold near delta = 0.385 the family has no moment
        # solution, although the final iterate still has b < 1; the
        # failure must carry that iterate.  At 0.36 and 0.372 the solver
        # probes past the b <= 1 wall on its way there
        for d in (0.38, 0.372, 0.36, 0.33, 0.3):
            p = NetworkParams.from_delta(d)
            with pytest.raises(sg.FitError) as exc:
                gb_fit(p)
            best_p, best_q, _ = exc.value.best
            b = gb_params_from_pq(p, best_p, best_q).b
            assert b < 1.0
            # the message tells a fold (b < 1) from a solve that ran out
            msg = str(exc.value)
            assert f"b={b:.6f}" in msg
            assert "evaluations" in msg and "solver: " in msg


class TestEq5TailConstant:
    def test_gap_profile(self):
        # pre-constant gap d((1-d)^d - sinc d) peaks near d = 0.65 with
        # a maximum in [0.04, 0.05]
        ds = np.linspace(0.05, 0.95, 181)
        gaps = np.array([d * ((1.0 - d) ** d - sg.sinc_pi(d)) for d in ds])
        assert np.all(gaps > -1e-12)
        peak = ds[np.argmax(gaps)]
        assert 0.6 <= peak <= 0.7
        assert 0.04 <= gaps.max() <= 0.05


class TestNbaAsymptote:
    def test_m1_is_poly1(self):
        for d in (0.3, 0.5, 0.7):
            p = NetworkParams.from_delta(d)
            for t in (0.0, 0.1, 0.4):
                assert nba_m_cdf_asymptote(p, 1, t) == poly_ccdf(p, 1, t)

    def test_m2_coefficient_at_half(self, params_half):
        # the two closed forms agree: c2 (2 mu^2 + 1.5 d/(2-d)) evaluates
        # to d(3+2d-d^2)/((1-d)^2(2-d)) = 5 at delta = 1/2
        val = nba_m_cdf_asymptote(params_half, 2, 0.1)
        assert 1.0 - val == pytest.approx(5.0 * 0.01, rel=1e-12)

    def test_display_identity_on_grid(self):
        for d in np.linspace(0.1, 0.9, 17):
            p = NetworkParams.from_delta(d)
            mu = misr(p)
            via_isr = 2.0 * (2.0 * mu * mu + d * 1.5 / (2.0 - d))
            display = d * (3.0 + 2.0 * d - d * d) / ((1.0 - d) ** 2 * (2.0 - d))
            assert via_isr == pytest.approx(display, rel=1e-12)
            assert 1.0 - nba_m_cdf_asymptote(p, 2, 0.05) == pytest.approx(
                display * 0.0025, rel=1e-12)

    def test_unsupported_order(self, params_half):
        with pytest.raises(ValueError):
            nba_m_cdf_asymptote(params_half, 3, 0.1)


class TestMarkov:
    def test_values(self, params_half):
        assert markov_lower_bound(params_half, 0.0) == 1.0
        assert markov_lower_bound(params_half, 0.25) == pytest.approx(
            2.0 / 3.0, rel=1e-13)

    def test_domain(self, params_half):
        with pytest.raises(ValueError):
            markov_lower_bound(params_half, 0.5)

    def test_below_no_fading_ccdf(self, params_half):
        cfg = sg.SimConfig(params=params_half, fading=sg.FadingModel.none(),
                           assoc=sg.AssociationRule.nba(),
                           samples=10**5, seed=77)
        dist = sg.sample_sf(cfg).dist
        for t in (0.1, 0.25, 0.4, 0.45):
            assert markov_lower_bound(params_half, t) <= sg.empirical_ccdf(
                dist, t) + 1e-3
