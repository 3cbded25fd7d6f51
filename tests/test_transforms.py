import math

import numpy as np
import pytest

import sigfrac as sg
from sigfrac.transforms import (FROM_LINEAR, TO_LINEAR, AxisUnit,
                                db_to_linear, linear_to_db, t_inv, t_map)

from reference import quad

mh_to_linear = TO_LINEAR[AxisUnit.MH]
linear_to_mh = FROM_LINEAR[AxisUnit.MH]


class TestTMap:
    def test_values(self):
        assert t_map(0.0) == 0.0
        assert t_map(1.0) == 0.5
        assert t_map(3.0) == 0.75
        assert t_inv(0.0) == 0.0
        assert t_inv(0.5) == 1.0
        assert t_inv(0.75) == 3.0

    def test_domain(self):
        with pytest.raises(ValueError):
            t_map(-0.1)
        with pytest.raises(ValueError):
            t_inv(1.0)

    def test_round_trip_log_grid(self):
        # rounding x/(1+x) into a double costs eps*(1+x) relative on the
        # way back, so the achievable bound grows with x
        eps = 2.3e-16
        for x in np.logspace(-6, 6, 49):
            tol = max(1e-14, 4.0 * eps * (1.0 + x))
            assert t_inv(t_map(x)) == pytest.approx(x, rel=tol)

    def test_small_argument_linearity(self):
        for theta in (1e-6, 1e-4, 1e-3, 0.01):
            assert abs(t_map(theta) - theta) <= theta * theta

    def test_monotone(self):
        xs = np.logspace(-4, 4, 200)
        ts = [t_map(x) for x in xs]
        assert np.all(np.diff(ts) > 0)


class TestUnits:
    def test_db(self):
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-14)
        assert linear_to_db(1.0) == 0.0

    def test_mh(self):
        assert mh_to_linear(0.5) == pytest.approx(1.0, rel=1e-14)
        assert linear_to_mh(1.0) == 0.5
        with pytest.raises(ValueError):
            mh_to_linear(1.0)

    def test_monotone(self):
        xs = np.linspace(-30, 30, 101)
        assert np.all(np.diff([db_to_linear(x) for x in xs]) > 0)
        ms = np.linspace(0, 0.99, 101)
        assert np.all(np.diff([mh_to_linear(m) for m in ms]) > 0)

    def test_table_values(self):
        assert FROM_LINEAR[AxisUnit("dB")](0.1) == pytest.approx(-10.0,
                                                                 rel=1e-14)
        assert TO_LINEAR[AxisUnit("MH")](10.0 / 11.0) == pytest.approx(
            10.0, rel=1e-14)
        assert TO_LINEAR[AxisUnit("linear")](0.3) == 0.3
        with pytest.raises(ValueError):
            AxisUnit("dBm")

    def test_table_round_trips(self):
        args = np.linspace(0.1, 10.0, 50)
        for unit in AxisUnit:
            back = [TO_LINEAR[unit](FROM_LINEAR[unit](x)) for x in args]
            np.testing.assert_allclose(back, args, rtol=1e-12)
        # dB -> MH -> dB on a 50-point grid
        db = [FROM_LINEAR[AxisUnit.DB](x) for x in args]
        back = [FROM_LINEAR[AxisUnit.DB](TO_LINEAR[AxisUnit.MH](
            FROM_LINEAR[AxisUnit.MH](TO_LINEAR[AxisUnit.DB](x)))) for x in db]
        np.testing.assert_allclose(back, db, rtol=1e-12, atol=1e-12)


class TestCurves:
    """Re-expressing a curve's linear SIR grid in dB or MH."""

    @staticmethod
    def _reaxis(args, unit):
        return [FROM_LINEAR[unit](x) for x in args]

    def test_reaxis_values(self):
        args = np.linspace(0.1, 10.0, 50)
        db = self._reaxis(args, AxisUnit.DB)
        assert db[0] == pytest.approx(linear_to_db(0.1), rel=1e-14)
        assert np.all(np.diff(db) > 0)
        mh = self._reaxis(args, AxisUnit.MH)
        assert mh[-1] == pytest.approx(10.0 / 11.0, rel=1e-14)

    def test_reaxis_linear_one(self):
        args = np.array([0.5, 1.0, 2.0])
        assert self._reaxis(args, AxisUnit.DB)[1] == 0.0
        assert self._reaxis(args, AxisUnit.MH)[1] == 0.5


class TestCcdfTransforms:
    # Fbar_SF(t) = Fbar_SIR(t_inv(t)) and Fbar_SIR(th) = Fbar_SF(t_map(th))
    def test_constant(self):
        def sir_ccdf(th):
            return 1.0

        assert sir_ccdf(t_inv(0.0)) == 1.0 and sir_ccdf(t_inv(0.7)) == 1.0

    def test_hand_derived(self):
        # Fbar_SIR(th) = 1/(1+th)  =>  Fbar_SF(t) = 1 - t
        for t in (0.0, 0.25, 0.5, 0.9):
            assert 1.0 / (1.0 + t_inv(t)) == pytest.approx(1.0 - t, rel=1e-12)

    def test_exact_forms_agree(self, params_half):
        # SIR ccdf at theta = 1 equals SF ccdf at t = 1/2
        assert sg.sir_ccdf_exact(params_half, 1.0) == pytest.approx(
            sg.sf_ccdf_exact(params_half, 0.5), rel=1e-14)

    def test_round_trip_pointwise(self, params_half):
        for th in np.logspace(-3, 2, 31):
            back = sg.sir_ccdf_exact(params_half, t_inv(t_map(th)))
            assert back == pytest.approx(
                sg.sir_ccdf_exact(params_half, th), rel=1e-12)

    def test_monotonicity_preserved(self, params_half):
        vals = [sg.sir_ccdf_exact(params_half, t_inv(t))
                for t in np.linspace(0, 0.99, 100)]
        assert np.all(np.diff(vals) < 0)


class TestPdfTransforms:
    # f_SF(t) = f_SIR(t_inv(t)) / (1-t)^2
    # f_SIR(th) = f_SF(t_map(th)) / (1+th)^2
    def test_uniform_sf(self):
        # uniform SF density on [0,1]  =>  f_SIR(th) = (1+th)^-2
        def sf_pdf(t):
            return 1.0

        for th in (0.0, 0.5, 2.0, 10.0):
            f = sf_pdf(t_map(th)) / (1.0 + th) ** 2
            assert f == pytest.approx((1.0 + th) ** -2, rel=1e-13)

    def test_exponential_sir(self):
        # f_SIR(th) = e^-th  =>  f_SF(t) = e^(-t/(1-t)) / (1-t)^2
        for t in (0.1, 0.5, 0.9):
            f = math.exp(-t_inv(t)) / (1.0 - t) ** 2
            ref = math.exp(-t / (1.0 - t)) / (1.0 - t) ** 2
            assert f == pytest.approx(ref, rel=1e-13)

    def test_mass_conservation_random_pdfs(self):
        # ten random beta densities on the SF axis keep unit mass as SIR pdfs
        rng = np.random.default_rng(7)
        for _ in range(10):
            p, q = rng.uniform(0.6, 3.0, size=2)
            c = 1.0 / sg.beta_fn(p, q)

            def sf_pdf(t, p=p, q=q, c=c):
                return c * t ** (p - 1.0) * (1.0 - t) ** (q - 1.0)

            def sir_pdf(th, sf_pdf=sf_pdf):
                return sf_pdf(t_map(th)) / (1.0 + th) ** 2

            # map back to (0,1) for the quadrature: th = u/(1-u)
            mass = quad(lambda u: sir_pdf(t_inv(u)) / (1.0 - u) ** 2,
                        0.0, 1.0, left_power=p, right_power=q)
            assert mass == pytest.approx(1.0, abs=1e-6)
