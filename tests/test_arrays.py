"""Every closed-form curve takes a float or an array, and an array gives
the elementwise float results bit for bit (np.power, never float **,
so both round alike)."""

import numpy as np
import pytest

from sigfrac import approx, plp, specfun, transforms
from sigfrac.rayleigh import NetworkParams

DELTAS = (0.1, 0.5, 2.0 / 3.0, 0.9)
UNIT = np.linspace(0.0, 1.0, 401)
INNER = UNIT[1:-1]
HALF_OPEN = UNIT[:-1]
POSITIVE = np.logspace(-4, 4, 161)


def gb(p):
    return approx.GBParams(b=0.6, p=0.7, q=p.delta)


# name -> (curve of (params, argument), grid of arguments given delta)
CURVES = {
    "poly_ccdf:1": (lambda p, t: approx.poly_ccdf(p, 1, t), lambda d: UNIT),
    "poly_ccdf:2": (lambda p, t: approx.poly_ccdf(p, 2, t), lambda d: UNIT),
    "tail_ccdf:1": (lambda p, t: approx.tail_ccdf(p, 1, t),
                    lambda d: UNIT[1:]),
    "tail_ccdf:2": (lambda p, t: approx.tail_ccdf(p, 2, t),
                    lambda d: UNIT[1:]),
    "best_sf_ccdf": (approx.best_sf_ccdf, lambda d: UNIT),
    "best_sir_ccdf": (approx.best_sir_ccdf,
                      lambda d: np.concatenate([[0.0], POSITIVE])),
    "markov_lower_bound": (approx.markov_lower_bound,
                           lambda d: np.linspace(0.0, 1.0 - d, 200,
                                                 endpoint=False)),
    "nba_m_cdf_asymptote:1": (
        lambda p, t: approx.nba_m_cdf_asymptote(p, 1, t), lambda d: UNIT),
    "nba_m_cdf_asymptote:2": (
        lambda p, t: approx.nba_m_cdf_asymptote(p, 2, t), lambda d: UNIT),
    "gb_pdf": (lambda p, t: approx.gb_pdf(gb(p), t), lambda d: INNER),
    "g_n:1": (lambda p, t: plp.g_n(p, 1, t), lambda d: INNER),
    "g_n:2": (lambda p, t: plp.g_n(p, 2, t), lambda d: INNER),
    "ordered_pathloss_pdf:1": (
        lambda p, x: plp.ordered_pathloss_pdf(p, 1, x), lambda d: POSITIVE),
    "ordered_pathloss_pdf:3": (
        lambda p, x: plp.ordered_pathloss_pdf(p, 3, x), lambda d: POSITIVE),
    # each float call finds the flatness rate again, so a short grid
    "flat_cdf_asymptote": (plp.flat_cdf_asymptote,
                           lambda d: np.linspace(0.02, 0.98, 25)),
    "ratio_cdf:2": (lambda p, r: plp.ratio_cdf(p, 2, r), lambda d: UNIT),
    "rba_pdf": (plp.rba_pdf, lambda d: INNER),
    "hyp2f1_11": (lambda p, t: specfun.hyp2f1_11(p.delta, t),
                  lambda d: HALF_OPEN),
    "t_map": (lambda p, x: transforms.t_map(x),
              lambda d: np.concatenate([[0.0], POSITIVE])),
    "t_inv": (lambda p, t: transforms.t_inv(t), lambda d: HALF_OPEN),
    "db_to_linear": (lambda p, x: transforms.db_to_linear(x),
                     lambda d: np.linspace(-300.0, 300.0, 601)),
    "linear_to_db": (lambda p, x: transforms.linear_to_db(x),
                     lambda d: POSITIVE),
}


@pytest.mark.parametrize("d", DELTAS)
@pytest.mark.parametrize("name", sorted(CURVES))
def test_array_matches_scalar(name, d):
    curve, grid_for = CURVES[name]
    p = NetworkParams.from_delta(d)
    grid = grid_for(d)
    got = curve(p, grid)
    assert isinstance(got, np.ndarray) and got.shape == grid.shape
    assert got.tolist() == [curve(p, float(t)) for t in grid]


def test_unit_aliases():
    # MH is the Moebius map itself, so its table entries are t_inv and t_map
    assert transforms.TO_LINEAR[transforms.AxisUnit.MH] is transforms.t_inv
    assert transforms.FROM_LINEAR[transforms.AxisUnit.MH] is transforms.t_map


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x_db, bad", [
    (4000.0, "4000.0"), (np.array([0.0, 3100.0, 4000.0]), "3100.0")])
def test_db_overflow_names_the_value(x_db, bad):
    # no RuntimeWarning, and the first value past the largest double
    with pytest.raises(ValueError, match=f"^{bad} dB overflows"):
        transforms.db_to_linear(x_db)
