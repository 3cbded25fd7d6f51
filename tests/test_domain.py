import math

import numpy as np
import pytest

import sigfrac as sg
from sigfrac import approx, montecarlo, plp, rayleigh, specfun, transforms

P = sg.NetworkParams.from_delta(0.5)
GBP = approx.gb_params_from_pq(P, 1.0, 0.5)
NAN = math.nan
ARR = np.array([0.25, NAN, 0.75])

# every range check must reject NaN instead of passing it on, also
# inside an array, and every one is specfun._checked
NAN_CALLS = {
    "poly_ccdf": lambda: approx.poly_ccdf(P, 1, NAN),
    "rational_ccdf": lambda: approx.rational_ccdf(P, 2, NAN),
    "tail_ccdf": lambda: approx.tail_ccdf(P, 2, NAN),
    "best_sf_ccdf": lambda: approx.best_sf_ccdf(P, NAN),
    "best_sir_ccdf": lambda: approx.best_sir_ccdf(P, NAN),
    "markov_lower_bound": lambda: approx.markov_lower_bound(P, NAN),
    "nba_m_cdf_asymptote": lambda: approx.nba_m_cdf_asymptote(P, 2, NAN),
    "gb_pdf": lambda: approx.gb_pdf(GBP, NAN),
    "gb_cdf": lambda: approx.gb_cdf(GBP, NAN),
    "rba_cdf": lambda: plp.rba_cdf(P, NAN),
    "rba_pdf": lambda: plp.rba_pdf(P, NAN),
    "ratio_cdf": lambda: plp.ratio_cdf(P, 1, NAN),
    "ordered_pathloss_pdf": lambda: plp.ordered_pathloss_pdf(P, 1, NAN),
    "flat_cdf_asymptote": lambda: plp.flat_cdf_asymptote(P, NAN),
    "sir_ccdf_exact": lambda: rayleigh.sir_ccdf_exact(P, NAN),
    "sf_ccdf_exact_array": lambda: rayleigh.sf_ccdf_exact(P, ARR),
    "sir_ccdf_exact_array": lambda: rayleigh.sir_ccdf_exact(P, ARR),
    "sf_pdf_exact_array": lambda: rayleigh.sf_pdf_exact(P, ARR),
    "rba_cdf_array": lambda: plp.rba_cdf(P, ARR),
    "ratio_cdf_array": lambda: plp.ratio_cdf(P, 1, ARR),
    "rba_pdf_array": lambda: plp.rba_pdf(P, ARR),
    "gb_cdf_array": lambda: approx.gb_cdf(GBP, ARR),
    "sf_pdf_exact": lambda: rayleigh.sf_pdf_exact(P, NAN),
    "t_map": lambda: transforms.t_map(NAN),
    "t_inv": lambda: transforms.t_inv(NAN),
    "hyp2f1_11": lambda: specfun.hyp2f1_11(0.5, NAN),
    "g_n": lambda: plp.g_n(P, 1, NAN),
    "db_to_linear": lambda: transforms.db_to_linear(NAN),
    "linear_to_db": lambda: transforms.linear_to_db(NAN),
    "poly_ccdf_array": lambda: approx.poly_ccdf(P, 2, ARR),
    "tail_ccdf_array": lambda: approx.tail_ccdf(P, 2, ARR),
    "best_sf_ccdf_array": lambda: approx.best_sf_ccdf(P, ARR),
    "best_sir_ccdf_array": lambda: approx.best_sir_ccdf(P, ARR),
    "markov_lower_bound_array": lambda: approx.markov_lower_bound(P, ARR / 2),
    "nba_m_cdf_asymptote_array": lambda: approx.nba_m_cdf_asymptote(P, 2, ARR),
    "gb_pdf_array": lambda: approx.gb_pdf(GBP, ARR),
    "g_n_array": lambda: plp.g_n(P, 1, ARR),
    "ordered_pathloss_pdf_array": lambda: plp.ordered_pathloss_pdf(P, 1, ARR),
    "flat_cdf_asymptote_array": lambda: plp.flat_cdf_asymptote(P, ARR),
    "hyp2f1_11_array": lambda: specfun.hyp2f1_11(0.5, ARR),
    "t_map_array": lambda: transforms.t_map(ARR),
    "t_inv_array": lambda: transforms.t_inv(ARR),
    "db_to_linear_array": lambda: transforms.db_to_linear(ARR),
    "linear_to_db_array": lambda: transforms.linear_to_db(ARR),
}

# parameter checks written as x <= 0 would let NaN through
NAN_PARAMS = {
    "GBParams": lambda: approx.GBParams(a=NAN, b=0.5, p=NAN, q=0.5),
    "GBParams_a": lambda: approx.GBParams(a=NAN, b=0.5, p=2.0, q=0.5),
    "FadingModel.nakagami": lambda: montecarlo.FadingModel.nakagami(NAN),
    "sample_nakagami": lambda: montecarlo.sample_nakagami(
        NAN, montecarlo._rng_for(0, 0), 4),
    "beta_fn": lambda: specfun.beta_fn(NAN, 1.0),
}


@pytest.mark.parametrize("name", sorted(NAN_CALLS))
def test_nan_is_a_domain_error(name):
    with pytest.raises(ValueError, match=r"must be in [\[(].*, got nan$"):
        NAN_CALLS[name]()



@pytest.mark.parametrize("name", sorted(NAN_PARAMS))
def test_nan_parameter_is_rejected(name):
    with pytest.raises(ValueError):
        NAN_PARAMS[name]()
