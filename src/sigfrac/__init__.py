"""Signal-fraction and SIR distributions in Poisson cellular networks:
exact results, approximations, bounds, and Monte Carlo simulation.

The signal fraction SF = S/(S+I) = T(SIR) with T(x) = x/(1+x) lives on
[0, 1]; every distribution here depends on the path loss exponent alpha
only through delta = 2/alpha.
"""

from .approx import (FitError, FitResult, GBParams, best_inverse,
                     best_sf_ccdf, best_sir_ccdf, convexity_sign, gb_cdf,
                     gb_fit, gb_moment, gb_params_from_pq, gb_pdf,
                     markov_lower_bound, nba_m_cdf_asymptote, poly_ccdf,
                     rational_ccdf, rational_coeff, tail_ccdf)
from .montecarlo import (AssociationRule, EmpiricalDistribution, FadingModel,
                         SimConfig, SimResult, SimulationError, arcsine_cdf,
                         arcsine_moment, conjecture_report, empirical_ccdf,
                         empirical_moment, ks_distance, sample_nakagami,
                         sample_sf, sample_sf_topk)
from .plp import (flatness_rate, g_n, g_n_is_exact, log_sf_gap,
                  mean_sf1_upper_bound, mean_sf_ratio, misf,
                  ordered_pathloss_pdf, ratio_cdf, rba_cdf, rba_mean, rba_pdf)
from .rayleigh import (NetworkParams, misr, sf_ccdf_exact, sf_moment_exact,
                       sf_pdf_exact, sir_ccdf_exact)
from .specfun import NumericError, beta_fn, harmonic, hyp2f1_11, sinc_pi
from .transforms import AxisUnit, db_to_linear, linear_to_db, t_inv, t_map

__version__ = "1.0.0"
