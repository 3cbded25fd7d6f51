"""No-fading (equivalently, instantaneously-strongest association)
analytics on the path loss point process.

The delta-th powers of the ordered path loss values are unit-rate
Poisson arrival times, so xi_k^delta ~ Gamma(k).  The normalized
received powers form a Poisson-Dirichlet (delta, 0) sequence; the
results here are the ordered-point densities, the ratio laws between
ordered signal fractions, the g_n ccdf family, the mean-SF1 upper
bound, the random-association beta law, and the flatness rate of the
SF1 cdf at 0.  Every curve takes a float or an array argument, checked
through specfun._checked.
"""

from __future__ import annotations

import math

import numpy as np

from .rayleigh import NetworkParams
from .specfun import (NumericError, _checked, _no_overflow, _rba_cdf, harmonic,
                      sinc_pi)

#: g_n(t) is the exact ccdf of SF_n/(1 - SF_1 - ... - SF_{n-1}) only for
#: t >= 1/2; below that it is an upper bound.
GN_EXACT_MIN = 0.5


def g_n_is_exact(t):
    """True where g_n(t) is exact, for a float or an array t."""
    return t >= GN_EXACT_MIN


def ordered_pathloss_pdf(params: NetworkParams, k: int, x):
    """Density of the k-th smallest path loss: d x^(kd-1) e^(-x^d) / Gamma(k)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    x = _checked(x, "x", 0.0, math.inf, open_="lo")
    d = params.delta
    return d * np.power(x, k * d - 1.0) * np.exp(
        -np.power(x, d) - math.lgamma(k))


def ratio_cdf(params: NetworkParams, i: int, r):
    """CDF r^(i delta) of the ratio R_i = SF_{i+1}/SF_i of consecutive
    ordered signal fractions, at r in [0, 1], a float or an array; the
    R_i are independent with mean i delta/(1 + i delta)."""
    if i < 1:
        raise ValueError(f"i must be >= 1, got {i}")
    return np.power(_checked(r, "r", 0.0, 1.0), i * params.delta)


def mean_sf_ratio(params: NetworkParams, i: int) -> float:
    """E[SF_i / SF_1] = Gamma(i) Gamma(1 + 1/d) / Gamma(i + 1/d).

    Summed over all i these means give the mean inverse signal fraction
    1/(1 - delta).
    """
    if i < 1:
        raise ValueError(f"i must be >= 1, got {i}")
    inv = 1.0 / params.delta
    return math.exp(math.lgamma(i) + math.lgamma(1.0 + inv)
                    - math.lgamma(i + inv))


def log_sf_gap(params: NetworkParams, i: int) -> float:
    """Expected log gap E[log SF_1] - E[log SF_{i+1}] = H_i / delta."""
    if i < 1:
        raise ValueError(f"i must be >= 1, got {i}")
    return harmonic(i) / params.delta


def g_n(params: NetworkParams, n: int, t):
    """g_n(t) = (1/t - 1)^(n d) / (Gamma(1+n d) Gamma(1-d)^n).

    Equals P(SF_n + t (SF_1 + ... + SF_{n-1}) > t) exactly for
    t >= 1/2; for smaller t it is only an upper bound (and can exceed
    1) -- see g_n_is_exact.  A value past the largest double, near
    t = 0, is a ValueError.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    t = _checked(t, "t", 0.0, 1.0, open_="both")
    d = params.delta
    with np.errstate(over="ignore", invalid="ignore"):
        v = np.power(1.0 / t - 1.0, n * d) * math.exp(
            -math.lgamma(1.0 + n * d) - n * math.lgamma(1.0 - d))
    return _no_overflow(v, t, f"g_{n}(t) overflows a double at t = {{}}")


def g1_unit_crossing(params: NetworkParams) -> float:
    """The t where g_1(t) = 1, in closed form: 1/(1 + sinc(d)^(-1/d))."""
    d = params.delta
    return 1.0 / (1.0 + sinc_pi(d) ** (-1.0 / d))


def mean_sf1_upper_bound(params: NetworkParams) -> float:
    """Upper bound on E[SF_1] without fading: int_0^1 min(1, g_1(t)) dt.

    Beyond the crossing g_1(t0) = 1, g_1(t) = t^-d (1-t)^d / B(1-d, 1+d)
    is the Beta(1-d, 1+d) density, because Gamma(1+d) Gamma(1-d) =
    B(1-d, 1+d).  The bound is therefore t0 + 1 - I_t0(1-d, 1+d).
    """
    from scipy import special   # loaded on first call

    d = params.delta
    t0 = g1_unit_crossing(params)
    return t0 + float(special.betaincc(1.0 - d, 1.0 + d, t0))


def rba_pdf(params: NetworkParams, t):
    """Density of the SF under random association with selection
    probabilities SF_k: sin(pi d) / (pi t^d (1-t)^(1-d)), a Beta(1-d, d);
    t in (0, 1) is a float or an array.  A value past the largest
    double, near t = 0, is a ValueError."""
    t = _checked(t, "t", 0.0, 1.0, open_="both")
    d = params.delta
    with np.errstate(over="ignore"):
        v = math.sin(math.pi * d) / (
            math.pi * np.power(t, d) * np.power(1.0 - t, 1.0 - d))
    return _no_overflow(v, t, "the rba density overflows a double at t = {}")


def rba_cdf(params: NetworkParams, t):
    """CDF of the random-association SF, the regularized incomplete beta
    I_t(1-d, d) at t in [0, 1], a float or an array; the arcsine law
    2 arcsin(sqrt t)/pi when delta = 1/2.  Through
    rayleigh.sf_ccdf_exact = 1 / (1 + (t/(1-t))^d rba_cdf / sinc d) it
    also gives the exact Rayleigh/NBA law."""
    return _rba_cdf(params.delta, _checked(t, "t", 0.0, 1.0))


def rba_moment(params: NetworkParams, k: int) -> float:
    """k-th moment prod_{i<k} (1-d+i)/(1+i) of the random-association SF,
    Beta(1-d, d): 1 - d at k = 1, the arcsine C(2k, k)/4^k at d = 1/2."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return math.prod((1.0 - params.delta + i) / (1.0 + i) for i in range(k))


def flatness_rate(params: NetworkParams) -> float:
    """Rate s* > 0 of the no-fading SF_1 cdf near 0, where
    F(t) ~ exp(-s* (1/t - 1)) as t -> 0 (all derivatives vanish at 0).

    s* is the unique positive zero of the Kummer function
    1F1(-delta; 1-delta; s).  Evaluated at negative argument instead,
    the Kummer transformation shows 1F1(-delta; 1-delta; -s) =
    e^-s 1F1(1; 1-delta; s) > 0 for every s, so the zero can only sit
    on the positive axis.  On the positive axis it falls from exactly 1
    at s = 0, so the bracket [0, 100] holds the zero whenever the value
    at 100 is negative, however close to 0 the zero, about (1-d)/d as
    d -> 1, lies; the relative tolerance alone stops the iteration.
    """
    from scipy import optimize, special   # loaded on first call

    d = params.delta

    def f(s):
        return special.hyp1f1(-d, 1.0 - d, s)

    if not f(100.0) < 0.0:
        raise NumericError("no sign change of 1F1(-d, 1-d, s) on (0, 100]")
    try:
        return optimize.brentq(f, 0.0, 100.0, xtol=1e-300, rtol=8.9e-16,
                               maxiter=100)
    except RuntimeError as exc:   # brentq did not converge
        raise NumericError(f"root iteration failed: {exc}") from exc


def flat_cdf_asymptote(params: NetworkParams, t):
    """The small-t cdf asymptote exp(-s* (1/t - 1)) itself."""
    t = _checked(t, "t", 0.0, 1.0, open_="both")
    s = flatness_rate(params)
    return np.exp(-s * (1.0 / t - 1.0))


def misf(params: NetworkParams) -> float:
    """Mean inverse signal fraction E[1/SF_1] = 1/(1 - delta)."""
    return 1.0 / (1.0 - params.delta)
