"""Approximations and bounds for the Rayleigh/NBA signal-fraction ccdf:
Pade-type rational truncations, first/second-order polynomials at t = 0,
the second-order expansion at t = 1, the closed-form BEST approximation,
the four-parameter generalized beta family with moment matching, the
small-t asymptotics for Nakagami-m fading, and a Markov-type lower
bound for the no-fading case.  Every curve takes a float or an array
argument, checked through specfun._checked; powers are np.power, so an
array gives the elementwise scalar results bit for bit.

None of the approximations clamp to [0, 1]: bound-orientation checks
need the raw sign structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _special

from .rayleigh import NetworkParams, misr, sf_moment_exact
from .specfun import (NumericError, _by_half, _checked, beta_fn, find_root,
                      ln_gamma, sinc_pi)

_FIT_RESIDUAL_TOL = 1e-6

#: delta at which MISR^2 = delta; above it the exact ccdf is locally
#: convex at 0 and the order-1 polynomial is a lower bound
CONVEXITY_THRESHOLD = (3.0 - math.sqrt(5.0)) / 2.0


class FitError(RuntimeError):
    """Moment-matching fit failed; carries the best iterate found."""

    def __init__(self, msg, best=None):
        super().__init__(msg)
        self.best = best


def rational_coeff(params: NetworkParams, n: int) -> float:
    """Denominator series coefficient a_n = n! Gamma(1-d) / Gamma(n+1-d)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    d = params.delta
    return math.exp(ln_gamma(n + 1.0) + ln_gamma(1.0 - d) - ln_gamma(n + 1.0 - d))


def rational_ccdf(params: NetworkParams, s: int, t):
    """Order-s rational (Pade-type) ccdf approximation, for a float or
    an array t; the coefficients are computed once per call.

    Numerator and denominator are the order-s truncations of sum t^n
    and sum a_n t^n; the first s derivatives at 0 match the exact ccdf.
    """
    if s < 1:
        raise ValueError(f"order s must be >= 1, got {s}")
    t = _checked(t, "t", 0.0, 1.0)
    if np.any(t == 1.0):
        raise ValueError("t must be in [0, 1), got 1.0")
    num = 0.0
    den = 0.0
    tn = 1.0
    for n in range(s + 1):
        num += tn
        den += rational_coeff(params, n) * tn
        tn *= t
    return num / den


def poly_ccdf(params: NetworkParams, order: int, t):
    """Polynomial small-t approximation 1 - mu t [+ (mu^2-d)/(2-d) t^2]."""
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    t = _checked(t, "t", 0.0, 1.0)
    mu = misr(params)
    val = 1.0 - mu * t
    if order == 2:
        d = params.delta
        val += (mu * mu - d) / (2.0 - d) * t * t
    return val


def convexity_sign(params: NetworkParams) -> int:
    """Sign of MISR^2 - delta: positive iff delta > (3-sqrt(5))/2 ~ 0.382.

    Positive means the ccdf is locally convex at 0, so the order-1
    polynomial is a lower bound there and the order-2 one an upper
    bound; negative means both are upper bounds.
    """
    mu = misr(params)
    x = mu * mu - params.delta
    if abs(x) < 1e-12:
        return 0
    return 1 if x > 0.0 else -1


def tail_ccdf(params: NetworkParams, order: int, t):
    """Series expansion of the ccdf at t = 1: sinc(d)(1-t)^d [(1+d(1-t))]."""
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    t = _checked(t, "t", 0.0, 1.0, open_="lo")
    d = params.delta
    val = sinc_pi(d) * np.power(1.0 - t, d)
    if order == 2:
        val *= 1.0 + d * (1.0 - t)
    return val


def best_sf_ccdf(params: NetworkParams, t):
    """BEST approximation of the SF ccdf: ((1-t)/(1+mu t))^delta."""
    t = _checked(t, "t", 0.0, 1.0)
    mu = misr(params)
    return np.power((1.0 - t) / (1.0 + mu * t), params.delta)


def best_sir_ccdf(params: NetworkParams, theta):
    """BEST approximation of the SIR ccdf: (1 + (1+mu) theta)^(-delta)."""
    theta = _checked(theta, "theta", 0.0, math.inf)
    mu = misr(params)
    return np.power(1.0 + (1.0 + mu) * theta, -params.delta)


def best_inverse(params: NetworkParams, reliability: float) -> float:
    """SF threshold t with best_sf_ccdf(t) = reliability, in closed form."""
    if not 0.0 < reliability <= 1.0:
        raise ValueError(f"reliability must be in (0, 1], got {reliability}")
    mu = misr(params)
    r = reliability ** (1.0 / params.delta)
    return (1.0 - r) / (1.0 + mu * r)


@dataclass(frozen=True)
class GBParams:
    """Parameters of the generalized beta density on (0, 1).

    The support/finite-density reduction ties a = 1/p; b in (0, 1] is
    the scale.  The f(0) = MISR constraint additionally fixes b given
    (p, q); use gb_params_from_pq for that.
    """

    a: float
    b: float
    p: float
    q: float

    def __post_init__(self):
        if not (self.p > 0.0 and self.q > 0.0):
            raise ValueError(f"p, q must be positive, got ({self.p}, {self.q})")
        if not 0.0 < self.b <= 1.0:
            raise ValueError(f"b must be in (0, 1], got {self.b}")
        if not abs(self.a * self.p - 1.0) <= 1e-12:
            raise ValueError(f"a must equal 1/p, got a={self.a}, p={self.p}")


@dataclass(frozen=True)
class FitResult:
    params: GBParams
    target_moments: tuple
    achieved_moments: tuple
    residual: float


def gb_params_from_pq(params: NetworkParams, p: float, q: float) -> GBParams:
    """GBParams with a = 1/p and b fixed by the density-at-zero constraint
    f(0) = MISR, i.e. b = 1/(mu p B(p, q))."""
    mu = misr(params)
    b = 1.0 / (mu * p * beta_fn(p, q))
    return GBParams(a=1.0 / p, b=b, p=p, q=q)


def gb_params_for_nakagami(params: NetworkParams, m: float) -> GBParams:
    """Experimental tail-matched family for Nakagami-m: p = m, q = delta,
    b from the density-at-zero constraint.  For m = 1 this is the
    closed-form tail-matched density (p = 1, q = delta, b = 1 - delta)."""
    if not m > 0.0:
        raise ValueError(f"m must be positive, got {m}")
    return gb_params_from_pq(params, m, params.delta)


def gb_pdf(gbp: GBParams, t):
    """Generalized beta density a(1-t^a)^(q-1) / (b B(p,q) (1+(b^-a-1)t^a)^(p+q))."""
    t = _checked(t, "t", 0.0, 1.0, open_="both")
    a, b, p, q = gbp.a, gbp.b, gbp.p, gbp.q
    ta = np.power(t, a)
    return a * np.power(1.0 - ta, q - 1.0) / (
        b * beta_fn(p, q) * np.power(1.0 + (b ** -a - 1.0) * ta, p + q))


def gb_cdf(gbp: GBParams, t):
    """CDF of the generalized beta at t, a float or an array, the
    regularized incomplete beta I_w(p, q) with u = t^a, c = b^-a and
    w = c u / (1 + (c-1) u) (McDonald & Xu 1995); 0 below t = 0 and 1
    above t = 1."""
    a, p, q = gbp.a, gbp.p, gbp.q
    c = gbp.b ** -a
    t = _checked(t, "t", -math.inf, math.inf)
    # np.clip costs 4 us on a float
    t = (np.clip(t, 0.0, 1.0) if isinstance(t, np.ndarray)
         else min(max(t, 0.0), 1.0))

    def lower(s):
        u = np.power(s, a)
        return _special.betainc(p, q, c * u / (1.0 + (c - 1.0) * u))

    def upper(s):
        # I_w(p, q) = 1 - I_{1-w}(q, p), with 1 - w = (1 - t^a)/(1 + (c-1) u)
        # formed without cancellation: rounding w itself costs up to 7e-8
        # relative in the ccdf at t = 1 - 1e-9
        u = np.power(s, a)
        return _special.betaincc(q, p, -np.expm1(a * np.log(s))
                                 / (1.0 + (c - 1.0) * u))

    return _by_half(t, lower, upper)


def gb_moment(gbp: GBParams, k: int) -> float:
    """k-th moment b^k B((k+1)p, q)/B(p, q) 2F1((k+1)p, kp; (k+1)p+q; 1-b^a).

    scipy's 2F1 returns inf near z = 1 when c - a - b < 0 (at
    z = 1 - 6e-14 with p = 0.1, q = 0.072 and k = 1, where the value is
    4.59); a non-finite value is raised as NumericError, never returned.
    """
    if k < 1:
        raise ValueError(f"moment order must be >= 1, got {k}")
    a, b, p, q = gbp.a, gbp.b, gbp.p, gbp.q
    z = 1.0 - b ** a
    if not abs(z) < 1.0:
        raise ValueError(f"gb_moment requires |1 - b^a| < 1, got {z}")
    f = float(_special.hyp2f1((k + 1.0) * p, k * p, (k + 1.0) * p + q, z))
    if not math.isfinite(f):
        raise NumericError(f"2F1 at z = {z} for p = {p}, q = {q} is {f}")
    return b ** k * beta_fn((k + 1.0) * p, q) / beta_fn(p, q) * f


def _fit_residuals(params, p, q, m1, m2):
    gbp = gb_params_from_pq(params, p, q)
    return gb_moment(gbp, 1) / m1 - 1.0, gb_moment(gbp, 2) / m2 - 1.0


def gb_fit(params: NetworkParams) -> FitResult:
    """Fit (p, q) so the generalized beta matches the exact first and
    second SF moments, with a = 1/p and b from the f(0) = MISR constraint.

    Damped Newton with a forward-difference Jacobian, seeded at
    (p, q) = (1, delta) which is the closed-form tail-matched solution;
    relative moment residual at the returned point is <= 1e-6.  The
    moment solution is lost at a fold near delta = 0.385: the fit solves
    at 0.385 and 0.39 but not at 0.38 or 0.33, although the best (p, q)
    there still has b < 1 (b passes 1 only below delta ~ 0.32).  That
    surfaces as a FitError carrying the best iterate.
    """
    d = params.delta
    m1 = sf_moment_exact(params, 1)
    m2 = sf_moment_exact(params, 2)

    p, q = 1.0, d
    r1, r2 = _fit_residuals(params, p, q, m1, m2)
    best = (p, q, math.hypot(r1, r2))
    for _ in range(60):
        norm = math.hypot(r1, r2)
        if norm < best[2]:
            best = (p, q, norm)
        if norm < 1e-12:
            break
        hp = 1e-6 * max(1.0, abs(p))
        hq = 1e-6 * max(1.0, abs(q))
        try:
            r1p, r2p = _fit_residuals(params, p + hp, q, m1, m2)
            r1q, r2q = _fit_residuals(params, p, q + hq, m1, m2)
        except ValueError:
            # differencing stepped over the b <= 1 wall; probe backwards
            hp, hq = -hp, -hq
            r1p, r2p = _fit_residuals(params, p + hp, q, m1, m2)
            r1q, r2q = _fit_residuals(params, p, q + hq, m1, m2)
        j11, j12 = (r1p - r1) / hp, (r1q - r1) / hq
        j21, j22 = (r2p - r2) / hp, (r2q - r2) / hq
        det = j11 * j22 - j12 * j21
        if det == 0.0:
            break
        dp = (r1 * j22 - r2 * j12) / det
        dq = (r2 * j11 - r1 * j21) / det
        step = 1.0
        while step > 1e-6:
            pn = max(p - step * dp, 1e-3)
            qn = max(q - step * dq, 1e-3)
            try:
                n1, n2 = _fit_residuals(params, pn, qn, m1, m2)
            except (ValueError, OverflowError):
                step *= 0.5
                continue
            if math.hypot(n1, n2) < norm:
                p, q, r1, r2 = pn, qn, n1, n2
                break
            step *= 0.5
        else:
            break

    norm = math.hypot(r1, r2)
    if norm > _FIT_RESIDUAL_TOL:
        try:
            p, q = _fit_bisect_fallback(params, m1, m2, seed=(p, q))
            r1, r2 = _fit_residuals(params, p, q, m1, m2)
            norm = math.hypot(r1, r2)
        except ValueError:
            pass
    if norm > _FIT_RESIDUAL_TOL:
        raise FitError(
            f"moment fit stalled at residual {norm:.2e} "
            f"(best p={best[0]:.6f}, q={best[1]:.6f})", best=best)
    gbp = gb_params_from_pq(params, p, q)
    return FitResult(params=gbp,
                     target_moments=(m1, m2),
                     achieved_moments=(gb_moment(gbp, 1), gb_moment(gbp, 2)),
                     residual=max(abs(r1), abs(r2)))


def _fit_bisect_fallback(params, m1, m2, seed):
    # alternate 1-d bisections: r1 = 0 in p at fixed q, then r2 = 0 in q
    p, q = seed
    for _ in range(40):
        p = find_root(lambda x: _fit_residuals(params, x, q, m1, m2)[0],
                      1e-3, 50.0)
        q = find_root(lambda x: _fit_residuals(params, p, x, m1, m2)[1],
                      1e-3, 50.0)
        r1, r2 = _fit_residuals(params, p, q, m1, m2)
        if math.hypot(r1, r2) < 1e-9:
            break
    return p, q


def nba_m_cdf_asymptote(params: NetworkParams, m: int, t):
    """Small-t ccdf asymptote 1 - c_m E[ISR^m] t^m for Nakagami-m fading.

    c_m = m^(m-1)/Gamma(m); E[ISR] = MISR and
    E[ISR^2] = 2 MISR^2 + delta E[h^2]/(2-delta) with E[h^2] = 3/2 for
    the unit-mean Nakagami-2 power gain.  Higher ISR moments are not
    available here, so m is restricted to {1, 2}.
    """
    if m not in (1, 2):
        raise ValueError(f"only m in {{1, 2}} is supported, got {m}")
    t = _checked(t, "t", 0.0, 1.0)
    mu = misr(params)
    if m == 1:
        coef = mu
    else:
        e_h2 = 1.5
        e_isr2 = 2.0 * mu * mu + params.delta * e_h2 / (2.0 - params.delta)
        coef = 2.0 * e_isr2
    return 1.0 - coef * np.power(t, m)


def markov_lower_bound(params: NetworkParams, t):
    """No-fading ccdf lower bound 1 - d/(2-d) t^2/(1-d-t)^2 for t < 1-d.

    Derived from the variance of 1/SF; can go negative and is not
    clamped.
    """
    d = params.delta
    t = _checked(t, "t", 0.0, 1.0 - d, open_="hi")
    return 1.0 - d / (2.0 - d) * t * t / np.power(1.0 - d - t, 2)

