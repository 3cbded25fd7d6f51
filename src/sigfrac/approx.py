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

from .rayleigh import NetworkParams, _sf_moments, misr
from .specfun import NumericError, _by_half, _checked, beta_fn, sinc_pi

_FIT_RESIDUAL_TOL = 1e-6
_FIT_WALL = 1e3         # residual the fit sees where (p, q) has no moments
_RATIONAL_MAX_ORDER = 1000  # rational_ccdf sums s + 1 terms in Python

#: delta at which MISR^2 = delta; above it the exact ccdf is locally
#: convex at 0 and the order-1 polynomial is a lower bound
CONVEXITY_THRESHOLD = (3.0 - math.sqrt(5.0)) / 2.0


class FitError(RuntimeError):
    """Moment-matching fit failed; best is the solver's final (p, q, norm)."""

    def __init__(self, msg, best=None):
        super().__init__(msg)
        self.best = best


def rational_coeff(params: NetworkParams, n: int) -> float:
    """Denominator series coefficient a_n = n! Gamma(1-d) / Gamma(n+1-d)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    d = params.delta
    return math.exp(math.lgamma(n + 1.0) + math.lgamma(1.0 - d)
                    - math.lgamma(n + 1.0 - d))


def rational_ccdf(params: NetworkParams, s: int, t):
    """Order-s rational (Pade-type) ccdf approximation, for a float or
    an array t; the coefficients are computed once per call.

    Numerator and denominator are the order-s truncations of sum t^n
    and sum a_n t^n; the first s derivatives at 0 match the exact ccdf.
    The order is limited to 1..1000, a loop of a few ms at the limit.
    """
    if not 1 <= s <= _RATIONAL_MAX_ORDER:
        raise ValueError(
            f"order s must be in [1, {_RATIONAL_MAX_ORDER}], got {s}")
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
    """Parameters of the generalized beta density on (0, 1): the shapes
    p, q > 0 and the scale b in (0, 1].  The support/finite-density
    reduction ties the exponent a = 1/p, so a is derived.  The
    f(0) = MISR constraint additionally fixes b given (p, q); use
    gb_params_from_pq for that.
    """

    b: float
    p: float
    q: float

    def __post_init__(self):
        if not (self.p > 0.0 and self.q > 0.0):
            raise ValueError(f"p, q must be positive, got ({self.p}, {self.q})")
        if not 0.0 < self.b <= 1.0:
            raise ValueError(f"b must be in (0, 1], got {self.b}")

    @property
    def a(self) -> float:
        return 1.0 / self.p


@dataclass(frozen=True)
class FitResult:
    params: GBParams
    target_moments: tuple
    achieved_moments: tuple
    residual: float
    nfev: int   # residual evaluations of the solver


def gb_params_from_pq(params: NetworkParams, p: float, q: float) -> GBParams:
    """GBParams with b fixed by the density-at-zero constraint
    f(0) = MISR, i.e. b = 1/(mu p B(p, q))."""
    mu = misr(params)
    b = 1.0 / (mu * p * beta_fn(p, q))
    return GBParams(b=b, p=p, q=q)


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
    from scipy import special   # loaded on first call

    a, p, q = gbp.a, gbp.p, gbp.q
    c = gbp.b ** -a
    t = _checked(t, "t", -math.inf, math.inf)
    # np.clip costs 4 us on a float
    t = (np.clip(t, 0.0, 1.0) if isinstance(t, np.ndarray)
         else min(max(t, 0.0), 1.0))

    def lower(s):
        u = np.power(s, a)
        return special.betainc(p, q, c * u / (1.0 + (c - 1.0) * u))

    def upper(s):
        # I_w(p, q) = 1 - I_{1-w}(q, p), with 1 - w = (1 - t^a)/(1 + (c-1) u)
        # formed without cancellation: rounding w itself costs up to 7e-8
        # relative in the ccdf at t = 1 - 1e-9
        u = np.power(s, a)
        return special.betaincc(q, p, -np.expm1(a * np.log(s))
                                / (1.0 + (c - 1.0) * u))

    return _by_half(t, lower, upper)


def gb_moment(gbp: GBParams, k: int) -> float:
    """k-th moment b^k B((k+1)p, q)/B(p, q) 2F1((k+1)p, kp; (k+1)p+q; 1-b^a).

    scipy's 2F1 returns inf near z = 1 when c - a - b < 0 (at
    z = 1 - 6e-14 with p = 0.1, q = 0.072 and k = 1, where the value is
    4.59); a non-finite value is raised as NumericError, never returned.
    """
    from scipy import special   # loaded on first call

    if k < 1:
        raise ValueError(f"moment order must be >= 1, got {k}")
    a, b, p, q = gbp.a, gbp.b, gbp.p, gbp.q
    z = 1.0 - b ** a
    if not abs(z) < 1.0:
        raise ValueError(f"gb_moment requires |1 - b^a| < 1, got {z}")
    f = float(special.hyp2f1((k + 1.0) * p, k * p, (k + 1.0) * p + q, z))
    if not math.isfinite(f):
        raise NumericError(f"2F1 at z = {z} for p = {p}, q = {q} is {f}")
    return b ** k * beta_fn((k + 1.0) * p, q) / beta_fn(p, q) * f


def gb_fit(params: NetworkParams) -> FitResult:
    """Fit (p, q) so the generalized beta matches the exact first and
    second SF moments, with a = 1/p and b from the f(0) = MISR constraint.

    MINPACK's hybrid Powell method (scipy.optimize.root, "hybr"; More,
    Garbow & Hillstrom 1980), seeded at the closed-form tail-matched
    solution (p, q) = (1, delta), zeroes the two relative moment
    residuals; the fit succeeds when both are at most 1e-6.  Past the
    b <= 1 wall, or at p, q <= 0, the residuals are a large constant,
    so the solver never accepts a step there.  The moment solution is
    lost at a fold near delta = 0.385: the fit solves at 0.385 and 0.39
    but raises FitError, carrying the solver's final iterate, at 0.38
    and 0.33, where that iterate still has b < 1.  The error message
    names that iterate's b, the solver's evaluation count and its
    message, so a fold (b < 1, the solver reports no progress) reads
    apart from a solve that ran out of evaluations.
    """
    from scipy import optimize   # only the fit needs it; loaded on first call

    m1, m2 = _sf_moments(params, (1, 2))

    def residuals(x):
        try:
            gbp = gb_params_from_pq(params, x[0], x[1])
            return gb_moment(gbp, 1) / m1 - 1.0, gb_moment(gbp, 2) / m2 - 1.0
        except (ValueError, OverflowError):
            return _FIT_WALL, _FIT_WALL

    sol = optimize.root(residuals, [1.0, params.delta], method="hybr")
    p, q = map(float, sol.x)
    r1, r2 = map(float, sol.fun)
    residual = max(abs(r1), abs(r2))
    if residual > _FIT_RESIDUAL_TOL:
        # the solver only accepts steps that lower the residual norm, so
        # its final iterate lies inside the family and has a b
        norm = math.hypot(r1, r2)
        b = gb_params_from_pq(params, p, q).b
        raise FitError(
            f"moment fit stalled at residual {norm:.2e} "
            f"(best p={p:.6f}, q={q:.6f}, b={b:.6f}; {sol.nfev} evaluations; "
            f"solver: {' '.join(sol.message.split())})", best=(p, q, norm))
    gbp = gb_params_from_pq(params, p, q)
    return FitResult(params=gbp,
                     target_moments=(m1, m2),
                     achieved_moments=(gb_moment(gbp, 1), gb_moment(gbp, 2)),
                     residual=residual, nfev=int(sol.nfev))


def nba_m_cdf_asymptote(params: NetworkParams, m: int, t):
    """Small-t ccdf asymptote 1 - c_m E[ISR^m] t^m for Nakagami-m fading.

    c_m = m^(m-1)/Gamma(m); E[ISR] = MISR and
    E[ISR^2] = 2 MISR^2 + delta E[h^2]/(2-delta) with E[h^2] = 1 + 1/m
    for the unit-mean Nakagami-m power gain.  Higher ISR moments are not
    available here, so m is restricted to {1, 2}.
    """
    if m not in (1, 2):
        raise ValueError(f"only m in {{1, 2}} is supported, got {m}")
    t = _checked(t, "t", 0.0, 1.0)
    mu = misr(params)
    if m == 1:
        coef = mu
    else:
        e_isr2 = (2.0 * mu * mu
                  + params.delta * (1.0 + 1.0 / m) / (2.0 - params.delta))
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

