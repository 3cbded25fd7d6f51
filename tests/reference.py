"""Reference numerics that only the tests use.

quad is the adaptive QUADPACK integral the tests check the closed forms
against; the library's own moments use a fixed tanh-sinh rule.
nba_nakagami_ccdf is the exact nearest-station law under integer
Nakagami-m fading, the Monte Carlo's oracle for m > 1.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy import integrate as _integrate
from scipy import special as _special

from sigfrac.specfun import NumericError

_QUAD_REL_EPS = 1e-9    # relative accuracy quad accepts


def quad(f, a: float, b: float, left_power: float | None = None,
         right_power: float | None = None) -> float:
    """Definite integral of f over (a, b).

    A declared left_power gamma states that f(x) ~ C (x-a)**(gamma-1)
    as x -> a+ (integrable for gamma > 0); right_power declares the
    same at b.  Declared singularities are handled by the algebraic
    endpoint-weight rule: the singular factors are divided out of the
    integrand (cancelling their rounding error exactly) and applied
    analytically by the quadrature weight.  Declared powers require the
    corresponding endpoint to be finite.

    Raises NumericError when the achieved absolute error estimate
    exceeds max(1e-9 * |value|, 1e-12).
    """
    lo, hi = float(a), float(b)
    lp = 1.0 if left_power is None else float(left_power)
    rp = 1.0 if right_power is None else float(right_power)
    if not (lp > 0.0 and rp > 0.0):
        raise ValueError(f"endpoint powers must be > 0, got ({lp}, {rp})")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", _integrate.IntegrationWarning)
        if lp != 1.0 or rp != 1.0:
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError("declared endpoint powers need finite endpoints")

            nudge = 2.3e-16 * (hi - lo)   # the rule samples the endpoints

            def h(x):
                if x - lo < nudge:
                    x = lo + nudge
                elif hi - x < nudge:
                    x = hi - nudge
                v = f(x)
                if lp != 1.0:
                    v *= (x - lo) ** (1.0 - lp)
                if rp != 1.0:
                    v *= (hi - x) ** (1.0 - rp)
                return v

            total, err = _integrate.quad(h, lo, hi, weight="alg",
                                         wvar=(lp - 1.0, rp - 1.0),
                                         epsabs=1e-14, epsrel=1e-11, limit=200)
        else:
            total, err = _integrate.quad(f, lo, hi, epsabs=1e-14, epsrel=1e-11,
                                         limit=200)
    # QUADPACK error estimates are conservative by an order of magnitude
    if err > max(10.0 * _QUAD_REL_EPS * abs(total), 1e-12):
        raise NumericError(
            f"quadrature accuracy target {_QUAD_REL_EPS:.1e} not met: "
            f"achieved abs error {err:.2e} on value {total:.6e}")
    return total


def nba_nakagami_ccdf(delta: float, m: int, t):
    """Exact ccdf of the nearest-station signal fraction under unit-mean
    Nakagami-m fading, m a positive integer, at t in [0, 1), a float or
    an array.

    Y, the interference over the unfaded nearest signal, has the Laplace
    transform L(s) = 1 / F(s) with F(s) = 2F1(m, -delta; 1-delta; -s/m)
    (Campbell's formula over the arrivals beyond the first, averaged
    over it).  SF > t exactly when the gain h exceeds theta Y, theta =
    t/(1-t), and P(h > x) = e^(-mx) sum_{j<m} (mx)^j / j!, so with
    s = m theta

        ccdf(t) = sum_{j<m} (-s)^j / j! L^(j)(s),

    where F^(i)(s) = (m)_i (-delta)_i / (1-delta)_i (-1/m)^i
    2F1(m+i, i-delta; i+1-delta; -s/m) and L^(j) follows from L F = 1
    as L^(j) = -(1/F) sum_{i=1..j} C(j, i) F^(i) L^(j-i).  At m = 1 it
    is 1 / F(theta), the Rayleigh law.
    """
    if m < 1 or int(m) != m:
        raise ValueError(f"m must be a positive integer, got {m}")
    m = int(m)
    t = np.asarray(t, dtype=float)
    s = m * t / (1.0 - t)
    z = -s / m
    dF = [_special.poch(m, i) * _special.poch(-delta, i)
          / _special.poch(1.0 - delta, i) * (-1.0 / m) ** i
          * _special.hyp2f1(m + i, i - delta, i + 1.0 - delta, z)
          for i in range(m)]
    L = [1.0 / dF[0]]
    for j in range(1, m):
        L.append(-sum(math.comb(j, i) * dF[i] * L[j - i]
                      for i in range(1, j + 1)) / dF[0])
    out = sum((-s) ** j / math.factorial(j) * L[j] for j in range(m))
    return float(out) if out.ndim == 0 else out
