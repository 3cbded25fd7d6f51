"""Special-function kernel.

Gamma/beta, the closed form of 2F1(1, 1; 1-delta; t) through the
incomplete beta ratio, the Kummer confluent function, sinc, harmonic
numbers, bracketing root-finding and adaptive quadrature with declared
algebraic endpoint singularities.  Everything is pure; hyp2f1_11 and
the incomplete beta kernels take a float or an array.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy import integrate as _integrate
from scipy import optimize as _optimize
from scipy import special as _special


class NumericError(RuntimeError):
    """A quadrature, an iteration or a special function failed its
    accuracy target."""


class BracketError(ValueError):
    """A root bracket does not enclose a sign change."""


_QUAD_REL_EPS = 1e-9    # relative accuracy quad accepts
_ROOT_MAX_ITER = 100    # cap on find_root's iterations


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    if not x > 0.0:
        raise ValueError(f"ln_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def beta_fn(p: float, q: float) -> float:
    """Beta function B(p, q) = Gamma(p)Gamma(q)/Gamma(p+q), p, q > 0."""
    if not (p > 0.0 and q > 0.0):
        raise ValueError(f"beta_fn requires p, q > 0, got ({p}, {q})")
    return math.exp(math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q))


def sinc_pi(x: float) -> float:
    """sin(pi x)/(pi x) with the removable singularity at 0 handled exactly."""
    if x == 0.0:
        return 1.0
    return math.sin(math.pi * x) / (math.pi * x)


def harmonic(i: int) -> float:
    """i-th harmonic number 1 + 1/2 + ... + 1/i, i >= 1, as
    digamma(i + 1) + Euler's gamma (DLMF 5.4.14), in constant time."""
    if i < 1:
        raise ValueError(f"harmonic requires i >= 1, got {i}")
    return float(_special.digamma(i + 1.0)) + np.euler_gamma


def _checked(x, name: str, lo: float, hi: float, open_: str = ""):
    """x as a float, or as a float array when it is array-like, after
    checking that it lies between lo and hi; open_ names the open ends,
    "lo", "hi" or "both", and the others are closed.  NaN fails."""
    scalar = isinstance(x, (int, float))
    v = x if scalar else np.asarray(x, dtype=float)
    if not open_:   # most calls, among them every quadrature node
        ok = (lo <= v) & (v <= hi)
    else:
        ok = (lo < v if open_ != "hi" else lo <= v) & (
            v < hi if open_ != "lo" else v <= hi)
    if not (ok if scalar else ok.all()):
        bad = v if scalar else v[~ok][0]
        raise ValueError(
            f"{name} must be in {'(' if open_ in ('lo', 'both') else '['}"
            f"{lo:g}, {hi:g}{')' if open_ in ('hi', 'both') else ']'}, "
            f"got {bad}")
    return v


def _by_half(t, lower, upper):
    """lower(t) where t <= 1/2 and upper(t) above, for a float or an
    array t.  The incomplete beta ratios switch there to their
    complement at 1 - t, which is exact for t >= 1/2."""
    if not isinstance(t, np.ndarray):
        return lower(t) if t <= 0.5 else upper(t)
    out = np.empty_like(t)
    lo = t <= 0.5
    out[lo] = lower(t[lo])
    out[~lo] = upper(t[~lo])
    return out


def _rba_cdf(d: float, t):
    """I_t(1-d, d), the Beta(1-d, d) cdf of the random-association signal
    fraction, for t in [0, 1].  betainc itself is up to 1e-10 off near
    t = 1, so the upper half is betaincc(d, 1-d, 1-t)."""
    return _by_half(t, lambda s: _special.betainc(1.0 - d, d, s),
                    lambda s: _special.betaincc(d, 1.0 - d, 1.0 - s))


def _nba_parts(d: float, t):
    """u = (1-t)^d and w = t^d I_t(1-d, d) / sinc(d) for t in [0, 1], a
    float or an array, so that (1-t) 2F1(1, 1; 1-d; t) = 1 + w/u.

    This is DLMF 8.17.8 plus one integration by parts.  np.power, unlike
    float **, rounds a float exactly as it rounds an array element, so
    scalar and array calls agree bit for bit.
    """
    return (np.power(1.0 - t, d),
            np.power(t, d) * _rba_cdf(d, t) / sinc_pi(d))


def hyp2f1_11(delta: float, t):
    """2F1(1, 1; 1 - delta; t) for delta in (0, 1) and t in [0, 1), a
    float or an array, in closed form as (u + w)/(u (1-t)); see
    _nba_parts."""
    _checked(delta, "delta", 0.0, 1.0, open_="both")
    t = _checked(t, "t", 0.0, 1.0, open_="hi")
    u, w = _nba_parts(delta, t)
    return (u + w) / (u * (1.0 - t))


def hyp1f1(a: float, b: float, z: float) -> float:
    """Kummer confluent hypergeometric 1F1(a; b; z)."""
    if b <= 0.0 and b == math.floor(b):
        raise ValueError(f"b must not be a non-positive integer, got {b}")
    return float(_special.hyp1f1(a, b, z))


def find_root(f, lo: float, hi: float) -> float:
    """Root of f on the bracket [lo, hi]; f(lo) and f(hi) must differ in sign."""
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise BracketError(
            f"no sign change on [{lo}, {hi}]: f(lo)={flo:.3g}, f(hi)={fhi:.3g}")
    try:
        root, res = _optimize.brentq(f, lo, hi, xtol=1e-15, rtol=8.9e-16,
                                     maxiter=_ROOT_MAX_ITER, full_output=True)
    except RuntimeError as exc:
        raise NumericError(f"root iteration failed: {exc}") from exc
    if not res.converged:
        raise NumericError(
            f"root iteration did not converge in {_ROOT_MAX_ITER} steps")
    return root


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
