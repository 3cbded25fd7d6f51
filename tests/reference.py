"""Reference numerics that only the tests use.

quad is the adaptive QUADPACK integral the tests check the closed forms
against; the library's own moments use a fixed tanh-sinh rule.
"""

from __future__ import annotations

import math
import warnings

from scipy import integrate as _integrate

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
