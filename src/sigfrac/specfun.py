"""Scalar special-function kernel.

Gamma/beta, the Gauss hypergeometric series for the real parameter
patterns used elsewhere in this package (last argument in [0, 1)),
the Kummer confluent function, sinc, harmonic numbers, bracketing
root-finding and adaptive quadrature with declared algebraic endpoint
singularities.  Everything operates on Python floats and is pure.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from scipy import integrate as _integrate
from scipy import optimize as _optimize
from scipy import special as _special


class NumericError(RuntimeError):
    """A series, quadrature, or iteration failed its accuracy target."""


class BracketError(ValueError):
    """A root bracket does not enclose a sign change."""


@dataclass(frozen=True)
class Tolerance:
    """Accuracy knobs shared by series, quadrature, and root-finding.

    rel_eps is the relative accuracy *accepted* by quad (series stop at
    machine precision regardless); max_terms caps series length and
    max_iter caps root-finder iterations.
    """

    rel_eps: float = 1e-9
    max_terms: int = 200_000
    max_iter: int = 100

    def __post_init__(self):
        if not self.rel_eps > 0.0:
            raise ValueError("rel_eps must be positive")
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


DEFAULT_TOL = Tolerance()


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
    """i-th harmonic number 1 + 1/2 + ... + 1/i, i >= 1."""
    if i < 1:
        raise ValueError(f"harmonic requires i >= 1, got {i}")
    return sum(1.0 / k for k in range(1, i + 1))


def _series_sum(term_ratio, tol: Tolerance, what: str) -> float:
    """Sum 1 + sum_n t_n with t_{n+1}/t_n given by term_ratio(n).

    Stops after two consecutive terms below machine-level relative size
    (a single small term can be an accidental zero of a signed series).
    """
    s = 1.0
    term = 1.0
    small = 0
    for n in range(tol.max_terms):
        term *= term_ratio(n)
        s += term
        if abs(term) <= 1e-16 * abs(s):
            small += 1
            if small >= 2:
                return s
        else:
            small = 0
    raise NumericError(f"{what}: series did not converge in {tol.max_terms} terms")


def hyp2f1_series(a: float, b: float, c: float, z: float,
                  tol: Tolerance = DEFAULT_TOL) -> float:
    """Gauss series sum of 2F1(a, b; c; z) for real parameters, |z| < 1.

    Plain term-by-term summation; adequate for the parameter patterns
    used here, where either |z| is bounded away from 1 or c - a - b > 0.
    """
    if abs(z) >= 1.0:
        raise ValueError(f"hyp2f1_series requires |z| < 1, got {z}")
    if c <= 0.0 and c == math.floor(c):
        raise ValueError(f"c must not be a non-positive integer, got {c}")
    if z == 0.0:
        return 1.0
    return _series_sum(
        lambda n: (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z, tol, "hyp2f1")


def hyp2f1_11(delta: float, t: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """2F1(1, 1; 1 - delta; t) for delta in (0, 1), t in [0, 1).

    Three regimes: the direct series for t <= 1/2; the Euler
    transformation (1-t)^(-1-delta) 2F1(-delta, -delta; 1-delta; t) for
    moderate t; and for t > 0.9 the 1-t connection formula

        delta/(1+delta) * 2F1(1, 1; 2+delta; 1-t)
          + (1-t)^(-1-delta) t^delta / sinc(delta),

    whose series converges geometrically all the way to t -> 1 (the
    Euler series alone needs O((1-t)^-1) terms there).
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if not 0.0 <= t < 1.0:
        raise ValueError(f"t must be in [0, 1), got {t}")
    if t == 0.0:
        return 1.0
    if t <= 0.5:
        # 2F1(1,1;1-d;t) = sum a_n t^n with a_n = n! Gamma(1-d)/Gamma(n+1-d)
        return _series_sum(lambda n: (n + 1.0) / (n + 1.0 - delta) * t,
                           tol, "hyp2f1_11")
    if t <= 0.9:
        f = hyp2f1_series(-delta, -delta, 1.0 - delta, t, tol)
        return (1.0 - t) ** (-1.0 - delta) * f
    w = 1.0 - t
    f = hyp2f1_series(1.0, 1.0, 2.0 + delta, w, tol)
    return (delta / (1.0 + delta)) * f + w ** (-1.0 - delta) * t ** delta / sinc_pi(delta)


def hyp1f1(a: float, b: float, z: float) -> float:
    """Kummer confluent hypergeometric 1F1(a; b; z)."""
    if b <= 0.0 and b == math.floor(b):
        raise ValueError(f"b must not be a non-positive integer, got {b}")
    return float(_special.hyp1f1(a, b, z))


def find_root(f, lo: float, hi: float, tol: Tolerance = DEFAULT_TOL) -> float:
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
                                     maxiter=tol.max_iter, full_output=True)
    except RuntimeError as exc:
        raise NumericError(f"root iteration failed: {exc}") from exc
    if not res.converged:
        raise NumericError(f"root iteration did not converge in {tol.max_iter} steps")
    return root


def quad(f, a: float, b: float, tol: Tolerance = DEFAULT_TOL,
         left_power: float | None = None, right_power: float | None = None) -> float:
    """Definite integral of f over (a, b).

    A declared left_power gamma states that f(x) ~ C (x-a)**(gamma-1)
    as x -> a+ (integrable for gamma > 0); right_power declares the
    same at b.  Declared singularities are handled by the algebraic
    endpoint-weight rule: the singular factors are divided out of the
    integrand (cancelling their rounding error exactly) and applied
    analytically by the quadrature weight.  Declared powers require the
    corresponding endpoint to be finite.

    Raises NumericError when the achieved absolute error estimate
    exceeds max(rel_eps * |value|, 1e-12).
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
    if err > max(10.0 * tol.rel_eps * abs(total), 1e-12):
        raise NumericError(
            f"quadrature accuracy target {tol.rel_eps:.1e} not met: "
            f"achieved abs error {err:.2e} on value {total:.6e}")
    return total
