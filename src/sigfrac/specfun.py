"""Special-function kernel.

The beta function, the closed form of 2F1(1, 1; 1-delta; t) through
the incomplete beta ratio, sinc and harmonic numbers.  Everything is
pure; hyp2f1_11 and the incomplete beta kernels take a float or an
array.  The only SciPy module it uses is scipy.special, which harmonic
and the incomplete beta kernels load on their first call.
"""

from __future__ import annotations

import math

import numpy as np


class NumericError(RuntimeError):
    """A quadrature, an iteration or a special function failed its
    accuracy target."""


def beta_fn(p: float, q: float) -> float:
    """Beta function B(p, q) = Gamma(p)Gamma(q)/Gamma(p+q), p, q > 0."""
    if not (p > 0.0 and q > 0.0):
        raise ValueError(f"beta_fn requires p, q > 0, got ({p}, {q})")
    return math.exp(math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q))


def sinc_pi(x: float) -> float:
    """sin(pi x)/(pi x) with the removable singularity at 0 handled exactly.
    For x > 1/2 the sine is taken of pi (1 - x), and 1 - x is exact for
    x up to 2, so the relative accuracy holds up to the zero at x = 1."""
    if x == 0.0:
        return 1.0
    s = math.sin(math.pi * (1.0 - x)) if x > 0.5 else math.sin(math.pi * x)
    return s / (math.pi * x)


def harmonic(i: int) -> float:
    """i-th harmonic number 1 + 1/2 + ... + 1/i, i >= 1, as
    digamma(i + 1) + Euler's gamma (DLMF 5.4.14), in constant time."""
    if i < 1:
        raise ValueError(f"harmonic requires i >= 1, got {i}")
    from scipy import special   # loaded on first call
    return float(special.digamma(i + 1.0)) + np.euler_gamma


def _checked(x, name: str, lo: float, hi: float, open_: str = ""):
    """x as a float, or as a float array when it is array-like, after
    checking that it lies between lo and hi; open_ names the open ends,
    "lo", "hi" or "both", and the others are closed.  NaN fails."""
    scalar = isinstance(x, (int, float))
    v = x if scalar else np.asarray(x, dtype=float)
    if not open_:   # the closed checks, most calls
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


def _no_overflow(v, x, msg: str):
    """v, computed from x (a float, or an array of v's shape) with
    overflow warnings off, after checking that it is finite; a value
    that is not is a ValueError, msg.format() of the first such x."""
    ok = np.isfinite(v)
    if not ok.all():
        raise ValueError(msg.format(x if np.ndim(v) == 0 else x[~ok][0]))
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
    from scipy import special   # loaded on first call
    return _by_half(t, lambda s: special.betainc(1.0 - d, d, s),
                    lambda s: special.betaincc(d, 1.0 - d, 1.0 - s))


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

