"""Exact signal-fraction and SIR distributions under Rayleigh fading
with nearest-base-station association in a Poisson network.

Everything depends on the path loss exponent alpha only through
delta = 2/alpha in (0, 1).  The SF ccdf is

    Fbar_SF(t) = 1 / ((1-t) 2F1(1, 1; 1-delta; t)) = 1 / (1 + A(t)),
    A(t) = (t/(1-t))^delta I_t(1-delta, delta) / sinc(delta),

where I_t(1-delta, delta) is the regularized incomplete beta ratio, the
cdf `plp.rba_cdf` of the signal fraction under random association.  So
the nearest-station law is an algebraic function of the random-
association law, and no hypergeometric series is summed.  It is
evaluated as u / (u + w) with u = (1-t)^delta and w = A u, so t = 1
needs no special case.  At t -> 0 this is 1 - MISR t, and at t -> 1 it
is sinc(delta) (1-t)^delta.  The SIR ccdf is the same curve read
through T(theta) = theta/(1+theta).  The ccdf, the SIR ccdf and the
density take a float or an array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .specfun import _checked, _nba_parts, quad


@dataclass(frozen=True)
class NetworkParams:
    """Path loss exponent alpha > 2 and delta = 2/alpha in (0, 1)."""

    alpha: float
    delta: float

    def __post_init__(self):
        if not (self.alpha > 2.0 and 0.0 < self.delta < 1.0):
            raise ValueError(
                f"need alpha > 2 and delta in (0, 1), got alpha={self.alpha}, "
                f"delta={self.delta}")
        if abs(self.delta - 2.0 / self.alpha) > 1e-12 * self.delta:
            raise ValueError(
                f"inconsistent parameters: delta={self.delta} but 2/alpha="
                f"{2.0 / self.alpha}")

    @classmethod
    def from_alpha(cls, alpha: float) -> "NetworkParams":
        if alpha <= 2.0:
            raise ValueError(f"alpha must exceed 2, got {alpha}")
        return cls(alpha=float(alpha), delta=2.0 / float(alpha))

    @classmethod
    def from_delta(cls, delta: float) -> "NetworkParams":
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {delta}")
        return cls(alpha=2.0 / float(delta), delta=float(delta))


def misr(params: NetworkParams) -> float:
    """Mean interference-to-average-signal ratio, delta/(1-delta)."""
    return params.delta / (1.0 - params.delta)


def sf_ccdf_exact(params: NetworkParams, t):
    """Exact ccdf of the signal fraction at t in [0, 1], a float or an
    array, as u / (u + w) = 1 / (1 + A(t))."""
    u, w = _nba_parts(params.delta, _checked(t, "t", 0.0, 1.0))
    return u / (u + w)


def sir_ccdf_exact(params: NetworkParams, theta):
    """Exact ccdf of the SIR at theta >= 0, a float or an array,
    evaluated as Fbar_SF(T(theta))."""
    theta = _checked(theta, "theta", 0.0, math.inf)
    return sf_ccdf_exact(params, theta / (1.0 + theta))


def sf_pdf_exact(params: NetworkParams, t):
    """Density of the signal fraction at t in (0, 1), a float or an array.

    Differentiating 1 / (1 + A) gives A'/(1+A)^2, and with x = t/(1-t)
    A' = [d x^(d-1) I_t / (1-t)^2 + x^d rba_pdf(t)] / sinc(d)
       = d (A/t + 1) / (1-t).
    The limits are f(0+) = MISR and f(1-) = +inf; the endpoints are
    rejected.
    """
    d = params.delta
    t = _checked(t, "t", 0.0, 1.0, open_=True)
    u, w = _nba_parts(d, t)
    return d * u * (t * u + w) / (t * (1.0 - t) * (u + w) ** 2)


def sf_moment_exact(params: NetworkParams, k: int) -> float:
    """k-th moment of the signal fraction, k * int_0^1 t^(k-1) Fbar(t) dt."""
    if k < 1:
        raise ValueError(f"moment order must be >= 1, got {k}")
    d = params.delta

    def integrand(t):
        return t ** (k - 1) * sf_ccdf_exact(params, t)

    # the ccdf vanishes like (1-t)^delta at the right endpoint
    return k * quad(integrand, 0.0, 1.0, right_power=1.0 + d)
