"""Exact signal-fraction and SIR distributions under Rayleigh fading
with nearest-base-station association in a Poisson network.

Everything depends on the path loss exponent alpha only through
delta = 2/alpha in (0, 1).  The SF ccdf is

    Fbar_SF(t) = 1 / ((1-t) 2F1(1, 1; 1-delta; t)),

and the SIR ccdf is the same curve read through T(theta) = theta/(1+theta).
"""

from __future__ import annotations

from dataclasses import dataclass

from .specfun import DEFAULT_TOL, Tolerance, hyp2f1_11, quad
from .transforms import t_map


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


def sf_ccdf_exact(params: NetworkParams, t: float,
                  tol: Tolerance = DEFAULT_TOL) -> float:
    """Exact ccdf of the signal fraction at t in [0, 1]."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must be in [0, 1], got {t}")
    if t == 1.0:
        return 0.0
    # rounding 1 - t at t below ~1e-15 can lift the quotient one ulp above 1
    return min(1.0, 1.0 / ((1.0 - t) * hyp2f1_11(params.delta, t, tol)))


def sir_ccdf_exact(params: NetworkParams, theta: float,
                   tol: Tolerance = DEFAULT_TOL) -> float:
    """Exact ccdf of the SIR at theta >= 0, evaluated as Fbar_SF(T(theta))."""
    if not theta >= 0.0:
        raise ValueError(f"theta must be >= 0, got {theta}")
    return sf_ccdf_exact(params, t_map(theta), tol)


def sf_pdf_exact(params: NetworkParams, t: float,
                 tol: Tolerance = DEFAULT_TOL) -> float:
    """Density of the signal fraction on (0, 1) by central differencing.

    The analytic limits are f(0+) = MISR and f(1-) = +inf; the endpoints
    themselves are rejected.  The step adapts to the distance from the
    endpoints, keeping the stencil inside the domain.
    """
    if not 0.0 < t < 1.0:
        raise ValueError(
            f"t must be in (0, 1), got {t}; f(0+) = MISR and f(1-) diverges")
    h = max(1e-6, 1e-4 * min(t, 1.0 - t))
    h = min(h, 0.5 * t, 0.5 * (1.0 - t))
    lo = sf_ccdf_exact(params, t - h, tol)
    hi = sf_ccdf_exact(params, t + h, tol)
    return (lo - hi) / (2.0 * h)


def sf_moment_exact(params: NetworkParams, k: int,
                    tol: Tolerance = DEFAULT_TOL) -> float:
    """k-th moment of the signal fraction, k * int_0^1 t^(k-1) Fbar(t) dt."""
    if k < 1:
        raise ValueError(f"moment order must be >= 1, got {k}")
    d = params.delta

    def integrand(t):
        return t ** (k - 1) * sf_ccdf_exact(params, t, tol)

    # the ccdf vanishes like (1-t)^delta at the right endpoint
    return k * quad(integrand, 0.0, 1.0, tol, right_power=1.0 + d)
