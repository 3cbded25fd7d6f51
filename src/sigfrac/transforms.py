"""The Moebius map between SIR and signal fraction, unit conversions,
and the change-of-variable formulas for ccdfs and pdfs.

SIR = S/I lives on [0, inf); the signal fraction SF = S/(S+I) = T(SIR)
lives on [0, 1), where T(x) = x/(1+x).  Curves are computed with
linear-unit arguments; dB and MH are presentation units, converted
through TO_LINEAR and FROM_LINEAR.
"""

from __future__ import annotations

import math
from enum import Enum


class AxisUnit(str, Enum):
    LINEAR = "linear"
    DB = "dB"
    MH = "MH"


def t_map(x: float) -> float:
    """T(x) = x/(1+x), the homeomorphism from [0, inf) onto [0, 1)."""
    if not x >= 0.0:
        raise ValueError(f"t_map requires x >= 0, got {x}")
    return x / (1.0 + x)


def t_inv(t: float) -> float:
    """Inverse of t_map: t/(1-t) for t in [0, 1)."""
    if not 0.0 <= t < 1.0:
        raise ValueError(f"t_inv requires t in [0, 1), got {t}")
    return t / (1.0 - t)


def db_to_linear(x_db: float) -> float:
    # Python float power raises OverflowError where a numpy scalar
    # would return inf
    try:
        return 10.0 ** (float(x_db) / 10.0)
    except OverflowError:
        raise ValueError(
            f"{x_db} dB overflows a double in linear units") from None


def linear_to_db(x: float) -> float:
    if x <= 0.0:
        raise ValueError(f"dB undefined for non-positive value {x}")
    return 10.0 * math.log10(x)


def mh_to_linear(x_mh: float) -> float:
    """x MH = x/(1-x) in linear units; identical to t_inv."""
    return t_inv(x_mh)


def linear_to_mh(x: float) -> float:
    return t_map(x)


def sir_ccdf_to_sf_ccdf(ccdf_fn):
    """Compose an SIR ccdf into the SF ccdf: Fbar_SF(t) = Fbar_SIR(t/(1-t))."""
    return lambda t: ccdf_fn(t_inv(t))


def sf_ccdf_to_sir_ccdf(ccdf_fn):
    """Inverse composition: Fbar_SIR(theta) = Fbar_SF(T(theta))."""
    return lambda theta: ccdf_fn(t_map(theta))


def sir_pdf_to_sf_pdf(pdf_fn):
    """f_SF(t) = f_SIR(t/(1-t)) / (1-t)^2; lazy composition, no resampling."""
    return lambda t: pdf_fn(t / (1.0 - t)) / (1.0 - t) ** 2


def sf_pdf_to_sir_pdf(pdf_fn):
    """f_SIR(theta) = f_SF(theta/(1+theta)) / (1+theta)^2."""
    return lambda theta: pdf_fn(theta / (1.0 + theta)) / (1.0 + theta) ** 2


# keyed by member: look a unit name up as AxisUnit(name), which also
# rejects an unknown name
FROM_LINEAR = {
    AxisUnit.LINEAR: lambda x: x,
    AxisUnit.DB: linear_to_db,
    AxisUnit.MH: linear_to_mh,
}
TO_LINEAR = {
    AxisUnit.LINEAR: lambda x: x,
    AxisUnit.DB: db_to_linear,
    AxisUnit.MH: mh_to_linear,
}
