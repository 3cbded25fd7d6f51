"""The Moebius map between SIR and signal fraction, unit conversions,
and the change-of-variable formulas for ccdfs and pdfs.

SIR = S/I lives on [0, inf); the signal fraction SF = S/(S+I) = T(SIR)
lives on [0, 1), where T(x) = x/(1+x).  Curves are computed with
linear-unit arguments; dB and MH are presentation units, converted
through TO_LINEAR and FROM_LINEAR.  The maps and unit conversions take
a float or an array, checked through specfun._checked.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .specfun import _checked


class AxisUnit(str, Enum):
    LINEAR = "linear"
    DB = "dB"
    MH = "MH"


def t_map(x):
    """T(x) = x/(1+x), the homeomorphism from [0, inf) onto [0, 1)."""
    x = _checked(x, "x", 0.0, math.inf, open_="hi")
    return x / (1.0 + x)


def t_inv(t):
    """Inverse of t_map: t/(1-t) for t in [0, 1)."""
    t = _checked(t, "t", 0.0, 1.0, open_="hi")
    return t / (1.0 - t)


def db_to_linear(x_db):
    """10^(x/10); a value past the largest double is a ValueError."""
    x_db = _checked(x_db, "x_db", -math.inf, math.inf)
    with np.errstate(over="ignore"):
        lin = np.power(10.0, x_db / 10.0)
    over = ~np.isfinite(lin)
    if over.any():
        bad = x_db if np.ndim(lin) == 0 else x_db[over][0]
        raise ValueError(f"{bad} dB overflows a double in linear units")
    return lin


def linear_to_db(x):
    """10 log10(x) for x > 0."""
    return 10.0 * np.log10(_checked(x, "x", 0.0, math.inf, open_="lo"))


# x MH is x/(1-x) in linear units
mh_to_linear = t_inv
linear_to_mh = t_map


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
