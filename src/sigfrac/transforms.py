"""The Moebius map between SIR and signal fraction, and unit conversions.

SIR = S/I lives on [0, inf); the signal fraction SF = S/(S+I) = T(SIR)
lives on [0, 1), where T(x) = x/(1+x).  A law on one axis is read on
the other through the change of variables

    Fbar_SF(t) = Fbar_SIR(t/(1-t)),   f_SF(t) = f_SIR(t/(1-t)) / (1-t)^2,

and conversely Fbar_SIR(x) = Fbar_SF(T(x)), f_SIR(x) = f_SF(T(x)) / (1+x)^2.
Curves are computed with linear-unit arguments; dB and MH are
presentation units, converted through TO_LINEAR and FROM_LINEAR.  The
maps and unit conversions take a float or an array, checked through
specfun._checked.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .specfun import _checked, _no_overflow


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
    return _no_overflow(lin, x_db, "{} dB overflows a double in linear units")


def linear_to_db(x):
    """10 log10(x) for x > 0."""
    return 10.0 * np.log10(_checked(x, "x", 0.0, math.inf, open_="lo"))


# keyed by member: look a unit name up as AxisUnit(name), which also
# rejects an unknown name; x MH is x/(1-x) in linear units
FROM_LINEAR = {
    AxisUnit.LINEAR: lambda x: x,
    AxisUnit.DB: linear_to_db,
    AxisUnit.MH: t_map,
}
TO_LINEAR = {
    AxisUnit.LINEAR: lambda x: x,
    AxisUnit.DB: db_to_linear,
    AxisUnit.MH: t_inv,
}
