import math

import mpmath as mp
import numpy as np
import pytest

import sigfrac as sg

mp.mp.dps = 30


def zmax(emp, ref, n):
    """Worst |z| of empirical proportions against reference probabilities."""
    worst = 0.0
    for e, r in zip(np.atleast_1d(emp), np.atleast_1d(ref)):
        se = math.sqrt(r * (1.0 - r) / n)
        worst = max(worst, abs(e - r) / se)
    return worst


@pytest.fixture(scope="session")
def params_half():
    return sg.NetworkParams.from_alpha(4.0)


@pytest.fixture(scope="session")
def nofad_half_top5():
    """10^6 no-fading realizations at delta = 1/2, five strongest signal
    fractions per realization.  Shared by several ordered-SF checks."""
    cfg = sg.SimConfig(params=sg.NetworkParams.from_alpha(4.0),
                       fading=sg.FadingModel.none(),
                       assoc=sg.AssociationRule.kth_strongest(5),
                       samples=10**6, seed=20250810)
    vals, flagged = sg.sample_sf_topk(cfg)
    assert flagged == 0
    return vals


@pytest.fixture(scope="session")
def rayleigh_mc():
    """10^6-sample Rayleigh/NBA empirical distributions per delta, with
    the wall time spent generating them."""
    import time

    out = {}
    t0 = time.time()
    for i, d in enumerate((0.4, 0.5, 2.0 / 3.0)):
        cfg = sg.SimConfig(params=sg.NetworkParams.from_delta(d),
                           fading=sg.FadingModel.nakagami(1.0),
                           assoc=sg.AssociationRule.nba(),
                           samples=10**6, seed=100 + i)
        out[d] = sg.sample_sf(cfg).dist
    out["elapsed"] = time.time() - t0
    return out
