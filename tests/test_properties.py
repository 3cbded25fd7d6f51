"""Property tests over random (delta, t): range, monotonicity,
continuity and an mpmath oracle of the exact ccdf, and the SF <-> SIR
map round trips."""

import math

import mpmath as mp
from hypothesis import given, settings
from hypothesis import strategies as st

import sigfrac as sg

# fixed example stream and no example database: tier-1 runs stay
# reproducible and leave no files behind
PROPS = settings(max_examples=300, deadline=None, derandomize=True,
                 database=None)

deltas = st.floats(min_value=0.01, max_value=0.99)
unit = st.floats(min_value=0.0, max_value=1.0)
EPS = 2.220446049250313e-16


@PROPS
@given(deltas, unit, unit)
def test_ccdf_in_unit_interval_and_non_increasing(d, t1, t2):
    p = sg.NetworkParams.from_delta(d)
    lo, hi = min(t1, t2), max(t1, t2)
    f_lo, f_hi = sg.sf_ccdf_exact(p, lo), sg.sf_ccdf_exact(p, hi)
    assert 0.0 <= f_hi <= 1.0 and 0.0 <= f_lo <= 1.0
    # rounding across a regime switch may lift a value by a few ulps
    assert f_hi <= f_lo * (1.0 + 1e-13)


@PROPS
@given(deltas, st.sampled_from([0.5, 0.9, 1.0 - 1e-6]))
def test_ccdf_continuous_at_regime_switches(d, s):
    # 0.5 is the one regime switch, from betainc to its betaincc
    # complement.  0.9 and 1 - 1e-6 guard against new ones: at 1 - 1e-6
    # the second-order t -> 1 expansion is still 2.5e-8 off at small
    # delta, so switching to it there would show as a jump
    p = sg.NetworkParams.from_delta(d)
    s_up = math.nextafter(s, 1.0)
    f, f_up = sg.sf_ccdf_exact(p, s), sg.sf_ccdf_exact(p, s_up)
    h = 1e-4 * (1.0 - s)
    slope = (sg.sf_ccdf_exact(p, s - h) - sg.sf_ccdf_exact(p, s + h)) / (2 * h)
    # one ulp of t moves the ccdf by slope * ulp; allow twice that
    assert abs(f - f_up) <= 1e-13 * f + 2.0 * slope * (s_up - s)


@PROPS
@given(deltas, unit)
def test_ccdf_against_mpmath(d, t):
    p = sg.NetworkParams.from_delta(d)
    if t == 1.0:
        assert sg.sf_ccdf_exact(p, t) == 0.0
        return
    with mp.workdps(40):
        ref = 1 / ((1 - mp.mpf(t)) * mp.hyp2f1(1, 1, 1 - mp.mpf(d), t))
    assert math.isclose(sg.sf_ccdf_exact(p, t), float(ref), rel_tol=1e-12)


@PROPS
@given(st.floats(min_value=0.0, max_value=1e12))
def test_sir_to_sf_round_trip(x):
    # rounding x/(1+x) costs eps*(1+x) relative on the way back
    assert math.isclose(sg.t_inv(sg.t_map(x)), x,
                        rel_tol=4.0 * EPS * (1.0 + x), abs_tol=1e-300)


@PROPS
@given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
def test_sf_to_sir_round_trip(t):
    assert abs(sg.t_map(sg.t_inv(t)) - t) <= 4.0 * EPS
