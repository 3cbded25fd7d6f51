"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  The heavy Monte Carlo inputs are shared session
fixtures (see conftest).  The full-scale arcsine comparison (2e7
samples, ~1 min on two cores) only runs when SIGFRAC_FULL_SCALE=1; its
relaxed 1e6-sample smoke variant always runs.  The tail_eps accuracy
contract (1.6e7 samples in each of eleven cells, ~1 min) is opt-in the
same way, and so are the exact no-fading draws below t = 1/2 at delta
0.6 and 0.7 (~30 s); delta = 1/2 always runs.
"""

import math
import os
import sys
import time

import mpmath as mp
import numpy as np
import pytest

import sigfrac as sg
from sigfrac.cli import main as cli_main
from sigfrac.montecarlo import (AssociationRule, FadingModel, SimConfig,
                                arcsine_cdf, conjecture_report,
                                empirical_ccdf, ks_distance, sample_sf,
                                sample_sf_topk)
from sigfrac.rayleigh import NetworkParams, sf_ccdf_exact

from reference import gem_top_sf, nba_nakagami_ccdf

TWO_THIRDS = 2.0 / 3.0


def report(criterion, ok, detail=""):
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, file=sys.__stdout__, flush=True)


# --- criterion 1: generalized-beta table reproduction -----------------------

TABLE_ROWS = {
    0.4: (0.7160, 0.7385, 0.4164),
    0.5: (0.5554, 0.8648, 0.5276),
    TWO_THIRDS: (0.3598, 0.9296, 0.7089),
}

_FIT_CACHE = {}


def _fit(d):
    if d not in _FIT_CACHE:
        t0 = time.time()
        _FIT_CACHE[d] = (sg.gb_fit(NetworkParams.from_delta(d)),
                         time.time() - t0)
    return _FIT_CACHE[d]


# The table's digits fix the GB curve, not (p, q): its rows reproduce the
# target moments only to their solver tolerance (measured up to 6.3e-5
# relative), and the moment system is badly conditioned in p (smallest
# Jacobian singular value 0.012 at delta = 1/2, 0.0037 at delta = 0.4;
# dp/d(M1 rel) ~ 70 and ~ 240), which turns that into ~3e-3 in p.  So
# the fit is compared with each row as a curve, at the resolution of a
# 1e6-sample empirical ccdf (standard error 5e-4 at 1/2, criterion 3's
# scale).  b is pinned by f(0) = MISR and is still checked componentwise.
# Measured curve distances: 3.0e-5, 1.3e-4 (near t = 0.97), 2.9e-5 for
# delta = 0.4, 1/2, 2/3; the (p, q) = (1, delta) starting point is
# >= 1.9e-2 away from each row and a neighbouring row >= 1.1e-1.
TABLE_MOMENT_TOL = 1e-4
TABLE_CURVE_TOL = 5e-4
TABLE_B_TOL = 1e-3
_TABLE_GRID = np.concatenate([np.linspace(0.005, 0.995, 199),
                              1.0 - np.logspace(-3.0, -6.0, 7)])


def _gb_curve_distance(g1, g2):
    """Sup over _TABLE_GRID of |F1 - F2| for two GB cdfs, with its t."""
    gaps = [abs(sg.gb_cdf(g1, t) - sg.gb_cdf(g2, t)) for t in _TABLE_GRID]
    i = int(np.argmax(gaps))
    return gaps[i], float(_TABLE_GRID[i])


@pytest.mark.parametrize("d", list(TABLE_ROWS))
def test_criterion_01_table_reproduction(d):
    params = NetworkParams.from_delta(d)
    fit, _ = _fit(d)
    got = (fit.params.b, fit.params.p, fit.params.q)
    want = TABLE_ROWS[d]
    diffs = [abs(g - w) for g, w in zip(got, want)]
    b, p, q = want
    table = sg.GBParams(b=b, p=p, q=q)
    # premise: the published row, with its own b, solves the moment
    # system to its solver tolerance (catches a mistyped row)
    moment_err = [sg.gb_moment(table, k) / sg.sf_moment_exact(params, k) - 1.0
                  for k in (1, 2)]
    row_ok = max(map(abs, moment_err)) <= TABLE_MOMENT_TOL
    dist, t_at = _gb_curve_distance(fit.params, table)
    ok = row_ok and dist <= TABLE_CURVE_TOL and diffs[0] <= TABLE_B_TOL
    report(f"criterion 1 (table fit, delta={d:.4g})", ok,
           f"fit=({got[0]:.5f},{got[1]:.5f},{got[2]:.5f}) "
           f"diffs=({diffs[0]:.1e},{diffs[1]:.1e},{diffs[2]:.1e}) "
           f"sup|dF|={dist:.1e} at t={t_at:.4g} "
           f"row moment err=({moment_err[0]:.1e},{moment_err[1]:.1e})")
    assert row_ok, (
        f"delta={d}: table row {want} misses the target moments by "
        f"{moment_err[0]:.2e}, {moment_err[1]:.2e} relative, beyond the "
        f"table's solver tolerance {TABLE_MOMENT_TOL:g}; is the row mistyped?")
    assert dist <= TABLE_CURVE_TOL, (
        f"delta={d}: fitted (b,p,q)=({got[0]:.6f},{got[1]:.6f},{got[2]:.6f}) "
        f"and table row {want} differ as GB cdfs by {dist:.2e} at t={t_at:.4g}, "
        f"beyond {TABLE_CURVE_TOL:g} (a 1e6-sample ccdf's standard error at "
        "1/2).  The row's digits alone move p by ~3e-3 through the moment "
        "system's conditioning but the cdf by only ~1e-4, so a distance "
        "this large means the fit solves a different system.")
    assert diffs[0] <= TABLE_B_TOL, (
        f"delta={d}: fitted b={got[0]:.6f} vs table b={want[0]}; diff "
        f"{diffs[0]:.2e} exceeds {TABLE_B_TOL:g} although f(0) = MISR pins b.")


def test_criterion_01_fit_runtime_and_exactness():
    # the fit itself must solve the stated moment system: compare with
    # 40-digit reference solutions, and respect the 10 s budget
    exact = {0.4: (0.715793532753, 0.739480953496, 0.41649655908),
             0.5: (0.555427676035, 0.867878216063, 0.528299167141),
             TWO_THIRDS: (0.359717825789, 0.92924103129, 0.708694378379)}
    total = 0.0
    for d, (b, p, q) in exact.items():
        fit, elapsed = _fit(d)
        total += elapsed
        assert fit.residual <= 1e-6
        assert fit.params.b == pytest.approx(b, abs=1e-6)
        assert fit.params.p == pytest.approx(p, abs=1e-6)
        assert fit.params.q == pytest.approx(q, abs=1e-6)
    ok = total < 10.0
    report("criterion 1 (fit solves the moment system, runtime)", ok,
           f"residuals <= 1e-6, total {total:.2f} s")
    assert ok


# --- criterion 2: closed-form g_n values -------------------------------------

def test_criterion_02_gn_special_values(params_half):
    refs = [2.0 / math.pi, 1.0 / math.pi, 4.0 / (3.0 * math.pi ** 2),
            1.0 / (2.0 * math.pi ** 2)]
    errs = [abs(sg.g_n(params_half, n, 0.5) - ref)
            for n, ref in enumerate(refs, start=1)]
    ok = max(errs) < 1e-12
    report("criterion 2 (g_n closed forms at t = delta = 1/2)", ok,
           f"max abs err {max(errs):.2e}")
    assert ok


# --- criterion 3: Rayleigh analytic vs Monte Carlo ---------------------------

def test_criterion_03_rayleigh_mc_oracle(rayleigh_mc):
    n = 10**6
    worst = 0.0
    for d in (0.4, 0.5, TWO_THIRDS):
        p = NetworkParams.from_delta(d)
        dist = rayleigh_mc[d]
        for t in (0.1, 0.3, 0.5, 0.7, 0.9):
            ref = sf_ccdf_exact(p, t)
            se = math.sqrt(ref * (1.0 - ref) / n)
            z = abs(empirical_ccdf(dist, t) - ref) / se
            worst = max(worst, z)
    elapsed = rayleigh_mc["elapsed"]
    ok = worst < 3.0 and elapsed < 120.0
    report("criterion 3 (Rayleigh ccdf vs 1e6-sample MC)", ok,
           f"worst |z| = {worst:.2f}, runtime {elapsed:.0f} s")
    assert worst < 3.0
    assert elapsed < 120.0


@pytest.mark.skipif(os.environ.get("SIGFRAC_FULL_SCALE") != "1",
                    reason="full-scale run (4e6 samples); set "
                           "SIGFRAC_FULL_SCALE=1 to enable")
def test_criterion_03_rayleigh_mc_full_scale():
    # the slow-tail case, where rows stop on the fourth cumulant after
    # ~12 points at the default tail_eps; at 4e6 samples the standard error (at most 2.5e-4)
    # is half of criterion 3's, on a 49-point grid
    n = 4 * 10**6
    p = NetworkParams.from_delta(TWO_THIRDS)
    cfg = SimConfig(params=p, fading=FadingModel.nakagami(1.0),
                    assoc=AssociationRule.nba(), samples=n, seed=777)
    dist = sample_sf(cfg).dist
    t = np.linspace(0.02, 0.98, 49)
    ref = sf_ccdf_exact(p, t)
    z = (empirical_ccdf(dist, t) - ref) / np.sqrt(ref * (1.0 - ref) / n)
    worst = float(np.max(np.abs(z)))
    ok = worst < 4.0
    report("criterion 3 (Rayleigh ccdf vs 4e6-sample MC, delta = 2/3)", ok,
           f"worst |z| = {worst:.2f} over 49 points")
    assert ok


# --- criterion 4: no-fading SF1 ccdf and the joint event ---------------------

def test_criterion_04_no_fading_oracle(nofad_half_top5, params_half):
    vals = nofad_half_top5
    n = vals.shape[0]
    sf1 = vals[:, 0]
    worst = 0.0
    for t in (0.5, 0.6, 0.75, 0.9):
        ref = sg.sinc_pi(0.5) * (1.0 / t - 1.0) ** 0.5
        se = math.sqrt(ref * (1.0 - ref) / n)
        worst = max(worst, abs(np.mean(sf1 > t) - ref) / se)
    t = 0.6
    for nn in (2, 3):
        ref = sg.g_n(params_half, nn, t)
        se = math.sqrt(ref * (1.0 - ref) / n)
        emp = np.mean(vals[:, nn - 1] + t * vals[:, :nn - 1].sum(axis=1) > t)
        worst = max(worst, abs(emp - ref) / se)
    ok = worst < 3.0
    report("criterion 4 (no-fading SF1 tail and joint event)", ok,
           f"worst |z| = {worst:.2f} at 1e6 samples")
    assert ok


# --- criterion 5: arcsine comparison ------------------------------------------

def test_criterion_05_conjecture_smoke():
    t0 = time.time()
    rep = conjecture_report(10**6, seed=424242)
    elapsed = time.time() - t0
    worst = max(m["rel_diff"] for m in rep["moments"])
    ks = rep["ks_distance"]
    ok = worst < 5e-3 and ks < 1.0 / 300.0 and elapsed < 60.0
    report("criterion 5 (arcsine smoke, 1e6 samples)", ok,
           f"max rel moment diff {worst:.2e} < 5e-3, "
           f"KS {ks:.2e} < 3.3e-3, {elapsed:.0f} s")
    assert worst < 5e-3
    assert ks < 1.0 / 300.0
    assert elapsed < 60.0


@pytest.mark.skipif(os.environ.get("SIGFRAC_FULL_SCALE") != "1",
                    reason="full-scale run (~2e7 samples); set "
                           "SIGFRAC_FULL_SCALE=1 to enable")
def test_criterion_05_conjecture_full_scale():
    t0 = time.time()
    rep = conjecture_report(2 * 10**7, seed=424242)
    elapsed = time.time() - t0
    worst = max(m["rel_diff"] for m in rep["moments"])
    ks = rep["ks_distance"]
    ok = worst < 3e-4 and ks < 1.0 / 3000.0 and elapsed < 1800.0
    report("criterion 5 (arcsine at full scale, 2e7 samples)", ok,
           f"max rel moment diff {worst:.2e} < 3e-4, "
           f"KS {ks:.2e} < 3.33e-4, {elapsed:.0f} s")
    assert worst < 3e-4
    assert ks < 1.0 / 3000.0
    assert elapsed < 1800.0


# --- criterion 6: mean-SF1 upper bound ---------------------------------------

def test_criterion_06_sf1_mean_bound(nofad_half_top5):
    gaps = {}
    for d, seed in ((0.3, 301), (0.5, None), (0.7, 307)):
        p = NetworkParams.from_delta(d)
        if seed is None:
            mean = float(nofad_half_top5[:, 0].mean())
        else:
            cfg = SimConfig(params=p, fading=FadingModel.none(),
                            assoc=AssociationRule.nba(), samples=10**6,
                            seed=seed)
            mean = float(sample_sf(cfg).dist.samples.mean())
        bound = sg.mean_sf1_upper_bound(p)
        gaps[d] = bound - mean
    ok = all(0.0 < g < 0.03 for g in gaps.values())
    report("criterion 6 (mean-SF1 bound tight)", ok,
           "gaps " + ", ".join(f"d={d}: {g:.4f}" for d, g in gaps.items()))
    assert ok, gaps


# --- criterion 7: random-association beta law --------------------------------

def test_criterion_07_rba_law():
    n = 10**5
    details = []
    ok = True
    for d, seed in ((0.4, 701), (0.5, 702), (TWO_THIRDS, 703)):
        p = NetworkParams.from_delta(d)
        cfg = SimConfig(params=p, fading=FadingModel.none(),
                        assoc=AssociationRule.rba(), samples=n, seed=seed)
        dist = sample_sf(cfg).dist
        if d == 0.5:
            ks = ks_distance(dist, arcsine_cdf)
        else:
            ks = ks_distance(dist, lambda t: np.array(
                [sg.rba_cdf(p, float(v)) for v in t]))
        se = float(dist.samples.std()) / math.sqrt(n)
        zm = abs(float(dist.samples.mean()) - (1.0 - d)) / se
        details.append(f"d={d:.3g}: KS={ks:.2e}, mean |z|={zm:.2f}")
        ok = ok and ks < 1.63 / math.sqrt(n) and zm < 3.0
    report("criterion 7 (random association matches the beta law)", ok,
           "; ".join(details))
    assert ok, details


@pytest.mark.skipif(os.environ.get("SIGFRAC_FULL_SCALE") != "1",
                    reason="60 seeded runs of 1e5 samples; set "
                           "SIGFRAC_FULL_SCALE=1 to enable")
def test_rba_seed_sweep_full_scale():
    # criterion 7 and test_rba_matches_beta_law are fixed-seed 99% gates;
    # this backs a new rba stream over 60 seeds first.  Each seed passes
    # each gate with probability 0.99, so 4 or more misses out of 60
    # (a failure) has probability about 0.3%
    n = 10**5
    p = NetworkParams.from_delta(TWO_THIRDS)
    ks_ok = mean_ok = 0
    for seed in range(1000, 1060):
        cfg = SimConfig(params=p, fading=FadingModel.none(),
                        assoc=AssociationRule.rba(), samples=n, seed=seed)
        dist = sample_sf(cfg).dist
        ks = ks_distance(dist, lambda t: sg.rba_cdf(p, t))
        se = float(dist.samples.std()) / math.sqrt(n)
        zm = (float(dist.samples.mean()) - (1.0 - TWO_THIRDS)) / se
        ks_ok += math.sqrt(n) * ks < 1.63
        mean_ok += abs(zm) < 2.576
    ok = ks_ok >= 57 and mean_ok >= 57
    report("rba seed sweep (Beta(1/3, 2/3), seeds 1000-1059)", ok,
           f"sqrt(n) KS < 1.63 in {ks_ok}/60, |mean z| < 2.576 in "
           f"{mean_ok}/60")
    assert ok, (ks_ok, mean_ok)


# --- the tail_eps accuracy contract -------------------------------------------

# Each rule's default tail_eps must keep the simulated ccdf within
# CONTRACT_Z standard errors of the exact law at every t of the cell's
# grid, at CONTRACT_N samples.  A cell is (delta, fading, rule, grid,
# exact ccdf, first seed); its run is CONTRACT_N / CONTRACT_BATCH
# batches on consecutive seeds.  g_1 and g_2 are exact only for
# t >= 1/2, and kth:2 is checked through P(SF_2 + t SF_1 > t) = g_2(t).
CONTRACT_N = 16 * 10**6
CONTRACT_BATCH = 2 * 10**6
CONTRACT_Z = 4.5
_T_ALL = np.linspace(0.02, 0.98, 49)
_T_HALF_UP = np.linspace(0.5, 0.98, 25)
_T_RBA = np.concatenate([[0.002, 0.005, 0.01], _T_ALL])


def _beta_ccdf(p, t):
    return 1.0 - sg.rba_cdf(p, t)


CONTRACT_CELLS = {
    "rayleigh_nba_d0.667": (TWO_THIRDS, FadingModel.nakagami(1.0),
                            AssociationRule.nba(), _T_ALL, sf_ccdf_exact,
                            2300),
    "rayleigh_nba_d0.9": (0.9, FadingModel.nakagami(1.0),
                          AssociationRule.nba(), _T_ALL, sf_ccdf_exact, 2310),
    "nakagami2_nba_d0.667": (TWO_THIRDS, FadingModel.nakagami(2.0),
                             AssociationRule.nba(), _T_ALL,
                             lambda p, t: nba_nakagami_ccdf(p.delta, 2, t),
                             2320),
    "nakagami1-d_nba_d0.667": (TWO_THIRDS, FadingModel.nakagami(1.0 / 3.0),
                               AssociationRule.nba(), _T_ALL, _beta_ccdf,
                               2330),
    "arcsine_nba_d0.5": (0.5, FadingModel.nakagami(0.5),
                         AssociationRule.nba(), _T_ALL, _beta_ccdf, 2340),
    "none_nba_d0.7": (0.7, FadingModel.none(), AssociationRule.nba(),
                      _T_HALF_UP, lambda p, t: sg.g_n(p, 1, t), 2350),
    "rayleigh_isba_d0.5": (0.5, FadingModel.nakagami(1.0),
                           AssociationRule.isba(), _T_HALF_UP,
                           lambda p, t: sg.g_n(p, 1, t), 2360),
    "none_kth2_d0.5": (0.5, FadingModel.none(),
                       AssociationRule.kth_strongest(2), _T_HALF_UP,
                       lambda p, t: sg.g_n(p, 2, t), 2370),
    "none_rba_d0.5": (0.5, FadingModel.none(), AssociationRule.rba(),
                      _T_RBA, _beta_ccdf, 2380),
    "none_rba_d0.667": (TWO_THIRDS, FadingModel.none(), AssociationRule.rba(),
                        _T_RBA, _beta_ccdf, 2390),
    # about 65% of rows pick from the tail here
    "none_rba_d0.9": (0.9, FadingModel.none(), AssociationRule.rba(), _T_RBA,
                      _beta_ccdf, 2400),
}


def tail_eps_contract_z(cell, tail_eps=SimConfig.tail_eps):
    """(worst |z|, its t) of the cell's simulated ccdf against its exact
    law at tail_eps, over CONTRACT_N samples."""
    n = CONTRACT_N
    d, fading, assoc, ts, exact, seed = CONTRACT_CELLS[cell]
    p = NetworkParams.from_delta(d)
    hits = np.zeros(ts.size)
    for i, start in enumerate(range(0, n, CONTRACT_BATCH)):
        cfg = SimConfig(params=p, fading=fading, assoc=assoc,
                        samples=min(CONTRACT_BATCH, n - start),
                        tail_eps=tail_eps, seed=seed + i)
        if (assoc.k or 1) >= 2:   # g_2(t) = P(SF_2 + t SF_1 > t)
            vals, flagged = sample_sf_topk(cfg)
            hits += [np.count_nonzero(vals[:, 1] + t * vals[:, 0] > t)
                     for t in ts]
        else:
            res = sample_sf(cfg)
            flagged = res.flagged
            hits += cfg.samples - np.searchsorted(res.dist.samples, ts,
                                                  side="right")
        assert flagged == 0
    ref = exact(p, ts)
    z = np.abs(hits / n - ref) / np.sqrt(ref * (1.0 - ref) / n)
    i = int(np.argmax(z))
    return float(z[i]), float(ts[i])


@pytest.mark.skipif(os.environ.get("SIGFRAC_FULL_SCALE") != "1",
                    reason="1.6e7 samples per cell; set "
                           "SIGFRAC_FULL_SCALE=1 to enable")
@pytest.mark.parametrize("cell", list(CONTRACT_CELLS))
def test_tail_eps_contract_full_scale(cell):
    worst, t = tail_eps_contract_z(cell)
    ok = worst <= CONTRACT_Z
    report(f"tail_eps contract ({cell}, 1.6e7 samples)", ok,
           f"worst |z| = {worst:.2f} at t = {t:.3g}")
    assert ok


# --- the no-fading law below t = 1/2, against an exact oracle ----------------

# g_1 and g_2 are only bounds below t = 1/2, so there the engine's nba
# (SF_1) and kth:2 (SF_2) samples are compared with exact GEM(delta, 0)
# draws of GEM_N rows (gem_top_sf): a two-sample z-test of P(SF > t),
# its standard error pooled from both samples, gated at GEM_Z at every
# t.  The draws themselves are checked against g_1 and g_2 at t >= 1/2,
# where both are exact.
GEM_N = 200_000
GEM_Z = 4.0
_T_BELOW_HALF = np.array([0.1, 0.2, 0.3, 0.4])
_T_GN_EXACT = np.linspace(0.5, 0.9, 5)


def gem_oracle_z(delta, seed):
    """Worst |z| of each comparison: "nba" and "kth" (the engine against
    the GEM draws below t = 1/2), "g1" and "g2" (the GEM draws against
    g_n at t >= 1/2)."""
    n = GEM_N
    p = NetworkParams.from_delta(delta)
    gem = gem_top_sf(delta, 2, n, np.random.default_rng(seed))
    z = {}
    for j, assoc in enumerate((AssociationRule.nba(),
                               AssociationRule.kth_strongest(2))):
        res = sample_sf(SimConfig(params=p, fading=FadingModel.none(),
                                  assoc=assoc, samples=n, seed=seed + 1 + j))
        assert res.flagged == 0
        ps = (res.dist.samples[:, None] > _T_BELOW_HALF).mean(axis=0)
        pg = (gem[:, j, None] > _T_BELOW_HALF).mean(axis=0)
        pool = (ps + pg) / 2.0
        z[assoc.kind] = float(np.max(
            np.abs(ps - pg) / np.sqrt(pool * (1.0 - pool) * 2.0 / n)))
    for j in (1, 2):
        # P(SF_j + t (SF_1 + ... + SF_{j-1}) > t) = g_j(t)
        t = _T_GN_EXACT
        hit = (gem[:, j - 1, None] + t * gem[:, :j - 1].sum(axis=1)[:, None]
               > t).mean(axis=0)
        ref = sg.g_n(p, j, t)
        z[f"g{j}"] = float(np.max(np.abs(hit - ref)
                                  / np.sqrt(ref * (1.0 - ref) / n)))
    return z


def _gem_report(delta, z):
    ok = max(z.values()) < GEM_Z
    report(f"no-fading nba and kth:2 below t = 1/2 against exact GEM draws "
           f"(delta = {delta:.3g})", ok,
           ", ".join(f"{k} max |z| = {v:.2f}" for k, v in z.items()))
    return ok


def test_no_fading_below_half_matches_gem():
    z = gem_oracle_z(0.5, 2700)
    assert _gem_report(0.5, z), z


@pytest.mark.skipif(os.environ.get("SIGFRAC_FULL_SCALE") != "1",
                    reason="the exact draws take up to ~25 s at delta = 0.7; "
                           "set SIGFRAC_FULL_SCALE=1 to enable")
@pytest.mark.parametrize("delta, seed", [(0.6, 2710), (0.7, 2720)])
def test_no_fading_below_half_full_scale(delta, seed):
    z = gem_oracle_z(delta, seed)
    assert _gem_report(delta, z), z


# --- criterion 8: polynomial bound orientation --------------------------------

def test_criterion_08_bound_orientation(params_half):
    ok = True
    for t in np.linspace(1e-4, 0.1, 40):
        ex = sf_ccdf_exact(params_half, t)
        ok = ok and sg.poly_ccdf(params_half, 1, t) <= ex <= sg.poly_ccdf(
            params_half, 2, t)
    p03 = NetworkParams.from_delta(0.3)
    for t in np.linspace(1e-4, 0.1, 40):
        ex = sf_ccdf_exact(p03, t)
        ok = ok and ex <= sg.poly_ccdf(p03, 1, t) and ex <= sg.poly_ccdf(
            p03, 2, t)
    report("criterion 8 (bound orientation across the convexity threshold)",
           ok)
    assert ok


# --- criterion 9: rational approximation order ---------------------------------

def _mp_exact_ccdf(d, t):
    t = mp.mpf(t)
    return 1 / ((1 - t) * mp.hyp2f1(1, 1, 1 - d, t))


def _mp_rational_ccdf(d, s, t):
    t = mp.mpf(t)
    num = mp.mpf(0)
    den = mp.mpf(0)
    tn = mp.mpf(1)
    for n in range(s + 1):
        an = mp.gamma(n + 1) * mp.gamma(1 - mp.mpf(d)) / mp.gamma(n + 1 - mp.mpf(d))
        num += tn
        den += an * tn
        tn *= t
    return num / den


def test_criterion_09_rational_order(params_half):
    d = 0.5
    probes = (1e-2, 1e-3, 1e-4)
    ok = True
    details = []
    for s in (1, 2, 3):
        ratios = []
        for t in probes:
            impl = sg.rational_ccdf(params_half, s, t)
            exact = _mp_exact_ccdf(d, t)
            err = float(abs(mp.mpf(impl) - exact))
            if err < 1e-13:
                # below double resolution: pin the implementation to its
                # extended-precision twin, then measure the twin's error
                twin = _mp_rational_ccdf(d, s, t)
                assert abs(float(twin) - impl) < 1e-13
                err = float(abs(twin - exact))
            ratios.append(err / t ** s)
        for a, b in zip(ratios, ratios[1:]):
            ok = ok and (b < a / 8.0)
        details.append(f"s={s}: ratios {ratios[0]:.2e} -> {ratios[1]:.2e} "
                       f"-> {ratios[2]:.2e}")
    report("criterion 9 (rational truncation error is o(t^s))", ok,
           "; ".join(details))
    assert ok, details


# --- criterion 10: second-order tail quality -----------------------------------

def test_criterion_10_tail_quality():
    # the reference claim quantified: within 0.02 of the exact ccdf on
    # all of (2/3, 1), and within 2% relative from t = 0.75 on.  The
    # literal 2%-relative reading fails in a sliver above 2/3 (supremum
    # ~2.5% at delta=0.4 and ~3.0% at delta=2/3); the measured suprema
    # are reported below.
    ok = True
    details = []
    for d in (0.4, 0.5, TWO_THIRDS):
        p = NetworkParams.from_delta(d)
        sup_rel = 0.0
        sup_abs = 0.0
        sup_rel_75 = 0.0
        for t in np.linspace(2.0 / 3.0 + 1e-3, 0.999, 240):
            ex = sf_ccdf_exact(p, t)
            err = abs(sg.tail_ccdf(p, 2, t) - ex)
            sup_abs = max(sup_abs, err)
            sup_rel = max(sup_rel, err / ex)
            if t >= 0.75:
                sup_rel_75 = max(sup_rel_75, err / ex)
        ok = ok and sup_abs < 0.02 and sup_rel_75 < 0.02
        details.append(f"d={d:.3g}: sup|err|={sup_abs:.4f}, "
                       f"sup rel (t>2/3)={sup_rel:.4f}, "
                       f"sup rel (t>=3/4)={sup_rel_75:.4f}")
    report("criterion 10 (second-order tail quality)", ok, "; ".join(details))
    assert ok, details


# --- criterion 11: ordered-SF ratio and log-gap laws ---------------------------

def test_criterion_11_ratio_and_loggap(nofad_half_top5, params_half):
    vals = nofad_half_top5[:10**5]
    n = vals.shape[0]
    worst = 0.0
    for i in (2, 3, 4, 5):
        r = vals[:, i - 1] / vals[:, 0]
        se = r.std() / math.sqrt(n)
        worst = max(worst, abs(r.mean() - sg.mean_sf_ratio(params_half, i)) / se)
    for i in (1, 2, 3):
        g = np.log(vals[:, 0]) - np.log(vals[:, i - 1 + 1])
        se = g.std() / math.sqrt(n)
        worst = max(worst, abs(g.mean() - sg.log_sf_gap(params_half, i)) / se)
    ok = worst < 3.0
    report("criterion 11 (SF ratio means and log gaps)", ok,
           f"worst |z| = {worst:.2f} at 1e5 realizations")
    assert ok


# --- criterion 12: second-strongest ccdf is alpha-insensitive ------------------

def test_criterion_12_kth2_eighth(nofad_half_top5):
    details = []
    ok = True
    for alpha, seed in ((3.0, 1201), (4.0, None), (5.0, 1205)):
        p = NetworkParams.from_alpha(alpha)
        if seed is None:
            sf2 = nofad_half_top5[:, 1]
        else:
            cfg = SimConfig(params=p, fading=FadingModel.none(),
                            assoc=AssociationRule.kth_strongest(2),
                            samples=10**6, seed=seed)
            sf2 = sample_sf(cfg).dist.samples
        assert float(sf2.max()) <= 0.5
        c = float(np.mean(sf2 > 0.125))
        details.append(f"alpha={alpha:.0f}: ccdf(1/8)={c:.4f}")
        ok = ok and abs(c - 0.5) < 0.05
    report("criterion 12 (SF2 ccdf at 1/8 for alpha = 3,4,5)", ok,
           "; ".join(details))
    assert ok, details


# --- criterion 13: byte-identical output across worker counts ------------------

def _cli_capture(capsys, monkeypatch, threads, *argv):
    monkeypatch.setenv("SIGFRAC_THREADS", str(threads))
    rc = cli_main(list(argv))
    out = capsys.readouterr()
    assert rc == 0
    return out.out.encode(), out.err.encode()


def test_criterion_13_thread_determinism(capsys, monkeypatch, tmp_path):
    sim_args = ("simulate", "--alpha", "4", "--fading", "nakagami:1",
                "--assoc", "nba", "--samples", "40000", "--seed", "99",
                "--grid", "0:1:51", "--format", "json")
    conj_args = ("conjecture", "--samples", "40000", "--seed", "99")
    outs = []
    for threads in (1, 2, 4):
        outs.append(_cli_capture(capsys, monkeypatch, threads, *sim_args))
        outs.append(_cli_capture(capsys, monkeypatch, threads, *conj_args))
    ok = all(outs[i] == outs[i % 2] for i in range(len(outs)))
    report("criterion 13 (identical bytes for any SIGFRAC_THREADS)", ok)
    assert ok
