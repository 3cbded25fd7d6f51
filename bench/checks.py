"""Output checks for benchmark requests.

Outputs are never compared byte for byte: faster kernels and a changed
Monte Carlo engine may move the last printed digit or the seeded sample
stream.  Analytic curves are checked against independent references
(mpmath, scipy closed forms) at a tolerance above the 12 printed
digits; Monte Carlo ccdfs are checked by z-score against a known law.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from scipy import special

mp.mp.dps = 25

REL_TOL = 1e-9        # printed values carry 12 significant digits
# per-point |z| limit for Monte Carlo ccdfs, applied only where
# n p (1-p) >= Z_MIN_VAR; there the binomial tail beyond Z_MAX is ~1e-8,
# so thousands of checked points per run give no false alarm
Z_MAX = 6.0
Z_MIN_VAR = 100.0
EXACT_SUBSET = 8      # mpmath-checked points per exact curve, plus t = 0.99


@dataclass
class Outcome:
    problems: list
    rows: int = 0
    flagged: int = 0


def _csv(text):
    lines = text.strip().splitlines()
    head = lines[0].split(",")
    if head[:3] != ["arg_unit", "arg", "value"]:
        raise ValueError(f"unexpected CSV header {lines[0]!r}")
    cols = [ln.split(",") for ln in lines[1:]]
    arg = np.array([float(c[1]) for c in cols])
    val = np.array([float(c[2]) for c in cols])
    flags = [c[3] if len(c) > 3 else "" for c in cols]
    return arg, val, flags


def _points(doc):
    pts = doc["points"]
    return (np.array([p["arg"] for p in pts]),
            np.array([p["value"] for p in pts]))


def _close(got, ref, rel=REL_TOL, floor=1e-13):
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    bad = np.abs(got - ref) > rel * np.abs(ref) + floor
    return int(np.count_nonzero(bad)), float(np.max(np.abs(got - ref), initial=0.0))


def _grid_problems(arg, lo, hi, count):
    want = np.linspace(lo, hi, count)
    if arg.size != count or np.max(np.abs(arg - want)) > 1e-11:
        return [f"grid mismatch: {arg.size} points, wanted {count} on [{lo}, {hi}]"]
    return []


def _mp_sf_ccdf(d, t):
    t = mp.mpf(t)
    return 1 / ((1 - t) * mp.hyp2f1(1, 1, 1 - mp.mpf(d), t))


def _check_exact(req, text, rng, sir):
    arg, val, _ = _csv(text)
    probs = (_grid_problems(arg, -20.0, 20.0, 81) if sir
             else _grid_problems(arg, 0.0, 1.0, 101))
    if probs:
        return Outcome(probs, arg.size)
    pick = set(rng.choice(arg.size, EXACT_SUBSET, replace=False).tolist())
    pick |= {0, arg.size - 1, arg.size - 2}
    got, ref = [], []
    for i in sorted(pick):
        if sir:
            theta = mp.power(10, mp.mpf(arg[i]) / 10)
            r = _mp_sf_ccdf(req.delta, theta / (1 + theta))
        elif arg[i] == 0.0:
            r = 1
        elif arg[i] == 1.0:
            r = 0
        else:
            r = _mp_sf_ccdf(req.delta, arg[i])
        got.append(val[i])
        ref.append(float(r))
    nbad, worst = _close(got, ref)
    if nbad:
        probs.append(f"{nbad} points off the mpmath 2F1 reference, worst {worst:.3g}")
    return Outcome(probs, arg.size)


def _check_formula(req, text, lo, hi, count, ref_fn):
    arg, val, _ = _csv(text)
    probs = _grid_problems(arg, lo, hi, count)
    if not probs:
        nbad, worst = _close(val, ref_fn(req.delta, arg))
        if nbad:
            probs.append(f"{nbad} points off the closed form, worst {worst:.3g}")
    return Outcome(probs, arg.size)


def _best(d, t):
    return ((1.0 - t) / (1.0 + d / (1.0 - d) * t)) ** d


def _tail2(d, t):
    return np.sinc(d) * (1.0 - t) ** d * (1.0 + d * (1.0 - t))


def _rational3(d, t):
    n = np.arange(4.0)
    a = np.exp(special.gammaln(n + 1.0) + special.gammaln(1.0 - d)
               - special.gammaln(n + 1.0 - d))
    powers = t[:, None] ** n
    return powers.sum(axis=1) / (powers @ a)


def _rba_cdf(d, t):
    return special.betainc(1.0 - d, d, t)


def _g2(d, t):
    return (1.0 / t - 1.0) ** (2.0 * d) / (
        special.gamma(1.0 + 2.0 * d) * special.gamma(1.0 - d) ** 2)


def _gb_ccdf(p, q, b, t):
    # generalized beta with a = 1/p: F(t) = I_w(p, q) in closed form
    u = t ** (1.0 / p)
    c = b ** (-1.0 / p)
    return 1.0 - special.betainc(p, q, u * c / (1.0 + (c - 1.0) * u))


def _check_gb_fit(req, text):
    doc = json.loads(text)
    arg, val = _points(doc)
    probs = _grid_problems(arg, 0.0, 1.0, 101)
    fit = doc["fit"]
    if not fit["residual"] <= 1e-6:
        probs.append(f"gb-fit residual {fit['residual']:.3g} > 1e-6")
    for got, want in zip(fit["achieved_moments"], fit["target_moments"]):
        if abs(got / want - 1.0) > 1e-6:
            probs.append(f"gb-fit moment {got} does not match target {want}")
    if not probs:
        nbad, worst = _close(val, _gb_ccdf(fit["p"], fit["q"], fit["b"], arg),
                             rel=1e-8, floor=1e-10)
        if nbad:
            probs.append(f"{nbad} gb-fit points off I_w(p, q), worst {worst:.3g}")
    return Outcome(probs, arg.size)


def _check_gn2(req, text):
    out = _check_formula(req, text, 0.01, 0.99, 99, _g2)
    arg, _, flags = _csv(text)
    wrong = sum((f == "ub-only") != (t < 0.5) for t, f in zip(arg, flags))
    if wrong:
        out.problems.append(f"{wrong} gn:2 points carry the wrong exactness flag")
    return out


def _check_sf1_bound(req, text):
    d = req.delta
    t0 = 1.0 / (1.0 + np.sinc(d) ** (-1.0 / d))
    ref = t0 + special.beta(1.0 - d, 1.0 + d) * (
        1.0 - special.betainc(1.0 - d, 1.0 + d, t0)) / (
        special.gamma(1.0 + d) * special.gamma(1.0 - d))
    got = json.loads(text)["value"]
    nbad, worst = _close([got], [ref])
    return Outcome([f"sf1-bound {got} vs closed form {ref}"] if nbad else [], 1)


def _check_sstar(req, text):
    s = json.loads(text)["value"]
    d = req.delta
    f = mp.hyp1f1(-d, 1 - mp.mpf(d), s)
    ok = s > 0.0 and abs(f) <= 1e-9
    return Outcome([] if ok else [f"sstar {s}: 1F1(-d; 1-d; s) = {float(f):.3g}"], 1)


# --- Monte Carlo --------------------------------------------------------------

def _ref_rayleigh_nba(d, t):
    out = np.zeros_like(t)
    inner = (t > 0.0) & (t < 1.0)
    out[t == 0.0] = 1.0
    ti = t[inner]
    out[inner] = 1.0 / ((1.0 - ti) * special.hyp2f1(1.0, 1.0, 1.0 - d, ti))
    return out


def _ref_strongest(d, t):
    # g_1 is the exact ccdf of the strongest SF only for t >= 1/2; with
    # any fading the strongest-station SF has the no-fading SF_1 law
    out = np.full_like(t, np.nan)
    hi = (t >= 0.5) & (t < 1.0)
    out[hi] = (1.0 / t[hi] - 1.0) ** d / (
        special.gamma(1.0 + d) * special.gamma(1.0 - d))
    out[t == 1.0] = 0.0
    return out


def _ref_rba(d, t):
    return 1.0 - special.betainc(1.0 - d, d, t)


def _zscore_problems(arg, val, ref, n):
    use = np.isfinite(ref) & (n * ref * (1.0 - ref) >= Z_MIN_VAR)
    if not use.any():
        return ["no grid point is fit for a z-check"]
    p = ref[use]
    z = np.abs(val[use] - p) / np.sqrt(p * (1.0 - p) / n)
    if z.max() > Z_MAX:
        i = int(np.argmax(z))
        return [f"ccdf z-score {z.max():.2f} > {Z_MAX} at t={arg[use][i]}"]
    return []


_MC_REFS = {"mc-rayleigh-nba": _ref_rayleigh_nba,
            "mc-strongest": _ref_strongest,
            "mc-rba": _ref_rba}


def _check_simulate(req, text):
    doc = json.loads(text)
    arg, val = _points(doc)
    summ = doc["summary"]
    n = req.samples
    probs = _grid_problems(arg, 0.0, 1.0, 101)
    if summ["count"] != n:
        probs.append(f"summary count {summ['count']} != {n} samples")
    if summ["flagged"]:
        probs.append(f"{summ['flagged']} realizations flagged")
    if probs:
        return Outcome(probs, arg.size, summ["flagged"])
    if req.kind == "mc-kth2":
        if np.any(val[arg >= 0.5] != 0.0) or summ["mean"] > 0.5:
            probs.append("SF_2 exceeds its support bound 1/2")
    else:
        probs += _zscore_problems(arg, val, _MC_REFS[req.kind](req.delta, arg), n)
    return Outcome(probs, arg.size, summ["flagged"])


def _check_conjecture(req, text):
    doc = json.loads(text)
    n = req.samples
    probs = []
    if doc["samples"] != n:
        probs.append(f"conjecture reports {doc['samples']} samples, asked {n}")
    if doc["flagged"]:
        probs.append(f"{doc['flagged']} realizations flagged")
    for row in doc["moments"]:
        k = row["k"]
        want = math.comb(2 * k, k) / 4.0 ** k
        if abs(row["arcsine"] / want - 1.0) > REL_TOL:
            probs.append(f"arcsine moment {k} is {row['arcsine']}, not {want}")
    # the law is conjectured within 1/3000 of arcsine in KS distance;
    # 3/sqrt(n) covers the sampling noise of sqrt(n) D (tail ~3e-8)
    ks_lim = 1.0 / 3000.0 + 3.0 / math.sqrt(n)
    if not 0.0 < doc["ks_distance"] <= ks_lim:
        probs.append(f"KS distance {doc['ks_distance']:.3g} > {ks_lim:.3g}")
    m1 = doc["moments"][0]["empirical"]
    if abs(m1 - 0.5) > Z_MAX * math.sqrt(0.125 / n) + 1.5e-4:
        probs.append(f"mean SF {m1} too far from the arcsine mean 1/2")
    return Outcome(probs, len(doc["moments"]), doc["flagged"])


def check(req, text: str, rng: np.random.Generator) -> Outcome:
    """Check one request's stdout; every problem found is listed."""
    k = req.kind
    if k == "exact-sf":
        return _check_exact(req, text, rng, sir=False)
    if k == "exact-sir-db":
        return _check_exact(req, text, rng, sir=True)
    if k == "approx-best":
        return _check_formula(req, text, 0.0, 1.0, 101, _best)
    if k == "approx-tail2":
        return _check_formula(req, text, 0.01, 1.0, 100, _tail2)
    if k == "approx-rational3":
        return _check_formula(req, text, 0.0, 0.99, 100, _rational3)
    if k == "approx-gb-fit":
        return _check_gb_fit(req, text)
    if k == "plp-rba-curve":
        return _check_formula(req, text, 0.01, 0.99, 99, _rba_cdf)
    if k == "plp-gn2":
        return _check_gn2(req, text)
    if k == "plp-sf1-bound":
        return _check_sf1_bound(req, text)
    if k == "plp-sstar":
        return _check_sstar(req, text)
    if k == "mc-conjecture":
        return _check_conjecture(req, text)
    if k in _MC_REFS or k == "mc-kth2":
        return _check_simulate(req, text)
    raise KeyError(f"no check for request kind {k!r}")
