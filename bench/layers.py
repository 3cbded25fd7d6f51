"""Per-layer microbenchmarks on fixed inputs, through public functions only.

These reproduce the single-process layer tables of ROADMAP item 1 and
do not depend on the workload seed.  Times are medians of repeats;
Monte Carlo rates use one 16384-realization shard on one worker.
"""

from __future__ import annotations

import re
import statistics
import subprocess
import sys
import time

import numpy as np

from sigfrac import approx, montecarlo, plp, rayleigh, specfun
from sigfrac.montecarlo import AssociationRule, FadingModel, SimConfig
from sigfrac.rayleigh import NetworkParams

from tracing import Tracer

DELTAS = (0.45, 0.5, 2.0 / 3.0, 0.8)
REPEATS = 5
SHARD = 16384
MC_SEED = 20201

# name -> (delta, fading, association)
MC_CELLS = {
    "d0.4_rayleigh_nba": (0.4, "rayleigh", "nba"),
    "d0.5_rayleigh_nba": (0.5, "rayleigh", "nba"),
    "d0.667_rayleigh_nba": (2.0 / 3.0, "rayleigh", "nba"),
    "d0.5_nakagami0.5_nba": (0.5, "nakagami0.5", "nba"),
    "d0.7_none_nba": (0.7, "none", "nba"),
    "d0.5_none_rba": (0.5, "none", "rba"),
    "d0.5_none_kth2": (0.5, "none", "kth2"),
}
PLP_DEPTH_DELTAS = {"d0.4": 0.4, "d0.5": 0.5, "d0.667": 2.0 / 3.0, "d0.7": 0.7}
PLP_DEPTH_REALIZATIONS = 64
IMPORT_PACKAGES = ("numpy", "scipy", "sigfrac")

_FADING = {"rayleigh": FadingModel.nakagami(1.0),
           "nakagami0.5": FadingModel.nakagami(0.5),
           "none": FadingModel.none()}
_ASSOC = {"nba": AssociationRule.nba(), "rba": AssociationRule.rba(),
          "kth2": AssociationRule.kth_strongest(2)}


def _median_time(fn, repeats=REPEATS):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _per_call_us(fn, args_list):
    def run():
        for args in args_list:
            fn(*args)
    return _median_time(run) / len(args_list) * 1e6


def specfun_layer():
    grids = {"lo": np.linspace(0.01, 0.5, 50),
             "mid": np.linspace(0.51, 0.9, 40),
             "hi": np.linspace(0.905, 0.999, 40)}
    out = {}
    for regime, grid in grids.items():
        calls = [(d, float(t)) for d in DELTAS for t in grid]
        out[f"specfun.hyp2f1_11.us.{regime}"] = (
            _per_call_us(specfun.hyp2f1_11, calls), "us")
    return out


def rayleigh_layer():
    params = [NetworkParams.from_delta(d) for d in DELTAS]
    grid = np.linspace(0.0, 1.0, 101)
    ccdf = [(p, float(t)) for p in params for t in grid]
    moments = [(p, k) for p in params for k in (1, 2)]
    return {
        "rayleigh.sf_ccdf_exact.us": (
            _per_call_us(rayleigh.sf_ccdf_exact, ccdf), "us"),
        "rayleigh.sf_moment_exact.ms": (
            _per_call_us(rayleigh.sf_moment_exact, moments) / 1e3, "ms"),
    }


def approx_layer():
    params = [NetworkParams.from_delta(d) for d in DELTAS]
    fit_ms = _per_call_us(approx.gb_fit, [(p,) for p in params]) / 1e3
    tracer = Tracer()
    tracer.install()
    try:
        fits = [approx.gb_fit(p) for p in params]
    finally:
        tracer.uninstall()
    calls = tracer.per_name().get("approx.gb_moment", (0, 0.0))[0]
    grid = np.linspace(0.0, 1.0, 101)
    cdf_args = [(fits[1].params, float(t)) for t in grid]
    return {
        "approx.gb_fit.ms": (fit_ms, "ms"),
        "approx.gb_moment.calls": (calls / len(params), "count/fit"),
        "approx.gb_cdf.ms_per_101": (
            _per_call_us(approx.gb_cdf, cdf_args) * 101 / 1e3, "ms"),
    }


def plp_layer():
    grid = np.linspace(0.01, 0.99, 99)
    rba = [(NetworkParams.from_delta(d), float(t)) for d in (0.4, 0.6)
           for t in grid]
    params = [(NetworkParams.from_delta(d),) for d in DELTAS]
    return {
        "plp.rba_cdf.us": (_per_call_us(plp.rba_cdf, rba), "us"),
        "plp.mean_sf1_upper_bound.ms": (
            _per_call_us(plp.mean_sf1_upper_bound, params) / 1e3, "ms"),
        "plp.flatness_rate.ms": (
            _per_call_us(plp.flatness_rate, params) / 1e3, "ms"),
    }


def _mc_config(delta, fading, assoc, samples):
    return SimConfig(params=NetworkParams.from_delta(delta),
                     fading=_FADING[fading], assoc=_ASSOC[assoc],
                     samples=samples, seed=MC_SEED)


def montecarlo_layer(nproc: int):
    out = {}
    for cell, (d, fading, assoc) in MC_CELLS.items():
        cfg = _mc_config(d, fading, assoc, SHARD)
        secs = _median_time(lambda: montecarlo.sample_sf(cfg, workers=1), 1)
        out[f"montecarlo.rate_1w.{cell}"] = (SHARD / secs, "1/s")

    # scaling efficiency T(1) / (nproc T(nproc)): a slow-tail job of 8
    # shards, where point generation dominates, and a light 2-shard job,
    # where pool start-up does
    slow = lambda w: montecarlo.conjecture_report(8 * SHARD, MC_SEED, workers=w)
    light_cfg = _mc_config(0.5, "none", "nba", 2 * SHARD)
    light = lambda w: montecarlo.sample_sf(light_cfg, workers=w)
    for name, job, reps in (("slowtail", slow, 1), ("lighttail", light, 3)):
        t1 = _median_time(lambda: job(1), reps)
        tn = _median_time(lambda: job(nproc), reps)
        out[f"montecarlo.scaling_eff.{name}"] = (t1 / (nproc * tn), "ratio")

    for name, d in PLP_DEPTH_DELTAS.items():
        rng = np.random.default_rng(MC_SEED)
        params = NetworkParams.from_delta(d)
        depth = [montecarlo.sample_plp(params, 1_000_000, 1e-4, rng)[0].size
                 for _ in range(PLP_DEPTH_REALIZATIONS)]
        out[f"montecarlo.plp_depth.{name}"] = (float(np.mean(depth)), "count")

    x = np.random.default_rng(MC_SEED).beta(0.5, 0.5, 2**20)

    def post():
        dist = montecarlo.EmpiricalDistribution(samples=np.sort(x))
        montecarlo.ks_distance(dist, montecarlo.arcsine_cdf)
    out["montecarlo.post.ms"] = (_median_time(post, 3) * 1e3, "ms")
    return out


def import_times(src: str, setup_code: str):
    """Import time of a cold start split by top-level package: the sum of
    the self times that ``-X importtime`` reports for its modules."""
    proc = subprocess.run(
        [sys.executable, "-E", "-s", "-X", "importtime", "-c", setup_code, src],
        capture_output=True, text=True, check=True)
    own = dict.fromkeys(IMPORT_PACKAGES + ("other",), 0)
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+)\s+\|\s+\d+\s+\|\s+([\w.]+)", line)
        if m:
            top = m.group(2).split(".")[0]
            own[top if top in own else "other"] += int(m.group(1))
    out = {f"setup.import_ms.{k}": (v / 1e3, "ms") for k, v in own.items()}
    out["setup.import_ms.total"] = (sum(own.values()) / 1e3, "ms")
    return out


def all_layers(nproc: int):
    out = {}
    for layer in (specfun_layer, rayleigh_layer, approx_layer, plp_layer):
        out.update(layer())
    out.update(montecarlo_layer(nproc))
    return out
