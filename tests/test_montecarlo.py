import dataclasses
import math
import multiprocessing
import os
import signal
import sys
import threading
import time
import warnings
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from scipy import special as sp

import sigfrac as sg
from sigfrac import montecarlo
from sigfrac.montecarlo import (AssociationRule, EmpiricalDistribution,
                                FadingModel, SimConfig, _cumulant, _gamma_tail,
                                _pow_neg, _rng_for, _sim_shard,
                                _close_pool, conjecture_report,
                                empirical_ccdf, empirical_moment, ks_distance,
                                sample_nakagami, sample_plp, sample_sf,
                                sample_sf_topk, worker_count)
from sigfrac.rayleigh import NetworkParams, sf_ccdf_exact

KS99 = 1.63  # 99% Kolmogorov quantile of sqrt(N) D_N
PLP_N = 50_000


def _worker_pids():
    return {p.pid for p in multiprocessing.active_children()}


def _gone(pid):
    """True once pid has exited, whether or not it has been reaped: a
    worker whose parent died is reaped by init, which may be slow."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rpartition(")")[2].split()[0] == "Z"
    except FileNotFoundError:
        return os.path.isdir("/proc")


def _glibc():
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


def _exit_in_worker():
    """A stand-in for montecarlo._run_shard, by name, that ends any
    process but this one, which runs its own share of the shards."""
    pid, run_shard = os.getpid(), montecarlo._run_shard

    def run(args):
        if os.getpid() != pid:
            os._exit(1)
        return run_shard(args)
    return run


@pytest.fixture
def pool_of(monkeypatch):
    """pool_of(n) closes the pool and caps the next call at n processes,
    the calling one and n - 1 workers, whatever pool an earlier test
    left or SIGFRAC_THREADS says; the pool is closed again after the
    test."""
    def start(n):
        _close_pool()
        monkeypatch.setenv("SIGFRAC_THREADS", str(n))
    yield start
    _close_pool()


@pytest.fixture(scope="module")
def plp_first_two():
    """xi_1 and xi_2 of PLP_N realizations at delta = 1/2, shared by the
    two law checks: the first two arrivals G of one (5, PLP_N)
    exponential block, as xi = G^(1/delta).  That block is the first
    chunk of a batched engine shard, one column per realization, as
    test_chunk_layout_is_points_by_rows checks."""
    e = _rng_for(11, 0).standard_exponential((5, PLP_N))
    return (np.cumsum(e[:2], axis=0) ** 2.0).T


class TestConfigTypes:
    def test_fading_validation(self):
        assert FadingModel.none().moment(4) == 1.0
        assert FadingModel.nakagami(2.0).moment(1) == 1.0
        assert FadingModel.nakagami(2.0).moment(2) == 1.5
        # (1 + 1/2)(1 + 2/2)(1 + 3/2)
        assert FadingModel.nakagami(2.0).moment(4) == 7.5
        # m alone states the law; no fading is its m = inf limit
        assert [f.name for f in dataclasses.fields(FadingModel)] == ["m"]
        assert FadingModel.nakagami(math.inf) == FadingModel.none()
        assert FadingModel.none().m == math.inf
        with pytest.raises(ValueError):
            FadingModel.nakagami(0.0)
        with pytest.raises(ValueError):
            FadingModel(m=math.nan)

    def test_assoc_validation(self):
        assert AssociationRule.kth_strongest(2).k == 2
        with pytest.raises(ValueError):
            AssociationRule(kind="kth")
        with pytest.raises(ValueError):
            AssociationRule(kind="other")
        # the instantaneously strongest station is the first of the
        # strength order, not a kind of its own
        assert AssociationRule.isba() == AssociationRule.kth_strongest(1)
        with pytest.raises(ValueError, match="unknown association kind"):
            AssociationRule(kind="isba")

    def test_config_validation(self, params_half):
        with pytest.raises(ValueError):
            SimConfig(params=params_half, fading=FadingModel.none(),
                      assoc=AssociationRule.nba(), samples=0)
        with pytest.raises(ValueError):
            SimConfig(params=params_half, fading=FadingModel.none(),
                      assoc=AssociationRule.nba(), samples=10, tail_eps=1.5)

    @pytest.mark.parametrize("fading, assoc", [
        (FadingModel.nakagami(1.0), AssociationRule.nba()),
        (FadingModel.none(), AssociationRule.rba()),
        (FadingModel.none(), AssociationRule.kth_strongest(3))])
    def test_delta_floor(self, fading, assoc):
        # below the floor a row's first value (1 - 2^-53)^(-1/delta)
        # overflows; at the floor a shard runs with no RuntimeWarning
        # (an error in this suite) and finite signal fractions
        with pytest.raises(ValueError, match="delta must be >= 2e-19"):
            SimConfig(params=NetworkParams(delta=1.9e-19), fading=fading,
                      assoc=assoc, samples=10)
        cfg = SimConfig(params=NetworkParams(delta=montecarlo._DELTA_MIN),
                        fading=fading, assoc=assoc, samples=4096)
        vals = _sim_shard(cfg, 4096, _rng_for(33, 0))[0]
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    @pytest.mark.parametrize("assoc, default", [
        (AssociationRule.nba(), 1e-3), (AssociationRule.isba(), 1e-3),
        (AssociationRule.kth_strongest(2), 1e-3), (AssociationRule.rba(), 1e-3)])
    def test_tail_eps_default_per_rule(self, params_half, assoc, default):
        # every rule runs at the one default; a given value, also 0, is
        # used or refused as given
        def cfg(**kw):
            return SimConfig(params=params_half, fading=FadingModel.none(),
                             assoc=assoc, samples=10, **kw)
        assert SimConfig.tail_eps == default
        assert cfg().tail_eps == default
        assert cfg(tail_eps=3e-3).tail_eps == 3e-3
        with pytest.raises(ValueError, match="tail_eps must be in"):
            cfg(tail_eps=0.0)

    def test_kth_values_per_shard_capped(self, params_half):
        # a kth:k shard holds k values per realization, so k * rows is
        # what bounds a worker's memory
        def cfg(k, samples):
            return SimConfig(params=params_half, fading=FadingModel.none(),
                             assoc=AssociationRule.kth_strongest(k),
                             samples=samples)
        assert cfg(512, 40_000).assoc.k == 512
        assert cfg(100_000, 80).samples == 80
        with pytest.raises(ValueError, match="use k <= 512"):
            cfg(513, 40_000)
        with pytest.raises(ValueError, match="holds 1638400000 values"):
            cfg(100_000, 20_000)

    def test_kth_within_point_budget(self, params_half):
        # the first chunk holds the k ordered points, so k above the
        # budget fails here, before any worker starts
        with pytest.raises(ValueError, match="point budget 10 too small for "
                                             "the 20 ordered points"):
            SimConfig(params=params_half, fading=FadingModel.none(),
                      assoc=AssociationRule.kth_strongest(20), samples=40_000,
                      point_budget=10)

    def test_negative_seed_rejected(self, params_half):
        # SeedSequence would refuse it only inside the first shard
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            SimConfig(params=params_half, fading=FadingModel.none(),
                      assoc=AssociationRule.nba(), samples=10, seed=-1)


class TestNakagami:
    def test_rayleigh_moments(self):
        rng = _rng_for(1, 0)
        h = sample_nakagami(1.0, rng, 10**6)
        n = h.size
        assert abs(h.mean() - 1.0) < 3.0 / math.sqrt(n)
        # var of Exp(1) is 1; var of the variance estimator ~ 8/n
        assert abs(h.var() - 1.0) < 3.0 * math.sqrt(8.0 / n)

    def test_nakagami2_second_moment(self):
        # and the fourth, which the engine's stop rule uses
        rng = _rng_for(2, 0)
        h = sample_nakagami(2.0, rng, 10**6)
        for n in (2, 4):
            se = np.std(h ** n) / math.sqrt(h.size)
            assert abs(np.mean(h ** n) - FadingModel.nakagami(2.0).moment(n)) \
                < 3.0 * se

    def test_half_small_x_slope(self):
        # F_h(x) ~ c x^(1/2) near 0: log-log slope of the empirical cdf
        rng = _rng_for(3, 0)
        h = sample_nakagami(0.5, rng, 10**6)
        x1, x2 = 1e-4, 1e-2
        f1, f2 = np.mean(h <= x1), np.mean(h <= x2)
        slope = (math.log(f2) - math.log(f1)) / (math.log(x2) - math.log(x1))
        assert abs(slope - 0.5) < 0.05

    def test_mean_one_all_m(self):
        rng = _rng_for(4, 0)
        for m in (0.5, 1.0, 2.0, 3.7):
            h = sample_nakagami(m, rng, 200_000)
            assert abs(h.mean() - 1.0) < 4.0 * h.std() / math.sqrt(h.size)

    def test_m_outside_the_fading_domain(self):
        # the gains are drawn for 0 < m < inf; FadingModel also takes
        # m = inf, which draws none
        for m in (math.inf, math.nan, 0.0):
            with pytest.raises(ValueError, match="finite and > 0"):
                sample_nakagami(m, _rng_for(5, 0), 4)
        for m in (math.nan, 0.0, -math.inf):
            with pytest.raises(ValueError, match="m must be > 0"):
                FadingModel.nakagami(m)


class TestSamplePlp:
    def test_first_point_is_weibull(self, plp_first_two):
        xi = plp_first_two[:, 0]
        dist = EmpiricalDistribution(samples=np.sort(
            1.0 - np.exp(-np.sort(xi) ** 0.5)))
        # equivalent: KS of xi_1 against 1 - exp(-x^d)
        d = ks_distance(dist, lambda u: u)
        assert d < KS99 / math.sqrt(PLP_N)

    def test_second_point_distribution(self, plp_first_two):
        xi2 = np.sort(plp_first_two[:, 1])
        u = sp.gammainc(2.0, xi2 ** 0.5)   # regularized lower gamma cdf
        dist = EmpiricalDistribution(samples=np.sort(u))
        assert ks_distance(dist, lambda v: v) < KS99 / math.sqrt(PLP_N)

    @pytest.mark.parametrize("delta, budget, tail_eps, flagged", [
        (0.5, 100_000, 1e-4, False),
        (2.0 / 3.0, 100_000, 1e-4, False),
        # after 10 points the stop needs G_10^5 / G_1^6 > 2e23, a first
        # arrival below ~1e-3
        (2.0 / 3.0, 10, 1e-12, True)])
    def test_reads_one_engine_row(self, delta, budget, tail_eps, flagged):
        params = NetworkParams.from_delta(delta)
        rng = _rng_for(14, 0)
        state = rng.bit_generator.state
        xi, flag = sample_plp(params, budget, tail_eps, rng)
        after = rng.random()

        rng.bit_generator.state = state
        cfg = SimConfig(params=params, fading=FadingModel.none(),
                        assoc=AssociationRule.nba(), samples=1,
                        point_budget=budget, tail_eps=tail_eps)
        _, nflag, points, _, _ = _sim_shard(cfg, 1, rng)
        assert flag is flagged and nflag == int(flagged)
        assert xi.size == points

        rng.bit_generator.state = state
        g = np.cumsum(rng.standard_exponential(points))
        np.testing.assert_allclose(xi ** delta, g, rtol=1e-14, atol=0.0)
        # rng ends just past the exponentials, not past the engine's
        # finishing gamma
        assert rng.random() == after

    def test_increments_are_unit_exponential(self, params_half):
        rng = _rng_for(13, 0)
        means = []
        for _ in range(200):
            xi, _ = sample_plp(params_half, 100_000, 1e-4, rng)
            g = xi ** 0.5
            means.append(np.diff(g).mean())
            assert np.all(np.diff(xi) > 0.0)
        total = np.mean(means)
        assert abs(total - 1.0) < 0.05


class TestSampleSf:
    def test_support(self, params_half):
        cfg = SimConfig(params=params_half, fading=FadingModel.nakagami(1.0),
                        assoc=AssociationRule.nba(), samples=20_000, seed=21)
        x = sample_sf(cfg).dist.samples
        assert x.min() >= 0.0 and x.max() <= 1.0

    def test_kth_support(self, params_half):
        for k in (2, 3):
            cfg = SimConfig(params=params_half, fading=FadingModel.none(),
                            assoc=AssociationRule.kth_strongest(k),
                            samples=20_000, seed=22 + k)
            x = sample_sf(cfg).dist.samples
            assert x.max() <= 1.0 / k

    def test_rayleigh_matches_exact_ccdf(self, params_half):
        cfg = SimConfig(params=params_half, fading=FadingModel.nakagami(1.0),
                        assoc=AssociationRule.nba(), samples=10**5, seed=23)
        dist = sample_sf(cfg).dist
        for t in (0.1, 0.5, 0.9):
            ref = sf_ccdf_exact(params_half, t)
            se = math.sqrt(ref * (1.0 - ref) / dist.samples.size)
            assert abs(empirical_ccdf(dist, t) - ref) < 3.0 * se

    def test_no_fading_matches_g1(self, nofad_half_top5, params_half):
        sf1 = np.sort(nofad_half_top5[:, 0])
        n = sf1.size
        for t in (0.5, 0.7, 0.9):
            ref = sg.g_n(params_half, 1, t)
            se = math.sqrt(ref * (1.0 - ref) / n)
            emp = np.mean(sf1 > t)
            assert abs(emp - ref) < 3.0 * se

    def test_rba_matches_beta_law(self):
        p = NetworkParams.from_delta(2.0 / 3.0)
        cfg = SimConfig(params=p, fading=FadingModel.none(),
                        assoc=AssociationRule.rba(), samples=20_000, seed=25)
        dist = sample_sf(cfg).dist
        assert ks_distance(dist, lambda t: sg.rba_cdf(p, t)) \
            < KS99 / math.sqrt(dist.samples.size)

    @pytest.mark.parametrize("d, seed", [(0.3, 3300), (0.8, 3800)])
    def test_nba_at_m_one_minus_delta_is_rba_law(self, d, seed):
        # under Nakagami-(1-d) fading the nearest-station SF is
        # Beta(1-d, d) exactly, the rba law, as conjecture_report's d = 1/2
        n = 200_000
        p = NetworkParams.from_delta(d)
        cfg = SimConfig(params=p, fading=FadingModel.nakagami(1.0 - d),
                        assoc=AssociationRule.nba(), samples=n, seed=seed)
        dist = sample_sf(cfg).dist
        assert ks_distance(dist, lambda t: sg.rba_cdf(p, t)) \
            < KS99 / math.sqrt(n)
        for k in (1, 2):
            xk = dist.samples ** k
            se = float(xk.std()) / math.sqrt(n)
            assert abs(float(xk.mean()) - sg.rba_moment(p, k)) < 3.0 * se

    @pytest.mark.parametrize("i", [1, 2])
    def test_sf_ratio_law(self, nofad_half_top5, params_half, i):
        # SF_{i+1}/SF_i = (G_{i+1}/G_i)^(-1/delta) does not involve the
        # truncated tail, so this checks the law of the engine's first
        # points exactly
        r = np.sort(nofad_half_top5[:, i] / nofad_half_top5[:, i - 1])
        dist = EmpiricalDistribution(samples=r)
        assert ks_distance(dist, lambda x: sg.ratio_cdf(params_half, i, x)) \
            < KS99 / math.sqrt(r.size)

    def test_isba_fading_invariance(self, params_half):
        n = 10**5
        cfg_f = SimConfig(params=params_half, fading=FadingModel.nakagami(1.0),
                          assoc=AssociationRule.isba(), samples=n, seed=26)
        cfg_n = SimConfig(params=params_half, fading=FadingModel.none(),
                          assoc=AssociationRule.isba(), samples=n, seed=27)
        df, dn = sample_sf(cfg_f).dist, sample_sf(cfg_n).dist
        for t in np.linspace(0.05, 0.9, 18):
            a, b = empirical_ccdf(df, t), empirical_ccdf(dn, t)
            se = math.sqrt(max(b * (1.0 - b), 1e-9) * 2.0 / n)
            assert abs(a - b) < 3.0 * se

    @pytest.mark.parametrize("assoc", [AssociationRule.nba(),
                                       AssociationRule.rba()])
    def test_topk_needs_kth_config(self, params_half, assoc):
        cfg = SimConfig(params=params_half, fading=FadingModel.none(),
                        assoc=assoc, samples=10, seed=29)
        with pytest.raises(ValueError, match="kth_strongest"):
            sample_sf_topk(cfg)

    def test_isba_topk_is_its_samples(self, params_half):
        cfg = SimConfig(params=params_half, fading=FadingModel.nakagami(1.0),
                        assoc=AssociationRule.isba(), samples=3000, seed=30)
        vals, flagged = sample_sf_topk(cfg)
        assert vals.shape == (3000, 1) and flagged == 0
        assert np.sort(vals[:, 0]).tobytes() == \
            sample_sf(cfg).dist.samples.tobytes()

    def test_isba_equals_nba_without_fading(self, params_half):
        # only nba draws gains: isba (kth_strongest(1)), kth and rba run
        # on the no-fading stream whatever the fading
        kw = dict(params=params_half, samples=5_000, seed=28)

        def draw(assoc, fading):
            res = sample_sf(SimConfig(assoc=assoc, fading=fading, **kw))
            return res.dist.samples.tobytes(), res.counters()

        fadings = (FadingModel.none(), FadingModel.nakagami(1.0),
                   FadingModel.nakagami(0.5))
        b = draw(AssociationRule.nba(), FadingModel.none())
        for fading in fadings:
            assert draw(AssociationRule.isba(), fading) == b
        for assoc in (AssociationRule.kth_strongest(2), AssociationRule.rba()):
            ref = draw(assoc, FadingModel.none())
            for fading in fadings[1:]:
                assert draw(assoc, fading) == ref


class TestDeterminism:
    def test_worker_count_invariance(self, params_half, pool_of):
        cfg = SimConfig(params=params_half, fading=FadingModel.nakagami(1.0),
                        assoc=AssociationRule.nba(), samples=40_000, seed=31)
        pool_of(3)
        a = sample_sf(cfg, workers=1).dist.samples
        b = sample_sf(cfg).dist.samples
        assert len(_worker_pids()) == 2
        np.testing.assert_array_equal(a, b)

    def test_worker_count_invariance_rba(self, params_half, pool_of):
        cfg = SimConfig(params=params_half, fading=FadingModel.none(),
                        assoc=AssociationRule.rba(), samples=40_000, seed=32)
        pool_of(2)
        a = sample_sf(cfg, workers=1).dist.samples
        b = sample_sf(cfg).dist.samples
        assert len(_worker_pids()) == 1
        np.testing.assert_array_equal(a, b)

    def test_rba_tail_picks_finish_and_match_pool(self, pool_of):
        # at delta = 0.95 about 79% of rows pick from the tail, so most
        # rows run the tail pick's proposal loop
        cfg = SimConfig(params=NetworkParams.from_delta(0.95),
                        fading=FadingModel.none(), assoc=AssociationRule.rba(),
                        samples=40_000, seed=37)
        pool_of(2)
        a = sample_sf(cfg, workers=1).dist.samples
        b = sample_sf(cfg).dist.samples
        assert len(_worker_pids()) == 1
        assert 0.0 <= a[0] and a[-1] <= 1.0
        assert a.tobytes() == b.tobytes()

    # sorted samples of a 5-realization run at seed 34, alpha = 4, at
    # the default tail_eps; a change in the tail draw moves them at
    # ~1e-3, and one in the point stream or in the default at O(1); the
    # tolerance only absorbs last-digit differences of the math library
    RECORDED = {
        "nba": (FadingModel.nakagami(1.0), AssociationRule.nba(),
                [0.17249480654389002, 0.3447440388109272, 0.3873567735246482,
                 0.6157710573958552, 0.9528826076681083]),
        "isba": (FadingModel.nakagami(1.0), AssociationRule.isba(),
                 [0.2207194655157102, 0.4003081060337609, 0.5861892385988465,
                  0.8110405289852306, 0.9281753471927484]),
        "kth2": (FadingModel.none(), AssociationRule.kth_strongest(2),
                 [0.01936540783595996, 0.07154186645344943,
                  0.11114705141077164, 0.1450171127432603,
                  0.1452563182986881]),
        "nba_none": (FadingModel.none(), AssociationRule.nba(),
                     [0.2207194655157102, 0.4003081060337609,
                      0.5861892385988465, 0.8110405289852306,
                      0.9281753471927484]),
        "nba_half": (FadingModel.nakagami(0.5), AssociationRule.nba(),
                     [0.06451122858346961, 0.07372675232820956,
                      0.1490796924761739, 0.2778585503469396,
                      0.8980674534473063]),
        "rba": (FadingModel.none(), AssociationRule.rba(),
                [0.01315712062057635, 0.14412155879851146,
                 0.5355491530464898, 0.8148546081870969,
                 0.930418412414799]),
    }
    # the three strongest signal fractions of the same 5 realizations,
    # in realization order
    RECORDED_TOP3 = [
        [0.5861892385988465, 0.1450171127432603, 0.09536006928827472],
        [0.4003081060337609, 0.1452563182986881, 0.10866662077312488],
        [0.2207194655157102, 0.07154186645344943, 0.06896010623672405],
        [0.9281753471927484, 0.01936540783595996, 0.017608439500999617],
        [0.8110405289852306, 0.11114705141077164, 0.03873748693857146],
    ]

    @pytest.mark.parametrize("rule", sorted(RECORDED))
    def test_recorded_stream(self, params_half, rule):
        fading, assoc, expected = self.RECORDED[rule]
        cfg = SimConfig(params=params_half, fading=fading, assoc=assoc,
                        samples=5, seed=34)
        np.testing.assert_allclose(sample_sf(cfg, workers=1).dist.samples,
                                   expected, rtol=1e-13, atol=0.0)

    def test_chunk_layout_is_points_by_rows(self, params_half):
        # the first chunk of a kth:5 shard is one (5, n) exponential
        # draw, one column per realization; the ratios of its values do
        # not involve the tail, so they pin which draw went where
        n = 1000
        cfg = SimConfig(params=params_half, fading=FadingModel.none(),
                        assoc=AssociationRule.kth_strongest(5), samples=n)
        out = _sim_shard(cfg, n, _rng_for(35, 0))[0]
        g = np.cumsum(_rng_for(35, 0).standard_exponential((5, n)), axis=0)
        for j in range(1, 5):
            np.testing.assert_allclose(out[:, j] / out[:, 0],
                                       (g[j] / g[0]) ** -2.0, rtol=1e-13,
                                       atol=0.0)

    def test_recorded_topk_block(self, params_half):
        cfg = SimConfig(params=params_half, fading=FadingModel.none(),
                        assoc=AssociationRule.kth_strongest(3), samples=5,
                        seed=34)
        vals, flagged = sample_sf_topk(cfg, workers=1)
        assert flagged == 0
        np.testing.assert_allclose(vals, self.RECORDED_TOP3, rtol=1e-13,
                                   atol=0.0)

    @pytest.mark.parametrize("samples", [40_000, 65_536, 81_920])
    def test_shard_batches_match_one_worker(self, params_half, pool_of,
                                            samples):
        # 3, 4 and 5 shards in w contiguous batches, the calling process
        # running the first
        cfg = SimConfig(params=params_half, fading=FadingModel.nakagami(1.0),
                        assoc=AssociationRule.nba(), samples=samples, seed=39)
        a = sample_sf(cfg, workers=1).dist.samples.tobytes()
        for w in (2, 3):
            pool_of(w)
            assert sample_sf(cfg).dist.samples.tobytes() == a
            assert len(_worker_pids()) == w - 1

    def test_topk_invariance(self, params_half, pool_of):
        cfg = SimConfig(params=params_half, fading=FadingModel.none(),
                        assoc=AssociationRule.kth_strongest(3), samples=40_000,
                        seed=33)
        pool_of(3)
        a, _ = sample_sf_topk(cfg, workers=1)
        b, _ = sample_sf_topk(cfg)
        assert len(_worker_pids()) == 2
        np.testing.assert_array_equal(a, b)


class _RecordingRng:
    """A generator that keeps every array a draw was asked to fill and,
    given a barrier, waits at it before its first draw."""

    def __init__(self, rng, barrier=None):
        self.rng, self.outs, self.barrier = rng, [], barrier

    def __getattr__(self, name):
        draw = getattr(self.rng, name)

        def call(*args, **kwargs):
            if self.barrier is not None:
                self.barrier.wait()
                self.barrier = None
            if kwargs.get("out") is not None:
                self.outs.append(kwargs["out"])
            return draw(*args, **kwargs)
        return call


class TestLeanRound:
    """Each round takes its one non-integer power from the chunk and
    holds the live rows compacted; a call draws into its own buffer,
    and a later shard reuses the heap an earlier one freed."""

    @pytest.mark.parametrize("delta", [0.01, 0.1, 0.5, 2.0 / 3.0, 0.9])
    def test_tail_powers_are_products_of_rp(self, delta):
        # r^e_1 = r rp and r^e_4 = r (rp^2)^2 with rp = r^(-1/delta), as
        # a round forms them: within 8 ulp of np.power, plus what the
        # exponent's own rounding makes of ln r (1 - n/delta is not
        # always the double nearest (delta - n)/delta)
        r = np.geomspace(1.0, 1e4, 100_001)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rp = _pow_neg(r, -1.0 / delta)
            products = {1: r * rp, 4: r * (rp * rp) ** 2}
        for n, got in products.items():
            e = _cumulant(n, delta, 1.0)[1]
            ref = np.power(r, e)
            tol = 8.0 * np.spacing(ref) + ref * np.log(r) * 8.0 * np.spacing(-e)
            # where np.power underflows to 0 the products do too, and
            # where it is subnormal they may differ by the subnormal
            # spacing of their last factor, times r
            assert np.all(got[ref == 0.0] == 0.0)
            assert np.all(np.abs(got - ref) <= tol + r * 2.0 ** -1074)

    @pytest.mark.parametrize("delta, fading, assoc", [
        (0.5, FadingModel.none(), AssociationRule.rba()),
        (0.5, FadingModel.nakagami(0.5), AssociationRule.nba()),
        # at tail_eps = 1e-5 a later round draws more than its first, so
        # the workspace grows
        (2.0 / 3.0, FadingModel.nakagami(1.0), AssociationRule.nba())])
    def test_workspace_is_private_to_a_call(self, delta, fading, assoc):
        n = 4096
        cfg = SimConfig(params=NetworkParams.from_delta(delta), fading=fading,
                        assoc=assoc, samples=n,
                        tail_eps=1e-5 if fading.m == 1.0 else SimConfig.tail_eps)
        gen = _rng_for(36, 0)
        state = gen.bit_generator.state
        rng = _RecordingRng(gen)
        a = _sim_shard(cfg, n, rng)
        outs = rng.outs
        assert not any(np.shares_memory(a[0], o) for o in outs)
        if fading.m == 1.0:
            assert max(o.size for o in outs) > outs[0].size
        rng.outs = []
        gen.bit_generator.state = state
        b = _sim_shard(cfg, n, rng)
        np.testing.assert_array_equal(a[0], b[0])
        assert a[1:] == b[1:]
        assert not any(np.shares_memory(b[0], o) for o in outs + rng.outs)

    @staticmethod
    def rayleigh_config(n):
        return SimConfig(params=NetworkParams.from_delta(2.0 / 3.0),
                         fading=FadingModel.nakagami(1.0),
                         assoc=AssociationRule.nba(), samples=n)

    def test_concurrent_calls_work_apart(self):
        # two threads, each held at its first draw until the other is
        # inside _sim_shard too, draw into distinct buffers and give the
        # serial bytes
        n = 4096
        expected = _sim_shard(self.rayleigh_config(n), n, _rng_for(36, 0))
        barrier = threading.Barrier(2, timeout=60)
        results = [None, None]

        def run(i):
            rng = _RecordingRng(_rng_for(36, 0), barrier)
            results[i] = _sim_shard(self.rayleigh_config(n), n, rng), rng.outs

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not any(t.is_alive() for t in threads)
        for got, _ in results:
            assert got[0].tobytes() == expected[0].tobytes()
            assert got[1:] == expected[1:]
        assert not np.shares_memory(results[0][1][0], results[1][1][0])

    @pytest.mark.skipif(not _glibc(), reason="the allocator policy is glibc's")
    def test_later_shard_reuses_freed_heap(self):
        # the first shard sets the process's allocator policy, so a
        # second one works in the heap memory the first freed: without
        # the policy glibc trims it, and the second takes 500-650 minor
        # faults
        import resource
        n = 16_384
        cfg = self.rayleigh_config(n)
        _sim_shard(cfg, n, _rng_for(37, 0))
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        _sim_shard(cfg, n, _rng_for(37, 0))
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 100


class TestWorkerPool:
    """One pool per process: a call runs on min(workers, shards)
    processes, workers defaulting to worker_count(); the calling process
    runs the first batch of its shards, and workers the others.  The
    pool only grows: a later call reuses the running workers and starts
    only those it lacks, and a call that finds or meets a dead worker
    runs its shards again on fresh ones."""

    @pytest.fixture(autouse=True)
    def two_workers(self, pool_of):
        # each test starts its own pool, for two processes unless it says
        # otherwise
        pool_of(2)

    @staticmethod
    def config(params, samples):
        return SimConfig(params=params, fading=FadingModel.none(),
                         assoc=AssociationRule.nba(), samples=samples, seed=41)

    def test_default_count_is_usable_cpus(self, monkeypatch):
        # a cpuset or taskset leaves the process fewer CPUs than the
        # machine has; no worker starts here
        monkeypatch.delenv("SIGFRAC_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        assert worker_count() == 1

    def test_calls_share_workers(self, params_half):
        cfg = self.config(params_half, 20_000)     # two shards
        sample_sf(cfg, workers=2)
        pids = _worker_pids()
        assert len(pids) == 1
        sample_sf(cfg, workers=2)
        assert _worker_pids() == pids
        # workers=5 on two shards runs on two processes: the same pool
        sample_sf(cfg, workers=5)
        assert _worker_pids() == pids

    def test_count_change_grows_pool(self, params_half, pool_of):
        # a one-shot two-shard call starts one worker, not
        # worker_count() - 1; a call with more shards adds one and keeps
        # the running one
        pool_of(3)
        sample_sf(self.config(params_half, 20_000))     # two shards
        old = _worker_pids()
        assert len(old) == 1
        sample_sf(self.config(params_half, 40_000))     # three shards
        new = _worker_pids()
        assert len(new) == 2
        assert old < new
        assert not any(_gone(pid) for pid in old)

    @pytest.mark.parametrize("call", [
        lambda cfg, w: sample_sf(cfg, workers=w),
        lambda cfg, w: sample_sf_topk(
            dataclasses.replace(cfg, assoc=AssociationRule.kth_strongest(2)),
            workers=w),
        lambda cfg, w: conjecture_report(cfg.samples, cfg.seed, workers=w),
    ], ids=["sample_sf", "sample_sf_topk", "conjecture_report"])
    @pytest.mark.parametrize("workers", [0, -1])
    def test_count_below_one_is_value_error(self, params_half, call,
                                            workers):
        with pytest.raises(ValueError, match=f"workers must be >= 1, "
                                             f"got {workers}"):
            call(self.config(params_half, 20_000), workers)
        assert _worker_pids() == set()

    def test_workers_is_the_process_count(self, params_half, pool_of):
        # workers=3 on three shards runs on three processes whatever
        # SIGFRAC_THREADS says, with the bytes of one
        pool_of(1)
        cfg = self.config(params_half, 40_000)          # three shards
        expected = sample_sf(cfg, workers=1).dist.samples.tobytes()
        assert _worker_pids() == set()
        assert sample_sf(cfg, workers=3).dist.samples.tobytes() == expected
        assert len(_worker_pids()) == 2

    def test_fewer_shards_keep_workers(self, params_half, pool_of):
        pool_of(3)
        sample_sf(self.config(params_half, 40_000))     # three shards
        pids = _worker_pids()
        assert len(pids) == 2
        sample_sf(self.config(params_half, 20_000))     # two shards
        assert _worker_pids() == pids

    def test_concurrent_calls(self, params_half):
        # threads that pass changing workers counts must neither close
        # the pool under another's map nor start a second one: one pool,
        # grown to the two workers of a three-process call
        cfg = self.config(params_half, 40_000)
        expected = sample_sf(cfg, workers=1).dist.samples
        errors = []

        def run(i):
            try:
                for j in range(3):
                    got = sample_sf(cfg, workers=2 + (i + j) % 2).dist.samples
                    np.testing.assert_array_equal(got, expected)
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(_worker_pids()) == 2

    def test_dead_worker_fails_no_call(self, params_half, monkeypatch):
        # a shard is a pure function of (config, shard index), so a call
        # that finds or meets a dead worker runs its shards once more on
        # a fresh pool and returns the same bytes, whenever the pool
        # notices the death
        cfg = self.config(params_half, 20_000)
        expected = sample_sf(cfg, workers=1).dist.samples
        sample_sf(cfg, workers=2)
        os.kill(min(_worker_pids()), signal.SIGKILL)
        for _ in range(2):
            np.testing.assert_array_equal(
                sample_sf(cfg, workers=2).dist.samples, expected)
        # a worker dies in the rerun too: then the call raises, after its
        # second worker, and the next one starts afresh
        _close_pool()
        starts = []

        class CountedProcess(multiprocessing.Process):
            def start(self):
                starts.append(self)
                super().start()

        with monkeypatch.context() as patch:
            patch.setattr(multiprocessing, "Process", CountedProcess)
            patch.setattr(montecarlo, "_run_shard", _exit_in_worker())
            with pytest.raises(BrokenProcessPool):
                sample_sf(cfg, workers=2)
        assert len(starts) == 2
        np.testing.assert_array_equal(sample_sf(cfg, workers=2).dist.samples,
                                      expected)

    def test_one_shard_batch_per_worker(self, params_half, monkeypatch):
        # 4 shards on 2 processes go as two 2-shard batches, 3 as 1 + 2
        # and 62 as 31 + 31; the calling process runs the first batch,
        # and the worker the second
        run_shard, ran = montecarlo._run_shard, []

        def recording(args):
            ran.append(args[1])
            return run_shard(args)

        monkeypatch.setattr(montecarlo, "_run_shard", recording)
        for samples, first in ((65_536, 2), (40_000, 1), (62 * 16_384, 31)):
            cfg = self.config(params_half, samples)
            ran.clear()
            got = sample_sf(cfg).dist.samples.tobytes()
            assert ran == list(range(first))
            assert got == sample_sf(cfg, workers=1).dist.samples.tobytes()
        assert len(_worker_pids()) == 1

    def test_child_process_runs_own_pool(self, params_half):
        # a forked child inherits the parent's pool object but not its
        # workers, and a multiprocessing child joins its own children
        # on exit
        cfg = self.config(params_half, 20_000)
        expected = sample_sf(cfg, workers=2).dist.samples.tobytes()
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)

        def run():
            os.setpgid(0, 0)    # its workers join the group killed below
            send.send_bytes(sample_sf(cfg, workers=2).dist.samples.tobytes())

        child = ctx.Process(target=run)
        child.start()
        try:
            assert recv.poll(60)
            assert recv.recv_bytes() == expected
            child.join(60)
            assert child.exitcode == 0
        finally:
            if child.exitcode is None:
                os.killpg(child.pid, signal.SIGKILL)
                child.join()

    def test_killed_child_leaves_no_worker(self, params_half):
        # a worker closes every parent-side pipe end it inherited, so it
        # reads EOF and exits once the process that started it dies
        cfg = self.config(params_half, 20_000)
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)

        def run():
            sample_sf(cfg, workers=2)
            send.send([p.pid for p in multiprocessing.active_children()])
            signal.pause()

        child = ctx.Process(target=run)
        child.start()
        pids = []
        try:
            assert recv.poll(60)
            pids = recv.recv()
            assert len(pids) == 1
            os.kill(child.pid, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while not all(map(_gone, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert all(map(_gone, pids))
        finally:
            for pid in [child.pid] + pids:
                if not _gone(pid):
                    os.kill(pid, signal.SIGKILL)
            child.join()


class TestTruncation:
    def test_budget_doubling_below_noise(self, params_half):
        base = dict(params=params_half, fading=FadingModel.nakagami(1.0),
                    assoc=AssociationRule.nba(), samples=10**5, seed=41)
        r1 = sample_sf(SimConfig(point_budget=500_000, **base)).dist
        r2 = sample_sf(SimConfig(point_budget=1_000_000, **base)).dist
        se = float(r1.samples.std()) / math.sqrt(r1.samples.size)
        assert abs(empirical_moment(r1, 1) - empirical_moment(r2, 1)) < se

    def test_tail_eps_refinement_below_noise(self, params_half):
        base = dict(params=params_half, fading=FadingModel.nakagami(1.0),
                    assoc=AssociationRule.nba(), samples=10**5, seed=42)
        r1 = sample_sf(SimConfig(tail_eps=1e-4, **base)).dist
        r2 = sample_sf(SimConfig(tail_eps=1e-5, **base)).dist
        se = float(r1.samples.std()) / math.sqrt(r1.samples.size)
        assert abs(empirical_moment(r1, 1) - empirical_moment(r2, 1)) < se

    def test_tight_budget_flags_and_aborts(self, params_half):
        cfg = SimConfig(params=params_half, fading=FadingModel.nakagami(1.0),
                        assoc=AssociationRule.nba(), samples=2_000, seed=43,
                        point_budget=16)
        with pytest.raises(sg.SimulationError):
            sample_sf(cfg)

    def test_tight_budget_flags_and_aborts_rba(self, params_half):
        cfg = SimConfig(params=params_half, fading=FadingModel.none(),
                        assoc=AssociationRule.rba(), samples=2_000, seed=44,
                        point_budget=10)
        with pytest.raises(sg.SimulationError):
            sample_sf(cfg)

    def test_first_chunk_holds_k_points_on_a_full_shard(self, params_half):
        # 300 ordered points on 16,384 rows exceed the later rounds' cap
        # of 4,000,000 draws a round; the first chunk is one (300, n)
        # draw all the same
        n = 16384
        cfg = SimConfig(params=params_half, fading=FadingModel.none(),
                        assoc=AssociationRule.kth_strongest(300), samples=n)
        out, flagged = _sim_shard(cfg, n, _rng_for(45, 0))[:2]
        assert out.shape == (n, 300) and flagged == 0
        g = np.cumsum(_rng_for(45, 0).standard_exponential((300, n)), axis=0)
        for j in (1, 150, 299):
            np.testing.assert_allclose(out[:, j] / out[:, 0],
                                       (g[j] / g[0]) ** -2.0, rtol=1e-13,
                                       atol=0.0)

    def test_budget_below_k_is_domain_error(self, params_half):
        # SimConfig refuses it, before any shard runs
        with pytest.raises(ValueError, match="too small for the 300 ordered"):
            SimConfig(params=params_half, fading=FadingModel.none(),
                      assoc=AssociationRule.kth_strongest(300), samples=10,
                      point_budget=299)


def per_point_stop_depth(delta, fading, n, tail_eps, rng, block=64):
    """Mean over n rows of the first K at which kappa_4(G_K) <= tail_eps^2
    (P_K + kappa_1(G_K))^4, with the rule evaluated after every point on
    absolute arrivals G_K and received power P_K."""
    c1 = delta / (1.0 - delta)
    c4 = fading.moment(4) * delta / (4.0 - delta)
    depth = np.zeros(n)
    g_last = np.zeros(n)
    p_last = np.zeros(n)
    live = np.arange(n)
    k = 0
    while live.size:
        g = g_last[live, None] + np.cumsum(
            rng.standard_exponential((live.size, block)), axis=1)
        v = g ** (-1.0 / delta)
        if fading.m < math.inf:
            v *= sample_nakagami(fading.m, rng, v.shape)
        p = p_last[live, None] + np.cumsum(v, axis=1)
        tot = p + c1 * g ** ((delta - 1.0) / delta)
        ok = c4 * g ** ((delta - 4.0) / delta) <= tail_eps ** 2 * tot ** 4
        hit = ok.any(axis=1)
        depth[live[hit]] = k + ok[hit].argmax(axis=1) + 1
        g_last[live] = g[:, -1]
        p_last[live] = p[:, -1]
        live = live[~hit]
        k += block
    return float(depth.mean())


def conditional_ccdf_bias(delta, fading, n, ts, rng, depth=400, block=50,
                          tail_eps=1e-4):
    """Paired bias of P(SF > t | the points so far) for n nba rows stopped
    at the first point where kappa_4 <= tail_eps^2 total^4, against the
    same rows after `depth` points, both with the engine's gamma tail.
    SF > t when the tail is below S/t - P, S the signal and P the power
    so far, so each is a gammainc value; the tail is clamped at 0.
    Returns the mean differences over rows and their standard errors."""
    c1, e1 = _cumulant(1, delta, 1.0)
    c4, e4 = _cumulant(4, delta, fading.moment(4))
    g_last = np.zeros(n)
    p_last = np.zeros(n)
    stop_p = np.empty(n)
    stop_r = np.empty(n)
    live = np.ones(n, dtype=bool)
    for k in range(0, depth, block):
        g = g_last[:, None] + np.cumsum(
            rng.standard_exponential((n, block)), axis=1)
        if k == 0:
            g1 = g[:, 0].copy()
        r = g / g1[:, None]
        v = r ** (-1.0 / delta)
        if fading.m < math.inf:
            v *= sample_nakagami(fading.m, rng, v.shape)
        if k == 0:
            s = v[:, 0].copy()
        p = p_last[:, None] + np.cumsum(v, axis=1)
        rows = np.flatnonzero(live)
        tot = p[rows] + c1 * g1[rows, None] * r[rows] ** e1
        ok = c4 * g1[rows, None] * r[rows] ** e4 <= tail_eps ** 2 * tot ** 4
        hit = ok.any(axis=1)
        rows, j = rows[hit], ok[hit].argmax(axis=1)
        stop_p[rows] = p[rows, j]
        stop_r[rows] = r[rows, j]
        live[rows] = False
        g_last = g[:, -1]
        p_last = p[:, -1]
    assert not live.any()
    r_ref = g_last / g1

    def ccdf(t, power, rr):
        rp = rr ** (-1.0 / delta)
        shape, scale, shift = _gamma_tail(delta, fading, g1, rr, rp, rr * rp)
        x = s / t - power
        return np.where(x > 0.0, sp.gammainc(
            shape, np.maximum(x - shift, 0.0) / scale), 0.0)

    d = np.array([ccdf(t, stop_p, stop_r) - ccdf(t, p_last, r_ref)
                  for t in ts])
    return d.mean(axis=1), d.std(axis=1) / math.sqrt(n)


class TestTailCorrection:
    def test_points_per_realization_capped(self, pool_of):
        # the fourth-cumulant stop needs ~28 points per realization here
        # at tail_eps = 1e-4; the third-cumulant stop of a Gaussian tail
        # needed ~105, and stopping on the tail's standard deviation ~4k
        cfg = SimConfig(params=NetworkParams.from_delta(2.0 / 3.0),
                        fading=FadingModel.nakagami(1.0),
                        assoc=AssociationRule.nba(), samples=20_000, seed=45,
                        tail_eps=1e-4)
        pool_of(2)
        a = sample_sf(cfg, workers=1)
        b = sample_sf(cfg)
        assert len(_worker_pids()) == 1
        assert 14.0 <= a.points_per_realization <= 56.0
        assert a.points_per_realization == b.points_per_realization

    @pytest.mark.parametrize("delta, fading", [
        (2.0 / 3.0, FadingModel.nakagami(1.0)),
        (0.5, FadingModel.none())])
    def test_truncation_is_tight(self, delta, fading):
        # a row may only stop at a chunk boundary; chunks of half the
        # points so far keep the mean depth near the per-point one
        # (1.22x and 1.29x here, where a first chunk of 8 gave 1.25x and
        # 1.53x, and a first chunk of 32 with upper-quartile chunks 1.7x
        # and 2.1x on the third-cumulant stop); at tail_eps = 1e-3 the
        # 5-point first chunk alone takes the no-fading cell to 1.47x
        n = 16384
        cfg = SimConfig(params=NetworkParams.from_delta(delta), fading=fading,
                        assoc=AssociationRule.nba(), samples=n, seed=49,
                        tail_eps=1e-4)
        ppr = sample_sf(cfg, workers=1).points_per_realization
        ref = per_point_stop_depth(delta, fading, n, cfg.tail_eps,
                                   np.random.default_rng(49))
        assert ppr <= 1.4 * ref

    def test_rounds_grow_with_log_depth(self):
        # each chunk is half the points so far, so a deep row takes
        # about log_1.5(depth / 5) rounds; 5-point chunks would take
        # depth / 5, about 100 here
        cfg = SimConfig(params=NetworkParams.from_delta(0.9),
                        fading=FadingModel.none(),
                        assoc=AssociationRule.nba(), samples=1,
                        tail_eps=1e-7)
        _, flagged, points, rounds, _ = _sim_shard(cfg, 1, _rng_for(50, 0))
        assert flagged == 0 and points > 100
        assert rounds <= 3 + math.log(points / 5) / math.log(1.5)

    @pytest.mark.parametrize("fading, assoc, most", [
        (FadingModel.nakagami(1.0), AssociationRule.nba(), 0.5),
        (FadingModel.none(), AssociationRule.rba(), 0.6)])
    def test_default_depth_against_1e4(self, fading, assoc, most):
        # the default tail_eps (1e-3) takes 0.45x the points of 1e-4 at
        # delta = 2/3 with Rayleigh fading, and about 0.51x under rba
        base = dict(params=NetworkParams.from_delta(2.0 / 3.0), fading=fading,
                    assoc=assoc, samples=16384, seed=53)
        ppr = [sample_sf(SimConfig(**base, tail_eps=eps),
                         workers=1).points_per_realization
               for eps in (SimConfig.tail_eps, 1e-4)]
        assert ppr[0] <= most * ppr[1]

    def test_large_total_does_not_overflow(self):
        # at delta = 0.03 about 1 in 1000 rows has a first value above
        # 1e103, whose cube overflows a double
        cfg = SimConfig(params=NetworkParams.from_delta(0.03),
                        fading=FadingModel.none(), assoc=AssociationRule.nba(),
                        samples=20_000, seed=47)
        with np.errstate(over="raise"):
            x = sample_sf(cfg, workers=1).dist.samples
        assert x[-1] <= 1.0

    def test_small_delta_mean_inverse_sf(self):
        # at delta = 0.01 the first value G_1^(-100) of about 1 row in
        # 1,200 overflows a double unless rows are generated relative to
        # their first arrival
        p = NetworkParams.from_delta(0.01)
        cfg = SimConfig(params=p, fading=FadingModel.none(),
                        assoc=AssociationRule.nba(), samples=20_000, seed=48)
        with np.errstate(over="raise"):
            inv = 1.0 / sample_sf(cfg, workers=1).dist.samples
        se = float(inv.std()) / math.sqrt(inv.size)
        assert abs(float(inv.mean()) - sg.misf(p)) < 3.0 * se

    @pytest.mark.parametrize("fading, assoc", [
        (FadingModel.nakagami(0.5), AssociationRule.nba()),
        (FadingModel.none(), AssociationRule.rba()),
        (FadingModel.none(), AssociationRule.kth_strongest(2))])
    def test_clamped_tail_keeps_support(self, fading, assoc):
        # at delta = 0.1 nearly every row stops after the first 5 points;
        # without fading the gamma tail's shift is negative and the drawn
        # tail is clamped at zero in ~12% of rows, while with
        # Nakagami-1/2 fading the shift is positive and nothing is
        # clamped; every SF must stay in [0, 1] and SF_2 <= 1/2
        cfg = SimConfig(params=NetworkParams.from_delta(0.1), fading=fading,
                        assoc=assoc, samples=20_000, seed=46)
        res = sample_sf(cfg)
        x = res.dist.samples
        assert x[0] >= 0.0 and x[-1] <= 1.0 / (assoc.k or 1)
        assert (res.tail_clamped > 0) is (fading.m == math.inf)

    def test_tail_clamped_worker_independent(self, pool_of):
        cfg = SimConfig(params=NetworkParams.from_delta(0.1),
                        fading=FadingModel.none(), assoc=AssociationRule.nba(),
                        samples=40_000, seed=50)
        pool_of(2)
        a = sample_sf(cfg, workers=1).tail_clamped
        assert a > 0
        assert sample_sf(cfg).tail_clamped == a
        assert len(_worker_pids()) == 1

    @pytest.mark.parametrize("delta, fading", [
        (2.0 / 3.0, FadingModel.nakagami(1.0)),
        (0.4, FadingModel.none()),          # negative shift
        (0.5, FadingModel.nakagami(0.5))])
    def test_gamma_tail_matches_cumulants(self, delta, fading):
        # shift + scale * Z at a fixed (G_1, r), unclamped, against the
        # tail's kappa_1..3 = c_n G_1 r^e_n; 5 standard errors
        g1, r, n = 0.5, 2.0, 10**6
        rp = np.array([r ** (-1.0 / delta)])
        shape, scale, shift = (float(a[0]) for a in _gamma_tail(
            delta, fading, np.array([g1]), np.array([r]), rp, r * rp))
        x = shift + scale * _rng_for(52, 0).standard_gamma(shape, n)
        d = x - x.mean()
        var = np.mean(d * d)
        # each estimate, and the terms whose spread gives its error
        estimates = {1: (x.mean(), x), 2: (var, d * d),
                     3: (np.mean(d ** 3), d ** 3 - 3.0 * var * d)}
        for order, (got, terms) in estimates.items():
            c, e = _cumulant(order, delta, fading.moment(order))
            se = terms.std() / math.sqrt(n)
            assert abs(got - c * g1 * r ** e) < 5.0 * se

    @pytest.mark.parametrize("delta, fading", [
        (2.0 / 3.0, FadingModel.nakagami(1.0)),
        (0.7, FadingModel.none()),
        (0.5, FadingModel.nakagami(0.5))])
    def test_conditional_ccdf_unbiased(self, delta, fading):
        # the rows stopped on kappa_4 at the engine's default tail_eps
        # against the same rows 400 points deep, paired, within 4
        # standard errors (~3e-4 each) at every t
        eps = SimConfig(params=NetworkParams.from_delta(delta), fading=fading,
                        assoc=AssociationRule.nba(), samples=1).tail_eps
        diff, se = conditional_ccdf_bias(delta, fading, 20_000,
                                         (0.1, 0.3, 0.5, 0.7, 0.9),
                                         np.random.default_rng(71),
                                         tail_eps=eps)
        assert np.all(np.abs(diff) <= 4.0 * se)


class TestEmpirical:
    def test_ccdf_and_moment(self):
        dist = EmpiricalDistribution(samples=np.array([0.25, 0.75]))
        assert empirical_ccdf(dist, 0.5) == 0.5
        assert empirical_ccdf(dist, 0.75) == 0.0
        assert empirical_moment(dist, 1) == 0.5

    def test_count_is_the_sample_size(self):
        # the samples are the only field: no count to disagree with them
        dist = EmpiricalDistribution(samples=np.array([0.2, 0.5]))
        assert [f.name for f in dataclasses.fields(dist)] == ["samples"]
        assert not hasattr(dist, "count")
        with pytest.raises(TypeError):
            EmpiricalDistribution(samples=np.array([0.5]), count=7)

    def test_validation(self):
        with pytest.raises(ValueError):
            EmpiricalDistribution(samples=np.array([]))
        with pytest.raises(ValueError):
            EmpiricalDistribution(samples=np.array([0.5, 0.2]))
        with pytest.raises(ValueError):
            EmpiricalDistribution(samples=np.array([0.2, 1.5]))
        # every comparison with NaN is False, so order and range checks
        # alone would let it through
        with pytest.raises(ValueError):
            EmpiricalDistribution(samples=np.array([0.1, math.nan, 0.5]))
        # a sample set is one row of numbers, not a scalar or a matrix
        with pytest.raises(ValueError, match="1-D"):
            EmpiricalDistribution(samples=0.5)
        with pytest.raises(ValueError, match="1-D"):
            EmpiricalDistribution(samples=[[0.2, 0.5]])

    def test_ks_of_uniforms(self):
        rng = _rng_for(51, 0)
        n = 100_000
        u = np.sort(rng.random(n))
        dist = EmpiricalDistribution(samples=u)
        assert ks_distance(dist, lambda t: t) < KS99 / math.sqrt(n)

    def test_ks_exactness_small_case(self):
        dist = EmpiricalDistribution(samples=np.array([0.5]))
        assert ks_distance(dist, lambda t: t) == 0.5

    def test_ks_rejects_non_vectorized_cdf(self):
        dist = EmpiricalDistribution(samples=np.array([0.2, 0.5]))
        with pytest.raises(ValueError):
            ks_distance(dist, lambda t: 0.5)


class TestConjectureReport:
    def test_report_structure(self):
        rep = conjecture_report(20_000, seed=61)
        assert list(rep) == ["samples", "seed", "alpha", "fading_m",
                             "moments", "ks_distance", "flagged",
                             "points_per_realization", "chunk_rounds",
                             "tail_clamped", "tail_eps"]
        assert [m["k"] for m in rep["moments"]] == list(range(1, 11))
        assert rep["moments"][0]["arcsine"] == 0.5
        assert rep["moments"][1]["arcsine"] == 0.375
        assert rep["flagged"] == 0
        # ~12 points per realization at the default tail_eps (~21.5 at
        # 1e-4); the third-cumulant stop needed ~50
        assert 11.0 <= rep["points_per_realization"] <= 44.0
        assert 0.0 < rep["ks_distance"] < 0.05

    def test_moments_consistent_at_moderate_n(self):
        rep = conjecture_report(200_000, seed=62)
        # ~4.4 sigma envelope at this sample size for every moment order
        assert max(m["rel_diff"] for m in rep["moments"]) < 2e-2
        assert rep["ks_distance"] < KS99 / math.sqrt(200_000) * 1.5
