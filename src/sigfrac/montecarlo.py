"""Monte Carlo engine for signal fractions in Poisson downlink networks.

The path loss process is sampled exactly in one dimension: the delta-th
powers of the ordered path loss values are unit-rate Poisson arrival
times, so no spatial window is involved.  Conditioned on the current
arrival time G = xi_K^delta, the not-yet-generated tail of the received
power sum h_k/xi_k has, by Campbell's formula over the unit-rate
remainder, the cumulants

    kappa_n = E[h^n] delta/(n-delta) * G^((delta-n)/delta),

so kappa_1 is its mean and kappa_2 its variance.  Each realization is
generated relative to its first arrival G_1, which scales every value
and cumulant by a power of G_1 that signal fractions do not see, so
nothing overflows however small delta is.  When a realization finishes,
the tail is replaced by a translated gamma with the same first three
cumulants: scale kappa_3/(2 kappa_2), shape 4 kappa_2^3/kappa_3^2 and
shift kappa_1 - 2 kappa_2^2/kappa_3 (the translated-gamma approximation
to a compound Poisson sum, Seal 1977, which refines the Gaussian
approximation of small jumps, Asmussen & Rosinski 2001).  The draw is
clamped at zero so the total never falls below the generated power; the
shift is negative without fading for delta up to about 0.58, and
SimResult.tail_clamped counts the clamped rows.  What the gamma leaves
unmatched starts at the fourth cumulant, so generation stops once
kappa_4 <= tail_eps^2 * total^4.  The default tail_eps is set by a
measured contract, not by a bound: at 1.6e7 samples the ccdf may differ
from each exact law by at most 4.5 standard errors at every t of its
grid.  1e-3 meets it for every rule, taking about 12 points per
realization at delta = 2/3 with Rayleigh fading (28 at 1e-4).
The per-realization fluctuation the tail contributes is drawn, not
bounded by tail_eps.

Every association rule runs on the same batched chunk generator; only
nba draws fading gains, since by the mapping theorem the signal
fractions ordered by strength have their no-fading law under any
fading.  Random association keeps a value-weighted reservoir of one
candidate per realization across the chunks and, when it finishes,
replaces it by a size-biased draw from the not-yet-generated tail with
the tail's share of the total power; such a draw comes with its own
independent copy of the rest of the tail (Mecke's formula).

Realizations are grouped into fixed-size shards; each shard draws from
its own SFC64 substream, seeded by a SeedSequence keyed by (seed, shard
index), so results are bit-identical for any worker count or scheduling
order.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import threading
from dataclasses import dataclass, fields

import numpy as np

from .rayleigh import NetworkParams

_SHARD = 16384        # realizations per RNG substream; part of the output contract
_CHUNK_MIN = 5
_CHUNK_ELEMS = 4_000_000
_KTH_VALUES = 1 << 23   # k * rows of a kth:k shard's first chunk: 64 MiB


class SimulationError(RuntimeError):
    """Too many realizations hit the point budget before convergence."""


@dataclass(frozen=True)
class FadingModel:
    """Unit-mean Nakagami-m power fading, m in (0, inf]: m = 1 is Rayleigh,
    m = 1/2 half-normal-squared, and m = inf, the limit, no fading."""

    m: float

    def __post_init__(self):
        if not self.m > 0.0:   # written so that NaN fails too
            raise ValueError(f"nakagami parameter m must be > 0, got {self.m}")

    @classmethod
    def none(cls) -> "FadingModel":
        return cls(m=math.inf)

    @classmethod
    def nakagami(cls, m: float) -> "FadingModel":
        return cls(m=float(m))

    def moment(self, n: int) -> float:
        """E[h^n] = prod_{i<n} (1 + i/m), which is 1 without fading."""
        return math.prod(1.0 + i / self.m for i in range(n))


@dataclass(frozen=True)
class AssociationRule:
    """Which base station serves the user: nearest (nba), random with
    probabilities SF_k (rba), or the k-th strongest (kth_strongest; the
    strongest, isba, is kth_strongest(1)); only nba sees the fading."""

    kind: str
    k: int | None = None

    def __post_init__(self):
        if self.kind not in ("nba", "rba", "kth"):
            raise ValueError(f"unknown association kind {self.kind!r}")
        if self.kind == "kth":
            if self.k is None or self.k < 1:
                raise ValueError(f"kth association needs k >= 1, got {self.k}")
        elif self.k is not None:
            raise ValueError(f"association {self.kind!r} takes no index")

    @classmethod
    def nba(cls) -> "AssociationRule":
        return cls(kind="nba")

    @classmethod
    def isba(cls) -> "AssociationRule":
        return cls.kth_strongest(1)

    @classmethod
    def rba(cls) -> "AssociationRule":
        return cls(kind="rba")

    @classmethod
    def kth_strongest(cls, k: int) -> "AssociationRule":
        return cls(kind="kth", k=int(k))


@dataclass(frozen=True)
class SimConfig:
    params: NetworkParams
    fading: FadingModel
    assoc: AssociationRule
    samples: int
    point_budget: int = 1_000_000
    tail_eps: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if self.point_budget < 10:
            raise ValueError(f"point_budget must be >= 10, got {self.point_budget}")
        if not 0.0 < self.tail_eps < 1.0:
            raise ValueError(f"tail_eps must be in (0, 1), got {self.tail_eps}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        k, rows = self.assoc.k, min(self.samples, _SHARD)
        if k and k > self.point_budget:
            raise ValueError(f"point budget {self.point_budget} too small for "
                             f"the {k} ordered points")
        if k and k * rows > _KTH_VALUES:
            raise ValueError(
                f"kth:{k} on {rows} realizations a shard holds {k * rows} "
                f"values, more than {_KTH_VALUES}; use "
                f"k <= {_KTH_VALUES // rows}")


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Sorted sample set on [0, 1], queried through empirical_ccdf,
    empirical_moment and ks_distance."""

    samples: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", x)
        if x.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {x.shape}")
        if x.size == 0:
            raise ValueError("empirical distribution needs at least one sample")
        if not np.all(np.isfinite(x)):
            raise ValueError("samples must be finite")
        if x[0] < 0.0 or x[-1] > 1.0 or not np.all(x[:-1] <= x[1:]):
            raise ValueError("samples must be sorted and lie in [0, 1]")


@dataclass(frozen=True)
class SimResult:
    """Sorted samples, the count of realizations that hit the point
    budget, the mean number of points generated per realization, the
    number of chunk rounds summed over shards and the count of
    realizations whose first drawn tail was clamped at zero (all
    seed-determined, independent of the worker count)."""

    dist: EmpiricalDistribution
    flagged: int
    points_per_realization: float
    chunk_rounds: int
    tail_clamped: int

    def counters(self) -> dict:
        """The engine counters, every field after dist, in field order."""
        return {f.name: getattr(self, f.name) for f in fields(self)[1:]}


def empirical_ccdf(dist: EmpiricalDistribution, t):
    """Fraction of samples strictly above t; vectorized over t."""
    n = dist.samples.size
    pos = np.searchsorted(dist.samples, t, side="right")
    out = (n - pos) / n
    return float(out) if np.isscalar(t) else out


def empirical_moment(dist: EmpiricalDistribution, k: int) -> float:
    if k < 1:
        raise ValueError(f"moment order must be >= 1, got {k}")
    return float(np.mean(dist.samples ** k))


def ks_distance(dist: EmpiricalDistribution, cdf_fn) -> float:
    """Exact sup over the sample points of |F_emp - F|; cdf_fn must map
    the sample array to an array of the same shape."""
    x = dist.samples
    f = np.asarray(cdf_fn(x), dtype=float)
    if f.shape != x.shape:
        raise ValueError(
            f"cdf_fn returned shape {f.shape} for samples of shape {x.shape}")
    n = x.size
    hi = np.arange(1, n + 1, dtype=float)
    hi /= n
    hi -= f
    lo = np.arange(0, n, dtype=float)
    lo /= n
    np.subtract(f, lo, out=lo)
    return float(max(np.max(hi), np.max(lo)))


def _rng_for(seed: int, shard: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(shard,))
    return np.random.Generator(np.random.SFC64(ss))


def _pow_neg(x, expo, out=None):
    # x ** expo for expo < 0; at -2 (alpha = 4) a multiply and a
    # reciprocal beat np.power, which takes every other exponent
    if expo == -2.0:
        r = np.multiply(x, x, out=out)
        return np.reciprocal(r, out=r)
    return np.power(x, expo, out=out)


def sample_nakagami(m: float, rng: np.random.Generator, size=None, out=None):
    """Unit-mean Nakagami-m power gain: gamma with shape m, scale 1/m,
    drawn into out if given.

    m = 1 is the unit exponential (Rayleigh power); m = 1/2 is the
    square of a standard normal.
    """
    if not 0.0 < m < math.inf:
        raise ValueError(f"m must be finite and > 0, got {m}")
    if m == 0.5:
        z = rng.standard_normal(size, out=out)
        return np.multiply(z, z, out=out)
    if m == 1.0:
        return rng.standard_exponential(size, out=out)
    return np.divide(rng.standard_gamma(m, size, out=out), m, out=out)


def _cumulant(n: int, delta: float, hn: float):
    """(c, e) with kappa_n = c * G**e for the tail beyond arrival time G;
    hn is the n-th moment of the fading gain."""
    return hn * delta / (n - delta), (delta - n) / delta


def _gamma_tail(delta: float, fading: FadingModel, g1, r, rp, re1):
    """(shape, scale, shift) of the translated gamma that stands in for
    the tail beyond arrival G = G_1 r, in G_1-relative units, given
    rp = r^(-1/delta) and re1 = r * rp = r^e_1.

    shift + scale * Z, with Z standard gamma of this shape, has the
    tail's kappa_1, kappa_2 and kappa_3, each c_n G_1 r^e_n (Seal 1977).
    The forms below are kappa_3/(2 kappa_2), 4 kappa_2^3/kappa_3^2 and
    kappa_1 - 2 kappa_2^2/kappa_3 with the powers of G_1 and r
    cancelled; as ratios of the kappa_n they would underflow to 0/0."""
    c1, _ = _cumulant(1, delta, fading.moment(1))
    c2, _ = _cumulant(2, delta, fading.moment(2))
    c3, _ = _cumulant(3, delta, fading.moment(3))
    return (4.0 * c2 ** 3 / c3 ** 2 * g1 * r, c3 / (2.0 * c2) * rp,
            (c1 - 2.0 * c2 ** 2 / c3) * g1 * re1)


@functools.cache
def _keep_freed_heap():
    """On glibc, keep up to 64 MB of freed heap in this process and hand
    each array of 32 MB or more back to the OS when it is freed, so that
    a shard reuses the memory the shard before it freed instead of
    faulting fresh pages in; on any other libc do nothing, which loses
    only that saving.  Both thresholds are set: setting either turns
    glibc's sliding mmap threshold off, and the trim threshold alone
    would leave that at 128 KB, where a shard's per-row arrays would be
    mapped and unmapped again."""
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        glibc = None
    if glibc:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)   # M_TRIM_THRESHOLD


def _sim_shard(config: SimConfig, n: int, rng: np.random.Generator,
               keep: int | None = None):
    """Simulate n realizations; returns (values, flagged_count, points,
    rounds, clamped_count).

    values has shape (n, keep), keep being k unless given: for
    kth_strongest(k), the weakest keep of the k strongest no-fading
    signal fractions of each realization, strongest first; for nba and
    rba (k = 1), the served station's signal fraction.  points is
    the number of path loss values generated and rounds the number of
    chunk rounds; clamped_count is the number of rows whose first drawn
    tail fell below zero (an rba tail pick's proposals are not counted).

    Values are relative to the row's first arrival G_1: with r = G/G_1
    they are r^(-1/delta) times the fading gain, and the tail cumulants
    become c_n G_1 r^e_n.  A round's one non-integer power is the chunk's:
    rp = r^(-1/delta) at its last arrival, taken before the gain, gives
    r^e_1 = r rp and r^e_4 = r (rp^2)^2.  G_1, the last arrival and the
    power are held for the live rows only, compacted as rows finish,
    whose totals go to their columns.

    A row stops once the tail's fourth cumulant is at most
    tail_eps^2 * total^4, with total = power so far + tail mean, and its
    total becomes power + max(shift + scale * Z, 0) with a standard gamma
    Z of the tail's shape; once every row has finished, the block is
    divided by the totals.
    A row whose power and drawn tail are both 0 (every fading gain
    underflowed float64) has no signal fraction and raises ValueError.
    The first chunk has max(5, k) points, and the last keep of its first
    k values fill the row (for rba, the reservoir and the tail pick then
    rewrite it); each later one has half the points generated so far,
    at least 5, capped by _CHUNK_ELEMS draws and the point budget, so a
    row of depth D takes about log_1.5(D/5) rounds and stops less than
    1.5 times as deep as where the rule first holds, or 5 points past it.

    Random association is a size-1 weighted reservoir over the chunks
    (Efraimidis & Spirakis 2006): a chunk of weight W takes over a row's
    candidate with probability W / (power so far + W), so the first
    chunk always does, and the index inside the chunk is drawn
    value-weighted.  When a row finishes, the pick falls in the
    not-yet-generated tail with probability tail / total, tail being
    the drawn tail power.  The tail is a Poisson process of intensity
    m(v) = d v^(-1-d) on (0, v_K), so by Mecke's formula (Last & Penrose
    2017, Thm 4.1) a tail pick v and the rest T' of the tail have density
    proportional to v m(v) p(T') / (power + v + T'), p being the density
    of the tail itself.  The row proposes v with cdf (v/v_K)^(1-d), by
    inversion, and a fresh clamped tail T', keeps them with probability
    (power + l) / (power + v + T'), l = max(shift, 0), or proposes again,
    and takes value v and total power + v + T'.
    One uniform u per decision, as in a single u * total walk over all
    values: a chunk takes over when u * power < W, and u * power,
    uniform on [0, W) given that, is the position in the chunk's cumsum;
    a finishing row picks from the tail when u * total > power.

    Draw order per chunk: the exponentials, the fading gains, then one
    uniform per active row (rba).  At finish: one standard gamma per
    finishing row, then (rba) one uniform per finishing row and, per
    round of tail-pick proposals, a uniform for v, a standard gamma and
    a uniform for acceptance per proposing row.  A chunk is laid out as
    (points, rows): the exponentials and the gains are each drawn as one
    (chunk, live rows) block into a buffer that the call reuses and
    grows, a realization is a column, and a running sum along it is one
    vector op per point.  The values are held as (k, n) and returned
    transposed.

    The first call in a process sets its allocator policy
    (_keep_freed_heap): on glibc, later shards work in the heap memory
    that earlier ones freed, up to 64 MB of it.
    """
    _keep_freed_heap()
    delta = config.params.delta
    pw = -1.0 / delta
    # iid gains only rescale the power process (mapping theorem), so the
    # strength-ordered fractions do not see them: only nba draws gains
    fading = (config.fading if config.assoc.kind == "nba"
              else FadingModel.none())
    gains = fading.m < math.inf
    c1, _ = _cumulant(1, delta, 1.0)
    c4, _ = _cumulant(4, delta, fading.moment(4))
    eps2 = config.tail_eps ** 2
    budget = config.point_budget
    rba = config.assoc.kind == "rba"
    k = config.assoc.k or 1
    keep = keep or k

    idx = np.arange(n)      # the live rows' columns of out
    glast = np.zeros(n)
    power = np.zeros(n)
    total = np.empty(n)
    out = np.empty((keep, n))
    buf = np.empty(0)
    flagged = clamped = npts = points = rounds = 0
    chunk = max(_CHUNK_MIN, k)   # SimConfig holds k within the budget
    while idx.size:
        na = idx.size
        if rounds:   # a shard's at most _SHARD rows leave the cap >= 244
            chunk = min(max(_CHUNK_MIN, npts // 2), _CHUNK_ELEMS // na,
                        budget - npts)
        m = chunk * na
        size = 2 * m if gains else m   # the exponentials, then the gains
        if buf.size < size:
            buf = np.empty(size)
        e = rng.standard_exponential(out=buf[:m].reshape(chunk, na))
        e[0] += glast
        if rounds == 0:
            g1 = e[0].copy()
        for i in range(1, chunk):   # the arrivals G, as np.cumsum adds them
            e[i] += e[i - 1]
        glast = e[-1].copy()
        e *= 1.0 / g1
        r = e[-1].copy()
        v = _pow_neg(e, pw, out=e)
        rp = v[-1].copy()
        if gains:
            v *= sample_nakagami(fading.m, rng,
                                 out=buf[m:2 * m].reshape(chunk, na))
        w = np.add.reduce(v, axis=0)
        power += w
        if rounds == 0:
            out[:] = v[k - keep:k]
        if rba:
            u = rng.random(na) * power
            # the first partial sum >= u; they never decrease, so that is
            # the count of the first chunk - 1 that fall below u
            cs = np.zeros(na)
            j = np.zeros(na, dtype=np.intp)
            for i in range(chunk - 1):
                cs += v[i]
                j += cs < u
            sw = np.flatnonzero(u < w)
            out[0, idx[sw]] = v[j[sw], sw]
        npts += chunk
        points += m
        rounds += 1

        re1 = r * rp
        tot = power + c1 * g1 * re1
        # kappa_4 / tot^4 as c4 g1 r (rp / tot)^4, since tot^4 would
        # underflow for a tiny total; a ratio past the largest double
        # means "far from done", and 0/0 (no power and no tail mean left)
        # satisfies kappa_4 <= tail_eps^2 tot^4 as 0 <= 0
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            q = rp / tot
            live = c4 * g1 * r * (q * q) ** 2 > eps2
        if npts >= budget:
            flagged += np.count_nonzero(live)
            live[:] = False
        fin = np.flatnonzero(~live)
        if fin.size:
            shape, scale, shift = _gamma_tail(delta, fading, g1[fin], r[fin],
                                              rp[fin], re1[fin])
            tail = shift + scale * rng.standard_gamma(shape)
            neg = tail < 0.0
            clamped += np.count_nonzero(neg)
            tail[neg] = 0.0
            totf = power[fin] + tail
            if not totf.all():
                raise ValueError(
                    "a realization's received power underflows float64: every "
                    "fading gain generated and the drawn tail are 0, so its "
                    "signal fraction is undefined; use a larger delta or "
                    "Nakagami m")
            if rba:
                pf = power[fin]
                todo = np.flatnonzero(rng.random(fin.size) * totf > pf)
                least = pf + np.maximum(shift, 0.0)
                while todo.size:   # least >= the first value, 1, so it ends
                    v = rp[fin[todo]] * rng.random(todo.size) ** (
                        1.0 / (1.0 - delta))
                    t = scale[todo] * rng.standard_gamma(shape[todo])
                    s = pf[todo] + v + np.maximum(shift[todo] + t, 0.0)
                    ok = rng.random(todo.size) * s < least[todo]
                    out[0, idx[fin[todo[ok]]]] = v[ok]
                    totf[todo[ok]] = s[ok]
                    todo = todo[~ok]
            total[idx[fin]] = totf
            rows = np.flatnonzero(live)
            idx, g1, glast, power = idx[rows], g1[rows], glast[rows], power[rows]
    out /= total
    return out.T, int(flagged), points, rounds, int(clamped)


def sample_plp(params: NetworkParams, point_budget: int, tail_eps: float,
               rng: np.random.Generator):
    """One realization of the ordered path loss values xi_1 < xi_2 < ...

    xi_k = (E_1 + ... + E_k)^(1/delta) with iid unit exponentials E_j,
    generated to the depth at which _sim_shard stops a no-fading nba row
    with this point_budget and tail_eps.  Returns (values,
    truncated_flag).

    Such a row draws only its exponentials, chunk by chunk, and then one
    standard gamma, so the values are the engine's arrivals drawn again
    from the saved generator state; rng ends just past those
    exponentials.
    """
    config = SimConfig(params=params, fading=FadingModel.none(),
                       assoc=AssociationRule.nba(), samples=1,
                       point_budget=point_budget, tail_eps=tail_eps)
    state = rng.bit_generator.state
    _, flagged, points, _, _ = _sim_shard(config, 1, rng)
    rng.bit_generator.state = state
    g = np.cumsum(rng.standard_exponential(points))
    return g ** (1.0 / params.delta), flagged > 0


def _run_shard(args):
    config, shard_idx, count, keep = args
    return _sim_shard(config, count, _rng_for(config.seed, shard_idx), keep)


def worker_count() -> int:
    """Most worker processes in the pool: SIGFRAC_THREADS, else the CPUs
    this process may use.  Never affects results, only speed; a count of
    1 runs every shard in-process."""
    env = os.environ.get("SIGFRAC_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(
                f"SIGFRAC_THREADS must be an integer, got {env!r}") from None
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# The one worker pool of this process and its size.  The lock covers
# every use of the pool, so a concurrent call can neither replace nor
# shut it down under a running map.
_pool = None   # a concurrent.futures.ProcessPoolExecutor once started
_pool_size = 0
_pool_lock = threading.RLock()


def _forget_pool():
    # a forked child holds a copy of its parent's pool, whose workers
    # and manager thread are not its own, and maybe a held lock
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.RLock()


os.register_at_fork(after_in_child=_forget_pool)


def _close_pool():
    """Join the pool's workers and manager thread, and forget the pool."""
    global _pool
    with _pool_lock:
        if _pool is not None:
            _pool.shutdown(wait=True)
            _pool = None


def _map_shards(shards, w: int):
    """Run the shards on the process's pool, in order, growing it to w
    workers if it has fewer, and once more on a fresh pool if a worker
    has died since the last call or dies in it; a second death raises."""
    # imported here, so that a process that never runs a pool loads none
    # of multiprocessing
    from concurrent import futures
    from concurrent.futures.process import BrokenProcessPool
    from multiprocessing import util as mp_util

    global _pool, _pool_size
    with _pool_lock:
        if _pool is not None and w > _pool_size:
            # the old workers and manager thread end before any new fork
            _close_pool()
        for rerun in (False, True):
            if _pool is None:
                _pool = futures.ProcessPoolExecutor(max_workers=w)
                _pool_size = w
                # a multiprocessing child joins its children before
                # concurrent.futures' exit hook would stop them, so it
                # needs this earlier hook to exit at all, and before the
                # queues' own hooks (priority 10) stop their feeders
                mp_util.Finalize(None, _close_pool, exitpriority=15)
            # contiguous batches of shards // workers: the pool queues
            # only one call more than it has workers, so with a call per
            # shard a worker can wait for its next shard to be queued
            try:
                return list(_pool.map(_run_shard, shards,
                                      chunksize=max(1, len(shards) // w)))
            except BrokenProcessPool:
                _close_pool()
                if rerun:
                    raise


def _run_all(config: SimConfig, workers: int | None, keep: int):
    shards = [(config, i, min(_SHARD, config.samples - start), keep)
              for i, start in enumerate(range(0, config.samples, _SHARD))]
    # worker_count() first, so a bad SIGFRAC_THREADS fails every call
    w = min(worker_count(), len(shards))
    if w == 1 or workers == 1:
        results = [_run_shard(s) for s in shards]
    else:
        results = _map_shards(shards, w)
    # map keeps shard order, whichever worker ran a shard
    vals, flagged, points, rounds, clamped = zip(*results)
    flagged = sum(flagged)
    if flagged > 0.001 * config.samples:
        raise SimulationError(
            f"{flagged} of {config.samples} realizations hit the point "
            f"budget {config.point_budget} before the tail criterion")
    return (np.concatenate(vals), flagged, sum(points) / config.samples,
            sum(rounds), sum(clamped))


def sample_sf(config: SimConfig, workers: int | None = None) -> SimResult:
    """Sample `config.samples` independent signal fractions.

    nba serves the nearest base station, the one rule whose law depends on
    the fading; the others draw no gains.  kth_strongest(k) returns the k-th
    largest signal fraction; rba picks station k with probability SF_k, by a
    weighted reservoir over the generated chunks and a size-biased pick from
    the truncated tail with the tail's share of the power.  Identical
    configs (including seed) give bit-identical output for any worker count.

    workers is not a count: workers=1 runs the shards in this process,
    as does a run of one shard or a worker_count() of 1; any other
    value, 0 and negative ones included, is ignored and the shards run
    on the process's pool.  The pool starts with one worker per shard,
    up to worker_count(), is replaced by a larger one only when a later
    call has more shards, and lives until the process exits.  A call
    hands the pool its shards in contiguous batches of shards // workers
    (at least 1), so 4 shards on 2 workers go as one batch of 2 to each,
    and 3 shards, which the pool queues all at once, go one at a time.
    A worker that dies fails no call: the shards run once more on a
    fresh pool, and only a second death in the same call raises
    BrokenProcessPool.  On glibc, every process that runs shards, the
    workers and this one, keeps up to 64 MB of the heap its shards free
    for its later shards, and returns an array of 32 MB or more to the
    OS when it is freed.
    """
    vals, flagged, points, rounds, clamped = _run_all(config, workers, 1)
    k = config.assoc.k or 1
    x = vals[:, 0]   # the one column of a fresh block: sorted in place
    x.sort()
    if k > 1 and x[-1] > 1.0 / k:
        raise AssertionError(f"SF_{k} sample exceeds its support bound 1/{k}")
    return SimResult(dist=EmpiricalDistribution(samples=x), flagged=flagged,
                     points_per_realization=points, chunk_rounds=rounds,
                     tail_clamped=clamped)


def sample_sf_topk(config: SimConfig, workers: int | None = None):
    """The k largest signal fractions per realization for a
    kth_strongest(k) config under any fading, as a (samples, k) array in
    realization order, plus the flagged count.  Rows are joint draws:
    column j is SF_{j+1} of the same network.  Any other association is
    a ValueError; workers is as for sample_sf."""
    if config.assoc.kind != "kth":
        raise ValueError("top-k signal fractions need a kth_strongest(k) "
                         f"association, got {config.assoc.kind!r}")
    vals, flagged, _, _, _ = _run_all(config, workers, config.assoc.k)
    return vals, flagged


def arcsine_moment(k: int) -> float:
    """k-th moment of the arcsine law: C(2k, k) / 4^k."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return math.comb(2 * k, k) / 4.0 ** k


def arcsine_cdf(t):
    return 2.0 / math.pi * np.arcsin(np.sqrt(t))


def conjecture_report(samples: int, seed: int,
                      point_budget: int = SimConfig.point_budget,
                      tail_eps: float = SimConfig.tail_eps,
                      workers: int | None = None) -> dict:
    """Simulate NBA with Nakagami-1/2 fading at alpha = 4 and compare
    against the arcsine distribution (cdf 2 arcsin(sqrt t) / pi), at
    tail_eps.

    Returns the body of the CLI's conjecture document: the run's size
    and seed, the first ten empirical and arcsine moments with their
    relative differences, the KS sup-distance, the engine counters and
    the tail_eps the run used.
    workers is as for sample_sf."""
    config = SimConfig(params=NetworkParams.from_alpha(4.0),
                       fading=FadingModel.nakagami(0.5),
                       assoc=AssociationRule.nba(),
                       samples=samples, point_budget=point_budget,
                       tail_eps=tail_eps, seed=seed)
    res = sample_sf(config, workers)
    x = res.dist.samples
    moments = []
    acc = x.copy()
    for k in range(1, 11):
        if k > 1:
            acc *= x
        e = float(acc.mean())
        a = arcsine_moment(k)
        moments.append({"k": k, "empirical": e, "arcsine": a,
                        "rel_diff": abs(e - a) / a})
    return {
        "samples": samples,
        "seed": seed,
        "alpha": config.params.alpha,
        "fading_m": config.fading.m,
        "moments": moments,
        "ks_distance": ks_distance(res.dist, arcsine_cdf),
        **res.counters(),
        "tail_eps": config.tail_eps,
    }
