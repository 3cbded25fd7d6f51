"""Request generators for the three benchmark workloads.

Each workload is an endless stream of cycles; a cycle is a list of
requests, and a run always stops at a cycle boundary so every run
holds the same request mix.  Only this module sees the workload seed:
the program receives the generated argv, including any ``--seed``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Request:
    """One CLI invocation plus what the output check needs to know.

    kind selects the check in checks.py; samples is the number of Monte
    Carlo realizations asked for (0 for analytic commands, whose output
    rows are counted instead).
    """

    argv: tuple
    kind: str
    delta: float
    samples: int = 0


def _analytic_batch(rng: np.random.Generator) -> list:
    # a fresh alpha per batch, so no memo of earlier results can help
    alpha = 5.0 - 2.8 * rng.random()          # (2.2, 5]
    a = repr(alpha)
    d = 2.0 / alpha
    ex = ("--alpha", a)
    return [
        Request(("exact", *ex, "--grid", "0:1:101"), "exact-sf", d),
        Request(("exact", *ex, "--var", "SIR", "--unit", "dB",
                 "--grid", "-20:20:81"), "exact-sir-db", d),
        Request(("approx", *ex, "--method", "best"), "approx-best", d),
        Request(("approx", *ex, "--method", "gb-fit", "--format", "json"),
                "approx-gb-fit", d),
        Request(("approx", *ex, "--method", "tail:2"), "approx-tail2", d),
        Request(("approx", *ex, "--method", "rational:3"),
                "approx-rational3", d),
        Request(("plp", *ex, "--stat", "rba-curve"), "plp-rba-curve", d),
        Request(("plp", *ex, "--stat", "gn:2"), "plp-gn2", d),
        Request(("plp", *ex, "--stat", "sf1-bound", "--format", "json"),
                "plp-sf1-bound", d),
        Request(("plp", *ex, "--stat", "sstar", "--format", "json"),
                "plp-sstar", d),
    ]


def _simulate(alpha, fading, assoc, samples, seed, kind):
    argv = ("simulate", "--alpha", repr(alpha), "--fading", fading,
            "--assoc", assoc, "--samples", str(samples), "--seed", str(seed),
            "--format", "json")
    return Request(argv, kind, 2.0 / alpha, samples)


def _seed(rng):
    return int(rng.integers(0, 2**31 - 1))


# Slow tail: delta = 2/3 under Rayleigh fading needs ~7.8k points per
# realization, delta = 0.7 without fading ~3.9k, and the Nakagami-1/2
# arcsine comparison at delta = 1/2 is the paper's longest run; point
# generation is over 99% of the time.  Three request types keep the
# median latency inside one type's cluster.
SLOWTAIL_SIM_SAMPLES = 32768
SLOWTAIL_CONJ_SAMPLES = 65536


def _slowtail_cycle(rng):
    return [
        _simulate(3.0, "nakagami:1", "nba", SLOWTAIL_SIM_SAMPLES, _seed(rng),
                  "mc-rayleigh-nba"),
        Request(("conjecture", "--samples", str(SLOWTAIL_CONJ_SAMPLES),
                 "--seed", str(_seed(rng))), "mc-conjecture", 0.5,
                SLOWTAIL_CONJ_SAMPLES),
        _simulate(20.0 / 7.0, "none", "nba", SLOWTAIL_SIM_SAMPLES, _seed(rng),
                  "mc-strongest"),
    ]


# Light tail: delta <= 1/2 needs only a few hundred points per
# realization, so per-chunk overhead, the per-realization rba loop and
# pool start-up weigh heavily.  Every association rule appears once.
LIGHTTAIL_SAMPLES = 65536


def _lighttail_cycle(rng):
    n = LIGHTTAIL_SAMPLES
    return [
        _simulate(4.0, "none", "nba", n, _seed(rng), "mc-strongest"),
        _simulate(5.0, "nakagami:1", "isba", n, _seed(rng), "mc-strongest"),
        _simulate(4.0, "none", "kth:2", n, _seed(rng), "mc-kth2"),
        _simulate(4.0, "none", "rba", n // 2, _seed(rng), "mc-rba"),
    ]


_CYCLES = {"analytic": _analytic_batch,
           "mc-slowtail": _slowtail_cycle,
           "mc-lighttail": _lighttail_cycle}
WORKLOADS = tuple(_CYCLES)
# workloads that start no worker process
SINGLE_PROCESS = ("analytic",)


def cycles(workload: str, seed: int):
    """Endless stream of request cycles for `workload`, fixed by `seed`."""
    make = _CYCLES[workload]
    rng = np.random.default_rng(seed)
    while True:
        yield make(rng)
