"""Seeded workloads of the xnadhm benchmark.

A workload is run as a sequence of rounds.  Round ``k`` draws its inputs
from ``(seed, k)`` alone, runs the library on them, checks every output it
computed and returns a ``Round``: samples attempted, samples failed, and one
outcome record per sample (verdicts, tallies, residuals) that a traced replay
of the same round must reproduce exactly.

Every library call of a round goes through ``run.sample`` (one sample) or
``run.block`` (a campaign, many samples), so that the runner can time it and
trace it; ``DIRECT`` just calls.

A sample fails when a verdict is wrong, a residual exceeds its threshold or
the library raises.  Thresholds are the acceptance suite's
(``tests/test_acceptance.py``) and each campaign's own ``ok``.

Library functions are always looked up as module attributes at call time,
so the per-layer tracer sees every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from xnadhm import campaigns, linalg, monad, quiver, sampling, serialize, xn
from xnadhm.linalg import RATIONAL, Matrix

#: relative roundtrip residual threshold (criterion 01)
ROUNDTRIP_TOL = 1e-9

#: the prime of the bundled fixtures and of the generated oracle samples
ORACLE_P = 5

#: monad-transition residual threshold (criterion 10, and the campaign's)
MONAD_TOL = 1e-9

#: cocycle samples and monad samples per (n, c) cell in one transitions
#: round, sized so that the two take about half of the round each
COCYCLE_SAMPLES = 8
MONAD_CELLS = [(n, c) for n in (1, 2, 3) for c in (2, 3)]
MONAD_PER_CELL = 8
MONAD_SAMPLES = len(MONAD_CELLS) * MONAD_PER_CELL


@dataclass
class Round:
    attempted: int = 0
    failed: int = 0
    outcomes: list = field(default_factory=list)

    def add(self, ok, outcome, samples=1, failed=None):
        self.attempted += samples
        self.failed += (0 if ok else samples) if failed is None else failed
        self.outcomes.append(outcome)


def run_one(rnd, run, fn, *args):
    """Run one sample through ``run.sample`` and record it; an exception is
    a failed sample."""
    try:
        ok, outcome = run.sample(fn, *args)
    except Exception as exc:
        ok, outcome = False, ("raised", type(exc).__name__, str(exc))
    rnd.add(ok, outcome)


class Direct:
    """Runs a sample or a campaign as a plain call."""

    def sample(self, fn, *args):
        return fn(*args)

    block = sample


DIRECT = Direct()


def round_rng(seed, k):
    return np.random.default_rng([seed, k])


# ---------------------------------------------------------------------------
# roundtrip: chart dictionary and the three conditions, complex backend
# ---------------------------------------------------------------------------

def _valid_sample(rng, n, c):
    cd = sampling.random_chart_data(rng, c)
    d = xn.zeta_inverse(cd, n)
    back = xn.zeta(d, cd.m)
    s = linalg.scale_of(cd.B, cd.E, cd.A2m)
    r = max(linalg.residual(back.B, cd.B), linalg.residual(back.E, cd.E),
            linalg.residual(back.e, cd.e),
            linalg.residual(back.A2m, cd.A2m)) / s
    verdicts = (xn.check_P1(d), xn.check_P2(d), xn.check_P3_direct(d),
                xn.check_P3_via_chart(d))
    return r <= ROUNDTRIP_TOL and all(verdicts), ("valid", n, c, r, verdicts)


def _violator_sample(rng, kind, n, c):
    """Valid data with co-stability broken; (P1) and (P2) still hold."""
    make = {"e0": sampling.random_xn_e_zero,
            "kernel": sampling.random_xn_kernel_violator}[kind]
    d = make(rng, n, c)
    verdicts = (xn.check_P1(d), xn.check_P2(d), xn.check_P3_direct(d),
                xn.check_P3_via_chart(d))
    return verdicts == (True, True, False, False), (kind, n, c, verdicts)


class Roundtrip:
    """Every (n, c) cell of n = 1..5 x c = 2..6 gets two valid samples and
    one violator per round, so a third of the samples are violators.

    c = 1 is left out: there ``sampling.random_costable_triple`` accepts a
    1x1 basis of any size (its condition number is 1), and with a tiny one
    its frame loop can run for minutes.  ``test_benchmark.py`` keeps that
    case as an expected failure.
    """

    name = "roundtrip"

    def __init__(self, seed):
        self.seed = seed

    def round(self, k, run=DIRECT):
        rng = round_rng(self.seed, k)
        rnd = Round()
        for n in range(1, 6):
            for c in range(2, 7):
                for _ in range(2):
                    run_one(rnd, run, _valid_sample, rng, n, c)
                kind = "e0" if (n + c) % 2 else "kernel"
                run_one(rnd, run, _violator_sample, rng, kind, n, c)
        return rnd


# ---------------------------------------------------------------------------
# transitions: chart cocycle and the monad picture of transitions
# ---------------------------------------------------------------------------

def _monad_sample(rng, n, c):
    """One ``monad-transition`` campaign sample: normalizing the chart-l
    re-expansion of the chart-m monad must give the chart transition, with
    trivial third gauge component."""
    d = sampling.random_costable_triple(rng, c)
    m, l = sampling.random_overlap_charts(rng, d.b1, c)
    expected = xn.transition_phi(d, n, m, l)
    normalized, gauge = monad.gauge_normalize(
        monad.reexpand_chart(monad.build_jm(d, n, m), l), l)
    s = linalg.scale_of(expected.b1, expected.b2, expected.e)
    r = max(linalg.residual(normalized.b1, expected.b1),
            linalg.residual(normalized.b2, expected.b2),
            linalg.residual(normalized.e, expected.e)) / s
    chi = linalg.residual(gauge.chi, Matrix.identity(c))
    return (r <= MONAD_TOL and chi <= MONAD_TOL,
            ("monad", n, c, m, l, r, chi))


class Transitions:
    """The ``cocycle`` campaign at one campaign seed, then the
    ``monad-transition`` chain on every (n, c) cell of n = 1..3 x c = 2..3.

    The chain runs here rather than through its campaign because the
    campaign also draws c = 1 (see ``Roundtrip``).  A campaign passes when
    its report is ``ok``.
    """

    name = "transitions"

    def __init__(self, seed):
        self.seed = seed

    def round(self, k, run=DIRECT):
        campaign_seed = int(np.random.SeedSequence(
            [self.seed, k]).generate_state(1)[0])
        rnd = Round()
        try:
            report = run.block(campaigns.run_campaign, "cocycle",
                               COCYCLE_SAMPLES, campaign_seed, None, 1)
        except Exception as exc:
            rnd.add(False, ("cocycle", "raised", type(exc).__name__,
                            str(exc)), COCYCLE_SAMPLES)
        else:
            tallies = report["tallies"]
            # a sample fails when any of its identities fails, so the worst
            # tally bounds the failed samples from below
            failed = max(t["fail"] for t in tallies.values())
            if not report["ok"]:
                failed = max(failed, 1)
            rnd.add(report["ok"], ("cocycle", repr(sorted(tallies.items())),
                                   report["max_residual"], report["ok"]),
                    COCYCLE_SAMPLES, failed)
        rng = round_rng(self.seed, k)
        for n, c in MONAD_CELLS:
            for _ in range(MONAD_PER_CELL):
                run_one(rnd, run, _monad_sample, rng, n, c)
        return rnd


# ---------------------------------------------------------------------------
# oracle: exact backends, prime-field enumeration against the spectral test
# ---------------------------------------------------------------------------

def _oracle_sample(name, build, p, expected):
    r = build()
    enumerated = quiver.brute_force_semistable(r.cast(linalg.GF(p)))
    spectral = quiver.check_semistable_spectral(r).to_bool()
    return enumerated == spectral == expected, (name, enumerated, spectral)


def _distinct_points(rng, c, p):
    """c integer plane points that stay pairwise distinct modulo p.

    The z-coordinates are pairwise distinct too, so the pencil has simple
    roots: on rational data the spectral (P3) test takes a double pencil
    root from np.roots on the determinant form, about 1e-8 off, and misses
    it, which turns e = 0 violators semistable.  ``test_benchmark.py``
    keeps that case as an expected failure.
    """
    while True:
        pts = [(int(rng.integers(-4, 5)), int(rng.integers(-4, 5)))
               for _ in range(c)]
        if (len({z for z, _ in pts}) == c
                and len({(z % p, w % p) for z, w in pts}) == c):
            return pts


def _points_rep(n, m, pts, frame):
    d = xn.from_xn_points(n, m, pts, RATIONAL)
    if not frame:
        d = xn.XnADHM(d.n, d.c, d.A1, d.A2, d.C,
                      Matrix.zeros(1, d.c, RATIONAL))
    return quiver.embed_xn_as_rep(d)


def _unit_upper(rng, c):
    return Matrix.from_rows(
        [[1 if i == j else int(rng.integers(-2, 3)) if j > i else 0
          for j in range(c)] for i in range(c)], RATIONAL)


def _framed_spec(rng, c):
    a = int(rng.integers(-4, 5))
    b = a + int(rng.integers(1, ORACLE_P))     # b != a modulo p
    return a, b, _unit_upper(rng, c), _unit_upper(rng, c)


def _framed_rep(n, c, spec):
    """Integer form of ``sampling.random_framed_rep``: relations hold, the
    pencil is regular and f1 = (b - a) e_(c-1) is nonzero modulo p, so the
    representation is unstable.  The base change is unimodular."""
    a, b, phi1, phi2 = spec
    J = Matrix.from_rows([[1 if j == i + 1 else 0 for j in range(c)]
                          for i in range(c)], RATIONAL)
    Cs = [Matrix.diagonal([a] * (c - 1) + [b], RATIONAL)]
    fs = [Matrix.col_vector([0] * (c - 2) + [b - a, 0], RATIONAL)]
    for _ in range(n - 1):
        Cs.append(J @ Cs[-1])
    for _ in range(n - 2):
        fs.append(J @ fs[-1])
    e = Matrix.row_vector([0] * (c - 1) + [1], RATIONAL)
    inv1, inv2 = linalg.inverse(phi1), linalg.inverse(phi2)
    return quiver.FramedRep(
        n, c, c, 1, phi2 @ J @ inv1, phi2 @ inv1,
        tuple(phi1 @ C @ inv2 for C in Cs), e @ inv1,
        tuple(phi1 @ f for f in fs))


class Oracle:
    """The 12 frozen GF(5) fixtures, then per round seeded integer point
    configurations at c = 2..3, n = 1..3 (semistable), their e = 0
    violators, and integer framed representations at c = 2..3, n = 2..3
    (both unstable)."""

    name = "oracle"

    def __init__(self, seed):
        self.seed = seed
        self.fixtures = campaigns.load_bruteforce_fixtures()["fixtures"]

    def round(self, k, run=DIRECT):
        rng = round_rng(self.seed, k)
        rnd = Round()
        for fx in self.fixtures:
            run_one(rnd, run, _oracle_sample, fx["name"],
                    partial(serialize.rep_from_json, fx["rep"]), fx["p"],
                    fx["expected"])
        for c in (2, 3):
            for n in (1, 2, 3):
                # odd c also has the right-angle chart with integer constants
                m = (c + 1) // 2 if c % 2 and n % 2 == 0 else 0
                pts = _distinct_points(rng, c, ORACLE_P)
                for frame in (True, False):
                    run_one(rnd, run, _oracle_sample,
                            ("points" if frame else "e0", n, c, m, pts),
                            partial(_points_rep, n, m, pts, frame), ORACLE_P,
                            frame)
            for n in (2, 3):
                spec = _framed_spec(rng, c)
                run_one(rnd, run, _oracle_sample, ("framed", n, c, spec[:2]),
                        partial(_framed_rep, n, c, spec), ORACLE_P, False)
        return rnd


WORKLOADS = {w.name: w for w in (Roundtrip, Transitions, Oracle)}
