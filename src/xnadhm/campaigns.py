"""Named verification campaigns behind the CLI.

A suite is a row of ``SUITES``: the names of the verdicts it tallies, the
report keys of the counts it adds up, and a module-level sample function
``sample((index, seed_sequence), samples, tol)``.  The sample function
draws everything from its own ``SeedSequence`` (and, for ``lmp3`` and
``bruteforce``, the kind of sample from its index) and returns

    ({tally name: verdict}, worst residual, {count key: {name: count}}).

``run_campaign`` is the one reduction: it spawns one ``SeedSequence`` per
sample from the campaign seed, runs the sample function on each, counts
pass/fail per tally, takes the largest residual and sums the counts.  Only
max/sum reductions are used, so the order in which samples run cannot
change the report, and ``replay_sample`` reruns sample ``i`` of a report
alone as ``sample((i, _sample_seeds(seed, samples)[i]), samples, tol)``.  A
run that tallies no verdict is not ``ok``, and a sample tallies only the
verdicts it tested.  A generated sample that raises an ``XnAdhmError``
fails every tally of its suite, and the report then lists it under
``"errors"`` as {"index", "error", "message"} (the key is absent when no
sample raised); the fixtures are not guarded and still raise.
"""

from __future__ import annotations

import time
from functools import partial
from importlib import resources
from typing import Callable, NamedTuple

import numpy as np

from . import sampling
from .errors import InvalidInput, NotInChart, XnAdhmError
from .linalg import COMPLEX, GF, RATIONAL, Matrix, _tol, residual, scale_of
from .monad import build_jm, gauge_normalize, reexpand_chart
from .quiver import (
    Verdict,
    brute_force_semistable,
    check_semistable_spectral,
    embed_xn_as_rep,
    moment_residual_n2,
    relation_defects,
    u_m_residual,
)
from .serialize import loads, rep_from_json
from .xn import (
    XnADHM,
    _chart_action,
    _gauge_inverse,
    _transition,
    check_P3_direct,
    check_P3_via_chart,
    from_xn_points,
    transition_phi,
    zeta,
)

#: the prime of the generated ``bruteforce`` samples (and of the fixtures)
BRUTEFORCE_P = 5


def _sample_seeds(seed, samples):
    return np.random.SeedSequence(seed).spawn(samples)


# ``jobs`` stays in both signatures only for callers that pass it: the
# benchmark harness's positional 1 and its tracer hook on _run_samples
def _run_samples(fn, seeds, jobs):
    return [fn(s) for s in seeds]


def run_campaign(suite, samples=100, seed=0, tol=None, jobs=1) -> dict:
    if jobs != 1:
        raise ValueError("campaigns run serially: jobs must be 1")
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    start = time.perf_counter()
    spec = SUITES[suite]
    errors = []

    def guarded(item):
        try:
            return spec.sample(item, samples, tol)
        except XnAdhmError as exc:
            errors.append({"index": item[0], "error": type(exc).__name__,
                           "message": str(exc)})
            return {name: False for name in spec.tallies}, 0.0, {}

    outcomes = spec.fixtures() if spec.fixtures else []
    outcomes += _run_samples(guarded,
                             list(enumerate(_sample_seeds(seed, samples))),
                             jobs)
    tallies = {name: {"pass": 0, "fail": 0} for name in spec.tallies}
    counts = {key: {"tested": 0, "skipped": 0} for key in spec.counts}
    worst = 0.0
    for verdicts, r, sample_counts in outcomes:
        for name, ok in verdicts.items():
            tallies[name]["pass" if ok else "fail"] += 1
        worst = max(worst, r)
        for key, kinds in sample_counts.items():
            for kind, count in kinds.items():
                counts[key][kind] += count
    tested = sum(t["pass"] + t["fail"] for t in tallies.values())
    ok = tested > 0 and all(t["fail"] == 0 for t in tallies.values())
    report = {"suite": suite, "seed": seed, "samples": samples,
              "tallies": tallies, "max_residual": worst, **counts}
    if errors:
        report["errors"] = errors
    return {**report,
            "elapsed_seconds": round(time.perf_counter() - start, 3),
            "ok": ok}


def replay_sample(suite, index, samples=100, seed=0, tol=None):
    """The outcome (verdicts, worst residual, counts) of generated sample
    ``index`` of ``run_campaign(suite, samples, seed, tol)``, run alone.
    Raises ``IndexError`` unless 0 <= index < samples."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    if not 0 <= index < samples:
        raise IndexError(f"sample index {index} outside 0..{samples - 1}")
    item = (index, _sample_seeds(seed, samples)[index])
    return SUITES[suite].sample(item, samples, tol)


# ---------------------------------------------------------------------------
# sample functions: (index, SeedSequence), samples, tol -> outcome
# ---------------------------------------------------------------------------

def _cocycle(item, samples, tol):
    # triples are only compared when every leg clears a singular-value
    # margin on the overlap pivot; closer to the divisor the identity is
    # not testable at the campaign tolerance in floats
    margin = 0.05
    t = _tol(tol)
    rng = np.random.default_rng(item[1])
    c = int(rng.integers(2, 5))
    n = int(rng.integers(1, 5))
    cd = sampling.random_chart_data(rng, c)
    d = cd.plane()
    worst = 0.0
    # a verdict is tallied only when some leg tested it
    verdicts = {}
    m = cd.m
    # the direct legs m -> k, one stack over all c+1 charts; a leg is kept
    # when its overlap pivot clears the margin
    keep, *direct = _transition(
        *(np.repeat(M.entries[None], c + 1, axis=0)
          for M in (cd.B, cd.E, cd.A2m)),
        n, [k - m for k in range(c + 1)], c, COMPLEX, tol, floor=margin)
    charts = np.flatnonzero(keep).tolist()
    legs = len(charts)
    tested = 0
    if charts:
        # (b1, b2, A2m) of the kept direct legs and each leg's scale: b1
        # and b2 from one public transition_phi call per leg, the phi
        # cocycle's reference (equal to the stacked legs bit for bit), A2m
        # from the stack.  The chain legs l -> k over (l, k) in charts^2
        # are one stack that serves both the phi and the omega cocycle
        ends = _stacks((phi.b1, phi.b2) for phi in
                       [transition_phi(d, n, m, k) for k in charts])
        ends.append(direct[2])
        scale = _leg_scales(ends)
        keep, b1, b2, a2 = _transition(
            *(np.repeat(block, legs, axis=0) for block in ends),
            n, [k - l for l in charts for k in charts], c, COMPLEX, tol,
            floor=margin)
        tested = int(keep.sum())
        # leg (l, k) is compared with the direct leg k, over k's scale
        want = np.tile(np.arange(legs), legs)[keep]
        r = _leg_residuals(zip((block[want] for block in ends),
                               (b1, b2, a2))) / scale[want]
        if r.size:
            worst = max(worst, float(r.max()))
            verdicts["phi_cocycle"] = not (r > 10 * t).any()
    # equivariance of the chart transition under both gauge factors: the
    # moved legs m -> l are one stack, compared with the gauge action on
    # the stacked direct legs; the gauge is tested and g1 inverted once for
    # both
    g1 = sampling.random_invertible(rng, c)
    g2 = sampling.random_invertible(rng, c)
    if charts:
        # the gauge is a random draw, not a verdict on the sample, so its
        # invertibility is tested at the default tolerance whatever tol is
        act = partial(_chart_action, g1.entries, g2.entries,
                      _gauge_inverse(g1, g2), backend=COMPLEX)
        moved = act(cd.B.entries, cd.E.entries, cd.e.entries,
                    cd.A2m.entries)
        keep, b1, b2, a2 = _transition(
            *(np.broadcast_to(M, (legs, c, c)) for M in moved[:2] + moved[3:]),
            n, [l - m for l in charts], c, COMPLEX, tol, floor=margin)
        if keep.any():
            B, E, A2m = (block[keep] for block in direct)
            ends = act(B, E, np.repeat(cd.e.entries[None], len(B), axis=0),
                       A2m)
            scale = _leg_scales(ends[:2] + ends[3:])
            r = _leg_residuals(zip(ends, (b1, b2, moved[2], a2))) / scale
            worst = max(worst, float(r.max()))
            verdicts["omega_equivariance"] = not (r > t).any()
    pairs = {"tested": tested, "skipped": (c + 1) ** 2 - tested}
    return verdicts, worst, {"pairs": pairs}


def _stacks(rows):
    """One entry stack per column of rows of Matrices, one row per leg."""
    return [np.stack([M.entries for M in column]) for column in zip(*rows)]


def _leg_scales(blocks):
    """max(1, largest max-norm) per leg over stacks of blocks:
    ``linalg.scale_of`` leg by leg."""
    return np.maximum(1.0, np.max([np.abs(M).max(axis=(1, 2))
                                   for M in blocks], axis=0))


def _leg_residuals(pairs):
    """Largest max-norm difference per leg over (stack, stack) pairs of
    blocks: ``linalg.residual`` leg by leg."""
    return np.max([np.abs(a - b).max(axis=(1, 2)) for a, b in pairs], axis=0)


def _lmp3(item, samples, tol):
    """Valid data first, then e = 0 and kernel violators, a quarter each."""
    i, ss = item
    violators = samples // 4
    rng = np.random.default_rng(ss)
    c = int(rng.integers(1, 5))
    n = int(rng.integers(1, 4))
    if i < samples - 2 * violators:
        d = sampling.random_xn(rng, n, c)
    elif i < samples - violators:
        d = sampling.random_xn_e_zero(rng, n, c)
    else:
        d = sampling.random_xn_kernel_violator(rng, n, max(c, 2))
    ok = check_P3_direct(d, tol) == check_P3_via_chart(d, tol)
    return {"verdict_agreement": ok}, 0.0, {}


def _moment(item, samples, tol):
    rng = np.random.default_rng(item[1])
    c = int(rng.integers(1, 5))
    r = sampling.random_free_rep(rng, 2, c)
    mres = moment_residual_n2(r)
    d1, d2 = relation_defects(r)
    s = scale_of(r.A1, r.A2, *r.C, r.e, *r.f) ** 2
    gap = max(residual(mres.mu1, -d1), residual(mres.mu0, d2)) / s
    # relation-satisfying representations sit on the zero level, measured
    # over their own scale, not the free sample's
    rr = sampling.random_rep(rng, 2, c)
    gap = max(gap, moment_residual_n2(rr).norm()
              / scale_of(rr.A1, rr.A2, *rr.C, rr.e, *rr.f) ** 2)
    # 1e-12 at the default tolerance
    return {"moment_equals_defect": gap <= _tol(tol) / 1000}, gap, {}


def _um(item, samples, tol):
    """A relation-satisfying representation with zero framing, which must be
    SEMISTABLE, and one with nonzero framing and a regular pencil, which must
    be UNSTABLE.  On the second, every chart whose A2m is invertible at tol
    (``charts``) must satisfy [B_m, E_m] = u_m e, the identity that forces
    u_m = 0 on semistable data."""
    rng = np.random.default_rng(item[1])
    c = int(rng.integers(1, 5))
    n = int(rng.integers(2, 5))
    r = sampling.random_rep(rng, n, c)
    framed = sampling.random_rep(rng, n, c, framed=True)
    df = XnADHM(framed.n, framed.v0, framed.A1, framed.A2, framed.C, framed.e)
    worst = 0.0
    tested = 0
    for m in range(c + 1):
        try:
            cd = zeta(df, m, tol)
        except NotInChart:
            continue
        tested += 1
        commutator = cd.B @ cd.E - cd.E @ cd.B
        worst = max(worst, residual(commutator,
                                    u_m_residual(framed, m, tol) @ df.e)
                    / scale_of(cd.B, cd.E) ** 2)
    try:
        verdicts = (check_semistable_spectral(r, tol) is Verdict.SEMISTABLE
                    and check_semistable_spectral(framed, tol)
                    is Verdict.UNSTABLE)
    except InvalidInput:
        # the float relations (Q1) fail at a tolerance below their rounding
        verdicts = False
    ok = verdicts and worst <= _tol(tol)
    return ({"um_vanishing": ok}, worst,
            {"charts": {"tested": tested, "skipped": c + 1 - tested}})


def load_bruteforce_fixtures():
    text = resources.files("xnadhm.data").joinpath(
        "bruteforce_f5.json").read_text()
    return loads(text)


def _bruteforce_fixtures():
    """The frozen fixtures, at the default tolerance: the enumerated and
    spectral verdicts must both give the recorded one."""
    outcomes = []
    for fx in load_bruteforce_fixtures()["fixtures"]:
        r = rep_from_json(fx["rep"])
        enumerated = brute_force_semistable(r.cast(GF(fx["p"])))
        spectral = check_semistable_spectral(r).to_bool()
        ok = enumerated == spectral == fx["expected"]
        outcomes.append(({"fixture_agreement": ok}, 0.0, {}))
    return outcomes


def _bruteforce(item, samples, tol):
    """An integer point configuration at c = 2..4, n = 1..3: even-numbered
    samples keep the unit frame (semistable), odd-numbered ones zero it
    (unstable)."""
    i, ss = item
    framed = i % 2 == 0
    rng = np.random.default_rng(ss)
    c = int(rng.integers(2, 5))
    n = int(rng.integers(1, 4))
    pts = sampling.integer_points(rng, c, BRUTEFORCE_P)
    d = from_xn_points(n, 0, pts, RATIONAL)
    if not framed:
        d = XnADHM(d.n, d.c, d.A1, d.A2, d.C, Matrix.zeros(1, c, RATIONAL))
    r = embed_xn_as_rep(d)
    enumerated = brute_force_semistable(r.cast(GF(BRUTEFORCE_P)))
    spectral = check_semistable_spectral(r, tol).to_bool()
    return {"generated_agreement": enumerated == spectral == framed}, 0.0, {}


def _monad_transition(item, samples, tol):
    t = _tol(tol)
    rng = np.random.default_rng(item[1])
    c = int(rng.integers(1, 4))
    n = int(rng.integers(1, 4))
    d = sampling.random_costable_triple(rng, c)
    m, l = sampling.random_overlap_charts(rng, d.b1, c)
    expected = transition_phi(d, n, m, l)
    mc = build_jm(d, n, m)
    normalized, gauge = gauge_normalize(reexpand_chart(mc, l), l, tol)
    s = scale_of(expected.b1, expected.b2, expected.e)
    r = max(residual(normalized.b1, expected.b1),
            residual(normalized.b2, expected.b2),
            residual(normalized.e, expected.e)) / s
    chi_ok = residual(gauge.chi, Matrix.identity(c)) <= t
    return {"normalize_vs_transition": r <= t and chi_ok}, r, {}


class Suite(NamedTuple):
    tallies: tuple
    sample: Callable
    counts: tuple = ()
    #: outcomes that run before the samples, independent of seed and tol
    fixtures: Callable | None = None


SUITES = {
    "cocycle": Suite(("phi_cocycle", "omega_equivariance"), _cocycle,
                     counts=("pairs",)),
    "lmp3": Suite(("verdict_agreement",), _lmp3),
    "moment": Suite(("moment_equals_defect",), _moment),
    "um": Suite(("um_vanishing",), _um, counts=("charts",)),
    "bruteforce": Suite(("fixture_agreement", "generated_agreement"),
                        _bruteforce, fixtures=_bruteforce_fixtures),
    "monad-transition": Suite(("normalize_vs_transition",), _monad_transition),
}
