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
change the report, and sample ``i`` of a report is replayed by
``sample((i, _sample_seeds(seed, samples)[i]), samples, tol)``.  A run that
tallies no verdict is not ``ok``.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from importlib import resources
from typing import Callable, NamedTuple

import numpy as np

from . import sampling
from .errors import InvalidInput, NotInChart, NotInOverlap
from .linalg import GF, RATIONAL, Matrix, _tol, is_invertible, residual, scale_of
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
    _rotate,
    check_P3_direct,
    check_P3_via_chart,
    from_xn_points,
    gl2_action_chart,
    transition_omega,
    transition_phi,
    zeta,
)

#: the prime of the generated ``bruteforce`` samples (and of the fixtures)
BRUTEFORCE_P = 5


def _sample_seeds(seed, samples):
    return np.random.SeedSequence(seed).spawn(samples)


def _run_samples(fn, seeds, jobs):
    if jobs <= 1:
        return [fn(s) for s in seeds]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, seeds))


def run_campaign(suite, samples=100, seed=0, tol=None, jobs=1) -> dict:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    start = time.perf_counter()
    spec = SUITES[suite]
    outcomes = spec.fixtures() if spec.fixtures else []
    outcomes += _run_samples(partial(spec.sample, samples=samples, tol=tol),
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
    return {"suite": suite, "seed": seed, "samples": samples,
            "tallies": tallies, "max_residual": worst, **counts,
            "elapsed_seconds": round(time.perf_counter() - start, 3),
            "ok": ok}


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
    phi_ok = omega_ok = True
    m = cd.m
    # the direct legs m -> k depend on the chart k alone; d.b1 is cd.B, so
    # the equivariance loop reuses these margins
    margins = [sampling.overlap_margin(d.b1, c, m, k) for k in range(c + 1)]
    direct = {}
    for k in range(c + 1):
        if margins[k] < margin:
            continue
        try:
            direct[k] = (transition_phi(d, n, m, k),
                         transition_omega(cd, n, k))
        except NotInOverlap:
            continue
    tested = 0
    for l, (dl, cdl) in direct.items():
        for k, (dk_direct, cdk_direct) in direct.items():
            try:
                if sampling.overlap_margin(dl.b1, c, l, k) < margin:
                    continue
                dk_chain = transition_phi(dl, n, l, k)
                cdk_chain = transition_omega(cdl, n, k)
            except NotInOverlap:
                continue
            tested += 1
            s = scale_of(dk_direct.b1, dk_direct.b2, cdk_direct.A2m)
            r = max(residual(dk_direct.b1, dk_chain.b1),
                    residual(dk_direct.b2, dk_chain.b2),
                    residual(dk_direct.e, dk_chain.e)) / s
            r = max(r, residual(cdk_direct.B, cdk_chain.B) / s,
                    residual(cdk_direct.E, cdk_chain.E) / s,
                    residual(cdk_direct.A2m, cdk_chain.A2m) / s)
            worst = max(worst, r)
            if r > 10 * t:
                phi_ok = False
    # equivariance of the chart transition under both gauge factors
    g1 = sampling.random_invertible(rng, c)
    g2 = sampling.random_invertible(rng, c)
    moved_cd = gl2_action_chart(g1, g2, cd)
    for l in range(c + 1):
        try:
            if (margins[l] < margin
                    or sampling.overlap_margin(moved_cd.B, c, m, l) < margin):
                continue
            lhs = transition_omega(moved_cd, n, l)
            cdl = direct[l][1] if l in direct else transition_omega(cd, n, l)
            rhs = gl2_action_chart(g1, g2, cdl)
        except NotInOverlap:
            continue
        s = scale_of(rhs.B, rhs.E, rhs.A2m)
        r = max(residual(lhs.B, rhs.B), residual(lhs.E, rhs.E),
                residual(lhs.e, rhs.e), residual(lhs.A2m, rhs.A2m)) / s
        worst = max(worst, r)
        if r > t:
            omega_ok = False
    pairs = {"tested": tested, "skipped": (c + 1) ** 2 - tested}
    return ({"phi_cocycle": phi_ok, "omega_equivariance": omega_ok}, worst,
            {"pairs": pairs})


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
    # relation-satisfying representations sit on the zero level
    rr = sampling.random_rep(rng, 2, c)
    gap = max(gap, moment_residual_n2(rr).norm() / s)
    # 1e-12 at the default tolerance
    return {"moment_equals_defect": gap <= _tol(tol) / 1000}, gap, {}


def _um(item, samples, tol):
    """u_m on a relation-satisfying representation with zero framing, which
    must be SEMISTABLE, and on one with nonzero framing and a regular pencil,
    which must be UNSTABLE.  The first has u_m = 0 in every chart it is
    tested in (``charts``); on the second, every chart whose A2m is
    invertible must satisfy [B_m, E_m] = u_m e, the identity that forces
    u_m = 0 on semistable data."""
    rng = np.random.default_rng(item[1])
    c = int(rng.integers(1, 5))
    n = int(rng.integers(2, 5))
    r = sampling.random_rep(rng, n, c)
    worst = 0.0
    tested = 0
    for m in range(c + 1):
        if not is_invertible(_rotate(r.A1, r.A2, m, c)[1], tol):
            continue
        tested += 1
        worst = max(worst, u_m_residual(r, m).maxnorm() / scale_of(*r.f))
    framed = sampling.random_rep(rng, n, c, framed=True)
    df = XnADHM(framed.n, framed.v0, framed.A1, framed.A2, framed.C, framed.e)
    for m in range(c + 1):
        try:
            cd = zeta(df, m)
        except NotInChart:
            continue
        commutator = cd.B @ cd.E - cd.E @ cd.B
        worst = max(worst, residual(commutator, u_m_residual(framed, m) @ df.e)
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
