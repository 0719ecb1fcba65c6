"""Named verification campaigns behind the CLI.

Each campaign draws its samples from a single seed, runs one family of
identities, and returns a report dict with pass/fail tallies and the largest
residual seen.  Campaigns only use max/sum reductions, so sharding samples
across workers cannot change the verdict.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from importlib import resources

import numpy as np

from . import sampling
from .errors import NotInOverlap
from .linalg import GF, RATIONAL, Matrix, _tol, residual, scale_of
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
    check_P3_direct,
    check_P3_via_chart,
    chart_matrices,
    from_xn_points,
    gl2_action_chart,
    transition_omega,
    transition_phi,
)

SUITES = ("cocycle", "lmp3", "moment", "um", "bruteforce", "monad-transition")

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
    runner = {
        "cocycle": _cocycle,
        "lmp3": _lmp3,
        "moment": _moment,
        "um": _um,
        "bruteforce": _bruteforce,
        "monad-transition": _monad_transition,
    }[suite]
    # a runner may return a dict of report keys to sit beside its tallies
    tallies, max_res, *extra = runner(samples, seed, tol, jobs)
    elapsed = time.perf_counter() - start
    ok = all(v.get("fail", 0) == 0 for v in tallies.values())
    report = {"suite": suite, "seed": seed, "samples": samples,
              "tallies": tallies, "max_residual": max_res}
    report.update(*extra)
    report.update(elapsed_seconds=round(elapsed, 3), ok=ok)
    return report


def _tally():
    return {"pass": 0, "fail": 0}


def _mark(t, ok):
    t["pass" if ok else "fail"] += 1


# ---------------------------------------------------------------------------

def _cocycle(samples, seed, tol, jobs):
    # triples are only compared when every leg clears a singular-value
    # margin on the overlap pivot; closer to the divisor the identity is
    # not testable at the campaign tolerance in floats
    margin = 0.05
    t = _tol(tol)

    def one(ss):
        rng = np.random.default_rng(ss)
        c = int(rng.integers(2, 5))
        n = int(rng.integers(1, 5))
        cd = sampling.random_chart_data(rng, c)
        d = cd.plane()
        worst = 0.0
        phi_ok = omega_ok = True
        m = cd.m
        # the direct legs m -> k depend on the chart k alone
        direct = {}
        for k in range(c + 1):
            if sampling.overlap_margin(d.b1, c, m, k) < margin:
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
                if (sampling.overlap_margin(cd.B, c, m, l) < margin
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
        return phi_ok, omega_ok, worst, tested, (c + 1) ** 2 - tested

    results = _run_samples(one, _sample_seeds(seed, samples), jobs)
    tallies = {"phi_cocycle": _tally(), "omega_equivariance": _tally()}
    pairs = {"tested": 0, "skipped": 0}
    worst = 0.0
    for phi_ok, omega_ok, r, tested, skipped in results:
        _mark(tallies["phi_cocycle"], phi_ok)
        _mark(tallies["omega_equivariance"], omega_ok)
        worst = max(worst, r)
        pairs["tested"] += tested
        pairs["skipped"] += skipped
    return tallies, worst, {"pairs": pairs}


def _lmp3(samples, seed, tol, jobs):
    base = samples // 4
    plan = [("valid", samples - 2 * base), ("e0", base), ("kernel", base)]

    def one(args):
        kind, ss = args
        rng = np.random.default_rng(ss)
        c = int(rng.integers(1, 5))
        n = int(rng.integers(1, 4))
        if kind == "valid":
            d = sampling.random_xn(rng, n, c)
        elif kind == "e0":
            d = sampling.random_xn_e_zero(rng, n, c)
        else:
            d = sampling.random_xn_kernel_violator(rng, n, max(c, 2))
        return check_P3_direct(d, tol) == check_P3_via_chart(d, tol)

    args = []
    seeds = _sample_seeds(seed, samples)
    i = 0
    for kind, count in plan:
        for _ in range(count):
            args.append((kind, seeds[i]))
            i += 1
    results = _run_samples(one, args, jobs)
    tallies = {"verdict_agreement": _tally()}
    for ok in results:
        _mark(tallies["verdict_agreement"], ok)
    return tallies, 0.0


def _moment(samples, seed, tol, jobs):
    def one(ss):
        rng = np.random.default_rng(ss)
        c = int(rng.integers(1, 5))
        r = sampling.random_free_rep(rng, 2, c)
        mres = moment_residual_n2(r)
        d1, d2 = relation_defects(r)
        s = scale_of(r.A1, r.A2, *r.C, r.e, *r.f) ** 2
        gap = max(residual(mres.mu1, -d1), residual(mres.mu0, d2)) / s
        # relation-satisfying representations sit on the zero level
        rr = sampling.random_rep(rng, 2, c)
        zero_gap = moment_residual_n2(rr).norm() / s
        return max(gap, zero_gap)

    results = _run_samples(one, _sample_seeds(seed, samples), jobs)
    tallies = {"moment_equals_defect": _tally()}
    worst = 0.0
    for gap in results:
        _mark(tallies["moment_equals_defect"], gap <= 1e-12)
        worst = max(worst, gap)
    return tallies, worst


def _um(samples, seed, tol, jobs):
    def one(ss):
        rng = np.random.default_rng(ss)
        c = int(rng.integers(1, 5))
        n = int(rng.integers(2, 5))
        r = sampling.random_rep(rng, n, c)
        verdict = check_semistable_spectral(r, tol)
        worst = 0.0
        for m in range(c + 1):
            d = XnADHM(r.n, r.v0, r.A1, r.A2, r.C, r.e)
            _, A2m, _, _ = chart_matrices(d, m)
            from .linalg import is_invertible
            if not is_invertible(A2m, tol):
                continue
            worst = max(worst, u_m_residual(r, m).maxnorm()
                        / scale_of(*r.f))
        framed = sampling.random_rep(rng, n, c, framed=True)
        framed_verdict = check_semistable_spectral(framed, tol)
        ok = (verdict is Verdict.SEMISTABLE
              and framed_verdict is Verdict.UNSTABLE and worst <= 1e-9)
        return ok, worst

    results = _run_samples(one, _sample_seeds(seed, samples), jobs)
    tallies = {"um_vanishing": _tally()}
    worst = 0.0
    for ok, r in results:
        _mark(tallies["um_vanishing"], ok)
        worst = max(worst, r)
    return tallies, worst


def load_bruteforce_fixtures():
    text = resources.files("xnadhm.data").joinpath(
        "bruteforce_f5.json").read_text()
    return loads(text)


def _bruteforce(samples, seed, tol, jobs):
    """The frozen fixtures, then ``samples`` seeded integer point
    configurations at c = 2..4, n = 1..3: even-numbered samples keep the
    unit frame (semistable), odd-numbered ones zero it (unstable)."""
    fixtures = load_bruteforce_fixtures()
    tallies = {"fixture_agreement": _tally()}
    candidates = []
    for fx in fixtures["fixtures"]:
        r = rep_from_json(fx["rep"])
        p = fx["p"]
        enumerated = brute_force_semistable(r.cast(GF(p)))
        spectral = check_semistable_spectral(r).to_bool()
        ok = enumerated == spectral == fx["expected"]
        _mark(tallies["fixture_agreement"], ok)
        # an enumerated-semistable fixture with a nonzero framing block would
        # contradict the expectation that stability forces the framing to
        # vanish; record rather than assert
        if enumerated and any(not f.is_zero() for f in r.f):
            candidates.append(fx["name"])
    if candidates:
        tallies["counterexample_candidates"] = {
            "pass": 0, "fail": 0, "names": candidates}

    def one(args):
        framed, ss = args
        rng = np.random.default_rng(ss)
        c = int(rng.integers(2, 5))
        n = int(rng.integers(1, 4))
        pts = sampling.integer_points(rng, c, BRUTEFORCE_P)
        d = from_xn_points(n, 0, pts, RATIONAL)
        if not framed:
            d = XnADHM(d.n, d.c, d.A1, d.A2, d.C,
                       Matrix.zeros(1, c, RATIONAL))
        r = embed_xn_as_rep(d)
        enumerated = brute_force_semistable(r.cast(GF(BRUTEFORCE_P)))
        spectral = check_semistable_spectral(r, tol).to_bool()
        return enumerated == spectral == framed

    args = [(i % 2 == 0, ss)
            for i, ss in enumerate(_sample_seeds(seed, samples))]
    tallies["generated_agreement"] = _tally()
    for ok in _run_samples(one, args, jobs):
        _mark(tallies["generated_agreement"], ok)
    return tallies, 0.0


def _monad_transition(samples, seed, tol, jobs):
    t = _tol(tol)

    def one(ss):
        rng = np.random.default_rng(ss)
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
        return (r <= t and chi_ok), r

    results = _run_samples(one, _sample_seeds(seed, samples), jobs)
    tallies = {"normalize_vs_transition": _tally()}
    worst = 0.0
    for ok, r in results:
        _mark(tallies["normalize_vs_transition"], ok)
        worst = max(worst, r)
    return tallies, worst
