"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``criterion NN <name>: PASS/FAIL`` line (visible under
``pytest -s`` or in the captured-output section).  Tolerances are pinned in
the assertions; sample counts match the stated campaign sizes.
"""

import numpy as np
import pytest

from xnadhm.campaigns import load_bruteforce_fixtures
from xnadhm.errors import NotInOverlap, NotNormalizable
from xnadhm.linalg import GF, Matrix, hstack, rank, residual, scale_of
from xnadhm.monad import (
    build_jm,
    compose_residual,
    gauge_normalize,
    max_residual,
    reexpand_chart,
)
from xnadhm.pencil import analyze_pencil, check_Q3star
from xnadhm.plane import PlaneADHM, check_T1
from xnadhm.quiver import (
    Verdict,
    brute_force_semistable,
    check_semistable_spectral,
    embed_xn_as_rep,
    moment_residual_n2,
    relation_defects,
    u_m_residual,
)
from xnadhm.sampling import (
    _separated_values,
    random_chart_data,
    random_costable_triple,
    random_free_rep,
    random_invertible,
    random_matrix,
    random_rep,
    random_xn,
    random_xn_e_zero,
    random_xn_kernel_violator,
    rng_from_seed,
)
from xnadhm.serialize import rep_from_json
from xnadhm.xn import (
    XnADHM,
    check_P1,
    check_P2,
    check_P3_direct,
    check_P3_via_chart,
    chart_matrices,
    from_xn_points,
    gl2_action_chart,
    sigma,
    to_xn_points,
    transition_omega,
    transition_phi,
    zeta,
    zeta_inverse,
)
from xnadhm.linalg import angle_constants, is_invertible


def random_points(rng, c):
    """c pairwise distinct complex plane points, both coordinates at least
    0.2 apart."""
    zs = _separated_values(rng, c, 0.2)
    ws = _separated_values(rng, c, 0.2)
    return [(complex(z), complex(w)) for z, w in zip(zs, ws)]


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {name}: {status}" + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num} {name} failed: {detail}"


def test_criterion_01_roundtrip_isomorphism():
    rng = rng_from_seed(101)
    worst = 0.0
    for n in range(1, 6):
        for c in range(1, 7):
            for _ in range(100):
                cd = random_chart_data(rng, c)
                d = zeta_inverse(cd, n)
                back = zeta(d, cd.m)
                s = scale_of(cd.B, cd.E, cd.A2m)
                r = max(residual(back.B, cd.B), residual(back.E, cd.E),
                        residual(back.e, cd.e),
                        residual(back.A2m, cd.A2m)) / s
                worst = max(worst, r)
                assert r <= 1e-9, (n, c, r)
                assert check_P1(d) and check_P2(d) and check_P3_direct(d), (n, c)
    report(1, "roundtrip-isomorphism", worst <= 1e-9,
           f"3000 samples, max residual {worst:.2e}")


def test_criterion_02_transition_cocycle():
    from xnadhm.sampling import overlap_margin

    rng = rng_from_seed(102)
    worst_cocycle = 0.0
    worst_equiv = 0.0
    gauge_pairs_used = 0
    margin = 0.05     # mutual overlap with a numerically testable margin
    for sample in range(100):
        c = int(rng.integers(1, 7))
        n = int(rng.integers(1, 6))
        cd = random_chart_data(rng, c)
        d = cd.plane()
        m = cd.m
        for l in range(c + 1):
            for k in range(c + 1):
                try:
                    if (overlap_margin(d.b1, c, m, l) < margin
                            or overlap_margin(d.b1, c, m, k) < margin):
                        continue
                    pl = transition_phi(d, n, m, l)
                    if overlap_margin(pl.b1, c, l, k) < margin:
                        continue
                    pk = transition_phi(d, n, m, k)
                    chain = transition_phi(pl, n, l, k)
                    ok_dir = transition_omega(cd, n, k)
                    ok_chain = transition_omega(transition_omega(cd, n, l), n, k)
                except NotInOverlap:
                    continue
                s = scale_of(pk.b1, pk.b2, ok_dir.A2m)
                r = max(residual(pk.b1, chain.b1), residual(pk.b2, chain.b2),
                        residual(pk.e, chain.e),
                        residual(ok_dir.B, ok_chain.B),
                        residual(ok_dir.E, ok_chain.E),
                        residual(ok_dir.A2m, ok_chain.A2m)) / s
                worst_cocycle = max(worst_cocycle, r)
        if gauge_pairs_used < 20:
            g1 = random_invertible(rng, c)
            g2 = random_invertible(rng, c)
            moved_cd = gl2_action_chart(g1, g2, cd)
            for l in range(c + 1):
                try:
                    if (overlap_margin(cd.B, c, m, l) < margin
                            or overlap_margin(moved_cd.B, c, m, l) < margin):
                        continue
                    lhs = transition_omega(moved_cd, n, l)
                    rhs = gl2_action_chart(g1, g2, transition_omega(cd, n, l))
                except NotInOverlap:
                    continue
                s = scale_of(rhs.B, rhs.E, rhs.A2m)
                worst_equiv = max(worst_equiv, max(
                    residual(lhs.B, rhs.B), residual(lhs.E, rhs.E),
                    residual(lhs.e, rhs.e), residual(lhs.A2m, rhs.A2m)) / s)
            gauge_pairs_used += 1
    ok = worst_cocycle <= 1e-8 and worst_equiv <= 1e-9
    report(2, "transition-cocycle", ok,
           f"cocycle {worst_cocycle:.2e}, equivariance {worst_equiv:.2e} "
           f"({gauge_pairs_used} gauge pairs)")


def test_criterion_03_p3_equivalence():
    rng = rng_from_seed(103)
    agree = 0
    total = 0
    plan = [("valid", 100), ("e0", 50), ("kernel", 50)]
    for kind, count in plan:
        for _ in range(count):
            c = int(rng.integers(1, 6))
            n = int(rng.integers(1, 5))
            if kind == "valid":
                d = random_xn(rng, n, c)
            elif kind == "e0":
                d = random_xn_e_zero(rng, n, c)
            else:
                d = random_xn_kernel_violator(rng, n, max(c, 2))
            total += 1
            agree += (check_P3_direct(d) == check_P3_via_chart(d))
    report(3, "p3-two-evaluators", agree == total, f"{agree}/{total} agree")


def test_criterion_04_sigma_laws():
    worst = 0.0
    exact_identity = True
    for c in range(1, 7):
        for h in range(0, 5):
            ident = sigma(h, 0, c)
            exact_identity &= (ident == Matrix.identity(h + 1))
            for m in range(-c, c + 1):
                for l in range(-c, c + 1):
                    prod = sigma(h, m, c) @ sigma(h, l, c)
                    target = sigma(h, m + l, c)
                    worst = max(worst, residual(prod, target))
    ok = exact_identity and worst <= 1e-10
    report(4, "sigma-group-law", ok,
           f"identity exact: {exact_identity}, group law {worst:.2e}")


def _staircase_with_index(rng, eps, eps_row, reg):
    rows = eps + (eps_row + 1) + reg
    A1 = np.zeros((rows, rows), complex)
    A2 = np.zeros((rows, rows), complex)
    for i in range(eps):
        A1[i, i] = 1
        A2[i, i + 1] = 1
    ro, co = eps, eps + 1
    for i in range(eps_row):
        A1[ro + i, co + i] = 1
        A2[ro + i + 1, co + i] = 1
    ro, co = ro + eps_row + 1, co + eps_row
    for i in range(reg):
        A1[ro + i, co + i] = 1
        A2[ro + i, co + i] = 2 + rng.standard_normal()
    while True:
        P = rng.standard_normal((rows, rows)) + 1j * rng.standard_normal((rows, rows))
        Q = rng.standard_normal((rows, rows)) + 1j * rng.standard_normal((rows, rows))
        if np.linalg.cond(P) < 100 and np.linalg.cond(Q) < 100:
            break
    return Matrix.from_numpy(P @ A1 @ Q), Matrix.from_numpy(P @ A2 @ Q)


def test_criterion_05_pencil_minimal_indices():
    rng = rng_from_seed(105)
    worst_chain = 0.0
    for trial in range(50):
        eps = int(rng.integers(0, 3))
        eps_row = eps + int(rng.integers(1, 3))
        reg = int(rng.integers(0, 2))
        A1, A2 = _staircase_with_index(rng, eps, eps_row, reg)
        an = analyze_pencil(A1, A2)
        assert not an.regular and an.minimal_index == eps, (trial, eps)
        vs = an.minimal_solution
        worst_chain = max(worst_chain, max(an.chain_residuals))
        span = hstack(*vs)
        assert rank(span) == eps + 1
        assert not check_Q3star(A1, A2, span)
    # probabilistic direction on regular pencils
    c = 4
    R1 = random_matrix(rng, c, c)
    R2 = random_matrix(rng, c, c)
    assert analyze_pencil(R1, R2).regular
    for dim in range(1, c + 1):
        for _ in range(200):
            S0 = random_matrix(rng, c, dim)
            assert check_Q3star(R1, R2, S0)
    report(5, "pencil-minimal-index", worst_chain <= 1e-9,
           f"50 pencils, max chain residual {worst_chain:.2e}")


def test_criterion_06_points_roundtrip():
    rng = rng_from_seed(106)
    worst = 0.0
    for _ in range(50):
        c = int(rng.integers(1, 6))
        n = int(rng.integers(1, 6))
        m = int(rng.integers(0, c + 1))
        pts = random_points(rng, c)
        d = from_xn_points(n, m, pts)
        chart, got = to_xn_points(d, m)
        want = sorted(pts, key=lambda p: (p[0].real, p[0].imag))
        for (gz, gw), (pz, pw) in zip(got, want):
            err = max(abs(gz - pz), abs(gw - pw)) / max(1.0, abs(pz), abs(pw))
            worst = max(worst, err)
            assert err <= 1e-8
        # chart change reads the Moebius/scaling image of the points
        for l in range(c + 1):
            cm, sm = angle_constants(c, m - l)
            if any(abs(cm - sm * z) < 0.2 for z, _ in pts):
                continue
            _, chartl = to_xn_points(d, l)
            moved = sorted((((sm + cm * z) / (cm - sm * z),
                             (cm - sm * z) ** n * w) for z, w in pts),
                           key=lambda p: (p[0].real, p[0].imag))
            for (gz, gw), (pz, pw) in zip(chartl, moved):
                err = max(abs(gz - pz), abs(gw - pw)) / max(
                    1.0, abs(pz), abs(pw))
                worst = max(worst, err)
                assert err <= 1e-8
    report(6, "points-roundtrip", worst <= 1e-8, f"max deviation {worst:.2e}")


def test_criterion_07_quiver_semistability():
    rng = rng_from_seed(107)
    worst_um = 0.0
    for _ in range(100):
        c = int(rng.integers(1, 6))
        n = int(rng.integers(1, 6))
        r = embed_xn_as_rep(random_xn(rng, n, c))
        assert check_semistable_spectral(r) is Verdict.SEMISTABLE
        if n >= 2:
            d = XnADHM(r.n, r.v0, r.A1, r.A2, r.C, r.e)
            for m in range(c + 1):
                _, A2m, _, _ = chart_matrices(d, m)
                if not is_invertible(A2m):
                    continue
                worst_um = max(worst_um,
                               u_m_residual(r, m).maxnorm() / scale_of(*r.f))
    for _ in range(50):
        c = int(rng.integers(1, 6))
        n = int(rng.integers(1, 6))
        r = embed_xn_as_rep(random_xn_e_zero(rng, n, c))
        assert check_semistable_spectral(r) is Verdict.UNSTABLE
    for _ in range(50):
        c = int(rng.integers(1, 6))
        n = int(rng.integers(2, 6))
        r = random_rep(rng, n, c, framed=True)
        assert check_P2(XnADHM(r.n, r.v0, r.A1, r.A2, r.C, r.e))
        assert check_semistable_spectral(r) is Verdict.UNSTABLE
    report(7, "quiver-semistability", worst_um <= 1e-9,
           f"u_m max {worst_um:.2e} on passing samples")


def test_criterion_08_bruteforce_fixture_agreement():
    fixtures = load_bruteforce_fixtures()["fixtures"]
    assert len(fixtures) >= 10
    agree = 0
    for fx in fixtures:
        r = rep_from_json(fx["rep"])
        enumerated = brute_force_semistable(r.cast(GF(fx["p"])))
        spectral = check_semistable_spectral(r).to_bool()
        agree += (enumerated == spectral == fx["expected"])
    report(8, "bruteforce-oracle", agree == len(fixtures),
           f"{agree}/{len(fixtures)} fixtures agree")


def test_criterion_09_moment_identity():
    rng = rng_from_seed(109)
    worst = 0.0
    for _ in range(100):
        c = int(rng.integers(1, 6))
        r = random_free_rep(rng, 2, c)
        mres = moment_residual_n2(r)
        d1, d2 = relation_defects(r)
        s = scale_of(r.A1, r.A2, *r.C, r.e, *r.f) ** 2
        gap = max(residual(mres.mu1, -d1), residual(mres.mu0, d2)) / s
        worst = max(worst, gap)
        assert gap <= 1e-12
        rr = random_rep(rng, 2, c)
        zr = moment_residual_n2(rr).norm() / scale_of(rr.A1, rr.A2, *rr.C) ** 2
        worst = max(worst, zr)
        assert zr <= 1e-12
    report(9, "moment-identity", worst <= 1e-12, f"max gap {worst:.2e}")


def test_criterion_10_monad_suite():
    rng = rng_from_seed(110)
    # compose o build vanishes exactly on commuting triples
    for trial in range(100):
        c = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        if trial % 2 == 0:
            d = random_costable_triple(rng, c)
            expect_zero = True
        else:
            d = PlaneADHM(c, random_matrix(rng, c, c),
                          random_matrix(rng, c, c),
                          random_matrix(rng, 1, c))
            expect_zero = check_T1(d)
        res = max_residual(compose_residual(build_jm(d, n, 0)))
        assert (res <= 1e-10 * scale_of(d.b1, d.b2)) == expect_zero
    # normalization after re-expansion reproduces the chart transition
    from xnadhm.sampling import random_overlap_charts

    worst = 0.0
    done = 0
    while done < 100:
        c = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        d = random_costable_triple(rng, c)
        m, l = random_overlap_charts(rng, d.b1, c)
        expected = transition_phi(d, n, m, l)
        got, gauge = gauge_normalize(reexpand_chart(build_jm(d, n, m), l), l)
        s = scale_of(expected.b1, expected.b2, expected.e)
        r = max(residual(got.b1, expected.b1), residual(got.b2, expected.b2),
                residual(got.e, expected.e)) / s
        worst = max(worst, r)
        assert r <= 1e-9
        assert residual(gauge.chi, Matrix.identity(c)) <= 1e-9
        done += 1
    # boundary fixtures: the divisor where the overlap degenerates
    boundary = 0
    for c in (1, 2, 3):
        m, l = 1, 0
        cm, sm = angle_constants(c, m - l)
        vals = [cm / sm] + [0.1 * k for k in range(1, c)]
        d = PlaneADHM(c, Matrix.diagonal(vals),
                      Matrix.diagonal([1.0 + k for k in range(c)]),
                      Matrix.row_vector([1.0] * c))
        with pytest.raises(NotNormalizable):
            gauge_normalize(build_jm(d, 2, m), l)
        boundary += 1
    report(10, "monad-suite", worst <= 1e-9,
           f"normalize-vs-transition max {worst:.2e}, "
           f"{boundary} boundary fixtures raise")
