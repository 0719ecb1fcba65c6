"""Charts, sigma matrices, the three conditions, transitions, point data."""

import numpy as np
import pytest

from xnadhm.errors import (
    IndexOutOfRange,
    InvalidInput,
    NoChart,
    NotCostable,
    NotInChart,
    NotInOverlap,
    SingularA2m,
    UnsupportedBackend,
)
from xnadhm.linalg import (
    CLUSTER_TOL,
    COMPLEX,
    GF,
    RATIONAL,
    Matrix,
    angle_constants,
    eigenvalues,
    nullspace,
    residual,
    vstack,
)
from xnadhm.pencil import analyze_pencil
from xnadhm.plane import PlaneADHM
from xnadhm.sampling import (
    random_chart_data,
    random_costable_triple,
    random_invertible,
    random_points,
    random_xn,
    random_xn_e_zero,
    random_xn_kernel_violator,
    rng_from_seed,
)
from xnadhm.xn import (
    ChartData,
    XnADHM,
    chart_constants,
    chart_matrices,
    check_P1,
    check_P2,
    check_P3_direct,
    check_P3_via_chart,
    cover_chart,
    from_xn_points,
    gl2_action,
    gl2_action_chart,
    sigma,
    spectral_witness,
    to_xn_points,
    transition_omega,
    transition_phi,
    zeta,
    zeta_inverse,
)


def scalar_xn(n, z, w, e=1.0):
    """Chart-0 scalar data of a single point: A1=z, A2=1, Cq = z^(q-1) w."""
    return XnADHM(n, 1, Matrix.from_rows([[z]]), Matrix.from_rows([[1]]),
                  tuple(Matrix.from_rows([[z ** (q - 1) * w]])
                        for q in range(1, n + 1)),
                  Matrix.row_vector([e]))


# ---------------------------------------------------------------------------
# chart constants and sigma
# ---------------------------------------------------------------------------

def test_chart_constants_examples():
    assert chart_constants(5, 0) == (1.0, 0.0)
    assert chart_constants(1, 1) == (0.0, 1.0)
    assert chart_constants(3, 2) == (0.0, 1.0)
    with pytest.raises(IndexOutOfRange):
        chart_constants(3, 4)


def test_sigma_zero_is_identity():
    for h in range(5):
        assert sigma(h, 0, 4).entries == Matrix.identity(h + 1)


def test_sigma_h1_rotation():
    cm, sm = chart_constants(4, 2)
    S = sigma(1, 2, 4).entries
    expect = Matrix.from_rows([[cm, -sm], [sm, cm]])
    assert residual(S, expect) < 1e-12


def test_sigma_group_law_example():
    lhs = sigma(2, 1, 4).entries @ sigma(2, 2, 4).entries
    rhs = sigma(2, 3, 4).entries
    assert residual(lhs, rhs) < 1e-10


def test_sigma_negative_index_inverse():
    S = sigma(3, 2, 5).entries @ sigma(3, -2, 5).entries
    assert residual(S, Matrix.identity(4)) < 1e-10


# ---------------------------------------------------------------------------
# chart matrices
# ---------------------------------------------------------------------------

def test_chart_matrices_m0():
    rng = rng_from_seed(0)
    d = random_xn(rng, 3, 2)
    A1m, A2m, Em, Dm = chart_matrices(d, 0)
    assert residual(A1m, d.A1) < 1e-14
    assert residual(A2m, d.A2) < 1e-14
    assert residual(Dm, d.C[0]) < 1e-14


def test_chart_matrices_n1_free_parameter_is_C1():
    rng = rng_from_seed(1)
    d = random_xn(rng, 1, 2)
    for m in range(d.c + 1):
        _, _, _, Dm = chart_matrices(d, m)
        assert residual(Dm, d.C[0]) < 1e-12


def test_chart_matrices_scalar_hand_expansion():
    d = scalar_xn(2, 0.7, -0.3)
    m = 1
    cm, sm = chart_constants(1, m)
    A1m, A2m, Em, Dm = chart_matrices(d, m)
    z, w = 0.7, -0.3
    assert abs(A1m.at(0, 0) - (cm * z - sm)) < 1e-14
    assert abs(A2m.at(0, 0) - (sm * z + cm)) < 1e-14
    # D = binom(1,0) c^1 s^0 C1 + binom(1,1) c^0 s^1 C2, here C=(w, z w)
    assert abs(Dm.at(0, 0) - (cm * w + sm * z * w)) < 1e-14
    assert abs(Em.at(0, 0) - Dm.at(0, 0) * A2m.at(0, 0)) < 1e-14


# ---------------------------------------------------------------------------
# conditions
# ---------------------------------------------------------------------------

def test_P1_all_zero():
    Z = Matrix.zeros(2, 2)
    d = XnADHM(2, 2, Z, Z, (Z, Z), Matrix.zeros(1, 2))
    assert check_P1(d)


def test_P1_scalar_chain():
    assert check_P1(scalar_xn(3, 1.3 + 0.2j, -0.8))


def test_P1_violated():
    ident = Matrix.identity(2)
    d = XnADHM(2, 2, ident, ident, (ident, Matrix.zeros(2, 2)),
               Matrix.row_vector([1, 1]))
    assert not check_P1(d)


def test_P2_examples():
    ident = Matrix.identity(2)
    Z = Matrix.zeros(2, 2)
    assert check_P2(XnADHM(1, 2, ident, Z, (Z,), Matrix.zeros(1, 2)))
    assert not check_P2(XnADHM(1, 2, Z, Z, (Z,), Matrix.zeros(1, 2)))
    rng = rng_from_seed(5)
    assert check_P2(from_xn_points(2, 0, random_points(rng, 2)))


def test_P3_scalar_point_vacuous():
    assert check_P3_direct(scalar_xn(2, 0.5, 1.5, e=1.0))
    assert check_P3_via_chart(scalar_xn(2, 0.5, 1.5, e=1.0))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_P3_scalar_zero_frame_violation(n):
    z, w = 0.6 - 0.1j, 1.1 + 0.4j
    d = scalar_xn(n, z, w, e=0.0)
    # the violating parameters in closed form
    lam = (-z, 1.0)
    mu = (-w, (-1) ** n * z ** n * w)
    assert abs(lam[0] ** n * mu[0] + lam[1] ** n * mu[1]) < 1e-12
    assert abs(d.C[0].at(0, 0) * d.A2.at(0, 0) + mu[0]) < 1e-12
    assert abs(d.C[n - 1].at(0, 0) * d.A1.at(0, 0) - (-1) ** n * mu[1]) < 1e-12
    assert abs(lam[1] * z + lam[0] * 1.0) < 1e-12
    assert not check_P3_direct(d)
    assert not check_P3_via_chart(d)


def test_P3_direct_requires_regular_pencil():
    Z = Matrix.zeros(2, 2)
    d = XnADHM(1, 2, Z, Z, (Z,), Matrix.row_vector([1, 0]))
    with pytest.raises(InvalidInput):
        check_P3_direct(d)
    with pytest.raises(NoChart):
        check_P3_via_chart(d)


def eigenvector_p3(d, tol=None):
    """Reference for ``check_P3_direct``: the joint-eigenvector search it
    replaced, at its fixed thresholds.  At each pencil root, for every
    eigenvalue a of M1 = C1 A2 and b of M2 = Cn A1 whose pair meets
    l1^n m1 + l2^n m2 = 0 within 1e-6, a nonzero kernel of
    [P; e; M1 - a; M2 - b] at 1e-8 is a violation."""
    ident = Matrix.identity(d.c)
    M1 = d.C[0] @ d.A2
    M2 = d.C[d.n - 1] @ d.A1
    for (nu1, nu2), _ in analyze_pencil(d.A1, d.A2, tol).eigenvalues:
        l1, l2 = nu2, nu1
        P = d.A1.scale(l2) + d.A2.scale(l1)
        if nullspace(vstack(P, d.e), 1e-8).cols == 0:
            continue
        for a, _ in eigenvalues(M1):
            K1 = vstack(P, d.e, M1 - ident.scale(a))
            if nullspace(K1, 1e-8).cols == 0:
                continue
            for b, _ in eigenvalues(M2):
                mu1, mu2 = -a, (-1) ** d.n * b
                if abs(l1 ** d.n * mu1 + l2 ** d.n * mu2) > CLUSTER_TOL * max(
                        1.0, abs(mu1), abs(mu2)):
                    continue
                if nullspace(vstack(K1, M2 - ident.scale(b)), 1e-8).cols:
                    return False
    return True


def p3_samples(rng, c, count):
    """(kind, data) for valid, e = 0 and kernel-violator samples in turn."""
    makers = (random_xn, random_xn_e_zero, random_xn_kernel_violator)
    for trial in range(count):
        kind = trial % 3
        yield kind, makers[kind](rng, int(rng.integers(1, 4)), c)


def test_P3_direct_matches_the_eigenvector_reference():
    rng = rng_from_seed(13)
    for c in range(1, 7):
        for kind, d in p3_samples(rng, c, 6):
            moved = gl2_action(random_invertible(rng, c),
                               random_invertible(rng, c), d)
            for t in (d, moved):
                assert check_P3_direct(t) == eigenvector_p3(t) == (kind == 0)


def test_P3_direct_needs_no_eigenvectors(monkeypatch):
    from xnadhm import linalg, pencil, plane, xn

    def refuse(*args, **kwargs):
        raise AssertionError("check_P3_direct searched eigenvectors")

    rng = rng_from_seed(14)
    samples = [d for c in (2, 4, 6) for _, d in p3_samples(rng, c, 3)]
    want = [eigenvector_p3(d) for d in samples]
    for module in (linalg, pencil, plane, xn):
        for name in ("eigenvalues", "nullspace", "common_eigenvectors"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert [check_P3_direct(d) for d in samples] == want == [True, False,
                                                             False] * 3


def test_P3_equivalence_mixed_samples():
    rng = rng_from_seed(12)
    for trial in range(30):
        c = int(rng.integers(1, 5))
        n = int(rng.integers(1, 4))
        kind = trial % 3
        if kind == 0:
            d = random_xn(rng, n, c)
        elif kind == 1:
            d = random_xn_e_zero(rng, n, c)
        else:
            d = random_xn_kernel_violator(rng, n, max(c, 2))
        assert check_P3_direct(d) == check_P3_via_chart(d) == (kind == 0)


def test_commutation_transport():
    rng = rng_from_seed(13)
    for _ in range(10):
        d = random_xn(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        for m in range(d.c + 1):
            try:
                cd = zeta(d, m)
            except NotInChart:
                continue
            comm = cd.B @ cd.E - cd.E @ cd.B
            s = max(1.0, cd.B.maxnorm() * cd.E.maxnorm())
            assert comm.maxnorm() <= 1e-10 * s


# ---------------------------------------------------------------------------
# zeta and its inverse
# ---------------------------------------------------------------------------

def test_zeta_scalar_point():
    d = scalar_xn(2, 0.9, -1.4)
    cd = zeta(d, 0)
    assert abs(cd.B.at(0, 0) - 0.9) < 1e-14
    assert abs(cd.E.at(0, 0) + 1.4) < 1e-14
    assert abs(cd.A2m.at(0, 0) - 1) < 1e-14


def test_zeta_inverse_scalar_n3():
    cd = ChartData(0, Matrix.from_rows([[0.5]]), Matrix.from_rows([[2.0]]),
                   Matrix.row_vector([1.0]), Matrix.identity(1))
    d = zeta_inverse(cd, 3)
    assert abs(d.A1.at(0, 0) - 0.5) < 1e-14
    assert abs(d.A2.at(0, 0) - 1.0) < 1e-14
    got = [C.at(0, 0) for C in d.C]
    assert np.allclose(got, [2.0, 1.0, 0.5])     # (w, z w, z^2 w)


def test_zeta_inverse_n1_any_chart():
    rng = rng_from_seed(21)
    cd = random_chart_data(rng, 3, m=2)
    d = zeta_inverse(cd, 1)
    from xnadhm.linalg import inverse
    assert residual(d.C[0], cd.E @ inverse(cd.A2m)) < 1e-10


def test_zeta_inverse_after_zeta_is_identity():
    rng = rng_from_seed(25)
    for _ in range(20):
        c = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        d = random_xn(rng, n, c)
        m = cover_chart(d)
        d2 = zeta_inverse(zeta(d, m), n)
        s = max(1.0, d.A1.maxnorm(), d.A2.maxnorm(),
                max(C.maxnorm() for C in d.C))
        assert residual(d2.A1, d.A1) / s < 1e-10
        assert residual(d2.A2, d.A2) / s < 1e-10
        for C2, C in zip(d2.C, d.C):
            assert residual(C2, C) / s < 1e-10
        assert residual(d2.e, d.e) / s < 1e-10


def test_zeta_roundtrip_campaign():
    rng = rng_from_seed(22)
    for _ in range(50):
        c = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        cd = random_chart_data(rng, c)
        d = zeta_inverse(cd, n)
        back = zeta(d, cd.m)
        s = max(1.0, cd.B.maxnorm(), cd.E.maxnorm(), cd.A2m.maxnorm())
        assert residual(back.B, cd.B) / s < 1e-10
        assert residual(back.E, cd.E) / s < 1e-10
        assert residual(back.A2m, cd.A2m) / s < 1e-10
        assert residual(back.e, cd.e) / s < 1e-10


def test_zeta_inverse_guards():
    rng = rng_from_seed(23)
    plane = random_costable_triple(rng, 2)
    with pytest.raises(SingularA2m):
        zeta_inverse(ChartData(0, plane.b1, plane.b2, plane.e,
                               Matrix.zeros(2, 2)), 1)
    bad = ChartData(0, Matrix.diagonal([1, 2]), Matrix.diagonal([3, 4]),
                    Matrix.row_vector([1, 0]), Matrix.identity(2))
    with pytest.raises(NotCostable):
        zeta_inverse(bad, 2)
    d = zeta_inverse(bad, 2, check=False)
    assert not check_P3_direct(d)


def test_zeta_equivariance():
    rng = rng_from_seed(24)
    d = random_xn(rng, 2, 3)
    m = cover_chart(d)
    phi1 = random_invertible(rng, 3)
    phi2 = random_invertible(rng, 3)
    lhs = zeta(gl2_action(phi1, phi2, d), m)
    rhs = gl2_action_chart(phi1, phi2, zeta(d, m))
    s = max(1.0, rhs.B.maxnorm(), rhs.E.maxnorm(), rhs.A2m.maxnorm())
    for a, b in ((lhs.B, rhs.B), (lhs.E, rhs.E), (lhs.e, rhs.e),
                 (lhs.A2m, rhs.A2m)):
        assert residual(a, b) / s < 1e-9


# ---------------------------------------------------------------------------
# transitions
# ---------------------------------------------------------------------------

def test_transition_phi_identity():
    rng = rng_from_seed(30)
    d = random_costable_triple(rng, 2)
    same = transition_phi(d, 3, 1, 1)
    assert residual(same.b1, d.b1) < 1e-13
    assert residual(same.b2, d.b2) < 1e-13


def test_transition_phi_scalar_moebius():
    z, w = 0.37 - 0.21j, 1.4 + 0.6j
    n, m, l, c = 3, 0, 1, 1
    d = PlaneADHM(1, Matrix.from_rows([[z]]), Matrix.from_rows([[w]]),
                  Matrix.row_vector([1.0]))
    moved = transition_phi(d, n, m, l)
    cm, sm = angle_constants(c, m - l)
    assert abs(moved.b1.at(0, 0) - (sm + cm * z) / (cm - sm * z)) < 1e-12
    assert abs(moved.b2.at(0, 0) - (cm - sm * z) ** n * w) < 1e-12


def test_transition_phi_not_in_overlap():
    c = 1
    cm, sm = angle_constants(c, 1)
    z = cm / sm     # det(c - s z) = 0
    d = PlaneADHM(1, Matrix.from_rows([[z]]), Matrix.from_rows([[1.0]]),
                  Matrix.row_vector([1.0]))
    with pytest.raises(NotInOverlap):
        transition_phi(d, 2, 1, 0)


def test_transition_cocycle_small():
    rng = rng_from_seed(31)
    d = random_costable_triple(rng, 3)
    n, c = 2, 3
    for m in range(c + 1):
        for l in range(c + 1):
            for k in range(c + 1):
                try:
                    direct = transition_phi(d, n, m, k)
                    chain = transition_phi(transition_phi(d, n, m, l), n, l, k)
                except NotInOverlap:
                    continue
                s = max(1.0, direct.b1.maxnorm(), direct.b2.maxnorm())
                assert residual(direct.b1, chain.b1) / s < 1e-8
                assert residual(direct.b2, chain.b2) / s < 1e-8


def test_transition_omega_triangle():
    rng = rng_from_seed(32)
    for _ in range(10):
        c = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        d = random_xn(rng, n, c)
        m = cover_chart(d)
        cd = zeta(d, m)
        for l in range(c + 1):
            try:
                om = transition_omega(cd, n, l)
                direct = zeta(d, l)
            except (NotInOverlap, NotInChart):
                continue
            s = max(1.0, direct.B.maxnorm(), direct.E.maxnorm(),
                    direct.A2m.maxnorm())
            assert residual(om.B, direct.B) / s < 1e-9
            assert residual(om.E, direct.E) / s < 1e-9
            assert residual(om.A2m, direct.A2m) / s < 1e-9


# ---------------------------------------------------------------------------
# the two-sided group action
# ---------------------------------------------------------------------------

def test_gl2_identity_and_scalar():
    rng = rng_from_seed(40)
    d = random_xn(rng, 2, 1)
    ident = Matrix.identity(1)
    same = gl2_action(ident, ident, d)
    assert residual(same.A1, d.A1) < 1e-14
    phi = Matrix.from_rows([[2.0]])
    moved = gl2_action(phi, phi, d)
    assert residual(moved.A1, d.A1) < 1e-13      # scalars commute
    assert residual(moved.C[0], d.C[0]) < 1e-13
    assert residual(moved.e, d.e.scale(0.5)) < 1e-13


def test_gl2_preserves_verdicts():
    rng = rng_from_seed(41)
    for _ in range(10):
        c = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        d = random_xn(rng, n, c)
        phi1 = random_invertible(rng, c)
        phi2 = random_invertible(rng, c)
        moved = gl2_action(phi1, phi2, d)
        assert check_P1(moved) and check_P2(moved) and check_P3_direct(moved)


# ---------------------------------------------------------------------------
# covering chart and point dictionaries
# ---------------------------------------------------------------------------

def test_cover_chart_examples():
    ident = Matrix.identity(2)
    Z = Matrix.zeros(2, 2)
    e = Matrix.row_vector([1, 1])
    assert cover_chart(XnADHM(1, 2, Z, ident, (Z,), e)) == 0
    m = cover_chart(XnADHM(1, 2, ident, Z, (Z,), e))
    assert m >= 1
    with pytest.raises(InvalidInput):
        cover_chart(XnADHM(1, 2, Z, Z, (Z,), e))


@pytest.mark.parametrize("n,m", [(1, 0), (2, 1), (3, 0)])
def test_from_xn_points_single_origin(n, m):
    d = from_xn_points(n, m, [(0, 0)])
    cm, sm = angle_constants(1, m)
    assert abs(d.A1.at(0, 0) - sm) < 1e-14
    assert abs(d.A2.at(0, 0) - cm) < 1e-14
    assert all(C.is_zero() for C in d.C)
    assert check_P1(d) and check_P2(d) and check_P3_direct(d)


def test_points_roundtrip_sorted():
    rng = rng_from_seed(50)
    for _ in range(10):
        c = int(rng.integers(1, 5))
        n = int(rng.integers(1, 4))
        m = int(rng.integers(0, c + 1))
        pts = random_points(rng, c)
        d = from_xn_points(n, m, pts)
        assert check_P1(d) and check_P2(d) and check_P3_direct(d)
        chart, got = to_xn_points(d, m)
        want = sorted(pts, key=lambda p: (p[0].real, p[0].imag))
        assert chart == m
        for (gz, gw), (pz, pw) in zip(got, want):
            assert abs(gz - pz) < 1e-8 and abs(gw - pw) < 1e-8


def test_points_chart_change_is_moebius():
    rng = rng_from_seed(51)
    n, c = 2, 3
    pts = random_points(rng, c)
    m = 0
    d = from_xn_points(n, m, pts)
    for l in range(c + 1):
        cm, sm = angle_constants(c, m - l)
        if any(abs(cm - sm * z) < 0.1 for z, _ in pts):
            continue
        _, got = to_xn_points(d, l)
        moved = sorted(
            (((sm + cm * z) / (cm - sm * z), (cm - sm * z) ** n * w)
             for z, w in pts),
            key=lambda p: (p[0].real, p[0].imag))
        for (gz, gw), (pz, pw) in zip(got, moved):
            assert abs(gz - pz) < 1e-8 and abs(gw - pw) < 1e-8


def test_to_xn_points_scalar():
    d = scalar_xn(2, 0.25, -0.75)
    _, pts = to_xn_points(d, 0)
    assert abs(pts[0][0] - 0.25) < 1e-12 and abs(pts[0][1] + 0.75) < 1e-12


def test_to_xn_points_non_simple_spectrum():
    from xnadhm.errors import NonSimpleSpectrum

    B = Matrix.from_rows([[0, 1], [0, 0]])
    cd = ChartData(0, B, B, Matrix.row_vector([1, 0]), Matrix.identity(2))
    d = zeta_inverse(cd, 2)    # co-stable but with a length-2 fat point
    with pytest.raises(NonSimpleSpectrum):
        to_xn_points(d, 0)


# ---------------------------------------------------------------------------
# spectral witness
# ---------------------------------------------------------------------------

def test_pencil_roots_match_chart_spectrum():
    # the singular locus of the pencil corresponds to the spectrum of B_m
    # under z -> [s_m z - c_m : c_m z + s_m]
    from xnadhm.linalg import chordal_distance, eigenvalues, pencil_det_poly, projective_roots

    rng = rng_from_seed(61)
    for _ in range(10):
        c = int(rng.integers(1, 6))
        n = int(rng.integers(1, 5))
        d = random_xn(rng, n, c)
        m = cover_chart(d)
        cd = zeta(d, m)
        cm, sm = angle_constants(c, m)
        roots = projective_roots(pencil_det_poly(d.A1, d.A2))
        spec = eigenvalues(cd.B)
        assert sum(k for _, k in roots) == c
        assert sum(k for _, k in spec) == c
        for z, mult in spec:
            target = (sm * z - cm, cm * z + sm)
            nrm = max(abs(target[0]), abs(target[1]))
            target = (target[0] / nrm, target[1] / nrm)
            hits = [k for pt, k in roots if chordal_distance(pt, target) < 1e-6]
            assert hits and hits[0] == mult


def test_spectral_witness_identities():
    rng = rng_from_seed(60)
    for _ in range(10):
        c = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        d = random_xn(rng, n, c)
        v, (l1, l2), (mu1, mu2) = spectral_witness(d)
        s = max(1.0, abs(mu1), abs(mu2))
        assert abs(l1 ** n * mu1 + l2 ** n * mu2) <= 1e-9 * s
        sv = max(1.0, d.A1.maxnorm(), d.A2.maxnorm()) * max(
            1.0, abs(l1), abs(l2))
        assert ((d.A1.scale(l2) + d.A2.scale(l1)) @ v).maxnorm() <= 1e-9 * sv
        s1 = max(1.0, (d.C[0] @ d.A2).maxnorm(), abs(mu1))
        assert ((d.C[0] @ d.A2) @ v + v.scale(mu1)).maxnorm() <= 1e-9 * s1
        s2 = max(1.0, (d.C[n - 1] @ d.A1).maxnorm(), abs(mu2))
        assert ((d.C[n - 1] @ d.A1) @ v
                - v.scale((-1) ** n * mu2)).maxnorm() <= 1e-9 * s2


# ---------------------------------------------------------------------------
# exact backends through the charts
# ---------------------------------------------------------------------------

def test_rational_chart_zero_end_to_end():
    cd = ChartData(0, Matrix.diagonal([0, 1], RATIONAL),
                   Matrix.diagonal([0, 2], RATIONAL),
                   Matrix.row_vector([1, 1], RATIONAL),
                   Matrix.identity(2, RATIONAL))
    d = zeta_inverse(cd, 2)
    assert d.backend == RATIONAL
    assert check_P1(d) and check_P2(d)
    back = zeta(d, 0)
    assert back.B == cd.B and back.E == cd.E


def test_rational_promotes_off_integral_charts():
    cd = ChartData(1, Matrix.diagonal([0, 1], RATIONAL),
                   Matrix.diagonal([0, 2], RATIONAL),
                   Matrix.row_vector([1, 1], RATIONAL),
                   Matrix.identity(2, RATIONAL))
    d = zeta_inverse(cd, 2)
    assert d.backend == COMPLEX


def test_prime_field_rejects_irrational_charts():
    gf = GF(5)
    d = XnADHM(1, 2, Matrix.diagonal([0, 1], gf), Matrix.identity(2, gf),
               (Matrix.diagonal([0, 1], gf),), Matrix.row_vector([1, 1], gf))
    A1m, A2m, _, _ = chart_matrices(d, 0)
    assert A2m == Matrix.identity(2, gf)
    with pytest.raises(UnsupportedBackend):
        chart_matrices(d, 1)
