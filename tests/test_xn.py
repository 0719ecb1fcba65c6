"""Charts, sigma matrices, the three conditions, transitions, point data."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from xnadhm.errors import (
    BackendMismatch,
    DuplicatePoint,
    IndexOutOfRange,
    InvalidInput,
    NoChart,
    NotCostable,
    NotInChart,
    NotInOverlap,
    NotNormalizable,
    ShapeMismatch,
    SingularA2m,
    SingularGauge,
    UnsupportedBackend,
)
from xnadhm import linalg, xn
from xnadhm.linalg import (
    CLUSTER_TOL,
    COMPLEX,
    GF,
    RATIONAL,
    Matrix,
    angle_constants,
    det,
    eigenvalues,
    nullspace,
    residual,
    vstack,
)
from xnadhm.monad import build_jm, gauge_normalize, reexpand_chart
from xnadhm.pencil import analyze_pencil
from xnadhm.plane import PlaneADHM, _observable, _unit, check_T2, gl_action
from xnadhm.sampling import (
    _separated_values,
    overlap_margin,
    random_chart_data,
    random_costable_triple,
    random_invertible,
    random_xn,
    random_xn_e_zero,
    random_xn_kernel_violator,
    rng_from_seed,
)
from xnadhm.xn import (
    ChartData,
    XnADHM,
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


def random_points(rng, c):
    """c pairwise distinct complex plane points, both coordinates at least
    0.2 apart."""
    zs = _separated_values(rng, c, 0.2)
    ws = _separated_values(rng, c, 0.2)
    return [(complex(z), complex(w)) for z, w in zip(zs, ws)]


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
    """The chart constants (cos, sin)(pi m / (c+1)) are linalg's
    angle_constants; a chart index above c is refused by the chart maps."""
    assert angle_constants(5, 0) == (1.0, 0.0)
    assert angle_constants(1, 1) == (0.0, 1.0)
    assert angle_constants(3, 2) == (0.0, 1.0)
    d = random_xn(rng_from_seed(5), 2, 3)
    with pytest.raises(IndexOutOfRange):
        zeta(d, 4)
    with pytest.raises(IndexOutOfRange):
        chart_matrices(d, 4)


def test_sigma_zero_is_identity():
    for h in range(5):
        assert sigma(h, 0, 4) == Matrix.identity(h + 1)


def test_sigma_is_cached():
    assert sigma(3, 1, 4) is sigma(3, 1, 4)
    assert sigma(3, 5, 4, RATIONAL) is not sigma(3, 5, 4)
    assert sigma.cache_info().maxsize is not None


def test_sigma_h1_rotation():
    cm, sm = angle_constants(4, 2)
    S = sigma(1, 2, 4)
    expect = Matrix.from_rows([[cm, -sm], [sm, cm]])
    assert residual(S, expect) < 1e-12


def test_sigma_group_law_example():
    lhs = sigma(2, 1, 4) @ sigma(2, 2, 4)
    rhs = sigma(2, 3, 4)
    assert residual(lhs, rhs) < 1e-10


def test_sigma_negative_index_inverse():
    S = sigma(3, 2, 5) @ sigma(3, -2, 5)
    assert residual(S, Matrix.identity(4)) < 1e-10


def test_sigma_refuses_a_negative_degree():
    with pytest.raises(IndexOutOfRange) as raised:
        sigma(-1, 0, 2)
    assert str(raised.value) == "h must be >= 0"


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
    cm, sm = angle_constants(1, m)
    A1m, A2m, Em, Dm = chart_matrices(d, m)
    z, w = 0.7, -0.3
    assert abs(A1m[0, 0] - (cm * z - sm)) < 1e-14
    assert abs(A2m[0, 0] - (sm * z + cm)) < 1e-14
    # D = binom(1,0) c^1 s^0 C1 + binom(1,1) c^0 s^1 C2, here C=(w, z w)
    assert abs(Dm[0, 0] - (cm * w + sm * z * w)) < 1e-14
    assert abs(Em[0, 0] - Dm[0, 0] * A2m[0, 0]) < 1e-14


def _rotate(X, Y, k, c):
    """``xn._rotation`` of two Matrices of one backend, as Matrices."""
    bk = X.backend
    return tuple(linalg._wrap(a, bk)
                 for a in xn._rotation(X.entries, Y.entries, k, c, bk))


def _power(M, k):
    """M^k as k products onto the identity."""
    out = Matrix.identity(M.rows, M.backend)
    for _ in range(k):
        out = out @ M
    return out


def random_pair(rng, c, backend=COMPLEX):
    if backend.exact:
        return tuple(Matrix(c, c, rng.integers(-6, 7, size=c * c).tolist(),
                            backend) for _ in range(2))
    return random_invertible(rng, c), random_invertible(rng, c)


def test_rotate_hand_expansion_on_floats():
    rng = rng_from_seed(5)
    for c in range(1, 5):
        X, Y = random_pair(rng, c)
        for k in range(-c - 1, c + 2):
            ck, sk = angle_constants(c, k)
            R1, R2 = _rotate(X, Y, k, c)
            assert residual(R1, X.scale(ck) - Y.scale(sk)) == 0
            assert residual(R2, X.scale(sk) + Y.scale(ck)) == 0


@pytest.mark.parametrize("backend", [RATIONAL, GF(5)], ids=repr)
def test_rotate_hand_expansion_at_integer_charts(backend, monkeypatch):
    """At the integer-constant charts the rotation stays in the field and
    multiplies by no 0 or 1; every other chart raises on both exact
    backends."""
    rng = rng_from_seed(6)
    node_entries = linalg._node_entries
    for c in range(1, 5):
        X, Y = random_pair(rng, c, backend)
        for k in range(-c - 1, c + 2):
            ck, sk = angle_constants(c, k)
            if ck != int(ck) or sk != int(sk):
                with pytest.raises(UnsupportedBackend):
                    _rotate(X, Y, k, c)
                continue
            ck, sk = int(ck), int(sk)
            want = (X.scale(ck) - Y.scale(sk), X.scale(sk) + Y.scale(ck))
            scaled = []

            def record(a1, a2, n1, n2, bk):
                scaled.extend(s for s in (n1, n2) if s not in (0, 1))
                return node_entries(a1, a2, n1, n2, bk)

            monkeypatch.setattr(linalg, "_node_entries", record)
            assert _rotate(X, Y, k, c) == want
            monkeypatch.setattr(linalg, "_node_entries", node_entries)
            # only the coefficients -1 multiply: once at a right angle,
            # twice at the angle pi, never at 0
            assert [backend.coerce(s) for s in scaled] == [
                backend.coerce(-1)] * [ck, -sk, sk, ck].count(-1)
        # a unit coefficient beside a zero one is no product at all
        x, y = X.entries, Y.entries
        assert node_entries(x, y, backend.one, backend.zero, backend) is x
        assert node_entries(x, y, backend.zero, backend.one, backend) is y


def test_chart_matrices_and_float_nodes_are_the_rotation():
    """chart m rotates (A1, A2) by m, and the float pencil's node m is the
    chart node (s_m, c_m), so its node matrix is A2m."""
    rng = rng_from_seed(7)
    for c in range(1, 6):
        d = random_xn(rng, 2, c)
        nodes = linalg._pencil_nodes(c, COMPLEX)
        for m in range(c + 1):
            A1m, A2m, _, _ = chart_matrices(d, m)
            assert (A1m, A2m) == _rotate(d.A1, d.A2, m, c)
            cm, sm = angle_constants(c, m)
            assert nodes[m] == (sm, cm)
            node = linalg._node_entries(d.A1.entries, d.A2.entries,
                                        *nodes[m], COMPLEX)
            assert np.array_equal(node, A2m.entries)


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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_P1_holds_at_tol_zero_on_exactly_satisfied_float_data(n):
    """Integer points give float data whose chain defects are exactly 0,
    and an exact 0 passes the threshold 0 (the quadratic n = 1 relation
    and the chains of n >= 2 alike)."""
    d = from_xn_points(n, 0, [(1, 2), (3, -1), (0, 4)], COMPLEX)
    defects = xn._chain_defects(d.A1, d.A2, d.C)[0]
    assert not any(D.any() for D in defects)
    assert check_P1(d, tol=0)


@pytest.mark.parametrize("n, holds", [(1, True), (2, False)])
def test_P1_threshold_is_quadratic_in_A_only_for_n_1(n, holds):
    """At tol = 1e-6, |A| = 10 and |C| = 1 (max-norms), the quadratic
    n = 1 relation is tested against tol |A|^2 |C| = 1e-4 and the chains of
    n >= 2 against tol |A| |C| = 1e-5, so one defect of about 50 tol holds
    for n = 1 and fails for n = 2."""
    tol = 1e-6
    bump = Matrix.from_rows([[1, 5e-6], [0, 1]])
    if n == 1:
        A1, A2 = Matrix.diagonal([10, 10]), Matrix.diagonal([1, 2])
        C = (bump,)
    else:
        A1 = A2 = Matrix.diagonal([10, 10])
        C = (bump, Matrix.identity(2))
    d = XnADHM(n, 2, A1, A2, C, Matrix.row_vector([1, 1]))
    defects = xn._chain_defects(A1, A2, d.C)[0]
    worst = max(float(np.abs(D).max()) for D in defects)
    assert 40 * tol < worst < 60 * tol
    assert check_P1(d, tol=tol) is holds


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
    assert abs(d.C[0][0, 0] * d.A2[0, 0] + mu[0]) < 1e-12
    assert abs(d.C[n - 1][0, 0] * d.A1[0, 0] - (-1) ** n * mu[1]) < 1e-12
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


def test_P3_direct_refuses_prime_field_data():
    d = from_xn_points(1, 0, [(0, 1), (2, 3)], GF(5))
    with pytest.raises(UnsupportedBackend,
                       match=r"^\(P3\) needs root finding; use the quiver"):
        check_P3_direct(d)


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
    assert abs(cd.B[0, 0] - 0.9) < 1e-14
    assert abs(cd.E[0, 0] + 1.4) < 1e-14
    assert abs(cd.A2m[0, 0] - 1) < 1e-14


def test_zeta_inverse_scalar_n3():
    cd = ChartData(0, Matrix.from_rows([[0.5]]), Matrix.from_rows([[2.0]]),
                   Matrix.row_vector([1.0]), Matrix.identity(1))
    d = zeta_inverse(cd, 3)
    assert abs(d.A1[0, 0] - 0.5) < 1e-14
    assert abs(d.A2[0, 0] - 1.0) < 1e-14
    got = [C[0, 0] for C in d.C]
    assert np.allclose(got, [2.0, 1.0, 0.5])     # (w, z w, z^2 w)


def test_zeta_inverse_n1_any_chart():
    rng = rng_from_seed(21)
    cd = replace(random_chart_data(rng, 3), m=2)
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


def test_zeta_inverse_rejects_n_below_one():
    cd = zeta(from_xn_points(1, 0, [(0, 0), (1, 2)]), 0)
    for n in (0, -1):
        with pytest.raises(IndexOutOfRange, match=rf"^n = {n} must be >= 1$"):
            zeta_inverse(cd, n)


def test_xn_data_reject_n_below_one_before_any_shape_check():
    """``XnADHM`` refuses n <= 0 with the ``IndexOutOfRange`` of
    ``zeta_inverse``, the chart legs and the monad layer, before looking at
    the blocks; c = 0 stays ``ShapeMismatch``."""
    d = from_xn_points(1, 0, [(0, 0), (1, 2)])
    for n in (0, -1):
        with pytest.raises(IndexOutOfRange, match=rf"^n = {n} must be >= 1$"):
            replace(d, n=n)
        with pytest.raises(IndexOutOfRange, match=rf"^n = {n} must be >= 1$"):
            XnADHM(n, 0, d.A1, d.A2, (), d.e)
    Z = Matrix.zeros(0, 0)
    with pytest.raises(ShapeMismatch, match=r"^c must be >= 1$"):
        XnADHM(1, 0, Z, Z, (Z,), Matrix.zeros(1, 0))


_Z2 = Matrix.zeros(2, 2)

#: one malformed block of n = 2, c = 2 configuration data, and the refusal
#: it meets
_MALFORMED_XN = {
    "C count": ({"C": (_Z2,)}, "expected 2 C-blocks, got 1"),
    "C block": ({"C": (_Z2, Matrix.zeros(3, 3))},
                "A and C blocks must be c x c"),
    "e": ({"e": Matrix.row_vector([1, 1, 1])}, "e must be a row c-vector"),
    "backend": ({"C": (_Z2, Matrix.zeros(2, 2, RATIONAL))},
                "blocks on different backends"),
}


@pytest.mark.parametrize("case", list(_MALFORMED_XN))
def test_xn_data_refuse_a_malformed_block(case):
    blocks, message = _MALFORMED_XN[case]
    d = XnADHM(2, 2, _Z2, _Z2, (_Z2, _Z2), Matrix.row_vector([1, 1]))
    with pytest.raises(ShapeMismatch) as raised:
        replace(d, **blocks)
    assert str(raised.value) == message


#: one malformed block of a c = 2 chart reading, and the refusal it meets
_MALFORMED_CHART = {
    "E": ({"E": Matrix.zeros(2, 3)},
          "chart blocks must be square of equal size"),
    "e": ({"e": Matrix.row_vector([1])}, "e must be a row c-vector"),
}


@pytest.mark.parametrize("case", list(_MALFORMED_CHART))
def test_chart_data_refuse_a_malformed_block(case):
    blocks, message = _MALFORMED_CHART[case]
    cd = ChartData(0, _Z2, _Z2, Matrix.row_vector([1, 1]), Matrix.identity(2))
    with pytest.raises(ShapeMismatch) as raised:
        replace(cd, **blocks)
    assert str(raised.value) == message


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


def _pencil_with_small_chart(rng, n, s_last):
    """Float configuration (not satisfying (P1)) whose chart-0 block
    A20 = A2 has singular values 1, 0.5 and ``s_last``."""
    V, W = (random_invertible(rng, 3).to_numpy() for _ in range(2))
    V, W = np.linalg.qr(V)[0], np.linalg.qr(W)[0]
    A2 = Matrix.from_numpy(V @ np.diag([1.0, 0.5, s_last]) @ W)
    return XnADHM(n, 3, random_invertible(rng, 3), A2,
                  [random_invertible(rng, 3) for _ in range(n)],
                  Matrix.row_vector([1.0, 0.5, -1.0]))


def test_zeta_refuses_exactly_the_charts_is_invertible_refuses():
    """zeta(d, m) raises NotInChart exactly when A2m of chart_matrices
    fails ``_is_invertible``, at every chart and both tolerances; on float
    data the verdict comes from the configuration's node conditioning.
    Chart 0 is singular in one configuration, and in another lies between
    the two tolerances."""
    rng = rng_from_seed(26)
    singular = _pencil_with_small_chart(rng, 2, 0.0)
    between = _pencil_with_small_chart(rng, 1, 1e-7)
    configs = [singular, between] + [
        random_xn(rng, int(rng.integers(1, 4)), int(rng.integers(1, 5)))
        for _ in range(10)]
    verdicts = {}
    for d in configs:
        for tol in (None, 1e-6):
            for m in range(d.c + 1):
                A2m = chart_matrices(d, m)[1]
                ok = linalg._is_invertible(A2m.entries, A2m.backend, tol)
                if ok:
                    assert zeta(d, m, tol).A2m == A2m
                else:
                    with pytest.raises(NotInChart):
                        zeta(d, m, tol)
                verdicts[id(d), tol, m] = ok
    assert not verdicts[id(singular), None, 0]
    assert (verdicts[id(between), None, 0], verdicts[id(between), 1e-6, 0]) \
        == (True, False)
    assert sum(verdicts.values()) > len(verdicts) // 2


def _count_calls(monkeypatch, *names):
    """The list to which every later call of one of the named ``linalg``
    functions appends its name."""
    calls = []
    for name in names:
        def counted(*args, _fn=getattr(linalg, name), _name=name):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(linalg, name, counted)
    return calls


def test_float_zeta_runs_no_invertibility_svd(monkeypatch):
    """On float data zeta reads the cached node conditioning and calls
    ``_is_invertible`` never; exact data take one ``_rref`` per zeta, the
    elimination that decides invertibility and inverts A2m."""
    rng = rng_from_seed(27)
    floats = [random_xn(rng, n, c) for n, c in ((1, 1), (2, 3), (3, 4))]
    exact = [from_xn_points(2, 0, [(1, 2), (3, -1)], bk)
             for bk in (RATIONAL, GF(5))]
    calls = _count_calls(monkeypatch, "_is_invertible", "_rref")
    for d in floats:
        for m in range(d.c + 1):
            zeta(d, m)
    assert calls == []
    for d in exact:
        zeta(d, 0)
    assert calls == ["_rref"] * len(exact)


def test_float_zeta_blocks_are_the_chart_matrices_bytes():
    """Float zeta's A2m, E_m and B_m = A2m^-1 A1m are those built from
    ``chart_matrices`` byte for byte, on valid data and on violators, and
    so is the node matrix at m of the configuration's node stack, which
    already holds A2m."""
    rng = rng_from_seed(28)
    for c in range(1, 5):
        for d in (random_xn(rng, 2, c), random_xn_e_zero(rng, 3, c),
                  random_xn_kernel_violator(rng, 1, c)):
            for m in range(c + 1):
                A1m, A2m, Em, _ = chart_matrices(d, m)
                assert d._pencil_conditioning[0][m].tobytes() == \
                    A2m.entries.tobytes()
                cd = zeta(d, m)
                B = linalg._matmul(linalg._inverse(A2m.entries, COMPLEX),
                                   A1m.entries, COMPLEX)
                for got, want in ((cd.A2m.entries, A2m.entries),
                                  (cd.E.entries, Em.entries),
                                  (cd.B.entries, B)):
                    assert got.tobytes() == want.tobytes()


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
    assert abs(moved.b1[0, 0] - (sm + cm * z) / (cm - sm * z)) < 1e-12
    assert abs(moved.b2[0, 0] - (cm - sm * z) ** n * w) < 1e-12


def test_transition_phi_not_in_overlap():
    c = 1
    cm, sm = angle_constants(c, 1)
    z = cm / sm     # det(c - s z) = 0
    d = PlaneADHM(1, Matrix.from_rows([[z]]), Matrix.from_rows([[1.0]]),
                  Matrix.row_vector([1.0]))
    with pytest.raises(NotInOverlap):
        transition_phi(d, 2, 1, 0)


def test_transitions_need_n_at_least_one():
    d = random_costable_triple(rng_from_seed(30), 2)
    for n in (0, -1):
        with pytest.raises(IndexOutOfRange, match=r"must be >= 1$"):
            transition_phi(d, n, 0, 1)


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


def test_transition_omega_moves_the_plane_part_once(monkeypatch):
    """transition_omega does not call transition_phi, builds the denominator
    T = c_(m-l) - s_(m-l) B once, and gives transition_phi's plane part bit
    for bit with A2l = A2m T."""
    rng = rng_from_seed(33)
    cases = []
    for _ in range(10):
        c = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        cd = zeta(random_xn(rng, n, c), 0)
        for l in range(c + 1):
            cm, sm = angle_constants(c, cd.m - l)
            T = Matrix.identity(c).scale(cm) - cd.B.scale(sm)
            try:
                phi = transition_phi(cd.plane(), n, cd.m, l)
            except NotInOverlap:
                continue
            cases.append((cd, n, l, T, phi))
    assert len(cases) > 20

    def refuse(*args, **kwargs):
        raise AssertionError("transition_omega called transition_phi")

    # T is built once: one overlap test and one inverse of it
    calls = []
    for name in ("_conditioning", "_inv"):
        monkeypatch.setattr(linalg, name, lambda *a, name=name, fn=getattr(
            linalg, name): calls.append(name) or fn(*a))
    monkeypatch.setattr(xn, "transition_phi", refuse)
    for cd, n, l, T, phi in cases:
        del calls[:]
        om = transition_omega(cd, n, l)
        assert calls == ["_conditioning", "_inv"]
        assert (om.m, om.B, om.E, om.e) == (l, phi.b1, phi.b2, phi.e)
        assert om.A2m == cd.A2m @ T


def _transition_reference(d, n, m, l):
    """transition_phi and the denominator as Matrix expressions: the
    rotation's numerator and denominator, then inverse(T) @ num and
    T^n @ b2."""
    num, T = _rotate(d.b1, Matrix.identity(d.c, d.backend), l - m, d.c)
    if not linalg.is_invertible(T):
        raise NotInOverlap
    return (PlaneADHM(d.c, linalg.inverse(T) @ num, _power(T, n) @ d.b2, d.e),
            T)


def _same_bits(A, B):
    return A.backend == B.backend and A.entries.tobytes() == B.entries.tobytes()


def test_transitions_equal_the_matrix_expression():
    rng = rng_from_seed(34)
    cases = 0
    for _ in range(40):
        c = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        cd = random_chart_data(rng, c)
        for l in range(c + 1):
            try:
                want, T = _transition_reference(cd.plane(), n, cd.m, l)
            except NotInOverlap:
                with pytest.raises(NotInOverlap):
                    transition_phi(cd.plane(), n, cd.m, l)
                continue
            got = transition_phi(cd.plane(), n, cd.m, l)
            om = transition_omega(cd, n, l)
            for X, Y in ((got.b1, want.b1), (got.b2, want.b2),
                         (got.e, want.e), (om.B, want.b1), (om.E, want.b2),
                         (om.A2m, cd.A2m @ T)):
                assert _same_bits(X, Y)
            cases += 1
    assert cases > 100
    # exact data at the integer charts of c = 3; off them it is refused
    for bk in (RATIONAL, GF(5)):
        d = PlaneADHM(3, Matrix.diagonal([1, 2, -1], bk),
                      Matrix.from_rows([[0, 1, 0], [0, 3, 2], [1, 0, 1]], bk),
                      Matrix.row_vector([1, 1, 1], bk))
        for m, l in ((0, 2), (2, 0), (1, 3), (3, 1), (2, 2)):
            want, _ = _transition_reference(d, 2, m, l)
            got = transition_phi(d, 2, m, l)
            assert (got.b1, got.b2, got.e) == (want.b1, want.b2, want.e)
            assert got.backend == bk
        with pytest.raises(UnsupportedBackend):
            transition_phi(d, 2, 0, 1)
    # the float reading of such a leg is the transition of the cast data
    d = PlaneADHM(3, Matrix.diagonal([3, 2, 5], COMPLEX),
                  Matrix.diagonal([0, 3, 1], COMPLEX),
                  Matrix.row_vector([1, 1, 1], COMPLEX))
    got = transition_phi(d, 2, 0, 1)
    want, _ = _transition_reference(d, 2, 0, 1)
    assert all(_same_bits(X, Y) for X, Y in
               ((got.b1, want.b1), (got.b2, want.b2), (got.e, want.e)))


def test_overlap_margin_is_the_rotated_pivot():
    from xnadhm.sampling import overlap_margin

    rng = rng_from_seed(35)
    for trial in range(60):
        c = int(rng.integers(1, 6))
        b1 = (random_chart_data(rng, c).B if trial % 3 else
              Matrix.diagonal(rng.integers(-3, 4, size=c).tolist()))
        for m in range(c + 1):
            for l in range(c + 1):
                T = _rotate(b1, Matrix.identity(c), l - m, c)[1]
                want = float(np.linalg.svd(T.to_numpy(),
                                           compute_uv=False)[-1])
                assert overlap_margin(b1, c, m, l) == want


def test_leg_constants_are_kept_read_only_and_equal_a_fresh_build():
    """``_leg_constants`` is one pair of read-only (legs, 1, 1) arrays per
    (backend, c, shifts), byte-equal to the array of the float chart
    constants built afresh, and on the rationals the integer constants."""
    rng = rng_from_seed(36)
    for c in range(1, 7):
        for _ in range(6):
            shifts = tuple(int(k) for k in rng.integers(
                -c, c + 1, size=int(rng.integers(1, 9))))
            ck, sk = xn._leg_constants(COMPLEX, c, shifts)
            assert xn._leg_constants(COMPLEX, c, shifts)[0] is ck
            want = np.array([angle_constants(c, k) for k in shifts],
                            dtype=complex).T[:, :, None, None]
            for got, w in zip((ck, sk), want):
                assert got.dtype == complex
                assert got.shape == (len(shifts), 1, 1)
                assert got.tobytes() == w.tobytes()
                assert not got.flags.writeable
        integer = tuple(k for k in range(-c, c + 1) if xn._integer_chart(c, k))
        ck, sk = xn._leg_constants(RATIONAL, c, integer)
        assert [ck.ravel().tolist(), sk.ravel().tolist()] == [
            [Fraction(int(x)) for x in v] for v in zip(
                *(angle_constants(c, k) for k in integer))]
        assert not (ck.flags.writeable or sk.flags.writeable)


def test_irrational_leg_on_exact_data_raises_on_every_call():
    """Nothing is kept for a shift whose constants are irrational: exact
    legs at such a shift raise ``UnsupportedBackend`` on every call, also
    after the integer legs of the same c were kept."""
    from xnadhm.plane import from_plane_points

    d = from_plane_points([(1, 2), (3, -1), (0, 4)], RATIONAL)
    b = np.stack([d.b1.entries, d.b1.entries])
    xn._transition(b, b, None, 2, [0, 2], 3, RATIONAL)
    for _ in range(3):
        with pytest.raises(UnsupportedBackend):
            xn._leg_constants(RATIONAL, 3, (0, 1))
        with pytest.raises(UnsupportedBackend):
            xn._transition(b, b, None, 2, [0, 1], 3, RATIONAL)
        with pytest.raises(UnsupportedBackend):
            transition_phi(d, 2, 0, 1)


def _stacked_legs(legs, n, c, backend, floor=0.0):
    """``xn._transition`` on legs (cd, l), each moving the chart data cd
    from its own chart cd.m to chart l."""
    return xn._transition(
        np.stack([cd.B.entries for cd, _ in legs]),
        np.stack([cd.E.entries for cd, _ in legs]),
        np.stack([cd.A2m.entries for cd, _ in legs]),
        n, [l - cd.m for cd, l in legs], c, backend, floor=floor)


def _per_leg(cd, n, l):
    try:
        return transition_phi(cd.plane(), n, cd.m, l), transition_omega(cd, n, l)
    except NotInOverlap:
        return None


def test_stacked_transition_is_the_per_leg_transition():
    """One stack mixing shift 0, right-angle and generic shifts, with legs
    off the overlap, gives transition_phi and transition_omega of every
    kept leg bit for bit and masks exactly the legs they refuse."""
    rng = rng_from_seed(36)
    c = 3        # shift +-2 is the right angle
    charts = [random_chart_data(rng, c) for _ in range(4)]
    # an eigenvalue 0 of B puts the right-angle legs off the overlap, and
    # -c_k / s_k the generic shift k
    cm, sm = angle_constants(c, 1)
    for z in (0.0, -cm / sm):
        V = random_invertible(rng, c).to_numpy()
        B = V @ np.diag([z, 1.5, -0.7]) @ np.linalg.inv(V)
        charts.append(ChartData(1, Matrix.from_numpy(B), charts[0].E,
                                charts[0].e, charts[0].A2m))
    for n in (1, 3):
        legs = [(cd, l) for cd in charts for l in range(c + 1)]
        shifts = {l - cd.m for cd, l in legs}
        assert {0, 2, -2} <= shifts and {1, -1} & shifts
        keep, b1, b2, a2 = _stacked_legs(legs, n, c, COMPLEX)
        want = [_per_leg(cd, n, l) for cd, l in legs]
        assert keep.tolist() == [w is not None for w in want]
        assert 0 < keep.sum() < len(legs)
        kept = [w for w in want if w is not None]
        for i, (phi, om) in enumerate(kept):
            assert phi.b1.entries.tobytes() == b1[i].tobytes()
            assert phi.b2.entries.tobytes() == b2[i].tobytes()
            assert (om.B, om.E) == (phi.b1, phi.b2)
            assert om.A2m.entries.tobytes() == a2[i].tobytes()
        # a floor masks the legs whose overlap margin lies below it
        floor = float(np.median([overlap_margin(cd.B, c, cd.m, l)
                                 for cd, l in legs]))
        floored, *_ = _stacked_legs(legs, n, c, COMPLEX, floor)
        assert floored.tolist() == [
            w is not None and overlap_margin(cd.B, c, cd.m, l) >= floor
            for (cd, l), w in zip(legs, want)]


@pytest.mark.parametrize("backend", [RATIONAL, GF(5)], ids=repr)
def test_stacked_transition_is_exact_at_integer_charts(backend):
    c = 3
    E = Matrix.from_rows([[0, 1, 0], [0, 3, 2], [1, 0, 1]], backend)
    e = Matrix.row_vector([1, 1, 1], backend)
    A2m = Matrix.from_rows([[1, 2, 0], [0, 1, 0], [1, 0, 1]], backend)
    charts = [ChartData(m, Matrix.diagonal(diag, backend), E, e, A2m)
              for m in (0, 1, 2, 3) for diag in ([1, 2, -1], [0, 1, 2])]
    legs = [(cd, l) for cd in charts for l in range(c + 1)
            if (l - cd.m) % 2 == 0]
    keep, b1, b2, a2 = _stacked_legs(legs, 2, c, backend)
    want = [_per_leg(cd, 2, l) for cd, l in legs]
    assert keep.tolist() == [w is not None for w in want]
    assert 0 < keep.sum() < len(legs)
    kept = [w for w in want if w is not None]
    for i, (phi, om) in enumerate(kept):
        assert (phi.b1, phi.b2, om.A2m) == (Matrix.from_rows(b1[i], backend),
                                            Matrix.from_rows(b2[i], backend),
                                            Matrix.from_rows(a2[i], backend))
    # a shift with irrational constants has no exact reading
    with pytest.raises(UnsupportedBackend):
        _stacked_legs(legs + [(charts[0], 1)], 2, c, backend)


def test_exact_transition_takes_one_elimination_per_leg(monkeypatch):
    """Each exact leg's pivot T is reduced once, as [T | 1]: the pivots
    decide whether the leg is kept and give T^-1, and no determinant is
    taken.  Four RATIONAL legs at c = 3, two of them singular (at the
    right-angle shifts +-2, T = +-b1, and b1 has an eigenvalue 0)."""
    c, n = 3, 2
    regular = np.array(Matrix.from_rows(
        [[1, 2, 0], [0, 2, 1], [Fraction(1, 3), 0, -1]], RATIONAL).entries)
    singular = np.array(Matrix.diagonal([0, 1, 2], RATIONAL).entries)
    b1 = np.stack([regular, singular, regular, singular])
    b2 = np.stack([regular.T, regular, singular, regular])
    shifts = [2, 2, -2, -2]
    calls = _count_calls(monkeypatch, "_rref", "_exact_det")
    keep, moved_b1, moved_b2, _ = xn._transition(b1, b2, None, n, shifts, c,
                                                 RATIONAL)
    assert calls == ["_rref"] * 4
    assert keep.tolist() == [True, False, True, False]
    for i, leg in enumerate((0, 2)):
        sign = shifts[leg] // 2
        T = Matrix.from_rows(sign * b1[leg], RATIONAL)
        num = Matrix.from_rows(-sign * np.eye(c, dtype=int), RATIONAL)
        want_b1 = Matrix.from_rows(moved_b1[i], RATIONAL)
        assert T @ want_b1 == num
        assert (Matrix.from_rows(moved_b2[i], RATIONAL)
                == T @ T @ Matrix.from_rows(b2[leg], RATIONAL))


#: calls with a chart index outside 0..c = 2, on (d, its chart-0 reading
#: cd, the monad of cd's plane part in chart 0)
_OUT_OF_RANGE = {
    "chart_matrices above c": lambda d, cd, mc: chart_matrices(d, 7),
    "chart_matrices below 0": lambda d, cd, mc: chart_matrices(d, -1),
    "zeta above c": lambda d, cd, mc: zeta(d, 3),
    "zeta below 0": lambda d, cd, mc: zeta(d, -1),
    "ChartData": lambda d, cd, mc: ChartData(3, cd.B, cd.E, cd.e, cd.A2m),
    "transition_phi m": lambda d, cd, mc: transition_phi(cd.plane(), 2, -1, 0),
    "transition_phi l": lambda d, cd, mc: transition_phi(cd.plane(), 2, 0, 3),
    "transition_omega": lambda d, cd, mc: transition_omega(cd, 2, 3),
    "MonadCoeffs": lambda d, cd, mc: replace(mc, m=3),
    "build_jm": lambda d, cd, mc: build_jm(cd.plane(), 2, 4),
    "reexpand_chart": lambda d, cd, mc: reexpand_chart(mc, 3),
    "gauge_normalize": lambda d, cd, mc: gauge_normalize(mc, 3),
}


@pytest.mark.parametrize("case", list(_OUT_OF_RANGE))
def test_chart_indices_are_validated(case):
    d = random_xn(rng_from_seed(36), 2, 2)
    cd = zeta(d, 0)
    mc = build_jm(cd.plane(), 2, 0)
    with pytest.raises(IndexOutOfRange,
                       match=r"^chart index -?\d+ outside 0\.\.2$"):
        _OUT_OF_RANGE[case](d, cd, mc)


def test_zeta_checks_the_chart_index_first():
    """Chart 3 of c = 2 is the angle pi, whose A2m = -A2 is singular when
    A2 is: out of range is reported before the chart's arithmetic."""
    for bk in (COMPLEX, RATIONAL):
        Z = Matrix.zeros(2, 2, bk)
        d = XnADHM(1, 2, Matrix.identity(2, bk), Z, (Z,),
                   Matrix.row_vector([1, 1], bk))
        with pytest.raises(NotInChart):
            zeta(d, 0)
        with pytest.raises(IndexOutOfRange, match=r"^chart index 3 outside"):
            zeta(d, 3)
        assert _rotate(d.A1, d.A2, 3, 2)[1] == Z


def test_rotation_and_sigma_take_relative_angles():
    # the rotation and sigma take differences of chart indices, which may lie
    # outside 0..c
    rng = rng_from_seed(37)
    d = random_xn(rng, 1, 2)
    assert _rotate(d.A1, d.A2, 3, 2)[1] == _rotate(d.A1, d.A2, 0, 2)[1].scale(-1)
    assert sigma(2, -1, 2).rows == sigma(2, 5, 2).rows == 3


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


def test_gl2_action_refuses_a_singular_gauge():
    d = random_xn(rng_from_seed(42), 2, 2)
    with pytest.raises(SingularGauge) as raised:
        gl2_action(Matrix.identity(2), Matrix.zeros(2, 2), d)
    assert str(raised.value) == "both gauge matrices must be invertible"


def test_gl2_action_chart_refuses_a_foreign_or_misshapen_gauge():
    d = random_xn(rng_from_seed(43), 2, 2)
    cd = zeta(d, cover_chart(d))
    one = Matrix.identity(2)
    with pytest.raises(BackendMismatch) as raised:
        gl2_action_chart(one, Matrix.identity(2, RATIONAL), cd)
    assert str(raised.value) == "gauge and chart data on different backends"
    with pytest.raises(ShapeMismatch) as raised:
        gl2_action_chart(one, Matrix.identity(3), cd)
    assert str(raised.value) == "gauge matrices must be c x c"


def test_gl2_action_chart_tests_phi2_without_inverting_it(monkeypatch):
    """On exact data phi1 is inverted by one ``_rref`` of [phi1 | 1] and
    phi2, which the action never inverts, is tested by the pivots of one
    ``_rref`` of phi2 alone."""
    cd = zeta(from_xn_points(2, 0, [(1, 2), (3, -1), (0, 4)], RATIONAL), 0)
    phi1 = Matrix.from_rows([[1, 2, 0], [0, 1, 0], [1, 0, 1]], RATIONAL)
    phi2 = Matrix.from_rows([[2, 0, 1], [0, 1, 0], [0, 3, 1]], RATIONAL)
    shapes = []
    rref = linalg._rref

    def recorded(a, bk):
        shapes.append(a.shape)
        return rref(a, bk)

    monkeypatch.setattr(linalg, "_rref", recorded)
    moved = gl2_action_chart(phi1, phi2, cd)
    assert shapes == [(3, 6), (3, 3)]
    monkeypatch.undo()
    assert moved.A2m == phi2 @ cd.A2m @ linalg.inverse(phi1)
    with pytest.raises(SingularGauge):
        gl2_action_chart(phi1, Matrix.zeros(3, 3, RATIONAL), cd)


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


def near_singular_pencils(rng, c):
    """(A1, A2) pairs: A2 = 0.7 A1 + eps N, and pencils with a common
    kernel vector plus eps N, for eps = 1e-4 .. 1e-13 and eps = 0."""
    def gauss():
        return rng.standard_normal((c, c)) + 1j * rng.standard_normal((c, c))

    D = np.diag([1.0] * (c - 1) + [0.0])
    for eps in [10.0 ** -k for k in range(4, 14)] + [0.0]:
        A1, N = gauss(), gauss()
        yield A1, 0.7 * A1 + eps * N
        S = gauss()
        yield gauss() @ D @ S, gauss() @ D @ S + eps * gauss()


def test_one_rule_picks_the_chart_and_decides_P2():
    """On floats the covering chart is the pencil's witness node (s_m, c_m),
    and (P2) fails exactly when no chart passes: regular, singular and
    near-singular pencils at two tolerances."""
    rng = rng_from_seed(70)
    nodes_seen = set()
    for c in range(1, 6):
        nodes = linalg._pencil_nodes(c, COMPLEX)
        pencils = [(d.A1, d.A2, d.C, d.e)
                   for d in (random_xn(rng, 2, c) for _ in range(3))]
        Z = Matrix.zeros(c, c)
        pencils += [(Matrix.from_numpy(A1), Matrix.from_numpy(A2), (Z, Z),
                     Matrix.zeros(1, c))
                    for A1, A2 in near_singular_pencils(rng, c)]
        for A1, A2, C, e in pencils:
            d = XnADHM(2, c, A1, A2, C, e)
            for tol in (None, 1e-6):
                an = analyze_pencil(A1, A2, tol)
                assert check_P2(d, tol) == an.regular
                if not an.regular:
                    with pytest.raises(NoChart):
                        cover_chart(d, tol)
                    nodes_seen.add("NoChart")
                    continue
                m = cover_chart(d, tol)
                assert an.witness == nodes[m]
                nodes_seen.add(m)
    assert "NoChart" in nodes_seen and len(nodes_seen) >= 4


@pytest.mark.parametrize("n,m", [(1, 0), (2, 1), (3, 0)])
def test_from_xn_points_single_origin(n, m):
    d = from_xn_points(n, m, [(0, 0)])
    cm, sm = angle_constants(1, m)
    assert abs(d.A1[0, 0] - sm) < 1e-14
    assert abs(d.A2[0, 0] - cm) < 1e-14
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


def test_spectral_witness_refuses_data_without_a_joint_eigenvector():
    """(P1) fails on these data, as C1 A2 = [[0, 1], [0, 0]] and
    C1 A1 = [[3, 4], [0, 0]] do not commute, and the chart pair that
    ``zeta`` reads has no joint eigenvector."""
    d = XnADHM(1, 2, Matrix.from_rows([[1, 2], [3, 4]]), Matrix.identity(2),
               (Matrix.from_rows([[0, 1], [0, 0]]),),
               Matrix.row_vector([1, 0]))
    with pytest.raises(InvalidInput) as raised:
        spectral_witness(d)
    assert str(raised.value) == (
        "no joint eigenvector; does the data satisfy (P1)?")


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


def test_chart_data_rejects_blocks_on_different_backends():
    """A complex block among rational ones, or a rational one among complex
    ones, is refused when the chart data are built, as ``XnADHM`` and
    ``PlaneADHM`` refuse it."""
    def blocks(bk):
        return [Matrix.diagonal([0, 1], bk), Matrix.diagonal([0, 2], bk),
                Matrix.row_vector([1, 1], bk), Matrix.identity(2, bk)]

    for bk, other in ((RATIONAL, COMPLEX), (COMPLEX, RATIONAL)):
        ChartData(0, *blocks(bk))
        for i in range(4):
            mixed = blocks(bk)
            mixed[i] = blocks(other)[i]
            with pytest.raises(ShapeMismatch,
                               match="blocks on different backends"):
                ChartData(0, *mixed)


def _assert_irrational_charts_refused(bk):
    """Data on the exact backend ``bk`` are refused at the irrational chart 1
    of c = 2, both into the chart and out of it; chart 0 stays exact."""
    d = XnADHM(1, 2, Matrix.diagonal([0, 1], bk), Matrix.identity(2, bk),
               (Matrix.diagonal([0, 1], bk),), Matrix.row_vector([1, 1], bk))
    A1m, A2m, _, _ = chart_matrices(d, 0)
    assert A2m == Matrix.identity(2, bk)
    cd = ChartData(1, Matrix.diagonal([0, 1], bk),
                   Matrix.diagonal([0, 2], bk),
                   Matrix.row_vector([1, 1], bk), Matrix.identity(2, bk))
    for read in (lambda: chart_matrices(d, 1), lambda: zeta(d, 1),
                 lambda: zeta_inverse(cd, 2)):
        with pytest.raises(UnsupportedBackend, match="irrational"):
            read()


def test_rational_rejects_irrational_charts():
    """Rational data are refused at an irrational chart exactly as
    prime-field data are, instead of being promoted to complex."""
    _assert_irrational_charts_refused(RATIONAL)


def test_prime_field_rejects_irrational_charts():
    _assert_irrational_charts_refused(GF(5))


@pytest.mark.parametrize("m, points, chart", [
    (0, [(0, 1), (1, 2), (3, 5)], 0),   # A2 = 1 is invertible
    # A2 = -diag(z) is singular at z = 0, and chart 1's constants are
    # irrational, so the search goes on to the integer chart 2
    (2, [(0, 1), (1, 2), (3, 5)], 2),   # singular at z = 1: chart 2 is A1
    # chart 2 is A1 = 1 on data made in chart 2: the integer chart is taken
    # although chart 1's A2m is invertible too
    (2, [(0, 1), (2, 2), (3, 5)], 2),
])
def test_cover_chart_on_rational_data(m, points, chart):
    """Over the rationals the covering chart is the first chart whose A2m
    passes the exact invertibility test among the integer charts, and the
    chart readings hold there; in the chart of the data they give its
    points exactly."""
    d = from_xn_points(2, m, points, RATIONAL)
    assert d.backend == RATIONAL and d.c == 3
    assert (det(d.A2) != 0) == (chart == 0)
    assert cover_chart(d) == chart
    assert check_P3_via_chart(d) and check_P3_direct(d)
    got_chart, got = to_xn_points(d)
    assert got_chart == chart
    if chart == m:
        assert sorted(got, key=lambda p: p[0].real) == points
    v, (l1, l2), (mu1, mu2) = spectral_witness(d)
    assert abs(l1 ** 2 * mu1 + l2 ** 2 * mu2) <= 1e-9 * max(
        1.0, abs(mu1), abs(mu2))
    pencil = l2 * d.A1.to_numpy() + l1 * d.A2.to_numpy()
    assert np.abs(pencil @ v.to_numpy()).max() <= 1e-9 * max(
        1.0, abs(l1), abs(l2))


def test_cover_chart_over_a_prime_field_takes_an_integer_chart():
    """Over GF(p) a singular A2 sends the chart search past chart 1 of
    c = 3, whose constants are irrational, to the integer chart 2, where
    ``check_P3_via_chart`` takes the exact co-stability rank of the
    reading: co-stable, and not co-stable with e = 0.  The readings that
    need floats still raise ``UnsupportedBackend``."""
    d = from_xn_points(2, 2, [(0, 1), (2, 2), (3, 5)], GF(7))
    assert det(d.A2) == 0
    assert cover_chart(d) == 2
    assert check_P3_via_chart(d)
    assert not check_P3_via_chart(replace(d, e=Matrix.zeros(1, 3, GF(7))))
    for read in (to_xn_points, spectral_witness):
        with pytest.raises(UnsupportedBackend):
            read(d)


def test_cover_chart_on_exact_data_refuses_the_irrational_charts():
    """With both integer charts of c = 3 singular (A2 at chart 0, A1 at
    chart 2) and the pencil regular, only a chart with irrational constants
    is invertible, so ``cover_chart`` raises ``UnsupportedBackend`` on both
    exact backends; the data cast to floats take chart 1."""
    for backend in (RATIONAL, GF(7)):
        Z = Matrix.zeros(3, 3, backend)
        d = XnADHM(1, 3, Matrix.diagonal([1, 0, 1], backend),
                   Matrix.diagonal([0, 1, 1], backend), (Z,),
                   Matrix.row_vector([1, 1, 1], backend))
        with pytest.raises(UnsupportedBackend):
            cover_chart(d)
        if backend is RATIONAL:
            assert cover_chart(d.cast(COMPLEX)) == 1


@pytest.mark.parametrize("backend", [RATIONAL, GF(5)], ids=repr)
@pytest.mark.parametrize("c", [2, 3])
def test_cover_chart_on_a_singular_exact_pencil_raises_NoChart(backend, c):
    """A1 = diag(1, 0, ...) and A2 = diag(2, 0, ...) fail (P2), so on exact
    data, as on floats, no chart exists: ``NoChart``, not the
    ``UnsupportedBackend`` of a regular pencil off the integer charts."""
    Z = Matrix.zeros(c, c, backend)
    d = XnADHM(1, c, Matrix.diagonal([1] + [0] * (c - 1), backend),
               Matrix.diagonal([2] + [0] * (c - 1), backend), (Z,),
               Matrix.row_vector([1] * c, backend))
    assert not check_P2(d)
    for read in (cover_chart, check_P3_via_chart):
        with pytest.raises(NoChart):
            read(d)
    if backend is RATIONAL:
        with pytest.raises(NoChart):
            cover_chart(d.cast(COMPLEX))


@pytest.mark.parametrize("m", [0, 2])
def test_spectral_witness_of_rational_data_is_that_of_its_complex_cast(m):
    """``spectral_witness`` reads the backend's chart constants, which on an
    integer chart are the float ones: rational data and their COMPLEX cast
    take the same chart and give the same witness."""
    for n in (1, 2, 3):
        d = from_xn_points(n, m, [(0, 1), (2, -1), (-3, 2)], RATIONAL)
        assert cover_chart(d) == cover_chart(d.cast(COMPLEX)) == m
        assert spectral_witness(d) == spectral_witness(d.cast(COMPLEX))


# ---------------------------------------------------------------------------
# the chart kernels on entry arrays against their Matrix expressions
# ---------------------------------------------------------------------------

def _chart_matrices_reference(d, m):
    """chart_matrices as Matrix expressions: D_m summed block by block with
    ``scale`` and ``+``, then E_m = D_m @ A2m."""
    A1m, A2m = _rotate(d.A1, d.A2, m, d.c)
    cm, sm = xn._backend_angles(d.backend, d.c, m)
    Dm = Matrix.zeros(d.c, d.c, d.backend)
    for q in range(1, d.n + 1):
        coef = math.comb(d.n - 1, q - 1) * (cm ** (d.n - q) * sm ** (q - 1))
        Dm = Dm + d.C[q - 1].scale(coef)
    return A1m, A2m, Dm @ A2m, Dm


def _zeta_reference(d, m):
    A1m, A2m, Em, _ = _chart_matrices_reference(d, m)
    if not linalg.is_invertible(A2m):
        raise NotInChart
    B = linalg.inverse(A2m) @ A1m
    return ChartData(m, B, Em, d.e, A2m)


def _zeta_inverse_reference(cd, n):
    """zeta_inverse(cd, n, check=False) as Matrix expressions, each C_q
    summed term by term with ``scale`` and ``+``."""
    c, bk = cd.c, cd.backend
    R1, R2 = _rotate(cd.B, Matrix.identity(c, bk), -cd.m, c)
    B, E, e, A = cd.B, cd.E, cd.e, cd.A2m
    if not linalg.is_invertible(A):
        raise SingularA2m
    sig = sigma(n - 1, cd.m, c, bk)
    EAinv = E @ linalg.inverse(A)
    powers = [Matrix.identity(c, bk)]
    for _ in range(n - 1):
        powers.append(powers[-1] @ B)
    Cs = []
    for q in range(n):
        Cq = Matrix.zeros(c, c, bk)
        for p in range(n):
            Cq = Cq + powers[p].scale(sig[q, p])
        Cs.append(Cq @ EAinv)
    return XnADHM(n, c, A @ R1, A @ R2, tuple(Cs), e)


def _same_entries(X, Y):
    """Equal backends and entries: the same bits on floats, the same
    canonical ``Fraction`` or residue on the exact backends."""
    if X.backend != Y.backend or X.entries.shape != Y.entries.shape:
        return False
    if not X.backend.exact:
        return X.entries.tobytes() == Y.entries.tobytes()
    return ([(type(x), x) for x in X.entries.flat]
            == [(type(y), y) for y in Y.entries.flat])


def _same_data(x, y):
    return x.n == y.n and all(
        _same_entries(X, Y) for X, Y in
        zip((x.A1, x.A2, x.e, *x.C), (y.A1, y.A2, y.e, *y.C)))


def _rational_matrix(rng, rows, cols):
    return Matrix(rows, cols, [Fraction(int(p), int(q)) for p, q in
                               zip(rng.integers(-6, 7, size=rows * cols),
                                   rng.integers(1, 5, size=rows * cols))],
                  RATIONAL)


def _chart_cases(rng):
    """(data, chart data) on floats and rationals, c = 1..4, n = 1..4: the
    chart kernels do not need the conditions to hold.  Each chart datum
    comes once more with the shared unit gauge block, which
    ``zeta_inverse`` multiplies by nowhere."""
    for c in range(1, 5):
        for n in range(1, 5):
            cd = random_chart_data(rng, c)
            floats = zeta_inverse(cd, n)
            yield floats, cd
            square = [_rational_matrix(rng, c, c) for _ in range(n + 5)]
            d = XnADHM(n, c, square[0], square[1], tuple(square[5:]),
                       _rational_matrix(rng, 1, c))
            m = int(rng.integers(0, c + 1))
            rational = ChartData(m, square[2], square[3],
                                 _rational_matrix(rng, 1, c), square[4])
            yield d, rational
            for data, chart in ((floats, cd), (d, rational)):
                yield data, replace(chart,
                                    A2m=Matrix.identity(c, chart.backend))


def test_chart_kernels_equal_their_matrix_expressions():
    """Floats to the bit, and rationals to the ``Fraction`` at the
    integer-constant charts; rationals at the other charts raise."""
    rng = rng_from_seed(90)
    kinds = set()
    for d, cd in _chart_cases(rng):
        for m in range(d.c + 1):
            if d.backend.exact and not xn._integer_chart(d.c, m):
                for read in (chart_matrices, zeta):
                    with pytest.raises(UnsupportedBackend):
                        read(d, m)
                continue
            got = chart_matrices(d, m)
            want = _chart_matrices_reference(d, m)
            assert all(_same_entries(X, Y) for X, Y in zip(got, want))
            try:
                want = _zeta_reference(d, m)
            except NotInChart:
                with pytest.raises(NotInChart):
                    zeta(d, m)
                continue
            got = zeta(d, m)
            assert all(_same_entries(X, Y) for X, Y in
                       ((got.B, want.B), (got.E, want.E), (got.e, want.e),
                        (got.A2m, want.A2m)))
            kinds.add((d.backend.kind, got.backend.kind))
        for n in range(1, 4):
            if cd.backend.exact and not xn._integer_chart(cd.c, cd.m):
                with pytest.raises(UnsupportedBackend):
                    zeta_inverse(cd, n, check=False)
                continue
            try:
                want = _zeta_inverse_reference(cd, n)
            except SingularA2m:
                with pytest.raises(SingularA2m):
                    zeta_inverse(cd, n, check=False)
                continue
            assert _same_data(zeta_inverse(cd, n, check=False), want)
    assert kinds == {("complex", "complex"), ("rational", "rational")}


#: float readings that rational data at an irrational chart used to be
#: promoted to; the data cast to COMPLEX give them now (each row a list)
_PROMOTED_READINGS = {
    "sigma(2, 1, 3)": [[0.5000000000000001, -1, 0.4999999999999999],
                       [0.5, 2.220446049250313e-16, -0.5],
                       [0.4999999999999999, 1, 0.5000000000000001]],
    "transition_phi b1": [[0.5000000000000001, 0, 0],
                          [0, 0.3333333333333334, 0],
                          [0, 0, 0.6666666666666667]],
    "transition_phi b2": [[0, 0, 0], [0, 13.499999999999996, 0],
                          [0, 0, 17.999999999999996]],
    "zeta_inverse A1": [[0.8660254037844386, 0], [0, 1.3660254037844388]],
    "zeta_inverse C2": [[0, 0], [0, 2.7320508075688776]],
    "chart_matrices A2m": [[0.6993587371177721, 0.43301270189221935],
                           [-0.4999999999999998, 1.2320508075688776]],
    "chart_matrices Dm": [[-0.4999999999999998, 0.8660254037844387],
                          [-0.21650635094610968, -0.4999999999999998]],
}


def _cast_chart(cd):
    return ChartData(cd.m, *(X.cast(COMPLEX) for X in
                             (cd.B, cd.E, cd.e, cd.A2m)))


def test_cast_data_give_the_float_readings_of_irrational_charts():
    """At every irrational chart or shift of c = 1..5, where rational data
    raise ``UnsupportedBackend``, the data cast to COMPLEX give the float
    Matrix expressions: the readings the rational data were promoted to
    before they were refused, a few of which are pinned."""
    rng = rng_from_seed(91)
    readings = 0
    for c in range(1, 6):
        irrational = [k for k in range(-c, c + 1)
                      if not xn._integer_chart(c, k)]
        for n in range(1, 4):
            square = [_rational_matrix(rng, c, c) for _ in range(n + 5)]
            d = XnADHM(n, c, square[0], square[1], tuple(square[5:]),
                       _rational_matrix(rng, 1, c))
            e = _rational_matrix(rng, 1, c)
            for m in range(c + 1):
                cd = ChartData(m, square[2], square[3], e, square[4])
                for l in range(c + 1):
                    if l - m not in irrational:
                        continue
                    cdc = _cast_chart(cd)
                    want, T = _transition_reference(cdc.plane(), n, m, l)
                    got = transition_phi(cdc.plane(), n, m, l)
                    om = transition_omega(cdc, n, l)
                    assert all(_same_entries(X, Y) for X, Y in (
                        (got.b1, want.b1), (got.b2, want.b2), (om.B, want.b1),
                        (om.E, want.b2), (om.A2m, cdc.A2m @ T)))
                    readings += 1
                if m not in irrational:
                    continue
                dc = d.cast(COMPLEX)
                assert all(_same_entries(X, Y) for X, Y in zip(
                    chart_matrices(dc, m), _chart_matrices_reference(dc, m)))
                got, want = zeta(dc, m), _zeta_reference(dc, m)
                assert (got.B, got.E, got.e, got.A2m) == (want.B, want.E,
                                                          want.e, want.A2m)
                assert _same_data(zeta_inverse(_cast_chart(cd), n, check=False),
                                  _zeta_inverse_reference(_cast_chart(cd), n))
                readings += 3
    assert readings > 200
    # the pinned readings, on the rational data they were promoted from
    Q = RATIONAL
    pinned = {"sigma(2, 1, 3)": sigma(2, 1, 3, COMPLEX)}
    d = PlaneADHM(3, Matrix.diagonal([3, 2, 5], Q),
                  Matrix.diagonal([0, 3, 1], Q), Matrix.row_vector([1, 1, 1], Q))
    phi = transition_phi(PlaneADHM(3, *(X.cast(COMPLEX) for X in
                                        (d.b1, d.b2, d.e))), 2, 0, 1)
    pinned.update({"transition_phi b1": phi.b1, "transition_phi b2": phi.b2})
    cd = ChartData(1, Matrix.diagonal([0, 1], Q), Matrix.diagonal([0, 2], Q),
                   Matrix.row_vector([1, 1], Q), Matrix.identity(2, Q))
    x = zeta_inverse(_cast_chart(cd), 2)
    pinned.update({"zeta_inverse A1": x.A1, "zeta_inverse C2": x.C[1]})
    d = XnADHM(2, 2, Matrix.from_rows([[1, Fraction(1, 2)], [0, 2]], Q),
               Matrix.from_rows([[Fraction(1, 3), 0], [1, 1]], Q),
               (Matrix.identity(2, Q),
                Matrix.from_rows([[0, 1], [Fraction(-1, 4), 0]], Q)),
               Matrix.row_vector([1, 0], Q))
    _, A2m, _, Dm = chart_matrices(d.cast(COMPLEX), 2)
    pinned.update({"chart_matrices A2m": A2m, "chart_matrices Dm": Dm})
    assert {name: M.entries.tolist() for name, M in pinned.items()} == (
        _PROMOTED_READINGS)


def _matrices(x):
    """Every Matrix in a result: itself, the items of a tuple, or the
    fields of a dataclass, recursively."""
    if isinstance(x, Matrix):
        yield x
    elif isinstance(x, tuple):
        for item in x:
            yield from _matrices(item)
    elif hasattr(x, "__dataclass_fields__"):
        for name in x.__dataclass_fields__:
            yield from _matrices(getattr(x, name))


@pytest.mark.parametrize("backend", [RATIONAL, GF(5)], ids=repr)
def test_chart_layer_stays_on_exact_backends(backend):
    """On exact data of c = 1..5, at every chart and shift, each chart-layer
    function returns data on the input's backend, or an integer chart for
    ``cover_chart``; an irrational chart or shift raises
    ``UnsupportedBackend``, and nothing else is raised but a point off a
    chart or an overlap (``NotNormalizable`` for the monad)."""
    from xnadhm.quiver import embed_xn_as_rep, u_m_residual

    results = 0
    for c in range(1, 6):
        for n in range(1, 4):
            d = from_xn_points(n, 0, [(z, (z * z + 1) % 5) for z in range(c)],
                               backend)
            cd = zeta(d, 0)
            mc = build_jm(cd.plane(), n, 0)
            rep = embed_xn_as_rep(d)
            calls = {"cover_chart": [lambda: cover_chart(d)]}
            for m in range(c + 1):
                calls[m] = [
                    lambda m=m: chart_matrices(d, m), lambda m=m: zeta(d, m),
                    lambda m=m: zeta_inverse(replace(cd, m=m), n, check=False),
                    lambda m=m: reexpand_chart(mc, m),
                    lambda m=m: gauge_normalize(reexpand_chart(mc, m), m),
                    lambda m=m: transition_omega(cd, n, m),
                    lambda m=m: transition_phi(cd.plane(), n, 0, m)]
                if n > 1:
                    calls[m].append(lambda m=m: u_m_residual(rep, m))
            for k in range(-c, c + 1):
                calls.setdefault(k, []).append(
                    lambda k=k: sigma(n, k, c, backend))
            for key, reads in calls.items():
                integer = key == "cover_chart" or xn._integer_chart(c, key)
                for read in reads:
                    if not integer:
                        with pytest.raises(UnsupportedBackend):
                            read()
                        continue
                    try:
                        got = read()
                    except (NotInChart, NotInOverlap, NotNormalizable):
                        continue
                    if key == "cover_chart":
                        assert xn._integer_chart(c, got)
                    else:
                        blocks = list(_matrices(got))
                        assert blocks and all(M.backend == backend
                                              for M in blocks)
                    results += 1
    assert results > 150


def test_prime_field_points_equal_the_matrix_route():
    """from_xn_points over GF(5) builds over the rationals and reduces; the
    rational chart dictionary is the Matrix route's, so the residues are
    too."""
    rng = rng_from_seed(91)
    gf = GF(5)
    for c in (1, 2, 3):
        for n in (1, 2, 3):
            for m in {0, (c + 1) // 2 if c % 2 else 0}:
                pts = [divmod(int(k), 5)
                       for k in rng.choice(25, size=c, replace=False)]
                got = from_xn_points(n, m, pts, gf)
                plane = PlaneADHM(
                    c, Matrix.diagonal([z for z, _ in pts], RATIONAL),
                    Matrix.diagonal([w for _, w in pts], RATIONAL),
                    Matrix.row_vector([1] * c, RATIONAL))
                want = _zeta_inverse_reference(
                    ChartData(m, plane.b1, plane.b2, plane.e,
                              Matrix.identity(c, RATIONAL)), n).cast(gf)
                assert got.backend == gf and _same_data(got, want)
                assert check_P1(got)


def test_check_P1_is_literal_on_exact_backends():
    """No tolerance reaches exact data: a 1e-30 defect fails at tol = 1."""
    d = from_xn_points(3, 0, [(1, 2), (3, -1), (0, 4)], RATIONAL)
    gf = GF(5)
    assert check_P1(d) and check_P1(d.cast(gf))
    for bk, bump in ((RATIONAL, Fraction(1, 10 ** 30)), (gf, 1)):
        x = d.cast(bk)
        bent = replace(x, C=(x.C[0] + Matrix.diagonal([bump, 0, 0], bk),
                             *x.C[1:]))
        assert not check_P1(bent, tol=1.0)


# ---------------------------------------------------------------------------
# one node SVD per configuration, one batched rank at the pencil roots
# ---------------------------------------------------------------------------

def _pencil_verdicts(d, tol):
    out = []
    for check in (check_P2, check_P3_direct, check_P3_via_chart, cover_chart):
        try:
            out.append(check(d, tol))
        except InvalidInput as exc:
            out.append(type(exc).__name__)
    return out


def test_one_node_svd_per_float_configuration(monkeypatch):
    """check_P2, check_P3_direct, check_P3_via_chart and cover_chart share
    one batched node SVD, and tol is applied when it is read: a cached
    instance gives a fresh instance's verdicts at either tol."""
    calls = []
    conditioning = linalg._conditioning
    monkeypatch.setattr(linalg, "_conditioning",
                        lambda P: calls.append(P.shape) or conditioning(P))
    rng = rng_from_seed(92)
    flips = 0
    for c in range(1, 6):
        samples = [random_xn(rng, 2, c), random_xn_e_zero(rng, 2, c)]
        Z = Matrix.zeros(c, c)
        samples += [XnADHM(2, c, Matrix.from_numpy(A1), Matrix.from_numpy(A2),
                           (Z, Z), Matrix.zeros(1, c))
                    for A1, A2 in near_singular_pencils(rng, c)]
        for d in samples:
            calls.clear()
            first = _pencil_verdicts(d, None)
            assert calls == [(c + 1, c, c)]
            loose = _pencil_verdicts(d, 1e-6)
            assert len(calls) == 1
            assert first == _pencil_verdicts(replace(d), None)
            assert loose == _pencil_verdicts(replace(d), 1e-6)
            flips += first[0] != loose[0]
    assert flips > 0


def _p3_rows_reference(d, roots):
    """The rows [P; e; N] of ``xn._p3_at_roots`` root by root, each its own
    ``np.vstack``, and the scaled (M1, M2)."""
    dd = d.cast(COMPLEX) if d.backend.exact else d
    A1, A2 = dd.A1.to_numpy(), dd.A2.to_numpy()
    M1 = dd.C[0].to_numpy() @ A2
    M2 = dd.C[d.n - 1].to_numpy() @ A1
    s_A = linalg.scale_of(dd.A1, dd.A2)
    s_M = max(1.0, np.abs(M1).max(), np.abs(M2).max())
    e = _unit(dd.e.to_numpy())
    sign = (-1) ** d.n
    rows = []
    for (nu1, nu2), _ in roots:
        l1, l2 = nu2, nu1
        P = (l2 * A1 + l1 * A2) / s_A
        N = (-l1 ** d.n * M1 + sign * l2 ** d.n * M2) / s_M
        rows.append(np.vstack((P, e, N)))
    return rows, (_unit(M1), _unit(M2))


def _p3_at_roots_reference(d, roots, tol=None):
    """``xn._p3_at_roots`` as one ``_observable`` call per root, each on
    its own rows [P; e; N]."""
    rows, mats = _p3_rows_reference(d, roots)
    thr = 10 * linalg._tol(tol)
    return all(_observable(r, mats, thr) for r in rows)


def jordan_xn(rng, n, c, violate):
    """ROADMAP item 2's non-semisimple data: b1 = zI + J and
    b2 = wI + 0.7J - 1.3J^2 for the upper shift J, a generic frame (or one
    with e_1 = 0, which sees no joint eigenvector), moved by a random gauge
    and read into chart 0 with a random A2m."""
    J = np.eye(c, k=1)
    z, w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    e = rng.standard_normal(c) + 1j * rng.standard_normal(c)
    if violate:
        e[0] = 0
    plane = PlaneADHM(c, Matrix.from_numpy(z * np.eye(c) + J),
                      Matrix.from_numpy(w * np.eye(c) + 0.7 * J - 1.3 * J @ J),
                      Matrix.row_vector(e.tolist()))
    moved = gl_action(random_invertible(rng, c), plane)
    return zeta_inverse(ChartData(0, moved.b1, moved.b2, moved.e,
                                  random_invertible(rng, c)), n, check=False)


def test_batched_rank_at_the_roots_matches_the_per_root_loop():
    """``xn._p3_root_stack`` fills every root's rows in one pass: each
    root's rows and the scaled (M1, M2) are those of the per-root
    expressions byte for byte, and the verdicts agree, on valid data, both
    roundtrip violator kinds, Jordan data and rational point data at the
    charts of the oracle workload, with and without the frame."""
    rng = rng_from_seed(93)
    seen = set()
    for c in range(2, 7):
        for n in range(1, 6):
            cases = [(random_xn(rng, n, c), True),
                     (random_xn_e_zero(rng, n, c), False),
                     (random_xn_kernel_violator(rng, n, c), False)]
            cases += [(jordan_xn(rng, n, c, violate), None)
                      for violate in (False, True)]
            if c <= 4 and n <= 3:
                pts = [(int(z), int(z) - 2 * q) for q, z in
                       enumerate(rng.permutation(9)[:c] - 4)]
                m = (c + 1) // 2 if c % 2 and n % 2 == 0 else 0
                x = from_xn_points(n, m, pts, RATIONAL)
                cases += [(x, True), (replace(x, e=Matrix.zeros(1, c, RATIONAL)),
                                      False)]
            for d, want in cases:
                roots = analyze_pencil(d.A1, d.A2).eigenvalues
                rows, mats = xn._p3_root_stack(d, roots)
                want_rows, want_mats = _p3_rows_reference(d, roots)
                assert rows.shape == (len(roots), 2 * c + 1, c)
                assert [r.tobytes() for r in rows] == \
                    [r.tobytes() for r in want_rows]
                assert [M.tobytes() for M in mats] == \
                    [M.tobytes() for M in want_mats]
                for tol in (None, 1e-6):
                    got = xn._p3_at_roots(d, roots, tol)
                    assert got == _p3_at_roots_reference(d, roots, tol)
                    if want is not None and tol is None:
                        assert got == want
                    seen.add((want, got))
    assert {(None, True), (None, False)} <= seen


def test_P3_direct_tests_every_short_root():
    """Points (0, 1), (0, 2), (-1, 0) share the pencil root of z = 0, whose
    rows [P; e; N] stay short of rank 3 under e = (1, -1, *) but grow to
    full rank; the root of z = -1 comes after it and decides."""
    B = Matrix.diagonal([0, 0, -1])
    E = Matrix.diagonal([1, 2, 0])
    for n in (1, 2, 3):
        for e3, want in ((1, True), (0, False)):
            cd = ChartData(0, B, E, Matrix.row_vector([1, -1, e3]),
                           Matrix.identity(3))
            d = zeta_inverse(cd, n, check=False)
            roots = analyze_pencil(d.A1, d.A2).eigenvalues
            assert roots == [((1, 0), 2), ((1, 1), 1)]
            assert check_P3_direct(d) == check_P3_via_chart(d) == want
            assert _p3_at_roots_reference(d, roots) == want


def _zeta_inverse_expression(cd, n):
    """``zeta_inverse`` on rational chart data as Matrix expressions:
    (A1, A2) = A2m (R1, R2) for the rotation of (B, 1) by -m, and
    C_q = (sum over p of sigma(n-1, m)[q, p] B^p) E A2m^-1."""
    c, bk = cd.c, RATIONAL
    ck, sk = xn._backend_angles(bk, c, -cd.m)
    one = Matrix.identity(c, bk)
    R1 = cd.B.scale(ck) - one.scale(sk)
    R2 = cd.B.scale(sk) + one.scale(ck)
    sig = xn.sigma(n - 1, cd.m, c, bk)
    tail = cd.E @ linalg.inverse(cd.A2m)
    C = []
    for q in range(n):
        S = Matrix.zeros(c, c, bk)
        for p in range(n):
            S = S + _power(cd.B, p).scale(sig[q, p])
        C.append(S @ tail)
    return xn.XnADHM(n, c, cd.A2m @ R1, cd.A2m @ R2, C, cd.e)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("c", [2, 3])
def test_rational_chart_dictionary_matches_matrix_expressions(n, c):
    """The exact C sum, one product sig @ [B^0; ...; B^(n-1)], gives the
    Matrix-expression data: ``from_xn_points`` at chart 0 and, for odd c,
    at the right-angle chart, and ``zeta_inverse`` on non-diagonal chart
    data with a non-trivial gauge block."""
    from xnadhm.plane import from_plane_points

    rng = np.random.default_rng(10 * n + c)

    def block():
        return Matrix(c, c, [Fraction(int(p), int(q)) for p, q in
                             zip(rng.integers(-5, 6, size=c * c),
                                 rng.integers(1, 8, size=c * c))], RATIONAL)

    charts = [0] + ([(c + 1) // 2] if c % 2 else [])
    for m in charts:
        pts = [(Fraction(2 * k - 1, 3), Fraction(k * k + 1, 4))
               for k in range(c)]
        plane = from_plane_points(pts, RATIONAL)
        cd = xn.ChartData(m, plane.b1, plane.b2, plane.e,
                          Matrix.identity(c, RATIONAL))
        d = xn.from_xn_points(n, m, pts, RATIONAL)
        assert d == _zeta_inverse_expression(cd, n)
        assert all(type(x) is Fraction for M in (d.A1, d.A2, *d.C)
                   for x in M.entries.flat)
        for _ in range(3):
            a2m = block()
            if linalg.det(a2m) == 0:
                continue
            cd = xn.ChartData(m, block(), block(),
                              Matrix.row_vector([1] * c, RATIONAL), a2m)
            assert (xn.zeta_inverse(cd, n, check=False)
                    == _zeta_inverse_expression(cd, n))


# ---------------------------------------------------------------------------
# the array cores against their public wrappers, byte for byte
# ---------------------------------------------------------------------------

def _bytes(a):
    """Entry array as comparable bytes: the raw bytes on floats, the
    (type, value) of each entry on the exact backends."""
    if a.dtype == object:
        return [(type(x), x) for x in a.flat], a.shape
    return a.tobytes(), a.shape


def _wrapper_cases():
    """Valid data, both roundtrip violator kinds and unconstrained blocks
    on COMPLEX at c = 1..5, and raw rational and GF(5) data at c = 1..5."""
    rng = rng_from_seed(280)
    for c in range(1, 6):
        n = 1 + c % 3
        yield random_xn(rng, n, c)
        yield random_xn_e_zero(rng, n + 1, c)
        yield random_xn_kernel_violator(rng, n, c)
        for bk in (RATIONAL, GF(5)):
            # denominators 1..4 are units modulo 5
            blocks = [_rational_matrix(rng, c, c).cast(bk)
                      for _ in range(n + 2)]
            e = Matrix.row_vector([1] * c, bk)
            yield XnADHM(n, c, blocks[0], blocks[1], blocks[2:], e)


def test_chart_entries_are_chart_matrices_and_zeta():
    """``_chart_entries`` equals ``chart_matrices`` and ``_chart_reading``
    equals ``zeta`` at every chart of c = 1..5 on COMPLEX and at the
    integer charts on RATIONAL and GF(5), byte for byte; both also equal
    the Matrix expressions of ``_chart_matrices_reference`` and
    ``_zeta_reference``."""
    seen = set()
    for d in _wrapper_cases():
        for m in range(d.c + 1):
            if d.backend.exact and not xn._integer_chart(d.c, m):
                continue
            arrays = xn._chart_entries(d, m)
            for got, M, R in zip(arrays, chart_matrices(d, m),
                                 _chart_matrices_reference(d, m)):
                assert _bytes(got) == _bytes(M.entries) == _bytes(R.entries)
            try:
                want = _zeta_reference(d, m)
            except NotInChart:
                for read in (zeta, xn._chart_reading):
                    with pytest.raises(NotInChart):
                        read(d, m)
                continue
            b, em, a2m = xn._chart_reading(d, m)
            cd = zeta(d, m)
            for got, M, R in ((b, cd.B, want.B), (em, cd.E, want.E),
                              (a2m, cd.A2m, want.A2m)):
                assert _bytes(got) == _bytes(M.entries) == _bytes(R.entries)
            seen.add(d.backend.kind)
    assert seen == {"complex", "rational", "gf"}


def test_kept_chart_reading_equals_a_fresh_reading():
    """The reading a configuration keeps for chart m is the one that
    ``chart_matrices`` and ``zeta`` compute on a fresh copy of it, byte for
    byte, at every chart of c = 1..5 on COMPLEX and at the integer charts
    on RATIONAL and GF(5); a second read returns the kept arrays.  A
    singular exact chart reads None, and a float chart that fails its test
    is not kept."""
    seen = set()
    for d in _wrapper_cases():
        for m in range(d.c + 1):
            if d.backend.exact and not xn._integer_chart(d.c, m):
                continue
            try:
                zeta(d, m)
            except NotInChart:
                if d.backend.exact:
                    assert d._chart_readings[m] is None
                else:
                    assert m not in d._chart_readings
                continue
            kept = d._chart_readings[m]
            assert xn._chart_reading(d, m) is kept
            fresh = replace(d)
            assert not fresh._chart_readings
            cd = zeta(fresh, m)
            _, A2m, Em, _ = chart_matrices(fresh, m)
            for got, want in ((kept[0], cd.B), (kept[1], Em), (kept[1], cd.E),
                              (kept[2], A2m), (kept[2], cd.A2m)):
                assert _bytes(got) == _bytes(want.entries)
            seen.add(d.backend.kind)
    assert seen == {"complex", "rational", "gf"}


def test_kept_chart_reading_still_applies_tol():
    """A chart read at the default tol is kept, yet a read at tol = 10
    raises ``NotInChart`` on every route; the kept reading serves the
    default tol again afterwards."""
    rng = rng_from_seed(302)
    for c in range(1, 5):
        d = random_xn(rng, 2, c)
        m = cover_chart(d)
        cd = zeta(d, m)
        kept = d._chart_readings[m]
        for read in (zeta, xn._chart_reading, to_xn_points):
            with pytest.raises(NotInChart):
                read(d, m, tol=10)
        assert xn._chart_reading(d, m) is kept
        assert zeta(d, m) == cd


def test_chart_P3_after_zeta_reads_the_chart_once(monkeypatch):
    """``zeta`` at the covering chart, then ``check_P3_via_chart``,
    ``to_xn_points`` and ``spectral_witness`` compute the chart matrices
    once: each later route reads the kept reading."""
    calls = []
    chart_entries = xn._chart_entries

    def counting(d, m):
        calls.append(m)
        return chart_entries(d, m)

    monkeypatch.setattr(xn, "_chart_entries", counting)
    d = from_xn_points(2, 0, [(0.5, 1.0), (-1.0, 2.0), (2.0, -0.5)])
    m = cover_chart(d)
    zeta(d, m)
    assert check_P3_via_chart(d)
    to_xn_points(d)
    spectral_witness(d)
    assert calls == [m]


def test_exact_chart_scan_keeps_its_reading(monkeypatch):
    """On exact data one elimination decides a chart and inverts its A2m:
    ``from_xn_points`` passes the unit gauge block and takes no ``_rref``
    and no determinant, and ``cover_chart`` scans the integer charts
    through the kept chart readings, so the first ``check_P3_via_chart``
    takes one ``_rref``, that of the covering chart's [A2m | 1], and a later
    call none; the verdict is unchanged.  The rational co-stability rank
    runs ``_fraction_free`` itself and takes no ``_rref``."""
    calls = _count_calls(monkeypatch, "_rref", "_exact_det")
    d = from_xn_points(2, 0, [(1, 2), (3, -1), (0, 4)], RATIONAL)
    assert calls == []
    for want in (1, 0, 0):
        calls.clear()
        assert check_P3_via_chart(d)
        assert calls == ["_rref"] * want
    assert cover_chart(d) == 0 and calls == []


def test_from_xn_points_multiplies_by_no_unit_block(monkeypatch):
    """``from_xn_points`` passes the shared unit gauge block, which
    ``zeta_inverse`` neither inverts nor multiplies by: no backend takes
    ``_checked_inverse``, ``_rref`` or a determinant (the exact
    co-stability rank runs ``_fraction_free`` itself), at chart 0 and
    n = 2 the one product is the stack (1, B) times E, and no operand of
    any product is an identity.  Float data still test the unit block at
    ``tol``, so ``tol = 1`` raises ``SingularA2m``."""
    products = []
    matmul = linalg._matmul

    def recorded(a, b, backend):
        products.append((a, b))
        return matmul(a, b, backend)

    monkeypatch.setattr(linalg, "_matmul", recorded)
    calls = _count_calls(monkeypatch, "_checked_inverse", "_rref",
                         "_exact_det")
    points = [(1, 2), (3, -1), (0, 4)]
    for bk in (RATIONAL, GF(5), COMPLEX):
        products.clear()
        calls.clear()
        d = from_xn_points(2, 0, points, bk)
        assert calls == []
        assert [(a.shape, b.shape) for a, b in products] == [((2, 3, 3),
                                                             (3, 3))]
        eye = np.eye(3)
        assert not any(x.ndim == 2 and np.array_equal(x.astype(complex), eye)
                       for pair in products for x in pair)
        assert check_P1(d) and check_P2(d) and check_P3_via_chart(d)
    cd = ChartData(0, Matrix.diagonal([1, 3, 0]), Matrix.diagonal([2, -1, 4]),
                   Matrix.row_vector([1, 1, 1]), Matrix.identity(3))
    with pytest.raises(SingularA2m):
        zeta_inverse(cd, 2, tol=1)
    assert zeta_inverse(cd, 2, tol=0.5, check=False).A2 == Matrix.identity(3)


def test_native_prime_field_build_equals_the_rational_detour():
    """``from_xn_points`` over GF(p) builds from the residues directly; on
    a small grid (p = 2, 3, 5, 7; c = 1..3; n = 1..3; every integer chart)
    it equals the build of the same residues over the rationals, reduced
    modulo p, entry for entry."""
    rng = rng_from_seed(36)
    compared = 0
    for p in (2, 3, 5, 7):
        for c in range(1, 4):
            for n in range(1, 4):
                for m in range(c + 1):
                    if not xn._integer_chart(c, m):
                        continue
                    cells = rng.choice(p * p, size=c, replace=False)
                    points = [(int(k) // p + p * int(rng.integers(-1, 2)),
                               int(k) % p) for k in cells]
                    residues = [(z % p, w % p) for z, w in points]
                    native = from_xn_points(n, m, points, GF(p))
                    detour = from_xn_points(n, m, residues,
                                            RATIONAL).cast(GF(p))
                    assert native == detour
                    compared += 1
    assert compared == 4 * 3 * 5
    with pytest.raises(DuplicatePoint):
        from_xn_points(2, 0, [(1, 2), (6, 7)], GF(5))


def test_exact_chart_scan_keeps_a_singular_chart(monkeypatch):
    """A singular integer chart ahead of the covering one is judged once:
    for c = 3 with det A2 = 0, the first ``check_P3_via_chart`` reads
    charts 0 and 2 with one ``_rref`` each, keeps chart 0 as None, and
    every later call makes no ``_chart_entries`` and no elimination.
    Float data keep no such verdict, since their test depends on
    ``tol``."""
    d = from_xn_points(2, 2, [(0, 1), (2, 2), (3, 5)], RATIONAL)
    calls = _count_calls(monkeypatch, "_rref", "_exact_det")
    chart_entries = xn._chart_entries

    def counting_entries(d, m):
        calls.append(m)
        return chart_entries(d, m)

    monkeypatch.setattr(xn, "_chart_entries", counting_entries)
    assert check_P3_via_chart(d)
    assert calls == [0, "_rref", 2, "_rref"]
    assert d._chart_readings[0] is None and set(d._chart_readings) == {0, 2}
    for _ in range(3):
        calls.clear()
        assert check_P3_via_chart(d) and cover_chart(d) == 2
        assert calls == []
    with pytest.raises(NotInChart):
        zeta(d, 0)
    assert calls == []
    monkeypatch.undo()
    f = d.cast(COMPLEX)
    for tol in (None, 1e-3):
        with pytest.raises(NotInChart):
            zeta(f, 0, tol)
    assert 0 not in f._chart_readings


def test_kept_chart_arrays_are_read_only():
    """Frozen by ``_chart_reading`` itself, not only when ``zeta`` wraps
    them."""
    rng = rng_from_seed(303)
    for d in (random_xn(rng, 2, 3), from_xn_points(2, 0, [(1, 2), (3, -1)],
                                                   RATIONAL)):
        assert check_P3_via_chart(d)
        for a in d._chart_readings[cover_chart(d)]:
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = a[0, 0]


def test_chart_P3_equals_T2_of_the_zeta_reading():
    """``check_P3_via_chart`` is ``check_T2`` of the covering chart's
    ``zeta`` reading, on valid data and on both roundtrip violator kinds, at
    three tolerances; on prime-field data both routes give the exact
    verdict at every tolerance."""
    rng = rng_from_seed(281)
    verdicts = []
    for c in range(1, 7):
        for n in range(1, 4):
            for make in (random_xn, random_xn_e_zero,
                         random_xn_kernel_violator):
                d = make(rng, n, c)
                for tol in (1e-6, 1e-9, 1e-12):
                    want = check_T2(zeta(d, cover_chart(d, tol),
                                         tol).plane(), tol)
                    assert check_P3_via_chart(d, tol) == want
                    verdicts.append(want)
    assert verdicts.count(True) == verdicts.count(False) // 2 > 0
    d = from_xn_points(2, 0, [(1, 2), (3, -1)], GF(5))
    for data, want in ((d, True), (replace(d, e=Matrix.zeros(1, 2, GF(5))),
                                   False)):
        for tol in (0, 1e-9, 10):
            assert check_P3_via_chart(data, tol) is want
            assert check_T2(zeta(data, cover_chart(data)).plane(), tol) is want


def _chain_defects_reference(d, f=(), e=None):
    """The (P1)/(Q1) defects relation by relation as Matrix expressions:
    for each q, A1 Cq - A2 C(q+1), then Cq A1 (+ fq e) - C(q+1) A2."""
    A1, A2, C = d.A1, d.A2, d.C
    if d.n == 1:
        return [A1 @ C[0] @ A2 - A2 @ C[0] @ A1]
    out = []
    for q in range(d.n - 1):
        out.append(A1 @ C[q] - A2 @ C[q + 1])
        left = C[q] @ A1
        if f:
            left = left + f[q] @ e
        out.append(left - C[q + 1] @ A2)
    return out


@pytest.mark.parametrize("backend", [COMPLEX, GF(5), RATIONAL])
def test_stacked_chain_defects_equal_the_per_q_reference(backend):
    """The two stacked (P1) products, and for (Q1) the f stack times e,
    give the per-q defects byte for byte, unstacked in the order of the
    relations, with and without f and e; on the rationals the stacked
    products run on the integer numerators of the blocks over one
    denominator, and the reference on ``Fraction`` entries."""
    from xnadhm.quiver import FramedRep, relation_defects
    from xnadhm.sampling import random_matrix

    rng = rng_from_seed(282)

    def block(rows, cols):
        if backend is COMPLEX:
            return random_matrix(rng, rows, cols)
        if backend is RATIONAL:
            return Matrix.from_rows(
                [[Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 8)))
                  for _ in range(cols)] for _ in range(rows)], backend)
        return Matrix.from_rows(rng.integers(0, 5, (rows, cols)).tolist(),
                                backend)

    for c in range(1, 5):
        for n in range(1, 5):
            d = XnADHM(n, c, block(c, c), block(c, c),
                       [block(c, c) for _ in range(n)], block(1, c))
            f = tuple(block(c, 1) for _ in range(n - 1))
            plain = xn._chain_defects(d.A1, d.A2, d.C)[0]
            framed = plain if n == 1 else xn._chain_defects(
                d.A1, d.A2, d.C, f, d.e)[0]
            assert len(plain) == (1 if n == 1 else 2)
            for got, want in ((plain, _chain_defects_reference(d)),
                              (framed, _chain_defects_reference(d, f, d.e))):
                if n > 1:
                    got = [D for pair in zip(*got) for D in pair]
                assert [_bytes(D) for D in got] == \
                    [_bytes(W.entries) for W in want]
            r = FramedRep(n, c, c, 1, d.A1, d.A2, d.C, d.e, f)
            want = _chain_defects_reference(d, f, d.e)
            assert [_bytes(D.entries) for D in relation_defects(r)] == \
                [_bytes(W.entries) for W in want]

