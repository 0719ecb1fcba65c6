"""Monad coefficients: composition slots, the standard immersion, chart
re-expansion, gauge action and normalization."""

import functools
import gc
import pickle
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from xnadhm import linalg, monad
from xnadhm.errors import (
    BackendMismatch,
    IndexOutOfRange,
    InvalidInput,
    NotInOverlap,
    NotNormalizable,
    ShapeMismatch,
    SingularGauge,
    UnsupportedBackend,
)
from xnadhm.linalg import (
    COMPLEX,
    GF,
    RATIONAL,
    Matrix,
    _diagonal,
    _inverse,
    _is_invertible,
    _matmul,
    _wrap,
    _zeros,
    angle_constants,
    hstack,
    inverse,
    nullspace,
    residual,
    vstack,
)
from xnadhm.monad import (
    GaugeElement,
    MonadCoeffs,
    build_jm,
    compose_residual,
    embed_gl_gauge,
    framing_residual,
    gauge_action,
    gauge_normalize,
    max_residual,
    reexpand_chart,
)
from xnadhm.plane import PlaneADHM, check_T1, from_plane_points
from xnadhm.serialize import monad_from_json, monad_to_json
from xnadhm.sampling import (
    random_costable_triple,
    random_invertible,
    random_matrix,
    random_overlap_charts,
    rng_from_seed,
)
from xnadhm.xn import sigma, transition_phi


def random_monad_coeffs(rng, n, c, m=0):
    return MonadCoeffs(
        n, c, m,
        tuple(random_matrix(rng, c, c) for _ in range(n + 2)),
        tuple(random_matrix(rng, c + 1, c) for _ in range(2)),
        tuple(random_matrix(rng, c, c) for _ in range(2)),
        tuple(random_matrix(rng, c, c + 1) for _ in range(n + 2)),
        random_matrix(rng, 2 * c + 1, 1))


def random_gauge(rng, n, c, zero_last_column=True):
    """Random gauge element; by default the polynomial block has zero last
    column so the truncated framing vector transforms faithfully."""
    psi12 = []
    for _ in range(n):
        blk = random_matrix(rng, c, c + 1)
        if zero_last_column:
            blk = hstack(blk.submatrix(range(c), range(c)),
                         Matrix.zeros(c, 1))
        psi12.append(blk)
    return GaugeElement(phi=random_invertible(rng, c),
                        psi11=random_invertible(rng, c),
                        psi12=tuple(psi12),
                        psi22=random_invertible(rng, c + 1),
                        chi=random_invertible(rng, c))


# ---------------------------------------------------------------------------
# independent oracle: formal bilinear expansion over symbolic sections
# ---------------------------------------------------------------------------

def compose_oracle(mc):
    """Multiply beta and alpha as formal sums over labelled sections.

    beta1 carries monomials ('y', i); beta2 carries ('E', q) and ('inf',);
    alpha1 carries ('E', q)/('inf',); alpha2 carries ('y', i).  Products:
    y_i * E_q -> EE_(q+i), y_i * inf -> yinf_i, E_q * y_i -> EE_(q+i),
    inf * y_i -> yinf_i.
    """
    n, c = mc.n, mc.c
    acc = {}

    def add(key, M):
        acc[key] = acc[key] + M if key in acc else M

    beta_terms = ([(("y", i), mc.beta1[i], "b1") for i in range(2)]
                  + [(("E", q), mc.beta2[q], "b2") for q in range(n + 1)]
                  + [(("inf",), mc.beta2[n + 1], "b2")])
    alpha_terms = ([(("E", q), mc.alpha1[q], "a1") for q in range(n + 1)]
                   + [(("inf",), mc.alpha1[n + 1], "a1")]
                   + [(("y", i), mc.alpha2[i], "a2") for i in range(2)])
    for bkey, B, bkind in beta_terms:
        for akey, A, akind in alpha_terms:
            if bkind == "b1" and akind != "a1":
                continue            # block pairing: beta1 acts on the k2 part
            if bkind == "b2" and akind != "a2":
                continue
            if bkey[0] == "y" and akey[0] == "E":
                add(("EE", akey[1] + bkey[1]), B @ A)
            elif bkey[0] == "y" and akey[0] == "inf":
                add(("yinf", bkey[1]), B @ A)
            elif bkey[0] == "E" and akey[0] == "y":
                add(("EE", bkey[1] + akey[1]), B @ A)
            elif bkey[0] == "inf" and akey[0] == "y":
                add(("yinf", akey[1]), B @ A)
    slots = [acc.get(("EE", q), Matrix.zeros(c, c)) for q in range(n + 2)]
    slots.append(acc.get(("yinf", 0), Matrix.zeros(c, c)))
    slots.append(acc.get(("yinf", 1), Matrix.zeros(c, c)))
    return slots


def test_compose_residual_vs_oracle():
    rng = rng_from_seed(1)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        c = int(rng.integers(1, 4))
        mc = random_monad_coeffs(rng, n, c)
        got = compose_residual(mc)
        want = compose_oracle(mc)
        assert len(got) == n + 4
        for G, W in zip(got, want):
            assert residual(G, W) < 1e-12


def test_compose_residual_zero_data():
    c, n = 2, 2
    mc = MonadCoeffs(n, c, 0,
                     tuple(Matrix.zeros(c, c) for _ in range(n + 2)),
                     tuple(Matrix.zeros(c + 1, c) for _ in range(2)),
                     tuple(Matrix.zeros(c, c) for _ in range(2)),
                     tuple(Matrix.zeros(c, c + 1) for _ in range(n + 2)),
                     Matrix.zeros(2 * c + 1, 1))
    assert max_residual(compose_residual(mc)) == 0


# ---------------------------------------------------------------------------
# the standard immersion
# ---------------------------------------------------------------------------

def test_monad_coeffs_reject_n_below_one():
    """n <= 0 raises before any other check, with blocks of the n+2 slots
    that n would ask for."""
    rng = rng_from_seed(45)
    for n in (0, -1):
        with pytest.raises(IndexOutOfRange, match=rf"^n = {n} must be >= 1$"):
            random_monad_coeffs(rng, n, 2)


def test_build_jm_rejects_n_below_one():
    plane = random_costable_triple(rng_from_seed(46), 2)
    for n in (0, -1):
        with pytest.raises(IndexOutOfRange, match=rf"^n = {n} must be >= 1$"):
            build_jm(plane, n, 0)


def test_build_jm_scalar_blocks():
    d = PlaneADHM(1, Matrix.from_rows([[0.3]]), Matrix.from_rows([[1.7]]),
                  Matrix.row_vector([1.0]))
    mc = build_jm(d, 2, 0)
    assert mc.alpha1[0].is_zero() and mc.alpha1[1].is_zero()
    assert abs(mc.alpha1[2][0, 0] - 1) < 1e-15
    assert abs(mc.alpha1[3][0, 0] - 1.7) < 1e-15
    assert abs(mc.beta1[1][0, 0] - 0.3) < 1e-15
    assert [mc.beta2[2][0, j] for j in range(2)] == [-1, 0]
    assert [mc.beta2[3][0, j] for j in range(2)] == [-1.7, 1.0]
    assert [mc.xi[i, 0] for i in range(3)] == [0, 0, 1]


def test_build_jm_composes_to_zero_iff_T1():
    rng = rng_from_seed(2)
    for _ in range(10):
        c = int(rng.integers(2, 4))
        n = int(rng.integers(1, 4))
        good = random_costable_triple(rng, c)
        mc = build_jm(good, n, int(rng.integers(0, c + 1)))
        assert max_residual(compose_residual(mc)) < 1e-12
        assert max_residual(framing_residual(mc)) == 0
        bad = PlaneADHM(c, random_matrix(rng, c, c), random_matrix(rng, c, c),
                        good.e)
        assert not check_T1(bad)
        res = compose_residual(build_jm(bad, n, 0))
        comm_defect = (bad.b2 @ bad.b1 - bad.b1 @ bad.b2).transpose()
        for q in range(n + 3):
            assert res[q].maxnorm() < 1e-12
        assert residual(res[n + 3], comm_defect) < 1e-12


def test_build_jm_beta10_invertible():
    rng = rng_from_seed(3)
    d = random_costable_triple(rng, 3)
    mc = build_jm(d, 2, 1)
    assert residual(mc.beta1[0], Matrix.identity(3)) == 0


# ---------------------------------------------------------------------------
# chart re-expansion
# ---------------------------------------------------------------------------

def test_reexpand_identity_and_roundtrip():
    rng = rng_from_seed(4)
    mc = random_monad_coeffs(rng, 2, 2, m=1)
    assert reexpand_chart(mc, 1) is mc
    back = reexpand_chart(reexpand_chart(mc, 0), 1)
    for A, B in zip(back.alpha1, mc.alpha1):
        assert residual(A, B) < 1e-10
    for A, B in zip(back.beta2, mc.beta2):
        assert residual(A, B) < 1e-10


def test_reexpand_residual_covariance():
    # residual slots transform by sigma^(n+1), the infinity pair by rotation
    rng = rng_from_seed(5)
    for _ in range(5):
        n = int(rng.integers(1, 4))
        c = int(rng.integers(1, 3))
        mc = random_monad_coeffs(rng, n, c, m=0)
        l = int(rng.integers(0, c + 1))
        before = compose_residual(mc)
        after = compose_residual(reexpand_chart(mc, l))
        sig = sigma(n + 1, l - mc.m, c)
        for q in range(n + 2):
            want = Matrix.zeros(c, c)
            for p in range(n + 2):
                want = want + before[p].scale(sig[p, q])
            assert residual(after[q], want) < 1e-9
        rot = sigma(1, l - mc.m, c)
        for i in range(2):
            want = before[n + 2].scale(rot[0, i]) + before[n + 3].scale(
                rot[1, i])
            assert residual(after[n + 2 + i], want) < 1e-9


# ---------------------------------------------------------------------------
# gauge action
# ---------------------------------------------------------------------------

def test_gauge_identity():
    rng = rng_from_seed(6)
    mc = random_monad_coeffs(rng, 2, 2)
    out = gauge_action(GaugeElement.identity(2, 2), mc)
    for A, B in zip(out.alpha1, mc.alpha1):
        assert residual(A, B) < 1e-14


def test_gauge_residual_covariance():
    # beta' alpha' = chi (beta alpha) phi^(-1), slot by slot
    rng = rng_from_seed(7)
    for _ in range(8):
        n = int(rng.integers(1, 4))
        c = int(rng.integers(1, 4))
        mc = random_monad_coeffs(rng, n, c)
        g = random_gauge(rng, n, c, zero_last_column=False)
        before = compose_residual(mc)
        after = compose_residual(gauge_action(g, mc))
        phi_inv = inverse(g.phi)
        for B, A in zip(before, after):
            want = g.chi @ B @ phi_inv
            s = max(1.0, want.maxnorm())
            assert residual(A, want) / s < 1e-9


def test_gauge_preserves_zero_residual():
    rng = rng_from_seed(8)
    for _ in range(8):
        c = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        d = random_costable_triple(rng, c)
        mc = build_jm(d, n, 0)
        g = random_gauge(rng, n, c)
        moved = gauge_action(g, mc)
        assert max_residual(compose_residual(moved)) < 1e-10
        assert max_residual(framing_residual(moved)) < 1e-10


def test_gauge_group_law_and_inverse():
    rng = rng_from_seed(9)
    n, c = 3, 2
    mc = random_monad_coeffs(rng, n, c)
    g = random_gauge(rng, n, c, zero_last_column=False)
    h = random_gauge(rng, n, c, zero_last_column=False)
    two_step = gauge_action(g, gauge_action(h, mc))
    composed = gauge_action(g.compose(h), mc)
    for A, B in zip(two_step.alpha1, composed.alpha1):
        assert residual(A, B) / max(1.0, B.maxnorm()) < 1e-9
    for A, B in zip(two_step.beta2, composed.beta2):
        assert residual(A, B) / max(1.0, B.maxnorm()) < 1e-9
    undone = gauge_action(g.inverse(), gauge_action(g, mc))
    for A, B in zip(undone.alpha1, mc.alpha1):
        assert residual(A, B) / max(1.0, B.maxnorm()) < 1e-9


def test_gauge_rejects_singular_blocks():
    rng = rng_from_seed(10)
    mc = random_monad_coeffs(rng, 1, 2)
    g = GaugeElement.identity(1, 2)
    bad = GaugeElement(phi=Matrix.zeros(2, 2), psi11=g.psi11, psi12=g.psi12,
                       psi22=g.psi22, chi=g.chi)
    with pytest.raises(SingularGauge):
        gauge_action(bad, mc)


#: a gauge that does not fit the n = 2, c = 2 rational monad of
#: ``_rational_jm``, made from the identity gauge g that fits it, and the
#: error ``gauge_action`` raises, with its message in ``_MISFIT_MESSAGES``
_MISFIT_GAUGES = {
    "short psi12": (lambda g: GaugeElement.identity(1, 2, RATIONAL),
                    ShapeMismatch),
    "long psi12": (lambda g: GaugeElement.identity(3, 2, RATIONAL),
                   ShapeMismatch),
    "phi block": (lambda g: replace(g, phi=Matrix.identity(3, RATIONAL)),
                  ShapeMismatch),
    "psi12 block": (lambda g: replace(g, psi12=(
        g.psi12[0], Matrix.zeros(2, 2, RATIONAL))), ShapeMismatch),
    "psi22 block": (lambda g: replace(g, psi22=Matrix.identity(2, RATIONAL)),
                    ShapeMismatch),
    "gauge backend": (lambda g: GaugeElement.identity(2, 2), BackendMismatch),
    "chi backend": (lambda g: replace(g, chi=Matrix.identity(2, GF(5))),
                    BackendMismatch),
}

_MISFIT_MESSAGES = {ShapeMismatch: "gauge does not fit a monad of n=2, c=2",
                    BackendMismatch: "gauge and monad on different backends"}


@pytest.mark.parametrize("case", list(_MISFIT_GAUGES))
def test_gauge_action_refuses_a_gauge_that_does_not_fit(case):
    make, error = _MISFIT_GAUGES[case]
    mc = _rational_jm()
    with pytest.raises(error) as raised:
        gauge_action(make(GaugeElement.identity(2, 2, RATIONAL)), mc)
    assert str(raised.value) == _MISFIT_MESSAGES[error]


def test_gauges_with_different_psi12_counts_do_not_compose():
    with pytest.raises(ShapeMismatch, match="^psi12 block counts differ$"):
        GaugeElement.identity(2, 2).compose(GaugeElement.identity(1, 2))


@pytest.mark.parametrize("backend", [RATIONAL, GF(7)])
def test_gauge_group_law_is_exact(backend):
    """On exact data acting with g after h equals acting with g.compose(h),
    and g.inverse() undoes g, entry for entry."""
    rng = rng_from_seed(11)
    n, c = 3, 2
    mc = build_jm(_exact_triple(c, backend), n, 0)

    def gauge():
        phi, psi11, chi = (integer_unipotent(rng, c).cast(backend)
                           for _ in range(3))
        psi12 = [Matrix.from_rows(rng.integers(-3, 4, (c, c + 1)).tolist(),
                                  backend) for _ in range(n)]
        psi22 = integer_unipotent(rng, c + 1).cast(backend)
        return GaugeElement(phi, psi11, psi12, psi22, chi.transpose())

    g, h = gauge(), gauge()
    moved = gauge_action(g, gauge_action(h, mc))
    assert moved == gauge_action(g.compose(h), mc)
    assert gauge_action(g.inverse(), gauge_action(g, mc)) == mc
    assert all(R.is_zero() for R in compose_residual(moved))


# ---------------------------------------------------------------------------
# gauge normalization
# ---------------------------------------------------------------------------

def test_normalize_fixed_point():
    rng = rng_from_seed(11)
    d = random_costable_triple(rng, 2)
    mc = build_jm(d, 2, 1)
    got, gauge = gauge_normalize(mc, 1)
    assert residual(got.b1, d.b1) < 1e-12
    assert residual(got.b2, d.b2) < 1e-12
    assert residual(got.e, d.e) < 1e-12
    for blk, ref in ((gauge.phi, Matrix.identity(2)),
                     (gauge.psi11, Matrix.identity(2)),
                     (gauge.psi22, Matrix.identity(3)),
                     (gauge.chi, Matrix.identity(2))):
        assert residual(blk, ref) < 1e-12


def test_normalize_matches_transition():
    rng = rng_from_seed(12)
    checked = 0
    while checked < 15:
        c = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        d = random_costable_triple(rng, c)
        m = int(rng.integers(0, c + 1))
        l = int(rng.integers(0, c + 1))
        try:
            expected = transition_phi(d, n, m, l)
        except NotInOverlap:
            continue
        got, gauge = gauge_normalize(reexpand_chart(build_jm(d, n, m), l), l)
        s = max(1.0, expected.b1.maxnorm(), expected.b2.maxnorm())
        assert residual(got.b1, expected.b1) / s < 1e-9
        assert residual(got.b2, expected.b2) / s < 1e-9
        assert residual(got.e, expected.e) / s < 1e-9
        assert residual(gauge.chi, Matrix.identity(c)) < 1e-9
        checked += 1


def normal_form_defects(mc):
    """Differences between the blocks the chart normal form fixes and their
    values: beta1[0] = 1, beta2[q < n] = 0, alpha1[n] = 1,
    alpha2[0] = (1; 0), beta2[n] = (-1, 0) and xi = (0, ..., 0, 1)."""
    n, c, bk = mc.n, mc.c, mc.backend
    ident = Matrix.identity(c, bk)
    fixed = [(mc.beta1[0], ident), (mc.alpha1[n], ident),
             (mc.alpha2[0], vstack(ident, Matrix.zeros(1, c, bk))),
             (mc.beta2[n], hstack(-ident, Matrix.zeros(c, 1, bk))),
             (mc.xi, Matrix.col_vector([bk.zero] * (2 * c) + [bk.one], bk))]
    fixed += [(mc.beta2[q], Matrix.zeros(c, c + 1, bk)) for q in range(n)]
    return [A - B for A, B in fixed]


def normal_form_triple(mc):
    """(b1, b2, e) as the normal form shows them: beta1 y2-slot, alpha1
    s_inf slot and the frame column of the beta2 s_inf slot, transposed."""
    return (mc.beta1[1].transpose(), mc.alpha1[mc.n + 1].transpose(),
            mc.beta2[mc.n + 1].column(mc.c).transpose())


def test_normalize_gauge_reaches_normal_form():
    # odd trials first move the chart-m point by a random gauge
    rng = rng_from_seed(16)
    for trial in range(16):
        c = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        d = random_costable_triple(rng, c)
        m, l = random_overlap_charts(rng, d.b1, c)
        mc = build_jm(d, n, m)
        if trial % 2:
            mc = gauge_action(random_gauge(rng, n, c), mc)
        plane, g = gauge_normalize(mc, l)
        normal = gauge_action(g, reexpand_chart(mc, l))
        assert max_residual(normal_form_defects(normal)) < 1e-9
        for got, want in zip((plane.b1, plane.b2, plane.e),
                             normal_form_triple(normal)):
            assert residual(got, want) / max(1.0, want.maxnorm()) < 1e-9


def integer_unipotent(rng, k):
    return Matrix.from_rows(
        [[1 if i == j else int(rng.integers(-2, 3)) if j > i else 0
          for j in range(k)] for i in range(k)], RATIONAL)


@pytest.mark.parametrize("m, l", [(0, 0), (1, 1), (2, 0), (0, 2)])
def test_normalize_gauge_reaches_normal_form_exactly(m, l):
    # c = 3 charts 0 and 2 are at a right angle: all constants are integers
    c, n = 3, 2
    d = PlaneADHM(c, Matrix.diagonal([1, 2, -1], RATIONAL),
                  Matrix.diagonal([0, 3, 1], RATIONAL),
                  Matrix.row_vector([1, 1, 1], RATIONAL))
    rng = rng_from_seed(17)
    psi12 = tuple(hstack(integer_unipotent(rng, c), Matrix.zeros(c, 1, RATIONAL))
                  for _ in range(n))
    moved = GaugeElement(phi=integer_unipotent(rng, c),
                         psi11=integer_unipotent(rng, c).transpose(),
                         psi12=psi12, psi22=integer_unipotent(rng, c + 1),
                         chi=integer_unipotent(rng, c).transpose())
    mc = gauge_action(moved, build_jm(d, n, m))
    plane, g = gauge_normalize(mc, l)
    assert g.chi == Matrix.identity(c, RATIONAL)
    normal = gauge_action(g, reexpand_chart(mc, l))
    assert normal.backend is RATIONAL
    assert all(D.is_zero() for D in normal_form_defects(normal))
    assert (plane.b1, plane.b2, plane.e) == normal_form_triple(normal)


def test_normalize_failure_messages():
    # step 1: an eigenvalue of b1 on the chart-overlap divisor
    c, n, m, l = 2, 2, 1, 0
    cd, sd = angle_constants(c, m - l)
    d = PlaneADHM(c, Matrix.diagonal([cd / sd, 0.3]),
                  Matrix.diagonal([1.0, 2.0]), Matrix.row_vector([1.0, 1.0]))
    with pytest.raises(NotNormalizable,
                       match=r"^step 1: beta1 y1-coefficient is singular$"):
        gauge_normalize(build_jm(d, n, m), l)
    # step 4: xi does not enter the composition residual, so replacing it
    # keeps a monad point
    mc = build_jm(d, n, m)
    size = 2 * c + 1
    for entries, detail in (
            ({}, "framing vector vanishes"),
            ({0: 1}, "frame slot vanishes"),
            ({c: 1, size - 1: 1}, "framing vector is not supported on the "
                                  "frame slot")):
        xi = Matrix.col_vector([entries.get(i, 0) for i in range(size)])
        with pytest.raises(NotNormalizable, match=f"^step 4: {detail}$"):
            gauge_normalize(replace(mc, xi=xi), m)


def test_normalize_gauge_matches_closed_form():
    # the unique chi = 1 gauge in closed form: phi = d1^-(n-1), psi11 = d1,
    # psi22 = diag(d1^-n, 1), psi12 slot q = -sum_p sigma_(q-p) (-d2 d1^-1)^p
    # with sigma_q the top-row entries of sigma^n_(l-m) and
    # d1 = c_(m-l) - s_(m-l) t(b1), d2 = s_(m-l) + c_(m-l) t(b1)
    rng = rng_from_seed(13)
    checked = 0
    while checked < 10:
        c = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        d = random_costable_triple(rng, c)
        m = int(rng.integers(0, c + 1))
        l = int(rng.integers(0, c + 1))
        try:
            transition_phi(d, n, m, l)
        except NotInOverlap:
            continue
        _, gauge = gauge_normalize(reexpand_chart(build_jm(d, n, m), l), l)
        cd, sd = angle_constants(c, m - l)
        tb1 = d.b1.transpose()
        ident = Matrix.identity(c)

        def power(M, k):
            return functools.reduce(Matrix.__matmul__, [M] * k, ident)

        d1 = ident.scale(cd) - tb1.scale(sd)
        d2 = ident.scale(sd) + tb1.scale(cd)
        sig = sigma(n, l - m, c)
        core = -(d2 @ inverse(d1))
        assert residual(gauge.phi, inverse(power(d1, n - 1))) < 1e-9
        assert residual(gauge.psi11, d1) < 1e-9
        top = inverse(power(d1, n))
        psi22 = Matrix.from_rows(
            [[top[i, j] for j in range(c)] + [0] for i in range(c)]
            + [[0] * c + [1]])
        assert residual(gauge.psi22, psi22) < 1e-8
        for q in range(n):
            acc = Matrix.zeros(c, c)
            for p in range(q + 1):
                acc = acc + power(core, p).scale(sig[n, q - p])
            want = hstack(-acc, Matrix.zeros(c, 1))
            assert residual(gauge.psi12[q], want) / max(
                1.0, want.maxnorm()) < 1e-8
        checked += 1


def test_normalize_boundary_raises():
    # place an eigenvalue of b1 exactly on the chart-overlap divisor
    c, n, m, l = 2, 2, 1, 0
    cd, sd = angle_constants(c, m - l)
    z = cd / sd
    d = PlaneADHM(c, Matrix.diagonal([z, 0.3]), Matrix.diagonal([1.0, 2.0]),
                  Matrix.row_vector([1.0, 1.0]))
    with pytest.raises(NotNormalizable):
        gauge_normalize(build_jm(d, n, m), l)
    with pytest.raises(NotInOverlap):
        transition_phi(d, n, m, l)


def test_normalize_scalar_hand_pipeline():
    z, w, ev = 0.42 + 0.13j, -0.9 + 0.4j, 1.0
    n, m, l = 2, 0, 1
    d = PlaneADHM(1, Matrix.from_rows([[z]]), Matrix.from_rows([[w]]),
                  Matrix.row_vector([ev]))
    got, _ = gauge_normalize(reexpand_chart(build_jm(d, n, m), l), l)
    cd, sd = angle_constants(1, m - l)
    assert abs(got.b1[0, 0] - (sd + cd * z) / (cd - sd * z)) < 1e-12
    assert abs(got.b2[0, 0] - (cd - sd * z) ** n * w) < 1e-12
    assert abs(got.e[0, 0] - ev) < 1e-12


def test_normalize_rejects_non_monad_points():
    rng = rng_from_seed(14)
    mc = random_monad_coeffs(rng, 2, 2)
    with pytest.raises(InvalidInput):
        gauge_normalize(mc, 0)


def test_embed_gl_gauge_tracks_base_change():
    rng = rng_from_seed(15)
    c, n = 2, 2
    d = random_costable_triple(rng, c)
    phi0 = random_invertible(rng, c)
    mc = build_jm(d, n, 0)
    moved = gauge_action(embed_gl_gauge(phi0, n), mc)
    from xnadhm.plane import gl_action
    want = build_jm(gl_action(phi0, d), n, 0)
    for A, B in zip(moved.alpha1, want.alpha1):
        assert residual(A, B) / max(1.0, B.maxnorm()) < 1e-10
    for A, B in zip(moved.beta2, want.beta2):
        assert residual(A, B) / max(1.0, B.maxnorm()) < 1e-10


# ---------------------------------------------------------------------------
# the array kernel against the Matrix-level composition of the step gauges
# ---------------------------------------------------------------------------

def diag_one(T):
    """The Matrix diag(T, 1)."""
    c, bk = T.rows, T.backend
    return vstack(hstack(T, Matrix.zeros(c, 1, bk)),
                  hstack(Matrix.zeros(1, c, bk), Matrix.identity(1, bk)))


def reference_gauge_normalize(mc, l):
    """``gauge_normalize`` on valid data, written with Matrix operations:
    the four step gauges composed by ``GaugeElement.compose`` and closed by
    the base-change gauge (T, diag(T, T, 1), T) of T = beta1[0], the gauge
    that ``embed_gl_gauge`` gives for the transpose of T^-1."""
    mc0 = reexpand_chart(mc, l)
    n, c, bk = mc0.n, mc0.c, mc0.backend
    ident = Matrix.identity(c, bk)
    no_psi12 = tuple(Matrix.zeros(c, c + 1, bk) for _ in range(n))

    def gauge(phi=ident, psi22=Matrix.identity(c + 1, bk), chi=ident,
              psi12=no_psi12):
        return GaugeElement(phi=phi, psi11=ident, psi12=psi12,
                            psi22=psi22, chi=chi)

    b10_inv = inverse(mc0.beta1[0])
    Qs = []
    prev = Matrix.zeros(c, c + 1, bk)
    for q in range(n):
        prev = -(b10_inv @ (mc0.beta2[q] + mc0.beta1[1] @ prev))
        Qs.append(prev)
    g1 = gauge(chi=b10_inv, psi12=tuple(-q for q in Qs))
    a1n = mc0.alpha1[n] - prev @ mc0.alpha2[1]
    g2 = gauge(phi=a1n)
    a1n_inv = inverse(a1n)
    a20 = mc0.alpha2[0] @ a1n_inv
    if bk.exact:
        r = nullspace(a20.transpose()).column(0).transpose()
        pivot = max(range(a20.rows), key=lambda j: abs(complex(r[0, j])))
        r = r.scale(bk.inv(r[0, pivot]))
    else:
        vec = np.linalg.svd(a20.to_numpy())[0][:, -1].conj()
        r = Matrix.from_numpy(
            (vec / vec[np.argmax(np.abs(vec))]).reshape(1, -1))
    top = b10_inv @ (mc0.beta2[n] + mc0.beta1[1] @ prev)
    psi22_3 = vstack(-top, r)
    xi2 = mc0.xi.submatrix(range(c, 2 * c + 1), [0])
    omega = (psi22_3 @ xi2)[c, 0]
    psi22_4 = Matrix.diagonal([bk.one] * c + [bk.inv(omega)], bk)
    g_raw = (gauge(psi22=psi22_4).compose(gauge(psi22=psi22_3))
             .compose(g2).compose(g1))
    T = mc0.beta1[0]
    g5 = GaugeElement(phi=T, psi11=T, psi12=no_psi12, psi22=diag_one(T),
                      chi=T)
    g_total = g5.compose(g_raw)
    T_inv = b10_inv
    b1 = g_total.chi @ mc0.beta1[1] @ T_inv
    b2 = T @ mc0.alpha1[n + 1] @ a1n_inv @ T_inv
    e = (g_total.chi @ mc0.beta2[n + 1] @ inverse(psi22_3)).column(c)
    return PlaneADHM(c, b1.transpose(), b2.transpose(),
                     e.scale(omega).transpose()), g_total


def _blocks(plane, g):
    return [plane.b1, plane.b2, plane.e, g.phi, g.psi11, *g.psi12, g.psi22,
            g.chi]


def test_normalize_kernel_matches_the_composed_gauges():
    # odd trials first move the chart-m point by a random gauge
    rng = rng_from_seed(18)
    for c in range(1, 5):
        for n in range(1, 5):
            for trial in range(4):
                d = random_costable_triple(rng, c)
                m, l = random_overlap_charts(rng, d.b1, c)
                mc = build_jm(d, n, m)
                if trial % 2:
                    mc = gauge_action(random_gauge(rng, n, c), mc)
                got = _blocks(*gauge_normalize(mc, l))
                assert all(A.backend is COMPLEX for A in got)
                # float equality: only the sign of a zero may differ
                assert got == _blocks(*reference_gauge_normalize(mc, l))


# charts with integer constants: all of them for c = 1; for c = 3 the
# pairs at a right angle or equal
INTEGER_CHARTS = [(1, 0, 0), (1, 0, 1), (1, 1, 0), (3, 0, 2), (3, 2, 0),
                  (3, 1, 3), (3, 3, 1), (3, 1, 1)]


def integer_monad(c, n, m, backend, rng, moved):
    """build_jm of an integer co-stable triple over ``backend``, and its
    image under an integer unipotent gauge if ``moved``."""
    d = PlaneADHM(c, Matrix.diagonal([1, 2, -1][:c], backend),
                  Matrix.diagonal([0, 3, 1][:c], backend),
                  Matrix.row_vector([1] * c, backend))
    mc = build_jm(d, n, m)
    if moved:
        psi12 = tuple(hstack(integer_unipotent(rng, c),
                             Matrix.zeros(c, 1, RATIONAL)).cast(backend)
                      for _ in range(n))
        mc = gauge_action(GaugeElement(
            phi=integer_unipotent(rng, c).cast(backend),
            psi11=integer_unipotent(rng, c).transpose().cast(backend),
            psi12=psi12, psi22=integer_unipotent(rng, c + 1).cast(backend),
            chi=integer_unipotent(rng, c).transpose().cast(backend)), mc)
    return d, mc


@pytest.mark.parametrize("c, m, l", INTEGER_CHARTS)
@pytest.mark.parametrize("backend", [RATIONAL, GF(5)], ids=repr)
def test_normalize_kernel_is_exact(backend, c, m, l):
    """On the rationals the kernel equals the composed gauges; over GF(5),
    where the Matrix-level route had no norm to test against, it reaches the
    normal form and, on an unmoved point, the chart transition."""
    rng = rng_from_seed(19)
    for n in (1, 2, 3):
        for moved in (False, True):
            d, mc = integer_monad(c, n, m, backend, rng, moved)
            plane, g = gauge_normalize(mc, l)
            assert plane.backend == backend
            assert g.chi == Matrix.identity(c, backend)
            if backend is RATIONAL:
                assert _blocks(plane, g) == _blocks(
                    *reference_gauge_normalize(mc, l))
            normal = gauge_action(g, reexpand_chart(mc, l))
            assert all(D.is_zero() for D in normal_form_defects(normal))
            assert (plane.b1, plane.b2, plane.e) == normal_form_triple(normal)
            if not moved:
                want = transition_phi(d, n, m, l)
                assert (plane.b1, plane.b2, plane.e) == (want.b1, want.b2,
                                                         want.e)


def _rational_jm():
    d = PlaneADHM(2, Matrix.diagonal([1, 2], RATIONAL),
                  Matrix.diagonal([0, 3], RATIONAL),
                  Matrix.row_vector([1, 1], RATIONAL))
    return build_jm(d, 2, 0)


def _shift_entry(M, i, j, delta):
    rows = M.entries.tolist()
    rows[i][j] += delta
    return Matrix.from_rows(rows, M.backend)


def test_exact_normalize_tests_beta_alpha_literally():
    mc = _rational_jm()
    n = mc.n
    bad = replace(mc, alpha1=mc.alpha1[:n + 1]
                  + (_shift_entry(mc.alpha1[n + 1], 0, 0, Fraction(1, 10**14)),))
    assert max_residual(compose_residual(bad)) == 1e-14
    with pytest.raises(InvalidInput, match="not a monad point"):
        gauge_normalize(bad, 0)
    # the complex path keeps its tolerance
    blocks = [[M.cast(COMPLEX) for M in getattr(bad, f)]
              for f in ("alpha1", "alpha2", "beta1", "beta2")]
    gauge_normalize(MonadCoeffs(n, 2, 0, *blocks, bad.xi.cast(COMPLEX)), 0)


@pytest.mark.parametrize("backend", [RATIONAL, GF(5)], ids=repr)
def test_exact_normalize_tests_the_framing_support_literally(backend):
    mc = _rational_jm()
    # a residue has no size: any nonzero entry is as far off as 10^-14
    tiny = backend.coerce(Fraction(1, 10**14) if backend is RATIONAL else 1)
    xi = _shift_entry(mc.xi, 0, 0, tiny).cast(backend)
    blocks = [[M.cast(backend) for M in getattr(mc, f)]
              for f in ("alpha1", "alpha2", "beta1", "beta2")]
    moved = MonadCoeffs(mc.n, mc.c, mc.m, *blocks, xi)
    with pytest.raises(NotNormalizable, match="^step 4: framing vector is "
                       "not supported on the frame slot$"):
        gauge_normalize(moved, 0)
    # the same entry alone in the frame slot is a valid framing
    xi = Matrix.col_vector([0, 0, 0, 0, tiny], backend)
    gauge_normalize(replace(moved, xi=xi), 0)


def test_prime_field_normalize_refuses_non_monad_points():
    mc = _rational_jm()
    blocks = [[M.cast(GF(5)) for M in getattr(mc, f)]
              for f in ("alpha1", "alpha2", "beta1", "beta2")]
    blocks[0][0] = _shift_entry(blocks[0][0], 0, 0, 1)
    with pytest.raises(InvalidInput, match="not a monad point"):
        gauge_normalize(MonadCoeffs(2, 2, 0, *blocks, mc.xi.cast(GF(5))), 0)


def test_gauge_normalize_holds_no_tuple_blocks():
    # tuple(generator) leaves one allocator block per tuple in CPython's free
    # lists until a full collection: 1,200 normalizations held about 3,300
    # blocks that way; built from lists they hold about a hundred
    rng = rng_from_seed(40)
    cases = []
    for n in (1, 2, 3):
        for c in (2, 3):
            d = random_costable_triple(rng, c)
            m, l = random_overlap_charts(rng, d.b1, c)
            cases.append((reexpand_chart(build_jm(d, n, m), l), l))
    for mc, l in cases:
        gauge_normalize(mc, l)
    gc.collect()
    before = sys.getallocatedblocks()
    for i in range(1200):
        gauge_normalize(*cases[i % len(cases)])
    assert sys.getallocatedblocks() - before < 400


# ---------------------------------------------------------------------------
# the stacked kernels against their per-slot and per-block references
# ---------------------------------------------------------------------------

def per_slot_compose_residual(mc):
    """``compose_residual`` as one sum of ``linalg._matmul`` products per
    slot, a term whose slot lies outside 0..n left out."""
    n, bk = mc.n, mc.backend
    a1, a2, b1, b2 = mc.stacks
    A1, B2 = ([None, *xs[:n + 1], None] for xs in (a1, b2))   # slot q at q+1

    def total(*pairs):
        prods = [_matmul(b, a, bk) for b, a in pairs
                 if a is not None and b is not None]
        return _wrap(functools.reduce(lambda x, y: bk.reduce(x + y), prods),
                     bk)

    out = [total((b1[0], A1[q + 1]), (b1[1], A1[q]), (B2[q + 1], a2[0]),
                 (B2[q], a2[1])) for q in range(n + 2)]
    out.append(total((b1[0], a1[n + 1]), (b2[n + 1], a2[0])))
    out.append(total((b1[1], a1[n + 1]), (b2[n + 1], a2[1])))
    return out


def test_compose_stack_matches_the_per_slot_sums():
    rng = rng_from_seed(41)
    monads = []
    for c in range(1, 5):
        for n in range(1, 5):
            d = random_costable_triple(rng, c)
            mc = build_jm(d, n, int(rng.integers(0, c + 1)))
            monads += [random_monad_coeffs(rng, n, c), mc,
                       gauge_action(random_gauge(rng, n, c), mc)]
    for backend in (RATIONAL, GF(5)):
        for c, m, _ in INTEGER_CHARTS:
            for n in (1, 2, 3):
                monads += [integer_monad(c, n, m, backend, rng, moved)[1]
                           for moved in (False, True)]
    for mc in monads:
        got = compose_residual(mc)
        assert len(got) == mc.n + 4
        assert got == per_slot_compose_residual(mc)


def per_q_sigma_mix(coeffs, shift, c_count, backend):
    """``monad._sigma_mix`` as one sum over p per output slot q."""
    h = len(coeffs) - 1
    sig = sigma(h, shift, c_count, backend).entries
    red, coerce = backend.reduce, backend.coerce
    out = []
    for q in range(h + 1):
        acc = red(coerce(sig.item(0, q)) * coeffs[0])
        for p in range(1, h + 1):
            acc = red(acc + red(coerce(sig.item(p, q)) * coeffs[p]))
        out.append(_wrap(acc, backend))
    return tuple(out)


def test_sigma_mix_broadcast_matches_the_per_q_loop():
    rng = rng_from_seed(42)
    for c in range(1, 5):
        for h in range(5):
            for shift in range(-c, c + 1):
                for rows, cols in ((c, c), (c + 1, c), (c, c + 1)):
                    coeffs = np.stack([random_matrix(rng, rows, cols).entries
                                       for _ in range(h + 1)])
                    got = monad._sigma_mix(coeffs, shift, c, COMPLEX)
                    want = per_q_sigma_mix(coeffs, shift, c, COMPLEX)
                    assert [G.tobytes() for G in got] == [
                        W.entries.tobytes() for W in want]
    # exact data at integer constants, and the refusal of irrational ones
    for backend in (RATIONAL, GF(5)):
        for c, m, l in INTEGER_CHARTS:
            coeffs = np.stack([integer_unipotent(rng, c).cast(backend).entries
                               for _ in range(3)])
            assert [_wrap(G, backend) for G in monad._sigma_mix(
                coeffs, l - m, c, backend)] == list(
                    per_q_sigma_mix(coeffs, l - m, c, backend))
    coeffs = np.stack([Matrix.identity(2, RATIONAL).entries] * 2)
    errors = []
    for mix in (monad._sigma_mix, per_q_sigma_mix):
        with pytest.raises(UnsupportedBackend) as info:
            mix(coeffs, 1, 2, RATIONAL)
        errors.append(str(info.value))
    assert errors[0] == errors[1]


def _signed_zeros(rng, shape):
    """Complex entries of which about half are zeros, each zero's real and
    imaginary part +0.0 or -0.0 at random."""
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    zero = rng.random(shape) < 0.5
    a[zero] = 0.0
    a.real[zero & (rng.random(shape) < 0.5)] = -0.0
    a.imag[zero & (rng.random(shape) < 0.5)] = -0.0
    return a


@pytest.mark.parametrize("backend", [COMPLEX, RATIONAL, GF(5)], ids=repr)
def test_sigma_mix_keeps_the_sign_of_zero(backend):
    """The one-pass ``_sigma_mix`` equals the per-term loop on stacks whose
    entries are mostly zeros, of both signs on floats, and at sigma
    matrices with zero entries: byte for byte on floats, entry for entry
    with the entry types on the exact backends.  The shapes include the
    paired stacks (c, 2c + 1) and (2c + 1, c) that ``reexpand_chart`` mixes
    in one pass.  A sum that starts from +0 (``np.sum``) turns a sum of -0
    terms into +0 and fails here."""
    rng = rng_from_seed(48)
    charts = ([(c, 0, l) for c in range(1, 5) for l in range(c + 1)]
              if backend is COMPLEX else INTEGER_CHARTS)
    zero_weights = 0
    for c, m, l in charts:
        for h in range(5):
            zero_weights += not sigma(h, l - m, c, backend).entries.all()
            for rows, cols in ((c, c), (c + 1, c), (c, c + 1),
                               (c, 2 * c + 1), (2 * c + 1, c)):
                shape = (h + 1, rows, cols)
                if backend is COMPLEX:
                    coeffs = _signed_zeros(rng, shape)
                else:
                    ints = rng.integers(-2, 3, size=shape)
                    ints[rng.random(shape) < 0.5] = 0
                    coeffs = np.array(
                        [Matrix(rows, cols, F.ravel().tolist(),
                                backend).entries for F in ints])
                got = monad._sigma_mix(coeffs, l - m, c, backend)
                want = per_q_sigma_mix(coeffs, l - m, c, backend)
                assert [_entry_image(G) for G in got] == [
                    _entry_image(W.entries) for W in want]
    assert zero_weights > 0


# ---------------------------------------------------------------------------
# the coefficient stacks against the per-Matrix build_jm and reexpand_chart
# ---------------------------------------------------------------------------

def reference_build_jm(d, n, m):
    """``build_jm`` block by block: each coefficient a Matrix, the lists
    handed to the public constructor."""
    c, bk = d.c, d.backend
    ident = Matrix.identity(c, bk)
    tb1, tb2 = d.b1.transpose(), d.b2.transpose()
    zero_row = _zeros((1, c), bk)
    alpha2 = [_wrap(np.concatenate((M.entries, zero_row)), bk)
              for M in (ident, tb1)]
    beta2 = (Matrix.zeros(c, c + 1, bk),) * n + (
        _wrap(np.concatenate((bk.reduce(-ident.entries), _zeros((c, 1), bk)),
                             axis=1), bk),
        _wrap(np.concatenate((bk.reduce(-tb2.entries), d.e.entries.T),
                             axis=1), bk))
    xi = _zeros((2 * c + 1, 1), bk)
    xi[2 * c, 0] = bk.one
    alpha1 = (Matrix.zeros(c, c, bk),) * n + (ident, tb2)
    return MonadCoeffs(n, c, m, alpha1, alpha2, (ident, tb1), beta2,
                       _wrap(xi, bk))


def reference_reexpand_chart(mc, l):
    """``reexpand_chart`` block by block: the mixed lists as Matrices from
    ``per_q_sigma_mix``, handed to the public constructor."""
    if l == mc.m:
        return mc
    n = mc.n

    def mix(blocks):
        return per_q_sigma_mix([M.entries for M in blocks], l - mc.m, mc.c,
                               mc.backend)
    return MonadCoeffs(n, mc.c, l, mix(mc.alpha1[:n + 1]) + mc.alpha1[n + 1:],
                       mix(mc.alpha2), mix(mc.beta1),
                       mix(mc.beta2[:n + 1]) + mc.beta2[n + 1:], mc.xi)


def _entry_image(arr):
    """Bytes on floats; on the exact backends each entry with its type."""
    if arr.dtype == complex:
        return arr.shape, arr.tobytes()
    return arr.shape, [(type(x), x) for x in arr.flat]


def assert_same_monad(got, want):
    """``got``'s stacks hold ``want``'s blocks (byte for byte on floats),
    read-only; its Matrix fields, made on first read and then kept, equal
    ``want``'s; so do ``==``, ``replace``, the JSON round trip and
    ``compose_residual``."""
    assert (got.n, got.c, got.m, got.backend) == (want.n, want.c, want.m,
                                                   want.backend)
    fields = ("alpha1", "alpha2", "beta1", "beta2")
    for stack, field in zip(got.stacks, fields):
        assert not stack.flags.writeable
        blocks = getattr(want, field)
        assert _entry_image(stack) == _entry_image(
            np.stack([M.entries for M in blocks]))
        assert getattr(got, field) is getattr(got, field)
        assert [_entry_image(M.entries) for M in getattr(got, field)] == [
            _entry_image(M.entries) for M in blocks]
    assert _entry_image(got.xi.entries) == _entry_image(want.xi.entries)
    assert got == want
    xi = got.xi.scale(2)
    assert replace(got, xi=xi) == replace(want, xi=xi) != got
    assert monad_to_json(got) == monad_to_json(want)
    assert monad_from_json(monad_to_json(got)) == got
    assert [_entry_image(R.entries) for R in compose_residual(got)] == [
        _entry_image(R.entries) for R in compose_residual(want)]


def _exact_triple(c, backend):
    return PlaneADHM(c, Matrix.diagonal([1, 2, -1, 3][:c], backend),
                     Matrix.diagonal([0, 3, 1, 2][:c], backend),
                     Matrix.row_vector([1] * c, backend))


def _reexpanded(reexpand, mc, l):
    """``reexpand(mc, l)``, or the type and message of what it raises."""
    try:
        return reexpand(mc, l)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("backend", [COMPLEX, RATIONAL, GF(5)], ids=repr)
def test_stacks_match_the_per_matrix_build_and_reexpansion(backend):
    """For n, c = 1..4 and every chart pair (m, l): build_jm, a gauge-moved
    image of it (on floats) and its chart-l re-expansion equal the
    per-Matrix route's.  Exact data at a chart pair with irrational
    constants raises the same error on both routes."""
    rng = rng_from_seed(46)
    refused = 0
    for c in range(1, 5):
        for n in range(1, 5):
            if backend is COMPLEX:
                d = random_costable_triple(rng, c)
            else:
                d = _exact_triple(c, backend)
            for m in range(c + 1):
                mc = build_jm(d, n, m)
                assert_same_monad(mc, reference_build_jm(d, n, m))
                points = [mc]
                if backend is COMPLEX:
                    points.append(gauge_action(random_gauge(rng, n, c), mc))
                for point in points:
                    for l in range(c + 1):
                        got = _reexpanded(reexpand_chart, point, l)
                        want = _reexpanded(reference_reexpand_chart, point, l)
                        if isinstance(want, tuple):
                            assert got == want
                            refused += 1
                        else:
                            assert_same_monad(got, want)
    assert (refused > 0) == backend.exact


def test_the_normalization_chain_leaves_the_matrix_fields_unmade():
    """build_jm, reexpand_chart and gauge_normalize read and write only the
    stacks: no tuple of Matrices is made on the way, and of the composite
    gauge only chi is made."""
    rng = rng_from_seed(47)
    for c in (1, 2, 3):
        d = random_costable_triple(rng, c)
        m, l = random_overlap_charts(rng, d.b1, c)
        mc = build_jm(d, 2, m)
        moved = reexpand_chart(mc, l)
        _, gauge = gauge_normalize(moved, l)
        for point in (mc, moved):
            assert not {"alpha1", "alpha2", "beta1", "beta2"} & set(
                vars(point))
        assert not MADE_ON_READ & set(vars(gauge))


#: the blocks of a composite gauge from gauge_normalize made on first read
MADE_ON_READ = {"phi", "psi11", "psi12", "psi22"}

GAUGE_FIELDS = ("phi", "psi11", "psi12", "psi22", "chi")


def _normalizable(backend):
    """A monad point off chart l that normalizes into chart l, and l: a
    gauge-moved image of build_jm on every backend."""
    if backend is COMPLEX:
        rng = rng_from_seed(49)
        d = random_costable_triple(rng, 3)
        m, l = random_overlap_charts(rng, d.b1, 3)
        return gauge_action(random_gauge(rng, 2, 3), build_jm(d, 2, m)), l
    return integer_monad(3, 2, 0, backend, rng_from_seed(49), True)[1], 2


@pytest.mark.parametrize("backend", [COMPLEX, RATIONAL, GF(5)], ids=repr)
def test_the_composite_made_on_read_is_a_gauge_value(backend):
    """Before any of its blocks is read, a composite from
    ``gauge_normalize`` gives under ``==``, ``hash``, ``repr``,
    ``dataclasses.replace``, a pickle round trip and ``gauge_action`` what
    the ``GaugeElement`` built from its five blocks gives; the pickled copy
    makes its blocks on read too."""
    mc, l = _normalizable(backend)

    def fresh():
        g = gauge_normalize(mc, l)[1]
        assert not MADE_ON_READ & set(vars(g))
        return g

    built = fresh()
    eager = GaugeElement(*(getattr(built, f) for f in GAUGE_FIELDS))
    assert built == eager and MADE_ON_READ <= set(vars(built))
    assert fresh() == eager and eager == fresh() and fresh() != replace(
        eager, chi=eager.chi.scale(2))
    assert hash(fresh()) == hash(eager)
    assert repr(fresh()) == repr(eager)
    chi = eager.chi.scale(3)
    assert replace(fresh(), chi=chi) == replace(eager, chi=chi)
    copy = pickle.loads(pickle.dumps(fresh()))
    assert not MADE_ON_READ & set(vars(copy))
    assert copy == eager and hash(copy) == hash(eager)
    assert all(getattr(copy, f).backend is backend
               for f in ("phi", "psi11", "psi22", "chi"))
    assert pickle.loads(pickle.dumps(eager)) == eager
    point = reexpand_chart(mc, l)
    assert gauge_action(fresh(), point) == gauge_action(eager, point)


def test_the_composite_makes_each_product_on_first_read(monkeypatch):
    """With ``_matmul`` counted, reading chi or psi11 of a composite makes
    no product, reading phi one (T a1n), psi12 one (T Ps, all slots at
    once) and psi22 two (diag(T, 1) psi22_4 psi22_3), and a second read
    none: ``gauge_normalize`` itself makes none of them."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return _matmul(*args, **kwargs)

    monkeypatch.setattr(monad, "_matmul", counted)
    for backend in (COMPLEX, RATIONAL, GF(5)):
        mc, l = _normalizable(backend)
        _, g = gauge_normalize(mc, l)
        made = []
        for field in ("chi", "psi11", "phi", "psi12", "psi22", *GAUGE_FIELDS):
            calls.clear()
            getattr(g, field)
            made.append(len(calls))
        assert made == [0, 0, 1, 1, 2, 0, 0, 0, 0, 0]


def test_the_composite_makes_psi22_from_t_one_over_omega_and_psi22_3(
        monkeypatch):
    """The composite keeps T, 1/omega and psi22_3, not diag(T, 1) and
    psi22_4 = diag(1, ..., 1, 1/omega): with ``_diagonal`` counted, a
    normalization whose block tests are all away from their ties makes no
    diagonal array, and reading psi22 makes the two and gives
    diag(T, 1) psi22_4 psi22_3 of the Matrices built from the factors."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return _diagonal(*args, **kwargs)

    monkeypatch.setattr(monad, "_diagonal", counted)
    for backend in (COMPLEX, RATIONAL, GF(5)):
        mc, l = _normalizable(backend)
        calls.clear()
        _, g = gauge_normalize(mc, l)
        assert calls == []
        T, _, _, w, psi22_3, bk = g._factors
        c = len(T)
        psi22_4 = Matrix.diagonal([bk.one] * c + [w], bk)
        want = diag_one(_wrap(T.copy(), bk)) @ (
            psi22_4 @ _wrap(psi22_3.copy(), bk))
        assert g.psi22 == want and len(calls) == 2


def per_block_gauge_normalize(mc, l, tol=None):
    """``gauge_normalize`` with one relative ``_is_invertible`` test per
    gauge block that a step introduces, on every backend: chi = b10^-1,
    psi22_4, phi = T and psi22 = diag(T, 1), each in the step that makes it,
    and the guard from the per-slot residual.  T = b10 and T^-1 = b10^-1,
    as in the kernel."""
    bk = mc.backend
    exact = bk.exact
    t = 0.0 if exact else linalg._tol(tol)
    blocks = [*mc.alpha1, *mc.alpha2, *mc.beta1, *mc.beta2]
    scale = 1.0 if exact else max(1.0, *(M.maxnorm() for M in blocks)) ** 2
    if max(monad._size(R.entries, exact)
           for R in per_slot_compose_residual(mc)) > scale * 1e3 * t:
        raise InvalidInput("not a monad point: beta o alpha != 0")
    mc0 = reexpand_chart(mc, l)
    n, c = mc0.n, mc0.c
    red = bk.reduce
    a1, a2, b1, b2 = mc0.stacks
    check = functools.partial(monad._check_gauge_block, backend=bk, tol=tol)

    def prod(*arrays):
        return functools.reduce(lambda x, y: _matmul(x, y, bk), arrays)

    # each block is inverted once a test has found it invertible: by the
    # LAPACK kernel on floats
    inv = functools.partial(_inverse, backend=bk) if exact else linalg._inv
    monad._require(_is_invertible(b1[0], bk, tol), 1,
                   "beta1 y1-coefficient is singular")
    b10_inv = inv(b1[0])
    check(b10_inv, name="chi")
    Ps = []
    prev = _zeros((c, c + 1), bk)
    for q in range(n):
        Ps.append(prod(b10_inv, red(b2[q] + prod(b1[1], prev))))
        prev = red(-Ps[-1])
    a1n = red(a1[n] - prod(prev, a2[1]))
    monad._require(_is_invertible(a1n, bk, tol, rel=True), 2,
                   "top alpha1 coefficient is singular")
    a1n_inv = inv(a1n)
    r = monad._left_null_row(prod(a2[0], a1n_inv), bk, tol)
    top = prod(b10_inv, red(b2[n] + prod(b1[1], prev)))
    psi22_3 = np.concatenate((red(-top), r))
    monad._require(_is_invertible(psi22_3, bk, tol, rel=True), 3,
                   "pivot block is singular")
    xi = mc0.xi.entries
    xi1, xi2 = xi[:c], prod(psi22_3, xi[c:])
    omega = xi2.item(c, 0)
    off = max(monad._size(xi1, exact), monad._size(xi2[:c], exact))
    scale = max(off, monad._size(xi2[c:], exact))
    monad._require(scale > 0, 4, "framing vector vanishes")
    monad._require(monad._size(xi2[c:], exact) > t * scale, 4,
                   "frame slot vanishes")
    monad._require(off <= 1e3 * t * scale, 4,
                   "framing vector is not supported on the frame slot")
    psi22_4 = _diagonal([bk.one] * c + [bk.inv(omega)], bk)
    check(psi22_4, name="psi22")
    T = b1[0]
    check(T, name="phi")
    diag_T = _diagonal([bk.one] * (c + 1), bk)
    diag_T[:c, :c] = T
    check(diag_T, name="psi22")
    chi = prod(T, b10_inv)
    g_total = GaugeElement(
        phi=_wrap(prod(T, a1n), bk), psi11=_wrap(T, bk),
        psi12=[_wrap(prod(T, P), bk) for P in Ps],
        psi22=_wrap(prod(diag_T, prod(psi22_4, psi22_3)), bk),
        chi=_wrap(chi, bk))
    T_inv = b10_inv
    b1_out = prod(chi, b1[1], T_inv)
    b2_out = prod(T, a1[n + 1], a1n_inv, T_inv)
    e = red(omega * prod(chi, b2[n + 1], inv(psi22_3))[:, [c]])
    return PlaneADHM(c, _wrap(b1_out.T, bk), _wrap(b2_out.T, bk),
                     _wrap(e.T, bk)), g_total


def _outcome(normalize, mc, l):
    """The blocks ``normalize`` returns, or its exception's type and
    message."""
    try:
        return _blocks(*normalize(mc, l))
    except Exception as exc:
        return type(exc), str(exc)


def _scaled_chi(mc, k):
    n, c = mc.n, mc.c
    g = GaugeElement.identity(n, c)
    return gauge_action(replace(g, chi=Matrix.identity(c).scale(10.0 ** k)),
                        mc)


def test_merged_block_tests_keep_the_per_block_verdicts():
    """One SVD of T for chi, phi and diag(T, 1), and psi22_4 in closed form,
    give each case the per-block route's exception and message, or its
    output: chi = 10^k 1 for k = -12..12, and the frame slot of xi at 10^k
    for k = -14..14 in steps of 0.5, in the chart of the point and in
    another.  At the tie omega = 1e-9 the point normalizes; at chi = 1e9 1
    it is refused, since T = b10 = 1e9 1 exactly and diag(T, 1), of
    condition number exactly 1 / tol, fails the strict relative test."""
    rng = rng_from_seed(43)
    failures = set()
    for c, n in ((2, 2), (3, 1)):
        d = random_costable_triple(rng, c)
        m, l = random_overlap_charts(rng, d.b1, c)
        mc = build_jm(d, n, m)
        cases = [(_scaled_chi(mc, k), j) for k in range(-12, 13)
                 for j in (m, l)]
        frame = [0.0] * (2 * c) + [1.0]
        cases += [(replace(mc, xi=Matrix.col_vector(frame).scale(
            10.0 ** (k / 2))), j) for k in range(-28, 29) for j in (m, l)]
        for case in cases:
            got = _outcome(gauge_normalize, *case)
            assert got == _outcome(per_block_gauge_normalize, *case)
            if isinstance(got, tuple):
                failures.add(got)
        gauge_normalize(replace(mc, xi=Matrix.col_vector(frame).scale(1e-9)),
                        m)
        with pytest.raises(SingularGauge, match="psi22"):
            gauge_normalize(_scaled_chi(mc, 9), m)
    assert failures == {
        (NotNormalizable, "step 1: beta1 y1-coefficient is singular"),
        (SingularGauge, "gauge block psi22 is singular")}


def _chi_moved(mc, chi):
    """The gauge action of chi alone, chi beta, without ``gauge_action``'s
    test of chi, which refuses a block at the ties below."""
    def moved(blocks):
        return tuple(_wrap(chi @ B.entries, COMPLEX) for B in blocks)
    return replace(mc, beta1=moved(mc.beta1), beta2=moved(mc.beta2))


def _tilted(rng, c):
    """s -> 2 U diag(1, ..., 1, s) V for random unitary U and V: largest
    singular value 2 and max-norm below 2, so step 1's absolute test passes
    a little below s = tol, where the relative tests of chi and phi tie."""
    U, V = (np.linalg.qr(rng.normal(size=(c, c))
                         + 1j * rng.normal(size=(c, c)))[0] for _ in "UV")
    return lambda s: (2 * U * np.r_[[1.0] * (c - 1), s]) @ V


def _step_one_tie(tilted):
    """s at which ``tilted(s)``, of smallest singular value 2 s, ties step
    1's absolute test s_min > tol max(1, max-norm)."""
    s = 1e-9
    for _ in range(5):
        s = 1e-9 * np.abs(tilted(s)).max() / 2
    return s


def test_block_tests_near_their_ties_keep_the_per_block_verdicts():
    """Where the merged tests read singular values off another matrix than
    the block (chi, phi and diag(T, 1) off b10, psi22_4 off its entry), a
    tie is decided by the block's own SVD: every case gives the per-block
    route's exception and message, or its output.  The cases straddle each
    tie: step 1's absolute test at b10 = chi of smallest singular value
    tol max-norm (1 + j 5e-9) and chi of condition number 1e9 (1 + j 5e-9),
    where step 1 passes, for |j| <= 60; the same at 1e9 (1 + j 5e-10),
    where chi passes and phi = T may not; T = 1e9 (1 + j eps) 1 and the
    frame slot at 1e-9 (1 + j eps) for |j| <= 40, and a coarse chi sweep in
    two charts.  Each of the step 1, chi, phi and psi22 refusals occurs;
    phi, which reads step 1's SVD of T = b10, refuses only where chi's own
    SVD passes, which the third sweep reaches at c = 3."""
    rng = rng_from_seed(45)
    eps = np.finfo(float).eps
    outcomes, third = set(), set()
    for c, n in ((2, 2), (3, 1)):
        d = random_costable_triple(rng, c)
        m, l = random_overlap_charts(rng, d.b1, c)
        mc = build_jm(d, n, m)
        tilted = _tilted(rng, c)
        tie = _step_one_tie(tilted)
        cases = [(_chi_moved(mc, tilted(s * (1 + j * step))), m)
                 for s, step in ((tie, 5e-9), (1e-9, 5e-9), (1e-9, 5e-10))
                 for j in range(-60, 61)]
        cases += [(_chi_moved(mc, tilted(10.0 ** (-k / 2))), i)
                  for k in range(14, 23) for i in (m, l)]
        cases += [(_chi_moved(mc, np.eye(c) * 1e9 * (1 + j * eps) + 0j), m)
                  for j in range(-40, 41)]
        frame = [0.0] * (2 * c) + [1.0]
        cases += [(replace(mc, xi=Matrix.col_vector(frame).scale(
            1e-9 * (1 + j * eps))), m) for j in range(-40, 41)]
        results = []
        for case in cases:
            got = _outcome(gauge_normalize, *case)
            assert got == _outcome(per_block_gauge_normalize, *case)
            results.append(got if isinstance(got, tuple) else "normalized")
        # the first sweep straddles step 1's tie, the third phi's
        assert set(results[:121]) == {
            (NotNormalizable, "step 1: beta1 y1-coefficient is singular"),
            (SingularGauge, "gauge block chi is singular")}
        third.update(results[242:363])
        outcomes.update(results)
    assert (SingularGauge, "gauge block phi is singular") in third
    assert outcomes == {
        "normalized",
        (NotNormalizable, "step 1: beta1 y1-coefficient is singular"),
        (SingularGauge, "gauge block chi is singular"),
        (SingularGauge, "gauge block phi is singular"),
        (SingularGauge, "gauge block psi22 is singular")}


def test_one_float_normalization_runs_four_svds_and_three_inverses(
        monkeypatch):
    """The SVDs of b10, a1n, the left null row and psi22_3, and the
    inverses of b10, a1n and psi22_3: T = b10 and T^-1 = b10^-1 are read
    off, not inverted; the per-block route runs 8 SVDs and 3 inverses.  The calls are counted at the LAPACK
    kernels: ``_svdvals`` and ``_svd`` are SVDs, ``_inv`` inverses."""
    calls = []

    def counted(name, kernel):
        fn = getattr(linalg, kernel)

        def call(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return call

    for name, kernel in (("svd", "_svdvals"), ("svd", "_svd"),
                         ("inv", "_inv")):
        monkeypatch.setattr(linalg, kernel, counted(name, kernel))
    rng = rng_from_seed(44)
    for c in (1, 2, 3):
        d = random_costable_triple(rng, c)
        m, l = random_overlap_charts(rng, d.b1, c)
        mc = reexpand_chart(build_jm(d, 2, m), l)
        for normalize, svds in ((gauge_normalize, 4),
                                (per_block_gauge_normalize, 8)):
            calls.clear()
            normalize(mc, l)
            assert (calls.count("svd"), calls.count("inv")) == (svds, 3)


def test_one_exact_normalization_runs_four_eliminations(monkeypatch):
    """On exact data each pivot test is the elimination that inverts the
    pivot: one ``_rref`` each for b10, a1n, the left null row and psi22_3,
    and no determinant; T = b10 and T^-1 = b10^-1 are read off, not
    eliminated."""
    mc = build_jm(from_plane_points([(1, 2), (3, -1), (0, 4)], RATIONAL),
                  2, 0)
    calls = []
    for name in ("_rref", "_exact_det"):
        def counted(*args, _fn=getattr(linalg, name), _name=name):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(linalg, name, counted)
    gauge_normalize(mc, 0)
    assert calls == ["_rref"] * 4


def test_float_frame_tests_at_tol_zero():
    """Step 4 on float data at ``tol = 0``: a framing vector exactly on the
    frame slot normalizes, since its off-slot size 0 passes the threshold
    0, and a frame slot that is exactly 0 fails as a vanishing frame slot
    before the support test."""
    mc = build_jm(from_plane_points([(1, 2), (3, -1), (0, 4)]), 2, 0)
    plane, _ = gauge_normalize(mc, 0, tol=0)
    assert plane.e == Matrix.row_vector([1, 1, 1])
    xi = [0] * (2 * 3 + 1)
    xi[0] = 1
    with pytest.raises(NotNormalizable, match="frame slot vanishes"):
        gauge_normalize(replace(mc, xi=Matrix.col_vector(xi)), 0, tol=0)


def test_monad_coeffs_refuses_blocks_on_different_backends():
    mc = _rational_jm()
    fields = ("alpha1", "alpha2", "beta1", "beta2")
    for field, backend in (("beta1", GF(5)), ("alpha1", COMPLEX),
                           ("xi", COMPLEX), ("xi", GF(5))):
        if field == "xi":
            moved = {"xi": mc.xi.cast(backend)}
        else:
            blocks = list(getattr(mc, field))
            blocks[0] = blocks[0].cast(backend)
            moved = {field: tuple(blocks)}
        with pytest.raises(ShapeMismatch,
                           match="^blocks on different backends$"):
            replace(mc, **moved)
    # one backend throughout is a monad datum
    blocks = [[M.cast(GF(5)) for M in getattr(mc, f)] for f in fields]
    MonadCoeffs(mc.n, mc.c, mc.m, *blocks, mc.xi.cast(GF(5)))


def _first_replaced(blocks, M):
    return (M, *blocks[1:])


#: one malformed field of the n = 2, c = 2 rational monad of
#: ``_rational_jm``, and the refusal it meets
_MALFORMED_MONADS = {
    "alpha1 slots": (lambda mc: {"alpha1": mc.alpha1[:-1]},
                     "alpha1/beta2 need n+2 coefficient slots"),
    "beta1 pair": (lambda mc: {"beta1": mc.beta1 + mc.beta1[:1]},
                   "alpha2/beta1 are coefficient pairs"),
    "alpha1 block": (lambda mc: {"alpha1": _first_replaced(
        mc.alpha1, Matrix.zeros(2, 3, RATIONAL))},
        "alpha1 blocks must be k2 x k1"),
    "alpha2 block": (lambda mc: {"alpha2": _first_replaced(
        mc.alpha2, Matrix.zeros(2, 2, RATIONAL))},
        "alpha2 blocks must be k4 x k1"),
    "beta1 block": (lambda mc: {"beta1": _first_replaced(
        mc.beta1, Matrix.zeros(2, 3, RATIONAL))},
        "beta1 blocks must be k3 x k2"),
    "beta2 block": (lambda mc: {"beta2": _first_replaced(
        mc.beta2, Matrix.zeros(2, 2, RATIONAL))},
        "beta2 blocks must be k3 x k4"),
    "xi": (lambda mc: {"xi": Matrix.zeros(4, 1, RATIONAL)},
           "xi must have length k2 + k4"),
}


@pytest.mark.parametrize("case", list(_MALFORMED_MONADS))
def test_monad_coeffs_refuse_a_malformed_field(case):
    field, message = _MALFORMED_MONADS[case]
    mc = _rational_jm()
    with pytest.raises(ShapeMismatch) as raised:
        replace(mc, **field(mc))
    assert str(raised.value) == message
