"""Pencil regularity, minimal polynomial solutions, and the image-dimension
criterion they control."""

import math
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from xnadhm import linalg, pencil
from xnadhm.errors import BackendMismatch, ShapeMismatch, UnsupportedBackend
from xnadhm.linalg import (
    COMPLEX,
    GF,
    RATIONAL,
    Matrix,
    chordal_distance,
    det,
    hstack,
    inverse,
    pencil_det_poly,
    projective_roots,
    rank,
)
from xnadhm.pencil import analyze_pencil, check_Q3star
from xnadhm.xn import XnADHM, check_P2


def staircase_pencil(rng, eps, eps_row, reg, conjugate=True):
    """Square pencil whose only column minimal index is eps, padded by a
    transposed row block and a regular tail, then conjugated."""
    rows = eps + (eps_row + 1) + reg
    cols = (eps + 1) + eps_row + reg
    assert rows == cols
    A1 = np.zeros((rows, cols), complex)
    A2 = np.zeros((rows, cols), complex)
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
    if conjugate:
        while True:
            P = rng.standard_normal((rows, rows)) + 1j * rng.standard_normal((rows, rows))
            Q = rng.standard_normal((cols, cols)) + 1j * rng.standard_normal((cols, cols))
            if np.linalg.cond(P) < 50 and np.linalg.cond(Q) < 50:
                break
        A1, A2 = P @ A1 @ Q, P @ A2 @ Q
    return Matrix.from_numpy(A1), Matrix.from_numpy(A2)


def chain_residual(A1, A2, vs):
    eps = len(vs) - 1
    worst = (A1 @ vs[0]).maxnorm()
    for q in range(1, eps + 1):
        worst = max(worst, (A2 @ vs[q - 1] - A1 @ vs[q]).maxnorm())
    return max(worst, (A2 @ vs[eps]).maxnorm())


def test_regular_identity_zero():
    an = analyze_pencil(Matrix.identity(3), Matrix.zeros(3, 3))
    assert an.regular and an.witness is not None
    assert an.minimal_index is None
    # spectrum: det(nu1 I) = nu1^3, the triple root [0:1]
    assert len(an.eigenvalues) == 1
    (a, b), mult = an.eigenvalues[0]
    assert mult == 3 and abs(a) < 1e-9 and abs(b - 1) < 1e-9


def test_singular_embedded_block():
    A1 = Matrix.from_rows([[1, 0], [0, 0]])
    A2 = Matrix.from_rows([[0, 1], [0, 0]])
    an = analyze_pencil(A1, A2)
    assert not an.regular and an.minimal_index == 1
    v0, v1 = an.minimal_solution
    assert chain_residual(A1, A2, [v0, v1]) < 1e-12
    # the chain is spanned by v0 = (0, 1), v1 = (1, 0) up to one scale
    t = v1[0, 0]
    assert abs(t) > 0.1
    assert abs(v0[0, 0]) < 1e-12 and abs(v0[1, 0] - t) < 1e-12
    assert abs(v1[1, 0]) < 1e-12


def test_singular_common_kernel():
    A = Matrix.diagonal([1, 0])
    an = analyze_pencil(A, A)
    assert not an.regular and an.minimal_index == 0
    v0 = an.minimal_solution[0]
    assert (A @ v0).maxnorm() < 1e-12
    assert abs(v0[0, 0]) < 1e-12 and abs(v0[1, 0]) > 0.1


def test_exact_backends_agree():
    A1 = Matrix.from_rows([[1, 0], [0, 0]], RATIONAL)
    A2 = Matrix.from_rows([[0, 1], [0, 0]], RATIONAL)
    an = analyze_pencil(A1, A2)
    assert not an.regular and an.minimal_index == 1
    assert all(r == 0 for r in an.chain_residuals) or not an.chain_residuals
    gf = GF(5)
    an5 = analyze_pencil(A1.cast(gf), A2.cast(gf))
    assert not an5.regular and an5.minimal_index == 1


@pytest.mark.parametrize("eps", [0, 1, 2])
def test_known_minimal_index_recovered(eps):
    rng = np.random.default_rng(100 + eps)
    for _ in range(5):
        A1, A2 = staircase_pencil(rng, eps, eps + 1, 1)
        an = analyze_pencil(A1, A2)
        assert not an.regular
        assert an.minimal_index == eps
        assert chain_residual(A1, A2, an.minimal_solution) <= 1e-9
        span = hstack(*an.minimal_solution)
        assert rank(span) == eps + 1          # chain vectors independent
        assert not check_Q3star(A1, A2, span)  # constructive converse


def test_regular_pencil_satisfies_q3star_randomly():
    rng = np.random.default_rng(17)
    c = 4
    A1 = Matrix.from_numpy(rng.standard_normal((c, c)))
    A2 = Matrix.from_numpy(rng.standard_normal((c, c)))
    assert analyze_pencil(A1, A2).regular
    for _ in range(50):
        k = int(rng.integers(1, c + 1))
        S0 = Matrix.from_numpy(rng.standard_normal((c, k)))
        assert check_Q3star(A1, A2, S0)


def test_q3star_zero_pencil_fails():
    Z = Matrix.zeros(2, 2)
    S0 = Matrix.from_rows([[1], [0]])
    assert not check_Q3star(Z, Z, S0)


def test_minimality_eps_search_is_increasing():
    # chain system for eps-1 must have no solution when eps is reported
    rng = np.random.default_rng(55)
    A1, A2 = staircase_pencil(rng, 2, 3, 1)
    from xnadhm.pencil import _staircase
    from xnadhm.linalg import nullspace

    an = analyze_pencil(A1, A2)
    assert an.minimal_index == 2
    assert nullspace(_staircase(A1, A2, 1)).cols == 0


@pytest.mark.parametrize("backend", [COMPLEX, RATIONAL, GF(5)], ids=repr)
def test_empty_pencil_is_regular(backend):
    an = analyze_pencil(Matrix.zeros(0, 0, backend), Matrix.identity(0, backend))
    assert an.regular and an.witness is not None
    if backend.kind != "gf":
        assert an.eigenvalues == []


def interpolated_roots(A1, A2):
    """Reference spectrum by a second route: interpolate the determinant
    form at the c+1 chart nodes and root it, as the rational backend does."""
    return projective_roots(pencil_det_poly(A1, A2))


def assert_same_roots(got, want, dist=1e-6):
    assert sum(k for _, k in got) == sum(k for _, k in want)
    for pt, mult in got:
        hits = [k for q, k in want if chordal_distance(pt, q) <= dist]
        assert hits == [mult], (pt, mult, want)


def gaussian(rng, c, singular=False):
    a = rng.standard_normal((c, c)) + 1j * rng.standard_normal((c, c))
    if singular:
        a[:, -1] = a[:, :-1] @ rng.standard_normal(c - 1)
    return a


@pytest.mark.parametrize("c", range(1, 9))
def test_float_spectrum_matches_interpolation(c):
    """Random regular pencils, and pencils with a root at [1:0] (singular
    A1) or at [0:1] (singular A2)."""
    rng = np.random.default_rng(200 + c)
    for kind in ("generic", "root at [1:0]", "root at [0:1]"):
        for _ in range(5):
            a1 = gaussian(rng, c, singular=kind == "root at [1:0]")
            a2 = gaussian(rng, c, singular=kind == "root at [0:1]")
            A1, A2 = Matrix.from_numpy(a1), Matrix.from_numpy(a2)
            an = analyze_pencil(A1, A2)
            assert an.regular
            assert all(type(x) is complex for pt, _ in an.eigenvalues for x in pt)
            assert_same_roots(an.eigenvalues, interpolated_roots(A1, A2))
            axis = {"root at [1:0]": (1, 0), "root at [0:1]": (0, 1)}.get(kind)
            if axis is not None:
                assert any(chordal_distance(pt, axis) <= 1e-9
                           for pt, _ in an.eigenvalues)


def test_float_spectrum_points_are_normalized():
    # det(nu1 I + nu2 diag(0, 2)) = nu1 (nu1 + 2 nu2): roots [0:1], [1:-1/2]
    an = analyze_pencil(Matrix.identity(2), Matrix.diagonal([0, 2]))
    (p, k), (q, m) = an.eigenvalues
    assert k == m == 1
    assert repr(p) == repr((0j, 1 + 0j))      # no -0j, no numpy scalars
    assert q[0] == 1 and abs(q[1] + 0.5) < 1e-15
    assert all(type(x) is complex for x in p + q)


@pytest.mark.parametrize("c", [10, 12])
def test_float_spectrum_keeps_clustered_double_roots(c):
    """Semisimple pencils V diag(z) W, V W with z[1] = z[0]: the double
    root [1 : -z[0]] must come back once with multiplicity 2.  Rooting the
    interpolated determinant form (``interpolated_roots``) misses that on 3
    of these 30 draws at c = 10 and 4 at c = 12."""
    rng = np.random.default_rng(300 + c)
    for _ in range(30):
        z = rng.standard_normal(c) + 1j * rng.standard_normal(c)
        z[1] = z[0]
        V, W = gaussian(rng, c), gaussian(rng, c)
        an = analyze_pencil(Matrix.from_numpy(V @ np.diag(z) @ W),
                            Matrix.from_numpy(V @ W))
        assert sum(k for _, k in an.eigenvalues) == c
        assert [k for pt, k in an.eigenvalues
                if chordal_distance(pt, (1, -z[0])) <= 1e-6] == [2]


@pytest.mark.parametrize("backend", [COMPLEX, RATIONAL, GF(5)], ids=repr)
def test_check_P2_computes_no_spectrum(backend, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("check_P2 computed a pencil spectrum")

    for name in ("_merge_roots", "_solve", "_eigvals"):
        monkeypatch.setattr(linalg, name, refuse)
    monkeypatch.setattr(np, "roots", refuse)
    Z = Matrix.zeros(2, 2, backend)
    e = Matrix.row_vector([1, 1], backend)
    ident = Matrix.identity(2, backend)
    regular = XnADHM(1, 2, Matrix.diagonal([1, 2], backend), ident, (Z,), e)
    singular = XnADHM(1, 2, Matrix.diagonal([1, 0], backend),
                      Matrix.diagonal([2, 0], backend), (Z,), e)
    assert check_P2(regular) and not check_P2(singular)
    if backend.kind != "gf":        # the patches do catch a spectrum
        with pytest.raises(AssertionError, match="spectrum"):
            analyze_pencil(regular.A1, regular.A2)


def solved_det_poly(A1, A2):
    """Reference determinant form at the rational nodes (1, q), q = 0..c:
    the Vandermonde system solved afresh, with no cached inverse and no
    matrix product."""
    c = A1.rows
    nodes = [(Fraction(1), Fraction(q)) for q in range(c + 1)]
    V = Matrix.from_rows([[n2 ** q * n1 ** (c - q) for q in range(c + 1)]
                          for n1, n2 in nodes], RATIONAL)
    values = [det(A1.scale(n1) + A2.scale(n2)) for n1, n2 in nodes]
    return tuple(sum((w * v for w, v in zip(row, values)), Fraction(0))
                 for row in inverse(V).entries.tolist())


@pytest.mark.parametrize("c", range(7))
def test_rational_det_poly_matches_solved_reference(c):
    rng = np.random.default_rng(400 + c)
    for _ in range(4):
        A1, A2 = (Matrix(c, c, [Fraction(int(p), int(q)) for p, q in
                                zip(rng.integers(-6, 7, size=c * c),
                                    rng.integers(1, 5, size=c * c))],
                         RATIONAL) for _ in range(2))
        got = pencil_det_poly(A1, A2)
        assert got.backend == RATIONAL and got.degree == c
        assert got.coeffs == solved_det_poly(A1, A2)
        assert all(type(x) is Fraction for x in got.coeffs)


def shifted_pencil(backend, roots):
    """(A1, A2) = (-diag(roots), I): det(A1 + t A2) = prod(t - r), so the
    node (1, t) is singular exactly when t is one of ``roots``."""
    return (Matrix.diagonal([-r for r in roots], backend),
            Matrix.identity(len(roots), backend))


@pytest.mark.parametrize("backend", [RATIONAL, GF(5)], ids=repr)
def test_exact_check_P2_stops_at_first_nonzero_node(backend, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("check_P2 interpolated the determinant form")

    dets = []
    node_det = linalg._node_det

    def counted(*args):
        dets.append(node_det(*args))
        return dets[-1]

    monkeypatch.setattr(linalg, "_interpolate_form", refuse)
    monkeypatch.setattr(linalg, "_vandermonde_inverse", refuse)
    monkeypatch.setattr(linalg, "_node_det", counted)
    # (roots, node determinants, witness): the witness is the first
    # nonsingular node
    cases = [([1, 2], 1, (1, 0)), ([0, 1], 3, (1, 2)), ([0, 2, 3], 2, (1, 1))]
    if backend.kind == "gf":
        # every (1, t) is singular, so the witness is the node (0, 1)
        cases.append(([0, 1, 2, 3, 4], 6, (0, 1)))
    else:
        cases.append(([0, 1, 2, 3, 4], 6, (1, 5)))
    for roots, calls, witness in cases:
        A1, A2 = shifted_pencil(backend, roots)
        c = len(roots)
        d = XnADHM(1, c, A1, A2, (Matrix.zeros(c, c, backend),),
                   Matrix.row_vector([1] * c, backend))
        dets.clear()
        assert check_P2(d)
        assert len(dets) == calls and dets[-1] != 0
        assert all(x == 0 for x in dets[:-1])
        assert pencil._regularity(A1, A2, None)[0] == tuple(
            map(backend.coerce, witness))
    singular = XnADHM(1, 2, Matrix.diagonal([1, 0], backend),
                      Matrix.diagonal([2, 0], backend),
                      (Matrix.zeros(2, 2, backend),),
                      Matrix.row_vector([1, 1], backend))
    dets.clear()
    assert not check_P2(singular) and dets == [backend.zero] * 3


@pytest.mark.parametrize("backend", [RATIONAL, GF(5)], ids=repr)
def test_exact_witness_is_first_node_where_the_form_is_nonzero(backend):
    """The node determinants give the witness that evaluating the
    interpolated form at the nodes in turn gave."""
    rng = np.random.default_rng(77)
    for c in range(1, 5):
        nodes = linalg._pencil_nodes(c, backend)
        for _ in range(25):
            rows = rng.integers(-2, 3, size=(2, c, c))
            rows[:, :, 0] *= rng.integers(0, 2)     # singular now and then
            A1, A2 = (Matrix.from_rows(r.tolist(), backend) for r in rows)
            poly = pencil_det_poly(A1, A2)
            first = next((nd for nd in nodes if poly.evaluate(*nd) != 0), None)
            an = analyze_pencil(A1, A2)
            assert an.witness == first
            assert an.regular == any(poly.coeffs)


def test_exact_regularity_keeps_the_prime_field_node_limit():
    A = Matrix.identity(4, GF(2))
    d = XnADHM(1, 4, A, A, (Matrix.zeros(4, 4, GF(2)),),
               Matrix.row_vector([1] * 4, GF(2)))
    with pytest.raises(UnsupportedBackend, match="projective nodes"):
        check_P2(d)


def _node_matrix(A1, A2, n1, n2):
    """n1 A1 + n2 A2 as a Matrix, from ``linalg._node_entries``."""
    bk = A1.backend
    return linalg._wrap(
        linalg._node_entries(A1.entries, A2.entries, n1, n2, bk), bk)


@pytest.mark.parametrize("backend", [RATIONAL, GF(5)], ids=repr)
def test_node_matrix_skips_unit_and_zero_coefficients(backend, monkeypatch):
    rng = np.random.default_rng(500)
    c = 5
    A1, A2 = (Matrix(c, c, [Fraction(int(p), int(q)) for p, q in
                            zip(rng.integers(-6, 7, size=c * c),
                                rng.integers(1, 5, size=c * c))],
                     RATIONAL).cast(backend) for _ in range(2))
    nodes = linalg._pencil_nodes(c, backend)
    want = [A1.scale(n1) + A2.scale(n2) for n1, n2 in nodes]
    # each product by a coefficient coerces it once
    scaled = []
    coerce = backend.coerce
    monkeypatch.setattr(backend, "coerce",
                        lambda s: scaled.append(s) or coerce(s))
    assert [_node_matrix(A1, A2, n1, n2) for n1, n2 in nodes] == want
    # only the coefficients other than 0 and 1 multiply: q = 2..5 on the
    # rationals' nodes (1, q); t = 2..4 on GF(5)'s (1, t) and (0, 1)
    assert scaled == [n2 for _, n2 in nodes if n2 not in (0, 1)]
    assert len(scaled) == (4 if backend.kind == "rational" else 3)


def _leibniz_det(M):
    """Determinant of an exact Matrix by the Leibniz formula on its
    ``Fraction`` or residue entries."""
    bk = M.backend
    rows = M.entries.tolist()
    n = len(rows)
    total = bk.zero
    for perm in permutations(range(n)):
        odd = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = math.prod((rows[i][perm[i]] for i in range(n)), start=bk.one)
        total += -term if odd % 2 else term
    return bk.reduce(total)


@pytest.mark.parametrize("backend", [RATIONAL, GF(5)], ids=repr)
def test_node_determinants_equal_det_of_node_matrices(backend):
    """The integer node determinants (rationals, over (d1 d2)^c) and the
    residue ones equal the Leibniz determinant of the node matrices
    n1 A1 + n2 A2, singular pencils and non-trivial denominators included."""
    rng = np.random.default_rng(31)

    def block(c):
        if backend.kind == "gf":
            return Matrix(c, c, rng.integers(0, 5, size=c * c).tolist(),
                          backend)
        return Matrix(c, c, [Fraction(int(p), int(q)) for p, q in
                             zip(rng.integers(-6, 7, size=c * c),
                                 rng.integers(1, 9, size=c * c))], backend)

    zero = 0
    for c in range(1, 6):
        for trial in range(12):
            A1, A2 = block(c), block(c)
            if trial % 3 == 0:          # a common kernel: a singular pencil
                P = Matrix.diagonal([0] + [1] * (c - 1), backend)
                A1, A2 = A1 @ P, A2 @ P
            forms = linalg._node_forms(A1, A2)
            for n1, n2 in linalg._pencil_nodes(c, backend):
                got = linalg._node_det(forms, n1, n2, backend)
                want = _leibniz_det(_node_matrix(A1, A2, n1, n2))
                assert got == want and type(got) is type(want)
                zero += got == 0
    assert zero > 0


#: a pencil that is not a pair of square matrices of one size over one
#: backend, the error ``analyze_pencil`` raises and its message
_PENCIL_REFUSALS = {
    "unequal sizes": ((Matrix.zeros(2, 2), Matrix.zeros(3, 3)), ShapeMismatch,
                      "pencil matrices must be square of equal size"),
    "non-square pair": ((Matrix.zeros(2, 3), Matrix.zeros(2, 3)),
                        ShapeMismatch,
                        "pencil matrices must be square of equal size"),
    "two backends": ((Matrix.identity(2), Matrix.identity(2, RATIONAL)),
                     BackendMismatch, "pencil matrices on different backends"),
}


@pytest.mark.parametrize("case", list(_PENCIL_REFUSALS))
def test_analyze_pencil_refuses_a_malformed_pencil(case):
    pair, error, message = _PENCIL_REFUSALS[case]
    with pytest.raises(error) as raised:
        analyze_pencil(*pair)
    assert str(raised.value) == message


def test_q3star_holds_on_the_zero_subspace():
    # even for the zero pencil, the most singular one
    for bk in (COMPLEX, RATIONAL, GF(3)):
        Z = Matrix.zeros(2, 2, bk)
        assert check_Q3star(Z, Z, Matrix.zeros(2, 0, bk))
