"""Pencil regularity, minimal polynomial solutions, and the image-dimension
criterion they control."""

import numpy as np
import pytest

from xnadhm import linalg
from xnadhm.linalg import (
    COMPLEX,
    GF,
    RATIONAL,
    Matrix,
    chordal_distance,
    hstack,
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
    t = v1.at(0, 0)
    assert abs(t) > 0.1
    assert abs(v0.at(0, 0)) < 1e-12 and abs(v0.at(1, 0) - t) < 1e-12
    assert abs(v1.at(1, 0)) < 1e-12


def test_singular_common_kernel():
    A = Matrix.diagonal([1, 0])
    an = analyze_pencil(A, A)
    assert not an.regular and an.minimal_index == 0
    v0 = an.minimal_solution[0]
    assert (A @ v0).maxnorm() < 1e-12
    assert abs(v0.at(0, 0)) < 1e-12 and abs(v0.at(1, 0)) > 0.1


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

    monkeypatch.setattr(linalg, "_merge_roots", refuse)
    monkeypatch.setattr(np.linalg, "eigvals", refuse)
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
