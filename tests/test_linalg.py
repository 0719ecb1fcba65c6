"""Backends, rank/nullspace, pencil determinant forms and projective roots."""

import math
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xnadhm.errors import ShapeMismatch, UnsupportedBackend, ZeroPolynomial
from xnadhm.linalg import (
    COMPLEX,
    GF,
    RATIONAL,
    HomogPoly,
    Matrix,
    angle_constants,
    chordal_distance,
    det,
    eigenvalues,
    inverse,
    nullspace,
    pencil_det_poly,
    projective_roots,
    rank,
)

BACKENDS = [COMPLEX, RATIONAL, GF(5)]


# ---------------------------------------------------------------------------
# independent oracle: permutation-expansion determinant of nu1 A1 + nu2 A2
# ---------------------------------------------------------------------------

def det_pencil_symbolic(A1, A2):
    """Cofactor-style determinant over linear forms; coefficients of the
    homogeneous result indexed by the nu2-power."""
    c = A1.rows
    coeffs = [0j] * (c + 1)
    for perm in permutations(range(c)):
        sign = 1
        seen = list(perm)
        for i in range(c):           # parity by counting inversions
            for j in range(i + 1, c):
                if seen[i] > seen[j]:
                    sign = -sign
        term = [complex(1)]          # polynomial in nu2 with nu1-cofactor
        for i in range(c):
            lin = [complex(A1.at(i, perm[i])), complex(A2.at(i, perm[i]))]
            term = [sum(term[k] * lin[q - k]
                        for k in range(len(term)) if 0 <= q - k <= 1)
                    for q in range(len(term) + 1)]
        for q in range(c + 1):
            coeffs[q] += sign * term[q]
    return coeffs


# ---------------------------------------------------------------------------
# rank / nullspace
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
def test_rank_identity(backend):
    assert rank(Matrix.identity(3, backend)) == 3


@pytest.mark.parametrize("backend", BACKENDS)
def test_rank_zero(backend):
    assert rank(Matrix.zeros(2, 3, backend)) == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_rank_proportional_rows(backend):
    M = Matrix.from_rows([[1, 2], [2, 4]], backend)
    assert rank(M) == 1


def test_nullspace_identity_empty():
    assert nullspace(Matrix.identity(3)).cols == 0


def test_nullspace_zero_orthonormal():
    N = nullspace(Matrix.zeros(2, 2))
    assert N.cols == 2
    gram = N.transpose() @ N    # orthonormal columns (real basis, no conj needed)
    assert (gram - Matrix.identity(2)).maxnorm() < 1e-12


def test_nullspace_single_relation():
    N = nullspace(Matrix.from_rows([[1, 1]]))
    assert N.cols == 1
    v = (N.at(0, 0), N.at(1, 0))
    assert abs(v[0] + v[1]) < 1e-12 and abs(v[0]) > 0.1


@pytest.mark.parametrize("backend", BACKENDS)
def test_rank_nullity(backend):
    M = Matrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]], backend)
    assert rank(M) + nullspace(M).cols == M.cols
    N = nullspace(M)
    if N.cols:
        assert (M @ N).is_zero()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=12, max_size=12))
def test_rank_nullity_property_exact(entries):
    for backend in (RATIONAL, GF(5)):
        M = Matrix(3, 4, entries, backend)
        N = nullspace(M)
        assert rank(M) + N.cols == 4
        if N.cols:
            assert (M @ N).is_zero()
        assert rank(N) == N.cols


def test_inverse_exact():
    M = Matrix.from_rows([[2, 1], [1, 1]], RATIONAL)
    assert (inverse(M) @ M) == Matrix.identity(2, RATIONAL)
    M5 = Matrix.from_rows([[2, 1], [1, 1]], GF(5))
    assert (inverse(M5) @ M5) == Matrix.identity(2, GF(5))


def test_rational_entries_from_strings():
    M = Matrix.from_rows([["1/2", "2/3"], ["-1/6", 1]], RATIONAL)
    assert M.at(0, 0) == Fraction(1, 2)
    assert det(M) == Fraction(1, 2) * 1 - Fraction(2, 3) * Fraction(-1, 6)


# ---------------------------------------------------------------------------
# pencil determinant polynomial
# ---------------------------------------------------------------------------

def test_pencil_det_identity_zero():
    p = pencil_det_poly(Matrix.identity(2), Matrix.zeros(2, 2))
    # nu1^2: coefficient at q=0
    assert abs(p.coeffs[0] - 1) < 1e-12
    assert abs(p.coeffs[1]) < 1e-12 and abs(p.coeffs[2]) < 1e-12


@pytest.mark.parametrize("backend", [COMPLEX, RATIONAL])
def test_pencil_det_diagonal(backend):
    # det(nu1 diag(1,2) + nu2 I) = (nu1 + nu2)(2 nu1 + nu2)
    p = pencil_det_poly(Matrix.diagonal([1, 2], backend),
                        Matrix.identity(2, backend))
    expected = [2, 3, 1]
    for q in range(3):
        diff = p.coeffs[q] - p.backend.coerce(expected[q])
        assert abs(complex(diff) if backend is COMPLEX else float(diff)) < 1e-12


def test_pencil_det_vs_symbolic_cofactor():
    rng = np.random.default_rng(2024)
    for _ in range(5):
        A1 = Matrix.from_numpy(rng.standard_normal((3, 3))
                               + 1j * rng.standard_normal((3, 3)))
        A2 = Matrix.from_numpy(rng.standard_normal((3, 3))
                               + 1j * rng.standard_normal((3, 3)))
        got = pencil_det_poly(A1, A2)
        want = det_pencil_symbolic(A1, A2)
        scale = max(1.0, max(abs(w) for w in want))
        assert all(abs(g - w) <= 1e-9 * scale
                   for g, w in zip(got.coeffs, want))


def test_pencil_det_matches_pointwise_evaluation():
    rng = np.random.default_rng(7)
    A1 = Matrix.from_numpy(rng.standard_normal((4, 4)))
    A2 = Matrix.from_numpy(rng.standard_normal((4, 4)))
    p = pencil_det_poly(A1, A2)
    for t in np.linspace(0.0, 1.0, 7):
        n1, n2 = math.cos(t), math.sin(t)
        direct = det(A1.scale(n1) + A2.scale(n2))
        scale = max(1.0, abs(direct))
        assert abs(p.evaluate(n1, n2) - direct) <= 1e-9 * scale


def test_pencil_det_gf_small_and_too_large():
    gf = GF(5)
    p = pencil_det_poly(Matrix.diagonal([1, 2], gf), Matrix.identity(2, gf))
    assert p.coeffs == (2, 3, 1)
    with pytest.raises(UnsupportedBackend):
        pencil_det_poly(Matrix.identity(6, GF(3)), Matrix.identity(6, GF(3)))


def test_pencil_det_shape_check():
    with pytest.raises(ShapeMismatch):
        pencil_det_poly(Matrix.zeros(2, 3), Matrix.zeros(2, 3))


# ---------------------------------------------------------------------------
# projective roots
# ---------------------------------------------------------------------------

def _find_root(roots, point, tol=1e-8):
    for (a, b), mult in roots:
        if chordal_distance((a, b), point) <= tol:
            return mult
    return None


def test_projective_roots_axes():
    # nu1 nu2: the two coordinate points
    p = HomogPoly(2, [0, 1, 0])
    roots = projective_roots(p)
    assert len(roots) == 2
    assert _find_root(roots, (1, 0)) == 1
    assert _find_root(roots, (0, 1)) == 1


def test_projective_roots_double():
    p = HomogPoly(2, [1, 2, 1])     # (nu1 + nu2)^2
    roots = projective_roots(p)
    assert len(roots) == 1
    assert roots[0][1] == 2
    assert _find_root(roots, (1, -1), 1e-6) == 2


def test_projective_roots_cubic_factored_oracle():
    # expand (s-1)(s-2)(s-3) in the affine coordinate s = nu2/nu1
    p = HomogPoly(3, [-6, 11, -6, 1])
    roots = projective_roots(p)
    assert sum(m for _, m in roots) == 3
    for s in (1.0, 2.0, 3.0):
        assert _find_root(roots, (1, s)) == 1


def test_projective_roots_multiplicities_sum_to_degree():
    rng = np.random.default_rng(5)
    for _ in range(10):
        coeffs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        roots = projective_roots(HomogPoly(4, coeffs.tolist()))
        assert sum(m for _, m in roots) == 4
        for (a, b), _ in roots:
            assert max(abs(a), abs(b)) == pytest.approx(1.0)


def test_projective_roots_zero_poly_raises():
    with pytest.raises(ZeroPolynomial):
        projective_roots(HomogPoly(2, [0, 1e-12, 0]))


def test_projective_roots_rejects_prime_field():
    with pytest.raises(UnsupportedBackend):
        projective_roots(HomogPoly(1, [1, 1], GF(5)))


def test_pencil_roots_against_eigenvalue_oracle():
    # roots of det(nu1 A + nu2 I) sit at s = -lambda in the affine coordinate
    rng = np.random.default_rng(11)
    A = Matrix.from_numpy(rng.standard_normal((4, 4))
                          + 1j * rng.standard_normal((4, 4)))
    roots = projective_roots(pencil_det_poly(A, Matrix.identity(4)))
    eigs = [z for z, _ in eigenvalues(A)]
    assert len(roots) == len(eigs)
    for lam in eigs:
        assert _find_root(roots, (1, -lam), 1e-8) is not None


def test_exact_singular_inverse_raises():
    from xnadhm.errors import SingularMatrix
    from xnadhm.linalg import inverse

    with pytest.raises(SingularMatrix):
        inverse(Matrix.from_rows([[1, 2], [2, 4]], RATIONAL))
    with pytest.raises(SingularMatrix):
        inverse(Matrix.from_rows([[1, 2], [2, 4]], GF(5)))


def test_gf_coercion_guards():
    gf = GF(5)
    assert gf.coerce(Fraction(1, 2)) == 3          # 2^-1 = 3 mod 5
    with pytest.raises(UnsupportedBackend):
        gf.coerce(Fraction(1, 5))
    with pytest.raises(UnsupportedBackend):
        GF(6)
    with pytest.raises(UnsupportedBackend):
        Matrix.identity(2, GF(5)).cast(RATIONAL)   # residues have no lift


def test_matrix_shape_guards():
    with pytest.raises(ShapeMismatch):
        Matrix(2, 2, [1, 2, 3])
    with pytest.raises(ShapeMismatch):
        Matrix.from_rows([[1, 2], [3]])
    with pytest.raises(ShapeMismatch):
        Matrix.identity(2) @ Matrix.identity(3)


# ---------------------------------------------------------------------------
# complex storage: one read-only ndarray per matrix
# ---------------------------------------------------------------------------

def test_complex_to_numpy_is_read_only():
    M = Matrix.from_rows([[1, 2], [3, 4]])
    arr = M.to_numpy()
    with pytest.raises(ValueError):
        arr[0, 0] = 5
    for derived in (M + M, -M, M.scale(2), M @ M, M.transpose(), M.column(1),
                    M.submatrix(range(1), [1]), inverse(M), nullspace(M)):
        with pytest.raises(ValueError):
            derived.to_numpy()[...] = 0
    assert M.at(0, 0) == 1


def test_from_numpy_copies_its_input():
    arr = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    M = Matrix.from_numpy(arr)
    arr[0, 0] = 99
    assert M.at(0, 0) == 1
    assert M == Matrix.from_rows([[1, 2], [3, 4]])


def test_complex_equality_and_hash_across_constructors():
    from_list = Matrix.from_rows([[0.5, 2], [-1.5, 1j]])
    from_fractions = Matrix.from_rows(
        [[Fraction(1, 2), Fraction(2)], [Fraction(-3, 2), 1j]])
    from_array = Matrix.from_numpy(np.array([[0.5, 2], [-1.5, 1j]]))
    assert from_list == from_fractions == from_array
    assert hash(from_list) == hash(from_fractions) == hash(from_array)
    assert from_list.at(1, 1) == 1j and type(from_list.at(1, 1)) is complex
    assert from_list.row_list() == [[0.5, 2], [-1.5, 1j]]
    assert from_list != from_list.scale(2)
    assert from_list.cast(COMPLEX) is from_list
    assert (Matrix.from_rows([[Fraction(1, 2)]], RATIONAL).cast(COMPLEX)
            == Matrix.from_rows([[0.5]]))


def test_complex_ops_match_entrywise_reference():
    from xnadhm.linalg import hstack, vstack

    rng = np.random.default_rng(7)
    a = (rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))).tolist()
    b = (rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))).tolist()
    A, B = Matrix.from_rows(a), Matrix.from_rows(b)
    pairs = lambda f: [[f(x, y) for x, y in zip(r, t)] for r, t in zip(a, b)]
    assert (A + B).row_list() == pairs(lambda x, y: x + y)
    assert (A - B).row_list() == pairs(lambda x, y: x - y)
    assert (-A).row_list() == [[-x for x in r] for r in a]
    assert A.transpose().row_list() == [list(col) for col in zip(*a)]
    assert hstack(A, B).row_list() == [r + t for r, t in zip(a, b)]
    assert vstack(A, B).row_list() == a + b
    assert A.column(2).row_list() == [[r[2]] for r in a]
    assert A.submatrix([2, 0], range(1, 3)).row_list() == [a[2][1:3], a[0][1:3]]
    # numpy's complex modulus and product may round differently from
    # Python's, so these two agree to a few units in the last place
    eps = np.finfo(float).eps
    assert A.maxnorm() == pytest.approx(max(abs(x) for r in a for x in r),
                                        rel=4 * eps)
    s = 0.3 - 1.7j
    for got, want in zip(A.scale(s).row_list(), [[s * x for x in r] for r in a]):
        for g, w in zip(got, want):
            assert abs(g - w) <= 4 * eps * abs(w)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("k", [1, 3])
def test_empty_shapes(backend, k):
    from xnadhm.linalg import hstack, scale_of, vstack

    wide = Matrix.zeros(0, k, backend)      # 0 x k
    tall = Matrix.zeros(k, 0, backend)      # k x 0
    assert (hstack(wide, wide).rows, hstack(wide, wide).cols) == (0, 2 * k)
    assert (vstack(tall, tall).rows, vstack(tall, tall).cols) == (2 * k, 0)
    assert (vstack(wide, wide).rows, vstack(wide, wide).cols) == (0, k)
    assert (hstack(tall, tall).rows, hstack(tall, tall).cols) == (k, 0)
    outer = tall @ wide                     # k x 0 @ 0 x k
    assert (outer.rows, outer.cols) == (k, k) and outer.is_zero()
    inner = wide @ tall                     # 0 x k @ k x 0
    assert (inner.rows, inner.cols) == (0, 0) and inner.is_zero()
    assert wide.is_zero() and tall.is_zero()
    assert scale_of(wide, tall) == 1.0
    if backend.kind != "gf":             # the prime field has no norm
        assert wide.maxnorm() == tall.maxnorm() == 0.0
        three = Matrix.identity(2, backend).scale(3)
        assert scale_of(wide, three, tall) == 3.0


def test_matrix_to_json_complex_literal():
    from xnadhm.serialize import dumps, matrix_to_json

    M = Matrix.from_rows([[1, 0.5j], [-2.25 + 1j, 0]]).transpose()
    expected = {"rows": 2, "cols": 2, "backend": "complex",
                "entries": [[1.0, 0.0], [-2.25, 1.0],
                            [0.0, 0.5], [0.0, 0.0]]}
    assert matrix_to_json(M) == expected
    assert dumps(matrix_to_json(M)) == dumps(expected)


def test_angle_constants_snapping():
    assert angle_constants(3, 0) == (1.0, 0.0)
    assert angle_constants(3, 2) == (0.0, 1.0)
    assert angle_constants(1, 1) == (0.0, 1.0)
    cm, sm = angle_constants(3, 1)
    assert cm == pytest.approx(math.cos(math.pi / 4))
