"""Backends, rank/nullspace, pencil determinant forms and projective roots."""

import math
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xnadhm import linalg
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
    hstack,
    inverse,
    nullspace,
    pencil_det_poly,
    projective_roots,
    rank,
    vstack,
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
            lin = [complex(A1[i, perm[i]]), complex(A2[i, perm[i]])]
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
    v = (N[0, 0], N[1, 0])
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
    assert M[0, 0] == Fraction(1, 2)
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


def test_complex_singular_inverse_raises_singular_matrix():
    """LAPACK's error on an exactly singular complex matrix comes back as
    ``SingularMatrix``, with LAPACK's message."""
    from xnadhm.errors import SingularMatrix

    M = Matrix.from_rows([[1, 2], [2, 4]])
    with pytest.raises(np.linalg.LinAlgError) as lapack:
        np.linalg.inv(M.entries)
    with pytest.raises(SingularMatrix) as raised:
        inverse(M)
    assert str(raised.value) == str(lapack.value)


def test_gf_coercion_guards():
    gf = GF(5)
    assert gf.coerce(Fraction(1, 2)) == 3          # 2^-1 = 3 mod 5
    with pytest.raises(UnsupportedBackend):
        gf.coerce(Fraction(1, 5))
    with pytest.raises(UnsupportedBackend):
        GF(6)
    with pytest.raises(UnsupportedBackend):
        Matrix.identity(2, GF(5)).cast(RATIONAL)   # residues have no lift


def test_backend_names():
    from xnadhm.linalg import backend_from_name

    assert backend_from_name("complex") is COMPLEX
    assert backend_from_name("rational") is RATIONAL
    assert backend_from_name("gf:5") is backend_from_name("gf(5)") is GF(5)
    # the largest prime below the bound is a field; from the bound on, a
    # size is refused before a primality test that did not return
    assert backend_from_name("gf:2147483647") is GF(2 ** 31 - 1)
    # a field size that is not a number raised a ValueError
    for name in ("gf:x", "gf(x)", "gf:", "gf(6)", "real", "gf:2147483648",
                 "gf:1000000000000037", "gf(1000000000000000000000007)"):
        with pytest.raises(UnsupportedBackend):
            backend_from_name(name)


@pytest.mark.parametrize("backend", [RATIONAL, GF(5)])
@pytest.mark.parametrize("entry", [True, False])
def test_exact_backends_reject_booleans(backend, entry):
    # bool is an int subclass; an exact entry must be a number on purpose
    with pytest.raises(UnsupportedBackend):
        backend.coerce(entry)
    with pytest.raises(UnsupportedBackend):
        Matrix.from_rows([[1, entry]], backend)
    assert Matrix.from_rows([[1, 0]], backend).entries.tolist() == [[1, 0]]


@pytest.mark.parametrize("value, residue", [
    (7, 2), (-1, 4), (np.int64(7), 2), (np.uint8(9), 4), (7.0, 2), (-3.0, 2),
    (np.float64(12.0), 2), (np.float32(-6.0), 4)])
def test_gf_coerce_takes_integers_and_integral_floats(value, residue):
    got = GF(5).coerce(value)
    assert got == residue and type(got) is int


@pytest.mark.parametrize("value", [
    2.5, 7.9, -0.5, float("nan"), float("inf"), np.float32(2.5), 1 + 0j,
    2j, np.complex128(3), "3", None, np.bool_(True)], ids=repr)
def test_gf_coerce_rejects_everything_else(value):
    # a non-integral float used to be truncated into a residue (2.5 -> 2)
    with pytest.raises(UnsupportedBackend):
        GF(5).coerce(value)


@pytest.mark.parametrize("value, want", [
    (3, 3), (np.int64(3), 3), (np.uint8(9), 9), (-3.0, -3), (np.float64(3.0), 3),
    (np.float32(-6.0), -6), ("3/4", Fraction(3, 4)), (Fraction(1, 2), Fraction(1, 2))],
    ids=repr)
def test_rational_coerce_takes_integers_integral_floats_and_strings(value, want):
    got = RATIONAL.coerce(value)
    assert got == want and type(got) is Fraction


@pytest.mark.parametrize("value", [
    2.5, float("nan"), float("inf"), float("-inf"), np.float64(2.5), 1 + 0j,
    np.complex128(3), None, np.bool_(True)], ids=repr)
def test_rational_coerce_rejects_everything_else(value):
    # NaN used to raise ValueError and infinity OverflowError
    with pytest.raises(UnsupportedBackend):
        RATIONAL.coerce(value)


def test_complex_matrix_cast_to_gf_raises_the_library_error():
    with pytest.raises(UnsupportedBackend):
        Matrix.from_rows([[1 + 0j]]).cast(GF(5))
    with pytest.raises(UnsupportedBackend):
        Matrix.from_rows([[2.5]], GF(5))
    assert Matrix.from_rows([[7.0, -1]], GF(5)).entries.tolist() == [[2, 4]]


def test_matrix_shape_guards():
    with pytest.raises(ShapeMismatch):
        Matrix(2, 2, [1, 2, 3])
    with pytest.raises(ShapeMismatch):
        Matrix.from_rows([[1, 2], [3]])
    with pytest.raises(ShapeMismatch):
        Matrix.identity(2) @ Matrix.identity(3)


#: a call on malformed shapes, and the message of its ``ShapeMismatch``
_SHAPE_REFUSALS = {
    "det of a non-square matrix": (
        lambda: det(Matrix.zeros(2, 3)), "determinant of a non-square matrix"),
    "inverse of a non-square matrix": (
        lambda: inverse(Matrix.zeros(3, 2)), "inverse of a non-square matrix"),
    "from_numpy of a 1-d array": (
        lambda: Matrix.from_numpy(np.ones(3)), "expected a 2-d array"),
    "hstack of unequal rows": (
        lambda: hstack(Matrix.zeros(2, 1), Matrix.zeros(3, 1)),
        "hstack mismatch"),
    "vstack of unequal columns": (
        lambda: vstack(Matrix.zeros(1, 2), Matrix.zeros(1, 3)),
        "vstack mismatch"),
}


@pytest.mark.parametrize("case", list(_SHAPE_REFUSALS))
def test_malformed_shapes_raise_shape_mismatch(case):
    call, message = _SHAPE_REFUSALS[case]
    with pytest.raises(ShapeMismatch) as raised:
        call()
    assert str(raised.value) == message


def test_zeros_with_negative_rows_raise_shape_mismatch():
    with pytest.raises(ShapeMismatch, match="negative dimensions"):
        Matrix.zeros(-1, 2)


def test_zeros_with_negative_cols_raise_shape_mismatch():
    with pytest.raises(ShapeMismatch, match="negative dimensions"):
        Matrix.zeros(2, -1, GF(5))


def test_identity_of_negative_size_raises_shape_mismatch():
    # numpy would make a 0 x 0 array of it
    with pytest.raises(ShapeMismatch, match="negative dimensions"):
        Matrix.identity(-2)


# ---------------------------------------------------------------------------
# storage: one read-only ndarray per matrix, on every backend
# ---------------------------------------------------------------------------

def _scalars_canonical(M):
    """Whether every entry is the backend's own scalar type: complex,
    Fraction, or an int residue in range(p)."""
    bk = M.backend
    kind = {"complex": complex, "rational": Fraction, "gf": int}[bk.kind]
    return all(type(x) is kind and (bk.kind != "gf" or 0 <= x < bk.p)
               for row in M.entries.tolist() for x in row)


def test_complex_to_numpy_is_read_only():
    for backend in BACKENDS:
        _check_read_only_storage(backend)


def test_rational_to_numpy_rounds_as_astype_complex():
    """The integer-ratio image of a rational matrix is the float that
    ``astype(complex)`` gives (``float`` of each ``Fraction``), on random,
    huge and tiny entries, and both raise ``OverflowError`` past the float
    range."""
    rng = np.random.default_rng(7)
    entries = [Fraction(int(rng.integers(-10**6, 10**6)),
                        int(rng.integers(1, 10**6))) for _ in range(60)]
    entries += [Fraction(int(rng.integers(1, 10**9)) * 10**k,
                         int(rng.integers(1, 10**9)))
                for k in range(250, 300, 7)]
    entries += [Fraction(int(rng.integers(-10**9, 10**9)),
                         int(rng.integers(1, 10**9)) * 10**k)
                for k in range(290, 340, 7)]
    entries += [Fraction(0), Fraction(-1, 3), Fraction(1, 10**400),
                Fraction(2**1023 * 3 - 1, 2), Fraction(-(10**308), 7)]
    for cols in (1, 5, len(entries)):
        rows = len(entries) // cols
        M = Matrix(rows, cols, entries[:rows * cols], RATIONAL)
        got = M.to_numpy()
        want = M.entries.astype(complex)
        assert got.dtype == complex and got.shape == (rows, cols)
        assert got.tobytes() == want.tobytes()
    assert Matrix.zeros(0, 3, RATIONAL).to_numpy().shape == (0, 3)
    huge = Matrix(1, 2, [Fraction(1, 3), Fraction(10**400, 3)], RATIONAL)
    for convert in (huge.to_numpy, lambda: huge.entries.astype(complex)):
        with pytest.raises(OverflowError):
            convert()


def _check_read_only_storage(backend):
    M = Matrix.from_rows([[1, 2], [3, 4]], backend)
    if backend is COMPLEX:
        assert M.to_numpy() is M.entries
        with pytest.raises(ValueError):
            M.to_numpy()[0, 0] = 5
    for derived in (M, M + M, M - M, -M, M.scale(2), M @ M, M.transpose(),
                    M.column(1), M.submatrix(range(1), [1]), inverse(M),
                    nullspace(M), hstack(M, M), vstack(M, M),
                    Matrix.zeros(2, 3, backend), Matrix.identity(2, backend),
                    Matrix.diagonal([1, 2], backend), M.cast(backend)):
        arr = derived.entries
        assert isinstance(arr, np.ndarray) and arr.dtype == backend.dtype
        assert arr.shape == (derived.rows, derived.cols)
        with pytest.raises(ValueError):
            arr[...] = 0
    for name in Matrix.__slots__:
        with pytest.raises(AttributeError):
            setattr(M, name, getattr(M, name))
    assert M[0, 0] == 1


def test_from_numpy_copies_its_input():
    arr = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    M = Matrix.from_numpy(arr)
    arr[0, 0] = 99
    assert M[0, 0] == 1
    assert M == Matrix.from_rows([[1, 2], [3, 4]])


def test_complex_equality_and_hash_across_constructors():
    from_list = Matrix.from_rows([[0.5, 2], [-1.5, 1j]])
    from_fractions = Matrix.from_rows(
        [[Fraction(1, 2), Fraction(2)], [Fraction(-3, 2), 1j]])
    from_array = Matrix.from_numpy(np.array([[0.5, 2], [-1.5, 1j]]))
    assert from_list == from_fractions == from_array
    assert hash(from_list) == hash(from_fractions) == hash(from_array)
    assert from_list[1, 1] == 1j and type(from_list[1, 1]) is complex
    assert from_list.entries.tolist() == [[0.5, 2], [-1.5, 1j]]
    assert from_list != from_list.scale(2)
    assert from_list.cast(COMPLEX) is from_list
    assert (Matrix.from_rows([[Fraction(1, 2)]], RATIONAL).cast(COMPLEX)
            == Matrix.from_rows([[0.5]]))


def test_complex_ops_match_entrywise_reference():
    for backend in BACKENDS:
        _check_ops_against_entrywise_reference(backend)


def _check_ops_against_entrywise_reference(backend):
    rng = np.random.default_rng(7)

    def draw():
        if backend is COMPLEX:
            return (rng.standard_normal((3, 4))
                    + 1j * rng.standard_normal((3, 4))).tolist()
        num = rng.integers(-9, 10, size=(3, 4)).tolist()
        den = rng.integers(1, 5, size=(3, 4)).tolist()
        return [[backend.coerce(Fraction(x, y)) for x, y in zip(r, t)]
                for r, t in zip(num, den)]

    a, b = draw(), draw()
    red = backend.reduce
    A, B = Matrix.from_rows(a, backend), Matrix.from_rows(b, backend)
    pairs = lambda f: [[red(f(x, y)) for x, y in zip(r, t)]
                       for r, t in zip(a, b)]
    assert (A + B).entries.tolist() == pairs(lambda x, y: x + y)
    assert (A - B).entries.tolist() == pairs(lambda x, y: x - y)
    assert (-A).entries.tolist() == [[red(-x) for x in r] for r in a]
    assert A.transpose().entries.tolist() == [list(col) for col in zip(*a)]
    assert hstack(A, B).entries.tolist() == [r + t for r, t in zip(a, b)]
    assert vstack(A, B).entries.tolist() == a + b
    assert A.column(2).entries.tolist() == [[r[2]] for r in a]
    assert A.submatrix([2, 0], range(1, 3)).entries.tolist() == [
        a[2][1:3], a[0][1:3]]
    if backend.exact:
        # exact arithmetic leaves no rounding to forgive
        s = backend.coerce(Fraction(-3, 7))
        assert A.scale(s).entries.tolist() == [[red(s * x) for x in r]
                                               for r in a]
        assert (A @ B.transpose()).entries.tolist() == [
            [red(sum(x * y for x, y in zip(r, t))) for t in b] for r in a]
        assert all(_scalars_canonical(R) for R in (
            A + B, A - B, -A, A.scale(s), A @ B.transpose(), hstack(A, B)))
        if backend is RATIONAL:
            assert A.maxnorm() == max(abs(float(x)) for r in a for x in r)
        return
    # numpy's complex modulus and product may round differently from
    # Python's, so these two agree to a few units in the last place
    eps = np.finfo(float).eps
    assert A.maxnorm() == pytest.approx(max(abs(x) for r in a for x in r),
                                        rel=4 * eps)
    s = 0.3 - 1.7j
    for got, want in zip(A.scale(s).entries.tolist(),
                         [[s * x for x in r] for r in a]):
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
    # the entries of filled and empty-product results are field scalars
    ident = Matrix.identity(k, backend)
    diag = Matrix.diagonal(list(range(1, k + 1)), backend)
    for M in (outer, Matrix.zeros(k, 2, backend), ident, diag,
              hstack(tall, ident, tall), vstack(wide, diag, wide),
              diag.transpose(), diag.submatrix(range(k), [k - 1])):
        assert M.rows * M.cols > 0 and _scalars_canonical(M)
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


# ---------------------------------------------------------------------------
# exact arithmetic against independent references
# ---------------------------------------------------------------------------

EXACT_BACKENDS = [RATIONAL] + [GF(p) for p in (2, 3, 5, 7)]


def _random_int_matrices(seed, count=12):
    """Seeded square integer matrices of size 1..4, entries in -4..4."""
    rng = np.random.default_rng(seed)
    for n in range(1, 5):
        for _ in range(count):
            yield n, rng.integers(-4, 5, size=(n, n)).tolist()


def _leibniz(rows):
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(rows[i][perm[i]]
                                               for i in range(n))
    return total


@pytest.mark.parametrize("backend", EXACT_BACKENDS, ids=repr)
def test_exact_det_matches_leibniz(backend):
    """Random integer matrices, and permutation matrices of both parities
    (the sign of the row swaps); over GF(p), residue matrices whose integer
    determinant is a nonzero multiple of p read 0 and are singular."""
    from xnadhm.errors import SingularMatrix

    cases = [rows for _, rows in _random_int_matrices(11)]
    cases += [[[int(j == perm[i]) for j in range(n)] for i in range(n)]
              for n in range(1, 6) for perm in permutations(range(n))]
    for rows in cases:
        assert det(Matrix.from_rows(rows, backend)) == backend.coerce(
            _leibniz(rows))
    if backend.kind != "gf":
        return
    p = backend.p
    half = (p + 1) // 2
    multiples = ([[[1, 1, 0], [0, 1, 1], [1, 0, 1]],
                  [[0, 1, 1], [1, 1, 0], [1, 0, 1]]] if p == 2 else
                 [[[2, 1], [1, half]], [[1, half], [2, 1]],
                  [[0, 0, 1], [2, 1, 0], [1, half, 0]]])
    if p == 5:
        multiples.append([[1, 2], [3, 1]])
    for rows in multiples:
        assert _leibniz(rows) % p == 0 != _leibniz(rows)
        M = Matrix.from_rows(rows, backend)
        assert M.entries.tolist() == rows
        assert det(M) == 0 and not linalg.is_invertible(M)
        with pytest.raises(SingularMatrix):
            inverse(M)


@pytest.mark.parametrize("backend", EXACT_BACKENDS, ids=repr)
def test_exact_inverse_is_two_sided(backend):
    from xnadhm.errors import SingularMatrix

    inverted = 0
    for n, rows in _random_int_matrices(12):
        M = Matrix.from_rows(rows, backend)
        if det(M) == 0:
            with pytest.raises(SingularMatrix):
                inverse(M)
            continue
        inverted += 1
        ident = Matrix.identity(n, backend)
        assert inverse(M) @ M == ident and M @ inverse(M) == ident
    assert inverted > 0


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_prime_field_results_stay_reduced(p):
    gf = GF(p)
    mats = [(n, Matrix.from_rows(rows, gf))
            for n, rows in _random_int_matrices(13, count=6)]
    for (n, A), (_, B) in zip(mats, mats[1:]):
        if A.rows != B.rows:
            continue
        results = [A + B, A - B, -A, A.scale(-7), A @ B, A @ A @ A,
                   nullspace(A), A.transpose(), A.submatrix([n - 1], range(n)),
                   hstack(A, B), vstack(A, B)]
        if det(A) != 0:
            results.append(inverse(A))
        assert all(_scalars_canonical(R) for R in results)
    empty = Matrix.zeros(3, 0, gf) @ Matrix.zeros(0, 2, gf)
    for M in (Matrix.zeros(2, 3, gf), Matrix.identity(3, gf),
              Matrix.diagonal([-1, p + 2, 7], gf), empty):
        assert _scalars_canonical(M)


@pytest.mark.parametrize("backend", [RATIONAL, GF(5)], ids=repr)
@pytest.mark.parametrize("c", [2, 3, 5])
def test_sigma_group_law_exact(backend, c):
    from xnadhm.xn import sigma

    # the charts whose constants are integers: multiples of c+1, and the
    # right angle (c+1)/2 when c is odd
    step = (c + 1) // 2 if c % 2 else c + 1
    charts = [0, step, 2 * step]
    for h in range(4):
        for m in charts:
            for l in charts:
                S = sigma(h, m, c, backend)
                assert S.backend == backend
                assert (S @ sigma(h, l, c, backend)
                        == sigma(h, m + l, c, backend))


@pytest.mark.parametrize("tol", [-1e-9, float("nan"), float("inf"),
                                 float("-inf"), "abc", 1j])
def test_tolerances_must_be_finite_and_non_negative(tol):
    """A negative or NaN threshold passes or fails every rank test whatever
    the data: a zero frame read co-stable at tol = -1e-9."""
    from xnadhm.errors import InvalidInput
    from xnadhm.plane import PlaneADHM, check_T1, check_T2

    d = PlaneADHM(2, Matrix.diagonal([1, 2]), Matrix.diagonal([3, 4]),
                  Matrix.zeros(1, 2))
    for call in (lambda: linalg._tol(tol), lambda: check_T2(d, tol),
                 lambda: check_T1(d, tol), lambda: rank(d.b1, tol)):
        with pytest.raises(InvalidInput, match="^tol must be"):
            call()


def test_zero_tolerance_is_allowed():
    from xnadhm.plane import PlaneADHM, check_T2

    d = PlaneADHM(2, Matrix.diagonal([1, 2]), Matrix.diagonal([3, 4]),
                  Matrix.row_vector([1, 1]))
    assert linalg._tol(0) == 0.0 and linalg._tol("1e-6") == 1e-6
    assert check_T2(d, 0)
    assert not check_T2(PlaneADHM(2, d.b1, d.b2, Matrix.zeros(1, 2)), 0)


# ---------------------------------------------------------------------------
# the rational product over common denominators
# ---------------------------------------------------------------------------

#: primes near 1e9, so that products of denominators leave machine integers
BIG_PRIMES = (999999937, 999999929, 999999893, 1000000007, 1000000009)


def _fraction_product(A, B):
    """Reference product: each entry a Fraction sum of Fraction products."""
    a, b = A.entries.tolist(), B.entries.tolist()
    return [[sum((a[i][k] * b[k][j] for k in range(A.cols)), Fraction(0))
             for j in range(B.cols)] for i in range(A.rows)]


def _rational_entries(rng, kind, count):
    if kind == "integers":
        return [int(x) for x in rng.integers(-9, 10, size=count)]
    if kind == "negative":
        return [Fraction(-int(p), int(q)) for p, q in
                zip(rng.integers(0, 20, size=count),
                    rng.integers(1, 12, size=count))]
    if kind == "big denominators":
        return [Fraction(int(p), BIG_PRIMES[int(i)]) for p, i in
                zip(rng.integers(-10**12, 10**12, size=count),
                    rng.integers(0, len(BIG_PRIMES), size=count))]
    # sparse: mostly zeros, as the diagonal and shift operands are
    return [Fraction(int(p), int(q)) if keep else 0 for p, q, keep in
            zip(rng.integers(-5, 6, size=count), rng.integers(1, 7, size=count),
                rng.random(count) < 0.3)]


@pytest.mark.parametrize("kind", ["integers", "negative", "big denominators",
                                  "sparse"])
@pytest.mark.parametrize("rows, inner, cols", [
    (0, 3, 2), (1, 4, 3), (4, 1, 3), (3, 4, 1), (1, 1, 1), (3, 3, 2),
    (4, 4, 4), (5, 2, 6)])
def test_rational_product_matches_fraction_sums(kind, rows, inner, cols):
    rng = np.random.default_rng(rows * 100 + inner * 10 + cols)
    for _ in range(3):
        A = Matrix(rows, inner, _rational_entries(rng, kind, rows * inner),
                   RATIONAL)
        B = Matrix(inner, cols, _rational_entries(rng, kind, inner * cols),
                   RATIONAL)
        got = A @ B
        assert (got.rows, got.cols) == (rows, cols)
        assert got.entries.tolist() == _fraction_product(A, B)
        assert _scalars_canonical(got)
        assert all(math.gcd(x.numerator, x.denominator) == 1
                   and x.denominator > 0 for x in got.entries.flat)
        assert not got.entries.flags.writeable


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4), st.integers(1, 4), st.integers(0, 4), st.data())
def test_rational_product_property(rows, inner, cols, data):
    entry = st.fractions(max_denominator=10**9)
    A = Matrix(rows, inner, data.draw(st.lists(entry, min_size=rows * inner,
                                               max_size=rows * inner)),
               RATIONAL)
    B = Matrix(inner, cols, data.draw(st.lists(entry, min_size=inner * cols,
                                               max_size=inner * cols)),
               RATIONAL)
    got = A @ B
    assert got.entries.tolist() == _fraction_product(A, B)
    assert _scalars_canonical(got)


# ---------------------------------------------------------------------------
# the integer form that a rational matrix keeps
# ---------------------------------------------------------------------------

def _assert_kept_form(M):
    """M keeps its integer form, equal to ``_integer_form`` of its entries:
    the same Python ints over the least common denominator, read-only."""
    num, d = linalg._kept_form(M)
    want, want_d = linalg._integer_form(M.entries)
    assert (num.shape, num.tolist(), d) == (want.shape, want.tolist(), want_d)
    assert all(type(x) is int for x in num.flat) and type(d) is int
    assert d == math.lcm(*[x.denominator for x in M.entries.flat])
    assert not num.flags.writeable
    assert linalg._kept_form(M) is M._form


def test_built_rational_matrices_keep_their_integer_form():
    """A rational matrix built from outside values takes its form on the
    first request and keeps it; empty shapes have d = 1."""
    rng = np.random.default_rng(40)
    built = [Matrix.identity(3, RATIONAL), Matrix.zeros(2, 3, RATIONAL),
             Matrix.diagonal([Fraction(1, 2), 3, Fraction(-2, 9)], RATIONAL),
             Matrix.row_vector([Fraction(5, 6), 0], RATIONAL),
             Matrix.zeros(0, 0, RATIONAL), Matrix.zeros(0, 3, RATIONAL),
             Matrix.zeros(3, 0, RATIONAL)]
    for kind in ("integers", "negative", "big denominators", "sparse"):
        built.append(Matrix(3, 4, _rational_entries(rng, kind, 12), RATIONAL))
    for M in built:
        assert not hasattr(M, "_form")
        _assert_kept_form(M)
    assert [linalg._kept_form(M)[1] for M in built[4:7]] == [1, 1, 1]


def test_rational_products_keep_the_least_common_denominator_form():
    """Each rational product stores the form it was computed from: chained
    products as in ``phi2 @ J @ inv1``, products that cancel to integers
    or to zero, and empty shapes, whose product form is (0, 1)."""
    rng = np.random.default_rng(41)
    J = Matrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]], RATIONAL)
    phi = Matrix.from_rows([[1, -2, 1], [0, 1, 2], [0, 0, 1]], RATIONAL)
    psi = Matrix.from_rows([[2, 0, 1], [0, 3, 0], [1, 0, 1]], RATIONAL)
    inv_phi, inv_psi = inverse(phi), inverse(psi)
    B = Matrix(3, 3, _rational_entries(rng, "negative", 9), RATIONAL)
    products = [psi @ J @ inv_phi, phi @ J @ inv_psi, J @ J @ J,
                inv_psi @ B @ psi, B @ inv_psi @ psi,        # back to B
                psi @ inv_psi, inv_psi.scale(6) @ psi,       # integers
                Matrix.diagonal([Fraction(1, 6), 0, Fraction(5, 3)],
                                RATIONAL) @ Matrix.zeros(3, 3, RATIONAL),
                Matrix.from_rows([[Fraction(1, 2), Fraction(-1, 2)]],
                                 RATIONAL)
                @ Matrix.col_vector([Fraction(1, 3), Fraction(1, 3)],
                                    RATIONAL),                # zero
                Matrix.zeros(0, 3, RATIONAL) @ B,
                Matrix.zeros(2, 0, RATIONAL) @ Matrix.zeros(0, 3, RATIONAL),
                B @ Matrix.zeros(3, 0, RATIONAL)]
    for M in products:
        assert hasattr(M, "_form")
        _assert_kept_form(M)
    assert products[4] == B
    assert [products[k].entries.tolist() for k in (5, 6)] == \
        [Matrix.identity(3, RATIONAL).entries.tolist(),
         Matrix.identity(3, RATIONAL).scale(6).entries.tolist()]
    assert [linalg._kept_form(M)[1] for M in products[5:]] == [1] * 7
    assert products[10].entries.tolist() == [[Fraction(0)] * 3] * 2
    for rows, inner, cols in ((2, 3, 4), (1, 1, 1), (4, 2, 3)):
        for kind in ("integers", "big denominators", "sparse"):
            A = Matrix(rows, inner, _rational_entries(rng, kind, rows * inner),
                       RATIONAL)
            C = Matrix(inner, cols, _rational_entries(rng, kind, inner * cols),
                       RATIONAL)
            M = A @ C
            assert hasattr(M, "_form")
            _assert_kept_form(M)


def test_cast_through_the_kept_form_refuses_a_vanishing_denominator():
    """A rational matrix, built or a product, whose least common
    denominator p divides raises the per-entry ``coerce``'s
    ``UnsupportedBackend`` from ``cast(GF(p))``; one whose product cancels
    p casts to the residues of its entries."""
    third = Matrix.diagonal([Fraction(1, 3), 1], RATIONAL)
    for M in (Matrix.from_rows([[1, Fraction(2, 15)]], RATIONAL),
              Matrix.row_vector([1, 1], RATIONAL) @ third):
        for p in (3, 5):
            want = [[GF(p).coerce(x) for x in row]
                    for row in M.entries.tolist()] if (
                        linalg._kept_form(M)[1] % p) else None
            if want is None:
                bad = next(x for x in M.entries.flat if x.denominator % p == 0)
                with pytest.raises(UnsupportedBackend) as raised:
                    M.cast(GF(p))
                with pytest.raises(UnsupportedBackend) as coerced:
                    GF(p).coerce(bad)
                assert str(raised.value) == str(coerced.value)
            else:
                assert M.cast(GF(p)).entries.tolist() == want
    three = Matrix.diagonal([3, 3], RATIONAL) @ third
    assert linalg._kept_form(three)[1] == 1
    assert three.cast(GF(3)).entries.tolist() == [[1, 0], [0, 0]]


def test_complex_and_prime_field_matrices_keep_no_form():
    """Only rational matrices have an integer form: complex and GF(p)
    matrices, built, multiplied, cast or inverted, never fill the slot,
    and asking them for a form raises ``UnsupportedBackend``."""
    R = Matrix.from_rows([[Fraction(1, 2), 2], [3, Fraction(-1, 4)]],
                         RATIONAL)
    Z = Matrix.from_rows([[1 + 2j, 0.5], [3, -1j]])
    G = Matrix.from_rows([[1, 2], [3, 4]], GF(5))
    made = [Z, Z @ Z, Z + Z, inverse(Z), Z.transpose(), R.cast(COMPLEX),
            G, G @ G, inverse(G), R.cast(GF(5)), R.cast(GF(5)) @ G]
    for M in made:
        assert not hasattr(M, "_form")
        with pytest.raises(UnsupportedBackend):
            linalg._kept_form(M)
        assert not hasattr(M, "_form")
    assert hasattr(R, "_form")      # the casts read it


# ---------------------------------------------------------------------------
# pencil nodes and their inverse Vandermonde matrix
# ---------------------------------------------------------------------------

def _vandermonde(c, backend):
    return Matrix.from_rows([[n2 ** q * n1 ** (c - q) for q in range(c + 1)]
                             for n1, n2 in linalg._pencil_nodes(c, backend)],
                            backend)


@pytest.mark.parametrize("backend", BACKENDS, ids=repr)
def test_vandermonde_inverse_is_built_once_per_size(backend, monkeypatch):
    built = []

    def counted(M):
        built.append(M.rows)
        return inverse(M)

    linalg._vandermonde_inverse.cache_clear()
    monkeypatch.setattr(linalg, "inverse", counted)
    rng = np.random.default_rng(5)
    for c in range(6):
        for _ in range(3):
            W = linalg._vandermonde_inverse(c, backend)
            assert W == inverse(_vandermonde(c, backend))
            assert W.backend == backend and not W.entries.flags.writeable
            A1, A2 = (Matrix.from_rows(rng.integers(-3, 4, size=(c, c)).tolist(),
                                       backend) for _ in range(2))
            pencil_det_poly(A1, A2)
    assert built == [1, 2, 3, 4, 5, 6]
    linalg._vandermonde_inverse.cache_clear()


@pytest.mark.parametrize("backend", BACKENDS, ids=repr)
def test_array_primitives_match_matrix_operations(backend):
    """``_matmul``, ``_inverse`` and ``_is_invertible`` (absolute and
    relative) on entry arrays give the Matrix operations' results, the
    schoolbook product and the determinant's verdict, empty shapes
    included.  ``_checked_inverse`` is None exactly when the determinant
    is 0 on the exact backends, sizes 0..5 with planted singular matrices,
    and a two-sided inverse otherwise; on floats it is ``_inverse``'s
    result byte for byte exactly when ``_is_invertible`` passes, absolute
    and relative, and None otherwise.  A non-square input is None, also
    where the pivots of [a | 1] alone would pass a wrong inverse."""
    from xnadhm.linalg import is_invertible

    bk = backend
    rng = np.random.default_rng(13)
    for rows, inner, cols in [(0, 0, 0), (2, 0, 3), (0, 3, 2), (3, 2, 0),
                              (2, 3, 4), (4, 4, 4), (1, 4, 1)]:
        A, B = (Matrix(r, c, rng.integers(-4, 5, size=r * c).tolist(), bk)
                for r, c in ((rows, inner), (inner, cols)))
        got = linalg._wrap(linalg._matmul(A.entries, B.entries, bk), bk)
        naive = [[bk.reduce(sum((x * y for x, y in zip(row, col)), bk.zero))
                  for col in B.transpose().entries.tolist()]
                 for row in A.entries.tolist()]
        assert got == A @ B
        assert (got.rows, got.cols) == (rows, cols)
        assert got.entries.tolist() == naive and _scalars_canonical(got)
    for n, entries in [(0, [])] + list(_random_int_matrices(14, count=6)):
        M = Matrix.from_rows(entries, bk) if n else Matrix.zeros(0, 0, bk)
        a = M.entries
        invertible = det(M) != 0
        assert linalg._is_invertible(a, bk) is is_invertible(M) is invertible
        assert linalg._is_invertible(a, bk, rel=True) is invertible
        if not invertible:
            continue
        inv = linalg._inverse(a, bk)
        assert np.array_equal(inv, inverse(M).entries)
        if bk.exact:
            assert linalg._matmul(inv, a, bk).tolist() == \
                Matrix.identity(n, bk).entries.tolist()
    wide = Matrix.zeros(2, 3, bk).entries
    assert not linalg._is_invertible(wide, bk)
    assert not linalg._is_invertible(wide, bk, rel=True)
    verdicts = set()
    for n in range(6):
        for planted in (False, True)[:n + 1]:
            rows = rng.integers(-4, 5, size=(n, n)).tolist()
            if planted:     # the last row is the sum of the others
                rows[-1] = [sum(col) for col in zip(*rows[:-1])] or [0]
            M = Matrix.from_rows(rows, bk) if n else Matrix.zeros(0, 0, bk)
            if bk.exact:
                inv = linalg._checked_inverse(M.entries, bk)
                assert (inv is None) is (det(M) == 0)
                verdicts.add(inv is None)
                if inv is not None:
                    inv = linalg._wrap(inv, bk)
                    eye = Matrix.identity(n, bk)
                    assert inv @ M == eye == M @ inv
                    assert _scalars_canonical(inv)
                continue
            for a in (M.entries, 1e-12 * M.entries):
                for rel in (False, True):
                    inv = linalg._checked_inverse(a, bk, rel=rel)
                    ok = linalg._is_invertible(a, bk, rel=rel)
                    verdicts.add((ok, rel))
                    assert (inv is None) is not ok
                    if ok:
                        assert inv.tobytes() == \
                            linalg._inverse(a, bk).tobytes()
    assert verdicts == ({False, True} if bk.exact else
                        {(ok, rel) for ok in (False, True)
                         for rel in (False, True)})
    for rows in ([[1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1], [1, 0]]):
        a = Matrix.from_rows(rows, bk).entries
        if bk.exact:
            ext = np.concatenate((a, linalg._identity(len(a), bk)), axis=1)
            assert linalg._rref(ext, bk)[1][:len(a)] == list(range(len(a)))
        assert linalg._checked_inverse(a, bk) is None
        assert linalg._checked_inverse(a, bk, rel=True) is None


def test_float_invertibility_at_tol_zero():
    """At ``tol = 0`` an exactly singular float diagonal reads singular,
    absolute and relative, since its smallest singular value is an exact
    0, and a nonsingular one and the empty matrix read invertible."""
    for entries, want in (([1, 0], False), ([0, 0], False), ([1, 2], True),
                          ([], True)):
        a = Matrix.diagonal(entries).entries
        for rel in (False, True):
            assert linalg._is_invertible(a, COMPLEX, 0, rel=rel) is want


@pytest.mark.parametrize("backend", [RATIONAL, GF(5)], ids=repr)
def test_exact_stack_products_equal_per_matrix_products(backend):
    """One ``_matmul`` of exact stacks, 3-D x 2-D, 2-D x 3-D and 3-D x 3-D,
    equals the product of each matrix pair entry for entry, with canonical
    scalars, for an empty stack and a zero inner dimension too."""
    bk = backend
    rng = np.random.default_rng(17)

    def stack(k, rows, cols):
        out = np.empty((k, rows, cols), dtype=object)
        for i in range(k):
            nums = rng.integers(-6, 7, size=rows * cols).tolist()
            dens = rng.integers(1, 5, size=rows * cols).tolist()
            out[i] = Matrix(rows, cols, [Fraction(a, b) for a, b in
                                         zip(nums, dens)], bk).entries
        return out

    for k, rows, inner, cols in [(4, 2, 3, 2), (3, 3, 3, 3), (0, 2, 3, 2),
                                 (3, 2, 0, 3), (0, 2, 0, 3), (2, 1, 4, 1)]:
        a3, b3 = stack(k, rows, inner), stack(k, inner, cols)
        a2, b2 = stack(1, rows, inner)[0], stack(1, inner, cols)[0]
        for a, b in [(a3, b2), (a2, b3), (a3, b3)]:
            got = linalg._matmul(a, b, bk)
            assert got.shape == (k, rows, cols)
            pairs = zip(np.broadcast_to(a, (k, rows, inner)),
                        np.broadcast_to(b, (k, inner, cols)))
            for g, (x, y) in zip(got, pairs):
                want = linalg._wrap(x.copy(), bk) @ linalg._wrap(y.copy(), bk)
                M = linalg._wrap(g.copy(), bk)
                assert M == want and _scalars_canonical(M)


# ---------------------------------------------------------------------------
# exact elimination against Fraction and residue references
# ---------------------------------------------------------------------------

def _reference_rref(a, bk):
    """Reduced row echelon form by elimination on ``Fraction`` or residue
    entries, one canonical scalar per operation: (rows, pivot columns)."""
    red = bk.reduce
    rows = a.tolist()
    nr, nc = a.shape
    pivots = []
    r = 0
    for c in range(nc):
        pivot = None
        for i in range(r, nr):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = bk.inv(rows[r][c])
        rows[r] = [red(inv * x) for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [red(x - f * y) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return rows, pivots


def _reference_det(a, bk):
    """Determinant by elimination on ``Fraction`` or residue entries."""
    red = bk.reduce
    rows = a.tolist()
    n = len(rows)
    d = bk.one
    for c in range(n):
        pivot = None
        for i in range(c, n):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            return bk.zero
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            d = -d
        d = red(d * rows[c][c])
        inv = bk.inv(rows[c][c])
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = inv * rows[i][c]
                rows[i] = [red(x - f * y) for x, y in zip(rows[i], rows[c])]
    return d


def _reference_nullspace(a, bk):
    """Free-variable kernel basis read off ``_reference_rref``."""
    rows, pivots = _reference_rref(a, bk)
    cols = a.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = [[bk.one if fc == c else bk.zero for fc in free]
             for c in range(cols)]
    for r, pc in enumerate(pivots):
        basis[pc] = [bk.reduce(-rows[r][fc]) for fc in free]
    return basis


def _reference_inverse(a, bk):
    """[a | 1] reduced by ``_reference_rref``; None when a is singular."""
    n = len(a)
    eye = Matrix.identity(n, bk).entries
    rows, pivots = _reference_rref(np.concatenate((a, eye), axis=1), bk)
    if pivots != list(range(n)):
        return None
    return [r[n:] for r in rows]


def _sweep_matrix(rng, bk):
    """A seeded entry matrix of 1 to 6 rows and columns over ``bk``: dense,
    a low-rank product, with zero columns, or sparse; rational entries have
    denominators 1 to 6 or a prime near 1e9."""
    rows, cols = (int(x) for x in rng.integers(1, 7, size=2))
    big = bk.kind == "rational" and rng.random() < 0.2

    def draw(shape, density=1.0):
        out = np.empty(shape, dtype=object)
        for idx in np.ndindex(shape):
            if rng.random() >= density:
                out[idx] = 0
            elif bk.kind == "gf":
                out[idx] = int(rng.integers(0, bk.p))
            elif big:
                out[idx] = Fraction(int(rng.integers(-10**12, 10**12)),
                                    BIG_PRIMES[int(rng.integers(0, 5))])
            else:
                out[idx] = Fraction(int(rng.integers(-6, 7)),
                                    int(rng.integers(1, 7)))
        return out

    kind = rng.integers(0, 4)
    if kind == 0:
        entries = draw((rows, cols))
    elif kind == 1:
        inner = int(rng.integers(1, min(rows, cols) + 1))
        entries = draw((rows, inner)) @ draw((inner, cols))
    elif kind == 2:
        entries = draw((rows, cols))
        entries[:, rng.random(cols) < 0.4] = 0
    else:
        entries = draw((rows, cols), density=0.25)
    return Matrix(rows, cols, entries.ravel().tolist(), bk)


@pytest.mark.parametrize("backend", [RATIONAL, GF(2), GF(5), GF(7)],
                         ids=repr)
def test_exact_kernels_match_fraction_and_residue_references(backend):
    """Bareiss elimination on integer numerators (rationals) and on
    residues modulo p (GF(p)) gives the references' canonical scalars: the
    pivots and pivot rows of the reduced echelon form, the rank, the kernel
    basis, the determinant and the inverse, ``SingularMatrix`` on singular
    input, and a rational matrix cast to GF(p) equals per-entry
    ``coerce``, including ``UnsupportedBackend`` when p divides a
    denominator."""
    from xnadhm.errors import SingularMatrix

    bk = backend
    rng = np.random.default_rng(2024 + (bk.p if bk.kind == "gf" else 0))
    kind = Fraction if bk.kind == "rational" else int
    square = singular = refused = 0
    for _ in range(600):
        M = _sweep_matrix(rng, bk)
        a = M.entries
        rows, pivots = linalg._rref(a, bk)
        want_rows, want_pivots = _reference_rref(a, bk)
        assert pivots == want_pivots
        assert rows[:len(pivots)] == want_rows[:len(pivots)]
        assert all(type(x) is kind for row in rows for x in row)
        assert rank(M) == len(pivots)
        kernel = nullspace(M)
        assert kernel.entries.tolist() == _reference_nullspace(a, bk)
        assert _scalars_canonical(kernel)
        if M.rows == M.cols:
            square += 1
            got = det(M)
            assert got == _reference_det(a, bk) and type(got) is kind
            want = _reference_inverse(a, bk)
            if want is None:
                singular += 1
                assert got == 0
                with pytest.raises(SingularMatrix):
                    inverse(M)
            else:
                assert inverse(M).entries.tolist() == want
        if bk.kind == "rational":
            for p in (2, 3, 5, 7, 13):
                try:
                    want = [[GF(p).coerce(x) for x in row]
                            for row in M.entries.tolist()]
                except UnsupportedBackend as exc:
                    refused += 1
                    with pytest.raises(UnsupportedBackend) as raised:
                        M.cast(GF(p))
                    assert str(raised.value) == str(exc)
                else:
                    cast = M.cast(GF(p))
                    assert cast.entries.tolist() == want
                    assert _scalars_canonical(cast)
    assert square > 50 and singular > 5
    assert refused > 0 or bk.kind == "gf"


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_prime_field_fraction_free_gives_the_reference_echelon_and_det(p):
    """``_fraction_free(rows, p)`` leaves the reduced echelon form of
    ``_reference_rref``, with its pivots, every pivot entry 1 and the rows
    below the rank 0, and its determinant is that of ``_reference_det``,
    modulo p, which ``_exact_det`` reads."""
    bk = GF(p)
    rng = np.random.default_rng(1968 + p)
    square = singular = 0
    for _ in range(400):
        a = _sweep_matrix(rng, bk).entries
        rows = a.tolist()
        pivots, d = linalg._fraction_free(rows, p)
        want_rows, want_pivots = _reference_rref(a, bk)
        assert pivots == want_pivots
        r = len(pivots)
        assert rows[:r] == want_rows[:r]
        assert all(rows[k][c] == 1 for k, c in enumerate(pivots))
        assert all(x == 0 for row in rows[r:] for x in row)
        if a.shape[0] == a.shape[1]:
            square += 1
            singular += d % p == 0
            assert d % p == linalg._exact_det(a, bk) == _reference_det(a, bk)
        else:
            assert d == 0
    assert square > 50 and singular > 5
    assert linalg._fraction_free([], p) == ([], 1)


def test_rational_interpolation_equals_the_matrix_route():
    """The rational ``_interpolate_form``, one integer product with the
    integer form of the inverse Vandermonde matrix, gives the coefficients
    of that matrix times the column of values as a ``Matrix`` product, and
    the form takes the values at the pencil nodes."""
    rng = np.random.default_rng(1504)
    for c in range(6):
        nodes = linalg._pencil_nodes(c, RATIONAL)
        W = linalg._vandermonde_inverse(c, RATIONAL)
        for _ in range(20):
            values = [Fraction(int(rng.integers(-10**6, 10**6)),
                               int(rng.integers(1, 50)) ** c)
                      if rng.random() < 0.8 else Fraction(0)
                      for _ in range(c + 1)]
            form = linalg._interpolate_form(values, RATIONAL)
            want = (W @ Matrix.col_vector(values, RATIONAL)).entries
            assert form.degree == c and form.backend == RATIONAL
            assert list(form.coeffs) == want.ravel().tolist()
            assert all(type(x) is Fraction for x in form.coeffs)
            assert [form.evaluate(n1, n2) for n1, n2 in nodes] == values


def test_residual_subtracts_entry_arrays_with_the_checks_of_a_minus_b():
    """``residual`` is the max-norm of ``a - b`` on every backend, raises
    ``a - b``'s ``BackendMismatch`` and ``ShapeMismatch``, and on a nonempty
    prime-field difference ``UnsupportedBackend``, as ``maxnorm`` does."""
    from xnadhm.errors import BackendMismatch
    from xnadhm.linalg import residual

    a = Matrix.from_rows([[1 + 2j, -3], [0.5, 4j]])
    b = Matrix.from_rows([[1, 0], [0, 1]])
    assert residual(a, b) == (a - b).maxnorm() == float(np.hypot(1, 4))
    q = Matrix.from_rows([["1/3", 2], [0, "-5/2"]], RATIONAL)
    assert residual(q, q.scale(2)) == (q - q.scale(2)).maxnorm() == 2.5
    assert residual(Matrix.zeros(0, 3, GF(5)), Matrix.zeros(0, 3, GF(5))) \
        == 0.0
    with pytest.raises(BackendMismatch):
        residual(b, Matrix.identity(2, RATIONAL))
    with pytest.raises(ShapeMismatch):
        residual(b, Matrix.identity(3))
    with pytest.raises(ShapeMismatch):
        residual(b, Matrix.zeros(2, 1))
    g = Matrix.from_rows([[1, 2]], GF(5))
    with pytest.raises(UnsupportedBackend):
        residual(g, Matrix.from_rows([[3, 4]], GF(5)))


# ---------------------------------------------------------------------------
# kept identities and fresh zeros
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS, ids=repr)
def test_identity_is_kept_read_only_and_equals_the_diagonal(backend):
    """``_identity(c, bk)`` is one read-only array per (c, backend), the one
    ``Matrix.identity`` wraps, with the entries, scalar types and dtype of
    a fresh ``_diagonal`` of ones."""
    for c in range(7):
        eye = linalg._identity(c, backend)
        assert linalg._identity(c, backend) is eye
        assert Matrix.identity(c, backend).entries is eye
        assert not eye.flags.writeable
        want = linalg._diagonal([backend.one] * c, backend)
        assert eye.dtype == want.dtype and eye.shape == want.shape == (c, c)
        assert eye.tolist() == want.tolist()
        assert [type(x) for x in eye.flat] == [type(x) for x in want.flat]
        if not backend.exact:
            assert eye.tobytes() == want.tobytes()
        if c:
            with pytest.raises(ValueError, match="read-only"):
                eye[0, 0] = backend.zero


@pytest.mark.parametrize("backend", BACKENDS, ids=repr)
def test_zeros_are_fresh_writable_field_zeros(backend):
    """Two ``_zeros`` calls share no memory and are writable; they hold
    +0j on floats, ``Fraction(0)`` on the rationals and the residue 0 over
    GF(p)."""
    for shape in ((2, 3), (3, 2, 4), (0, 2)):
        a, b = linalg._zeros(shape, backend), linalg._zeros(shape, backend)
        assert a.shape == b.shape == shape
        assert a.dtype == backend.dtype
        assert not np.shares_memory(a, b)
        assert a.flags.writeable and b.flags.writeable
        if backend.exact:
            kind = Fraction if backend is RATIONAL else int
            assert all(type(x) is kind and x == 0 for x in a.flat)
        else:
            assert not a.any()
            assert not (np.signbit(a.real).any() or np.signbit(a.imag).any())
        if a.size:
            a[(0,) * len(shape)] = backend.one
            assert b[(0,) * len(shape)] == backend.zero


# ---------------------------------------------------------------------------
# LAPACK kernels
# ---------------------------------------------------------------------------

#: per kernel: its gufunc binding in ``linalg``, the kernel call, the
#: np.linalg call it stands for, and whether it takes square matrices only
_KERNELS = {
    "_svdvals": ("_SVDVALS", linalg._svdvals,
                 lambda a: np.linalg.svd(a, compute_uv=False), False),
    "_svd": ("_SVD_FULL", linalg._svd, np.linalg.svd, False),
    "_svd reduced": ("_SVD_REDUCED",
                     lambda a: linalg._svd(a, full_matrices=False),
                     lambda a: np.linalg.svd(a, full_matrices=False), False),
    "_inv": ("_INV", linalg._inv, np.linalg.inv, True),
    "_eigvals": ("_EIGVALS", linalg._eigvals, np.linalg.eigvals, True),
    "_solve": ("_SOLVE", lambda a: linalg._solve(a, a[..., :2]),
               lambda a: np.linalg.solve(a, a[..., :2]), True),
}


def _kernel_inputs(square):
    rng = np.random.default_rng(39)
    shapes = [(1, 1), (3, 3), (6, 6), (4, 3, 3), (2, 2, 5, 5), (0, 0),
              (2, 0, 0), (0, 3, 3)]
    if not square:
        shapes += [(2, 5), (5, 2), (3, 2, 5), (3, 5, 2), (1, 4), (3, 0),
                   (0, 3), (2, 3, 0), (0, 2, 3)]
    for shape in shapes:
        real = rng.standard_normal(shape)
        yield real
        yield real + 1j * rng.standard_normal(shape)


def _same_bytes(got, want):
    got, want = ((r,) if isinstance(r, np.ndarray) else tuple(r)
                 for r in (got, want))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert g.tobytes() == w.tobytes()


def test_the_kernels_bind_every_gufunc_on_numpy_2():
    """On numpy >= 2 each kernel runs its ``_umath_linalg`` gufunc, so the
    byte comparisons below compare it with np.linalg and not np.linalg with
    itself."""
    if np.lib.NumpyVersion(np.__version__) < "2.0.0":
        pytest.skip("numpy < 2 takes the public np.linalg functions")
    assert all(getattr(linalg, binding) is not None
               for binding, *_ in _KERNELS.values())


@pytest.mark.parametrize("bound", [True, False], ids=["gufunc", "fallback"])
@pytest.mark.parametrize("name", list(_KERNELS))
def test_kernels_match_np_linalg_byte_for_byte(name, bound, monkeypatch):
    """Each LAPACK kernel gives np.linalg's arrays, dtype, shape and bytes,
    on complex and real matrices and stacks, square, wide, tall and empty;
    and so does the public function it falls back to when its gufunc is
    not bound."""
    binding, kernel, reference, square = _KERNELS[name]
    if not bound:
        monkeypatch.setattr(linalg, binding, None)
    for a in _kernel_inputs(square):
        _same_bytes(kernel(a), reference(a))


@pytest.mark.parametrize("silenced", [False, True], ids=["default", "ignore"])
def test_kernel_failures_raise_np_linalg_errors(silenced):
    """A LAPACK failure in a kernel raises np.linalg's ``LinAlgError`` with
    np.linalg's message and no warning, also when the caller has silenced
    numpy's floating-point errors: an SVD of a NaN matrix, an exactly
    singular inverse or solve, and eigenvalues of a matrix with an infinite
    entry, which np.linalg refuses before LAPACK sees it."""
    nan = np.array([[np.nan, 1], [1, 1]], dtype=complex)
    singular = np.array([[1, 2], [2, 4]], dtype=complex)
    inf = np.array([[np.inf, 1], [1, 1]], dtype=complex)
    cases = [
        (lambda: linalg._svdvals(nan),
         lambda: np.linalg.svd(nan, compute_uv=False)),
        (lambda: linalg._svd(nan), lambda: np.linalg.svd(nan)),
        (lambda: linalg._inv(singular), lambda: np.linalg.inv(singular)),
        (lambda: linalg._solve(singular, singular),
         lambda: np.linalg.solve(singular, singular)),
        (lambda: linalg._eigvals(inf), lambda: np.linalg.eigvals(inf)),
    ]
    with np.errstate(all="ignore" if silenced else "warn"):
        for kernel, reference in cases:
            with pytest.raises(np.linalg.LinAlgError) as want:
                reference()
            with pytest.raises(np.linalg.LinAlgError) as got:
                kernel()
            assert str(got.value) == str(want.value)
        assert np.geterr()["invalid"] == ("ignore" if silenced else "warn")


def test_a_nan_entry_raises_lapack_error_at_the_public_entry_points():
    """A NaN entry makes LAPACK fail, and the public entry points raise
    ``LinAlgError`` as np.linalg did before the kernels: ``rank``,
    ``nullspace``, ``is_invertible``, ``eigenvalues`` and ``check_T2``."""
    from xnadhm.linalg import is_invertible
    from xnadhm.plane import PlaneADHM, check_T2

    M = Matrix.from_numpy(np.array([[np.nan, 1], [0, 1]], dtype=complex))
    e = Matrix.row_vector([1, 1])
    for call in (lambda: rank(M), lambda: nullspace(M),
                 lambda: is_invertible(M), lambda: eigenvalues(M),
                 lambda: check_T2(PlaneADHM(2, M, M, e))):
        with pytest.raises(np.linalg.LinAlgError):
            call()
