"""Field-agnostic dense linear algebra.

Matrices carry one of three scalar backends:

* ``COMPLEX`` -- machine complex numbers; rank decisions are made against a
  relative tolerance (default ``DEFAULT_TOL``) and the heavy lifting is
  delegated to numpy,
* ``RATIONAL`` -- exact ``fractions.Fraction`` arithmetic,
* ``GF(p)`` -- residues modulo a prime, used as an exhaustive test oracle.

Every matrix stores its entries as one read-only ``(rows, cols)`` ndarray
of its backend's ``dtype``: complex128, or an object array holding the
exact backends' Python ``Fraction`` and ``int`` scalars.  Matrix arithmetic
is a single numpy operation on any backend, with one exception: a rational
product brings each factor over its least common denominator and multiplies
the integer numerators, so that no intermediate ``Fraction`` is made.  Only
rank, nullspace, determinant and inverse take a different algorithm on the
exact backends (elimination by hand instead of LAPACK).

A backend is ``kind``, ``exact``, ``dtype``, ``zero``, ``one`` and three
maps: ``coerce`` validates a value from outside and brings it into the
field, ``reduce`` brings the result of arithmetic, a scalar or a whole entry
array, back to its canonical form (the identity on complex and rational
values, ``x % p`` on GF(p)) and ``inv`` inverts a nonzero element.  Scalar
arithmetic is written with Python's own operators; a value is tested for
zero with ``x != 0`` only once it is coerced or reduced.

Exact backends never take a tolerance: equality is literal.  On top of the
basic rank/nullspace/determinant kit this module computes homogeneous
determinant polynomials of matrix pencils and their projective roots.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

import numpy as np

from .errors import (
    BackendMismatch,
    InvalidInput,
    ShapeMismatch,
    SingularMatrix,
    UnsupportedBackend,
    ZeroPolynomial,
)

#: default relative tolerance for every floating-point rank decision
DEFAULT_TOL = 1e-9

#: roots closer than this in the chordal metric on P^1 are merged
CLUSTER_TOL = 1e-6


def _tol(tol):
    return DEFAULT_TOL if tol is None else float(tol)


# ---------------------------------------------------------------------------
# scalar backends
# ---------------------------------------------------------------------------

class _NativeField:
    """Backend whose Python numbers are already canonical, so ``reduce`` is
    the identity and the inverse is a plain division."""

    def reduce(self, x):
        return x

    def inv(self, a):
        if a == 0:
            raise SingularMatrix("division by zero")
        return 1 / a

    def __repr__(self):
        return self.kind

    def __eq__(self, other):
        return type(other) is type(self)

    def __hash__(self):
        return hash(self.kind)


class ComplexField(_NativeField):
    kind = "complex"
    exact = False
    dtype = complex
    zero = 0j
    one = 1 + 0j

    def coerce(self, x):
        return complex(x)       # a Fraction converts through its __float__


class RationalField(_NativeField):
    kind = "rational"
    exact = True
    dtype = object
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x):
        if type(x) is Fraction:     # exact types first: skip the ABC checks
            return x
        if type(x) is int:
            return Fraction(x)
        if isinstance(x, Fraction):
            return x
        if isinstance(x, str):      # "3/4" from the command line
            return Fraction(x)
        if isinstance(x, (float, np.floating)) and x.is_integer():
            return Fraction(int(x))
        if not isinstance(x, bool):
            try:
                return Fraction(operator.index(x))
            except TypeError:
                pass
        raise UnsupportedBackend(f"cannot coerce {x!r} into the rational backend")


def _is_prime(p):
    if p < 2:
        return False
    for q in range(2, int(math.isqrt(p)) + 1):
        if p % q == 0:
            return False
    return True


class PrimeField:
    kind = "gf"
    exact = True
    dtype = object

    def __init__(self, p):
        if not _is_prime(p):
            raise UnsupportedBackend(f"{p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def coerce(self, x):
        if type(x) is int:          # exact type first: skips the ABC check
            return x % self.p
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise UnsupportedBackend(f"denominator of {x} vanishes mod {self.p}")
            return x.numerator * pow(den, self.p - 2, self.p) % self.p
        if isinstance(x, (float, np.floating)) and x.is_integer():
            return int(x) % self.p
        if not isinstance(x, bool):
            try:
                return operator.index(x) % self.p
            except TypeError:
                pass
        raise UnsupportedBackend(f"cannot coerce {x!r} into GF({self.p})")

    def reduce(self, x):
        return x % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise SingularMatrix("division by zero")
        return pow(a, self.p - 2, self.p)

    def __repr__(self):
        return f"gf({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("gf", self.p))


COMPLEX = ComplexField()
RATIONAL = RationalField()

_GF_CACHE: dict[int, PrimeField] = {}


def GF(p) -> PrimeField:
    if p not in _GF_CACHE:
        _GF_CACHE[p] = PrimeField(p)
    return _GF_CACHE[p]


def backend_from_name(name: str):
    if name == "complex":
        return COMPLEX
    if name == "rational":
        return RATIONAL
    if name.startswith("gf(") and name.endswith(")"):
        return GF(int(name[3:-1]))
    if name.startswith("gf:"):
        return GF(int(name[3:]))
    raise UnsupportedBackend(f"unknown backend {name!r}")


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class Matrix:
    """Immutable dense matrix over a fixed backend.

    The entries are one read-only ``(rows, cols)`` ndarray of the backend's
    ``dtype``: complex128 for complex matrices, an object array of
    ``Fraction`` or ``int`` residues for the exact backends.  Only the
    constructor coerces; every result of matrix arithmetic is built by
    ``_wrap`` from an array that is already in canonical form.
    """

    __slots__ = ("rows", "cols", "backend", "entries")

    def __init__(self, rows, cols, entries, backend=COMPLEX):
        if rows < 0 or cols < 0:
            raise ShapeMismatch("negative dimensions")
        entries = [backend.coerce(x) for x in entries]
        if len(entries) != rows * cols:
            raise ShapeMismatch(
                f"expected {rows * cols} entries, got {len(entries)}")
        _store(self, np.array(entries, dtype=backend.dtype).reshape(rows, cols),
               backend)

    def __setattr__(self, *_):
        raise AttributeError("Matrix is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rows(cls, rows, backend=COMPLEX):
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ShapeMismatch("ragged rows")
        return cls(r, c, [x for row in rows for x in row], backend)

    @classmethod
    def zeros(cls, rows, cols, backend=COMPLEX):
        return _wrap(_zeros((rows, cols), backend), backend)

    @classmethod
    def identity(cls, n, backend=COMPLEX):
        return _diagonal([backend.one] * n, backend)

    @classmethod
    def diagonal(cls, values, backend=COMPLEX):
        return _diagonal([backend.coerce(v) for v in values], backend)

    @classmethod
    def row_vector(cls, values, backend=COMPLEX):
        return cls(1, len(values), values, backend)

    @classmethod
    def col_vector(cls, values, backend=COMPLEX):
        return cls(len(values), 1, values, backend)

    @classmethod
    def from_numpy(cls, arr):
        """Complex matrix holding a copy of a 2-d array."""
        arr = np.array(arr, dtype=complex)
        if arr.ndim != 2:
            raise ShapeMismatch("expected a 2-d array")
        return _wrap(arr)

    # -- access --------------------------------------------------------------

    def at(self, i, j):
        return self.entries.item(i, j)

    def __getitem__(self, ij):
        i, j = ij
        return self.at(i, j)

    def row_list(self):
        return self.entries.tolist()

    def column(self, j):
        return _wrap(self.entries[:, [j]], self.backend)

    def submatrix(self, row_range, col_range):
        return _wrap(self.entries[list(row_range)][:, list(col_range)],
                     self.backend)

    # -- arithmetic ----------------------------------------------------------

    def _result(self, arr):
        """Matrix over this backend holding the result of array arithmetic
        on its entries, brought back to canonical form."""
        bk = self.backend
        return _wrap(bk.reduce(arr), bk)

    def _check_same(self, other):
        if self.backend is not other.backend and self.backend != other.backend:
            raise BackendMismatch(f"{self.backend} vs {other.backend}")

    def __add__(self, other):
        self._check_same(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("addition shape mismatch")
        return self._result(self.entries + other.entries)

    def __sub__(self, other):
        self._check_same(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("subtraction shape mismatch")
        return self._result(self.entries - other.entries)

    def __neg__(self):
        return self._result(-self.entries)

    def scale(self, s):
        return self._result(self.backend.coerce(s) * self.entries)

    def __matmul__(self, other):
        self._check_same(other)
        if self.cols != other.rows:
            raise ShapeMismatch(
                f"matmul {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        if self.cols == 0:
            # an empty object matmul fills with int 0, not the field's zero
            return Matrix.zeros(self.rows, other.cols, self.backend)
        if self.backend.kind == "rational":
            return _wrap(_rational_product(self.entries, other.entries),
                         self.backend)
        return self._result(self.entries @ other.entries)

    def transpose(self):
        return _wrap(self.entries.T, self.backend)

    def power(self, k):
        if self.rows != self.cols:
            raise ShapeMismatch("power of a non-square matrix")
        if k < 0:
            raise InvalidInput(f"negative matrix power {k}")
        out = Matrix.identity(self.rows, self.backend)
        for _ in range(k):
            out = out @ self
        return out

    # -- conversions / norms -------------------------------------------------

    def to_numpy(self):
        """Complex ndarray of the entries; for a complex matrix this is the
        stored read-only array itself."""
        if self.backend.kind == "gf":
            raise UnsupportedBackend("prime-field matrices have no float image")
        return self.entries.astype(complex, copy=False)

    def maxnorm(self):
        if not self.entries.size:
            return 0.0
        if self.backend.kind == "gf":
            raise UnsupportedBackend("prime-field matrices have no norm")
        return float(np.abs(self.entries).max())

    def is_zero(self, tol=None):
        if self.backend.exact:
            return not any(self.entries.flat)
        return self.maxnorm() <= _tol(tol)

    def cast(self, backend):
        """Re-express the entries in another backend (rational -> complex or
        GF(p), integers -> anything).  Lossy directions raise; residues have
        no canonical lift, so a prime-field matrix cannot leave its field."""
        if backend == self.backend:
            return self
        if self.backend.kind == "gf":
            raise UnsupportedBackend("prime-field residues cannot be lifted")
        return Matrix(self.rows, self.cols, self.entries.ravel().tolist(),
                      backend)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.backend == other.backend
                and bool(np.array_equal(self.entries, other.entries)))

    def __hash__(self):
        return hash((self.rows, self.cols,
                     tuple(self.entries.ravel().tolist())))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {self.backend})"


_set_rows = Matrix.rows.__set__
_set_cols = Matrix.cols.__set__
_set_backend = Matrix.backend.__set__
_set_entries = Matrix.entries.__set__


def _store(M, arr, backend):
    """Freeze ``arr`` in place and make it the entries of ``M``; the slots
    are set through their descriptors, past the guarding ``__setattr__``."""
    arr.setflags(write=False)
    rows, cols = arr.shape
    _set_rows(M, rows)
    _set_cols(M, cols)
    _set_backend(M, backend)
    _set_entries(M, arr)


def _wrap(arr, backend=COMPLEX) -> Matrix:
    """Matrix that takes ownership of a 2-d array of the backend's dtype
    whose entries are already canonical: neither copied nor coerced."""
    M = Matrix.__new__(Matrix)
    _store(M, arr, backend)
    return M


def _wrap_rows(rows, cols, backend) -> Matrix:
    """Matrix of canonical rows (lists of scalars) from exact elimination."""
    return _wrap(np.array(rows, dtype=object).reshape(len(rows), cols), backend)


def _integer_form(arr):
    """(N, d) for an object array of rationals: d is the least common
    denominator of the entries and N the array of Python ints d * arr."""
    pairs = [x.as_integer_ratio() for x in arr.flat]
    d = math.lcm(*[q for _, q in pairs])
    return (np.array([p * (d // q) for p, q in pairs], dtype=object)
            .reshape(arr.shape), d)


def _rational_product(a, b):
    """a @ b for object arrays of rationals, as one integer matmul of the
    numerators over the product of the two common denominators: the
    canonical ``Fraction`` of each result entry is made once, not once per
    term.  Exact, so the entries equal those of ``a @ b``."""
    na, da = _integer_form(a)
    nb, db = _integer_form(b)
    d = da * db
    shape = (a.shape[0], b.shape[1])
    return np.fromiter((Fraction(v, d) for v in (na @ nb).flat),
                       dtype=object, count=shape[0] * shape[1]).reshape(shape)


def _zeros(shape, backend):
    arr = np.empty(shape, dtype=backend.dtype)
    arr.fill(backend.zero)      # np.zeros would fill an object array with int 0
    return arr


def _diagonal(values, backend) -> Matrix:
    n = len(values)
    arr = _zeros((n, n), backend)
    arr.flat[::n + 1] = values
    return _wrap(arr, backend)


def hstack(*mats):
    rows = mats[0].rows
    bk = mats[0].backend
    if any(m.rows != rows or m.backend != bk for m in mats):
        raise ShapeMismatch("hstack mismatch")
    return _wrap(np.concatenate([m.entries for m in mats], axis=1), bk)


def vstack(*mats):
    cols = mats[0].cols
    bk = mats[0].backend
    if any(m.cols != cols or m.backend != bk for m in mats):
        raise ShapeMismatch("vstack mismatch")
    return _wrap(np.concatenate([m.entries for m in mats]), bk)


def residual(a: Matrix, b: Matrix) -> float:
    """Max-norm of the difference, computed over floats."""
    return (a - b).maxnorm()


def scale_of(*mats) -> float:
    """max(1, largest max-norm); the reference scale for relative tolerances."""
    best = 1.0
    for m in mats:
        best = max(best, m.maxnorm())
    return best


# ---------------------------------------------------------------------------
# elimination-based kernels (shared by the exact backends)
# ---------------------------------------------------------------------------

def _rref(M: Matrix):
    """Reduced row echelon form over an exact backend.

    Returns (rows, pivot_columns) where ``rows`` is a list of row lists.
    """
    bk = M.backend
    red = bk.reduce
    rows = M.row_list()
    nr, nc = M.rows, M.cols
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


def rank(M: Matrix, tol=None) -> int:
    """Number of singular values above ``tol * max(1, |M|)`` (complex backend)
    or the exact rank (exact backends)."""
    if M.rows == 0 or M.cols == 0:
        return 0
    if M.backend.exact:
        return len(_rref(M)[1])
    s = np.linalg.svd(M.to_numpy(), compute_uv=False)
    thr = _tol(tol) * max(1.0, M.maxnorm())
    return int(np.sum(s > thr))


def nullspace(M: Matrix, tol=None) -> Matrix:
    """Matrix whose columns are a basis of ker M.

    The float backend returns an orthonormal basis (SVD); exact backends
    return the standard free-variable basis of the reduced echelon form.
    """
    bk = M.backend
    if M.cols == 0:
        return Matrix.zeros(0, 0, bk)
    if M.rows == 0:
        return Matrix.identity(M.cols, bk)
    if bk.exact:
        rows, pivots = _rref(M)
        free = [c for c in range(M.cols) if c not in pivots]
        basis = _zeros((M.cols, len(free)), bk)
        basis[free, range(len(free))] = bk.one
        for r, pc in enumerate(pivots):
            basis[pc] = [-rows[r][fc] for fc in free]
        return _wrap(bk.reduce(basis), bk)
    a = M.to_numpy()
    _, s, vh = np.linalg.svd(a)
    thr = _tol(tol) * max(1.0, M.maxnorm())
    r = int(np.sum(s > thr))
    return _wrap(vh[r:].conj().T)


def det(M: Matrix):
    if M.rows != M.cols:
        raise ShapeMismatch("determinant of a non-square matrix")
    bk = M.backend
    if M.rows == 0:
        return bk.one
    if not bk.exact:
        return complex(np.linalg.det(M.to_numpy()))
    red = bk.reduce
    rows = M.row_list()
    n = M.rows
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


def inverse(M: Matrix) -> Matrix:
    if M.rows != M.cols:
        raise ShapeMismatch("inverse of a non-square matrix")
    bk = M.backend
    if not bk.exact:
        try:
            return _wrap(np.linalg.inv(M.to_numpy()))
        except np.linalg.LinAlgError as exc:
            raise SingularMatrix(str(exc)) from None
    aug = hstack(M, Matrix.identity(M.rows, bk))
    rows, pivots = _rref(aug)
    if pivots != list(range(M.rows)):
        raise SingularMatrix("matrix is singular over the exact backend")
    return _wrap_rows([r[M.rows:] for r in rows], M.rows, bk)


def is_invertible(M: Matrix, tol=None) -> bool:
    if M.rows != M.cols:
        return False
    if M.rows == 0:
        return True
    if M.backend.exact:
        return det(M) != 0
    s = np.linalg.svd(M.to_numpy(), compute_uv=False)
    return bool(s[-1] > _tol(tol) * max(1.0, M.maxnorm()))


def is_invertible_rel(M: Matrix, tol=None) -> bool:
    """Scale-free invertibility (smallest over largest singular value);
    appropriate for gauge blocks, whose overall scale is meaningless."""
    if M.rows != M.cols:
        return False
    if M.rows == 0:
        return True
    if M.backend.exact:
        return det(M) != 0
    s = np.linalg.svd(M.to_numpy(), compute_uv=False)
    return bool(s[0] > 0 and s[-1] > _tol(tol) * s[0])


def _node_matrix(A1: Matrix, A2: Matrix, n1, n2) -> Matrix:
    """n1 A1 + n2 A2 at a node (n1, n2) != (0, 0), on any backend, without
    the products by a zero or unit coefficient: the exact pencil nodes
    (1, q) and (0, 1) are mostly 0 and 1, and each product is a pass over
    ``Fraction`` or residue entries."""
    terms = [A if s == 1 else A.scale(s)
             for A, s in ((A1, n1), (A2, n2)) if s != 0]
    return terms[0] if len(terms) == 1 else terms[0] + terms[1]


def _node_stack(A1: Matrix, A2: Matrix, nodes):
    """(len(nodes), c, c) complex array holding n1 A1 + n2 A2 for each node
    (n1, n2): the batched ``_node_matrix``."""
    w = np.array(nodes, dtype=complex)
    return (w[:, 0, None, None] * A1.to_numpy()
            + w[:, 1, None, None] * A2.to_numpy())


def _conditioning(stack):
    """(smallest singular value, max(1, max-norm)) of each matrix of a
    (k, c, c) stack, from one batched SVD: the two sides of
    ``is_invertible``'s test.  An empty matrix is invertible (s_min = inf)."""
    if stack.shape[-1] == 0:
        return np.full(len(stack), np.inf), np.ones(len(stack))
    s_min = np.linalg.svd(stack, compute_uv=False)[:, -1]
    return s_min, np.maximum(1.0, np.abs(stack).max(axis=(1, 2)))


# ---------------------------------------------------------------------------
# eigenvalues (float backend only)
# ---------------------------------------------------------------------------

def eigenvalues(M: Matrix, cluster_tol=CLUSTER_TOL):
    """Clustered eigenvalues with multiplicities, sorted deterministically.

    Rational matrices are promoted to floats; the prime field has no
    eigenvalue machinery.
    """
    if M.backend.kind == "gf":
        raise UnsupportedBackend("no eigenvalues over a prime field")
    if M.rows != M.cols:
        raise ShapeMismatch("eigenvalues of a non-square matrix")
    if M.rows == 0:
        return []
    vals = sorted(np.linalg.eigvals(M.to_numpy()).tolist(),
                  key=lambda z: (z.real, z.imag))
    clusters = []
    for z in vals:
        for k, (rep, mult) in enumerate(clusters):
            if abs(z - rep) <= cluster_tol * max(1.0, abs(z), abs(rep)):
                clusters[k] = ((rep * mult + z) / (mult + 1), mult + 1)
                break
        else:
            clusters.append((z, 1))
    return clusters


# ---------------------------------------------------------------------------
# homogeneous determinant polynomials and projective roots
# ---------------------------------------------------------------------------

class HomogPoly:
    """Homogeneous binary form; ``coeffs[q]`` multiplies nu2^q nu1^(deg-q)."""

    __slots__ = ("degree", "coeffs", "backend")

    def __init__(self, degree, coeffs, backend=COMPLEX):
        coeffs = tuple(backend.coerce(x) for x in coeffs)
        if len(coeffs) != degree + 1:
            raise ShapeMismatch("coefficient array length must be degree+1")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "backend", backend)

    def __setattr__(self, *_):
        raise AttributeError("HomogPoly is immutable")

    def evaluate(self, nu1, nu2):
        bk = self.backend
        nu1 = bk.coerce(nu1)
        nu2 = bk.coerce(nu2)
        return bk.reduce(sum(a * (nu2 ** q * nu1 ** (self.degree - q))
                             for q, a in enumerate(self.coeffs)))

    def max_coeff(self):
        if self.backend.kind == "gf":
            raise UnsupportedBackend("no norm over a prime field")
        return max((abs(complex(x)) for x in self.coeffs), default=0.0)

    def is_zero(self, tol=None, scale=1.0):
        if self.backend.exact:
            return not any(self.coeffs)
        return self.max_coeff() <= _tol(tol) * max(1.0, scale)

    def __eq__(self, other):
        return (isinstance(other, HomogPoly) and self.degree == other.degree
                and self.coeffs == other.coeffs and self.backend == other.backend)

    def __repr__(self):
        return f"HomogPoly(deg={self.degree}, {self.coeffs})"


def _snap(v):
    for target in (0.0, 1.0, -1.0):
        if abs(v - target) < 1e-14:
            return target
    return v


def angle_constants(c_count: int, k: int):
    """(cos, sin) of pi*k/(c_count+1); exact 0 / +-1 values are snapped."""
    theta = math.pi * k / (c_count + 1)
    return _snap(math.cos(theta)), _snap(math.sin(theta))


@functools.lru_cache(maxsize=None)
def _pencil_nodes(c: int, backend) -> tuple:
    """The c+1 pairwise non-proportional nodes (nu1, nu2) at which a pencil
    of size c is sampled: the charts' (s_m, c_m) = (sin, cos)(pi*m/(c+1))
    on floats, whose node matrix is A2m = s_m A1 + c_m A2, (1, q) for
    q = 0..c on the rationals, and (1, t) for t = 0..p-1, then (0, 1), on
    GF(p), which has only p+1 projective points."""
    bk = backend
    if not bk.exact:
        return tuple(tuple(map(bk.coerce, angle_constants(c, m)[::-1]))
                     for m in range(c + 1))
    if bk.kind == "rational":
        return tuple((bk.one, bk.coerce(q)) for q in range(c + 1))
    if c + 1 > bk.p + 1:
        raise UnsupportedBackend(
            f"need {c + 1} projective nodes, GF({bk.p}) has {bk.p + 1}")
    nodes = [(bk.one, bk.coerce(t)) for t in range(min(c + 1, bk.p))]
    if len(nodes) < c + 1:
        nodes.append((bk.zero, bk.one))
    return tuple(nodes)


@functools.lru_cache(maxsize=None)
def _vandermonde_inverse(c: int, backend) -> Matrix:
    """Inverse of the Vandermonde matrix [n2^q n1^(c-q)] of the pencil nodes:
    it maps a form's values at the nodes to its coefficients.  Computed once
    per (c, backend)."""
    return inverse(Matrix.from_rows(
        [[n2 ** q * n1 ** (c - q) for q in range(c + 1)]
         for n1, n2 in _pencil_nodes(c, backend)], backend))


def _interpolate_form(values, backend) -> HomogPoly:
    """The binary form of degree c = len(values) - 1 that takes ``values``
    at ``_pencil_nodes(c, backend)``, by one product with the cached inverse
    Vandermonde matrix."""
    c = len(values) - 1
    values = Matrix.col_vector(values, backend)
    coeffs = _vandermonde_inverse(c, backend) @ values
    return HomogPoly(c, coeffs.entries.ravel().tolist(), backend)


def pencil_det_poly(A1: Matrix, A2: Matrix, tol=None) -> HomogPoly:
    """det(nu1*A1 + nu2*A2) as a homogeneous form of degree c.

    Computed by evaluation at the c+1 ``_pencil_nodes`` followed by
    interpolation with the cached inverse Vandermonde matrix.
    ``analyze_pencil`` interpolates on the rational backend only, from the
    node determinants it has taken already: a float pencil's regularity and
    spectrum come from the node matrices themselves, without the
    interpolated form, whose roots lose accuracy at clustered roots, and
    exact regularity is the first nonzero node determinant.
    """
    if A1.rows != A1.cols or A2.rows != A2.cols or A1.rows != A2.rows:
        raise ShapeMismatch("pencil matrices must be square of equal size")
    if A1.backend != A2.backend:
        raise BackendMismatch("pencil matrices on different backends")
    bk = A1.backend
    return _interpolate_form([det(_node_matrix(A1, A2, n1, n2))
                              for n1, n2 in _pencil_nodes(A1.rows, bk)], bk)


def _normalize_point(l1, l2):
    """Scale a projective point so its largest coordinate is exactly 1."""
    if abs(l1) >= abs(l2):
        return (1.0 + 0j, l2 / l1)
    return (l1 / l2, 1.0 + 0j)


def chordal_distance(p, q) -> float:
    (a, b), (c, d) = p, q
    na = math.hypot(abs(a), abs(b))
    nb = math.hypot(abs(c), abs(d))
    return abs(a * d - b * c) / (na * nb)


def projective_roots(p: HomogPoly, tol=None, cluster_tol=CLUSTER_TOL):
    """All projective roots of a nonzero binary form, with multiplicities.

    Roots are normalized to max-coordinate 1 and returned sorted; roots
    within ``cluster_tol`` in the chordal metric are merged and their
    multiplicities added.  The point [1:0] needs no companion matrix: its
    multiplicity is the number of vanishing leading coefficients.
    """
    if p.backend.kind == "gf":
        raise UnsupportedBackend("no root finding over a prime field")
    coeffs = [complex(x) for x in p.coeffs]
    mx = max((abs(x) for x in coeffs), default=0.0)
    thr = _tol(tol) * max(1.0, mx)
    sig = [q for q, a in enumerate(coeffs) if abs(a) > thr]
    if not sig:
        raise ZeroPolynomial("all coefficients below tolerance")
    lo, hi = sig[0], sig[-1]
    raw = []
    if lo > 0:
        raw.append(((1.0 + 0j, 0j), lo))
    if hi < p.degree:
        raw.append(((0j, 1.0 + 0j), p.degree - hi))
    mid = coeffs[lo:hi + 1]
    if len(mid) > 1:
        raw.extend(((1.0 + 0j, complex(s)), 1)
                   for s in np.roots(list(reversed(mid))))
    return _merge_roots(raw, cluster_tol)


def _merge_roots(raw, cluster_tol=CLUSTER_TOL):
    """Projective roots ``[((l1, l2), mult), ...]`` as every spectrum route
    returns them: each point normalized to max-coordinate 1, sorted, and
    points within ``cluster_tol`` in the chordal metric merged with their
    multiplicities added."""
    raw = sorted(((_normalize_point(*pt), mult) for pt, mult in raw),
                 key=lambda it: (it[0][0].real, it[0][0].imag,
                                 it[0][1].real, it[0][1].imag))
    merged = []
    for pt, mult in raw:
        for k, (rep, m0) in enumerate(merged):
            if chordal_distance(pt, rep) <= cluster_tol:
                merged[k] = (rep, m0 + mult)
                break
        else:
            merged.append((pt, mult))
    return merged
