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
the integer numerators, so that no intermediate ``Fraction`` is made; a
rational ``Matrix`` keeps that integer form once it is taken
(``_kept_form``), and a rational product keeps the form of its result.  Only
rank, nullspace, determinant and inverse take a different algorithm on the
exact backends (elimination by hand instead of LAPACK), and it runs on
Python ints as well.  There is one elimination loop, ``_fraction_free``:
Bareiss's fraction-free Gauss-Jordan elimination (Math. Comp. 22, 1968) on
integer rows, or on residues modulo p, where it scales each pivot row to 1
and updates only the rows with a nonzero entry in the pivot column.  Its
last pivot is the determinant: every exact determinant is one call of it
over the integers, on the integer form of rationals over the common
denominator to the power c, on residues, reduced modulo p afterwards, and
on the integer matrix of a pencil node (``_node_det``).  Rank, nullspace
and inverse (``_rref``) run it on rational rows over their own common
denominators, making one ``Fraction`` per nonzero result entry, or on
residues modulo p, whose result needs no further pass.  Exact
invertibility and the inverse are one ``_rref`` of [a | 1]
(``_checked_inverse``): its pivots decide and its right block is a^-1; a
test that needs no inverse (``_is_invertible``) reads the pivots of
``_rref(a)`` alone.

The product, the inverse, the invertibility tests, the max-norm and the
float image are array primitives on entries (``_matmul``, ``_inverse``,
``_is_invertible``, ``_maxnorm``, ``_complex_entries``) that the Matrix
operations and ``residual`` wrap; kernels on small blocks (the chart
dictionary and the chart (P3) test, the (P1)/(Q1) defects on stacks of C
blocks, chart transitions, monad gauge normalization) call them on arrays
and wrap their results once, where a public function returns them.  Every
float LAPACK call but those of ``inverse`` and ``det`` is one of the
kernels ``_svdvals``, ``_svd``, ``_inv``, ``_eigvals`` and ``_solve``.  The
identity of each size and backend is built once, by ``_identity``, and kept
read-only, so that every caller shares it; ``_zeros`` gives a fresh
writable array on each call.

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
    """``tol`` as a float, ``DEFAULT_TOL`` for None; ``InvalidInput`` unless
    it is a finite number >= 0 (a negative or NaN threshold would pass or
    fail every rank test, whatever the data)."""
    if tol is None:
        return DEFAULT_TOL
    try:
        t = float(tol)
    except (TypeError, ValueError):
        raise InvalidInput(f"tol must be a number, got {tol!r}") from None
    if not 0 <= t < math.inf:
        raise InvalidInput(f"tol must be finite and >= 0, got {tol!r}")
    return t


# ---------------------------------------------------------------------------
# LAPACK kernels (float backend)
# ---------------------------------------------------------------------------
#
# Every float LAPACK question of the library is one of the five kernels
# below: singular values, the SVD with vectors, the inverse of a matrix
# already decided invertible, eigenvalues and solve.  Each calls numpy's own
# gufunc from ``numpy.linalg._umath_linalg``, bound here once, with the
# signature and under the error state that np.linalg uses for complex128
# input, so a result is np.linalg's bit for bit and a LAPACK failure raises
# np.linalg's ``LinAlgError``.  What it skips is np.linalg's per-call
# wrapper (array conversion, type resolution, a fresh ``np.errstate``),
# which on the c <= 6 matrices of the chart dictionary costs about as much
# as LAPACK itself.  Input of any other dtype, and every call on a numpy
# that lacks the gufunc or the error-state context variable (numpy < 2),
# goes to the public np.linalg function.  ``inverse`` and ``det`` keep
# np.linalg: they decide nothing before LAPACK runs.  Other modules call the
# kernels as attributes of this module (``linalg._svd``), so one patch here
# reaches every call.

try:
    from numpy._core.umath import _extobj_contextvar, _make_extobj
    from numpy.linalg import _umath_linalg
except ImportError:
    _umath_linalg = None

_CDOUBLE = np.dtype(complex)


def _lapack_gufunc(name, message):
    """(gufunc, error state) of ``numpy.linalg._umath_linalg.<name>``, or
    None where this numpy lacks it.  The error state is np.linalg's: a
    LAPACK failure, which the gufunc flags as an invalid value, raises
    ``np.linalg.LinAlgError(message)``, and the other floating-point flags
    are ignored."""
    gufunc = getattr(_umath_linalg, name, None)
    if gufunc is None:
        return None

    def fail(err, flag):
        raise np.linalg.LinAlgError(message)

    return gufunc, _make_extobj(call=fail, invalid="call", over="ignore",
                                divide="ignore", under="ignore")


_SVDVALS = _lapack_gufunc("svd", "SVD did not converge")
_SVD_FULL = _lapack_gufunc("svd_f", "SVD did not converge")
_SVD_REDUCED = _lapack_gufunc("svd_s", "SVD did not converge")
_INV = _lapack_gufunc("inv", "Singular matrix")
_EIGVALS = _lapack_gufunc("eigvals", "Eigenvalues did not converge")
_SOLVE = _lapack_gufunc("solve", "Singular matrix")


def _lapack(bound, signature, *arrays):
    """The bound gufunc of ``_lapack_gufunc`` on ``arrays`` under its error
    state."""
    gufunc, state = bound
    token = _extobj_contextvar.set(state)
    try:
        return gufunc(*arrays, signature=signature)
    finally:
        _extobj_contextvar.reset(token)


def _svdvals(a):
    """Singular values, in descending order, of a matrix or of each matrix
    of a stack: ``np.linalg.svd(a, compute_uv=False)``."""
    if _SVDVALS is None or a.dtype is not _CDOUBLE:
        return np.linalg.svd(a, compute_uv=False)
    return _lapack(_SVDVALS, "D->d", a)


def _svd(a, full_matrices=True):
    """(u, s, vh) of a matrix or of each matrix of a stack:
    ``np.linalg.svd(a, full_matrices)``."""
    bound = _SVD_FULL if full_matrices else _SVD_REDUCED
    if bound is None or a.dtype is not _CDOUBLE:
        return np.linalg.svd(a, full_matrices=full_matrices)
    return _lapack(bound, "D->DdD", a)


def _inv(a):
    """Inverse of a square matrix, or of each matrix of a stack, that a test
    has already found invertible: ``np.linalg.inv(a)``."""
    if _INV is None or a.dtype is not _CDOUBLE:
        return np.linalg.inv(a)
    return _lapack(_INV, "D->D", a)


def _eigvals(a):
    """Eigenvalues of a square matrix, or of each matrix of a stack:
    ``np.linalg.eigvals(a)``, which refuses non-finite entries before LAPACK
    sees them."""
    if (_EIGVALS is None or a.dtype is not _CDOUBLE
            or not np.isfinite(a).all()):
        return np.linalg.eigvals(a)
    return _lapack(_EIGVALS, "D->D", a)


def _solve(a, b):
    """x with a x = b for a square matrix a and a matrix b, or for each pair
    of a stack: ``np.linalg.solve(a, b)``."""
    if _SOLVE is None or a.dtype is not _CDOUBLE or b.dtype is not _CDOUBLE:
        return np.linalg.solve(a, b)
    return _lapack(_SOLVE, "DD->D", a, b)


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

    def __reduce__(self):
        return backend_from_name, (repr(self),)

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


#: prime fields are refused from this size on, before the trial-division
#: primality test, which takes seconds near 10**15 and does not finish for
#: a 25-digit p
MAX_PRIME = 2 ** 31


class PrimeField:
    kind = "gf"
    exact = True
    dtype = object

    def __init__(self, p):
        if p >= MAX_PRIME:
            raise UnsupportedBackend(f"prime fields need p < 2**31, got {p}")
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

    def __reduce__(self):
        return backend_from_name, (repr(self),)

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
    try:
        if name.startswith("gf(") and name.endswith(")"):
            return GF(int(name[3:-1]))
        if name.startswith("gf:"):
            return GF(int(name[3:]))
    except ValueError:
        pass
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

    A rational matrix also keeps its integer form (N, d), d the least
    common denominator of the entries and N the read-only array of Python
    ints d * entries, in the slot ``_form``: ``_kept_form`` fills it on
    first request, and a rational product stores the form it was computed
    from.  The cast to GF(p), the pencil's node forms and the stacked chain
    defects read the kept form, so each matrix's form is computed at most
    once.  Complex and prime-field matrices never fill the slot.
    """

    __slots__ = ("rows", "cols", "backend", "entries", "_form")

    def __init__(self, rows, cols, entries, backend=COMPLEX):
        _check_dims(rows, cols)
        entries = [backend.coerce(x) for x in entries]
        if len(entries) != rows * cols:
            raise ShapeMismatch(
                f"expected {rows * cols} entries, got {len(entries)}")
        _store(self, np.array(entries, dtype=backend.dtype).reshape(rows, cols),
               backend)

    def __setattr__(self, *_):
        raise AttributeError("Matrix is immutable")

    def __reduce__(self):
        # the slots cannot be restored through __setattr__; a rational
        # matrix computes its integer form again on request
        return _wrap, (self.entries, self.backend)

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
        _check_dims(rows, cols)
        return _wrap(_zeros((rows, cols), backend), backend)

    @classmethod
    def identity(cls, n, backend=COMPLEX):
        _check_dims(n)
        return _wrap(_identity(n, backend), backend)

    @classmethod
    def diagonal(cls, values, backend=COMPLEX):
        return _wrap(_diagonal([backend.coerce(v) for v in values], backend),
                     backend)

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

    def __getitem__(self, ij):
        i, j = ij
        return self.entries.item(i, j)

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
        bk = self.backend
        if bk.kind == "rational":
            form = _form_product(_kept_form(self), _kept_form(other))
            form[0].setflags(write=False)
            M = _wrap(_fractions(*form), bk)
            _set_form(M, form)
            return M
        return _wrap(_matmul(self.entries, other.entries, bk), bk)

    def transpose(self):
        return _wrap(self.entries.T, self.backend)

    # -- conversions / norms -------------------------------------------------

    def to_numpy(self):
        """Complex ndarray of the entries; for a complex matrix this is the
        stored read-only array itself.  A rational entry becomes p / q of
        its integer ratio, the correctly rounded float that ``float`` of a
        ``Fraction`` gives (``OverflowError`` beyond the float range)."""
        return _complex_entries(self.entries, self.backend)

    def maxnorm(self):
        return _maxnorm(self.entries, self.backend)

    def is_zero(self, tol=None):
        if self.backend.exact:
            return not any(self.entries.flat)
        return self.maxnorm() <= _tol(tol)

    def cast(self, backend):
        """Re-express the entries in another backend (rational -> complex or
        GF(p), integers -> anything).  Lossy directions raise; residues have
        no canonical lift, so a prime-field matrix cannot leave its field.

        A rational matrix goes to GF(p) through its kept integer form N / d
        (``_kept_form``): the residues of N times the one inverse of d
        modulo p.  When p divides d, some entry's denominator vanishes
        modulo p, and the per-entry ``coerce`` raises its
        ``UnsupportedBackend``."""
        if backend == self.backend:
            return self
        if self.backend.kind == "gf":
            raise UnsupportedBackend("prime-field residues cannot be lifted")
        if self.backend.kind == "rational" and backend.kind == "gf":
            num, d = _kept_form(self)
            if d % backend.p:
                return _wrap(backend.reduce(
                    num * pow(d, backend.p - 2, backend.p)), backend)
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
_set_form = Matrix._form.__set__


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


def _complex_entries(arr, backend):
    """``Matrix.to_numpy`` of an entry array of ``backend``."""
    kind = backend.kind
    if kind == "gf":
        raise UnsupportedBackend("prime-field matrices have no float image")
    if kind == "rational":
        return np.array([p / q for p, q in (x.as_integer_ratio()
                                            for x in arr.flat)],
                        dtype=complex).reshape(arr.shape)
    return arr


def _maxnorm(arr, backend) -> float:
    """``Matrix.maxnorm`` of an entry array of ``backend``: 0.0 when empty,
    and ``UnsupportedBackend`` on a nonempty prime-field array."""
    if not arr.size:
        return 0.0
    if backend.kind == "gf":
        raise UnsupportedBackend("prime-field matrices have no norm")
    return float(np.abs(arr).max())


def _integer_form(arr):
    """(N, d) for an object array of rationals: d is the least common
    denominator of the entries and N the array of Python ints d * arr."""
    nums, d = _numerators(arr.flat)
    return np.array(nums, dtype=object).reshape(arr.shape), d


def _numerators(values):
    """(list of Python ints d * x, d) for rationals x, d their least common
    denominator."""
    pairs = [x.as_integer_ratio() for x in values]
    d = math.lcm(*[q for _, q in pairs])
    return [p * (d // q) for p, q in pairs], d


def _kept_form(M):
    """The integer form (N, d) of a rational Matrix, as ``_integer_form``
    of its entries, computed on the first request and kept in its slot
    ``_form`` with N read-only."""
    try:
        return M._form
    except AttributeError:
        if M.backend.kind != "rational":
            raise UnsupportedBackend(
                f"only rational matrices have an integer form, not {M.backend}"
            ) from None
        form = _integer_form(M.entries)
        form[0].setflags(write=False)
        _set_form(M, form)
        return form


def _form_product(fa, fb):
    """The integer form of a @ b from the integer forms (Na, da) and
    (Nb, db) of two rational arrays: with N = Na @ Nb, D = da db and
    g = gcd(D, every entry of N), the pair (N / g, D / g).  D / g is the
    least common denominator of the entries N / D, so the pair is
    ``_integer_form`` of the product, with no ``as_integer_ratio`` pass."""
    (na, da), (nb, db) = fa, fb
    num, d = na @ nb, da * db
    g = math.gcd(d, *num.flat)
    if g != 1:
        num, d = num // g, d // g
    return num, d


def _rational_product(a, b):
    """a @ b for object arrays of rationals, as one integer matmul of the
    numerators over the product of the two common denominators
    (``_form_product``): the canonical ``Fraction`` of each result entry is
    made once, not once per term.  Exact, so the entries equal those of
    ``a @ b``."""
    return _fractions(*_form_product(_integer_form(a), _integer_form(b)))


def _fractions(num, d):
    """Object array of the canonical ``Fraction(v, d)`` for each Python int
    v != 0 of the integer array ``num``, the shared ``RATIONAL.zero`` else."""
    zero = RATIONAL.zero
    return np.fromiter((Fraction(v, d) if v else zero for v in num.flat),
                       dtype=object, count=num.size).reshape(num.shape)


def _matmul(a, b, backend):
    """a @ b for entry arrays of one backend, in canonical form: one array
    product on every backend, for two matrices, two stacks of equal length
    or a stack and one matrix.  Residues take one ``% p`` and rationals one
    ``_rational_product`` over each operand's common denominator, so the
    int 0 that an object product with an empty inner dimension holds comes
    out as the field's zero."""
    if backend.kind == "rational":
        return _rational_product(a, b)
    return backend.reduce(a @ b)


def _check_dims(rows, cols=0):
    if rows < 0 or cols < 0:
        raise ShapeMismatch("negative dimensions")


def _zeros(shape, backend):
    """A fresh writable array of the backend's zeros: +0j on floats, and
    ``Fraction(0)`` or residue 0 on the exact backends."""
    if not backend.exact:
        return np.zeros(shape, dtype=backend.dtype)
    arr = np.empty(shape, dtype=backend.dtype)
    arr.fill(backend.zero)      # np.zeros would fill an object array with int 0
    return arr


def _diagonal(values, backend):
    n = len(values)
    arr = _zeros((n, n), backend)
    arr.flat[::n + 1] = values
    return arr


@functools.lru_cache(maxsize=64)
def _identity(n, backend):
    """The n x n identity entry array of ``backend``, built once per
    (n, backend) and read-only, so that every caller shares it; a caller
    that writes into an identity takes ``_diagonal`` or a copy."""
    arr = _diagonal([backend.one] * n, backend)
    arr.setflags(write=False)
    return arr


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
    """Max-norm of the difference, computed over floats: the entry arrays
    subtracted, with the backend and shape checks of ``a - b``."""
    a._check_same(b)
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ShapeMismatch("subtraction shape mismatch")
    return _maxnorm(a.entries - b.entries, a.backend)


def scale_of(*mats) -> float:
    """max(1, largest max-norm); the reference scale for relative tolerances."""
    best = 1.0
    for m in mats:
        best = max(best, m.maxnorm())
    return best


# ---------------------------------------------------------------------------
# elimination-based kernels (shared by the exact backends)
# ---------------------------------------------------------------------------

def _rref(a, bk):
    """Reduced row echelon form of an entry array over an exact backend.

    Returns (rows, pivot_columns) where ``rows`` is a list of row lists.
    Rationals bring each row over its own common denominator, are
    eliminated over the integers by ``_fraction_free``, and every pivot row
    is then divided by the last pivot, which each pivot entry equals.
    Residues are eliminated modulo p as they are, which leaves every pivot
    entry 1 and every row below the rank 0.  Every zero entry below the
    rank is the shared ``bk.zero``.
    """
    if bk.kind != "rational":
        rows = a.tolist()
        return rows, _fraction_free(rows, bk.p)[0]
    rows = [_numerators(row)[0] for row in a.tolist()]
    pivots = _fraction_free(rows)[0]
    r = len(pivots)
    last = rows[r - 1][pivots[-1]] if r else 1
    zero = bk.zero
    top = [[Fraction(x, last) if x else zero for x in row] for row in rows[:r]]
    return top + [[zero] * a.shape[1] for _ in rows[r:]], pivots


def _fraction_free(rows, p=None):
    """Gauss-Jordan elimination, in place, on a list of Python-int row
    lists: fraction-free over the integers or, given a prime ``p``, on
    residues modulo p; returns (pivot columns, determinant).

    Each step moves a row with a nonzero entry pk in the next column to the
    pivot position.  Over the integers every other row is replaced by
    (pk * row - f * pivot row) / previous pivot (Bareiss, Math. Comp. 22,
    1968); the division is exact, because every entry stays a minor of the
    input, and afterwards each pivot entry equals the last pivot.  Modulo p
    the pivot row is scaled to 1 and f * pivot row is taken from each row
    whose entry f in the pivot column is nonzero, so every pivot entry ends
    equal to 1.  The determinant, when the rows are square and of full rank
    (1 for no rows), is the sign of the row swaps times the last pivot over
    the integers and times the product of the pivots modulo p (a residue up
    to its sign); it is 0 otherwise."""
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    pivots = []
    prev = sign = 1
    r = 0
    for c in range(nc):
        for i in range(r, nr):
            if rows[i][c]:
                break
        else:
            continue
        if i != r:
            rows[r], rows[i] = rows[i], rows[r]
            sign = -sign
        top = rows[r]
        pk = top[c]
        if p is None:
            for i in range(nr):
                if i != r:
                    f = rows[i][c]
                    rows[i] = [(pk * x - f * y) // prev
                               for x, y in zip(rows[i], top)]
            prev = pk
        else:
            if pk != 1:
                q = pow(pk, p - 2, p)
                rows[r] = top = [x * q % p for x in top]
                prev = prev * pk % p    # the product of the pivots
            for i in range(nr):
                f = rows[i][c]
                if f and i != r:
                    rows[i] = [(x - f * y) % p for x, y in zip(rows[i], top)]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return pivots, sign * prev if r == nr == nc else 0


def rank(M: Matrix, tol=None) -> int:
    """Number of singular values above ``tol * max(1, |M|)`` (complex backend)
    or the exact rank (exact backends)."""
    if M.rows == 0 or M.cols == 0:
        return 0
    if M.backend.exact:
        return len(_rref(M.entries, M.backend)[1])
    s = _svdvals(M.to_numpy())
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
        rows, pivots = _rref(M.entries, bk)
        free = [c for c in range(M.cols) if c not in pivots]
        basis = _zeros((M.cols, len(free)), bk)
        basis[free, range(len(free))] = bk.one
        for r, pc in enumerate(pivots):
            basis[pc] = [-rows[r][fc] for fc in free]
        return _wrap(bk.reduce(basis), bk)
    a = M.to_numpy()
    _, s, vh = _svd(a)
    thr = _tol(tol) * max(1.0, M.maxnorm())
    r = int(np.sum(s > thr))
    return _wrap(vh[r:].conj().T)


def det(M: Matrix):
    if M.rows != M.cols:
        raise ShapeMismatch("determinant of a non-square matrix")
    if M.backend.exact or M.rows == 0:
        return _exact_det(M.entries, M.backend)
    return complex(np.linalg.det(M.to_numpy()))


def _exact_det(a, bk):
    """Determinant of a square entry array by ``_fraction_free`` (exact
    backends; 1 for an empty array on any backend): of the integer form of
    rationals over its common denominator to the power c, and of the
    residues by the elimination modulo p."""
    n = len(a)
    if n == 0:
        return bk.one
    if bk.kind == "rational":
        nums, d = _numerators(a.flat)
        return Fraction(
            _fraction_free([nums[i:i + n] for i in range(0, n * n, n)])[1],
            d ** n)
    return _fraction_free(a.tolist(), bk.p)[1] % bk.p


def inverse(M: Matrix) -> Matrix:
    if M.rows != M.cols:
        raise ShapeMismatch("inverse of a non-square matrix")
    return _wrap(_inverse(M.entries, M.backend), M.backend)


def _inverse(a, backend):
    """Inverse of a square entry array that no test has found invertible
    (``inverse``): np.linalg's, with LAPACK's error on a singular matrix as
    ``SingularMatrix``, or on exact backends ``_checked_inverse``'s."""
    if not backend.exact:
        try:
            return np.linalg.inv(a)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrix(str(exc)) from None
    inv = _checked_inverse(a, backend)
    if inv is None:
        raise SingularMatrix("matrix is singular over the exact backend")
    return inv


def _checked_inverse(a, backend, tol=None, rel=False):
    """Inverse of an entry array, or None unless it is square and
    invertible.  On the exact backends one ``_rref`` of [a | 1] both decides
    and inverts: a is invertible exactly when the pivots are the columns of
    a, and the right block is then a^-1.  On floats ``_is_invertible``'s
    test at ``tol`` (``rel``) decides, and LAPACK inverts."""
    n, cols = a.shape
    if n != cols:
        return None
    if not backend.exact:
        return _inv(a) if _is_invertible(a, backend, tol, rel) else None
    rows, pivots = _rref(np.concatenate((a, _identity(n, backend)), axis=1),
                         backend)
    if pivots != list(range(n)):
        return None
    return np.array([r[n:] for r in rows], dtype=object).reshape(n, n)


def is_invertible(M: Matrix, tol=None) -> bool:
    return _is_invertible(M.entries, M.backend, tol)


def _is_invertible(a, backend, tol=None, rel=False) -> bool:
    """Whether an entry array is square and invertible: on the exact
    backends, whether the pivots of ``_rref(a)`` are all its columns, with
    no inverse built; on floats, s_min above ``tol`` times max(1,
    max-norm), or with ``rel`` times s_max."""
    rows, cols = a.shape
    if rows != cols:
        return False
    if backend.exact or rows == 0:
        return rows == 0 or len(_rref(a, backend)[1]) == rows
    s = _svdvals(a)
    if rel:
        return bool(s[0] > 0 and s[-1] > _tol(tol) * s[0])
    return bool(s[-1] > _tol(tol) * max(1.0, float(np.abs(a).max())))


def _node_entries(a1, a2, n1, n2, backend):
    """n1 a1 + n2 a2 at a node (n1, n2) != (0, 0) for entry arrays of one
    backend, without the products by a zero or unit coefficient: the exact
    chart rotations and pencil nodes are mostly 0 and 1, and each product
    is a pass over ``Fraction`` or residue entries."""
    terms = [a if s == 1 else backend.reduce(backend.coerce(s) * a)
             for a, s in ((a1, n1), (a2, n2)) if s != 0]
    return terms[0] if len(terms) == 1 else backend.reduce(terms[0] + terms[1])


def _node_forms(A1: Matrix, A2: Matrix):
    """(a1, a2, den) from which ``_node_det`` takes a pencil's node
    determinants: on the rationals, with (N1, d1) and (N2, d2) the kept
    integer forms of A1 and A2, the integer row lists d2 N1 and d1 N2 and
    den = (d1 d2)^c, so that n1 A1 + n2 A2 = (n1 d2 N1 + n2 d1 N2) / (d1 d2);
    over GF(p) the residue row lists and 1; on floats the entry arrays and
    1."""
    bk = A1.backend
    if bk.kind == "rational":
        n1, d1 = _kept_form(A1)
        n2, d2 = _kept_form(A2)
        return (d2 * n1).tolist(), (d1 * n2).tolist(), (d1 * d2) ** A1.rows
    if bk.exact:
        return A1.entries.tolist(), A2.entries.tolist(), 1
    return A1.entries, A2.entries, 1


def _node_det(forms, n1, n2, backend):
    """det(n1 A1 + n2 A2) at a pencil node from ``_node_forms``.  The exact
    nodes are integers (residues over GF(p)), so the node matrix of the
    integer row lists is an integer matrix: its ``_fraction_free``
    determinant over den on the rationals, and over GF(p) the determinant
    of its residues by the elimination modulo p, with no ``Fraction`` or
    residue node matrix; on floats ``det`` of the node matrix."""
    a1, a2, den = forms
    if not backend.exact:
        return det(_wrap(_node_entries(a1, a2, n1, n2, backend), backend))
    n1, n2 = int(n1), int(n2)
    node = [[n1 * x + n2 * y for x, y in zip(r1, r2)]
            for r1, r2 in zip(a1, a2)]
    if backend.kind == "rational":
        return Fraction(_fraction_free(node)[1], den)
    p = backend.p
    return _fraction_free([[x % p for x in row] for row in node], p)[1] % p


def _node_stack(A1: Matrix, A2: Matrix, nodes):
    """(len(nodes), c, c) complex array holding n1 A1 + n2 A2 for each node
    (n1, n2): the batched ``_node_entries``."""
    w = np.array(nodes, dtype=complex)
    return (w[:, 0, None, None] * A1.to_numpy()
            + w[:, 1, None, None] * A2.to_numpy())


def _conditioning(stack):
    """(smallest singular value, max(1, max-norm)) of each matrix of a
    (k, c, c) stack, from one batched SVD: the two sides of
    ``is_invertible``'s test.  An empty matrix is invertible (s_min = inf)."""
    if stack.shape[-1] == 0:
        return np.full(len(stack), np.inf), np.ones(len(stack))
    s_min = _svdvals(stack)[:, -1]
    return s_min, np.maximum(1.0, np.abs(stack).max(axis=(1, 2)))


# ---------------------------------------------------------------------------
# eigenvalues (float backend only)
# ---------------------------------------------------------------------------

def eigenvalues(M: Matrix):
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
    vals = sorted(_eigvals(M.to_numpy()).tolist(),
                  key=lambda z: (z.real, z.imag))
    clusters = []
    for z in vals:
        for k, (rep, mult) in enumerate(clusters):
            if abs(z - rep) <= CLUSTER_TOL * max(1.0, abs(z), abs(rep)):
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
        """Public API: the value of the form at (nu1, nu2), coerced into and
        computed on the form's backend."""
        bk = self.backend
        nu1 = bk.coerce(nu1)
        nu2 = bk.coerce(nu2)
        return bk.reduce(sum(a * (nu2 ** q * nu1 ** (self.degree - q))
                             for q, a in enumerate(self.coeffs)))

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
    Vandermonde matrix.  On the rationals that product is one integer
    product of the matrix's kept integer form with the numerators of the
    values over their common denominator, and one ``Fraction`` per
    coefficient."""
    c = len(values) - 1
    inv = _vandermonde_inverse(c, backend)
    if backend.kind == "rational":
        w, dw = _kept_form(inv)
        nums, d = _numerators(values)
        coeffs = _fractions(w @ np.array(nums, dtype=object), dw * d)
    else:
        coeffs = (inv @ Matrix.col_vector(values, backend)).entries
    return HomogPoly(c, coeffs.ravel().tolist(), backend)


def pencil_det_poly(A1: Matrix, A2: Matrix) -> HomogPoly:
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
    forms = _node_forms(A1, A2)
    return _interpolate_form([_node_det(forms, n1, n2, bk)
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


def projective_roots(p: HomogPoly, tol=None):
    """All projective roots of a nonzero binary form, with multiplicities.

    Roots are normalized to max-coordinate 1 and returned sorted; roots
    within ``CLUSTER_TOL`` in the chordal metric are merged and their
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
    return _merge_roots(raw)


def _merge_roots(raw):
    """Projective roots ``[((l1, l2), mult), ...]`` as every spectrum route
    returns them: each point normalized to max-coordinate 1, sorted, and
    points within ``CLUSTER_TOL`` in the chordal metric merged with their
    multiplicities added."""
    raw = sorted(((_normalize_point(*pt), mult) for pt, mult in raw),
                 key=lambda it: (it[0][0].real, it[0][0].imag,
                                 it[0][1].real, it[0][1].imag))
    merged = []
    for pt, mult in raw:
        for k, (rep, m0) in enumerate(merged):
            if chordal_distance(pt, rep) <= CLUSTER_TOL:
                merged[k] = (rep, m0 + mult)
                break
        else:
            merged.append((pt, mult))
    return merged
