"""Field-agnostic dense linear algebra.

Matrices carry one of three scalar backends:

* ``COMPLEX`` -- machine complex numbers; rank decisions are made against a
  relative tolerance (default ``DEFAULT_TOL``) and the heavy lifting is
  delegated to numpy,
* ``RATIONAL`` -- exact ``fractions.Fraction`` arithmetic,
* ``GF(p)`` -- residues modulo a prime, used as an exhaustive test oracle.

A complex matrix stores its entries as one read-only ``(rows, cols)``
complex ndarray, so its arithmetic is a single numpy operation; the exact
backends store a row-major tuple of Python scalars and eliminate by hand.

Exact backends never take a tolerance: equality is literal.  On top of the
basic rank/nullspace/determinant kit this module computes homogeneous
determinant polynomials of matrix pencils and their projective roots.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import (
    BackendMismatch,
    ShapeMismatch,
    SingularMatrix,
    UnsupportedBackend,
    ZeroPolynomial,
)

#: default relative tolerance for every floating-point rank decision
DEFAULT_TOL = 1e-9

#: roots closer than this in the chordal metric on P^1 are merged
CLUSTER_TOL = 1e-6

#: relative tolerance used when extracting eigenspaces from clustered
#: eigenvalues (looser than DEFAULT_TOL because the cluster representative
#: may sit up to CLUSTER_TOL away from the true eigenvalue)
EIG_TOL = 1e-8


def _tol(tol):
    return DEFAULT_TOL if tol is None else float(tol)


# ---------------------------------------------------------------------------
# scalar backends
# ---------------------------------------------------------------------------

class ComplexField:
    kind = "complex"
    exact = False

    def coerce(self, x):
        return complex(x)       # a Fraction converts through its __float__

    zero = 0j
    one = 1 + 0j

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise SingularMatrix("division by zero")
        return 1 / a

    def div(self, a, b):
        return a * self.inv(b)

    def is_zero(self, a):
        return a == 0

    def __repr__(self):
        return "complex"

    def __eq__(self, other):
        return isinstance(other, ComplexField)

    def __hash__(self):
        return hash("complex")


class RationalField:
    kind = "rational"
    exact = True

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, (int, str)):
            return Fraction(x)
        if isinstance(x, float) and x == int(x):
            return Fraction(int(x))
        raise UnsupportedBackend(f"cannot coerce {x!r} into the rational backend")

    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise SingularMatrix("division by zero")
        return 1 / a

    def div(self, a, b):
        return a * self.inv(b)

    def is_zero(self, a):
        return a == 0

    def __repr__(self):
        return "rational"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")


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

    def __init__(self, p):
        if not _is_prime(p):
            raise UnsupportedBackend(f"{p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def coerce(self, x):
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise UnsupportedBackend(f"denominator of {x} vanishes mod {self.p}")
            return x.numerator * pow(den, self.p - 2, self.p) % self.p
        return int(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise SingularMatrix("division by zero")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a):
        return a % self.p == 0

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

    Complex matrices store their entries as one read-only ``(rows, cols)``
    complex ndarray; the exact backends (rationals, GF(p)) store a row-major
    tuple of Python scalars.
    """

    __slots__ = ("rows", "cols", "backend", "entries")

    def __init__(self, rows, cols, entries, backend=COMPLEX):
        if rows < 0 or cols < 0:
            raise ShapeMismatch("negative dimensions")
        entries = tuple(backend.coerce(x) for x in entries)
        if len(entries) != rows * cols:
            raise ShapeMismatch(
                f"expected {rows * cols} entries, got {len(entries)}")
        if not backend.exact:
            entries = np.array(entries, dtype=complex).reshape(rows, cols)
            entries.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "backend", backend)
        object.__setattr__(self, "entries", entries)

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
        if not backend.exact:
            return _wrap(np.zeros((rows, cols), dtype=complex))
        return cls(rows, cols, [backend.zero] * (rows * cols), backend)

    @classmethod
    def identity(cls, n, backend=COMPLEX):
        if not backend.exact:
            return _wrap(np.eye(n, dtype=complex))
        ent = [backend.zero] * (n * n)
        for i in range(n):
            ent[i * n + i] = backend.one
        return cls(n, n, ent, backend)

    @classmethod
    def diagonal(cls, values, backend=COMPLEX):
        n = len(values)
        ent = [backend.zero] * (n * n)
        for i, v in enumerate(values):
            ent[i * n + i] = backend.coerce(v)
        return cls(n, n, ent, backend)

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
        if self.backend.exact:
            return self.entries[i * self.cols + j]
        return self.entries.item(i, j)

    def __getitem__(self, ij):
        i, j = ij
        return self.at(i, j)

    def row_list(self):
        if not self.backend.exact:
            return self.entries.tolist()
        c = self.cols
        return [list(self.entries[i * c:(i + 1) * c]) for i in range(self.rows)]

    def column(self, j):
        if not self.backend.exact:
            return _wrap(self.entries[:, [j]])
        return Matrix(self.rows, 1, [self.at(i, j) for i in range(self.rows)],
                      self.backend)

    def submatrix(self, row_range, col_range):
        rows = list(row_range)
        cols = list(col_range)
        if not self.backend.exact:
            return _wrap(self.entries[rows][:, cols])
        ent = [self.at(i, j) for i in rows for j in cols]
        return Matrix(len(rows), len(cols), ent, self.backend)

    # -- arithmetic ----------------------------------------------------------

    def _check_same(self, other):
        if self.backend is not other.backend and self.backend != other.backend:
            raise BackendMismatch(f"{self.backend} vs {other.backend}")

    def __add__(self, other):
        self._check_same(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("addition shape mismatch")
        if not self.backend.exact:
            return _wrap(self.entries + other.entries)
        add = self.backend.add
        return Matrix(self.rows, self.cols,
                      [add(a, b) for a, b in zip(self.entries, other.entries)],
                      self.backend)

    def __sub__(self, other):
        self._check_same(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("subtraction shape mismatch")
        if not self.backend.exact:
            return _wrap(self.entries - other.entries)
        sub = self.backend.sub
        return Matrix(self.rows, self.cols,
                      [sub(a, b) for a, b in zip(self.entries, other.entries)],
                      self.backend)

    def __neg__(self):
        if not self.backend.exact:
            return _wrap(-self.entries)
        neg = self.backend.neg
        return Matrix(self.rows, self.cols, [neg(a) for a in self.entries],
                      self.backend)

    def scale(self, s):
        s = self.backend.coerce(s)
        if not self.backend.exact:
            return _wrap(s * self.entries)
        mul = self.backend.mul
        return Matrix(self.rows, self.cols, [mul(s, a) for a in self.entries],
                      self.backend)

    def __matmul__(self, other):
        self._check_same(other)
        if self.cols != other.rows:
            raise ShapeMismatch(
                f"matmul {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        bk = self.backend
        if not bk.exact:
            return _wrap(self.entries @ other.entries)
        n, k, m = self.rows, self.cols, other.cols
        out = [bk.zero] * (n * m)
        for i in range(n):
            for t in range(k):
                a = self.entries[i * k + t]
                if bk.is_zero(a):
                    continue
                for j in range(m):
                    out[i * m + j] = bk.add(out[i * m + j],
                                            bk.mul(a, other.entries[t * m + j]))
        return Matrix(n, m, out, bk)

    def transpose(self):
        if not self.backend.exact:
            return _wrap(self.entries.T)
        ent = [self.at(i, j) for j in range(self.cols) for i in range(self.rows)]
        return Matrix(self.cols, self.rows, ent, self.backend)

    def power(self, k):
        if self.rows != self.cols:
            raise ShapeMismatch("power of a non-square matrix")
        out = Matrix.identity(self.rows, self.backend)
        for _ in range(k):
            out = out @ self
        return out

    # -- conversions / norms -------------------------------------------------

    def to_numpy(self):
        """Complex ndarray of the entries; for a complex matrix this is the
        stored read-only array itself."""
        if not self.backend.exact:
            return self.entries
        if self.backend.kind == "gf":
            raise UnsupportedBackend("prime-field matrices have no float image")
        data = [complex(float(x)) for x in self.entries]
        return np.array(data, dtype=complex).reshape(self.rows, self.cols)

    def maxnorm(self):
        if not self.backend.exact:
            return float(np.abs(self.entries).max()) if self.entries.size else 0.0
        if not self.entries:
            return 0.0
        if self.backend.kind == "gf":
            raise UnsupportedBackend("prime-field matrices have no norm")
        return max(abs(float(x)) for x in self.entries)

    def is_zero(self, tol=None):
        if self.backend.exact:
            return all(self.backend.is_zero(x) for x in self.entries)
        return self.maxnorm() <= _tol(tol)

    def cast(self, backend):
        """Re-express the entries in another backend (rational -> complex or
        GF(p), integers -> anything).  Lossy directions raise; residues have
        no canonical lift, so a prime-field matrix cannot leave its field."""
        if backend == self.backend:
            return self
        if self.backend.kind == "gf":
            raise UnsupportedBackend("prime-field residues cannot be lifted")
        entries = self.entries
        if not self.backend.exact:
            entries = entries.ravel().tolist()
        return Matrix(self.rows, self.cols, entries, backend)

    def __eq__(self, other):
        if not (isinstance(other, Matrix) and self.backend == other.backend
                and self.rows == other.rows and self.cols == other.cols):
            return False
        if not self.backend.exact:
            return bool(np.array_equal(self.entries, other.entries))
        return self.entries == other.entries

    def __hash__(self):
        entries = self.entries
        if not self.backend.exact:
            entries = tuple(entries.ravel().tolist())
        return hash((self.rows, self.cols, entries))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {self.backend})"


def _wrap(arr) -> Matrix:
    """Complex Matrix that takes ownership of a 2-d complex128 array: the
    array is frozen in place, neither copied nor coerced entry by entry."""
    arr.flags.writeable = False
    M = object.__new__(Matrix)
    object.__setattr__(M, "rows", arr.shape[0])
    object.__setattr__(M, "cols", arr.shape[1])
    object.__setattr__(M, "backend", COMPLEX)
    object.__setattr__(M, "entries", arr)
    return M


def hstack(*mats):
    mats = [m for m in mats]
    rows = mats[0].rows
    bk = mats[0].backend
    if any(m.rows != rows or m.backend != bk for m in mats):
        raise ShapeMismatch("hstack mismatch")
    if not bk.exact:
        return _wrap(np.hstack([m.entries for m in mats]))
    out_rows = []
    for i in range(rows):
        row = []
        for m in mats:
            row.extend(m.entries[i * m.cols:(i + 1) * m.cols])
        out_rows.append(row)
    return Matrix.from_rows(out_rows, bk) if rows else Matrix.zeros(
        0, sum(m.cols for m in mats), bk)


def vstack(*mats):
    cols = mats[0].cols
    bk = mats[0].backend
    if any(m.cols != cols or m.backend != bk for m in mats):
        raise ShapeMismatch("vstack mismatch")
    if not bk.exact:
        return _wrap(np.vstack([m.entries for m in mats]))
    ent = []
    for m in mats:
        ent.extend(m.entries)
    return Matrix(sum(m.rows for m in mats), cols, ent, bk)


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
    rows = M.row_list()
    nr, nc = M.rows, M.cols
    pivots = []
    r = 0
    for c in range(nc):
        pivot = None
        for i in range(r, nr):
            if not bk.is_zero(rows[i][c]):
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = bk.inv(rows[r][c])
        rows[r] = [bk.mul(inv, x) for x in rows[r]]
        for i in range(nr):
            if i != r and not bk.is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [bk.sub(x, bk.mul(f, y))
                           for x, y in zip(rows[i], rows[r])]
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
        cols = []
        for fc in free:
            v = [bk.zero] * M.cols
            v[fc] = bk.one
            for r, pc in enumerate(pivots):
                v[pc] = bk.neg(rows[r][fc])
            cols.append(v)
        if not cols:
            return Matrix.zeros(M.cols, 0, bk)
        ent = [cols[j][i] for i in range(M.cols) for j in range(len(cols))]
        return Matrix(M.cols, len(cols), ent, bk)
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
    rows = M.row_list()
    n = M.rows
    d = bk.one
    for c in range(n):
        pivot = None
        for i in range(c, n):
            if not bk.is_zero(rows[i][c]):
                pivot = i
                break
        if pivot is None:
            return bk.zero
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            d = bk.neg(d)
        d = bk.mul(d, rows[c][c])
        inv = bk.inv(rows[c][c])
        for i in range(c + 1, n):
            if not bk.is_zero(rows[i][c]):
                f = bk.mul(inv, rows[i][c])
                rows[i] = [bk.sub(x, bk.mul(f, y))
                           for x, y in zip(rows[i], rows[c])]
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
    return Matrix.from_rows([r[M.rows:] for r in rows], bk)


def solve(A: Matrix, B: Matrix) -> Matrix:
    """Solve A X = B for square invertible A."""
    return inverse(A) @ B


def is_invertible(M: Matrix, tol=None) -> bool:
    if M.rows != M.cols:
        return False
    if M.rows == 0:
        return True
    if M.backend.exact:
        return not M.backend.is_zero(det(M))
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
        return not M.backend.is_zero(det(M))
    s = np.linalg.svd(M.to_numpy(), compute_uv=False)
    return bool(s[0] > 0 and s[-1] > _tol(tol) * s[0])


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
        acc = bk.zero
        p1 = [bk.one]
        p2 = [bk.one]
        for _ in range(self.degree):
            p1.append(bk.mul(p1[-1], nu1))
            p2.append(bk.mul(p2[-1], nu2))
        for q, a in enumerate(self.coeffs):
            acc = bk.add(acc, bk.mul(a, bk.mul(p2[q], p1[self.degree - q])))
        return acc

    def max_coeff(self):
        if self.backend.kind == "gf":
            raise UnsupportedBackend("no norm over a prime field")
        return max((abs(complex(x) if not isinstance(x, Fraction) else float(x))
                    for x in self.coeffs), default=0.0)

    def is_zero(self, tol=None, scale=1.0):
        if self.backend.exact:
            return all(self.backend.is_zero(x) for x in self.coeffs)
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


def pencil_det_poly(A1: Matrix, A2: Matrix, tol=None) -> HomogPoly:
    """det(nu1*A1 + nu2*A2) as a homogeneous form of degree c.

    Computed by evaluation at c+1 pairwise non-proportional sample ratios
    followed by interpolation.  Float samples sit at the chart angles
    (cos, sin)(pi*m/(c+1)); exact backends use field-rational nodes instead.
    """
    if A1.rows != A1.cols or A2.rows != A2.cols or A1.rows != A2.rows:
        raise ShapeMismatch("pencil matrices must be square of equal size")
    if A1.backend != A2.backend:
        raise BackendMismatch("pencil matrices on different backends")
    bk = A1.backend
    c = A1.rows
    if c == 0:
        return HomogPoly(0, [bk.one], bk)

    if bk.exact:
        nodes = []
        if bk.kind == "rational":
            nodes = [(bk.one, bk.coerce(q)) for q in range(c + 1)]
        else:
            if c + 1 > bk.p + 1:
                raise UnsupportedBackend(
                    f"need {c + 1} projective nodes, GF({bk.p}) has {bk.p + 1}")
            nodes = [(bk.one, bk.coerce(t)) for t in range(min(c + 1, bk.p))]
            if len(nodes) < c + 1:
                nodes.append((bk.zero, bk.one))
    else:
        nodes = [tuple(map(bk.coerce, angle_constants(c, m)))
                 for m in range(c + 1)]

    vals = [det(A1.scale(n1) + A2.scale(n2)) for (n1, n2) in nodes]
    vrows = []
    for (n1, n2) in nodes:
        row = []
        for q in range(c + 1):
            p2 = bk.one
            for _ in range(q):
                p2 = bk.mul(p2, n2)
            p1 = bk.one
            for _ in range(c - q):
                p1 = bk.mul(p1, n1)
            row.append(bk.mul(p2, p1))
        vrows.append(row)
    V = Matrix.from_rows(vrows, bk)
    rhs = Matrix.col_vector(vals, bk)
    coeffs = solve(V, rhs)
    return HomogPoly(c, [coeffs.at(q, 0) for q in range(c + 1)], bk)


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
    coeffs = [complex(x) if not isinstance(x, Fraction) else complex(float(x))
              for x in p.coeffs]
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
        for s in np.roots(list(reversed(mid))):
            raw.append((_normalize_point(1.0 + 0j, complex(s)), 1))
    raw.sort(key=lambda it: (it[0][0].real, it[0][0].imag,
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
