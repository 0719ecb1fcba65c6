"""ADHM data for length-c point configurations in the affine plane.

A triple (b1, b2, e) of two c x c matrices and a row covector is subject to

* (T1): [b1, b2] = 0, and
* (T2), co-stability: no joint eigenvector of (b1, b2) lies in ker e.

For a commuting pair every nonzero invariant subspace holds a joint
eigenvector, so (T2) is equivalent to the rows e b1^a b2^b spanning C^c:
the dual of Nakajima's C[B1, B2] i(W) = V.  ``check_T2`` tests that rank
and searches no eigenvectors; on a non-commuting pair it tests that no
nonzero invariant subspace lies in ker e.  ``check_T2`` is ``_costable`` on
the triple's entry arrays, which ``xn`` calls on its chart readings (the
chart (P3) test and ``zeta_inverse``'s guard).  On the exact backends the
rank is exact (``_exact_observable``): an echelon basis grown by
``linalg._fraction_free`` on integer rows over the rationals and on
residues modulo p, with no tolerance and no float.  On floats its
threshold is ``_tol(tol)`` on singular values of unit rows: a frame that
sees one unit eigenvector v only by |e v| = 10^-k is co-stable at k <= 6,
mostly up to k = 8, and not from k = 11 (see ``check_T2``).  The float rank
is ``_observable``, which the direct (P3) test of ``xn`` shares.  Its
verdict is that of a growth loop over an orthonormal row basis; with fewer
than c rows (``check_T2``'s one row e) one SVD of the stacked words first
certifies the accepts that its smallest singular value proves, against a
bound on how far the loop can have discarded, and every other case goes to
the loop.
``common_eigenvectors`` reads the
joint spectrum from the eigenvalues of one generic combination b1 + t b2
(Jennrich's simultaneous diagonalization), so that points whose b1
coordinates are close stay apart when their b2 coordinates differ.

The transposed triple satisfies the usual stability condition instead; see
``check_T2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    DuplicatePoint,
    ShapeMismatch,
    SingularGauge,
    UnsupportedBackend,
)
from .linalg import Matrix, eigenvalues, nullspace, vstack


@dataclass(frozen=True)
class PlaneADHM:
    c: int
    b1: Matrix
    b2: Matrix
    e: Matrix

    def __post_init__(self):
        c = self.c
        if (self.b1.rows, self.b1.cols) != (c, c):
            raise ShapeMismatch("b1 must be c x c")
        if (self.b2.rows, self.b2.cols) != (c, c):
            raise ShapeMismatch("b2 must be c x c")
        if (self.e.rows, self.e.cols) != (1, c):
            raise ShapeMismatch("e must be a row c-vector")
        if not (self.b1.backend == self.b2.backend == self.e.backend):
            raise ShapeMismatch("blocks on different backends")

    @property
    def backend(self):
        return self.b1.backend


def check_T1(d: PlaneADHM, tol=None) -> bool:
    """Commutator test [b1, b2] = 0 (within tol * scale on floats)."""
    comm = d.b1 @ d.b2 - d.b2 @ d.b1
    if d.backend.exact:
        return comm.is_zero()
    scale = max(1.0, d.b1.maxnorm() * d.b2.maxnorm())
    return comm.maxnorm() <= linalg._tol(tol) * scale


#: the fixed irrational t of ``common_eigenvectors``' generic b1 + t b2
_GENERIC_T = complex(2 ** 0.5 - 1, 3 ** 0.5 - 1)


def common_eigenvectors(b1: Matrix, b2: Matrix, tol=None):
    """Joint eigenvalue pairs (z, w, V) of two square matrices, sorted by
    (z, w): Jennrich's simultaneous diagonalization (Leurgans, Ross and
    Abel, SIAM J. Matrix Anal. Appl. 14, 1993).  At each clustered
    eigenvalue lam of K = b1 + t b2, (z, w) are the mean Rayleigh quotients
    of b1 and b2 on ker(K - lam), and V = ker [b1 - z; b2 - w], so that a
    non-commuting pair reports no eigenvector of K that is not a joint one.
    For commuting b1, b2 the list is complete: ker(K - lam) is invariant
    under both, which have the one joint eigenvalue z + t w = lam on it.
    Kernels are read at ``10 * _tol(tol)``, since a clustered eigenvalue is
    the mean of its cluster.  Points within ``linalg.CLUSTER_TOL`` in both
    coordinates still merge, and the kernel at their mean may be empty:
    diag(0, 1e-7) and 0 give [] at the default tol.
    """
    if b1.backend.kind == "gf" or b2.backend.kind == "gf":
        raise UnsupportedBackend("joint spectra are unavailable over a prime field")
    if b1.rows != b1.cols or b2.rows != b2.cols or b1.rows != b2.rows:
        raise ShapeMismatch("expected two square matrices of equal size")
    b1 = b1.cast(linalg.COMPLEX)
    b2 = b2.cast(linalg.COMPLEX)
    ident = Matrix.identity(b1.rows)
    K = b1 + b2.scale(_GENERIC_T)
    thr = 10 * linalg._tol(tol)
    out = []
    for lam, _ in eigenvalues(K):
        Q = nullspace(K - ident.scale(lam), thr).to_numpy()
        if Q.shape[1] == 0:
            continue
        z, w = (complex(np.trace(Q.conj().T @ b.to_numpy() @ Q)) / Q.shape[1]
                for b in (b1, b2))
        V = nullspace(vstack(b1 - ident.scale(z), b2 - ident.scale(w)), thr)
        if V.cols > 0:
            out.append((z, w, V))
    out.sort(key=lambda t: (t[0].real, t[0].imag, t[1].real, t[1].imag))
    return out


def check_T2(d: PlaneADHM, tol=None) -> bool:
    """Co-stability as an observability rank: the rows e b1^a b2^b span C^c.

    For commuting b1, b2 every nonzero invariant subspace holds a joint
    eigenvector, so the rows spanning C^c is equivalent to no joint
    eigenvector lying in ker e (the dual of C[B1, B2] i(W) = V).  On a
    non-commuting pair the test means that no nonzero (b1, b2)-invariant
    subspace lies in ker e.  The transposed triple (b1^T, b2^T, e^T) is
    stable in the usual convention exactly when (b1, b2, e) is co-stable.

    On floats the rank is ``_observable`` of e, b1 and b2, each divided by
    max(1, its max-norm), at ``_tol(tol)``.  The last singular value scales
    like |e v| / |e| times the separation of the joint spectrum relative to
    the pair's max-norm, not like |e v| itself; where the verdict flips is
    measured in the README ("Co-stability tolerance").  Rational and
    prime-field data take the exact rank ``_exact_observable``, which
    ignores ``tol``.
    """
    return _costable(d.b1.entries, d.b2.entries, d.e.entries, d.backend, tol)


def _costable(b1, b2, e, backend, tol=None) -> bool:
    """``check_T2`` on the entry arrays of (b1, b2, e) over ``backend``:
    the one co-stability decision, which ``xn``'s chart (P3) test and
    ``zeta_inverse``'s guard make on their chart readings too.  Floats take
    ``_observable`` at ``_tol(tol)``, the exact backends
    ``_exact_observable``, which takes no tolerance."""
    if backend.exact:
        return _exact_observable(e, (b1, b2), backend)
    b1, b2, e = (linalg._complex_entries(x, backend) for x in (b1, b2, e))
    return _observable(_unit(e), (_unit(b1), _unit(b2)), linalg._tol(tol))


def _exact_observable(rows, mats, backend) -> bool:
    """``_observable`` on exact entry arrays: Kalman's rank, with no
    tolerance.  An echelon basis of ``rows`` is grown as the float loop
    grows its orthonormal one: each step multiplies the rows added last by
    every matrix and eliminates them together with the basis, until the
    basis has c rows or a step adds none.  The rows that a step added are
    those of the new echelon basis whose pivot column is new: the pivot
    columns of a subspace are the leading positions of its vectors, so they
    grow with it, and those rows are independent of the old span.

    The echelon basis is ``linalg._fraction_free`` of the rows, over the
    integers or modulo p.  Scaling a row or a matrix by a nonzero constant
    changes no span, so the rationals run it on the integer numerators of
    each row and of each matrix over its common denominator, and make no
    ``Fraction``; each of their echelon rows is divided by the gcd of its
    entries, so that the integers do not compound from step to step."""
    if backend.kind == "rational":
        p = None
        mats = [linalg._integer_form(M)[0] for M in mats]
        rows = [linalg._numerators(row)[0] for row in rows.tolist()]
    else:
        p = backend.p
        rows = rows.tolist()

    def echelon(rows):
        pivots = linalg._fraction_free(rows, p)[0]
        basis = rows[:len(pivots)]
        if p is None:
            for k, row in enumerate(basis):
                g = math.gcd(*row)
                basis[k] = [x // g for x in row]
        return basis, pivots

    c = len(mats[0])
    basis, pivots = echelon(rows)
    last = basis
    while last and len(basis) < c:
        step = np.array(last, dtype=object)
        grown = [row for M in mats
                 for row in backend.reduce(step @ M).tolist()]
        new_basis, new_pivots = echelon(basis + grown)
        last = [row for row, col in zip(new_basis, new_pivots)
                if col not in pivots]
        basis, pivots = new_basis, new_pivots
    return len(basis) >= c


def _unit(a):
    """a / max(1, max-norm of a): the scale every relative test divides by."""
    return a / max(1.0, float(np.abs(a).max(initial=0.0)))


#: unit roundoff of the float rank tests
_EPS = float(np.finfo(float).eps)


def _observable(rows, mats, thr) -> bool:
    """Whether the rows, grown by right-multiplying with every word in
    ``mats``, span C^c: whether ker(rows) holds no nonzero subspace
    invariant under ``mats`` (Kalman's observability rank).

    The verdict is the growth loop's.  Its span is an orthonormal row basis
    that starts from the singular directions of ``rows`` above ``thr``; each
    step applies every matrix to the rows added last, projects out the basis
    twice and keeps the singular directions above ``thr``, until the basis
    has c rows or a step adds none.  Ranking the explicit word matrix
    instead loses accuracy (Paige, IEEE TAC 26, 1981), so the word matrix
    only serves as a certified accept: with fewer than c rows, a zero row
    block is rejected at once, and otherwise the word stack W of
    ``_word_stack_accepts`` is tried first, falling through to the loop.

    Why an accept of the word stack is one of the loop's (exact
    arithmetic).  Let S be the loop's final span, dim S < c, R the largest
    row norm of ``rows`` and rho = max(1, c max-norm of ``mats``), which
    bounds the 2-norm of every matrix.  Each step discards only singular
    directions of value at most thr, so every row lies within thr of S, and
    for a unit u in the span of the rows one step added, u M lies within
    thr of S.  S is the orthogonal sum of fewer than c such spans, so
    u M lies within sqrt(c) thr |u| of S for every u in S.  By induction on
    the degree k, every row r w of degree k lies within
    delta_k = thr rho^k (1 + k sqrt(c) R) of S: split r w = s + t with s in S,
    |s| <= R rho^k and |t| <= delta_k; then r w M = s M + t M lies within
    sqrt(c) thr R rho^k + rho delta_k <= delta_(k+1) of S.  A unit x
    orthogonal to S then has |W x| <= sqrt(N) delta_d for the N rows of W
    of degree at most d, so sigma_c(W) <= sqrt(N) rho^d (1 + d sqrt(c) R)
    thr.  W accepts only above that bound plus a slack for roundoff
    (``_certificate_bound``), where the loop accepts too.
    """
    c = rows.shape[1]
    if len(rows) < c:
        if not rows.any():
            return False
        if _word_stack_accepts(rows, mats, thr):
            return True
    _, s, vh = linalg._svd(rows, full_matrices=False)
    basis = last = vh[s > thr]
    while len(last) and len(basis) < c:
        grown = np.vstack([last @ M for M in mats])
        for _ in range(2):
            grown = grown - (grown @ basis.conj().T) @ basis
        _, s, vh = linalg._svd(grown, full_matrices=False)
        last = vh[s > thr]
        basis = np.vstack((basis, last))
    return len(basis) >= c


def _word_stack_accepts(rows, mats, thr) -> bool:
    """Whether sigma_c of the word stack W certifies that the rows span
    C^c.  W stacks the rows and their images under every word in ``mats``
    of degree up to d, the least degree that gives at least c rows; each
    degree is one product with the matrices side by side.  See
    ``_observable`` for why an accept here is the growth loop's."""
    c = rows.shape[1]
    side_by_side = np.concatenate(mats, axis=1)
    levels = [rows]
    count = len(rows)
    while count < c:
        levels.append((levels[-1] @ side_by_side).reshape(-1, c))
        count += len(levels[-1])
    s = linalg._svdvals(np.concatenate(levels))
    R = math.sqrt(np.square(np.abs(rows)).sum(axis=1).max())
    rho = max(1.0, c * float(np.abs(side_by_side).max()))
    return bool(s[c - 1] > _certificate_bound(count, len(levels) - 1, c, R,
                                              rho, thr, s[0]))


def _certificate_bound(n_words, d, c, R, rho, thr, s_max):
    """sqrt(N) rho^d ((1 + d sqrt(c) R) thr + slack): the sigma_c of an
    N-row word stack of degree d above which the growth loop accepts at
    ``thr``; slack = 1e3 c eps max(1, R) max(1, sigma_1) covers the
    roundoff of both routes."""
    slack = 1e3 * c * _EPS * max(1.0, R) * max(1.0, s_max)
    return n_words ** 0.5 * rho ** d * ((1 + d * c ** 0.5 * R) * thr + slack)


def from_plane_points(points, backend=linalg.COMPLEX) -> PlaneADHM:
    """Diagonal data for a configuration of pairwise distinct plane points."""
    pts = list(points)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if pts[i][0] == pts[j][0] and pts[i][1] == pts[j][1]:
                raise DuplicatePoint(f"points {i} and {j} coincide")
    c = len(pts)
    b1 = Matrix.diagonal([z for z, _ in pts], backend)
    b2 = Matrix.diagonal([w for _, w in pts], backend)
    e = Matrix.row_vector([backend.one] * c, backend)
    return PlaneADHM(c, b1, b2, e)


def gl_action(phi: Matrix, d: PlaneADHM, tol=None) -> PlaneADHM:
    """Base change (b1, b2, e) -> (phi b1 phi^-1, phi b2 phi^-1, e phi^-1)."""
    inv = linalg._checked_inverse(phi.entries, phi.backend, tol)
    if inv is None:
        raise SingularGauge("gauge matrix is singular")
    inv = linalg._wrap(inv, phi.backend)
    return PlaneADHM(d.c, phi @ d.b1 @ inv, phi @ d.b2 @ inv, d.e @ inv)
