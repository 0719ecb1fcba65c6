"""ADHM data for length-c point configurations in the affine plane.

A triple (b1, b2, e) of two c x c matrices and a row covector is subject to

* (T1): [b1, b2] = 0, and
* (T2), co-stability: no joint eigenvector of (b1, b2) lies in ker e.

For a commuting pair every nonzero invariant subspace holds a joint
eigenvector, so (T2) is equivalent to the rows e b1^a b2^b spanning C^c:
the dual of Nakajima's C[B1, B2] i(W) = V.  ``check_T2`` tests that rank
and searches no eigenvectors; on a non-commuting pair it tests that no
nonzero invariant subspace lies in ker e.  Its threshold is ``_tol(tol)``
on singular values of unit rows: a frame that sees one unit eigenvector v
only by |e v| = 10^-k is co-stable at k <= 6, mostly up to k = 8, and not
from k = 11 (see ``check_T2``).  The rank is ``_observable``, which the
direct (P3) test of ``xn`` shares.  ``common_eigenvectors`` remains for
reading the joint spectrum.

The transpose triple satisfies the usual stability condition instead; see
``transpose_triple``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    DuplicatePoint,
    ShapeMismatch,
    SingularGauge,
    UnsupportedBackend,
)
from .linalg import Matrix, eigenvalues, inverse, is_invertible, nullspace, vstack


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


def common_eigenvectors(b1: Matrix, b2: Matrix, tol=None):
    """Joint eigenvalue pairs (z, w, V) of two square matrices.

    For each eigenvalue z of b1 the restriction of b2 to ker(b1 - z) is
    eigen-decomposed, and joint eigenvectors are recovered as the kernel of
    the stacked pair.  The enumeration is complete whenever b1 and b2
    commute: every joint eigenvector lives in some geometric eigenspace of
    b1, which b2 then preserves.  Both kernels are read at ``10 * _tol(tol)``,
    since a clustered eigenvalue is the mean of its cluster.
    """
    if b1.backend.kind == "gf" or b2.backend.kind == "gf":
        raise UnsupportedBackend("joint spectra are unavailable over a prime field")
    if b1.rows != b1.cols or b2.rows != b2.cols or b1.rows != b2.rows:
        raise ShapeMismatch("expected two square matrices of equal size")
    b1 = b1.cast(linalg.COMPLEX)
    b2 = b2.cast(linalg.COMPLEX)
    c = b1.rows
    ident = Matrix.identity(c)
    thr = 10 * linalg._tol(tol)
    out = []
    for z, _ in eigenvalues(b1):
        Kz = nullspace(b1 - ident.scale(z), thr)
        if Kz.cols == 0:
            continue
        R = _restriction(b2, Kz)
        for w, _ in eigenvalues(R):
            V = nullspace(vstack(b1 - ident.scale(z), b2 - ident.scale(w)),
                          thr)
            if V.cols > 0:
                out.append((z, w, V))
    return out


def _restriction(M: Matrix, basis: Matrix) -> Matrix:
    """Least-squares compression of M onto the span of the basis columns;
    exact when the span is M-invariant."""
    B = basis.to_numpy()
    R, *_ = np.linalg.lstsq(B, M.to_numpy() @ B, rcond=None)
    return Matrix.from_numpy(R)


def check_T2(d: PlaneADHM, tol=None) -> bool:
    """Co-stability as an observability rank: the rows e b1^a b2^b span C^c.

    For commuting b1, b2 every nonzero invariant subspace holds a joint
    eigenvector, so the rows spanning C^c is equivalent to no joint
    eigenvector lying in ker e (the dual of C[B1, B2] i(W) = V).  On a
    non-commuting pair the test means that no nonzero (b1, b2)-invariant
    subspace lies in ker e.

    The rank is ``_observable`` of e, b1 and b2, each divided by max(1, its
    max-norm), at ``_tol(tol)``.  Rational data is cast to complex;
    prime-field data raises ``UnsupportedBackend``.

    The last singular value scales like |e v| / |e| times the separation of
    the joint spectrum relative to the pair's max-norm, not like |e v|
    itself; where the verdict flips is measured in the README
    ("Co-stability tolerance").
    """
    if d.backend.kind == "gf":
        raise UnsupportedBackend(
            "use the quiver module's exhaustive check over prime fields")
    return _observable(_unit(d.e.to_numpy()),
                       (_unit(d.b1.to_numpy()), _unit(d.b2.to_numpy())),
                       linalg._tol(tol))


def _unit(a):
    """a / max(1, max-norm of a): the scale every relative test divides by."""
    return a / max(1.0, float(np.abs(a).max(initial=0.0)))


def _observable(rows, mats, thr) -> bool:
    """Whether the rows, grown by right-multiplying with every word in
    ``mats``, span C^c: whether ker(rows) holds no nonzero subspace
    invariant under ``mats`` (Kalman's observability rank).  The span is an
    orthonormal row basis that starts from the singular directions of
    ``rows`` above ``thr``; each step applies every matrix to the rows
    added last, projects out the basis twice and keeps the singular
    directions above ``thr``, until the basis has c rows or a step adds
    none."""
    c = rows.shape[1]
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    basis = last = vh[s > thr]
    while len(last) and len(basis) < c:
        grown = np.vstack([last @ M for M in mats])
        for _ in range(2):
            grown = grown - (grown @ basis.conj().T) @ basis
        _, s, vh = np.linalg.svd(grown, full_matrices=False)
        last = vh[s > thr]
        basis = np.vstack((basis, last))
    return len(basis) >= c


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


def joint_spectrum(d: PlaneADHM, tol=None):
    """Sorted (z, w) pairs with multiplicities, read off the joint
    eigenspaces of (b1, b2)."""
    pairs = [(z, w, V.cols) for z, w, V in common_eigenvectors(d.b1, d.b2, tol)]
    pairs.sort(key=lambda t: (t[0].real, t[0].imag, t[1].real, t[1].imag))
    return pairs


def gl_action(phi: Matrix, d: PlaneADHM, tol=None) -> PlaneADHM:
    """Base change (b1, b2, e) -> (phi b1 phi^-1, phi b2 phi^-1, e phi^-1)."""
    if not is_invertible(phi, tol):
        raise SingularGauge("gauge matrix is singular")
    inv = inverse(phi)
    return PlaneADHM(d.c, phi @ d.b1 @ inv, phi @ d.b2 @ inv, d.e @ inv)


def transpose_triple(d: PlaneADHM) -> tuple[Matrix, Matrix, Matrix]:
    """Bridge to the stability convention: the transposed triple
    (b1^T, b2^T, e^T) is stable iff d is co-stable."""
    return d.b1.transpose(), d.b2.transpose(), d.e.transpose()
