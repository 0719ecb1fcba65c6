"""Regularity analysis of matrix pencils nu1*A1 + nu2*A2.

A pencil is regular when its homogeneous determinant polynomial is not
identically zero, which is decided at the c+1 sample nodes of
``linalg._pencil_nodes``: a nonzero form of degree c cannot vanish at all of
them.  On floats the node matrices are the charts' A2m = s_m A1 + c_m A2,
the decision is one batched SVD (``xn.XnADHM`` keeps it, computed once per
configuration), and the witness is the covering chart of
``xn.cover_chart``, where the spectrum is one eigenvalue call.  The exact
backends take the node determinants in order and stop at the first nonzero
one, the witness; only the rational spectrum takes the remaining
determinants, interpolates the form with the cached inverse Vandermonde
matrix and roots it.  Every exact node determinant is one fraction-free
elimination of an integer matrix (``linalg._fraction_free``), with no
``Fraction`` or residue node matrix: a rational pencil is brought to
integer form once, A_i = N_i / d_i, and its node determinant is that of
n1 d2 N1 + n2 d1 N2 over (d1 d2)^c; over GF(p) it is that of n1 A1 + n2 A2
on the residues, by the elimination modulo p.

A singular pencil admits a polynomial vector solution
v(t) = v0 - t v1 + ... + (-t)^eps v_eps of (A1 + t A2) v(t) = 0; equating
coefficients turns that into the chain

    A1 v0 = 0,   A2 v_{q-1} = A1 v_q  (q = 1..eps),   A2 v_eps = 0,

and the minimal degree eps for which the chain has a nontrivial solution is
the quantity reported here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import BackendMismatch, InvalidInput, ShapeMismatch
from .linalg import Matrix, hstack, nullspace, projective_roots, rank


@dataclass(frozen=True)
class PencilAnalysis:
    regular: bool
    witness: tuple | None = None               # (nu1, nu2) with det != 0
    eigenvalues: list | None = None            # [((l1, l2), mult), ...]
    minimal_index: int | None = None           # eps
    minimal_solution: list | None = None       # [v0, ..., v_eps] as column Matrices
    chain_residuals: list = field(default_factory=list)

    def __post_init__(self):
        if self.regular:
            assert self.minimal_index is None and self.witness is not None
        else:
            assert self.minimal_index is not None and self.witness is None


def _staircase(A1: Matrix, A2: Matrix, eps: int) -> Matrix:
    """(eps+2)c x (eps+1)c block matrix of the chain equations: block (q, q)
    is A1 for q = 0 and -A1 after it, block (q+1, q) is A2."""
    bk = A1.backend
    c = A1.rows
    S = linalg._zeros(((eps + 2) * c, (eps + 1) * c), bk)
    for q, diag in enumerate([A1.entries] + [bk.reduce(-A1.entries)] * eps):
        S[q * c:(q + 1) * c, q * c:(q + 1) * c] = diag
        S[(q + 1) * c:(q + 2) * c, q * c:(q + 1) * c] = A2.entries
    return linalg._wrap(S, bk)


def _pick_chain(basis: Matrix):
    """Deterministic representative from a nullspace basis, which has no
    zero column: normalize each column to max-coordinate 1 and keep the
    lexicographically largest."""
    bk = basis.backend
    best = best_key = None
    for col in basis.entries.T.tolist():
        if bk.exact:
            inv = bk.inv(next(x for x in col if x != 0))
            col = [bk.reduce(x * inv) for x in col]
            key = tuple((float(x), 0.0) for x in col)
        else:
            pivot = max(col, key=abs)
            col = [x / pivot for x in col]
            key = tuple((x.real, x.imag) for x in col)
        if best_key is None or key > best_key:
            best, best_key = col, key
    return best


def analyze_pencil(A1: Matrix, A2: Matrix, tol=None) -> PencilAnalysis:
    """Classify the pencil and, when singular, return the minimal chain.

    Regular pencils come back with their projective spectrum (``_spectrum``)
    and a sample node (witness) where the pencil matrix is invertible, on
    floats the covering chart's node (s_m, c_m).  Singular pencils come back
    with the smallest eps whose chain staircase has a nontrivial kernel, one
    chain with v_eps != 0, and the float residuals of every chain equation.
    Near the float regularity threshold the node test can call a pencil
    singular whose staircases have no kernel at ``nullspace``'s threshold;
    this raises ``InvalidInput``.
    """
    bk = A1.backend
    c = A1.rows
    witness, basis = _regularity(A1, A2, tol)
    if witness is not None:
        eig = _spectrum(A1, A2, witness, basis, tol)
        return PencilAnalysis(regular=True, witness=witness, eigenvalues=eig)

    for eps in range(0, c + 1):
        S = _staircase(A1, A2, eps)
        basis = nullspace(S, tol)
        if basis.cols == 0:
            continue
        chain_flat = _pick_chain(basis)
        vs = [Matrix.col_vector(chain_flat[q * c:(q + 1) * c], bk)
              for q in range(eps + 1)]
        res = []
        if not bk.exact:
            res.append((A1 @ vs[0]).maxnorm())
            for q in range(1, eps + 1):
                res.append((A2 @ vs[q - 1] - A1 @ vs[q]).maxnorm())
            res.append((A2 @ vs[eps]).maxnorm())
        return PencilAnalysis(regular=False, minimal_index=eps,
                              minimal_solution=vs, chain_residuals=res)
    raise InvalidInput("no polynomial solution of degree <= c found")


def _spectrum(A1, A2, witness, basis, tol):
    """Projective roots of a regular pencil from ``_regularity``'s witness
    and basis: on floats the eigenvalues seen from the witness node
    (``_float_spectrum``), on the rationals the roots of the exact
    determinant form interpolated from the node determinants, and None over
    a prime field."""
    bk = A1.backend
    if bk.kind == "rational":
        forms, dets = basis
        nodes = linalg._pencil_nodes(A1.rows, bk)
        dets = dets + [linalg._node_det(forms, n1, n2, bk)
                       for n1, n2 in nodes[len(dets):]]
        return projective_roots(linalg._interpolate_form(dets, bk), tol)
    return None if bk.exact else _float_spectrum(A1, A2, witness, basis)


def _regularity(A1, A2, tol, conditioning=None):
    """(witness, basis) of the pencil, the witness None when it is singular.

    The basis is what ``_spectrum`` computes the spectrum from: on the
    exact backends ``linalg._node_forms`` and the node determinants up to the
    witness, the first node where the determinant is nonzero; on floats the
    pencil matrix at the witness node.  ``xn.check_P2`` uses the witness
    alone.
    """
    if A1.rows != A1.cols or A2.rows != A2.cols or A1.rows != A2.rows:
        raise ShapeMismatch("pencil matrices must be square of equal size")
    if A1.backend != A2.backend:
        raise BackendMismatch("pencil matrices on different backends")
    bk = A1.backend
    if not bk.exact:
        m, P = _float_witness(A1, A2, tol, conditioning)
        return (None if m is None else linalg._pencil_nodes(A1.rows, bk)[m]), P
    forms = linalg._node_forms(A1, A2)
    dets = []
    for n1, n2 in linalg._pencil_nodes(A1.rows, bk):
        dets.append(linalg._node_det(forms, n1, n2, bk))
        if dets[-1] != 0:
            return (n1, n2), (forms, dets)
    return None, None


def _float_conditioning(A1, A2):
    """(P, s_min, scale) of a float pencil: the read-only stack P of its node
    matrices at the charts (P[m] = A2m), and the two sides of
    ``is_invertible``'s test at each node, from one batched SVD.  Nothing
    here depends on ``tol``; ``_float_witness`` applies it."""
    P = linalg._node_stack(A1, A2, linalg._pencil_nodes(A1.rows, A1.backend))
    P.setflags(write=False)
    return (P, *linalg._conditioning(P))


def _float_witness(A1, A2, tol, conditioning=None):
    """(m, A2m) for the best-conditioned chart m of a float pencil, or
    (None, None) when the pencil is singular at every node (hence
    everywhere): a degree-c form cannot vanish at c+1 distinct ratios, so
    regularity is a rank decision at the nodes rather than a size comparison
    of interpolated coefficients.

    The node matrix at m is A2m.  The chart of largest smallest singular
    value over max(1, max-norm), the lowest on a tie, wins if it passes
    ``is_invertible``'s test: one rule for (P2), the spectrum's node and
    ``xn.cover_chart``.  ``conditioning`` is ``_float_conditioning(A1,
    A2)``, computed here when it is None.
    """
    if conditioning is None:
        conditioning = _float_conditioning(A1, A2)
    P, s_min, scale = conditioning
    best = int(np.argmax(s_min / scale))
    if not s_min[best] > linalg._tol(tol) * scale[best]:
        return None, None
    return best, P[best]


def _float_spectrum(A1, A2, witness, P):
    """Projective roots of det(nu1 A1 + nu2 A2) from one eigenvalue call.

    With P = n1 A1 + n2 A2 invertible at the witness node and
    Q = -n2 A1 + n1 A2, the pencil is a P + b Q in the rotated coordinates
    (a, b) = (n1 nu1 + n2 nu2, -n2 nu1 + n1 nu2); it is singular exactly at
    a = -mu b for an eigenvalue mu of P^-1 Q, that is at
    [nu1 : nu2] = [-mu n1 - n2 : -mu n2 + n1].  A regular generalized
    eigenvalue problem (Moler & Stewart, SIAM J. Numer. Anal. 10, 1973)
    reduced to an ordinary one at a well-conditioned node.
    """
    n1, n2 = witness[0].real, witness[1].real
    Q = -n2 * A1.to_numpy() + n1 * A2.to_numpy()
    mus = linalg._eigvals(linalg._solve(P, Q)).tolist()
    roots = linalg._merge_roots([((-mu * n1 - n2, -mu * n2 + n1), 1)
                                 for mu in mus])
    # + 0j turns a -0.0 part into 0.0, so that a root on an axis reads
    # (1+0j, 0j) or (0j, 1+0j) on every route
    return [((a + 0j, b + 0j), k) for (a, b), k in roots]


def check_Q3star(A1: Matrix, A2: Matrix, S0: Matrix, tol=None) -> bool:
    """dim(A1(S0) + A2(S0)) >= dim S0, for a subspace given by basis columns.

    This holds for every subspace exactly when the pencil is regular; the
    span of a singular pencil's minimal chain violates it.
    """
    if S0.cols == 0:
        return True
    imgs = hstack(A1 @ S0, A2 @ S0)
    return rank(imgs, tol) >= S0.cols
