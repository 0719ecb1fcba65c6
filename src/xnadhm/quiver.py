"""Framed quiver representations and theta-semistability.

A framed representation consists of maps A1, A2: V0 -> V1, C1..Cn: V1 -> V0,
e: V0 -> W and f1..f(n-1): W -> V0, subject to the relations (Q1):

    n = 1:   A1 C1 A2 = A2 C1 A1
    n >= 2:  A1 Cq = A2 C(q+1)  and  Cq A1 + fq e = C(q+1) A2,  q = 1..n-1.

Semistability at the weight theta is King's slope condition on
sub-representations (S0, S1); at the distinguished weight
theta_c = (2c, -2c+1) it reduces to the two dimension conditions (Q2)/(Q3).
Over the complex numbers the verdict is evaluated spectrally through the
equivalence with conditions (P1)-(P3) on the f = 0 locus; the definitional
subspace enumeration exists only over prime fields, as an oracle.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import combinations, product

from . import linalg
from .errors import (
    InvalidInput,
    NonzeroFraming,
    NotInChart,
    ShapeMismatch,
    TooLarge,
    UnsupportedBackend,
)
from .linalg import Matrix, hstack, nullspace, rank, vstack
from .pencil import analyze_pencil
from .xn import XnADHM, _p3_at_roots, _rotate, check_P1, check_P2


@dataclass(frozen=True)
class FramedRep:
    n: int
    v0: int
    v1: int
    w: int
    A1: Matrix
    A2: Matrix
    C: tuple
    e: Matrix
    f: tuple

    def __post_init__(self):
        object.__setattr__(self, "C", tuple(self.C))
        object.__setattr__(self, "f", tuple(self.f))
        if len(self.C) != self.n:
            raise ShapeMismatch(f"expected {self.n} C-blocks")
        if len(self.f) != max(self.n - 1, 0):
            raise ShapeMismatch(f"expected {max(self.n - 1, 0)} f-blocks")
        if (self.A1.rows, self.A1.cols) != (self.v1, self.v0):
            raise ShapeMismatch("A1 must be v1 x v0")
        if (self.A2.rows, self.A2.cols) != (self.v1, self.v0):
            raise ShapeMismatch("A2 must be v1 x v0")
        for C in self.C:
            if (C.rows, C.cols) != (self.v0, self.v1):
                raise ShapeMismatch("C blocks must be v0 x v1")
        if (self.e.rows, self.e.cols) != (self.w, self.v0):
            raise ShapeMismatch("e must be w x v0")
        for f in self.f:
            if (f.rows, f.cols) != (self.v0, self.w):
                raise ShapeMismatch("f blocks must be v0 x w")

    @property
    def backend(self):
        return self.A1.backend

    def cast(self, backend):
        return FramedRep(self.n, self.v0, self.v1, self.w,
                         self.A1.cast(backend), self.A2.cast(backend),
                         tuple(C.cast(backend) for C in self.C),
                         self.e.cast(backend),
                         tuple(f.cast(backend) for f in self.f))


@dataclass(frozen=True)
class StabilityParams:
    theta: tuple
    dims: tuple

    @classmethod
    def standard(cls, c: int) -> "StabilityParams":
        return cls(theta=(2 * c, -2 * c + 1), dims=(c, c))


@dataclass(frozen=True)
class MomentResidual:
    """Per-vertex defect of the moment element on the doubled quiver."""
    mu0: Matrix
    mu1: Matrix

    def norm(self) -> float:
        return max(self.mu0.maxnorm(), self.mu1.maxnorm())


class Verdict(enum.Enum):
    SEMISTABLE = "semistable"
    UNSTABLE = "unstable"
    INDETERMINATE = "indeterminate"

    def to_bool(self) -> bool:
        if self is Verdict.INDETERMINATE:
            raise InvalidInput("indeterminate verdict has no boolean value")
        return self is Verdict.SEMISTABLE


# ---------------------------------------------------------------------------
# relations and slope
# ---------------------------------------------------------------------------

def relation_defects(r: FramedRep):
    """Left-hand-minus-right-hand sides of every (Q1) relation."""
    out = []
    if r.n == 1:
        out.append(r.A1 @ r.C[0] @ r.A2 - r.A2 @ r.C[0] @ r.A1)
    else:
        for q in range(r.n - 1):
            out.append(r.A1 @ r.C[q] - r.A2 @ r.C[q + 1])
            out.append(r.C[q] @ r.A1 + r.f[q] @ r.e - r.C[q + 1] @ r.A2)
    return out


def check_relations(r: FramedRep, tol=None) -> bool:
    defects = relation_defects(r)
    if r.backend.exact:
        return all(D.is_zero() for D in defects)
    scale = linalg.scale_of(r.A1, r.A2) * linalg.scale_of(*r.C, r.e, *r.f)
    if r.n == 1:
        scale *= linalg.scale_of(r.A1, r.A2)
    return all(D.maxnorm() <= linalg._tol(tol) * scale for D in defects)


def theta_slope(theta, dims) -> float:
    return theta[0] * dims[0] + theta[1] * dims[1]


# ---------------------------------------------------------------------------
# spectral semistability (complex / rational data)
# ---------------------------------------------------------------------------

def check_semistable_spectral(r: FramedRep, tol=None) -> Verdict:
    """Semistability at theta_c through the spectral dictionary.

    On the f = 0 locus the verdict is the conjunction of (P1)-(P3) for the
    underlying configuration data.  A representation with some f != 0 cannot
    be semistable once its pencil is regular; with a singular pencil and
    f != 0 the verdict is INDETERMINATE (the spectral route does not apply).
    """
    if r.v0 != r.v1 or r.w != 1:
        raise ShapeMismatch("spectral check needs v0 = v1 and w = 1")
    if not check_relations(r, tol):
        raise InvalidInput("relations (Q1) fail; not a representation")
    d = XnADHM(r.n, r.v0, r.A1, r.A2, r.C, r.e)
    if all(f.is_zero(tol) for f in r.f):
        if not check_P1(d, tol):
            return Verdict.UNSTABLE
        # one pencil analysis decides (P2) and gives (P3) its roots
        pencil = analyze_pencil(d.A1, d.A2, tol)
        ok = pencil.regular and _p3_at_roots(d, pencil.eigenvalues, tol)
        return Verdict.SEMISTABLE if ok else Verdict.UNSTABLE
    if check_P2(d, tol):
        return Verdict.UNSTABLE
    return Verdict.INDETERMINATE


def u_m_residual(r: FramedRep, m: int):
    """Binomial combination of the framing blocks attached to chart m.

    The weights follow the same pattern as the chart free parameter one
    degree lower, binom(n-2, q-1) c_m^(n-1-q) s_m^(q-1); with them the chart
    commutator satisfies [B_m, E_m] = u_m e on every relation-satisfying
    representation (the other exponent pairing fails this identity for
    n >= 3).  Semistable representations with a regular pencil have u_m = 0
    for every valid chart, which is how the framing blocks are forced to
    vanish.
    """
    if r.n < 2:
        raise InvalidInput("u_m needs n >= 2")
    if r.v0 != r.v1:
        raise ShapeMismatch("u_m needs v0 = v1")
    A2m = _rotate(r.A1, r.A2, m, r.v0)[1]
    if not linalg.is_invertible(A2m):
        raise NotInChart(f"det A2m = 0 in chart {m}")
    bk = A2m.backend
    cm, sm = linalg.angle_constants(r.v0, m)
    u = Matrix.zeros(r.v0, r.w, bk)
    for q in range(1, r.n):
        coef = math.comb(r.n - 2, q - 1) * cm ** (r.n - 1 - q) * sm ** (q - 1)
        u = u + r.f[q - 1].cast(bk).scale(bk.coerce(coef))
    return u


def moment_residual_n2(r: FramedRep) -> MomentResidual:
    """Per-vertex moment defect for the n = 2 representation.

    The six arrows of the n = 2 framed quiver are exactly the arrows of the
    framed double of the two-vertex cyclic quiver with framing dimension
    (1, 0), under (a, a*, b, b*, d0, d0*) = (A2, C2, C1, A1, e, f1).  The
    signed sum of arrow round-trips then gives

        mu0 = C1 A1 + f1 e - C2 A2,    mu1 = A2 C2 - A1 C1,

    which vanish exactly on representations satisfying the n = 2 relations.
    """
    if r.n != 2:
        raise ShapeMismatch("moment comparison is specific to n = 2")
    mu0 = r.C[0] @ r.A1 + r.f[0] @ r.e - r.C[1] @ r.A2
    mu1 = r.A2 @ r.C[1] - r.A1 @ r.C[0]
    return MomentResidual(mu0=mu0, mu1=mu1)


def embed_xn_as_rep(d: XnADHM) -> FramedRep:
    """Zero-framing embedding of configuration data."""
    bk = d.backend
    f = tuple(Matrix.zeros(d.c, 1, bk) for _ in range(d.n - 1))
    return FramedRep(d.n, d.c, d.c, 1, d.A1, d.A2, d.C, d.e, f)


def project_rep(r: FramedRep, tol=None) -> XnADHM:
    """Drop the framing blocks; they must vanish."""
    if any(not f.is_zero(tol) for f in r.f):
        raise NonzeroFraming("representation has a nonzero framing block")
    if r.v0 != r.v1 or r.w != 1:
        raise ShapeMismatch("projection needs v0 = v1 and w = 1")
    return XnADHM(r.n, r.v0, r.A1, r.A2, r.C, r.e)


# ---------------------------------------------------------------------------
# exhaustive prime-field oracle
# ---------------------------------------------------------------------------

def gaussian_binomial(n: int, k: int, p: int) -> int:
    num, den = 1, 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def count_subspaces(d: int, p: int) -> int:
    return sum(gaussian_binomial(d, k, p) for k in range(d + 1))


def subspace_bases(d: int, p: int):
    """All subspaces of GF(p)^d as d x k column-basis matrices.

    Enumerated through reduced echelon forms: one matrix per subspace.
    """
    gf = linalg.GF(p)
    yield Matrix.zeros(d, 0, gf)
    for k in range(1, d + 1):
        for pivots in combinations(range(d), k):
            free_pos = [(i, j) for i in range(k) for j in range(d)
                        if j > pivots[i] and j not in pivots]
            for fill in product(range(p), repeat=len(free_pos)):
                rows = [[0] * d for _ in range(k)]
                for i, pc in enumerate(pivots):
                    rows[i][pc] = 1
                for (i, j), v in zip(free_pos, fill):
                    rows[i][j] = v
                yield Matrix.from_rows(rows, gf).transpose()


def _contains(S: Matrix, M: Matrix) -> bool:
    """Whether every column of M lies in the span of the basis S (the
    columns of S must be independent)."""
    return rank(hstack(S, M)) == S.cols


def _maps_into(A: Matrix, S0: Matrix, S1: Matrix) -> bool:
    return _contains(S1, A @ S0)


def _span(M: Matrix) -> Matrix:
    """Column basis of the column span of M (rows of an echelon form)."""
    rows, pivots = linalg._rref(M.transpose())
    return linalg._wrap_rows(rows[:len(pivots)], M.rows, M.backend).transpose()


def _preimage(Cs, S0: Matrix) -> Matrix:
    """Column basis of the largest S1 with C S1 inside S0 for every C."""
    ann = nullspace(S0.transpose()).transpose()
    return nullspace(vstack(*(ann @ C for C in Cs)))


def brute_force_semistable(r: FramedRep, theta=None, budget=200_000) -> bool:
    """Definitional semistability by exhausting the subspaces S0 of V0.

    A pair (S0, S1) is closed when both A arrows map S0 into S1 and every C
    arrow maps S1 into S0.  Each closed pair is tested against the two slope
    conditions: S0 inside ker e forces theta.(dim S) <= 0, and S0 containing
    every Im f_i (every pair, when n = 1) forces
    theta.(dim S) <= theta.(v0, v1).

    Both conditions depend on S1 only through the slope, which is linear in
    dim S1.  The closed pairs with a given S0 are the S1 between
    S1min = A1 S0 + A2 S0 and S1max = the common preimage of S0 under the
    C arrows, so only one end of that interval needs a test: S1min when
    theta_1 <= 0 (as at the standard weight theta_c), S1max otherwise.  If
    that candidate is not closed, no S1 closes with this S0.

    ``budget`` bounds the number of subspaces S0 enumerated; more raises
    ``TooLarge``.
    """
    if r.backend.kind != "gf":
        raise UnsupportedBackend("the exhaustive check runs over prime fields")
    p = r.backend.p
    total = count_subspaces(r.v0, p)
    if total > budget:
        raise TooLarge(f"{total} subspaces of V0 exceed the budget {budget}")
    if theta is None:
        theta = StabilityParams.standard(r.v0).theta
    full = theta_slope(theta, (r.v0, r.v1))
    for S0 in subspace_bases(r.v0, p):
        if theta[1] <= 0:
            S1 = _span(hstack(r.A1 @ S0, r.A2 @ S0))
        else:
            S1 = _preimage(r.C, S0)
        if not (_maps_into(r.A1, S0, S1) and _maps_into(r.A2, S0, S1)
                and all(_maps_into(C, S1, S0) for C in r.C)):
            continue
        slope = theta_slope(theta, (S0.cols, S1.cols))
        if slope > 0 and (r.e @ S0).is_zero():
            return False
        if slope > full and all(_contains(S0, f) for f in r.f):
            return False
    return True
