"""ADHM data for point configurations on the total space of O(-n) over P^1.

A configuration of length c is encoded by (A1, A2; C1..Cn; e) subject to

* (P1): A1 C1 A2 = A2 C1 A1 for n = 1; for n > 1 the chains
  A1 Cq = A2 C(q+1) and Cq A1 = C(q+1) A2, q = 1..n-1,
* (P2): the pencil nu1 A1 + nu2 A2 is regular,
* (P3): no nonzero v in ker e is killed by l2*A1 + l1*A2 while being a joint
  eigenvector of C1 A2 and Cn A1 with eigenvalues (-m1, (-1)^n m2) satisfying
  l1^n m1 + l2^n m2 = 0.

The space carries c+1 charts indexed by m = 0..c with angle constants
(c_m, s_m) = (cos, sin)(pi m / (c+1)).  On the chart where
A2m = s_m A1 + c_m A2 is invertible the data is equivalent to a plane ADHM
triple (B_m, E_m, e) together with the free gauge block A2m, and overlapping
charts are glued by a Moebius transformation in B and a power factor in E.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    IndexOutOfRange,
    InvalidInput,
    NoChart,
    NonSimpleSpectrum,
    NotCostable,
    NotInChart,
    NotInOverlap,
    ShapeMismatch,
    SingularA2m,
    SingularGauge,
    UnsupportedBackend,
)
from .linalg import Matrix, angle_constants, inverse, is_invertible
from .pencil import _float_witness, _regularity, analyze_pencil
from .plane import (PlaneADHM, _observable, _unit, check_T2, common_eigenvectors,
                    from_plane_points, joint_spectrum)


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class XnADHM:
    n: int
    c: int
    A1: Matrix
    A2: Matrix
    C: tuple
    e: Matrix

    def __post_init__(self):
        if self.n < 1 or self.c < 1:
            raise ShapeMismatch("n and c must be >= 1")
        object.__setattr__(self, "C", tuple(self.C))
        if len(self.C) != self.n:
            raise ShapeMismatch(f"expected {self.n} C-blocks, got {len(self.C)}")
        mats = [self.A1, self.A2, *self.C]
        for M in mats:
            if (M.rows, M.cols) != (self.c, self.c):
                raise ShapeMismatch("A and C blocks must be c x c")
        if (self.e.rows, self.e.cols) != (1, self.c):
            raise ShapeMismatch("e must be a row c-vector")
        bk = self.A1.backend
        if any(M.backend != bk for M in [*mats, self.e]):
            raise ShapeMismatch("blocks on different backends")

    @property
    def backend(self):
        return self.A1.backend

    def cast(self, backend):
        return XnADHM(self.n, self.c, self.A1.cast(backend),
                      self.A2.cast(backend),
                      tuple(C.cast(backend) for C in self.C),
                      self.e.cast(backend))


@dataclass(frozen=True)
class ChartData:
    m: int
    B: Matrix
    E: Matrix
    e: Matrix
    A2m: Matrix

    def __post_init__(self):
        c = self.B.rows
        for M in (self.B, self.E, self.A2m):
            if (M.rows, M.cols) != (c, c):
                raise ShapeMismatch("chart blocks must be square of equal size")
        if (self.e.rows, self.e.cols) != (1, c):
            raise ShapeMismatch("e must be a row c-vector")

    @property
    def c(self):
        return self.B.rows

    @property
    def backend(self):
        return self.B.backend

    def plane(self) -> PlaneADHM:
        return PlaneADHM(self.c, self.B, self.E, self.e)


@dataclass(frozen=True)
class SigmaMatrix:
    h: int
    m: int
    entries: Matrix


# ---------------------------------------------------------------------------
# chart constants and sigma matrices
# ---------------------------------------------------------------------------

def chart_constants(c: int, m: int):
    """(cos, sin)(pi m / (c+1)) for a chart index 0 <= m <= c."""
    if not 0 <= m <= c:
        raise IndexOutOfRange(f"chart index {m} outside 0..{c}")
    return angle_constants(c, m)


def _backend_angles(backend, c_count: int, k: int):
    """Chart constants coerced into the data backend.

    Exact backends only admit the charts whose constants are integers
    (k = 0 mod (c+1), and the right-angle charts); anything else promotes a
    rational pipeline to floats and is rejected over a prime field.
    """
    cm, sm = angle_constants(c_count, k)
    if not backend.exact:
        return backend, backend.coerce(cm), backend.coerce(sm)
    if cm == int(cm) and sm == int(sm):
        return backend, backend.coerce(int(cm)), backend.coerce(int(sm))
    if backend.kind == "gf":
        raise UnsupportedBackend(
            "chart constants are irrational; prime-field data only supports "
            "integer-constant charts")
    return linalg.COMPLEX, complex(cm), complex(sm)


def sigma(h: int, m: int, c_count: int, backend=linalg.COMPLEX) -> SigmaMatrix:
    """Binomial change-of-chart matrix of size (h+1) x (h+1).

    Row p expands (s_m u1 + c_m u2)^p (c_m u1 - s_m u2)^(h-p) over the
    monomials u2^q u1^(h-q); the family satisfies the one-parameter group law
    sigma(h, m) sigma(h, l) = sigma(h, m + l).
    """
    if h < 0:
        raise IndexOutOfRange("h must be >= 0")
    backend, cm, sm = _backend_angles(backend, c_count, m)
    rows = []
    for p in range(h + 1):
        # (s u1 + c u2)^p and (c u1 - s u2)^(h-p) over u2-powers
        a = [math.comb(p, j) * cm ** j * sm ** (p - j) for j in range(p + 1)]
        b = [math.comb(h - p, i) * (-sm) ** i * cm ** (h - p - i)
             for i in range(h - p + 1)]
        row = [backend.zero] * (h + 1)
        for j in range(p + 1):
            for i in range(h - p + 1):
                row[i + j] += a[j] * b[i]
        rows.append(row)
    return SigmaMatrix(h, m, Matrix.from_rows(rows, backend))


# ---------------------------------------------------------------------------
# chart matrices and the three conditions
# ---------------------------------------------------------------------------

def _rotate(X: Matrix, Y: Matrix, k: int, c_count: int):
    """(c_k X - s_k Y, s_k X + c_k Y) at the angle pi k / (c_count + 1), for
    any integer k: chart m rotates (A1, A2) by m, the chart dictionary
    (B, 1) by -m, and the transition from chart m to l (B, 1) by l - m.
    Irrational constants promote exact data (``_backend_angles``), and
    products by 0 and 1 are skipped (``linalg._node_matrix``)."""
    bk, ck, sk = _backend_angles(X.backend, c_count, k)
    X, Y = X.cast(bk), Y.cast(bk)
    return (linalg._node_matrix(X, Y, ck, bk.reduce(-sk)),
            linalg._node_matrix(X, Y, sk, ck))


def chart_matrices(d: XnADHM, m: int):
    """(A1m, A2m, E_m, D_m) in chart m.

    A1m = c_m A1 - s_m A2, A2m = s_m A1 + c_m A2, D_m is the binomial
    combination of the C blocks that acts as the free parameter of the chart,
    and E_m = D_m A2m.
    """
    A1m, A2m = _rotate(d.A1, d.A2, m, d.c)
    bk, cm, sm = _backend_angles(A2m.backend, d.c, m)
    Dm = Matrix.zeros(d.c, d.c, bk)
    for q in range(1, d.n + 1):
        coef = math.comb(d.n - 1, q - 1) * (cm ** (d.n - q) * sm ** (q - 1))
        Dm = Dm + d.C[q - 1].cast(bk).scale(coef)
    Em = Dm @ A2m
    return A1m, A2m, Em, Dm


def check_P1(d: XnADHM, tol=None) -> bool:
    """Chain condition on (A1, A2, C)."""
    defects = []
    if d.n == 1:
        defects.append(d.A1 @ d.C[0] @ d.A2 - d.A2 @ d.C[0] @ d.A1)
    else:
        for q in range(d.n - 1):
            defects.append(d.A1 @ d.C[q] - d.A2 @ d.C[q + 1])
            defects.append(d.C[q] @ d.A1 - d.C[q + 1] @ d.A2)
    if d.backend.exact:
        return all(D.is_zero() for D in defects)
    scale = linalg.scale_of(d.A1, d.A2) * linalg.scale_of(*d.C)
    if d.n == 1:
        scale *= linalg.scale_of(d.A1, d.A2)
    return all(D.maxnorm() <= linalg._tol(tol) * scale for D in defects)


def check_P2(d: XnADHM, tol=None) -> bool:
    """Pencil regularity: the pencil analyzer's own test, without the
    spectrum or the minimal chain of a full ``analyze_pencil``."""
    return _regularity(d.A1, d.A2, tol)[0] is not None


def check_P3_direct(d: XnADHM, tol=None) -> bool:
    """Literal test of the co-stability condition at the pencil roots.

    Under (P2) the quantifier over [l1:l2] reduces to the finite root set of
    the determinant form.  On a joint eigenvector v of M1 = C1 A2 and
    M2 = Cn A1 the constraint l1^n m1 + l2^n m2 = 0 is N v = 0, so on data
    satisfying (P1), where M1 and M2 commute, a violation is a nonzero
    (M1, M2)-invariant subspace inside ker(l2 A1 + l1 A2) ∩ ker e ∩ ker N:
    the rank of ``check_T2`` in other coordinates and without a chart (see
    ``_p3_at_roots``).
    """
    if d.backend.kind == "gf":
        raise UnsupportedBackend(
            "(P3) needs root finding; use the quiver module's exhaustive "
            "check over prime fields")
    analysis = analyze_pencil(d.A1, d.A2, tol)
    if not analysis.regular:
        raise InvalidInput("condition (P3) is only decidable for regular pencils")
    return _p3_at_roots(d, analysis.eigenvalues, tol)


def _p3_at_roots(d: XnADHM, roots, tol=None) -> bool:
    """``check_P3_direct`` past its regularity test, for callers that have
    analyzed the pencil already: ``roots`` is ``analyze_pencil(d.A1, d.A2,
    tol).eigenvalues`` of a regular pencil.  Prime-field data raises
    ``UnsupportedBackend`` (it cannot be cast to floats).

    At each root one ``_observable`` call grows [P; e; N] by M1 and M2 at
    ``10 * _tol(tol)``, since a root is only as accurate as the pencil's
    eigenvalues; N = -l1^n M1 + (-1)^n l2^n M2.  P is divided by
    max(1, max-norm) of A1 and A2, N by that of M1 and M2, and e, M1 and M2
    each by their own.
    """
    dd = d.cast(linalg.COMPLEX) if d.backend.exact else d
    A1, A2 = dd.A1.to_numpy(), dd.A2.to_numpy()
    M1 = dd.C[0].to_numpy() @ A2
    M2 = dd.C[d.n - 1].to_numpy() @ A1
    s_A = linalg.scale_of(dd.A1, dd.A2)
    s_M = max(1.0, np.abs(M1).max(), np.abs(M2).max())
    e = _unit(dd.e.to_numpy())
    mats = (_unit(M1), _unit(M2))
    thr = 10 * linalg._tol(tol)
    sign = (-1) ** d.n
    for (nu1, nu2), _ in roots:
        l1, l2 = nu2, nu1
        P = (l2 * A1 + l1 * A2) / s_A
        N = (-l1 ** d.n * M1 + sign * l2 ** d.n * M2) / s_M
        if not _observable(np.vstack((P, e, N)), mats, thr):
            return False
    return True


def check_P3_via_chart(d: XnADHM, tol=None) -> bool:
    """Equivalent co-stability test through the covering chart."""
    cd = zeta(d, cover_chart(d, tol), tol)
    return check_T2(cd.plane(), tol)


# ---------------------------------------------------------------------------
# chart isomorphisms
# ---------------------------------------------------------------------------

def zeta(d: XnADHM, m: int, tol=None) -> ChartData:
    """Chart-m reading (B_m, E_m, e; A2m) of the data."""
    A1m, A2m, Em, _ = chart_matrices(d, m)
    if not is_invertible(A2m, tol):
        raise NotInChart(f"det A2m = 0 in chart {m}")
    B = inverse(A2m) @ A1m
    e = d.e.cast(B.backend)
    return ChartData(m, B, Em, e, A2m)


def zeta_inverse(cd: ChartData, n: int, tol=None, check=True) -> XnADHM:
    """Rebuild the full data from a chart reading.

    With (B, E, e) co-stable and commuting this lands back in the locus where
    all three conditions hold; ``check=False`` skips the co-stability guard
    (used to manufacture violating samples).
    """
    c = cd.c
    R1, R2 = _rotate(cd.B, Matrix.identity(c, cd.backend), -cd.m, c)
    bk = R1.backend
    B = cd.B.cast(bk)
    E = cd.E.cast(bk)
    e = cd.e.cast(bk)
    A = cd.A2m.cast(bk)
    if not is_invertible(A, tol):
        raise SingularA2m("A2m block must be invertible")
    if check and not check_T2(PlaneADHM(c, B, E, e), tol):
        raise NotCostable("chart triple violates co-stability")
    A1, A2 = A @ R1, A @ R2
    sig = sigma(n - 1, cd.m, c, bk).entries
    EAinv = E @ inverse(A)
    powersB = [Matrix.identity(c, bk)]
    for _ in range(n - 1):
        powersB.append(powersB[-1] @ B)
    Cs = []
    for q in range(n):
        Cq = Matrix.zeros(c, c, bk)
        for p in range(n):
            Cq = Cq + powersB[p].scale(sig.at(q, p))
        Cs.append(Cq @ EAinv)
    return XnADHM(n, c, A1, A2, tuple(Cs), e)


def transition_phi(d: PlaneADHM, n: int, m: int, l: int, tol=None) -> PlaneADHM:
    """Chart-m plane data re-read in chart l.

    Defined on the overlap det(c_{m-l} - s_{m-l} b1) != 0, where it acts as a
    Moebius map on b1, multiplies b2 by the n-th power of the denominator and
    leaves e untouched.
    """
    return _transition(d, n, m, l, tol)[0]


def transition_omega(cd: ChartData, n: int, l: int, tol=None) -> ChartData:
    """Chart transition on full chart data: the plane part moves as in
    ``transition_phi`` and the gauge block picks up the same denominator."""
    moved, T = _transition(cd.plane(), n, cd.m, l, tol)
    return ChartData(l, moved.b1, moved.b2, moved.e, cd.A2m.cast(T.backend) @ T)


def _transition(d: PlaneADHM, n: int, m: int, l: int, tol=None):
    """(``transition_phi(d, n, m, l)``, T): rotating (b1, 1) by l - m gives
    the numerator s_{m-l} + c_{m-l} b1 and the denominator
    T = c_{m-l} - s_{m-l} b1 of the Moebius map."""
    num, T = _rotate(d.b1, Matrix.identity(d.c, d.backend), l - m, d.c)
    if not is_invertible(T, tol):
        raise NotInOverlap(f"charts {m} and {l} do not overlap at this point")
    bk = T.backend
    moved = PlaneADHM(d.c, inverse(T) @ num, T.power(n) @ d.b2.cast(bk),
                      d.e.cast(bk))
    return moved, T


def gl2_action(phi1: Matrix, phi2: Matrix, d: XnADHM, tol=None) -> XnADHM:
    """(A_i, C_j, e) -> (phi2 A_i phi1^-1, phi1 C_j phi2^-1, e phi1^-1)."""
    if not (is_invertible(phi1, tol) and is_invertible(phi2, tol)):
        raise SingularGauge("both gauge matrices must be invertible")
    inv1 = inverse(phi1)
    inv2 = inverse(phi2)
    return XnADHM(d.n, d.c,
                  phi2 @ d.A1 @ inv1,
                  phi2 @ d.A2 @ inv1,
                  tuple(phi1 @ C @ inv2 for C in d.C),
                  d.e @ inv1)


def gl2_action_chart(phi1: Matrix, phi2: Matrix, cd: ChartData, tol=None) -> ChartData:
    """Induced action on a chart reading:
    (B, E, e; A2m) -> (phi1 B phi1^-1, phi1 E phi1^-1, e phi1^-1; phi2 A2m phi1^-1)."""
    if not (is_invertible(phi1, tol) and is_invertible(phi2, tol)):
        raise SingularGauge("both gauge matrices must be invertible")
    inv1 = inverse(phi1)
    return ChartData(cd.m, phi1 @ cd.B @ inv1, phi1 @ cd.E @ inv1,
                     cd.e @ inv1, phi2 @ cd.A2m @ inv1)


# ---------------------------------------------------------------------------
# covering chart, point constructions, spectral witness
# ---------------------------------------------------------------------------

def cover_chart(d: XnADHM, tol=None) -> int:
    """Best-conditioned chart: on floats the chart of the pencil's witness
    (``pencil._float_witness``), the smallest index maximizing
    s_min(A2m) / max(1, max-norm of A2m), the ratio ``is_invertible`` tests,
    so that ``NoChart`` is raised exactly when no chart passes that test,
    that is exactly when ``check_P2`` fails; over an exact backend, the
    first invertible chart.  Raises ``NoChart`` on a singular pencil.

    Some chart is always invertible for a regular pencil: the determinant
    form has at most c projective roots and there are c+1 chart ratios.
    """
    if d.backend.exact:
        # charts whose constants stay in the field are judged exactly; the
        # promoted ones fall back to the float tolerance
        best = next((m for m in range(d.c + 1)
                     if is_invertible(_rotate(d.A1, d.A2, m, d.c)[1], tol)),
                    None)
    else:
        best = _float_witness(d.A1, d.A2, tol)[0]
    if best is None:
        raise NoChart("singular pencil: no invertible chart")
    return best


def from_xn_points(n: int, m: int, points, backend=linalg.COMPLEX) -> XnADHM:
    """Configuration of distinct points given in chart-m coordinates.

    Realized as diagonal chart data (B, E) = (diag z, diag w) with unit
    framing and unit gauge block, then rebuilt through the chart.  The
    co-stability guard of ``zeta_inverse`` has no prime-field route, so
    GF(p) data is built from the residues over the rationals and reduced;
    the chart must have integer constants.
    """
    if backend.kind == "gf":
        _backend_angles(backend, len(points), m)
        residues = [(backend.coerce(z), backend.coerce(w)) for z, w in points]
        return from_xn_points(n, m, residues, linalg.RATIONAL).cast(backend)
    plane = from_plane_points(points, backend)
    cd = ChartData(m, plane.b1, plane.b2, plane.e,
                   Matrix.identity(plane.c, backend))
    return zeta_inverse(cd, n)


def to_xn_points(d: XnADHM, m: int | None = None, tol=None):
    """(chart index, sorted point pairs) read as the joint spectrum of
    (B_m, E_m); raises on a non-simple joint spectrum."""
    if m is None:
        m = cover_chart(d, tol)
    cd = zeta(d, m, tol)
    pairs = joint_spectrum(cd.plane(), tol)
    if sum(mult for _, _, mult in pairs) != d.c or any(
            mult > 1 for _, _, mult in pairs):
        raise NonSimpleSpectrum(
            f"joint spectrum not simple: {[(z, w, k) for z, w, k in pairs]}")
    return m, [(z, w) for z, w, _ in pairs]


def spectral_witness(d: XnADHM, tol=None):
    """Constructive eigenvector witness for data satisfying (P1) and (P2).

    Returns (v, (l1, l2), (m1, m2)) with l1^n m1 + l2^n m2 = 0,
    (l2 A1 + l1 A2) v = 0, C1 A2 v = -m1 v and Cn A1 v = (-1)^n m2 v: the
    common eigenvector of the commuting chart pair (B_m, E_m), pushed through
    the chart dictionary.
    """
    m = cover_chart(d, tol)
    cd = zeta(d, m, tol)
    pairs = common_eigenvectors(cd.B, cd.E, tol)
    if not pairs:
        raise InvalidInput("no joint eigenvector; does the data satisfy (P1)?")
    z, w, V = pairs[0]
    v = V.column(0)
    cm, sm = angle_constants(d.c, m)
    l1 = cm * z + sm
    l2 = sm * z - cm
    mu1 = (-1) ** (d.n - 1) * (sm * z - cm) ** d.n * w
    mu2 = (-1) ** d.n * (cm * z + sm) ** d.n * w
    return v, (l1, l2), (mu1, mu2)
