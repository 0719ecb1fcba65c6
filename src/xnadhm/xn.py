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

The chart dictionary, the three conditions and the transitions run on entry
arrays: one array core per computation (``_rotation``, ``_chart_entries``,
``_chart_reading``, ``_transition``), which the public functions wrap into
``Matrix``, ``ChartData`` or ``XnADHM`` only where they return them.  The
(P1) and (Q1) defects are one kernel on every backend, ``_chain_defects``:
batched products on the stacked entries, or on the rationals on the
integer numerators of all blocks over one common denominator.  The
transitions' per-leg chart constants are built once per (backend, c,
shifts) by ``_leg_constants`` and kept as read-only arrays.

A configuration keeps what it has computed about itself: on floats its node
conditioning (one batched SVD of the c+1 matrices A2m), and on every backend
each chart reading (B_m, E_m; A2m) it has taken.  Neither depends on
``tol``: every read applies the caller's ``tol`` to the kept values, so
``check_P2``, ``check_P3_direct``, ``cover_chart``, ``zeta``,
``check_P3_via_chart``, ``to_xn_points`` and ``spectral_witness`` share
them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    BackendMismatch,
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
# inverse is not called here; benches/tracing.py traces it as xn.inverse
from .linalg import (Matrix, angle_constants, inverse,  # noqa: F401
                     is_invertible)
from .pencil import _float_conditioning, _float_witness, _regularity, _spectrum
from .plane import (PlaneADHM, _costable, _observable, _unit,
                    common_eigenvectors, from_plane_points)


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class XnADHM:
    """Configuration data (A1, A2; C1..Cn; e) of length c on one backend.

    The data is immutable, and a configuration keeps what it computes
    about itself that does not depend on ``tol``: its node conditioning
    (``_pencil_conditioning``, floats only) and the chart readings taken so
    far (``_chart_readings``), where on exact data a chart found singular
    reads None.  ``dataclasses.replace`` gives a copy that keeps none of
    them."""
    n: int
    c: int
    A1: Matrix
    A2: Matrix
    C: tuple
    e: Matrix

    def __post_init__(self):
        _check_n(self.n)
        if self.c < 1:
            raise ShapeMismatch("c must be >= 1")
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

    @functools.cached_property
    def _pencil_conditioning(self):
        """``pencil._float_conditioning`` of (A1, A2), None on the exact
        backends: one batched node SVD per float configuration, shared by
        ``check_P2``, ``check_P3_direct`` and ``cover_chart``.  It does not
        depend on ``tol``, and the data is immutable."""
        if self.backend.exact:
            return None
        return _float_conditioning(self.A1, self.A2)

    @functools.cached_property
    def _chart_readings(self):
        """The chart readings taken so far by ``_chart_reading``, chart
        index -> read-only entry arrays (b, em, a2m), or None for an exact
        chart whose A2m is singular: ``zeta``, ``check_P3_via_chart``,
        ``to_xn_points`` and ``spectral_witness`` read each chart once per
        configuration.  A reading depends on neither ``tol`` nor e; the
        float chart test, which applies ``tol``, runs on every read."""
        return {}

    def cast(self, backend):
        return XnADHM(self.n, self.c, self.A1.cast(backend),
                      self.A2.cast(backend),
                      [C.cast(backend) for C in self.C],
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
        _check_chart(c, self.m)
        for M in (self.B, self.E, self.A2m):
            if (M.rows, M.cols) != (c, c):
                raise ShapeMismatch("chart blocks must be square of equal size")
        if (self.e.rows, self.e.cols) != (1, c):
            raise ShapeMismatch("e must be a row c-vector")
        if any(M.backend != self.B.backend for M in (self.E, self.e, self.A2m)):
            raise ShapeMismatch("blocks on different backends")

    @property
    def c(self):
        return self.B.rows

    @property
    def backend(self):
        return self.B.backend

    def plane(self) -> PlaneADHM:
        return PlaneADHM(self.c, self.B, self.E, self.e)


# ---------------------------------------------------------------------------
# chart constants and sigma matrices
# ---------------------------------------------------------------------------

def _check_chart(c: int, m: int):
    if not 0 <= m <= c:
        raise IndexOutOfRange(f"chart index {m} outside 0..{c}")


def _check_n(n: int):
    if n < 1:
        raise IndexOutOfRange(f"n = {n} must be >= 1")


def _integer_chart(c_count: int, k: int) -> bool:
    """Whether both chart constants of k are integers (0 or +-1), so that
    they lie in every field."""
    return all(x == int(x) for x in angle_constants(c_count, k))


@functools.lru_cache(maxsize=None)
def _backend_angles(backend, c_count: int, k: int):
    """Chart constants (c_k, s_k) in the data backend.

    Exact backends only admit the charts whose constants are integers
    (k = 0 mod (c+1), and the right-angle charts); every other chart raises
    ``UnsupportedBackend``, and a caller who wants floats casts the data to
    COMPLEX.  Cached, as it is pure in (backend, c_count, k).
    """
    cm, sm = angle_constants(c_count, k)
    if not backend.exact:
        return backend.coerce(cm), backend.coerce(sm)
    if not _integer_chart(c_count, k):
        raise UnsupportedBackend(
            f"chart constants at angle pi {k}/{c_count + 1} are irrational; "
            "exact data only supports the integer-constant charts (cast to "
            "COMPLEX for floats)")
    return backend.coerce(int(cm)), backend.coerce(int(sm))


@functools.lru_cache(maxsize=256)
def sigma(h: int, m: int, c_count: int, backend=linalg.COMPLEX) -> Matrix:
    """Binomial change-of-chart matrix of size (h+1) x (h+1), as a
    ``Matrix`` over ``backend``; an exact backend raises
    ``UnsupportedBackend`` at a shift whose constants are irrational.

    Row p expands (s_m u1 + c_m u2)^p (c_m u1 - s_m u2)^(h-p) over the
    monomials u2^q u1^(h-q); the family satisfies the one-parameter group law
    sigma(h, m) sigma(h, l) = sigma(h, m + l).  Cached, since the result
    is immutable.
    """
    if h < 0:
        raise IndexOutOfRange("h must be >= 0")
    cm, sm = _backend_angles(backend, c_count, m)
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
    return Matrix.from_rows(rows, backend)


# ---------------------------------------------------------------------------
# chart matrices and the three conditions
# ---------------------------------------------------------------------------

def _rotation(x, y, k: int, c_count: int, backend):
    """(c_k x - s_k y, s_k x + c_k y) at the angle pi k / (c_count + 1), for
    any integer k, on entry arrays of ``backend``: chart m rotates (A1, A2)
    by m, and the chart dictionary (B, 1) by -m.  Exact data raises
    ``UnsupportedBackend`` at irrational constants (``_backend_angles``),
    and products by 0 and 1 are skipped (``linalg._node_entries``).
    ``_transition`` rotates a stack of (B, 1) by l - m itself, with per-leg
    constants.
    """
    ck, sk = _backend_angles(backend, c_count, k)
    return (linalg._node_entries(x, y, ck, backend.reduce(-sk), backend),
            linalg._node_entries(x, y, sk, ck, backend))


def _binomial_combination(blocks, cm, sm, backend):
    """sum over q = 1..k of binom(k-1, q-1) c^(k-q) s^(q-1) X_q for the k
    entry arrays ``blocks`` = (X_1, ..., X_k) and constants (c, s) = (cm,
    sm) of ``backend``: the chart's free parameter D_m (over the C blocks)
    and the framing combination u_m (over the f blocks, one degree lower)."""
    terms = [blocks[i] if w is None else backend.reduce(w * blocks[i])
             for i, w in _binomial_weights(len(blocks), cm, sm, backend)]
    out = terms[0]
    for X in terms[1:]:
        out = backend.reduce(out + X)
    return out


@functools.lru_cache(maxsize=1024)
def _binomial_weights(k: int, cm, sm, backend):
    """The nonzero weights of ``_binomial_combination`` as (q - 1, weight)
    pairs, weight None for a unit: without the products by a zero or unit
    coefficient, as in ``linalg._node_entries``.  At chart 0 (cm = 1,
    sm = 0) only X_1 is left; cm and sm are never both 0, so the X_1 or the
    X_k term always is.  Cached, as it is pure in its arguments."""
    weights = []
    for q in range(1, k + 1):
        coef = backend.coerce(
            math.comb(k - 1, q - 1) * (cm ** (k - q) * sm ** (q - 1)))
        if coef != 0:
            weights.append((q - 1, None if coef == 1 else coef))
    return tuple(weights)


def chart_matrices(d: XnADHM, m: int):
    """(A1m, A2m, E_m, D_m) in chart m.

    A1m = c_m A1 - s_m A2, A2m = s_m A1 + c_m A2, D_m is the binomial
    combination of the C blocks that acts as the free parameter of the chart,
    and E_m = D_m A2m: ``_chart_entries``, wrapped.
    """
    bk = d.backend
    return tuple(linalg._wrap(a, bk) for a in _chart_entries(d, m))


def _chart_entries(d: XnADHM, m: int):
    """``chart_matrices`` as entry arrays (a1m, a2m, em, dm); the chart
    index is checked before any arithmetic."""
    _check_chart(d.c, m)
    bk = d.backend
    a1m, a2m = _rotation(d.A1.entries, d.A2.entries, m, d.c, bk)
    cm, sm = _backend_angles(bk, d.c, m)
    dm = _binomial_combination([C.entries for C in d.C], cm, sm, bk)
    return a1m, a2m, linalg._matmul(dm, a2m, bk), dm


def _stack(mats):
    """The entries of equally shaped Matrices as one (len, rows, cols)
    array (``np.array`` of the list, which takes a fraction of
    ``np.stack``'s time on a few small blocks)."""
    return np.array([M.entries for M in mats])


def _chain_defects(A1, A2, C, f=(), e=None):
    """(defects, blocks) of the (P1) chain conditions on the Matrices A1,
    A2 and the C blocks, or with e of the (Q1) relations, whose f blocks
    come with n >= 2.  For n = 1 the one defect (A1 C1 A2 - A2 C1 A1,); for
    n >= 2 two (n-1, ., .) stacks, A1 Cq - A2 C(q+1) and Cq A1 - C(q+1) A2,
    the latter summed as the (Q1) relation Cq A1 + fq e - C(q+1) A2 when f
    is given.  Each stack comes from one product of (A1, A2) with the C
    stack on each side, and (Q1) adds the product of the f stack with e.

    Rational blocks go over one denominator d (``_common_form``) and the
    same products run on their integer numerators, so that no
    intermediate ``Fraction`` is made: each defect stack is its numerator
    over d^2 (d^3 for n = 1).  ``blocks`` are the entry arrays that
    ``_chain_holds`` scales float defects by, the C stack and for (Q1) e
    and the f stack; none on the rationals, whose defects it tests
    literally."""
    bk = A1.backend
    rational = bk.kind == "rational"
    if rational:
        nums, d = linalg._common_form((A1, A2, *C, *f, e) if f
                                      else (A1, A2, *C))
        a1, a2, cs = nums[0], nums[1], np.array(nums[2:2 + len(C)])
        if f:
            fs, e = np.array(nums[2 + len(C):-1]), nums[-1]
        mul = np.matmul
    else:
        a1, a2, cs = A1.entries, A2.entries, _stack(C)
        if f:
            fs = _stack(f)
        if e is not None:
            e = e.entries

        def mul(x, y):
            return linalg._matmul(x, y, bk)

    if len(cs) == 1:
        defects = (bk.reduce(mul(mul(a1, cs[0]), a2)
                             - mul(mul(a2, cs[0]), a1)),)
    else:
        pair = np.array((a1, a2))[:, None]
        left, right = mul(pair, cs), mul(cs, pair)    # A_i Cq and Cq A_i
        c_side = right[0, :-1]
        if f:
            c_side = bk.reduce(c_side + mul(fs, e))
        defects = (bk.reduce(left[0, :-1] - left[1, 1:]),
                   bk.reduce(c_side - right[1, 1:]))
    if rational:
        den = d ** (3 if len(cs) == 1 else 2)
        return tuple(linalg._fractions(D, den) for D in defects), ()
    return defects, (cs,) if e is None else (cs, e, fs) if f else (cs, e)


def check_P1(d: XnADHM, tol=None) -> bool:
    """Chain condition on (A1, A2, C); literal on the exact backends."""
    defects, blocks = _chain_defects(d.A1, d.A2, d.C)
    return _chain_holds(defects, d.A1.entries, d.A2.entries, blocks,
                        d.backend, tol)


def _chain_holds(defects, a1, a2, blocks, backend, tol=None) -> bool:
    """``_chain_defects`` all zero (exact) or within
    ``_tol(tol)`` max(1, |A|) max(1, |blocks|), ``blocks`` being entry
    arrays or stacks (the C stack, and for (Q1) e and the f stack) and |.|
    the max-norm, one per array; a single defect is the n = 1 relation,
    quadratic in A, which takes max(1, |A|) twice."""
    if backend.exact:
        return not any(any(D.flat) for D in defects)

    def scale(*arrays):
        return max(1.0, *(float(np.abs(x).max(initial=0.0)) for x in arrays))

    s = scale(a1, a2) * scale(*blocks)
    if len(defects) == 1:
        s *= scale(a1, a2)
    thr = linalg._tol(tol) * s
    return all(not D.size or float(np.abs(D).max()) <= thr for D in defects)


def check_P2(d: XnADHM, tol=None) -> bool:
    """Pencil regularity: the pencil analyzer's own test, without the
    spectrum or the minimal chain of a full ``analyze_pencil``."""
    return _regularity(d.A1, d.A2, tol, d._pencil_conditioning)[0] is not None


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
    regular, costable = _pencil_step(d, tol)
    if not regular:
        raise InvalidInput("condition (P3) is only decidable for regular pencils")
    return costable


def _pencil_step(d: XnADHM, tol=None):
    """(P2, P3) from ``pencil._regularity``, ``pencil._spectrum`` and
    ``_p3_at_roots``, P3 None on a singular pencil; without the singular-chain
    search, a pencil near the regularity threshold reads (False, None)."""
    witness, basis = _regularity(d.A1, d.A2, tol, d._pencil_conditioning)
    if witness is None:
        return False, None
    roots = _spectrum(d.A1, d.A2, witness, basis, tol)
    return True, _p3_at_roots(d, roots, tol)


def _p3_at_roots(d: XnADHM, roots, tol=None) -> bool:
    """``check_P3_direct`` at the roots of a regular pencil; prime-field
    data raises ``UnsupportedBackend`` (it cannot be cast to floats).

    At each root ``_observable`` grows the rows [P; e; N] of
    ``_p3_root_stack`` by M1 and M2 at ``10 * _tol(tol)``, since a root is
    only as accurate as the pencil's eigenvalues.  The ranks of the k
    roots' rows come from one batched SVD; only a root whose rows stay
    short of rank c goes on to ``_observable``'s growth loop.
    """
    rows, mats = _p3_root_stack(d, roots)
    thr = 10 * linalg._tol(tol)
    rank = (linalg._svdvals(rows) > thr).sum(axis=1)
    return all(_observable(rows[i], mats, thr)
               for i in np.flatnonzero(rank < d.c))


def _p3_root_stack(d: XnADHM, roots):
    """(rows, (M1, M2) scaled) for ``_p3_at_roots``: rows is the
    (k, 2c+1, c) stack of the k roots' [P; e; N], with
    P = l2 A1 + l1 A2 and N = -l1^n M1 + (-1)^n l2^n M2 at the root
    [l2 : l1] = [nu1 : nu2], M1 = C1 A2 and M2 = Cn A1.  P is divided by
    max(1, max-norm) of A1 and A2, N by that of M1 and M2, and e, M1 and
    M2 each by their own.

    The stack is filled in place from one product of the (k, 4) weight
    array (l2, l1, -l1^n, (-1)^n l2^n) with the blocks (A1, A2, M1, M2);
    the powers are Python complex powers, so that each root's rows are
    those of the per-root expression, bit for bit.
    """
    A1, A2 = d.A1.to_numpy(), d.A2.to_numpy()
    M1 = d.C[0].to_numpy() @ A2
    M2 = d.C[d.n - 1].to_numpy() @ A1
    s_A = max(1.0, np.abs(A1).max(), np.abs(A2).max())
    s_M1, s_M2 = (max(1.0, float(np.abs(M).max())) for M in (M1, M2))
    n, c = d.n, d.c
    sign = (-1) ** n
    w = np.array([(nu1, nu2, -nu2 ** n, sign * nu1 ** n)
                  for (nu1, nu2), _ in roots], dtype=complex)
    terms = w[:, :, None, None] * np.array((A1, A2, M1, M2))
    rows = np.empty((len(roots), 2 * c + 1, c), dtype=complex)
    P, N = rows[:, :c], rows[:, c + 1:]
    np.add(terms[:, 0], terms[:, 1], out=P)
    P /= s_A
    rows[:, c] = _unit(d.e.to_numpy())
    np.add(terms[:, 2], terms[:, 3], out=N)
    N /= max(s_M1, s_M2)
    return rows, (M1 / s_M1, M2 / s_M2)


def check_P3_via_chart(d: XnADHM, tol=None) -> bool:
    """Equivalent co-stability test through the covering chart: ``check_T2``
    of the chart reading (B, E, e), decided on its entry arrays, by the
    exact rank on RATIONAL and GF(p) data."""
    b, em, _ = _chart_reading(d, cover_chart(d, tol), tol)
    return _costable(b, em, d.e.entries, d.backend, tol)


# ---------------------------------------------------------------------------
# chart isomorphisms
# ---------------------------------------------------------------------------

def zeta(d: XnADHM, m: int, tol=None) -> ChartData:
    """Chart-m reading (B_m, E_m, e; A2m) of the data, with
    B_m = A2m^-1 A1m: ``_chart_reading``, wrapped."""
    b, em, a2m = _chart_reading(d, m, tol)
    bk = d.backend
    return ChartData(m, linalg._wrap(b, bk), linalg._wrap(em, bk), d.e,
                     linalg._wrap(a2m, bk))


def _chart_reading(d: XnADHM, m: int, tol=None):
    """``zeta`` as read-only entry arrays (b, em, a2m); raises
    ``NotInChart`` when A2m fails the invertibility test.  The reading is
    taken once per configuration and chart and kept in
    ``XnADHM._chart_readings``.  On exact data one
    ``linalg._checked_inverse`` of A2m decides and gives A2m^-1, and a
    singular chart is kept as None.  On float data the test reads the
    configuration's node conditioning (``XnADHM._pencil_conditioning``),
    not another SVD, on every read, at the caller's ``tol``."""
    bk = d.backend
    if not bk.exact:
        _check_chart(d.c, m)
        _, s_min, scale = d._pencil_conditioning
        if not s_min[m] > linalg._tol(tol) * scale[m]:
            raise NotInChart(f"det A2m = 0 in chart {m}")
    readings = d._chart_readings
    if m not in readings:
        a1m, a2m, em, _ = _chart_entries(d, m)
        inv = (linalg._checked_inverse(a2m, bk) if bk.exact
               else linalg._inv(a2m))
        readings[m] = None if inv is None else (
            linalg._matmul(inv, a1m, bk), em, a2m)
        for a in readings[m] or ():
            a.setflags(write=False)
    if readings[m] is None:
        raise NotInChart(f"det A2m = 0 in chart {m}")
    return readings[m]


def zeta_inverse(cd: ChartData, n: int, tol=None, check=True) -> XnADHM:
    """Rebuild the full data from a chart reading.

    With (B, E, e) co-stable and commuting this lands back in the locus where
    all three conditions hold; ``check=False`` skips the co-stability guard
    (used to manufacture violating samples).

    (A1, A2) = A2m (R1, R2) for the rotation (R1, R2) of (B, 1) by -m, and
    C_q = (sum over p of sigma(n-1, m)[q, p] B^p) E A2m^-1, the n blocks
    one stacked product; all on entry arrays, the guard included.  n < 1
    raises ``IndexOutOfRange`` first.

    No product is taken by a unit block.  An A2m whose entries are the
    shared ``linalg._identity`` (as ``from_xn_points`` passes) is its own
    inverse: the exact backends take no elimination, floats still run
    ``_is_invertible``'s test at ``tol``, and the products by A2m and
    A2m^-1 are skipped.  The powers of B start from (1, B), and at chart 0,
    where sigma(n-1, 0) is the identity, the C blocks are the stacked
    powers times E A2m^-1.
    """
    _check_n(n)
    c, bk = cd.c, cd.backend
    b = cd.B.entries
    eye = linalg._identity(c, bk)
    r1, r2 = _rotation(b, eye, -cd.m, c, bk)
    a = cd.A2m.entries
    unit = a is eye
    if not unit:
        a_inv = linalg._checked_inverse(a, bk, tol)
    elif bk.exact or linalg._is_invertible(a, bk, tol):
        a_inv = a
    else:
        a_inv = None
    if a_inv is None:
        raise SingularA2m("A2m block must be invertible")
    if check and not _costable(b, cd.E.entries, cd.e.entries, bk, tol):
        raise NotCostable("chart triple violates co-stability")

    def mul(x, y):
        return linalg._matmul(x, y, bk)

    powers = [eye, b][:n]
    for _ in range(n - 2):
        powers.append(mul(powers[-1], b))
    if cd.m == 0:
        cs = np.array(powers)       # sigma(n-1, 0) is the identity
    else:
        sig = sigma(n - 1, cd.m, c, bk).entries
        if bk.exact:
            # the n sums over p as one product sig @ [B^0; ...; B^(n-1)]:
            # on the rationals one integer matmul, not n Fraction
            # multiply-adds
            flat = np.stack(powers).reshape(n, c * c)
            cs = mul(sig, flat).reshape(n, c, c)
        else:
            # the n sums over p, one (n, c, c) stack, term by term in p;
            # one BLAS product would round the float sums in another order
            cs = linalg._zeros((n, c, c), bk)
            for p, power in enumerate(powers):
                cs = cs + sig[:, p, None, None] * power
    em = cd.E.entries
    cs = mul(cs, em if unit else mul(em, a_inv))
    if not unit:
        r1, r2 = mul(a, r1), mul(a, r2)
    # C as a list: tuple(generator) leaves a block per call in CPython's
    # tuple free lists until a full collection, which raised peak RSS
    return XnADHM(n, c, linalg._wrap(r1, bk), linalg._wrap(r2, bk),
                  [linalg._wrap(cq, bk) for cq in cs], cd.e)


def transition_phi(d: PlaneADHM, n: int, m: int, l: int, tol=None) -> PlaneADHM:
    """Chart-m plane data re-read in chart l.

    Defined on the overlap det(c_{m-l} - s_{m-l} b1) != 0, where it acts as a
    Moebius map on b1, multiplies b2 by the n-th power of the denominator and
    leaves e untouched.
    """
    b1, b2, _ = _one_leg(d, n, m, l, None, tol)
    return PlaneADHM(d.c, linalg._wrap(b1, d.backend),
                     linalg._wrap(b2, d.backend), d.e)


def transition_omega(cd: ChartData, n: int, l: int, tol=None) -> ChartData:
    """Chart transition on full chart data: the plane part moves as in
    ``transition_phi`` and the gauge block picks up the same denominator."""
    b1, b2, a2 = _one_leg(cd.plane(), n, cd.m, l, cd.A2m, tol)
    bk = cd.backend
    return ChartData(l, linalg._wrap(b1, bk), linalg._wrap(b2, bk), cd.e,
                     linalg._wrap(a2, bk))


def _one_leg(d: PlaneADHM, n: int, m: int, l: int, A2m, tol=None):
    """``_transition`` on the one leg m -> l of ``d`` (and ``A2m``): (moved
    b1, moved b2, moved A2m or None) as entry arrays; raises
    ``NotInOverlap`` off the overlap."""
    _check_chart(d.c, m)
    _check_chart(d.c, l)
    a2m = None if A2m is None else A2m.entries[None]
    keep, b1, b2, a2 = _transition(d.b1.entries[None], d.b2.entries[None],
                                   a2m, n, [l - m], d.c, d.backend, tol)
    if not keep[0]:
        raise NotInOverlap(f"charts {m} and {l} do not overlap at this point")
    return b1[0], b2[0], None if a2 is None else a2[0]


@functools.lru_cache(maxsize=1024)
def _leg_constants(backend, c: int, shifts: tuple):
    """(c_k, s_k) of each leg's shift k as two read-only (legs, 1, 1) arrays
    of ``backend``'s dtype, built once per (backend, c, shifts).  Exact data
    at a shift whose constants are irrational raise ``UnsupportedBackend``
    on every call: the cache keeps no call that raised."""
    angles = {k: _backend_angles(backend, c, k) for k in set(shifts)}
    ck, sk = np.array([angles[k] for k in shifts],
                      dtype=backend.dtype).T[:, :, None, None]
    for a in (ck, sk):
        a.setflags(write=False)
    return ck, sk


def _overlap_pivot(b1, ck, sk, backend):
    """The overlap pivot T = s_k b1 + c_k of each leg, from the
    ``_leg_constants`` (ck, sk) and a (legs, c, c) stack or one c x c
    array b1: the denominator of ``_transition``'s Moebius map, whose
    smallest singular value is ``sampling.overlap_margin``."""
    return backend.reduce(sk * b1 + ck * linalg._identity(b1.shape[-1],
                                                          backend))


def _transition(b1, b2, a2m, n: int, shifts, c: int, backend, tol=None,
                floor=0.0):
    """Chart transitions of a stack of legs on (legs, c, c) entry arrays of
    ``backend``: leg i re-reads the plane pair (b1[i], b2[i]) of chart m in
    chart l = m + shifts[i], and with ``a2m`` its gauge block a2m[i].

    The Moebius map's numerator c_k b1 - s_k = s_{m-l} + c_{m-l} b1 and
    denominator T = s_k b1 + c_k = c_{m-l} - s_{m-l} b1, at k = l - m, are
    one broadcast over the kept (legs, 1, 1) arrays of per-leg chart
    constants (``_leg_constants``) and the kept identity.  On floats a
    leg is kept when T passes ``_is_invertible``'s test and its smallest
    singular value is at least ``floor``; one batched SVD gives both.  On
    the exact backends a leg is kept when T is invertible, decided leg by
    leg by the one elimination that gives T^-1 (``_checked_inverse``).  On
    the kept legs b1 -> T^-1 num, b2 -> T^n b2 with T^n multiplied up from
    T, and A2m -> A2m T: one batched product per factor on every backend,
    T^-1 by LAPACK on floats.

    Returns (keep mask, moved b1, moved b2, moved A2m or None) on
    ``backend``, the moved stacks holding the kept legs only.  Exact data
    with a shift whose chart constants are irrational raises
    ``UnsupportedBackend``, and n < 1 raises ``IndexOutOfRange``.
    """
    _check_n(n)
    bk = backend
    ck, sk = _leg_constants(bk, c, tuple(shifts))
    num = bk.reduce(ck * b1 - sk * linalg._identity(c, bk))
    den = _overlap_pivot(b1, ck, sk, bk)
    if bk.exact:
        inv = [linalg._checked_inverse(t, bk) for t in den]
        keep = np.array([x is not None for x in inv], dtype=bool)
    else:
        s_min, scale = linalg._conditioning(den)
        keep = (s_min >= floor) & (s_min > linalg._tol(tol) * scale)
    if not keep.all():
        num, den, b2 = num[keep], den[keep], b2[keep]
        a2m = None if a2m is None else a2m[keep]
    tn = den
    for _ in range(n - 1):
        tn = linalg._matmul(tn, den, bk)
    if bk.exact:
        den_inv = np.array([x for x in inv if x is not None],
                           dtype=object).reshape(den.shape)
    else:
        den_inv = linalg._inv(den)
    moved_b1 = linalg._matmul(den_inv, num, bk)
    moved_b2 = linalg._matmul(tn, b2, bk)
    moved_a2 = None if a2m is None else linalg._matmul(a2m, den, bk)
    return keep, moved_b1, moved_b2, moved_a2


def gl2_action(phi1: Matrix, phi2: Matrix, d: XnADHM, tol=None) -> XnADHM:
    """(A_i, C_j, e) -> (phi2 A_i phi1^-1, phi1 C_j phi2^-1, e phi1^-1)."""
    inv1, inv2 = (linalg._checked_inverse(phi.entries, phi.backend, tol)
                  for phi in (phi1, phi2))
    if inv1 is None or inv2 is None:
        raise SingularGauge("both gauge matrices must be invertible")
    inv1 = linalg._wrap(inv1, phi1.backend)
    inv2 = linalg._wrap(inv2, phi2.backend)
    return XnADHM(d.n, d.c,
                  phi2 @ d.A1 @ inv1,
                  phi2 @ d.A2 @ inv1,
                  [phi1 @ C @ inv2 for C in d.C],
                  d.e @ inv1)


def gl2_action_chart(phi1: Matrix, phi2: Matrix, cd: ChartData, tol=None) -> ChartData:
    """Induced action on a chart reading:
    (B, E, e; A2m) -> (phi1 B phi1^-1, phi1 E phi1^-1, e phi1^-1; phi2 A2m phi1^-1)."""
    bk = cd.backend
    if {phi1.backend, phi2.backend} != {bk}:
        raise BackendMismatch("gauge and chart data on different backends")
    if {(phi1.rows, phi1.cols), (phi2.rows, phi2.cols)} != {(cd.c, cd.c)}:
        raise ShapeMismatch("gauge matrices must be c x c")
    moved = _chart_action(phi1.entries, phi2.entries,
                          _gauge_inverse(phi1, phi2, tol), cd.B.entries,
                          cd.E.entries, cd.e.entries, cd.A2m.entries, bk)
    return ChartData(cd.m, *(linalg._wrap(M, bk) for M in moved))


def _gauge_inverse(phi1: Matrix, phi2: Matrix, tol=None):
    """Entries of phi1^-1, once both gauge matrices pass the invertibility
    test: the part of ``gl2_action_chart`` that does not depend on the
    chart data.  phi2 is tested, not inverted: on exact data by the pivots
    of ``_rref(phi2)`` (``is_invertible``), with no inverse to discard."""
    inv1 = linalg._checked_inverse(phi1.entries, phi1.backend, tol)
    if inv1 is None or not is_invertible(phi2, tol):
        raise SingularGauge("both gauge matrices must be invertible")
    return inv1


def _chart_action(g1, g2, inv1, B, E, e, A2m, backend):
    """``gl2_action_chart`` on entry arrays, with inv1 = g1^-1 given:
    (g1 B inv1, g1 E inv1, e inv1, g2 A2m inv1).  The blocks may be
    (legs, ., c) stacks, each leg moved by one batched product per
    factor."""
    def mm(a, b):
        return linalg._matmul(a, b, backend)
    return (mm(mm(g1, B), inv1), mm(mm(g1, E), inv1), mm(e, inv1),
            mm(mm(g2, A2m), inv1))


# ---------------------------------------------------------------------------
# covering chart, point constructions, spectral witness
# ---------------------------------------------------------------------------

def cover_chart(d: XnADHM, tol=None) -> int:
    """Best-conditioned chart: on floats the chart of the pencil's witness
    (``pencil._float_witness``), the smallest index maximizing
    s_min(A2m) / max(1, max-norm of A2m), the ratio ``is_invertible`` tests;
    over an exact backend, the first invertible chart among those whose
    constants are integers, judged exactly by ``_chart_reading``, which
    keeps the reading of the chart it finds and the verdict of each
    singular chart before it.  Raises ``NoChart`` exactly when
    ``check_P2`` fails, on every backend; exact data whose pencil is regular
    but singular at every integer chart raise ``UnsupportedBackend``, since
    only a cast to COMPLEX reaches the other charts.

    Some chart is always invertible for a regular pencil: the determinant
    form has at most c projective roots and there are c+1 chart ratios.
    """
    if d.backend.exact:
        best = next((m for m in range(d.c + 1) if _integer_chart(d.c, m)
                     and _in_chart(d, m, tol)), None)
        if best is None and check_P2(d, tol):
            raise UnsupportedBackend(
                "no integer-constant chart is invertible; cast to COMPLEX "
                "for the charts with irrational constants")
    else:
        best = _float_witness(d.A1, d.A2, tol, d._pencil_conditioning)[0]
    if best is None:
        raise NoChart("singular pencil: no invertible chart")
    return best


def _in_chart(d: XnADHM, m: int, tol=None) -> bool:
    """Whether chart m reads ``d``, by ``_chart_reading``: a reading taken
    here is kept, and so is an exact chart's failure, so the exact chart
    scan of ``cover_chart`` takes each determinant once per configuration
    and chart."""
    try:
        _chart_reading(d, m, tol)
    except NotInChart:
        return False
    return True


def from_xn_points(n: int, m: int, points, backend=linalg.COMPLEX) -> XnADHM:
    """Configuration of distinct points given in chart-m coordinates.

    Realized as diagonal chart data (B, E) = (diag z, diag w) with unit
    framing and the shared unit gauge block, then rebuilt through the
    chart by ``zeta_inverse``, which multiplies by no unit block.  GF(p)
    data is built over GF(p) itself, from the residues of the points, which
    must be distinct (else ``DuplicatePoint``).  On an exact backend the
    chart must have integer constants, or ``UnsupportedBackend`` is raised.
    """
    if backend.kind == "gf":
        points = [(backend.coerce(z), backend.coerce(w)) for z, w in points]
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
    pairs = [(z, w, V.cols)
             for z, w, V in common_eigenvectors(cd.B, cd.E, tol)]
    if sum(mult for _, _, mult in pairs) != d.c or any(
            mult > 1 for _, _, mult in pairs):
        raise NonSimpleSpectrum(f"joint spectrum not simple: {pairs}")
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
    cm, sm = _backend_angles(d.backend, d.c, m)
    l1 = cm * z + sm
    l2 = sm * z - cm
    mu1 = (-1) ** (d.n - 1) * (sm * z - cm) ** d.n * w
    mu2 = (-1) ** d.n * (cm * z + sm) ** d.n * w
    return v, (l1, l2), (mu1, mu2)
