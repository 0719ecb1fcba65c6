"""Coefficient-level monad calculus in the chart section bases.

A monad datum of size c on the n-th surface is given by the coefficient
matrices of the two structure maps over explicit section bases:

* ``alpha1[q]``, q = 0..n: the k2 x k1 coefficient of y2^q y1^(n-q) s_E, and
  ``alpha1[n+1]``: the s_infinity coefficient;
* ``alpha2``: the pair of k4 x k1 coefficients of (y1, y2);
* ``beta1``: the pair of k3 x k2 coefficients of (y1, y2);
* ``beta2[q]``, q = 0..n and the s_infinity slot, each k3 x k4;
* ``xi``: the framing vector of length k2 + k4, frame carried by the k4-block.

Each coefficient list is stored as one read-only entry stack of the data's
backend (complex128, or an object array on the exact backends), and every
kernel here (``build_jm``, ``reexpand_chart``, ``compose_residual``,
``gauge_action``, ``gauge_normalize``) reads and writes those stacks.  The
tuples of ``Matrix`` blocks above are made from the stacks only when a
caller reads them.  ``reexpand_chart`` mixes the stacks in two passes, one
per binomial chart matrix.  ``gauge_normalize`` closes with the base change
T = beta1[0] on every backend and returns a composite gauge that makes its
blocks from kept factors on first read.

In the rank-one case k1 = k2 = k3 = c and k4 = c + 1.  The composition
beta o alpha expands over the degree-(1,1) basis
{y2^q y1^(n+1-q) s_E} u {y1 s_inf, y2 s_inf}; all products of basis sections
reduce to index shifts, so every identity here is finite multilinear algebra.

Gauge transformations act by alpha -> psi alpha phi^-1, beta -> chi beta
psi^-1 where the middle automorphism psi is block upper-triangular with a
polynomial (degree n-1) off-diagonal block.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    BackendMismatch,
    InvalidInput,
    NotNormalizable,
    ShapeMismatch,
    SingularGauge,
)
from .linalg import (
    Matrix,
    _checked_inverse,
    _diagonal,
    _identity,
    _is_invertible,
    _matmul,
    _wrap,
    _zeros,
    inverse,
    nullspace,
)
from .plane import PlaneADHM
from .xn import _check_chart, _check_n, sigma


def _blocks(i):
    """The tuple field of coefficient stack i: its Matrices, made from the
    stack on first read and cached."""
    def read(self):
        bk = self.backend
        # a tuple built from a list: tuple(generator) holds allocator blocks
        return tuple([_wrap(M, bk) for M in self.stacks[i]])
    return functools.cached_property(read)


@dataclass(frozen=True, init=False)
class MonadCoeffs:
    """A monad datum, stored as ``stacks``: one read-only entry stack per
    coefficient list, alpha1 (n+2, c, c), alpha2 (2, c+1, c), beta1
    (2, c, c) and beta2 (n+2, c, c+1), over the backend of ``xi``.  The
    constructor checks and stacks tuples of Matrices and keeps them as the
    tuple fields; on data built from stacks (``build_jm``,
    ``reexpand_chart``, ``gauge_action``) the tuple fields are made from
    the stacks when first read.  n < 1 raises ``IndexOutOfRange`` before
    any other check."""
    n: int
    c: int
    m: int
    alpha1: tuple      # n+2 matrices, k2 x k1
    alpha2: tuple      # 2 matrices, k4 x k1
    beta1: tuple       # 2 matrices, k3 x k2
    beta2: tuple       # n+2 matrices, k3 x k4
    xi: Matrix         # (k2 + k4) x 1

    def __init__(self, n, c, m, alpha1, alpha2, beta1, beta2, xi):
        _check_n(n)
        lists = [tuple(blocks) for blocks in (alpha1, alpha2, beta1, beta2)]
        alpha1, alpha2, beta1, beta2 = lists
        k4 = c + 1
        _check_chart(c, m)
        if len(alpha1) != n + 2 or len(beta2) != n + 2:
            raise ShapeMismatch("alpha1/beta2 need n+2 coefficient slots")
        if len(alpha2) != 2 or len(beta1) != 2:
            raise ShapeMismatch("alpha2/beta1 are coefficient pairs")
        for name, blocks, shape, dims in (
                ("alpha1", alpha1, (c, c), "k2 x k1"),
                ("alpha2", alpha2, (k4, c), "k4 x k1"),
                ("beta1", beta1, (c, c), "k3 x k2"),
                ("beta2", beta2, (c, k4), "k3 x k4")):
            if any((M.rows, M.cols) != shape for M in blocks):
                raise ShapeMismatch(f"{name} blocks must be {dims}")
        if (xi.rows, xi.cols) != (c + k4, 1):
            raise ShapeMismatch("xi must have length k2 + k4")
        if any(M.backend != xi.backend
               for M in (*alpha1, *alpha2, *beta1, *beta2)):
            raise ShapeMismatch("blocks on different backends")
        _set_fields(self, n, c, m, [np.stack([M.entries for M in blocks])
                               for blocks in lists], xi)
        for name, blocks in zip(_FIELDS, lists):
            self.__dict__[name] = blocks

    alpha1 = _blocks(0)
    alpha2 = _blocks(1)
    beta1 = _blocks(2)
    beta2 = _blocks(3)

    @property
    def backend(self):
        return self.xi.backend


_FIELDS = ("alpha1", "alpha2", "beta1", "beta2")


def _set_fields(mc, n, c, m, stacks, xi):
    """Set the fields of ``mc`` past the frozen ``__setattr__``, freezing
    the four stacks."""
    for S in stacks:
        S.setflags(write=False)
    for name, value in (("n", n), ("c", c), ("m", m),
                        ("stacks", tuple(stacks)), ("xi", xi)):
        object.__setattr__(mc, name, value)


def _of_stacks(n, c, m, stacks, xi) -> MonadCoeffs:
    """A MonadCoeffs over four entry stacks already of the right shapes and
    of ``xi``'s backend, without the constructor's checks."""
    mc = object.__new__(MonadCoeffs)
    _set_fields(mc, n, c, m, stacks, xi)
    return mc


@dataclass(frozen=True, init=False)
class GaugeElement:
    """(phi, psi, chi) with psi = [[psi11, psi12(y)], [0, psi22]].

    ``psi12`` lists the n coefficient matrices of the polynomial block over
    y2^q y1^(n-1-q) s_E, q = 0..n-1.  The constructor keeps the five blocks
    as given.  The composite gauge that ``gauge_normalize`` returns holds
    chi and the factors of the other four blocks, and makes phi = T a1n,
    psi11 = T, psi12 = T Ps and psi22 = diag(T, 1) psi22_4 psi22_3, with
    psi22_4 = diag(1, ..., 1, 1/omega), on first read, then keeps them
    (``_composite``).
    """
    phi: Matrix
    psi11: Matrix
    psi12: tuple
    psi22: Matrix
    chi: Matrix

    def __init__(self, phi, psi11, psi12, psi22, chi):
        self.__dict__.update(phi=phi, psi11=psi11, psi12=tuple(psi12),
                             psi22=psi22, chi=chi)

    # the blocks of a composite, from its factors (T, a1n, Ps, 1/omega,
    # psi22_3, backend)
    @functools.cached_property
    def phi(self):
        T, a1n, *_, bk = self._factors
        return _wrap(_matmul(T, a1n, bk), bk)

    @functools.cached_property
    def psi11(self):
        T, *_, bk = self._factors
        return _wrap(T, bk)

    @functools.cached_property
    def psi12(self):
        T, _, Ps, *_, bk = self._factors
        return tuple([_wrap(P, bk) for P in _matmul(T, Ps, bk)])

    @functools.cached_property
    def psi22(self):
        T, _, _, w, psi22_3, bk = self._factors
        return _wrap(_matmul(_diag_T(T, bk), _matmul(
            _psi22_4(w, len(T), bk), psi22_3, bk), bk), bk)

    @classmethod
    def identity(cls, n: int, c: int, backend=linalg.COMPLEX) -> "GaugeElement":
        return cls(phi=Matrix.identity(c, backend),
                   psi11=Matrix.identity(c, backend),
                   psi12=[Matrix.zeros(c, c + 1, backend) for _ in range(n)],
                   psi22=Matrix.identity(c + 1, backend),
                   chi=Matrix.identity(c, backend))

    def compose(self, other: "GaugeElement") -> "GaugeElement":
        """self after other: acting with the result equals acting with
        ``other`` first and ``self`` second.  Public API: the group law of
        the gauge group, for building composite gauge transformations;
        gauges with different numbers of psi12 blocks do not compose."""
        if len(self.psi12) != len(other.psi12):
            raise ShapeMismatch("psi12 block counts differ")
        psi12 = [self.psi11 @ q2 + q1 @ other.psi22
                 for q1, q2 in zip(self.psi12, other.psi12)]
        return GaugeElement(phi=self.phi @ other.phi,
                            psi11=self.psi11 @ other.psi11,
                            psi12=psi12,
                            psi22=self.psi22 @ other.psi22,
                            chi=self.chi @ other.chi)

    def inverse(self) -> "GaugeElement":
        phi = inverse(self.phi)
        psi11 = inverse(self.psi11)
        psi22 = inverse(self.psi22)
        psi12 = [-(psi11 @ q @ psi22) for q in self.psi12]
        return GaugeElement(phi=phi, psi11=psi11, psi12=psi12,
                            psi22=psi22, chi=inverse(self.chi))


def _composite(chi, factors) -> GaugeElement:
    """The gauge with the entry array chi as its chi block and the other
    four blocks made from ``factors`` on first read."""
    g = object.__new__(GaugeElement)
    g.__dict__.update(chi=_wrap(chi, factors[-1]), _factors=factors)
    return g


def _diag_T(T, bk):
    """The entry array diag(T, 1)."""
    c = len(T)
    arr = _diagonal([bk.one] * (c + 1), bk)
    arr[:c, :c] = T
    return arr


def _psi22_4(w, c, bk):
    """The entry array diag(1, ..., 1, w) of size c + 1."""
    return _diagonal([bk.one] * c + [w], bk)


def embed_gl_gauge(phi0: Matrix, n: int) -> GaugeElement:
    """The base-change subgroup inside the gauge group: conjugating the plane
    triple by phi0 corresponds to the gauge element with components
    (t(phi0)^-1, diag(t(phi0)^-1, t(phi0)^-1, 1), t(phi0)^-1).  Public API:
    it carries monad coefficients along a base change of the plane data."""
    c = phi0.rows
    bk = phi0.backend
    tinv = inverse(phi0.transpose())
    return GaugeElement(phi=tinv, psi11=tinv,
                        psi12=[Matrix.zeros(c, c + 1, bk) for _ in range(n)],
                        psi22=_wrap(_diag_T(tinv.entries, bk), bk), chi=tinv)


# ---------------------------------------------------------------------------
# composition residual and framing constraint
# ---------------------------------------------------------------------------

def compose_residual(mc: MonadCoeffs):
    """Coefficients of beta o alpha over the degree-(1,1) section basis.

    Returns n+4 matrices: the s_E slots q = 0..n+1 followed by the y1 s_inf
    and y2 s_inf slots.  All zero exactly when the two maps compose to zero.
    """
    bk = mc.backend
    return [_wrap(R, bk) for R in _compose_stack(*mc.stacks, bk)]


def _compose_stack(a1, a2, b1, b2, bk):
    """``compose_residual`` on the coefficient stacks of a MonadCoeffs, as
    one (n+4, k3, k1) entry array.

    s_E slot q is b1[0] a1[q] + b1[1] a1[q-1] + b2[q] a2[0] + b2[q-1] a2[1],
    summed in that order, a term whose slot lies outside 0..n left out; the
    four terms come from one batched product each, and the two s_inf slots
    b1[i] a1[n+1] + b2[n+1] a2[i] from two more.
    """
    n = len(a1) - 2
    red = bk.reduce
    mul = functools.partial(_matmul, backend=bk)
    p1 = mul(b1[1], a1[:n + 1])
    s = np.concatenate((mul(b1[0], a1[:n + 1]), p1[n:]))
    s[1:n + 1] = red(s[1:n + 1] + p1[:n])
    s[:n + 1] = red(s[:n + 1] + mul(b2[:n + 1], a2[0]))
    s[1:] = red(s[1:] + mul(b2[:n + 1], a2[1]))
    s_inf = red(mul(b1, a1[n + 1]) + mul(b2[n + 1], a2))
    return np.concatenate((s, s_inf))


def framing_residual(mc: MonadCoeffs):
    """Slots of beta restricted to the infinity section applied to xi.

    The restriction kills the s_inf coefficients, leaving the pair of beta1
    slots acting on the k2-block and the s_E slots of beta2 acting on the
    k4-block.
    """
    _, _, b1, b2 = mc.stacks
    bk = mc.backend
    xi = mc.xi.entries
    xi1, xi2 = xi[:mc.c], xi[mc.c:]
    return ([_wrap(_matmul(B, xi1, bk), bk) for B in b1]
            + [_wrap(_matmul(B, xi2, bk), bk) for B in b2[:mc.n + 1]])


def max_residual(mats) -> float:
    return max((M.maxnorm() for M in mats), default=0.0)


# ---------------------------------------------------------------------------
# the closed immersion of plane ADHM data
# ---------------------------------------------------------------------------

def build_jm(d: PlaneADHM, n: int, m: int) -> MonadCoeffs:
    """Monad coefficients of the standard embedding of a plane triple in
    chart m: alpha = (y2^n s_E + t(b2) s_inf ; y1 + t(b1) y2 ; 0),
    beta = (y1 + t(b1) y2, -(y2^n s_E + t(b2) s_inf), t(e) s_inf),
    xi = (0, ..., 0, 1), written straight into the coefficient stacks.
    n < 1 raises ``IndexOutOfRange`` first."""
    _check_n(n)
    c, bk = d.c, d.backend
    _check_chart(c, m)
    ident = _identity(c, bk)
    tb1, tb2 = d.b1.entries.T, d.b2.entries.T
    a1 = _zeros((n + 2, c, c), bk)
    a1[n], a1[n + 1] = ident, tb2
    a2 = _zeros((2, c + 1, c), bk)
    a2[0, :c], a2[1, :c] = ident, tb1
    b2 = _zeros((n + 2, c, c + 1), bk)
    b2[n, :, :c] = bk.reduce(-ident)
    b2[n + 1, :, :c] = bk.reduce(-tb2)
    b2[n + 1, :, c:] = d.e.entries.T
    xi = _zeros((2 * c + 1, 1), bk)
    xi[2 * c, 0] = bk.one
    return _of_stacks(n, c, m, [a1, a2, np.array((ident, tb1)), b2],
                      _wrap(xi, bk))


# ---------------------------------------------------------------------------
# chart re-expansion
# ---------------------------------------------------------------------------

#: the start of every float sum: x + (-0 - 0j) is x, signed zeros included
_NEG_ZERO = complex(-0.0, -0.0)


def _sigma_mix(coeffs, shift: int, c_count: int, backend):
    """Re-express a stack of h+1 coefficient arrays over the degree-h
    monomial basis of one chart in the basis of another, as one stack:
    G_q = sum_p sigma^h_{shift; p q} F_p.  Every term comes from one
    broadcast product, and the terms are added in the order p = 0..h onto
    -0 - 0j on floats (``np.sum`` starts from +0, which turns a sum of -0
    terms into +0) and onto the backend zero on exact data."""
    sig = sigma(len(coeffs) - 1, shift, c_count, backend).entries
    start = backend.zero if backend.exact else _NEG_ZERO
    return backend.reduce(np.add.reduce(
        sig[:, :, None, None] * coeffs[:, None], axis=0, initial=start))


def reexpand_chart(mc: MonadCoeffs, l: int) -> MonadCoeffs:
    """Rewrite all coefficient stacks in the chart-l monomial bases.

    The s_inf coefficients and the framing vector are chart-independent.
    """
    if l == mc.m:
        return mc
    n = mc.n
    _check_chart(mc.c, l)
    c = mc.c
    mix = functools.partial(_sigma_mix, shift=l - mc.m, c_count=c,
                            backend=mc.backend)
    a1, a2, b1, b2 = mc.stacks
    # one pass per sigma: the s_E slots of alpha1 and beta2 (sigma(n)) side
    # by side on the column axis, alpha2 and beta1 (sigma(1)) on the row
    # axis; each entry is the sum it would be in a pass of its own
    s_e = mix(np.concatenate((a1[:n + 1], b2[:n + 1]), axis=2))
    y = mix(np.concatenate((a2, b1), axis=1))
    return _of_stacks(n, c, l, [
        np.concatenate((s_e[:, :, :c], a1[n + 1:])), y[:, :c + 1],
        y[:, c + 1:], np.concatenate((s_e[:, :, c:], b2[n + 1:]))], mc.xi)


# ---------------------------------------------------------------------------
# gauge action
# ---------------------------------------------------------------------------

def _check_gauge_block(a, backend, name: str, tol):
    if not _is_invertible(a, backend, tol, rel=True):
        raise SingularGauge(f"gauge block {name} is singular")


#: machine epsilon of the float backend
_EPS = float(np.finfo(float).eps)


def _check_gauge_block_from(lo, hi, k, make, backend, name: str, t: float):
    """``_check_gauge_block`` of a float k x k block at the float tolerance
    t (``linalg._tol`` of the caller's tol) from its smallest and largest
    singular values lo and hi as read off another matrix (chi = b10^-1 and
    diag(T, 1) off T = b10, diag(1, ..., 1, 1/omega) off 1/omega).  The
    two routes round apart by O(k eps hi) in lo - t hi, so within
    1e3 k eps hi of the tie the block, made there by ``make()`` and
    nowhere else, is decided by its own SVD, as in
    ``_check_gauge_block``."""
    gap = lo - t * hi
    if not abs(gap) > 1e3 * k * _EPS * hi:
        _check_gauge_block(make(), backend, name, t)
    elif gap < 0:
        raise SingularGauge(f"gauge block {name} is singular")


def gauge_action(g: GaugeElement, mc: MonadCoeffs, tol=None) -> MonadCoeffs:
    """alpha -> psi alpha phi^-1 and beta -> chi beta psi^-1, expanded over
    the section bases, on the coefficient stacks.

    The polynomial block psi12 of psi feeds alpha2-data into the alpha1 s_E
    slots; the polynomial block -psi11^-1 psi12 psi22^-1 of psi^-1 feeds
    beta1-data into the beta2 s_E slots.  In both, the y2 coefficient moves
    one slot up, from multiplying by (y1, y2): padded with a zero block at
    each end into the stack P, psi12 reaches s_E slot q as P[q+1] and P[q].
    A gauge that does not fit mc raises ``ShapeMismatch`` (psi12 without n
    blocks, or a block of the wrong shape) or ``BackendMismatch``.
    """
    n, c, bk = mc.n, mc.c, mc.backend
    blocks = (g.phi, g.psi11, g.psi22, g.chi, *g.psi12)
    shapes = [(c, c), (c, c), (c + 1, c + 1), (c, c)] + [(c, c + 1)] * n
    if len(blocks) != len(shapes) or any(
            (M.rows, M.cols) != shape for M, shape in zip(blocks, shapes)):
        raise ShapeMismatch(f"gauge does not fit a monad of n={n}, c={c}")
    if any(M.backend != bk for M in blocks):
        raise BackendMismatch("gauge and monad on different backends")
    phi, psi11, psi22, chi, *psi12 = [M.entries for M in blocks]
    invs = [_checked_inverse(a, bk, tol, rel=True)
            for a in (phi, psi11, psi22)]
    for inv, name in zip(invs, ("phi", "psi11", "psi22")):
        if inv is None:
            raise SingularGauge(f"gauge block {name} is singular")
    _check_gauge_block(chi, bk, "chi", tol)
    phi_inv, psi11_inv, psi22_inv = invs
    P = _zeros((n + 2, c, c + 1), bk)
    P[1:n + 1] = psi12
    red = bk.reduce
    mul = functools.partial(_matmul, backend=bk)
    a1, a2, b1, b2 = mc.stacks
    s = mul(psi11, a1)
    s[:n + 1] = red(s[:n + 1] + mul(P[1:], a2[0]) + mul(P[:n + 1], a2[1]))
    Q = red(-mul(mul(psi11_inv, P), psi22_inv))
    t = mul(b2, psi22_inv)
    t[:n + 1] = red(t[:n + 1] + mul(b1[0], Q[1:]) + mul(b1[1], Q[:n + 1]))
    x = mc.xi.entries
    xi = np.concatenate((mul(psi11, x[:c]), mul(psi22, x[c:])))
    return _of_stacks(n, c, mc.m, [
        mul(s, phi_inv), mul(mul(psi22, a2), phi_inv),
        mul(mul(chi, b1), psi11_inv), mul(chi, t)], _wrap(xi, bk))


# ---------------------------------------------------------------------------
# gauge normalization
# ---------------------------------------------------------------------------

def _size(a, exact) -> float:
    """Max-norm of an entry array on floats; on an exact backend whether an
    entry is nonzero, 1.0 or 0.0, so that a test at tolerance 0 is literal."""
    if exact:
        return float(any(a.flat))
    return float(np.abs(a).max(initial=0.0))


def _require(cond, step, detail):
    if not cond:
        raise NotNormalizable(f"step {step}: {detail}")


def _left_null_row(a20, bk, tol):
    """The unique (up to scale) row annihilating a full-rank k4 x k1 entry
    array, normalized so its largest entry is 1, as a 1 x k4 array.

    Full rank is decided on the relative singular-value profile, which is
    immune to the large overall scale the earlier gauge steps can introduce.
    """
    if bk.exact:
        left_null = nullspace(_wrap(a20.T, bk))
        _require(left_null.cols == 1, 3,
                 "alpha2 y1-coefficient is not of full rank")
        r = left_null.entries.T
        pivot = max(range(r.shape[1]), key=lambda j: abs(complex(r[0, j])))
        return bk.reduce(bk.inv(r[0, pivot]) * r)
    u, s, _ = linalg._svd(a20)
    _require(s[-1] > linalg._tol(tol) * s[0], 3,
             "alpha2 y1-coefficient is not of full rank")
    vec = u[:, -1].conj()
    vec = vec / vec[np.argmax(np.abs(vec))]
    return vec.reshape(1, -1)


def gauge_normalize(mc: MonadCoeffs, l: int, tol=None):
    """Move a monad point into the normal form of chart l.

    Re-expands in chart-l coordinates and finds the gauges of the four-step
    normalization (beta1 y1-slot to the identity with the low beta2 slots
    zeroed; alpha1 top slot to the identity; pivot form of alpha2/beta2;
    framing vector to (0,..,0,1)) and the base-change gauge that makes the
    composite's chi = 1.  No intermediate point is built: each pivot comes
    from the re-expanded point and the earlier steps' blocks, and the plane
    triple from the three slots that the composite moves without polynomial
    terms.  Returns that triple and the composite, the unique gauge with
    chi = 1.  Each block a step introduces passes the relative test of
    ``gauge_action``: on floats the one SVD of beta1's y1-slot b10 that
    step 1's absolute test reads is that of phi = T = b10 and also decides
    chi = b10^-1 and diag(T, 1), and psi22_4 = diag(1, ..., 1, 1/omega) is
    decided in closed form; within roundoff of a tie, where two SVD routes
    could round apart, the block is made and its own SVD decides.  The
    composite is not tested as one gauge, as its condition number can
    exceed every factor's.

    With T = b10 and T^-1 = b10^-1 on every backend, the step gauges'
    blocks (b10^-1, the step-1 slots Q_q, the step-2 pivot a1n, psi22_3
    and psi22_4) give the composite in closed form: phi = T a1n,
    psi11 = T, psi12_q = -T Q_q, psi22 = diag(T, 1) psi22_4 psi22_3 and
    chi = T b10^-1.  Only chi is computed here: the composite keeps
    (T, a1n, the P_q = -Q_q, 1/omega, psi22_3) and makes phi, psi11, psi12
    and psi22 on first read, every block test having passed before it is
    returned.  So a normalization inverts three pivots (b10, a1n,
    psi22_3): by four SVDs (those three and the left null row's) and three
    LAPACK inverses on floats, by four eliminations on exact backends.  All
    of it runs on entry arrays.  Exact backends test beta o alpha = 0 and
    the framing support literally; floats test them against ``tol``.

    Raises NotNormalizable at the first singular pivot; for re-expanded
    images of ``build_jm`` this happens exactly on the locus
    det(c_{m-l} - s_{m-l} b1) = 0.
    """
    bk = mc.backend
    exact = bk.exact
    t = 0.0 if exact else linalg._tol(tol)
    # floats: the residual against the squared size of the data, read in
    # one max-norm pass over the four stacks
    scale = 1.0 if exact else max(1.0, _size(np.concatenate(
        [S.ravel() for S in mc.stacks]), exact)) ** 2
    if _size(_compose_stack(*mc.stacks, bk), exact) > scale * 1e3 * t:
        raise InvalidInput("not a monad point: beta o alpha != 0")
    mc0 = reexpand_chart(mc, l)
    n, c = mc0.n, mc0.c
    red = bk.reduce
    mul = functools.partial(_matmul, backend=bk)
    a1, a2, b1, b2 = mc0.stacks

    # step 1: beta1 y1-slot -> 1, beta2 slots 0..n-1 -> 0.  The base change
    # that closes the loop is T = b10 on every backend.  On floats the SVD
    # of b10 that the absolute test reads (``_is_invertible``) is T's own,
    # so it decides phi = T, and it decides the block tests of
    # chi = b10^-1 (kappa(b10^-1) = kappa(b10)) and of psi22 = diag(T, 1),
    # whose singular values are those of T and 1, each in its old place.
    # On exact backends step 1 makes all three invertible, and the one
    # elimination that inverts b10 decides.
    T = b1[0]
    if exact:
        b10_inv = _checked_inverse(T, bk)
    else:
        s_b = linalg._svdvals(T)
        ok = s_b[-1] > t * max(1.0, _size(T, exact))
        b10_inv = linalg._inv(T) if ok else None
    _require(b10_inv is not None, 1, "beta1 y1-coefficient is singular")
    if not exact:
        _check_gauge_block_from(s_b[-1], s_b[0], c, lambda: b10_inv, bk,
                                "chi", t)
    # P_q = -Q_q = b10^-1 (beta2[q] - beta1[1] P_(q-1)) from
    # P_0 = b10^-1 beta2[0]; the slot P_n is step 3's top block
    Ps = np.empty((n + 1, c, c + 1), dtype=bk.dtype)
    Ps[0] = mul(b10_inv, b2[0])
    for q in range(1, n + 1):
        Ps[q] = mul(b10_inv, red(b2[q] - mul(b1[1], Ps[q - 1])))

    # step 2: alpha1 top s_E slot -> 1; after step 1 it is
    # alpha1[n] - Q_(n-1) alpha2[1] = alpha1[n] + P_(n-1) alpha2[1]
    a1n = red(a1[n] + mul(Ps[n - 1], a2[1]))
    a1n_inv = _checked_inverse(a1n, bk, t, rel=True)
    _require(a1n_inv is not None, 2, "top alpha1 coefficient is singular")

    # step 3: alpha2 y1-slot -> (1; 0), beta2 top slot -> (-1, 0); after
    # step 2 the first is alpha2[0] a1n^-1, after step 1 the second is
    # b10^-1 (beta2[n] + beta1[1] Q_(n-1)) = P_n
    r = _left_null_row(mul(a2[0], a1n_inv), bk, t)
    psi22_3 = np.concatenate((red(-Ps[n]), r))
    # (the pivot tests of steps 2 and 3 are the gauge block tests)
    psi22_3_inv = _checked_inverse(psi22_3, bk, t, rel=True)
    _require(psi22_3_inv is not None, 3, "pivot block is singular")

    # step 4: framing vector -> (0, ..., 0, 1) by psi22_4 =
    # diag(1, ..., 1, 1/omega); only step 3 moved it
    xi = mc0.xi.entries
    xi1, xi2 = xi[:c], mul(psi22_3, xi[c:])
    omega = xi2.item(c, 0)
    off = max(_size(xi1, exact), _size(xi2[:c], exact))
    frame = _size(xi2[c:], exact)
    scale = max(off, frame)
    _require(scale > 0, 4, "framing vector vanishes")
    _require(frame > t * scale, 4, "frame slot vanishes")
    _require(off <= 1e3 * t * scale, 4,
             "framing vector is not supported on the frame slot")
    w = bk.inv(omega)

    if not exact:
        # psi22_4 has singular values 1 and |1/omega| (step 4 made omega
        # nonzero, so on exact backends it is invertible, as are phi and
        # diag(T, 1)); phi = T reads its own SVD, taken in step 1
        lo, hi = sorted((abs(w), 1.0))
        _check_gauge_block_from(lo, hi, c + 1, lambda: _psi22_4(w, c, bk),
                                bk, "psi22", t)
        if not s_b[-1] > t * s_b[0]:
            raise SingularGauge("gauge block phi is singular")
        _check_gauge_block_from(min(s_b[-1], 1.0), max(s_b[0], 1.0), c + 1,
                                lambda: _diag_T(T, bk), bk, "psi22", t)
    chi = mul(T, b10_inv)
    g_total = _composite(chi, (T, a1n, Ps[:n], w, psi22_3, bk))

    # chi beta1[1] psi11^-1, psi11 alpha1[n+1] phi^-1, chi beta2[n+1]
    # psi22^-1, inverting factor by factor as acting step by step would:
    # psi11^-1 = b10^-1, phi = T a1n, psi22^-1 e_c = omega psi22_3^-1 e_c
    b1_out = mul(mul(chi, b1[1]), b10_inv)
    b2_out = mul(mul(mul(T, a1[n + 1]), a1n_inv), b10_inv)
    e = red(omega * mul(mul(chi, b2[n + 1]), psi22_3_inv)[:, c:])
    return PlaneADHM(c, _wrap(b1_out.T, bk), _wrap(b2_out.T, bk),
                     _wrap(e.T, bk)), g_total
