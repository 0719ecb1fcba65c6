"""Coefficient-level monad calculus in the chart section bases.

A monad datum of size c on the n-th surface is stored as the coefficient
matrices of the two structure maps over explicit section bases:

* ``alpha1[q]``, q = 0..n: the k2 x k1 coefficient of y2^q y1^(n-q) s_E, and
  ``alpha1[n+1]``: the s_infinity coefficient;
* ``alpha2``: the pair of k4 x k1 coefficients of (y1, y2);
* ``beta1``: the pair of k3 x k2 coefficients of (y1, y2);
* ``beta2[q]``, q = 0..n and the s_infinity slot, each k3 x k4;
* ``xi``: the framing vector of length k2 + k4, frame carried by the k4-block.

In the rank-one case k1 = k2 = k3 = c and k4 = c + 1.  The composition
beta o alpha expands over the degree-(1,1) basis
{y2^q y1^(n+1-q) s_E} u {y1 s_inf, y2 s_inf}; all products of basis sections
reduce to index shifts, so every identity here is finite multilinear algebra.

Gauge transformations act by alpha -> psi alpha phi^-1, beta -> chi beta
psi^-1 where the middle automorphism psi is block upper-triangular with a
polynomial (degree n-1) off-diagonal block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InvalidInput, NotNormalizable, ShapeMismatch, SingularGauge
from .linalg import (
    Matrix,
    hstack,
    inverse,
    is_invertible,
    is_invertible_rel,
    nullspace,
    vstack,
)
from .plane import PlaneADHM
from .xn import sigma


@dataclass(frozen=True)
class MonadCoeffs:
    n: int
    c: int
    m: int
    alpha1: tuple      # n+2 matrices, k2 x k1
    alpha2: tuple      # 2 matrices, k4 x k1
    beta1: tuple       # 2 matrices, k3 x k2
    beta2: tuple       # n+2 matrices, k3 x k4
    xi: Matrix         # (k2 + k4) x 1

    def __post_init__(self):
        object.__setattr__(self, "alpha1", tuple(self.alpha1))
        object.__setattr__(self, "alpha2", tuple(self.alpha2))
        object.__setattr__(self, "beta1", tuple(self.beta1))
        object.__setattr__(self, "beta2", tuple(self.beta2))
        c = self.c
        k4 = c + 1
        if len(self.alpha1) != self.n + 2 or len(self.beta2) != self.n + 2:
            raise ShapeMismatch("alpha1/beta2 need n+2 coefficient slots")
        if len(self.alpha2) != 2 or len(self.beta1) != 2:
            raise ShapeMismatch("alpha2/beta1 are coefficient pairs")
        for M in self.alpha1:
            if (M.rows, M.cols) != (c, c):
                raise ShapeMismatch("alpha1 blocks must be k2 x k1")
        for M in self.alpha2:
            if (M.rows, M.cols) != (k4, c):
                raise ShapeMismatch("alpha2 blocks must be k4 x k1")
        for M in self.beta1:
            if (M.rows, M.cols) != (c, c):
                raise ShapeMismatch("beta1 blocks must be k3 x k2")
        for M in self.beta2:
            if (M.rows, M.cols) != (c, k4):
                raise ShapeMismatch("beta2 blocks must be k3 x k4")
        if (self.xi.rows, self.xi.cols) != (c + k4, 1):
            raise ShapeMismatch("xi must have length k2 + k4")

    @property
    def backend(self):
        return self.alpha1[0].backend

    def xi_blocks(self):
        c = self.c
        xi1 = self.xi.submatrix(range(c), [0])
        xi2 = self.xi.submatrix(range(c, 2 * c + 1), [0])
        return xi1, xi2


@dataclass(frozen=True)
class GaugeElement:
    """(phi, psi, chi) with psi = [[psi11, psi12(y)], [0, psi22]].

    ``psi12`` lists the n coefficient matrices of the polynomial block over
    y2^q y1^(n-1-q) s_E, q = 0..n-1.
    """
    phi: Matrix
    psi11: Matrix
    psi12: tuple
    psi22: Matrix
    chi: Matrix

    def __post_init__(self):
        object.__setattr__(self, "psi12", tuple(self.psi12))

    @classmethod
    def identity(cls, n: int, c: int, backend=linalg.COMPLEX) -> "GaugeElement":
        return cls(phi=Matrix.identity(c, backend),
                   psi11=Matrix.identity(c, backend),
                   psi12=tuple(Matrix.zeros(c, c + 1, backend) for _ in range(n)),
                   psi22=Matrix.identity(c + 1, backend),
                   chi=Matrix.identity(c, backend))

    def compose(self, other: "GaugeElement") -> "GaugeElement":
        """self after other: acting with the result equals acting with
        ``other`` first and ``self`` second."""
        psi12 = tuple(self.psi11 @ q2 + q1 @ other.psi22
                      for q1, q2 in zip(self.psi12, other.psi12))
        return GaugeElement(phi=self.phi @ other.phi,
                            psi11=self.psi11 @ other.psi11,
                            psi12=psi12,
                            psi22=self.psi22 @ other.psi22,
                            chi=self.chi @ other.chi)

    def inverse(self) -> "GaugeElement":
        phi = inverse(self.phi)
        psi11 = inverse(self.psi11)
        psi22 = inverse(self.psi22)
        psi12 = tuple((-(psi11 @ q @ psi22)) for q in self.psi12)
        return GaugeElement(phi=phi, psi11=psi11, psi12=psi12,
                            psi22=psi22, chi=inverse(self.chi))


def embed_gl_gauge(phi0: Matrix, n: int) -> GaugeElement:
    """The base-change subgroup inside the gauge group: conjugating the plane
    triple by phi0 corresponds to the gauge element with components
    (t(phi0)^-1, diag(t(phi0)^-1, t(phi0)^-1, 1), t(phi0)^-1)."""
    c = phi0.rows
    bk = phi0.backend
    tinv = inverse(phi0.transpose())
    psi22_rows = []
    for i in range(c):
        psi22_rows.append([tinv.at(i, j) for j in range(c)] + [bk.zero])
    psi22_rows.append([bk.zero] * c + [bk.one])
    return GaugeElement(phi=tinv, psi11=tinv,
                        psi12=tuple(Matrix.zeros(c, c + 1, bk) for _ in range(n)),
                        psi22=Matrix.from_rows(psi22_rows, bk), chi=tinv)


# ---------------------------------------------------------------------------
# composition residual and framing constraint
# ---------------------------------------------------------------------------

def compose_residual(mc: MonadCoeffs):
    """Coefficients of beta o alpha over the degree-(1,1) section basis.

    Returns n+4 matrices: the s_E slots q = 0..n+1 followed by the y1 s_inf
    and y2 s_inf slots.  All zero exactly when the two maps compose to zero.
    """
    n, c = mc.n, mc.c
    bk = mc.backend
    Z12 = Matrix.zeros(c, c, bk)

    def a1(q):
        return mc.alpha1[q] if 0 <= q <= n else Z12

    Z34 = Matrix.zeros(c, c + 1, bk)

    def b2(q):
        return mc.beta2[q] if 0 <= q <= n else Z34

    out = []
    for q in range(n + 2):
        out.append(mc.beta1[0] @ a1(q) + mc.beta1[1] @ a1(q - 1)
                   + b2(q) @ mc.alpha2[0] + b2(q - 1) @ mc.alpha2[1])
    out.append(mc.beta1[0] @ mc.alpha1[n + 1] + mc.beta2[n + 1] @ mc.alpha2[0])
    out.append(mc.beta1[1] @ mc.alpha1[n + 1] + mc.beta2[n + 1] @ mc.alpha2[1])
    return out


def framing_residual(mc: MonadCoeffs):
    """Slots of beta restricted to the infinity section applied to xi.

    The restriction kills the s_inf coefficients, leaving the pair of beta1
    slots acting on the k2-block and the s_E slots of beta2 acting on the
    k4-block.
    """
    xi1, xi2 = mc.xi_blocks()
    out = [mc.beta1[0] @ xi1, mc.beta1[1] @ xi1]
    out.extend(mc.beta2[q] @ xi2 for q in range(mc.n + 1))
    return out


def max_residual(mats) -> float:
    return max((M.maxnorm() for M in mats), default=0.0)


# ---------------------------------------------------------------------------
# the closed immersion of plane ADHM data
# ---------------------------------------------------------------------------

def build_jm(d: PlaneADHM, n: int, m: int) -> MonadCoeffs:
    """Monad coefficients of the standard embedding of a plane triple in
    chart m: alpha = (y2^n s_E + t(b2) s_inf ; y1 + t(b1) y2 ; 0),
    beta = (y1 + t(b1) y2, -(y2^n s_E + t(b2) s_inf), t(e) s_inf),
    xi = (0, ..., 0, 1)."""
    c = d.c
    bk = d.backend
    ident = Matrix.identity(c, bk)
    Z = Matrix.zeros(c, c, bk)
    zero_row = Matrix.zeros(1, c, bk)
    tb1 = d.b1.transpose()
    tb2 = d.b2.transpose()
    te = d.e.transpose()          # c x 1

    alpha1 = [Z] * n + [ident, tb2]
    alpha2 = (vstack(ident, zero_row), vstack(tb1, zero_row))
    beta1 = (ident, tb1)
    beta2 = [Matrix.zeros(c, c + 1, bk) for _ in range(n)]
    beta2.append(hstack(-ident, Matrix.zeros(c, 1, bk)))
    beta2.append(hstack(-tb2, te))
    xi = Matrix.col_vector([bk.zero] * (2 * c) + [bk.one], bk)
    return MonadCoeffs(n, c, m, tuple(alpha1), alpha2, beta1, tuple(beta2), xi)


# ---------------------------------------------------------------------------
# chart re-expansion
# ---------------------------------------------------------------------------

def _sigma_mix(coeffs, h: int, shift: int, c_count: int, backend):
    """Re-express a coefficient list over the degree-h monomial basis of one
    chart in the basis of another: G_q = sum_p sigma^h_{shift; p q} F_p."""
    sig = sigma(h, shift, c_count, backend).entries
    out = []
    for q in range(h + 1):
        acc = coeffs[0].scale(sig.at(0, q))
        for p in range(1, h + 1):
            acc = acc + coeffs[p].scale(sig.at(p, q))
        out.append(acc)
    return out


def reexpand_chart(mc: MonadCoeffs, l: int) -> MonadCoeffs:
    """Rewrite all coefficient lists in the chart-l monomial bases.

    The s_inf coefficients and the framing vector are chart-independent.
    """
    if l == mc.m:
        return mc
    bk = mc.backend
    shift = l - mc.m
    a1 = _sigma_mix(list(mc.alpha1[:mc.n + 1]), mc.n, shift, mc.c, bk)
    a1.append(mc.alpha1[mc.n + 1])
    a2 = _sigma_mix(list(mc.alpha2), 1, shift, mc.c, bk)
    b1 = _sigma_mix(list(mc.beta1), 1, shift, mc.c, bk)
    b2 = _sigma_mix(list(mc.beta2[:mc.n + 1]), mc.n, shift, mc.c, bk)
    b2.append(mc.beta2[mc.n + 1])
    return MonadCoeffs(mc.n, mc.c, l, tuple(a1), tuple(a2), tuple(b1),
                       tuple(b2), mc.xi)


# ---------------------------------------------------------------------------
# gauge action
# ---------------------------------------------------------------------------

def _check_gauge_block(M: Matrix, name: str, tol):
    if not is_invertible_rel(M, tol):
        raise SingularGauge(f"gauge block {name} is singular")


def gauge_action(g: GaugeElement, mc: MonadCoeffs, tol=None) -> MonadCoeffs:
    """alpha -> psi alpha phi^-1 and beta -> chi beta psi^-1, expanded over
    the section bases.

    The polynomial block psi12 of psi feeds alpha2-data into the alpha1 s_E
    slots; the polynomial block -psi11^-1 psi12 psi22^-1 of psi^-1 feeds
    beta1-data into the beta2 s_E slots.  In both, the y2 coefficient moves
    one slot up, from multiplying by (y1, y2).
    """
    for M, name in ((g.phi, "phi"), (g.psi11, "psi11"),
                    (g.psi22, "psi22"), (g.chi, "chi")):
        _check_gauge_block(M, name, tol)
    n = mc.n
    bk = mc.backend
    phi_inv = inverse(g.phi)
    psi11_inv = inverse(g.psi11)
    psi22_inv = inverse(g.psi22)
    Zq = Matrix.zeros(mc.c, mc.c + 1, bk)

    def p12(q):
        return g.psi12[q] if 0 <= q <= n - 1 else Zq

    a1 = []
    for q in range(n + 1):
        a1.append((g.psi11 @ mc.alpha1[q] + p12(q) @ mc.alpha2[0]
                   + p12(q - 1) @ mc.alpha2[1]) @ phi_inv)
    a1.append(g.psi11 @ mc.alpha1[n + 1] @ phi_inv)
    a2 = tuple(g.psi22 @ A @ phi_inv for A in mc.alpha2)
    b1 = tuple(g.chi @ B @ psi11_inv for B in mc.beta1)

    def q12(q):
        if 0 <= q <= n - 1:
            return -(psi11_inv @ g.psi12[q] @ psi22_inv)
        return Zq

    b2 = []
    for q in range(n + 1):
        b2.append(g.chi @ (mc.beta2[q] @ psi22_inv
                           + mc.beta1[0] @ q12(q) + mc.beta1[1] @ q12(q - 1)))
    b2.append(g.chi @ mc.beta2[n + 1] @ psi22_inv)
    xi1, xi2 = mc.xi_blocks()
    xi = vstack(g.psi11 @ xi1, g.psi22 @ xi2)
    return MonadCoeffs(n, mc.c, mc.m, tuple(a1), a2, b1, tuple(b2), xi)


# ---------------------------------------------------------------------------
# gauge normalization
# ---------------------------------------------------------------------------

def _require(cond, step, detail):
    if not cond:
        raise NotNormalizable(f"step {step}: {detail}")


def _left_null_row(a20: Matrix, tol):
    """The unique (up to scale) row annihilating a full-rank k4 x k1 block,
    normalized so its largest entry is 1.

    Full rank is decided on the relative singular-value profile, which is
    immune to the large overall scale the earlier gauge steps can introduce.
    """
    bk = a20.backend
    if bk.exact:
        left_null = nullspace(a20.transpose())
        _require(left_null.cols == 1, 3,
                 "alpha2 y1-coefficient is not of full rank")
        r = left_null.column(0).transpose()
        pivot = max(range(a20.rows),
                    key=lambda j: abs(complex(r.at(0, j))))
        return r.scale(bk.inv(r.at(0, pivot)))
    u, s, _ = np.linalg.svd(a20.to_numpy())
    _require(s[-1] > linalg._tol(tol) * s[0], 3,
             "alpha2 y1-coefficient is not of full rank")
    vec = u[:, -1].conj()
    vec = vec / vec[np.argmax(np.abs(vec))]
    return Matrix.from_numpy(vec.reshape(1, -1))


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
    ``gauge_action``; the composite is not tested as one gauge, as its
    condition number can exceed every factor's.

    Raises NotNormalizable at the first singular pivot; for re-expanded
    images of ``build_jm`` this happens exactly on the locus
    det(c_{m-l} - s_{m-l} b1) = 0.
    """
    t = linalg._tol(tol)
    if max_residual(compose_residual(mc)) > math_scale(mc) * 1e3 * t:
        raise InvalidInput("not a monad point: beta o alpha != 0")
    mc0 = reexpand_chart(mc, l)
    n, c = mc0.n, mc0.c
    bk = mc0.backend
    ident = Matrix.identity(c, bk)
    no_psi12 = tuple(Matrix.zeros(c, c + 1, bk) for _ in range(n))

    def gauge(phi=ident, psi22=Matrix.identity(c + 1, bk), chi=ident,
              psi12=no_psi12):
        return GaugeElement(phi=phi, psi11=ident, psi12=psi12,
                            psi22=psi22, chi=chi)

    # step 1: beta1 y1-slot -> 1, beta2 slots 0..n-1 -> 0
    b10 = mc0.beta1[0]
    _require(is_invertible(b10, tol), 1, "beta1 y1-coefficient is singular")
    b10_inv = inverse(b10)
    _check_gauge_block(b10_inv, "chi", tol)
    Qs = []
    prev = Matrix.zeros(c, c + 1, bk)
    for q in range(n):
        prev = -(b10_inv @ (mc0.beta2[q] + mc0.beta1[1] @ prev))
        Qs.append(prev)
    g1 = gauge(chi=b10_inv, psi12=tuple(-q for q in Qs))

    # step 2: alpha1 top s_E slot -> 1; after step 1 it is
    # alpha1[n] - Q_(n-1) alpha2[1]
    a1n = mc0.alpha1[n] - prev @ mc0.alpha2[1]
    _require(is_invertible_rel(a1n, tol), 2, "top alpha1 coefficient is singular")
    g2 = gauge(phi=a1n)

    # step 3: alpha2 y1-slot -> (1; 0), beta2 top slot -> (-1, 0); after
    # step 2 the first is alpha2[0] a1n^-1, after step 1 the second is
    # b10^-1 (beta2[n] + beta1[1] Q_(n-1))
    a1n_inv = inverse(a1n)
    r = _left_null_row(mc0.alpha2[0] @ a1n_inv, tol)
    top = b10_inv @ (mc0.beta2[n] + mc0.beta1[1] @ prev)
    psi22_3 = vstack(-top, r)
    # (the pivot tests of steps 2 and 3 are the gauge block tests)
    _require(is_invertible_rel(psi22_3, tol), 3, "pivot block is singular")

    # step 4: framing vector -> (0, ..., 0, 1); only step 3 moved it
    xi1, xi2 = mc0.xi_blocks()
    xi2 = psi22_3 @ xi2
    scale = max(xi1.maxnorm(), xi2.maxnorm())
    _require(scale > 0, 4, "framing vector vanishes")
    omega = xi2.at(c, 0)
    _require(abs(complex(omega)) > t * scale, 4, "frame slot vanishes")
    _require(xi1.maxnorm() <= 1e3 * t * scale
             and all(abs(complex(xi2.at(j, 0))) <= 1e3 * t * scale
                     for j in range(c)),
             4, "framing vector is not supported on the frame slot")
    psi22_4 = Matrix.diagonal([bk.one] * c + [bk.inv(omega)], bk)
    _check_gauge_block(psi22_4, "psi22", tol)

    # close the loop: conjugate so the composite gauge has chi = 1
    g_raw = (gauge(psi22=psi22_4).compose(gauge(psi22=psi22_3))
             .compose(g2).compose(g1))
    g5 = embed_gl_gauge(g_raw.chi.transpose(), n)
    # psi11 and chi of g5 are its phi
    _check_gauge_block(g5.phi, "phi", tol)
    _check_gauge_block(g5.psi22, "psi22", tol)
    g_total = g5.compose(g_raw)

    # chi beta1[1] psi11^-1, psi11 alpha1[n+1] phi^-1, chi beta2[n+1]
    # psi22^-1, inverting factor by factor as acting step by step would:
    # psi11 = T, phi = T a1n, psi22^-1 e_c = omega psi22_3^-1 e_c
    T = g5.phi
    T_inv = inverse(T)
    b1 = g_total.chi @ mc0.beta1[1] @ T_inv
    b2 = T @ mc0.alpha1[n + 1] @ a1n_inv @ T_inv
    e = (g_total.chi @ mc0.beta2[n + 1] @ inverse(psi22_3)).column(c)
    return PlaneADHM(c, b1.transpose(), b2.transpose(),
                     e.scale(omega).transpose()), g_total


def math_scale(mc: MonadCoeffs) -> float:
    mats = [*mc.alpha1, *mc.alpha2, *mc.beta1, *mc.beta2]
    return max(1.0, max((M.maxnorm() for M in mats), default=1.0)) ** 2
