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
subspace enumeration exists only over prime fields, as an oracle.  Its
lattice of subspaces of GF(p)^d depends only on (d, p), so each lattice up
to ``SUBSPACE_BUDGET`` subspaces is built once per process and then read
from a cache (``subspace_bases``).
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from . import linalg
from .errors import (
    InvalidInput,
    NonzeroFraming,
    NotInChart,
    ShapeMismatch,
    TooLarge,
    UnsupportedBackend,
)
# rank is not called here; benches/tracing.py traces it as quiver.rank
from .linalg import Matrix, nullspace, rank, vstack  # noqa: F401
from .xn import (XnADHM, _backend_angles, _binomial_combination,
                 _chain_defects, _chain_holds, _integer_chain_defects,
                 _pencil_step, _rotation, _stack, check_P1, check_P2)


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
        bk = self.A1.backend
        if any(M.backend != bk for M in (self.A2, *self.C, self.e, *self.f)):
            raise ShapeMismatch("blocks on different backends")
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
                         [C.cast(backend) for C in self.C],
                         self.e.cast(backend),
                         [f.cast(backend) for f in self.f])


def standard_theta(c: int) -> tuple:
    """The standard weight theta_c = (2c, -2c+1) of dimension vector (c, c)."""
    return 2 * c, -2 * c + 1


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
    """Left-hand-minus-right-hand sides of every (Q1) relation: for n >= 2
    A1 Cq - A2 C(q+1) and then Cq A1 + fq e - C(q+1) A2, for each q."""
    defects = _relations(r)[0]
    if len(defects) == 2:       # the two (n-1, ., .) stacks, interleaved
        defects = [D for pair in zip(*defects) for D in pair]
    return [linalg._wrap(D, r.backend) for D in defects]


def _relations(r: FramedRep):
    """(``_chain_defects`` of the (Q1) relations, the blocks that scale
    them) on entry arrays: ``_chain_holds`` of the two is
    ``check_relations``."""
    cs = _stack(r.C)
    fs = _stack(r.f) if r.f else None
    e = r.e.entries
    blocks = (cs, e) if fs is None else (cs, e, fs)
    if r.backend.kind == "rational":
        return _integer_chain_defects(r.A1, r.A2, r.C, r.f, r.e), blocks
    return (_chain_defects(r.A1.entries, r.A2.entries, cs, r.backend, fs, e),
            blocks)


def check_relations(r: FramedRep, tol=None) -> bool:
    defects, blocks = _relations(r)
    return _chain_holds(defects, r.A1.entries, r.A2.entries, blocks,
                        r.backend, tol)


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
    When every f is exactly 0, the chain defects are formed once, for (Q1)
    and (P1) alike; an f within tol of 0 but not 0 takes ``check_P1``.
    """
    if r.v0 != r.v1 or r.w != 1:
        raise ShapeMismatch("spectral check needs v0 = v1 and w = 1")
    defects, blocks = _relations(r)
    a1, a2 = r.A1.entries, r.A2.entries
    if not _chain_holds(defects, a1, a2, blocks, r.backend, tol):
        raise InvalidInput("relations (Q1) fail; not a representation")
    d = XnADHM(r.n, r.v0, r.A1, r.A2, r.C, r.e)
    if not any(any(fs.flat) for fs in blocks[2:]):
        # every f is exactly 0 (blocks[2:] is the f stack, none for n = 1),
        # so the (Q1) defects are the (P1) defects: exact ones are all 0
        # already, and float ones are read at (P1)'s own scale, that of the
        # C stack alone
        p1 = r.backend.exact or _chain_holds(defects, a1, a2, blocks[:1],
                                             r.backend, tol)
    elif all(f.is_zero(tol) for f in r.f):
        p1 = check_P1(d, tol)
    elif check_P2(d, tol):
        return Verdict.UNSTABLE
    else:
        return Verdict.INDETERMINATE
    ok = p1 and all(_pencil_step(d, tol))
    return Verdict.SEMISTABLE if ok else Verdict.UNSTABLE


def u_m_residual(r: FramedRep, m: int, tol=None):
    """Binomial combination of the framing blocks attached to chart m.

    The weights follow the same pattern as the chart free parameter one
    degree lower, binom(n-2, q-1) c_m^(n-1-q) s_m^(q-1); with them the chart
    commutator satisfies [B_m, E_m] = u_m e on every relation-satisfying
    representation (the other exponent pairing fails this identity for
    n >= 3).  Semistable representations with a regular pencil have u_m = 0
    for every valid chart, which is how the framing blocks are forced to
    vanish.  A chart whose A2m is singular at tol raises ``NotInChart``.
    """
    if r.n < 2:
        raise InvalidInput("u_m needs n >= 2")
    if r.v0 != r.v1:
        raise ShapeMismatch("u_m needs v0 = v1")
    bk = r.backend
    a2m = _rotation(r.A1.entries, r.A2.entries, m, r.v0, bk)[1]
    if not linalg._is_invertible(a2m, bk, tol):
        raise NotInChart(f"det A2m = 0 in chart {m}")
    cm, sm = _backend_angles(bk, r.v0, m)
    return linalg._wrap(_binomial_combination(
        [f.entries for f in r.f], cm, sm, bk), bk)


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
    f = [Matrix.zeros(d.c, 1, d.backend) for _ in range(d.n - 1)]
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
    """The number of k-dimensional subspaces of GF(p)^n, 0 for k outside
    0..n; a p below 2 raises ``InvalidInput``."""
    if p < 2:
        raise InvalidInput(f"gaussian_binomial needs p >= 2, got {p}")
    if not 0 <= k <= n:
        return 0
    num, den = 1, 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


#: the most subspaces of V0 that ``brute_force_semistable`` enumerates, and
#: the largest lattice that ``subspace_bases`` keeps
SUBSPACE_BUDGET = 200_000


def count_subspaces(d: int, p: int) -> int:
    """The number of subspaces of GF(p)^d.  A p that is not prime raises
    ``UnsupportedBackend`` (``linalg.GF``), then a negative d
    ``ShapeMismatch``."""
    linalg.GF(p)
    linalg._check_dims(d)
    return sum(gaussian_binomial(d, k, p) for k in range(d + 1))


def subspace_bases(d: int, p: int):
    """Iterator over all subspaces of GF(p)^d as d x k column-basis
    matrices, one matrix per subspace, each in reduced column echelon form:
    the first nonzero entry of column i is a 1 in row pivots[i], every other
    column vanishes in that row, and the free entries below the pivots run
    over GF(p).  The zero subspace comes first, then the subspaces of each
    dimension k = 1..d.

    A lattice of at most ``SUBSPACE_BUDGET`` subspaces is built once per
    process and (d, p) and kept: every later call yields the same read-only
    ``Matrix`` objects in the same order.  A kept lattice holds about
    0.4 KiB per subspace (measured with tracemalloc): 0.4 MiB for (4, 5),
    16.6 MiB for (5, 5) and 24.6 MiB for (6, 3).  A larger lattice is
    streamed and never kept.  A negative d raises ``ShapeMismatch`` and a
    p that is not prime ``UnsupportedBackend``, before any lookup.
    """
    if count_subspaces(d, p) > SUBSPACE_BUDGET:
        return _enumerate_subspaces(d, p)
    return iter(_subspace_lattice(d, p))


@functools.lru_cache(maxsize=None)
def _subspace_lattice(d: int, p: int) -> tuple:
    """The bases of ``_enumerate_subspaces(d, p)``, kept per (d, p)."""
    return tuple(_enumerate_subspaces(d, p))


def _enumerate_subspaces(d: int, p: int):
    """The bases of ``subspace_bases``, built one by one.

    Each basis is filled in as an entry array from its pivots and free
    positions; the residues are canonical, so nothing is coerced.
    """
    gf = linalg.GF(p)
    yield Matrix.zeros(d, 0, gf)
    for k in range(1, d + 1):
        for pivots in combinations(range(d), k):
            # flat positions i * k + j of the pivots and the free entries
            template = [gf.zero] * (d * k)
            for j, i in enumerate(pivots):
                template[i * k + j] = gf.one
            free = [i * k + j for j in range(k)
                    for i in range(pivots[j] + 1, d) if i not in pivots]
            for fill in product(range(p), repeat=len(free)):
                flat = template.copy()
                for at, v in zip(free, fill):
                    flat[at] = v
                yield linalg._wrap(
                    np.array(flat, dtype=object).reshape(d, k), gf)


def _contains(s, m, bk) -> bool:
    """Whether every column of the canonical entry array m lies in the span
    of the basis s, an entry array in reduced column echelon form (see
    ``subspace_bases``).  With P the pivot rows of s, s[P] is the identity,
    so m = s x forces x = m[P]: m lies in the span exactly when
    s m[P] = m mod p, one product and one reduction and no elimination.
    An empty basis has no pivots, and s m[P] = 0 then tests m = 0."""
    pivots = [col.index(bk.one) for col in s.T.tolist()]
    return linalg._matmul(s, m[pivots], bk).tolist() == m.tolist()


def _maps_into(A: Matrix, S0: Matrix, S1: Matrix) -> bool:
    """Whether A maps the span of S0 into the span of S1, an echelon
    basis."""
    bk = A.backend
    return _contains(S1.entries, linalg._matmul(A.entries, S0.entries, bk),
                     bk)


def _echelon_basis(rows, pivots, d: int, bk) -> Matrix:
    """The d x len(pivots) column basis in reduced column echelon form
    whose columns are the nonzero ``rows`` of a ``linalg._rref`` result."""
    basis = np.array(rows[:len(pivots)], dtype=object)
    return linalg._wrap(basis.reshape(len(pivots), d).T, bk)


def _preimage(Cs, S0: Matrix) -> Matrix:
    """Column basis of the largest S1 with C S1 inside S0 for every C, in
    reduced column echelon form: the nonzero rows of the reduced row
    echelon form of K^T, as columns, for a kernel basis K."""
    ann = nullspace(S0.transpose()).transpose()
    k = nullspace(vstack(*(ann @ C for C in Cs))).entries
    bk = S0.backend
    return _echelon_basis(*linalg._rref(k.T, bk), k.shape[0], bk)


def _least_node_nullity(a1, a2, v0: int, bk) -> int:
    """The least nullity, as maps on GF(p)^v0, of the pencil nodes
    nu1 A1 + nu2 A2 at (1, 0), (0, 1), (1, 1), ..., (p-1, 1), from one
    ``linalg._rref`` each, in that order: at most min(p + 1, v0 + 1) nodes,
    stopping at the first of nullity 0.  A regular square pencil over GF(p)
    has at most v0 projective roots, so v0 + 1 nodes find an invertible one
    when p >= v0, and the cap keeps a small v0 over a large p cheap."""
    least = v0
    for nu in [(1, 0)] + [(j, 1) for j in range(min(bk.p, v0))]:
        node = linalg._node_entries(a1, a2, *nu, bk)
        least = min(least, v0 - len(linalg._rref(node, bk)[1]))
        if not least:
            break
    return least


def brute_force_semistable(r: FramedRep, theta=None) -> bool:
    """Definitional semistability by exhausting the subspaces S0 of V0, at
    the weight ``theta`` (default ``standard_theta(v0)``).

    A pair (S0, S1) is closed when both A arrows map S0 into S1 and every C
    arrow maps S1 into S0.  Each closed pair is tested against the two slope
    conditions: S0 inside ker e forces theta.(dim S) <= 0, and S0 containing
    every Im f_i (every pair, when n = 1) forces
    theta.(dim S) <= theta.(v0, v1).  So each S0 has a threshold that the
    slope of a closed pair must exceed to destabilize: min(0, full) when S0
    lies inside ker e and contains every Im f_i, 0 when only the first
    holds, and full = theta.(v0, v1) when only the second does; an S0 for
    which neither holds is skipped.  The ker e test is one product, the
    Im f test one per f_i (none when every f is exactly 0, or n = 1).

    Both conditions depend on S1 only through the slope, which is linear in
    dim S1.  The closed pairs with a given S0 are the S1 between
    S1min = A1 S0 + A2 S0 and S1max = the common preimage of S0 under the
    C arrows, so only one end of that interval needs a test: S1min when
    theta_1 <= 0 (as at the standard weight theta_c), S1max otherwise.  If
    that candidate is not closed, no S1 closes with this S0; a closed one
    above the threshold destabilizes (King, Quart. J. Math. 1994).

    Before any elimination, an S0 of dimension k is skipped when no S1 can
    lift it above its threshold.  For theta_1 < 0 the slope is largest at
    the least dim S1, and every pencil node N = nu1 A1 + nu2 A2 gives
    dim S1min >= dim N S0 >= k - nullity(N); the least nullity comes once
    per call from ``_least_node_nullity``, which tries at most
    min(p + 1, v0 + 1) nodes and stops at the first invertible one.  For
    theta_1 >= 0 the bound is dim S1 <= v1.  At theta_c with an invertible
    node this leaves only the S0 inside ker e.  The candidate itself is
    then built, by one ``_rref`` of [A1 S0 | A2 S0] (theta_1 <= 0) or by
    ``_preimage``, and is tested for closure only when its slope is above
    the threshold.

    Every basis is in reduced column echelon form (``subspace_bases``,
    ``_echelon_basis``), so each subspace test is one product and one
    reduction on entry arrays (``_contains``).  The bases S0 come from
    ``subspace_bases``, so the lattice of V0 is built on the first call for
    (v0, p) and read from its cache after that.

    A lattice of more than ``SUBSPACE_BUDGET`` subspaces S0 raises
    ``TooLarge`` before any is built.
    """
    if r.backend.kind != "gf":
        raise UnsupportedBackend("the exhaustive check runs over prime fields")
    p = r.backend.p
    total = count_subspaces(r.v0, p)
    if total > SUBSPACE_BUDGET:
        raise TooLarge(
            f"{total} subspaces of V0 exceed the budget {SUBSPACE_BUDGET}")
    if theta is None:
        theta = standard_theta(r.v0)
    full = theta_slope(theta, (r.v0, r.v1))
    bound = min(0, full)
    bk = r.backend
    # [A1; A2], so that A1 S0 and A2 S0 are one product
    a12 = np.concatenate((r.A1.entries, r.A2.entries))
    e = r.e.entries
    fs = [f.entries for f in r.f]
    f_zero = not any(any(f.flat) for f in fs)
    # the largest slope of a closed pair whose S0 has dimension k, written
    # out rather than taken from theta_slope: the benchmark's tracer counts
    # each theta_slope call inside this function as a closed pair, and each
    # _maps_into(r.A1, ...) call as a tested pair
    if theta[1] < 0:
        least = _least_node_nullity(r.A1.entries, r.A2.entries, r.v0, bk)
        top = [theta[0] * k + theta[1] * max(0, k - least)
               for k in range(r.v0 + 1)]
    else:
        top = [theta[0] * k + theta[1] * r.v1 for k in range(r.v0 + 1)]
    for S0 in subspace_bases(r.v0, p):
        s0 = S0.entries
        k = S0.cols
        if top[k] <= bound:         # at or below every threshold: no product
            continue
        kills = not any(linalg._matmul(e, s0, bk).flat)
        if kills and full >= 0:
            threshold = 0           # min(0, full), whatever Im f does
        elif f_zero or all(_contains(s0, f, bk) for f in fs):
            threshold = full        # min(0, full) too when e S0 = 0
        elif kills:
            threshold = 0
        else:
            continue
        if top[k] <= threshold:
            continue
        if theta[1] <= 0:
            a12s0 = linalg._matmul(a12, s0, bk)
            rows, pivots = linalg._rref(
                np.concatenate((a12s0[:r.v1], a12s0[r.v1:]), axis=1).T, bk)
            if theta[0] * k + theta[1] * len(pivots) <= threshold:
                continue
            S1 = _echelon_basis(rows, pivots, r.v1, bk)
        else:
            S1 = _preimage(r.C, S0)
            if theta[0] * k + theta[1] * S1.cols <= threshold:
                continue
        if (_maps_into(r.A1, S0, S1) and _maps_into(r.A2, S0, S1)
                and all(_maps_into(C, S1, S0) for C in r.C)
                and theta_slope(theta, (k, S1.cols)) > threshold):
            return False
    return True
