"""Seeded random generators for tests and verification campaigns.

Everything is driven by ``numpy.random.Generator`` so a single 64-bit seed
reproduces a whole campaign.  Co-stable chart triples are built from a common
conjugation of two diagonal matrices, which also keeps the joint spectrum
simple; gauge and chart blocks are resampled until reasonably conditioned so
float residuals stay far below the acceptance tolerances.
"""

from __future__ import annotations

import numpy as np

from .linalg import Matrix
from .plane import PlaneADHM
from .quiver import FramedRep, embed_xn_as_rep
from .xn import ChartData, XnADHM, _rotate, zeta_inverse

#: resample threshold for condition numbers of random invertible blocks
MAX_COND = 1e4


def rng_from_seed(seed) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_matrix(rng, rows, cols, scale=1.0) -> Matrix:
    a = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return Matrix.from_numpy(scale * a)


def random_invertible(rng, n, max_cond=MAX_COND) -> Matrix:
    while True:
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if np.linalg.cond(a) <= max_cond:
            return Matrix.from_numpy(a)


def _separated_values(rng, c, min_gap=0.15):
    """c complex values with pairwise gaps bounded below."""
    while True:
        vals = rng.standard_normal(c) + 1j * rng.standard_normal(c)
        ok = all(abs(vals[i] - vals[j]) > min_gap
                 for i in range(c) for j in range(i + 1, c))
        if ok:
            return vals


def random_costable_triple(rng, c) -> PlaneADHM:
    """Commuting pair with simple joint spectrum and a generic frame."""
    V = random_invertible(rng, c)
    Vn = V.to_numpy()
    Vi = np.linalg.inv(Vn)
    b1 = Matrix.from_numpy(Vn @ np.diag(_separated_values(rng, c)) @ Vi)
    b2 = Matrix.from_numpy(Vn @ np.diag(_separated_values(rng, c)) @ Vi)
    while True:
        e = rng.standard_normal(c) + 1j * rng.standard_normal(c)
        if np.all(np.abs(e @ Vn) > 0.05):   # frame sees every eigenvector
            break
    return PlaneADHM(c, b1, b2, Matrix.row_vector(e.tolist()))


def random_chart_data(rng, c, m=None) -> ChartData:
    plane = random_costable_triple(rng, c)
    if m is None:
        m = int(rng.integers(0, c + 1))
    A2m = random_invertible(rng, c)
    return ChartData(m, plane.b1, plane.b2, plane.e, A2m)


def random_xn(rng, n, c, m=None) -> XnADHM:
    """Configuration data satisfying all three conditions."""
    return zeta_inverse(random_chart_data(rng, c, m), n)


def random_xn_e_zero(rng, n, c) -> XnADHM:
    """Violator: valid data with the frame covector zeroed (breaks only the
    co-stability condition)."""
    d = random_xn(rng, n, c)
    return XnADHM(d.n, d.c, d.A1, d.A2, d.C, Matrix.zeros(1, c))


def random_xn_kernel_violator(rng, n, c) -> XnADHM:
    """Violator: diagonal chart data whose first joint eigenvector is
    annihilated by the frame."""
    zs = _separated_values(rng, c)
    ws = _separated_values(rng, c)
    e_vals = [0.0] + (rng.standard_normal(c - 1)
                      + 1j * rng.standard_normal(c - 1)).tolist()
    m = int(rng.integers(0, c + 1))
    cd = ChartData(m, Matrix.diagonal(zs.tolist()), Matrix.diagonal(ws.tolist()),
                   Matrix.row_vector(e_vals), random_invertible(rng, c))
    return zeta_inverse(cd, n, check=False)


def random_rep(rng, n, c, framed=False) -> FramedRep:
    """Embedded valid configuration, or (with ``framed=True``) a
    relation-satisfying representation with nonzero framing blocks and a
    regular pencil, which cannot be semistable."""
    if not framed or n == 1:
        return embed_xn_as_rep(random_xn(rng, n, c))
    return random_framed_rep(rng, n, c)


def random_framed_rep(rng, n, c) -> FramedRep:
    """Representation with f != 0 satisfying all relations, regular pencil.

    For c = 1 the relations force f e = 0, so the frame covector is zero and
    f is free.  For c >= 2 the seed is A2 = 1, A1 = J (the upper shift),
    C1 = diag(a,..,a,b) and f1 = (b-a) times the (c-1)-st basis column with
    e the last coordinate row: then [J, J^(q-1) C1] = J^(q-1) f1 e, so
    C(q+1) = J Cq and f(q+1) = J fq close every relation.  The result is
    moved by a random two-sided base change.
    """
    assert n >= 2
    if c == 1:
        a1 = complex(rng.standard_normal() + 1j * rng.standard_normal())
        a2 = complex(rng.standard_normal() + 1j * rng.standard_normal())
        c1 = complex(rng.standard_normal() + 1j * rng.standard_normal())
        Cs = [Matrix.from_rows([[c1 * (a1 / a2) ** q]]) for q in range(n)]
        f = tuple(Matrix.from_rows([[rng.standard_normal()
                                     + 1j * rng.standard_normal()]])
                  for _ in range(n - 1))
        return FramedRep(n, 1, 1, 1, Matrix.from_rows([[a1]]),
                         Matrix.from_rows([[a2]]), tuple(Cs),
                         Matrix.zeros(1, 1), f)
    J = Matrix.from_rows([[1.0 if j == i + 1 else 0.0 for j in range(c)]
                          for i in range(c)])
    a = complex(rng.standard_normal() + 1j * rng.standard_normal())
    b = a + 1.0 + abs(rng.standard_normal())
    C1 = Matrix.diagonal([a] * (c - 1) + [b])
    e = Matrix.row_vector([0.0] * (c - 1) + [1.0])
    f1 = Matrix.col_vector([0.0] * (c - 2) + [b - a, 0.0])
    A1, A2 = J, Matrix.identity(c)
    Cs, fs = [C1], [f1]
    for _ in range(n - 1):
        Cs.append(J @ Cs[-1])
    for _ in range(n - 2):
        fs.append(J @ fs[-1])
    rep = FramedRep(n, c, c, 1, A1, A2, tuple(Cs), e, tuple(fs))
    phi1 = random_invertible(rng, c)
    phi2 = random_invertible(rng, c)
    inv1 = Matrix.from_numpy(np.linalg.inv(phi1.to_numpy()))
    inv2 = Matrix.from_numpy(np.linalg.inv(phi2.to_numpy()))
    return FramedRep(n, c, c, 1, phi2 @ rep.A1 @ inv1, phi2 @ rep.A2 @ inv1,
                     tuple(phi1 @ C @ inv2 for C in rep.C), rep.e @ inv1,
                     tuple(phi1 @ fq for fq in rep.f))


def random_free_rep(rng, n, c) -> FramedRep:
    """Unconstrained maps of the right shapes (no relations imposed)."""
    return FramedRep(
        n, c, c, 1,
        random_matrix(rng, c, c), random_matrix(rng, c, c),
        tuple(random_matrix(rng, c, c) for _ in range(n)),
        random_matrix(rng, 1, c),
        tuple(random_matrix(rng, c, 1) for _ in range(max(n - 1, 0))))


def random_points(rng, c, min_gap=0.2):
    """Pairwise distinct plane points with a gap in both coordinates."""
    zs = _separated_values(rng, c, min_gap)
    ws = _separated_values(rng, c, min_gap)
    return [(complex(z), complex(w)) for z, w in zip(zs, ws)]


def integer_points(rng, c, p):
    """c integer plane points in [-4, 4]^2 with pairwise distinct
    z-coordinates, which stay pairwise distinct modulo the prime p.

    Distinct z keeps the pencil's roots simple: on rational data the float
    (P3) test can miss a double pencil root and call an e = 0 violator
    semistable.
    """
    while True:
        pts = [(int(rng.integers(-4, 5)), int(rng.integers(-4, 5)))
               for _ in range(c)]
        if (len({z for z, _ in pts}) == c
                and len({(z % p, w % p) for z, w in pts}) == c):
            return pts


def overlap_margin(b1: Matrix, c_count: int, m: int, l: int) -> float:
    """Smallest singular value of the chart-overlap pivot
    c_(m-l) - s_(m-l) b1; zero exactly on the divisor where charts m and l
    fail to overlap."""
    T = _rotate(b1, Matrix.identity(b1.rows), l - m, c_count)[1]
    return float(np.linalg.svd(T.to_numpy(), compute_uv=False)[-1])


def random_overlap_charts(rng, b1: Matrix, c_count: int, margin=0.15):
    """Chart pair (m, l) whose overlap pivot clears the margin, so chart
    transitions are numerically well posed on the sample."""
    while True:
        m = int(rng.integers(0, c_count + 1))
        l = int(rng.integers(0, c_count + 1))
        if overlap_margin(b1, c_count, m, l) >= margin:
            return m, l
