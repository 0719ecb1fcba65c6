"""Families of data on which a verdict route is known to be wrong.

Each family is rebuilt here as ROADMAP.md describes it.  A route that is
right on the whole family is a plain test; a route that is known to miss
part of it is a strict xfail whose reason names the ROADMAP item, so that a
fix flips the marker.  Every test asserts the whole family, not a count of
misses: a partial fix keeps the xfail.
"""

import functools
from fractions import Fraction

import numpy as np
import pytest

from xnadhm.linalg import GF, RATIONAL, Matrix
from xnadhm.plane import PlaneADHM, from_plane_points, gl_action
from xnadhm.quiver import (brute_force_semistable, check_semistable_spectral,
                           embed_xn_as_rep)
from xnadhm.sampling import random_invertible
from xnadhm.xn import (ChartData, check_P1, check_P2, check_P3_direct,
                       check_P3_via_chart, cover_chart, zeta_inverse)


def _partitions(c, largest=None):
    """The partitions of c, parts in decreasing order."""
    largest = c if largest is None else largest
    if c == 0:
        yield ()
        return
    for part in range(min(c, largest), 0, -1):
        for rest in _partitions(c - part, part):
            yield (part,) + rest


def _shifted_multiplication(index, c, step, shift):
    """The transposed multiplication by a variable on the monomials
    ``index`` (cell -> position), moving a cell by ``step``, plus
    ``shift`` times the identity."""
    rows = [[shift * (i == j) for j in range(c)] for i in range(c)]
    for (i, j), k in index.items():
        t = index.get((i + step[0], j + step[1]))
        if t is not None:
            rows[k][t] += 1
    return Matrix.from_rows(rows, RATIONAL)


@functools.lru_cache(maxsize=None)
def monomial_family():
    """ROADMAP item 2's monomial data: for each partition of c = 2..5, b1
    and b2 are the transposed multiplications by x and y on its monomials,
    shifted by (z, w) in {(0, 0), (2, -1)}, and e is the dual of one cell.
    With e at the cell 1 the triple is co-stable, at any other cell it
    violates co-stability.  Each triple is read into chart 0 with A2m = 1
    for n = 1..3.  Returns a list of ((c, partition, shift, cell, n),
    data, co-stable): 408 configurations, 306 of them violators."""
    family = []
    for c in range(2, 6):
        for partition in _partitions(c):
            cells = [(i, j) for i, row in enumerate(partition)
                     for j in range(row)]
            index = {cell: k for k, cell in enumerate(cells)}
            for z, w in ((0, 0), (2, -1)):
                b1 = _shifted_multiplication(index, c, (0, 1), z)
                b2 = _shifted_multiplication(index, c, (1, 0), w)
                for cell in cells:
                    e = Matrix.row_vector(
                        [int(k == index[cell]) for k in range(c)], RATIONAL)
                    cd = ChartData(0, b1, b2, e, Matrix.identity(c, RATIONAL))
                    for n in (1, 2, 3):
                        family.append(((c, partition, (z, w), cell, n),
                                       zeta_inverse(cd, n, check=False),
                                       cell == (0, 0)))
    return family


def _wrong(verdict, costable_only=None):
    """The labels of the family members on which ``verdict`` is wrong,
    among the co-stable (True) or violating (False) members only when
    ``costable_only`` is given."""
    return [label for label, d, costable in monomial_family()
            if costable_only in (None, costable) and verdict(d) != costable]


def _spectral(d, tol=None):
    return check_semistable_spectral(embed_xn_as_rep(d), tol).to_bool()


def test_monomial_family_size():
    family = monomial_family()
    assert len(family) == 408
    assert sum(not costable for _, _, costable in family) == 306


def test_P3_via_chart_is_right_on_the_monomial_family():
    assert _wrong(check_P3_via_chart) == []


@pytest.mark.parametrize("verdict", [check_P3_direct, _spectral],
                         ids=["direct", "spectral"])
def test_direct_routes_pass_the_costable_monomial_members(verdict):
    assert _wrong(verdict, costable_only=True) == []


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 2: the exact determinant form's roots come from np.roots, "
    "which splits the c-fold root at the shift (2, -1); 117 of 306 missed"))
def test_P3_direct_catches_every_monomial_violator():
    assert _wrong(check_P3_direct, costable_only=False) == []


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 2: the spectral verdict takes the same np.roots roots as "
    "direct (P3); the same 117 of 306 violators read semistable"))
def test_spectral_verdict_catches_every_monomial_violator():
    assert _wrong(_spectral, costable_only=False) == []


def test_prime_field_oracle_is_right_on_the_small_monomial_members():
    """Over GF(5) the exhaustive subspace search gives each monomial member
    with c <= 4 its co-stability flag: the data are integers, and the
    shift (2, -1) stays distinct mod 5."""
    members = [(label, d, costable) for label, d, costable in monomial_family()
               if label[0] <= 4]
    assert len(members) == 198
    assert [label for label, d, costable in members
            if brute_force_semistable(embed_xn_as_rep(d).cast(GF(5)))
            != costable] == []


# ---------------------------------------------------------------------------
# ROADMAP item 1: non-semisimple float violators
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def jordan_family(seed):
    """ROADMAP item 1's float data at one seed: for each c = 2..6, 20
    triples b1 = zI + J and b2 = wI + 0.7J - 1.3J^2, J the c x c upper
    shift, with a generic frame e whose first coordinate is 0, so that
    every triple violates co-stability.  Each triple is moved by a random
    gauge and read into a random chart m with a random A2m for
    n = 1 + t mod 3, t its index at its c.  The draws per triple are, in
    order, (z, w) as one complex pair, e, the gauge, m and A2m.  Returns a
    list of ((c, t), data): 100 violators."""
    rng = np.random.default_rng(seed)
    family = []
    for c in range(2, 7):
        J = np.eye(c, k=1)
        for t in range(20):
            z, w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            e = rng.standard_normal(c) + 1j * rng.standard_normal(c)
            e[0] = 0
            triple = PlaneADHM(c, Matrix.from_numpy(z * np.eye(c) + J),
                               Matrix.from_numpy(w * np.eye(c) + 0.7 * J
                                                 - 1.3 * J @ J),
                               Matrix.from_numpy(e[None, :]))
            p = gl_action(random_invertible(rng, c), triple)
            m = int(rng.integers(0, c + 1))
            cd = ChartData(m, p.b1, p.b2, p.e, random_invertible(rng, c))
            family.append(((c, t), zeta_inverse(cd, 1 + t % 3, check=False)))
    return family


def _missed_jordan_violators(verdict):
    """(seed, label) of the item 1 violators that ``verdict`` reads
    co-stable, at seeds 1 and 2."""
    return [(seed, label) for seed in (1, 2)
            for label, d in jordan_family(seed) if verdict(d)]


def test_P3_via_chart_catches_every_jordan_violator():
    assert sum(len(jordan_family(seed)) for seed in (1, 2)) == 200
    assert _missed_jordan_violators(check_P3_via_chart) == []


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 1: a k-fold defective root comes back split by about "
    "eps^(1/k), past CLUSTER_TOL for k >= 3; 85 and 86 of 100 missed"))
def test_P3_direct_catches_every_jordan_violator():
    assert _missed_jordan_violators(check_P3_direct) == []


# ---------------------------------------------------------------------------
# ROADMAP item 12: exact data decided in floats
# ---------------------------------------------------------------------------

TOLS = (1e-3, 1e-6, 1e-9, 1e-12, 0)


@functools.lru_cache(maxsize=None)
def small_gap_family():
    """ROADMAP item 12's exact data: the RATIONAL points {(0, 0), (g, 0)},
    {(0, 0), (0, g)} and {(0, 0), (g, 1), (1, g)} with g = 10^-k for
    k = 2..13, each set read into chart 0 with A2m = 1 for n = 1..3.
    Returns a list of ((k, points, n), data): 108 co-stable
    configurations."""
    family = []
    for k in range(2, 14):
        g = Fraction(1, 10 ** k)
        for points in ([(0, 0), (g, 0)], [(0, 0), (0, g)],
                       [(0, 0), (g, 1), (1, g)]):
            p = from_plane_points(points, RATIONAL)
            cd = ChartData(0, p.b1, p.b2, p.e, Matrix.identity(p.c, RATIONAL))
            for n in (1, 2, 3):
                family.append(((k, len(points), n),
                               zeta_inverse(cd, n, check=False)))
    return family


def _tol_dependent(verdict):
    """The labels of the small-gap members whose ``verdict`` changes over
    ``TOLS``."""
    return [label for label, d in small_gap_family()
            if len({verdict(d, tol) for tol in TOLS}) > 1]


@pytest.mark.parametrize("verdict", [check_P1, check_P2, cover_chart],
                         ids=["P1", "P2", "cover_chart"])
def test_exact_checks_ignore_tol_on_the_small_gap_family(verdict):
    assert len(small_gap_family()) == 108
    assert _tol_dependent(verdict) == []


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP items 12 and 2: direct (P3) takes the exact determinant "
    "form's roots in floats; 72 of 108 verdicts change with tol"))
def test_P3_direct_ignores_tol_on_the_small_gap_family():
    assert _tol_dependent(check_P3_direct) == []


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP items 12 and 2: the spectral verdict takes the same float "
    "roots as direct (P3); 72 of 108 verdicts change with tol"))
def test_spectral_verdict_ignores_tol_on_the_small_gap_family():
    assert _tol_dependent(_spectral) == []


def test_P3_via_chart_ignores_tol_on_the_small_gap_family():
    assert _tol_dependent(check_P3_via_chart) == []
