"""Families of data on which a verdict route is known to be wrong.

Each family is rebuilt here as ROADMAP.md describes it.  A route that is
right on the whole family is a plain test; a route that is known to miss
part of it is a strict xfail whose reason names the ROADMAP item, so that a
fix flips the marker.  Every test asserts the whole family, not a count of
misses: a partial fix keeps the xfail.
"""

import functools

import pytest

from xnadhm.linalg import RATIONAL, Matrix
from xnadhm.quiver import check_semistable_spectral, embed_xn_as_rep
from xnadhm.xn import ChartData, check_P3_direct, check_P3_via_chart, zeta_inverse


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


def _spectral(d):
    return check_semistable_spectral(embed_xn_as_rep(d)).to_bool()


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
