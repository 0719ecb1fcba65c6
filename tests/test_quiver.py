"""Framed representations: relations, semistability, the exhaustive oracle,
framing residuals and the moment comparison."""

import gc
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from xnadhm import linalg, quiver
from xnadhm.campaigns import load_bruteforce_fixtures
from xnadhm.errors import (IndexOutOfRange, InvalidInput, NonzeroFraming,
                           ShapeMismatch, TooLarge, UnsupportedBackend)
from xnadhm.linalg import (COMPLEX, GF, RATIONAL, Matrix, hstack, inverse,
                           rank, residual, vstack)
from xnadhm.xn import XnADHM, check_P1, check_P3_via_chart, from_xn_points
from xnadhm.quiver import (
    FramedRep,
    Verdict,
    brute_force_semistable,
    check_relations,
    check_semistable_spectral,
    count_subspaces,
    embed_xn_as_rep,
    gaussian_binomial,
    moment_residual_n2,
    project_rep,
    relation_defects,
    standard_theta,
    subspace_bases,
    theta_slope,
    u_m_residual,
)
from xnadhm.sampling import (
    random_free_rep,
    random_rep,
    random_xn,
    random_xn_e_zero,
    rng_from_seed,
)
from xnadhm.serialize import rep_from_json


def zero_rep(n, c, e_val=1, backend=COMPLEX):
    Z = Matrix.zeros(c, c, backend)
    e = Matrix.from_rows([[e_val] + [0] * (c - 1)], backend)
    f = tuple(Matrix.zeros(c, 1, backend) for _ in range(n - 1))
    return FramedRep(n, c, c, 1, Z, Z, (Z,) * n, e, f)


def _unequal_rep():
    """The zero representation of n = 2, v0 = 2, v1 = 3, w = 1."""
    A, C = Matrix.zeros(3, 2), Matrix.zeros(2, 3)
    return FramedRep(2, 2, 3, 1, A, A, (C, C), Matrix.zeros(1, 2),
                     (Matrix.zeros(2, 1),))


#: one malformed block of ``_unequal_rep`` and the refusal it meets
_MALFORMED_REPS = {
    "backend": ({"e": Matrix.zeros(1, 2, RATIONAL)},
                "blocks on different backends"),
    "C count": ({"C": (Matrix.zeros(2, 3),)}, "expected 2 C-blocks"),
    "f count": ({"f": ()}, "expected 1 f-blocks"),
    "A1": ({"A1": Matrix.zeros(2, 3)}, "A1 must be v1 x v0"),
    "A2": ({"A2": Matrix.zeros(2, 3)}, "A2 must be v1 x v0"),
    "C block": ({"C": (Matrix.zeros(2, 3), Matrix.zeros(3, 2))},
                "C blocks must be v0 x v1"),
    "e": ({"e": Matrix.zeros(1, 3)}, "e must be w x v0"),
    "f block": ({"f": (Matrix.zeros(1, 2),)}, "f blocks must be v0 x w"),
}


@pytest.mark.parametrize("case", list(_MALFORMED_REPS))
def test_framed_rep_refuses_a_malformed_block(case):
    blocks, message = _MALFORMED_REPS[case]
    with pytest.raises(ShapeMismatch) as raised:
        replace(_unequal_rep(), **blocks)
    assert str(raised.value) == message


@pytest.mark.parametrize("n", [0, -1])
def test_framed_rep_refuses_n_below_one(n):
    """As ``XnADHM`` and ``MonadCoeffs`` do: an n = 0 representation used to
    be built and then fail in numpy, with a ``ValueError``."""
    Z = Matrix.zeros(1, 1)
    with pytest.raises(IndexOutOfRange, match=f"n = {n} must be >= 1"):
        FramedRep(n, 1, 1, 1, Z, Z, (), Matrix.row_vector([1.0]), ())


#: a routine that needs dimensions its representation lacks, and the
#: message of the ``ShapeMismatch`` it raises
_DIMENSION_REFUSALS = {
    "spectral check at v0 != v1": (
        lambda: check_semistable_spectral(_unequal_rep()),
        "spectral check needs v0 = v1 and w = 1"),
    "u_m at v0 != v1": (lambda: u_m_residual(_unequal_rep(), 0),
                        "u_m needs v0 = v1"),
    "moment residual at n = 3": (lambda: moment_residual_n2(zero_rep(3, 2)),
                                 "moment comparison is specific to n = 2"),
    "projection at v0 != v1": (lambda: project_rep(_unequal_rep()),
                               "projection needs v0 = v1 and w = 1"),
}


@pytest.mark.parametrize("case", list(_DIMENSION_REFUSALS))
def test_routines_refuse_representations_of_other_dimensions(case):
    call, message = _DIMENSION_REFUSALS[case]
    with pytest.raises(ShapeMismatch) as raised:
        call()
    assert str(raised.value) == message


# ---------------------------------------------------------------------------
# relations and slope
# ---------------------------------------------------------------------------

def test_relations_zero_rep():
    assert check_relations(zero_rep(3, 2))


def test_relations_match_P1_at_zero_framing():
    rng = rng_from_seed(1)
    for _ in range(10):
        d = random_xn(rng, int(rng.integers(1, 5)), int(rng.integers(1, 4)))
        assert check_relations(embed_xn_as_rep(d))


def _exact_matrix(rng, rows, cols, backend):
    """Small random entries: fractions p/q over RATIONAL, residues over GF(p)."""
    if backend is RATIONAL:
        return Matrix.from_rows(
            [[Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
              for _ in range(cols)] for _ in range(rows)], backend)
    return Matrix.from_rows(rng.integers(0, 5, (rows, cols)).tolist(), backend)


def test_relations_equal_P1_verdicts_on_raw_data():
    # with zero framing the two checkers are the same condition, on valid
    # and invalid data alike, on floats, rationals and GF(5)
    from xnadhm.sampling import random_matrix
    from xnadhm.xn import XnADHM, check_P1

    rng = rng_from_seed(99)
    for trial in range(160):
        c = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        bk = (COMPLEX, RATIONAL, GF(5), COMPLEX)[trial % 4]
        if bk is COMPLEX and trial % 8 == 0:
            d = random_xn(rng, n, c)
        elif bk is COMPLEX:
            d = XnADHM(n, c, random_matrix(rng, c, c), random_matrix(rng, c, c),
                       tuple(random_matrix(rng, c, c) for _ in range(n)),
                       random_matrix(rng, 1, c))
        elif trial % 8 < 4:
            pts = [(z, int(rng.integers(-4, 5))) for z in range(c)]
            d = from_xn_points(n, 0, pts, RATIONAL).cast(bk)
        else:
            d = XnADHM(n, c, *(_exact_matrix(rng, c, c, bk) for _ in range(2)),
                       [_exact_matrix(rng, c, c, bk) for _ in range(n)],
                       _exact_matrix(rng, 1, c, bk))
        r = embed_xn_as_rep(d)
        assert check_relations(r) == check_P1(d)
        # matrix-by-matrix: with f = 0 the relation defects are the chain
        # defects of the configuration data, entry for entry
        from xnadhm.quiver import relation_defects

        defects = relation_defects(r)
        if n == 1:
            want = [d.A1 @ d.C[0] @ d.A2 - d.A2 @ d.C[0] @ d.A1]
        else:
            want = []
            for q in range(n - 1):
                want.append(d.A1 @ d.C[q] - d.A2 @ d.C[q + 1])
                want.append(d.C[q] @ d.A1 - d.C[q + 1] @ d.A2)
        assert len(defects) == len(want)
        for D, W in zip(defects, want):
            assert D.backend == W.backend == bk
            assert D.entries.tolist() == W.entries.tolist()


def test_relations_framed_defect():
    c = 1
    Z = Matrix.zeros(c, c)
    f = Matrix.from_rows([[1.0]])
    e = Matrix.from_rows([[1.0]])
    r = FramedRep(2, c, c, 1, Z, Z, (Z, Z), e, (f,))
    assert not check_relations(r)     # f1 e != 0 while everything else is 0


def test_theta_slope():
    theta = standard_theta(3)
    assert theta == (6, -5)
    assert theta_slope(theta, (0, 0)) == 0
    for k in range(1, 4):
        assert theta_slope(theta, (k, k)) == k
    assert theta_slope(theta, (0, 1)) < 0


# ---------------------------------------------------------------------------
# spectral semistability
# ---------------------------------------------------------------------------

def test_spectral_valid_embedding():
    rng = rng_from_seed(2)
    d = random_xn(rng, 2, 2)
    assert check_semistable_spectral(embed_xn_as_rep(d)) is Verdict.SEMISTABLE


def test_spectral_reads_framing_within_tol_as_zero():
    # f = 1e-12 is inside the default tolerance but not zero: (P1) and the
    # pencil decide, as they do for the same data at f = 0
    d = random_xn(rng_from_seed(2), 3, 2)
    r = embed_xn_as_rep(d)
    small = replace(r, f=(Matrix.zeros(2, 1),
                          Matrix.from_rows([[1e-12], [-1e-12]])))
    assert check_relations(small) and small.f[1].entries.any()
    assert check_semistable_spectral(small) is Verdict.SEMISTABLE
    assert check_semistable_spectral(r) is Verdict.SEMISTABLE


def test_spectral_zero_frame_fails():
    rng = rng_from_seed(3)
    d = random_xn_e_zero(rng, 2, 2)
    assert check_semistable_spectral(embed_xn_as_rep(d)) is Verdict.UNSTABLE


def test_spectral_framed_regular_fails():
    rng = rng_from_seed(4)
    r = random_rep(rng, 3, 2, framed=True)
    assert check_semistable_spectral(r) is Verdict.UNSTABLE


def test_spectral_indeterminate_case():
    # zero maps with nonzero framing block: relations hold only with e = 0,
    # the pencil is singular, and the spectral route refuses to guess
    c = 1
    Z = Matrix.zeros(c, c)
    r = FramedRep(2, c, c, 1, Z, Z, (Z, Z), Matrix.zeros(1, c),
                  (Matrix.from_rows([[1.0]]),))
    assert check_relations(r)
    assert check_semistable_spectral(r) is Verdict.INDETERMINATE
    with pytest.raises(InvalidInput):
        check_semistable_spectral(r).to_bool()


def test_spectral_rejects_relation_violation():
    c = 1
    ident = Matrix.identity(c)
    r = FramedRep(2, c, c, 1, ident, ident, (ident, Matrix.zeros(c, c)),
                  Matrix.row_vector([1.0]), (Matrix.zeros(c, 1),))
    with pytest.raises(InvalidInput):
        check_semistable_spectral(r)


def test_spectral_verdict_at_zero_framing_forms_the_defects_once(monkeypatch):
    """With every f exactly 0, (P1) reads the (Q1) defects: one
    ``_chain_defects`` call per verdict, through ``xn`` and ``quiver``
    alike, for n = 1 and n >= 2, on every backend; over GF(5), where the
    spectral route decides only a singular pencil, at the zero
    representation."""
    from xnadhm import xn

    calls = []
    defects = xn._chain_defects

    def counted(*args):
        calls.append(args)
        return defects(*args)

    monkeypatch.setattr(xn, "_chain_defects", counted)
    monkeypatch.setattr(quiver, "_chain_defects", counted)
    rng = rng_from_seed(29)
    points = [(1, 2), (3, -1), (Fraction(1, 3), 4)]
    for backend in (COMPLEX, RATIONAL, GF(5)):
        for n in (1, 3):
            want = Verdict.SEMISTABLE
            if backend is COMPLEX:
                r = random_rep(rng, n, 3)
            elif backend is RATIONAL:
                r = embed_xn_as_rep(from_xn_points(n, 0, points, backend))
            else:
                r, want = zero_rep(n, 3, backend=backend), Verdict.UNSTABLE
            calls.clear()
            assert check_semistable_spectral(r) is want
            assert len(calls) == 1, (backend, n)


def test_exact_spectral_verdict_at_zero_framing_tests_the_defects_once(
        monkeypatch):
    """With every f exactly 0, an exact verdict takes (P1) from the (Q1)
    test of the same defects, which are all 0: one ``_chain_holds`` call
    on the rationals; floats read (P1) again at the C stack's scale, a
    second call.  The verdicts are those of the data."""
    calls = []
    holds = quiver._chain_holds

    def counted(*args):
        calls.append(args)
        return holds(*args)

    monkeypatch.setattr(quiver, "_chain_holds", counted)
    for backend, want in ((RATIONAL, 1), (COMPLEX, 2)):
        for n in (1, 3):
            d = from_xn_points(n, 0, [(0, 1), (2, -1)], backend)
            for data, verdict in ((d, Verdict.SEMISTABLE),
                                  (replace(d, e=Matrix.zeros(1, 2, backend)),
                                   Verdict.UNSTABLE)):
                calls.clear()
                assert check_semistable_spectral(
                    embed_xn_as_rep(data)) is verdict
                assert len(calls) == want, (backend, n)


def _spectral_by_check_P1(r, tol):
    """``check_semistable_spectral`` as it decided before the f = 0 branch
    read (P1) from the (Q1) defects: ``check_relations``, then
    ``check_P1`` on its own products."""
    from xnadhm.xn import _pencil_step, check_P2

    if not check_relations(r, tol):
        raise InvalidInput("relations (Q1) fail; not a representation")
    d = XnADHM(r.n, r.v0, r.A1, r.A2, r.C, r.e)
    if all(f.is_zero(tol) for f in r.f):
        ok = ((d.backend.exact or check_P1(d, tol))
              and all(_pencil_step(d, tol)))
        return Verdict.SEMISTABLE if ok else Verdict.UNSTABLE
    if check_P2(d, tol):
        return Verdict.UNSTABLE
    return Verdict.INDETERMINATE


def _verdict_or_error(check, r, tol):
    try:
        return check(r, tol)
    except InvalidInput:
        return InvalidInput


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
def test_spectral_verdict_equals_the_check_P1_route(tol):
    """Valid, e = 0 and framed float representations, each also with a
    frame 10^3 times larger and a C block moved by 0.01, 1 and 100 times
    tol: (P1) read from the (Q1) defects decides as ``check_P1`` did,
    including where (Q1) holds at the scale of e and (P1) fails at its
    own."""
    rng = rng_from_seed(2029)
    seen = set()
    p1_alone_fails = 0
    for trial in range(60):
        n, c = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        kind = trial % 3
        if kind == 0:
            r = embed_xn_as_rep(random_xn(rng, n, c))
        elif kind == 1:
            r = embed_xn_as_rep(random_xn_e_zero(rng, n, c))
        else:
            r = random_rep(rng, n, c, framed=True)
        for step in (0.0, 1e-2, 1.0, 1e2):
            C0 = r.C[0].entries + step * tol
            for e in (r.e, r.e.scale(1e3)):
                moved = replace(r, C=(Matrix.from_numpy(C0), *r.C[1:]), e=e)
                want = _verdict_or_error(_spectral_by_check_P1, moved, tol)
                got = _verdict_or_error(check_semistable_spectral, moved,
                                        tol)
                assert got == want, (trial, step)
                seen.add(want)
                # valid data moved within the (Q1) scale but not (P1)'s
                p1_alone_fails += kind == 0 and want is Verdict.UNSTABLE
    assert seen == {Verdict.SEMISTABLE, Verdict.UNSTABLE, InvalidInput}
    assert p1_alone_fails


def test_kernel_intersection_invariant():
    # semistable representations have ker A1 meet ker A2 trivially
    rng = rng_from_seed(5)
    for _ in range(10):
        d = random_xn(rng, int(rng.integers(1, 4)), int(rng.integers(1, 5)))
        assert rank(vstack(d.A1, d.A2)) == d.c


# ---------------------------------------------------------------------------
# framing residual u_m
# ---------------------------------------------------------------------------

def test_um_zero_framing():
    rng = rng_from_seed(6)
    r = random_rep(rng, 3, 2)
    assert u_m_residual(r, 0).is_zero()


def test_um_n2_is_f1():
    rng = rng_from_seed(7)
    r = random_rep(rng, 2, 2, framed=True)
    for m in range(3):
        assert residual(u_m_residual(r, m), r.f[0]) < 1e-12


def test_um_requires_n_ge_2():
    rng = rng_from_seed(8)
    with pytest.raises(InvalidInput):
        u_m_residual(random_rep(rng, 1, 2), 0)


def test_um_bridge_identity():
    # on any relation-satisfying representation, the chart commutator is the
    # rank-one matrix u_m e: the bridge between the quiver relations and the
    # plane ADHM equation with framing
    from xnadhm.linalg import inverse, is_invertible
    from xnadhm.sampling import random_framed_rep
    from xnadhm.xn import XnADHM, chart_matrices

    rng = rng_from_seed(88)
    for _ in range(15):
        n = int(rng.integers(2, 5))
        c = int(rng.integers(1, 5))
        r = random_framed_rep(rng, n, c)
        d = XnADHM(r.n, r.v0, r.A1, r.A2, r.C, r.e)
        for m in range(c + 1):
            A1m, A2m, Em, _ = chart_matrices(d, m)
            if not is_invertible(A2m):
                continue
            B = inverse(A2m) @ A1m
            lhs = B @ Em - Em @ B
            rhs = u_m_residual(r, m) @ r.e
            s = max(1.0, B.maxnorm() * Em.maxnorm())
            assert residual(lhs, rhs) <= 1e-9 * s, (n, c, m)


# ---------------------------------------------------------------------------
# moment comparison at n = 2
# ---------------------------------------------------------------------------

def test_moment_zero_rep():
    assert moment_residual_n2(zero_rep(2, 2)).norm() == 0


def test_moment_equals_relation_defect():
    rng = rng_from_seed(9)
    for _ in range(20):
        r = random_free_rep(rng, 2, int(rng.integers(1, 5)))
        mres = moment_residual_n2(r)
        d1, d2 = relation_defects(r)
        assert residual(mres.mu1, -d1) <= 1e-12
        assert residual(mres.mu0, d2) <= 1e-12


def test_moment_vanishes_on_relations():
    rng = rng_from_seed(10)
    for _ in range(10):
        r = random_rep(rng, 2, int(rng.integers(1, 5)))
        s = max(1.0, r.A1.maxnorm() * r.C[0].maxnorm())
        assert moment_residual_n2(r).norm() <= 1e-10 * s


# ---------------------------------------------------------------------------
# embedding / projection
# ---------------------------------------------------------------------------

def test_embed_project_roundtrip():
    rng = rng_from_seed(11)
    d = random_xn(rng, 3, 2)
    r = embed_xn_as_rep(d)
    back = project_rep(r)
    assert back == d


def test_project_rejects_nonzero_framing():
    rng = rng_from_seed(12)
    r = random_rep(rng, 2, 2, framed=True)
    with pytest.raises(NonzeroFraming):
        project_rep(r)


# ---------------------------------------------------------------------------
# prime-field enumeration
# ---------------------------------------------------------------------------

def test_gaussian_binomial_counts():
    assert gaussian_binomial(2, 1, 5) == 6
    assert gaussian_binomial(3, 1, 5) == 31
    assert count_subspaces(2, 5) == 8
    assert count_subspaces(3, 5) == 64


def test_gaussian_binomial_outside_the_range_of_k_is_zero():
    for n, k in ((3, -1), (3, 4), (0, 1), (-2, 0)):
        assert gaussian_binomial(n, k, 5) == 0
    assert gaussian_binomial(0, 0, 5) == 1


def test_gaussian_binomial_rejects_p_below_two():
    for p in (1, 0, -3):
        with pytest.raises(InvalidInput, match="p >= 2"):
            gaussian_binomial(2, 1, p)


def test_count_subspaces_over_a_non_prime_raises_unsupported_backend():
    # p = 1 used to divide by zero; 0, 4 and -3 returned 3, 7 and 0
    for p in (1, 0, 4, -3):
        with pytest.raises(UnsupportedBackend, match="not prime"):
            count_subspaces(2, p)


def _point_set(S, p):
    """The vectors of the span of S over GF(p), as a frozenset of tuples."""
    return frozenset(
        tuple(sum(a * x for a, x in zip(coeffs, row)) % p
              for row in S.entries.tolist())
        for coeffs in product(range(p), repeat=S.cols))


def _is_reduced_column_echelon(S):
    """Each column's first nonzero entry is a 1 in a row where every other
    column vanishes, and these pivot rows increase from column to column."""
    pivots = []
    for col in S.entries.T.tolist():
        nonzero = [i for i, x in enumerate(col) if x != 0]
        if not nonzero or col[nonzero[0]] != 1:
            return False
        pivots.append(nonzero[0])
    return (pivots == sorted(set(pivots))
            and all(S[i, j] == (j == k) for k, i in enumerate(pivots)
                    for j in range(S.cols)))


def test_subspace_enumeration_complete():
    for d, p in ((2, 3), (3, 2), (3, 3), (2, 5)):
        bases = list(subspace_bases(d, p))
        assert len(bases) == count_subspaces(d, p)
        assert len({_point_set(S, p) for S in bases}) == len(bases)
        for S in bases:
            assert S.backend == GF(p) and S.rows == d
            assert all(x in range(p) for x in S.entries.flat)
            assert _is_reduced_column_echelon(S)


def test_cached_lattice_equals_the_uncached_enumeration():
    """For d <= 4 over GF(2), GF(3) and GF(5) the cached lattice is the
    enumeration itself, basis by basis: same order, entries, entry types
    and backend."""
    for d, p in product(range(5), (2, 3, 5)):
        cached = list(subspace_bases(d, p))
        fresh = quiver._subspace_lattice.__wrapped__(d, p)
        assert len(cached) == len(fresh) == count_subspaces(d, p)
        for S, T in zip(cached, fresh):
            assert S.backend == T.backend == GF(p)
            assert S.entries.shape == T.entries.shape == (S.rows, S.cols)
            assert S.entries.dtype == T.entries.dtype
            assert S.entries.tolist() == T.entries.tolist()
            assert ({type(x) for x in S.entries.flat}
                    == {type(x) for x in T.entries.flat})


def test_lattice_is_built_once_and_read_only():
    first = list(subspace_bases(3, 5))
    info = quiver._subspace_lattice.cache_info()
    second = list(subspace_bases(3, 5))
    assert len(first) == len(second) == 64
    assert all(S is T for S, T in zip(first, second))
    assert quiver._subspace_lattice.cache_info().hits == info.hits + 1
    assert quiver._subspace_lattice.cache_info().misses == info.misses
    assert not any(S.entries.flags.writeable for S in first)


def test_lattice_above_the_budget_is_streamed_and_not_cached():
    assert count_subspaces(12, 2) > quiver.SUBSPACE_BUDGET
    info = quiver._subspace_lattice.cache_info()
    zero = next(subspace_bases(12, 2))
    assert (zero.rows, zero.cols, zero.backend) == (12, 0, GF(2))
    assert quiver._subspace_lattice.cache_info() == info


def test_bruteforce_raises_too_large_before_caching(monkeypatch):
    info = quiver._subspace_lattice.cache_info()
    with monkeypatch.context() as patch:
        patch.setattr(quiver, "SUBSPACE_BUDGET", 100)
        with pytest.raises(TooLarge):
            brute_force_semistable(zero_rep(1, 3, backend=GF(7)))
    with pytest.raises(TooLarge):
        brute_force_semistable(zero_rep(1, 12, backend=GF(2)))
    assert quiver._subspace_lattice.cache_info() == info


def test_bruteforce_runs_at_exactly_the_budget(monkeypatch):
    """A lattice of exactly ``SUBSPACE_BUDGET`` subspaces is enumerated;
    one more than the budget raises ``TooLarge``."""
    r = zero_rep(1, 2, backend=GF(5))
    monkeypatch.setattr(quiver, "SUBSPACE_BUDGET", count_subspaces(2, 5))
    assert brute_force_semistable(r) is False
    monkeypatch.setattr(quiver, "SUBSPACE_BUDGET", count_subspaces(2, 5) - 1)
    with pytest.raises(TooLarge):
        brute_force_semistable(r)


def test_exact_chart_P3_agrees_with_enumeration_over_prime_fields():
    """Over GF(3), GF(5) and GF(7), ``check_P3_via_chart`` of native
    ``from_xn_points`` data at every integer chart, c = 1..3 and n = 1..3,
    equals ``brute_force_semistable`` of the embedded representation: every
    configuration of distinct points is semistable and its e = 0 violator
    is not."""
    rng = rng_from_seed(36)
    verdicts = []
    for p in (3, 5, 7):
        bk = GF(p)
        for c in (1, 2, 3):
            for n in (1, 2, 3):
                for m in (0, (c + 1) // 2) if c % 2 else (0,):
                    for _ in range(2):
                        cells = rng.choice(p * p, size=c, replace=False)
                        d = from_xn_points(n, m, [(int(k) // p, int(k) % p)
                                                  for k in cells], bk)
                        for data in (d, replace(d, e=Matrix.zeros(1, c, bk))):
                            want = brute_force_semistable(embed_xn_as_rep(data))
                            assert check_P3_via_chart(data) is want
                            verdicts.append(want)
    assert verdicts == [True, False] * 90


def test_subspace_bases_of_negative_dimension_raise_shape_mismatch():
    info = quiver._subspace_lattice.cache_info()
    with pytest.raises(ShapeMismatch, match="negative dimensions"):
        subspace_bases(-1, 5)
    assert quiver._subspace_lattice.cache_info() == info


def test_subspace_bases_over_a_non_prime_raise_unsupported_backend():
    # p = 1 would divide by zero in count_subspaces
    info = quiver._subspace_lattice.cache_info()
    for p in (1, 4):
        with pytest.raises(UnsupportedBackend, match="not prime"):
            subspace_bases(2, p)
    assert quiver._subspace_lattice.cache_info() == info


def test_count_subspaces_of_negative_dimension_raises_shape_mismatch():
    with pytest.raises(ShapeMismatch, match="negative dimensions"):
        count_subspaces(-1, 5)


def _random_gf(rng, p, rows, cols):
    return Matrix(rows, cols, [int(x) for x in rng.integers(0, p, rows * cols)],
                  GF(p))


def test_span_and_preimage_bases_are_reduced_column_echelon():
    rng = rng_from_seed(17)
    for trial in range(60):
        p = (2, 3, 5)[trial % 3]
        d = int(rng.integers(1, 4))
        M = _random_gf(rng, p, d, int(rng.integers(0, 5)))
        S = quiver._echelon_basis(*linalg._rref(M.entries.T, GF(p)), d,
                                  GF(p))
        assert _is_reduced_column_echelon(S)
        assert S.rows == d and S.cols == rank(M) == rank(hstack(S, M))
        S0 = list(subspace_bases(d, p))[int(rng.integers(count_subspaces(d, p)))]
        Cs = [_random_gf(rng, p, d, d) for _ in range(int(rng.integers(1, 3)))]
        S1 = quiver._preimage(Cs, S0)
        assert _is_reduced_column_echelon(S1)
        # S1 is the whole common preimage: the vectors v with C v in S0
        # for every C, counted one by one
        span0 = _point_set(S0, p)
        preimage = {v for v in product(range(p), repeat=d)
                    if all(tuple((C @ Matrix.col_vector(v, GF(p))).entries.flat)
                           in span0 for C in Cs)}
        assert preimage == _point_set(S1, p)


def test_echelon_containment_matches_rank_criterion():
    """``_contains`` against the elimination test it replaces: M lies in
    the span of the basis S exactly when rank(S | M) = dim S."""
    rng = rng_from_seed(23)
    outcomes = set()
    for trial in range(300):
        p = (2, 3, 5)[trial % 3]
        d = int(rng.integers(1, 5))
        bases = list(subspace_bases(d, p))
        S = bases[int(rng.integers(len(bases)))]
        # columns of M: in the span, random or zero; up to S.cols + 3 of them
        cols = []
        for _ in range(int(rng.integers(0, S.cols + 4))):
            kind = rng.integers(3)
            if kind == 0 and S.cols:
                cols.append(S @ _random_gf(rng, p, S.cols, 1))
            elif kind == 1:
                cols.append(_random_gf(rng, p, d, 1))
            else:
                cols.append(Matrix.zeros(d, 1, GF(p)))
        M = hstack(*cols) if cols else Matrix.zeros(d, 0, GF(p))
        want = rank(hstack(S, M)) == S.cols
        assert quiver._contains(S.entries, M.entries, GF(p)) == want, trial
        outcomes.add((want, S.cols == 0, M.cols > S.cols))
    assert {want for want, *_ in outcomes} == {True, False}
    assert (True, True, False) in outcomes and (False, True, True) in outcomes
    assert (True, False, True) in outcomes and (False, False, True) in outcomes


def test_bruteforce_zero_rep_c1():
    # hand enumeration: the pair (F_p, 0) is invariant for zero maps and
    # violates the covolume condition
    assert not brute_force_semistable(zero_rep(2, 1, e_val=1, backend=GF(5)))


def test_bruteforce_scalar_regular():
    gf = GF(5)
    one = Matrix.from_rows([[1]], gf)
    zero = Matrix.zeros(1, 1, gf)
    r = FramedRep(1, 1, 1, 1, one, zero, (zero,), one, ())
    assert brute_force_semistable(r)


def test_bruteforce_requires_prime_field():
    with pytest.raises(UnsupportedBackend):
        brute_force_semistable(zero_rep(1, 1))


def test_bruteforce_budget(monkeypatch):
    # the budget is read when the check runs
    monkeypatch.setattr(quiver, "SUBSPACE_BUDGET", 10)
    with pytest.raises(TooLarge, match="^1120 subspaces of V0 exceed the "
                       "budget 10$"):
        brute_force_semistable(zero_rep(1, 4, backend=GF(5)))


def test_casts_hold_no_tuple_blocks():
    # tuple(generator) leaves one allocator block per tuple in CPython's free
    # lists until a full collection: 2,000 casts to GF(5) held about 4,000
    # blocks that way; built from lists they hold a few dozen
    reps = [embed_xn_as_rep(from_xn_points(
        n, 0, [(q, 2 * q + 1) for q in range(c)], RATIONAL))
        for n in (2, 3, 4, 5) for c in (2, 3)]
    gc.collect()
    before = sys.getallocatedblocks()
    for i in range(2000):
        reps[i % len(reps)].cast(GF(5))
    assert sys.getallocatedblocks() - before < 400


def test_fixture_list_agreement():
    fixtures = load_bruteforce_fixtures()["fixtures"]
    assert len(fixtures) >= 10
    for fx in fixtures:
        r = rep_from_json(fx["rep"])
        assert r.backend == RATIONAL
        assert check_relations(r)
        enumerated = brute_force_semistable(r.cast(GF(fx["p"])))
        spectral = check_semistable_spectral(r).to_bool()
        assert enumerated == spectral == fx["expected"], fx["name"]


def _integer_framed_rep(n, c):
    """An integer framed representation with f1 = e_(c-1) != 0 and a
    regular pencil, so unstable (``sampling.random_framed_rep`` with a = 0,
    b = 1), moved by two unit upper triangular integer base changes."""
    J = Matrix.from_rows([[int(j == i + 1) for j in range(c)]
                          for i in range(c)], RATIONAL)
    Cs = [Matrix.diagonal([0] * (c - 1) + [1], RATIONAL)]
    fs = [Matrix.col_vector([0] * (c - 2) + [1, 0], RATIONAL)]
    for _ in range(n - 1):
        Cs.append(J @ Cs[-1])
    for _ in range(n - 2):
        fs.append(J @ fs[-1])
    phi1, phi2 = (Matrix.from_rows([[1 if i == j else (i + s * j) % 3 - 1
                                     if j > i else 0 for j in range(c)]
                                    for i in range(c)], RATIONAL)
                  for s in (1, 2))
    inv1, inv2 = inverse(phi1), inverse(phi2)
    e = Matrix.row_vector([0] * (c - 1) + [1], RATIONAL)
    return FramedRep(n, c, c, 1, phi2 @ J @ inv1, phi2 @ inv1,
                     tuple(phi1 @ C @ inv2 for C in Cs), e @ inv1,
                     tuple(phi1 @ f for f in fs))


def test_cast_and_spectral_verdict_take_each_integer_form_once(monkeypatch):
    """A rational sample cast to GF(5) for the enumeration and then decided
    spectrally takes the integer form of no array twice: each block keeps
    the form that the cast took, and the (Q1) defects and the pencil's node
    forms read it.  Points data (semistable, and unstable with e = 0) and
    integer framed representations (unstable) alike; the blocks of the
    latter are products, which keep their forms from the start."""
    taken = []
    form = linalg._integer_form

    def counted(arr):
        taken.append(arr)       # held, so no id is reused
        return form(arr)

    monkeypatch.setattr(linalg, "_integer_form", counted)
    points = [(1, 2), (-2, 3), (0, -1)]
    d = from_xn_points(2, 0, points, RATIONAL)
    cases = [(embed_xn_as_rep(d), Verdict.SEMISTABLE),
             (embed_xn_as_rep(XnADHM(d.n, d.c, d.A1, d.A2, d.C,
                                     Matrix.zeros(1, 3, RATIONAL))),
              Verdict.UNSTABLE),
             (embed_xn_as_rep(from_xn_points(1, 0, points, RATIONAL)),
              Verdict.SEMISTABLE)]
    cases += [(_integer_framed_rep(n, c), Verdict.UNSTABLE)
              for n in (2, 3) for c in (2, 3)]
    for k, (r, want) in enumerate(cases):
        taken.clear()
        r.cast(GF(5))
        assert check_semistable_spectral(r) is want
        assert len({id(a) for a in taken}) == len(taken)
        assert (len(taken) > 0) is (k < 3)


def test_spectral_verdict_analyzes_the_pencil_once(monkeypatch):
    from xnadhm import quiver, xn
    from xnadhm.xn import check_P1

    calls = []
    step = xn._pencil_step

    def counted(*args):
        calls.append(args)
        return step(*args)

    monkeypatch.setattr(quiver, "_pencil_step", counted)
    monkeypatch.setattr(xn, "_pencil_step", counted)
    f_zero = 0
    for fx in load_bruteforce_fixtures()["fixtures"]:
        r = rep_from_json(fx["rep"])
        if any(not f.is_zero() for f in r.f):
            continue
        f_zero += 1
        d = XnADHM(r.n, r.v0, r.A1, r.A2, r.C, r.e)
        p1 = check_P1(d)
        calls.clear()
        spectral = check_semistable_spectral(r).to_bool()
        assert spectral == fx["expected"], fx["name"]
        # (P1) fails without touching the pencil
        assert len(calls) == (1 if p1 else 0), fx["name"]
    assert f_zero >= 8
    # random valid and e = 0 data: one analysis each, verdicts as drawn
    rng = rng_from_seed(11)
    for make, expected in ((random_xn, Verdict.SEMISTABLE),
                           (random_xn_e_zero, Verdict.UNSTABLE)):
        for _ in range(3):
            calls.clear()
            r = embed_xn_as_rep(make(rng, 2, 3))
            assert check_semistable_spectral(r) is expected
            assert len(calls) == 1


def _vector_in_span(S, vec):
    if vec.is_zero():
        return True
    if S.cols == 0:
        return False
    return rank(hstack(S, vec)) == rank(S)


def _maps_columns_into(A, S0, S1):
    return all(_vector_in_span(S1, A @ S0.column(j)) for j in range(S0.cols))


def pair_enumeration_semistable(r, theta, ties=None):
    """Reference oracle: test every subspace pair (S0, S1) for closedness,
    one column at a time.  With a set ``ties``, add "zero" for each closed
    pair of slope exactly 0 other than (0, 0), and "full" for each of slope
    exactly theta.(v0, v1) other than (V0, V1): the pairs at the edge of
    ``brute_force_semistable``'s slope bound."""
    p = r.backend.p
    full = theta_slope(theta, (r.v0, r.v1))
    subs1 = list(subspace_bases(r.v1, p))
    for S0 in subspace_bases(r.v0, p):
        e_kills = (r.e @ S0).is_zero() if S0.cols else True
        contains_f = all(
            all(_vector_in_span(S0, f.column(j)) for j in range(f.cols))
            for f in r.f)
        for S1 in subs1:
            if not (_maps_columns_into(r.A1, S0, S1)
                    and _maps_columns_into(r.A2, S0, S1)):
                continue
            if not all(_maps_columns_into(C, S1, S0) for C in r.C):
                continue
            slope = theta_slope(theta, (S0.cols, S1.cols))
            if ties is not None:
                if slope == 0 and (S0.cols, S1.cols) != (0, 0):
                    ties.add("zero")
                if slope == full and (S0.cols, S1.cols) != (r.v0, r.v1):
                    ties.add("full")
            if e_kills and slope > 0:
                return False
            if (contains_f or r.n == 1) and slope > full:
                return False
    return True


def random_gf_rep(rng, p, v0, v1, w, n, density):
    """Unconstrained maps over GF(p); each entry is nonzero with
    probability ``density``."""
    gf = GF(p)

    def block(rows, cols):
        return Matrix(rows, cols, [
            int(rng.integers(1, p)) if rng.random() < density else 0
            for _ in range(rows * cols)], gf)

    return FramedRep(n, v0, v1, w, block(v1, v0), block(v1, v0),
                     tuple(block(v0, v1) for _ in range(n)), block(w, v0),
                     tuple(block(v0, w) for _ in range(n - 1)))


#: None is the default, standard weight theta_c of the representation
CROSS_CHECK_THETAS = [None, (1, -1), (3, -2), (2, -3), (1, 0), (-1, 0),
                      (-2, 1), (1, 1), (-1, 2)]


def test_bruteforce_matches_pair_enumeration():
    rng = rng_from_seed(2024)
    cases = list(product((2, 3, 5), (1, 2, 3)))
    verdicts = set()
    signs = set()
    # the ties met, by whether theta_1 <= 0 (the default theta_c among them)
    ties = {True: set(), False: set()}
    for trial in range(270):
        p, n = cases[trial % len(cases)]
        v0 = int(rng.integers(1, 4))
        v1 = int(rng.integers(1, 4))
        w = int(rng.integers(0, 3))
        density = (0.2, 0.5, 0.9)[trial % 3]
        r = random_gf_rep(rng, p, v0, v1, w, n, density)
        theta = CROSS_CHECK_THETAS[(trial // 3) % len(CROSS_CHECK_THETAS)]
        weight = theta or standard_theta(v0)
        want = pair_enumeration_semistable(r, weight, ties[weight[1] <= 0])
        assert brute_force_semistable(r, theta) == want, (trial, p, theta)
        verdicts.add(want)
        if theta:
            signs.add((theta[1] > 0) - (theta[1] < 0))
    assert verdicts == {True, False}
    assert signs == {-1, 0, 1}
    assert ties == {True: {"zero", "full"}, False: {"zero", "full"}}


def test_bruteforce_c4_points_within_default_budget():
    # c = 4 over GF(5): 1,120 subspaces of V0, where the pair enumeration
    # would need 1,254,400 pairs
    pts = [(0, 0), (1, 2), (2, -1), (-1, 1)]
    d = from_xn_points(2, 0, pts, RATIONAL)
    assert brute_force_semistable(embed_xn_as_rep(d).cast(GF(5)))
    d0 = XnADHM(d.n, d.c, d.A1, d.A2, d.C, Matrix.zeros(1, 4, RATIONAL))
    assert not brute_force_semistable(embed_xn_as_rep(d0).cast(GF(5)))


def _node_order(p):
    """(nu1, nu2) of the pencil nodes nu1 A1 + nu2 A2 that
    ``brute_force_semistable`` tries over GF(p), in order."""
    return [(1, 0)] + [(j, 1) for j in range(p)]


def _reference_node_nullity(r):
    """(nodes tried, least nullity) by ``rank`` of each node Matrix: at most
    min(p + 1, v0 + 1) nodes, stopping at the first of nullity 0."""
    least, tried = r.v0, 0
    for nu1, nu2 in _node_order(r.backend.p)[:r.v0 + 1]:
        tried += 1
        least = min(least, r.v0 - rank(r.A1.scale(nu1) + r.A2.scale(nu2)))
        if least == 0:
            break
    return tried, least


def reference_bruteforce_counts(r, theta):
    """(verdict, eliminations, A1 tests) that ``brute_force_semistable``
    should make at a weight with theta_1 <= 0, from Matrix ranks and
    column-by-column span tests: the node eliminations (theta_1 < 0 only),
    then one elimination for each S0 that has a threshold (ker e gives 0,
    Im f gives theta.(v0, v1), both the smaller) and clears it at the node
    bound theta_0 k + theta_1 max(0, k - least nullity), and one A1 test for
    each of those whose S1 = A1 S0 + A2 S0 clears it too; the first closed
    one ends the run unstable."""
    assert theta[1] <= 0
    full = theta_slope(theta, (r.v0, r.v1))
    tried, least = _reference_node_nullity(r) if theta[1] < 0 else (0, 0)
    eliminations, a1_tests = tried, 0
    for S0 in subspace_bases(r.v0, r.backend.p):
        k = S0.cols
        kills = (r.e @ S0).is_zero() if k else True
        holds = all(_vector_in_span(S0, f.column(j))
                    for f in r.f for j in range(f.cols))
        thresholds = ([0] if kills else []) + ([full] if holds else [])
        if not thresholds:
            continue
        threshold = min(thresholds)
        if theta_slope(theta, (k, max(0, k - least))) <= threshold:
            continue
        eliminations += 1
        S1 = hstack(r.A1 @ S0, r.A2 @ S0)
        s1 = rank(S1) if k else 0
        if theta_slope(theta, (k, s1)) <= threshold:
            continue
        a1_tests += 1
        if all(_maps_columns_into(C, S1, S0) for C in r.C):
            return False, eliminations, a1_tests
    return True, eliminations, a1_tests


def _counting(monkeypatch, r):
    """Count, during the patched calls, ``linalg._rref`` calls and
    ``quiver._maps_into`` calls on r's A1."""
    counts = {"rref": [], "a1": 0}
    rref, maps_into = linalg._rref, quiver._maps_into

    def counted_rref(a, bk):
        counts["rref"].append(a.shape)
        return rref(a, bk)

    def counted_maps_into(A, S0, S1):
        counts["a1"] += A is r.A1
        return maps_into(A, S0, S1)

    monkeypatch.setattr(linalg, "_rref", counted_rref)
    monkeypatch.setattr(quiver, "_maps_into", counted_maps_into)
    return counts


def _singular_node_pencil(rng, n, e_row):
    """A regular pencil over GF(2) whose three nodes are all singular,
    A1 = diag(1, 0, 1) and A2 = diag(0, 1, 1) (det(t A1 + A2) = t (t + 1)),
    with random C blocks and f blocks and the frame ``e_row``."""
    gf = GF(2)

    def block(rows, cols):
        return Matrix(rows, cols, [int(x) for x in
                                   rng.integers(0, 2, size=rows * cols)], gf)

    return FramedRep(n, 3, 3, 1, Matrix.diagonal([1, 0, 1], gf),
                     Matrix.diagonal([0, 1, 1], gf),
                     tuple(block(3, 3) for _ in range(n)),
                     Matrix.from_rows([e_row], gf),
                     tuple(block(3, 1) for _ in range(n - 1)))


def _count_cases():
    """(representation, theta) pairs with theta_1 <= 0 on which the counts
    are pinned: the c = 4 points case and its e = 0 variant over GF(5), the
    singular-node GF(2) pencil at several frames, and random GF(3) data."""
    pts = [(0, 0), (1, 2), (2, -1), (-1, 1)]
    d = from_xn_points(2, 0, pts, RATIONAL)
    d0 = XnADHM(d.n, d.c, d.A1, d.A2, d.C, Matrix.zeros(1, 4, RATIONAL))
    cases = [(embed_xn_as_rep(x).cast(GF(5)), None) for x in (d, d0)]
    rng = rng_from_seed(34)
    for trial in range(12):
        e_row = [(1, 0, 0), (0, 1, 1), (0, 0, 0)][trial % 3]
        r = _singular_node_pencil(rng, 1 + trial % 3, e_row)
        cases.append((r, [None, (1, -1), (2, -3), (1, 0)][trial % 4]))
    for trial in range(12):
        r = random_gf_rep(rng, 3, 3, int(rng.integers(1, 4)), 1,
                          1 + trial % 3, (0.2, 0.5, 0.9)[trial % 3])
        cases.append((r, [None, (3, -2), (1, -1)][trial % 3]))
    return cases


def test_bruteforce_skips_subspaces_at_or_below_the_slope_bound(monkeypatch):
    """Every elimination and every A1 test of the oracle is one that the
    independent reference above expects: the node eliminations, then only
    an S0 that passes the ker e / Im f threshold and the node bound is
    eliminated, and only one whose S1 clears the threshold is tested for
    closure.  On the semistable c = 4 points case the A1 tests are 0 (every
    S0 inside ker e has a candidate of slope at most 0), and after two node
    eliminations (A1 is singular, A2 is not) only the 63 nonzero S0 inside
    the 3-dimensional ker e are eliminated."""
    verdicts, nullities = set(), set()
    for r, theta in _count_cases():
        weight = theta or standard_theta(r.v0)
        want, eliminations, a1_tests = reference_bruteforce_counts(r, weight)
        counts = _counting(monkeypatch, r)
        assert brute_force_semistable(r, theta) == want, (r, theta)
        assert len(counts["rref"]) == eliminations, (r, theta)
        assert counts["a1"] == a1_tests, (r, theta)
        monkeypatch.undo()
        verdicts.add(want)
        nullities.add(_reference_node_nullity(r)[1] > 0)
    assert verdicts == {True, False} and nullities == {True, False}
    r = _count_cases()[0][0]
    assert reference_bruteforce_counts(r, standard_theta(4)) == (True, 65, 0)


def test_bruteforce_with_every_node_singular_matches_pair_enumeration():
    """A regular pencil whose GF(2) nodes are all singular (nullity 1 at
    (1, 0), (0, 1) and (1, 1)), so the node bound is k - 1 rather than k:
    the oracle agrees with the pair enumeration at weights on both sides
    of theta_1 = 0, framed and unframed."""
    rng = rng_from_seed(3402)
    verdicts = set()
    for trial in range(60):
        e_row = [(1, 0, 0), (0, 1, 1), (1, 1, 1), (0, 0, 0)][trial % 4]
        r = _singular_node_pencil(rng, 1 + trial % 3, e_row)
        assert _reference_node_nullity(r) == (3, 1)
        theta = CROSS_CHECK_THETAS[trial % len(CROSS_CHECK_THETAS)]
        want = pair_enumeration_semistable(r, theta or standard_theta(3))
        assert brute_force_semistable(r, theta) == want, (trial, theta)
        verdicts.add(want)
    assert verdicts == {True, False}


def test_bruteforce_over_a_large_prime_caps_the_node_eliminations(
        monkeypatch):
    """v0 = 1 over GF(999983): at most v0 + 1 = 2 of the p + 1 nodes are
    eliminated, with both nodes singular (A1 = A2 = 0) or the first one
    invertible; the verdicts equal the pair enumeration."""
    gf = GF(999983)
    one, zero = Matrix.from_rows([[1]], gf), Matrix.zeros(1, 1, gf)
    for a1, want_nodes in ((zero, 2), (one, 1)):
        for e in (one, zero):
            r = FramedRep(1, 1, 1, 1, a1, zero, (one,), e, ())
            counts = _counting(monkeypatch, r)
            got = brute_force_semistable(r)
            # the node matrices are 1 x 1; the one S0 elimination is 2 x 1
            assert counts["rref"].count((1, 1)) == want_nodes
            monkeypatch.undo()
            assert got == pair_enumeration_semistable(r, standard_theta(1))


def _fraction_block(rng, rows, cols):
    return Matrix(rows, cols, [Fraction(int(p), int(q)) for p, q in
                               zip(rng.integers(-5, 6, size=rows * cols),
                                   rng.integers(1, 8, size=rows * cols))],
                  RATIONAL)


def _expression_defects(r):
    """The (Q1) defects of ``r`` as Matrix expressions."""
    A1, A2, C, f, e = r.A1, r.A2, r.C, r.f, r.e
    if r.n == 1:
        return [A1 @ C[0] @ A2 - A2 @ C[0] @ A1]
    out = []
    for q in range(r.n - 1):
        out.append(A1 @ C[q] - A2 @ C[q + 1])
        out.append(C[q] @ A1 + f[q] @ e - C[q + 1] @ A2)
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rational_relation_defects_match_matrix_expressions(n):
    """``relation_defects``, ``check_relations`` and ``check_P1`` on
    rational data with non-trivial denominators, from one integer
    expression per defect, equal the Matrix-expression defects: on
    gauge-moved point data, which satisfies (Q1) while f = 0, with and
    without f, and on random blocks of unequal dimensions."""
    rng = np.random.default_rng(40 + n)
    seen = set()
    for trial in range(8):
        if trial < 4:
            c = 2 + trial % 2
            d = from_xn_points(n, 0, [(Fraction(k + 1, 3), Fraction(2 - k, 5))
                                      for k in range(c)], RATIONAL)
            g, h = (_fraction_block(rng, c, c) for _ in range(2))
            if rank(g) < c or rank(h) < c:
                continue
            gi, hi = inverse(g), inverse(h)
            A1, A2 = g @ d.A1 @ hi, g @ d.A2 @ hi
            C = [h @ Cq @ gi for Cq in d.C]
            e = d.e @ hi
            v0 = v1 = c
            w = 1
        else:
            v0, v1, w = (int(x) for x in rng.integers(1, 4, size=3))
            A1, A2 = (_fraction_block(rng, v1, v0) for _ in range(2))
            C = [_fraction_block(rng, v0, v1) for _ in range(n)]
            e = _fraction_block(rng, w, v0)
        for framed in (False, True):
            f = [_fraction_block(rng, v0, w) if framed
                 else Matrix.zeros(v0, w, RATIONAL) for _ in range(n - 1)]
            r = FramedRep(n, v0, v1, w, A1, A2, C, e, f)
            want = _expression_defects(r)
            got = relation_defects(r)
            assert got == want
            assert all(type(x) is Fraction for D in got for x in D.entries.flat)
            holds = all(D.is_zero() for D in want)
            assert check_relations(r) is holds
            seen.add(holds)
            if v0 == v1 and w == 1:
                xd = XnADHM(n, v0, A1, A2, C, e)
                p1 = _expression_defects(embed_xn_as_rep(xd))
                assert check_P1(xd) is all(D.is_zero() for D in p1)
    assert seen == {True, False}
