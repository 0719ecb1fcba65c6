"""Plane ADHM triples: commutation, co-stability, point data, base change."""

from dataclasses import replace

import numpy as np
import pytest

from xnadhm import linalg, plane
from xnadhm.errors import (DuplicatePoint, ShapeMismatch, SingularGauge,
                           UnsupportedBackend)
from xnadhm.linalg import (COMPLEX, GF, RATIONAL, Matrix, is_invertible, rank,
                           residual, vstack)
from xnadhm.plane import (
    PlaneADHM,
    check_T1,
    check_T2,
    common_eigenvectors,
    from_plane_points,
    gl_action,
)
from xnadhm.sampling import (
    _separated_values,
    random_costable_triple,
    random_invertible,
    rng_from_seed,
)
from xnadhm.xn import (
    ChartData,
    chart_matrices,
    check_P3_direct,
    check_P3_via_chart,
    cover_chart,
    zeta_inverse,
)


def triple(b1_rows, b2_rows, e_row):
    b1 = Matrix.from_rows(b1_rows)
    return PlaneADHM(b1.rows, b1, Matrix.from_rows(b2_rows),
                     Matrix.row_vector(e_row))


def test_T1_diagonal():
    d = triple([[1, 0], [0, 2]], [[3, 0], [0, 4]], [1, 1])
    # the commutator is exactly 0, which passes the threshold 0 too
    assert check_T1(d) and check_T1(d, tol=0)


def test_T1_noncommuting():
    assert not check_T1(triple([[0, 1], [0, 0]], [[0, 0], [1, 0]], [1, 1]))


def test_T1_scalar_always():
    assert check_T1(triple([[2.5]], [[-1j]], [0]))


def test_common_eigenvectors_diagonal():
    pairs = common_eigenvectors(Matrix.diagonal([1, 2]),
                                Matrix.diagonal([3, 4]))
    assert [(round(z.real), round(w.real), V.cols) for z, w, V in pairs] == [
        (1, 3, 1), (2, 4, 1)]


def test_common_eigenvectors_zero_pair():
    out = common_eigenvectors(Matrix.zeros(2, 2), Matrix.zeros(2, 2))
    assert len(out) == 1
    z, w, V = out[0]
    assert abs(z) < 1e-12 and abs(w) < 1e-12 and V.cols == 2


def test_common_eigenvectors_honour_tol():
    # eigenvalues 0 and 1e-7 form one cluster; its eigenspace and the joint
    # spectrum are read at 10 tol
    b1, b2 = Matrix.diagonal([0, 1e-7]), Matrix.zeros(2, 2)
    [(z, w, V)] = common_eigenvectors(b1, b2, 1e-6)
    assert abs(z) < 1e-6 and abs(w) < 1e-12 and V.cols == 2


def test_common_eigenvectors_keep_close_points_apart():
    """b1 eigenvalues 5e-7 apart lie inside one eigenvalue cluster of b1,
    but the generic combination b1 + t b2 separates the points."""
    pairs = common_eigenvectors(Matrix.diagonal([0, 5e-7]),
                                Matrix.diagonal([1, 2]))
    assert [(z, w, V.cols) for z, w, V in pairs] == [(0, 1, 1), (5e-7, 2, 1)]


def test_common_eigenvectors_limit_of_the_cluster_radius():
    # points within CLUSTER_TOL in both coordinates still merge, and the
    # kernel at their mean is empty at the default tol
    assert common_eigenvectors(Matrix.diagonal([0, 1e-7]),
                               Matrix.zeros(2, 2)) == []


def test_common_eigenvectors_sorted_by_both_coordinates():
    b1 = Matrix.from_rows([[1, 0, 0], [0, 0, 0], [0, 0, 1]])
    b2 = Matrix.diagonal([5, 4, 3])
    pairs = common_eigenvectors(b1, b2)
    assert [(round(z.real), round(w.real)) for z, w, _ in pairs] == [
        (0, 4), (1, 3), (1, 5)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_close_points_read_back_through_the_chart(n):
    from xnadhm.xn import from_xn_points, spectral_witness, to_xn_points

    d = from_xn_points(n, 0, [(0, 1), (5e-7, 2)])
    m, pts = to_xn_points(d, 0)
    assert m == 0 and len(pts) == 2
    for (z, w), want in zip(pts, [(0, 1), (5e-7, 2)]):
        assert abs(z - want[0]) < 1e-12 and abs(w - want[1]) < 1e-12
    v, (l1, l2), (mu1, mu2) = spectral_witness(d)
    assert abs(l1 ** n * mu1 + l2 ** n * mu2) < 1e-9
    assert ((d.A1.scale(l2) + d.A2.scale(l1)) @ v).maxnorm() < 1e-9


def test_common_eigenvectors_conjugation_oracle():
    rng = rng_from_seed(31)
    for _ in range(5):
        c = int(rng.integers(2, 5))
        P = random_invertible(rng, c).to_numpy()
        z_diag = rng.standard_normal(c) + 1j * rng.standard_normal(c)
        w_diag = rng.standard_normal(c) + 1j * rng.standard_normal(c)
        b1 = Matrix.from_numpy(P @ np.diag(z_diag) @ np.linalg.inv(P))
        b2 = Matrix.from_numpy(P @ np.diag(w_diag) @ np.linalg.inv(P))
        pairs = common_eigenvectors(b1, b2)
        key = lambda zw: (zw[0].real, zw[0].imag)
        got = sorted(((z, w) for z, w, _ in pairs), key=key)
        want = sorted(zip(z_diag.tolist(), w_diag.tolist()), key=key)
        assert len(got) == c
        for (gz, gw), (wz, ww) in zip(got, want):
            assert abs(gz - wz) < 1e-8 and abs(gw - ww) < 1e-8
        # recovered vectors really are joint eigenvectors
        for z, w, V in pairs:
            assert (b1 @ V - V.scale(z)).maxnorm() < 1e-8
            assert (b2 @ V - V.scale(w)).maxnorm() < 1e-8


def test_T2_scalar_unit_frame():
    assert check_T2(triple([[0]], [[0]], [1]))


def test_T2_zero_frame_commuting():
    assert not check_T2(triple([[1, 0], [0, 2]], [[0, 0], [0, 0]], [0, 0]))


def test_T2_partial_frame_derived():
    base = ([[1, 0], [0, 2]], [[3, 0], [0, 4]])
    assert not check_T2(triple(*base, [1, 0]))   # e kills the (2,4) eigenvector
    assert check_T2(triple(*base, [1, 1]))


def eigenvector_costable(d, tol=None):
    """Reference for ``check_T2``: the joint-eigenvector test it replaced.
    A joint eigenspace V violates co-stability when rank(e V) < dim V."""
    for _, _, V in common_eigenvectors(d.b1, d.b2, tol):
        if rank(d.e.cast(COMPLEX) @ V, tol) < V.cols:
            return False
    return True


def eigenbasis_pair(rng, c):
    """(b1, b2, V^-1): a commuting pair acting by separated values on the
    columns v_j of a random basis V (drawn with cond <= 1e4, then scaled to
    unit columns), so that the frame e = f V^-1 has e v_j = f[j]."""
    V = random_invertible(rng, c).to_numpy()
    V = V / np.linalg.norm(V, axis=0)
    Vi = np.linalg.inv(V)
    b1 = Matrix.from_numpy(V @ np.diag(_separated_values(rng, c)) @ Vi)
    b2 = Matrix.from_numpy(V @ np.diag(_separated_values(rng, c)) @ Vi)
    return b1, b2, Vi


def framed(b1, b2, f):
    return PlaneADHM(b1.rows, b1, b2, Matrix.from_numpy(np.asarray(f)[None, :]))


def test_T2_matches_the_eigenvector_reference():
    rng = rng_from_seed(11)
    for c in range(1, 7):
        for trial in range(9):
            kind = trial % 3
            f = rng.standard_normal(c) + 1j * rng.standard_normal(c)
            if kind == 1:                           # e = 0
                f[:] = 0
            elif kind == 2:                         # e kills one eigenvector
                f[rng.integers(c)] = 0
            b1, b2, Vi = eigenbasis_pair(rng, c)
            d = framed(b1, b2, f @ Vi)
            for t in (d, gl_action(random_invertible(rng, c), d)):
                assert check_T2(t) == eigenvector_costable(t) == (kind == 0)


@pytest.mark.parametrize("c", range(2, 7))
def test_T2_non_semisimple_pairs(c):
    rng = rng_from_seed(100 + c)
    J = Matrix.from_numpy(np.eye(c, k=1))               # upper shift
    ident = Matrix.identity(c)
    # J e_1 = 0: the one joint eigenvector of (J, J^2) is the first column
    for row, want in ((0, True), (c - 1, False)):
        d = PlaneADHM(c, J, J @ J, ident.submatrix([row], range(c)))
        for t in (d, gl_action(random_invertible(rng, c), d)):
            assert check_T2(t) == eigenvector_costable(t) == want
    # one Jordan block with b2 a polynomial in b1, then two blocks with
    # distinct eigenvalues; the joint eigenvectors are the block heads.  The
    # reference judges only the unmoved pairs: a gauge spreads the Jordan
    # block's eigenvalue by about eps^(1/c), past CLUSTER_TOL, and the
    # eigenvector search then misses the violators (c = 3..6 here)
    z, w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    k = c // 2
    blocks = Matrix.diagonal([z] * k + [w] * (c - k)) + Matrix.from_numpy(
        np.diag([1.0] * (k - 1) + [0.0] + [1.0] * (c - k - 1), 1))
    pairs = (((ident.scale(z) + J,
               ident.scale(w) + J.scale(0.7) - (J @ J).scale(1.3)), [0]),
             ((blocks, blocks @ blocks), [0, k]))
    for (b1, b2), heads in pairs:
        for trial in range(4):
            f = rng.standard_normal(c) + 1j * rng.standard_normal(c)
            if trial % 2:
                f[heads[trial // 2 % len(heads)]] = 0
            d = framed(b1, b2, f)
            moved = gl_action(random_invertible(rng, c), d)
            want = trial % 2 == 0
            assert check_T2(d) == eigenvector_costable(d) == want
            assert check_T2(moved) == want


def test_T2_needs_both_matrices():
    # one matrix alone is not cyclic: the other separates its eigenspace
    zero, diag = Matrix.zeros(3, 3), Matrix.diagonal([1, 2, 3])
    e = Matrix.row_vector([1, 1, 1])
    for b1, b2 in ((zero, diag), (diag, zero), (Matrix.diagonal([1, 1, 2]), diag)):
        d = PlaneADHM(3, b1, b2, e)
        assert check_T2(d) and eigenvector_costable(d)


def test_T2_decides_rational_data_exactly():
    b1 = Matrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 2]], RATIONAL)
    b2 = b1 @ b1
    assert check_T2(PlaneADHM(3, b1, b2, Matrix.row_vector([1, 0, 1], RATIONAL)))
    assert not check_T2(PlaneADHM(3, b1, b2,
                                  Matrix.row_vector([0, 1, 1], RATIONAL)))


def test_T2_on_a_non_commuting_pair_tests_invariant_subspaces():
    # span(v1, v2) is invariant under both and lies in ker e but holds no
    # joint eigenvector; the only one is v3, which e sees
    b1 = Matrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 1]])
    b2 = Matrix.from_rows([[0, 0, 0], [1, 0, 0], [0, 0, 2]])
    d = PlaneADHM(3, b1, b2, Matrix.row_vector([0, 0, 1]))
    assert not check_T1(d)
    assert not check_T2(d) and eigenvector_costable(d)
    assert check_T2(PlaneADHM(3, b1, b2, Matrix.row_vector([1, 0, 1])))


def test_T2_needs_no_eigenvectors(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("check_T2 searched eigenvectors")

    rng = rng_from_seed(12)
    triples = [random_costable_triple(rng, c) for c in (2, 4, 6)]
    want = [eigenvector_costable(d) for d in triples]
    for module in (plane, linalg):
        for name in ("common_eigenvectors", "eigenvalues", "nullspace", "rank"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert [check_T2(d) for d in triples] == want == [True] * 3


#: the conditioning sweep sets |e v| = 10^-k for these k
SWEEP = range(2, 14)


def last_costable(verdicts):
    """The largest k still called co-stable; the verdicts must flip exactly
    once, from co-stable to not, as k grows."""
    assert verdicts[0] and not verdicts[-1]
    assert verdicts == sorted(verdicts, reverse=True)
    return SWEEP[sum(verdicts) - 1]


def test_costability_conditioning_sweep():
    """Diagonal chart data on a random basis (cond <= 1e4), |e v| = 10^-k on
    one unit eigenvector v and |e v_j| = 1 on the others, for c = 2..6 and
    n = 1..3.

    Both routes through ``check_T2`` call 10^-6 co-stable and 10^-11 not
    (most draws flip between 10^-8 and 10^-10; an ill-conditioned basis
    moves the flip earlier), and ``tol`` = 1e-6 moves the flip earlier.
    The joint-eigenvector test flips between 10^-8 and 10^-10, and
    ``check_P3_direct`` between 10^-4 and 10^-8, and earlier at
    ``tol`` = 1e-6.
    """
    rng = rng_from_seed(0)
    for c in range(2, 7):
        for n in range(1, 4):
            b1, b2, Vi = eigenbasis_pair(rng, c)
            phases = np.exp(2j * np.pi * rng.random(c))
            m = int(rng.integers(0, c + 1))
            A2m = random_invertible(rng, c)
            verdicts = {"T2": [], "T2 at 1e-6": [], "reference": [],
                        "chart": [], "direct": [], "direct at 1e-6": []}
            for k in SWEEP:
                d = framed(b1, b2, phases * np.r_[10.0 ** -k, np.ones(c - 1)] @ Vi)
                x = zeta_inverse(ChartData(m, d.b1, d.b2, d.e, A2m), n,
                                 check=False)
                verdicts["T2"].append(check_T2(d))
                verdicts["T2 at 1e-6"].append(check_T2(d, 1e-6))
                verdicts["reference"].append(eigenvector_costable(d))
                verdicts["chart"].append(check_P3_via_chart(x))
                verdicts["direct"].append(check_P3_direct(x))
                verdicts["direct at 1e-6"].append(check_P3_direct(x, 1e-6))
            last = {route: last_costable(v) for route, v in verdicts.items()}
            assert 6 <= last["T2"] <= 10, (c, n, last)
            assert 6 <= last["chart"] <= 10, (c, n, last)
            assert last["T2 at 1e-6"] <= last["T2"] - 1, (c, n, last)
            assert 8 <= last["reference"] <= 9, (c, n, last)
            assert 4 <= last["direct"] <= 7, (c, n, last)
            assert last["direct at 1e-6"] <= last["direct"] - 1, (c, n, last)


def observable_reference(rows, mats, thr):
    """``plane._observable`` without the word-stack certificate: the growth
    loop alone, which decides every verdict."""
    c = rows.shape[1]
    _, s, vh = linalg._svd(rows, full_matrices=False)
    basis = last = vh[s > thr]
    while len(last) and len(basis) < c:
        grown = np.vstack([last @ M for M in mats])
        for _ in range(2):
            grown = grown - (grown @ basis.conj().T) @ basis
        _, s, vh = linalg._svd(grown, full_matrices=False)
        last = vh[s > thr]
        basis = np.vstack((basis, last))
    return len(basis) >= c


def gaussian(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def unit_rank_data(e, b1, b2):
    """``check_T2``'s arguments to ``_observable``."""
    return plane._unit(np.atleast_2d(e)), (plane._unit(b1), plane._unit(b2))


def near_invariant(rng, c, k, delta, scale=1.0):
    """Non-commuting pair scale Q T Q^-1 whose T keep span(e_1..e_k)
    invariant up to delta in their lower-left block, for a random unitary
    Q; the frame f Q^-1 has f_1..f_k = 0, so at delta = 0 the k-dim
    subspace lies in its kernel."""
    Q = np.linalg.qr(gaussian(rng, c, c))[0]
    mats = []
    for _ in range(2):
        T = gaussian(rng, c, c)
        T[k:, :k] *= delta
        mats.append(scale * Q @ T @ Q.conj().T)
    f = gaussian(rng, 1, c)
    f[:, :k] = 0
    return f @ Q.conj().T, tuple(mats)


def rank_cases(rng, c):
    """(kind, rows, mats) at size c for the certificate's agreement test."""
    for k in range(0, 14, 2):
        # separated diagonal data, |e v| = 10^-k on one unit eigenvector
        b1, b2, Vi = eigenbasis_pair(rng, c)
        b1, b2 = b1.to_numpy(), b2.to_numpy()
        f = np.exp(2j * np.pi * rng.random(c)) * np.r_[10.0 ** -k, np.ones(c - 1)]
        yield ("separated", *unit_rank_data(f @ Vi, b1, b2))
    J = np.eye(c, k=1)
    for violate in (False, True, False, True):
        # ROADMAP item 1's Jordan data, gauge-moved; e_1 = 0 is a violator
        z, w = gaussian(rng, 2)
        f = gaussian(rng, c)
        if violate:
            f[0] = 0
        G = random_invertible(rng, c).to_numpy()
        Gi = np.linalg.inv(G)
        yield ("jordan", *unit_rank_data(
            f @ Gi, G @ (z * np.eye(c) + J) @ Gi,
            G @ (w * np.eye(c) + 0.7 * J - 1.3 * J @ J) @ Gi))
    for k in range(1, 13, 2):
        # clustered spectra: every point within 10^-k of one centre
        V = random_invertible(rng, c).to_numpy()
        Vi = np.linalg.inv(V)
        z, w = (gaussian(rng, 1) + 10.0 ** -k * gaussian(rng, c)
                for _ in range(2))
        yield ("clustered", *unit_rank_data(
            gaussian(rng, c) @ Vi, V @ np.diag(z) @ Vi, V @ np.diag(w) @ Vi))
    for k in sorted({1, c - 1}) if c > 1 else [0]:
        for scale in (1e-6, 1e6):
            for j in range(2, 14):
                # non-commuting pairs scaled 10^+-6, k dimensions invariant
                # up to 10^-j
                yield ("non-commuting",
                       *near_invariant(rng, c, k, 10.0 ** -j, scale))
    k = int(rng.integers(1, c)) if c > 1 else 0
    for j in range(0, 16, 3):
        # block-triangular near-invariant subspaces, unit-scaled, with the
        # frame seeing them by 10^-j
        e, mats = near_invariant(rng, c, k, 10.0 ** -j)
        Q = np.linalg.qr(gaussian(rng, c, c))[0]
        e = e + 10.0 ** -j * gaussian(rng, 1, c) @ Q
        yield ("block-triangular", *unit_rank_data(e, *mats))


#: the thresholds of the agreement test, one a decade
RANK_THRESHOLDS = 10.0 ** np.arange(-13, -1)


def certificate_disagreements():
    """Run ``_word_stack_accepts`` and ``_observable`` against the growth
    loop on ``rank_cases`` for c = 1..7 at every ``RANK_THRESHOLDS``; returns
    the (kind, c, thr) where the certificate accepts and the loop rejects,
    those where ``_observable`` differs from the loop, and the count of
    certified accepts."""
    rng = rng_from_seed(20)
    wrong_accepts, wrong_verdicts, certified = [], [], 0
    for c in range(1, 8):
        for kind, rows, mats in rank_cases(rng, c):
            for thr in RANK_THRESHOLDS:
                want = observable_reference(rows, mats, thr)
                accepts = (len(rows) < c and rows.any()
                           and plane._word_stack_accepts(rows, mats, thr))
                certified += bool(accepts)
                if accepts and not want:
                    wrong_accepts.append((kind, c, thr))
                if plane._observable(rows, mats, thr) != want:
                    wrong_verdicts.append((kind, c, thr))
    return wrong_accepts, wrong_verdicts, certified


def test_word_stack_accepts_only_where_the_loop_accepts():
    wrong_accepts, wrong_verdicts, certified = certificate_disagreements()
    assert wrong_accepts == [] and wrong_verdicts == []
    assert certified > 500


def test_a_weakened_certificate_fails_the_agreement_test(monkeypatch):
    """Without its sqrt(N) rho^d factor the bound accepts near-invariant
    subspaces that the loop rejects: the word stack's rows grow by up to
    rho per degree, the loop's unit rows do not."""
    bound = plane._certificate_bound

    def weakened(n_words, d, c, R, rho, thr, s_max):
        return bound(n_words, d, c, R, rho, thr, s_max) / (
            n_words ** 0.5 * rho ** d)

    monkeypatch.setattr(plane, "_certificate_bound", weakened)
    wrong_accepts, wrong_verdicts, _ = certificate_disagreements()
    assert wrong_accepts and wrong_verdicts == wrong_accepts
    assert {kind for kind, _, _ in wrong_accepts} == {"non-commuting"}


def count_svds(monkeypatch):
    """A list that gains an entry at each call of the SVD kernels
    ``linalg._svdvals`` and ``linalg._svd``."""
    calls = []

    def counted(fn):
        def call(*args, **kwargs):
            calls.append(1)
            return fn(*args, **kwargs)
        return call

    for name in ("_svdvals", "_svd"):
        monkeypatch.setattr(linalg, name, counted(getattr(linalg, name)))
    return calls


def test_costable_T2_runs_one_svd(monkeypatch):
    """A generic co-stable triple at c = 2..6 is certified by the word
    stack's one SVD, where the loop alone takes 2-3; a zero frame takes
    none."""
    rng = rng_from_seed(44)
    triples = [random_costable_triple(rng, c) for c in range(2, 7)]
    zero = [PlaneADHM(d.c, d.b1, d.b2, Matrix.zeros(1, d.c)) for d in triples]
    calls = count_svds(monkeypatch)

    def svds(d):
        calls.clear()
        verdict = check_T2(d)
        return verdict, len(calls)

    assert [svds(d) for d in triples] == [(True, 1)] * 5
    assert [svds(d) for d in zero] == [(False, 0)] * 5
    monkeypatch.setattr(plane, "_observable", observable_reference)
    loop = [svds(d) for d in triples]
    assert all(ok and 2 <= n <= 3 for ok, n in loop), loop
    assert [svds(d) for d in zero] == [(False, 1)] * 5


def test_rank_at_the_roots_runs_no_extra_svd(monkeypatch):
    """``_p3_at_roots`` has c + 1 + c rows at each root, so the certificate
    never runs there: it takes the SVDs that the loop alone takes."""
    from xnadhm import xn
    from xnadhm.pencil import analyze_pencil
    from xnadhm.sampling import (random_xn, random_xn_e_zero,
                                 random_xn_kernel_violator)

    rng = rng_from_seed(45)
    cases = []
    for c in range(2, 7):
        for make in (random_xn, random_xn_e_zero, random_xn_kernel_violator):
            d = make(rng, 2, c)
            cases.append((d, analyze_pencil(d.A1, d.A2).eigenvalues))
    calls = count_svds(monkeypatch)

    def svds():
        out = []
        for d, roots in cases:
            calls.clear()
            out.append((xn._p3_at_roots(d, roots), len(calls)))
        return out

    certified = svds()
    monkeypatch.setattr(xn, "_observable", observable_reference)
    assert certified == svds()
    assert [ok for ok, _ in certified] == [True, False, False] * 5


def test_cover_chart_is_scale_free():
    """The sweep's cells at |e v| = 1: every pencil is regular, so some
    chart passes ``is_invertible`` at either tol.  Ranking charts by |det
    A2m| picked a chart with condition number about 2.5e6 on one cell (c =
    4, n = 3) and raised ``NoChart`` at tol = 1e-6."""
    rng = rng_from_seed(0)
    for c in range(2, 7):
        for n in range(1, 4):
            b1, b2, Vi = eigenbasis_pair(rng, c)
            phases = np.exp(2j * np.pi * rng.random(c))
            m = int(rng.integers(0, c + 1))
            A2m = random_invertible(rng, c)
            d = framed(b1, b2, phases @ Vi)
            x = zeta_inverse(ChartData(m, d.b1, d.b2, d.e, A2m), n, check=False)
            for tol in (None, 1e-6):
                chart = cover_chart(x, tol)
                assert is_invertible(chart_matrices(x, chart)[1], tol)
                assert check_P3_via_chart(x, tol)


def test_cover_chart_is_the_pencil_witness_on_the_sweep_cells():
    """The cells of ``test_cover_chart_is_scale_free``, the c = 4, n = 3 one
    included: at either tol the covering chart is the node of the pencil's
    witness, and the float spectrum is taken at its A2m."""
    from xnadhm import linalg
    from xnadhm.pencil import _regularity, analyze_pencil

    rng = rng_from_seed(0)
    for c in range(2, 7):
        for n in range(1, 4):
            b1, b2, Vi = eigenbasis_pair(rng, c)
            phases = np.exp(2j * np.pi * rng.random(c))
            m = int(rng.integers(0, c + 1))
            A2m = random_invertible(rng, c)
            d = framed(b1, b2, phases @ Vi)
            x = zeta_inverse(ChartData(m, d.b1, d.b2, d.e, A2m), n, check=False)
            for tol in (None, 1e-6):
                chart = cover_chart(x, tol)
                witness, P = _regularity(x.A1, x.A2, tol)
                assert witness == linalg._pencil_nodes(c, COMPLEX)[chart]
                assert analyze_pencil(x.A1, x.A2, tol).witness == witness
                assert np.array_equal(P, chart_matrices(x, chart)[1].to_numpy())


def test_T2_decides_prime_field_exactly():
    """Over GF(p) ``check_T2`` is the exact Kalman rank: a nonzero frame of
    a 1 x 1 triple is co-stable and a zero one is not, and two points that
    are distinct over the integers but equal modulo p leave a joint
    eigenvector in ker e, so their residues are not co-stable where the
    integers are.  No verdict depends on ``tol``."""
    gf = GF(5)
    zero = Matrix.zeros(1, 1, gf)
    rational = from_plane_points([(1, 2), (6, 7)], RATIONAL)
    residues = PlaneADHM(2, *(M.cast(gf) for M in (rational.b1, rational.b2,
                                                    rational.e)))
    for d, want in (
            (PlaneADHM(1, zero, zero, Matrix.from_rows([[1]], gf)), True),
            (PlaneADHM(1, zero, zero, Matrix.from_rows([[0]], gf)), False),
            (rational, True), (residues, False)):
        for tol in (0, 1e-9, 10):
            assert check_T2(d, tol) is want


def _word_stack_rank(d):
    """Reference for the exact rank: ``rank`` of every row e w(b1, b2)
    for the words w of degree below c, stacked."""
    level, rows = [d.e], [d.e]
    for _ in range(d.c - 1):
        level = [r @ b for r in level for b in (d.b1, d.b2)]
        rows += level
    return rank(vstack(*rows))


def test_exact_T2_takes_no_float_and_no_fraction(monkeypatch):
    """On RATIONAL and GF(p) ``check_T2`` is the exact Kalman rank alone:
    it calls no LAPACK kernel, neither ``np.linalg.inv`` nor
    ``np.linalg.det`` (the two float calls outside the kernels) and no
    ``_complex_entries``, makes no ``Fraction``, gives one verdict at
    ``tol`` 0, 1e-9 and 10, and that verdict is whether the word stack
    reaches rank c.  The triples are commuting and non-commuting, with
    fractional entries on the rationals, with zero, partial and generic
    frames."""
    from fractions import Fraction

    rng = rng_from_seed(36)
    triples = []
    for bk in (RATIONAL, GF(2), GF(5), GF(7)):
        for c in (1, 2, 3, 4):
            for trial in range(6):
                def draw():
                    nums = rng.integers(-2, 3, (c, c))
                    dens = (rng.integers(1, 4, (c, c)) if bk is RATIONAL
                            else np.ones((c, c), dtype=int))
                    return Matrix.from_rows(
                        [[Fraction(int(x), int(q)) for x, q in zip(*pair)]
                         for pair in zip(nums, dens)], bk)
                b1 = draw()
                b2 = b1 @ b1 if trial % 2 else draw()
                e = [int(x) for x in rng.integers(-1, 2, c)]
                if trial == 4:
                    e = [0] * c
                triples.append(PlaneADHM(c, b1, b2, Matrix.row_vector(e, bk)))
    want = [_word_stack_rank(d) == d.c for d in triples]
    assert 0 < sum(want) < len(want)

    def refuse(*args, **kwargs):
        raise AssertionError("exact data reached a float kernel")

    for name in ("_svdvals", "_svd", "_inv", "_eigvals", "_solve",
                 "_complex_entries"):
        monkeypatch.setattr(linalg, name, refuse)
    for name in ("inv", "det"):
        monkeypatch.setattr(np.linalg, name, refuse)
    made = []
    new = vars(Fraction)["__new__"]

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new.__func__(cls, *args, **kwargs)

    try:
        Fraction.__new__ = staticmethod(counted)
        verdicts = [[check_T2(d, tol) for tol in (0, 1e-9, 10)]
                    for d in triples]
    finally:
        Fraction.__new__ = new
    assert made == []
    assert verdicts == [[w] * 3 for w in want]


#: one malformed block of a c = 2 triple, and the refusal it meets
_MALFORMED_TRIPLES = {
    "b1": ({"b1": Matrix.zeros(2, 3)}, "b1 must be c x c"),
    "b2": ({"b2": Matrix.zeros(3, 2)}, "b2 must be c x c"),
    "e": ({"e": Matrix.col_vector([1, 1])}, "e must be a row c-vector"),
    "backend": ({"e": Matrix.row_vector([1, 1], RATIONAL)},
                "blocks on different backends"),
}


@pytest.mark.parametrize("case", list(_MALFORMED_TRIPLES))
def test_plane_refuses_a_malformed_block(case):
    blocks, message = _MALFORMED_TRIPLES[case]
    d = from_plane_points([(1, 2), (3, 4)])
    with pytest.raises(ShapeMismatch) as raised:
        replace(d, **blocks)
    assert str(raised.value) == message


def test_from_plane_points_single():
    d = from_plane_points([(0, 0)])
    assert d.c == 1 and d.b1.is_zero() and d.b2.is_zero()
    assert d.e[0, 0] == 1


def test_from_plane_points_costable():
    d = from_plane_points([(1, 0), (0, 1)])
    assert check_T1(d) and check_T2(d)


def test_from_plane_points_duplicate():
    with pytest.raises(DuplicatePoint):
        from_plane_points([(1, 1), (1, 1)])


def test_points_spectrum_roundtrip():
    pts = [(0.5 + 0.2j, -1.0 + 0j), (1.5 - 0.4j, 2.0 + 1j), (-2.0 + 0j, 0.25 + 0j)]
    d = from_plane_points(pts)
    got = [(z, w) for z, w, _ in common_eigenvectors(d.b1, d.b2)]
    for (gz, gw), (pz, pw) in zip(got, sorted(pts, key=lambda p: (p[0].real, p[0].imag))):
        assert abs(gz - pz) < 1e-8 and abs(gw - pw) < 1e-8


def test_gl_action_identity_and_scalar():
    rng = rng_from_seed(1)
    d = random_costable_triple(rng, 3)
    same = gl_action(Matrix.identity(3), d)
    assert residual(same.b1, d.b1) < 1e-14 and residual(same.e, d.e) < 1e-14
    half = gl_action(Matrix.identity(3).scale(2), d)
    assert residual(half.b1, d.b1) < 1e-12           # conjugation by scalars
    assert residual(half.e, d.e.scale(0.5)) < 1e-12


def test_gl_action_singular_rejected():
    rng = rng_from_seed(2)
    d = random_costable_triple(rng, 2)
    with pytest.raises(SingularGauge):
        gl_action(Matrix.zeros(2, 2), d)


def test_gl_action_preserves_spectrum_and_verdicts():
    rng = rng_from_seed(3)
    for trial in range(100):
        c = int(rng.integers(1, 5))
        d = random_costable_triple(rng, c)
        if trial % 3 == 1:      # break co-stability
            d = PlaneADHM(c, d.b1, d.b2, Matrix.zeros(1, c))
        elif trial % 3 == 2:    # break commutation
            d = PlaneADHM(c, d.b1,
                          Matrix.from_numpy(rng.standard_normal((c, c))), d.e)
        phi = random_invertible(rng, c)
        moved = gl_action(phi, d)
        if trial % 3 == 0:
            before = common_eigenvectors(d.b1, d.b2)
            after = common_eigenvectors(moved.b1, moved.b2)
            assert len(before) == len(after)
            for (z0, w0, V0), (z1, w1, V1) in zip(before, after):
                assert abs(z0 - z1) < 1e-8 and abs(w0 - w1) < 1e-8
                assert V0.cols == V1.cols
        assert check_T1(moved) == check_T1(d)
        assert check_T2(moved) == check_T2(d)


def test_gl_action_composition_law():
    rng = rng_from_seed(4)
    for _ in range(10):
        c = int(rng.integers(1, 5))
        d = random_costable_triple(rng, c)
        phi = random_invertible(rng, c)
        psi = random_invertible(rng, c)
        lhs = gl_action(phi @ psi, d)
        rhs = gl_action(phi, gl_action(psi, d))
        s = max(1.0, lhs.b1.maxnorm(), lhs.b2.maxnorm(), lhs.e.maxnorm())
        assert residual(lhs.b1, rhs.b1) / s < 1e-10
        assert residual(lhs.b2, rhs.b2) / s < 1e-10
        assert residual(lhs.e, rhs.e) / s < 1e-10
