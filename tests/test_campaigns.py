"""Campaign reports against straightforward reference loops."""

import pickle
import subprocess
import sys
from collections import Counter
from functools import partial

import numpy as np
import pytest

from xnadhm import sampling
from xnadhm.campaigns import SUITES, _sample_seeds, replay_sample, run_campaign
from xnadhm.errors import NotInOverlap, XnAdhmError
from xnadhm.linalg import Matrix, residual, scale_of
from xnadhm.xn import gl2_action_chart, transition_omega, transition_phi


def nested_cocycle(samples, seed, margin=0.05, tol=1e-9):
    """The cocycle campaign as a nested loop over chart pairs (l, k) that
    computes every leg of a pair afresh, direct legs included.

    Returns (tallies, max_residual, pairs) in the campaign's report form.
    """
    tallies = {"phi_cocycle": {"pass": 0, "fail": 0},
               "omega_equivariance": {"pass": 0, "fail": 0}}
    pairs = {"tested": 0, "skipped": 0}
    worst = 0.0
    for ss in _sample_seeds(seed, samples):
        rng = np.random.default_rng(ss)
        c = int(rng.integers(2, 5))
        n = int(rng.integers(1, 5))
        cd = sampling.random_chart_data(rng, c)
        d = cd.plane()
        m = cd.m
        phi_ok = omega_ok = True
        phi_tested = omega_tested = False
        for l in range(c + 1):
            for k in range(c + 1):
                try:
                    if (sampling.overlap_margin(d.b1, c, m, l) < margin
                            or sampling.overlap_margin(d.b1, c, m, k) < margin):
                        raise NotInOverlap("margin")
                    dl = transition_phi(d, n, m, l)
                    if sampling.overlap_margin(dl.b1, c, l, k) < margin:
                        raise NotInOverlap("margin")
                    dk_direct = transition_phi(d, n, m, k)
                    dk_chain = transition_phi(dl, n, l, k)
                    cdl = transition_omega(cd, n, l)
                    cdk_direct = transition_omega(cd, n, k)
                    cdk_chain = transition_omega(cdl, n, k)
                except NotInOverlap:
                    pairs["skipped"] += 1
                    continue
                pairs["tested"] += 1
                phi_tested = True
                s = scale_of(dk_direct.b1, dk_direct.b2, cdk_direct.A2m)
                r = max(residual(dk_direct.b1, dk_chain.b1),
                        residual(dk_direct.b2, dk_chain.b2),
                        residual(dk_direct.e, dk_chain.e)) / s
                r = max(r, residual(cdk_direct.B, cdk_chain.B) / s,
                        residual(cdk_direct.E, cdk_chain.E) / s,
                        residual(cdk_direct.A2m, cdk_chain.A2m) / s)
                worst = max(worst, r)
                phi_ok = phi_ok and r <= 10 * tol
        g1 = sampling.random_invertible(rng, c)
        g2 = sampling.random_invertible(rng, c)
        moved_cd = gl2_action_chart(g1, g2, cd)
        for l in range(c + 1):
            try:
                if (sampling.overlap_margin(cd.B, c, m, l) < margin
                        or sampling.overlap_margin(moved_cd.B, c, m, l) < margin):
                    continue
                lhs = transition_omega(moved_cd, n, l)
                rhs = gl2_action_chart(g1, g2, transition_omega(cd, n, l))
            except NotInOverlap:
                continue
            s = scale_of(rhs.B, rhs.E, rhs.A2m)
            r = max(residual(lhs.B, rhs.B), residual(lhs.E, rhs.E),
                    residual(lhs.e, rhs.e), residual(lhs.A2m, rhs.A2m)) / s
            worst = max(worst, r)
            omega_ok = omega_ok and r <= tol
            omega_tested = True
        # a sample tallies only the verdicts it tested
        if phi_tested:
            tallies["phi_cocycle"]["pass" if phi_ok else "fail"] += 1
        if omega_tested:
            tallies["omega_equivariance"]["pass" if omega_ok else "fail"] += 1
    return tallies, worst, pairs


@pytest.mark.parametrize("seed", range(5))
def test_cocycle_matches_nested_pair_loop(seed):
    report = run_campaign("cocycle", 10, seed)
    tallies, worst, pairs = nested_cocycle(10, seed)
    assert report["tallies"] == tallies
    assert report["max_residual"] == worst        # bit for bit
    assert report["pairs"] == pairs
    assert pairs["tested"] > 0
    assert report["ok"]


def test_cocycle_stacks_the_chain_and_moved_legs(monkeypatch):
    """The direct legs, the chain legs and the moved equivariance legs go
    through one stack each per sample: no overlap_margin or
    transition_omega call is left, and transition_phi runs once per kept
    direct leg, as the phi cocycle's reference."""
    from xnadhm import campaigns, xn

    calls = Counter()

    def count(owner, name):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    count(campaigns, "transition_phi")
    # campaigns no longer imports transition_omega; any call would go
    # through the xn module
    count(xn, "transition_omega")
    count(sampling, "overlap_margin")
    tested = 0
    for item in enumerate(_sample_seeds(3, 8)):
        calls.clear()
        c = int(np.random.default_rng(item[1]).integers(2, 5))
        _, _, counts = campaigns._cocycle(item, 8, None)
        tested += counts["pairs"]["tested"]
        assert calls["overlap_margin"] == calls["transition_omega"] == 0
        assert calls["transition_phi"] <= c + 1
    assert tested > 0


def test_cocycle_that_tests_no_pair_tallies_nothing():
    # at tol = 1 no overlap pivot passes, so no sample tests a leg: the
    # run tallies no verdict and is not ok
    report = run_campaign("cocycle", 8, 0, tol=1.0)
    assert report["pairs"] == {"tested": 0, "skipped": 141}
    assert report["tallies"] == {name: {"pass": 0, "fail": 0} for name in
                                 ("phi_cocycle", "omega_equivariance")}
    assert not report["ok"]
    for item in enumerate(_sample_seeds(0, 8)):
        assert SUITES["cocycle"].sample(item, 8, 1.0)[0] == {}


@pytest.mark.parametrize("suite, tol, raised", [
    ("monad-transition", 0.01, {1: "NotNormalizable", 3: "SingularGauge"}),
    ("lmp3", 1.0, dict.fromkeys(range(8), "InvalidInput")),
    ("bruteforce", 1.0, dict.fromkeys(range(8), "ZeroPolynomial")),
])
def test_a_sample_that_raises_fails_its_tallies(suite, tol, raised):
    """A library error in a generated sample fails every tally of the
    suite that the samples feed and is listed under "errors"; a tally that
    only the fixtures feed keeps their verdicts.  The run goes on, and
    replaying the listed index raises the same error."""
    report = run_campaign(suite, 8, 0, tol=tol)
    errors = report["errors"]
    assert {e["index"]: e["error"] for e in errors} == raised
    assert not report["ok"]
    for name in SUITES[suite].tallies:
        fixture_only = name in SUITES[suite].fixture_tallies
        assert (report["tallies"][name]["fail"] == 0 if fixture_only
                else report["tallies"][name]["fail"] >= len(raised))
    for e in errors:
        with pytest.raises(XnAdhmError) as exc:
            replay_sample(suite, e["index"], 8, 0, tol)
        assert type(exc.value).__name__ == e["error"]
        assert str(exc.value) == e["message"]
    # the key appears only when some sample raised
    assert "errors" not in run_campaign(suite, 8, 0)


def test_raising_bruteforce_samples_leave_the_fixture_tally_alone():
    """At tol = 1 every generated ``bruteforce`` sample raises; the 12
    fixtures, judged at the default tolerance, all still agree, so only
    ``generated_agreement`` fails."""
    report = run_campaign("bruteforce", 8, 0, tol=1.0)
    assert report["tallies"] == {
        "fixture_agreement": {"pass": 12, "fail": 0},
        "generated_agreement": {"pass": 0, "fail": 8}}
    assert len(report["errors"]) == 8 and not report["ok"]


def test_cocycle_tol_reaches_the_overlap_test():
    # a leg is kept when its overlap pivot passes the invertibility test at
    # the campaign tol; at tol = 1 its smallest singular value must exceed
    # max(1, its max-norm), which fewer legs do
    coarse = run_campaign("cocycle", 8, 0, tol=1.0)["pairs"]["tested"]
    assert coarse < run_campaign("cocycle", 8, 0)["pairs"]["tested"]


@pytest.mark.parametrize("run", [run_campaign,
                                 partial(replay_sample, index=0)],
                         ids=["run_campaign", "replay_sample"])
def test_unknown_suites_are_refused(run):
    with pytest.raises(ValueError) as raised:
        run("nope")
    assert str(raised.value) == "unknown suite 'nope'"


def test_cocycle_pairs_sit_beside_the_tallies():
    report = run_campaign("cocycle", 3, 0)
    assert set(report) == {"suite", "seed", "samples", "tallies",
                           "max_residual", "pairs", "elapsed_seconds", "ok"}
    assert all(set(t) == {"pass", "fail"} for t in report["tallies"].values())
    # every chart pair of every sample is counted once
    draws = [int(np.random.default_rng(ss).integers(2, 5))
             for ss in _sample_seeds(0, 3)]
    assert sum(report["pairs"].values()) == sum((c + 1) ** 2 for c in draws)


def replay(suite, samples, seed, tol=None):
    """The report of ``run_campaign`` rebuilt by calling the suite's sample
    function on every ``(index, SeedSequence)`` and adding up by hand."""
    spec = SUITES[suite]
    outcomes = list(spec.fixtures()) if spec.fixtures else []
    outcomes += [spec.sample(item, samples, tol)
                 for item in enumerate(_sample_seeds(seed, samples))]
    tallies = {name: {"pass": 0, "fail": 0} for name in spec.tallies}
    counts = {key: {"tested": 0, "skipped": 0} for key in spec.counts}
    for verdicts, _, sample_counts in outcomes:
        for name, ok in verdicts.items():
            tallies[name]["pass" if ok else "fail"] += 1
        for key, kinds in sample_counts.items():
            for kind, count in kinds.items():
                counts[key][kind] += count
    worst = max((r for _, r, _ in outcomes), default=0.0)
    return tallies, worst, counts


@pytest.mark.parametrize("suite", list(SUITES))
def test_sample_functions_replay_the_report(suite):
    report = run_campaign(suite, 6, 2)
    tallies, worst, counts = replay(suite, 6, 2)
    assert report["tallies"] == tallies
    assert report["max_residual"] == worst
    assert {key: report[key] for key in counts} == counts
    assert report["ok"]


@pytest.mark.parametrize("suite", list(SUITES))
def test_every_suite_is_ok_at_seeds_0_to_2(suite):
    # a sweep of 40 samples at three seeds per suite, about 1.8 s in all;
    # one seed of 6 samples does not reach a rare failure such as the
    # moment scale below
    for seed in range(3):
        report = run_campaign(suite, 40, seed)
        assert report["ok"], (seed, report["tallies"])


def test_moment_divides_each_sample_by_its_own_scale():
    # sample 24 of seed 2: the relation-satisfying representation's moment
    # norm over the free representation's squared scale read 1.1e-11,
    # against the 1e-12 threshold; over its own it reads 8.8e-16
    verdicts, worst, _ = replay_sample("moment", 24, 40, 2)
    assert verdicts == {"moment_equals_defect": True}
    assert worst < 1e-15


@pytest.mark.parametrize("suite", list(SUITES))
def test_sample_functions_survive_pickle(suite):
    fn = partial(SUITES[suite].sample, samples=4, tol=None)
    copy = pickle.loads(pickle.dumps(fn))
    for item in enumerate(_sample_seeds(5, 4)):
        assert copy(pickle.loads(pickle.dumps(item))) == fn(item)


def test_um_counts_every_chart():
    report = run_campaign("um", 5, 0)
    assert set(report) == {"suite", "seed", "samples", "tallies",
                           "max_residual", "charts", "elapsed_seconds", "ok"}
    assert set(report["tallies"]) == {"um_vanishing"}
    draws = [int(np.random.default_rng(ss).integers(1, 5))
             for ss in _sample_seeds(0, 5)]
    charts = report["charts"]
    assert charts["tested"] + charts["skipped"] == sum(c + 1 for c in draws)
    assert charts["tested"] > 0


def test_um_skips_singular_charts(monkeypatch):
    from xnadhm import campaigns
    from xnadhm.errors import NotInChart

    # a chart reading that rejects every other chart shows up as skipped
    seen = []
    read = campaigns.zeta

    def every_other(d, m, tol=None):
        seen.append(m)
        if len(seen) % 2 == 0:
            raise NotInChart(f"chart {m} rejected")
        return read(d, m, tol)

    monkeypatch.setattr(campaigns, "zeta", every_other)
    charts = run_campaign("um", 3, 0)["charts"]
    assert charts == {"tested": (len(seen) + 1) // 2,
                      "skipped": len(seen) // 2}


def test_um_tol_reaches_the_chart_tests(monkeypatch):
    from xnadhm import campaigns

    # the framed sample's charts are read and tested at the campaign tol
    seen = []
    for name in ("zeta", "u_m_residual"):
        fn = getattr(campaigns, name)
        monkeypatch.setattr(
            campaigns, name,
            lambda r, m, tol, fn=fn, name=name: seen.append((name, tol))
            or fn(r, m, tol))
    run_campaign("um", 3, 0, tol=1e-7)
    assert {name for name, _ in seen} == {"zeta", "u_m_residual"}
    assert all(tol == 1e-7 for _, tol in seen)
    monkeypatch.undo()
    # a chart near the singular divisor is skipped at a coarse tol
    coarse = run_campaign("um", 8, 0, tol=1e-2)["charts"]
    assert coarse["tested"] < run_campaign("um", 8, 0)["charts"]["tested"]


def test_um_residual_can_fail(monkeypatch):
    from xnadhm import campaigns

    # [B_m, E_m] = u_m e on the framed sample: a wrong u_m fails the tally
    report = run_campaign("um", 3, 0)
    worst = report["max_residual"]
    assert report["ok"] and 0 < worst <= 1e-12
    # the identity's threshold is tol: with the verdicts at the default
    # tolerance (their float relations fail near worst), tol = worst / 2
    # fails on the identity alone
    spectral = campaigns.check_semistable_spectral
    with monkeypatch.context() as patch:
        patch.setattr(campaigns, "check_semistable_spectral",
                      lambda r, tol: spectral(r))
        tight = run_campaign("um", 3, 0, tol=worst / 2)
    assert not tight["ok"] and tight["max_residual"] == worst
    u_m = campaigns.u_m_residual
    monkeypatch.setattr(campaigns, "u_m_residual",
                        lambda r, m, tol: u_m(r, m, tol).scale(2))
    broken = run_campaign("um", 3, 0)
    assert not broken["ok"] and broken["max_residual"] > 1e-3
    assert broken["tallies"]["um_vanishing"]["fail"] > 0


def test_sample_index_picks_the_kind(monkeypatch):
    from xnadhm import campaigns

    drawn = []
    depth = [0]
    for name in ("random_xn", "random_xn_e_zero", "random_xn_kernel_violator"):
        def record(*args, _draw=getattr(sampling, name), _name=name):
            # the violators are built from random_xn; count outer calls only
            if depth[0] == 0:
                drawn.append(_name)
            depth[0] += 1
            try:
                return _draw(*args)
            finally:
                depth[0] -= 1
        monkeypatch.setattr(sampling, name, record)
    # lmp3: valid data first, then a quarter e = 0 and a quarter violators
    assert run_campaign("lmp3", 9, 0)["ok"]
    assert drawn == (["random_xn"] * 5 + ["random_xn_e_zero"] * 2
                     + ["random_xn_kernel_violator"] * 2)
    # bruteforce: even-numbered samples keep the unit frame, odd ones zero it
    framed = []
    embed = campaigns.embed_xn_as_rep
    monkeypatch.setattr(campaigns, "embed_xn_as_rep",
                        lambda d: framed.append(not d.e.is_zero()) or embed(d))
    assert run_campaign("bruteforce", 5, 0)["ok"]
    assert framed == [True, False, True, False, True]


def test_random_invertible_draws_are_those_of_np_linalg_cond():
    """The condition number is read from one SVD; the draws, and so the
    random stream, are those of a ``np.linalg.cond`` loop.  The gap test of
    ``_separated_values`` on Python complex numbers and the uncopied
    matrices of ``random_costable_triple`` give, byte for byte, what a gap
    test on numpy scalars and ``Matrix.from_numpy`` copies give."""
    def reference(rng, n):
        while True:
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            if np.linalg.cond(a) <= sampling.MAX_COND:
                return a

    got, want = sampling.rng_from_seed(7), sampling.rng_from_seed(7)
    for n in [1, 2, 3, 4, 5, 6, 7] * 30:
        assert np.array_equal(sampling.random_invertible(got, n).to_numpy(),
                              reference(want, n))
    assert got.random() == want.random()

    def separated(rng, c, min_gap=0.15):
        while True:
            vals = rng.standard_normal(c) + 1j * rng.standard_normal(c)
            if all(abs(vals[i] - vals[j]) > min_gap
                   for i in range(c) for j in range(i + 1, c)):
                return vals

    def costable(rng, c):
        Vn = Matrix.from_numpy(reference(rng, c)).to_numpy()
        Vi = np.linalg.inv(Vn)
        b1 = Matrix.from_numpy(Vn @ np.diag(separated(rng, c)) @ Vi)
        b2 = Matrix.from_numpy(Vn @ np.diag(separated(rng, c)) @ Vi)
        while True:
            e = rng.standard_normal(c) + 1j * rng.standard_normal(c)
            if np.all(np.abs(e @ Vn) > 0.05):
                return b1, b2, Matrix.from_numpy(e[None])

    for seed in range(8):
        got, want = sampling.rng_from_seed(seed), sampling.rng_from_seed(seed)
        for c in range(1, 7):
            for gap in (0.15, 0.2, 1.0):
                assert (sampling._separated_values(got, c, gap).tobytes()
                        == separated(want, c, gap).tobytes())
            d = sampling.random_costable_triple(got, c)
            assert [M.entries.tobytes() for M in (d.b1, d.b2, d.e)] == [
                M.entries.tobytes() for M in costable(want, c)]
        assert got.random() == want.random()


def test_import_leaves_the_thread_pool_unloaded():
    """A campaign runs its samples serially: it never loads
    ``concurrent.futures`` (and with it logging and queue), and it refuses
    any ``jobs`` but 1."""
    code = ("import sys; from xnadhm.campaigns import run_campaign; "
            "run_campaign('moment', 2, 0, None, 1); "
            "print('concurrent.futures' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout == "False\n"
    with pytest.raises(ValueError):
        run_campaign("moment", 2, 0, None, 2)
