"""CLI behaviour: generation determinism, condition checks, exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest

from xnadhm.cli import main
from xnadhm.serialize import dumps, loads, rep_to_json, xn_from_json, xn_to_json
from xnadhm.linalg import Matrix
from xnadhm.quiver import FramedRep, embed_xn_as_rep
from xnadhm.sampling import (
    _separated_values,
    random_invertible,
    random_xn,
    rng_from_seed,
)
from xnadhm.xn import ChartData, zeta_inverse


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_gen_points_scalar(capsys):
    code, out = run_cli(["gen", "--kind", "points", "--n", "2", "--c", "1",
                         "--points", "0,0"], capsys)
    assert code == 0
    d = xn_from_json(loads(out))
    assert d.n == 2 and d.c == 1
    assert all(C.is_zero() for C in d.C)


def test_gen_deterministic(capsys):
    code1, out1 = run_cli(["gen", "--kind", "random-costable", "--n", "2",
                           "--c", "2", "--seed", "42"], capsys)
    code2, out2 = run_cli(["gen", "--kind", "random-costable", "--n", "2",
                           "--c", "2", "--seed", "42"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_gen_invalid_c(capsys):
    code, _ = run_cli(["gen", "--kind", "points", "--n", "1", "--c", "0",
                       "--points", ""], capsys)
    assert code == 2


def test_gen_points_over_a_prime_field(capsys):
    from xnadhm.linalg import GF, RATIONAL
    from xnadhm.quiver import brute_force_semistable, embed_xn_as_rep
    from xnadhm.xn import check_P1, from_xn_points

    code, out = run_cli(["gen", "--kind", "points", "--backend", "gf:5",
                         "--n", "2", "--c", "2", "--points", "0,1;1,2"],
                        capsys)
    assert code == 0
    d = xn_from_json(loads(out))
    # the integer data of the same points, reduced mod 5
    assert d == from_xn_points(2, 0, [(0, 1), (1, 2)], RATIONAL).cast(GF(5))
    assert check_P1(d) and brute_force_semistable(embed_xn_as_rep(d))
    # the right-angle chart of c = 3 has integer constants too
    code, out = run_cli(["gen", "--kind", "points", "--backend", "gf:5",
                         "--n", "2", "--c", "3", "--m", "2",
                         "--points", "0,1;1,2;7,2"], capsys)
    assert code == 0 and check_P1(xn_from_json(loads(out)))


def test_gen_points_over_a_prime_field_reads_rationals(capsys):
    from xnadhm.linalg import GF, RATIONAL
    from xnadhm.xn import from_xn_points

    # a coordinate is a rational number reduced mod p: 1/2 = 3 mod 5
    code, out = run_cli(["gen", "--kind", "points", "--backend", "gf:5",
                         "--n", "2", "--c", "2", "--points", "1/2,1;0,2.0"],
                        capsys)
    assert code == 0
    assert xn_from_json(loads(out)) == from_xn_points(
        2, 0, [(3, 1), (0, 2)], RATIONAL).cast(GF(5))
    for bad in ("1/5,1;0,2", "x,1;0,2"):
        code, out = run_cli(["gen", "--kind", "points", "--backend", "gf:5",
                             "--n", "2", "--c", "2", "--points", bad], capsys)
        assert code == 2 and out == ""


@pytest.mark.parametrize("points, m, error", [
    ([(0, 1), (5, 6)], 0, "DuplicatePoint"),        # equal mod 5
    ([(0, 1), (1, 2)], 1, "UnsupportedBackend"),    # irrational constants
])
def test_gen_points_over_a_prime_field_rejects(points, m, error, capsys):
    from xnadhm import errors
    from xnadhm.linalg import GF
    from xnadhm.xn import from_xn_points

    with pytest.raises(getattr(errors, error)):
        from_xn_points(2, m, points, GF(5))
    code, out = run_cli(["gen", "--kind", "points", "--backend", "gf:5",
                         "--n", "2", "--c", "2", "--m", str(m), "--points",
                         ";".join(f"{z},{w}" for z, w in points)], capsys)
    assert code == 2 and out == ""


def test_gen_points_over_the_rationals_rejects_an_irrational_chart(capsys):
    # chart 1 of c = 2 has irrational constants: rational points there are
    # refused, as over GF(p)
    code = main(["gen", "--kind", "points", "--backend", "rational", "--n",
                 "2", "--c", "2", "--m", "1", "--points", "0,1;1,2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "irrational" in captured.err


def test_check_valid_P(tmp_path, capsys):
    rng = rng_from_seed(0)
    d = random_xn(rng, 2, 2)
    path = tmp_path / "d.json"
    path.write_text(dumps(xn_to_json(d)))
    code, out = run_cli(["check", str(path), "--which", "P"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["results"] == {"P1": "pass", "P2": "pass", "P3": "pass"}


def test_check_P_analyzes_the_pencil_once(tmp_path, capsys, monkeypatch):
    from xnadhm import cli, xn

    calls = []
    step = xn._pencil_step

    def counted(*args):
        calls.append(args)
        return step(*args)

    monkeypatch.setattr(cli, "_pencil_step", counted)
    monkeypatch.setattr(xn, "_pencil_step", counted)
    path = tmp_path / "d.json"
    path.write_text(dumps(xn_to_json(random_xn(rng_from_seed(0), 2, 3))))
    code, out = run_cli(["check", str(path), "--which", "P"], capsys)
    assert code == 0
    assert json.loads(out)["results"] == {"P1": "pass", "P2": "pass",
                                          "P3": "pass"}
    assert len(calls) == 1


def test_check_P_over_a_prime_field_is_a_usage_error(tmp_path, capsys):
    from xnadhm.linalg import GF, RATIONAL
    from xnadhm.xn import from_xn_points

    # the pencil is regular, and (P3) needs its roots, which GF(5) lacks
    d = from_xn_points(1, 0, [(0, 1), (1, 2)], RATIONAL).cast(GF(5))
    path = tmp_path / "d.json"
    path.write_text(dumps(xn_to_json(d)))
    code, _ = run_cli(["check", str(path), "--which", "P"], capsys)
    assert code == 2
    # a prime this large is refused before its primality test
    path.write_text(dumps(xn_to_json(d)).replace(
        "gf(5)", "gf(1000000000000000000000007)"))
    code = main(["check", str(path), "--which", "P"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1


def near_threshold_xn(seed):
    """A1 = R1 D S, A2 = R2 D S + eps N with D = diag(1, .., 1, 0), R1, R2,
    S, N complex normal, c = 2..4 and eps log-uniform in 1e-7..1e-4, all
    drawn from ``default_rng(seed)``; C = 0, so (P1) holds.  At seeds 77,
    673 and 7899 the node test calls the pencil singular at tol 1e-6 while
    no chain staircase of degree <= c has a kernel at ``nullspace``'s
    threshold, so ``analyze_pencil`` raises on it."""
    from xnadhm.xn import XnADHM

    rng = np.random.default_rng(seed)
    c = int(rng.integers(2, 5))
    eps = 10 ** rng.uniform(-7, -4)
    R1, R2, S, N = (rng.standard_normal((c, c))
                    + 1j * rng.standard_normal((c, c)) for _ in range(4))
    D = np.diag([1.0] * (c - 1) + [0.0])
    return XnADHM(1, c, Matrix.from_numpy(R1 @ D @ S),
                  Matrix.from_numpy(R2 @ D @ S + eps * N),
                  [Matrix.zeros(c, c)], Matrix.row_vector([1.0] * c))


@pytest.mark.parametrize("seed", [77, 673, 7899])
def test_near_threshold_pencil_fails_P2_and_P3(seed, tmp_path, capsys):
    # (P3) direct refuses the singular pencil, the spectral verdict is
    # UNSTABLE and the CLI fails P2 and P3; none runs the chain search
    from xnadhm.errors import InvalidInput
    from xnadhm.quiver import Verdict, check_semistable_spectral
    from xnadhm.xn import check_P2, check_P3_direct

    d = near_threshold_xn(seed)
    assert not check_P2(d, 1e-6)
    with pytest.raises(InvalidInput,
                       match="only decidable for regular pencils"):
        check_P3_direct(d, 1e-6)
    r = embed_xn_as_rep(d)
    assert check_semistable_spectral(r, 1e-6) is Verdict.UNSTABLE
    path = tmp_path / "d.json"
    path.write_text(dumps(xn_to_json(d)))
    code, out = run_cli(["check", str(path), "--which", "P", "--tol", "1e-6"],
                        capsys)
    assert code == 1
    assert json.loads(out)["results"] == {"P1": "pass", "P2": "fail",
                                          "P3": "fail"}


def test_check_e_zero_fails_P3(tmp_path, capsys):
    rng = rng_from_seed(1)
    d = random_xn(rng, 2, 2)
    from xnadhm.xn import XnADHM
    bad = XnADHM(d.n, d.c, d.A1, d.A2, d.C, Matrix.zeros(1, d.c))
    path = tmp_path / "bad.json"
    path.write_text(dumps(xn_to_json(bad)))
    code, out = run_cli(["check", str(path), "--which", "P"], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["results"]["P3"] == "fail"
    assert report["results"]["P1"] == "pass"


def test_check_tol_reaches_P3(tmp_path, capsys, monkeypatch):
    # a cell of the conditioning sweep in tests/test_plane.py: separated
    # diagonal chart data on a basis of unit columns, whose frame sees one
    # eigenvector by |e v| = 1e-5; the direct (P3) test, alone or inside
    # the spectral semistability check, calls it co-stable at the default
    # tol and not at 1e-6
    rng = rng_from_seed(0)
    c, n = 3, 2
    V = random_invertible(rng, c).to_numpy()
    V = V / np.linalg.norm(V, axis=0)
    Vi = np.linalg.inv(V)
    b1, b2 = (Matrix.from_numpy(V @ np.diag(_separated_values(rng, c)) @ Vi)
              for _ in range(2))
    e = Matrix.from_numpy((np.r_[1e-5, np.ones(c - 1)] @ Vi)[None, :])
    x = zeta_inverse(ChartData(1, b1, b2, e, random_invertible(rng, c)), n,
                     check=False)
    for which, data, name in (("P", xn_to_json(x), "P3"),
                              ("Q", rep_to_json(embed_xn_as_rep(x)),
                               "semistable")):
        path = tmp_path / f"{which}.json"
        path.write_text(dumps(data))
        args = ["check", str(path), "--which", which]
        code, out = run_cli(args, capsys)
        assert code == 0, out
        code, out = run_cli(args + ["--tol", "1e-6"], capsys)
        results = json.loads(out)["results"]
        assert code == 1 and results[name] == "fail"
        assert [k for k, v in results.items() if v == "fail"] == [name]
        monkeypatch.setenv("ADHM_TOL", "1e-6")
        code, out = run_cli(args, capsys)
        assert code == 1 and json.loads(out)["results"] == results
        monkeypatch.delenv("ADHM_TOL")


def test_check_zero_rep_relations_pass_stability_fail(tmp_path, capsys):
    Z = Matrix.zeros(1, 1)
    r = FramedRep(1, 1, 1, 1, Z, Z, (Z,), Matrix.row_vector([1.0]), ())
    path = tmp_path / "r.json"
    path.write_text(dumps(rep_to_json(r)))
    code, out = run_cli(["check", str(path), "--which", "Q"], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["results"]["Q1"] == "pass"
    assert report["results"]["semistable"] == "fail"


def test_check_refuses_a_representation_of_n_zero(tmp_path, capsys):
    """n = 0 is a usage error with one ``error:`` line; it used to load
    and end ``check --which Q`` in a numpy ``ValueError`` traceback."""
    Z = Matrix.zeros(1, 1)
    obj = rep_to_json(FramedRep(1, 1, 1, 1, Z, Z, (Z,),
                                Matrix.row_vector([1.0]), ()))
    obj.update(n=0, C=[])
    path = tmp_path / "r.json"
    path.write_text(dumps(obj))
    code = main(["check", str(path), "--which", "Q"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: n = 0 must be >= 1\n"


def test_check_monad_computes_each_residual_once(tmp_path, capsys,
                                                monkeypatch):
    from xnadhm import cli
    from xnadhm.monad import (build_jm, compose_residual, framing_residual,
                              max_residual)
    from xnadhm.sampling import random_costable_triple
    from xnadhm.serialize import monad_to_json

    mc = build_jm(random_costable_triple(rng_from_seed(5), 2), 2, 1)
    path = tmp_path / "mc.json"
    path.write_text(dumps(monad_to_json(mc)))
    expected = max(max_residual(compose_residual(mc)),
                   max_residual(framing_residual(mc)))
    calls = []

    def counted(m):
        calls.append(m)
        return compose_residual(m)

    monkeypatch.setattr(cli, "compose_residual", counted)
    code, out = run_cli(["check", str(path), "--which", "monad"], capsys)
    assert code == 0
    assert len(calls) == 1
    report = json.loads(out)
    assert report["results"] == {"compose": "pass", "framing": "pass"}
    assert report["max_residual"] == expected


def test_check_monad_honours_zero_tol(tmp_path, capsys, monkeypatch):
    from xnadhm.monad import MonadCoeffs, build_jm
    from xnadhm.sampling import random_costable_triple
    from xnadhm.serialize import monad_to_json

    mc = build_jm(random_costable_triple(rng_from_seed(5), 2), 2, 1)
    a = mc.alpha1[0].to_numpy().copy()
    a[0, 0] += 1e-12
    shifted = MonadCoeffs(mc.n, mc.c, mc.m,
                          (Matrix.from_numpy(a),) + mc.alpha1[1:], mc.alpha2,
                          mc.beta1, mc.beta2, mc.xi)
    path = tmp_path / "mc.json"
    path.write_text(dumps(monad_to_json(shifted)))
    args = ["check", str(path), "--which", "monad"]
    code, out = run_cli(args, capsys)
    assert code == 0
    assert 0 < json.loads(out)["max_residual"] <= 1e-9
    code, out = run_cli(args + ["--tol", "0"], capsys)
    assert code == 1
    assert json.loads(out)["results"]["compose"] == "fail"
    monkeypatch.setenv("ADHM_TOL", "0")
    code, _ = run_cli(args, capsys)
    assert code == 1


def test_check_monad_is_literal_on_exact_backends(tmp_path, capsys):
    from dataclasses import replace
    from fractions import Fraction

    from xnadhm.linalg import GF, RATIONAL
    from xnadhm.monad import build_jm
    from xnadhm.plane import PlaneADHM
    from xnadhm.serialize import monad_to_json

    def triple(bk):
        return PlaneADHM(2, Matrix.diagonal([1, 2], bk),
                         Matrix.diagonal([0, 3], bk),
                         Matrix.row_vector([1, 1], bk))

    mc = build_jm(triple(RATIONAL), 2, 0)
    rows = mc.alpha1[3].entries.tolist()
    rows[0][0] += Fraction(1, 10**14)
    off = replace(mc, alpha1=mc.alpha1[:3]
                  + (Matrix.from_rows(rows, RATIONAL),))
    path = tmp_path / "mc.json"
    for data, want in ((mc, 0), (off, 1), (build_jm(triple(GF(5)), 2, 0), 0)):
        path.write_text(dumps(monad_to_json(data)))
        code, out = run_cli(["check", str(path), "--which", "monad"], capsys)
        assert code == want
        assert json.loads(out)["results"] == {
            "compose": "fail" if want else "pass", "framing": "pass"}


def test_check_parse_failure(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{broken")
    code, _ = run_cli(["check", str(path), "--which", "P"], capsys)
    assert code == 2


def test_campaign_smoke(capsys):
    code, out = run_cli(["campaign", "--suite", "moment", "--samples", "5",
                         "--seed", "7"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["ok"] and report["seed"] == 7 and report["samples"] == 5
    assert report["max_residual"] <= 1e-12


@pytest.mark.parametrize("argv", [
    ["campaign", "--suite", "cocycle", "--samples", "1"],
    ["gen", "--kind", "points", "--n", "1", "--c", "2", "--points", "0,1;x,3"],
], ids=["campaign", "usage-error"])
def test_main_leaves_the_floating_point_error_state_alone(argv, capsys):
    """``main`` silences numpy's floating-point warnings for its own run
    only: it used to call ``np.seterr(all="ignore")``, which stayed on in
    the calling process."""
    before = np.geterr()
    main(argv)
    capsys.readouterr()
    assert np.geterr() == before


@pytest.mark.parametrize("suite", ["cocycle", "lmp3", "moment", "um",
                                   "monad-transition"])
def test_campaign_that_tests_nothing_fails(suite, capsys):
    code, out = run_cli(["campaign", "--suite", suite, "--samples", "0"],
                        capsys)
    report = json.loads(out)
    assert code == 1 and not report["ok"]
    assert all(t == {"pass": 0, "fail": 0}
               for t in report["tallies"].values())


def test_campaign_sample_that_raises_is_reported_not_a_traceback(capsys):
    # samples 1 and 3 raise in gauge_normalize at this tol; the campaign
    # used to end in their traceback
    code, out = run_cli(["campaign", "--suite", "monad-transition",
                         "--samples", "8", "--seed", "0", "--tol", "0.01"],
                        capsys)
    report = json.loads(out)
    assert code == 1 and not report["ok"]
    assert [(e["index"], e["error"]) for e in report["errors"]] == [
        (1, "NotNormalizable"), (3, "SingularGauge")]
    assert report["tallies"]["normalize_vs_transition"]["fail"] >= 2


def test_campaign_bruteforce_without_samples_passes_on_fixtures(capsys):
    code, out = run_cli(["campaign", "--suite", "bruteforce", "--samples",
                         "0"], capsys)
    report = json.loads(out)
    assert code == 0 and report["ok"]
    assert report["tallies"] == {"fixture_agreement": {"pass": 12, "fail": 0},
                                 "generated_agreement": {"pass": 0, "fail": 0}}


def test_campaign_bruteforce_honours_samples_and_seed(capsys, monkeypatch):
    from xnadhm import sampling

    drawn = []
    draw = sampling.integer_points
    monkeypatch.setattr(sampling, "integer_points",
                        lambda *a: drawn.append(draw(*a)) or drawn[-1])

    def run(seed):
        drawn.clear()
        code, out = run_cli(["campaign", "--suite", "bruteforce",
                             "--samples", "4", "--seed", str(seed)], capsys)
        report = json.loads(out)
        del report["elapsed_seconds"]
        return code, report, list(drawn)

    code, report, points = run(11)
    assert code == 0
    assert report["ok"] and report["seed"] == 11 and report["samples"] == 4
    assert report["tallies"]["fixture_agreement"] == {"pass": 12, "fail": 0}
    assert report["tallies"]["generated_agreement"] == {"pass": 4, "fail": 0}
    assert len(points) == 4
    assert run(11) == (code, report, points)
    assert run(12)[2] != points


@pytest.mark.parametrize("suite", ["cocycle", "lmp3", "moment", "um",
                                   "bruteforce", "monad-transition"])
def test_campaign_replay_gives_the_sample_of_the_full_run(suite, capsys,
                                                         monkeypatch):
    """--replay INDEX prints generated sample INDEX's outcome as it was in
    the full run: its verdicts, residual and counts."""
    from xnadhm import campaigns

    outcomes = []
    run_samples = campaigns._run_samples

    def recorded(*args):
        outcomes.extend(run_samples(*args))
        return outcomes
    monkeypatch.setattr(campaigns, "_run_samples", recorded)
    args = ["campaign", "--suite", suite, "--samples", "5", "--seed", "9"]
    assert run_cli(args, capsys)[0] == 0
    assert len(outcomes) == 5
    for index, (verdicts, worst, counts) in enumerate(outcomes):
        code, out = run_cli(args + ["--replay", str(index)], capsys)
        replayed = json.loads(out)
        assert code == 0 and replayed["ok"]
        assert (replayed["suite"], replayed["seed"], replayed["samples"],
                replayed["replay"]) == (suite, 9, 5, index)
        assert replayed["verdicts"] == {
            name: "pass" if ok else "fail" for name, ok in verdicts.items()}
        assert replayed["residual"] == worst           # bit for bit
        assert replayed["counts"] == counts


@pytest.mark.parametrize("index", ["5", "-1"])
def test_campaign_replay_out_of_range_is_a_usage_error(index, capsys):
    code = main(["campaign", "--suite", "moment", "--samples", "5",
                 "--replay", index])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (f"error: --replay: sample index {index} outside "
                            "0..4\n")


@pytest.mark.parametrize("suite, divisor, failing", [
    ("cocycle", 1e4, ("phi_cocycle", "omega_equivariance")),
    ("monad-transition", 2, ("normalize_vs_transition",)),
    ("moment", 2, ("moment_equals_defect",)),
    ("um", 2, ("um_vanishing",)),
])
def test_campaign_tol_reaches_residual_thresholds(suite, divisor, failing,
                                                  capsys, monkeypatch):
    # the residuals pass the default thresholds (10 tol for the cocycle, tol
    # for equivariance, monad-transition and the u_m identity, tol / 1000 for
    # the moment) and fail at tol = R / divisor, R the worst residual, which
    # does not move
    args = ["campaign", "--suite", suite, "--samples", "4", "--seed", "0"]
    code, out = run_cli(args, capsys)
    default = json.loads(out)
    assert code == 0 and default["ok"]
    worst = default["max_residual"]
    assert 0 < worst <= 1e-11
    tight_tol = repr(worst / divisor)
    code, out = run_cli(args + ["--tol", tight_tol], capsys)
    tight = json.loads(out)
    assert code == 1 and not tight["ok"]
    assert tight["max_residual"] == worst
    for name in failing:
        assert tight["tallies"][name]["fail"] > 0
    monkeypatch.setenv("ADHM_TOL", tight_tol)
    code, out = run_cli(args, capsys)
    assert code == 1 and json.loads(out)["tallies"] == tight["tallies"]


@pytest.mark.parametrize("value", ["-1e-9", "nan", "inf", "abc"])
def test_invalid_tol_is_a_usage_error(value, tmp_path, capsys, monkeypatch):
    # diag(1, 2), diag(3, 4) with e = 0 read "T2: pass" at tol = -1e-9, and
    # an unparsable ADHM_TOL raised a ValueError (exit 1); the tolerance is
    # now checked before any work, on --tol and on ADHM_TOL alike
    from xnadhm.plane import PlaneADHM
    from xnadhm.serialize import plane_to_json

    d = PlaneADHM(2, Matrix.diagonal([1, 2]), Matrix.diagonal([3, 4]),
                  Matrix.zeros(1, 2))
    path = tmp_path / "p0.json"
    path.write_text(dumps(plane_to_json(d)))
    commands = (["check", str(path), "--which", "T"],
                ["campaign", "--suite", "cocycle", "--samples", "1"])

    def usage_error(argv):
        try:
            code = main(argv)
        except SystemExit as exc:               # argparse refuses "abc"
            code = exc.code
        captured = capsys.readouterr()
        return code == 2 and captured.out == "" and "error:" in captured.err

    for args in commands:
        assert usage_error(args + [f"--tol={value}"])
        monkeypatch.setenv("ADHM_TOL", value)
        assert usage_error(args)
        monkeypatch.delenv("ADHM_TOL")


def test_gen_retry_budget_exhausted_exits_3(capsys, monkeypatch):
    from xnadhm import cli, sampling
    from xnadhm.errors import NoChart

    draws = []

    def failing(*args, **kwargs):
        draws.append(args)
        raise NoChart("no chart")

    monkeypatch.setattr(sampling, "random_xn", failing)
    code = main(["gen", "--kind", "random-costable", "--n", "2", "--c", "2"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == "error: retry budget exhausted\n"
    assert len(draws) == cli.GEN_RETRIES


def test_entry_point_usage_error():
    proc = subprocess.run([sys.executable, "-m", "xnadhm.cli", "gen",
                           "--kind", "bogus"], capture_output=True)
    assert proc.returncode == 2


def parser_choices(command, option):
    """The choices that ``build_parser`` gives ``option`` of ``command``."""
    import argparse

    from xnadhm.cli import build_parser

    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in sub.choices[command]._actions
                if option in a.option_strings)


ALL_PASS = {"P": {"P1": "pass", "P2": "pass", "P3": "pass"},
            "Q": {"Q1": "pass", "semistable": "pass"}}

#: per ``gen --kind``: (extra arguments, check family, expected results)
GEN_CASES = {
    "points": [(["--points", "0,0;1,2"], "P", ALL_PASS["P"])],
    "random-costable": [([], "P", ALL_PASS["P"])],
    "random-rep": [([], "Q", ALL_PASS["Q"]),
                   (["--framed"], "Q", {"Q1": "pass", "semistable": "fail"})],
}


@pytest.mark.parametrize("kind", parser_choices("gen", "--kind"))
def test_every_gen_kind_is_deterministic_and_checked(kind, tmp_path, capsys):
    # a kind without a row in GEN_CASES fails here
    for extra, which, want in GEN_CASES[kind]:
        def gen(seed):
            return run_cli(["gen", "--kind", kind, "--n", "2", "--c", "2",
                            "--seed", seed] + extra, capsys)

        code, out = gen("7")
        assert code == 0 and gen("7") == (0, out)
        assert (gen("8")[1] == out) == (kind == "points")
        path = tmp_path / "d.json"
        path.write_text(out)
        code, out = run_cli(["check", str(path), "--which", which], capsys)
        assert json.loads(out)["results"] == want
        assert code == (0 if want == ALL_PASS[which] else 1)


def check_cases(which):
    """(passing data, failing data, results of the failing data) per
    ``check --which`` family."""
    from dataclasses import replace

    from xnadhm.monad import build_jm
    from xnadhm.plane import PlaneADHM
    from xnadhm.sampling import random_costable_triple, random_rep
    from xnadhm.serialize import monad_to_json, plane_to_json
    from xnadhm.xn import XnADHM

    rng = rng_from_seed(5)
    if which == "P":
        d = random_xn(rng, 2, 2)
        e_zero = XnADHM(d.n, d.c, d.A1, d.A2, d.C, Matrix.zeros(1, d.c))
        return (xn_to_json(d), xn_to_json(e_zero),
                {"P1": "pass", "P2": "pass", "P3": "fail"})
    if which == "Q":
        return (rep_to_json(random_rep(rng, 3, 2)),
                rep_to_json(random_rep(rng, 3, 2, framed=True)),
                {"Q1": "pass", "semistable": "fail"})
    if which == "T":
        # commuting diagonal blocks, and no frame to see their eigenvectors
        unframed = PlaneADHM(2, Matrix.diagonal([1, 2]),
                             Matrix.diagonal([3, 4]), Matrix.zeros(1, 2))
        return (plane_to_json(random_costable_triple(rng, 2)),
                plane_to_json(unframed), {"T1": "pass", "T2": "fail"})
    mc = build_jm(random_costable_triple(rng, 2), 2, 1)
    a = mc.alpha1[0].to_numpy().copy()
    a[0, 0] += 1e-3
    shifted = replace(mc, alpha1=(Matrix.from_numpy(a),) + mc.alpha1[1:])
    return (monad_to_json(mc), monad_to_json(shifted),
            {"compose": "fail", "framing": "pass"})


@pytest.mark.parametrize("which", parser_choices("check", "--which"))
def test_every_check_family_passes_and_fails(which, tmp_path, capsys):
    good, bad, failing = check_cases(which)
    path = tmp_path / "d.json"
    for data, want in ((good, {name: "pass" for name in failing}),
                       (bad, failing)):
        path.write_text(dumps(data))
        code, out = run_cli(["check", str(path), "--which", which], capsys)
        assert json.loads(out)["results"] == want
        assert code == (1 if "fail" in want.values() else 0)


@pytest.mark.parametrize("argv", [
    # these four raised a traceback and exited 1
    ["gen", "--kind", "points", "--backend", "gf:x", "--n", "1", "--c", "1",
     "--points", "0,0"],
    ["gen", "--seed", "-1"],
    ["campaign", "--suite", "lmp3", "--samples", "2", "--seed", "-1"],
    ["campaign", "--suite", "lmp3", "--samples", "-3"],
    ["gen", "--backend", "real"],
    ["gen", "--kind", "points", "--n", "1", "--c", "2"],
    ["gen", "--kind", "points", "--n", "1", "--c", "2", "--points", "0,0"],
    ["gen", "--kind", "random-costable", "--backend", "rational"],
    ["gen", "--kind", "random-rep", "--backend", "gf:5"],
    ["gen", "--kind", "points", "--backend", "rational", "--n", "1", "--c",
     "1", "--points", "1/0,1"],
    # these three did not return: a trial-division primality test of a
    # large p, and the eigenvalue-separation redraw at a large c
    ["gen", "--kind", "points", "--backend", "gf:1000000000000000000000007",
     "--n", "1", "--c", "1", "--points", "0,0"],
    ["gen", "--kind", "random-costable", "--c", "51"],
    ["gen", "--kind", "random-rep", "--c", "100"],
], ids=" ".join)
def test_usage_errors_exit_2_with_one_error_line(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("points, bad", [
    ("nan,1;2,3", "nan"), ("0,1;2,-inf", "-inf"), ("0,1; nanj ,3", "nanj"),
    ("0,infinity;2,3", "infinity")])
def test_gen_points_rejects_non_finite_coordinates(points, bad, capsys):
    code = main(["gen", "--kind", "points", "--n", "1", "--c", "2",
                 "--points", points])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: point coordinate {bad!r} is not finite\n"


@pytest.mark.parametrize("entry", [
    [float("nan"), 0.0], [0.0, float("inf")], [1.0], [True, 0.0], ["1", "0"]],
    ids=repr)
@pytest.mark.parametrize("which", ["P", "T"])
def test_check_rejects_a_malformed_complex_entry(which, entry, tmp_path,
                                                 capsys):
    """A NaN or Infinity entry used to load and end ``check`` in a
    ``LinAlgError`` traceback, a one-element one in an ``IndexError``."""
    from xnadhm.sampling import random_costable_triple
    from xnadhm.serialize import plane_to_json

    rng = rng_from_seed(0)
    if which == "P":
        obj, block = xn_to_json(random_xn(rng, 2, 2)), "A1"
    else:
        obj, block = plane_to_json(random_costable_triple(rng, 2)), "b1"
    obj[block]["entries"][0] = entry
    path = tmp_path / "d.json"
    path.write_text(json.dumps(obj))
    code = main(["check", str(path), "--which", which])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1


def test_entry_point_prints_one_error_line():
    proc = subprocess.run([sys.executable, "-m", "xnadhm.cli", "campaign",
                           "--suite", "lmp3", "--samples", "-3"],
                          capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: --samples and --seed must be >= 0\n"


@pytest.mark.parametrize("which, text, named", [
    ("P", '{"c": 1}', "missing key 'n'"),
    ("P", "[1, 2]", "not a JSON object"),
    ("T", '{"c": 1, "b1": {}, "b2": {}}', "missing key 'e'"),
    ("Q", '{"n": 1, "v0": 1, "v1": 1, "w": 1}', "missing key 'A1'"),
    ("monad", '{"basis": {"n": 1, "c": 1, "m": 0}}', "missing key 'xi'"),
])
def test_check_malformed_file_names_the_key(tmp_path, capsys, which, text,
                                              named):
    """A file whose object lacks a key, or is no object, is a usage error
    whose one ``error:`` line says which."""
    path = tmp_path / "d.json"
    path.write_text(text)
    code = main(["check", str(path), "--which", which])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: malformed ")
    assert named in captured.err and captured.err.count("\n") == 1
