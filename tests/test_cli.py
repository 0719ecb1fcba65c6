"""CLI behaviour: generation determinism, condition checks, exit codes."""

import json
import subprocess
import sys

from xnadhm.cli import main
from xnadhm.serialize import dumps, loads, rep_to_json, xn_from_json, xn_to_json
from xnadhm.linalg import Matrix
from xnadhm.quiver import FramedRep
from xnadhm.sampling import random_xn, rng_from_seed


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


def test_check_valid_P(tmp_path, capsys):
    rng = rng_from_seed(0)
    d = random_xn(rng, 2, 2)
    path = tmp_path / "d.json"
    path.write_text(dumps(xn_to_json(d)))
    code, out = run_cli(["check", str(path), "--which", "P"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["results"] == {"P1": "pass", "P2": "pass", "P3": "pass"}


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


def test_campaign_jobs_parallel(capsys):
    code, out = run_cli(["campaign", "--suite", "lmp3", "--samples", "8",
                         "--seed", "3", "--jobs", "2"], capsys)
    assert code == 0
    assert json.loads(out)["ok"]


def test_entry_point_usage_error():
    proc = subprocess.run([sys.executable, "-m", "xnadhm.cli", "gen",
                           "--kind", "bogus"], capture_output=True)
    assert proc.returncode == 2
