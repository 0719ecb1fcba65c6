"""The repository's tools run and print what they promise."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_outcome_records_prints_one_digest_per_workload_and_seed():
    """``tools/outcome_records.py`` prints six lines, one SHA-256 per
    (workload, seed) for the three workloads at seeds 0 and 1504."""
    out = subprocess.run([sys.executable, str(ROOT / "tools" /
                                              "outcome_records.py")],
                         capture_output=True, text=True, check=True,
                         timeout=300).stdout
    lines = out.splitlines()
    assert [line.rsplit(" ", 1)[0] for line in lines] == [
        f"{name} seed={seed}" for name in ("roundtrip", "transitions",
                                           "oracle") for seed in (0, 1504)]
    assert all(re.fullmatch(r"[0-9a-f]{64}", line.rsplit(" ", 1)[1])
               for line in lines)


def test_call_ledger_counts_the_kernels_of_one_round():
    """``tools/call_ledger.py --rounds 1`` prints one line per (workload,
    seed) with the eight counts in a fixed order; the float workload
    ``roundtrip`` makes no exact elimination and no ``Fraction``, and the
    exact workload ``oracle`` makes both."""
    out = subprocess.run([sys.executable, str(ROOT / "tools" /
                                              "call_ledger.py"),
                          "--rounds", "1"],
                         capture_output=True, text=True, check=True,
                         timeout=300).stdout
    lines = [line.split() for line in out.splitlines()]
    assert [" ".join(line[:2]) for line in lines] == [
        f"{name} seed={seed}" for name in ("roundtrip", "transitions",
                                           "oracle") for seed in (0, 1504)]
    counts = [dict(field.split("=") for field in line[2:]) for line in lines]
    labels = ["_rref", "_fraction_free", "_matmul", "np.roots", "svd", "inv",
              "eigvals", "Fraction"]
    assert all(list(c) == labels and all(v.isdigit() for v in c.values())
               for c in counts)
    for c in counts[:2]:
        assert c["_rref"] == c["_fraction_free"] == c["Fraction"] == "0"
    for c in counts[4:]:
        assert int(c["_rref"]) > 0 and int(c["Fraction"]) > 0


def test_reach_scan_lists_the_unreached_functions():
    """``tools/reach_scan.py``, cut down to one round per workload and two
    samples per suite, lists ``analyze_pencil``, which no workload or suite
    calls, leaves out ``zeta``, which the workloads reach, and ends on the
    count."""
    out = subprocess.run([sys.executable, str(ROOT / "tools" /
                                              "reach_scan.py"),
                          "--rounds", "1", "--samples", "2"],
                         capture_output=True, text=True, check=True,
                         timeout=300).stdout
    *unreached, closing = out.splitlines()
    assert "xnadhm.pencil.analyze_pencil" in unreached
    assert "xnadhm.xn.zeta" not in unreached
    assert unreached == sorted(unreached)
    reached, total = map(int, re.fullmatch(
        r"reached (\d+) of (\d+) functions", closing).groups())
    assert reached + len(unreached) == total


def _bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(commit, pair, rate, setup, seed=0):
    return {"commit": commit, "workload": "oracle", "seed": seed,
            "pair": pair, "result": {"correct": True, "metrics": {
                "samples_per_s": {"value": rate, "unit": "1/s"},
                "setup_s": {"value": setup, "unit": "s"}}}}


def test_bench_pairs_summary_on_fixed_numbers():
    """Quartiles (inclusive method), wins in each metric's direction with a
    tie counted as no win, and the median ratio, per workload and seed."""
    summarize = _bench_pairs().summarize
    end_to_end = [{"name": "samples_per_s", "better": "higher"},
                  {"name": "setup_s", "better": "lower"}]
    runs = [_run("parent", 0, 100.0, 0.10), _run("change", 0, 110.0, 0.10),
            _run("change", 1, 100.0, 0.09), _run("parent", 1, 100.0, 0.11),
            _run("parent", 2, 104.0, 0.12), _run("change", 2, 103.0, 0.13),
            _run("parent", 3, 96.0, 0.10), _run("change", 3, 120.0, 0.11),
            _run("parent", 0, 50.0, 0.2, seed=1504),
            _run("change", 0, 55.0, 0.1, seed=1504)]
    summary = summarize(runs, end_to_end)
    assert list(summary) == ["samples_per_s", "setup_s"]
    assert list(summary["samples_per_s"]) == ["oracle seed 0",
                                              "oracle seed 1504"]
    rate = summary["samples_per_s"]["oracle seed 0"]
    assert rate["parent"] == {"runs": 4, "q25": 99.0, "median": 100.0,
                              "q75": 101.0}
    assert rate["change"] == {"runs": 4, "q25": 102.25, "median": 106.5,
                              "q75": 112.5}
    # pair 1 ties at 100.0, pair 2 is lost
    assert rate["change_wins"] == "2 of 4"
    assert rate["median_ratio"] == 1.065
    setup = summary["setup_s"]["oracle seed 0"]
    # lower is better: pair 1 wins, pair 0 ties, pairs 2 and 3 lose
    assert setup["change_wins"] == "1 of 4"
    assert setup["parent"]["median"] == setup["change"]["median"] == 0.105
    assert setup["median_ratio"] == 1.0
    held_out = summary["setup_s"]["oracle seed 1504"]
    assert held_out["parent"] == {"runs": 1, "q25": 0.2, "median": 0.2,
                                  "q75": 0.2}
    assert held_out["change_wins"] == "1 of 1"
    assert held_out["median_ratio"] == 0.5


def test_bench_pairs_verdict_on_fixed_numbers():
    """``gain`` takes 9 of 10 pairs and a median gap past the parent's
    interquartile spread; otherwise a median worse by no more than the
    bound is ``within bound``, and a larger loss ``worse``."""
    tool = _bench_pairs()
    end_to_end = [{"name": "samples_per_s", "better": "higher",
                   "bound": 0.12},
                  {"name": "setup_s", "better": "lower", "bound": 0.25}]

    def pairs(parent, change, seed):
        return [run for k, (p, c) in enumerate(zip(parent, change))
                for run in (_run("parent", k, *p, seed=seed),
                            _run("change", k, *c, seed=seed))]

    base = [(100.0 + k % 3, 0.10) for k in range(10)]
    runs = (
        # seed 0: 10 of 10 rate wins by 5 against a spread of 2: a gain;
        # setup 0.1 -> 0.125 is 25 % worse, at the bound
        pairs(base, [(p + 5.0, 0.125) for p, _ in base], 0)
        # seed 1: 9 of 10 rate wins by 3 (one pair lost): a gain; setup
        # 0.1 -> 0.09 on 10 of 10, by more than the spread 0: a gain
        + pairs(base, [(p + 3.0, 0.09) for p, _ in base[:9]]
                + [(90.0, 0.09)], 1)
        # seed 2: 8 of 10 rate wins by 5: within bound; setup 0.1 -> 0.13
        # is 30 % worse
        + pairs(base, [(p + 5.0, 0.13) for p, _ in base[:8]]
                + [(90.0, 0.13)] * 2, 2)
        # seed 3: 10 of 10 rate wins by 1, inside the spread 2: within
        # bound; rate -12 % is at the bound, -13 % past it (seeds 4, 5)
        + pairs(base, [(p + 1.0, 0.1) for p, _ in base], 3)
        + pairs([(100.0, 0.1)], [(88.0, 0.1)], 4)
        + pairs([(100.0, 0.1)], [(87.0, 0.1)], 5))
    got = tool.verdict(runs, end_to_end)
    assert got == {
        "samples_per_s": {
            "oracle seed 0": "gain", "oracle seed 1": "gain",
            "oracle seed 2": "within bound", "oracle seed 3": "within bound",
            "oracle seed 4": "within bound", "oracle seed 5": "worse"},
        "setup_s": {
            "oracle seed 0": "within bound", "oracle seed 1": "gain",
            "oracle seed 2": "worse", "oracle seed 3": "within bound",
            "oracle seed 4": "within bound", "oracle seed 5": "within bound"}}
    # the summary of the same runs is unchanged by the verdict
    summary = tool.summarize(runs, end_to_end)
    assert summary["samples_per_s"]["oracle seed 1"]["change_wins"] == \
        "9 of 10"


def test_bench_pairs_summary_reproduces_a_committed_report():
    """The summary of ``BENCH_28.json``'s run records is its summary."""
    import json

    report = json.loads((ROOT / "BENCH_28.json").read_text())
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "end_to_end"]
    assert _bench_pairs().summarize(report["runs"],
                                    end_to_end) == report["summary"]
