"""Alternating pairs of benchmark runs on two checkouts, for a speed claim.

    python3 tools/bench_pairs.py --parent DIR --change DIR \\
        --workload oracle --seed 0 --pairs 10 --seconds 30 [--out FILE]

Each pair runs ``benches/run.py --workload W --seed S --seconds T --trace 0``
of both checkouts, one after the other: the parent first on even pairs and
the change first on odd pairs, so that a drift of the host over the session
weighs on both sides alike.  Every run prints one line; at the end the run
records and their summary are printed as one JSON object, and written to
``--out`` if given.

    python3 tools/bench_pairs.py --summarize FILE [FILE ...] [--out FILE]

merges the run records of earlier outputs (each a JSON object with a
``runs`` list, such as a committed ``BENCH_*.json``) into one summary.

The summary has one entry per end-to-end metric of ``BENCHMARK.json`` and
per ``"<workload> seed <seed>"``: the runs, lower quartile, median and
upper quartile of each side, ``change_wins`` (the pairs where the change is
strictly better, in the metric's ``better`` direction) and
``median_ratio`` (change median over parent median).  Beside it, the
verdict gives for the same metrics and keys one of three words:

* ``gain``: the change wins at least 9 of every 10 pairs, and its median
  is better than the parent's by more than the parent's interquartile
  spread;
* ``within bound``: otherwise, the change's median is worse than the
  parent's by no more than the metric's ``bound`` in ``BENCHMARK.json``
  (a fraction of the parent's median);
* ``worse``: otherwise.

The runs themselves are left untouched: nothing under ``benches/`` is
written.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ORDER = "pairs alternate which commit runs first (even pairs: parent first)"


def _raw_quartiles(values):
    """(lower quartile, median, upper quartile), inclusive method."""
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def _quartiles(values):
    q25, median, q75 = _raw_quartiles(values)
    return {"runs": len(values), "q25": round(q25, 4),
            "median": round(median, 4), "q75": round(q75, 4)}


def _compared(runs, metric):
    """(key, parent values, change values, wins, pairs) per
    ``"<workload> seed <seed>"`` for one metric ``{"name", "better"}``;
    wins counts the pairs where the change is strictly better."""
    groups = {}
    for run in runs:
        key = f"{run['workload']} seed {run['seed']}"
        groups.setdefault(key, {"parent": {}, "change": {}})
        groups[key][run["commit"]][run["pair"]] = run["result"]["metrics"]
    name, sign = metric["name"], _sign(metric)
    for key, sides in groups.items():
        parent = {k: m[name]["value"] for k, m in sides["parent"].items()}
        change = {k: m[name]["value"] for k, m in sides["change"].items()}
        pairs = sorted(parent.keys() & change.keys())
        wins = sum(sign * (change[k] - parent[k]) > 0 for k in pairs)
        yield (key, list(parent.values()), list(change.values()), wins,
               len(pairs))


def _sign(metric):
    return 1 if metric["better"] == "higher" else -1


def summarize(runs, end_to_end):
    """Summary of run records, each ``{"commit": "parent" | "change",
    "workload", "seed", "pair", "result": {"metrics": {name: {"value"}}}}``,
    for the metrics ``end_to_end`` (``BENCHMARK.json``'s list of
    ``{"name", "better"}``).  A pair where both sides are equal is no win."""
    summary = {}
    for metric in end_to_end:
        summary[metric["name"]] = {
            key: {"parent": _quartiles(parent), "change": _quartiles(change),
                  "change_wins": f"{wins} of {pairs}",
                  "median_ratio": round(statistics.median(change)
                                        / statistics.median(parent), 4)}
            for key, parent, change, wins, pairs in _compared(runs, metric)}
    return summary


def verdict(runs, end_to_end):
    """``gain``, ``within bound`` or ``worse`` per metric of ``end_to_end``
    (each ``{"name", "better", "bound"}``) and per workload and seed of the
    run records: the rules of the module docstring, on the unrounded
    quartiles."""
    out = {}
    for metric in end_to_end:
        sign = _sign(metric)
        out[metric["name"]] = verdicts = {}
        for key, parent, change, wins, pairs in _compared(runs, metric):
            p25, p50, p75 = _raw_quartiles(parent)
            c50 = statistics.median(change)
            if 10 * wins >= 9 * pairs > 0 and sign * (c50 - p50) > p75 - p25:
                verdicts[key] = "gain"
            elif sign * (c50 - p50) >= -metric["bound"] * abs(p50):
                verdicts[key] = "within bound"
            else:
                verdicts[key] = "worse"
    return out


def _end_to_end():
    return json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def _run(checkout, workload, seed, seconds):
    """(host line fields, result) of one untraced ``benches/run.py`` run."""
    checkout = Path(checkout).resolve()
    cmd = [sys.executable, str(checkout / "benches" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True,
                          cwd=checkout)
    lines = done.stdout.splitlines()
    if done.returncode or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({done.returncode}):\n"
                         f"{done.stderr}")
    env = next(line for line in lines if line.startswith("# "))
    host = dict(field.split("=", 1) for field in env[2:].split())
    return host, json.loads(lines[-1])


def run_pairs(args):
    runs, host = [], None
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change",
                                                             "parent")
        for commit in order:
            checkout = args.parent if commit == "parent" else args.change
            env, result = _run(checkout, args.workload, args.seed,
                               args.seconds)
            host = {"nproc": int(env["nproc"]), "python": env["python"],
                    "numpy": env["numpy"],
                    "blas_threads": int(env["blas_threads"]),
                    "jobs": int(env["jobs"])}
            runs.append({"commit": commit, "workload": args.workload,
                         "seed": args.seed, "pair": pair, "result": result})
            values = " ".join(f"{name}={m['value']:.6g}"
                              for name, m in result["metrics"].items())
            print(f"pair {pair} {commit:<6} {args.workload} seed "
                  f"{args.seed} correct={result['correct']} "
                  f"failed={result['failed']} {values}", flush=True)
    return {"command": (f"python3 benches/run.py --workload <workload> "
                        f"--seed <seed> --seconds {args.seconds:g} "
                        f"--trace 0"),
            "host": host, "order": ORDER, "runs": runs}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--summarize", nargs="+", type=Path, metavar="FILE")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.summarize:
        parts = [json.loads(path.read_text()) for path in args.summarize]
        report = {key: parts[0][key] for key in ("command", "host", "order")
                  if key in parts[0]}
        report["runs"] = [run for part in parts for run in part["runs"]]
    elif args.parent and args.change and args.workload and args.pairs > 0:
        report = run_pairs(args)
    else:
        parser.error("give --parent, --change, --workload and --pairs >= 1, "
                     "or --summarize")
    runs = report.pop("runs")
    report["correct"] = all(run["result"]["correct"] for run in runs)
    report["summary"] = summarize(runs, _end_to_end())
    report["verdict"] = verdict(runs, _end_to_end())
    report["runs"] = runs
    text = json.dumps(report, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
