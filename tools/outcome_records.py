"""Digest of the benchmark's outcome records, for checking that a change
keeps every verdict, tally and residual bit for bit.

    python3 tools/outcome_records.py [--compare ROOT]

For each workload of ``benches/workloads.py`` at the default seed 0 and the
held-out seed 1504, it runs rounds 0-5 untimed and untraced and prints one
line ``<workload> seed=<seed> <sha256>``: the SHA-256 of ``repr()`` of the
list of the rounds' outcome records.  Run it on two checkouts and compare
the lines; the library is imported from the ``src/`` next to this
directory.

With ``--compare ROOT`` it runs the same rounds on the checkout ROOT and on
this one, each in an interpreter of its own, and says whether a digest
that moved moved a verdict.  For each workload and seed it prints

    <workload> seed=<seed> verdicts=<same|moved> residual_change=<x>

``verdicts`` compares every entry of the records that is not a float
(verdicts, tallies, sample kinds and sizes) and is ``moved`` when one
differs or the records differ in shape.  ``residual_change`` is the largest
change of a float entry (the residuals), |new - old| / max(1, |old|):
the residuals are relative already, so a change below 1 reads as it is.
The exit status is 1 when a verdict or tally moved, 0 otherwise.
"""

import argparse
import hashlib
import math
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

SEEDS = (0, 1504)
ROUNDS = range(6)


def _records(name, seed):
    import workloads

    workload = workloads.WORKLOADS[name](seed)
    return [workload.round(k).outcomes for k in ROUNDS]


def digest(name, seed):
    return hashlib.sha256(repr(_records(name, seed)).encode()).hexdigest()


def _leaves(x):
    """The records ``x`` as a flat list: ("(", length) opens a tuple or a
    list, ("f", value) is a float, ("=", repr) any other entry."""
    if isinstance(x, (tuple, list)):
        return [("(", len(x))] + [y for v in x for y in _leaves(v)]
    if isinstance(x, (float, np.floating)):
        return [("f", float(x))]
    return [("=", repr(x))]


def _import_checkout(root):
    sys.path[:0] = [str(Path(root) / "src"), str(Path(root) / "benches")]
    import workloads

    return workloads


def _dump(root):
    """Pickle {(workload, seed): _leaves of its records} of the checkout
    ``root`` to stdout: the child interpreter of ``--compare``."""
    workloads = _import_checkout(root)
    pickle.dump({(name, seed): _leaves(_records(name, seed))
                 for name in workloads.WORKLOADS for seed in SEEDS},
                sys.stdout.buffer)


def _flat_records(root):
    code = (f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r})"
            "; import outcome_records; outcome_records._dump(sys.argv[1])")
    out = subprocess.run([sys.executable, "-c", code, str(root)],
                         capture_output=True, check=True)
    return pickle.loads(out.stdout)


def _float_change(old, new):
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    return abs(new - old) / max(1.0, abs(old))


def compare(old, new):
    """(verdicts equal, largest residual change) of two flattened record
    lists."""
    if len(old) != len(new) or any(
            a[0] != b[0] or (a[0] != "f" and a != b)
            for a, b in zip(old, new)):
        return False, math.nan
    return True, max((_float_change(a[1], b[1])
                      for a, b in zip(old, new) if a[0] == "f"), default=0.0)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", type=Path, metavar="ROOT",
                        help="checkout whose records this one's are "
                             "compared with")
    args = parser.parse_args(argv)
    if args.compare is None:
        for name in _import_checkout(ROOT).WORKLOADS:
            for seed in SEEDS:
                print(f"{name} seed={seed} {digest(name, seed)}", flush=True)
        return 0
    base, head = _flat_records(args.compare), _flat_records(ROOT)
    moved = False
    for key in head:
        same, change = compare(base.get(key, []), head[key])
        moved |= not same
        name, seed = key
        print(f"{name} seed={seed} verdicts={'same' if same else 'moved'} "
              f"residual_change={change:.3g}", flush=True)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
