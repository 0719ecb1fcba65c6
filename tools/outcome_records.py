"""Digest of the benchmark's outcome records, for checking that a change
keeps every verdict, tally and residual bit for bit.

    python3 tools/outcome_records.py

For each workload of ``benches/workloads.py`` at the default seed 0 and the
held-out seed 1504, it runs rounds 0-5 untimed and untraced and prints one
line ``<workload> seed=<seed> <sha256>``: the SHA-256 of ``repr()`` of the
list of the rounds' outcome records.  Run it on two checkouts and compare
the lines; the library is imported from the ``src/`` next to this
directory.
"""

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benches")]

import workloads  # noqa: E402

SEEDS = (0, 1504)
ROUNDS = range(6)


def digest(name, seed):
    workload = workloads.WORKLOADS[name](seed)
    records = [workload.round(k).outcomes for k in ROUNDS]
    return hashlib.sha256(repr(records).encode()).hexdigest()


def main():
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            print(f"{name} seed={seed} {digest(name, seed)}", flush=True)


if __name__ == "__main__":
    main()
