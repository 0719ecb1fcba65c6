"""Call counts of the expensive kernels in the benchmark workloads: perf
evidence that does not move with the host's noise.

    python3 tools/call_ledger.py [--rounds 6] [--root DIR]

For each workload of ``benches/workloads.py`` at the default seed 0 and the
held-out seed 1504, it runs rounds 0 to ``--rounds`` - 1 untimed and
untraced and prints one line

    <workload> seed=<seed> _rref=.. _fraction_free=.. _checked_inverse=..
    _matmul=.. _integer_form=.. np.roots=.. svd=.. inv=.. eigvals=..
    solve=.. Matrix()=.. Fraction=..

counting the calls of the exact eliminations ``linalg._rref`` and
``linalg._fraction_free``, of the guarded inverse
``linalg._checked_inverse``, of the product ``linalg._matmul``, of
``linalg._integer_form`` (one per integer form N / d computed from a
rational array; a form that a ``Matrix`` keeps is computed once), of
``np.roots``, of the LAPACK kernels of ``linalg`` (``svd`` counts
``_svdvals`` and ``_svd``, ``inv`` counts ``_inv``, ``eigvals``
``_eigvals`` and ``solve`` ``_solve``; on a checkout without the kernels,
the np.linalg functions of the same names), the calls of the coercing
constructor ``Matrix.__init__`` (one per matrix built from outside values
or cast entry by entry; ``_wrap`` makes the other matrices without it),
and the ``Fraction`` constructions (calls of ``Fraction.__new__``).  Each
count of a function is taken by a wrapper installed under the name that
callers look up, in every library module that holds it, so a kernel that
calls another inside numpy (``np.roots`` calls ``eigvals``) counts once.
The np.linalg calls outside the kernels, of the unguarded
``linalg.inverse`` and ``linalg.det``, are not counted.  The counts are
deterministic: run the tool on two checkouts and compare the lines.  The
library and the workloads are imported from ``src/`` and ``benches/`` under
``--root``, by default the checkout that holds this tool, so one copy of
the tool can count an older checkout.
"""

import argparse
import importlib
import pkgutil
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

SEEDS = (0, 1504)

#: (label, owner, attribute) of each counted kernel; an owner named by a
#: string is the library module ``xnadhm.<owner>`` and every other library
#: module that imported the same function
KERNELS = (("_rref", "linalg", "_rref"),
           ("_fraction_free", "linalg", "_fraction_free"),
           ("_checked_inverse", "linalg", "_checked_inverse"),
           ("_matmul", "linalg", "_matmul"),
           ("_integer_form", "linalg", "_integer_form"),
           ("np.roots", np, "roots"))

#: (label, LAPACK kernels of ``linalg``, the np.linalg function that a
#: checkout without the kernels calls instead)
LAPACK = (("svd", ("_svdvals", "_svd"), "svd"),
          ("inv", ("_inv",), "inv"),
          ("eigvals", ("_eigvals",), "eigvals"),
          ("solve", ("_solve",), "solve"))


def _counting(fn, counts, label):
    def counted(*args, **kwargs):
        counts[label] += 1
        return fn(*args, **kwargs)
    return counted


def install(counts):
    """Wrap every counted kernel, ``Matrix.__init__`` and
    ``Fraction.__new__`` so that each call adds 1 to ``counts[label]``."""
    import xnadhm
    from xnadhm import linalg
    from xnadhm.linalg import Matrix

    modules = [importlib.import_module(f"xnadhm.{info.name}")
               for info in pkgutil.iter_modules(xnadhm.__path__)]
    kernels = list(KERNELS)
    for label, names, public in LAPACK:
        if all(hasattr(linalg, name) for name in names):
            kernels += [(label, "linalg", name) for name in names]
        else:
            kernels.append((label, np.linalg, public))
    for label, owner, attr in kernels:
        counts[label] = 0
        if isinstance(owner, str):
            fn = getattr(importlib.import_module(f"xnadhm.{owner}"), attr)
            wrapped = _counting(fn, counts, label)
            for module in modules:
                if getattr(module, attr, None) is fn:
                    setattr(module, attr, wrapped)
        else:
            setattr(owner, attr, _counting(getattr(owner, attr), counts,
                                           label))
    counts["Matrix()"] = 0
    init = Matrix.__init__

    def counted_init(self, *args, **kwargs):
        counts["Matrix()"] += 1
        init(self, *args, **kwargs)

    Matrix.__init__ = counted_init
    counts["Fraction"] = 0
    new = vars(Fraction)["__new__"].__func__

    def counted_new(cls, *args, **kwargs):
        counts["Fraction"] += 1
        return new(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counted_new)


def ledger(rounds):
    """[(workload, seed, {label: count})] over rounds 0..rounds-1."""
    import workloads

    counts = {}
    install(counts)
    out = []
    for name, workload in workloads.WORKLOADS.items():
        for seed in SEEDS:
            run = workload(seed)
            for label in counts:
                counts[label] = 0
            for k in range(rounds):
                run.round(k)
            out.append((name, seed, dict(counts)))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=6,
                        help="rounds per workload and seed, from round 0")
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout whose src/ and benches/ are counted")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.root / "src"), str(args.root / "benches")]
    for name, seed, counts in ledger(args.rounds):
        fields = " ".join(f"{label}={value}" for label, value in counts.items())
        print(f"{name} seed={seed} {fields}", flush=True)


if __name__ == "__main__":
    main()
