"""Command-line driver.

Three subcommands, all JSON on stdout:

* ``gen``      -- emit sample data (point configurations, random co-stable
                  configurations, random framed representations),
* ``check``    -- run one condition family on a JSON file,
* ``campaign`` -- run a named verification campaign, or with ``--replay
                  INDEX`` only its generated sample INDEX.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 retry
exhaustion.  A usage error is a bad argument, ``ADHM_TOL`` or input file, or
a ``check`` family that the file's backend cannot decide; each command
raises ``_UsageError`` for it before printing anything, and ``main`` turns
it into one ``error:`` line on stderr and exit 2.  An exception raised while
a campaign runs is not a usage error.  ``ADHM_TOL`` overrides the default
tolerance; ``--tol`` and ``ADHM_TOL`` must be finite numbers >= 0.
"""

from __future__ import annotations

import argparse
import cmath
import os
import sys
import time
from fractions import Fraction
from functools import partial

import numpy as np

from . import campaigns, linalg, sampling, serialize
from .errors import InvalidInput, XnAdhmError
from .linalg import backend_from_name
from .monad import compose_residual, framing_residual, max_residual
from .plane import check_T1, check_T2
from .quiver import Verdict, check_relations, check_semistable_spectral
from .xn import _pencil_step, check_P1, from_xn_points

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

GEN_RETRIES = 64
#: largest --c of the random kinds: the co-stable draw redraws its c
#: eigenvalues until all pairs are separated, which takes seconds from
#: c = 60 on and does not finish at c = 100
RANDOM_MAX_C = 50


class _UsageError(Exception):
    """Bad input from outside the program; ``main`` prints it and exits 2."""


def _tol_arg(args):
    """``--tol``, else ``ADHM_TOL``, else None (the default tolerance); a
    usage error unless the value is a finite number >= 0."""
    if args.tol is not None:
        source, value = "--tol", args.tol
    else:
        source, value = "ADHM_TOL", os.environ.get("ADHM_TOL")
        if not value:
            return None
    try:
        return linalg._tol(value)
    except InvalidInput as exc:
        raise _UsageError(f"{source}: {exc}") from None


def _coordinate(text, backend):
    """One point coordinate: a rational into an exact backend, else a finite
    complex number."""
    if backend.exact:
        return backend.coerce(Fraction(text.strip()))
    x = complex(text)
    if not cmath.isfinite(x):
        raise _UsageError(f"point coordinate {text.strip()!r} is not finite")
    return x


def _parse_points(text, backend):
    pts = []
    for chunk in text.split(";"):
        z, w = chunk.split(",")
        pts.append((_coordinate(z, backend), _coordinate(w, backend)))
    return pts


def _emit(obj):
    sys.stdout.write(serialize.dumps(obj) + "\n")


def cmd_gen(args) -> int:
    if args.n < 1 or args.c < 1 or args.seed < 0:
        raise _UsageError("--n and --c must be >= 1, --seed >= 0")
    try:
        backend = backend_from_name(args.backend)
        if args.kind == "points":
            if not args.points:
                raise _UsageError("--points required for kind=points")
            pts = _parse_points(args.points, backend)
            if len(pts) != args.c:
                raise _UsageError(f"expected {args.c} points")
            _emit(serialize.xn_to_json(
                from_xn_points(args.n, args.m, pts, backend)))
            return EXIT_OK
    except (XnAdhmError, ValueError, ZeroDivisionError) as exc:
        raise _UsageError(exc) from None
    if backend.exact:
        raise _UsageError("random generation only runs on the complex backend")
    if args.c > RANDOM_MAX_C:
        raise _UsageError(f"random kinds need --c <= {RANDOM_MAX_C}")
    rng = sampling.rng_from_seed(args.seed)
    if args.kind == "random-costable":
        draw = partial(sampling.random_xn, rng, args.n, args.c)
        to_json = serialize.xn_to_json
    else:
        draw = partial(sampling.random_rep, rng, args.n, args.c,
                       framed=args.framed)
        to_json = serialize.rep_to_json
    for _ in range(GEN_RETRIES):
        try:
            data = draw()
        except XnAdhmError:
            continue
        _emit(to_json(data))
        return EXIT_OK
    print("error: retry budget exhausted", file=sys.stderr)
    return EXIT_RESOURCE


def _verdicts(which, obj, tol):
    """({check name: verdict}, worst residual) of one check family on a
    file's object; the residual is 0 where the family reports none."""
    if which == "P":
        d = serialize.xn_from_json(obj)
        p2, p3 = _pencil_step(d, tol)
        return {"P1": check_P1(d, tol), "P2": p2, "P3": bool(p3)}, 0.0
    if which == "T":
        t = serialize.plane_from_json(obj)
        return {"T1": check_T1(t, tol), "T2": check_T2(t, tol)}, 0.0
    if which == "Q":
        r = serialize.rep_from_json(obj)
        return {"Q1": check_relations(r, tol),
                "semistable": check_semistable_spectral(r, tol)
                is Verdict.SEMISTABLE}, 0.0
    mc = serialize.monad_from_json(obj)
    residuals = {"compose": compose_residual(mc),
                 "framing": framing_residual(mc)}
    if mc.backend.exact:
        return {name: all(R.is_zero() for R in rs)
                for name, rs in residuals.items()}, 0.0
    worst = {name: max_residual(rs) for name, rs in residuals.items()}
    return ({name: w <= linalg._tol(tol) for name, w in worst.items()},
            max(worst.values()))


def cmd_check(args) -> int:
    tol = _tol_arg(args)
    try:
        with open(args.file) as fh:
            obj = serialize.loads(fh.read())
        start = time.perf_counter()
        verdicts, worst = _verdicts(args.which, obj, tol)
    except (OSError, XnAdhmError, KeyError, TypeError) as exc:
        raise _UsageError(exc) from None
    results = {name: "pass" if ok else "fail" for name, ok in verdicts.items()}
    _emit({"command": "check", "file": args.file, "which": args.which,
           "results": results, "max_residual": worst,
           "elapsed_seconds": round(time.perf_counter() - start, 3)})
    return EXIT_OK if all(verdicts.values()) else EXIT_FAIL


def cmd_campaign(args) -> int:
    tol = _tol_arg(args)
    if args.samples < 0 or args.seed < 0:
        raise _UsageError("--samples and --seed must be >= 0")
    if args.replay is not None:
        return _replay(args, tol)
    report = campaigns.run_campaign(args.suite, samples=args.samples,
                                    seed=args.seed, tol=tol)
    report["command"] = "campaign"
    _emit(report)
    return EXIT_OK if report["ok"] else EXIT_FAIL


def _replay(args, tol) -> int:
    """``campaign --replay INDEX``: generated sample INDEX of the campaign
    alone, its verdicts, worst residual and counts as one JSON object."""
    start = time.perf_counter()
    try:
        verdicts, worst, counts = campaigns.replay_sample(
            args.suite, args.replay, args.samples, args.seed, tol)
    except IndexError as exc:
        raise _UsageError(f"--replay: {exc}") from None
    ok = bool(verdicts) and all(verdicts.values())
    _emit({"command": "campaign", "suite": args.suite, "seed": args.seed,
           "samples": args.samples, "replay": args.replay,
           "verdicts": {name: "pass" if v else "fail"
                        for name, v in verdicts.items()},
           "residual": worst, "counts": counts,
           "elapsed_seconds": round(time.perf_counter() - start, 3),
           "ok": ok})
    return EXIT_OK if ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="xnadhm",
        description="ADHM data, quiver stability and monad checks for point "
                    "configurations on total spaces of O(-n) over P^1")
    sub = ap.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit sample data as JSON")
    gen.add_argument("--kind", choices=["points", "random-costable",
                                        "random-rep"], default="random-costable")
    gen.add_argument("--n", type=int, default=1)
    gen.add_argument("--c", type=int, default=1)
    gen.add_argument("--m", type=int, default=0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--framed", action="store_true",
                     help="random-rep: include nonzero framing blocks")
    gen.add_argument("--backend", type=str, default="complex",
                     help="complex, rational, or gf:p (point data only)")
    gen.add_argument("--points", type=str, default=None,
                     help='chart coordinates "z1,w1;z2,w2;..."')
    gen.set_defaults(fn=cmd_gen)

    chk = sub.add_parser("check", help="run a condition family on a file")
    chk.add_argument("file")
    chk.add_argument("--which", choices=["P", "Q", "T", "monad"], required=True)
    chk.add_argument("--tol", type=float, default=None)
    chk.set_defaults(fn=cmd_check)

    camp = sub.add_parser("campaign", help="run a verification campaign")
    camp.add_argument("--suite", choices=list(campaigns.SUITES), required=True)
    camp.add_argument("--samples", type=int, default=100)
    camp.add_argument("--seed", type=int, default=0)
    camp.add_argument("--tol", type=float, default=None)
    camp.add_argument("--replay", type=int, default=None, metavar="INDEX",
                      help="run only generated sample INDEX and print its "
                           "outcome")
    camp.set_defaults(fn=cmd_campaign)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(all="ignore"):
            return args.fn(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
