"""Command-line driver.

Three subcommands, all JSON on stdout:

* ``gen``      -- emit sample data (point configurations, random co-stable
                  configurations, random framed representations),
* ``check``    -- run one condition family on a JSON file,
* ``campaign`` -- run a named verification campaign.

Exit codes: 0 success, 1 verification failure, 2 usage/parse error,
3 resource/retry exhaustion.  ``ADHM_TOL`` overrides the default tolerance.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import campaigns, sampling, serialize
from .errors import XnAdhmError
from .linalg import backend_from_name
from .monad import compose_residual, framing_residual, max_residual
from .plane import check_T1, check_T2
from .quiver import Verdict, check_relations, check_semistable_spectral
from .xn import check_P1, check_P2, check_P3_direct, from_xn_points

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

GEN_RETRIES = 64


def _default_tol():
    env = os.environ.get("ADHM_TOL")
    return float(env) if env else None


def _parse_points(text, backend):
    pts = []
    for chunk in text.split(";"):
        z, w = chunk.split(",")
        if backend.exact:
            pts.append((backend.coerce(z.strip()), backend.coerce(w.strip())))
        else:
            pts.append((complex(z), complex(w)))
    return pts


def _emit(obj):
    sys.stdout.write(serialize.dumps(obj) + "\n")


def cmd_gen(args) -> int:
    if args.n < 1 or args.c < 1:
        print("error: --n and --c must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    try:
        backend = backend_from_name(args.backend)
    except XnAdhmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rng = sampling.rng_from_seed(args.seed)
    if args.kind == "points":
        if not args.points:
            print("error: --points required for kind=points", file=sys.stderr)
            return EXIT_USAGE
        try:
            pts = _parse_points(args.points, backend)
            if len(pts) != args.c:
                print(f"error: expected {args.c} points", file=sys.stderr)
                return EXIT_USAGE
            d = from_xn_points(args.n, args.m, pts, backend)
        except (XnAdhmError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        _emit(serialize.xn_to_json(d))
        return EXIT_OK
    if backend.exact:
        print("error: random generation only runs on the complex backend",
              file=sys.stderr)
        return EXIT_USAGE
    if args.kind == "random-costable":
        for _ in range(GEN_RETRIES):
            try:
                d = sampling.random_xn(rng, args.n, args.c)
            except XnAdhmError:
                continue
            _emit(serialize.xn_to_json(d))
            return EXIT_OK
        print("error: retry budget exhausted", file=sys.stderr)
        return EXIT_RESOURCE
    # random-rep
    for _ in range(GEN_RETRIES):
        try:
            r = sampling.random_rep(rng, args.n, args.c, framed=args.framed)
        except XnAdhmError:
            continue
        _emit(serialize.rep_to_json(r))
        return EXIT_OK
    print("error: retry budget exhausted", file=sys.stderr)
    return EXIT_RESOURCE


def _check_report(checks, tol):
    results = {}
    worst = 0.0
    for name, fn in checks:
        out = fn()
        if isinstance(out, tuple):
            ok, res = out
            worst = max(worst, res)
        else:
            ok = out
        results[name] = "pass" if ok else "fail"
    return results, worst


def cmd_check(args) -> int:
    tol = args.tol if args.tol is not None else _default_tol()
    try:
        with open(args.file) as fh:
            obj = serialize.loads(fh.read())
    except (OSError, XnAdhmError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    start = time.perf_counter()
    try:
        if args.which == "P":
            d = serialize.xn_from_json(obj)
            checks = [("P1", lambda: check_P1(d, tol)),
                      ("P2", lambda: check_P2(d, tol)),
                      ("P3", lambda: check_P2(d, tol)
                       and check_P3_direct(d, tol))]
        elif args.which == "T":
            t = serialize.plane_from_json(obj)
            checks = [("T1", lambda: check_T1(t, tol)),
                      ("T2", lambda: check_T2(t, tol))]
        elif args.which == "Q":
            r = serialize.rep_from_json(obj)
            checks = [("Q1", lambda: check_relations(r, tol)),
                      ("semistable", lambda: check_semistable_spectral(r, tol)
                       is Verdict.SEMISTABLE)]
        else:
            mc = serialize.monad_from_json(obj)

            def within(residuals):
                worst = max_residual(residuals)
                return worst <= (tol or 1e-9), worst

            checks = [("compose", lambda: within(compose_residual(mc))),
                      ("framing", lambda: within(framing_residual(mc)))]
        results, worst = _check_report(checks, tol)
    except (XnAdhmError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = {"command": "check", "file": args.file, "which": args.which,
              "results": results, "max_residual": worst,
              "elapsed_seconds": round(time.perf_counter() - start, 3)}
    _emit(report)
    return EXIT_OK if all(v == "pass" for v in results.values()) else EXIT_FAIL


def cmd_campaign(args) -> int:
    tol = args.tol if args.tol is not None else _default_tol()
    report = campaigns.run_campaign(args.suite, samples=args.samples,
                                    seed=args.seed, tol=tol, jobs=args.jobs)
    report["command"] = "campaign"
    _emit(report)
    return EXIT_OK if report["ok"] else EXIT_FAIL


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
    camp.add_argument("--jobs", type=int, default=1)
    camp.set_defaults(fn=cmd_campaign)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    np.seterr(all="ignore")
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
