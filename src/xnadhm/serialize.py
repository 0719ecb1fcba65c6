"""JSON encoding of every value type.

Matrix files look like ``{"rows": r, "cols": c, "backend": "complex",
"entries": [...]}`` with complex entries as [re, im] pairs, rationals as
"p/q" strings and prime-field residues as plain integers.  The composite
types mirror their field layout.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import InvalidInput
from .linalg import Matrix, backend_from_name
from .monad import GaugeElement, MonadCoeffs
from .plane import PlaneADHM
from .quiver import FramedRep
from .xn import ChartData, XnADHM


def _entry_to_json(x, backend):
    if backend.kind == "complex":
        return [x.real, x.imag]
    if backend.kind == "rational":
        return f"{x.numerator}/{x.denominator}"
    return int(x)


def _entry_from_json(v, backend):
    if backend.kind == "complex":
        return complex(v[0], v[1])
    if backend.kind == "rational":
        return Fraction(v)
    return int(v)


def matrix_to_json(M: Matrix) -> dict:
    return {
        "rows": M.rows,
        "cols": M.cols,
        "backend": repr(M.backend),
        "entries": [_entry_to_json(x, M.backend)
                    for row in M.row_list() for x in row],
    }


def matrix_from_json(obj) -> Matrix:
    try:
        backend = backend_from_name(obj["backend"])
        entries = [_entry_from_json(v, backend) for v in obj["entries"]]
        return Matrix(obj["rows"], obj["cols"], entries, backend)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput(f"malformed matrix JSON: {exc}") from None


def plane_to_json(d: PlaneADHM) -> dict:
    return {"c": d.c, "b1": matrix_to_json(d.b1), "b2": matrix_to_json(d.b2),
            "e": matrix_to_json(d.e)}


def plane_from_json(obj) -> PlaneADHM:
    return PlaneADHM(obj["c"], matrix_from_json(obj["b1"]),
                     matrix_from_json(obj["b2"]), matrix_from_json(obj["e"]))


def xn_to_json(d: XnADHM) -> dict:
    return {"n": d.n, "c": d.c, "A1": matrix_to_json(d.A1),
            "A2": matrix_to_json(d.A2),
            "C": [matrix_to_json(C) for C in d.C],
            "e": matrix_to_json(d.e)}


def xn_from_json(obj) -> XnADHM:
    return XnADHM(obj["n"], obj["c"], matrix_from_json(obj["A1"]),
                  matrix_from_json(obj["A2"]),
                  tuple(matrix_from_json(C) for C in obj["C"]),
                  matrix_from_json(obj["e"]))


def chart_to_json(cd: ChartData) -> dict:
    return {"m": cd.m, "B": matrix_to_json(cd.B), "E": matrix_to_json(cd.E),
            "e": matrix_to_json(cd.e), "A2m": matrix_to_json(cd.A2m)}


def chart_from_json(obj) -> ChartData:
    return ChartData(obj["m"], matrix_from_json(obj["B"]),
                     matrix_from_json(obj["E"]), matrix_from_json(obj["e"]),
                     matrix_from_json(obj["A2m"]))


def rep_to_json(r: FramedRep) -> dict:
    return {"n": r.n, "v0": r.v0, "v1": r.v1, "w": r.w,
            "A1": matrix_to_json(r.A1), "A2": matrix_to_json(r.A2),
            "C": [matrix_to_json(C) for C in r.C],
            "e": matrix_to_json(r.e),
            "f": [matrix_to_json(f) for f in r.f]}


def rep_from_json(obj) -> FramedRep:
    return FramedRep(obj["n"], obj["v0"], obj["v1"], obj["w"],
                     matrix_from_json(obj["A1"]), matrix_from_json(obj["A2"]),
                     tuple(matrix_from_json(C) for C in obj["C"]),
                     matrix_from_json(obj["e"]),
                     tuple(matrix_from_json(f) for f in obj["f"]))


def monad_to_json(mc: MonadCoeffs) -> dict:
    return {"basis": {"n": mc.n, "c": mc.c, "m": mc.m},
            "alpha1": [matrix_to_json(M) for M in mc.alpha1],
            "alpha2": [matrix_to_json(M) for M in mc.alpha2],
            "beta1": [matrix_to_json(M) for M in mc.beta1],
            "beta2": [matrix_to_json(M) for M in mc.beta2],
            "xi": matrix_to_json(mc.xi)}


def monad_from_json(obj) -> MonadCoeffs:
    b = obj["basis"]
    return MonadCoeffs(b["n"], b["c"], b["m"],
                       tuple(matrix_from_json(M) for M in obj["alpha1"]),
                       tuple(matrix_from_json(M) for M in obj["alpha2"]),
                       tuple(matrix_from_json(M) for M in obj["beta1"]),
                       tuple(matrix_from_json(M) for M in obj["beta2"]),
                       matrix_from_json(obj["xi"]))


def gauge_to_json(g: GaugeElement) -> dict:
    return {"phi": matrix_to_json(g.phi), "psi11": matrix_to_json(g.psi11),
            "psi12": [matrix_to_json(M) for M in g.psi12],
            "psi22": matrix_to_json(g.psi22), "chi": matrix_to_json(g.chi)}


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"not valid JSON: {exc}") from None
