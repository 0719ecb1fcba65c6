"""JSON encoding of every value type.

Matrix files look like ``{"rows": r, "cols": c, "backend": "complex",
"entries": [...]}`` with complex entries as [re, im] pairs, rationals as
"p/q" strings and prime-field residues as plain integers.  The composite
types mirror their field layout.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .errors import InvalidInput
from .linalg import Matrix, backend_from_name
from .monad import MonadCoeffs
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
        # [re, im] of finite JSON numbers: not bool, str or NaN/Infinity
        if type(v) is list and len(v) == 2 and all(
                type(x) in (int, float) and math.isfinite(x) for x in v):
            return complex(v[0], v[1])
        raise InvalidInput(f"complex entry {v!r} is not a pair of finite "
                           "real numbers")
    if backend.kind == "rational":
        if isinstance(v, float):
            raise InvalidInput(f"rational entry {v!r} is a float; "
                               "write it as a \"p/q\" string")
        if isinstance(v, bool):
            raise InvalidInput(f"rational entry {v!r} is not a number")
        return Fraction(v)
    if type(v) is not int:          # also rejects bool, an int subclass
        raise InvalidInput(f"{backend} entry {v!r} is not an integer")
    return v


def matrix_to_json(M: Matrix) -> dict:
    return {
        "rows": M.rows,
        "cols": M.cols,
        "backend": repr(M.backend),
        "entries": [_entry_to_json(x, M.backend)
                    for row in M.entries.tolist() for x in row],
    }


def matrix_from_json(obj) -> Matrix:
    try:
        backend = backend_from_name(obj["backend"])
        entries = [_entry_from_json(v, backend) for v in obj["entries"]]
        return Matrix(obj["rows"], obj["cols"], entries, backend)
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise InvalidInput(f"malformed matrix JSON: {exc}") from None


def _fields(obj, what, ints=(), mats=(), lists=(), objs=()):
    """The values of a composite's keys in the JSON object ``obj``: the
    integers ``ints``, then the matrices ``mats`` and the lists of matrices
    ``lists``, each read by ``matrix_from_json``, then the values of
    ``objs`` as they are, for the caller to read.  Malformed input raises
    ``InvalidInput`` naming the first missing key, or saying that ``obj`` is
    not a JSON object, a count not an integer or a list not a JSON list."""
    if type(obj) is not dict:
        raise InvalidInput(f"malformed {what} JSON: the value is not a "
                           f"JSON object ({type(obj).__name__})")
    for key in (*ints, *mats, *lists, *objs):
        if key not in obj:
            raise InvalidInput(f"malformed {what} JSON: missing key {key!r}")
    for key in ints:
        if type(obj[key]) is not int:
            raise InvalidInput(f"malformed {what} JSON: {key!r} is not an "
                               "integer")
    for key in lists:
        if type(obj[key]) is not list:
            raise InvalidInput(f"malformed {what} JSON: {key!r} is not a "
                               "JSON list")
    return ([obj[key] for key in ints]
            + [matrix_from_json(obj[key]) for key in mats]
            + [[matrix_from_json(M) for M in obj[key]] for key in lists]
            + [obj[key] for key in objs])


def plane_to_json(d: PlaneADHM) -> dict:
    """Public API: writes the plane-triple file that ``xnadhm check --which
    T`` reads."""
    return {"c": d.c, "b1": matrix_to_json(d.b1), "b2": matrix_to_json(d.b2),
            "e": matrix_to_json(d.e)}


def plane_from_json(obj) -> PlaneADHM:
    return PlaneADHM(*_fields(obj, "plane", ints=("c",),
                              mats=("b1", "b2", "e")))


def xn_to_json(d: XnADHM) -> dict:
    return {"n": d.n, "c": d.c, "A1": matrix_to_json(d.A1),
            "A2": matrix_to_json(d.A2),
            "C": [matrix_to_json(C) for C in d.C],
            "e": matrix_to_json(d.e)}


def xn_from_json(obj) -> XnADHM:
    n, c, A1, A2, e, C = _fields(obj, "configuration", ints=("n", "c"),
                                 mats=("A1", "A2", "e"), lists=("C",))
    return XnADHM(n, c, A1, A2, C, e)


def chart_to_json(cd: ChartData) -> dict:
    """Public API: the JSON form of one chart's data (m, B, E, e, A2m), which
    ``chart_from_json`` reads back; the CLI takes no chart files."""
    return {"m": cd.m, "B": matrix_to_json(cd.B), "E": matrix_to_json(cd.E),
            "e": matrix_to_json(cd.e), "A2m": matrix_to_json(cd.A2m)}


def chart_from_json(obj) -> ChartData:
    """Public API: the ``ChartData`` that ``chart_to_json`` wrote."""
    return ChartData(*_fields(obj, "chart", ints=("m",),
                              mats=("B", "E", "e", "A2m")))


def rep_to_json(r: FramedRep) -> dict:
    return {"n": r.n, "v0": r.v0, "v1": r.v1, "w": r.w,
            "A1": matrix_to_json(r.A1), "A2": matrix_to_json(r.A2),
            "C": [matrix_to_json(C) for C in r.C],
            "e": matrix_to_json(r.e),
            "f": [matrix_to_json(f) for f in r.f]}


def rep_from_json(obj) -> FramedRep:
    n, v0, v1, w, A1, A2, e, C, f = _fields(
        obj, "representation", ints=("n", "v0", "v1", "w"),
        mats=("A1", "A2", "e"), lists=("C", "f"))
    return FramedRep(n, v0, v1, w, A1, A2, C, e, f)


def monad_to_json(mc: MonadCoeffs) -> dict:
    return {"basis": {"n": mc.n, "c": mc.c, "m": mc.m},
            "alpha1": [matrix_to_json(M) for M in mc.alpha1],
            "alpha2": [matrix_to_json(M) for M in mc.alpha2],
            "beta1": [matrix_to_json(M) for M in mc.beta1],
            "beta2": [matrix_to_json(M) for M in mc.beta2],
            "xi": matrix_to_json(mc.xi)}


def monad_from_json(obj) -> MonadCoeffs:
    xi, alpha1, alpha2, beta1, beta2, basis = _fields(
        obj, "monad", mats=("xi",),
        lists=("alpha1", "alpha2", "beta1", "beta2"), objs=("basis",))
    n, c, m = _fields(basis, "monad basis", ints=("n", "c", "m"))
    return MonadCoeffs(n, c, m, alpha1, alpha2, beta1, beta2, xi)


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"not valid JSON: {exc}") from None
