"""JSON encodings roundtrip for every value type and backend."""

import pytest

from xnadhm.errors import InvalidInput
from xnadhm.linalg import GF, RATIONAL, Matrix
from xnadhm.monad import build_jm
from xnadhm.quiver import embed_xn_as_rep
from xnadhm.sampling import random_costable_triple, random_xn, rng_from_seed
from xnadhm.serialize import (
    chart_from_json,
    chart_to_json,
    dumps,
    loads,
    matrix_from_json,
    matrix_to_json,
    monad_from_json,
    monad_to_json,
    plane_from_json,
    plane_to_json,
    rep_from_json,
    rep_to_json,
    xn_from_json,
    xn_to_json,
)
from xnadhm.xn import zeta


def test_matrix_complex_entries_as_pairs():
    M = Matrix.from_rows([[1 + 2j, 0], [0, -1j]])
    obj = matrix_to_json(M)
    assert obj["backend"] == "complex"
    assert obj["entries"][0] == [1.0, 2.0]
    assert matrix_from_json(obj) == M
    obj["entries"] = [[1, 2], [0, 0], [0, 0], [0, -1]]
    assert matrix_from_json(obj) == M


def test_matrix_rational_strings():
    M = Matrix.from_rows([["1/3", 2]], RATIONAL)
    obj = matrix_to_json(M)
    assert obj["entries"] == ["1/3", "2/1"]
    assert matrix_from_json(obj) == M


def test_matrix_prime_field_ints():
    M = Matrix.from_rows([[3, 4]], GF(5))
    obj = matrix_to_json(M)
    assert obj["backend"] == "gf(5)"
    assert obj["entries"] == [3, 4]
    assert matrix_from_json(obj) == M


def test_matrix_malformed():
    with pytest.raises(InvalidInput):
        matrix_from_json({"rows": 1, "cols": 1})


@pytest.mark.parametrize("entry", [2.5, 2.0, True, "2", None])
def test_matrix_prime_field_rejects_non_integers(entry):
    with pytest.raises(InvalidInput):
        matrix_from_json({"rows": 1, "cols": 2, "backend": "gf(5)",
                          "entries": [1, entry]})


@pytest.mark.parametrize("entry", [0.1, 2.0, True, False, "1/0"])
def test_matrix_rational_rejects_floats(entry):
    with pytest.raises(InvalidInput):
        matrix_from_json({"rows": 1, "cols": 1, "backend": "rational",
                          "entries": [entry]})


@pytest.mark.parametrize("entry", [
    [1.0], [1.0, 2.0, 3.0], [], 1.0, "1+2j", None, {"re": 1.0, "im": 0.0},
    [float("nan"), 0.0], [0.0, float("inf")], [-float("inf"), 0.0],
    [True, 0.0], [0.0, False], ["1", "0"], [None, 0.0], [10**400, 0]])
def test_matrix_complex_rejects_all_but_finite_pairs(entry):
    with pytest.raises(InvalidInput):
        matrix_from_json({"rows": 1, "cols": 2, "backend": "complex",
                          "entries": [[1.0, 0.0], entry]})


def test_matrix_exact_integer_entries_accepted():
    M = matrix_from_json({"rows": 1, "cols": 3, "backend": "gf(5)",
                          "entries": [7, -1, 0]})
    assert M == Matrix.from_rows([[2, 4, 0]], GF(5))
    R = matrix_from_json({"rows": 1, "cols": 2, "backend": "rational",
                          "entries": [3, "-1/2"]})
    assert R == Matrix.from_rows([[3, "-1/2"]], RATIONAL)


def test_roundtrip_composites():
    rng = rng_from_seed(0)
    plane = random_costable_triple(rng, 2)
    assert plane_from_json(loads(dumps(plane_to_json(plane)))) == plane
    d = random_xn(rng, 2, 2)
    assert xn_from_json(loads(dumps(xn_to_json(d)))) == d
    from xnadhm.xn import cover_chart
    cd = zeta(d, cover_chart(d))
    assert chart_from_json(loads(dumps(chart_to_json(cd)))) == cd
    r = embed_xn_as_rep(d)
    assert rep_from_json(loads(dumps(rep_to_json(r)))) == r
    mc = build_jm(plane, 2, 1)
    back = monad_from_json(loads(dumps(monad_to_json(mc))))
    assert back == mc and back.m == 1


def test_loads_rejects_garbage():
    with pytest.raises(InvalidInput):
        loads("{not json")


def _composites():
    """(reader, JSON object) for each composite type."""
    rng = rng_from_seed(7)
    d = random_xn(rng, 2, 2)
    return [
        (plane_from_json, plane_to_json(random_costable_triple(rng, 2))),
        (xn_from_json, xn_to_json(d)),
        (chart_from_json, chart_to_json(zeta(d, 0))),
        (rep_from_json, rep_to_json(embed_xn_as_rep(d))),
        (monad_from_json,
         monad_to_json(build_jm(random_costable_triple(rng, 2), 2, 1))),
    ]


@pytest.mark.parametrize("index", range(5))
def test_composite_readers_name_each_missing_key(index):
    """Each composite reader raises ``InvalidInput`` naming any one missing
    key, the monad's basis keys included, and says when the value is not a
    JSON object; a count that is no integer and a block list that is no
    list are refused too."""
    read, obj = _composites()[index]
    assert read(loads(dumps(obj))) is not None
    for key in obj:
        broken = {k: v for k, v in obj.items() if k != key}
        with pytest.raises(InvalidInput, match=f"missing key '{key}'"):
            read(broken)
    if "basis" in obj:
        for key in obj["basis"]:
            basis = {k: v for k, v in obj["basis"].items() if k != key}
            with pytest.raises(InvalidInput, match=f"missing key '{key}'"):
                read({**obj, "basis": basis})
        with pytest.raises(InvalidInput, match="not a JSON object"):
            read({**obj, "basis": [1, 2, 3]})
    for value in ([1, 2], "xn", 3, None):
        with pytest.raises(InvalidInput, match="not a JSON object"):
            read(value)
    for key, value in obj.items():
        if type(value) is int:
            with pytest.raises(InvalidInput, match="not an integer"):
                read({**obj, key: str(value)})
        elif type(value) is list:
            with pytest.raises(InvalidInput, match="not a JSON list"):
                read({**obj, key: 3})
