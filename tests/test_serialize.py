"""JSON interchange: round trips, canonical bytes, malformed input."""

import json

import pytest

from conftest import circle, two_sphere
from ssetkit.build import product
from ssetkit.chain import homology
from ssetkit.errors import ValidationError
from ssetkit.excision import reduced_suspension, unreduced_suspension
from ssetkit.quasicat import is_quasicategory_up_to
from ssetkit.serialize import (
    canonical_dumps,
    chain_from_record,
    chain_to_record,
    group_to_record,
    map_from_record,
    map_to_record,
    preorder_from_record,
    sset_from_record,
    sset_to_record,
    verdict_to_record,
)
from ssetkit.simplicial_chains import normalized_chains
from ssetkit.sset import SSetMap, boundary, horn, pointed, standard_simplex


def test_sset_round_trip():
    for X in [standard_simplex(2), boundary(3), circle(), two_sphere()]:
        back = sset_from_record(sset_to_record(X))
        assert back == X
        assert back.basepoint == X.basepoint


@pytest.mark.parametrize(
    "build",
    [
        lambda: standard_simplex(3),
        lambda: boundary(3),
        lambda: horn(3, 1),
        circle,
        two_sphere,
        lambda: product(standard_simplex(2), standard_simplex(2)).space,
        lambda: product(circle(), boundary(2)).space,
        lambda: reduced_suspension(two_sphere()),
        lambda: reduced_suspension(pointed(boundary(2), "0")),
        lambda: unreduced_suspension(boundary(2)),
    ],
    ids=["simplex3", "boundary3", "horn3_1", "circle", "s2", "product22",
         "circle-x-boundary2", "suspension-s2", "suspension-boundary2",
         "unreduced-suspension"],
)
def test_round_trip_shares_each_nondegenerate_face(build):
    # ``[[], name]`` entries are read once per (name, dimension): equal
    # nondegenerate faces come back as one object.
    X = build()
    back = sset_from_record(sset_to_record(X))
    assert back == X
    assert back.basepoint == X.basepoint
    shared = {}
    for faces in back.faces.values():
        for sx in faces:
            if not sx.is_degenerate:
                assert shared.setdefault(sx, sx) is sx


def test_canonical_bytes_are_stable():
    X = two_sphere()
    a = canonical_dumps(sset_to_record(X))
    b = canonical_dumps(sset_from_record(json.loads(a)) and sset_to_record(X))
    assert a == b
    assert a.endswith("\n")
    # key order independence
    rec = json.loads(a)
    shuffled = dict(reversed(list(rec.items())))
    assert canonical_dumps(shuffled) == a


def test_map_round_trip():
    incl = SSetMap.inclusion(boundary(2), standard_simplex(2))
    rec = map_to_record(incl)
    back = map_from_record(incl.source, incl.target, rec)
    assert back == incl


def test_chain_round_trip():
    c = normalized_chains(two_sphere())
    rec = chain_to_record(c)
    back = chain_from_record(rec)
    assert back == c
    assert canonical_dumps(chain_to_record(back)) == canonical_dumps(rec)


def test_group_record():
    g = homology(normalized_chains(two_sphere()), 2)
    assert group_to_record(g) == {"rank": 1, "torsion": []}


def test_verdict_record():
    v = is_quasicategory_up_to(boundary(2), 2)
    rec = verdict_to_record(v)
    assert rec["ok"] is False
    assert rec["witness"]["n"] == 2 and rec["witness"]["i"] == 1
    ok = verdict_to_record(is_quasicategory_up_to(standard_simplex(2), 2))
    assert ok == {"ok": True, "checked_dim": 2}


def test_preorder_record():
    P = preorder_from_record({"elements": ["a", "b"], "pairs": [["a", "b"]]})
    assert P.leq("a", "b") and P.leq("a", "a")
    assert not P.leq("b", "a")


def test_malformed_sset_records():
    with pytest.raises(ValidationError):
        sset_from_record({"cells": "not a list"})
    with pytest.raises(ValidationError):
        sset_from_record({"cells": [["a"], ["e"]], "faces": {"e": [[[], "zz"]]}})
    with pytest.raises(ValidationError):
        sset_from_record({"cells": [["a"]], "faces": {}, "basepoint": "b"})


def test_malformed_chain_records():
    with pytest.raises(ValidationError):
        chain_from_record({"low": 0, "high": 1, "ranks": [1], "boundaries": {}})
    with pytest.raises(ValidationError):
        chain_from_record({"low": 0, "high": 1, "ranks": [1, 1],
                           "boundaries": {"1": [[1, 2]]}})
    for record in (
        {"low": "x", "high": 1, "ranks": [1, 1]},
        {"low": 0, "high": 1, "ranks": [1, 1], "boundaries": [[1]]},
        {"low": 0, "high": 1, "ranks": [1, 1], "boundaries": {"1": [["a"]]}},
        {"low": 0, "high": 1, "ranks": [1, 1], "boundaries": {"1": 5}},
    ):
        with pytest.raises(ValidationError):
            chain_from_record(record)


def test_chain_record_rejects_bool_entries():
    # JSON true would otherwise pass as the integer 1.
    with pytest.raises(ValidationError, match="integer rows"):
        chain_from_record({"low": 0, "high": 1, "ranks": [1, 1],
                           "boundaries": {"1": [[True]]}})


@pytest.mark.parametrize(
    "field, value",
    [("low", True), ("low", 0.0), ("high", True), ("high", 1.7), ("high", "1"),
     ("ranks", [1.7, True]), ("ranks", [1, True]), ("ranks", [1, 1.0]),
     ("ranks", "11")],
)
def test_chain_record_rejects_non_integer_degrees_and_ranks(field, value):
    record = {"low": 0, "high": 1, "ranks": [1, 1], "boundaries": {"1": [[1]]}}
    chain_from_record(record)
    record[field] = value
    with pytest.raises(ValidationError, match=f"'{field}'"):
        chain_from_record(record)


def test_malformed_map_record():
    d1 = standard_simplex(1)
    with pytest.raises(ValidationError):
        map_from_record(d1, d1, {"images": {"01": [[], "missing"]}})
