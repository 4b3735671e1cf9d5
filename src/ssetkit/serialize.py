"""JSON interchange for spaces, maps, complexes, and verdict records.

All emitters produce plain dict/list/int/str trees; ``canonical_dumps``
fixes key order and spacing so equal objects serialize to identical bytes.
Parsers validate through the normal constructors, so malformed input fails
with the package's own error types rather than raw KeyErrors.
"""

from __future__ import annotations

import json

from .chain import ChainComplex
from .errors import ValidationError
from .groups import HomologyGroup
from .intmat import IntMat
from .nerve import Preorder
from .quasicat import QcatVerdict
from .sset import FiniteSSet, Simplex, SSetMap

__all__ = [
    "canonical_dumps",
    "sset_to_record",
    "sset_from_record",
    "map_to_record",
    "map_from_record",
    "chain_to_record",
    "chain_from_record",
    "group_to_record",
    "preorder_from_record",
    "verdict_to_record",
]


def canonical_dumps(obj) -> str:
    """Deterministic serialization: sorted keys, fixed spacing."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _as_record(data, what: str) -> dict:
    if not isinstance(data, dict):
        raise ValidationError(f"{what} record must be a JSON object")
    return data


def _simplex_pair(sx: Simplex) -> list:
    return [list(sx.degeneracies), sx.base]


def _simplex_from_pair(pair, dim: int, what: str) -> Simplex:
    if (
        not isinstance(pair, (list, tuple))
        or len(pair) != 2
        or not isinstance(pair[1], str)
    ):
        raise ValidationError(f"{what}: expected a [degeneracy-word, base] pair")
    word, base = pair
    # JSON true and false would pass as the integers 1 and 0.
    if not isinstance(word, (list, tuple)) or not all(type(i) is int for i in word):
        raise ValidationError(f"{what}: degeneracy word must be a list of integers")
    return Simplex(tuple(word), base, dim)


# -- simplicial sets -------------------------------------------------------


def sset_to_record(X: FiniteSSet) -> dict:
    rec = {
        "cells": [list(level) for level in X.cells],
        "faces": {
            name: [_simplex_pair(sx) for sx in X.faces[name]]
            for name in sorted(X.faces)
        },
    }
    if X.basepoint is not None:
        rec["basepoint"] = X.basepoint
    return rec


def sset_from_record(data) -> FiniteSSet:
    data = _as_record(data, "simplicial set")
    cells = data.get("cells")
    if not isinstance(cells, list):
        raise ValidationError("simplicial set record needs a 'cells' list")
    if not all(isinstance(level, (list, tuple)) for level in cells):
        raise ValidationError("simplicial set cells must be lists of names")
    cells = tuple(tuple(level) for level in cells)
    dim_of = {}
    for k, level in enumerate(cells):
        for name in level:
            if not isinstance(name, str):
                raise ValidationError("simplex names must be strings")
            dim_of[name] = k
    faces = {}
    for name, lst in _as_record(data.get("faces", {}), "face table").items():
        if name not in dim_of:
            raise ValidationError(f"faces listed for unknown simplex {name!r}")
        if not isinstance(lst, (list, tuple)):
            raise ValidationError(f"faces of {name!r} must be a list")
        k = dim_of[name]
        faces[name] = tuple(
            _simplex_from_pair(p, k - 1, f"face of {name!r}") for p in lst
        )
    basepoint = data.get("basepoint")
    if basepoint is not None and not isinstance(basepoint, str):
        raise ValidationError("basepoint must be a simplex name")
    return FiniteSSet(cells, faces, basepoint)


# -- simplicial maps -------------------------------------------------------


def map_to_record(f: SSetMap) -> dict:
    return {
        "images": {
            name: _simplex_pair(f.images[name]) for name in sorted(f.images)
        }
    }


def map_from_record(source: FiniteSSet, target: FiniteSSet, data) -> SSetMap:
    data = _as_record(data, "simplicial map")
    images = {}
    for name, pair in _as_record(data.get("images"), "map images").items():
        if name not in source.names:
            raise ValidationError(f"image listed for unknown simplex {name!r}")
        images[name] = _simplex_from_pair(
            pair, source.dim_of(name), f"image of {name!r}"
        )
    return SSetMap(source, target, images)


# -- chain complexes and groups --------------------------------------------


def chain_to_record(c: ChainComplex) -> dict:
    return {
        "low": c.low,
        "high": c.high,
        "ranks": list(c.ranks),
        "boundaries": {
            str(n): c.boundary(n).to_lists() for n in range(c.low + 1, c.high + 1)
        },
    }


def chain_from_record(data) -> ChainComplex:
    data = _as_record(data, "chain complex")
    try:
        low, high, ranks = data["low"], data["high"], data["ranks"]
    except KeyError as exc:
        raise ValidationError(f"chain complex record incomplete: {exc}")
    # JSON true would pass int() as 1, and 1.7 would be truncated to 1.
    if type(low) is not int or type(high) is not int:
        raise ValidationError("chain complex 'low' and 'high' must be integers")
    if not isinstance(ranks, (list, tuple)) or not all(type(r) is int for r in ranks):
        raise ValidationError("chain complex 'ranks' must be a list of integers")
    ranks = tuple(ranks)
    if len(ranks) != high - low + 1:
        raise ValidationError("ranks length disagrees with the degree window")
    raw = _as_record(data.get("boundaries", {}), "boundary table")
    boundaries = []
    for n in range(low + 1, high + 1):
        rows = raw.get(str(n))
        if rows is None:
            m = IntMat.zero(ranks[n - 1 - low], ranks[n - low])
        else:
            if not isinstance(rows, list) or not all(
                isinstance(row, list) and all(type(x) is int for x in row)
                for row in rows
            ):
                raise ValidationError(f"boundary {n} must be a list of integer rows")
            m = IntMat.from_rows(rows) if rows else IntMat.zero(0, ranks[n - low])
            if m.rows != ranks[n - 1 - low] or m.cols != ranks[n - low]:
                raise ValidationError(f"boundary {n} shape disagrees with ranks")
        boundaries.append(m)
    return ChainComplex(low, high, ranks, tuple(boundaries))


def group_to_record(g: HomologyGroup) -> dict:
    return {"rank": g.rank, "torsion": list(g.torsion)}


# -- preorders -------------------------------------------------------------


def preorder_from_record(data) -> Preorder:
    """Preorder from elements and generating pairs.

    The relation is closed reflexively and transitively, so input files
    only list the covering pairs they care about.
    """
    data = _as_record(data, "preorder")
    elements = data.get("elements")
    if not isinstance(elements, list) or not all(
        isinstance(e, str) for e in elements
    ):
        raise ValidationError("preorder record needs a list of string elements")
    pairs = data.get("pairs", [])
    if not isinstance(pairs, list) or not all(
        isinstance(p, list) and len(p) == 2 for p in pairs
    ):
        raise ValidationError("preorder pairs must be [element, element] lists")
    for a, b in pairs:
        if a not in elements or b not in elements:
            raise ValidationError(f"pair ({a!r}, {b!r}) uses unknown elements")
    rel = {(e, e) for e in elements} | {(a, b) for a, b in pairs}
    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            for c, d in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    return Preorder(tuple(elements), frozenset(rel))


# -- verdicts --------------------------------------------------------------


def verdict_to_record(v: QcatVerdict) -> dict:
    rec: dict = {"ok": v.ok, "checked_dim": v.checked_dim}
    if v.witness is not None:
        h = v.witness
        rec["witness"] = {
            "n": h.n,
            "i": h.i,
            "assignment": {
                name: _simplex_pair(h.assignment.images[name])
                for name in sorted(h.assignment.images)
            },
        }
    return rec
