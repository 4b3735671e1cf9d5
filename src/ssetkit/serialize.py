"""JSON interchange for spaces, maps, complexes, and verdict records.

All emitters produce plain dict/list/int/str trees; ``canonical_dumps``
fixes key order and spacing so equal objects serialize to identical bytes.
Parsers validate through the normal constructors, so malformed input fails
with the package's own error types rather than raw KeyErrors.  Every record
reader, here and in ``cli``, checks shapes through the same three private
helpers: ``_record`` (a JSON object), ``_strings`` (a list of strings) and
``_ints`` (a list of integers, refusing ``true`` and ``false``).

A space record lists its cells by dimension and, per cell, its faces as
``[word, base]`` pairs; ``FiniteSSet`` stores them as (word, position) pairs
in its face table (see ``sset``).  ``sset_from_record`` checks the shape of
each entry and reads it as a (word, base, dimension) triple, with no
``Simplex``, and the validating constructor ``FiniteSSet._of_entries`` turns
the triples into the table and checks them.  Most entries are ``[[], name]``,
a nondegenerate face that recurs in the entries of several cells: these skip
the shape checks, which such an entry passes, and share one triple per
(name, dimension).  Every other entry goes through ``_pair_entry``, so a
malformed record fails with the same message either way.
``sset_to_record`` writes the table back, naming each position.
"""

from __future__ import annotations

import json

from .chain import ChainComplex
from .delta import _check_word
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


def _record(data, what: str) -> dict:
    if not isinstance(data, dict):
        raise ValidationError(f"{what} must be a JSON object")
    return data


def _strings(data, message: str) -> list:
    if not isinstance(data, (list, tuple)) or not all(isinstance(x, str) for x in data):
        raise ValidationError(message)
    return data


def _ints(data, message: str) -> list:
    # type() and not isinstance(): JSON true and false would pass as 1 and 0.
    if not isinstance(data, (list, tuple)) or not all(type(x) is int for x in data):
        raise ValidationError(message)
    return data


def _pair_entry(pair, dim: int, what: str) -> tuple[tuple[int, ...], str]:
    """The (word, base) of a ``[degeneracy-word, base]`` pair whose simplex
    has dimension ``dim``, the word checked."""
    if (
        not isinstance(pair, (list, tuple))
        or len(pair) != 2
        or not isinstance(pair[1], str)
    ):
        raise ValidationError(f"{what}: expected a [degeneracy-word, base] pair")
    try:
        word = tuple(_ints(pair[0], "degeneracy word must be a list of integers"))
    except ValidationError as exc:
        raise ValidationError(f"{what}: {exc}") from None
    _check_word(word, dim)
    return word, pair[1]


# -- simplicial sets -------------------------------------------------------


def sset_to_record(X: FiniteSSet) -> dict:
    cells = X.cells
    faces = {
        name: [[list(w), cells[k - 1 - len(w)][q]] for w, q in row]
        for k in range(1, len(cells))
        for name, row in zip(cells[k], X.table[k])
    }
    rec = {
        "cells": [list(level) for level in cells],
        "faces": {name: faces[name] for name in sorted(faces)},
    }
    if X.basepoint is not None:
        rec["basepoint"] = X.basepoint
    return rec


def sset_from_record(data) -> FiniteSSet:
    data = _record(data, "simplicial set record")
    cells = data.get("cells")
    if not isinstance(cells, list):
        raise ValidationError("simplicial set record needs a 'cells' list")
    cells = tuple(
        tuple(_strings(level, "simplicial set cells must be lists of names"))
        for level in cells
    )
    dim_of = {name: k for k, level in enumerate(cells) for name in level}
    faces = {}
    shared: dict[tuple[str, int], tuple] = {}  # one triple per [[], name]
    for name, lst in _record(data.get("faces", {}), "face table record").items():
        if name not in dim_of:
            raise ValidationError(f"faces listed for unknown simplex {name!r}")
        if not isinstance(lst, (list, tuple)):
            raise ValidationError(f"faces of {name!r} must be a list")
        k = dim_of[name] - 1
        entries = []
        for p in lst:
            if type(p) is list and len(p) == 2 and p[0] == [] and type(p[1]) is str:
                entry = shared.get((p[1], k))
                if entry is None:
                    entry = shared[p[1], k] = ((), p[1], k)
            else:
                entry = (*_pair_entry(p, k, f"face of {name!r}"), k)
            entries.append(entry)
        faces[name] = entries
    basepoint = data.get("basepoint")
    if basepoint is not None and not isinstance(basepoint, str):
        raise ValidationError("basepoint must be a simplex name")
    return FiniteSSet._of_entries(cells, faces, basepoint)


# -- simplicial maps -------------------------------------------------------


def map_to_record(f: SSetMap) -> dict:
    cells = f.target.cells
    images = {
        name: [list(w), cells[k - len(w)][q]]
        for k, (level, row) in enumerate(zip(f.source.cells, f.table))
        for name, (w, q) in zip(level, row)
    }
    return {"images": {name: images[name] for name in sorted(images)}}


def map_from_record(source: FiniteSSet, target: FiniteSSet, data) -> SSetMap:
    data = _record(data, "simplicial map record")
    images = {}
    for name, pair in _record(data.get("images"), "map images record").items():
        if name not in source.names:
            raise ValidationError(f"image listed for unknown simplex {name!r}")
        dim = source.dim_of(name)
        images[name] = Simplex(*_pair_entry(pair, dim, f"image of {name!r}"), dim)
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
    data = _record(data, "chain complex record")
    try:
        low, high, ranks = data["low"], data["high"], data["ranks"]
    except KeyError as exc:
        raise ValidationError(f"chain complex record incomplete: {exc}")
    _ints((low, high), "chain complex 'low' and 'high' must be integers")
    ranks = tuple(_ints(ranks, "chain complex 'ranks' must be a list of integers"))
    if len(ranks) != high - low + 1:
        raise ValidationError("ranks length disagrees with the degree window")
    raw = _record(data.get("boundaries", {}), "boundary table record")
    boundaries = []
    for n in range(low + 1, high + 1):
        rows = raw.get(str(n))
        if rows is None:
            m = IntMat.zero(ranks[n - 1 - low], ranks[n - low])
        else:
            message = f"boundary {n} must be a list of integer rows"
            if not isinstance(rows, list):
                raise ValidationError(message)
            rows = [_ints(row, message) for row in rows]
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
    data = _record(data, "preorder record")
    elements = _strings(
        data.get("elements"), "preorder record needs a list of string elements"
    )
    pairs = data.get("pairs", [])
    message = "preorder pairs must be [element, element] lists"
    if not isinstance(pairs, list) or any(
        len(_strings(p, message)) != 2 for p in pairs
    ):
        raise ValidationError(message)
    for a, b in pairs:
        if a not in elements or b not in elements:
            raise ValidationError(f"pair ({a!r}, {b!r}) uses unknown elements")
    rel = {(e, e) for e in elements} | {(a, b) for a, b in pairs}
    for k in elements:  # Warshall: close through each element in turn
        rel |= {(a, d) for a, b in rel if b == k for c, d in rel if c == k}
    return Preorder(tuple(elements), frozenset(rel))


# -- verdicts --------------------------------------------------------------


def verdict_to_record(v: QcatVerdict) -> dict:
    rec: dict = {"ok": v.ok, "checked_dim": v.checked_dim}
    if v.witness is not None:
        h = v.witness
        rec["witness"] = {
            "n": h.n,
            "i": h.i,
            "assignment": map_to_record(h.assignment)["images"],
        }
    return rec
