"""Reference reading and validation of space records, on names.

``read_record`` reads a space record the way the package did when it kept
faces as name-keyed ``Simplex`` values: the shape of each face entry first,
then, as the validating constructor did, duplicate names, each face list
(its count, and the dimension and base of each entry), missing face lists,
the basepoint, and the simplicial identities d_i d_j = d_{j-1} d_i, both
sides read through a face rule on (word, base name) keys.  It returns the
record of a valid space, in the form ``sset_to_record`` writes, and raises
the ``ValidationError`` of the first fault of an invalid one.
``ssetkit.serialize.sset_from_record`` reads records into face tables of
positions, and must fail on the same first fault with the same message.
"""

from ssetkit.delta import compose_words, face_of_word
from ssetkit.errors import ValidationError
from ssetkit.serialize import _ints, _record, _strings
from ssetkit.sset import Simplex


def _simplex_from_pair(pair, dim: int, what: str) -> Simplex:
    if (
        not isinstance(pair, (list, tuple))
        or len(pair) != 2
        or not isinstance(pair[1], str)
    ):
        raise ValidationError(f"{what}: expected a [degeneracy-word, base] pair")
    try:
        word = _ints(pair[0], "degeneracy word must be a list of integers")
    except ValidationError as exc:
        raise ValidationError(f"{what}: {exc}") from None
    return Simplex(tuple(word), pair[1], dim)


def face_key(faces: dict, word: tuple, base: str, k: int, i: int) -> tuple:
    """The i-th face of the k-simplex ``s_word base`` as a (word, name) key."""
    if not word:
        f = faces[base][i]
        return f.degeneracies, f.base
    word, j = face_of_word(word, k, i)
    if j is None:
        return word, base
    f = faces[base][j]
    return compose_words(f.degeneracies, word, k - 1), f.base


def validate(cells, faces: dict, basepoint) -> tuple:
    """The sorted cells of a valid space; the first fault raises."""
    cells = tuple(tuple(sorted(level)) for level in cells)
    while cells and not cells[-1]:
        cells = cells[:-1]
    dim_of = {}
    for k, level in enumerate(cells):
        for name in level:
            if name in dim_of:
                raise ValidationError(f"duplicate simplex name {name!r}")
            dim_of[name] = k
    for name, fs in faces.items():
        if name not in dim_of:
            raise ValidationError(f"face table mentions unknown simplex {name!r}")
        k = dim_of[name]
        if k == 0:
            raise ValidationError(f"vertex {name!r} cannot have faces")
        if len(fs) != k + 1:
            raise ValidationError(f"{name!r} needs {k + 1} faces, got {len(fs)}")
        for sx in fs:
            if sx.dim != k - 1:
                raise ValidationError(f"face of {name!r} has wrong dimension")
            if sx.base not in dim_of:
                raise ValidationError(f"face of {name!r} has unknown base")
            if dim_of[sx.base] != sx.base_dim:
                raise ValidationError(f"face of {name!r} has inconsistent base dim")
    for k, level in enumerate(cells):
        if k == 0:
            continue
        for name in level:
            if name not in faces:
                raise ValidationError(f"missing face table for {name!r}")
    if basepoint is not None and dim_of.get(basepoint) != 0:
        raise ValidationError(f"basepoint {basepoint!r} is not a vertex")
    for k in range(2, len(cells)):
        pairs = [(i, j) for j in range(1, k + 1) for i in range(j)]
        for name in cells[k]:
            fs = faces[name]
            for i, j in pairs:
                a, b = fs[j], fs[i]
                if face_key(faces, a.degeneracies, a.base, k - 1, i) != face_key(
                    faces, b.degeneracies, b.base, k - 1, j - 1
                ):
                    raise ValidationError(
                        f"simplicial identity fails on {name!r}: "
                        f"d_{i} d_{j} != d_{j - 1} d_{i}"
                    )
    return cells


def read_record(data) -> dict:
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
    for name, lst in _record(data.get("faces", {}), "face table record").items():
        if name not in dim_of:
            raise ValidationError(f"faces listed for unknown simplex {name!r}")
        if not isinstance(lst, (list, tuple)):
            raise ValidationError(f"faces of {name!r} must be a list")
        k = dim_of[name] - 1
        faces[name] = tuple(_simplex_from_pair(p, k, f"face of {name!r}") for p in lst)
    basepoint = data.get("basepoint")
    if basepoint is not None and not isinstance(basepoint, str):
        raise ValidationError("basepoint must be a simplex name")
    cells = validate(cells, faces, basepoint)
    rec = {
        "cells": [list(level) for level in cells],
        "faces": {
            name: [[list(sx.degeneracies), sx.base] for sx in faces[name]]
            for name in sorted(faces)
        },
    }
    if basepoint is not None:
        rec["basepoint"] = basepoint
    return rec
