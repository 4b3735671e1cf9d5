"""Finite categories, preorders, and their nerves.

A nerve is presented by its identity-free composable chains: inserting an
identity arrow is exactly a degeneracy, so those chains are the
nondegenerate simplices.  Inner faces compose adjacent arrows; when a
composite collapses to an identity, the face is re-normalized by stripping
identity slots into a degeneracy word.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

from .build import DEFAULT_MAX_CANDIDATES
from .errors import EnumerationLimit, ValidationError
from .sset import FiniteSSet

__all__ = [
    "FiniteCategory",
    "Preorder",
    "preorder_category",
    "linear_preorder",
    "nerve_category",
    "nerve_preorder",
    "square_category",
]

_CHAIN_SEP = "|"


@dataclass(frozen=True)
class FiniteCategory:
    """A category given by a finite, total composition table."""

    objects: tuple[str, ...]
    morphisms: dict  # name -> (source object, target object)
    identities: dict  # object -> morphism name
    compose_table: dict  # (second name, first name) -> composite name

    def __post_init__(self):
        self._check_names()
        self._validate_table()

    @classmethod
    def _trusted(cls, objects, morphisms, identities, compose_table):
        """A category whose table is a category's by construction: only
        the names and endpoints are checked, not the composition laws."""
        C = object.__new__(cls)
        C.__dict__.update(
            objects=objects, morphisms=morphisms, identities=identities,
            compose_table=compose_table,
        )
        C._check_names()
        return C

    def _check_names(self):
        names = list(self.objects) + list(self.morphisms)
        if len(set(names)) != len(names):
            raise ValidationError("object and morphism names must be distinct")
        for name in self.morphisms:
            if _CHAIN_SEP in name:
                raise ValidationError(f"morphism name {name!r} contains {_CHAIN_SEP!r}")
        for name, (src, dst) in self.morphisms.items():
            if src not in self.objects or dst not in self.objects:
                raise ValidationError(f"morphism {name!r} has unknown endpoints")
        if set(self.identities) != set(self.objects):
            raise ValidationError("need exactly one identity per object")
        for obj, name in self.identities.items():
            if self.morphisms.get(name) != (obj, obj):
                raise ValidationError(f"identity of {obj!r} is not an endomorphism")

    def _validate_table(self):
        for g, f in iproduct(self.morphisms, repeat=2):
            composable = self.source(g) == self.target(f)
            if composable != ((g, f) in self.compose_table):
                raise ValidationError(
                    f"composition table wrong on composability of ({g!r}, {f!r})"
                )
            if not composable:
                continue
            gf = self.compose_table[(g, f)]
            if self.morphisms.get(gf) != (self.source(f), self.target(g)):
                raise ValidationError(f"composite of ({g!r}, {f!r}) has wrong type")
        for name in self.morphisms:
            src, dst = self.morphisms[name]
            if self.compose(name, self.identities[src]) != name:
                raise ValidationError(f"right unit law fails for {name!r}")
            if self.compose(self.identities[dst], name) != name:
                raise ValidationError(f"left unit law fails for {name!r}")
        for h in self.morphisms:
            for g in self.morphisms:
                if self.source(h) != self.target(g):
                    continue
                for f in self.morphisms:
                    if self.source(g) != self.target(f):
                        continue
                    left = self.compose(self.compose(h, g), f)
                    right = self.compose(h, self.compose(g, f))
                    if left != right:
                        raise ValidationError(
                            f"associativity fails on ({h!r}, {g!r}, {f!r})"
                        )

    def source(self, name: str) -> str:
        return self.morphisms[name][0]

    def target(self, name: str) -> str:
        return self.morphisms[name][1]

    def is_identity(self, name: str) -> bool:
        return self.identities[self.source(name)] == name

    def compose(self, g: str, f: str) -> str:
        """The composite "g after f"."""
        if self.source(g) != self.target(f):
            raise ValidationError(f"({g!r}, {f!r}) are not composable")
        return self.compose_table[(g, f)]


@dataclass(frozen=True)
class Preorder:
    elements: tuple[str, ...]
    relation: frozenset  # of pairs (a, b) meaning a <= b

    def __post_init__(self):
        elems = set(self.elements)
        if len(elems) != len(self.elements):
            raise ValidationError("duplicate elements")
        for a, b in self.relation:
            if a not in elems or b not in elems:
                raise ValidationError(f"relation pair ({a!r}, {b!r}) out of range")
        for a in self.elements:
            if (a, a) not in self.relation:
                raise ValidationError(f"relation not reflexive at {a!r}")
        for a, b in self.relation:
            for c in self.elements:
                if (b, c) in self.relation and (a, c) not in self.relation:
                    raise ValidationError("relation not transitive")

    def leq(self, a: str, b: str) -> bool:
        return (a, b) in self.relation

    def is_poset(self) -> bool:
        return all(not (self.leq(a, b) and self.leq(b, a)) or a == b
                   for a in self.elements for b in self.elements)


def linear_preorder(n: int) -> Preorder:
    """The total order 0 < 1 < ... < n."""
    elems = tuple(str(i) for i in range(n + 1))
    rel = frozenset((str(i), str(j)) for i in range(n + 1) for j in range(i, n + 1))
    return Preorder(elems, rel)


def preorder_category(P: Preorder) -> FiniteCategory:
    """The category with one morphism for each related pair.

    ``P`` is validated, reflexive and transitive, so the table below is
    total on composable pairs, unital and associative (a composite is
    named by its endpoints alone); the category skips the table checks.
    """
    def mname(a, b):
        return f"{a}<={b}"

    morphisms = {}
    for a, b in sorted(P.relation):
        other = morphisms.setdefault(mname(a, b), (a, b))
        if other != (a, b):
            raise ValidationError(
                f"relations {other} and {(a, b)} share the morphism name "
                f"{mname(a, b)!r}"
            )
    identities = {a: mname(a, a) for a in P.elements}
    table = {}
    for g, (gs, gt) in morphisms.items():
        for f, (fs, ft) in morphisms.items():
            if ft == gs:
                table[(g, f)] = mname(fs, gt)
    return FiniteCategory._trusted(P.elements, morphisms, identities, table)


def _chain_name(C: FiniteCategory, start: str, arrows: tuple[str, ...]) -> str:
    return start if not arrows else _CHAIN_SEP.join(arrows)


def _chain_end(C: FiniteCategory, start: str, arrows: tuple[str, ...]) -> str:
    return C.target(arrows[-1]) if arrows else start


def _chain_key(C: FiniteCategory, start: str, arrows: tuple[str, ...]) -> tuple:
    """The chain as the (word, name) of its normal form: its identity arrows
    dropped, degenerated at their positions (a strictly decreasing word)."""
    ids = [j for j, m in enumerate(arrows) if C.is_identity(m)]
    core = tuple(m for m in arrows if not C.is_identity(m))
    return tuple(reversed(ids)), _chain_name(C, start, core)


def _chain_face(C: FiniteCategory, start: str, arrows: tuple[str, ...], i: int):
    if i == 0:
        return C.target(arrows[0]), arrows[1:]
    if i == len(arrows):
        return start, arrows[:-1]
    merged = C.compose(arrows[i], arrows[i - 1])
    return start, arrows[: i - 1] + (merged,) + arrows[i + 1 :]


def nerve_category(C: FiniteCategory, d: int | None = None) -> FiniteSSet:
    """The nerve, truncated at dimension ``d``.

    The default bound covers every nondegenerate chain when the category
    has no non-identity endomorphism loops (posets in particular); with
    loops the nerve is infinite-dimensional, so the cap is essential.  Each
    level is listed under ``DEFAULT_MAX_CANDIDATES`` chains.  The category
    is validated, associativity included, where it enters (a preorder's
    category is valid by construction), so its nerve satisfies the
    simplicial identities and is built unchecked.
    """
    if d is None:
        d = len(C.objects) + 2
    if d < 0:
        raise ValidationError(f"truncation dimension {d} is negative")
    non_ids = [m for m in C.morphisms if not C.is_identity(m)]
    levels: list[list[tuple[str, tuple[str, ...]]]] = [
        [(obj, ()) for obj in C.objects]
    ]
    for k in range(1, d + 1):
        level = []
        for start, arrows in levels[k - 1]:
            end = _chain_end(C, start, arrows)
            for m in non_ids:
                if C.source(m) == end:
                    level.append((start, arrows + (m,)))
            if len(level) > DEFAULT_MAX_CANDIDATES:
                raise EnumerationLimit(
                    f"nerve level {k} exceeds {DEFAULT_MAX_CANDIDATES} chains"
                )
        levels.append(level)
    cells = [sorted(_chain_name(C, s, ms) for s, ms in lvl) for lvl in levels]
    at = [{name: p for p, name in enumerate(level)} for level in cells]
    table = [[()] * len(cells[0])]
    for k in range(1, d + 1):
        rows: list = [None] * len(cells[k])
        for start, arrows in levels[k]:
            faces = (_chain_key(C, *_chain_face(C, start, arrows, i)) for i in range(k + 1))
            rows[at[k][_chain_name(C, start, arrows)]] = tuple(
                (word, at[k - 1 - len(word)][name]) for word, name in faces
            )
        table.append(rows)
    return FiniteSSet._trusted(cells, table)


def nerve_preorder(P: Preorder, d: int | None = None) -> FiniteSSet:
    return nerve_category(preorder_category(P), d)


def square_category() -> FiniteCategory:
    """The commuting square: four objects, four sides and a diagonal.

    Composition identifies both ways around the square with the diagonal,
    so the nerve has exactly two nondegenerate triangles.
    """
    objects = ("00", "01", "10", "11")
    morphisms = {
        "f": ("00", "10"),
        "g": ("10", "11"),
        "fp": ("00", "01"),
        "gp": ("01", "11"),
        "h": ("00", "11"),
        "i00": ("00", "00"),
        "i01": ("01", "01"),
        "i10": ("10", "10"),
        "i11": ("11", "11"),
    }
    identities = {"00": "i00", "01": "i01", "10": "i10", "11": "i11"}
    table = {}
    for g, (gs, gt) in morphisms.items():
        for f, (fs, ft) in morphisms.items():
            if ft != gs:
                continue
            if f == identities[fs] and fs == ft:
                table[(g, f)] = g
            elif g == identities[gs] and gs == gt:
                table[(g, f)] = f
            else:
                table[(g, f)] = "h"
    return FiniteCategory(objects, morphisms, identities, table)
