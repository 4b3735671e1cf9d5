"""Inner-horn fillers and quasi-category certification.

A horn assignment determines the images of all lower cells, so a filler of
a horn is an n-simplex of the target whose walls, the faces d_j for j != i,
are the images of the horn's walls, its (n-1)-cells (in name order, that is
descending j).  Filler searches index the n-simplices of the target,
degenerate ones included, once per (n, i) by the positions of their walls in
the target's level table, and look each horn up there.  A composite of edges
f then g is read the same way: the fillers of the horn Λ²₁ on (f, g) are the
2-simplices witnessing a composite, which is their face d_1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .function_complex import enumerate_maps
from .sset import FiniteSSet, SSetMap, Simplex, horn

__all__ = [
    "HornMap",
    "QcatVerdict",
    "horn_fillers",
    "is_quasicategory_up_to",
]


@dataclass(frozen=True)
class HornMap:
    """A horn-shaped partial simplex in a target simplicial set."""

    n: int
    i: int
    target: FiniteSSet
    assignment: SSetMap

    def __post_init__(self):
        if not (self.n >= 1 and 0 <= self.i <= self.n):
            raise ValidationError("horn indices out of range")
        if self.assignment.source != horn(self.n, self.i):
            raise ValidationError("assignment source is not the expected horn")
        if self.assignment.target != self.target:
            raise ValidationError("assignment target mismatch")

    @property
    def is_inner(self) -> bool:
        return 0 < self.i < self.n


def _wall_index(C: FiniteSSet, n: int, i: int) -> dict[tuple, list[Simplex]]:
    """Every n-simplex of ``C``, degenerate ones included, keyed by the
    positions of its faces d_j, j != i, in descending j."""
    simplices, _, faces = C.level(n)
    index: dict[tuple, list[Simplex]] = {}
    for sx, fs in zip(simplices, faces):
        index.setdefault((fs[:i] + fs[i + 1:])[::-1], []).append(sx)
    return index


def horn_fillers(h: HornMap) -> list[Simplex]:
    """All simplices of the target restricting to the given horn."""
    position = h.target.level(h.n - 1)[1]
    images = h.assignment.images
    walls = tuple(position[images[w]] for w in h.assignment.source.nondeg(h.n - 1))
    return list(_wall_index(h.target, h.n, h.i).get(walls, ()))


@dataclass(frozen=True)
class QcatVerdict:
    ok: bool
    checked_dim: int
    witness: HornMap | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_quasicategory_up_to(
    C: FiniteSSet, d: int, max_candidates: int | None = None
) -> QcatVerdict:
    """Check every inner horn of dimension at most ``d`` has a filler."""
    if d < 2:
        raise ValidationError("inner horns start in dimension 2")
    for n in range(2, d + 1):
        for i in range(1, n):
            L = horn(n, i)
            position = C.level(n - 1)[1]
            index = _wall_index(C, n, i)
            for assignment in enumerate_maps(L, C, max_candidates):
                walls = tuple(position[assignment.images[w]] for w in L.nondeg(n - 1))
                if walls not in index:
                    return QcatVerdict(False, d, HornMap(n, i, C, assignment))
    return QcatVerdict(True, d)
