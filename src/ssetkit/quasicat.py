"""Inner-horn fillers and quasi-category certification.

A map from the horn Λⁿᵢ to a simplicial set C is a tuple of walls: one
(n-1)-simplex w_j of C for each face d_j of Δⁿ with j != i, such that walls
agree where they meet, d_a w_b = d_{b-1} w_a for a < b.  A filler of the
horn is an n-simplex of C whose faces d_j, j != i, are its walls.  Both are
read in the levels of C, a simplex by its position and its faces as
positions one level down (``FiniteSSet.level_faces``).  Filler searches
index the positions of the n-simplices of C, degenerate ones included, once
per (n, i) by the positions of their walls in descending j, and look a wall
tuple up there; ``horn_fillers`` builds a ``Simplex`` only for each filler
it returns.

The quasi-category check lists the maps of each inner horn with the one map
search of ``function_complex``.  The top cells of Λⁿᵢ are its walls, and
their name order is descending j, so each map is found as its wall tuple,
every wall looked up in a bucket keyed on its faces shared with the walls
placed before it.  The budget bounds the candidate walls tried for each
(n, i).  A tuple the filler index does not hold fails the check.  The
witness is the failing map that ``enumerate_maps`` would list first, the
least by the positions of the images of the horn's cells; only the witness
is built as an ``SSetMap``, from its row (``function_complex._as_maps``).

A composite of edges f then g is read the same way: the fillers of the horn
Λ²₁ on (f, g) are the 2-simplices witnessing a composite, which is their
face d_1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .build import _budget
from .errors import ValidationError
from .function_complex import _as_maps, _search
from .sset import FiniteSSet, SSetMap, Simplex, _horn_in, horn, standard_simplex

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


def _wall_index(C: FiniteSSet, n: int, i: int) -> dict[tuple, list[int]]:
    """The position of every n-simplex of ``C``, degenerate ones included,
    keyed by the positions of its faces d_j, j != i, in descending j."""
    index: dict[tuple, list[int]] = {}
    for p, fs in enumerate(C.level_faces(n)):
        index.setdefault((fs[:i] + fs[i + 1:])[::-1], []).append(p)
    return index


def horn_fillers(h: HornMap) -> list[Simplex]:
    """All simplices of the target restricting to the given horn."""
    C, n = h.target, h.n
    walls = tuple(C.level_position(w, q, n - 1) for w, q in h.assignment.table[n - 1])
    return [C.simplex_at(*C.level_key(n, p), n) for p in _wall_index(C, n, h.i).get(walls, ())]


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
    guard = _budget(max_candidates)
    for n in range(2, d + 1):
        simplex = standard_simplex(n)  # the horns of one n are cut from one Δⁿ
        for i in range(1, n):
            L = _horn_in(simplex, i)
            found, row = _search(L, C, guard, {})
            index = _wall_index(C, n, i)
            failing = [walls for walls in found if walls not in index]
            if failing:
                witness = _as_maps(L, C, [min(map(row, failing))])[0]
                return QcatVerdict(False, d, HornMap(n, i, C, witness))
    return QcatVerdict(True, d)
