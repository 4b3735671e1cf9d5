"""Inner-horn fillers and quasi-category certification.

A map from the horn Λⁿᵢ to a simplicial set C is a tuple of walls: one
(n-1)-simplex w_j of C for each face d_j of Δⁿ with j != i, such that walls
agree where they meet, d_a w_b = d_{b-1} w_a for a < b.  A filler of the
horn is an n-simplex of C whose faces d_j, j != i, are its walls.  Both are
read in the level tables of C (``FiniteSSet.level``), a simplex by its
position and its faces as positions one level down.  Filler searches index
the n-simplices of C, degenerate ones included, once per (n, i) by the
positions of their walls in descending j, and look a wall tuple up there.

The quasi-category check lists the wall tuples of each inner horn without
building a map.  It places the walls in descending j, and looks each new
wall w_a up in a bucket of level n-1 keyed on its faces d_{b-1} for the
walls b already placed, so every tuple it lists is compatible by
construction.  The budget bounds the candidate walls tried for each (n, i):
every wall of every bucket the search visits counts.  A tuple the filler index does not
hold fails the check.  The witness is the failing map that ``enumerate_maps``
would list first: horn maps compare by the positions of the images of the
horn's cells, in dimension, then name order, and a cell's image is the face
of any wall containing it.  Only the witness is built as an ``SSetMap``.

A composite of edges f then g is read the same way: the fillers of the horn
Λ²₁ on (f, g) are the 2-simplices witnessing a composite, which is their
face d_1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .build import _budget
from .errors import EnumerationLimit, ValidationError
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


def _horn_walls(C: FiniteSSet, n: int, i: int, guard: int) -> list[tuple[int, ...]]:
    """The wall tuples of every map Λⁿᵢ -> C: the positions of its walls
    w_j, j != i, in ``C.level(n - 1)``, in descending j.  Raises
    ``EnumerationLimit`` once more than ``guard`` candidate walls were tried."""
    faces = C.level(n - 1)[2]
    order = [j for j in range(n, -1, -1) if j != i]
    # The wall a = order[s] meets each wall b > a placed before it where
    # d_(b-1) w_a = d_a w_b: its bucket keys on those faces d_(b-1).
    buckets = []
    for s in range(len(order)):
        pins = [b - 1 for b in order[:s]]
        bucket: dict[tuple[int, ...], list[int]] = {}
        for pos, fs in enumerate(faces):
            bucket.setdefault(tuple(fs[p] for p in pins), []).append(pos)
        buckets.append(bucket)
    walls = [0] * len(order)
    found: list[tuple[int, ...]] = []
    tried = 0

    def place(s: int) -> None:
        nonlocal tried
        if s == len(order):
            found.append(tuple(walls))
            return
        a = order[s]
        for pos in buckets[s].get(tuple(faces[w][a] for w in walls[:s]), ()):
            tried += 1
            if tried > guard:
                raise EnumerationLimit(f"map search exceeded {guard} candidate assignments")
            walls[s] = pos
            place(s + 1)

    place(0)
    return found


def _first_map(C: FiniteSSet, n: int, i: int, tuples) -> SSetMap:
    """The map Λⁿᵢ -> C among the given wall tuples that ``enumerate_maps``
    lists first: the least by the positions of its images, read in the
    horn's cells in dimension, then name order."""
    L = horn(n, i)
    order = [j for j in range(n, -1, -1) if j != i]
    # A cell S is the face of the wall j outside S on the vertices of S: the
    # faces d_p at the places p of the other vertices, the highest first.
    cells = []
    for k in range(n):
        for name in L.nondeg(k):
            vertices = [int(v) for v in name]
            j = next(j for j in order if j not in vertices)
            wall = [v for v in range(n + 1) if v != j]
            places = [p for p, v in enumerate(wall) if v not in vertices]
            cells.append((name, k, order.index(j), places[::-1]))
    faces = [C.level(m)[2] for m in range(n)]

    def images(walls: tuple[int, ...]) -> tuple[int, ...]:
        out = []
        for _, k, t, places in cells:
            pos = walls[t]
            for m, p in enumerate(places):
                pos = faces[n - 1 - m][pos][p]
            out.append(pos)
        return tuple(out)

    first = min(map(images, tuples))
    return SSetMap(
        L, C, {name: C.level(k)[0][pos] for (name, k, _, _), pos in zip(cells, first)},
        check=False,
    )


def is_quasicategory_up_to(
    C: FiniteSSet, d: int, max_candidates: int | None = None
) -> QcatVerdict:
    """Check every inner horn of dimension at most ``d`` has a filler."""
    if d < 2:
        raise ValidationError("inner horns start in dimension 2")
    guard = _budget(max_candidates)
    for n in range(2, d + 1):
        for i in range(1, n):
            index = _wall_index(C, n, i)
            failing = [w for w in _horn_walls(C, n, i, guard) if w not in index]
            if failing:
                return QcatVerdict(False, d, HornMap(n, i, C, _first_map(C, n, i, failing)))
    return QcatVerdict(True, d)
