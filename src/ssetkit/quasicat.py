"""Inner-horn fillers, quasi-category certification, composition witnesses.

A horn assignment determines the images of all lower cells, so a filler of
a horn is an n-simplex of the target whose walls, the faces d_j for j != i,
are the images of the horn's walls.  Filler searches index the n-simplices
of the target, degenerate ones included, by their walls once per (n, i), and
look each horn up there.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .function_complex import enumerate_maps
from .nerve import nerve_category, square_category
from .sset import FiniteSSet, SSetMap, Simplex, horn, _subset_name

__all__ = [
    "HornMap",
    "QcatVerdict",
    "CompositionWitness",
    "SquareDiagram",
    "horn_fillers",
    "is_quasicategory_up_to",
    "compositions",
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


def _wall_names(n: int, i: int) -> list[str]:
    """The walls of the horn, the faces d_j, j != i, of the standard
    n-simplex, in descending j; d_j is the cell on every vertex but j."""
    vertices = tuple(range(n + 1))
    return [
        _subset_name(vertices[:j] + vertices[j + 1:])
        for j in reversed(vertices)
        if j != i
    ]


def _wall_index(C: FiniteSSet, n: int, i: int) -> dict[tuple, list[Simplex]]:
    """Every n-simplex of ``C``, degenerate ones included, keyed by its faces
    d_j, j != i, in descending j."""
    index: dict[tuple, list[Simplex]] = {}
    for sx in C.all_simplices(n):
        walls = tuple(C.face(sx, j) for j in range(n, -1, -1) if j != i)
        index.setdefault(walls, []).append(sx)
    return index


def horn_fillers(h: HornMap) -> list[Simplex]:
    """All simplices of the target restricting to the given horn."""
    walls = tuple(h.assignment.images[w] for w in _wall_names(h.n, h.i))
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
            names = _wall_names(n, i)
            index = _wall_index(C, n, i)
            for assignment in enumerate_maps(horn(n, i), C, max_candidates):
                if tuple(assignment.images[w] for w in names) not in index:
                    return QcatVerdict(False, d, HornMap(n, i, C, assignment))
    return QcatVerdict(True, d)


@dataclass(frozen=True)
class CompositionWitness:
    """A 2-simplex exhibiting ``h`` as a composite of ``f`` then ``g``."""

    f: Simplex
    g: Simplex
    h: Simplex
    sigma: Simplex
    space: FiniteSSet

    def __post_init__(self):
        faces = tuple(self.space.face(self.sigma, j) for j in range(3))
        if faces != (self.g, self.h, self.f):
            raise ValidationError(
                "witness faces must be (g, h, f) in positions (0, 1, 2)"
            )


def compositions(C: FiniteSSet, f: Simplex, g: Simplex) -> list[CompositionWitness]:
    """All witnesses composing the edges ``f`` then ``g``."""
    if f.dim != 1 or g.dim != 1:
        raise ValidationError("composition inputs must be edges")
    if C.face(f, 0) != C.face(g, 1):
        raise ValidationError("edges are not composable: target(f) != source(g)")
    return [
        CompositionWitness(f, g, C.face(sigma, 1), sigma, C)
        for sigma in _wall_index(C, 2, 1).get((f, g), ())
    ]


_SQUARE_EDGES = ("f", "g", "fp", "gp", "h")
_SQUARE_TRIANGLES = ("f|g", "fp|gp")


class SquareDiagram:
    """A commuting square in a simplicial set.

    Wraps a map out of the nerve of the four-object square category; the
    two triangle cells witness the diagonal edge as a composite along
    either side of the square.
    """

    def __init__(self, diagram: SSetMap):
        if diagram.source != nerve_category(square_category(), 2):
            raise ValidationError("diagram source must be the square nerve")
        self.diagram = diagram
        self.target = diagram.target

    @classmethod
    def from_triangles(cls, C: FiniteSSet, sigma: Simplex, tau: Simplex) -> "SquareDiagram":
        """Assemble the square from two 2-simplices sharing their long edge."""
        if sigma.dim != 2 or tau.dim != 2:
            raise ValidationError("need two 2-simplices")
        images = {
            "f|g": sigma,
            "fp|gp": tau,
            "f": C.face(sigma, 2),
            "g": C.face(sigma, 0),
            "fp": C.face(tau, 2),
            "gp": C.face(tau, 0),
            "h": C.face(sigma, 1),
            "00": C.face(C.face(sigma, 2), 1),
            "10": C.face(C.face(sigma, 2), 0),
            "01": C.face(C.face(tau, 2), 0),
            "11": C.face(C.face(sigma, 0), 0),
        }
        return cls(SSetMap(nerve_category(square_category(), 2), C, images))

    def corner(self, pos: str) -> Simplex:
        if pos not in ("00", "01", "10", "11"):
            raise ValidationError(f"unknown corner {pos!r}")
        return self.diagram.images[pos]

    def edge(self, name: str) -> Simplex:
        if name not in _SQUARE_EDGES:
            raise ValidationError(f"unknown edge {name!r}")
        return self.diagram.images[name]

    @property
    def diagonal(self) -> Simplex:
        return self.diagram.images["h"]

    def triangle(self, name: str) -> Simplex:
        if name not in _SQUARE_TRIANGLES:
            raise ValidationError(f"unknown triangle {name!r}")
        return self.diagram.images[name]

    def witnesses(self) -> tuple[CompositionWitness, CompositionWitness]:
        """Both factorizations of the diagonal, as composition witnesses."""
        lower = CompositionWitness(
            self.edge("f"), self.edge("g"), self.diagonal,
            self.triangle("f|g"), self.target,
        )
        upper = CompositionWitness(
            self.edge("fp"), self.edge("gp"), self.diagonal,
            self.triangle("fp|gp"), self.target,
        )
        return lower, upper
