"""Exhaustive map enumeration and truncated function complexes.

Enumeration backtracks over the nondegenerate simplices in a face-closed
eager order: the free vertices in name order, and every other simplex as
soon as the last of its faces is assigned, so a vertex pair without an edge
between its images is dropped before the next vertex fans out.  The search
works on positions: an image is its position in the level table of ``Y``
(``FiniteSSet.level``).  The candidate images of each dimension are keyed
by the positions of their faces that table holds, so a slot reads in one
lookup exactly the candidates whose faces agree with the images already
assigned: every found assignment is a simplicial map by construction.  A
slot's degenerate faces are read through one position table per dimension
and degeneracy word, so the search builds no ``Simplex``; only the maps
found are built, at the end.  The maps are returned in the order of the
plain search in ascending dimension, then name, which the eager search only
reorders.  A global budget on the candidates tried guards against
combinatorial blowups; it counts the candidates of the eager search, which
tries fewer than the plain one.  The inner-horn check lists no maps: it
searches the walls of each horn on the same level tables
(``quasicat.is_quasicategory_up_to``).

Function complexes are genuine simplicial sets of maps: a k-simplex of
hom(X, Y) is a map X x Delta^k -> Y.  They can be nonempty in every
dimension, hence the mandatory truncation.  The face d_i and the degeneracy
s_i of a k-simplex h precompose h with id_X x alpha, where alpha is the map
of standard simplices classifying a simplex of Delta^k: the face missing
vertex i for d_i, and s_i of the top simplex for s_i.  Such a map is read
off the faces of the simplex it classifies, so no monotone map is built.
The mapping space between two vertices is the simplicial subset of
hom(Delta^1, C) whose maps are constant at those vertices on the two ends
of the prism: the search starts from those ends and extends them.
"""

from __future__ import annotations

from collections import deque

from .build import _budget, _extract, _point_simplex, product
from .delta import MonotoneMap, epi_mono_factor
from .errors import EnumerationLimit, ValidationError
from .sset import (
    FiniteSSet,
    SSetMap,
    Simplex,
    simplex_as_map,
    standard_simplex,
    subcomplex,
    _subset_name,
)

__all__ = [
    "enumerate_maps",
    "standard_map",
    "internal_hom_truncated",
    "mapping_space",
]


def enumerate_maps(
    X: FiniteSSet,
    Y: FiniteSSet,
    max_candidates: int | None = None,
    fixed: dict[str, Simplex] | None = None,
) -> list[SSetMap]:
    """All simplicial maps ``X -> Y``, duplicate-free.

    Basepoints are ignored; filter afterwards if pointed maps are wanted.
    The maps come in the order of a search over the nondegenerate simplices
    in ascending dimension, then name, each trying its images in the order
    of ``Y.all_simplices``; the search itself runs in the face-closed eager
    order of :func:`_eager_order`.  The budget counts the candidate images
    tried, and a slot tries only the candidates whose faces already match
    the images assigned before it.  ``fixed`` gives the images of the
    nondegenerate simplices of a subcomplex of ``X`` under a map to ``Y``:
    only the maps extending it are listed, and its simplices are assigned
    before the search, so they try no candidate.
    """
    guard = _budget(max_candidates)
    fixed = fixed or {}
    if fixed:
        SSetMap(subcomplex(X, fixed), Y, fixed)  # raises unless a map
    # Slots in the output order; the search visits them in eager order.
    slots = [
        (k, name)
        for k in range(X.top_dim + 1)
        for name in X.nondeg(k)
        if name not in fixed
    ]
    # An image is its position in ``Y.level`` of its dimension.
    # ``positions`` holds the image of each slot, then of each fixed simplex.
    where = {name: idx for idx, (_, name) in enumerate(slots)}
    positions = [0] * len(slots)
    for name, img in fixed.items():
        where[name] = len(positions)
        positions.append(Y.level(img.dim)[1][img])
    # Each face of a slot is read off the image of its base: a position
    # directly, or through the table of its degeneracy word, which sends
    # the positions of dimension m to those of s_word of them.
    tables: dict[tuple[int, tuple[int, ...]], list[int]] = {}
    slot_faces: list[list[tuple[int, list[int] | None]]] = []
    for _, name in slots:
        refs = []
        for f in X.faces.get(name, ()):
            m, word = f.base_dim, f.degeneracies
            if word and (m, word) not in tables:
                up = Y.level(f.dim)[1]
                tables[m, word] = [up[sx.degenerate(word)] for sx in Y.all_simplices(m)]
            refs.append((where[f.base], tables.get((m, word))))
        slot_faces.append(refs)
    # The candidates of each dimension, keyed by the positions of their
    # faces in Y's level table (vertices under ()), in listing order.
    cands: dict[int, dict[tuple[int, ...], list[int]]] = {}
    for k in {k for k, _ in slots}:
        by_faces = cands[k] = {}
        for pos, key in enumerate(Y.level(k)[2]):
            by_faces.setdefault(key, []).append(pos)
    buckets = [cands[k] for k, _ in slots]
    order = _eager_order(slot_faces)
    found: list[list[int]] = []
    tried = 0

    def backtrack(step: int):
        nonlocal tried
        if step == len(order):
            found.append(positions[: len(slots)])
            return
        idx = order[step]
        want = tuple(
            positions[src] if up is None else up[positions[src]]
            for src, up in slot_faces[idx]
        )
        for pos in buckets[idx].get(want, ()):
            tried += 1
            if tried > guard:
                raise EnumerationLimit(
                    f"map search exceeded {guard} candidate assignments"
                )
            positions[idx] = pos
            backtrack(step + 1)

    backtrack(0)
    # Two maps first differ at a slot whose earlier images agree, so both
    # images there come from one face bucket, in all_simplices order: the
    # positions read in slot order sort the maps into the output order.
    found.sort()
    pools = [(idx, slots[idx][1], Y.all_simplices(slots[idx][0])) for idx in order]
    maps = []
    for ps in found:
        images = dict(fixed)
        images.update((name, pool[ps[idx]]) for idx, name, pool in pools)
        maps.append(SSetMap(X, Y, images, check=False))
    return maps


def _eager_order(slot_faces: list[list[tuple[int, object]]]) -> list[int]:
    """The indices of the slots in face-closed eager order.

    ``slot_faces[idx]`` lists the faces of slot ``idx`` as pairs whose first
    entry is the index of the face's base: a slot when below the number of
    slots, a fixed simplex otherwise.
    Free vertices come in name order, and every other slot comes as soon as
    the last of its faces is placed, so each edge prunes right after its
    second vertex instead of after every vertex.  A counter of unplaced
    faces per slot, decremented as faces are placed, finds the ready slots
    as in Kahn's topological sort.  Faces on fixed simplices count as
    placed from the start.
    """
    count = len(slot_faces)
    unplaced = [0] * count
    cofaces: dict[int, list[int]] = {}
    for idx, faces in enumerate(slot_faces):
        for face in {src for src, _ in faces if src < count}:
            unplaced[idx] += 1
            cofaces.setdefault(face, []).append(idx)
    vertices = deque(idx for idx, faces in enumerate(slot_faces) if not faces)
    ready = deque(
        idx for idx, faces in enumerate(slot_faces) if faces and not unplaced[idx]
    )
    order: list[int] = []
    while ready or vertices:
        idx = ready.popleft() if ready else vertices.popleft()
        order.append(idx)
        for up in cofaces.get(idx, ()):
            unplaced[up] -= 1
            if not unplaced[up]:
                ready.append(up)
    return order


def standard_map(alpha: MonotoneMap) -> SSetMap:
    """The map of standard simplices induced by a monotone map.

    It classifies the simplex ``s_J v`` of ``Delta^cod``, for ``alpha``
    factored as the degeneracy word ``J`` followed by the face ``v`` of
    ``Delta^cod`` on the image of ``alpha``.
    """
    dword, fword = epi_mono_factor(alpha)
    image = tuple(v for v in range(alpha.cod + 1) if v not in fword)
    sx = Simplex(dword, _subset_name(image), alpha.dom)
    return simplex_as_map(standard_simplex(alpha.cod), sx)


class _HomSystem:
    """Levelwise system whose k-elements are maps ``X x Delta^k -> Y``."""

    def __init__(self, X: FiniteSSet, Y: FiniteSSet, max_candidates: int | None):
        self.X = X
        self.Y = Y
        self.max_candidates = max_candidates
        self._products: dict[int, object] = {}
        self._cross: dict[tuple[Simplex, int], SSetMap] = {}

    def prism(self, k: int):
        if k not in self._products:
            self._products[k] = product(self.X, standard_simplex(k))
        return self._products[k]

    def cross(self, sx: Simplex, cod: int) -> SSetMap:
        """``id_X x alpha`` between the prism spaces, for the monotone map
        ``alpha`` into ``[cod]`` that classifies the simplex ``sx`` of
        ``Delta^cod``."""
        key = (sx, cod)
        if key not in self._cross:
            src = self.prism(sx.dim)
            dst = self.prism(cod)
            alpha = simplex_as_map(standard_simplex(cod), sx)
            self._cross[key] = dst.induced(
                src.proj_left, alpha.compose(src.proj_right)
            )
        return self._cross[key]

    def elements(self, k: int):
        return enumerate_maps(self.prism(k).space, self.Y, self.max_candidates)

    def face(self, k: int, h: SSetMap, i: int) -> SSetMap:
        # d_i classifies the (k-1)-face of Delta^k that misses vertex i.
        wall = _subset_name(tuple(v for v in range(k + 1) if v != i))
        return h.compose(self.cross(Simplex((), wall, k - 1), k))

    def degeneracy(self, k: int, h: SSetMap, i: int) -> SSetMap:
        # s_i classifies s_i of the top simplex of Delta^k.
        top = _subset_name(tuple(range(k + 1)))
        return h.compose(self.cross(Simplex((i,), top, k + 1), k))


class _FiberSystem(_HomSystem):
    """The maps ``Delta^1 x Delta^k -> C`` that are constant at ``x`` on
    ``0 x Delta^k`` and at ``y`` on ``1 x Delta^k``.

    Faces and degeneracies act on the ``Delta^k`` factor only, so they keep
    both ends constant: these maps form a simplicial subset of
    hom(Delta^1, C).
    """

    def __init__(self, C: FiniteSSet, x: str, y: str, max_candidates: int | None):
        super().__init__(standard_simplex(1), C, max_candidates)
        self.ends = {"0": x, "1": y}

    def end_images(self, k: int) -> dict[str, Simplex]:
        """The images of the cells on the two ends of the k-th prism."""
        # The cells of an end are those projecting onto a vertex of Delta^1.
        return {
            name: _point_simplex(self.ends[sx.base], sx.dim)
            for name, sx in self.prism(k).proj_left.images.items()
            if sx.base in self.ends
        }

    def elements(self, k: int):
        return enumerate_maps(
            self.prism(k).space, self.Y, self.max_candidates, self.end_images(k)
        )


def internal_hom_truncated(
    X: FiniteSSet, Y: FiniteSSet, d: int, max_candidates: int | None = None
) -> FiniteSSet:
    """The function complex ``Y^X`` up to dimension ``d``."""
    if d < 0:
        raise ValidationError(f"truncation dimension {d} is negative")
    return _extract(_HomSystem(X, Y, max_candidates), d, prefix="h").space


def mapping_space(
    C: FiniteSSet, x: str, y: str, d: int, max_candidates: int | None = None
) -> FiniteSSet:
    """The space of arrows from vertex ``x`` to vertex ``y``.

    The strict fiber over ``(x, y)`` of the restriction of ``C^(Delta^1)``
    to its two endpoints, taken directly: its k-simplices are the maps
    ``Delta^1 x Delta^k -> C`` constant at ``x`` on ``0 x Delta^k`` and at
    ``y`` on ``1 x Delta^k``.
    """
    for v in (x, y):
        if v not in C.names or C.dim_of(v) != 0:
            raise ValidationError(f"{v!r} is not a vertex of the target")
    if d < 0:
        raise ValidationError(f"truncation dimension {d} is negative")
    return _extract(_FiberSystem(C, x, y, max_candidates), d, prefix="f").space
