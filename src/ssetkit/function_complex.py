"""Exhaustive map enumeration and truncated function complexes.

The one map search of the package (:func:`_search`) places the top cells
of the source X: its nondegenerate simplices outside ``fixed`` that are no
face of another simplex, in decreasing dimension, then name.  Every other
simplex's image is read off the image of a top cell containing it, through
the face tables of ``Y`` (``FiniteSSet.level``): an image is its position
in its level, and a face is read along the vertices it misses.  A top cell
tries only the candidates of a bucket of its level keyed on its maximal
faces already pinned, by ``fixed`` or by a top cell placed before it, so
every map found is simplicial by construction.  A top cell with a singular
closure (two of its faces on one simplex, or a degenerate face, as in S^2)
keeps only the candidates that agree there; a degenerate face is compared
through the table of s_word on positions.  Buckets are built once per top
cell, so the search itself builds no ``Simplex``; a map found is a tuple of
top-cell positions, and only the maps returned are built.  The budget
counts the candidate images of top cells tried.  The inner-horn check runs
the same search on each horn, whose top cells are its walls
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
    of ``Y.all_simplices``: :func:`_search` finds them top cell by top
    cell, and they are sorted by the positions of their images.  The budget
    counts the candidate images of top cells tried.  ``fixed`` gives the
    images of the nondegenerate simplices of a subcomplex of ``X`` under a
    map to ``Y``: only the maps extending it are listed.
    """
    guard = _budget(max_candidates)
    fixed = fixed or {}
    if fixed:
        SSetMap(subcomplex(X, fixed), Y, fixed)  # raises unless a map
    found, row, as_map = _search(X, Y, guard, fixed)
    # Two maps first differ at a simplex whose earlier images agree, so both
    # images there match the same faces, and the one listed first in
    # all_simplices comes first in the output order.
    return [as_map(r) for r in sorted(map(row, found))]


def _search(X: FiniteSSet, Y: FiniteSSet, guard: int, fixed: dict[str, Simplex]):
    """The maps ``X -> Y`` extending ``fixed``, found top cell by top cell.

    Returns the maps found, each as the tuple of the positions of its top
    cells' images; the function reading off such a tuple the row of its
    map: the positions of the images of the nondegenerate simplices outside
    ``fixed``, in ascending dimension, then name; and the function building
    the map of a row.  Raises ``EnumerationLimit`` once more than ``guard``
    candidate images of top cells were tried.
    """
    faces_of = {f.base for fs in X.faces.values() for f in fs}
    tops = [
        (k, name)
        for k in range(X.top_dim, -1, -1)
        for name in X.cells[k]
        if name not in fixed and name not in faces_of
    ]
    tables: dict[tuple, list[int]] = {}

    def table(k: int, route: tuple[int, ...], word: tuple[int, ...] = ()) -> list[int]:
        """For each simplex of level k, the position of s_word of its face
        along ``route``."""
        if (k, route, word) not in tables:
            tab = range(len(Y.level(k)[0]))
            for m, v in enumerate(route):
                faces = Y.level(k - m)[2]
                tab = [faces[p][v] for p in tab]
            if word:
                m = k - len(route)
                up, below = Y.level(m + len(word))[1], Y.level(m)[0]
                tab = [up[below[p].degenerate(word)] for p in tab]
            tables[k, route, word] = list(tab)
        return tables[k, route, word]

    home: dict[str, tuple[int, tuple[int, ...]]] = {}  # cell -> (top, route)
    readers, buckets = [], []
    for s, (k, top) in enumerate(tops):
        keys, reads, fixes, repeats, own = [], [], [], [], {}
        pinned: set[tuple[int, ...]] = set()
        # The faces of the top cell, each reached along its route: the
        # vertices it misses, the highest first, so that each keeps its
        # index.  A face is pinned when its cell is fixed or placed.
        walk = [((), X.simplex(top))]
        for route, sx in walk:
            if len(route) < k:
                walk.extend(
                    (route + (v,), X.face(sx, v)) for v in range(route[-1] if route else k + 1)
                )
            if not route:
                continue
            cell, word = sx.base, sx.degeneracies
            if cell in fixed or cell in home:
                pinned.add(route)
                if any(route[:p] + route[p + 1:] in pinned for p in range(len(route))):
                    continue  # it agrees when the pinned face above it does
                if cell in fixed:
                    want = fixed[cell].degenerate(word)
                    fixes.append((table(k, route), Y.level(want.dim)[1][want]))
                else:
                    src, at = home[cell]
                    keys.append(table(k, route))
                    reads.append((src, table(tops[src][0], at, word)))
            elif word or cell in own:
                repeats.append((route, word, cell))
            else:
                own[cell] = route
        size = len(Y.level(k)[0])
        allowed = range(size)
        for tab, want in fixes:
            allowed = [y for y in allowed if tab[y] == want]
        # A singular closure: a face on a cell met before, or degenerate,
        # must be its image there, degenerated alike.
        for route, word, cell in repeats:
            tab, want = table(k, route), table(k, own[cell], word)
            allowed = [y for y in allowed if tab[y] == want[y]]
        columns = list(zip(*keys)) if keys else [()] * size
        bucket: dict[tuple[int, ...], list[int]] = {}
        for y in allowed:
            bucket.setdefault(columns[y], []).append(y)
        readers.append(reads)
        buckets.append(bucket)
        home.update((cell, (s, route)) for cell, route in own.items())
        home[top] = (s, ())

    placed = [0] * len(tops)
    found: list[tuple[int, ...]] = []
    tried = 0

    def candidates(s: int):
        """The images top cell s may take given those placed before it."""
        return iter(buckets[s].get(tuple([tab[placed[src]] for src, tab in readers[s]]), ()))

    # Depth first on an explicit stack of candidate iterators, one per top
    # cell being placed, so that a source of any number of top cells is
    # searched without recursion.  A source with no top cell to place has
    # the one map that ``fixed`` gives.
    stack = [candidates(0)] if tops else []
    if not tops:
        found.append(())
    while stack:
        s = len(stack) - 1
        for pos in stack[-1]:
            tried += 1
            if tried > guard:
                raise EnumerationLimit(f"map search exceeded {guard} candidate assignments")
            placed[s] = pos
            if s + 1 < len(tops):
                stack.append(candidates(s + 1))
                break
            found.append(tuple(placed))
        else:
            stack.pop()
    free = [(k, name) for k in range(X.top_dim + 1) for name in X.cells[k] if name not in fixed]

    def row(top_positions: tuple[int, ...]) -> tuple[int, ...]:
        out = []
        for _, name in free:
            src, route = home[name]
            pos, m = top_positions[src], tops[src][0]
            for v in route:
                pos = Y.level(m)[2][pos][v]
                m -= 1
            out.append(pos)
        return tuple(out)

    def as_map(positions: tuple[int, ...]) -> SSetMap:
        images = dict(fixed)
        images.update((name, Y.level(k)[0][p]) for (k, name), p in zip(free, positions))
        return SSetMap(X, Y, images, check=False)

    return found, row, as_map


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
