"""Exhaustive map enumeration and truncated function complexes.

The one map search of the package (:func:`_search`) places the top cells of
the source X: its nondegenerate simplices outside ``fixed`` (given as keys)
that are no face of another simplex, in decreasing dimension, then name.
Every other simplex's image is read off the image of a top cell containing
it, through the levels of ``Y`` (``FiniteSSet.level_faces``): an image is
its position in its level, and a face is read along the vertices it misses.
A top cell tries only the candidates of a bucket of its level keyed on its
maximal faces already pinned, by ``fixed`` or by a top cell placed before
it, so every map found is simplicial by construction.  A top cell with a
singular closure (two of its faces on one simplex, or a degenerate face, as
in S^2) keeps only the candidates that agree there; a degenerate face is
compared through s_word on positions (``FiniteSSet.level_degeneracy``).
Buckets are built once per top cell, so the search itself builds no
``Simplex``; a map found is a tuple of top-cell positions, read out as a
row: the positions of the images of all cells of X.  ``_as_maps`` reads
rows as the key tables of ``SSetMap`` values (``FiniteSSet.level_key``),
for the two callers that return maps, ``enumerate_maps`` and the inner-horn
check's witness.  The budget counts the candidate images of top cells
tried.  The inner-horn check runs the same search on each horn, whose top
cells are its walls (``quasicat.is_quasicategory_up_to``).

Function complexes are genuine simplicial sets of maps: a k-simplex of
hom(X, Y) is a map P_k = X x Delta^k -> Y.  They can be nonempty in every
dimension, hence the mandatory truncation.  Each level is the list of maps
the search finds into ``Y``, under the same budget, each row read straight
into the tuple of the positions of its images in the levels of ``Y``, in
the name order of P_k, with no ``SSetMap`` or ``Simplex`` built.  The face
d_i of a k-simplex is its restriction along id_X x delta_i, which sends
every nondegenerate cell of P_(k-1) to a nondegenerate cell of P_k, so a
face reindexes the tuple through a table; s_i restricts along id_X x
sigma_i, whose table also carries a degeneracy word per cell.  Each table
is read off the keys of the projections of each cell (the map classifying a
key of the prism's own Delta^cod, then the pair rule ``build._pair_key``),
once, when a level first needs it; the faces d_i and degeneracies s_i of
Delta^k are keys too.  A k-simplex e is degenerate when s_i d_i e = e for
some i < k, and is then s_i of its face d_i e; the others are named in the
order of the (word, base) of their images.  The mapping space between two
vertices is the simplicial subset of hom(Delta^1, C) whose maps are
constant at those vertices on the two ends of the prism: the search starts
from those ends and extends them.
"""

from __future__ import annotations

from .build import _budget, _level_names, _pair_key, product
from .delta import compose_words
from .errors import EnumerationLimit, ValidationError
from .sset import (
    FiniteSSet,
    SSetMap,
    Simplex,
    standard_simplex,
    subcomplex,
    _key_as_map,
)

__all__ = [
    "enumerate_maps",
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
    keys = {}
    if fixed:
        f = SSetMap(subcomplex(X, fixed), Y, fixed)  # raises unless a map
        keys = {n: key for ns, row in zip(f.source.cells, f.table) for n, key in zip(ns, row)}
    found, row = _search(X, Y, guard, keys)
    # Two maps first differ at a simplex whose earlier images agree, so both
    # images there match the same faces, and the one listed first in
    # all_simplices comes first in the output order.
    return _as_maps(X, Y, sorted(map(row, found)))


def _as_maps(X: FiniteSSet, Y: FiniteSSet, rows) -> list[SSetMap]:
    """The maps ``X -> Y`` of rows of :func:`_search`, each position in a
    level of ``Y`` read as its (word, position) key."""
    key, counts = Y.level_key, list(enumerate(X.counts()))
    return [
        SSetMap._trusted(X, Y, [[key(k, next(r)) for _ in range(n)] for k, n in counts])
        for r in map(iter, rows)
    ]


def _search(X: FiniteSSet, Y: FiniteSSet, guard: int, fixed: dict[str, tuple]):
    """The maps ``X -> Y`` extending ``fixed``, the (word, position) key in
    ``Y`` of the image of each of its cells, found top cell by top cell.

    Returns the maps found, each as the tuple of the positions of its top
    cells' images, and the function reading off such a tuple the row of its
    map: the positions of the images of every nondegenerate simplex,
    ``fixed`` ones included, in ascending dimension, then name.  Raises
    ``EnumerationLimit`` once more than ``guard`` candidate images of top
    cells were tried.
    """
    faces_of = {
        X.cells[k - 1 - len(w)][q]
        for k, rows in enumerate(X.table)
        for row in rows
        for w, q in row
    }
    tops = [
        (k, name)
        for k in range(X.top_dim, -1, -1)
        for name in X.cells[k]
        if name not in fixed and name not in faces_of
    ]
    tables: dict[tuple, list[int]] = {}
    fixed = {n: Y.level_position(*key, X.dim_of(n)) for n, key in fixed.items()}

    def table(k: int, route: tuple[int, ...], word: tuple[int, ...] = ()) -> list[int]:
        """For each simplex of level k, the position of s_word of its face
        along ``route``."""
        if (k, route, word) not in tables:
            tab = range(Y.level_size(k))
            for m, v in enumerate(route):
                faces = Y.level_faces(k - m)
                tab = [faces[p][v] for p in tab]
            if word:
                m, degenerate = k - len(route), Y.level_degeneracy
                tab = [degenerate(p, m, word) for p in tab]
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
        walk = [((), (), X.position(top))]  # route, and the key of the face
        for route, word, pos in walk:
            m = k - len(route)  # the dimension of the face
            if m:
                walk.extend(
                    (route + (v,), *X.face_key(word, pos, m, v))
                    for v in range(route[-1] if route else k + 1)
                )
            if not route:
                continue
            cell = X.cells[m - len(word)][pos]
            if cell in fixed or cell in home:
                pinned.add(route)
                if any(route[:p] + route[p + 1:] in pinned for p in range(len(route))):
                    continue  # it agrees when the pinned face above it does
                if cell in fixed:
                    want = Y.level_degeneracy(fixed[cell], m - len(word), word)
                    fixes.append((table(k, route), want))
                else:
                    src, at = home[cell]
                    keys.append(table(k, route))
                    reads.append((src, table(tops[src][0], at, word)))
            elif word or cell in own:
                repeats.append((route, word, cell))
            else:
                own[cell] = route
        size = Y.level_size(k)
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
    cells = [name for level in X.cells for name in level]

    def row(top_positions: tuple[int, ...]) -> tuple[int, ...]:
        out = []
        for name in cells:
            if name in fixed:
                out.append(fixed[name])
                continue
            src, route = home[name]
            pos, m = top_positions[src], tops[src][0]
            for v in route:
                pos = Y.level_faces(m)[pos][v]
                m -= 1
            out.append(pos)
        return tuple(out)

    return found, row


def _function_complex(
    X: FiniteSSet,
    Y: FiniteSSet,
    d: int,
    max_candidates: int | None,
    prefix: str,
    ends: dict[str, str] | None = None,
) -> FiniteSSet:
    """Levels 0 to ``d`` of ``Y^X``, as the module docstring describes,
    named ``{prefix}{k}_{idx}``.  With ``ends``, from vertices of ``X`` to
    vertices of ``Y``, only the maps constant on each of those ends."""
    ends = ends or {}
    prisms: list[tuple] = []  # per k: P_k, its names, the position of each
    tables: dict = {}  # (cod, k, key) -> per cell, (position, dimension, word) of its image

    def pull(e: tuple[int, ...], cod: int, k: int, key: tuple) -> tuple[int, ...]:
        """``e`` restricted along ``id_X x alpha``, for the monotone map
        ``alpha: [k] -> [cod]`` that classifies the k-simplex of key ``key``
        of ``Delta^cod``."""
        if (cod, k, key) not in tables:
            src, names, _ = prisms[k]
            dst, _, position = prisms[cod]
            alpha = _key_as_map(dst.proj_right.target, *key, k)
            table = []
            for name in names:
                m, p = src.space.dim_of(name), src.space.position(name)
                wb, b = alpha.image_key(*src.proj_right.table[m][p], m)
                w, q = _pair_key(dst._keys, m, *src.proj_left.table[m][p], wb, b)
                table.append((position[dst.space.cells[m - len(w)][q]], m - len(w), w))
            tables[cod, k, key] = table
        degenerate = Y.level_degeneracy
        return tuple(degenerate(e[c], m, w) for c, m, w in tables[cod, k, key])

    guard = _budget(max_candidates)
    cells: list[list[str]] = []
    table: list[list[tuple]] = []
    # Level k - 1: each element e -> its (word, position) key in the space.
    below: dict[tuple[int, ...], tuple] = {}
    for k in range(d + 1):
        P = product(X, standard_simplex(k))
        names = sorted(P.space.names)
        prisms.append((P, names, {name: p for p, name in enumerate(names)}))
        fixed = {  # the cells on an end project onto that vertex of X
            name: (tuple(range(m - 1, -1, -1)), Y.position(ends[X.cells[0][q]]))
            for m, (level, row) in enumerate(zip(P.space.cells, P.proj_left.table))
            for name, (w, q) in zip(level, row)
            if len(w) == m and X.cells[0][q] in ends
        }
        # A row lists the cells by dimension, then name; an element by name,
        # sorted by the (word, base name) of each image.
        listed = [name for level in P.space.cells for name in level]
        at = {name: c for c, name in enumerate(listed)}
        order = [at[name] for name in names]
        dims = [P.space.dim_of(name) for name in names]
        named = {m: [(w, Y.cells[m - len(w)][q]) for w, q in Y.level_keys(m)] for m in set(dims)}
        columns = [named[m] for m in dims]
        maps, row = _search(P.space, Y, guard, fixed)
        found = [tuple(r[c] for c in order) for r in map(row, maps)]
        found.sort(key=lambda e: [col[p] for col, p in zip(columns, e)])
        # d_i misses vertex i of Delta^k; s_i is s_i of the top simplex of
        # Delta^(k-1), at position 0.
        walls = P.proj_right.target.table[k][0]
        here: dict[tuple[int, ...], tuple] = {}
        nondeg = []
        for e in found:
            for i in range(k):
                face = pull(e, k, k - 1, walls[i])
                if pull(face, k - 1, k, ((i,), 0)) == e:
                    word, pos = below[face]
                    here[e] = (compose_words(word, (i,), k), pos)
                    break
            else:
                here[e] = ((), len(nondeg))
                nondeg.append(e)
        cells.append(_level_names(prefix, k, len(nondeg)))
        table.append([tuple(below[pull(e, k, k - 1, wall)] for wall in walls) for e in nondeg])
        below = here
    return FiniteSSet._trusted(cells, table)


def internal_hom_truncated(
    X: FiniteSSet, Y: FiniteSSet, d: int, max_candidates: int | None = None
) -> FiniteSSet:
    """The function complex ``Y^X`` up to dimension ``d``."""
    if d < 0:
        raise ValidationError(f"truncation dimension {d} is negative")
    return _function_complex(X, Y, d, max_candidates, "h")


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
    return _function_complex(
        standard_simplex(1), C, d, max_candidates, "f", ends={"0": x, "1": y}
    )
