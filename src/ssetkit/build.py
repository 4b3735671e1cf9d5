"""Products, pushouts, pullbacks and quotients of finite simplicial sets.

Every construction here is written down straight from nondegenerate
simplices.  By the Eilenberg-Zilber lemma a nondegenerate k-simplex of
``A x_Z B`` is a compatible pair ``(s_I a, s_J b)`` of nondegenerate ``a``
and ``b`` whose degeneracy words are disjoint, so a pullback lists those
pairs level by level.  A product is the pullback of the two maps to the
point, so products and fiber products share one construction and one
result type; product cells keep their own ``p`` name prefix.

A pullback works on positions and keys.  Each side lists its simplices
``s_I a`` that can pair, as keys (I, a), in the order of its face table
``FiniteSSet.level_faces`` (by dimension of a, name, word), and sorts their
positions by word, then base, so a pair is a pair of positions and the
pairs are listed in the order of ``(I, a, J, b)`` without sorting them.
The faces of a side's simplex are positions in the level below, read off
that table, so no side builds a ``Simplex`` for a face.  Each distinct pair
of face positions becomes a face of the pullback once, by the one pair rule
``_pair_key``: the collapse positions both words share are stripped, the
nondegenerate pair left is found by its key ``(I, a, J, b)``, and the face
is the (word, position) key of ``s_shared`` of that cell, an entry of the
pullback's face table.  ``PullbackResult.pair_simplex`` and the reduced
suspension (``excision``) use the same pair rule.  ``_keys`` is the one
index of the cells, position by key; the projections are filled as the
pairs are listed, with one ``Simplex`` per simplex of a side that pairs.
The pairs are counted against ``DEFAULT_MAX_CANDIDATES`` before any level
is built.

Pushouts are taken along an injective leg ``A -> Y``: the nondegenerate
simplices of ``X u_A Y`` are those of ``X`` plus those of ``Y`` outside
``A``.  The cells of ``X`` keep their positions and their rows of the face
table; a face of a cell of ``Y`` is renamed once, by its key.  Disjoint
unions are pushouts over the empty set, and the quotient ``X/A`` is the
pushout of ``X`` and the point along ``A``.

Each construction is valid by construction on valid inputs, so its space
is handed to the trusted constructor ``FiniteSSet._trusted`` and its maps,
and the maps a pushout or pullback induces from a commuting cone, are built
with ``check=False``: spaces and maps are validated where they enter, not
each time one is derived from another.  Only the cone itself is checked,
since it comes from the caller.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from .delta import compose_words, degeneracy_words
from .errors import EnumerationLimit, ValidationError
from .sset import (
    FiniteSSet,
    SSetMap,
    Simplex,
    constant_map,
    is_name_subcomplex,
    pointed,
    standard_simplex,
)

__all__ = [
    "PushoutResult",
    "PullbackResult",
    "QuotientResult",
    "product",
    "disjoint_union",
    "pushout",
    "sset_pullback",
    "quotient",
]

# The budget of the package's combinatorial listings: the nondegenerate
# simplices a pullback lists, and the candidate images of top cells the one
# map search tries (``function_complex._search``), which are horn walls in an
# inner-horn check (``quasicat.is_quasicategory_up_to``).
DEFAULT_MAX_CANDIDATES = 10**6


def _budget(max_candidates: int | None) -> int:
    """The budget of a search given ``max_candidates``, which is None for
    ``DEFAULT_MAX_CANDIDATES``; a negative one is refused."""
    if max_candidates is None:
        return DEFAULT_MAX_CANDIDATES
    if max_candidates < 0:
        raise ValidationError(f"candidate budget {max_candidates} is negative")
    return max_candidates


def _level_names(prefix: str, k: int, count: int) -> list[str]:
    """The names ``{prefix}{k}_{idx}`` of a level of ``count`` cells, the
    indices zero-padded to one width."""
    width = len(str(max(count - 1, 0)))
    return [f"{prefix}{k}_{idx:0{width}d}" for idx in range(count)]


def _point_simplex(name: str, k: int) -> Simplex:
    """The k-fold degenerate vertex ``name``."""
    return Simplex(tuple(range(k - 1, -1, -1)), name, k)


# -- pushouts and quotients -----------------------------------------------


def _glue(f: SSetMap, g: SSetMap):
    """Glue ``g.target`` onto ``f.target`` along the injective ``g``.

    Level k lists the cells of ``f.target``, then the cells of ``g.target``
    outside the image of ``g``, named ``g{k}_{idx}``, so the cells of
    ``f.target`` keep their positions and their rows.  A face of a cell of
    ``g.target`` whose base lies in that image becomes ``f`` of its preimage.
    Returns the space, the maps from both targets, and the origin ``(side,
    simplex)`` of each cell, side 0 for ``f.target`` and 1 for ``g.target``.
    """
    X, Y = f.target, g.target
    # g is injective, so it sends nondegenerate cells to nondegenerate cells.
    preimage = {sx.base: name for name, sx in g.images.items()}
    origin: dict = {}
    cells: list[list[str]] = []
    moved: list[list] = []  # per level of Y, the new position of each cell
    for k in range(max(X.top_dim, Y.top_dim) + 1):
        kept = [n for n in Y.nondeg(k) if n not in preimage]
        level = [(0, n) for n in X.nondeg(k)] + [(1, n) for n in kept]
        at = dict(zip(kept, range(len(X.nondeg(k)), len(level))))
        moved.append([at.get(n) for n in Y.nondeg(k)])
        names = _level_names("g", k, len(level))
        for (side, old), new in zip(level, names):
            origin[new] = (side, (X, Y)[side].simplex(old))
        cells.append(names)
    memo: dict = {}  # a key (word, position) in Y -> its key in the space

    def image(word: tuple[int, ...], pos: int, k: int) -> tuple:
        """The key in the space of the k-simplex (word, pos) of Y."""
        out = memo.get((word, pos, k))
        if out is None:
            new = moved[k - len(word)][pos]
            if new is None:
                sx = f.images[preimage[Y.cells[k - len(word)][pos]]]
                w = compose_words(sx.degeneracies, word, k) if word else sx.degeneracies
                out = (w, X.position(sx.base))
            else:
                out = (word, new)
            memo[word, pos, k] = out
        return out

    table = [list(X.table[k]) if k <= X.top_dim else [] for k in range(len(cells))]
    for k in range(Y.top_dim + 1):
        table[k] += [
            tuple(image(w, q, k - 1) for w, q in row)
            for row, new in zip(Y.table[k], moved[k])
            if new is not None
        ]
    space = FiniteSSet._trusted(cells, table)
    to_x = {n: space.simplex_at((), X.position(n), X.dim_of(n)) for n in X.names}
    to_y = {
        n: space.simplex_at(*image((), Y.position(n), Y.dim_of(n)), Y.dim_of(n))
        for n in Y.names
    }
    legs = (SSetMap(X, space, to_x, check=False), SSetMap(Y, space, to_y, check=False))
    return space, legs, origin


@dataclass
class PushoutResult:
    space: FiniteSSet
    from_left: SSetMap  # U -> P
    from_right: SSetMap  # V -> P
    leg_left: SSetMap  # W -> U
    leg_right: SSetMap  # W -> V
    _origin: dict = field(repr=False)  # name -> (0 for U or 1 for V, simplex)

    def induced(self, from_u: SSetMap, from_v: SSetMap) -> SSetMap:
        """The map out of the pushout determined by a commuting cone."""
        if from_u.target != from_v.target:
            raise ValidationError("cone legs have different targets")
        if from_u.compose(self.leg_left) != from_v.compose(self.leg_right):
            raise ValidationError("cone does not commute over the gluing locus")
        images = {
            name: (from_u, from_v)[side].apply(sx)
            for name, (side, sx) in self._origin.items()
        }
        return SSetMap(self.space, from_u.target, images, check=False)


def pushout(f: SSetMap, g: SSetMap) -> PushoutResult:
    """Pushout of ``f.target <- common source -> g.target`` along an injective leg.

    If ``g`` is injective, ``g.target`` is glued onto ``f.target``;
    otherwise, if ``f`` is, ``f.target`` is glued onto ``g.target``.  One
    leg must be dimensionwise injective: a span with neither raises
    ``ValidationError``.  A pushout along a monomorphism is also a
    homotopy pushout.
    """
    if f.source != g.source:
        raise ValidationError("pushout legs must share their source")
    if g.is_dimensionwise_injective():
        space, (from_left, from_right), origin = _glue(f, g)
    elif f.is_dimensionwise_injective():
        space, (from_right, from_left), origin = _glue(g, f)
        origin = {name: (1 - side, sx) for name, (side, sx) in origin.items()}
    else:
        raise ValidationError("pushout needs an injective leg")
    return PushoutResult(space, from_left, from_right, f, g, origin)


def disjoint_union(X: FiniteSSet, Y: FiniteSSet) -> PushoutResult:
    """Coproduct, as the pushout over the empty simplicial set."""
    empty = FiniteSSet((), {})
    f = SSetMap(empty, X, {}, check=False)
    g = SSetMap(empty, Y, {}, check=False)
    return pushout(f, g)


@dataclass
class QuotientResult:
    space: FiniteSSet  # pointed, see quotient
    projection: SSetMap


def quotient(X: FiniteSSet, A: FiniteSSet) -> QuotientResult:
    """Collapse a nonempty subcomplex of ``X`` to a point.

    This is the pushout of ``X`` and the point along ``A``.  The collapsed
    class is the first vertex, ``g0_0`` (zero-padded like every name of its
    level); the other cells are the nondegenerate simplices of ``X``
    outside ``A``, renamed in name order within each level.  The quotient
    is pointed at the class of the basepoint of ``X``, so the projection is
    a pointed map, and at the collapsed class when ``X`` has no basepoint.
    """
    if not is_name_subcomplex(X, A):
        raise ValidationError("can only collapse a subcomplex")
    if A.top_dim < 0:
        raise ValidationError("cannot collapse the empty subcomplex")
    po = pushout(constant_map(A, standard_simplex(0), "0"), SSetMap.inclusion(A, X))
    if X.basepoint is None:
        bp = po.from_left.images["0"].base
    else:
        bp = po.from_right.images[X.basepoint].base
    space = pointed(po.space, bp)
    return QuotientResult(space, SSetMap(X, space, po.from_right.images, check=False))


# -- pullbacks -------------------------------------------------------------


def _strip(word: tuple[int, ...], shared: tuple[int, ...]) -> tuple[int, ...]:
    """The word left once the collapse positions in ``shared`` are undone."""
    return tuple(i - sum(s < i for s in shared) for i in word if i not in shared)


def _pair_key(keys: dict, wa: tuple, a: str, wb: tuple, b: str) -> tuple[tuple[int, ...], int]:
    """The key (shared, position) of the simplex that the pair
    ``(s_wa a, s_wb b)`` is: ``s_shared`` of the nondegenerate pair left
    once the collapse positions both words share are undone, at the
    position ``keys`` gives its key ``(wa', a, wb', b)``."""
    shared = tuple(i for i in wa if i in wb)
    if shared:
        wa, wb = _strip(wa, shared), _strip(wb, shared)
    return shared, keys[wa, a, wb, b]


@dataclass
class PullbackResult:
    space: FiniteSSet
    proj_left: SSetMap  # to the source of p
    proj_right: SSetMap  # to the source of q
    leg_left: SSetMap  # p itself
    leg_right: SSetMap  # q itself
    _keys: dict = field(repr=False)  # (I, a, J, b) of a nondegenerate pair -> position

    def pair_simplex(self, sa: Simplex, sb: Simplex) -> Simplex:
        """The simplex of the pullback corresponding to a compatible pair."""
        if sa.dim != sb.dim:
            raise ValidationError("pair components live in different dimensions")
        word, pos = _pair_key(
            self._keys, sa.degeneracies, sa.base, sb.degeneracies, sb.base
        )
        return self.space.simplex_at(word, pos, sa.dim)

    def components(self, name: str) -> tuple[Simplex, Simplex]:
        return self.proj_left.images[name], self.proj_right.images[name]

    def induced(self, to_a: SSetMap, to_b: SSetMap) -> SSetMap:
        """The map into the pullback determined by a commuting cone."""
        if to_a.source != to_b.source:
            raise ValidationError("cone legs need a common source")
        if self.leg_left.compose(to_a) != self.leg_right.compose(to_b):
            raise ValidationError("cone does not commute over the base")
        images = {
            name: self.pair_simplex(to_a.images[name], to_b.images[name])
            for name in to_a.source.names
        }
        return SSetMap(to_a.source, self.space, images, check=False)


def _listing(X: FiniteSSet, k: int, low: int) -> list[tuple[tuple[int, ...], str]]:
    """The keys (I, x) of the k-simplices ``s_I x`` of ``X`` with
    ``dim x >= low``, in the order of ``X.level_faces(k, low)``: by
    dimension, then name, then word."""
    return [
        (w, x)
        for m in range(low, min(k, X.top_dim) + 1)
        for x in X.cells[m]
        for w in degeneracy_words(k, m)
    ]


def _decoder(X: FiniteSSet, k: int):
    """The size of ``X.level(k)``, and the key (word, name) of a position in
    it: the level lists the cells of each dimension m as blocks of
    ``degeneracy_words(k, m)``, so the key is read off the block starts,
    with no level built."""
    starts, blocks = [], []
    size = 0
    for m in range(min(k, X.top_dim) + 1):
        words = degeneracy_words(k, m)
        starts.append(size)
        blocks.append((X.cells[m], words))
        size += len(words) * len(X.cells[m])

    known: dict[int, tuple] = {}

    def key(pos: int) -> tuple[tuple[int, ...], str]:
        out = known.get(pos)
        if out is None:
            b = bisect_right(starts, pos) - 1
            cells, words = blocks[b]
            q, r = divmod(pos - starts[b], len(words))
            out = known[pos] = (words[r], cells[q])
        return out

    return size, key


def _image(f: SSetMap, word: tuple[int, ...], x: str, k: int) -> tuple:
    """The (word, base) of ``f`` of the k-simplex ``s_word x``."""
    sx = f.images[x]
    return (compose_words(sx.degeneracies, word, k) if word else sx.degeneracies), sx.base


def _compatible(p: SSetMap, q: SSetMap, k: int):
    """Level k of the pullback, by position.

    Returns the listings (``_listing``) of the k-simplices ``s_I a`` of the
    source of ``p`` and ``s_J b`` of the source of ``q`` that can pair, each
    side's positions in it sorted by word, then base, and for each ``s_I a``
    in that order the buckets of sorted positions of the ``s_J b`` it pairs
    with: those over the same image in the base whose words J are disjoint
    from I.  A bucket holds one word and the buckets come in increasing
    words, so reading them in turn lists the pairs of the level in the
    order of ``(I, a, J, b)``.
    """
    A, B = p.source, q.source
    la = _listing(A, k, max(k - B.top_dim, 0))
    lb = _listing(B, k, max(k - A.top_dim, 0))
    sas = sorted(range(len(la)), key=la.__getitem__)
    sbs = sorted(range(len(lb)), key=lb.__getitem__)
    over: dict = {}  # (J, image in the base) -> sorted positions of the s_J b over it
    for jb, pb in enumerate(sbs):
        wb, b = lb[pb]
        over.setdefault((wb, _image(q, wb, b, k)), []).append(jb)
    b_words = sorted({wb for wb, _ in over})
    disjoint: dict = {}  # I -> the words J disjoint from it, increasing
    partners = []
    for pa in sas:
        wa, a = la[pa]
        if wa not in disjoint:
            disjoint[wa] = [wb for wb in b_words if not set(wa) & set(wb)]
        image = _image(p, wa, a, k)
        partners.append(
            [bucket for wb in disjoint[wa] if (bucket := over.get((wb, image)))]
        )
    return la, lb, sas, sbs, partners


def _pullback(p: SSetMap, q: SSetMap, prefix: str) -> PullbackResult:
    """The pullback, listed level by level before any level is built.

    The pairs are counted against ``DEFAULT_MAX_CANDIDATES`` as the levels
    are listed, so an oversized pullback raises ``EnumerationLimit`` before
    it builds anything.  Then each side's simplices read their faces as
    positions (``FiniteSSet.level_faces``), and each distinct pair of faces
    is normalised once.
    """
    A, B = p.source, q.source
    levels = []
    listed = 0
    for k in range(A.top_dim + B.top_dim + 1):
        levels.append(_compatible(p, q, k))
        listed += sum(len(bucket) for buckets in levels[-1][4] for bucket in buckets)
        if listed > DEFAULT_MAX_CANDIDATES:
            raise EnumerationLimit(
                f"pullback exceeds {DEFAULT_MAX_CANDIDATES} nondegenerate simplices"
            )
    cells: list[list[str]] = []
    table: list[list[tuple]] = []
    left: dict[str, Simplex] = {}  # the images of the two projections
    right: dict[str, Simplex] = {}
    keys: dict = {}  # (I, a, J, b) of each nondegenerate pair -> its position
    for k in range(len(levels)):
        la, lb, sas, sbs, partners = levels[k]
        levels[k] = None  # free each level once read: it would add to the peak
        pairs = [
            (sas[ia], sbs[ib])
            for ia, buckets in enumerate(partners)
            for bucket in buckets
            for ib in bucket
        ]
        names = _level_names(prefix, k, len(pairs))
        cells.append(names)
        a_sx: list = [None] * len(la)  # listing position -> its simplex, once
        b_sx: list = [None] * len(lb)
        for pos, ((pa, pb), name) in enumerate(zip(pairs, names)):
            (wa, a), (wb, b) = la[pa], lb[pb]
            sa, sb = a_sx[pa], b_sx[pb]
            if sa is None:
                sa = a_sx[pa] = Simplex(wa, a, k) if wa else A.simplex(a)
            if sb is None:
                sb = b_sx[pb] = Simplex(wb, b, k) if wb else B.simplex(b)
            left[name], right[name] = sa, sb
            keys[wa, a, wb, b] = pos
        if k:
            a_rows = A.level_faces(k, max(k - B.top_dim, 0))
            b_rows = B.level_faces(k, max(k - A.top_dim, 0))
            (_, fa), (width, fb) = _decoder(A, k - 1), _decoder(B, k - 1)
            # (face position in A) * width + (face position in B) -> the face
            # in the pullback, normalised once
            memo: dict[int, tuple] = {}
            rows = []
            for pa, pb in pairs:
                row = []
                for ia, ib in zip(a_rows[pa], b_rows[pb]):
                    face = memo.get(ia * width + ib)
                    if face is None:
                        (wa, a), (wb, b) = fa(ia), fb(ib)
                        face = memo[ia * width + ib] = _pair_key(keys, wa, a, wb, b)
                    row.append(face)
                rows.append(tuple(row))
            table.append(rows)
        else:
            table.append([()] * len(pairs))
    space = FiniteSSet._trusted(cells, table)
    proj_l = SSetMap(space, A, left, check=False)
    proj_r = SSetMap(space, B, right, check=False)
    return PullbackResult(space, proj_l, proj_r, p, q, keys)


def sset_pullback(p: SSetMap, q: SSetMap) -> PullbackResult:
    """Levelwise fiber product of ``p`` and ``q`` over their shared target."""
    if p.target != q.target:
        raise ValidationError("pullback legs must share their target")
    return _pullback(p, q, "f")


def product(X: FiniteSSet, Y: FiniteSSet) -> PullbackResult:
    """Product with its two projections: the pullback over the point."""
    pt = standard_simplex(0)
    return _pullback(constant_map(X, pt, "0"), constant_map(Y, pt, "0"), "p")
