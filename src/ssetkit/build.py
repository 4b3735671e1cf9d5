"""Products, pushouts, pullbacks and quotients of finite simplicial sets.

Every construction here is written down straight from nondegenerate
simplices.  By the Eilenberg-Zilber lemma a nondegenerate k-simplex of
``A x_Z B`` is a compatible pair ``(s_I a, s_J b)`` of nondegenerate ``a``
and ``b`` whose degeneracy words are disjoint, so a pullback lists those
pairs level by level.  A product is the pullback of the two maps to the
point, so products and fiber products share one construction and one
result type; product cells keep their own ``p`` name prefix.

A pullback works on positions and keys.  Each side lists its simplices
``s_I a`` that can pair, as keys (I, a) on positions, in the order of its
level (``FiniteSSet.level_keys``: by dimension of a, name, word), and
sorts them by word, then base, so a pair is a pair of positions and the
pairs are listed in the order of ``(I, a, J, b)`` without sorting them.
The faces of a side's simplex are positions in the level below
(``FiniteSSet.level_faces``), each read back as a key from the keys of that
level, so no side builds a ``Simplex`` for a face.  Each distinct pair
of face positions becomes a face of the pullback once, by the one pair rule
``_pair_key``: the collapse positions both words share are stripped, the
nondegenerate pair left is found by its key ``(I, a, J, b)``, and the face
is the (word, position) key of ``s_shared`` of that cell, an entry of the
pullback's face table.  Induced maps and ``excision`` use the same pair
rule.  ``_keys`` is the one index of the cells, position by key, per level
(a key of two empty words fits every level); the rows of the projections
are the pairs' level keys.  The pairs are counted against
``DEFAULT_MAX_CANDIDATES`` before any level is built.

Pushouts are taken along an injective leg ``A -> Y``: the nondegenerate
simplices of ``X u_A Y`` are those of ``X`` plus those of ``Y`` outside
``A``.  The cells of ``X`` keep their positions and their rows of the face
table; a face of a cell of ``Y`` is renamed once, by its key.  Disjoint
unions are pushouts over the empty set, and the quotient ``X/A`` is the
pushout of ``X`` and the point along ``A``.

Each construction is valid by construction on valid inputs, so its space
is handed to the trusted constructor ``FiniteSSet._trusted`` and its maps,
and the maps a pushout or pullback induces from a commuting cone, to
``SSetMap._trusted`` as key tables: spaces and maps are validated where
they enter, not each time one is derived from another.  Only the cone
itself is checked, since it comes from the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import EnumerationLimit, ValidationError
from .sset import (
    FiniteSSet,
    SSetMap,
    constant_map,
    is_name_subcomplex,
    pointed,
    standard_simplex,
    _inclusion,
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


# -- pushouts and quotients -----------------------------------------------


def _glue(f: SSetMap, g: SSetMap):
    """Glue ``g.target`` onto ``f.target`` along the injective ``g``.

    Level k lists the cells of ``f.target``, then the cells of ``g.target``
    outside the image of ``g``, named ``g{k}_{idx}``, so the cells of
    ``f.target`` keep their positions and their rows.  A face of a cell of
    ``g.target`` on a cell in that image becomes ``f`` of its preimage.
    Returns the space, the maps from both targets, and per level the origin
    (side, position) of each cell, side 0 for ``f.target``, 1 for ``g.target``.
    """
    X, Y = f.target, g.target
    # g is injective, so it sends nondegenerate cells to nondegenerate cells.
    preimage = {(k, q): p for k, row in enumerate(g.table) for p, (_, q) in enumerate(row)}
    origin: list[list[tuple[int, int]]] = []
    cells: list[list[str]] = []
    moved: list[list] = []  # per level of Y, the new position of each cell
    for k in range(max(X.top_dim, Y.top_dim) + 1):
        width = len(X.nondeg(k))
        kept = [q for q in range(len(Y.nondeg(k))) if (k, q) not in preimage]
        at = dict(zip(kept, range(width, width + len(kept))))
        moved.append([at.get(q) for q in range(len(Y.nondeg(k)))])
        origin.append([(0, p) for p in range(width)] + [(1, q) for q in kept])
        cells.append(_level_names("g", k, len(origin[k])))

    def image(word: tuple[int, ...], pos: int, k: int) -> tuple:
        """The key in the space of the k-simplex (word, pos) of Y."""
        m = k - len(word)
        new = moved[m][pos]
        return f.image_key(word, preimage[m, pos], k) if new is None else (word, new)

    table = [list(X.table[k]) if k <= X.top_dim else [] for k in range(len(cells))]
    for k in range(Y.top_dim + 1):
        table[k] += [
            tuple(image(w, q, k - 1) for w, q in row)
            for row, new in zip(Y.table[k], moved[k])
            if new is not None
        ]
    space = FiniteSSet._trusted(cells, table)
    to_y = [[image((), q, k) for q in range(len(level))] for k, level in enumerate(Y.cells)]
    to_x = SSetMap.identity_map(X).table  # the cells of X keep their positions
    legs = (SSetMap._trusted(X, space, to_x), SSetMap._trusted(Y, space, to_y))
    return space, legs, origin


@dataclass
class PushoutResult:
    space: FiniteSSet
    from_left: SSetMap  # U -> P
    from_right: SSetMap  # V -> P
    leg_left: SSetMap  # W -> U
    leg_right: SSetMap  # W -> V
    _origin: list = field(repr=False)  # per level, (0 for U or 1 for V, position)

    def induced(self, from_u: SSetMap, from_v: SSetMap) -> SSetMap:
        """The map out of the pushout determined by a commuting cone."""
        if from_u.target != from_v.target:
            raise ValidationError("cone legs have different targets")
        if from_u.compose(self.leg_left) != from_v.compose(self.leg_right):
            raise ValidationError("cone does not commute over the gluing locus")
        legs = (from_u.table, from_v.table)
        table = [[legs[s][k][p] for s, p in cells] for k, cells in enumerate(self._origin)]
        return SSetMap._trusted(self.space, from_u.target, table)


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
        origin = [[(1 - side, p) for side, p in level] for level in origin]
    else:
        raise ValidationError("pushout needs an injective leg")
    return PushoutResult(space, from_left, from_right, f, g, origin)


def disjoint_union(X: FiniteSSet, Y: FiniteSSet) -> PushoutResult:
    """Coproduct, as the pushout over the empty simplicial set."""
    empty = FiniteSSet((), {})
    return pushout(SSetMap._trusted(empty, X, ()), SSetMap._trusted(empty, Y, ()))


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
    po = pushout(constant_map(A, standard_simplex(0), "0"), _inclusion(A, X))
    # The collapsed class is the first vertex: the point keeps its position.
    bp = 0 if X.basepoint is None else po.from_right.table[0][X.position(X.basepoint)][1]
    space = pointed(po.space, po.space.cells[0][bp])
    return QuotientResult(space, SSetMap._trusted(X, space, po.from_right.table))


# -- pullbacks -------------------------------------------------------------


def _strip(word: tuple[int, ...], shared: tuple[int, ...]) -> tuple[int, ...]:
    """The word left once the collapse positions in ``shared`` are undone."""
    return tuple(i - sum(s < i for s in shared) for i in word if i not in shared)


def _pair_key(
    keys: list, k: int, wa: tuple, a: int, wb: tuple, b: int
) -> tuple[tuple[int, ...], int]:
    """The key (shared, position) of the k-simplex that the pair
    ``(s_wa a, s_wb b)`` is, a and b cell positions: ``s_shared`` of the
    nondegenerate pair left once the collapse positions both words share
    are undone, at the position that ``keys``, per level, gives its key
    ``(wa', a, wb', b)``."""
    shared = tuple(i for i in wa if i in wb)
    if shared:
        wa, wb = _strip(wa, shared), _strip(wb, shared)
    return shared, keys[k - len(shared)][wa, a, wb, b]


@dataclass
class PullbackResult:
    space: FiniteSSet
    proj_left: SSetMap  # to the source of p
    proj_right: SSetMap  # to the source of q
    leg_left: SSetMap  # p itself
    leg_right: SSetMap  # q itself
    _keys: list = field(repr=False)  # per level, (I, a, J, b) of a cell -> position

    def induced(self, to_a: SSetMap, to_b: SSetMap) -> SSetMap:
        """The map into the pullback determined by a commuting cone."""
        if to_a.source != to_b.source:
            raise ValidationError("cone legs need a common source")
        if self.leg_left.compose(to_a) != self.leg_right.compose(to_b):
            raise ValidationError("cone does not commute over the base")
        table = [
            [_pair_key(self._keys, k, *ka, *kb) for ka, kb in zip(ra, rb)]
            for k, (ra, rb) in enumerate(zip(to_a.table, to_b.table))
        ]
        return SSetMap._trusted(to_a.source, self.space, table)


def _compatible(p: SSetMap, q: SSetMap, k: int):
    """Level k of the pullback, by position.

    Returns the level keys of the k-simplices ``s_I a`` of the source of
    ``p`` and ``s_J b`` of the source of ``q`` that can pair, each side's
    positions in them sorted by word, then base, and for each ``s_I a``
    in that order the buckets of sorted positions of the ``s_J b`` it pairs
    with: those over the same image in the base whose words J are disjoint
    from I.  A bucket holds one word and the buckets come in increasing
    words, so reading them in turn lists the pairs of the level in the
    order of ``(I, a, J, b)``; the bases of one word sort by position as by name.
    """
    A, B = p.source, q.source
    la = A.level_keys(k, max(k - B.top_dim, 0))
    lb = B.level_keys(k, max(k - A.top_dim, 0))
    sas = sorted(range(len(la)), key=la.__getitem__)
    sbs = sorted(range(len(lb)), key=lb.__getitem__)
    over: dict = {}  # (J, image in the base) -> sorted positions of the s_J b over it
    for jb, pb in enumerate(sbs):
        wb, b = lb[pb]
        over.setdefault((wb, q.image_key(wb, b, k)), []).append(jb)
    b_words = sorted({wb for wb, _ in over})
    disjoint: dict = {}  # I -> the words J disjoint from it, increasing
    partners = []
    for pa in sas:
        wa, a = la[pa]
        if wa not in disjoint:
            disjoint[wa] = [wb for wb in b_words if not set(wa) & set(wb)]
        image = p.image_key(wa, a, k)
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
    left: list[list[tuple]] = []  # the rows of the two projections
    right: list[list[tuple]] = []
    keys: list[dict] = []  # per level, (I, a, J, b) of each pair -> its position
    for k in range(len(levels)):
        la, lb, sas, sbs, partners = levels[k]
        levels[k] = None  # free each level once read: it would add to the peak
        pairs = [
            (sas[ia], sbs[ib])
            for ia, buckets in enumerate(partners)
            for bucket in buckets
            for ib in bucket
        ]
        cells.append(_level_names(prefix, k, len(pairs)))
        left.append([la[pa] for pa, _ in pairs])
        right.append([lb[pb] for _, pb in pairs])
        keys.append({ka + kb: pos for pos, (ka, kb) in enumerate(zip(left[k], right[k]))})
        if k:
            a_rows = A.level_faces(k, max(k - B.top_dim, 0))
            b_rows = B.level_faces(k, max(k - A.top_dim, 0))
            fa, fb = A.level_keys(k - 1), B.level_keys(k - 1)
            width = len(fb)
            # (face position in A) * width + (face position in B) -> the face
            # in the pullback, normalised once
            memo: dict[int, tuple] = {}
            rows = []
            for pa, pb in pairs:
                row = []
                for ia, ib in zip(a_rows[pa], b_rows[pb]):
                    face = memo.get(ia * width + ib)
                    if face is None:
                        face = memo[ia * width + ib] = _pair_key(keys, k - 1, *fa[ia], *fb[ib])
                    row.append(face)
                rows.append(tuple(row))
            table.append(rows)
        else:
            table.append([()] * len(pairs))
    space = FiniteSSet._trusted(cells, table)
    proj_l = SSetMap._trusted(space, A, left)
    proj_r = SSetMap._trusted(space, B, right)
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
