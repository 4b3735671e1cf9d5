"""Products, pushouts, pullbacks and quotients of finite simplicial sets.

Every construction here is written down straight from nondegenerate
simplices.  By the Eilenberg-Zilber lemma a nondegenerate k-simplex of
``A x_Z B`` is a compatible pair ``(s_I a, s_J b)`` of nondegenerate ``a``
and ``b`` whose degeneracy words are disjoint, so a pullback lists those
pairs level by level.  A product is the pullback of the two maps to the
point, so products and fiber products share one construction and one
result type; product cells keep their own ``p`` name prefix.

A pullback works on positions and keys.  Each level sorts the simplices
``s_I a`` and ``s_J b`` of either side by word, then base, so a pair is a
pair of positions, and the pairs are listed in the order of ``(I, a, J, b)``
without sorting them.  Faces are (word, base) keys, never ``Simplex``
values: each side computes the faces of each of its simplices once, by the
face rule ``FiniteSSet.face_key``, as positions in a list of distinct keys.
Each distinct pair of faces becomes a simplex of the pullback once, by the
one pair rule ``_pair_simplex``: the collapse positions both words share
are stripped, the nondegenerate pair left is named by its key
``(I, a, J, b)``, and the face is ``s_shared`` of that name.  So a level
builds one ``Simplex`` per distinct face, and every other face is a lookup
keyed on two ints.  ``PullbackResult.pair_simplex`` and the reduced
suspension (``excision``) use the same pair rule.  ``_keys`` is the one
index of the cells, name by key; the projections are filled as the pairs
are listed.  The pairs are counted against ``DEFAULT_MAX_CANDIDATES``
before any level is built.

Pushouts are taken along an injective leg ``A -> Y``: the nondegenerate
simplices of ``X u_A Y`` are those of ``X`` plus those of ``Y`` outside
``A``.  Disjoint unions are pushouts over the empty set, and the quotient
``X/A`` is the pushout of ``X`` and the point along ``A``.  The gluing
memoises the image of every face it renames, on both sides.

Each construction is valid by construction on valid inputs, so its space
and maps, and the maps a pushout or pullback induces from a commuting cone,
are built with ``check=False``: spaces and maps are validated where they
enter, not each time one is derived from another.  Only the cone itself is
checked, since it comes from the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .delta import degeneracy_words
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
    outside the image of ``g``, named ``g{k}_{idx}``.  A simplex whose base
    lies in that image becomes ``f`` of its preimage.  Returns the space,
    the maps from both targets, and the origin ``(side, simplex)`` of each
    cell, side 0 for ``f.target`` and 1 for ``g.target``.
    """
    sides = (f.target, g.target)
    # g is injective, so it sends nondegenerate cells to nondegenerate cells.
    preimage = {sx.base: name for name, sx in g.images.items()}
    rename: tuple[dict, dict] = ({}, {})
    origin: dict = {}
    cells: list[list[str]] = []
    for k in range(max(f.target.top_dim, g.target.top_dim) + 1):
        level = [(0, n) for n in f.target.nondeg(k)]
        level += [(1, n) for n in g.target.nondeg(k) if n not in preimage]
        names = _level_names("g", k, len(level))
        for (side, old), new in zip(level, names):
            rename[side][old] = new
            origin[new] = (side, Simplex((), old, k))
        cells.append(names)
    memo: tuple[dict, dict] = ({}, {})  # per side: simplex -> its image

    def image(side: int, sx: Simplex) -> Simplex:
        out = memo[side].get(sx)
        if out is None:
            if side == 1 and sx.base in preimage:
                pre = Simplex(sx.degeneracies, preimage[sx.base], sx.dim)
                out = image(0, f.apply(pre))
            else:
                out = Simplex(sx.degeneracies, rename[side][sx.base], sx.dim)
            memo[side][sx] = out
        return out

    faces = {
        name: tuple(image(side, d) for d in sides[side].faces[sx.base])
        for name, (side, sx) in origin.items()
        if sx.dim > 0
    }
    space = FiniteSSet(cells, faces, check=False)
    legs = tuple(
        SSetMap(X, space, {n: image(side, X.simplex(n)) for n in X.names}, check=False)
        for side, X in enumerate(sides)
    )
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


def _pair_simplex(name_of: dict, wa: tuple, a: str, wb: tuple, b: str, k: int) -> Simplex:
    """The k-simplex that the pair ``(s_wa a, s_wb b)`` is: ``s_shared`` of
    the nondegenerate pair left once the collapse positions both words
    share are undone, named by ``name_of`` on its key ``(wa', a, wb', b)``."""
    shared = tuple(i for i in wa if i in wb)
    if shared:
        wa, wb = _strip(wa, shared), _strip(wb, shared)
    return Simplex(shared, name_of[wa, a, wb, b], k)


@dataclass
class PullbackResult:
    space: FiniteSSet
    proj_left: SSetMap  # to the source of p
    proj_right: SSetMap  # to the source of q
    leg_left: SSetMap  # p itself
    leg_right: SSetMap  # q itself
    _keys: dict = field(repr=False)  # (I, a, J, b) of a nondegenerate pair -> name

    def pair_simplex(self, sa: Simplex, sb: Simplex) -> Simplex:
        """The simplex of the pullback corresponding to a compatible pair."""
        if sa.dim != sb.dim:
            raise ValidationError("pair components live in different dimensions")
        return _pair_simplex(
            self._keys, sa.degeneracies, sa.base, sb.degeneracies, sb.base, sa.dim
        )

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


def _level_simplices(X: FiniteSSet, k: int, other_top: int) -> list[Simplex]:
    """The k-simplices ``s_I x`` of nondegenerate ``x`` that can pair with a
    k-simplex of a space of dimension ``other_top``, sorted by ``(I, x)``."""
    return sorted(
        (
            Simplex(w, x, k)
            for m in range(max(k - other_top, 0), min(k, X.top_dim) + 1)
            for w in degeneracy_words(k, m)
            for x in X.cells[m]
        ),
        key=lambda sx: (sx.degeneracies, sx.base),
    )


def _compatible(p: SSetMap, q: SSetMap, k: int):
    """Level k of the pullback, by position.

    Returns the k-simplices ``s_I a`` of the source of ``p`` and ``s_J b``
    of the source of ``q``, each sorted by word, then base, and for each
    ``s_I a`` the buckets of positions of the ``s_J b`` it pairs with: those
    over the same image in the base whose words J are disjoint from I.  A
    bucket holds one word and the buckets come in increasing words, so
    reading them in turn lists the pairs of the level in the order of
    ``(I, a, J, b)``.
    """
    A, B = p.source, q.source
    sas = _level_simplices(A, k, B.top_dim)
    sbs = _level_simplices(B, k, A.top_dim)
    over: dict = {}  # (J, image in the base) -> positions of the s_J b over it
    for jb, sb in enumerate(sbs):
        over.setdefault((sb.degeneracies, q.apply(sb)), []).append(jb)
    b_words = sorted({wb for wb, _ in over})
    disjoint: dict = {}  # I -> the words J disjoint from it, increasing
    partners = []
    for sa in sas:
        wa = sa.degeneracies
        if wa not in disjoint:
            disjoint[wa] = [wb for wb in b_words if not set(wa) & set(wb)]
        image = p.apply(sa)
        partners.append(
            [bucket for wb in disjoint[wa] if (bucket := over.get((wb, image)))]
        )
    return sas, sbs, partners


def _face_keys(X: FiniteSSet, level: list[Simplex], k: int):
    """The distinct faces of the k-simplices in ``level`` as (word, base)
    keys, and the faces of each as positions in that list."""
    index: dict = {}
    face_key = X.face_key
    faces = [
        tuple(
            index.setdefault(face_key(sx.degeneracies, sx.base, k, i), len(index))
            for i in range(k + 1)
        )
        for sx in level
    ]
    return list(index), faces


def _pullback(p: SSetMap, q: SSetMap, prefix: str) -> PullbackResult:
    """The pullback, listed level by level before any level is built.

    The pairs are counted against ``DEFAULT_MAX_CANDIDATES`` as the levels
    are listed, so an oversized pullback raises ``EnumerationLimit`` before
    it builds anything.  Then each side's simplices get their faces once,
    as positions, and each distinct pair of faces is normalised once.
    """
    A, B = p.source, q.source
    levels = []
    listed = 0
    for k in range(A.top_dim + B.top_dim + 1):
        levels.append(_compatible(p, q, k))
        listed += sum(len(bucket) for buckets in levels[-1][2] for bucket in buckets)
        if listed > DEFAULT_MAX_CANDIDATES:
            raise EnumerationLimit(
                f"pullback exceeds {DEFAULT_MAX_CANDIDATES} nondegenerate simplices"
            )
    cells: list[list[str]] = []
    faces: dict[str, tuple[Simplex, ...]] = {}
    left: dict[str, Simplex] = {}  # the images of the two projections
    right: dict[str, Simplex] = {}
    keys: dict = {}  # (I, a, J, b) of each nondegenerate pair -> its name
    for k in range(len(levels)):
        sas, sbs, partners = levels[k]
        levels[k] = None  # free each level once read: it would add to the peak
        pairs = [
            (ia, ib)
            for ia, buckets in enumerate(partners)
            for bucket in buckets
            for ib in bucket
        ]
        names = _level_names(prefix, k, len(pairs))
        cells.append(names)
        for (ia, ib), name in zip(pairs, names):
            sa, sb = sas[ia], sbs[ib]
            left[name], right[name] = sa, sb
            keys[sa.degeneracies, sa.base, sb.degeneracies, sb.base] = name
        if not k:
            continue
        a_faces, a_of = _face_keys(A, sas, k)
        b_faces, b_of = _face_keys(B, sbs, k)
        memo: dict = {}  # (face position in A, in B) -> face in the pullback
        for (ia, ib), name in zip(pairs, names):
            out = []
            for pair in zip(a_of[ia], b_of[ib]):
                face = memo.get(pair)
                if face is None:
                    (wa, a), (wb, b) = a_faces[pair[0]], b_faces[pair[1]]
                    face = memo[pair] = _pair_simplex(keys, wa, a, wb, b, k - 1)
                out.append(face)
            faces[name] = tuple(out)
    space = FiniteSSet(cells, faces, check=False)
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
