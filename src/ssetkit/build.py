"""Products, pushouts, pullbacks and quotients of finite simplicial sets.

Every construction here is written down straight from nondegenerate
simplices.  By the Eilenberg-Zilber lemma a nondegenerate k-simplex of
``A x_Z B`` is a compatible pair ``(s_I a, s_J b)`` of nondegenerate ``a``
and ``b`` whose degeneracy words are disjoint, so a pullback lists those
pairs level by level.  A product is the pullback of the two maps to the
point, so products and fiber products share one construction and one
result type; product cells keep their own ``p`` name prefix.

Pushouts are taken along an injective leg ``A -> Y``: the nondegenerate
simplices of ``X u_A Y`` are those of ``X`` plus those of ``Y`` outside
``A``.  Disjoint unions are pushouts over the empty set, and the quotient
``X/A`` is the pushout of ``X`` and the point along ``A``.

Only the function complexes still materialize every simplex of a level,
degenerate ones included, and strip the result back to a nondegenerate
presentation through ``_extract``.

Each construction is valid by construction on valid inputs, so its space
and maps, and the maps a pushout or pullback induces from a commuting cone,
are built with ``check=False``: spaces and maps are validated where they
enter, not each time one is derived from another.  Only the cone itself is
checked, since it comes from the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .delta import degeneracy_words
from .errors import ValidationError
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
    "interval",
]


def _canon_key(e):
    if isinstance(e, Simplex):
        return ("s", e.dim, e.degeneracies, e.base)
    if isinstance(e, SSetMap):
        return ("m",) + tuple((n, _canon_key(s)) for n, s in e.key())
    if isinstance(e, tuple):
        return ("t",) + tuple(_canon_key(x) for x in e)
    return ("a", e)


def _cell_name(prefix: str, k: int, idx: int, count: int) -> str:
    width = len(str(max(count - 1, 0)))
    return f"{prefix}{k}_{idx:0{width}d}"


def _point_simplex(name: str, k: int) -> Simplex:
    """The k-fold degenerate vertex ``name``."""
    return Simplex(tuple(range(k - 1, -1, -1)), name, k)


@dataclass
class Extraction:
    """A nondegenerate presentation of a levelwise system of simplices."""

    space: FiniteSSet
    to_simplex: dict  # (dim, element) -> Simplex
    from_name: dict  # name -> element

    def simplex_of(self, k: int, elem) -> Simplex:
        return self.to_simplex[(k, elem)]


def _extract(system, top: int, prefix: str = "c") -> Extraction:
    to_simplex: dict = {}
    cells: list[list[str]] = []
    faces: dict[str, tuple[Simplex, ...]] = {}
    from_name: dict = {}
    for k in range(top + 1):
        elems = sorted(system.elements(k), key=_canon_key)
        nondeg = []
        for e in elems:
            witness = None
            for i in range(k):
                d = system.face(k, e, i)
                if system.degeneracy(k - 1, d, i) == e:
                    witness = (i, d)
                    break
            if witness is None:
                nondeg.append(e)
            else:
                i, d = witness
                to_simplex[(k, e)] = to_simplex[(k - 1, d)].degenerate((i,))
        level = []
        for idx, e in enumerate(nondeg):
            name = _cell_name(prefix, k, idx, len(nondeg))
            level.append(name)
            to_simplex[(k, e)] = Simplex((), name, k)
            from_name[name] = e
            if k > 0:
                faces[name] = tuple(
                    to_simplex[(k - 1, system.face(k, e, i))] for i in range(k + 1)
                )
        cells.append(level)
    return Extraction(FiniteSSet(cells, faces, check=False), to_simplex, from_name)


def interval() -> FiniteSSet:
    """The 1-simplex, used as the cylinder coordinate."""
    return standard_simplex(1)


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
        names = [_cell_name("g", k, idx, len(level)) for idx in range(len(level))]
        for (side, old), new in zip(level, names):
            rename[side][old] = new
            origin[new] = (side, Simplex((), old, k))
        cells.append(names)
    memo: dict = {}

    def image(side: int, sx: Simplex) -> Simplex:
        if side == 1 and sx.base in preimage:
            out = memo.get(sx)
            if out is None:
                pre = Simplex(sx.degeneracies, preimage[sx.base], sx.dim)
                out = memo[sx] = image(0, f.apply(pre))
            return out
        return Simplex(sx.degeneracies, rename[side][sx.base], sx.dim)

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


def _pair_simplex(name_of: dict, sa: Simplex, sb: Simplex) -> Simplex:
    # A pair (s_I a, s_J b) is s_{I∩J} applied to the nondegenerate pair
    # left by undoing the collapse positions the two words share.
    dim = sa.dim
    shared = tuple(i for i in sa.degeneracies if i in sb.degeneracies)
    if shared:
        core = dim - len(shared)
        sa = Simplex(_strip(sa.degeneracies, shared), sa.base, core)
        sb = Simplex(_strip(sb.degeneracies, shared), sb.base, core)
    return Simplex(shared, name_of[(sa, sb)], dim)


@dataclass
class PullbackResult:
    space: FiniteSSet
    proj_left: SSetMap  # to the source of p
    proj_right: SSetMap  # to the source of q
    leg_left: SSetMap  # p itself
    leg_right: SSetMap  # q itself
    _name_of: dict = field(repr=False)  # nondegenerate pair -> name

    def pair_simplex(self, sa: Simplex, sb: Simplex) -> Simplex:
        """The simplex of the pullback corresponding to a compatible pair."""
        if sa.dim != sb.dim:
            raise ValidationError("pair components live in different dimensions")
        return _pair_simplex(self._name_of, sa, sb)

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


def _nondegenerate_pairs(p: SSetMap, q: SSetMap, k: int) -> list:
    """The compatible pairs ``(s_I a, s_J b)`` of dimension k with I, J disjoint."""
    A, B = p.source, q.source
    over: dict = {}  # (J, image in the base) -> the k-simplices s_J b over it
    for m in range(max(k - A.top_dim, 0), min(k, B.top_dim) + 1):
        for wb in degeneracy_words(k, m):
            for b in B.cells[m]:
                sb = Simplex(wb, b, k)
                over.setdefault((wb, q.apply(sb)), []).append(sb)
    b_words = {wb for wb, _ in over}
    pairs = []
    for m in range(max(k - B.top_dim, 0), min(k, A.top_dim) + 1):
        for wa in degeneracy_words(k, m):
            disjoint = [wb for wb in b_words if not set(wa) & set(wb)]
            for a in A.cells[m]:
                sa = Simplex(wa, a, k)
                image = p.apply(sa)
                for wb in disjoint:
                    pairs.extend((sa, sb) for sb in over.get((wb, image), ()))
    return pairs


def _pullback(p: SSetMap, q: SSetMap, prefix: str) -> PullbackResult:
    A, B = p.source, q.source
    cells: list[list[str]] = []
    faces: dict[str, tuple[Simplex, ...]] = {}
    name_of: dict = {}
    for k in range(A.top_dim + B.top_dim + 1):
        pairs = sorted(_nondegenerate_pairs(p, q, k), key=_canon_key)
        level = []
        for idx, (sa, sb) in enumerate(pairs):
            name = _cell_name(prefix, k, idx, len(pairs))
            level.append(name)
            name_of[(sa, sb)] = name
            if k > 0:
                faces[name] = tuple(
                    _pair_simplex(name_of, A.face(sa, i), B.face(sb, i))
                    for i in range(k + 1)
                )
        cells.append(level)
    space = FiniteSSet(cells, faces, check=False)
    proj_l = SSetMap(space, A, {n: sa for (sa, _), n in name_of.items()}, check=False)
    proj_r = SSetMap(space, B, {n: sb for (_, sb), n in name_of.items()}, check=False)
    return PullbackResult(space, proj_l, proj_r, p, q, name_of)


def sset_pullback(p: SSetMap, q: SSetMap) -> PullbackResult:
    """Levelwise fiber product of ``p`` and ``q`` over their shared target."""
    if p.target != q.target:
        raise ValidationError("pullback legs must share their target")
    return _pullback(p, q, "f")


def product(X: FiniteSSet, Y: FiniteSSet) -> PullbackResult:
    """Product with its two projections: the pullback over the point."""
    pt = standard_simplex(0)
    return _pullback(constant_map(X, pt, "0"), constant_map(Y, pt, "0"), "p")
