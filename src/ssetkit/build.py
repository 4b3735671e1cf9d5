"""Products, pushouts, pullbacks and quotients of finite simplicial sets.

Pullbacks and quotients are written down straight from nondegenerate
simplices.  By the Eilenberg-Zilber lemma a nondegenerate k-simplex of
``A x_Z B`` is a compatible pair ``(s_I a, s_J b)`` of nondegenerate ``a``
and ``b`` whose degeneracy words are disjoint, so a pullback lists those
pairs level by level; the simplices of ``X/A`` are the basepoint and the
nondegenerate simplices of ``X`` outside ``A``.  A product is the pullback
of the two maps to the point, so products and fiber products share one
construction and one result type; product cells keep their own ``p`` name
prefix.

General pushouts (and so disjoint unions) are computed by materializing
every simplex levelwise up to a dimension bound, degenerate ones included,
gluing by union-find, and re-extracting a nondegenerate presentation by
stripping degeneracy witnesses; the function complexes reuse that
extraction.  Each extraction keeps its element-to-simplex dictionary so
that structure maps and universally induced maps can be written down by
cases on representatives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .delta import compose_monotone, degeneracy_map, word_of_epi
from .errors import ValidationError
from .sset import (
    FiniteSSet,
    SSetMap,
    Simplex,
    constant_map,
    is_name_subcomplex,
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


def _extract(system, top: int, basepoint_elem=None, prefix: str = "c") -> Extraction:
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
                inner = to_simplex[(k - 1, d)]
                eta = compose_monotone(inner.collapse(), degeneracy_map(k - 1, i))
                to_simplex[(k, e)] = Simplex(word_of_epi(eta), inner.base, k)
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
    bp = None
    if basepoint_elem is not None:
        bp = to_simplex[(0, basepoint_elem)].base
    space = FiniteSSet(cells, faces, basepoint=bp)
    return Extraction(space, to_simplex, from_name)


def interval() -> FiniteSSet:
    """The 1-simplex, used as the cylinder coordinate."""
    return standard_simplex(1)


# -- pushouts --------------------------------------------------------------


class _PushoutSystem:
    """Levelwise set pushout of ``U <- W -> V`` via union-find."""

    def __init__(self, f: SSetMap, g: SSetMap, top: int):
        self.U = f.target
        self.V = g.target
        self.top = top
        self.parent: dict = {}
        for k in range(top + 1):
            for sx in self.U.all_simplices(k):
                self._add((0, sx))
            for sx in self.V.all_simplices(k):
                self._add((1, sx))
            for w in f.source.all_simplices(k):
                self._union((0, f.apply(w)), (1, g.apply(w)))

    def _add(self, e):
        if e not in self.parent:
            self.parent[e] = e

    def _find(self, e):
        root = e
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[e] != root:
            self.parent[e], e = root, self.parent[e]
        return root

    def _union(self, a, b):
        ra, rb = self._find(a), self._find(b)
        if ra != rb:
            # Keep the canonically smaller element as representative.
            if _canon_key(rb) < _canon_key(ra):
                ra, rb = rb, ra
            self.parent[rb] = ra

    def canon(self, e):
        return self._find(e)

    def elements(self, k: int):
        seen = set()
        for side, space in ((0, self.U), (1, self.V)):
            for sx in space.all_simplices(k):
                seen.add(self._find((side, sx)))
        return list(seen)

    def _space(self, side: int) -> FiniteSSet:
        return self.U if side == 0 else self.V

    def face(self, k: int, e, i: int):
        side, sx = e
        return self._find((side, self._space(side).face(sx, i)))

    def degeneracy(self, k: int, e, i: int):
        side, sx = e
        return self._find((side, self._space(side).degeneracy(sx, i)))


@dataclass
class PushoutResult:
    space: FiniteSSet
    from_left: SSetMap  # U -> P
    from_right: SSetMap  # V -> P
    leg_left: SSetMap  # W -> U
    leg_right: SSetMap  # W -> V
    _system: _PushoutSystem = field(repr=False)
    _extraction: Extraction = field(repr=False)

    def class_of(self, side: int, sx: Simplex) -> Simplex:
        """Image in the pushout of a simplex of U (side 0) or V (side 1)."""
        rep = self._system.canon((side, sx))
        return self._extraction.simplex_of(sx.dim, rep)

    def induced(self, from_u: SSetMap, from_v: SSetMap) -> SSetMap:
        """The map out of the pushout determined by a commuting cone."""
        if from_u.target != from_v.target:
            raise ValidationError("cone legs have different targets")
        if from_u.compose(self.leg_left) != from_v.compose(self.leg_right):
            raise ValidationError("cone does not commute over the gluing locus")
        images = {}
        for name in self.space.names:
            side, sx = self._extraction.from_name[name]
            leg = from_u if side == 0 else from_v
            images[name] = leg.apply(sx)
        return SSetMap(self.space, from_u.target, images)


def pushout(f: SSetMap, g: SSetMap, basepoint=None) -> PushoutResult:
    """Levelwise pushout of ``f.target <- common source -> g.target``.

    ``basepoint`` may be ``(side, vertex_simplex)`` to point the result at
    the class of that vertex.
    """
    if f.source != g.source:
        raise ValidationError("pushout legs must share their source")
    top = max(f.target.top_dim, g.target.top_dim)
    system = _PushoutSystem(f, g, max(top, 0))
    bp = system.canon(basepoint) if basepoint is not None else None
    ext = _extract(system, top, basepoint_elem=bp, prefix="g")
    from_left = SSetMap(
        f.target,
        ext.space,
        {
            name: ext.simplex_of(
                f.target.dim_of(name), system.canon((0, f.target.simplex(name)))
            )
            for name in f.target.names
        },
        check=False,
    )
    from_right = SSetMap(
        g.target,
        ext.space,
        {
            name: ext.simplex_of(
                g.target.dim_of(name), system.canon((1, g.target.simplex(name)))
            )
            for name in g.target.names
        },
        check=False,
    )
    return PushoutResult(ext.space, from_left, from_right, f, g, system, ext)


def disjoint_union(X: FiniteSSet, Y: FiniteSSet) -> PushoutResult:
    """Coproduct, as the pushout over the empty simplicial set."""
    empty = FiniteSSet((), {})
    f = SSetMap(empty, X, {}, check=False)
    g = SSetMap(empty, Y, {}, check=False)
    return pushout(f, g)


# -- quotients -------------------------------------------------------------


@dataclass
class QuotientResult:
    space: FiniteSSet  # pointed at the collapsed class
    projection: SSetMap


def quotient(X: FiniteSSet, A: FiniteSSet) -> QuotientResult:
    """Collapse a nonempty subcomplex of ``X`` to the basepoint.

    The basepoint is ``g0_0``; the other cells are the nondegenerate
    simplices of ``X`` outside ``A``, renamed in name order within each
    level.  A face whose base lies in ``A`` becomes the degenerate
    basepoint; every other face keeps its word on the renamed base.
    """
    if not is_name_subcomplex(X, A):
        raise ValidationError("can only collapse a subcomplex")
    if A.top_dim < 0:
        raise ValidationError("cannot collapse the empty subcomplex")
    rename: dict = {}
    cells: list[list[str]] = []
    faces: dict[str, tuple[Simplex, ...]] = {}
    for k, level in enumerate(X.cells):
        kept = [name for name in level if name not in A]
        if k == 0:
            kept.insert(0, None)  # the collapsed class takes index 0
        names = [_cell_name("g", k, idx, len(kept)) for idx in range(len(kept))]
        rename.update(zip(kept, names))
        cells.append(names)
        if k == 0:
            bp = names[0]
            continue
        for old, new in zip(kept, names):
            faces[new] = tuple(
                _point_simplex(bp, k - 1)
                if sx.base in A
                else Simplex(sx.degeneracies, rename[sx.base], k - 1)
                for sx in X.faces[old]
            )
    space = FiniteSSet(cells, faces, basepoint=bp)
    images = {
        name: _point_simplex(bp, X.dim_of(name))
        if name in A
        else Simplex((), rename[name], X.dim_of(name))
        for name in X.names
    }
    return QuotientResult(space, SSetMap(X, space, images, check=False))


# -- pullbacks -------------------------------------------------------------


def _words(k: int, m: int) -> list[tuple[int, ...]]:
    """Every degeneracy word taking an m-simplex to dimension k."""
    return [tuple(reversed(c)) for c in combinations(range(k), k - m)]


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
        return SSetMap(to_a.source, self.space, images)


def _nondegenerate_pairs(p: SSetMap, q: SSetMap, k: int) -> list:
    """The compatible pairs ``(s_I a, s_J b)`` of dimension k with I, J disjoint."""
    A, B = p.source, q.source
    over: dict = {}  # (J, image in the base) -> the k-simplices s_J b over it
    for m in range(max(k - A.top_dim, 0), min(k, B.top_dim) + 1):
        for wb in _words(k, m):
            for b in B.cells[m]:
                sb = Simplex(wb, b, k)
                over.setdefault((wb, q.apply(sb)), []).append(sb)
    b_words = {wb for wb, _ in over}
    pairs = []
    for m in range(max(k - B.top_dim, 0), min(k, A.top_dim) + 1):
        for wa in _words(k, m):
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
    space = FiniteSSet(cells, faces)
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
