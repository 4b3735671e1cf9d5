"""Products, pushouts, pullbacks and quotients of finite simplicial sets.

All four are computed the same way: materialize every simplex of the
construction levelwise up to a dimension bound (degenerate ones included),
then re-extract a nondegenerate presentation by stripping degeneracy
witnesses.  The bound is exact: a product has no nondegenerate simplices
above the sum of the factor dimensions, and a levelwise quotient of
degenerate-only levels stays degenerate.

A product is the pullback of the two maps to the point, so products and
fiber products share one construction and one result type; product cells
keep their own ``p`` name prefix.

Each result keeps the element-to-simplex dictionary of the extraction so
that structure maps and universally induced maps can be written down by
cases on representatives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .delta import compose_monotone, degeneracy_map, word_of_epi
from .errors import ValidationError
from .sset import (
    FiniteSSet,
    SSetMap,
    Simplex,
    constant_map,
    is_name_subcomplex,
    standard_simplex,
    _push_epi,
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
        width = len(str(max(len(nondeg) - 1, 0)))
        level = []
        for idx, e in enumerate(nondeg):
            name = f"{prefix}{k}_{idx:0{width}d}"
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
    _pushout: PushoutResult = field(repr=False)

    def class_of(self, sx: Simplex) -> Simplex:
        return self._pushout.class_of(1, sx)


def quotient(X: FiniteSSet, A: FiniteSSet) -> QuotientResult:
    """Collapse a nonempty subcomplex of ``X`` to the basepoint."""
    if not is_name_subcomplex(X, A):
        raise ValidationError("can only collapse a subcomplex")
    if A.top_dim < 0:
        raise ValidationError("cannot collapse the empty subcomplex")
    pt = standard_simplex(0)
    to_point = constant_map(A, pt, "0")
    incl = SSetMap.inclusion(A, X)
    po = pushout(to_point, incl, basepoint=(0, pt.simplex("0")))
    return QuotientResult(po.space, po.from_right, po)


# -- pullbacks -------------------------------------------------------------


class _PullbackSystem:
    def __init__(self, p: SSetMap, q: SSetMap):
        self.A = p.source
        self.B = q.source
        self.p = p
        self.q = q

    def elements(self, k: int):
        by_image: dict = {}
        for sb in self.B.all_simplices(k):
            by_image.setdefault(self.q.apply(sb), []).append(sb)
        out = []
        for sa in self.A.all_simplices(k):
            for sb in by_image.get(self.p.apply(sa), ()):
                out.append((sa, sb))
        return out

    def face(self, k: int, e, i: int):
        return (self.A.face(e[0], i), self.B.face(e[1], i))

    def degeneracy(self, k: int, e, i: int):
        return (self.A.degeneracy(e[0], i), self.B.degeneracy(e[1], i))


@dataclass
class PullbackResult:
    space: FiniteSSet
    proj_left: SSetMap  # to the source of p
    proj_right: SSetMap  # to the source of q
    leg_left: SSetMap  # p itself
    leg_right: SSetMap  # q itself
    _extraction: Extraction = field(repr=False)

    def pair_simplex(self, sa: Simplex, sb: Simplex) -> Simplex:
        """The simplex of the pullback corresponding to a compatible pair."""
        if sa.dim != sb.dim:
            raise ValidationError("pair components live in different dimensions")
        A, B = self.leg_left.source, self.leg_right.source
        # Strip the degeneracies the two components share, recording the
        # epi that puts them back onto the nondegenerate core.
        eta = None
        while True:
            ea, eb = sa.collapse(), sb.collapse()
            common = [
                i
                for i in range(sa.dim)
                if ea.values[i] == ea.values[i + 1] and eb.values[i] == eb.values[i + 1]
            ]
            if not common:
                break
            step = degeneracy_map(sa.dim - 1, common[0])
            eta = step if eta is None else compose_monotone(eta, step)
            sa = A.face(sa, common[0])
            sb = B.face(sb, common[0])
        core = self._extraction.simplex_of(sa.dim, (sa, sb))
        if eta is None:
            return core
        return _push_epi(core, eta)

    def components(self, name: str) -> tuple[Simplex, Simplex]:
        return self._extraction.from_name[name]

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


def _pullback(p: SSetMap, q: SSetMap, prefix: str) -> PullbackResult:
    system = _PullbackSystem(p, q)
    top = max(p.source.top_dim + q.source.top_dim, -1)
    ext = _extract(system, top, prefix=prefix)
    proj_l = SSetMap(
        ext.space,
        p.source,
        {name: ext.from_name[name][0] for name in ext.space.names},
        check=False,
    )
    proj_r = SSetMap(
        ext.space,
        q.source,
        {name: ext.from_name[name][1] for name in ext.space.names},
        check=False,
    )
    return PullbackResult(ext.space, proj_l, proj_r, p, q, ext)


def sset_pullback(p: SSetMap, q: SSetMap) -> PullbackResult:
    """Levelwise fiber product of ``p`` and ``q`` over their shared target."""
    if p.target != q.target:
        raise ValidationError("pullback legs must share their target")
    return _pullback(p, q, "f")


def product(X: FiniteSSet, Y: FiniteSSet) -> PullbackResult:
    """Product with its two projections: the pullback over the point."""
    pt = standard_simplex(0)
    return _pullback(constant_map(X, pt, "0"), constant_map(Y, pt, "0"), "p")
