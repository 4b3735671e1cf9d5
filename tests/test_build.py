"""Limits and colimits: products, pushouts, pullbacks, quotients."""

from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

from conftest import check_simplicial_identities, circle, two_sphere
from extraction_oracle import canon_key, extract
from pullback_oracle import components, oracle_pullback, pair_simplex
from ssetkit import build
from ssetkit.build import (
    disjoint_union,
    product,
    pushout,
    quotient,
    sset_pullback,
)
from ssetkit.errors import EnumerationLimit, ValidationError
from ssetkit.chain import homology_table
from ssetkit.excision import (
    double_mapping_cylinder,
    reduced_suspension,
    reduced_suspension_data,
)
from ssetkit.function_complex import enumerate_maps
from ssetkit.simplicial_chains import normalized_chains
from ssetkit.sset import (
    FiniteSSet,
    SSetMap,
    Simplex,
    boundary,
    constant_map,
    horn,
    pointed,
    simplex_as_map,
    standard_simplex,
    subcomplex,
)


def test_square_product_counts():
    sq = product(standard_simplex(1), standard_simplex(1))
    assert sq.space.counts() == (4, 5, 2)
    assert check_simplicial_identities(sq.space) > 0


def test_product_projections_and_pairing():
    d1 = standard_simplex(1)
    pr = product(d1, d1)
    for name in pr.space.nondeg(2):
        a, b = components(pr, name)
        top = Simplex((), name, 2)
        assert pr.proj_left.apply(top) == a
        assert pr.proj_right.apply(top) == b
        assert pair_simplex(pr, a, b) == top


def test_product_universal_property_exhaustive():
    # maps T -> A*B correspond exactly to pairs (T->A, T->B); from T = Δ²
    # a pair of maps can share two degeneracies
    A = boundary(1)
    B = standard_simplex(1)
    pr = product(A, B)
    for T in (standard_simplex(1), standard_simplex(2)):
        into_product = enumerate_maps(T, pr.space)
        pairs = [(f, g) for f in enumerate_maps(T, A) for g in enumerate_maps(T, B)]
        assert len(into_product) == len(pairs)
        seen = set()
        for f, g in pairs:
            h = pr.induced(f, g)
            assert pr.proj_left.compose(h) == f
            assert pr.proj_right.compose(h) == g
            seen.add(tuple(sorted(h.images.items())))
        assert len(seen) == len(pairs)


def test_product_point_is_neutral():
    pt = standard_simplex(0)
    X = boundary(2)
    pr = product(X, pt)
    assert pr.space.counts() == X.counts()


def test_torus_counts_and_homology():
    S1 = circle()
    pr = product(S1, S1)
    assert pr.space.counts() == (1, 3, 2)
    h = homology_table(normalized_chains(pr.space), 0, 2)
    assert h[0].rank == 1 and h[1].rank == 2 and h[2].rank == 1
    assert all(h[n].torsion == () for n in range(3))


def test_disjoint_union():
    du = disjoint_union(standard_simplex(0), boundary(1))
    assert du.space.counts() == (3,)
    assert du.from_left.target is du.space


def test_pushout_wedge_of_circles():
    # glue two circles at their single vertex
    S1 = circle()
    pt = standard_simplex(0)
    to_left = constant_map(pt, S1, S1.nondeg(0)[0])
    po = pushout(to_left, to_left)
    assert po.space.counts() == (1, 2)
    h = homology_table(normalized_chains(po.space), 0, 1)
    assert h[0].rank == 1 and h[1].rank == 2


def test_pushout_collapse_is_quotient():
    # filling the boundary inclusion against a point collapses to a sphere model
    d2 = standard_simplex(2)
    b2 = boundary(2)
    incl = SSetMap.inclusion(b2, d2)
    to_pt = constant_map(b2, standard_simplex(0), "0")
    po = pushout(incl, to_pt)
    q = quotient(d2, b2)
    assert po.space.counts() == q.space.counts() == (1, 0, 1)


def test_pushout_universal_property_exhaustive():
    # cones out of the gluing span into a small target, counted two ways
    b1 = boundary(1)
    d1 = standard_simplex(1)
    incl = SSetMap.inclusion(b1, d1)
    po = pushout(incl, incl)  # two arcs glued along endpoints
    T = standard_simplex(1)
    direct = enumerate_maps(po.space, T)
    cones = []
    for f in enumerate_maps(d1, T):
        for g in enumerate_maps(d1, T):
            if all(f.apply(Simplex((), v, 0)) == g.apply(Simplex((), v, 0)) for v in ("0", "1")):
                cones.append((f, g))
    assert len(direct) == len(cones)
    images = set()
    for f, g in cones:
        h = po.induced(f, g)
        assert h.target is T
        images.add(tuple(sorted(h.images.items())))
    assert len(images) == len(cones)


def test_pushout_class_of_respects_gluing():
    b1 = boundary(1)
    d1 = standard_simplex(1)
    incl = SSetMap.inclusion(b1, d1)
    po = pushout(incl, incl)
    v = Simplex((), "0", 0)
    assert po.from_left.apply(v) == po.from_right.apply(v)
    edge = Simplex((), "01", 1)
    assert po.from_left.apply(edge) != po.from_right.apply(edge)


def test_pushout_needs_an_injective_leg():
    # both legs fold ∂Δ¹ onto a point: neither is injective, so pushout refuses
    to_pt = constant_map(boundary(1), standard_simplex(0), "0")
    with pytest.raises(ValidationError, match="injective leg"):
        pushout(to_pt, to_pt)


def test_quotient_circle():
    q = quotient(standard_simplex(1), boundary(1))
    assert q.space.counts() == (1, 1)
    assert q.space.basepoint == q.space.nondeg(0)[0]
    assert q.projection.source.counts() == (2, 1)


def test_quotient_validation():
    d2 = standard_simplex(2)
    other = boundary(3)
    with pytest.raises(ValidationError):
        quotient(d2, other)


def test_pullback_path_space_fiber():
    # points of the arc sitting over a chosen vertex of the target
    d1 = standard_simplex(1)
    pt = standard_simplex(0)
    incl0 = simplex_as_map(d1, Simplex((), "0", 0))
    pb = sset_pullback(incl0, SSetMap.identity_map(d1))
    assert pb.space.counts() == (1,)


def test_pullback_of_product_projections():
    # pulling back the two projections of a product recovers a product
    A = standard_simplex(1)
    B = boundary(1)
    pr = product(A, B)
    pt = standard_simplex(0)
    pb = sset_pullback(constant_map(pt, A, "0"), pr.proj_left)
    # fiber of proj_left over a vertex is a copy of B
    assert pb.space.counts() == B.counts()


def test_pullback_universal_property_exhaustive():
    d1 = standard_simplex(1)
    p = constant_map(d1, d1, "0")
    q = SSetMap.identity_map(d1)
    pb = sset_pullback(p, q)
    for T in (standard_simplex(1), standard_simplex(2)):
        direct = enumerate_maps(T, pb.space)
        pairs = [
            (f, g)
            for f in enumerate_maps(T, d1)
            for g in enumerate_maps(T, d1)
            if p.compose(f) == q.compose(g)
        ]
        assert len(direct) == len(pairs)
        images = set()
        for f, g in pairs:
            h = pb.induced(f, g)
            assert h.target is pb.space
            assert pb.proj_left.compose(h) == f
            assert pb.proj_right.compose(h) == g
            images.add(tuple(sorted(h.images.items())))
        assert len(images) == len(pairs)


# -- the direct constructions against the materialize-and-strip path -------
# Pullbacks are checked against every compatible pair of simplices, and
# pushouts against a union-find over every simplex of both targets.


class _PairSystem:
    """Every compatible pair of simplices, degenerate ones included."""

    def __init__(self, p: SSetMap, q: SSetMap):
        self.p = p
        self.q = q

    def elements(self, k):
        A, B = self.p.source, self.q.source
        return [
            (sa, sb)
            for sa in A.all_simplices(k)
            for sb in B.all_simplices(k)
            if self.p.apply(sa) == self.q.apply(sb)
        ]

    def face(self, k, e, i):
        return (self.p.source.face(e[0], i), self.q.source.face(e[1], i))

    def degeneracy(self, k, e, i):
        return (self.p.source.degeneracy(e[0], i), self.q.source.degeneracy(e[1], i))


def _assert_pullback_matches_extraction(pb, prefix):
    p, q = pb.leg_left, pb.leg_right
    top = max(p.source.top_dim + q.source.top_dim, -1)
    ext = extract(_PairSystem(p, q), top, prefix=prefix)
    assert pb.space.cells == ext.space.cells
    assert pb.space.faces == ext.space.faces
    assert {name: components(pb, name) for name in pb.space.names} == ext.from_name
    assert pb.proj_left.images == {n: e[0] for n, e in ext.from_name.items()}
    assert pb.proj_right.images == {n: e[1] for n, e in ext.from_name.items()}


@pytest.mark.parametrize("p_dim", range(4))
@pytest.mark.parametrize("q_dim", range(4))
def test_simplex_products_match_extraction(p_dim, q_dim):
    pr = product(standard_simplex(p_dim), standard_simplex(q_dim))
    _assert_pullback_matches_extraction(pr, "p")


def test_products_of_spheres_match_extraction():
    for X, Y in [
        (boundary(3), boundary(2)),
        (circle(), circle()),
        (two_sphere(), standard_simplex(1)),
    ]:
        _assert_pullback_matches_extraction(product(X, Y), "p")


def test_pullbacks_over_a_base_match_extraction():
    # the counterexample's fiber of the circle projection over its vertex
    circle_q = quotient(standard_simplex(1), boundary(1))
    S1 = circle_q.space
    vertex_in = constant_map(standard_simplex(0), S1, S1.basepoint)
    _assert_pullback_matches_extraction(
        sset_pullback(vertex_in, circle_q.projection), "f"
    )
    # a projection against a map whose image is a degenerate simplex
    d2 = standard_simplex(2)
    squash = simplex_as_map(d2, Simplex((1,), "02", 2))
    pb = sset_pullback(product(d2, standard_simplex(1)).proj_left, squash)
    assert pb.space.top_dim == 3
    _assert_pullback_matches_extraction(pb, "f")


class _PushoutSystem:
    """Levelwise set pushout of ``U <- W -> V`` via union-find."""

    def __init__(self, f: SSetMap, g: SSetMap, top: int):
        self.U = f.target
        self.V = g.target
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

    def canon(self, e):
        root = e
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[e] != root:
            self.parent[e], e = root, self.parent[e]
        return root

    def _union(self, a, b):
        ra, rb = self.canon(a), self.canon(b)
        if ra != rb:
            # Keep the canonically smaller element as representative.
            if canon_key(rb) < canon_key(ra):
                ra, rb = rb, ra
            self.parent[rb] = ra

    def _space(self, side):
        return self.U if side == 0 else self.V

    def elements(self, k):
        return list({
            self.canon((side, sx))
            for side in (0, 1)
            for sx in self._space(side).all_simplices(k)
        })

    def face(self, k, e, i):
        side, sx = e
        return self.canon((side, self._space(side).face(sx, i)))

    def degeneracy(self, k, e, i):
        side, sx = e
        return self.canon((side, self._space(side).degeneracy(sx, i)))


def _oracle_pushout(f, g):
    """The union-find pushout and the images of both targets in it."""
    top = max(f.target.top_dim, g.target.top_dim)
    system = _PushoutSystem(f, g, max(top, 0))
    ext = extract(system, top, prefix="g")

    def leg(side, X):
        images = {
            n: ext.simplex_of(X.dim_of(n), system.canon((side, X.simplex(n))))
            for n in X.names
        }
        return SSetMap(X, ext.space, images)

    return ext.space, leg(0, f.target), leg(1, g.target)


def _assert_pushout_matches_oracle(po):
    space, left, right = _oracle_pushout(po.leg_left, po.leg_right)
    assert po.space == space
    assert po.from_left.images == left.images
    assert po.from_right.images == right.images


def _assert_pushout_isomorphic_to_oracle(po):
    space, left, right = _oracle_pushout(po.leg_left, po.leg_right)
    h = po.induced(left, right)
    for k in range(max(po.space.top_dim, space.top_dim) + 1):
        images = [h.images[name] for name in po.space.nondeg(k)]
        assert not any(sx.is_degenerate for sx in images)
        assert sorted(sx.base for sx in images) == list(space.nondeg(k))


def _assert_quotient_matches_pushout(X, A):
    po = pushout(constant_map(A, standard_simplex(0), "0"), SSetMap.inclusion(A, X))
    _assert_pushout_matches_oracle(po)
    q = quotient(X, A)
    assert q.space == pointed(po.space, po.space.cells[0][0])
    assert q.projection.images == po.from_right.images


def test_quotients_match_pushout():
    for n in range(1, 5):
        _assert_quotient_matches_pushout(standard_simplex(n), boundary(n))
    # the cylinder-end collapse of a reduced suspension stage
    X = reduced_suspension(circle())
    cyl = product(X, standard_simplex(1))
    ends = {
        name
        for name in cyl.space.names
        if components(cyl, name)[1].base in ("0", "1")
        or components(cyl, name)[0].base == X.basepoint
    }
    _assert_quotient_matches_pushout(cyl.space, subcomplex(cyl.space, ends))
    # twelve vertices, so the basepoint is named g0_00
    P = product(standard_simplex(3), standard_simplex(2)).space
    _assert_quotient_matches_pushout(P, subcomplex(P, [P.cells[0][0]]))
    assert quotient(P, subcomplex(P, [P.cells[0][0]])).space.basepoint == "g0_00"


def _interval_collapse_span():
    ends = boundary(1)
    return (
        constant_map(ends, standard_simplex(0), "0"),
        SSetMap.inclusion(ends, standard_simplex(1)),
    )


def test_pushouts_along_the_right_leg_match_oracle():
    _assert_pushout_matches_oracle(disjoint_union(standard_simplex(0), boundary(1)))
    _assert_pushout_matches_oracle(disjoint_union(circle(), boundary(2)))
    S1 = circle()
    to_vertex = constant_map(standard_simplex(0), S1, S1.nondeg(0)[0])
    _assert_pushout_matches_oracle(pushout(to_vertex, to_vertex))
    _assert_pushout_matches_oracle(pushout(*_interval_collapse_span()))


def test_pushouts_along_the_left_leg_are_isomorphic_to_oracle():
    f, g = _interval_collapse_span()
    _assert_pushout_isomorphic_to_oracle(pushout(g, f))
    d2, b2 = standard_simplex(2), boundary(2)
    _assert_pushout_isomorphic_to_oracle(
        pushout(SSetMap.inclusion(b2, d2), constant_map(b2, standard_simplex(0), "0"))
    )
    # the gluing of the double mapping cylinder: its cylinder ends are the
    # injective leg
    for span in (_interval_collapse_span(), (f, f)):
        gluing = double_mapping_cylinder(*span).gluing
        assert not gluing.leg_right.is_dimensionwise_injective()
        _assert_pushout_isomorphic_to_oracle(gluing)


def test_products_pullbacks_and_quotients_list_no_whole_level(monkeypatch):
    # A work-count guard: none of these constructions may enumerate every
    # simplex of a level, degenerate ones included, as ``all_simplices``
    # does.
    levels = []
    level = FiniteSSet.all_simplices

    def counting(self, k):
        levels.append((self.counts(), k))
        return level(self, k)

    monkeypatch.setattr(FiniteSSet, "all_simplices", counting)
    product(standard_simplex(3), standard_simplex(2))
    circle_q = quotient(standard_simplex(1), boundary(1))
    S1 = circle_q.space
    vertex_in = constant_map(standard_simplex(0), S1, S1.basepoint)
    sset_pullback(vertex_in, circle_q.projection)
    quotient(standard_simplex(3), boundary(3))
    reduced_suspension_data(S1)
    disjoint_union(S1, boundary(2))
    pushout(*_interval_collapse_span())
    double_mapping_cylinder(*_interval_collapse_span())
    assert levels == []


# -- the positional pullback against the one-cell-at-a-time oracle ---------


def _assert_pullback_matches_oracle(pb, prefix):
    ref = oracle_pullback(pb.leg_left, pb.leg_right, prefix)
    assert pb.space.cells == ref.space.cells
    assert pb.space.faces == ref.space.faces
    assert pb.proj_left.images == ref.proj_left.images
    assert pb.proj_right.images == ref.proj_right.images
    assert pb._keys == ref._keys


_FACTORS = [standard_simplex(n) for n in range(4)] + [
    boundary(2), boundary(3), horn(3, 1), circle(), two_sphere(),
]


@pytest.mark.parametrize("X", _FACTORS, ids=repr)
def test_products_match_oracle(X):
    for Y in _FACTORS:
        _assert_pullback_matches_oracle(product(X, Y), "p")


def test_pullbacks_match_oracle():
    circle_q = quotient(standard_simplex(1), boundary(1))
    S1 = circle_q.space
    vertex_in = constant_map(standard_simplex(0), S1, S1.basepoint)
    for p, q in [
        (vertex_in, circle_q.projection),
        (circle_q.projection, circle_q.projection),
    ]:
        _assert_pullback_matches_oracle(sset_pullback(p, q), "f")
    d2 = standard_simplex(2)
    squash = simplex_as_map(d2, Simplex((1,), "02", 2))
    pr = product(d2, standard_simplex(1))
    _assert_pullback_matches_oracle(sset_pullback(pr.proj_left, squash), "f")
    _assert_pullback_matches_oracle(sset_pullback(pr.proj_left, pr.proj_left), "f")
    d1 = standard_simplex(1)
    vertex0 = simplex_as_map(d1, Simplex((), "0", 0))
    _assert_pullback_matches_oracle(
        sset_pullback(vertex0, SSetMap.identity_map(d1)), "f"
    )


_SPAN_SPACES = [standard_simplex(n) for n in range(3)] + [
    boundary(2), horn(2, 1), circle(), two_sphere(),
]


@lru_cache(maxsize=None)
def _maps(i: int, j: int) -> list[SSetMap]:
    return enumerate_maps(_SPAN_SPACES[i], _SPAN_SPACES[j])


@given(st.data())
def test_pullbacks_along_drawn_maps_match_oracle(data):
    # Spans A -> Z <- B of the small test spaces, along maps the map search
    # finds: degenerate images and faces of s_I a over degenerate stored
    # faces included.
    spaces = st.integers(0, len(_SPAN_SPACES) - 1)
    a, b, z = data.draw(spaces), data.draw(spaces), data.draw(spaces)
    p = data.draw(st.sampled_from(_maps(a, z)))
    q = data.draw(st.sampled_from(_maps(b, z)))
    _assert_pullback_matches_oracle(sset_pullback(p, q), "f")


def test_product_normalises_each_face_pair_once(monkeypatch):
    # A work-count guard on the one pair rule: the 1007 cells of
    # Delta^3 x Delta^3 have 987 distinct pairs of faces, each normalised
    # once; normalising each face of each cell on its own takes 4112 calls.
    calls = []
    pair_key = build._pair_key

    def counting(keys, k, wa, a, wb, b):
        calls.append((k, wa, a, wb, b))
        return pair_key(keys, k, wa, a, wb, b)

    monkeypatch.setattr(build, "_pair_key", counting)
    pr = product(standard_simplex(3), standard_simplex(3))
    assert sum(pr.space.counts()) == 1007
    assert len(calls) == 987
    assert len(set(calls)) == 987


def test_pullback_budget_counts_nondegenerate_simplices(monkeypatch):
    # Delta^3 x Delta^3 lists 1007 pairs over its seven levels: a budget of
    # 1007 builds it, and one pair less refuses it before building a level.
    monkeypatch.setattr(build, "DEFAULT_MAX_CANDIDATES", 1007)
    assert sum(product(standard_simplex(3), standard_simplex(3)).space.counts()) == 1007
    monkeypatch.setattr(build, "DEFAULT_MAX_CANDIDATES", 1006)
    names = []
    monkeypatch.setattr(build, "_level_names", lambda *args: names.append(args))
    with pytest.raises(EnumerationLimit, match="1006"):
        product(standard_simplex(3), standard_simplex(3))
    assert names == []
