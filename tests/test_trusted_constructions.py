"""Constructions build their results unchecked; full validation agrees.

Standard simplices, subcomplexes, products, pullbacks, pushouts, quotients,
suspensions, cones, function complexes and the nerves of categories are
valid by construction on valid inputs, so they build their spaces with
``FiniteSSet._trusted`` and their maps with ``SSetMap._trusted``; identity
and pushout squares commute by construction and skip the commutation
check, and the category of a preorder skips the composition-law checks.
These properties rebuild every result with the checks on: its face tables
must satisfy the simplicial identities, every returned leg, projection or
induced map must commute with faces and convert back to the same key
table, every square must commute, and every derived category must obey the
category laws.
"""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import all_posets, circle, four_test_spaces
from suspension_oracle import oracle_suspension
from ssetkit.build import product, pushout, quotient, sset_pullback
from ssetkit.excision import (
    SSetSquare,
    cone,
    double_mapping_cylinder,
    identity_square,
    interval_collapse_square,
    pushout_square,
    reduced_suspension_data,
    unreduced_suspension,
)
from ssetkit.function_complex import (
    enumerate_maps,
    internal_hom_truncated,
    mapping_space,
)
from ssetkit.nerve import (
    FiniteCategory,
    Preorder,
    linear_preorder,
    nerve_category,
    nerve_preorder,
    preorder_category,
    square_category,
)
from ssetkit.serialize import preorder_from_record
from ssetkit.sset import (
    FiniteSSet,
    SSetMap,
    boundary,
    constant_map,
    face_closure,
    horn,
    pointed,
    simplex_as_map,
    standard_simplex,
    subcomplex,
)

SPACES = {
    **four_test_spaces(),
    "simplex1": pointed(standard_simplex(1), "0"),
    "simplex2": pointed(standard_simplex(2), "0"),
}
spaces = st.sampled_from(sorted(SPACES)).map(SPACES.__getitem__)
# Small sources keep the function complexes small.
small_sources = st.sampled_from(
    [standard_simplex(0), boundary(1), standard_simplex(1)]
)


def revalidate(X: FiniteSSet) -> None:
    assert FiniteSSet(X.cells, X.faces, X.basepoint, check=True) == X


def revalidate_map(f: SSetMap) -> None:
    """The key table a construction wrote is the one the checked public
    constructor converts from the name-keyed images."""
    assert SSetMap(f.source, f.target, f.images, check=True).table == f.table


def revalidate_square(sq: SSetSquare) -> None:
    """The legs into the final corner are derived; the others are inputs."""
    revalidate_map(sq.u_to_x)
    revalidate_map(sq.v_to_x)
    legs = (sq.w_to_u, sq.w_to_v, sq.u_to_x, sq.v_to_x)
    assert SSetSquare(*legs) == sq


def draw_subcomplex(data, X: FiniteSSet) -> FiniteSSet:
    names = data.draw(st.sets(st.sampled_from(sorted(X.names))))
    return subcomplex(X, face_closure(X, names))


@pytest.mark.parametrize("n", range(5))
def test_standard_simplices_boundaries_and_horns_validate(n):
    revalidate(standard_simplex(n))
    revalidate(boundary(n))
    for i in range(n + 1 if n else 0):
        revalidate(horn(n, i))


@given(spaces, spaces)
def test_products_validate(X, Y):
    pr = product(X, Y)
    revalidate(pr.space)
    revalidate_map(pr.proj_left)
    revalidate_map(pr.proj_right)


@given(st.data())
def test_pullbacks_validate(data):
    Z, A, B = data.draw(spaces), data.draw(spaces), data.draw(spaces)
    p = data.draw(st.sampled_from(enumerate_maps(A, Z)))
    q = data.draw(st.sampled_from(enumerate_maps(B, Z)))
    pb = sset_pullback(p, q)
    revalidate(pb.space)
    revalidate_map(pb.proj_left)
    revalidate_map(pb.proj_right)


@given(st.data())
def test_subcomplexes_pushouts_and_quotients_validate(data):
    X, Y = data.draw(spaces), data.draw(spaces)
    A = draw_subcomplex(data, X)
    revalidate(A)
    f = data.draw(st.sampled_from(enumerate_maps(A, Y)))
    g = SSetMap.inclusion(A, X)
    for po in (pushout(f, g), pushout(g, f)):
        revalidate(po.space)
        revalidate_map(po.from_left)
        revalidate_map(po.from_right)
    if A.top_dim >= 0:
        q = quotient(X, A)
        revalidate(q.space)
        revalidate_map(q.projection)


@given(spaces)
def test_suspensions_and_cones_validate(X):
    sd = reduced_suspension_data(X)
    revalidate(sd.space)
    oracle = oracle_suspension(X)
    revalidate(oracle.cylinder.space)
    revalidate_map(oracle.cylinder.proj_left)
    revalidate_map(oracle.cylinder.proj_right)
    revalidate_map(oracle.collapse.projection)
    assert oracle.space == sd.space
    revalidate(cone(X))
    revalidate(unreduced_suspension(X))


@settings(max_examples=25)
@given(small_sources, spaces, st.integers(0, 2))
def test_function_complexes_validate(X, Y, d):
    revalidate(internal_hom_truncated(X, Y, d))


@settings(max_examples=25)
@given(st.data())
def test_mapping_spaces_validate(data):
    C = data.draw(spaces)
    x = data.draw(st.sampled_from(C.nondeg(0)))
    y = data.draw(st.sampled_from(C.nondeg(0)))
    revalidate(mapping_space(C, x, y, data.draw(st.integers(0, 2))))


def test_squares_of_the_excision_tests_validate():
    b1, d1, pt = boundary(1), standard_simplex(1), standard_simplex(0)
    to_pt = constant_map(b1, pt, "0")
    incl = SSetMap.inclusion(b1, d1)
    S1 = circle()
    to_vertex = constant_map(pt, S1, S1.nondeg(0)[0])
    squares = [
        pushout_square(to_pt, incl),
        pushout_square(incl, to_pt),
        pushout_square(incl, incl),
        pushout_square(to_vertex, to_vertex),
        interval_collapse_square(),
        identity_square(boundary(2)),
        identity_square(pt),
    ]
    squares += [identity_square(X) for X in SPACES.values()]
    for sq in squares:
        revalidate_square(sq)


@settings(max_examples=25)
@given(st.data())
def test_pushout_squares_validate(data):
    X, Y = data.draw(spaces), data.draw(spaces)
    A = draw_subcomplex(data, X)
    f = data.draw(st.sampled_from(enumerate_maps(A, Y)))
    g = SSetMap.inclusion(A, X)
    revalidate_square(pushout_square(f, g))
    revalidate_square(pushout_square(g, f))


def _involution_monoid() -> FiniteCategory:
    table = {("e", "e"): "e", ("e", "t"): "t", ("t", "e"): "t", ("t", "t"): "e"}
    return FiniteCategory(
        ("x",), {"e": ("x", "x"), "t": ("x", "x")}, {"x": "e"}, table
    )


def test_nerves_of_the_nerve_tests_validate():
    grid = {("00", "01"), ("00", "10"), ("01", "11"), ("10", "11"), ("00", "11")}
    grid |= {(e, e) for e in ("00", "01", "10", "11")}
    loop = {("a", "a"), ("b", "b"), ("a", "b"), ("b", "a")}  # a <= b <= a
    for n in range(4):
        revalidate(nerve_preorder(linear_preorder(n), n))
    revalidate(nerve_category(square_category()))
    revalidate(nerve_category(preorder_category(linear_preorder(0)), 3))
    revalidate(nerve_category(_involution_monoid(), 4))
    revalidate(nerve_preorder(Preorder(("00", "01", "10", "11"), frozenset(grid)), 3))
    revalidate(nerve_preorder(Preorder(("a", "b"), frozenset(loop)), 3))


def revalidate_category(C: FiniteCategory) -> None:
    assert FiniteCategory(C.objects, C.morphisms, C.identities, C.compose_table) == C


@given(
    st.lists(st.lists(st.sampled_from("abc"), min_size=2, max_size=2)),
    st.integers(0, 4),
)
def test_nerves_of_preorders_validate(pairs, d):
    # The record's pairs are closed to a preorder; a pair and its reverse
    # make two elements isomorphic, as a <= b <= a does.
    P = preorder_from_record({"elements": list("abc"), "pairs": pairs})
    revalidate_category(preorder_category(P))
    revalidate(nerve_preorder(P, d))


def test_categories_of_preorders_validate():
    # Every poset on up to three elements, and the total orders up to 5.
    for P in all_posets(3) + [linear_preorder(n) for n in range(6)]:
        revalidate_category(preorder_category(P))


@settings(max_examples=25)
@given(st.data())
def test_maps_of_the_map_constructions_validate(data):
    # identities, inclusions, constant maps, classifying maps, composites,
    # the maps found by the search and the maps pushouts and pullbacks induce
    # unpointed copies, since the search ignores basepoints
    X, Y = (FiniteSSet(Z.cells, Z.faces) for Z in (data.draw(spaces), data.draw(spaces)))
    A = draw_subcomplex(data, X)
    maps = [SSetMap.identity_map(X), SSetMap.inclusion(A, X)]
    maps.append(constant_map(X, Y, data.draw(st.sampled_from(Y.nondeg(0)))))
    sx = data.draw(st.sampled_from(Y.all_simplices(data.draw(st.integers(0, 3)))))
    maps.append(simplex_as_map(Y, sx))
    f = data.draw(st.sampled_from(enumerate_maps(A, Y)))
    g = SSetMap.inclusion(A, X)
    maps += [f, maps[0].compose(g), f.compose(SSetMap.identity_map(A))]
    po = pushout(f, g)
    maps.append(po.induced(po.from_left, po.from_right))
    point = standard_simplex(0)
    pb = sset_pullback(constant_map(X, point, "0"), constant_map(Y, point, "0"))
    maps.append(pb.induced(pb.proj_left, pb.proj_right))
    maps.append(pb.induced(constant_map(A, X, X.nondeg(0)[0]), f))
    dmc = double_mapping_cylinder(g, f)
    maps += [dmc.gluing.from_left, dmc.second_gluing.from_right]
    maps.append(dmc.corner_comparison(po.from_right, po.from_left, po.from_left.compose(f)))
    for h in maps:
        revalidate_map(h)
