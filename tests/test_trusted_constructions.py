"""Constructions build their results unchecked; full validation agrees.

Standard simplices, subcomplexes, products, pullbacks, pushouts, quotients,
suspensions, cones and function complexes are valid by construction on
valid inputs, so they build their spaces and maps with ``check=False``.
These properties rebuild every result with ``check=True``: its face tables
must satisfy the simplicial identities, and every returned leg or
projection must commute with faces.
"""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import four_test_spaces
from ssetkit.build import product, pushout, quotient, sset_pullback
from ssetkit.excision import cone, reduced_suspension_data, unreduced_suspension
from ssetkit.function_complex import (
    enumerate_maps,
    internal_hom_truncated,
    mapping_space,
)
from ssetkit.sset import (
    FiniteSSet,
    SSetMap,
    boundary,
    face_closure,
    horn,
    pointed,
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
    SSetMap(f.source, f.target, f.images, check=True)


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
    revalidate(sd.cylinder.space)
    revalidate_map(sd.cylinder.proj_left)
    revalidate_map(sd.cylinder.proj_right)
    revalidate_map(sd.collapse.projection)
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
