"""Nerves of finite categories and preorders."""

import pytest

from conftest import check_simplicial_identities
from ssetkit.chain import homology_table
from ssetkit import nerve
from ssetkit.errors import EnumerationLimit, ValidationError
from ssetkit.nerve import (
    FiniteCategory,
    Preorder,
    linear_preorder,
    nerve_category,
    nerve_preorder,
    preorder_category,
    square_category,
)
from ssetkit.simplicial_chains import normalized_chains
from ssetkit.sset import Simplex, are_isomorphic, standard_simplex


def test_linear_preorder_nerve_is_simplex():
    for n in range(4):
        N = nerve_preorder(linear_preorder(n), n)
        assert N.counts() == standard_simplex(n).counts()
        assert are_isomorphic(N, standard_simplex(n))


def test_square_nerve_cells():
    N = nerve_category(square_category())
    assert N.counts() == (4, 5, 2)
    assert set(N.nondeg(2)) == {"f|g", "fp|gp"}
    # inner face composes; both triangles share the diagonal
    assert N.face(Simplex((), "f|g", 2), 0) == Simplex((), "g", 1)
    assert N.face(Simplex((), "f|g", 2), 1) == Simplex((), "h", 1)
    assert N.face(Simplex((), "f|g", 2), 2) == Simplex((), "f", 1)
    assert N.face(Simplex((), "fp|gp", 2), 1) == Simplex((), "h", 1)
    assert check_simplicial_identities(N) > 0


def test_terminal_category_nerve():
    N = nerve_category(preorder_category(linear_preorder(0)), 3)
    assert N.counts() == (1,)


def _cyclic_two_monoid() -> FiniteCategory:
    # one object, one non-identity involution
    morphisms = {"e": ("x", "x"), "t": ("x", "x")}
    table = {
        ("e", "e"): "e",
        ("e", "t"): "t",
        ("t", "e"): "t",
        ("t", "t"): "e",
    }
    return FiniteCategory(("x",), morphisms, {"x": "e"}, table)


def test_involution_monoid_nerve_torsion():
    # classifying space of the order-two group, truncated
    N = nerve_category(_cyclic_two_monoid(), 4)
    assert N.counts() == (1, 1, 1, 1, 1)
    assert check_simplicial_identities(N, extra=1) > 0
    h = homology_table(normalized_chains(N), 0, 3)
    assert (h[0].rank, h[0].torsion) == (1, ())
    assert (h[1].rank, h[1].torsion) == (0, (2,))
    assert (h[2].rank, h[2].torsion) == (0, ())
    assert (h[3].rank, h[3].torsion) == (0, (2,))


def test_identity_face_renormalizes_to_degeneracy():
    N = nerve_category(_cyclic_two_monoid(), 2)
    # composing the two inner arrows of t|t yields the identity,
    # so that face is a degenerate vertex
    assert N.face(Simplex((), "t|t", 2), 1) == Simplex((0,), "x", 1)


def test_grid_poset_nerve():
    rel = {("00", "00"), ("01", "01"), ("10", "10"), ("11", "11"),
           ("00", "01"), ("00", "10"), ("01", "11"), ("10", "11"), ("00", "11")}
    P = Preorder(("00", "01", "10", "11"), frozenset(rel))
    assert P.is_poset()
    N = nerve_preorder(P, 3)
    assert N.counts() == (4, 5, 2)
    assert are_isomorphic(N, nerve_category(square_category()))


def test_preorder_with_loop_is_not_poset():
    rel = {("a", "a"), ("b", "b"), ("a", "b"), ("b", "a")}
    P = Preorder(("a", "b"), frozenset(rel))
    assert not P.is_poset()
    # the loop makes the nerve nontrivial in every dimension
    N = nerve_preorder(P, 3)
    assert N.counts()[3] > 0


def test_category_validation():
    with pytest.raises(ValidationError):
        Preorder(("a", "b"), frozenset({("a", "b")}))  # not reflexive
    with pytest.raises(ValidationError):
        Preorder(("a", "b", "c"),
                 frozenset({("a", "a"), ("b", "b"), ("c", "c"),
                            ("a", "b"), ("b", "c")}))  # not transitive
    bad_unit = {
        ("e", "e"): "t",
        ("e", "t"): "t",
        ("t", "e"): "t",
        ("t", "t"): "e",
    }
    with pytest.raises(ValidationError):
        FiniteCategory(("x",), {"e": ("x", "x"), "t": ("x", "x")}, {"x": "e"}, bad_unit)
    with pytest.raises(ValidationError):
        FiniteCategory(("x",), {"e": ("x", "x")}, {"x": "e"}, {})  # missing entry


def test_preorder_category_round_trip():
    P = linear_preorder(2)
    C = preorder_category(P)
    assert len(C.morphisms) == 6
    assert C.compose("1<=2", "0<=1") == "0<=2"


def test_negative_truncation_rejected():
    with pytest.raises(ValidationError, match="truncation dimension -1 is negative"):
        nerve_category(square_category(), -1)
    assert nerve_category(square_category(), 0).counts() == (4,)


def test_nerve_levels_are_listed_under_the_budget(monkeypatch):
    # The nerve shares the package's one listing budget.
    monkeypatch.setattr(nerve, "DEFAULT_MAX_CANDIDATES", 5)
    with pytest.raises(EnumerationLimit, match="nerve level 1 exceeds 5 chains"):
        nerve_preorder(linear_preorder(3))
    monkeypatch.setattr(nerve, "DEFAULT_MAX_CANDIDATES", 6)
    assert nerve_preorder(linear_preorder(3), 1).counts() == (4, 6)


def test_relations_with_clashing_morphism_names_are_refused():
    # x<=y ≤ z and x ≤ y<=z would both be named "x<=y<=z", and the nerve
    # would silently keep one of the two edges.
    elements = ("x<=y", "z", "x", "y<=z")
    rel = {(e, e) for e in elements} | {("x<=y", "z"), ("x", "y<=z")}
    with pytest.raises(ValidationError, match="share the morphism name 'x<=y<=z'"):
        nerve_preorder(Preorder(elements, frozenset(rel)))
