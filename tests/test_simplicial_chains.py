"""The bridge from simplicial sets to integer chain complexes."""

import pytest

from conftest import circle, four_test_spaces
from ssetkit.chain import homology, quasi_iso
from ssetkit.errors import ValidationError
from ssetkit.simplicial_chains import (
    chain_basis,
    chain_map_of,
    normalized_chains,
    reduced_chain_map_of,
    reduced_normalized_chains,
)
from ssetkit.sset import (
    Simplex,
    SSetMap,
    boundary,
    constant_map,
    pointed,
    standard_simplex,
)


def test_chain_ranks_count_nondegenerate_cells():
    for X in [standard_simplex(3), boundary(2), circle()]:
        c = normalized_chains(X)
        assert tuple(c.rank(n) for n in range(X.top_dim + 1)) == X.counts()


def test_boundary_matrix_golden_triangle():
    c = normalized_chains(standard_simplex(2))
    # rows/cols are sorted cell names: 0,1,2 and 01,02,12
    assert chain_basis(standard_simplex(2), 1) == ("01", "02", "12")
    assert c.boundary(1).to_lists() == [[-1, -1, 0], [1, 0, -1], [0, 1, 1]]
    assert c.boundary(2).to_lists() == [[1], [-1], [1]]


def test_circle_chains():
    c = normalized_chains(circle())
    assert c.boundary(1).is_zero()
    assert homology(c, 1).rank == 1


def test_reduced_drops_one_degree_zero_rank():
    for X in four_test_spaces().values():
        full = normalized_chains(X)
        red = reduced_normalized_chains(X)
        assert red.rank(0) == full.rank(0) - 1
        # reduced homology differs from the full one only by Z in degree 0
        assert homology(red, 0).rank == homology(full, 0).rank - 1
        for n in range(1, 4):
            assert (homology(red, n).rank, homology(red, n).torsion) == (
                homology(full, n).rank, homology(full, n).torsion)


def test_reduced_requires_basepoint():
    with pytest.raises(ValidationError):
        reduced_normalized_chains(boundary(2))
    with pytest.raises(ValidationError):
        chain_basis(boundary(2), 0, reduced=True)


def test_chain_map_functorial():
    b2 = boundary(2)
    d2 = standard_simplex(2)
    incl = SSetMap.inclusion(b2, d2)
    collapse = constant_map(d2, standard_simplex(0), "0")
    lhs = chain_map_of(collapse.compose(incl))
    rhs = chain_map_of(collapse).compose(chain_map_of(incl))
    assert lhs.source == rhs.source and lhs.target == rhs.target
    for n in range(0, 3):
        assert lhs.block(n) == rhs.block(n)


def test_degenerate_images_map_to_zero():
    d1 = standard_simplex(1)
    collapse = constant_map(d1, standard_simplex(0), "0")
    f = chain_map_of(collapse)
    assert f.block(1).is_zero()
    assert not f.block(0).is_zero()


def test_reduced_chain_map_requires_pointed():
    b1 = pointed(boundary(1), "0")
    d1 = standard_simplex(1)
    incl = SSetMap.inclusion(boundary(1), d1)
    with pytest.raises(ValidationError):
        reduced_chain_map_of(incl)
    g = SSetMap(b1, pointed(d1, "0"), incl.images)
    red = reduced_chain_map_of(g)
    assert red.block(0).cols == 1


def test_quasi_iso_of_deformation_retract():
    # the inclusion of a vertex into a simplex is a homology equivalence
    pt = standard_simplex(0)
    d2 = standard_simplex(2)
    vertex = SSetMap(pt, d2, {"0": Simplex((), "0", 0)})
    assert quasi_iso(chain_map_of(vertex))
    assert not quasi_iso(chain_map_of(constant_map(boundary(2), pt, "0")))
