"""Simplicial abelian groups and the chain correspondence."""

import random

import pytest

import delta_oracle
from ssetkit.chain import ChainComplex, homology, single_complex, zero_complex
from ssetkit.dold_kan import (
    SimplicialAbelianGroup,
    dold_kan_K,
    map_homotopy_groups,
    moore_normalized,
    simplicial_homotopy_group,
    truncate_nonneg,
)
from ssetkit.errors import ValidationError
from ssetkit.intmat import IntMat
from ssetkit.simplicial_chains import normalized_chains, reduced_normalized_chains
from ssetkit.sset import boundary, pointed, standard_simplex


def _mat(rows):
    return IntMat(len(rows), len(rows[0]) if rows else 0,
                  tuple(tuple(r) for r in rows))


def _complex(ranks, boundaries):
    return ChainComplex(0, len(ranks) - 1, tuple(ranks),
                        tuple(_mat(b) for b in boundaries))


def test_K_of_sphere_complex():
    # a single free generator in degree 1
    A = dold_kan_K(single_complex(1), 3)
    assert A.ranks == (0, 1, 2, 3)
    # level 2 carries the two degenerate copies; face maps mix them with
    # the boundary component in a fixed enumeration order
    assert A.face(2, 0).to_lists() == [[0, 1]]
    assert A.face(2, 1).to_lists() == [[1, 1]]
    assert A.face(2, 2).to_lists() == [[1, 0]]


@pytest.mark.parametrize(
    "c",
    [
        single_complex(0),
        single_complex(1),
        single_complex(2, 2),
        reduced_normalized_chains(pointed(boundary(3), "0")),
        normalized_chains(standard_simplex(2)),
    ],
    ids=["Z[0]", "Z[1]", "Z2[2]", "reduced-boundary3", "simplex2"],
)
def test_K_operators_match_monotone_map_oracle(c):
    # The word-indexed operators against composing and factoring maps.
    A = dold_kan_K(c, 4)
    faces, degeneracies = delta_oracle.dold_kan_operators(c, 4)
    assert A.face_ops == faces
    assert A.degeneracy_ops == degeneracies


def test_K_validates_all_identities_on_construction():
    # the constructor re-checks every simplicial identity; corrupting one
    # face operator must be caught
    A = dold_kan_K(single_complex(1), 3)
    bad_faces = list(list(level) for level in A.face_ops)
    bad_faces[1][1] = _mat([[1, 0]])  # tamper with d_1 at level 2
    if bad_faces[1][1] == A.face(2, 1):
        bad_faces[1][1] = _mat([[0, 0]])
    with pytest.raises(ValidationError):
        SimplicialAbelianGroup(A.cap, A.ranks,
                               tuple(tuple(l) for l in bad_faces),
                               A.degeneracy_ops)


def test_K_rejects_negative_support():
    c = ChainComplex(-1, 0, (1, 1), (IntMat.zero(1, 1),))
    with pytest.raises(ValidationError):
        dold_kan_K(c, 2)


def test_moore_recovers_sphere():
    N = moore_normalized(dold_kan_K(single_complex(1), 3))
    assert homology(N, 1).rank == 1
    assert homology(N, 0).rank == 0
    assert homology(N, 2).rank == 0


def _random_nonneg_complex(rng: random.Random) -> ChainComplex:
    """Nonnegative complexes, ranks <= 3, entries <= 5, valid squares."""
    r0, r1 = rng.randint(0, 3), rng.randint(1, 3)
    d1 = _mat([[rng.randint(-5, 5) for _ in range(r1)] for _ in range(r0)]) \
        if r0 else IntMat.zero(0, r1)
    from ssetkit.intmat import kernel_basis

    K = kernel_basis(d1)
    if K.cols:
        pick = rng.randint(0, K.cols)
        scales = [rng.choice([1, 2]) for _ in range(pick)]
        d2 = _mat([[K.entries[i][j] * scales[j] for j in range(pick)]
                   for i in range(K.rows)]) if pick else IntMat.zero(r1, 0)
    else:
        d2 = IntMat.zero(r1, 0)
    ranks = (r0, r1, d2.cols)
    bounds = (d1, d2)
    if r0 == 0:
        return ChainComplex(0, 2, ranks, (IntMat.zero(0, r1), d2))
    return ChainComplex(0, 2, ranks, bounds)


def test_round_trip_on_random_corpus():
    rng = random.Random(424242)
    seen_nontrivial = 0
    for _ in range(12):
        c = _random_nonneg_complex(rng)
        if any(not c.boundary(n).is_zero() for n in (1, 2)):
            seen_nontrivial += 1
        N = moore_normalized(dold_kan_K(c, 4))
        for n in range(0, 4):
            a, b = homology(N, n), homology(c, n)
            assert (a.rank, a.torsion) == (b.rank, b.torsion)
        for n in range(0, 3):
            assert N.rank(n) == c.rank(n)
    assert seen_nontrivial >= 5


def test_round_trip_with_two_nonzero_boundaries():
    # both differentials nonzero and composing to zero
    c = _complex([2, 2, 2],
                 [[[1, 1], [-1, -1]], [[1, -1], [-1, 1]]])
    N = moore_normalized(dold_kan_K(c, 4))
    for n in range(0, 3):
        a, b = homology(N, n), homology(c, n)
        assert (a.rank, a.torsion) == (b.rank, b.torsion)


def test_truncate_nonneg():
    # Z in degree -1 hit by doubling from degree 0
    c = ChainComplex(-1, 1, (1, 1, 1), (_mat([[2]]), _mat([[0]])))
    t = truncate_nonneg(c)
    assert t.low == 0
    # degree-0 part becomes the kernel of the old boundary, here 0
    assert t.rank(0) == 0
    simple = truncate_nonneg(single_complex(0))
    assert simple.rank(0) == 1
    kernel_case = truncate_nonneg(ChainComplex(-1, 1, (1, 2, 1),
                                               (_mat([[1, 1]]), _mat([[1], [-1]]))))
    assert kernel_case.rank(0) == 1
    assert homology(kernel_case, 1).rank == 0


def test_homotopy_groups_match_homology():
    rng = random.Random(5150)
    for _ in range(10):
        c = _random_nonneg_complex(rng)
        for n in range(0, 4):
            g = map_homotopy_groups(c, n)
            h = homology(c, n)
            assert (g.rank, g.torsion) == (h.rank, h.torsion)


def test_homotopy_group_needs_enough_levels():
    A = dold_kan_K(single_complex(1), 2)
    with pytest.raises(ValidationError):
        simplicial_homotopy_group(A, 2)
    g = simplicial_homotopy_group(A, 1)
    assert g.rank == 1


def test_zero_complex_round_trip():
    A = dold_kan_K(zero_complex(), 3)
    assert A.ranks == (0, 0, 0, 0)
    assert moore_normalized(A).is_zero_complex()
