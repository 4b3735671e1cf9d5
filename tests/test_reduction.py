"""Reductions of chain complexes, and the homology presentations read off
them, against the direct presentation of ``presentation_oracle``."""

import random

import pytest

import presentation_oracle as oracle
from conftest import RP2_TOPS, circle, four_test_spaces, projective_plane
from test_chain import _random_complex, _sympy_homology
from ssetkit import chain
from ssetkit.build import product
from ssetkit.chain import (
    ChainComplex,
    ChainMap,
    homology_presentation,
    identity_chain_map,
    induced_map,
    quasi_iso,
    reduce_complex,
)
from ssetkit.excision import (
    _connecting,
    cover_from_names,
    cover_short_exact_sequence,
    mayer_vietoris,
)
from ssetkit.groups import is_zero_map
from ssetkit.intmat import IntMat
from ssetkit.simplicial_chains import normalized_chains, reduced_normalized_chains
from ssetkit.sset import boundary, standard_simplex


def _box_cover(seed: int):
    """Δ³×Δ² covered by two halves of its top cells, each closed under
    faces: the cover of the benchmark's ``mv`` workload, split at random."""
    X = product(standard_simplex(3), standard_simplex(2)).space
    tops = list(X.nondeg(5))
    random.Random(seed).shuffle(tops)
    half = len(tops) // 2
    return cover_from_names(X, tops[:half], tops[half:])


def _disk_and_band():
    return cover_from_names(projective_plane(), RP2_TOPS[:5], RP2_TOPS[5:])


def _cover_complexes(cd):
    ses = cover_short_exact_sequence(cd)
    return [ses.left.source, ses.right.source, ses.right.target]


def _battery():
    rng = random.Random(20261020)
    out = [_random_complex(rng) for _ in range(30)]
    spaces = {
        **four_test_spaces(),
        "RP2": projective_plane(),
        "torus": product(circle(), circle()).space,
        "prism": product(standard_simplex(2), standard_simplex(1)).space,
    }
    for X in spaces.values():
        out.append(normalized_chains(X))
        if X.basepoint is not None:
            out.append(reduced_normalized_chains(X))
    for seed in (1, 31):
        out += _cover_complexes(_box_cover(seed))
    return out


BATTERY = _battery()


def _minus(A: IntMat, B: IntMat) -> IntMat:
    cols = []
    for a, b in zip(A.columns, B.columns):
        col = dict(a)
        for i, x in b.items():
            if v := col.get(i, 0) - x:
                col[i] = v
            else:
                del col[i]
        cols.append(col)
    return IntMat.of_columns(A.rows, cols)


@pytest.mark.parametrize("c", BATTERY)
def test_reduction_is_a_chain_equivalence(c):
    r = reduce_complex(c)
    small = r.small
    assert r.big is c
    ChainComplex(small.low, small.high, small.ranks, small.boundaries)
    ChainMap(c, small, r.f.blocks)
    ChainMap(small, c, r.g.blocks)
    assert r.f.compose(r.g).blocks == identity_chain_map(small).blocks
    assert quasi_iso(r.g)
    # The run stops only when no ±1 incidence is left to cancel.
    assert all(
        x not in (1, -1) for b in small.boundaries for col in b.columns for x in col.values()
    )


@pytest.mark.parametrize("c", BATTERY)
def test_presentations_match_the_direct_path(c):
    for n in range(c.low - 1, c.high + 2):
        G, P, coordinates = homology_presentation(c, n)
        G0, P0, coordinates0 = oracle.homology_presentation(c, n)
        group = P.normal_form()
        assert group == P0.normal_form()
        if c.low <= n <= c.high and sum(c.ranks) <= 60:
            assert (group.rank, group.torsion) == _sympy_homology(c, n)
        # G is made of cycles, and each coordinates function inverts the
        # other's change of generators modulo the relations.
        assert (c.boundary(n) @ G).is_zero()
        assert is_zero_map(_minus(coordinates(G), IntMat.identity(P.gens)), P)
        to_new, to_old = coordinates(G0), coordinates0(G)
        assert is_zero_map(_minus(to_new @ to_old, IntMat.identity(P.gens)), P)
        assert is_zero_map(_minus(to_old @ to_new, IntMat.identity(P0.gens)), P0)


@pytest.mark.parametrize("c", BATTERY)
def test_coordinates_refuse_a_chain_that_is_not_a_cycle(c):
    # f sends every removed upper cell to 0, a cycle of the small complex,
    # so the check that V is a cycle must run on the big complex.
    for n in c.degrees():
        coordinates = homology_presentation(c, n)[2]
        for j, col in enumerate(c.boundary(n).columns):
            if col:
                assert coordinates(IntMat.of_columns(c.rank(n), [{j: 1}])) is None


def _les_maps(cd, top, reduced, present):
    """The maps of the Mayer-Vietoris sequence, read through ``present``,
    with the presentations of their sources and targets."""
    ses = cover_short_exact_sequence(cd, reduced=reduced)
    alpha, beta = ses.left, ses.right
    pw = [present(alpha.source, n) for n in range(top + 1)]
    puv = [present(beta.source, n) for n in range(top + 1)]
    px = [present(beta.target, n) for n in range(top + 2)]
    out = []
    for n in range(top, -1, -1):
        out.append((_connecting(beta, alpha, n, px[n + 1], pw[n]), px[n + 1], pw[n]))
        out.append((induced_map(alpha, n, pw[n], puv[n]), pw[n], puv[n]))
        out.append((induced_map(beta, n, puv[n], px[n]), puv[n], px[n]))
    return out


@pytest.mark.parametrize("cd, reduced", [
    (_disk_and_band(), False),
    (_disk_and_band(), True),
    (cover_from_names(boundary(2), ["01", "12"], ["02"]), False),
    (cover_from_names(boundary(2), ["01", "12"], ["02"]), True),
    (cover_from_names(boundary(3), ["012", "013"], ["023", "123"]), False),
    (_box_cover(31), False),
], ids=["disk-and-band", "disk-and-band-reduced", "two-arcs", "two-arcs-reduced",
        "sphere", "box-31"])
def test_mv_maps_change_by_the_change_of_generators(cd, reduced):
    # new = T_tgt · old · T_src⁻¹ modulo the target's relations, with T the
    # change of generators that the two coordinates functions give.
    top = cd.X.top_dim
    les = mayer_vietoris(cd, top, reduced=reduced)
    new = _les_maps(cd, top, reduced, homology_presentation)
    old = _les_maps(cd, top, reduced, oracle.homology_presentation)
    assert [m for m, _, _ in new] == list(les.maps)
    for (m, src, tgt), (m0, src0, tgt0) in zip(new, old):
        t_tgt = tgt[2](tgt0[0])
        t_src_inverse = src0[2](src[0])
        assert is_zero_map(_minus(m, t_tgt @ m0 @ t_src_inverse), tgt[1])


def test_mayer_vietoris_reduces_each_complex_once(monkeypatch):
    # One reduction of each of cW, cU⊕V and cX serves every degree, and the
    # presentations eliminate nothing larger than a small complex.
    cd = _box_cover(31)
    complexes = _cover_complexes(cd)
    small = max(sum(reduce_complex(c).small.ranks) for c in complexes)
    reduced, shapes = [], []

    def counting(c):
        reduced.append(c)
        return reduce_complex(c)

    def sized(fn):
        def wrapper(M):
            shapes.append((M.rows, M.cols))
            return fn(M)
        return wrapper

    monkeypatch.setattr(chain, "reduce_complex", counting)
    for name in ("kernel_basis", "_solver", "_unit_quotient"):
        monkeypatch.setattr(chain, name, sized(getattr(chain, name)))
    les = mayer_vietoris(cd, cd.X.top_dim)
    assert les.all_exact
    assert reduced == complexes
    assert shapes and max(max(s) for s in shapes) <= small < min(sum(c.ranks) for c in complexes)
