"""Clearing in ``homology_table`` against uncleared eliminations.

``homology_table`` eliminates its boundaries from the top degree down and
leaves out of ∂_m the columns whose index is a unit-pivot row of ∂_{m+1}.
These tests compare its tables with the per-degree, uncleared
``rank_and_torsion`` of both neighbouring boundaries, and, where the
matrices are small, with the dense Smith normal form of the test oracle.
They also pin down how many columns reach the elimination.
"""

import json
import pathlib
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import four_test_spaces, two_elimination_table
from intmat_oracle import smith_normal_form
from ssetkit import intmat
from ssetkit.build import product
from ssetkit.chain import ChainComplex, ChainMap, homology_table, mapping_cone
from ssetkit.intmat import IntMat, _eliminate, kernel_basis
from ssetkit.serialize import chain_from_record, sset_from_record
from ssetkit.simplicial_chains import normalized_chains, reduced_normalized_chains
from ssetkit.sset import face_closure, standard_simplex, subcomplex
from ssetkit.tower import l1_mock_evaluator, reduced_chains_evaluator

TORUS3 = pathlib.Path(__file__).parent.parent / "perfbench" / "data" / "torus3.json"
DENSE_LIMIT = 40  # rows and columns up to which the dense oracle runs


def _rp2():
    """The 6-vertex RP², pointed at 0: H_1 = Z/2, so ∂_2 leaves a non-unit
    remainder."""
    tops = "012 023 034 045 015 124 245 235 135 134".split()
    names = {"".join(f) for t in tops for k in (1, 2, 3) for f in combinations(t, k)}
    return sset_from_record({
        "basepoint": "0",
        "cells": [sorted(n for n in names if len(n) == k) for k in (1, 2, 3)],
        "faces": {
            n: [[[], n[:i] + n[i + 1:]] for i in range(len(n))]
            for n in names if len(n) > 1
        },
    })


def _dense_factors(M):
    if not (M.rows and M.cols):
        return 0, ()
    diag = smith_normal_form(M).nonzero_diagonal
    return len(diag), tuple(d for d in diag if d > 1)


def assert_table_exact(c: ChainComplex) -> None:
    low, high = c.low - 1, c.high + 1
    table = {n: (g.rank, g.torsion) for n, g in homology_table(c, low, high).items()}
    assert table == two_elimination_table(c, low, high)
    if max(c.ranks) <= DENSE_LIMIT:
        assert table == two_elimination_table(c, low, high, _dense_factors)


def _columns_eliminated(monkeypatch, c: ChainComplex) -> int:
    handed = []

    def counting(M, track):
        handed.append(M.cols)
        return _eliminate(M, track)

    monkeypatch.setattr(intmat, "_eliminate", counting)
    homology_table(c, c.low, c.high)
    return sum(handed)


def test_clearing_halves_the_columns_eliminated(monkeypatch):
    # All 1007 cells of Δ³×Δ³ are columns of some boundary; the 503 unit
    # pivots of the degrees above clear as many of them.  The torus T²×S¹
    # of 26 cells keeps 17.
    c = normalized_chains(product(standard_simplex(3), standard_simplex(3)).space)
    assert sum(c.ranks) == 1007
    assert _columns_eliminated(monkeypatch, c) == 504
    torus = normalized_chains(sset_from_record(json.loads(TORUS3.read_text())))
    assert sum(torus.ranks) == 26
    assert _columns_eliminated(monkeypatch, torus) == 17


def test_set_aside_columns_meet_cleared_columns():
    # ∂_2 of RP² has unit pivots, which clear columns of ∂_1, and a
    # set-aside column whose remainder carries the torsion 2.
    c = normalized_chains(_rp2())
    pivots, unit_rows, rest = _eliminate(c.boundary(2), track=False)
    assert unit_rows and rest
    assert homology_table(c, 0, 2)[1].torsion == (2,)
    assert_table_exact(c)
    assert_table_exact(reduced_normalized_chains(_rp2()))


SPACES = {**four_test_spaces(), "RP2": _rp2()}


@pytest.mark.parametrize("name", sorted(SPACES))
def test_spaces_and_products(name):
    X = SPACES[name]
    assert_table_exact(normalized_chains(X))
    if X.basepoint is not None:
        assert_table_exact(reduced_normalized_chains(X))
    for other in ("S1", "bd2"):
        assert_table_exact(normalized_chains(product(X, SPACES[other]).space))


DELTA33 = product(standard_simplex(3), standard_simplex(3)).space
DELTA33_TOPS = sorted(DELTA33.nondeg(DELTA33.top_dim))


@settings(max_examples=15)
@given(st.sets(st.sampled_from(DELTA33_TOPS), min_size=1, max_size=8))
def test_random_subcomplexes_of_delta33(tops):
    names = face_closure(DELTA33, tops)
    assert_table_exact(normalized_chains(subcomplex(DELTA33, names)))


@pytest.mark.parametrize("name", sorted(four_test_spaces()))
def test_cones_of_tower_structure_maps(name):
    X = four_test_spaces()[name]
    for F in (reduced_chains_evaluator(), l1_mock_evaluator()):
        for n in range(3):
            assert_table_exact(mapping_cone(F.structure_map(X, n)))


def _random_record(rng: random.Random) -> dict:
    """A ``chain_from_record`` record of a valid complex: each boundary is a
    random integer combination of the kernel of the one below, so
    remainders such as 2 and 3 are frequent."""
    low = rng.randint(-1, 1)
    ranks = [rng.randint(1, 4)]
    previous = IntMat.zero(0, ranks[0])
    boundaries = {}
    for n in range(low + 1, low + rng.randint(1, 4)):
        K = kernel_basis(previous)
        cols = rng.randint(0, 4)
        mix = IntMat(K.cols, cols, tuple(
            tuple(rng.choice([0, 0, 1, -1, 2, 3]) for _ in range(cols))
            for _ in range(K.cols)
        ))
        previous = K @ mix
        boundaries[str(n)] = previous.to_lists()
        ranks.append(cols)
    return {"low": low, "high": low + len(ranks) - 1, "ranks": ranks,
            "boundaries": boundaries}


def _random_chain_map(rng: random.Random, c: ChainComplex) -> ChainMap:
    """``k·id + d h + h d`` for a random k and random h: a chain map, since
    d(d h + h d) = d h d = (d h + h d) d."""
    k = rng.choice([0, 1, -1, 2, 3])
    h = {
        n: IntMat(c.rank(n + 1), c.rank(n), tuple(
            tuple(rng.choice([0, 0, 0, 1, -1, 2]) for _ in range(c.rank(n)))
            for _ in range(c.rank(n + 1))
        ))
        for n in range(c.low - 1, c.high + 1)
    }
    blocks = tuple(
        _sum(IntMat.identity(c.rank(n)).scale(k), c.boundary(n + 1) @ h[n],
             h[n - 1] @ c.boundary(n))
        for n in c.degrees()
    )
    return ChainMap(c, c, blocks)


def _sum(*terms: IntMat) -> IntMat:
    rows, cols = terms[0].rows, terms[0].cols
    return IntMat(rows, cols, tuple(
        tuple(sum(t[i, j] for t in terms) for j in range(cols)) for i in range(rows)
    ))


@settings(max_examples=40)
@given(st.integers(0, 2**32 - 1))
def test_cones_of_random_chain_maps(seed):
    rng = random.Random(seed)
    c = chain_from_record(_random_record(rng))
    assert_table_exact(c)
    assert_table_exact(mapping_cone(_random_chain_map(rng, c)))
