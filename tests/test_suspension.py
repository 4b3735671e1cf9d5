"""The reduced suspension written from cells, against the cylinder oracle.

``reduced_suspension_data`` lists the cells of ΣX straight from those of X;
``suspension_oracle`` builds the cylinder X × Δ¹ and collapses its ends and
basepoint line with ``quotient``.  Both must give the same cells, names,
faces and basepoint, and the same prism comparison in every degree.
"""

import pytest
from hypothesis import given, strategies as st

from conftest import circle, four_test_spaces, projective_plane
from suspension_oracle import oracle_suspension
from ssetkit import build, excision
from ssetkit.build import product
from ssetkit.chain import chain_map_from_blocks, loop_shift, quasi_iso
from ssetkit.errors import EnumerationLimit
from ssetkit.excision import reduced_suspension_data
from ssetkit.simplicial_chains import reduced_normalized_chains
from ssetkit.sset import (
    FiniteSSet,
    boundary,
    face_closure,
    pointed,
    standard_simplex,
    subcomplex,
)


def _at_first_vertex(X: FiniteSSet) -> FiniteSSet:
    return pointed(X, X.nondeg(0)[0])


def _corpus() -> dict[str, FiniteSSet]:
    return {
        **four_test_spaces(),
        "T2": _at_first_vertex(product(circle(), circle()).space),
        "RP2": _at_first_vertex(projective_plane()),
        "simplex2": pointed(standard_simplex(2), "0"),
        "bd3": pointed(boundary(3), "0"),
    }


def _assert_matches_oracle(X: FiniteSSet) -> FiniteSSet:
    sd, oracle = reduced_suspension_data(X), oracle_suspension(X)
    assert sd.space.cells == oracle.space.cells
    assert sd.space.faces == oracle.space.faces
    assert sd.space.basepoint == oracle.space.basepoint == "g0_0"
    for k in range(X.top_dim + 2):
        assert sd.comparison(k) == oracle.comparison(k), k
    return sd.space


@pytest.mark.parametrize("name", sorted(_corpus()))
def test_suspensions_match_the_cylinder_oracle_up_to_sigma3(name):
    X = _corpus()[name]
    for _ in range(3):
        X = _assert_matches_oracle(X)


def test_suspension_of_the_point_is_the_point():
    pt = pointed(standard_simplex(0), "0")
    assert _assert_matches_oracle(pt).counts() == (1,)


CYLINDER = product(standard_simplex(3), standard_simplex(1)).space


@given(st.data())
def test_suspensions_of_pointed_subcomplexes_validate(data):
    names = data.draw(st.sets(st.sampled_from(sorted(CYLINDER.names)), min_size=1))
    A = subcomplex(CYLINDER, face_closure(CYLINDER, names))
    X = pointed(A, data.draw(st.sampled_from(A.nondeg(0))))
    sd = reduced_suspension_data(X)
    assert FiniteSSet(sd.space.cells, sd.space.faces, sd.space.basepoint, check=True) == sd.space
    assert sd.space == oracle_suspension(X).space
    source = reduced_normalized_chains(X)
    target = loop_shift(reduced_normalized_chains(sd.space), 1)
    blocks = {k: sd.comparison(k) for k in range(source.low, source.high + 1)}
    assert quasi_iso(chain_map_from_blocks(source, target, blocks))


def _suspended(X: FiniteSSet, n: int) -> FiniteSSet:
    for _ in range(n):
        X = reduced_suspension_data(X).space
    return X


def test_suspension_step_normalises_each_face_pair_once(monkeypatch):
    # A work-count guard on the pair rule: the 542 cells of Σ⁴S¹ have 1530
    # faces off the basepoint and 421 distinct pairs of faces among them,
    # each normalised once.
    X = _suspended(circle(), 3)
    calls = []
    pair_key = excision._pair_key

    def counting(keys, k, wa, a, wb, b):
        calls.append((k, wa, a, wb, b))
        return pair_key(keys, k, wa, a, wb, b)

    monkeypatch.setattr(excision, "_pair_key", counting)
    Y = reduced_suspension_data(X).space
    assert sum(Y.counts()) == 542
    assert sum(f.base != Y.basepoint for fs in Y.faces.values() for f in fs) == 1530
    assert len(calls) == 421
    assert len(set(calls)) == 421


def test_suspension_budget_counts_nondegenerate_simplices(monkeypatch):
    # ΣX has 1 + Σ (2 dim x + 1) cells, over the cells x of X other than the
    # basepoint: 4684 for X = Σ⁴S¹.  A budget of 4684 builds it, and one cell
    # less refuses it before any level is listed.
    X = _suspended(circle(), 4)
    monkeypatch.setattr(build, "DEFAULT_MAX_CANDIDATES", 4684)
    assert sum(reduced_suspension_data(X).space.counts()) == 4684
    monkeypatch.setattr(build, "DEFAULT_MAX_CANDIDATES", 4683)
    names = []
    monkeypatch.setattr(excision, "_level_names", lambda *args: names.append(args))
    with pytest.raises(
        EnumerationLimit, match="^reduced suspension exceeds 4683 nondegenerate simplices$"
    ):
        reduced_suspension_data(X)
    assert names == []
