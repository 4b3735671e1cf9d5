"""The heap of pending pivots acts in the order of the rescanning loops.

``intmat_oracle`` keeps the loops that rescanned the whole column for its
earliest pivot after every step.  Every pivot, transform, remainder, kernel
basis, solution and quotient must come out the same, entry by entry and in
the same dict order: ``_eliminate`` pivots on the first ±1 entry of a
cleared column in dict order, so an order that differed would move every
generator downstream.  Entries run over −6..6, so non-unit pivots and
Euclid swaps are common.
"""

from hypothesis import given, strategies as st

import intmat_oracle as oracle
from ssetkit import intmat as intmat_module
from ssetkit.intmat import (
    IntMat, _eliminate, _swap as swap, _unit_quotient, kernel_basis, solve,
)
from test_intmat import intmat

ENTRIES = st.integers(-6, 6)
# Sparse columns with unit entries: long fill-in chains between pivots.
SPARSE = st.sampled_from((0, 0, 0, 0, 1, -1, 1, 2, -3))
MATRICES = st.one_of(
    intmat(max_dim=8, elements=ENTRIES), intmat(max_dim=10, elements=SPARSE)
)


def _items(col):
    return None if col is None else list(col.items())


def _columns(m: IntMat | None):
    return None if m is None else [list(col.items()) for col in m.columns]


def _elimination(result):
    pivots, pivot_of_row, rest = result
    return (
        [(r, _items(pc), _items(pt), unit) for r, pc, pt, unit in pivots],
        list(pivot_of_row.items()),
        [_items(col) for col in rest],
    )


@given(MATRICES, st.booleans())
def test_eliminate_matches_the_rescanning_loop(m, track):
    assert _elimination(_eliminate(m, track)) == _elimination(oracle.eliminate(m, track))


@given(MATRICES)
def test_kernel_basis_matches_the_rescanning_loop(m):
    assert _columns(kernel_basis(m)) == _columns(oracle.kernel_basis(m))


@given(MATRICES, st.data())
def test_solve_matches_the_rescanning_loop(m, data):
    X = data.draw(intmat(elements=ENTRIES, rows=m.cols))
    B = data.draw(intmat(elements=ENTRIES, rows=m.rows))
    for rhs in (m @ X, B):
        assert _columns(solve(m, rhs)) == _columns(oracle.solve(m, rhs))


@given(MATRICES, st.data())
def test_unit_quotient_matches_the_rescanning_loop(w, data):
    X = data.draw(intmat(elements=ENTRIES, rows=w.rows))
    kept, relations, reduce = _unit_quotient(w)
    want_kept, want_relations, want_reduced = oracle.unit_quotient(w, X)
    assert kept == want_kept
    assert _columns(relations) == _columns(want_relations)
    assert _columns(reduce(X)) == _columns(want_reduced)


def test_euclid_swaps_rebuild_the_pending_pivots(monkeypatch):
    # Tracked, column 1 becomes a pivot on its entry 3 in row 0.  Clearing
    # column 3 against it fills row 2, the row of the later pivot column 2,
    # and takes two Euclid swaps, each of which rebuilds the heap.
    swaps = []
    monkeypatch.setattr(intmat_module, "_swap", lambda u, v: swaps.append(1) or swap(u, v))
    m = IntMat.from_rows([[2, 3, 0, 1], [1, 0, 0, 1], [0, 5, 1, 0], [0, 0, 4, 3]])
    for track in (False, True):
        assert _elimination(_eliminate(m, track)) == _elimination(oracle.eliminate(m, track))
    assert _columns(kernel_basis(m)) == _columns(oracle.kernel_basis(m))
    assert swaps
