"""The column form of ``IntMat`` against a plain list-of-lists reference.

Every operation is checked entry by entry against a dense computation
written here, and every result must be in canonical form: one dict per
column, rows in range, no stored zero.
"""

import pytest
from hypothesis import given, strategies as st

from ssetkit.errors import ValidationError
from ssetkit.intmat import IntMat

# Mostly zeros and small values, so that sums in products often cancel.
ENTRY = st.sampled_from((0, 0, 0, 1, -1, 2, -2, 3))


@st.composite
def dense(draw, rows=None, cols=None):
    rows = draw(st.integers(0, 4)) if rows is None else rows
    cols = draw(st.integers(0, 4)) if cols is None else cols
    return rows, cols, [[draw(ENTRY) for _ in range(cols)] for _ in range(rows)]


def _mat(d) -> IntMat:
    rows, cols, lists = d
    return IntMat(rows, cols, lists)


def _assert_is(m: IntMat, rows: int, cols: int, lists: list[list[int]]) -> None:
    assert (m.rows, m.cols) == (rows, cols)
    assert len(m.columns) == cols
    for col in m.columns:
        assert all(0 <= i < rows and x != 0 for i, x in col.items())
    assert m.to_lists() == lists
    assert m.entries == tuple(tuple(row) for row in lists)
    assert m == IntMat(rows, cols, lists)
    assert hash(m) == hash(IntMat(rows, cols, lists))


@given(dense())
def test_dense_round_trip(d):
    rows, cols, lists = d
    m = _mat(d)
    _assert_is(m, rows, cols, lists)
    assert IntMat.of_columns(rows, m.columns) == m
    if rows:
        assert IntMat.from_rows(lists) == m
    assert m.is_zero() == all(x == 0 for row in lists for x in row)
    for i in range(rows):
        for j in range(cols):
            assert m[i, j] == lists[i][j]
    for pos in ((rows, 0), (0, cols), (-1, 0)):
        with pytest.raises(IndexError):
            m[pos]


@given(dense(), st.data())
def test_matmul_matches_dense(a, data):
    rows, inner, x = a
    _, cols, y = b = data.draw(dense(rows=inner))
    want = [[sum(x[i][k] * y[k][j] for k in range(inner)) for j in range(cols)]
            for i in range(rows)]
    _assert_is(_mat(a) @ _mat(b), rows, cols, want)


@given(dense(), st.integers(-3, 3))
def test_scale_matches_dense(d, c):
    rows, cols, lists = d
    _assert_is(_mat(d).scale(c), rows, cols, [[c * x for x in row] for row in lists])


@given(dense(), st.data())
def test_stacks_match_dense(a, data):
    rows, cols, x = a
    b_rows, b_cols, y = b = data.draw(dense(rows=rows))
    _assert_is(_mat(a).hstack(_mat(b)), rows, cols + b_cols,
               [r + s for r, s in zip(x, y)])
    c_rows, _, z = c = data.draw(dense(cols=cols))
    _assert_is(_mat(a).vstack(_mat(c)), rows + c_rows, cols, x + z)


@given(st.lists(dense(), max_size=3))
def test_block_diag_matches_dense(blocks):
    rows = sum(r for r, _, _ in blocks)
    cols = sum(c for _, c, _ in blocks)
    want = [[0] * cols for _ in range(rows)]
    r0 = c0 = 0
    for r, c, lists in blocks:
        for i in range(r):
            want[r0 + i][c0:c0 + c] = lists[i]
        r0 += r
        c0 += c
    _assert_is(IntMat.block_diag(_mat(b) for b in blocks), rows, cols, want)


def test_empty_shapes():
    _assert_is(IntMat.zero(0, 3) @ IntMat.zero(3, 2), 0, 2, [])
    _assert_is(IntMat.zero(2, 0) @ IntMat.zero(0, 3), 2, 3, [[0] * 3] * 2)
    _assert_is(IntMat.zero(0, 2).hstack(IntMat.zero(0, 1)), 0, 3, [])
    _assert_is(IntMat.zero(2, 0).vstack(IntMat.zero(1, 0)), 3, 0, [[], [], []])
    _assert_is(IntMat.block_diag([]), 0, 0, [])
    with pytest.raises(ValidationError):
        IntMat.zero(0, 2).hstack(IntMat.zero(1, 2))
    with pytest.raises(ValidationError):
        IntMat.zero(2, 0).vstack(IntMat.zero(2, 1))


def test_no_zero_is_stored():
    z = IntMat(1, 1, ((0,),))
    assert z.columns == ({},)
    assert z == IntMat.zero(1, 1)
    assert hash(z) == hash(IntMat.zero(1, 1))
    one = IntMat.from_rows([[1]])
    assert one.scale(0) == z
    assert (one.hstack(one) @ IntMat.from_rows([[1], [-1]])) == z


@pytest.mark.parametrize("make", [
    lambda: IntMat.from_rows([[1.5]]),
    lambda: IntMat(1, 1, ((0.5,),)),
    lambda: IntMat(1, 1, ((True,),)),
    lambda: IntMat.from_rows([[1, False]]),
    lambda: IntMat.from_rows([["1"]]),
    lambda: IntMat.column([2.0]),
], ids=["from_rows-float", "float", "true", "from_rows-false", "string", "column"])
def test_non_integer_entries_are_rejected(make):
    with pytest.raises(ValidationError):
        make()
