"""Exact integer linear algebra against an independent sympy oracle."""

import pytest
import sympy
from hypothesis import given, strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from intmat_oracle import smith_normal_form
from ssetkit.errors import ValidationError
from ssetkit.intmat import IntMat, kernel_basis, rank_and_torsion, solve
from ssetkit.serialize import sset_from_record
from ssetkit.simplicial_chains import normalized_chains

# Few units and many non-unit entries, so that the unit-pivot elimination
# regularly leaves a remainder for the dense invariant-factor routine.
MIXED = st.sampled_from((0, 1, -1, 2, -2, 3, -3, 4, 6))


@st.composite
def intmat(draw, max_dim=4, elements=st.integers(-6, 6), rows=None):
    if rows is None:
        rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    entries = tuple(
        tuple(draw(elements) for _ in range(cols))
        for _ in range(rows)
    )
    return IntMat(rows, cols, entries)


def _sympy_invariant_factors(m: IntMat) -> list[int]:
    if m.rows == 0 or m.cols == 0:
        return []
    sm = sympy.Matrix(m.to_lists())
    d = sympy_snf(sm)
    out = []
    for i in range(min(m.rows, m.cols)):
        v = abs(int(d[i, i]))
        if v:
            out.append(v)
    return out


@given(intmat())
def test_snf_matches_sympy(m):
    decomp = smith_normal_form(m)
    assert list(decomp.nonzero_diagonal) == _sympy_invariant_factors(m)


@given(intmat())
def test_snf_transform_equation(m):
    d = smith_normal_form(m)
    assert d.U @ m @ d.V == d.D
    assert d.U.is_unimodular()
    assert d.V.is_unimodular()
    vals = d.nonzero_diagonal
    for a, b in zip(vals, vals[1:]):
        assert b % a == 0


# Small matrices of any entries, and larger ones with few units, on which
# the kernel and solve eliminations pivot on non-units and run Euclid's
# algorithm where a pivot does not divide an entry.
ANY_INTMAT = st.one_of(intmat(), intmat(max_dim=8, elements=MIXED))


@given(ANY_INTMAT)
def test_kernel_basis_is_saturated_kernel(m):
    k = kernel_basis(m)
    assert (m @ k).is_zero()
    sk = sympy.Matrix(m.to_lists()) if m.rows else sympy.zeros(0, m.cols)
    null = sk.nullspace()
    assert k.cols == len(null)
    # saturation: every integer kernel vector is an integer combination
    for v in null:
        denom = sympy.lcm([sympy.fraction(x)[1] for x in v]) if v else 1
        iv = IntMat.column([int(x * denom) for x in v])
        assert solve(k, iv) is not None


@given(ANY_INTMAT, st.data())
def test_solve_recovers_known_solutions(m, data):
    x = IntMat.column(
        [data.draw(st.integers(-4, 4)) for _ in range(m.cols)]
    )
    b = m @ x
    sol = solve(m, b)
    assert sol is not None
    assert m @ sol == b


@given(ANY_INTMAT, st.data())
def test_solve_fails_exactly_where_the_oracle_has_no_solution(m, data):
    b = data.draw(intmat(elements=MIXED, rows=m.rows))
    d = smith_normal_form(m)
    diag = d.diagonal
    # U @ M @ V == D, so M @ X == B has a solution iff D @ Y == U @ B has one.
    solvable = all(
        i < len(diag) and diag[i] and x % diag[i] == 0
        for col in (d.U @ b).columns for i, x in col.items()
    )
    sol = solve(m, b)
    assert (sol is not None) == solvable
    if sol is not None:
        assert m @ sol == b


def test_gcd_step_kernel_and_solves():
    # No entry of [2, 3] or [4, 6] divides the other, so the elimination
    # runs Euclid's algorithm on the two columns.
    k = kernel_basis(IntMat.from_rows([[2, 3]])).to_lists()
    assert k in ([[3], [-2]], [[-3], [2]])
    m = IntMat.from_rows([[4, 6]])
    sol = solve(m, IntMat.from_rows([[2]]))
    assert sol is not None and m @ sol == IntMat.from_rows([[2]])
    assert solve(m, IntMat.from_rows([[1]])) is None


def _rank_and_factors(diagonal) -> tuple[int, tuple[int, ...]]:
    return len(diagonal), tuple(d for d in diagonal if d > 1)


@given(intmat(max_dim=8, elements=MIXED))
def test_rank_and_torsion_matches_dense_snf_and_sympy(m):
    expected = _rank_and_factors(smith_normal_form(m).nonzero_diagonal)
    assert rank_and_torsion(m) == expected
    assert _rank_and_factors(_sympy_invariant_factors(m)) == expected


def _sympy_matrix(m: IntMat) -> sympy.Matrix:
    return sympy.Matrix(m.rows, m.cols, [x for row in m.entries for x in row])


@given(intmat(max_dim=8, elements=MIXED), st.data())
def test_matmul_matches_sympy(a, data):
    b = data.draw(intmat(max_dim=8, elements=MIXED, rows=a.cols))
    assert _sympy_matrix(a @ b) == _sympy_matrix(a) * _sympy_matrix(b)


class _Counted(int):
    """An int that counts the products it takes part in."""

    products = 0

    def __mul__(self, other):
        _Counted.products += 1
        return int(self) * int(other)

    __rmul__ = __mul__


def test_matmul_multiplies_only_nonzeros_that_meet():
    c = _Counted
    a = IntMat(2, 3, ((c(2), c(0), c(0)), (c(0), c(-1), c(3))))
    b = IntMat(3, 2, ((c(0), c(1)), (c(4), c(0)), (c(5), c(1))))
    _Counted.products = 0
    assert (a @ b).to_lists() == [[0, 2], [11, 3]]
    # 2 meets one nonzero of row 0 of b, -1 one of row 1, 3 two of row 2.
    assert _Counted.products == 4


def test_rank_and_torsion_fixed_cases():
    assert rank_and_torsion(IntMat.zero(0, 3)) == (0, ())
    assert rank_and_torsion(IntMat.zero(3, 0)) == (0, ())
    # No unit anywhere: the remainder's invariant factors merge 2 and 3
    # into (1, 6).
    assert rank_and_torsion(IntMat.from_rows([[2, 0], [0, 3]])) == (2, (6,))
    # Column 0 has no unit and is set aside before column 1 gives the
    # pivot in row 0; only clearing it again leaves the remainder (0, 3).
    assert rank_and_torsion(IntMat.from_rows([[2, 1], [3, 0]])) == (2, (3,))
    rp2 = sset_from_record({
        "cells": [["v"], ["e"], ["t"]],
        "faces": {
            "e": [[[], "v"], [[], "v"]],
            "t": [[[], "e"], [[0], "v"], [[], "e"]],
        },
    })
    assert rank_and_torsion(normalized_chains(rp2).boundary(2)) == (1, (2,))


def test_solve_detects_unsolvable():
    assert solve(IntMat.from_rows([[2]]), IntMat.from_rows([[1]])) is None
    assert solve(IntMat.from_rows([[0]]), IntMat.from_rows([[3]])) is None
    assert solve(IntMat.from_rows([[2, 4]]), IntMat.from_rows([[7]])) is None


def test_matmul_shapes_guarded():
    with pytest.raises(ValidationError):
        IntMat.zero(2, 3) @ IntMat.zero(2, 3)


@st.composite
def square_intmat(draw, max_dim=4, elements=st.sampled_from((0, 0, 1, -1, 2))):
    n = draw(st.integers(0, max_dim))
    return IntMat(n, n, tuple(
        tuple(draw(elements) for _ in range(n)) for _ in range(n)
    ))


@given(square_intmat())
def test_unimodular_matches_sympy_determinant(m):
    flat = [x for row in m.entries for x in row]
    assert m.is_unimodular() == (sympy.Matrix(m.rows, m.cols, flat).det() in (1, -1))


def test_unimodular_detection():
    assert IntMat.identity(3).is_unimodular()
    assert IntMat.from_rows([[1, 5], [0, -1]]).is_unimodular()
    assert not IntMat.from_rows([[2, 0], [0, 1]]).is_unimodular()
    assert not IntMat.zero(2, 3).is_unimodular()


def test_stack_and_scale():
    a = IntMat.from_rows([[1, 2]])
    b = IntMat.from_rows([[3, 4]])
    assert a.vstack(b).to_lists() == [[1, 2], [3, 4]]
    assert a.hstack(b).to_lists() == [[1, 2, 3, 4]]
    assert a.scale(-2).to_lists() == [[-2, -4]]
