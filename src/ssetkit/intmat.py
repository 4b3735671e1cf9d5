"""Exact linear algebra over the integers.

An ``IntMat`` stores its nonzeros by column: ``columns[j]`` is a
``{row: value}`` dict of the nonzero entries of column j, each a Python int,
so pivots can grow without overflow.  Chain builders write one column per
simplex, products combine columns, and homology and presented-group normal
forms need only a rank and the invariant factors.

One sparse column elimination serves every caller.  Each column is cleared
against the pivots found so far and becomes a pivot on a ±1 entry if it has
one.  ``rank_and_torsion`` sets the other columns aside and hands their
non-unit remainder to a dense routine that returns only invariant factors.
``kernel_basis`` and ``solve`` pivot them on their least entry instead,
run Euclid's algorithm on a pivot column and a column whose entry it does
not divide, and record every column operation, so a saturated kernel basis
and integer solutions come from the same pass; no U or V transform is ever
built.

A column is cleared with the pivots whose rows it has entries in, earliest
pivot first.  They wait in a heap, not found by a rescan of the column
after every step, and the order is the same: a pivot column is zero in the
rows of all earlier pivots, so a step fills only rows of later pivots,
which are pushed as they appear, and a Euclid swap, which replaces the
column, rebuilds the heap from it.

Homology tables hand each boundary ∂_m to the elimination without the
columns whose index is a unit-pivot row of ∂_{m+1}, eliminated first: since
d∘d = 0, those columns are integer combinations of the kept ones, so the
rank and invariant factors do not change, and on the chains of a simplicial
set about half the columns are skipped ("clearing").  ``kernel_basis``,
``solve`` and the homology presentations keep every column, because the
generators they return would change.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import gcd

from .errors import ValidationError

__all__ = ["IntMat", "rank_and_torsion", "kernel_basis", "solve"]


def _shifted(col: dict[int, int], r: int) -> dict[int, int]:
    return {i + r: x for i, x in col.items()}


@dataclass(frozen=True, init=False)
class IntMat:
    """An integer matrix as one dict of nonzeros per column.

    No stored value is 0, so ``==`` and ``hash`` are structural; no column
    is mutated after construction, so matrices may share columns.
    """

    rows: int
    cols: int
    columns: tuple[dict[int, int], ...]

    def __init__(self, rows: int, cols: int, entries) -> None:
        """The dense, validating constructor: ``rows`` rows of ``cols`` ints."""
        if rows < 0 or cols < 0:
            raise ValidationError("matrix dimensions must be nonnegative")
        if len(entries) != rows:
            raise ValidationError("row count mismatch")
        columns = tuple({} for _ in range(cols))
        for i, row in enumerate(entries):
            if len(row) != cols:
                raise ValidationError("column count mismatch")
            for col, x in zip(columns, row):
                if not isinstance(x, int) or isinstance(x, bool):
                    raise ValidationError(f"matrix entries must be integers, not {x!r}")
                if x:
                    col[i] = x
        self._set(rows, columns)

    def _set(self, rows: int, columns: tuple[dict[int, int], ...]) -> None:
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", len(columns))
        object.__setattr__(self, "columns", columns)

    def __hash__(self) -> int:
        return hash((self.rows, tuple(frozenset(c.items()) for c in self.columns)))

    # -- constructors ------------------------------------------------------

    @classmethod
    def of_columns(cls, rows: int, columns) -> "IntMat":
        """Trusted constructor: one ``{row: value}`` dict per column, every
        row in ``range(rows)`` and no value 0.  Nothing is checked."""
        m = object.__new__(cls)
        m._set(rows, tuple(columns))
        return m

    @classmethod
    def from_rows(cls, rows) -> "IntMat":
        rows = [tuple(row) for row in rows]
        return cls(len(rows), len(rows[0]) if rows else 0, rows)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMat":
        return cls.of_columns(rows, ({} for _ in range(cols)))

    @classmethod
    def identity(cls, n: int) -> "IntMat":
        return cls.of_columns(n, ({j: 1} for j in range(n)))

    @classmethod
    def column(cls, values) -> "IntMat":
        values = tuple(values)
        return cls(len(values), 1, tuple((v,) for v in values))

    # -- access ------------------------------------------------------------

    def __getitem__(self, pos: tuple[int, int]) -> int:
        i, j = pos
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry {pos} outside a {self.rows}x{self.cols} matrix")
        return self.columns[j].get(i, 0)

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """The dense rows, built on each call."""
        return tuple(map(tuple, self.to_lists()))

    def is_zero(self) -> bool:
        return not any(self.columns)

    def to_lists(self) -> list[list[int]]:
        out = [[0] * self.cols for _ in range(self.rows)]
        for j, col in enumerate(self.columns):
            for i, x in col.items():
                out[i][j] = x
        return out

    # -- arithmetic --------------------------------------------------------

    def __matmul__(self, other: "IntMat") -> "IntMat":
        """Product with one multiply-add per pair of nonzeros that meet.

        Column j of the product combines the columns of ``self`` that the
        nonzeros of column j of ``other`` pick out.
        """
        if self.cols != other.rows:
            raise ValidationError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        left = self.columns
        out = []
        for col in other.columns:
            acc: dict[int, int] = {}
            for k, y in col.items():
                for i, x in left[k].items():
                    acc[i] = acc.get(i, 0) + x * y
            out.append({i: v for i, v in acc.items() if v})
        return IntMat.of_columns(self.rows, out)

    def scale(self, c: int) -> "IntMat":
        if not c:
            return IntMat.zero(self.rows, self.cols)
        return IntMat.of_columns(
            self.rows, ({i: c * x for i, x in col.items()} for col in self.columns)
        )

    def hstack(self, other: "IntMat") -> "IntMat":
        if self.rows != other.rows:
            raise ValidationError("row mismatch in hstack")
        return IntMat.of_columns(self.rows, self.columns + other.columns)

    def vstack(self, other: "IntMat") -> "IntMat":
        if self.cols != other.cols:
            raise ValidationError("column mismatch in vstack")
        return IntMat.of_columns(self.rows + other.rows, (
            {**a, **_shifted(b, self.rows)} for a, b in zip(self.columns, other.columns)
        ))

    @classmethod
    def block_diag(cls, blocks) -> "IntMat":
        columns = []
        r0 = 0
        for b in blocks:
            columns.extend(_shifted(col, r0) for col in b.columns)
            r0 += b.rows
        return cls.of_columns(r0, columns)

    def is_unimodular(self) -> bool:
        return self.rows == self.cols and rank_and_torsion(self) == (self.rows, ())


# -- sparse elimination ----------------------------------------------------


def _sub(col: dict[int, int], c: int, other: dict[int, int]) -> None:
    """``col -= c * other`` in place for ``c != 0``, dropping the zeros it
    makes."""
    for i, x in other.items():
        v = col.get(i, 0) - c * x
        if v:
            col[i] = v
        else:
            del col[i]


def _swap(u: dict[int, int], v: dict[int, int]) -> None:
    """Exchange the contents of two columns in place."""
    w = dict(u)
    u.clear()
    u.update(v)
    v.clear()
    v.update(w)


def _pending(col: dict[int, int], pivot_of_row: dict[int, int]) -> list[int]:
    """A heap of the pivots whose rows ``col`` has an entry in."""
    heap = [pivot_of_row[i] for i in col if i in pivot_of_row]
    heapify(heap)
    return heap


def _sub_pending(
    col: dict[int, int], c: int, other: dict[int, int], heap: list[int],
    pivot_of_row: dict[int, int],
) -> None:
    """``_sub(col, c, other)``, pushing onto ``heap`` the pivot of each
    pivot row that gains an entry in ``col``: homology's inner loop."""
    for i, y in other.items():
        v = col.get(i)
        if v is None:
            col[i] = -c * y
            if i in pivot_of_row:
                heappush(heap, pivot_of_row[i])
        elif v := v - c * y:
            col[i] = v
        else:
            del col[i]


def _clear(col: dict[int, int], t, pivots, pivot_of_row: dict[int, int]) -> None:
    """Zero the pivot rows of ``col`` in place by column operations.

    ``pivots[k]`` is ``(row, column, transform, unit)``, the column nonzero
    in ``row`` and zero in the rows of all earlier pivots.  So clearing with
    the earliest pivot first only fills rows of later pivots, and the loop
    ends.  With ``p`` the pivot and ``x`` the entry of ``col`` in its row,
    ``x // p`` times the pivot column is subtracted.  Where ``p`` does not
    divide ``x`` the two columns are then swapped, so the pivot becomes
    ``x mod p`` and the loop runs Euclid's algorithm on them until the pivot
    is ``gcd(p, x)``.  ``unit`` is ``p`` for a ±1 pivot and 0 otherwise: a
    ±1 pivot is its own inverse and divides every entry, so it needs no
    division and is never swapped, and stays ±1.  Every step is unimodular.
    The transform ``t`` of ``col`` (``None`` when not kept) and the pivots'
    transforms undergo the same operations.

    The pending pivots wait in a heap, so the earliest is found without a
    scan of ``col``.  A step with pivot k fills only rows of later pivots,
    whose indices are pushed as their rows first appear, and unless it
    swaps it zeroes row k for good; an index whose row has been zeroed since
    it was pushed is skipped.  A swap replaces ``col`` and rebuilds the heap
    from it.  So the pivots act in the order a rescan of ``col`` after every
    step would give.
    """
    heap = _pending(col, pivot_of_row)
    while heap:
        r, pc, pt, unit = pivots[heappop(heap)]
        x = col.get(r)
        if x is None:
            continue
        if c := (x * unit if unit else x // pc[r]):
            _sub_pending(col, c, pc, heap, pivot_of_row)
            if t is not None:
                _sub(t, c, pt)
        if not unit and x % pc[r]:
            _swap(col, pc)
            if t is not None:
                _swap(t, pt)
            heap = _pending(col, pivot_of_row)


def _eliminate(M: IntMat, track: bool):
    """Clear the columns of ``M`` in turn against the pivots found so far.

    A cleared column with a ±1 entry becomes a pivot on it.  With ``track``
    each column carries its transform (the combination of columns of ``M``
    it now is), a column without a ±1 entry becomes a pivot on its least
    entry, and the last value returned holds the transforms of the columns
    cleared to zero.  Without ``track`` such a column is set aside and
    cleared again against all k pivots; the last value is this remainder,
    zero in every pivot row, so SNF(M) = I_k ⊕ SNF(remainder).
    """
    pivots: list[tuple[int, dict[int, int], dict[int, int] | None, int]] = []
    pivot_of_row: dict[int, int] = {}
    rest = []
    for j, stored in enumerate(M.columns):
        col = dict(stored)  # cleared in place below
        t = {j: 1} if track else None
        _clear(col, t, pivots, pivot_of_row)
        r = next((i for i, x in col.items() if x == 1 or x == -1), None)
        unit = 0 if r is None else col[r]
        if r is None and track and col:
            r = min(col, key=lambda i: abs(col[i]))
        if r is not None:
            pivot_of_row[r] = len(pivots)
            pivots.append((r, col, t, unit))
        elif track or col:
            rest.append(t if track else col)
    if not track:
        for col in rest:
            _clear(col, None, pivots, pivot_of_row)
        rest = [col for col in rest if col]
    return pivots, pivot_of_row, rest


def _unit_quotient(W: IntMat):
    """``Z^rows / <W>`` on fewer generators, by the unit elimination of W.

    Returns the rows that are no unit pivot, the remainder written on them,
    and the map that clears columns against the unit pivots and reads them
    on those rows.  Clearing is linear and kills exactly the span of the
    unit pivots, so ``Z^rows / <W>`` is ``Z^kept / <remainder>``.
    """
    pivots, pivot_of_row, rest = _eliminate(W, track=False)
    kept = [i for i in range(W.rows) if i not in pivot_of_row]
    index = {i: k for k, i in enumerate(kept)}

    def reduce(columns) -> IntMat:
        columns = [dict(col) for col in columns]
        for col in columns:
            _clear(col, None, pivots, pivot_of_row)
        return IntMat.of_columns(len(kept), (
            {index[i]: x for i, x in col.items()} for col in columns
        ))

    return kept, reduce(rest), lambda X: reduce(X.columns)


def _invariant_factors(columns: list[dict[int, int]]) -> list[int]:
    """The nonzero invariant factors of the matrix with these columns.

    Dense, and without transforms: pivot on an entry of least absolute
    value and reduce its row and column modulo it, until it is alone in both;
    then the diagonal so found is put into gcd/lcm divisibility order.
    """
    a = [[col.get(i, 0) for col in columns] for i in sorted(set().union(*columns))]
    diag = []
    while any(map(any, a)):
        _, i, j = min(
            (abs(x), i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x
        )
        prow, p = a[i], a[i][j]
        for row in a:
            if row is not prow and (q := row[j] // p):
                row[:] = [x - q * y for x, y in zip(row, prow)]
        for k, y in enumerate(prow):
            if k != j and (q := y // p):
                for row in a:
                    row[k] -= q * row[j]
        if sum(map(bool, prow)) + sum(bool(row[j]) for row in a) == 2:
            diag.append(abs(p))
            del a[i]
            for row in a:
                del row[j]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] // g * diag[j]
    return diag


def _rank_torsion_units(M: IntMat, skip=()):
    """Rank and invariant factors > 1 of ``M`` without its columns in
    ``skip``, and the rows of the unit pivots of that elimination.

    Leaving out a column is the caller's claim that it lies in the integer
    span of the others; ``homology_table`` makes it for the unit-pivot rows
    of the boundary one degree up.
    """
    if skip:
        M = IntMat.of_columns(
            M.rows, (col for j, col in enumerate(M.columns) if j not in skip)
        )
    pivots, unit_rows, rest = _eliminate(M, track=False)
    diag = _invariant_factors(rest) if rest else []
    return len(pivots) + len(diag), tuple(d for d in diag if d > 1), unit_rows


def rank_and_torsion(M: IntMat) -> tuple[int, tuple[int, ...]]:
    """Rank of ``M`` and its invariant factors greater than 1.

    Each column is cleared against the unit (±1) pivots found so far; it
    becomes a pivot if it is left with a ±1 entry and is set aside otherwise.
    Only the remainder of the set-aside columns goes through the dense
    invariant-factor routine.
    """
    return _rank_torsion_units(M)[:2]


def kernel_basis(M: IntMat) -> IntMat:
    """A saturated basis of the integer kernel, as columns.

    The columns are the transforms of the columns that the elimination
    clears to zero.  Every step is unimodular, so the transforms of all
    columns form a basis of the domain lattice, and those of the vanished
    ones span ``ker M`` as a direct summand: any integer kernel vector is an
    integer combination of them.
    """
    return IntMat.of_columns(M.cols, _eliminate(M, track=True)[2])


def _solver(M: IntMat):
    """``solve`` with ``M`` fixed: the tracked elimination of ``M`` runs
    once, here, and the function returned clears each ``B`` against it.

    As in ``_clear``, the pending pivots of a column wait in a heap: a step
    with pivot k zeroes row k and fills only rows of later pivots, which are
    pushed as they appear, and no step swaps.  So the pivots act earliest
    first, as a rescan of the column after every step would order them."""
    pivots, pivot_of_row, _ = _eliminate(M, track=True)

    def solve_for(B: IntMat) -> IntMat | None:
        if B.rows != M.rows:
            raise ValidationError("shape mismatch in solve")
        xs = []
        for stored in B.columns:
            col, x = dict(stored), {}
            heap = _pending(col, pivot_of_row)
            while heap:
                r, pc, pt, _ = pivots[heappop(heap)]
                if (y := col.get(r)) is None:
                    continue
                q, rem = divmod(y, pc[r])
                if rem:
                    return None
                _sub_pending(col, q, pc, heap, pivot_of_row)
                _sub(x, -q, pt)
            if col:
                return None
            xs.append(x)
        return IntMat.of_columns(M.cols, xs)

    return solve_for


def solve(M: IntMat, B: IntMat) -> IntMat | None:
    """An integer solution ``X`` of ``M @ X == B``, or ``None``.

    Each column of ``B`` is cleared against the pivots of the elimination
    of ``M``, earliest first.  A pivot column is zero in the rows of all
    earlier pivots, so each multiple is forced and must be an integer, and
    a column not cleared to zero lies outside the span of ``M``.  The same
    multiples of the pivots' transforms give ``X``; free coordinates are 0.
    """
    return _solver(M)(B)
