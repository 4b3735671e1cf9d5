"""Exact linear algebra over the integers.

An ``IntMat`` stores its nonzeros by column: ``columns[j]`` is a
``{row: value}`` dict of the nonzero entries of column j, each a Python int,
so pivots can grow without overflow.  Chain builders write one column per
simplex, products combine columns, and homology and presented-group normal
forms need only a rank and the invariant factors: ``rank_and_torsion``
eliminates by unit pivots on the stored columns and runs the dense Smith
normal form on the non-unit remainder alone.  Where generators are needed
(Mayer-Vietoris, exactness) saturated kernel bases and integer linear
solves come from the Smith normal form with its transforms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError

__all__ = [
    "IntMat",
    "smith_normal_form",
    "SmithDecomposition",
    "rank_and_torsion",
]


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


@dataclass(frozen=True)
class SmithDecomposition:
    """``U @ M @ V == D`` with unimodular transforms and divisibility chain."""

    U: IntMat
    D: IntMat
    V: IntMat

    @property
    def diagonal(self) -> tuple[int, ...]:
        k = min(self.D.rows, self.D.cols)
        return tuple(self.D[i, i] for i in range(k))

    @property
    def nonzero_diagonal(self) -> tuple[int, ...]:
        return tuple(d for d in self.diagonal if d != 0)


def smith_normal_form(M: IntMat) -> SmithDecomposition:
    """Smith normal form with transforms.

    Returns ``SmithDecomposition(U, D, V)`` where ``U @ M @ V == D`` is
    diagonal with nonnegative entries, each dividing the next.
    """
    n, m = M.rows, M.cols
    a = M.to_lists()
    u = IntMat.identity(n).to_lists()
    v = IntMat.identity(m).to_lists()

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, c):
        # row[dst] += c * row[src]
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, c):
        for row in a:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(n, m):
        # Find a pivot of least absolute value in the remaining block.
        pivot = None
        best = None
        for i in range(t, n):
            for j in range(t, m):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        # Reduce until the pivot divides its row and column, then clear.
        while True:
            p = a[t][t]
            dirty = False
            for i in range(t + 1, n):
                if a[i][t] % p != 0:
                    add_row(i, t, -(a[i][t] // p))
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, m):
                if a[t][j] % p != 0:
                    add_col(j, t, -(a[t][j] // p))
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
                        break
            if dirty:
                continue
            break
        p = a[t][t]
        for i in range(t + 1, n):
            if a[i][t] != 0:
                add_row(i, t, -(a[i][t] // p))
        for j in range(t + 1, m):
            if a[t][j] != 0:
                add_col(j, t, -(a[t][j] // p))
        t += 1

    # Sign normalization and divisibility chain.
    for i in range(min(n, m)):
        if a[i][i] < 0:
            negate_row(i)
    i = 0
    while i < min(n, m) - 1:
        x, y = a[i][i], a[i + 1][i + 1]
        if y != 0 and (x == 0 or y % x != 0):
            # Merge the two diagonal entries into gcd/lcm position.
            add_col(i, i + 1, 1)
            # Re-clear the 2x2 block with row/column operations.
            while True:
                p = a[i][i]
                q = a[i + 1][i]
                if q == 0:
                    break
                if p == 0 or abs(q) < abs(p):
                    swap_rows(i, i + 1)
                    continue
                add_row(i + 1, i, -(q // p))
            p = a[i][i]
            if a[i][i + 1] != 0:
                add_col(i + 1, i, -(a[i][i + 1] // p))
            if a[i][i] < 0:
                negate_row(i)
            if a[i + 1][i + 1] < 0:
                negate_row(i + 1)
            i = max(i - 1, 0)
        else:
            i += 1

    return SmithDecomposition(IntMat(n, n, u), IntMat(n, m, a), IntMat(m, m, v))


# -- sparse elimination ----------------------------------------------------


def _clear(col: dict[int, int], pivots, pivot_of_row: dict[int, int]) -> None:
    """Zero the pivot rows of ``col`` in place by column operations.

    ``pivots[k]`` is ``(row, column)`` with a ±1 in ``row`` and zeros in the
    rows of all earlier pivots.  So clearing with the earliest pivot first
    only fills rows of later pivots, and the loop ends.
    """
    while True:
        k = min((pivot_of_row[i] for i in col if i in pivot_of_row), default=None)
        if k is None:
            return
        r, p = pivots[k]
        c = col[r] * p[r]  # ±1 is its own inverse
        for i, x in p.items():
            v = col.get(i, 0) - c * x
            if v:
                col[i] = v
            else:
                del col[i]


def rank_and_torsion(M: IntMat) -> tuple[int, tuple[int, ...]]:
    """Rank of ``M`` and its invariant factors greater than 1.

    Each column is cleared against the unit (±1) pivots found so far; it
    becomes a pivot if it is left with a ±1 entry and is set aside otherwise.
    The set-aside columns are cleared again against all k pivots, which
    leaves them zero in every pivot row, so SNF(M) = I_k ⊕ SNF(remainder)
    and only the remainder goes through the dense Smith normal form.
    """
    pivots: list[tuple[int, dict[int, int]]] = []
    pivot_of_row: dict[int, int] = {}
    rest = []
    for stored in M.columns:
        col = dict(stored)  # cleared in place below
        _clear(col, pivots, pivot_of_row)
        r = next((i for i, x in col.items() if x == 1 or x == -1), None)
        if r is not None:
            pivot_of_row[r] = len(pivots)
            pivots.append((r, col))
        elif col:
            rest.append(col)
    for col in rest:
        _clear(col, pivots, pivot_of_row)
    rest = [col for col in rest if col]
    if not rest:
        return len(pivots), ()
    index = {r: k for k, r in enumerate(sorted(set().union(*rest)))}
    diag = smith_normal_form(IntMat.of_columns(len(index), (
        {index[i]: x for i, x in col.items()} for col in rest
    ))).nonzero_diagonal
    return len(pivots) + len(diag), tuple(d for d in diag if d > 1)


def kernel_basis(M: IntMat) -> IntMat:
    """A saturated basis of the integer kernel, as columns.

    The basis spans ``ker M`` as a direct summand of the domain lattice, so
    any integer kernel vector is an integer combination of the columns.
    """
    snf = smith_normal_form(M)
    diag = snf.diagonal
    return IntMat.of_columns(M.cols, (
        snf.V.columns[j] for j in range(M.cols) if j >= len(diag) or diag[j] == 0
    ))


def solve(M: IntMat, B: IntMat) -> IntMat | None:
    """An integer solution ``X`` of ``M @ X == B``, or ``None``.

    Solves all columns of ``B`` at once; free coordinates are set to zero.
    """
    if B.rows != M.rows:
        raise ValidationError("shape mismatch in solve")
    snf = smith_normal_form(M)
    diag = snf.diagonal
    ys = []
    for col in (snf.U @ B).columns:
        # Row i of U @ M @ V is diag[i] in column i, or zero past the diagonal.
        y = {}
        for i, rhs in col.items():
            d = diag[i] if i < len(diag) else 0
            if d == 0 or rhs % d:
                return None
            y[i] = rhs // d
        ys.append(y)
    return snf.V @ IntMat.of_columns(M.cols, ys)
