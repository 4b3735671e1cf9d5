"""Exact linear algebra over the integers.

Matrices are immutable tuples of row tuples holding Python ints, so pivots
can grow without overflow.  Homology and presented-group normal forms need
only a rank and the invariant factors: ``rank_and_torsion`` eliminates by
unit pivots on a sparse column form and runs the dense Smith normal form on
the non-unit remainder alone.  Products skip zero entries, so the d∘d and
chain-map-law checks cost little on sparse boundaries.  Where generators
are needed (Mayer-Vietoris, exactness) saturated kernel bases and integer
linear solves come from the Smith normal form with its transforms.
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


@dataclass(frozen=True)
class IntMat:
    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValidationError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows:
            raise ValidationError("row count mismatch")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValidationError("column count mismatch")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, rows) -> "IntMat":
        rows = tuple(tuple(int(x) for x in row) for row in rows)
        n = len(rows)
        m = len(rows[0]) if rows else 0
        return cls(n, m, rows)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMat":
        return cls(rows, cols, tuple((0,) * cols for _ in range(rows)))

    @classmethod
    def identity(cls, n: int) -> "IntMat":
        return cls(n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @classmethod
    def column(cls, values) -> "IntMat":
        values = tuple(int(v) for v in values)
        return cls(len(values), 1, tuple((v,) for v in values))

    @classmethod
    def from_columns(cls, columns, rows: int | None = None) -> "IntMat":
        columns = [tuple(int(v) for v in c) for c in columns]
        if rows is None:
            if not columns:
                raise ValidationError("row count needed for an empty column list")
            rows = len(columns[0])
        for c in columns:
            if len(c) != rows:
                raise ValidationError("column length mismatch")
        return cls(rows, len(columns), tuple(
            tuple(c[i] for c in columns) for i in range(rows)
        ))

    # -- access ------------------------------------------------------------

    def __getitem__(self, pos: tuple[int, int]) -> int:
        return self.entries[pos[0]][pos[1]]

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]

    # -- arithmetic --------------------------------------------------------

    def __matmul__(self, other: "IntMat") -> "IntMat":
        """Product with one multiply-add per pair of nonzeros that meet.

        Boundaries and chain-map blocks are sparse, so past one scan of the
        entries a product of them costs little.
        """
        if self.cols != other.rows:
            raise ValidationError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        nonzeros = [[(j, y) for j, y in enumerate(row) if y] for row in other.entries]
        out = []
        for row in self.entries:
            acc = [0] * other.cols
            for k, x in enumerate(row):
                if x:
                    for j, y in nonzeros[k]:
                        acc[j] += x * y
            out.append(tuple(acc))
        return IntMat(self.rows, other.cols, tuple(out))

    def __add__(self, other: "IntMat") -> "IntMat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValidationError("shape mismatch")
        return IntMat(self.rows, self.cols, tuple(
            tuple(a + b for a, b in zip(r1, r2))
            for r1, r2 in zip(self.entries, other.entries)
        ))

    def __sub__(self, other: "IntMat") -> "IntMat":
        return self + (-other)

    def __neg__(self) -> "IntMat":
        return self.scale(-1)

    def scale(self, c: int) -> "IntMat":
        return IntMat(self.rows, self.cols, tuple(
            tuple(c * x for x in row) for row in self.entries
        ))

    def hstack(self, other: "IntMat") -> "IntMat":
        if self.rows != other.rows:
            raise ValidationError("row mismatch in hstack")
        return IntMat(self.rows, self.cols + other.cols, tuple(
            r1 + r2 for r1, r2 in zip(self.entries, other.entries)
        ))

    def vstack(self, other: "IntMat") -> "IntMat":
        if self.cols != other.cols:
            raise ValidationError("column mismatch in vstack")
        return IntMat(self.rows + other.rows, self.cols, self.entries + other.entries)

    @classmethod
    def block_diag(cls, blocks) -> "IntMat":
        blocks = list(blocks)
        rows = sum(b.rows for b in blocks)
        cols = sum(b.cols for b in blocks)
        out = [[0] * cols for _ in range(rows)]
        r0 = c0 = 0
        for b in blocks:
            for i in range(b.rows):
                for j in range(b.cols):
                    out[r0 + i][c0 + j] = b.entries[i][j]
            r0 += b.rows
            c0 += b.cols
        return cls.from_rows(out) if rows else cls(0, cols, ())

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
        return tuple(self.D.entries[i][i] for i in range(k))

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

    return SmithDecomposition(IntMat.from_rows(u) if n else IntMat(0, 0, ()),
                              IntMat.from_rows(a) if n else IntMat(0, m, ()),
                              IntMat.from_rows(v) if m else IntMat(0, 0, ()))


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
    # The columns as {row: value} dicts of their nonzeros; a matrix with no
    # rows has only zero columns, which add nothing.
    for entries in zip(*M.entries):
        col = {i: x for i, x in enumerate(entries) if x}
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
    rows = sorted(set().union(*rest))
    diag = smith_normal_form(IntMat(len(rows), len(rest), tuple(
        tuple(col.get(i, 0) for col in rest) for i in rows
    ))).nonzero_diagonal
    return len(pivots) + len(diag), tuple(d for d in diag if d > 1)


def kernel_basis(M: IntMat) -> IntMat:
    """A saturated basis of the integer kernel, as columns.

    The basis spans ``ker M`` as a direct summand of the domain lattice, so
    any integer kernel vector is an integer combination of the columns.
    """
    snf = smith_normal_form(M)
    diag = snf.diagonal
    free = [j for j in range(M.cols) if j >= len(diag) or diag[j] == 0]
    cols = [snf.V.col(j) for j in free]
    return IntMat.from_columns(cols, rows=M.cols)


def solve(M: IntMat, B: IntMat) -> IntMat | None:
    """An integer solution ``X`` of ``M @ X == B``, or ``None``.

    Solves all columns of ``B`` at once; free coordinates are set to zero.
    """
    if B.rows != M.rows:
        raise ValidationError("shape mismatch in solve")
    snf = smith_normal_form(M)
    c = snf.U @ B
    diag = snf.diagonal
    ys = []
    for col in range(B.cols):
        y = [0] * M.cols
        for i in range(M.rows):
            rhs = c.entries[i][col]
            d = diag[i] if i < len(diag) else 0
            if d == 0:
                if rhs != 0:
                    return None
            else:
                if rhs % d != 0:
                    return None
                if i < M.cols:
                    y[i] = rhs // d
        ys.append(y)
    if not ys:
        return IntMat.zero(M.cols, 0)
    X = snf.V @ IntMat.from_columns(ys, rows=M.cols)
    return X
