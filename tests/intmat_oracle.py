"""The dense Smith normal form with its transforms: the slow oracle of the
elimination.

The package eliminates by sparse column operations (``ssetkit.intmat``) and
builds no transform it does not need.  This is the textbook algorithm on
dense rows, with the unimodular U and V it applies kept alongside, so the
tests can check ranks, invariant factors, kernels and solves against an
independent decomposition ``U @ M @ V == D``.

It also keeps the elimination loops as they were before the pending pivots
moved into a heap: ``_clear`` and ``solve_for`` rescan the whole column
for its earliest pivot after every step.  The package must act with the
same pivots in the same order, so the tests compare the two passes' pivots,
transforms and remainders entry by entry, dict order included.
"""

from dataclasses import dataclass

from ssetkit.intmat import IntMat, _sub, _swap


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


# -- the elimination order, by rescanning ------------------------------------


def _clear(col: dict[int, int], t, pivots, pivot_of_row: dict[int, int]) -> None:
    while True:
        k = min((pivot_of_row[i] for i in col if i in pivot_of_row), default=None)
        if k is None:
            return
        r, pc, pt, unit = pivots[k]
        x = col[r]
        if c := (x * unit if unit else x // pc[r]):
            for i, y in pc.items():  # ``_sub`` written out: homology's inner loop
                v = col.get(i, 0) - c * y
                if v:
                    col[i] = v
                else:
                    del col[i]
            if t is not None:
                _sub(t, c, pt)
        if not unit and x % pc[r]:
            _swap(col, pc)
            if t is not None:
                _swap(t, pt)


def eliminate(M: IntMat, track: bool):
    """``ssetkit.intmat._eliminate`` with the rescanning ``_clear``."""
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


def kernel_basis(M: IntMat) -> IntMat:
    return IntMat.of_columns(M.cols, eliminate(M, track=True)[2])


def solve(M: IntMat, B: IntMat) -> IntMat | None:
    """``ssetkit.intmat.solve`` with the rescanning ``solve_for``."""
    pivots, pivot_of_row, _ = eliminate(M, track=True)
    xs = []
    for stored in B.columns:
        col, x = dict(stored), {}
        while rows := [pivot_of_row[i] for i in col if i in pivot_of_row]:
            r, pc, pt, _ = pivots[min(rows)]
            q, rem = divmod(col[r], pc[r])
            if rem:
                return None
            _sub(col, q, pc)
            _sub(x, -q, pt)
        if col:
            return None
        xs.append(x)
    return IntMat.of_columns(M.cols, xs)


def unit_quotient(W: IntMat, X: IntMat):
    """``ssetkit.intmat._unit_quotient(W)`` with the rescanning ``_clear``,
    its map applied to ``X``."""
    pivots, pivot_of_row, rest = eliminate(W, track=False)
    kept = [i for i in range(W.rows) if i not in pivot_of_row]
    index = {i: k for k, i in enumerate(kept)}

    def reduce(columns) -> IntMat:
        columns = [dict(col) for col in columns]
        for col in columns:
            _clear(col, None, pivots, pivot_of_row)
        return IntMat.of_columns(len(kept), (
            {index[i]: x for i, x in col.items()} for col in columns
        ))

    return kept, reduce(rest), reduce(X.columns)
