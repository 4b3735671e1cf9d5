"""The dense Smith normal form with its transforms: the slow oracle of the
elimination.

The package eliminates by sparse column operations (``ssetkit.intmat``) and
builds no transform it does not need.  This is the textbook algorithm on
dense rows, with the unimodular U and V it applies kept alongside, so the
tests can check ranks, invariant factors, kernels and solves against an
independent decomposition ``U @ M @ V == D``.
"""

from dataclasses import dataclass

from ssetkit.intmat import IntMat


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
