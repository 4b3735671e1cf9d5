"""Dold-Kan correspondence and simplicial homotopy groups.

A simplicial abelian group is stored through a finite cap as one free
abelian group per level with explicit face and degeneracy matrices; every
simplicial identity is asserted matrix-exactly where a group enters, and
what is derived here from checked data is built without re-checking.

The two legs implemented here are the classical pair: ``dold_kan_K`` builds
the simplicial group whose level n is the sum of copies of the chain groups
C_k indexed by the degeneracy words from dimension k to n (the monotone
surjections out of [n]), and ``moore_normalized`` cuts it back down by
intersecting the kernels of all positive-index faces.  The operators act on
the words: d_i on the summand of ``s_J`` either dies in ``J`` (the identity
into the summand of the shorter word), passes through onto d_0 (the boundary
of C), or passes onto a higher face (zero); s_i composes words.  The
homotopy groups of a levelwise-free simplicial abelian group are then the
homology of its Moore complex, which is how degreewise mapping-space
homotopy reduces to homology of the original complex.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chain import ChainComplex, _unchecked, homology
from .delta import compose_words, degeneracy_words, face_of_word
from .errors import ValidationError
from .groups import HomologyGroup
from .intmat import IntMat, kernel_basis, solve

__all__ = [
    "SimplicialAbelianGroup",
    "truncate_nonneg",
    "dold_kan_K",
    "moore_normalized",
    "simplicial_homotopy_group",
    "map_homotopy_groups",
]


@dataclass(frozen=True)
class SimplicialAbelianGroup:
    """Levelwise free abelian groups with face/degeneracy matrices.

    ``face_ops[n - 1][i]`` maps level n to level n-1 (n from 1 to cap);
    ``degeneracy_ops[n][i]`` maps level n to level n+1 (n up to cap-1).
    """

    cap: int
    ranks: tuple[int, ...]
    face_ops: tuple[tuple[IntMat, ...], ...]
    degeneracy_ops: tuple[tuple[IntMat, ...], ...]

    def __post_init__(self) -> None:
        if self.cap < 0:
            raise ValidationError("cap must be nonnegative")
        if len(self.ranks) != self.cap + 1:
            raise ValidationError("one rank per level up to the cap")
        if len(self.face_ops) != self.cap:
            raise ValidationError("face operators must cover levels 1..cap")
        if len(self.degeneracy_ops) != self.cap:
            raise ValidationError("degeneracy operators must cover levels 0..cap-1")
        for n in range(1, self.cap + 1):
            ops = self.face_ops[n - 1]
            if len(ops) != n + 1:
                raise ValidationError(f"level {n} needs {n + 1} face operators")
            for m in ops:
                if (m.rows, m.cols) != (self.ranks[n - 1], self.ranks[n]):
                    raise ValidationError(f"face operator shape wrong at level {n}")
        for n in range(self.cap):
            ops = self.degeneracy_ops[n]
            if len(ops) != n + 1:
                raise ValidationError(f"level {n} needs {n + 1} degeneracy operators")
            for m in ops:
                if (m.rows, m.cols) != (self.ranks[n + 1], self.ranks[n]):
                    raise ValidationError(
                        f"degeneracy operator shape wrong at level {n}"
                    )
        self._check_identities()

    def face(self, n: int, i: int) -> IntMat:
        return self.face_ops[n - 1][i]

    def degeneracy(self, n: int, i: int) -> IntMat:
        return self.degeneracy_ops[n][i]

    def _check_identities(self) -> None:
        cap = self.cap
        for n in range(2, cap + 1):
            for j in range(n + 1):
                for i in range(j):
                    lhs = self.face(n - 1, i) @ self.face(n, j)
                    rhs = self.face(n - 1, j - 1) @ self.face(n, i)
                    if lhs != rhs:
                        raise ValidationError(
                            f"face identity fails at level {n} (i={i}, j={j})"
                        )
        for n in range(cap - 1):
            for j in range(n + 1):
                for i in range(j + 1):
                    lhs = self.degeneracy(n + 1, i) @ self.degeneracy(n, j)
                    rhs = self.degeneracy(n + 1, j + 1) @ self.degeneracy(n, i)
                    if lhs != rhs:
                        raise ValidationError(
                            f"degeneracy identity fails at level {n} (i={i}, j={j})"
                        )
        for n in range(cap):
            ident = IntMat.identity(self.ranks[n])
            for j in range(n + 1):
                for i in range(n + 2):
                    lhs = self.face(n + 1, i) @ self.degeneracy(n, j)
                    if i in (j, j + 1):
                        rhs = ident
                    elif i < j:
                        rhs = self.degeneracy(n - 1, j - 1) @ self.face(n, i)
                    else:
                        rhs = self.degeneracy(n - 1, j) @ self.face(n, i - 1)
                    if lhs != rhs:
                        raise ValidationError(
                            f"mixed identity fails at level {n} (i={i}, j={j})"
                        )


def truncate_nonneg(c: ChainComplex) -> ChainComplex:
    """Good truncation to nonnegative degrees.

    Degree 0 becomes the cycle subgroup against the outgoing boundary,
    expressed on a saturated basis, so homology in degrees >= 0 is kept.
    """
    high = max(c.high, 0)
    kernel = kernel_basis(c.boundary(0))
    ranks = [kernel.cols] + [c.rank(n) for n in range(1, high + 1)]
    boundaries = []
    if high >= 1:
        d1 = solve(kernel, c.boundary(1))
        if d1 is None:
            raise ValidationError("boundary image escapes the cycle subgroup")
        boundaries.append(d1)
        boundaries.extend(c.boundary(n) for n in range(2, high + 1))
    return _unchecked(ChainComplex, 0, high, tuple(ranks), tuple(boundaries))


# -- the K construction ----------------------------------------------------


def _summands(c: ChainComplex, n: int) -> list[tuple[tuple[int, ...], int]]:
    """Summands ``(word, k)`` of level n, skipping zero-rank chain groups."""
    return [
        (word, k)
        for k in range(n + 1)
        if c.rank(k)
        for word in degeneracy_words(n, k)
    ]


def _face_block(c: ChainComplex, word, k: int, n: int, i: int):
    """The summand that d_i sends ``(word, k)`` of level n to, and the block
    it maps by; ``None`` for a zero block."""
    word2, j = face_of_word(word, n, i)
    if j is None:  # d_i s_J = s_J'
        return (word2, k), IntMat.identity(c.rank(k))
    if j == 0:  # d_i s_J = s_J' d_0
        return (word2, k - 1), c.boundary(k)
    return None  # d_j with j > 0 is zero on C


def _degeneracy_block(c: ChainComplex, word, k: int, n: int, i: int):
    """The summand that s_i sends ``(word, k)`` of level n to, by the identity."""
    return (compose_words(word, (i,), n + 1), k), IntMat.identity(c.rank(k))


def _operator(c: ChainComplex, src: list, dst: list, block, n: int, i: int) -> IntMat:
    """Matrix of the operator of index i on level n, summand by summand."""
    row_offsets = {}
    total_rows = 0
    for summand in dst:
        row_offsets[summand] = total_rows
        total_rows += c.rank(summand[1])
    columns = []
    for word, k in src:
        hit = block(c, word, k, n, i)
        r0 = None if hit is None else row_offsets.get(hit[0])
        if r0 is None:
            columns.extend({} for _ in range(c.rank(k)))
        else:
            columns.extend({r + r0: x for r, x in col.items()} for col in hit[1].columns)
    return IntMat.of_columns(total_rows, columns)


def dold_kan_K(c: ChainComplex, cap: int) -> SimplicialAbelianGroup:
    if any(c.rank(n) != 0 for n in range(c.low, 0)):
        raise ValidationError("the simplicial side needs a nonnegative complex")
    levels = [_summands(c, n) for n in range(cap + 1)]
    ranks = tuple(sum(c.rank(k) for _, k in lv) for lv in levels)
    face_ops = tuple(
        tuple(
            _operator(c, levels[n], levels[n - 1], _face_block, n, i)
            for i in range(n + 1)
        )
        for n in range(1, cap + 1)
    )
    degeneracy_ops = tuple(
        tuple(
            _operator(c, levels[n], levels[n + 1], _degeneracy_block, n, i)
            for i in range(n + 1)
        )
        for n in range(cap)
    )
    return _unchecked(SimplicialAbelianGroup, cap, ranks, face_ops, degeneracy_ops)


# -- the Moore complex -----------------------------------------------------


def moore_normalized(A: SimplicialAbelianGroup) -> ChainComplex:
    """Intersection of the kernels of all positive faces, with the zeroth
    face as differential."""
    bases = [IntMat.identity(A.ranks[0])]
    for n in range(1, A.cap + 1):
        stacked = IntMat.zero(0, A.ranks[n])
        for i in range(1, n + 1):
            stacked = stacked.vstack(A.face(n, i))
        bases.append(kernel_basis(stacked))
    ranks = tuple(b.cols for b in bases)
    boundaries = []
    for n in range(1, A.cap + 1):
        image = A.face(n, 0) @ bases[n]
        coords = solve(bases[n - 1], image)
        if coords is None:
            raise ValidationError("zeroth face leaves the normalized subgroup")
        boundaries.append(coords)
    return _unchecked(ChainComplex, 0, A.cap, ranks, tuple(boundaries))


def simplicial_homotopy_group(A: SimplicialAbelianGroup, n: int) -> HomologyGroup:
    if n < 0:
        raise ValidationError("homotopy groups live in nonnegative degrees")
    if A.cap < n + 1:
        raise ValidationError(f"cap {A.cap} too small for degree {n}")
    return homology(moore_normalized(A), n)


def map_homotopy_groups(c: ChainComplex, n: int) -> HomologyGroup:
    """Degree-n homotopy of the simplicial group attached to the good
    truncation; agrees with homology(c, n) for n >= 0."""
    if n < 0:
        raise ValidationError("nonnegative degrees only")
    t = truncate_nonneg(c)
    return simplicial_homotopy_group(dold_kan_K(t, n + 2), n)
