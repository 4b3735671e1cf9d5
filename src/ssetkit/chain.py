"""Bounded complexes of finitely generated free abelian groups.

A ``ChainComplex`` stores a support window ``[low, high]``, one rank per
degree and one boundary per internal degree, an ``IntMat`` holding one
column of nonzeros per basis element of its source degree; composites of
consecutive boundaries must vanish, checked where a complex enters, as is
the chain-map law where a map enters.  Complexes and maps derived from
checked data (shifts, sums, cones, composites, the chains of a simplicial
set) are valid by construction and are built without re-checking.
Homology is read off the ranks and the invariant factors of the boundaries,
each boundary eliminated once, entirely over the integers.

The package's one commuting square, ``ChainSquare``, lives here too.  A leg
needs only ``source``, ``target``, ``compose`` and ``==``, so the legs are
chain maps or maps of simplicial sets: ``excision.SSetSquare`` is this class.

Where Mayer-Vietoris needs generators, they are read off a reduction.
``reduce_complex`` cancels pairs of cells joined by a ±1 incidence until
none is left, and keeps the chain maps f: big -> small and g: small -> big
of the chain equivalence it makes: f∘g = 1, and g∘f is homotopic to the
identity.  The small complex has a cell or two per homology generator on
the chains of a simplicial set.  A homology presentation keeps the cycles
of the small complex that no unit relation removes, with the non-unit
relations among them; g carries them to cycles of the big complex, and a
big cycle is written on them by the coordinates of its image under f.
Since f sends some chains that are not cycles to cycles (a cancelled upper
cell goes to 0), the coordinates test a chain for being a cycle on the big
complex, before f.  One reduction serves the presentations of every degree.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from .errors import StabilizationError, ValidationError
from .groups import HomologyGroup, PresentedGroup
from .intmat import (
    IntMat,
    _rank_torsion_units,
    _solver,
    _sub,
    _unit_quotient,
    kernel_basis,
    solve,
)

if TYPE_CHECKING:  # the legs of a square of simplicial sets
    from .sset import FiniteSSet, SSetMap

__all__ = [
    "ChainComplex",
    "ChainMap",
    "ChainSquare",
    "Tower",
    "RealChain",
    "zero_complex",
    "single_complex",
    "homology",
    "homology_table",
    "Reduction",
    "reduce_complex",
    "homology_presentation",
    "induced_map",
    "is_acyclic",
    "l1_norm",
    "boundary_operator_norm",
    "loop_shift",
    "direct_sum",
    "mapping_cone",
    "square_sequence",
    "total_complex_of_square",
    "is_homotopy_bicartesian",
    "check_exact_sequence",
    "stabilization_index",
    "sequential_colimit",
    "quasi_iso",
    "zero_map",
]


@dataclass(frozen=True)
class ChainComplex:
    """Free complex supported in degrees ``low..high``.

    ``ranks[i]`` is the rank in degree ``low + i``; ``boundaries[i]`` is the
    boundary out of degree ``low + 1 + i`` (a ``ranks[i] x ranks[i+1]``
    matrix).  Degrees outside the window are zero.
    """

    low: int
    high: int
    ranks: tuple[int, ...]
    boundaries: tuple[IntMat, ...]

    def __post_init__(self) -> None:
        if self.high < self.low:
            raise ValidationError("empty support window")
        n = self.high - self.low + 1
        if len(self.ranks) != n or len(self.boundaries) != n - 1:
            raise ValidationError("rank or boundary count does not match the window")
        if any(r < 0 for r in self.ranks):
            raise ValidationError("ranks must be nonnegative")
        for i, b in enumerate(self.boundaries):
            if (b.rows, b.cols) != (self.ranks[i], self.ranks[i + 1]):
                raise ValidationError(
                    f"boundary out of degree {self.low + 1 + i} has shape "
                    f"{b.rows}x{b.cols}, expected {self.ranks[i]}x{self.ranks[i + 1]}"
                )
        for i in range(len(self.boundaries) - 1):
            if not (self.boundaries[i] @ self.boundaries[i + 1]).is_zero():
                raise ValidationError(
                    f"boundary composite in degree {self.low + 2 + i} is nonzero"
                )

    def rank(self, n: int) -> int:
        if self.low <= n <= self.high:
            return self.ranks[n - self.low]
        return 0

    def boundary(self, n: int) -> IntMat:
        """The boundary map out of degree ``n`` (zero outside the window)."""
        if self.low + 1 <= n <= self.high:
            return self.boundaries[n - self.low - 1]
        return IntMat.zero(self.rank(n - 1), self.rank(n))

    def degrees(self):
        return range(self.low, self.high + 1)

    def is_zero_complex(self) -> bool:
        return all(r == 0 for r in self.ranks)

    @cached_property
    def reduction(self) -> Reduction:
        """``reduce_complex(self)``, built on first use and kept: one
        reduction serves the homology presentations of every degree."""
        return reduce_complex(self)


def _unchecked(cls, *values):
    """A frozen chain value with the given fields, built without running
    its ``__post_init__``: for derived data that is valid by construction."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls.__dataclass_fields__, values))
    return obj


def zero_complex(low: int = 0, high: int = 0) -> ChainComplex:
    if high < low:
        raise ValidationError("empty support window")
    n = high - low + 1
    return _unchecked(ChainComplex, low, high, (0,) * n, tuple(
        IntMat.zero(0, 0) for _ in range(n - 1)
    ))


def single_complex(degree: int, rank: int = 1) -> ChainComplex:
    """A single free group placed in one degree."""
    return ChainComplex(degree, degree, (rank,), ())


@dataclass(frozen=True)
class ChainMap:
    """A degreewise map commuting with the boundaries."""

    source: ChainComplex
    target: ChainComplex
    blocks: tuple[IntMat, ...]  # indexed from min(source.low, target.low)

    def __post_init__(self) -> None:
        lo, hi = self._window()
        if len(self.blocks) != hi - lo + 1:
            raise ValidationError("block count does not match the combined window")
        for n in range(lo, hi + 1):
            b = self.blocks[n - lo]
            if (b.rows, b.cols) != (self.target.rank(n), self.source.rank(n)):
                raise ValidationError(f"block in degree {n} has the wrong shape")
        for n in range(lo + 1, hi + 1):
            left = self.target.boundary(n) @ self.block(n)
            right = self.block(n - 1) @ self.source.boundary(n)
            if left != right:
                raise ValidationError(f"chain map law fails in degree {n}")

    def _window(self) -> tuple[int, int]:
        return (
            min(self.source.low, self.target.low),
            max(self.source.high, self.target.high),
        )

    def block(self, n: int) -> IntMat:
        lo, hi = self._window()
        if lo <= n <= hi:
            return self.blocks[n - lo]
        return IntMat.zero(self.target.rank(n), self.source.rank(n))

    def compose(self, other: "ChainMap") -> "ChainMap":
        """``self of other``."""
        if other.target != self.source:
            raise ValidationError("chain maps are not composable")
        lo = min(other.source.low, self.target.low)
        hi = max(other.source.high, self.target.high)
        blocks = tuple(
            self.block(n) @ other.block(n) for n in range(lo, hi + 1)
        )
        return _unchecked(ChainMap, other.source, self.target, blocks)

    def is_degreewise_iso(self) -> bool:
        lo, hi = self._window()
        for n in range(lo, hi + 1):
            b = self.block(n)
            if b.rows != b.cols:
                return False
            if b.rows and not b.is_unimodular():
                return False
        return True

    def is_zero(self) -> bool:
        return all(b.is_zero() for b in self.blocks)


def _padded_blocks(source, target, blocks_by_degree) -> tuple[IntMat, ...]:
    """The blocks over the combined window, zero where none is given."""
    lo = min(source.low, target.low)
    hi = max(source.high, target.high)
    blocks = []
    for n in range(lo, hi + 1):
        b = blocks_by_degree.get(n)
        if b is None:
            b = IntMat.zero(target.rank(n), source.rank(n))
        blocks.append(b)
    return tuple(blocks)


def chain_map_from_blocks(source, target, blocks_by_degree) -> ChainMap:
    return ChainMap(source, target, _padded_blocks(source, target, blocks_by_degree))


def zero_map(source: ChainComplex, target: ChainComplex) -> ChainMap:
    return _unchecked(ChainMap, source, target, _padded_blocks(source, target, {}))


def identity_chain_map(c: ChainComplex) -> ChainMap:
    blocks = {n: IntMat.identity(c.rank(n)) for n in c.degrees()}
    return _unchecked(ChainMap, c, c, _padded_blocks(c, c, blocks))


# -- reductions ------------------------------------------------------------


class Reduction:
    """A chain equivalence of a big complex with a small one.

    ``f``: big -> small and ``g``: small -> big are chain maps with
    ``f∘g = 1``, and ``g∘f`` is chain homotopic to the identity, so both are
    quasi-isomorphisms.  ``reduce_complex`` builds them; each is applied
    column by column, as a block times a matrix of chains.
    """

    __slots__ = ("f", "g")

    def __init__(self, f: ChainMap, g: ChainMap) -> None:
        self.f, self.g = f, g  # big -> small, small -> big

    @property
    def big(self) -> ChainComplex:
        return self.f.source

    @property
    def small(self) -> ChainComplex:
        return self.f.target


def reduce_complex(c: ChainComplex) -> Reduction:
    """Cancel basis pairs of ``c`` with a ±1 incidence until none is left.

    Removing a pair (a, b), ``ε = <∂b, a> = ±1``, leaves a complex on the
    other cells (Kaczyński, Mrozek and Ślusarek, 1998): each other coface
    x of a, ``λ = <∂x, a>``, gets the boundary ``∂x - λε ∂b``, which misses
    a, and b is struck from the boundaries it lies in.  Then ``g`` sends x
    to ``x - λε b``, ``f`` sends a to ``-ε (∂b - ε a)`` and b to 0, and
    both fix every other cell; they are chain maps with ``f∘g = 1``.  The
    maps of the whole run are the composites of those of its steps.

    Free faces go first, in the order they become free: a face with one
    coface, on a ±1, needs no boundary corrected (a collapse).  When there
    is none, the pair with the fewest corrected entries is taken.  ``f`` is
    read off the steps backwards: f(a) is ``-ε`` times f of the rest of
    ∂b, whose cells were all present at that step: each one removed was
    removed by a later step, whose f is read first.  ``g`` keeps its
    corrections as they are made.
    """
    top = c.high - c.low  # cells live in degree indices 0..top
    # faces[d][j] and cofaces[d][j] of cell j in degree index d, as
    # {cell: incidence}; None once the cell is removed.
    faces = [[{} for _ in range(c.ranks[0])]]
    faces += [[dict(col) for col in b.columns] for b in c.boundaries]
    cofaces = [[{} for _ in range(r)] for r in c.ranks]
    for d in range(1, top + 1):
        up = cofaces[d - 1]
        for j, col in enumerate(faces[d]):
            for i, x in col.items():
                up[i][j] = x
    images = [{} for _ in c.ranks]  # g(x) where it is not x, in cells of c
    steps = [[] for _ in c.ranks]  # (a, -ε times ∂b without a), in order
    # Cells with one coface; each is checked for a ±1 when it is taken.
    free = deque((d, a) for d in range(top) for a, up in enumerate(cofaces[d]) if len(up) == 1)

    def cancel(d: int, a: int, b: int) -> None:
        fb, up = faces[d + 1][b], cofaces[d]
        e = fb[a]
        if len(up[a]) > 1:
            for x, lam in list(up[a].items()):
                if x != b:
                    m = lam * e
                    fx = faces[d + 1][x]
                    for i, y in fb.items():
                        if v := fx.get(i, 0) - m * y:
                            fx[i] = up[i][x] = v
                        else:
                            del fx[i], up[i][x]
                    gx = images[d + 1].setdefault(x, {x: 1})
                    _sub(gx, m, images[d + 1].get(b, {b: 1}))
        rest = {}
        for i, x in fb.items():
            if i != a:
                rest[i] = -e * x
                u = up[i]
                del u[b]
                if len(u) == 1:
                    free.append((d, i))
        steps[d].append((a, rest))
        for y in cofaces[d + 1][b]:
            del faces[d + 2][y][b]
        if d:
            down = cofaces[d - 1]
            for z in faces[d][a]:
                u = down[z]
                del u[a]
                if len(u) == 1:
                    free.append((d - 1, z))
        faces[d][a] = faces[d + 1][b] = cofaces[d][a] = cofaces[d + 1][b] = None

    def cheapest():
        """The first ±1 pair that corrects the fewest entries, or None."""
        best, least = None, None
        for d in range(top):
            for a, up in enumerate(cofaces[d]):
                for b, e in (up or {}).items():
                    if e == 1 or e == -1:
                        cost = (len(up) - 1) * (len(faces[d + 1][b]) - 1)
                        if not cost:
                            return d, a, b
                        if best is None or cost < least:
                            best, least = (d, a, b), cost
        return best

    while True:
        while free:
            d, a = free.popleft()
            up = cofaces[d][a]
            if up is not None and len(up) == 1:
                (b, e), = up.items()
                if e == 1 or e == -1:
                    cancel(d, a, b)
        pair = cheapest()
        if pair is None:
            break
        cancel(*pair)

    keep = [[j for j, fj in enumerate(level) if fj is not None] for level in faces]
    index = [{j: k for k, j in enumerate(js)} for js in keep]
    small = _unchecked(ChainComplex, c.low, c.high, tuple(map(len, keep)), tuple(
        IntMat.of_columns(len(keep[d - 1]), (
            {index[d - 1][i]: x for i, x in faces[d][j].items()} for j in keep[d]
        ))
        for d in range(1, top + 1)
    ))
    f_blocks = []
    for d, rank in enumerate(c.ranks):
        image = [{} for _ in range(rank)]  # removed b-cells go to 0
        for j, k in index[d].items():
            image[j] = {k: 1}
        for a, rest in reversed(steps[d]):
            acc: dict[int, int] = {}
            for i, x in rest.items():
                for k, v in image[i].items():
                    acc[k] = acc.get(k, 0) + x * v
            image[a] = {k: v for k, v in acc.items() if v}
        f_blocks.append(IntMat.of_columns(len(keep[d]), image))
    g_blocks = tuple(
        IntMat.of_columns(rank, (images[d].get(j, {j: 1}) for j in keep[d]))
        for d, rank in enumerate(c.ranks)
    )
    return Reduction(
        _unchecked(ChainMap, c, small, tuple(f_blocks)),
        _unchecked(ChainMap, small, c, g_blocks),
    )


# -- homology --------------------------------------------------------------

# ``(G, P, coordinates)``, as ``homology_presentation`` returns it.
HomologyPresentation = tuple[
    IntMat, PresentedGroup, Callable[[IntMat], "IntMat | None"]
]


def homology_presentation(c: ChainComplex, n: int) -> HomologyPresentation:
    """Generators, presentation and coordinates of the degree-n homology of
    ``c``, read off the small complex of its reduction ``r = c.reduction``,
    which the first call on ``c`` builds and every degree shares.

    Returns ``(G, P, coordinates)``.  On the small complex, with ``Z`` a
    saturated basis of its cycles in degree ``n`` and ``W`` its boundaries
    from degree ``n + 1`` written on it, the unit elimination of
    ``rank_and_torsion`` runs on the columns of ``W``.  Each unit pivot
    removes one cycle; ``P`` presents the homology on the cycles left by
    the non-unit remainder, and ``G`` is their image under ``g``, cycles of
    the big complex.  ``g`` and ``f`` induce inverse isomorphisms on
    homology, so ``coordinates(V)`` writes cycles ``V`` of the big complex
    on ``G`` modulo ``P`` by the coordinates of ``f(V)``.  It gives ``None``
    when ``V`` is not made of cycles, which it checks on the big complex
    first: ``f`` is not injective (it sends every removed upper cell to 0),
    so ``f(V)`` can be a cycle when ``V`` is not.
    """
    r = c.reduction
    small = r.small
    Z = kernel_basis(small.boundary(n))
    on_cycles = _solver(Z)  # eliminates Z once, for W and every coordinates
    W = on_cycles(small.boundary(n + 1))
    if W is None:
        raise ValidationError("boundaries are not cycles; complex is corrupt")
    kept, relations, reduce = _unit_quotient(W)
    d, f = c.boundary(n), r.f.block(n)

    def coordinates(V: IntMat) -> IntMat | None:
        if not (d @ V).is_zero():
            return None
        return reduce(on_cycles(f @ V))

    G = r.g.block(n) @ IntMat.of_columns(Z.rows, (Z.columns[i] for i in kept))
    return G, PresentedGroup(len(kept), relations), coordinates


def homology(c: ChainComplex, n: int) -> HomologyGroup:
    """Integral homology in degree ``n`` in invariant-factor normal form."""
    return homology_table(c, n, n)[n]


def homology_table(c: ChainComplex, low: int, high: int):
    """Homology in degrees ``low..high``, eliminating each of the boundaries
    out of degrees ``low..high + 1`` once: H_n has rank ``c_n`` less the
    ranks of the boundaries out of and into degree n, and the torsion of
    the boundary into it.

    The boundaries are eliminated from degree ``high + 1`` down, and each
    ∂_m leaves out the columns whose index is a unit-pivot row of the
    elimination of ∂_{m+1} (clearing, as in Chen and Kerber's persistence
    "twist").  Pivot column k of ∂_{m+1} is a combination of its columns,
    so a boundary, so a cycle of ∂_m, since d∘d = 0 (checked where a
    complex enters).  It is ±1 in its row r_k and 0 in the rows of earlier
    pivots, so column r_k of ∂_m is an integer combination of the columns of
    later pivots' rows and of non-pivot rows; from the last pivot down, every
    column left out lies in the integer span of the columns kept.  The
    image lattice of ∂_m, hence its rank and invariant factors, is
    unchanged.  Only unit pivots clear; non-unit remainders clear nothing.
    """
    rank, torsion, skip = {}, {}, ()
    for m in range(high + 1, low - 1, -1):
        rank[m], torsion[m], skip = _rank_torsion_units(c.boundary(m), skip)
    return {
        n: HomologyGroup(c.rank(n) - rank[n] - rank[n + 1], torsion[n + 1])
        for n in range(low, high + 1)
    }


def is_acyclic(c: ChainComplex) -> bool:
    """All homology groups vanish (outside the support window they must)."""
    table = homology_table(c, c.low, c.high)
    return all(g.is_zero for g in table.values())


def induced_map(
    f: ChainMap, n: int, src: HomologyPresentation, tgt: HomologyPresentation
) -> IntMat:
    """Matrix of ``H_n(f)`` between the homology presentations ``src`` and
    ``tgt``, on their generators."""
    M = tgt[2](f.block(n) @ src[0])
    if M is None:
        raise ValidationError("cycles do not map to cycles; not a chain map")
    return M


def quasi_iso(f: ChainMap) -> bool:
    """Does ``f`` induce an isomorphism on all homology groups?"""
    return is_acyclic(mapping_cone(f))


# -- norms -----------------------------------------------------------------


@dataclass(frozen=True)
class RealChain:
    """A finitely supported real chain in one degree of a complex."""

    degree: int
    coefficients: tuple[tuple[int, float], ...]  # (basis index, coefficient)


def l1_norm(chain: RealChain) -> float:
    """Sum of absolute values of the coefficients."""
    return float(sum(abs(a) for _, a in chain.coefficients))


def boundary_operator_norm(c: ChainComplex, n: int) -> float:
    """Operator norm of the boundary out of degree ``n`` for the l1 norms.

    Equals the maximal column sum of absolute values; in particular it is
    finite, witnessing boundedness of the boundary operator.
    """
    return float(max(
        (sum(map(abs, col.values())) for col in c.boundary(n).columns), default=0
    ))


# -- elementary constructions ---------------------------------------------


def loop_shift(c: ChainComplex, times: int = 1) -> ChainComplex:
    """Reindex so that degree ``n`` holds what was degree ``n + times``."""
    if times < 0:
        raise ValidationError("shift count must be nonnegative")
    return _unchecked(
        ChainComplex, c.low - times, c.high - times, c.ranks, c.boundaries
    )


def _common_window(a: ChainComplex, b: ChainComplex) -> tuple[int, int]:
    return min(a.low, b.low), max(a.high, b.high)


def direct_sum(a: ChainComplex, b: ChainComplex) -> ChainComplex:
    """Degreewise sum with block-diagonal boundaries (``a`` block first)."""
    lo, hi = _common_window(a, b)
    ranks = tuple(a.rank(n) + b.rank(n) for n in range(lo, hi + 1))
    boundaries = tuple(
        IntMat.block_diag([a.boundary(n), b.boundary(n)])
        for n in range(lo + 1, hi + 1)
    )
    return _unchecked(ChainComplex, lo, hi, ranks, boundaries)


def mapping_cone(f: ChainMap) -> ChainComplex:
    """Cone of ``f``: degree ``n`` is ``target_n + source_{n-1}``.

    Boundary ``(y, x) -> (dy + f x, -dx)``; acyclic exactly when ``f`` is a
    quasi-isomorphism.
    """
    s, t = f.source, f.target
    lo = min(t.low, s.low + 1)
    hi = max(t.high, s.high + 1)
    ranks = tuple(t.rank(n) + s.rank(n - 1) for n in range(lo, hi + 1))
    boundaries = []
    for n in range(lo + 1, hi + 1):
        top = t.boundary(n).hstack(f.block(n - 1))
        bottom = IntMat.zero(s.rank(n - 2), t.rank(n)).hstack(
            s.boundary(n - 1).scale(-1)
        )
        boundaries.append(top.vstack(bottom))
    return _unchecked(ChainComplex, lo, hi, ranks, tuple(boundaries))


# -- squares ---------------------------------------------------------------


@dataclass(frozen=True)
class ChainSquare:
    """A strictly commuting square: ``w_to_u``, ``w_to_v`` out of the
    initial corner, ``u_to_x``, ``v_to_x`` into the final corner, of chain
    maps or of maps of simplicial sets (see the module docstring)."""

    w_to_u: ChainMap | SSetMap
    w_to_v: ChainMap | SSetMap
    u_to_x: ChainMap | SSetMap
    v_to_x: ChainMap | SSetMap

    def __post_init__(self) -> None:
        if self.w_to_u.source != self.w_to_v.source:
            raise ValidationError("square legs must share their source corner")
        if self.u_to_x.source != self.w_to_u.target:
            raise ValidationError("upper-right corner mismatch")
        if self.v_to_x.source != self.w_to_v.target:
            raise ValidationError("lower-left corner mismatch")
        if self.u_to_x.target != self.v_to_x.target:
            raise ValidationError("square has two different final corners")
        if self.u_to_x.compose(self.w_to_u) != self.v_to_x.compose(self.w_to_v):
            raise ValidationError("square does not commute")

    @property
    def w(self) -> ChainComplex | FiniteSSet:
        return self.w_to_u.source

    @property
    def u(self) -> ChainComplex | FiniteSSet:
        return self.w_to_u.target

    @property
    def v(self) -> ChainComplex | FiniteSSet:
        return self.w_to_v.target

    @property
    def x(self) -> ChainComplex | FiniteSSet:
        return self.u_to_x.target


def square_sequence(sq: ChainSquare) -> tuple[ChainMap, ChainMap]:
    """The maps ``W -> U + V -> X`` of a square: the two legs stacked, then
    ``u_to_x - v_to_x``.  They compose to zero because the square commutes.
    The total complex and the Mayer-Vietoris sequence both take their
    block layout and sign from here."""
    w, uv, x = sq.w, direct_sum(sq.u, sq.v), sq.x
    stacked = {n: sq.w_to_u.block(n).vstack(sq.w_to_v.block(n)) for n in w.degrees()}
    difference = {
        n: sq.u_to_x.block(n).hstack(sq.v_to_x.block(n).scale(-1))
        for n in uv.degrees()
    }
    return (
        _unchecked(ChainMap, w, uv, _padded_blocks(w, uv, stacked)),
        _unchecked(ChainMap, uv, x, _padded_blocks(uv, x, difference)),
    )


def total_complex_of_square(sq: ChainSquare) -> ChainComplex:
    """Iterated mapping cone of ``W -> U + V -> X``.

    Degree ``n`` is ``X_n + U_{n-1} + V_{n-1} + W_{n-2}`` with the standard
    cone signs; acyclicity of this complex is the homotopy-bicartesian test.
    """
    into_sum, out_of_sum = square_sequence(sq)
    cone1 = mapping_cone(into_sum)
    # (u, v, w) -> p(u) - q(v), a chain map since the sequence composes to 0.
    w, x = sq.w, sq.x
    collapse = _unchecked(ChainMap, cone1, x, _padded_blocks(cone1, x, {
        n: out_of_sum.block(n).hstack(IntMat.zero(x.rank(n), w.rank(n - 1)))
        for n in cone1.degrees()
    }))
    return mapping_cone(collapse)


def is_homotopy_bicartesian(sq: ChainSquare) -> bool:
    """True when the total complex of the square is acyclic."""
    return is_acyclic(total_complex_of_square(sq))


# -- exact sequences -------------------------------------------------------


def check_exact_sequence(maps, low: int, high: int):
    """Exactness of a composable run of chain maps, slot by slot.

    ``maps[j]`` and ``maps[j+1]`` meet at slot ``j+1`` (the shared complex).
    Returns a dict ``(slot, degree) -> bool``; raises when consecutive
    composites are nonzero, since then exactness is not even well posed.
    """
    maps = list(maps)
    for f, g in zip(maps, maps[1:]):
        if f.target != g.source:
            raise ValidationError("sequence is not composable")
        if not g.compose(f).is_zero():
            raise ValidationError("consecutive composite is nonzero")
    report: dict[tuple[int, int], bool] = {}
    for j in range(len(maps) - 1):
        f, g = maps[j], maps[j + 1]
        for n in range(low, high + 1):
            # im(f_n) = ker(g_n) as subgroups of the free middle term.
            ker = kernel_basis(g.block(n))
            report[(j + 1, n)] = solve(f.block(n), ker) is not None
    return report


# -- towers ----------------------------------------------------------------


@dataclass(frozen=True)
class Tower:
    """A finite sequence of complexes with structure maps stage to stage."""

    stages: tuple[ChainComplex, ...]
    maps: tuple[ChainMap, ...]

    def __post_init__(self) -> None:
        if len(self.maps) != len(self.stages) - 1:
            raise ValidationError("a tower needs one map between consecutive stages")
        for i, f in enumerate(self.maps):
            if f.source != self.stages[i] or f.target != self.stages[i + 1]:
                raise ValidationError(f"tower map {i} has the wrong endpoints")

    def __len__(self) -> int:
        return len(self.stages)


def stabilization_index(t: Tower) -> int | None:
    """First stage from which every structure map is a degreewise
    isomorphism, or ``None`` when the maps certify no such stage."""
    iso = [f.is_degreewise_iso() for f in t.maps]
    # Stabilization needs a nonempty certified tail; a bare final stage is
    # no evidence, so the scan stops one short of the last stage.
    return next((k for k in range(len(iso)) if all(iso[k:])), None)


def sequential_colimit(t: Tower) -> ChainComplex:
    """Value of a tower that stabilizes within its stages.

    Returns the stage found by :func:`stabilization_index`.  Raises
    :class:`StabilizationError` otherwise; no extrapolation is attempted.
    """
    index = stabilization_index(t)
    if index is None:
        raise StabilizationError(
            f"tower does not stabilize within {len(t.maps)} structure maps"
        )
    return t.stages[index]
