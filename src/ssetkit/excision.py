"""Cylinders, suspensions, homotopy pushouts, and Mayer-Vietoris.

The reduced suspension ΣX of a pointed X is the cylinder X × Δ¹ with both
ends and the basepoint line collapsed to the basepoint, but it is written
down straight from the cells of X: no cylinder, pullback, pushout or
quotient is built.  By the Eilenberg-Zilber lemma the nondegenerate cells
of the cylinder are the pairs ``(s_I x, s_J b)`` of nondegenerate x and b
with disjoint degeneracy words, and those outside the collapsed part have
b = ι, the edge of Δ¹.  So each nondegenerate m-simplex x other than the
basepoint gives

- m cells ``(x, s_J ι)`` of dimension m, J in ``degeneracy_words(m, 1)``;
- m + 1 prism cells ``(s_i x, s_{J_i} ι)`` of dimension m + 1, for
  i = 0..m, where J_i is {0..m} without i, in decreasing order.

Level k lists its cells in the cylinder's pair order, sorted by (I, name
of x, J), and names them ``g{k}_{idx}`` (``build._level_names``): the names
the quotient of the cylinder gives them.  ``g0_0`` is the basepoint and the
only vertex.  The face d_i of ``(s_I x, s_J ι)`` is d_i of each side as a
(word, position) key: ``FiniteSSet.face_key`` on the word I, which is
empty or one index, over x, and ``delta.face_of_word`` on J over ι.  It is
the basepoint, degenerated to dimension k - 1, when the Δ¹ side passes onto
a vertex of ι or the X side lies on the basepoint; otherwise it is the pair
of the two keys, made a cell by the pair rule of the pullback,
``build._pair_key``: the positions both words share are stripped and the
pair left is looked up.  Each distinct face of a level is found once, and
ΣX is handed to ``FiniteSSet._trusted`` as its face table, with no
``Simplex``.  ΣX has 1 + Σ (2 dim x + 1) cells, over the cells x of X
other than the basepoint; that count is held to the budget of ``build``
(``DEFAULT_MAX_CANDIDATES``) before any level is listed, and a larger ΣX
raises ``EnumerationLimit``.  The cone and the unreduced suspension glue a
point along an end of the cylinder: each is a ``pushout`` along the end's
inclusion, the way the double mapping cylinder below glues its feet.

The homotopy pushout of a span ``U <- W -> V`` is modeled by the double
mapping cylinder, built by two gluings along the ends of the cylinder
``W x Δ¹``: first ``U`` along the end ``W x 0``, then ``V`` along the end
``W x 1``.  Each end is an injective leg, so each gluing is a pushout
along a monomorphism, built from nondegenerate simplices; no construction
here materializes the degenerate ones.  A square of simplicial sets is a
homology pushout when the map from that cylinder to its corner, the two
maps the gluings induce, is an isomorphism on integral homology.

Squares are one type: ``SSetSquare`` is ``chain.ChainSquare``, whose legs
may be maps of simplicial sets or chain maps, and ``chain_square_of`` is
the one way from a square of spaces to its square of (reduced) chains.

For covers by two subcomplexes, every simplex lies in one of the pieces,
so the inclusion-induced short sequence of normalized chain complexes is
exact on the nose and the long exact homology sequence comes out of the
usual snake construction, with every slot re-verified independently.  The
sequence is the ``square_sequence`` of the chain square of the square of
inclusions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .build import (
    PullbackResult,
    PushoutResult,
    product,
    pushout,
    quotient,
    sset_pullback,
    _budget,
    _level_names,
    _pair_key,
)
from .chain import (
    ChainMap,
    ChainSquare,
    HomologyPresentation,
    _unchecked,
    check_exact_sequence,
    homology,
    homology_presentation,
    induced_map,
    is_homotopy_bicartesian,
    quasi_iso,
    square_sequence,
    zero_complex,
    zero_map,
)
from .delta import degeneracy_words, face_of_word
from .errors import EnumerationLimit, ValidationError
from .groups import HomologyGroup, PresentedGroup, exact_at
from .intmat import IntMat, solve
from .simplicial_chains import (
    _map_of,
    chain_basis,
    chain_map_of,
    normalized_chains,
    reduced_normalized_chains,
)
from .sset import (
    FiniteSSet,
    SSetMap,
    boundary,
    constant_map,
    face_closure,
    is_name_subcomplex,
    pointed,
    standard_simplex,
    subcomplex,
    _inclusion,
)

__all__ = [
    "cylinder",
    "cone",
    "unreduced_suspension",
    "reduced_suspension",
    "SuspensionData",
    "reduced_suspension_data",
    "SSetSquare",
    "identity_square",
    "pushout_square",
    "interval_collapse_square",
    "chain_square_of",
    "DoubleMappingCylinder",
    "double_mapping_cylinder",
    "is_homology_pushout",
    "ExcisionReport",
    "excision_check",
    "CoverData",
    "cover_from_names",
    "CoverSES",
    "cover_short_exact_sequence",
    "LESEntry",
    "LongExactSequence",
    "mayer_vietoris",
    "CounterexampleReport",
    "identity_counterexample_report",
]


# -- cylinders and suspensions ---------------------------------------------


def cylinder(X: FiniteSSet) -> PullbackResult:
    return product(X, standard_simplex(1))


def _end_inclusion(pr: PullbackResult, j: str) -> SSetMap:
    """X as the end X x j of its cylinder: each cell x as the pair (x, s_J j)."""
    X, at = pr.proj_left.target, pr.proj_right.target.position(j)
    table = [
        [_pair_key(pr._keys, k, (), p, tuple(range(k - 1, -1, -1)), at) for p in range(n)]
        for k, n in enumerate(X.counts())
    ]
    return SSetMap._trusted(X, pr.space, table)


def _glue_point(end: SSetMap) -> PushoutResult:
    """The target of the injective ``end`` with a point glued along it; the
    point is the first vertex, ``g0_0``."""
    return pushout(constant_map(end.source, standard_simplex(0), "0"), end)


def cone(X: FiniteSSet) -> FiniteSSet:
    """The cone: the apex glued along the far end of the cylinder."""
    if X.top_dim < 0:
        raise ValidationError("cone of the empty simplicial set is not supported")
    space = _glue_point(_end_inclusion(cylinder(X), "1")).space
    return pointed(space, space.cells[0][0])


def unreduced_suspension(X: FiniteSSet) -> FiniteSSet:
    """A cone point glued along each cylinder end, end 0 first; pointed at
    the cone point of end 1."""
    if X.top_dim < 0:
        raise ValidationError("suspension of the empty simplicial set is not supported")
    pr = cylinder(X)
    bottom = _glue_point(_end_inclusion(pr, "0"))
    space = _glue_point(bottom.from_right.compose(_end_inclusion(pr, "1"))).space
    return pointed(space, space.cells[0][0])


@dataclass
class SuspensionData:
    """The reduced suspension of a pointed ``source``, with the positions of
    the prism cells of each of its simplices (see ``comparison``)."""

    space: FiniteSSet  # pointed
    source: FiniteSSet  # pointed
    _prism: dict = field(repr=False)  # name -> positions of its prism cells

    def comparison(self, k: int) -> IntMat:
        """The prism comparison Ñ_k(X) -> Ñ_{k+1}(ΣX) of the suspended X.

        A k-simplex x sweeps out the (k+1)-chain sum of its prism cells
        ``(s_i x, s_{J_i} ι)``, i = 0..k, the staircases of x × Δ¹, with the
        sign (-1)^(k+i): alternating signs and a degree twist that make the
        assignment commute with the boundaries once both cylinder ends die
        in the suspension.  The prism cells of a simplex other than the
        basepoint are cells of ΣX, each of its own, so the comparison is a
        signed selection: column x has the entry (-1)^(k+i) in the row of
        its i-th prism cell and nothing else.  Columns follow the reduced
        chain basis of X in degree k, rows that of ΣX in degree k + 1.
        """
        rows = len(chain_basis(self.space, k + 1, reduced=True))
        signs = [-1 if (k + i) % 2 else 1 for i in range(k + 1)]
        columns = [
            dict(zip(self._prism[name], signs))
            for name in chain_basis(self.source, k, reduced=True)
        ]
        return IntMat.of_columns(rows, columns)


def reduced_suspension_data(X: FiniteSSet) -> SuspensionData:
    """ΣX written down cell by cell from the cells of X, with its prism cells.

    Level k lists its cells in the cylinder's pair order (I, x, J), first
    the cells (x, s_J ι) of the k-simplices, then the prism cells
    (s_i x, s_{J_i} ι) of the (k-1)-simplices, i increasing.  A face is the
    pair of the faces of both sides, as (word, position) keys, made a cell by
    the pair rule, unless it lies in the collapsed subcomplex: then it is
    the basepoint.  The cells are counted against the budget of ``build``
    before any level is listed.
    """
    if X.basepoint is None:
        raise ValidationError("reduced suspension needs a basepoint")
    size = 1 + sum(2 * X.dim_of(x) + 1 for x in X.names if x != X.basepoint)
    budget = _budget(None)
    if size > budget:
        raise EnumerationLimit(f"reduced suspension exceeds {budget} nondegenerate simplices")
    point = _level_names("g", 0, 1)[0]
    base = X.position(X.basepoint)  # in level 0
    iota = 0  # the position of the edge of Δ¹, the base of every Δ¹ side
    cells = [[point]]
    table: list[list[tuple]] = [[()]]
    # Per level, (I, x, J, ι) of a cell (s_I x, s_J ι), x and ι positions in
    # their levels -> the position of the cell; no pair lies in level 0.
    keys: list[dict] = [{} for _ in range(X.top_dim + 2)]
    prism: dict[str, list[int]] = {}  # x -> positions of its prism cells
    face_key = X.face_key
    for k in range(1, X.top_dim + 2):
        words = sorted(degeneracy_words(k, 1))
        pairs = [((), x, J) for x in range(len(X.nondeg(k))) for J in words]
        pairs += [
            ((i,), x, tuple(j for j in range(k - 1, -1, -1) if j != i))
            for i in range(k)
            for x in range(len(X.nondeg(k - 1)))
            if (k, x) != (1, base)
        ]
        cells.append(_level_names("g", k, len(pairs)))
        collapsed = (tuple(range(k - 2, -1, -1)), 0)  # the basepoint in dimension k - 1
        memo: dict = {}  # key of the X side's face, word of ι's -> face
        rows = []
        for pos, (I, x, J) in enumerate(pairs):
            keys[k][I, x, J, iota] = pos
            if I:
                prism.setdefault(X.cells[k - 1][x], []).append(pos)
            row = []
            for i in range(k + 1):
                # On a vertex of ι, or over the basepoint: collapsed.
                word, j = face_of_word(J, k, i)
                if j is not None:
                    row.append(collapsed)
                    continue
                wx, fx = face_key(I, x, k, i)
                if len(wx) == k - 1 and fx == base:
                    row.append(collapsed)
                    continue
                face = memo.get((wx, fx, word))
                if face is None:
                    face = memo[wx, fx, word] = _pair_key(keys, k - 1, wx, fx, word, iota)
                row.append(face)
            rows.append(tuple(row))
        table.append(rows)
    space = FiniteSSet._trusted(cells, table, point)
    return SuspensionData(space, X, prism)


def reduced_suspension(X: FiniteSSet) -> FiniteSSet:
    """The cylinder X × Δ¹ modulo both ends and the basepoint line.

    Its cells are the pairs ``(x, s_J ι)`` and the prism cells
    ``(s_i x, s_{J_i} ι)`` of the simplices x of X other than the
    basepoint, named in the cylinder's pair order, with the basepoint
    ``g0_0``; the faces come from those of X (see the module docstring).
    Nothing is collapsed: the cells that the quotient would collapse are
    never listed.
    """
    return reduced_suspension_data(X).space


# -- squares of simplicial sets --------------------------------------------


SSetSquare = ChainSquare  # a strictly commuting square of simplicial sets


# The squares built below commute by construction, so they skip the check.
def identity_square(X: FiniteSSet) -> SSetSquare:
    i = SSetMap.identity_map(X)
    return _unchecked(SSetSquare, i, i, i, i)


def pushout_square(f: SSetMap, g: SSetMap) -> SSetSquare:
    """The strict pushout of a span, packaged as a square.

    One leg must be dimensionwise injective; ``pushout`` raises
    ``ValidationError`` on a span with neither.
    """
    po = pushout(f, g)
    return _unchecked(SSetSquare, f, g, po.from_left, po.from_right)


def interval_collapse_square() -> SSetSquare:
    """The pushout of ``Δ⁰ <- ∂Δ¹ -> Δ¹``: both ends of the interval
    collapsed to one point, a circle."""
    ends = boundary(1)
    return pushout_square(
        constant_map(ends, standard_simplex(0), "0"),
        SSetMap.inclusion(ends, standard_simplex(1)),
    )


def chain_square_of(sq: SSetSquare, reduced: bool = False) -> ChainSquare:
    """The square of (reduced) normalized chains, each distinct corner's
    complex built once.  Corners are matched by identity, then by equality,
    since a square can hold equal corners as distinct objects (a record that
    names one space twice, say)."""
    chains = reduced_normalized_chains if reduced else normalized_chains
    corners = (sq.w, sq.u, sq.v, sq.x)
    # The position of the first corner that each corner is, or equals.
    first = [next(j for j, Z in enumerate(corners) if Z is Y or Z == Y) for Y in corners]
    built = {j: chains(corners[j]) for j in dict.fromkeys(first)}
    cw, cu, cv, cx = (built[j] for j in first)
    # Chains are a functor, so the square of chain maps commutes as sq does.
    return _unchecked(
        ChainSquare,
        _map_of(sq.w_to_u, cw, cu, reduced),
        _map_of(sq.w_to_v, cw, cv, reduced),
        _map_of(sq.u_to_x, cu, cx, reduced),
        _map_of(sq.v_to_x, cv, cx, reduced),
    )


# -- double mapping cylinder -----------------------------------------------


@dataclass
class DoubleMappingCylinder:
    """Homotopy pushout model of a span ``U <- W -> V``, and its map to any
    cocone corner: ``gluing`` is ``U`` glued to ``W x Δ¹`` along ``W x 0``,
    and ``second_gluing`` glues ``V`` to that along ``W x 1``."""

    space: FiniteSSet
    cylinder: PullbackResult
    gluing: PushoutResult
    second_gluing: PushoutResult

    def corner_comparison(self, to_u: SSetMap, to_v: SSetMap, w_composite: SSetMap) -> SSetMap:
        """The map the two gluings induce to a cocone corner: ``to_u`` and
        ``to_v`` on the feet, and on the cylinder its projection to ``W``
        followed by ``w_composite``, the common composite from ``W``."""
        collapse = w_composite.compose(self.cylinder.proj_left)
        half = self.gluing.induced(collapse, to_u)
        return self.second_gluing.induced(half, to_v)


def double_mapping_cylinder(f: SSetMap, g: SSetMap) -> DoubleMappingCylinder:
    if f.source != g.source:
        raise ValidationError("double mapping cylinder needs a shared source")
    pr = cylinder(f.source)
    gluing = pushout(_end_inclusion(pr, "0"), f)
    second = pushout(gluing.from_left.compose(_end_inclusion(pr, "1")), g)
    return DoubleMappingCylinder(second.space, pr, gluing, second)


def is_homology_pushout(sq: SSetSquare) -> bool:
    """Is the comparison from the cylinder model to the corner a homology
    isomorphism?"""
    dmc = double_mapping_cylinder(sq.w_to_u, sq.w_to_v)
    comp = dmc.corner_comparison(
        sq.u_to_x, sq.v_to_x, sq.u_to_x.compose(sq.w_to_u)
    )
    return quasi_iso(chain_map_of(comp))


@dataclass(frozen=True)
class ExcisionReport:
    square_is_pushout: bool
    chain_bicartesian: bool

    @property
    def consistent(self) -> bool:
        """Pushout squares must have bicartesian chain images."""
        return (not self.square_is_pushout) or self.chain_bicartesian

    def to_record(self) -> dict:
        return {
            "square_is_pushout": self.square_is_pushout,
            "chain_bicartesian": self.chain_bicartesian,
            "consistent": self.consistent,
        }


def excision_check(sq: SSetSquare) -> ExcisionReport:
    return ExcisionReport(
        is_homology_pushout(sq),
        is_homotopy_bicartesian(chain_square_of(sq)),
    )


# -- covers ----------------------------------------------------------------


@dataclass
class CoverData:
    """A cover of a simplicial set by two subcomplexes."""

    X: FiniteSSet
    U: FiniteSSet
    V: FiniteSSet
    W: FiniteSSet = field(init=False)

    def __post_init__(self):
        if not is_name_subcomplex(self.X, self.U):
            raise ValidationError("first cover piece is not a subcomplex")
        if not is_name_subcomplex(self.X, self.V):
            raise ValidationError("second cover piece is not a subcomplex")
        self.W = _overlap(self.X, self.U, self.V)


def _overlap(X: FiniteSSet, U: FiniteSSet, V: FiniteSSet) -> FiniteSSet:
    """The intersection of two subcomplexes of ``X`` that cover it."""
    covered = set(U.names) | set(V.names)
    if covered != set(X.names):
        missing = sorted(set(X.names) - covered)
        raise ValidationError(f"cover misses simplices: {missing}")
    # U and V are subcomplexes, so their intersection needs no check.
    return subcomplex(X, set(U.names) & set(V.names), check_closed=False)


def cover_from_names(X: FiniteSSet, u_names, v_names) -> CoverData:
    """Build a cover from generator names, closing each piece under faces."""
    U = subcomplex(X, face_closure(X, u_names), check_closed=False)
    V = subcomplex(X, face_closure(X, v_names), check_closed=False)
    # Face-closed parts of X are subcomplexes of it by construction.
    return _unchecked(CoverData, X, U, V, _overlap(X, U, V))


@dataclass
class CoverSES:
    """The inclusion sequence 0 -> N(W) -> N(U) + N(V) -> N(X) -> 0."""

    cover: CoverData
    reduced: bool
    into: ChainMap  # 0 -> N(W)
    left: ChainMap  # (i_WU, i_WV)
    right: ChainMap  # i_UX - i_VX
    out: ChainMap  # N(X) -> 0

    @property
    def maps(self) -> tuple[ChainMap, ...]:
        return (self.into, self.left, self.right, self.out)

    def verify(self) -> dict:
        lows = [m.source.low for m in self.maps[1:]]
        highs = [m.source.high for m in self.maps[1:]]
        return check_exact_sequence(self.maps, min(lows) - 1, max(highs) + 1)

    def is_exact(self) -> bool:
        return all(self.verify().values())


def _pointed_copy(cd: CoverData) -> tuple[FiniteSSet, FiniteSSet, FiniteSSet, FiniteSSet]:
    vertices = cd.W.nondeg(0)
    if not vertices:
        raise ValidationError("reduced cover sequence needs a vertex in the overlap")
    bp = cd.X.basepoint if cd.X.basepoint in vertices else vertices[0]
    return (
        pointed(cd.X, bp),
        pointed(cd.U, bp),
        pointed(cd.V, bp),
        pointed(cd.W, bp),
    )


def cover_short_exact_sequence(cd: CoverData, reduced: bool = False) -> CoverSES:
    """The ``square_sequence`` of the (reduced) chain square of the cover's
    square of inclusions."""
    # The pointed copies share one basepoint, which the inclusions keep.
    X, U, V, W = _pointed_copy(cd) if reduced else (cd.X, cd.U, cd.V, cd.W)
    # W lies in U and V, and they in X, as CoverData checked; inclusions commute.
    sq = _unchecked(
        SSetSquare, _inclusion(W, U), _inclusion(W, V), _inclusion(U, X), _inclusion(V, X)
    )
    alpha, beta = square_sequence(chain_square_of(sq, reduced))
    into, out = zero_map(zero_complex(), alpha.source), zero_map(beta.target, zero_complex())
    return CoverSES(cd, reduced, into, alpha, beta, out)


# -- Mayer-Vietoris --------------------------------------------------------


@dataclass(frozen=True)
class LESEntry:
    degree: int
    tag: str  # "X_shifted" | "W" | "U_plus_V" | "X"
    group: HomologyGroup


@dataclass
class LongExactSequence:
    entries: tuple[LESEntry, ...]
    maps: tuple[IntMat, ...]  # on the generators each presentation keeps
    exact: tuple[bool, ...]  # exactness at entries[1:], tail included
    reduced: bool

    def group(self, degree: int, tag: str) -> HomologyGroup:
        for e in self.entries:
            if e.degree == degree and e.tag == tag:
                return e.group
        raise KeyError((degree, tag))

    @property
    def all_exact(self) -> bool:
        return all(self.exact)

    def to_record(self) -> dict:
        return {
            "reduced": self.reduced,
            "entries": [
                {
                    "degree": e.degree,
                    "position": e.tag,
                    "rank": e.group.rank,
                    "torsion": list(e.group.torsion),
                }
                for e in self.entries
            ],
            "maps": [m.to_lists() for m in self.maps],
            "exact": list(self.exact),
        }


def _connecting(
    beta: ChainMap,
    alpha: ChainMap,
    n: int,
    pres_x: HomologyPresentation,
    pres_w: HomologyPresentation,
) -> IntMat:
    """Snake construction of the boundary map H_{n+1}(X) -> H_n(W)."""
    ZX = pres_x[0]
    ZW = pres_w[0]
    if ZX.cols == 0 or ZW.cols == 0:
        return IntMat.zero(ZW.cols, ZX.cols)
    lift = solve(beta.block(n + 1), ZX)
    if lift is None:
        raise ValidationError("cover sequence is not levelwise surjective")
    bdry = beta.source.boundary(n + 1) @ lift
    back = solve(alpha.block(n), bdry)
    if back is None:
        raise ValidationError("snake boundary does not come from the overlap")
    coords = pres_w[2](back)
    if coords is None:
        raise ValidationError("snake boundary is not a cycle")
    return coords


def mayer_vietoris(
    cd: CoverData, top_degree: int, reduced: bool = False
) -> LongExactSequence:
    if top_degree < 0:
        raise ValidationError(f"top degree {top_degree} is negative")
    ses = cover_short_exact_sequence(cd, reduced=reduced)
    alpha, beta = ses.left, ses.right
    cW, cUV, cX = alpha.source, beta.source, beta.target
    # Each complex is reduced once (``ChainComplex.reduction``), on its first
    # presentation, and every degree reads that reduction.
    pres_w = {n: homology_presentation(cW, n) for n in range(top_degree + 1)}
    pres_uv = {n: homology_presentation(cUV, n) for n in range(top_degree + 1)}
    pres_x = {n: homology_presentation(cX, n) for n in range(top_degree + 2)}

    entries = [
        LESEntry(top_degree, "X_shifted", pres_x[top_degree + 1][1].normal_form())
    ]
    maps: list[IntMat] = []
    pres_flat = [pres_x[top_degree + 1][1]]
    for n in range(top_degree, -1, -1):
        maps.append(_connecting(beta, alpha, n, pres_x[n + 1], pres_w[n]))
        entries.append(LESEntry(n, "W", pres_w[n][1].normal_form()))
        pres_flat.append(pres_w[n][1])
        maps.append(induced_map(alpha, n, src=pres_w[n], tgt=pres_uv[n]))
        entries.append(LESEntry(n, "U_plus_V", pres_uv[n][1].normal_form()))
        pres_flat.append(pres_uv[n][1])
        maps.append(induced_map(beta, n, src=pres_uv[n], tgt=pres_x[n]))
        entries.append(LESEntry(n, "X", pres_x[n][1].normal_form()))
        pres_flat.append(pres_x[n][1])

    trivial = PresentedGroup(0, IntMat.zero(0, 0))
    exact = []
    for i in range(1, len(entries)):
        left = maps[i - 1]
        middle = pres_flat[i]
        if i < len(maps):
            right = maps[i]
            target = pres_flat[i + 1]
        else:
            right = IntMat.zero(0, middle.gens)
            target = trivial
        exact.append(exact_at(left, middle, right, target))
    return LongExactSequence(tuple(entries), tuple(maps), tuple(exact), reduced)


# -- the identity-functor counterexample -----------------------------------


@dataclass(frozen=True)
class CounterexampleReport:
    """Numerical ingredients showing the identity functor is not excisive.

    The interval collapsing to the circle is a homology pushout, but the
    strict pullback of the collapsed square has a disconnected corner: its
    rank-2 degree-0 homology against the circle's infinite H_1 is the size
    mismatch at the heart of the argument.
    """

    pullback_H0_rank: int
    corner_H1: HomologyGroup
    square_is_pushout: bool
    pullback_counts: tuple[int, ...]

    def to_record(self) -> dict:
        return {
            "pullback_H0_rank": self.pullback_H0_rank,
            "corner_H1": {
                "rank": self.corner_H1.rank,
                "torsion": list(self.corner_H1.torsion),
            },
            "square_is_pushout": self.square_is_pushout,
            "pullback_counts": list(self.pullback_counts),
        }


def identity_counterexample_report() -> CounterexampleReport:
    pushout_ok = is_homology_pushout(interval_collapse_square())
    circle_q = quotient(standard_simplex(1), boundary(1))
    circle = circle_q.space
    vertex_in = constant_map(standard_simplex(0), circle, circle.basepoint)
    pb = sset_pullback(vertex_in, circle_q.projection)
    h0 = homology(normalized_chains(pb.space), 0)
    h1 = homology(normalized_chains(circle), 1)
    return CounterexampleReport(
        h0.rank, h1, pushout_ok, pb.space.counts()
    )
