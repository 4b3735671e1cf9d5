"""Exhaustive map enumeration and truncated function complexes.

Enumeration backtracks over nondegenerate simplices in ascending dimension;
a candidate image is kept only if its faces agree with the already-assigned
images, so every emitted assignment is a simplicial map by construction.
A global candidate budget guards against combinatorial blowups.

Function complexes are genuine simplicial sets of maps: a k-simplex of
hom(X, Y) is a map X x Delta^k -> Y.  They can be nonempty in every
dimension, hence the mandatory truncation.
"""

from __future__ import annotations

from .build import _extract, product, sset_pullback
from .delta import MonotoneMap, degeneracy_map, face_map, factor_maps, word_of_epi
from .errors import EnumerationLimit, ValidationError
from .sset import (
    FiniteSSet,
    SSetMap,
    Simplex,
    simplex_as_map,
    standard_simplex,
    _push_epi,
    _subset_name,
)

__all__ = [
    "DEFAULT_MAX_CANDIDATES",
    "enumerate_maps",
    "standard_map",
    "internal_hom_truncated",
    "mapping_space",
]

DEFAULT_MAX_CANDIDATES = 10**6


def enumerate_maps(
    X: FiniteSSet, Y: FiniteSSet, max_candidates: int | None = None
) -> list[SSetMap]:
    """All simplicial maps ``X -> Y``, duplicate-free.

    Basepoints are ignored; filter afterwards if pointed maps are wanted.
    """
    guard = DEFAULT_MAX_CANDIDATES if max_candidates is None else max_candidates
    slots = [
        (k, name) for k in range(X.top_dim + 1) for name in X.nondeg(k)
    ]
    # Faces of each generator, split into base name plus collapse word, and
    # the candidate images per dimension with their face tuples: both are
    # fixed for the whole search, so compute them once up front.
    slot_faces: list[list[tuple[str, MonotoneMap | None]] | None] = []
    for k, name in slots:
        if k == 0:
            slot_faces.append(None)
            continue
        me = Simplex((), name, k)
        faces = [X.face(me, i) for i in range(k + 1)]
        slot_faces.append(
            [(f.base, f.collapse() if f.degeneracies else None) for f in faces]
        )
    cands: dict[int, list[tuple[Simplex, tuple[Simplex, ...]]]] = {}
    for k in sorted({k for k, _ in slots}):
        cands[k] = [
            (c, tuple(Y.face(c, i) for i in range(k + 1)) if k else ())
            for c in Y.all_simplices(k)
        ]
    results: list[SSetMap] = []
    images: dict[str, Simplex] = {}
    pushed: dict[tuple[Simplex, MonotoneMap], Simplex] = {}
    tried = 0

    def partial_apply(base: str, epi: MonotoneMap | None) -> Simplex:
        img = images[base]
        if epi is None:
            return img
        got = pushed.get((img, epi))
        if got is None:
            got = _push_epi(img, epi)
            pushed[(img, epi)] = got
        return got

    def backtrack(idx: int):
        nonlocal tried
        if idx == len(slots):
            results.append(SSetMap(X, Y, dict(images), check=False))
            return
        k, name = slots[idx]
        ops = slot_faces[idx]
        want = (
            tuple(partial_apply(base, epi) for base, epi in ops)
            if ops is not None
            else None
        )
        for cand, cand_faces in cands[k]:
            tried += 1
            if tried > guard:
                raise EnumerationLimit(
                    f"map search exceeded {guard} candidate assignments"
                )
            if want is not None and cand_faces != want:
                continue
            images[name] = cand
            backtrack(idx + 1)
            del images[name]

    backtrack(0)
    return results


def standard_map(alpha: MonotoneMap) -> SSetMap:
    """The map of standard simplices induced by a monotone map."""
    epi, mono = factor_maps(alpha)
    sx = Simplex(word_of_epi(epi), _subset_name(mono.values), alpha.dom)
    return simplex_as_map(standard_simplex(alpha.cod), sx)


class _HomSystem:
    """Levelwise system whose k-elements are maps ``X x Delta^k -> Y``."""

    def __init__(self, X: FiniteSSet, Y: FiniteSSet, guard: int):
        self.X = X
        self.Y = Y
        self.guard = guard
        self._products: dict[int, object] = {}
        self._cross: dict[MonotoneMap, SSetMap] = {}

    def prism(self, k: int):
        if k not in self._products:
            self._products[k] = product(self.X, standard_simplex(k))
        return self._products[k]

    def cross(self, alpha: MonotoneMap) -> SSetMap:
        """``id_X x alpha`` between the prism spaces."""
        if alpha not in self._cross:
            src = self.prism(alpha.dom)
            dst = self.prism(alpha.cod)
            self._cross[alpha] = dst.induced(
                src.proj_left, standard_map(alpha).compose(src.proj_right)
            )
        return self._cross[alpha]

    def elements(self, k: int):
        return enumerate_maps(self.prism(k).space, self.Y, self.guard)

    def face(self, k: int, h: SSetMap, i: int) -> SSetMap:
        return h.compose(self.cross(face_map(k, i)))

    def degeneracy(self, k: int, h: SSetMap, i: int) -> SSetMap:
        return h.compose(self.cross(degeneracy_map(k, i)))


def _hom_extraction(X: FiniteSSet, Y: FiniteSSet, d: int, guard: int):
    system = _HomSystem(X, Y, guard)
    return system, _extract(system, d, prefix="h")


def internal_hom_truncated(
    X: FiniteSSet, Y: FiniteSSet, d: int, max_candidates: int | None = None
) -> FiniteSSet:
    """The function complex ``Y^X`` up to dimension ``d``."""
    guard = DEFAULT_MAX_CANDIDATES if max_candidates is None else max_candidates
    _, ext = _hom_extraction(X, Y, d, guard)
    return ext.space


def mapping_space(
    C: FiniteSSet, x: str, y: str, d: int, max_candidates: int | None = None
) -> FiniteSSet:
    """The space of arrows from vertex ``x`` to vertex ``y``.

    Computed as the strict fiber of ``C^(Delta^1) -> C^(Delta^0) x
    C^(Delta^0)`` (restriction to the two endpoints) over the vertex
    pair picking out ``x`` and ``y``.
    """
    for v in (x, y):
        if v not in C.names or C.dim_of(v) != 0:
            raise ValidationError(f"{v!r} is not a vertex of the target")
    guard = DEFAULT_MAX_CANDIDATES if max_candidates is None else max_candidates
    edge_sys, edge_ext = _hom_extraction(standard_simplex(1), C, d, guard)
    vert_sys, vert_ext = _hom_extraction(standard_simplex(0), C, d, guard)

    def restriction(endpoint: int) -> SSetMap:
        incl = standard_map(MonotoneMap(0, 1, (endpoint,)))
        images = {}
        for name in edge_ext.space.names:
            h = edge_ext.from_name[name]
            k = edge_ext.space.dim_of(name)
            src = vert_sys.prism(k)
            dst = edge_sys.prism(k)
            cross_incl = dst.induced(
                incl.compose(src.proj_left), src.proj_right
            )
            images[name] = vert_ext.to_simplex[(k, h.compose(cross_incl))]
        return SSetMap(edge_ext.space, vert_ext.space, images)

    r0 = restriction(0)
    r1 = restriction(1)
    ends = product(vert_ext.space, vert_ext.space)
    both = ends.induced(r0, r1)

    def constant_vertex(v: str) -> Simplex:
        pt_prism = vert_sys.prism(0).space
        vname = pt_prism.nondeg(0)[0]
        elem = SSetMap(pt_prism, C, {vname: Simplex((), v, 0)}, check=False)
        return vert_ext.to_simplex[(0, elem)]

    corner = SSetMap(
        standard_simplex(0),
        ends.space,
        {"0": ends.pair_simplex(constant_vertex(x), constant_vertex(y))},
    )
    return sset_pullback(both, corner).space
