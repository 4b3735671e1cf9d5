"""Reference constructions by materialize-and-strip.

A levelwise system lists every element of each level, degenerate ones
included, with its faces and degeneracies.  :func:`extract` sorts each level
by :func:`canon_key`, keeps an element as nondegenerate unless some
``s_i d_i e = e`` with ``i < k``, and names the kept ones in that order.  The
tests build pullbacks, pushouts and function complexes this way and compare
them with the direct constructions of ``ssetkit``.

``HomSystem`` and ``FiberSystem`` list the maps ``X x Delta^k -> Y`` and find
each face and degeneracy by composing with ``id_X x alpha``, a map the
product induces from its projections.
"""

from dataclasses import dataclass

from ssetkit.build import _level_names, product
from ssetkit.function_complex import enumerate_maps
from ssetkit.sset import (
    FiniteSSet,
    SSetMap,
    Simplex,
    _subset_name,
    simplex_as_map,
    standard_simplex,
)


def point_simplex(name: str, k: int) -> Simplex:
    """The k-fold degenerate vertex ``name``."""
    return Simplex(tuple(range(k - 1, -1, -1)), name, k)


def canon_key(e):
    if isinstance(e, Simplex):
        return ("s", e.dim, e.degeneracies, e.base)
    if isinstance(e, SSetMap):
        return ("m",) + tuple((n, canon_key(s)) for n, s in sorted(e.images.items()))
    if isinstance(e, tuple):
        return ("t",) + tuple(canon_key(x) for x in e)
    return ("a", e)


@dataclass
class Extraction:
    """A nondegenerate presentation of a levelwise system of simplices."""

    space: FiniteSSet
    to_simplex: dict  # (dim, element) -> Simplex
    from_name: dict  # name -> element

    def simplex_of(self, k: int, elem) -> Simplex:
        return self.to_simplex[(k, elem)]


def extract(system, top: int, prefix: str = "c") -> Extraction:
    to_simplex: dict = {}
    cells: list[list[str]] = []
    faces: dict[str, tuple[Simplex, ...]] = {}
    from_name: dict = {}
    for k in range(top + 1):
        elems = sorted(system.elements(k), key=canon_key)
        nondeg = []
        for e in elems:
            witness = None
            for i in range(k):
                d = system.face(k, e, i)
                if system.degeneracy(k - 1, d, i) == e:
                    witness = (i, d)
                    break
            if witness is None:
                nondeg.append(e)
            else:
                i, d = witness
                to_simplex[(k, e)] = to_simplex[(k - 1, d)].degenerate((i,))
        level = _level_names(prefix, k, len(nondeg))
        for e, name in zip(nondeg, level):
            to_simplex[(k, e)] = Simplex((), name, k)
            from_name[name] = e
            if k > 0:
                faces[name] = tuple(
                    to_simplex[(k - 1, system.face(k, e, i))] for i in range(k + 1)
                )
        cells.append(level)
    return Extraction(FiniteSSet(cells, faces, check=False), to_simplex, from_name)


class HomSystem:
    """Levelwise system whose k-elements are maps ``X x Delta^k -> Y``."""

    def __init__(self, X: FiniteSSet, Y: FiniteSSet, max_candidates: int | None):
        self.X = X
        self.Y = Y
        self.max_candidates = max_candidates
        self._products: dict[int, object] = {}
        self._cross: dict[tuple[Simplex, int], SSetMap] = {}

    def prism(self, k: int):
        if k not in self._products:
            self._products[k] = product(self.X, standard_simplex(k))
        return self._products[k]

    def cross(self, sx: Simplex, cod: int) -> SSetMap:
        """``id_X x alpha`` between the prism spaces, for the monotone map
        ``alpha`` into ``[cod]`` that classifies the simplex ``sx`` of
        ``Delta^cod``."""
        key = (sx, cod)
        if key not in self._cross:
            src = self.prism(sx.dim)
            dst = self.prism(cod)
            alpha = simplex_as_map(standard_simplex(cod), sx)
            self._cross[key] = dst.induced(
                src.proj_left, alpha.compose(src.proj_right)
            )
        return self._cross[key]

    def elements(self, k: int):
        return enumerate_maps(self.prism(k).space, self.Y, self.max_candidates)

    def face(self, k: int, h: SSetMap, i: int) -> SSetMap:
        # d_i classifies the (k-1)-face of Delta^k that misses vertex i.
        wall = _subset_name(tuple(v for v in range(k + 1) if v != i))
        return h.compose(self.cross(Simplex((), wall, k - 1), k))

    def degeneracy(self, k: int, h: SSetMap, i: int) -> SSetMap:
        # s_i classifies s_i of the top simplex of Delta^k.
        top = _subset_name(tuple(range(k + 1)))
        return h.compose(self.cross(Simplex((i,), top, k + 1), k))


class FiberSystem(HomSystem):
    """The maps ``Delta^1 x Delta^k -> C`` that are constant at ``x`` on
    ``0 x Delta^k`` and at ``y`` on ``1 x Delta^k``.

    Faces and degeneracies act on the ``Delta^k`` factor only, so they keep
    both ends constant: these maps form a simplicial subset of
    hom(Delta^1, C).
    """

    def __init__(self, C: FiniteSSet, x: str, y: str, max_candidates: int | None):
        super().__init__(standard_simplex(1), C, max_candidates)
        self.ends = {"0": x, "1": y}

    def end_images(self, k: int) -> dict[str, Simplex]:
        """The images of the cells on the two ends of the k-th prism."""
        # The cells of an end are those projecting onto a vertex of Delta^1.
        return {
            name: point_simplex(self.ends[sx.base], sx.dim)
            for name, sx in self.prism(k).proj_left.images.items()
            if sx.base in self.ends
        }

    def elements(self, k: int):
        return enumerate_maps(
            self.prism(k).space, self.Y, self.max_candidates, self.end_images(k)
        )


def oracle_internal_hom(X: FiniteSSet, Y: FiniteSSet, d: int) -> FiniteSSet:
    return extract(HomSystem(X, Y, None), d, prefix="h").space


def oracle_mapping_space(C: FiniteSSet, x: str, y: str, d: int) -> FiniteSSet:
    return extract(FiberSystem(C, x, y, None), d, prefix="f").space
