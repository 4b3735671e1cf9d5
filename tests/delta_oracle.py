"""Monotone maps by their value tables: the slow oracle of the word kernel.

The package runs the simplex category on degeneracy and face words
(``ssetkit.delta``).  These functions compose, factor and enumerate
``MonotoneMap`` values directly, so the tests can check every word rewrite,
the operator action of a simplicial set, the maps of standard simplices and
the Dold-Kan operators against plain composition of functions.
"""

from itertools import combinations, combinations_with_replacement

from ssetkit.delta import MonotoneMap, epi_mono_factor
from ssetkit.errors import ValidationError
from ssetkit.intmat import IntMat
from ssetkit.sset import SSetMap, Simplex, _subset_name, simplex_as_map, standard_simplex


def identity(n: int) -> MonotoneMap:
    return MonotoneMap(n, n, tuple(range(n + 1)))


def face_map(n: int, i: int) -> MonotoneMap:
    """The injection ``[n-1] -> [n]`` whose image misses ``i``."""
    if not 0 <= i <= n:
        raise ValidationError(f"face index {i} outside [0, {n}]")
    return MonotoneMap(n - 1, n, tuple(k if k < i else k + 1 for k in range(n)))


def degeneracy_map(n: int, i: int) -> MonotoneMap:
    """The surjection ``[n+1] -> [n]`` hitting ``i`` twice."""
    if not 0 <= i <= n:
        raise ValidationError(f"degeneracy index {i} outside [0, {n}]")
    return MonotoneMap(n + 1, n, tuple(k if k <= i else k - 1 for k in range(n + 2)))


def compose_monotone(f: MonotoneMap, g: MonotoneMap) -> MonotoneMap:
    """The composite ``f of g`` (apply ``g`` first)."""
    if g.cod != f.dom:
        raise ValidationError(f"cannot compose: cod(g)={g.cod} != dom(f)={f.dom}")
    return MonotoneMap(g.dom, f.cod, tuple(f.values[v] for v in g.values))


def epi_of_word(word: tuple[int, ...], dom: int) -> MonotoneMap:
    """The surjection ``[dom] ->> [dom - len(word)]`` collapsing at ``word``."""
    if any(a <= b for a, b in zip(word, word[1:])):
        raise ValidationError(f"degeneracy word {word} is not strictly decreasing")
    cod = dom - len(word)
    if cod < 0:
        raise ValidationError("degeneracy word longer than the domain")
    # Walk [dom] and drop one step at each collapse position.
    drop = set(word)
    values = []
    v = 0
    for k in range(dom + 1):
        values.append(v)
        if k not in drop:
            v += 1
    out = MonotoneMap(dom, cod, tuple(values))
    if not out.is_surjective:
        raise ValidationError(f"degeneracy word {word} invalid for domain [{dom}]")
    return out


def mono_of_word(word: tuple[int, ...], cod: int) -> MonotoneMap:
    """The injection into ``[cod]`` missing exactly the indices in ``word``."""
    missed = set(word)
    if len(missed) != len(word) or any(not 0 <= i <= cod for i in word):
        raise ValidationError(f"face word {word} invalid for codomain [{cod}]")
    hit = tuple(i for i in range(cod + 1) if i not in missed)
    return MonotoneMap(len(hit) - 1, cod, hit)


def word_of_epi(f: MonotoneMap) -> tuple[int, ...]:
    """Degeneracy word of a surjection, strictly decreasing."""
    if not f.is_surjective:
        raise ValidationError(f"{f} is not surjective")
    word, _ = epi_mono_factor(f)
    return word


def factor_maps(f: MonotoneMap) -> tuple[MonotoneMap, MonotoneMap]:
    """``f = mono of epi`` as actual maps."""
    dword, fword = epi_mono_factor(f)
    return epi_of_word(dword, f.dom), mono_of_word(fword, f.cod)


def monotone_maps(dom: int, cod: int):
    """All monotone maps ``[dom] -> [cod]``."""
    for values in combinations_with_replacement(range(cod + 1), dom + 1):
        yield MonotoneMap(dom, cod, values)


def injective_maps(dom: int, cod: int):
    for values in combinations(range(cod + 1), dom + 1):
        yield MonotoneMap(dom, cod, values)


def surjective_maps(dom: int, cod: int):
    """All monotone surjections ``[dom] ->> [cod]``."""
    if cod > dom:
        return
    # A surjection is a walk taking cod unit steps among dom step slots.
    for steps in combinations(range(dom), cod):
        up = set(steps)
        values = []
        v = 0
        for k in range(dom + 1):
            values.append(v)
            if k in up:
                v += 1
        yield MonotoneMap(dom, cod, tuple(values))


# -- the operator action ------------------------------------------------------


def act(X, sx: Simplex, alpha: MonotoneMap) -> Simplex:
    """``alpha^* sx``: compose the collapse of ``sx`` with ``alpha`` and
    factor the composite, then apply stored faces and collapse."""
    beta = compose_monotone(epi_of_word(sx.degeneracies, sx.dim), alpha)
    dword, fword = epi_mono_factor(beta)
    cur = Simplex((), sx.base, sx.base_dim)
    for i in reversed(fword):
        cur = X.face(cur, i)
    return cur.degenerate(dword)


def standard_map(alpha: MonotoneMap) -> SSetMap:
    """The map of standard simplices induced by a monotone map.

    It classifies the simplex ``s_J v`` of ``Delta^cod``, for ``alpha``
    factored as the degeneracy word ``J`` followed by the face ``v`` of
    ``Delta^cod`` on the image of ``alpha``.
    """
    dword, fword = epi_mono_factor(alpha)
    image = tuple(v for v in range(alpha.cod + 1) if v not in fword)
    sx = Simplex(dword, _subset_name(image), alpha.dom)
    return simplex_as_map(standard_simplex(alpha.cod), sx)


# -- Dold-Kan --------------------------------------------------------------------


def dold_kan_operators(c, cap: int):
    """The face and degeneracy matrices of ``dold_kan_K(c, cap)``, computed
    on summands indexed by surjections, by composing and factoring maps."""

    def summands(n):
        return [
            (eta, k)
            for k in range(n + 1)
            if c.rank(k)
            for eta in surjective_maps(n, k)
        ]

    def mono_block(eps):
        if eps.dom == eps.cod:
            return IntMat.identity(c.rank(eps.cod))
        if eps.dom == eps.cod - 1 and eps.values[0] == 1:
            return c.boundary(eps.cod)
        return None

    def operator(src, dst, alpha):
        row_offsets = {}
        total_rows = 0
        for eta, k in dst:
            row_offsets[(eta.values, k)] = total_rows
            total_rows += c.rank(k)
        columns = []
        for eta, k in src:
            epi, mono = factor_maps(compose_monotone(eta, alpha))
            block = mono_block(mono)
            r0 = row_offsets.get((epi.values, epi.cod))
            if block is None or r0 is None:
                columns.extend({} for _ in range(c.rank(k)))
            else:
                columns.extend(
                    {r + r0: x for r, x in col.items()} for col in block.columns
                )
        return IntMat.of_columns(total_rows, columns)

    levels = [summands(n) for n in range(cap + 1)]
    faces = tuple(
        tuple(
            operator(levels[n], levels[n - 1], face_map(n, i)) for i in range(n + 1)
        )
        for n in range(1, cap + 1)
    )
    degeneracies = tuple(
        tuple(
            operator(levels[n], levels[n + 1], degeneracy_map(n, i))
            for i in range(n + 1)
        )
        for n in range(cap)
    )
    return faces, degeneracies
