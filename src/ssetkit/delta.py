"""The simplex category: monotone maps between finite ordinals.

An object ``[n]`` is the ordered set ``{0, ..., n}``.  A morphism is a
nondecreasing function, stored by its value table.  Every morphism factors
uniquely as a surjection followed by an injection; the surjection is the
composite of elementary collapses (one per repeated position) and the
injection is determined by the missed indices.  ``MonotoneMap`` serves the
action of a general monotone map (``FiniteSSet.act``, ``standard_map``,
Dold-Kan).

Faces and degeneracies of degenerate simplices never need a general map.
A degenerate simplex is ``s_J x`` for a strictly decreasing degeneracy word
``J``, and the simplicial identities rewrite ``d_i s_J`` and ``s_K s_J``
into normal form straight from the words: :func:`face_of_word` and
:func:`compose_words`.  Both are memoized on words and small integers only,
so their tables stay small however many simplices pass through them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

from .errors import ValidationError

__all__ = [
    "MonotoneMap",
    "identity",
    "face_map",
    "degeneracy_map",
    "compose_monotone",
    "epi_mono_factor",
    "factor_maps",
    "epi_of_word",
    "mono_of_word",
    "word_of_epi",
    "monotone_maps",
    "injective_maps",
    "surjective_maps",
    "face_of_word",
    "compose_words",
]


@dataclass(frozen=True)
class MonotoneMap:
    """A nondecreasing map ``[dom] -> [cod]`` given by its values."""

    dom: int
    cod: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.dom < 0 or self.cod < 0:
            raise ValidationError("ordinals must be nonnegative")
        if len(self.values) != self.dom + 1:
            raise ValidationError(
                f"expected {self.dom + 1} values, got {len(self.values)}"
            )
        for v in self.values:
            if not 0 <= v <= self.cod:
                raise ValidationError(f"value {v} outside [0, {self.cod}]")
        if any(a > b for a, b in zip(self.values, self.values[1:])):
            raise ValidationError(f"values {self.values} are not nondecreasing")

    def __call__(self, k: int) -> int:
        return self.values[k]

    @property
    def is_injective(self) -> bool:
        return all(a < b for a, b in zip(self.values, self.values[1:]))

    @property
    def is_surjective(self) -> bool:
        return set(self.values) == set(range(self.cod + 1))

    @property
    def is_identity(self) -> bool:
        return self.dom == self.cod and all(v == k for k, v in enumerate(self.values))


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


def epi_mono_factor(f: MonotoneMap) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Unique factorization of ``f`` as a surjection followed by an injection.

    Returns ``(degeneracy_word, face_word)``: the degeneracy word lists the
    repeated positions of ``f`` in strictly decreasing order (the normal form
    in which elementary collapses act on a simplex), the face word lists the
    missed indices of the image in strictly increasing order.
    """
    repeats = tuple(
        j for j in range(f.dom) if f.values[j] == f.values[j + 1]
    )
    image = set(f.values)
    missed = tuple(i for i in range(f.cod + 1) if i not in image)
    return tuple(reversed(repeats)), missed


def epi_of_word(word: tuple[int, ...], dom: int) -> MonotoneMap:
    """The surjection ``[dom] ->> [dom - len(word)]`` collapsing at ``word``.

    ``word`` is a strictly decreasing tuple of collapse positions, matching
    the normal form produced by :func:`epi_mono_factor`.
    """
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


# -- degeneracy words --------------------------------------------------------


_FACE_OF_WORD: dict = {}
_COMPOSE_WORDS: dict = {}


def _check_word(word: tuple[int, ...], n: int) -> None:
    """``word`` must be a strictly decreasing word of indices below ``n``."""
    if any(a <= b for a, b in zip(word, word[1:])):
        raise ValidationError(f"degeneracy word {word} is not strictly decreasing")
    if word and not (word[0] < n and word[-1] >= 0):
        raise ValidationError(f"degeneracy word {word} invalid in dimension {n}")


def face_of_word(
    word: tuple[int, ...], n: int, i: int
) -> tuple[tuple[int, ...], int | None]:
    """Normal form of ``d_i s_word`` on n-simplices.

    Returns ``(word', j)`` when ``d_i s_word = s_word' d_j``, and
    ``(word', None)`` when the face dies in the word, ``d_i s_word = s_word'``.
    The face dies exactly when ``i`` or ``i - 1`` is a collapse position:
    that position (``i`` first) drops out and the ones above it move down.
    Otherwise ``d_i`` passes through the word onto the index ``i`` less the
    number of collapse positions below it.
    """
    key = (word, n, i)
    out = _FACE_OF_WORD.get(key)
    if out is None:
        _check_word(word, n)
        if not 0 <= i <= n:
            raise ValidationError(f"face index {i} outside [0, {n}]")
        if i in word or i - 1 in word:
            gone = i if i in word else i - 1
            out = (tuple(k if k < gone else k - 1 for k in word if k != gone), None)
        else:
            below = sum(1 for k in word if k < i)
            out = (tuple(k if k < i else k - 1 for k in word), i - below)
        _FACE_OF_WORD[key] = out
    return out


def compose_words(
    inner: tuple[int, ...], outer: tuple[int, ...], n: int
) -> tuple[int, ...]:
    """Normal form of ``s_outer s_inner``, landing in dimension ``n``.

    The collapse positions of the composite are those of ``outer`` and the
    positions ``k`` outside ``outer`` that the collapse of ``outer`` sends
    onto a position of ``inner``.
    """
    key = (inner, outer, n)
    out = _COMPOSE_WORDS.get(key)
    if out is None:
        _check_word(outer, n)
        _check_word(inner, n - len(outer))
        positions = []
        v = 0  # the image of k under the collapse of outer
        for k in range(n):
            if k in outer:
                positions.append(k)
            else:
                if v in inner:
                    positions.append(k)
                v += 1
        out = _COMPOSE_WORDS[key] = tuple(reversed(positions))
    return out
