"""The simplex category, run on degeneracy and face words.

An object ``[n]`` is the ordered set ``{0, ..., n}``.  Every morphism
factors uniquely as a surjection followed by an injection.  The surjection
is a strictly decreasing *degeneracy word* (its collapse positions), the
injection a strictly increasing *face word* (the indices its image misses),
and a simplex is a degeneracy word applied to a nondegenerate one.  The
simplicial identities rewrite ``d_i s_J`` and ``s_K s_J`` into normal form
straight from the words (:func:`face_of_word`, :func:`compose_words`), and
:func:`degeneracy_words` lists the words of each pair of dimensions, so
faces, degeneracies, map application and the enumeration of degenerate
simplices never build a general map.  All three are memoized on words and
small integers only, so their tables stay small however many simplices pass
through them.  Degeneracy words are checked here and nowhere else, once per
(word, dimension) pair: ``Simplex`` runs the check on a pair it has not seen,
and the word operations on the words of each table entry they compute.

``MonotoneMap`` is the validated value of a general map ``[dom] -> [cod]``,
given by its value table, and :func:`epi_mono_factor` is its one bridge
into words: it is how ``FiniteSSet.act`` reads a map.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import ValidationError

__all__ = [
    "MonotoneMap",
    "epi_mono_factor",
    "degeneracy_words",
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


# -- degeneracy words --------------------------------------------------------


_DEGENERACY_WORDS: dict = {}
_FACE_OF_WORD: dict = {}
_COMPOSE_WORDS: dict = {}
# The (word, dim) pairs that passed _check_word.  A word is valid or not
# whatever it is applied to, so each pair is checked once per process; a
# malformed one never enters and raises on every use.
_CHECKED_WORDS: set[tuple[tuple[int, ...], int]] = set()


def degeneracy_words(k: int, m: int) -> tuple[tuple[int, ...], ...]:
    """Every degeneracy word taking an m-simplex to dimension k.

    The words are the strictly decreasing ``(k - m)``-subsets of
    ``{0, ..., k-1}``, listed so that their complements, the unit steps of
    the surjections ``[k] ->> [m]``, come in increasing lexicographic order.
    There are none when ``m > k``.
    """
    key = (k, m)
    out = _DEGENERACY_WORDS.get(key)
    if out is None:
        if m > k:
            out = ()
        else:
            subsets = list(combinations(range(k), k - m))
            out = tuple(tuple(reversed(c)) for c in reversed(subsets))
        _DEGENERACY_WORDS[key] = out
    return out


def _check_word(word: tuple[int, ...], dim: int) -> None:
    """``word`` must be a strictly decreasing word of indices in ``[0, dim)``,
    ``dim`` the dimension of the simplices it lands on."""
    if not word or (word, dim) in _CHECKED_WORDS:
        return
    if any(a <= b for a, b in zip(word, word[1:])):
        raise ValidationError(f"degeneracy word {word} is not strictly decreasing")
    if word[0] >= dim:
        raise ValidationError(f"degeneracy index {word[0]} out of range in dim {dim}")
    if word[-1] < 0:
        raise ValidationError(f"degeneracy word {word} has a negative index")
    _CHECKED_WORDS.add((word, dim))


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
