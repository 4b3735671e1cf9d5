"""Finite simplicial sets presented by their nondegenerate simplices.

A ``FiniteSSet`` stores, per dimension k, the names of its nondegenerate
k-simplices, sorted (``cells``), and one face table (``table``): for the
cell at position p of level k, ``table[k][p]`` is the row of its k + 1
faces, each a (word, position) pair.  The face ``s_word y`` is the
degeneracy word applied to the cell y at that position of level
``k - 1 - len(word)``; a vertex has the empty row.  Every simplex of the
underlying presheaf is a degeneracy word on a cell, so the simplices of a
level are the cells of each lower level under every degeneracy word into it
(:func:`ssetkit.delta.degeneracy_words`).

The table is the one representation of faces, and a map ``SSetMap`` keeps
its images in the same form: ``table[k][p]`` of a map is the (word,
position) key of the image of cell p of level k of its source.  The
constructions of the package (``build``, ``excision``, ``nerve``,
``function_complex``, ``serialize`` and the standard spaces and maps here)
write tables straight and hand them to the trusted constructors
``FiniteSSet._trusted`` and ``SSetMap._trusted``; the public constructors
take name-keyed ``Simplex`` faces and images, validate them and convert
them once, and ``faces`` and ``images`` give them back in that form,
read-only views built only when first read.  Names are read by printing,
by records and by error messages; the face rule, the identity check, level
tables, chains, closures, subcomplex tests and maps read positions.

Faces and degeneracies of a degenerate simplex are rewritten on the words
alone (:func:`ssetkit.delta.face_of_word`, :func:`ssetkit.delta.compose_words`):
a face either dies in the word or passes through it onto one stored face.
``face_key`` is that rule on (word, position) keys; ``face`` returns the
``Simplex`` of its key.  Level k lists every k-simplex, degenerate ones
included, in one layout: each cell dimension m <= k is one block, its cells
by name, each under the words of ``degeneracy_words(k, m)`` in order.  The
layout is stated once, as plain data (``FiniteSSet._layout``), and read by
``level_size``, ``level_key`` and ``level_position`` (a position and its
key), ``level_keys``, ``level_degeneracy`` (s_word on a position) and
``level_faces``, the faces of each simplex as positions one level down,
which the map search, the inner-horn check and the pullback read.  Only
``act``, the action of a general ``MonotoneMap``, factors the map, once,
into a face word and a degeneracy word.  Each nondegenerate cell has one
``Simplex`` per space (``FiniteSSet.simplex``), shared by ``face``,
``all_simplices`` and the ``faces`` and ``images`` views.

Degeneracy words are strictly decreasing, so each simplex has exactly one
normal form and equality of ``Simplex`` values is equality of simplices.
That form is checked by ``delta``'s one word check, which remembers every
(word, dimension) pair that passed: ``Simplex`` looks its word up there
inline and runs the check only on a pair it has not seen.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import combinations
from types import MappingProxyType

from .delta import (
    MonotoneMap,
    _CHECKED_WORDS,
    _check_word,
    compose_words,
    degeneracy_words,
    epi_mono_factor,
    face_of_word,
)
from .errors import ValidationError

__all__ = [
    "Simplex",
    "FiniteSSet",
    "SSetMap",
    "standard_simplex",
    "boundary",
    "horn",
    "face_closure",
    "subcomplex",
    "is_name_subcomplex",
    "subset_intersection",
    "pointed",
    "constant_map",
    "simplex_as_map",
    "isomorphism",
    "are_isomorphic",
]


# Writes a slot of an immutable value from inside its constructor.
_set_field = object.__setattr__


class Simplex:
    """A simplex in normal form: a degeneracy word applied to a named base.

    ``degeneracies`` is strictly decreasing; ``dim`` is the dimension of the
    simplex itself (base dimension plus word length).  Values are immutable
    and hash once, at construction, to ``hash((degeneracies, base, dim))``.
    """

    __slots__ = ("degeneracies", "base", "dim", "_hash")

    def __init__(self, degeneracies: tuple[int, ...], base: str, dim: int) -> None:
        word = degeneracies
        if word and (word, dim) not in _CHECKED_WORDS:
            _check_word(word, dim)
        _set_field(self, "degeneracies", word)
        _set_field(self, "base", base)
        _set_field(self, "dim", dim)
        _set_field(self, "_hash", hash((word, base, dim)))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a Simplex")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a Simplex")

    def __eq__(self, other) -> bool:
        if other.__class__ is not Simplex:
            return NotImplemented
        return (
            self._hash == other._hash
            and self.dim == other.dim
            and self.base == other.base
            and self.degeneracies == other.degeneracies
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return (
            f"Simplex(degeneracies={self.degeneracies!r}, "
            f"base={self.base!r}, dim={self.dim!r})"
        )

    def __reduce__(self):
        return Simplex, (self.degeneracies, self.base, self.dim)

    @property
    def is_degenerate(self) -> bool:
        return bool(self.degeneracies)

    @property
    def base_dim(self) -> int:
        return self.dim - len(self.degeneracies)

    def degenerate(self, word: tuple[int, ...]) -> "Simplex":
        """``s_word`` of this simplex; the simplex itself for the empty word."""
        if not word:
            return self
        dim = self.dim + len(word)
        return Simplex(compose_words(self.degeneracies, word, dim), self.base, dim)


class FiniteSSet:
    """A finite simplicial set with named nondegenerate simplices.

    Parameters
    ----------
    cells:
        Per dimension, the nondegenerate simplex names.  Stored sorted; names
        must be globally unique.  May be empty (the empty simplicial set).
    faces:
        For each name of dimension ``k >= 1``, the tuple of its ``k+1`` faces
        as ``Simplex`` values, converted once into ``table``.
    basepoint:
        Optional distinguished vertex name.
    check:
        Check the basepoint and the simplicial identities.  The shape of the
        faces (their count, dimensions and bases) is checked either way, as
        converting them needs it.
    """

    __slots__ = (
        "cells",
        "table",
        "basepoint",
        "_dim_of",
        "_pos",
        "_simplices",
        "_faces",
        "_layouts",
        "_face_positions",
        "_hash",
    )

    def __init__(
        self,
        cells,
        faces,
        basepoint: str | None = None,
        check: bool = True,
    ) -> None:
        entries = {
            name: [(sx.degeneracies, sx.base, sx.dim) for sx in fs]
            for name, fs in dict(faces).items()
        }
        self._setup(cells, entries, basepoint, check)

    @classmethod
    def _of_entries(cls, cells, entries, basepoint: str | None = None) -> "FiniteSSet":
        """The validating constructor on ``entries``, which give each name's
        faces as (word, base name, dimension) triples, not ``Simplex``
        values: how ``serialize`` hands over a record."""
        X = cls.__new__(cls)
        X._setup(cells, entries, basepoint, True)
        return X

    @classmethod
    def _trusted(cls, cells, table, basepoint: str | None = None) -> "FiniteSSet":
        """The space of sorted ``cells`` and their face ``table`` (see the
        module docstring), level 0 included, built with no check: for the
        constructions of the package, valid by construction."""
        cells = tuple(map(tuple, cells))
        table = tuple(map(tuple, table))
        while cells and not cells[-1]:
            cells, table = cells[:-1], table[:-1]
        X = cls.__new__(cls)
        X._fill(cells, table, basepoint)
        return X

    def _fill(self, cells, table, basepoint) -> None:
        self.cells: tuple[tuple[str, ...], ...] = cells
        self.table: tuple[tuple[tuple, ...], ...] = table
        self.basepoint = basepoint
        self._dim_of: dict[str, int] = {}
        self._pos: dict[str, int] = {}
        for k, level in enumerate(cells):
            for p, name in enumerate(level):
                if name in self._dim_of:
                    raise ValidationError(f"duplicate simplex name {name!r}")
                self._dim_of[name] = k
                self._pos[name] = p
        self._simplices: dict[str, Simplex] = {}
        self._faces = None
        self._layouts: dict[int, tuple] = {}
        self._face_positions: dict[tuple[int, int], tuple] = {}
        self._hash: int | None = None

    def _setup(self, cells, entries, basepoint, check: bool) -> None:
        """Sort ``cells``, index them and convert ``entries`` (see
        ``_of_entries``) into the table, checking in this order: duplicate
        names, the shape of each face list, missing face lists, then with
        ``check`` the basepoint and the simplicial identities."""
        cells = tuple(tuple(sorted(level)) for level in cells)
        while cells and not cells[-1]:
            cells = cells[:-1]
        self._fill(cells, (), basepoint)
        dim_of, pos = self._dim_of, self._pos
        rows: list[list] = [[None] * len(level) for level in cells]
        made: dict[tuple, tuple] = {}  # an entry whose base was checked -> its pair
        for name, fs in entries.items():
            if name not in dim_of:
                raise ValidationError(f"face table mentions unknown simplex {name!r}")
            k = dim_of[name]
            if k == 0:
                raise ValidationError(f"vertex {name!r} cannot have faces")
            if len(fs) != k + 1:
                raise ValidationError(f"{name!r} needs {k + 1} faces, got {len(fs)}")
            row = []
            for entry in fs:
                word, base, dim = entry
                if dim != k - 1:
                    raise ValidationError(f"face of {name!r} has wrong dimension")
                pair = made.get(entry)
                if pair is None:
                    if base not in dim_of:
                        raise ValidationError(f"face of {name!r} has unknown base")
                    if dim_of[base] != dim - len(word):
                        raise ValidationError(f"face of {name!r} has inconsistent base dim")
                    pair = made[entry] = (word, pos[base])
                row.append(pair)
            rows[k][pos[name]] = tuple(row)
        for k in range(1, len(cells)):
            for name, row in zip(cells[k], rows[k]):
                if row is None:
                    raise ValidationError(f"missing face table for {name!r}")
        if cells:
            rows[0] = [()] * len(cells[0])
        self.table = tuple(map(tuple, rows))
        if check:
            if basepoint is not None and dim_of.get(basepoint) != 0:
                raise ValidationError(f"basepoint {basepoint!r} is not a vertex")
            self._check_identities()

    # -- basic structure ---------------------------------------------------

    @property
    def top_dim(self) -> int:
        """Dimension of the highest nondegenerate simplex (-1 if empty)."""
        return len(self.cells) - 1

    def counts(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.cells)

    def nondeg(self, k: int) -> tuple[str, ...]:
        if 0 <= k <= self.top_dim:
            return self.cells[k]
        return ()

    def dim_of(self, name: str) -> int:
        return self._dim_of[name]

    def position(self, name: str) -> int:
        """The position of a nondegenerate simplex in its level of ``cells``."""
        return self._pos[name]

    def __contains__(self, name: str) -> bool:
        return name in self._dim_of

    @property
    def names(self):
        return self._dim_of.keys()

    def simplex(self, name: str) -> Simplex:
        """The nondegenerate simplex with the given name, one per space."""
        sx = self._simplices.get(name)
        if sx is None:
            sx = self._simplices[name] = Simplex((), name, self._dim_of[name])
        return sx

    def simplex_at(self, word: tuple[int, ...], pos: int, k: int) -> Simplex:
        """The k-simplex of the key (word, pos): ``s_word`` of the cell at
        position ``pos`` of level ``k - len(word)``."""
        name = self.cells[k - len(word)][pos]
        return Simplex(word, name, k) if word else self.simplex(name)

    @property
    def faces(self):
        """The faces of each cell of dimension >= 1 as ``Simplex`` values, by
        name: a read-only view of ``table``, built when first read."""
        return MappingProxyType(self._face_simplices())

    def _face_simplices(self) -> dict[str, tuple[Simplex, ...]]:
        if self._faces is None:
            simplex_at = self.simplex_at
            self._faces = {
                name: tuple(simplex_at(w, q, k - 1) for w, q in row)
                for k in range(1, len(self.cells))
                for name, row in zip(self.cells[k], self.table[k])
            }
        return self._faces

    # -- operator action ---------------------------------------------------

    def face(self, sx: Simplex, i: int) -> Simplex:
        """The i-th face of an arbitrary simplex."""
        if sx.dim == 0:
            raise ValidationError("a vertex has no faces")
        if not 0 <= i <= sx.dim:
            raise ValidationError(f"face index {i} outside [0, {sx.dim}]")
        word, pos = self.face_key(sx.degeneracies, self._pos[sx.base], sx.dim, i)
        return self.simplex_at(word, pos, sx.dim - 1)

    def face_key(
        self, word: tuple[int, ...], pos: int, k: int, i: int
    ) -> tuple[tuple[int, ...], int]:
        """The i-th face of the k-simplex ``s_word x``, x the cell at position
        ``pos`` of level ``k - len(word)``, as the (word, position) key of its
        normal form, with no ``Simplex`` built; ``i`` must lie in ``[0, k]``.

        The face either dies in the word, ``s_w' x``, or passes onto the
        stored face ``s_u y`` of x, which it degenerates to ``s_(w' u) y``."""
        if not word:
            return self.table[k][pos][i]
        m = k - len(word)
        word, j = face_of_word(word, k, i)
        if j is None:
            return word, pos
        u, pos = self.table[m][pos][j]
        return compose_words(u, word, k - 1), pos

    def degeneracy(self, sx: Simplex, i: int) -> Simplex:
        """The i-th degeneracy of an arbitrary simplex."""
        if not 0 <= i <= sx.dim:
            raise ValidationError(f"degeneracy index {i} out of range")
        return sx.degenerate((i,))

    def act(self, sx: Simplex, alpha: MonotoneMap) -> Simplex:
        """Apply the contravariant action of ``alpha: [k] -> [dim sx]``.

        ``alpha`` is factored once: the faces of its face word come first,
        then the collapses of its degeneracy word.
        """
        if alpha.cod != sx.dim:
            raise ValidationError(
                f"map into [{alpha.cod}] cannot act on a {sx.dim}-simplex"
            )
        dword, fword = epi_mono_factor(alpha)
        if fword:  # largest index first, so the smaller ones keep their positions
            word, pos, k = sx.degeneracies, self._pos[sx.base], sx.dim
            for i in reversed(fword):
                word, pos = self.face_key(word, pos, k, i)
                k -= 1
            sx = self.simplex_at(word, pos, k)
        return sx.degenerate(dword)

    def _layout(self, k: int) -> tuple:
        """The layout of level ``k``, built once as plain data: its size, the
        start of the block of each cell dimension ``m <= k``, the words of
        that block (``degeneracy_words(k, m)``), and per word its (block
        start, word count, index).  A block lists its cells by name, each
        under every word of the block in order."""
        out = self._layouts.get(k)
        if out is None:
            starts, blocks, spot = [], [], {}
            size = 0
            for m in range(min(k, self.top_dim) + 1):
                words = degeneracy_words(k, m)
                for r, w in enumerate(words):
                    spot[w] = (size, len(words), r)
                starts.append(size)
                blocks.append(words)
                size += len(words) * len(self.cells[m])
            out = self._layouts[k] = (size, starts, blocks, spot)
        return out

    def level_size(self, k: int) -> int:
        """The number of k-simplices, degenerate ones included."""
        return self._layout(k)[0]

    def level_position(self, word: tuple[int, ...], pos: int, k: int) -> int:
        """The position in level ``k`` of the k-simplex of key (word, pos)."""
        start, n, r = self._layout(k)[3][word]
        return start + pos * n + r

    def level_key(self, k: int, p: int) -> tuple[tuple[int, ...], int]:
        """The (word, position) key of the simplex at position ``p`` of level
        ``k``."""
        size, starts, blocks, _ = self._layout(k)
        if not 0 <= p < size:
            raise ValidationError(f"level {k} has no position {p}; it has {size} simplices")
        m = bisect_right(starts, p) - 1
        q, r = divmod(p - starts[m], len(blocks[m]))
        return blocks[m][r], q

    def level_keys(self, k: int, low: int = 0) -> list[tuple[tuple[int, ...], int]]:
        """The keys of level ``k`` in order, from the block of dimension
        ``low`` on: the tail of ``level_keys(k)`` on cells of dimension
        ``>= low``."""
        blocks = self._layout(k)[2]
        return [
            (w, q)
            for m in range(low, len(blocks))
            for q in range(len(self.cells[m]))
            for w in blocks[m]
        ]

    def level_degeneracy(self, p: int, m: int, word: tuple[int, ...]) -> int:
        """The position of ``s_word`` of the simplex at position ``p`` of
        level ``m``; ``p`` itself for the empty word."""
        if not word:
            return p
        w, q = self.level_key(m, p)
        k = m + len(word)
        return self.level_position(compose_words(w, word, k), q, k)

    def level_faces(self, k: int, low: int = 0) -> tuple[tuple[int, ...], ...]:
        """The faces of the simplices of ``level_keys(k, low)``, ``k >= 1``,
        as positions in level ``k - 1``; built once, and with no ``Simplex``."""
        out = self._face_positions.get((k, low))
        if out is None:
            if k < 1:
                raise ValidationError(f"level {k} has no faces; faces start at level 1")
            spot = self._layout(k - 1)[3]
            out = []
            for m in range(low, min(k, self.top_dim) + 1):
                # The face rule of ``face_key``, each word's part read once.
                words = degeneracy_words(k, m)
                rules = [[face_of_word(w, k, i) for i in range(k + 1)] for w in words]
                for q, row in enumerate(self.table[m]):
                    for rule in rules:
                        faces = []
                        for word, j in rule:
                            at = q  # the face dies in the word, or passes onto face j
                            if j is not None:
                                u, at = row[j]
                                word = compose_words(u, word, k - 1) if u else word
                            start, n, r = spot[word]
                            faces.append(start + at * n + r)
                        out.append(tuple(faces))
            out = self._face_positions[k, low] = tuple(out)
        return out

    def all_simplices(self, k: int) -> tuple[Simplex, ...]:
        """Every simplex of dimension ``k``, degenerate ones included, in the
        order of ``level_keys(k)``."""
        at = self.simplex_at
        return tuple(at(w, q, k) for w, q in self.level_keys(k))

    # -- validation, equality ----------------------------------------------

    def _check_identities(self) -> None:
        # d_i d_j = d_{j-1} d_i for i < j, on every nondegenerate simplex,
        # both sides read as (word, position) keys: a nondegenerate face's
        # faces straight from its row, the others through ``face_key``.
        face_key = self.face_key
        for k in range(2, self.top_dim + 1):
            pairs = [(i, j) for j in range(1, k + 1) for i in range(j)]
            below = self.table[k - 1]
            for p, row in enumerate(self.table[k]):
                for i, j in pairs:
                    (wa, qa), (wb, qb) = row[j], row[i]
                    lhs = face_key(wa, qa, k - 1, i) if wa else below[qa][i]
                    rhs = face_key(wb, qb, k - 1, j - 1) if wb else below[qb][j - 1]
                    if lhs != rhs:
                        raise ValidationError(
                            f"simplicial identity fails on {self.cells[k][p]!r}: "
                            f"d_{i} d_{j} != d_{j - 1} d_{i}"
                        )

    def _key(self):
        return (self.cells, self.table, self.basepoint)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteSSet):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._key())
        return self._hash

    def __repr__(self) -> str:
        bp = f", basepoint={self.basepoint!r}" if self.basepoint else ""
        return f"FiniteSSet(counts={self.counts()}{bp})"


# -- standard constructions ------------------------------------------------


def _subset_name(vertices: tuple[int, ...]) -> str:
    return "".join(str(v) for v in vertices)


def standard_simplex(n: int) -> FiniteSSet:
    """The standard n-simplex; k-cells are the (k+1)-subsets of {0..n}.

    Cells are named by their vertex strings ("02" for the edge from 0 to
    2), which keeps names unambiguous only for single-digit vertices.
    """
    if n < 0:
        raise ValidationError("dimension must be nonnegative")
    if n > 9:
        raise ValidationError("vertex-string naming supports n <= 9 only")
    vertices = _subset_name(tuple(range(n + 1)))
    cells = [["".join(c) for c in combinations(vertices, k + 1)] for k in range(n + 1)]
    table = [[()] * (n + 1)]
    for k in range(1, n + 1):
        below = {name: p for p, name in enumerate(cells[k - 1])}
        # d_i drops the i-th vertex, one character of the name
        table.append([
            tuple(((), below[name[:i] + name[i + 1:]]) for i in range(k + 1))
            for name in cells[k]
        ])
    return FiniteSSet._trusted(cells, table)


def _closure(X: FiniteSSet, names) -> list[set[int]]:
    """Per level, the positions of the smallest face-closed set of cells
    containing ``names``; the first unknown name in sorted order is the one
    reported."""
    marked: list[set[int]] = [set() for _ in X.cells]
    for name in sorted(names):
        if name not in X:
            raise ValidationError(f"unknown simplex {name!r}")
        marked[X.dim_of(name)].add(X.position(name))
    for k in range(X.top_dim, 0, -1):
        rows = X.table[k]
        for p in marked[k]:
            for w, q in rows[p]:
                marked[k - 1 - len(w)].add(q)
    return marked


def face_closure(X: FiniteSSet, names) -> set[str]:
    """Smallest face-closed set of nondegenerate names containing ``names``.

    The first unknown name in sorted order is the one reported.
    """
    return {X.cells[k][p] for k, ps in enumerate(_closure(X, names)) for p in ps}


def subcomplex(X: FiniteSSet, names, check_closed: bool = True) -> FiniteSSet:
    """The simplicial subset of ``X`` spanned by face-closed ``names``."""
    names = set(names)
    if check_closed:
        if face_closure(X, names) != names:
            raise ValidationError("name set is not face-closed")
    kept = [[p for p, name in enumerate(level) if name in names] for level in X.cells]
    moved = [dict(zip(ps, range(len(ps)))) for ps in kept]  # old position -> new
    cells = [[X.cells[k][p] for p in ps] for k, ps in enumerate(kept)]
    table = [
        [tuple((w, moved[k - 1 - len(w)][q]) for w, q in X.table[k][p]) for p in ps]
        for k, ps in enumerate(kept)
    ]
    bp = X.basepoint if X.basepoint in names else None
    # A face-closed part of a valid space is valid.
    return FiniteSSet._trusted(cells, table, bp)


def boundary(n: int) -> FiniteSSet:
    """The union of the proper faces of the standard n-simplex.

    For ``n >= 1`` this is a sphere of dimension ``n - 1``; ``boundary(0)``
    is the empty simplicial set.
    """
    X = standard_simplex(n)
    return subcomplex(X, [c for level in X.cells[:n] for c in level], check_closed=False)


def horn(n: int, i: int) -> FiniteSSet:
    """All proper faces of the standard n-simplex except the one missing ``i``."""
    if n < 1:
        raise ValidationError("horns need n >= 1")
    if not 0 <= i <= n:
        raise ValidationError(f"horn index {i} outside [0, {n}]")
    return _horn_in(standard_simplex(n), i)


def _horn_in(X: FiniteSSet, i: int) -> FiniteSSet:
    """The horn Λⁿᵢ as a subcomplex of ``X = standard_simplex(n)``: every
    proper face but the wall d_i, which misses vertex i."""
    n = X.top_dim
    wall = X.cells[n - 1][X.table[n][0][i][1]]
    names = [c for level in X.cells[:n] for c in level if c != wall]
    return subcomplex(X, names, check_closed=False)


def is_name_subcomplex(X: FiniteSSet, A: FiniteSSet) -> bool:
    """True when ``A`` is a subcomplex of ``X`` sharing names and faces."""
    into: list[list[int]] = []  # per level of A, the position of each cell in X
    for k, level in enumerate(A.cells):
        if any(X._dim_of.get(name) != k for name in level):
            return False
        into.append([X.position(name) for name in level])
    for k in range(1, len(A.cells)):
        rows = X.table[k]
        for p, row in zip(into[k], A.table[k]):
            if tuple((w, into[k - 1 - len(w)][q]) for w, q in row) != rows[p]:
                return False
    return True


def subset_intersection(X: FiniteSSet, U: FiniteSSet, V: FiniteSSet) -> FiniteSSet:
    """Dimensionwise intersection of two subcomplexes of ``X``."""
    if not (is_name_subcomplex(X, U) and is_name_subcomplex(X, V)):
        raise ValidationError("arguments are not subcomplexes of the ambient set")
    return subcomplex(X, set(U.names) & set(V.names), check_closed=False)


def pointed(X: FiniteSSet, vertex: str) -> FiniteSSet:
    """A copy of ``X`` with the given vertex as basepoint."""
    if vertex not in X or X.dim_of(vertex) != 0:
        raise ValidationError(f"basepoint {vertex!r} is not a vertex")
    return FiniteSSet._trusted(X.cells, X.table, vertex)


# -- simplicial maps -------------------------------------------------------


class SSetMap:
    """A simplicial map, stored by the keys of the images of nondegenerate
    simplices (see the module docstring); the image of a degenerate simplex
    is forced by naturality.  The public constructor checks the shape of
    ``images`` either way, as converting needs it, and with ``check`` face
    compatibility in every dimension and basepoint preservation when both
    endpoints are pointed.
    """

    __slots__ = ("source", "target", "table", "_images")

    def __init__(self, source: FiniteSSet, target: FiniteSSet, images, check=True):
        images = dict(images)
        if images.keys() != source.names:
            raise ValidationError("images must be given for every nondegenerate simplex")
        table: list[list] = [[None] * len(level) for level in source.cells]
        for name, sx in images.items():
            k = source.dim_of(name)
            if sx.dim != k:
                raise ValidationError(f"image of {name!r} has wrong dimension")
            if target._dim_of.get(sx.base) != sx.base_dim:
                raise ValidationError(f"image of {name!r} is not a simplex of the target")
            table[k][source.position(name)] = (sx.degeneracies, target.position(sx.base))
        self.source, self.target, self._images = source, target, images
        self.table: tuple[tuple[tuple, ...], ...] = tuple(map(tuple, table))
        if check:
            self._validate()

    @classmethod
    def _trusted(cls, source: FiniteSSet, target: FiniteSSet, table) -> "SSetMap":
        """The map of a key ``table``, built with no check: for the package's
        constructions, valid by construction.  Rows past the levels of
        ``source``, empty levels it dropped, are dropped too."""
        f = cls.__new__(cls)
        f.source, f.target, f._images = source, target, None
        f.table = tuple(map(tuple, table[: len(source.cells)]))
        return f

    @property
    def images(self):
        """The image of each nondegenerate simplex as a ``Simplex``, by name:
        a read-only view of ``table``, built when first read (the public
        constructor keeps the images it converted)."""
        if self._images is None:
            at = self.target.simplex_at
            self._images = {
                name: at(w, q, k)
                for k, (level, row) in enumerate(zip(self.source.cells, self.table))
                for name, (w, q) in zip(level, row)
            }
        return MappingProxyType(self._images)

    def _validate(self) -> None:
        src, tgt = self.source, self.target
        for k in range(1, src.top_dim + 1):
            for p, (row, (w, q)) in enumerate(zip(src.table[k], self.table[k])):
                for i, (u, r) in enumerate(row):
                    if tgt.face_key(w, q, k, i) != self.image_key(u, r, k - 1):
                        raise ValidationError(
                            f"map does not commute with face {i} of {src.cells[k][p]!r}"
                        )
        if src.basepoint is not None and tgt.basepoint is not None:
            if self.table[0][src.position(src.basepoint)] != ((), tgt._pos[tgt.basepoint]):
                raise ValidationError("map does not preserve the basepoint")

    def image_key(self, word: tuple[int, ...], pos: int, k: int) -> tuple:
        """The key of the image of the k-simplex (word, pos) of the source."""
        w, q = self.table[k - len(word)][pos]
        return (compose_words(w, word, k) if word else w), q

    def apply(self, sx: Simplex) -> Simplex:
        key = self.image_key(sx.degeneracies, self.source.position(sx.base), sx.dim)
        return self.target.simplex_at(*key, sx.dim)

    def compose(self, other: "SSetMap") -> "SSetMap":
        """``self of other`` (apply ``other`` first)."""
        if other.target != self.source:
            raise ValidationError("maps are not composable")
        key = self.image_key
        table = [[key(w, q, k) for w, q in row] for k, row in enumerate(other.table)]
        return SSetMap._trusted(other.source, self.target, table)

    @classmethod
    def identity_map(cls, X: FiniteSSet) -> "SSetMap":
        return cls._trusted(X, X, [[((), p) for p in range(n)] for n in X.counts()])

    @classmethod
    def inclusion(cls, A: FiniteSSet, X: FiniteSSet) -> "SSetMap":
        if not is_name_subcomplex(X, A):
            raise ValidationError("not a subcomplex inclusion")
        return _inclusion(A, X)

    def is_dimensionwise_injective(self) -> bool:
        """Injective on the simplices of every dimension.

        By the Eilenberg-Zilber lemma this holds exactly when the images of
        the nondegenerate simplices are nondegenerate and pairwise distinct.
        """
        return all(
            len(set(row)) == len(row) and not any(w for w, _ in row) for row in self.table
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, SSetMap):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.table == other.table
        )

    def __hash__(self) -> int:
        return hash(self.table)

    def __repr__(self) -> str:
        return f"SSetMap({self.source!r} -> {self.target!r})"


def _inclusion(A: FiniteSSet, X: FiniteSSet) -> SSetMap:
    """The inclusion of ``A`` into ``X``, for a caller that knows ``A`` is a
    subcomplex of ``X`` sharing its names and faces."""
    return SSetMap._trusted(A, X, [[((), X._pos[n]) for n in level] for level in A.cells])


def constant_map(X: FiniteSSet, Y: FiniteSSet, vertex: str) -> SSetMap:
    """The map collapsing ``X`` to a vertex of ``Y``."""
    if vertex not in Y or Y.dim_of(vertex) != 0:
        raise ValidationError(f"{vertex!r} is not a vertex of the target")
    q = Y.position(vertex)
    table = [[(tuple(range(k - 1, -1, -1)), q)] * n for k, n in enumerate(X.counts())]
    return SSetMap._trusted(X, Y, table)


def simplex_as_map(Y: FiniteSSet, sx: Simplex) -> SSetMap:
    """The map from the standard simplex classifying ``sx``.

    Sends the nondegenerate k-cell with vertex set ``S`` of the standard
    ``dim(sx)``-simplex to the face of ``sx`` on the vertices ``S``.
    """
    if Y._dim_of.get(sx.base) != sx.base_dim:
        raise ValidationError(f"base {sx.base!r} is not a {sx.base_dim}-simplex of the target")
    return _key_as_map(Y, sx.degeneracies, Y.position(sx.base), sx.dim)


def _key_as_map(Y: FiniteSSet, word: tuple[int, ...], pos: int, n: int) -> SSetMap:
    """``simplex_as_map`` of the n-simplex of key (word, pos) of ``Y``."""
    D = standard_simplex(n)
    table = [[None] * len(cells) for cells in D.cells]
    table[n] = [(word, pos)]
    for k in range(n, 0, -1):  # the faces of each cell, read off the face table of D
        for (w, q), faces in zip(table[k], D.table[k]):
            for i, (_, r) in enumerate(faces):
                table[k - 1][r] = Y.face_key(w, q, k, i)
    return SSetMap._trusted(D, Y, table)


def isomorphism(X: FiniteSSet, Y: FiniteSSet) -> SSetMap | None:
    """An isomorphism ``X -> Y`` if one exists, else ``None``.

    With equal counts, a dimensionwise injective map is a bijection on the
    nondegenerate simplices of each dimension, hence an isomorphism: the
    first such map ``enumerate_maps`` lists.
    """
    if X.counts() != Y.counts():
        return None
    from .function_complex import enumerate_maps

    injective = (f for f in enumerate_maps(X, Y) if f.is_dimensionwise_injective())
    return next(injective, None)


def are_isomorphic(X: FiniteSSet, Y: FiniteSSet) -> bool:
    return isomorphism(X, Y) is not None
