"""Normalized chains of finite simplicial sets.

The degree-n basis is the sorted list of nondegenerate n-simplex names, the
cells of level n in order; the boundary is the alternating face sum with
degenerate faces discarded, read straight off the face table of the space
(``FiniteSSet.table``), where a nondegenerate face is its position in the
basis one degree down.  The reduced variant divides out the basepoint
generator in degree 0, which keeps every level free and drops exactly one
rank.
"""

from __future__ import annotations

from .chain import ChainComplex, ChainMap, _padded_blocks, _unchecked, zero_complex
from .errors import ValidationError
from .intmat import IntMat
from .sset import FiniteSSet, SSetMap

__all__ = [
    "chain_basis",
    "normalized_chains",
    "reduced_normalized_chains",
    "chain_map_of",
    "reduced_chain_map_of",
]


def chain_basis(X: FiniteSSet, n: int, reduced: bool = False) -> tuple[str, ...]:
    """The ordered basis of the (reduced) normalized chains in degree n."""
    names = X.nondeg(n)
    if reduced and n == 0:
        if X.basepoint is None:
            raise ValidationError("reduced chains need a basepoint")
        names = tuple(name for name in names if name != X.basepoint)
    return names


def _basis_rows(X: FiniteSSet, n: int, reduced: bool):
    """The row of each cell of level n in the basis of degree n: its
    position, but with ``reduced`` and n = 0 the basepoint drops out (None)
    and the vertices after it move up one."""
    rows = range(len(X.nondeg(n)))
    if reduced and n == 0:
        cut = X.position(X.basepoint)
        rows = [*rows[:cut], None, *rows[cut:-1]]
    return rows


def _boundary_matrix(X: FiniteSSet, n: int, reduced: bool) -> IntMat:
    """One column per n-simplex: the alternating sum of its nondegenerate
    faces, read off its row of the face table, each face at the row of its
    cell in the basis of degree n - 1 (``_basis_rows``)."""
    rows = _basis_rows(X, n - 1, reduced)
    columns = []
    for faces in X.table[n]:
        col: dict[int, int] = {}
        sign = 1
        for word, q in faces:
            if not word and (r := rows[q]) is not None:
                col[r] = col.get(r, 0) + sign
            sign = -sign
        columns.append({r: x for r, x in col.items() if x})
    return IntMat.of_columns(len(chain_basis(X, n - 1, reduced)), columns)


def _chains(X: FiniteSSet, reduced: bool) -> ChainComplex:
    top = X.top_dim
    if top < 0:
        return zero_complex()
    ranks = tuple(len(chain_basis(X, n, reduced)) for n in range(top + 1))
    bounds = tuple(_boundary_matrix(X, n, reduced) for n in range(1, top + 1))
    # d∘d = 0 follows from the simplicial identities, checked where X entered.
    return _unchecked(ChainComplex, 0, top, ranks, bounds)


def normalized_chains(X: FiniteSSet) -> ChainComplex:
    return _chains(X, reduced=False)


def reduced_normalized_chains(X: FiniteSSet) -> ChainComplex:
    if X.basepoint is None:
        raise ValidationError("reduced chains need a basepoint")
    return _chains(X, reduced=True)


def _map_blocks(f: SSetMap, reduced: bool) -> dict[int, IntMat]:
    """Per degree, the row of each basis cell's nondegenerate image (``_basis_rows``)."""
    blocks = {}
    for n in range(f.source.top_dim + 1):
        rows = _basis_rows(f.target, n, reduced)
        columns = [
            {} if w or rows[q] is None else {rows[q]: 1}
            for (w, q), c in zip(f.table[n], _basis_rows(f.source, n, reduced))
            if c is not None
        ]
        blocks[n] = IntMat.of_columns(len(chain_basis(f.target, n, reduced)), columns)
    return blocks


def _map_of(f: SSetMap, source, target, reduced: bool) -> ChainMap:
    """The map ``f`` induces between ``source`` and ``target``, the (reduced)
    chains of its ends, built once by a caller that needs them again."""
    # The chain-map law follows from f commuting with faces.
    blocks = _padded_blocks(source, target, _map_blocks(f, reduced))
    return _unchecked(ChainMap, source, target, blocks)


def chain_map_of(f: SSetMap) -> ChainMap:
    """The induced map on normalized chains.

    Nondegenerate simplices with degenerate image are sent to zero; this is
    what makes the normalized complex functorial.
    """
    return _map_of(f, normalized_chains(f.source), normalized_chains(f.target), False)


def reduced_chain_map_of(f: SSetMap) -> ChainMap:
    """The induced map on reduced chains of pointed simplicial sets."""
    if f.source.basepoint is None or f.target.basepoint is None:
        raise ValidationError("reduced chain maps need pointed source and target")
    point = ((), f.target.position(f.target.basepoint))
    if f.table[0][f.source.position(f.source.basepoint)] != point:
        raise ValidationError("map does not preserve the basepoint")
    return _map_of(
        f, reduced_normalized_chains(f.source), reduced_normalized_chains(f.target), True
    )
