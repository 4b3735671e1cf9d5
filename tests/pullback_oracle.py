"""Reference pullback: pairs listed and faces computed one cell at a time.

Each level lists the compatible pairs ``(s_I a, s_J b)`` of nondegenerate
``a`` and ``b`` with disjoint words, sorts them by ``canon_key`` and names
them in that order; each face of a pair is the pair of the two faces,
normalised on the spot.  ``ssetkit.build`` computes the same pullback with
each face list built once per simplex and each face pair normalised once.
"""

from extraction_oracle import canon_key
from ssetkit.build import PullbackResult, _pair_key
from ssetkit.delta import degeneracy_words
from ssetkit.sset import FiniteSSet, SSetMap, Simplex


def _strip(word, shared):
    return tuple(i - sum(s < i for s in shared) for i in word if i not in shared)


def _pair(name_of, sa, sb):
    dim = sa.dim
    shared = tuple(i for i in sa.degeneracies if i in sb.degeneracies)
    if shared:
        core = dim - len(shared)
        sa = Simplex(_strip(sa.degeneracies, shared), sa.base, core)
        sb = Simplex(_strip(sb.degeneracies, shared), sb.base, core)
    return Simplex(shared, name_of[(sa, sb)], dim)


def _pairs(p, q, k):
    A, B = p.source, q.source
    over = {}
    for m in range(max(k - A.top_dim, 0), min(k, B.top_dim) + 1):
        for wb in degeneracy_words(k, m):
            for b in B.cells[m]:
                sb = Simplex(wb, b, k)
                over.setdefault((wb, q.apply(sb)), []).append(sb)
    b_words = {wb for wb, _ in over}
    pairs = []
    for m in range(max(k - B.top_dim, 0), min(k, A.top_dim) + 1):
        for wa in degeneracy_words(k, m):
            disjoint = [wb for wb in b_words if not set(wa) & set(wb)]
            for a in A.cells[m]:
                sa = Simplex(wa, a, k)
                image = p.apply(sa)
                for wb in disjoint:
                    pairs.extend((sa, sb) for sb in over.get((wb, image), ()))
    return pairs


def oracle_pullback(p: SSetMap, q: SSetMap, prefix: str) -> PullbackResult:
    A, B = p.source, q.source
    cells, faces, name_of = [], {}, {}
    for k in range(A.top_dim + B.top_dim + 1):
        pairs = sorted(_pairs(p, q, k), key=canon_key)
        width = len(str(max(len(pairs) - 1, 0)))
        level = []
        for idx, (sa, sb) in enumerate(pairs):
            name = f"{prefix}{k}_{idx:0{width}d}"
            level.append(name)
            name_of[(sa, sb)] = name
            if k > 0:
                faces[name] = tuple(
                    _pair(name_of, A.face(sa, i), B.face(sb, i)) for i in range(k + 1)
                )
        cells.append(level)
    space = FiniteSSet(cells, faces, check=False)
    proj_l = SSetMap(space, A, {n: sa for (sa, _), n in name_of.items()}, check=False)
    proj_r = SSetMap(space, B, {n: sb for (_, sb), n in name_of.items()}, check=False)
    keys = [{} for _ in cells]
    for (sa, sb), name in name_of.items():
        key = (sa.degeneracies, A.position(sa.base), sb.degeneracies, B.position(sb.base))
        keys[sa.dim][key] = space.position(name)
    return PullbackResult(space, proj_l, proj_r, p, q, keys)


def pair_simplex(pb: PullbackResult, sa: Simplex, sb: Simplex) -> Simplex:
    """The simplex of the pullback ``pb`` corresponding to a compatible pair,
    read through the pair rule of ``ssetkit.build``."""
    assert sa.dim == sb.dim, "pair components live in different dimensions"
    A, B = pb.proj_left.target, pb.proj_right.target
    a, b = A.position(sa.base), B.position(sb.base)
    word, pos = _pair_key(pb._keys, sa.dim, sa.degeneracies, a, sb.degeneracies, b)
    return pb.space.simplex_at(word, pos, sa.dim)


def components(pb: PullbackResult, name: str) -> tuple[Simplex, Simplex]:
    """The images of the cell ``name`` of the pullback ``pb`` under its two
    projections."""
    sx = pb.space.simplex(name)
    return pb.proj_left.apply(sx), pb.proj_right.apply(sx)
