"""Ordered simplicial complexes, written out for ssetkit and checked apart from it.

The seeded inputs are subcomplexes of nerves of finite posets (products of
ordinals), so every simplex is a strictly increasing chain of vertices and
every face is nondegenerate.  This module builds them, writes them in the
interchange format, and computes their homology over prime fields by sparse
elimination.  It shares no code with ssetkit, so it can check ssetkit's
integral answers: free ranks against a large prime, torsion against the
universal coefficient count at small primes.
"""

from __future__ import annotations

from itertools import combinations

BIG_PRIME = 2_147_483_647
SMALL_PRIMES = (2, 3)


def product_top_cells(a: int, b: int) -> list[tuple[tuple[int, int], ...]]:
    """The maximal chains of the poset [a] x [b]: the top cells of Δ^a × Δ^b."""
    out: list[tuple[tuple[int, int], ...]] = []

    def walk(i: int, j: int, path: list[tuple[int, int]]) -> None:
        if (i, j) == (a, b):
            out.append(tuple(path))
            return
        if i < a:
            walk(i + 1, j, path + [(i + 1, j)])
        if j < b:
            walk(i, j + 1, path + [(i, j + 1)])

    walk(0, 0, [(0, 0)])
    return out


def closure(tops) -> frozenset:
    """Every nonempty face of the given simplices (vertex tuples)."""
    out = set()
    for t in tops:
        for k in range(1, len(t) + 1):
            out.update(combinations(t, k))
    return frozenset(out)


def counts(cx) -> list[int]:
    top = max((len(s) for s in cx), default=0)
    out = [0] * top
    for s in cx:
        out[len(s) - 1] += 1
    return out


def simplex_name(s) -> str:
    return "_".join(f"{i}{j}" for i, j in s)


def to_record(cx) -> dict:
    """The interchange record of a complex: cells by dimension, faces as
    ``[[], name]`` pairs (no face of a simplicial complex is degenerate)."""
    cells: list[list[str]] = [[] for _ in counts(cx)]
    faces = {}
    for s in sorted(cx):
        name = simplex_name(s)
        cells[len(s) - 1].append(name)
        if len(s) > 1:
            faces[name] = [
                [[], simplex_name(s[:i] + s[i + 1:])] for i in range(len(s))
            ]
    return {"cells": [sorted(level) for level in cells], "faces": faces}


def _rank_mod_p(columns, p: int) -> int:
    """Rank over GF(p) of a sparse matrix given as {row: value} columns."""
    pivots: dict[int, dict[int, int]] = {}
    rank = 0
    for col in columns:
        v = {i: x % p for i, x in col.items() if x % p}
        while v:
            piv = max(v)
            known = pivots.get(piv)
            if known is None:
                inv = pow(v[piv], p - 2, p)
                pivots[piv] = {i: x * inv % p for i, x in v.items()}
                rank += 1
                break
            c = v[piv]
            for i, x in known.items():
                nv = (v.get(i, 0) - c * x) % p
                if nv:
                    v[i] = nv
                else:
                    v.pop(i, None)
    return rank


def betti_mod_p(cx, p: int) -> list[int]:
    """dim H_n(cx; GF(p)) for n = 0 .. top dimension."""
    by_dim: dict[int, list] = {}
    for s in sorted(cx):
        by_dim.setdefault(len(s) - 1, []).append(s)
    top = max(by_dim, default=-1)
    index = {d: {s: r for r, s in enumerate(level)} for d, level in by_dim.items()}
    rank_d = [0] * (top + 2)
    for d in range(1, top + 1):
        cols = []
        for s in by_dim.get(d, ()):
            col: dict[int, int] = {}
            for i in range(len(s)):
                r = index[d - 1][s[:i] + s[i + 1:]]
                col[r] = col.get(r, 0) + (-1 if i % 2 else 1)
            cols.append(col)
        rank_d[d] = _rank_mod_p(cols, p)
    return [
        len(by_dim.get(n, ())) - rank_d[n] - rank_d[n + 1] for n in range(top + 1)
    ]


def homology_oracle(cx) -> dict[int, list[int]]:
    """Per prime, the mod-p Betti numbers of ``cx``."""
    return {p: betti_mod_p(cx, p) for p in (BIG_PRIME,) + SMALL_PRIMES}


def add_oracles(a: dict, b: dict) -> dict:
    """The oracle of a direct sum, degree by degree."""
    out = {}
    for p in a:
        n = max(len(a[p]), len(b[p]))
        out[p] = [
            (a[p][i] if i < len(a[p]) else 0) + (b[p][i] if i < len(b[p]) else 0)
            for i in range(n)
        ]
    return out


def group_problems(oracle: dict, n: int, rank: int, torsion, torsion_below) -> list[str]:
    """Disagreements between an integral group H_n = Z^rank + torsion and
    the mod-p Betti numbers, by the universal coefficient theorem."""
    def at(p: int) -> int:
        values = oracle[p]
        return values[n] if 0 <= n < len(values) else 0

    problems = []
    if rank != at(BIG_PRIME):
        problems.append(f"H_{n} has rank {rank}, expected {at(BIG_PRIME)}")
    for p in SMALL_PRIMES:
        got = (
            rank
            + sum(1 for t in torsion if t % p == 0)
            + sum(1 for t in torsion_below if t % p == 0)
        )
        if got != at(p):
            problems.append(
                f"H_{n} with torsion {list(torsion)} disagrees with "
                f"dim H_{n}(GF({p})) = {at(p)}"
            )
    return problems
