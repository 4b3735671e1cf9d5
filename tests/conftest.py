"""Shared corpus builders and exhaustive oracles for the test suite."""

from itertools import combinations

from hypothesis import HealthCheck, settings

from delta_oracle import epi_of_word
from ssetkit.build import quotient
from ssetkit.intmat import rank_and_torsion
from ssetkit.nerve import Preorder
from ssetkit.sset import FiniteSSet, SSetMap, Simplex, boundary, pointed, standard_simplex

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def check_simplicial_identities(X: FiniteSSet, extra: int = 2) -> int:
    """Assert every simplicial identity on all simplices, degenerate ones
    included, up to ``extra`` dimensions above the top cell.  Returns the
    number of identities checked."""
    checked = 0
    top = X.top_dim + extra
    for k in range(top + 1):
        for sx in X.all_simplices(k):
            if k >= 2:
                for j in range(k + 1):
                    for i in range(j):
                        lhs = X.face(X.face(sx, j), i)
                        rhs = X.face(X.face(sx, i), j - 1)
                        assert lhs == rhs, (X, sx, i, j)
                        checked += 1
            for j in range(k + 1):
                sj = X.degeneracy(sx, j)
                for i in range(j + 1):
                    lhs = X.degeneracy(sj, i)
                    rhs = X.degeneracy(X.degeneracy(sx, i), j + 1)
                    assert lhs == rhs, (X, sx, i, j)
                    checked += 1
                if k >= 1:
                    for i in range(k + 2):
                        out = X.face(sj, i)
                        if i in (j, j + 1):
                            assert out == sx, (X, sx, i, j)
                        elif i < j:
                            assert out == X.degeneracy(X.face(sx, i), j - 1)
                        else:
                            assert out == X.degeneracy(X.face(sx, i - 1), j)
                        checked += 1
                else:
                    for i in (j, j + 1):
                        assert X.face(sj, i) == sx, (X, sx, i, j)
                        checked += 1
    return checked


def scan_maps(X: FiniteSSet, Y: FiniteSSet) -> list[SSetMap]:
    """Reference enumerator, independent of ``function_complex``: every
    nondegenerate simplex of ``X`` tries the candidate images of its
    dimension whose faces (through ``Y.face`` and ``Y.act``) are the images
    of its stored faces.  A simplex is tried as soon as its faces have
    images, the highest dimension first, and the maps are listed as a scan
    over the simplices in ascending dimension, then name, trying candidates
    in ``Y.all_simplices`` order, would list them."""
    slots = [(k, name) for k in range(X.top_dim + 1) for name in X.nondeg(k)]
    order, done = [], set()
    while len(order) < len(slots):
        ready = [
            (k, name) for k, name in slots if name not in done
            and all(f.base in done for f in X.faces.get(name, ()))
        ]
        k, name = max(ready, key=lambda slot: slot[0])  # the first of the top dimension
        order.append((k, name))
        done.add(name)
    cands = {k: {} for k, _ in slots}  # dimension -> faces -> simplices
    rank = {}
    for k, by_faces in cands.items():
        for c in Y.all_simplices(k):
            faces = tuple(Y.face(c, i) for i in range(k + 1)) if k else ()
            by_faces.setdefault(faces, []).append(c)
            rank[c] = len(rank)
    found, images = [], {}
    stored = {name: X.faces.get(name, ()) for _, name in slots}  # read once
    epis = {}  # (word, dim) -> the surjection collapsing at word

    def image(sx):
        key = (sx.degeneracies, sx.dim)
        if key not in epis:
            epis[key] = epi_of_word(*key)
        return Y.act(images[sx.base], epis[key])

    def backtrack(idx):
        if idx == len(order):
            found.append(dict(images))
            return
        k, name = order[idx]
        want = tuple(image(f) for f in stored[name])
        for cand in cands[k].get(want, ()):
            images[name] = cand
            backtrack(idx + 1)
            del images[name]

    backtrack(0)
    found.sort(key=lambda m: [rank[m[name]] for _, name in slots])
    return [SSetMap(X, Y, m, check=False) for m in found]


def all_posets(max_elements: int = 4):
    """Every labeled poset on 0..max_elements elements, as Preorder values."""
    out = []
    for n in range(max_elements + 1):
        elems = tuple(str(i) for i in range(n))
        offdiag = [(a, b) for a in elems for b in elems if a != b]
        diag = frozenset((e, e) for e in elems)
        for mask in range(1 << len(offdiag)):
            rel = {offdiag[i] for i in range(len(offdiag)) if mask >> i & 1}
            ok = True
            for a, b in rel:
                if (b, a) in rel:
                    ok = False
                    break
            if not ok:
                continue
            full = rel | set(diag)
            for a, b in rel:
                for c, d in rel:
                    if b == c and (a, d) not in full:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                continue
            out.append(Preorder(elems, frozenset(full)))
    return out


def circle() -> FiniteSSet:
    return quotient(standard_simplex(1), boundary(1)).space


def two_sphere() -> FiniteSSet:
    return quotient(standard_simplex(2), boundary(2)).space


# The 6-vertex RP²: the star of vertex 0 (a disk) and the rest (a Möbius
# band), meeting in the pentagon 1-2-3-4-5.
RP2_TOPS = "012 023 034 045 015 124 245 235 135 134".split()


def projective_plane() -> FiniteSSet:
    """The 6-vertex RP², the simplicial complex on the triangles ``RP2_TOPS``."""
    names = {"".join(f) for t in RP2_TOPS for k in (1, 2, 3) for f in combinations(t, k)}
    faces = {
        n: tuple(Simplex((), n[:i] + n[i + 1:], len(n) - 2) for i in range(len(n)))
        for n in names if len(n) > 1
    }
    return FiniteSSet([[n for n in names if len(n) == k] for k in (1, 2, 3)], faces)


def four_test_spaces() -> dict[str, FiniteSSet]:
    """The pointed spaces every tower and suspension criterion runs over."""
    return {
        "S0": pointed(boundary(1), "0"),
        "S1": circle(),
        "bd2": pointed(boundary(2), "0"),
        "S2": two_sphere(),
    }


def two_elimination_table(c, low: int, high: int, factors=rank_and_torsion) -> dict:
    """Homology degree by degree as ``(rank, torsion)``, from the rank and
    invariant factors > 1 that ``factors`` gives for both neighbouring
    boundaries, each eliminated in full."""
    out = {}
    for n in range(low, high + 1):
        rank_out, _ = factors(c.boundary(n))
        rank_in, torsion = factors(c.boundary(n + 1))
        out[n] = (c.rank(n) - rank_out - rank_in, torsion)
    return out
