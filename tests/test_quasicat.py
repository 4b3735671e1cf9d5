"""Horn fillers and inner-horn certification; composites of edges are the
fillers of Λ²₁."""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import all_posets, circle, scan_maps, two_sphere
from ssetkit.build import product
from ssetkit.errors import EnumerationLimit, ValidationError
from ssetkit.excision import reduced_suspension
from ssetkit.function_complex import _search, enumerate_maps
from ssetkit.nerve import Preorder, nerve_category, nerve_preorder, square_category
from ssetkit.quasicat import (
    HornMap,
    QcatVerdict,
    _wall_index,
    horn_fillers,
    is_quasicategory_up_to,
)
from ssetkit.sset import SSetMap, Simplex, boundary, horn, standard_simplex


def _horn_map(n, i, target, images):
    L = horn(n, i)
    return HornMap(n, i, target, SSetMap(L, target, images))


def _scan_fillers(h):
    """Reference filler search: every n-simplex of the target whose faces
    d_j, j != i, are the images of the horn's faces d_j."""
    top = "".join(str(v) for v in range(h.n + 1))
    walls = [
        (j, h.assignment.images[top[:j] + top[j + 1:]])
        for j in range(h.n + 1)
        if j != h.i
    ]
    return [
        cand
        for cand in h.target.all_simplices(h.n)
        if all(h.target.face(cand, j) == image for j, image in walls)
    ]


def _composites(C, f, g):
    """The composites of the edges ``f`` then ``g``, with their witnesses:
    the fillers of the horn Λ²₁ on (f, g) and their faces d_1."""
    images = {
        "0": C.face(f, 1), "1": C.face(f, 0), "2": C.face(g, 0), "01": f, "12": g,
    }
    fillers = horn_fillers(_horn_map(2, 1, C, images))
    return [(C.face(sigma, 1), sigma) for sigma in fillers]


def _scan_compositions(C, f, g):
    """Reference composition search over every 2-simplex of ``C``."""
    return [
        (C.face(sigma, 1), sigma)
        for sigma in C.all_simplices(2)
        if C.face(sigma, 2) == f and C.face(sigma, 0) == g
    ]


def _scan_verdict(C, d):
    """Reference verdict: the first horn map, in the order of the reference
    map scan, that the reference filler search cannot fill."""
    for n in range(2, d + 1):
        for i in range(1, n):
            for assignment in scan_maps(horn(n, i), C):
                hm = HornMap(n, i, C, assignment)
                if not _scan_fillers(hm):
                    return QcatVerdict(False, d, hm)
    return QcatVerdict(True, d)


def _filler_targets():
    return [
        standard_simplex(3), boundary(3), circle(), nerve_category(square_category()),
    ] + [nerve_preorder(P) for P in all_posets(3)]


def test_inner_horn_into_triangle_has_unique_filler():
    d2 = standard_simplex(2)
    hm = _horn_map(2, 1, d2, {
        "0": Simplex((), "0", 0),
        "1": Simplex((), "1", 0),
        "2": Simplex((), "2", 0),
        "01": Simplex((), "01", 1),
        "12": Simplex((), "12", 1),
    })
    fillers = horn_fillers(hm)
    assert fillers == [Simplex((), "012", 2)]


def test_inner_horn_into_circle_boundary_has_no_filler():
    b2 = boundary(2)
    hm = _horn_map(2, 1, b2, {
        "0": Simplex((), "0", 0),
        "1": Simplex((), "1", 0),
        "2": Simplex((), "2", 0),
        "01": Simplex((), "01", 1),
        "12": Simplex((), "12", 1),
    })
    assert horn_fillers(hm) == []


def test_degenerate_fillers_count():
    # a horn lying on a single edge fills by a degenerate triangle
    d1 = standard_simplex(1)
    hm = _horn_map(2, 1, d1, {
        "0": Simplex((), "0", 0),
        "1": Simplex((), "1", 0),
        "2": Simplex((), "1", 0),
        "01": Simplex((), "01", 1),
        "12": Simplex((0,), "1", 1),
    })
    assert horn_fillers(hm) == [Simplex((1,), "01", 2)]


def test_simplices_pass_up_to_three():
    for n in range(4):
        v = is_quasicategory_up_to(standard_simplex(n), 3)
        assert v.ok and bool(v) and v.checked_dim == 3


def test_boundary_two_fails_with_witness():
    v = is_quasicategory_up_to(boundary(2), 2)
    assert not v.ok
    w = v.witness
    assert (w.n, w.i) == (2, 1)
    assert w.is_inner
    assert horn_fillers(w) == []


def test_poset_nerves_pass():
    for P in all_posets(3):
        v = is_quasicategory_up_to(nerve_preorder(P, 4), 3)
        assert v.ok


def test_poset_nerve_inner_fillers_unique():
    for P in all_posets(3):
        N = nerve_preorder(P, 4)
        for n in (2, 3):
            for i in range(1, n):
                L = horn(n, i)
                from ssetkit.function_complex import enumerate_maps

                for assignment in enumerate_maps(L, N):
                    assert len(horn_fillers(HornMap(n, i, N, assignment))) == 1


def test_low_dimension_cap_rejected():
    with pytest.raises(ValidationError):
        is_quasicategory_up_to(standard_simplex(1), 1)


def test_composition_in_triangle():
    d2 = standard_simplex(2)
    out = _composites(d2, Simplex((), "01", 1), Simplex((), "12", 1))
    assert out == [(Simplex((), "02", 1), Simplex((), "012", 2))]


def test_composition_with_identity_edge():
    d1 = standard_simplex(1)
    e = Simplex((), "01", 1)
    idv = Simplex((0,), "1", 1)
    assert (e, Simplex((1,), "01", 2)) in _composites(d1, e, idv)


def test_composition_rejects_noncomposable():
    # A horn on edges that do not meet is not a simplicial map.
    d2 = standard_simplex(2)
    with pytest.raises(ValidationError):
        _composites(d2, Simplex((), "01", 1), Simplex((), "01", 1))


def test_composition_in_poset_nerve_unique():
    N = nerve_category(square_category())
    out = _composites(N, Simplex((), "f", 1), Simplex((), "g", 1))
    assert out == [(Simplex((), "h", 1), Simplex((), "f|g", 2))]


def test_horn_fillers_match_scan():
    for C in _filler_targets():
        for n in range(1, 4):
            for i in range(n + 1):
                for assignment in enumerate_maps(horn(n, i), C):
                    hm = HornMap(n, i, C, assignment)
                    assert horn_fillers(hm) == _scan_fillers(hm)


def test_compositions_match_scan():
    for C in _filler_targets():
        edges = C.all_simplices(1)
        for f in edges:
            for g in edges:
                if C.face(f, 0) != C.face(g, 1):
                    continue
                assert _composites(C, f, g) == _scan_compositions(C, f, g)


def test_verdicts_and_witnesses_match_scan():
    targets = _filler_targets() + [
        boundary(2), horn(2, 1), horn(3, 1), two_sphere(), reduced_suspension(circle()),
    ]
    for C in targets:
        got = is_quasicategory_up_to(C, 3)
        want = _scan_verdict(C, 3)
        assert got.ok == want.ok
        if not want.ok:
            assert (got.witness.n, got.witness.i) == (want.witness.n, want.witness.i)
            assert got.witness.assignment == want.witness.assignment


def _scan_wall_index(C, n, i):
    """Reference wall index: every n-simplex keyed by its faces d_j, j != i,
    in descending j, as ``Simplex`` values read with ``face``."""
    index = {}
    for sx in C.all_simplices(n):
        walls = tuple(C.face(sx, j) for j in range(n, -1, -1) if j != i)
        index.setdefault(walls, []).append(sx)
    return index


def test_wall_index_matches_a_scan_with_face():
    # Every (n, i) that ``qcat -d 4`` indexes, on Δ⁴ and on the nerve of the
    # poset on four elements whose nerve is largest.
    largest = max(all_posets(4), key=lambda P: nerve_preorder(P).counts())
    for C in (standard_simplex(4), nerve_preorder(largest)):
        for n in range(2, 5):
            below, level = C.all_simplices(n - 1), C.all_simplices(n)
            for i in range(1, n):
                index = {
                    tuple(below[p] for p in walls): [level[p] for p in fillers]
                    for walls, fillers in _wall_index(C, n, i).items()
                }
                assert index == _scan_wall_index(C, n, i)


def _diamond():
    """The poset 0 < 1, 2 < 3 with 1 and 2 incomparable."""
    less = {("0", "1"), ("0", "2"), ("1", "3"), ("2", "3"), ("0", "3")}
    elements = ("0", "1", "2", "3")
    return Preorder(elements, frozenset(less | {(a, a) for a in elements}))


def _wall_targets():
    """The fixed targets of the wall search oracle."""
    torus = product(circle(), circle()).space
    return {
        "simplex4": standard_simplex(4),
        "boundary3": boundary(3),
        "S2": two_sphere(),
        "T2": torus,
        # T² × S¹, the space of the benchmark's ``torus3.json``
        "T3": product(torus, circle()).space,
        "cylinder": product(two_sphere(), standard_simplex(1)).space,
    }


WALL_TARGETS = _wall_targets()


@st.composite
def poset_nerves(draw):
    """The nerve of a random partial order on at most five elements."""
    size = draw(st.integers(0, 5))
    pairs = [(a, b) for a in range(size) for b in range(a + 1, size)]
    less = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    for c in range(size):  # transitive closure, through each middle in turn
        less |= {(a, b) for a, m in less if m == c for n, b in less if n == c}
    elements = tuple(str(v) for v in range(size))
    relation = {(str(a), str(b)) for a, b in less} | {(e, e) for e in elements}
    return nerve_preorder(Preorder(elements, frozenset(relation)))


def _walls_of_horn_maps(C, n, i):
    """The walls of every map Λⁿᵢ -> C the reference scan lists, as positions
    in level n - 1 of C in descending j (the walls' names in name order)."""
    L = horn(n, i)
    return sorted(
        tuple(C.level_position(w, q, n - 1) for w, q in f.table[n - 1])
        for f in scan_maps(L, C)
    )


@settings(max_examples=30)
@given(st.sampled_from(sorted(WALL_TARGETS)).map(WALL_TARGETS.get) | poset_nerves())
def test_wall_search_lists_the_walls_of_every_horn_map(C):
    for n in range(2, 5):
        for i in range(1, n):
            found = _search(horn(n, i), C, 10**6, {})[0]
            assert sorted(found) == _walls_of_horn_maps(C, n, i)


@pytest.mark.parametrize(
    "C, d, least",
    [
        (standard_simplex(4), 4, 504),
        (boundary(3), 3, 105),
        (nerve_preorder(_diamond()), 3, 77),
    ],
    ids=["simplex4", "boundary3", "diamond-nerve"],
)
def test_least_budget_of_the_wall_search_is_pinned(C, d, least):
    # the walls tried are a property of the search order, so the least
    # budget that lets a check finish is pinned exactly; it is the most
    # walls that one (n, i) tries
    assert is_quasicategory_up_to(C, d, max_candidates=least).checked_dim == d
    with pytest.raises(EnumerationLimit, match=f"exceeded {least - 1} candidate"):
        is_quasicategory_up_to(C, d, max_candidates=least - 1)


def test_verdicts_build_no_map_but_the_witness(monkeypatch):
    # the search finds each horn map as its wall tuple; only the witness is
    # built as an ``SSetMap``, by either constructor
    want = _scan_verdict(boundary(3), 3)
    built = []
    init, trusted = SSetMap.__init__, SSetMap._trusted.__func__

    def counting(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    def counting_trusted(cls, source, *args):
        built.append(source)
        return trusted(cls, source, *args)

    monkeypatch.setattr(SSetMap, "__init__", counting)
    monkeypatch.setattr(SSetMap, "_trusted", classmethod(counting_trusted))
    assert is_quasicategory_up_to(standard_simplex(4), 4).ok
    assert built == []
    got = is_quasicategory_up_to(boundary(3), 3)
    assert not got.ok
    assert built == [horn(3, 1)]
    assert (got.witness.n, got.witness.i) == (want.witness.n, want.witness.i) == (3, 1)
    assert got.witness.assignment == want.witness.assignment
