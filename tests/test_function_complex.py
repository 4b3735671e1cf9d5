"""Map enumeration, truncated function complexes, mapping spaces."""

import pathlib
from math import comb

import pytest
from hypothesis import given, strategies as st

from conftest import all_posets, circle, projective_plane, scan_maps, two_sphere
from delta_oracle import monotone_maps, standard_map
from extraction_oracle import (
    FiberSystem,
    HomSystem,
    extract,
    oracle_internal_hom,
    oracle_mapping_space,
)
from pullback_oracle import pair_simplex
from ssetkit import cli
from ssetkit.build import PullbackResult, product, sset_pullback
from ssetkit.delta import MonotoneMap
from ssetkit.errors import EnumerationLimit, ValidationError
from ssetkit.excision import reduced_suspension
from ssetkit.function_complex import (
    enumerate_maps,
    internal_hom_truncated,
    mapping_space,
)
from ssetkit.nerve import (
    nerve_category,
    nerve_preorder,
    square_category,
    Preorder,
)
from ssetkit.quasicat import is_quasicategory_up_to
from ssetkit.serialize import canonical_dumps, sset_to_record
from ssetkit.sset import (
    FiniteSSet,
    SSetMap,
    Simplex,
    are_isomorphic,
    boundary,
    face_closure,
    horn,
    standard_simplex,
    subcomplex,
)


def _pullback_mapping_space(C, x, y, d):
    """Reference mapping space: the fiber of the restriction
    ``C^(Delta^1) -> C^(Delta^0) x C^(Delta^0)`` over ``(x, y)``, built as a
    pullback of extracted function complexes."""
    edge_sys = HomSystem(standard_simplex(1), C, None)
    vert_sys = HomSystem(standard_simplex(0), C, None)
    edge_ext = extract(edge_sys, d, prefix="h")
    vert_ext = extract(vert_sys, d, prefix="h")

    def restriction(endpoint):
        incl = standard_map(MonotoneMap(0, 1, (endpoint,)))
        images = {}
        for name in edge_ext.space.names:
            h = edge_ext.from_name[name]
            k = edge_ext.space.dim_of(name)
            src = vert_sys.prism(k)
            cross_incl = edge_sys.prism(k).induced(
                incl.compose(src.proj_left), src.proj_right
            )
            images[name] = vert_ext.to_simplex[(k, h.compose(cross_incl))]
        return SSetMap(edge_ext.space, vert_ext.space, images)

    ends = product(vert_ext.space, vert_ext.space)
    both = ends.induced(restriction(0), restriction(1))

    def constant_vertex(v):
        pt_prism = vert_sys.prism(0).space
        elem = SSetMap(
            pt_prism, C, {pt_prism.nondeg(0)[0]: Simplex((), v, 0)}, check=False
        )
        return vert_ext.to_simplex[(0, elem)]

    corner = SSetMap(
        standard_simplex(0),
        ends.space,
        {"0": pair_simplex(ends, constant_vertex(x), constant_vertex(y))},
    )
    return sset_pullback(both, corner).space


class _FilteredFiberSystem(FiberSystem):
    """Reference fiber: every map of the prism, then only those constant at
    the two ends."""

    def elements(self, k):
        ends = self.end_images(k)
        return [
            h for h in HomSystem.elements(self, k)
            if all(h.images[name] == img for name, img in ends.items())
        ]


def test_enumeration_counts():
    d0, d1, d2 = standard_simplex(0), standard_simplex(1), standard_simplex(2)
    b1 = boundary(1)
    assert len(enumerate_maps(d0, d0)) == 1
    assert len(enumerate_maps(d1, d1)) == 3
    assert len(enumerate_maps(b1, d1)) == 4
    assert len(enumerate_maps(d2, d1)) == 4
    assert len(enumerate_maps(d1, d2)) == 6


def test_simplex_to_simplex_maps_are_monotone_maps():
    # maps between standard simplices biject with monotone maps of the indexing sets
    for m in range(3):
        for n in range(3):
            direct = enumerate_maps(standard_simplex(m), standard_simplex(n))
            assert len(direct) == comb(m + n + 1, m + 1)
            induced = {tuple(sorted(standard_map(a).images.items()))
                       for a in monotone_maps(m, n)}
            assert {tuple(sorted(f.images.items())) for f in direct} == induced


def test_standard_map_validates():
    f = standard_map(MonotoneMap(1, 2, (0, 2)))
    assert f.source.counts() == (2, 1)
    assert f.target.counts() == (3, 3, 1)


def test_enumeration_guard():
    with pytest.raises(EnumerationLimit):
        enumerate_maps(boundary(2), boundary(3), max_candidates=3)


def test_internal_hom_dimension_zero_matches_enumeration():
    pairs = [
        (standard_simplex(1), standard_simplex(1)),
        (boundary(1), standard_simplex(1)),
        (standard_simplex(1), boundary(1)),
        (boundary(2), standard_simplex(2)),
    ]
    for X, Y in pairs:
        H = internal_hom_truncated(X, Y, 1)
        assert H.counts()[0] == len(enumerate_maps(X, Y))


def test_internal_hom_unit():
    Y = boundary(2)
    H = internal_hom_truncated(standard_simplex(0), Y, 2)
    assert are_isomorphic(H, Y)


def test_internal_hom_interval_self():
    H = internal_hom_truncated(standard_simplex(1), standard_simplex(1), 1)
    assert H.counts()[0] == 3
    # homotopies between the three maps: the hom complex is connected
    assert H.counts()[1] >= 2


def test_mapping_space_of_interval():
    M = mapping_space(standard_simplex(1), "0", "1", 1)
    assert M.counts() == (1,)


def test_mapping_space_of_point():
    M = mapping_space(standard_simplex(0), "0", "0", 2)
    assert M.counts() == (1,)


def test_mapping_space_endpoints_matter():
    d1 = standard_simplex(1)
    assert mapping_space(d1, "1", "0", 1).counts() == ()


def test_mapping_space_in_grid_nerve():
    # in a nerve of a poset related vertices have exactly one connecting
    # edge, so the mapping space between them is a single point
    rel = {("00", "00"), ("01", "01"), ("10", "10"), ("11", "11"),
           ("00", "01"), ("00", "10"), ("01", "11"), ("10", "11"), ("00", "11")}
    N = nerve_preorder(Preorder(("00", "01", "10", "11"), frozenset(rel)), 2)
    M = mapping_space(N, "00", "11", 1)
    assert M.counts()[0] == 1
    assert mapping_space(N, "01", "10", 1).counts() == ()


def test_mapping_space_counts_parallel_edges():
    # two vertices joined by two distinct edges
    from ssetkit.sset import FiniteSSet, Simplex

    X = FiniteSSet(
        (("a", "b"), ("e1", "e2")),
        {"e1": (Simplex((), "b", 0), Simplex((), "a", 0)),
         "e2": (Simplex((), "b", 0), Simplex((), "a", 0))},
    )
    assert mapping_space(X, "a", "b", 1).counts()[0] == 2


def _assert_matches_scan(X, Y):
    scanned = scan_maps(X, Y)
    assert [f.images for f in enumerate_maps(X, Y)] == [f.images for f in scanned]
    if not scanned or not X.cells:
        return
    # pinned: the closure of the first top cell, imaged as under the last
    # scanned map
    pinned = {
        name: scanned[-1].images[name] for name in face_closure(X, [X.cells[-1][0]])
    }
    assert [f.images for f in enumerate_maps(X, Y, fixed=pinned)] == [
        f.images for f in scanned
        if all(f.images[name] == img for name, img in pinned.items())
    ]


def test_enumeration_matches_candidate_scan():
    # S^2 and Sigma S^1 have top cells with repeated and degenerate faces
    spaces = [standard_simplex(n) for n in range(3)] + [
        boundary(2), boundary(3), horn(2, 1), horn(3, 1), circle(), two_sphere(),
        reduced_suspension(circle()),
    ] + [nerve_preorder(P) for P in all_posets(3)]
    for X in spaces:
        for Y in spaces:
            _assert_matches_scan(X, Y)
    # RP^2: ten top cells, each vertex on five of them
    for Y in (standard_simplex(2), boundary(3), two_sphere()):
        _assert_matches_scan(projective_plane(), Y)
    # S^2 with its vertex pinned: every face of its 2-cell is degenerate on it
    S2 = two_sphere()
    for Y in spaces:
        scanned = scan_maps(S2, Y)
        for v in Y.nondeg(0):
            pinned = {"g0_0": Y.simplex(v)}
            assert [f.images for f in enumerate_maps(S2, Y, fixed=pinned)] == [
                f.images for f in scanned if f.images["g0_0"] == pinned["g0_0"]
            ]
    # S^2 x Delta^1 has 3-cells with faces degenerate on an edge, which sit
    # at other positions than the edge itself
    cylinder = product(two_sphere(), standard_simplex(1)).space
    for Y in (standard_simplex(2), two_sphere(), cylinder):
        _assert_matches_scan(cylinder, Y)


_ORDER_SPACES = (
    [standard_simplex(n) for n in range(4)]
    + [boundary(n) for n in range(1, 4)]
    + [horn(2, 0), horn(2, 1), horn(3, 1), horn(3, 3), circle()]
    + [nerve_preorder(P) for P in all_posets(3)]
)


@given(
    st.sampled_from(_ORDER_SPACES),
    # Half the draws target the circle: its loop and the degenerate edge on
    # its vertex share their faces, so a top cell's bucket holds two
    # candidates for each face it pins.
    st.one_of(st.just(circle()), st.sampled_from(_ORDER_SPACES)),
    st.data(),
)
def test_search_keeps_the_scan_order(X, Y, data):
    # the top-cell search returns the maps in the order of the plain scan in
    # ascending dimension, also with a pinned subcomplex
    scanned = scan_maps(X, Y)
    assert [f.images for f in enumerate_maps(X, Y)] == [f.images for f in scanned]
    names = sorted(X.names)
    picked = data.draw(st.lists(st.sampled_from(names), max_size=3)) if names else []
    A = subcomplex(X, face_closure(X, picked))
    on_A = scan_maps(A, Y)
    if not on_A:
        return
    pinned = data.draw(st.sampled_from(on_A)).images
    assert [f.images for f in enumerate_maps(X, Y, fixed=pinned)] == [
        f.images for f in scanned
        if all(f.images[name] == img for name, img in pinned.items())
    ]


def _scan_qcat_witness(C, d):
    """Reference check: the first unfilled inner horn, over the scanned maps
    of each horn, as (n, i, images), or None."""
    for n in range(2, d + 1):
        for i in range(1, n):
            walls = {
                j: "".join(str(v) for v in range(n + 1) if v != j)
                for j in range(n + 1) if j != i
            }
            for h in scan_maps(horn(n, i), C):
                if not any(
                    all(C.face(sx, j) == h.images[w] for j, w in walls.items())
                    for sx in C.all_simplices(n)
                ):
                    return n, i, h.images
    return None


@pytest.mark.parametrize(
    "C, d",
    [(boundary(2), 2), (boundary(3), 3), (circle(), 2), (horn(3, 1), 3)],
    ids=["boundary2", "boundary3", "circle", "horn31"],
)
def test_qcat_witness_matches_scanned_horns(C, d):
    verdict = is_quasicategory_up_to(C, d)
    expected = _scan_qcat_witness(C, d)
    assert expected is not None and not verdict.ok
    w = verdict.witness
    assert (w.n, w.i, w.assignment.images) == expected


@pytest.mark.parametrize(
    "X, Y, least, count",
    [
        (horn(3, 1), standard_simplex(3), 105, 35),
        (horn(4, 2), standard_simplex(4), 504, 126),
        (boundary(3), boundary(3), 140, 35),
    ],
    ids=["horn31-simplex3", "horn42-simplex4", "boundary3-boundary3"],
)
def test_least_budget_of_each_search_is_pinned(X, Y, least, count):
    # the candidates tried are a property of the search order, so the least
    # budget that lets a search finish is pinned exactly
    assert len(enumerate_maps(X, Y, max_candidates=least)) == count
    with pytest.raises(EnumerationLimit):
        enumerate_maps(X, Y, max_candidates=least - 1)


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    # each vertex of a discrete space is a top cell of its own: 1,200 top
    # cells, more than the default recursion limit, one map into the point
    X = FiniteSSet([[f"v{i:04d}" for i in range(1200)]], {})
    maps = enumerate_maps(X, standard_simplex(0))
    assert len(maps) == 1
    assert set(maps[0].images.values()) == {Simplex((), "0", 0)}
    assert len(enumerate_maps(X, standard_simplex(0), max_candidates=1200)) == 1
    with pytest.raises(EnumerationLimit):
        enumerate_maps(X, standard_simplex(0), max_candidates=1199)


def test_enumeration_budget_counts_matching_candidates_only():
    # Delta^1 -> Delta^1: the edge is the one top cell, and its 3 candidate
    # images are the 3 edges of Delta^1; its vertices are read off it.
    d1 = standard_simplex(1)
    assert len(enumerate_maps(d1, d1, max_candidates=3)) == 3
    with pytest.raises(EnumerationLimit):
        enumerate_maps(d1, d1, max_candidates=2)


@pytest.mark.parametrize(
    "space, x, y, d",
    [
        (standard_simplex(1), "0", "1", 1),
        (standard_simplex(3), "0", "3", 2),
        (boundary(3), "0", "3", 2),
        (two_sphere(), "g0_0", "g0_0", 2),
        (circle(), "g0_0", "g0_0", 2),
        (nerve_category(square_category()), "00", "11", 2),
    ],
    ids=["interval", "simplex3", "boundary3", "s2", "circle", "square"],
)
def test_mapping_space_matches_pullback_fiber(space, x, y, d):
    M = sset_to_record(mapping_space(space, x, y, d))
    assert M == sset_to_record(_pullback_mapping_space(space, x, y, d))
    filtered = extract(_FilteredFiberSystem(space, x, y, None), d, prefix="f")
    assert M == sset_to_record(filtered.space)


def test_fixed_images_are_extended_and_cost_no_candidates():
    d1 = standard_simplex(1)
    pinned = {"0": Simplex((), "1", 0)}
    got = enumerate_maps(d1, d1, fixed=pinned)
    assert [f.images for f in got] == [
        f.images for f in enumerate_maps(d1, d1) if f.images["0"] == pinned["0"]
    ]
    # only the one edge out of 1 is tried, where the search without the pin
    # tries all 3
    assert len(enumerate_maps(d1, d1, max_candidates=1, fixed=pinned)) == 1
    with pytest.raises(EnumerationLimit):
        enumerate_maps(d1, d1, max_candidates=0, fixed=pinned)


def test_fixed_images_must_form_a_map_on_a_subcomplex():
    d1 = standard_simplex(1)
    with pytest.raises(ValidationError):
        enumerate_maps(d1, d1, fixed={"01": Simplex((), "01", 1)})
    with pytest.raises(ValidationError):
        enumerate_maps(
            d1, d1,
            fixed={"0": Simplex((), "1", 0), "1": Simplex((), "0", 0),
                   "01": Simplex((), "01", 1)},
        )


def test_mapping_space_of_two_sphere_counts():
    assert mapping_space(two_sphere(), "g0_0", "g0_0", 2).counts() == (1, 3, 2)


def test_negative_truncation_rejected():
    d1 = standard_simplex(1)
    with pytest.raises(ValidationError, match="truncation dimension -1"):
        mapping_space(d1, "0", "1", -1)
    with pytest.raises(ValidationError, match="truncation dimension -1"):
        internal_hom_truncated(d1, d1, -1)


@pytest.mark.parametrize(
    "search",
    [
        lambda b: enumerate_maps(FiniteSSet([], {}), standard_simplex(0), max_candidates=b),
        lambda b: enumerate_maps(standard_simplex(0), standard_simplex(0), max_candidates=b),
        lambda b: is_quasicategory_up_to(standard_simplex(2), 2, max_candidates=b),
        lambda b: mapping_space(standard_simplex(1), "0", "1", 1, max_candidates=b),
        lambda b: internal_hom_truncated(standard_simplex(0), standard_simplex(0), 0, b),
    ],
    ids=["maps-from-empty", "maps-from-point", "qcat", "mapspace", "internal-hom"],
)
def test_negative_budget_is_refused(search):
    # A search that tries no candidate must refuse -1 as well as one that does.
    with pytest.raises(ValidationError, match="candidate budget -1 is negative"):
        search(-1)


_COMPLEX_SPACES = (
    [standard_simplex(n) for n in range(3)]
    + [boundary(2), boundary(3), horn(2, 1), circle(), two_sphere()]
    + [nerve_preorder(P) for P in all_posets(3) if len(P.elements) == 3]
)


def _bytes(X):
    return canonical_dumps(sset_to_record(X))


@given(
    st.sampled_from(_COMPLEX_SPACES),
    st.sampled_from(_COMPLEX_SPACES),
    st.integers(0, 2),
    st.data(),
)
def test_function_complexes_match_the_extraction_oracle(X, Y, d, data):
    # levels from the search with faces as restrictions give the bytes of
    # materialize-and-strip over maps composed with id x alpha
    assert _bytes(internal_hom_truncated(X, Y, d)) == _bytes(oracle_internal_hom(X, Y, d))
    x = data.draw(st.sampled_from(Y.nondeg(0)))
    y = data.draw(st.sampled_from(Y.nondeg(0)))
    assert _bytes(mapping_space(Y, x, y, d)) == _bytes(oracle_mapping_space(Y, x, y, d))


@pytest.mark.parametrize(
    "build, least",
    [
        (lambda b: mapping_space(standard_simplex(3), "0", "3", 2, b), 3),
        (lambda b: mapping_space(standard_simplex(3), "0", "3", 3, b), 4),
        (lambda b: mapping_space(two_sphere(), "g0_0", "g0_0", 2, b), 18),
        (lambda b: mapping_space(boundary(3), "0", "3", 3, b), 4),
        (lambda b: internal_hom_truncated(standard_simplex(1), standard_simplex(2), 2, b), 92),
        (lambda b: internal_hom_truncated(boundary(2), boundary(2), 1, b), 134),
    ],
    ids=["simplex3-d2", "simplex3-d3", "s2-d2", "boundary3-d3", "hom-d1-d2", "hom-bd2-bd2"],
)
def test_least_budget_of_each_function_complex_is_pinned(build, least):
    # every level is one budgeted search of its prism, so the least budget
    # is the most candidates one level tries
    build(least)
    with pytest.raises(EnumerationLimit):
        build(least - 1)


GOLDEN = pathlib.Path(__file__).parent.parent / "perfbench" / "data" / "expected"
MAPSPACE = ["mapspace", "simplex3", "0", "3", "-d", "2", "--json"]


def test_mapspace_budget_on_the_command_line(capsys):
    assert cli.main([*MAPSPACE, "--max-enum", "2"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: map search exceeded 2 candidate assignments\n")
    assert cli.main([*MAPSPACE, "--max-enum", "3"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "mapspace-simplex3.json").read_text()


def _refuse(*args, **kwargs):
    raise AssertionError("a function complex composed maps")


def test_function_complexes_compose_no_maps(monkeypatch, capsys):
    want = _bytes(oracle_mapping_space(two_sphere(), "g0_0", "g0_0", 2))
    monkeypatch.setattr(SSetMap, "compose", _refuse)
    monkeypatch.setattr(PullbackResult, "induced", _refuse)
    assert cli.main(MAPSPACE) == 0
    assert capsys.readouterr().out == (GOLDEN / "mapspace-simplex3.json").read_text()
    assert _bytes(mapping_space(two_sphere(), "g0_0", "g0_0", 2)) == want


def test_function_complexes_build_no_map_into_the_target(monkeypatch):
    # every level reads the rows of the search straight into its tuples:
    # the maps found are never built as ``SSetMap`` values into the target
    want = (
        _bytes(oracle_internal_hom(boundary(2), two_sphere(), 1)),
        _bytes(oracle_mapping_space(two_sphere(), "g0_0", "g0_0", 2)),
    )
    Y = two_sphere()
    targets = []
    init, trusted = SSetMap.__init__, SSetMap._trusted.__func__

    def recording(self, source, target, *args, **kwargs):
        targets.append(target)
        init(self, source, target, *args, **kwargs)

    def recording_trusted(cls, source, target, table):
        targets.append(target)
        return trusted(cls, source, target, table)

    monkeypatch.setattr(SSetMap, "__init__", recording)
    monkeypatch.setattr(SSetMap, "_trusted", classmethod(recording_trusted))
    got = (
        _bytes(internal_hom_truncated(boundary(2), Y, 1)),
        _bytes(mapping_space(Y, "g0_0", "g0_0", 2)),
    )
    assert got == want
    assert targets and not any(t is Y for t in targets)
