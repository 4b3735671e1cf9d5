"""Suspensions, homotopy pushouts, cover sequences, Mayer-Vietoris."""

import pytest

from conftest import (
    RP2_TOPS,
    check_simplicial_identities,
    circle,
    four_test_spaces,
    projective_plane,
)
from suspension_oracle import oracle_cone, oracle_suspension, oracle_unreduced_suspension
from ssetkit.chain import ChainSquare, homology, homology_presentation, homology_table
from ssetkit.errors import ValidationError
from ssetkit.excision import (
    CoverData,
    SSetSquare,
    chain_square_of,
    cone,
    cover_from_names,
    cover_short_exact_sequence,
    cylinder,
    double_mapping_cylinder,
    excision_check,
    identity_counterexample_report,
    identity_square,
    interval_collapse_square,
    is_homology_pushout,
    mayer_vietoris,
    pushout_square,
    reduced_suspension,
    reduced_suspension_data,
    unreduced_suspension,
)
from ssetkit import excision, simplicial_chains, sset
from ssetkit.groups import HomologyGroup
from ssetkit.intmat import IntMat
from ssetkit.simplicial_chains import (
    chain_map_of,
    normalized_chains,
    reduced_normalized_chains,
)
from ssetkit.sset import (
    FiniteSSet,
    SSetMap,
    Simplex,
    boundary,
    constant_map,
    face_closure,
    standard_simplex,
    subcomplex,
)


def _reduced_table(X, top):
    return homology_table(reduced_normalized_chains(X), 0, top)


# -- cylinders, cones, suspensions -----------------------------------------


def test_cylinder_counts_and_identities():
    cyl = cylinder(boundary(1))
    assert cyl.space.counts() == (4, 2)
    cyl2 = cylinder(standard_simplex(1))
    assert cyl2.space.counts() == (4, 5, 2)
    assert check_simplicial_identities(cyl2.space) > 0


def test_cone_is_contractible():
    for X in [boundary(1), boundary(2), circle()]:
        c = cone(X)
        t = homology_table(normalized_chains(c), 0, 3)
        assert t[0].rank == 1
        assert all(t[n].rank == 0 and t[n].torsion == () for n in (1, 2, 3))


def test_cone_of_empty_rejected():
    with pytest.raises(ValidationError):
        cone(FiniteSSet((), {}))


def test_unreduced_suspension_of_circle_boundary():
    S = unreduced_suspension(boundary(2))
    t = homology_table(normalized_chains(S), 0, 3)
    assert (t[0].rank, t[1].rank, t[2].rank, t[3].rank) == (1, 0, 1, 0)
    assert check_simplicial_identities(S) > 0


def test_unreduced_suspension_of_two_points():
    S = unreduced_suspension(boundary(1))
    t = homology_table(normalized_chains(S), 0, 2)
    assert (t[0].rank, t[1].rank) == (1, 1)


def _cylinder_test_spaces():
    return [boundary(1), boundary(2), standard_simplex(1), standard_simplex(2), circle(),
            *four_test_spaces().values()]


def test_cone_and_unreduced_suspension_glue_what_quotients_collapsed():
    # Gluing a point along an end of the cylinder lists the cells that
    # collapsing the end's subcomplex listed, in the same order, with the
    # same faces and basepoint.
    for X in _cylinder_test_spaces():
        assert cone(X) == oracle_cone(X)
        assert unreduced_suspension(X) == oracle_unreduced_suspension(X)


def test_reduced_suspension_shifts_homology():
    for name, X in four_test_spaces().items():
        SX = reduced_suspension(X)
        assert SX.basepoint is not None
        before = _reduced_table(X, 2)
        after = _reduced_table(SX, 3)
        for k in range(0, 3):
            assert (after[k + 1].rank, after[k + 1].torsion) == (
                before[k].rank, before[k].torsion), name
        assert after[0].rank == 0


def test_reduced_suspension_iterated():
    S0 = four_test_spaces()["S0"]
    SS = reduced_suspension(reduced_suspension(S0))
    t = _reduced_table(SS, 2)
    assert (t[0].rank, t[1].rank, t[2].rank) == (0, 0, 1)


def test_suspension_data_exposes_the_collapse():
    X = four_test_spaces()["S0"]
    sd = reduced_suspension_data(X)
    assert sd.space == reduced_suspension(X)
    assert sd.source is X
    assert oracle_suspension(X).collapse.projection.target == sd.space


def test_reduced_suspension_needs_basepoint():
    with pytest.raises(ValidationError):
        reduced_suspension(boundary(1))


# -- squares and homotopy pushout detection --------------------------------


def test_square_must_commute():
    d1 = standard_simplex(1)
    pt = standard_simplex(0)
    b1 = boundary(1)
    to_pt = constant_map(b1, pt, "0")
    incl = SSetMap.inclusion(b1, d1)
    at0 = SSetMap(pt, d1, {"0": Simplex((), "0", 0)})
    # one composite lands at the vertex, the other is the identity: rejected
    with pytest.raises(ValidationError):
        SSetSquare(to_pt, incl, at0, SSetMap.identity_map(d1))


def test_squares_of_spaces_and_of_chains_are_one_class():
    assert SSetSquare is ChainSquare


def _identity(X: FiniteSSet) -> SSetMap:
    return SSetMap.identity_map(X)


# Per check of a square, in the order they run: the legs of the interval
# collapse square (w_to_u, w_to_v, u_to_x, v_to_x) that break it, each as a
# function of that square, and the message.  The first four also break the
# check after theirs, so the message pins the order of the checks too.
_BROKEN_SQUARES = {
    "shared-source": ({1: lambda sq: _identity(sq.v), 2: lambda sq: sq.v_to_x},
                      "square legs must share their source corner"),
    "upper-right-corner": ({2: lambda sq: sq.v_to_x, 3: lambda sq: sq.u_to_x},
                           "upper-right corner mismatch"),
    "lower-left-corner": ({3: lambda sq: _identity(sq.u)}, "lower-left corner mismatch"),
    "final-corner": ({2: lambda sq: _identity(sq.u)},
                     "square has two different final corners"),
    # Into the interval, the point goes to 0 but 1 goes to 1.
    "commutation": ({2: lambda sq: constant_map(sq.u, sq.v, "0"),
                     3: lambda sq: _identity(sq.v)}, "square does not commute"),
}


@pytest.mark.parametrize("case", list(_BROKEN_SQUARES))
def test_a_square_of_spaces_and_its_chains_fail_each_check_alike(case):
    breaks, message = _BROKEN_SQUARES[case]
    sq = interval_collapse_square()
    csq = chain_square_of(sq)
    legs = [sq.w_to_u, sq.w_to_v, sq.u_to_x, sq.v_to_x]
    chain_legs = [csq.w_to_u, csq.w_to_v, csq.u_to_x, csq.v_to_x]
    for i, leg in breaks.items():
        legs[i] = leg(sq)
        chain_legs[i] = chain_map_of(legs[i])
    for square, broken in ((SSetSquare, legs), (ChainSquare, chain_legs)):
        with pytest.raises(ValidationError) as exc:
            square(*broken)
        assert str(exc.value) == message
    # Unbroken, both squares pass every check.
    assert SSetSquare(sq.w_to_u, sq.w_to_v, sq.u_to_x, sq.v_to_x) == sq
    assert ChainSquare(csq.w_to_u, csq.w_to_v, csq.u_to_x, csq.v_to_x) == csq


def test_double_mapping_cylinder_of_circle_span():
    b1 = boundary(1)
    pt = standard_simplex(0)
    f = constant_map(b1, pt, "0")
    g = SSetMap.inclusion(b1, standard_simplex(1))
    dmc = double_mapping_cylinder(f, g)
    t = homology_table(normalized_chains(dmc.space), 0, 2)
    assert (t[0].rank, t[1].rank, t[2].rank) == (1, 1, 0)
    # comparison to the strict pushout is a homology isomorphism here
    from ssetkit.chain import quasi_iso
    from ssetkit.simplicial_chains import chain_map_of

    sq = pushout_square(f, g)
    comparison = dmc.corner_comparison(sq.u_to_x, sq.v_to_x, sq.u_to_x.compose(f))
    assert quasi_iso(chain_map_of(comparison))


def test_homology_pushout_verdicts():
    b1 = boundary(1)
    d1 = standard_simplex(1)
    pt = standard_simplex(0)
    collapse_sq = pushout_square(constant_map(b1, pt, "0"),
                                 SSetMap.inclusion(b1, d1))
    assert is_homology_pushout(collapse_sq)
    assert identity_square(boundary(2)).w_to_u.source == boundary(2)
    assert is_homology_pushout(identity_square(boundary(2)))

    # collapsed square claiming the circle as its corner: not a pushout
    S1 = circle()
    const = constant_map(pt, S1, S1.nondeg(0)[0])
    ident = SSetMap.identity_map(pt)
    bad = SSetSquare(ident, ident, const, const)
    assert not is_homology_pushout(bad)


def test_excision_reports():
    b1 = boundary(1)
    d1 = standard_simplex(1)
    pt = standard_simplex(0)
    good = excision_check(pushout_square(constant_map(b1, pt, "0"),
                                         SSetMap.inclusion(b1, d1)))
    assert good.square_is_pushout and good.chain_bicartesian
    assert good.consistent
    assert good.to_record() == {"square_is_pushout": True,
                                "chain_bicartesian": True,
                                "consistent": True}

    S1 = circle()
    const = constant_map(pt, S1, S1.nondeg(0)[0])
    ident = SSetMap.identity_map(pt)
    bad = excision_check(SSetSquare(ident, ident, const, const))
    assert not bad.square_is_pushout and not bad.chain_bicartesian
    assert bad.consistent  # not-a-pushout makes no bicartesian prediction


# -- covers and the inclusion short exact sequence -------------------------


def _two_arc_cover():
    return cover_from_names(boundary(2), ["01", "12"], ["02"])


def _cover_battery():
    b2 = boundary(2)
    d2 = standard_simplex(2)
    d1 = standard_simplex(1)
    covers = [
        _two_arc_cover(),
        # both pieces the whole space
        cover_from_names(b2, list(b2.names), list(b2.names)),
        # one piece everything, the other a point
        cover_from_names(d2, ["012"], ["0"]),
        # solid triangle split into the face and an edge
        cover_from_names(d2, ["012"], ["12"]),
        # disjoint pieces, empty overlap
        cover_from_names(boundary(1), ["0"], ["1"]),
        # interval covered by itself and an endpoint
        cover_from_names(d1, ["01"], ["1"]),
    ]
    return covers


def test_cover_data_validation():
    b2 = boundary(2)
    with pytest.raises(ValidationError):
        cover_from_names(b2, ["01"], ["02"])  # does not cover 12
    d2 = standard_simplex(2)
    U = subcomplex(d2, face_closure(d2, ["01"]))
    with pytest.raises(ValidationError, match="^cover misses simplices: \\['012'\\]$"):
        CoverData(d2, U, boundary(2))
    # The edge 01 of Δ², its faces swapped: its names are those of a
    # subcomplex, its faces are not.
    reversed_edge = FiniteSSet(
        [["0", "1"], ["01"]], {"01": (Simplex((), "0", 0), Simplex((), "1", 0))}
    )
    with pytest.raises(ValidationError, match="^first cover piece is not a subcomplex$"):
        CoverData(d2, reversed_edge, d2)
    with pytest.raises(ValidationError, match="^second cover piece is not a subcomplex$"):
        CoverData(d2, d2, reversed_edge)
    # cover_from_names trusts its face closures, but not names that X lacks
    # or pieces that miss a simplex.
    with pytest.raises(ValidationError, match="^unknown simplex 'x'$"):
        cover_from_names(d2, ["012"], ["x"])
    with pytest.raises(ValidationError, match="^cover misses simplices: \\['012'\\]$"):
        cover_from_names(d2, ["01"], ["12", "02"])


def test_a_cover_is_checked_once_where_it_is_read(monkeypatch):
    # A work-count guard: CoverData checks that each piece is a subcomplex;
    # the intersection and the four inclusions of the cover sequence are
    # built without checking again, reduced or not.  cover_from_names builds
    # its pieces as face closures in X, subcomplexes by construction, and
    # checks none of them.
    calls = []
    check = sset.is_name_subcomplex

    def counting(X, A):
        calls.append(A.counts())
        return check(X, A)

    monkeypatch.setattr(sset, "is_name_subcomplex", counting)
    monkeypatch.setattr(excision, "is_name_subcomplex", counting)
    X = boundary(3)
    for reduced in (False, True):
        calls.clear()
        cd = cover_from_names(X, ["123", "023"], ["013", "012"])
        assert calls == []
        checked = CoverData(cd.X, cd.U, cd.V)
        assert checked.W.names == cd.W.names
        assert mayer_vietoris(checked, 2, reduced=reduced).all_exact
        assert len(calls) == 2


def test_cover_ses_exact_for_battery():
    covers = _cover_battery()
    assert len(covers) >= 5
    for cd in covers:
        ses = cover_short_exact_sequence(cd)
        assert ses.is_exact()
        report = ses.verify()
        assert report and all(report.values())


def test_cover_ses_reduced_two_arcs():
    ses = cover_short_exact_sequence(_two_arc_cover(), reduced=True)
    assert ses.reduced
    assert ses.is_exact()


def test_cover_ses_reduced_needs_overlap_vertex():
    disjoint = cover_from_names(boundary(1), ["0"], ["1"])
    with pytest.raises(ValidationError):
        cover_short_exact_sequence(disjoint, reduced=True)


# -- Mayer-Vietoris --------------------------------------------------------


def test_mv_two_arcs_unreduced():
    les = mayer_vietoris(_two_arc_cover(), 2)
    assert les.all_exact
    assert les.group(1, "X").rank == 1
    assert les.group(0, "W").rank == 2
    assert les.group(0, "U_plus_V").rank == 2
    assert les.group(0, "X").rank == 1
    # The connecting map sends the circle's class to ± the difference of
    # the classes of the two overlap vertices, on whatever generators the
    # presentation of H_0(W) keeps.
    idx = next(i for i, e in enumerate(les.entries)
               if (e.degree, e.tag) == (1, "X"))
    cd = _two_arc_cover()
    coordinates = homology_presentation(cover_short_exact_sequence(cd).left.source, 0)[2]
    vertices = simplicial_chains.chain_basis(cd.W, 0)
    difference = coordinates(IntMat.column([{"0": 1, "2": -1}[v] for v in vertices]))
    assert les.maps[idx] in (difference, difference.scale(-1))
    assert not difference.is_zero()


def test_mv_two_arcs_reduced():
    les = mayer_vietoris(_two_arc_cover(), 2, reduced=True)
    assert les.all_exact
    assert les.group(1, "X").rank == 1
    assert les.group(0, "W").rank == 1
    assert les.group(0, "U_plus_V").rank == 0
    idx = next(i for i, e in enumerate(les.entries)
               if (e.degree, e.tag) == (1, "X"))
    assert les.maps[idx].to_lists() == [[1]]


def test_mv_contractible_cover_reduced_vanishes():
    d2 = standard_simplex(2)
    for cd in [cover_from_names(d2, ["012"], ["12"]),
               cover_from_names(d2, ["012"], ["0"])]:
        les = mayer_vietoris(cd, 2, reduced=True)
        assert les.all_exact
        for e in les.entries:
            assert e.group.rank == 0 and e.group.torsion == ()


def test_mv_refuses_a_negative_top_degree():
    with pytest.raises(ValidationError, match="top degree -1 is negative"):
        mayer_vietoris(_two_arc_cover(), -1)


def test_mv_exactness_for_battery():
    for cd in _cover_battery():
        assert mayer_vietoris(cd, 2).all_exact
        if cd.W.nondeg(0):  # the reduced form needs a vertex in the overlap
            assert mayer_vietoris(cd, 2, reduced=True).all_exact


def test_mv_sphere_cover():
    # the 2-sphere as two half-shells meeting in a square equator
    cd = _sphere_cover()
    assert cd.W.counts() == (4, 4)  # the 4-gon equator
    les = mayer_vietoris(cd, 3)
    assert les.all_exact
    assert les.group(2, "X").rank == 1
    assert les.group(1, "W").rank == 1
    # the connecting map carries the sphere class onto the equator circle
    idx = next(i for i, e in enumerate(les.entries)
               if (e.degree, e.tag) == (2, "X"))
    mat = les.maps[idx]
    assert mat.cols == 1 and not mat.is_zero()


def _sphere_cover():
    return cover_from_names(boundary(3), ["123", "023"], ["013", "012"])


def _assert_maps_on_group_generators(les):
    # Free groups here, so each group has exactly rank-many generators.
    for i, m in enumerate(les.maps):
        shape = (les.entries[i + 1].group.rank, les.entries[i].group.rank)
        assert (m.rows, m.cols) == shape, (i, les.entries[i], les.entries[i + 1])


def test_mv_maps_run_between_the_groups_generators():
    _assert_maps_on_group_generators(mayer_vietoris(_sphere_cover(), 3))
    for cd in _cover_battery():
        _assert_maps_on_group_generators(mayer_vietoris(cd, 2))
        if cd.W.nondeg(0):
            _assert_maps_on_group_generators(mayer_vietoris(cd, 2, reduced=True))


def test_mv_projective_plane_carries_torsion():
    X = projective_plane()
    cd = cover_from_names(X, RP2_TOPS[:5], RP2_TOPS[5:])
    assert homology(normalized_chains(cd.W), 1).rank == 1  # the pentagon
    for reduced in (False, True):
        les = mayer_vietoris(cd, 2, reduced=reduced)
        assert les.all_exact
        assert les.group(1, "X") == HomologyGroup(0, (2,))
        assert les.group(1, "W").rank == les.group(1, "U_plus_V").rank == 1


def test_mv_record_shape():
    les = mayer_vietoris(_two_arc_cover(), 1)
    rec = les.to_record()
    assert all(rec["exact"]) and isinstance(rec["entries"], list)
    assert {e["position"] for e in rec["entries"]} >= {"W", "U_plus_V", "X"}


# -- the identity-functor counterexample -----------------------------------


def test_identity_counterexample_report():
    rep = identity_counterexample_report()
    assert rep.pullback_H0_rank == 2
    assert rep.corner_H1.rank == 1 and rep.corner_H1.torsion == ()
    assert rep.square_is_pushout
    assert rep.pullback_counts == (2,)
    rec = rep.to_record()
    assert rec["pullback_H0_rank"] == 2
    assert rec["square_is_pushout"] is True


# -- work counts -------------------------------------------------------------


@pytest.fixture
def chain_builds(monkeypatch):
    """The spaces whose (reduced) normalized chains are built, in order."""
    built = []
    chains = simplicial_chains._chains

    def counting(X, reduced):
        built.append(X)
        return chains(X, reduced)

    monkeypatch.setattr(simplicial_chains, "_chains", counting)
    return built


@pytest.mark.parametrize("reduced", [False, True], ids=["unreduced", "reduced"])
def test_cover_sequence_builds_each_piece_once(chain_builds, reduced):
    # W, U, V and X once each; building both ends of each of the four
    # inclusions took 12.
    les = mayer_vietoris(_sphere_cover(), 3, reduced=reduced)
    assert les.all_exact
    assert len(chain_builds) == 4


@pytest.mark.parametrize("reduced", [False, True], ids=["unreduced", "reduced"])
def test_an_identity_square_builds_one_complex(chain_builds, reduced):
    X = four_test_spaces()["S2"]
    csq = chain_square_of(identity_square(X), reduced)
    assert chain_builds == [X]
    chains = reduced_normalized_chains(X) if reduced else normalized_chains(X)
    assert csq.w == csq.u == csq.v == csq.x == chains


def test_equal_corners_share_their_complex(chain_builds):
    # The corners are equal but distinct objects: one complex serves both.
    w, u, v = standard_simplex(0), standard_simplex(1), standard_simplex(1)
    assert u is not v and u == v
    at0 = constant_map(w, u, "0")
    sq = SSetSquare(at0, constant_map(w, v, "0"), _identity(u), SSetMap.inclusion(v, u))
    csq = chain_square_of(sq)
    assert chain_builds == [w, u]
    assert csq.u is csq.v is csq.x


def test_excision_of_an_identity_square_builds_the_corner_twice(chain_builds):
    # N(X) once for the chain square and once as the target of the
    # comparison, and N of the cylinder model: 6 when each corner of the
    # chain square was built on its own.
    X = four_test_spaces()["S2"]
    assert excision_check(identity_square(X)).consistent
    assert len(chain_builds) == 3
    assert [Y == X for Y in chain_builds].count(True) == 2


def test_chain_square_builds_each_corner_once(chain_builds):
    sq = pushout_square(
        constant_map(boundary(1), standard_simplex(0), "0"),
        SSetMap.inclusion(boundary(1), standard_simplex(1)),
    )
    csq = chain_square_of(sq)
    assert len(chain_builds) == 4  # 8 with both ends of each leg
    legs = (sq.w_to_u, sq.w_to_v, sq.u_to_x, sq.v_to_x)
    assert (csq.w_to_u, csq.w_to_v, csq.u_to_x, csq.v_to_x) == tuple(
        chain_map_of(f) for f in legs
    )
