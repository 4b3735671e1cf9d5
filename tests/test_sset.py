"""Core simplicial set structure: builders, actions, subcomplexes, maps."""

import pickle

import pytest

import delta_oracle
from conftest import (
    all_posets,
    check_simplicial_identities,
    circle,
    four_test_spaces,
    projective_plane,
    two_sphere,
)
from ssetkit.build import product
from ssetkit.chain import single_complex
from ssetkit.delta import MonotoneMap, degeneracy_words
from ssetkit.dold_kan import dold_kan_K
from ssetkit.errors import ValidationError
from ssetkit.excision import reduced_suspension
from ssetkit.function_complex import (
    enumerate_maps,
    internal_hom_truncated,
    mapping_space,
)
from ssetkit.nerve import Preorder, nerve_preorder
from ssetkit.serialize import preorder_from_record
from ssetkit.sset import (
    FiniteSSet,
    Simplex,
    SSetMap,
    are_isomorphic,
    boundary,
    constant_map,
    face_closure,
    horn,
    is_name_subcomplex,
    pointed,
    simplex_as_map,
    standard_simplex,
    subcomplex,
    subset_intersection,
)
from ssetkit.tower import reduced_chains_evaluator, tower


def test_standard_simplex_counts():
    for n in range(5):
        X = standard_simplex(n)
        from math import comb

        assert X.counts() == tuple(comb(n + 1, k + 1) for k in range(n + 1))


def test_standard_simplex_name_limit():
    with pytest.raises(ValidationError):
        standard_simplex(10)


def test_boundary_is_codimension_one_sphere():
    assert boundary(1).counts() == (2,)
    assert boundary(2).counts() == (3, 3)
    assert boundary(3).counts() == (4, 6, 4)
    assert "012" not in boundary(2)


def test_horn_counts_and_missing_wall():
    assert horn(2, 1).counts() == (3, 2)
    assert "02" not in horn(2, 1)
    assert horn(3, 2).counts() == (4, 6, 3)
    with pytest.raises(ValidationError):
        horn(0, 0)
    with pytest.raises(ValidationError):
        horn(2, 3)


def test_identities_on_core_builders():
    for X in [
        standard_simplex(0),
        standard_simplex(3),
        boundary(2),
        boundary(3),
        horn(2, 1),
        horn(3, 1),
    ]:
        assert check_simplicial_identities(X) > 0


def test_act_agrees_with_face_words():
    X = standard_simplex(2)
    top = Simplex((), "012", 2)
    assert X.face(top, 0) == Simplex((), "12", 1)
    assert X.face(top, 1) == Simplex((), "02", 1)
    assert X.face(top, 2) == Simplex((), "01", 1)
    assert X.act(top, MonotoneMap(1, 2, (0, 2))) == Simplex((), "02", 1)
    assert X.act(top, MonotoneMap(1, 2, (1, 1))) == Simplex((0,), "1", 1)


@pytest.mark.parametrize("X", [standard_simplex(2), circle()], ids=["simplex2", "S1"])
def test_act_matches_compose_and_factor_oracle(X):
    # Every monotone map into [dim sx], on every simplex up to dimension 3.
    checked = 0
    for n in range(4):
        for sx in X.all_simplices(n):
            for k in range(n + 2):
                for alpha in delta_oracle.monotone_maps(k, n):
                    assert X.act(sx, alpha) == delta_oracle.act(X, sx, alpha)
                    checked += 1
    assert checked > 500


def test_degenerate_face_recovers_base():
    X = standard_simplex(1)
    e = Simplex((), "01", 1)
    s0e = X.degeneracy(e, 0)
    assert s0e == Simplex((0,), "01", 2)
    assert X.face(s0e, 0) == e
    assert X.face(s0e, 1) == e
    assert X.face(s0e, 2) == Simplex((0,), "0", 1)


def _degenerate_face_spaces():
    """Spaces whose stored faces are degenerate: the cylinder S² × Δ¹ and
    the reduced suspensions of S¹ and of S², the last with stored faces under
    two degeneracies."""
    return [
        product(two_sphere(), standard_simplex(1)).space,
        reduced_suspension(circle()),
        reduced_suspension(two_sphere()),
    ]


def _level_spaces():
    """The four test spaces, the spaces with degenerate stored faces and the
    nerves of the posets on at most four elements."""
    spaces = list(four_test_spaces().values()) + _degenerate_face_spaces()
    return spaces + [nerve_preorder(P) for P in all_posets()]


def test_level_table_faces_name_the_simplices_face_returns():
    for X in _level_spaces():
        assert X.level_size(0) == len(X.nondeg(0))
        for k in range(1, 6):
            simplices, faces = X.all_simplices(k), X.level_faces(k)
            below = X.all_simplices(k - 1)
            assert len(faces) == len(simplices)
            for pos, (sx, fs) in enumerate(zip(simplices, faces)):
                assert X.level_position(sx.degeneracies, X.position(sx.base), k) == pos
                assert [below[p] for p in fs] == [X.face(sx, i) for i in range(k + 1)]


def test_level_keys_positions_and_faces_share_one_layout():
    # A position and its key are inverse; the keys and the faces of the
    # cells of dimension >= low are aligned tails of the whole level's, as
    # the pullback reads them; s_word on a position is the degeneracy.
    for X in _level_spaces():
        for k in range(X.top_dim + 3):
            keys, simplices = X.level_keys(k), X.all_simplices(k)
            above = X.all_simplices(k + 1)
            assert len(keys) == X.level_size(k)
            for p in range(len(keys)):
                assert X.level_key(k, p) == keys[p]
                assert X.level_position(*X.level_key(k, p), k) == p
                for i in range(k + 1):
                    assert above[X.level_degeneracy(p, k, (i,))] == simplices[p].degenerate((i,))
            for low in range(k + 2):
                tail = X.level_keys(k, low)
                assert tail == keys[len(keys) - len(tail):]
                if k:
                    faces = X.level_faces(k, low)
                    assert len(faces) == len(tail)
                    assert faces == X.level_faces(k)[len(keys) - len(tail):]


def test_level_readers_refuse_what_is_outside_the_level():
    # The last position of level 2 of Δ² is 9; past it, or before 0, there
    # is no key to read, and no level below 1 has faces.
    X = standard_simplex(2)
    assert X.level_size(2) == 10 and X.level_key(2, 9) == ((), 0)
    for k, p in [(2, 10), (2, -1), (0, 3), (-1, 0)]:
        with pytest.raises(ValidationError, match=f"^level {k} has no position {p};"):
            X.level_key(k, p)
    for k in (0, -1):
        with pytest.raises(ValidationError, match=f"^level {k} has no faces;"):
            X.level_faces(k)
    assert len(X.level_faces(1)) == X.level_size(1)


def test_each_cell_has_one_simplex_per_space():
    # ``simplex``, ``face``, ``all_simplices`` and the identity and inclusion
    # maps hand out one ``Simplex`` per nondegenerate cell of a space.
    for X in _level_spaces():
        cells = {name: X.simplex(name) for name in X.names}
        assert all(X.simplex(name) is sx for name, sx in cells.items())
        assert all(SSetMap.identity_map(X).images[n] is sx for n, sx in cells.items())
        for k in range(X.top_dim + 1):
            level = X.all_simplices(k)
            assert all(level[-len(X.nondeg(k)) + p] is cells[n] for p, n in enumerate(X.nondeg(k)))
            for name in X.nondeg(k) if k else ():
                for i in range(k + 1):
                    face = X.face(cells[name], i)
                    assert face.is_degenerate or face is cells[face.base]
        A = subcomplex(X, face_closure(X, X.nondeg(X.top_dim)[:1]))
        assert all(
            sx is cells[name] for name, sx in SSetMap.inclusion(A, X).images.items()
        )


def test_level_tables_are_built_without_face(monkeypatch):
    # Fresh copies, so that no level was built before ``face`` is refused.
    spaces = [
        FiniteSSet(X.cells, X.faces, X.basepoint, check=False)
        for X in _degenerate_face_spaces()
    ]
    assert max(len(f.degeneracies) for X in spaces for fs in X.faces.values() for f in fs) == 2

    def refuse(self, sx, i):
        raise AssertionError("a level table was built through face")

    monkeypatch.setattr(FiniteSSet, "face", refuse)
    for X in spaces:
        for k in range(1, X.top_dim + 3):
            assert len(X.level_faces(k)) == len(X.all_simplices(k)) == X.level_size(k)


def _face_rule_spaces():
    """The four test spaces, T², the 6-vertex RP² and the nerve of the
    square poset 00 < 01, 10 < 11."""
    square = {("00", "01"), ("00", "10"), ("00", "11"), ("01", "11"), ("10", "11")}
    elements = ("00", "01", "10", "11")
    P = Preorder(elements, frozenset(square | {(e, e) for e in elements}))
    return list(four_test_spaces().values()) + [
        product(circle(), circle()).space,
        projective_plane(),
        nerve_preorder(P, 3),
    ]


def test_face_reads_the_faces_of_a_cell_through_the_face_rule(monkeypatch):
    # One face rule: the faces of a nondegenerate cell go through
    # ``face_key`` and ``simplex_at`` like those of a degenerate simplex,
    # not through the name-keyed view, and are the same shared ``Simplex``.
    spaces = _face_rule_spaces() + _degenerate_face_spaces()
    expected = [(X, dict(X.faces)) for X in spaces]

    def refuse(self):
        raise AssertionError("the name-keyed faces were read")

    monkeypatch.setattr(FiniteSSet, "_face_simplices", refuse)
    for X, faces in expected:
        assert faces.keys() == {name for level in X.cells[1:] for name in level}
        for name, stored in faces.items():
            sx = X.simplex(name)
            got = tuple(X.face(sx, i) for i in range(sx.dim + 1))
            assert got == stored
            assert all(f is g for f, g in zip(got, stored) if not g.is_degenerate)


def test_face_key_is_the_face_rule():
    # On every simplex of every level k <= 4 and every i, the (word,
    # position) key is the face that ``face`` returns and the face the
    # monotone-map oracle gets by composing and factoring maps.
    for X in _face_rule_spaces():
        for k in range(1, 5):
            for sx in X.all_simplices(k):
                for i in range(k + 1):
                    word, pos = X.face_key(sx.degeneracies, X.position(sx.base), k, i)
                    base = X.nondeg(k - 1 - len(word))[pos]
                    oracle = delta_oracle.act(X, sx, delta_oracle.face_map(k, i))
                    assert Simplex(word, base, k - 1) == X.face(sx, i) == oracle


def test_level_table_lists_every_name_under_every_degeneracy_word():
    for X in _level_spaces():
        for k in range(6):
            listing = tuple(
                Simplex(word, name, k)
                for m in range(min(k, X.top_dim) + 1)
                for name in X.nondeg(m)
                for word in degeneracy_words(k, m)
            )
            assert tuple(X.simplex_at(*key, k) for key in X.level_keys(k)) == listing
            assert X.all_simplices(k) == listing
            assert X.level_size(k) == len(listing)


@pytest.mark.parametrize(
    "sx", [Simplex((), "012", 2), Simplex((0,), "01", 2)], ids=["nondeg", "degenerate"]
)
@pytest.mark.parametrize("i", [-1, 3])
def test_face_index_outside_range_is_rejected(sx, i):
    with pytest.raises(ValidationError, match=f"face index {i} outside"):
        standard_simplex(2).face(sx, i)


def test_simplex_rejects_negative_degeneracy_index():
    with pytest.raises(ValidationError, match=r"degeneracy word \(-1,\)"):
        Simplex((-1,), "v", 1)
    with pytest.raises(ValidationError, match=r"degeneracy word \(1, -1\)"):
        Simplex((1, -1), "v", 2)


def test_simplex_value_contract():
    sx = Simplex((1, 0), "ab", 3)
    # the hash of the (degeneracies, base, dim) tuple, so set and dict
    # orders match those of that tuple
    assert hash(sx) == hash(((1, 0), "ab", 3))
    assert hash(Simplex((), "v", 0)) == hash(((), "v", 0))
    assert sx == Simplex((1, 0), "ab", 3)
    assert sx != Simplex((2, 0), "ab", 3)
    assert sx != Simplex((1, 0), "ac", 3)
    assert sx != Simplex((1, 0), "ab", 4)
    assert sx != ((1, 0), "ab", 3)
    assert ((1, 0), "ab", 3) != sx
    for field in ("degeneracies", "base", "dim", "other"):
        with pytest.raises(AttributeError):
            setattr(sx, field, None)
    with pytest.raises(AttributeError):
        del sx.base
    assert repr(sx) == "Simplex(degeneracies=(1, 0), base='ab', dim=3)"
    assert pickle.loads(pickle.dumps(sx)) == sx


def test_spaces_pickle_after_their_faces_are_read():
    for X in [standard_simplex(3), two_sphere()]:
        assert X.faces and X.level_faces(2) and X.level_key(2, 0)
        back = pickle.loads(pickle.dumps(X))
        assert back == X and back.faces == X.faces
        assert back.level_faces(2) == X.level_faces(2)
        assert back.level_keys(2) == X.level_keys(2)


MALFORMED_WORDS = pytest.mark.parametrize(
    "word, dim, message",
    [
        ((0, 1), 3, "not strictly decreasing"),
        ((2,), 2, "out of range"),
        ((-1,), 1, "negative index"),
        # A strictly decreasing word with indices in [0, dim) has at most
        # dim letters, so an overlong word fails the range check.
        ((1, 0), 1, "out of range"),
    ],
    ids=["increasing", "index-too-large", "negative", "longer-than-dim"],
)


@MALFORMED_WORDS
def test_malformed_degeneracy_words_are_rejected(word, dim, message):
    with pytest.raises(ValidationError, match=message):
        Simplex(word, "v", dim)


@MALFORMED_WORDS
def test_malformed_words_raise_on_every_construction(word, dim, message):
    # Simplex remembers the words that passed its check, never a failure.
    messages = []
    for _ in range(2):
        with pytest.raises(ValidationError, match=message) as err:
            Simplex(word, "v", dim)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_word_check_is_remembered_per_dimension():
    Simplex((2,), "v", 3)
    with pytest.raises(ValidationError, match="out of range in dim 2"):
        Simplex((2,), "v", 2)


def test_operator_action_builds_no_monotone_maps(monkeypatch):
    # Faces, degeneracies and map application work on degeneracy words:
    # building a product or an iterated suspension needs no monotone map.
    built = []
    check = MonotoneMap.__post_init__

    def counting_check(f):
        built.append(f)
        check(f)

    monkeypatch.setattr(MonotoneMap, "__post_init__", counting_check)
    MonotoneMap(0, 0, (0,))
    assert len(built) == 1  # the patched check sees every construction
    built.clear()
    product(standard_simplex(3), standard_simplex(3))
    assert built == []
    reduced_suspension(reduced_suspension(circle()))
    assert built == []
    # Neither do the tower's comparison maps nor the degenerate chains of a
    # nerve (here the identities of a preorder with a <= b <= a).
    tower(reduced_chains_evaluator(), circle(), 1)
    assert built == []
    nerve_preorder(preorder_from_record({
        "elements": ["a", "b"], "pairs": [["a", "b"], ["b", "a"]],
    }), 3)
    assert built == []
    # Nor do degenerate simplices, map search, classifying maps, function
    # complexes, mapping spaces or the Dold-Kan operators.
    standard_simplex(3).all_simplices(5)
    enumerate_maps(standard_simplex(2), circle())
    simplex_as_map(standard_simplex(2), Simplex((1,), "01", 2))
    internal_hom_truncated(boundary(1), standard_simplex(1), 2)
    mapping_space(standard_simplex(2), "0", "2", 2)
    dold_kan_K(single_complex(1), 4)
    assert built == []


def test_validation_rejects_broken_faces():
    with pytest.raises(ValidationError):
        FiniteSSet(
            (("a", "b"), ("e",)),
            {"e": (Simplex((), "a", 0), Simplex((), "missing", 0))},
        )
    # face/face identity violation in dimension 2
    d2 = standard_simplex(2)
    faces = dict(d2.faces)
    faces["012"] = (faces["012"][0], faces["012"][0], faces["012"][2])
    with pytest.raises(ValidationError):
        FiniteSSet(d2.cells, faces)


def _first_identity_failure(X):
    """Reference identity check, with four ``face`` calls per pair: the
    message of the first pair where d_i d_j != d_{j-1} d_i, or None."""
    for k in range(2, X.top_dim + 1):
        for name in X.nondeg(k):
            sx = X.simplex(name)
            for j in range(1, k + 1):
                for i in range(j):
                    if X.face(X.face(sx, j), i) != X.face(X.face(sx, i), j - 1):
                        return (
                            f"simplicial identity fails on {name!r}: "
                            f"d_{i} d_{j} != d_{j - 1} d_{i}"
                        )
    return None


def test_identity_check_reports_the_pair_the_reference_reports():
    # Swap two distinct faces of one cell: the check fails on the pair the
    # reference names first, or passes where the reference passes.
    failures = 0
    for X in [standard_simplex(3), two_sphere()] + _degenerate_face_spaces():
        for name, fs in X.faces.items():
            for a in range(len(fs)):
                for b in range(a + 1, len(fs)):
                    if fs[a] == fs[b]:
                        continue
                    swapped = list(fs)
                    swapped[a], swapped[b] = fs[b], fs[a]
                    faces = {**X.faces, name: tuple(swapped)}
                    want = _first_identity_failure(FiniteSSet(X.cells, faces, check=False))
                    if want is None:
                        FiniteSSet(X.cells, faces)
                        continue
                    failures += 1
                    with pytest.raises(ValidationError) as exc:
                        FiniteSSet(X.cells, faces)
                    assert str(exc.value) == want
    assert failures >= 30


def test_subcomplex_and_closure():
    d2 = standard_simplex(2)
    names = face_closure(d2, ["01"])
    assert names == {"0", "1", "01"}
    A = subcomplex(d2, names)
    assert A.counts() == (2, 1)
    with pytest.raises(ValidationError):
        subcomplex(d2, {"01"})
    assert is_name_subcomplex(d2, A)
    assert not is_name_subcomplex(A, d2)


def test_union_and_intersection():
    d2 = standard_simplex(2)
    U = subcomplex(d2, face_closure(d2, ["01"]))
    V = subcomplex(d2, face_closure(d2, ["12"]))
    assert subset_intersection(d2, U, V).counts() == (1,)


def test_pointed_requires_vertex():
    X = boundary(1)
    assert pointed(X, "0").basepoint == "0"
    with pytest.raises(ValidationError):
        pointed(X, "01")
    with pytest.raises(ValidationError):
        pointed(X, "zz")


def test_sset_map_validation():
    d1 = standard_simplex(1)
    pt = standard_simplex(0)
    f = constant_map(d1, pt, "0")
    assert f.apply(Simplex((), "01", 1)) == Simplex((0,), "0", 1)
    with pytest.raises(ValidationError):
        SSetMap(d1, d1, {"0": Simplex((), "0", 0), "1": Simplex((), "0", 0), "01": Simplex((), "01", 1)})


def test_simplex_as_map_and_composition():
    d2 = standard_simplex(2)
    edge = simplex_as_map(d2, Simplex((), "02", 1))
    assert edge.source == standard_simplex(1)
    assert edge.images["01"] == Simplex((), "02", 1)
    incl = SSetMap.inclusion(boundary(2), d2)
    ident = SSetMap.identity_map(d2)
    assert ident.compose(incl) == incl


@pytest.mark.parametrize("vertex", ["zz", "01", ""])
def test_constant_map_refuses_what_is_not_a_vertex_of_the_target(vertex):
    # a name outside the target, or an edge, would give a map whose chain
    # map is silently zero
    d1 = standard_simplex(1)
    with pytest.raises(ValidationError, match=f"^{vertex!r} is not a vertex of the target$"):
        constant_map(d1, d1, vertex)


@pytest.mark.parametrize(
    "sx, message",
    [
        (Simplex((), "01", 0), "base '01' is not a 0-simplex of the target"),
        (Simplex((0,), "0", 2), "base '0' is not a 1-simplex of the target"),
        (Simplex((), "zz", 1), "base 'zz' is not a 1-simplex of the target"),
        (Simplex((1, 0), "0", 2), None),
    ],
)
def test_simplex_as_map_refuses_what_is_not_a_simplex_of_the_target(sx, message):
    d1 = standard_simplex(1)
    if message is None:  # a degenerate simplex of the target classifies a map
        f = simplex_as_map(d1, sx)
        SSetMap(f.source, d1, f.images, check=True)
        assert set(f.images.values()) == {Simplex((), "0", 0), Simplex((0,), "0", 1), sx}
        return
    with pytest.raises(ValidationError, match=f"^{message}$"):
        simplex_as_map(d1, sx)


def test_dimensionwise_injectivity():
    incl = SSetMap.inclusion(boundary(2), standard_simplex(2))
    assert incl.is_dimensionwise_injective()
    fold = constant_map(boundary(1), standard_simplex(0), "0")
    assert not fold.is_dimensionwise_injective()


def _injective_on_every_level(f, top):
    for k in range(top + 1):
        images = [f.apply(sx) for sx in f.source.all_simplices(k)]
        if len(set(images)) != len(images):
            return False
    return True


@pytest.mark.parametrize(
    "source, target",
    [
        (standard_simplex(1), standard_simplex(2)),
        (boundary(2), standard_simplex(2)),
        (standard_simplex(2), standard_simplex(1)),
        (boundary(1), standard_simplex(0)),
    ],
)
def test_dimensionwise_injectivity_matches_levelwise_check(source, target):
    # The Eilenberg-Zilber criterion against every simplex, one level past
    # the top nondegenerate one.
    from ssetkit.function_complex import enumerate_maps

    for f in enumerate_maps(source, target):
        expected = _injective_on_every_level(f, source.top_dim + 1)
        assert f.is_dimensionwise_injective() == expected


def test_isomorphism_detection():
    assert are_isomorphic(standard_simplex(2), standard_simplex(2))
    assert not are_isomorphic(standard_simplex(2), boundary(2))
    relabeled = FiniteSSet(
        (("x",), ("loop",)),
        {"loop": (Simplex((), "x", 0), Simplex((), "x", 0))},
    )
    other = FiniteSSet(
        (("y",), ("round",)),
        {"round": (Simplex((), "y", 0), Simplex((), "y", 0))},
    )
    assert are_isomorphic(relabeled, other)
