"""Derived chain data is built unchecked; full validation agrees.

The chains of a simplicial set, the chain maps of simplicial maps, shifts,
sums, cones, composites, tower stages and structure maps, the maps of a
cover's short exact sequence, the chain square of a square of spaces and
the sequence ``W -> U + V -> X`` of a chain square are valid by
construction, so the package builds them without running the d∘d and
chain-map-law checks.  So are the Dold-Kan groups, Moore complexes
and good truncations, which skip the simplicial-identity and d∘d checks.
These properties rebuild each such value through the validating
constructors and compare it with the original.  The last test pins down
that the tower pipeline re-checks nothing it derived and eliminates each
boundary once.
"""

from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import four_test_spaces, two_elimination_table
from ssetkit import chain, cli
from ssetkit.chain import (
    ChainComplex,
    ChainMap,
    ChainSquare,
    direct_sum,
    homology_table,
    loop_shift,
    mapping_cone,
    single_complex,
    square_sequence,
    total_complex_of_square,
)
from ssetkit.dold_kan import (
    SimplicialAbelianGroup,
    dold_kan_K,
    moore_normalized,
    truncate_nonneg,
)
from ssetkit.errors import ValidationError
from ssetkit.excision import (
    chain_square_of,
    cover_from_names,
    cover_short_exact_sequence,
    is_homology_pushout,
    pushout_square,
)
from ssetkit.function_complex import enumerate_maps
from ssetkit.intmat import _rank_torsion_units
from ssetkit.simplicial_chains import (
    chain_map_of,
    normalized_chains,
    reduced_chain_map_of,
    reduced_normalized_chains,
)
from ssetkit.sset import SSetMap, face_closure, pointed, standard_simplex, subcomplex
from ssetkit.tower import l1_mock_evaluator, reduced_chains_evaluator

SPACES = {
    **four_test_spaces(),
    "simplex1": pointed(standard_simplex(1), "0"),
    "simplex2": pointed(standard_simplex(2), "0"),
}
spaces = st.sampled_from(sorted(SPACES)).map(SPACES.__getitem__)


def revalidate(c: ChainComplex) -> None:
    assert ChainComplex(c.low, c.high, c.ranks, c.boundaries) == c


def revalidate_map(f: ChainMap) -> None:
    revalidate(f.source)
    revalidate(f.target)
    assert ChainMap(f.source, f.target, f.blocks) == f


def draw_map(data, X, Y) -> SSetMap:
    return data.draw(st.sampled_from(enumerate_maps(X, Y)))


@given(spaces, spaces, st.integers(0, 3))
def test_chains_shifts_and_sums_validate(X, Y, k):
    for chains in (normalized_chains, reduced_normalized_chains):
        c, d = chains(X), chains(Y)
        revalidate(c)
        revalidate(loop_shift(c, k))
        revalidate(direct_sum(c, d))


@given(st.data())
def test_chain_maps_cones_and_composites_validate(data):
    X, Y, Z = data.draw(spaces), data.draw(spaces), data.draw(spaces)
    f, g = draw_map(data, X, Y), draw_map(data, Y, Z)
    for cmap in (chain_map_of, reduced_chain_map_of):
        try:
            cf, cg = cmap(f), cmap(g)
        except ValidationError:  # a reduced map needs a pointed map
            continue
        revalidate_map(cf)
        revalidate(mapping_cone(cf))
        composite = cg.compose(cf)
        revalidate_map(composite)
        if cmap is chain_map_of:  # chains are a functor
            assert composite == chain_map_of(g.compose(f))


@pytest.mark.parametrize("name", sorted(SPACES))
def test_tower_stages_and_structure_maps_validate(name):
    X = SPACES[name]
    for F in (reduced_chains_evaluator(), l1_mock_evaluator()):
        for n in range(3):
            revalidate(F.eval(X, n))
            revalidate_map(F.structure_map(X, n))


@settings(max_examples=25)
@given(st.data(), st.booleans())
def test_cover_sequence_maps_validate(data, reduced):
    X = data.draw(spaces)
    names = sorted(X.names)
    u_names = data.draw(st.sets(st.sampled_from(names)))
    v_names = (set(names) - u_names) | data.draw(st.sets(st.sampled_from(names)))
    cd = cover_from_names(X, u_names, v_names)
    try:
        ses = cover_short_exact_sequence(cd, reduced=reduced)
    except ValidationError:  # a reduced sequence needs a vertex in U ∩ V
        assume(False)
    for f in ses.maps:
        revalidate_map(f)


@settings(max_examples=25)
@given(st.data())
def test_chain_squares_of_pushouts_validate(data):
    X, Y = data.draw(spaces), data.draw(spaces)
    names = data.draw(st.sets(st.sampled_from(sorted(X.names))))
    A = subcomplex(X, face_closure(X, names))
    f = draw_map(data, A, Y)
    g = SSetMap.inclusion(A, X)
    for sq in (pushout_square(f, g), pushout_square(g, f)):
        csq = chain_square_of(sq)
        legs = (csq.w_to_u, csq.w_to_v, csq.u_to_x, csq.v_to_x)
        for leg in legs:
            revalidate_map(leg)
        assert ChainSquare(*legs) == csq
        # Its total complex is the cone of a map out of a cone; d∘d = 0 on
        # it holds only if both maps inside obey the chain-map law.
        revalidate(total_complex_of_square(csq))
        into_sum, out_of_sum = square_sequence(csq)
        revalidate_map(into_sum)
        revalidate_map(out_of_sum)
        assert out_of_sum.compose(into_sum).is_zero()
        # A strict pushout along an injective leg is a homotopy pushout.
        assert is_homology_pushout(sq)


@given(
    st.one_of(
        st.builds(single_complex, st.integers(0, 3), st.integers(0, 2)),
        st.sampled_from(sorted(four_test_spaces()))
        .map(SPACES.__getitem__)
        .map(reduced_normalized_chains),
    ),
    st.integers(0, 4),
)
def test_dold_kan_results_validate(c, cap):
    A = dold_kan_K(c, cap)
    assert SimplicialAbelianGroup(A.cap, A.ranks, A.face_ops, A.degeneracy_ops) == A
    revalidate(moore_normalized(A))
    revalidate(truncate_nonneg(c))


@given(st.data())
def test_homology_table_matches_two_elimination_formula(data):
    X, Y = data.draw(spaces), data.draw(spaces)
    f = draw_map(data, X, Y)
    c = data.draw(st.sampled_from([
        normalized_chains(X), reduced_normalized_chains(X),
        mapping_cone(chain_map_of(f)), loop_shift(normalized_chains(Y), 2),
    ]))
    low = data.draw(st.integers(c.low - 2, c.high + 1))
    high = data.draw(st.integers(low - 1, c.high + 2))
    table = homology_table(c, low, high)
    assert {n: (g.rank, g.torsion) for n, g in table.items()} == (
        two_elimination_table(c, low, high)
    )


TOWER_TASKS = (
    ("tower", "reduced_chains", "circle", "-N", "4", "--json"),
    ("tower", "reduced_chains", "s2", "-N", "3", "--json"),
    ("tower", "l1_mock", "s2", "-N", "3", "--json", "--assert"),
)


def test_tower_pipeline_rechecks_nothing_and_eliminates_each_boundary_once(
    monkeypatch, capsys
):
    checks = Counter()
    for cls in (ChainComplex, ChainMap):
        def counted_check(self, _check=cls.__post_init__, _name=cls.__name__):
            checks[_name] += 1
            _check(self)

        monkeypatch.setattr(cls, "__post_init__", counted_check)
    eliminations = []

    def counted_elimination(M, skip=()):
        eliminations.append((M.rows, M.cols))
        return _rank_torsion_units(M, skip)

    reads = []  # (boundaries a table reads, eliminations it ran)

    def counted_table(c, low, high):
        before = len(eliminations)
        table = homology_table(c, low, high)
        reads.append((max(high - low + 2, 0), len(eliminations) - before))
        return table

    monkeypatch.setattr(chain, "_rank_torsion_units", counted_elimination)
    monkeypatch.setattr(chain, "homology_table", counted_table)
    monkeypatch.setattr(cli, "homology_table", counted_table)
    ChainComplex(0, 0, (1,), ())
    assert checks == Counter({"ChainComplex": 1})  # the counter sees checks
    checks.clear()
    for argv in TOWER_TASKS:
        assert cli.main(list(argv)) == 0
    capsys.readouterr()
    assert checks == Counter()
    assert reads and all(ran <= boundaries for boundaries, ran in reads)
    # Every elimination of the pipeline is one of a table's reads.
    assert len(eliminations) == sum(ran for _, ran in reads)
