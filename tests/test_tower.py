"""Stage evaluators, towers, stabilization, and the collapse computation."""

import pathlib

import pytest

from conftest import four_test_spaces
from ssetkit import build, cli, excision
from ssetkit.chain import homology, homology_table, quasi_iso
from ssetkit.errors import StabilizationError, ValidationError
from ssetkit.simplicial_chains import normalized_chains
from ssetkit.sset import pointed, standard_simplex
from ssetkit.tower import (
    StageEvaluator,
    check_reduced,
    l1_mock_evaluator,
    p1_approximation,
    reduced_chains_evaluator,
    stage,
    tower,
)


def _point():
    return pointed(standard_simplex(0), "0")


def test_stage_zero_of_reduced_chains():
    F = reduced_chains_evaluator()
    S0 = four_test_spaces()["S0"]
    c = stage(F, S0, 0)
    assert homology(c, 0).rank == 1
    assert homology(c, 1).rank == 0


def test_stage_one_matches_in_homology():
    F = reduced_chains_evaluator()
    S0 = four_test_spaces()["S0"]
    c1 = stage(F, S0, 1)
    assert homology(c1, 0).rank == 1
    assert homology(c1, 1).rank == 0


def test_stage_requires_pointed_nonnegative():
    F = reduced_chains_evaluator()
    with pytest.raises(ValidationError):
        stage(F, standard_simplex(0), 0)  # no basepoint
    with pytest.raises(ValidationError):
        stage(F, _point(), -1)


def test_stage_homology_independent_of_n():
    F = reduced_chains_evaluator()
    for name, X in four_test_spaces().items():
        tables = []
        for n in range(0, 4):
            c = stage(F, X, n)
            tables.append({k: (g.rank, g.torsion)
                           for k, g in homology_table(c, 0, 2).items()})
        assert all(t == tables[0] for t in tables[1:]), name


def test_tower_structure_maps_are_quasi_isos():
    F = reduced_chains_evaluator()
    for name, X in four_test_spaces().items():
        t = tower(F, X, 3)
        assert len(t.stages) == 4 and len(t.maps) == 3
        for u in t.maps:
            assert quasi_iso(u), name


def test_tower_maps_join_its_own_stages():
    t = tower(reduced_chains_evaluator(), four_test_spaces()["S1"], 3)
    for i, f in enumerate(t.maps):
        assert f.source is t.stages[i]
        assert f.target is t.stages[i + 1]


def test_tower_needs_at_least_one_map():
    F = reduced_chains_evaluator()
    with pytest.raises(ValidationError):
        tower(F, _point(), 0)


def test_reduced_chains_tower_does_not_stabilize_on_the_nose():
    # stage ranks grow with n, so no certified degreewise-iso tail exists;
    # the colimit refuses to guess
    F = reduced_chains_evaluator()
    S0 = four_test_spaces()["S0"]
    with pytest.raises(StabilizationError):
        p1_approximation(F, S0, 3)


def test_mock_tower_collapses():
    F = l1_mock_evaluator()
    for name, X in four_test_spaces().items():
        t = tower(F, X, 4)
        for n in (2, 3, 4):
            assert t.stages[n].is_zero_complex(), name
        value = p1_approximation(F, X, 4)
        assert value.is_zero_complex(), name


def test_mock_matches_reduced_chains_below_threshold():
    F = l1_mock_evaluator()
    G = reduced_chains_evaluator()
    S1 = four_test_spaces()["S1"]
    for n in (0, 1):
        a = homology_table(stage(F, S1, n), 0, 2)
        b = homology_table(stage(G, S1, n), 0, 2)
        assert {k: (g.rank, g.torsion) for k, g in a.items()} == \
               {k: (g.rank, g.torsion) for k, g in b.items()}
    assert stage(F, S1, 5).is_zero_complex()


def test_check_reduced_certificates():
    cert = check_reduced(reduced_chains_evaluator(), 3)
    assert cert.ok
    certm = check_reduced(l1_mock_evaluator(), 3)
    assert certm.ok


def test_check_reduced_rejects_unreduced_chains():
    # deliberately unreduced: the point has nonzero degree-0 homology
    F = StageEvaluator(
        name="full_chains",
        eval=lambda X, n: normalized_chains(X),
        structure_map=None,
    )
    cert = check_reduced(F, 2)
    assert not cert.ok
    # witness records the offending homology: the point keeps rank one
    flat = dict(cert.witness)
    assert all(dict(table)[0].rank == 1 and dict(table)[0].torsion == ()
               for table in flat.values())


def test_reduced_evaluator_on_point_is_acyclic():
    F = reduced_chains_evaluator()
    for n in range(3):
        assert stage(F, _point(), n).is_zero_complex() or \
            all(homology(stage(F, _point(), n), k).rank == 0 for k in range(4))


def test_p1_of_reduced_functor_on_point_is_zero():
    for F in (reduced_chains_evaluator(), l1_mock_evaluator()):
        value = p1_approximation(F, _point(), 3)
        assert all(homology(value, k).rank == 0 for k in range(4))


def test_mock_value_invariant_beyond_stabilization():
    F = l1_mock_evaluator()
    X = four_test_spaces()["S1"]
    for N in (3, 4, 5):
        assert p1_approximation(F, X, N).is_zero_complex()


GOLDEN = pathlib.Path(__file__).parent.parent / "perfbench" / "data" / "expected"


class _Refused(Exception):
    pass


def _refuse(*args, **kwargs):
    raise _Refused("a tower stage built a product, pullback, pushout or quotient")


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["tower", "reduced_chains", "circle", "-N", "4", "--json"], "tower-circle-4"),
        (["tower", "reduced_chains", "s2", "-N", "3", "--json"], "tower-s2-3"),
        (["tower", "l1_mock", "s2", "-N", "3", "--json", "--assert"], "tower-l1mock-s2-3"),
    ],
)
def test_towers_suspend_without_products_or_quotients(monkeypatch, capsys, argv, golden):
    # The base spaces are quotients, so they are built before the
    # constructions are refused; every suspension of the tower is then
    # written down from cells alone.
    spheres = {1: cli._sphere(1), 2: cli._sphere(2)}
    monkeypatch.setitem(cli._BUILTINS, "circle", (0, lambda: spheres[1]))
    monkeypatch.setitem(cli._BUILTINS, "s", (1, spheres.__getitem__))
    for name in ("_pullback", "pushout", "quotient"):
        monkeypatch.setattr(build, name, _refuse)
    for name in ("product", "pushout", "quotient", "sset_pullback"):
        monkeypatch.setattr(excision, name, _refuse)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{golden}.json").read_text(encoding="utf-8")
