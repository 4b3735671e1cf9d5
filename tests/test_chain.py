"""Integer chain complexes: homology, cones, squares, towers, norms."""

import random

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from conftest import circle
from intmat_oracle import smith_normal_form
from ssetkit import intmat
from ssetkit.build import product
from ssetkit.chain import (
    ChainComplex,
    ChainSquare,
    RealChain,
    Tower,
    boundary_operator_norm,
    chain_map_from_blocks,
    check_exact_sequence,
    direct_sum,
    homology,
    homology_presentation,
    homology_table,
    identity_chain_map,
    is_acyclic,
    is_homotopy_bicartesian,
    l1_norm,
    loop_shift,
    mapping_cone,
    quasi_iso,
    sequential_colimit,
    single_complex,
    total_complex_of_square,
    zero_complex,
    zero_map,
)
from ssetkit.errors import StabilizationError, ValidationError
from ssetkit.excision import cover_from_names, mayer_vietoris
from ssetkit.groups import HomologyGroup
from ssetkit.intmat import IntMat, kernel_basis, rank_and_torsion
from ssetkit.simplicial_chains import normalized_chains
from ssetkit.sset import boundary, standard_simplex


# -- independent homology oracle -------------------------------------------


def _sympy_homology(c: ChainComplex, n: int):
    """Rank and torsion of H_n computed with sympy only."""
    def mat(m):
        return sympy.Matrix(m.rows, m.cols, lambda i, j: m.entries[i][j])

    cn = c.rank(n)
    d_out = mat(c.boundary(n)) if c.low + 1 <= n <= c.high else sympy.zeros(0, cn)
    d_in = mat(c.boundary(n + 1)) if c.low + 1 <= n + 1 <= c.high else sympy.zeros(cn, 0)
    rank_out = d_out.rank()
    rank_in = d_in.rank()
    free = cn - rank_out - rank_in
    torsion = ()
    if d_in.rows and d_in.cols:
        diag = [abs(x) for x in sympy_snf(d_in).diagonal() if x != 0]
        torsion = tuple(int(x) for x in diag if abs(x) != 1)
    return free, torsion


def _random_complex(rng: random.Random) -> ChainComplex:
    """A valid three-term complex with occasional torsion."""
    a, b = rng.randint(1, 3), rng.randint(1, 4)
    d1 = IntMat(a, b, tuple(tuple(rng.randint(-3, 3) for _ in range(b))
                            for _ in range(a)))
    K = kernel_basis(d1)
    if K.cols:
        scale = IntMat(K.cols, K.cols, tuple(
            tuple(rng.choice([1, 1, 2, 3]) if i == j else 0 for j in range(K.cols))
            for i in range(K.cols)))
        d2 = K @ scale
    else:
        d2 = IntMat.zero(b, 0)
    return ChainComplex(0, 2, (a, b, d2.cols), (d1, d2))


def test_homology_matches_sympy_oracle():
    rng = random.Random(20260823)
    for _ in range(40):
        c = _random_complex(rng)
        for n in range(0, 3):
            g = homology(c, n)
            free, torsion = _sympy_homology(c, n)
            assert (g.rank, g.torsion) == (free, torsion)
            assert g == homology_presentation(c, n)[1].normal_form()


def test_homology_table_matches_sympy_oracle():
    # One elimination per boundary gives the groups of every degree read,
    # inside the window and on both sides of it.
    rng = random.Random(20261018)
    for _ in range(40):
        c = _random_complex(rng)
        table = homology_table(c, -1, 3)
        assert list(table) == list(range(-1, 4))
        for n, g in table.items():
            assert (g.rank, g.torsion) == _sympy_homology(c, n)


def test_boundary_composite_must_vanish():
    d1 = IntMat(1, 1, ((1,),))
    with pytest.raises(ValidationError, match="boundary composite in degree 2 "):
        ChainComplex(0, 2, (1, 1, 1), (d1, d1))
    with pytest.raises(ValidationError, match="boundary out of degree 1 "):
        ChainComplex(0, 1, (2, 1), (IntMat.zero(1, 1),))


def test_single_complex_and_out_of_window():
    c = single_complex(3, 2)
    assert homology(c, 3).rank == 2
    assert homology(c, 0) .rank == 0
    assert homology(c, -5).rank == 0


def test_l1_norm():
    assert l1_norm(RealChain(1, ((0, 2.0), (1, -3.0)))) == 5.0
    assert l1_norm(RealChain(0, ())) == 0.0


def test_boundary_operator_norm():
    c = normalized_chains(standard_simplex(2))
    assert boundary_operator_norm(c, 2) == 3.0
    assert boundary_operator_norm(c, 1) == 2.0
    assert boundary_operator_norm(c, 5) == 0.0


def test_loop_shift_goldens():
    assert loop_shift(zero_complex()).is_zero_complex()
    shifted = loop_shift(single_complex(1))
    assert shifted.rank(0) == 1 and shifted.rank(1) == 0


def test_loop_shift_homology():
    rng = random.Random(7)
    for _ in range(20):
        c = _random_complex(rng)
        s = loop_shift(c)
        for n in range(-1, 3):
            a, b = homology(s, n), homology(c, n + 1)
            assert (a.rank, a.torsion) == (b.rank, b.torsion)


def _primary_parts(torsion):
    """Multiset of prime powers; the isomorphism invariant of the torsion."""
    parts = []
    for t in torsion:
        for p, e in sympy.factorint(t).items():
            parts.append(int(p) ** int(e))
    return sorted(parts)


def test_direct_sum_homology_adds():
    rng = random.Random(11)
    for _ in range(15):
        a, b = _random_complex(rng), _random_complex(rng)
        s = direct_sum(a, b)
        for n in range(0, 3):
            ga, gb, gs = homology(a, n), homology(b, n), homology(s, n)
            assert gs.rank == ga.rank + gb.rank
            assert _primary_parts(gs.torsion) == _primary_parts(ga.torsion + gb.torsion)


def test_cone_of_identity_is_acyclic():
    rng = random.Random(3)
    for _ in range(10):
        c = _random_complex(rng)
        assert is_acyclic(mapping_cone(identity_chain_map(c)))


def test_cone_of_zero_map_from_zero():
    c = normalized_chains(standard_simplex(1))
    cone = mapping_cone(zero_map(zero_complex(), c))
    for n in range(0, 2):
        assert (homology(cone, n).rank, homology(cone, n).torsion) == (
            homology(c, n).rank, homology(c, n).torsion)


def test_cone_of_multiplication_by_two():
    z = single_complex(0)
    f = chain_map_from_blocks(z, z, {0: IntMat(1, 1, ((2,),))})
    cone = mapping_cone(f)
    assert (homology(cone, 0).rank, homology(cone, 0).torsion) == (0, (2,))
    assert homology(cone, 1).rank == 0


def test_quasi_iso_basics():
    c = normalized_chains(circle())
    assert quasi_iso(identity_chain_map(c))
    assert not quasi_iso(zero_map(zero_complex(), c))


def _zero_corner_square(x: ChainComplex) -> ChainSquare:
    z = zero_complex()
    return ChainSquare(zero_map(z, z), zero_map(z, z),
                       zero_map(z, x), zero_map(z, x))


def test_total_complex_goldens():
    z = zero_complex()
    sq = ChainSquare(zero_map(z, z), zero_map(z, z),
                     zero_map(z, z), zero_map(z, z))
    assert total_complex_of_square(sq).is_zero_complex()
    assert is_homotopy_bicartesian(sq)

    x = normalized_chains(circle())
    sq2 = _zero_corner_square(x)
    tot = total_complex_of_square(sq2)
    assert homology(tot, 1).rank == 1
    assert not is_homotopy_bicartesian(sq2)


def test_square_validation():
    c = single_complex(0)
    ident = identity_chain_map(c)
    double = chain_map_from_blocks(c, c, {0: IntMat(1, 1, ((2,),))})
    # mismatched composites around the square are rejected
    with pytest.raises(ValidationError):
        ChainSquare(ident, ident, ident, double)


def test_pushout_square_of_spaces_is_bicartesian():
    from ssetkit.excision import chain_square_of, pushout_square
    from ssetkit.sset import SSetMap, boundary, constant_map

    b1 = boundary(1)
    collapse = constant_map(b1, standard_simplex(0), "0")
    incl = SSetMap.inclusion(b1, standard_simplex(1))
    sq = chain_square_of(pushout_square(collapse, incl))
    assert is_homotopy_bicartesian(sq)


def _expand_corner(c: ChainComplex):
    """A quasi-isomorphic enlargement with the collapse map back."""
    pad = mapping_cone(identity_chain_map(single_complex(0)))
    big = direct_sum(c, pad)
    proj = chain_map_from_blocks(big, c, {
        n: IntMat.identity(c.rank(n)).hstack(IntMat.zero(c.rank(n), pad.rank(n)))
        for n in big.degrees()
    })
    return big, proj


def test_bicartesian_invariant_under_quasi_iso_replacement():
    from ssetkit.excision import chain_square_of, pushout_square
    from ssetkit.sset import SSetMap, boundary, constant_map

    b1 = boundary(1)
    collapse = constant_map(b1, standard_simplex(0), "0")
    incl = SSetMap.inclusion(b1, standard_simplex(1))
    sq = chain_square_of(pushout_square(collapse, incl))

    big, proj = _expand_corner(sq.w_to_u.source)
    assert quasi_iso(proj)
    replaced = ChainSquare(sq.w_to_u.compose(proj), sq.w_to_v.compose(proj),
                           sq.u_to_x, sq.v_to_x)
    assert is_homotopy_bicartesian(replaced) == is_homotopy_bicartesian(sq) == True

    x = normalized_chains(circle())
    bad = _zero_corner_square(x)
    bigx, projx = _expand_corner(x)
    bad_replaced = ChainSquare(bad.w_to_u, bad.w_to_v,
                               projx.compose(zero_map(zero_complex(), bigx)),
                               projx.compose(zero_map(zero_complex(), bigx)))
    assert is_homotopy_bicartesian(bad_replaced) == is_homotopy_bicartesian(bad) == False


def test_check_exact_sequence_identity():
    c = normalized_chains(standard_simplex(1))
    maps = [zero_map(zero_complex(), c), identity_chain_map(c),
            zero_map(c, zero_complex())]
    report = check_exact_sequence(maps, 0, 1)
    assert set(report) == {(1, 0), (1, 1), (2, 0), (2, 1)}
    assert all(report.values())


def test_check_exact_sequence_rejects_nonzero_composite():
    c = single_complex(0)
    ident = identity_chain_map(c)
    with pytest.raises(ValidationError):
        check_exact_sequence([ident, ident], 0, 0)


def test_chain_map_law_enforced():
    c = normalized_chains(standard_simplex(1))
    bad = {n: IntMat.identity(c.rank(n)) for n in c.degrees()}
    bad[1] = IntMat(1, 1, ((2,),))
    with pytest.raises(ValidationError, match="chain map law fails in degree 1$"):
        chain_map_from_blocks(c, c, bad)


def test_sequential_colimit_behaviors():
    z = zero_complex()
    t0 = Tower((z, z, z), (zero_map(z, z), zero_map(z, z)))
    assert sequential_colimit(t0).is_zero_complex()

    c = normalized_chains(circle())
    ident = identity_chain_map(c)
    t1 = Tower((c, c, c), (ident, ident))
    assert sequential_colimit(t1) is c

    t2 = Tower((c, z, z), (zero_map(c, z), zero_map(z, z)))
    assert sequential_colimit(t2).is_zero_complex()

    grow = chain_map_from_blocks(z, c, {})
    t3 = Tower((z, c, z), (grow, zero_map(c, z)))
    with pytest.raises(StabilizationError):
        sequential_colimit(t3)


def test_split_injection_of_injective_space_maps():
    from ssetkit.simplicial_chains import chain_map_of
    from ssetkit.sset import SSetMap, boundary

    incl = SSetMap.inclusion(boundary(2), standard_simplex(2))
    f = chain_map_of(incl)
    for n in f.source.degrees():
        blk = f.block(n)
        if blk.rows == 0 or blk.cols == 0:
            continue
        diag = smith_normal_form(blk).nonzero_diagonal
        assert len(diag) == blk.cols
        assert all(x == 1 for x in diag)


def test_homology_and_quasi_iso_run_no_smith_form(monkeypatch):
    """Homology stays on the unit-pivot elimination: building a product's
    chains, its homology table and the quasi-iso verdict of its identity
    run the dense invariant-factor routine on no remainder (products skip
    zeros, see test_intmat), and neither do Mayer-Vietoris sequences whose
    relations are all units."""
    calls = []
    dense = intmat._invariant_factors

    def counted_dense(columns):
        calls.append(len(columns))
        return dense(columns)

    monkeypatch.setattr(intmat, "_invariant_factors", counted_dense)
    assert rank_and_torsion(IntMat.from_rows([[2]])) == (1, (2,))
    assert calls == [1]  # the counter sees the routine
    calls.clear()

    c = normalized_chains(product(standard_simplex(2), standard_simplex(2)).space)
    table = homology_table(c, c.low, c.high)
    assert quasi_iso(identity_chain_map(c))
    assert table == {n: HomologyGroup(int(n == 0)) for n in c.degrees()}
    two_arcs = cover_from_names(boundary(2), ["01", "12"], ["02"])
    sphere = cover_from_names(boundary(3), ["123", "023"], ["013", "012"])
    assert mayer_vietoris(two_arcs, 2).all_exact
    assert mayer_vietoris(sphere, 3).all_exact
    assert calls == []
