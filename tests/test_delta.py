"""The word kernel of ``ssetkit.delta`` against the value-table oracle in
``delta_oracle``: composition, factorization, enumeration, and the normal
forms of degeneracy words."""

from itertools import combinations
from math import comb

import pytest
from hypothesis import given, strategies as st

from delta_oracle import (
    compose_monotone,
    degeneracy_map,
    epi_of_word,
    face_map,
    factor_maps,
    identity,
    injective_maps,
    mono_of_word,
    monotone_maps,
    surjective_maps,
    word_of_epi,
)
from ssetkit.delta import (
    MonotoneMap,
    compose_words,
    degeneracy_words,
    epi_mono_factor,
    face_of_word,
)
from ssetkit.errors import ValidationError


@st.composite
def monotone(draw, max_dom=5, max_cod=5):
    dom = draw(st.integers(0, max_dom))
    cod = draw(st.integers(0, max_cod))
    values = sorted(
        draw(
            st.lists(
                st.integers(0, cod), min_size=dom + 1, max_size=dom + 1
            )
        )
    )
    return MonotoneMap(dom, cod, tuple(values))


def test_validation_rejects_nonmonotone():
    with pytest.raises(ValidationError):
        MonotoneMap(1, 1, (1, 0))
    with pytest.raises(ValidationError):
        MonotoneMap(1, 1, (0, 2))
    with pytest.raises(ValidationError):
        MonotoneMap(1, 1, (0,))


@given(monotone())
def test_identity_is_neutral(f):
    assert compose_monotone(identity(f.cod), f) == f
    assert compose_monotone(f, identity(f.dom)) == f


@given(monotone(max_dom=3, max_cod=3), monotone(max_dom=3, max_cod=3), monotone(max_dom=3, max_cod=3))
def test_composition_associative(f, g, h):
    g2 = MonotoneMap(g.dom, f.dom, tuple(min(v, f.dom) for v in g.values))
    h2 = MonotoneMap(h.dom, g2.dom, tuple(min(v, g2.dom) for v in h.values))
    left = compose_monotone(compose_monotone(f, g2), h2)
    right = compose_monotone(f, compose_monotone(g2, h2))
    assert left == right


@given(monotone())
def test_epi_mono_factorization(f):
    epi, mono = factor_maps(f)
    assert epi.is_surjective
    assert mono.is_injective
    assert compose_monotone(mono, epi) == f


@given(monotone())
def test_factor_words_rebuild(f):
    dword, fword = epi_mono_factor(f)
    assert epi_of_word(dword, f.dom).values == factor_maps(f)[0].values
    assert mono_of_word(fword, f.cod).values == factor_maps(f)[1].values
    assert list(dword) == sorted(dword, reverse=True)
    assert list(fword) == sorted(fword)


def test_word_of_epi_round_trip():
    for n in range(5):
        for k in range(n + 1):
            for f in surjective_maps(n, k):
                assert epi_of_word(word_of_epi(f), n) == f


def test_cosimplicial_identities():
    for n in range(1, 5):
        for j in range(n + 1):
            for i in range(j):
                lhs = compose_monotone(face_map(n + 1, j + 1), face_map(n, i))
                rhs = compose_monotone(face_map(n + 1, i), face_map(n, j))
                assert lhs == rhs
    for n in range(4):
        for i in range(n + 1):
            for j in range(i + 1):
                lhs = compose_monotone(degeneracy_map(n, j), degeneracy_map(n + 1, i + 1))
                rhs = compose_monotone(degeneracy_map(n, i), degeneracy_map(n + 1, j))
                assert lhs == rhs


def test_enumeration_counts():
    for dom in range(4):
        for cod in range(4):
            assert len(list(monotone_maps(dom, cod))) == comb(dom + cod + 1, dom + 1)
            assert len(list(injective_maps(dom, cod))) == comb(cod + 1, dom + 1)
            assert len(list(surjective_maps(dom, cod))) == (
                comb(dom, cod) if cod <= dom else 0
            )


def test_face_degeneracy_are_sections():
    for n in range(4):
        for i in range(n + 1):
            assert compose_monotone(degeneracy_map(n, i), face_map(n + 1, i)) == identity(n)
            assert compose_monotone(degeneracy_map(n, i), face_map(n + 1, i + 1)) == identity(n)


def _words(n):
    """Every strictly decreasing degeneracy word on n-simplices."""
    return [
        tuple(reversed(c)) for r in range(n + 1) for c in combinations(range(n), r)
    ]


def test_face_of_word_matches_monotone_factorization():
    for n in range(1, 8):
        for word in _words(n):
            collapse = epi_of_word(word, n)
            for i in range(n + 1):
                dword, fword = epi_mono_factor(
                    compose_monotone(collapse, face_map(n, i))
                )
                assert face_of_word(word, n, i) == (dword, fword[0] if fword else None)


def test_degeneracy_of_word_matches_monotone_composite():
    for n in range(8):
        for word in _words(n):
            collapse = epi_of_word(word, n)
            for i in range(n + 1):
                eta = compose_monotone(collapse, degeneracy_map(n, i))
                assert compose_words(word, (i,), n + 1) == word_of_epi(eta)


def test_compose_words_matches_monotone_composite():
    for n in range(7):
        for outer in _words(n):
            mid = n - len(outer)
            for inner in _words(mid):
                eta = compose_monotone(epi_of_word(inner, mid), epi_of_word(outer, n))
                assert compose_words(inner, outer, n) == word_of_epi(eta)


@pytest.mark.parametrize(
    "word, n, i",
    [((0,), 1, 2), ((0,), 1, -1), ((0, 1), 2, 0), ((2,), 2, 0), ((-1,), 2, 0)],
)
def test_face_of_word_rejects_bad_input(word, n, i):
    with pytest.raises(ValidationError):
        face_of_word(word, n, i)


@pytest.mark.parametrize(
    "inner, outer, n",
    [((), (1,), 1), ((0,), (0,), 1), ((), (0, 1), 2), ((1,), (0,), 2)],
)
def test_compose_words_rejects_bad_input(inner, outer, n):
    with pytest.raises(ValidationError):
        compose_words(inner, outer, n)


def test_degeneracy_words_list_surjections_in_order():
    for k in range(8):
        for m in range(k + 2):
            expected = tuple(word_of_epi(eta) for eta in surjective_maps(k, m))
            assert degeneracy_words(k, m) == expected
