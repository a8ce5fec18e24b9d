import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayley_immanants.groups import (
    GroupSpec,
    add,
    add_table,
    affine_maps,
    automorphisms,
    double,
    doubling_counts,
    elements,
    index_of,
    neg,
    neg_table,
    negation_parity,
    parse_group,
    perm_parity,
)

C2 = GroupSpec((2,))
C3 = GroupSpec((3,))
C5 = GroupSpec((5,))
C6 = GroupSpec((6,))
C2xC2 = GroupSpec((2, 2))
C3xC3 = GroupSpec((3, 3))


def zero(spec: GroupSpec):
    """The identity element: residue 0 in every factor."""
    return (0,) * spec.rank


SMALL_SPECS = [
    GroupSpec(f)
    for f in [(2,), (3,), (4,), (2, 2), (5,), (6,), (2, 3), (7,), (8,), (2, 4),
              (2, 2, 2), (9,), (3, 3), (10,), (12,), (2, 6)]
]


def test_parse_group_grammar():
    assert parse_group("c3") == C3
    assert parse_group("c2xc4") == GroupSpec((2, 4))
    assert parse_group("C2xC6") == GroupSpec((2, 6))
    with pytest.raises(ValueError):
        parse_group("c1")
    with pytest.raises(ValueError):
        parse_group("d4")
    with pytest.raises(ValueError):
        parse_group("")


def test_elements_lex_order_zero_first():
    assert elements(C3) == ((0,), (1,), (2,))
    assert elements(C2xC2) == ((0, 0), (0, 1), (1, 0), (1, 1))
    for spec in SMALL_SPECS:
        els = elements(spec)
        assert els[0] == zero(spec)
        assert len(els) == spec.order
        assert sorted(els) == list(els)


def test_index_roundtrip():
    for spec in SMALL_SPECS:
        for i, a in enumerate(elements(spec)):
            assert index_of(spec, a) == i


def test_add_neg_double_examples():
    assert add(C6, (4,), (5,)) == (3,)
    assert neg(C3xC3, (1, 2)) == (2, 1)
    assert double(C5, (3,)) == (1,)


def test_malformed_element_rejected():
    with pytest.raises(ValueError):
        add(C6, (6,), (0,))
    with pytest.raises(ValueError):
        neg(C3xC3, (1,))


def test_group_laws_exhaustive_small():
    # associativity, commutativity, identity, inverses, on all n <= 12 specs
    for spec in SMALL_SPECS:
        if spec.order > 12:
            continue
        els = elements(spec)
        z = zero(spec)
        for a in els:
            assert add(spec, a, neg(spec, a)) == z
            assert add(spec, a, z) == a
        for a, b in itertools.product(els, repeat=2):
            assert add(spec, a, b) == add(spec, b, a)
        for a, b, c in itertools.product(els[: min(len(els), 6)], repeat=3):
            assert add(spec, add(spec, a, b), c) == add(spec, a, add(spec, b, c))


@st.composite
def spec_and_elements(draw, count=3):
    factors = draw(st.lists(st.integers(2, 6), min_size=1, max_size=3))
    spec = GroupSpec(tuple(factors))
    els = [tuple(draw(st.integers(0, d - 1)) for d in factors) for _ in range(count)]
    return spec, els


@given(spec_and_elements())
@settings(max_examples=60)
def test_group_laws_property(case):
    spec, (a, b, c) = case
    assert add(spec, a, b) == add(spec, b, a)
    assert add(spec, add(spec, a, b), c) == add(spec, a, add(spec, b, c))
    assert add(spec, a, neg(spec, a)) == zero(spec)
    assert double(spec, a) == add(spec, a, a)


def doubling_preimage_count(spec: GroupSpec, a) -> int:
    """Number of solutions g of 2g = a."""
    return doubling_counts(spec)[index_of(spec, a)]


def in_2G(spec: GroupSpec, a) -> bool:
    """True iff a = 2g for some g in G."""
    return doubling_preimage_count(spec, a) > 0


def test_doubling_counts_examples():
    for a in elements(C5):
        assert doubling_preimage_count(C5, a) == 1
    assert doubling_preimage_count(C6, (0,)) == 2
    assert doubling_preimage_count(C6, (1,)) == 0
    assert doubling_preimage_count(C2xC2, (0, 0)) == 4


def test_doubling_counts_sum_to_order():
    for spec in SMALL_SPECS:
        if spec.order <= 16:
            assert sum(doubling_counts(spec)) == spec.order


def test_doubling_bijective_odd_order():
    for spec in SMALL_SPECS:
        if spec.order % 2 == 1 and spec.order in (3, 5, 7, 9, 15):
            assert all(r == 1 for r in doubling_counts(spec))


def test_doubling_counts_two_mod_four():
    for spec in SMALL_SPECS:
        if spec.order % 4 == 2:
            for a in elements(spec):
                expected = 2 if in_2G(spec, a) else 0
                assert doubling_preimage_count(spec, a) == expected
            # the subgroup 2G has index 2
            assert sum(in_2G(spec, a) for a in elements(spec)) == spec.order // 2


def test_in_2G_examples():
    assert in_2G(C6, (4,))
    assert not in_2G(C6, (3,))
    # derived by exhausting g in C6: 2g lands in {0, 2, 4}
    assert {a for a in elements(C6) if in_2G(C6, a)} == {(0,), (2,), (4,)}
    for spec in (C3, C5, C3xC3):
        assert all(in_2G(spec, a) for a in elements(spec))


def test_negation_parity():
    # C3: negation is the transposition of 1 and 2
    assert negation_parity(C3) == -1
    assert negation_parity(C2) == 1
    # C5: two transpositions
    assert negation_parity(C5) == 1
    for spec in SMALL_SPECS:
        nt = neg_table(spec)
        assert negation_parity(spec) == perm_parity(nt)
        # negation is an involution
        assert all(nt[nt[i]] == i for i in range(spec.order))


def test_perm_parity_matches_transposition_count():
    assert perm_parity((0, 1, 2)) == 1
    assert perm_parity((1, 0, 2)) == -1
    assert perm_parity((1, 2, 0)) == 1


def test_canonical_form():
    assert GroupSpec((2, 6)).canonical_form() == (2, 6)
    assert GroupSpec((6, 2)).canonical_form() == (2, 6)
    assert GroupSpec((2, 2)).canonical_form() == (2, 2)
    assert GroupSpec((4,)).canonical_form() == (4,)
    assert GroupSpec((2, 3)).canonical_form() == (6,)
    assert GroupSpec((12,)).canonical_form() == (12,)
    assert GroupSpec((2, 2, 3)).canonical_form() == (2, 6)
    # invariant-factor chain divides
    for spec in SMALL_SPECS:
        inv = spec.canonical_form()
        assert all(inv[i + 1] % inv[i] == 0 for i in range(len(inv) - 1))
        prod = 1
        for d in inv:
            prod *= d
        assert prod == spec.order


def test_add_table_consistency():
    for spec in (C6, C2xC2, C3xC3):
        table = add_table(spec)
        els = elements(spec)
        for i, a in enumerate(els):
            for j, b in enumerate(els):
                assert els[table[i][j]] == add(spec, a, b)


def test_bad_spec_rejected():
    with pytest.raises(ValueError):
        GroupSpec(())
    with pytest.raises(ValueError):
        GroupSpec((1,))
    with pytest.raises(ValueError):
        GroupSpec((0, 3))


@pytest.mark.parametrize(
    "factors, count",
    [((7,), 6), ((8,), 4), ((2, 2), 6), ((2, 4), 8), ((2, 2, 2), 168), ((3, 3), 48)],
)
def test_automorphism_counts(factors, count):
    spec = GroupSpec(factors)
    auts = automorphisms(spec)
    assert len(auts) == len(set(auts)) == count
    table = add_table(spec)
    for phi in auts:
        assert sorted(phi) == list(range(spec.order))
        for a in range(spec.order):
            for b in range(spec.order):
                assert phi[table[a][b]] == table[phi[a]][phi[b]]


@pytest.mark.parametrize("factors, count", [((10,), 20), ((9,), 54), ((3, 3), 432)])
def test_affine_map_counts(factors, count):
    spec = GroupSpec(factors)
    maps = affine_maps(spec)
    assert len(maps) == len(set(maps)) == count
    for r in maps:
        assert sorted(r) == list(range(spec.order))
