import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayley_immanants.characters import (
    CycleType,
    Partition,
    binom,
    char_n3_3,
    char_n3_111,
    cohook_char,
    dimension,
    hook_char_n11,
    mn_character,
    partitions_of,
    twin_diff_char,
)


def classes_of(n):
    """All cycle types of S_n."""
    return [CycleType(p.parts) for p in partitions_of(n)]


def centralizer_order(mu: CycleType) -> int:
    """prod_i i^(c_i) c_i!, with c_i the number of i-cycles."""
    z = 1
    for i in set(mu.lengths):
        c = mu.count(i)
        z *= i**c * math.factorial(c)
    return z


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((3, 0))
    assert Partition((3, 1, 1)).weight == 5


def test_list_built_shapes_are_tuples_and_hashable():
    # mn_character's cache is keyed on the parts and the cycle lengths
    lam, mu = Partition([2, 1]), CycleType([2, 1])
    assert (lam, mu) == (Partition((2, 1)), CycleType((2, 1)))
    assert mn_character(lam, CycleType((2, 1))) == 0
    assert mn_character(Partition((2, 1)), mu) == 0
    assert mn_character(lam, CycleType([3])) == -1


def test_partitions_of_counts():
    # p(n) for n = 0..10
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for n, count in enumerate(expected):
        assert len(partitions_of(n)) == count


def test_conjugate_examples():
    assert Partition((7,)).conjugate() == Partition((1,) * 7)
    assert Partition((4, 3)).conjugate() == Partition((2, 2, 2, 1))
    # (4,1,1,1) is self-conjugate: column heights are 4,1,1,1
    assert Partition((4, 1, 1, 1)).conjugate() == Partition((4, 1, 1, 1))
    assert Partition((2, 2, 2, 1)).conjugate() == Partition((4, 3))


@given(st.integers(1, 12), st.integers(0, 10**6))
@settings(max_examples=80)
def test_conjugate_involution(n, pick):
    parts = partitions_of(n)
    lam = parts[pick % len(parts)]
    assert lam.conjugate().conjugate() == lam


def test_twin_shapes_are_conjugate():
    for n in range(7, 11):
        twin_a = Partition((4,) + (1,) * (n - 4))
        twin_b = Partition((2, 2, 2) + (1,) * (n - 6))
        assert twin_a.conjugate() == Partition((n - 3, 1, 1, 1))
        assert twin_b.conjugate() == Partition((n - 3, 3))


def test_mn_character_small_values():
    # chi^(2,1) on the 3-cycle class of S_3
    assert mn_character(Partition((2, 1)), CycleType((3,))) == -1
    # full S_3 character table
    triv, std, sgn = Partition((3,)), Partition((2, 1)), Partition((1, 1, 1))
    id3, tr3, cy3 = CycleType((1, 1, 1)), CycleType((2, 1)), CycleType((3,))
    assert [mn_character(triv, c) for c in (id3, tr3, cy3)] == [1, 1, 1]
    assert [mn_character(std, c) for c in (id3, tr3, cy3)] == [2, 0, -1]
    assert [mn_character(sgn, c) for c in (id3, tr3, cy3)] == [1, -1, 1]


def test_trivial_and_sign_characters():
    for n in range(1, 8):
        for mu in classes_of(n):
            assert mn_character(Partition((n,)), mu) == 1
            assert mn_character(Partition((1,) * n), mu) == mu.sign


def test_weight_mismatch_rejected():
    with pytest.raises(ValueError):
        mn_character(Partition((2, 1)), CycleType((2, 2)))


def test_dimension_examples():
    assert dimension(Partition((2, 2))) == 2
    for n in range(2, 9):
        assert dimension(Partition((n,))) == 1
        assert dimension(Partition((n - 1, 1))) == n - 1


def test_dimension_matches_identity_character():
    for n in range(1, 9):
        for lam in partitions_of(n):
            assert dimension(lam) == mn_character(lam, CycleType((1,) * n))


def test_dimension_sum_of_squares():
    for n in range(1, 9):
        assert sum(dimension(lam) ** 2 for lam in partitions_of(n)) == math.factorial(n)


def test_conjugate_sign_twist():
    for n in range(1, 9):
        for lam in partitions_of(n):
            for mu in classes_of(n):
                assert mn_character(lam.conjugate(), mu) == mu.sign * mn_character(lam, mu)


def test_column_orthogonality():
    for n in range(1, 8):
        for mu in classes_of(n):
            total = sum(mn_character(lam, mu) ** 2 for lam in partitions_of(n))
            assert total == centralizer_order(mu)


def test_regular_character():
    for n in range(1, 8):
        for mu in classes_of(n):
            total = sum(dimension(lam) * mn_character(lam, mu) for lam in partitions_of(n))
            expected = math.factorial(n) if mu == CycleType((1,) * n) else 0
            assert total == expected


def test_binom_convention():
    # falling-factorial extension: negative tops follow the polynomial
    assert binom(-1, 3) == -1
    assert binom(-1, 2) == 1
    assert binom(2, 3) == 0
    assert binom(4, 2) == 6
    assert binom(3, -1) == 0


def test_hook_char_examples():
    assert hook_char_n11(CycleType((1,) * 5)) == 4
    tr4 = CycleType((2, 1, 1))
    assert hook_char_n11(tr4) == 1
    assert cohook_char(tr4) == -1
    assert hook_char_n11(CycleType((6,))) == -1


def test_char_n3_111_examples():
    assert char_n3_111(CycleType((1,) * 7)) == 20
    three_cycle_s7 = CycleType((3, 1, 1, 1, 1))
    assert char_n3_111(three_cycle_s7) == 2


def test_closed_forms_match_mn():
    for n in range(6, 10):
        lam_h = Partition((n - 3, 1, 1, 1))
        lam_j = Partition((n - 3, 3))
        for mu in classes_of(n):
            assert char_n3_111(mu) == mn_character(lam_h, mu)
            assert char_n3_3(mu) == mn_character(lam_j, mu)


def test_near_hook_closed_forms_match_mn():
    for n in range(2, 10):
        lam_hook = Partition((n - 1, 1)) if n > 2 else Partition((1, 1))
        lam_cohook = Partition((2,) + (1,) * (n - 2))
        for mu in classes_of(n):
            assert hook_char_n11(mu) == mn_character(lam_hook, mu)
            assert cohook_char(mu) == mn_character(lam_cohook, mu)


def test_twin_diff_char():
    for n in range(6, 10):
        twin_a = Partition((4,) + (1,) * (n - 4))
        twin_b = Partition((2, 2, 2) + (1,) * (n - 6))
        for mu in classes_of(n):
            expected = mn_character(twin_a, mu) - mn_character(twin_b, mu)
            assert twin_diff_char(mu) == expected
    # a single fixed point kills the difference
    assert twin_diff_char(CycleType((3, 2, 1))) == 0
    # involutions with two fixed points: value (-1)^((n-2)/2) * (3-n)
    for n in (6, 8):
        mu = CycleType((2,) * ((n - 2) // 2) + (1, 1))
        assert twin_diff_char(mu) == (-1) ** ((n - 2) // 2) * (3 - n)
