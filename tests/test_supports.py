import collections
import csv
import functools
import io
import itertools
import math
import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayley_immanants.groups import (
    GroupSpec,
    add,
    add_table,
    affine_maps,
    automorphisms,
    elements,
    index_of,
    neg_table,
)
from cayley_immanants.immanants import determinant, immanant, perm_class_stats, permanent
from cayley_immanants.characters import Partition
from cayley_immanants.cli import _abelian_groups_of_order, main
from cayley_immanants.supports import (
    ValuationProfile,
    _anchored_block_sum,
    _anchored_blocks,
    _completions,
    _counts_profile,
    _least_split_valuation,
    _legendre,
    _min_valuation,
    block_size_certificate,
    count_D,
    count_I_nearhook,
    count_P,
    det_coeff,
    hall_support,
    near_hook_coeff,
    near_hook_scalar_numerator,
    orbit_representatives,
    padic_profile,
    per_monomial,
)

C2 = GroupSpec((2,))
C3 = GroupSpec((3,))
C4 = GroupSpec((4,))
C5 = GroupSpec((5,))
C6 = GroupSpec((6,))
C2xC2 = GroupSpec((2, 2))
C9 = GroupSpec((9,))


def monomial_sequence(spec: GroupSpec, mono) -> tuple:
    """The lexicographically smallest labelling of a monomial as a sequence."""
    els = elements(spec)
    seq = []
    for i, e in enumerate(mono):
        seq.extend([els[i]] * e)
    return tuple(seq)


# The labelled partition-lattice formula: the test oracle for the two folds
# `_anchored_block_sum` and `_min_valuation` in supports.py, which both recurse
# over the anchored blocks of `_anchored_blocks` (checked against
# `oracle_anchored_blocks` below).


def _zero_sum_partitions(spec: GroupSpec, seq: tuple[int, ...]):
    """Yield zero-sum set partitions of range(len(seq)) as block tuples.

    Each new block is anchored at the least unused position and grown in
    increasing position order, so every partition appears exactly once.
    Branches whose open block cannot be cancelled by any subset of the
    remaining suffix are cut.
    """
    n = len(seq)
    add = add_table(spec)
    negs = neg_table(spec)
    reach: list[frozenset[int]] = [frozenset()] * (n + 1)
    reach[n] = frozenset({0})
    for i in range(n - 1, -1, -1):
        prev = reach[i + 1]
        reach[i] = prev | {add[s][seq[i]] for s in prev}
    used = [False] * n
    blocks: list[tuple[int, ...]] = []

    def start():
        anchor = -1
        for i in range(n):
            if not used[i]:
                anchor = i
                break
        if anchor < 0:
            yield tuple(blocks)
            return
        s = seq[anchor]
        if s != 0 and negs[s] not in reach[anchor + 1]:
            return
        used[anchor] = True
        yield from grow([anchor], s)
        used[anchor] = False

    def grow(block: list[int], psum: int):
        if psum == 0:
            blocks.append(tuple(block))
            yield from start()
            blocks.pop()
        for q in range(block[-1] + 1, n):
            if used[q]:
                continue
            s = add[psum][seq[q]]
            if s != 0 and negs[s] not in reach[q + 1]:
                continue
            used[q] = True
            block.append(q)
            yield from grow(block, s)
            block.pop()
            used[q] = False

    yield from start()


def _block_term(n: int, sizes) -> int:
    """(-1)^(n-k) n^k prod (|B|-1)!, factored as a product over blocks."""
    term = 1
    for b in sizes:
        term *= (-1) ** (b - 1) * n * math.factorial(b - 1)
    return term


def labelled_det_coeff(spec: GroupSpec, sequence) -> int:
    """The zero-sum set-partition sum for a length-n sequence over G.

    Equals (prod of multiplicities factorial) times the coefficient of the
    sequence's monomial in the determinant of the Toeplitz companion
    (x_{a-b}); zero whenever the sequence is not zero-sum.
    """
    n = spec.order
    if len(sequence) != n:
        raise ValueError(f"sequence length {len(sequence)} != group order {n}")
    seq = tuple(index_of(spec, g) for g in sequence)
    total = 0
    for blocks in _zero_sum_partitions(spec, seq):
        total += _block_term(n, (len(b) for b in blocks))
    return total


def all_set_partitions(n):
    """Brute-force oracle: every set partition of range(n)."""
    if n == 0:
        yield ()
        return
    for smaller in all_set_partitions(n - 1):
        last = n - 1
        for i in range(len(smaller)):
            yield smaller[:i] + (smaller[i] + (last,),) + smaller[i + 1 :]
        yield smaller + ((last,),)


def zero_sum_partitions_oracle(spec, seq_elements):
    """Filter all set partitions down to the zero-sum ones."""
    out = set()
    for partition in all_set_partitions(len(seq_elements)):
        ok = True
        for block in partition:
            total = (0,) * spec.rank
            for i in block:
                total = add(spec, total, seq_elements[i])
            if total != (0,) * spec.rank:
                ok = False
                break
        if ok:
            out.add(frozenset(frozenset(b) for b in partition))
    return out


def test_hall_support_c3():
    assert hall_support(C3) == ((0, 0, 3), (0, 3, 0), (1, 1, 1), (3, 0, 0))
    assert count_P(C3) == 4


def test_hall_support_c2():
    assert hall_support(C2) == ((0, 2), (2, 0))
    assert count_P(C2) == 2


def test_x0_power_always_in_hall():
    for spec in (C2, C3, C4, C5, C6, C2xC2, C9):
        n = spec.order
        assert (n,) + (0,) * (n - 1) in hall_support(spec)


def test_hall_support_members_are_zero_sum():
    for spec in (C4, C6, C2xC2, GroupSpec((2, 3))):
        els = elements(spec)
        for mono in hall_support(spec):
            assert sum(mono) == spec.order
            total = (0,) * spec.rank
            for i, e in enumerate(mono):
                for _ in range(e):
                    total = add(spec, total, els[i])
            assert total == (0,) * spec.rank


def oracle_hall_support(spec):
    """Every degree-n multiset of elements with zero sum, as sorted exponent vectors.

    The multisets come from `itertools.combinations_with_replacement`, and
    the sums from the residue vectors, so neither shares code with the walk
    or its tables.
    """
    n = spec.order
    els = elements(spec)
    out = []
    for multiset in itertools.combinations_with_replacement(range(n), n):
        if not any(sum(els[g][i] for g in multiset) % f for i, f in enumerate(spec.factors)):
            counts = collections.Counter(multiset)
            out.append(tuple(counts[g] for g in range(n)))
    return tuple(sorted(out))


@pytest.mark.parametrize(
    "factors",
    [(2,), (3,), (4,), (2, 2), (5,), (6,), (7,), (2, 4), (2, 2, 2), (8,), (3, 3), (9,), (10,)],
    ids=str,
)
def test_hall_support_matches_brute_force_in_lexicographic_order(factors):
    # every group of order <= 10; `padic --all` writes its rows in the
    # walk's order
    spec = GroupSpec(factors)
    assert hall_support(spec) == oracle_hall_support(spec)


@pytest.mark.parametrize("order", range(2, 17))
def test_completion_table_counts_the_hall_support(order):
    # a third route to P, next to the closed form and the enumeration
    for spec in _abelian_groups_of_order(order):
        n = spec.order
        table = _completions(spec)
        assert (len(table), len(table[0]), len(table[0][0])) == (n, n + 1, n)
        assert table[0][n][0] == count_P(spec)
        if order <= 12:
            assert table[0][n][0] == len(hall_support(spec))


def test_hall_support_equals_permanent_support():
    for spec in (C3, C4, C5, C2xC2, C6):
        assert frozenset(hall_support(spec)) == frozenset(permanent(spec).terms)


def test_zero_sum_partition_enumeration_against_oracle():
    rng = random.Random(3)
    cases = []
    for spec in (C4, C6, GroupSpec((3, 3)), C2xC2):
        els = elements(spec)
        for _ in range(6):
            length = rng.randint(2, 6)
            cases.append((spec, tuple(rng.choice(els) for _ in range(length))))
    cases.append((C4, ((0,),) * 6))
    for spec, seq in cases:
        indices = tuple(index_of(spec, g) for g in seq)
        got = {
            frozenset(frozenset(b) for b in blocks)
            for blocks in _zero_sum_partitions(spec, indices)
        }
        assert got == zero_sum_partitions_oracle(spec, seq)


def test_zero_sum_partitions_canonical_and_unique():
    seq = tuple((g,) for g in (0, 0, 1, 3, 2, 2))
    raw = list(_zero_sum_partitions(C4, tuple(g[0] for g in seq)))
    assert len(raw) == len(set(raw))
    for blocks in raw:
        anchors = [b[0] for b in blocks]
        assert anchors == sorted(anchors)
        for b in blocks:
            assert list(b) == sorted(b)


def test_labelled_det_coeff_non_zero_sum_is_zero():
    assert labelled_det_coeff(C4, ((1,), (0,), (0,), (0,))) == 0
    assert labelled_det_coeff(C3, ((1,), (1,), (0,))) == 0


def test_labelled_det_coeff_single_block_case():
    # (1,1,1) over C3: the full block is the only zero-sum partition,
    # contributing (-1)^(n-1) n (n-1)! = 6
    assert labelled_det_coeff(C3, ((1,), (1,), (1,))) == 6


def test_labelled_det_coeff_c3_012():
    # hand count: full block and {0} | {1,2}
    assert labelled_det_coeff(C3, ((0,), (1,), (2,))) == 6 - 9


def test_labelled_det_coeff_length_checked():
    with pytest.raises(ValueError):
        labelled_det_coeff(C3, ((0,), (0,)))


@given(st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_labelled_det_coeff_multiset_invariant(seed):
    rng = random.Random(seed)
    spec = rng.choice([C4, C6, C2xC2, GroupSpec((2, 3))])
    els = elements(spec)
    seq = [rng.choice(els) for _ in range(spec.order)]
    value = labelled_det_coeff(spec, tuple(seq))
    rng.shuffle(seq)
    assert labelled_det_coeff(spec, tuple(seq)) == value


def test_anchored_block_sum_matches_labelled_enumeration():
    for spec in (C3, C4, C5, C2xC2, C6):
        for mono in sorted(hall_support(spec)):
            seq = monomial_sequence(spec, mono)
            assert _anchored_block_sum(spec, mono) == labelled_det_coeff(spec, seq)


@functools.lru_cache(maxsize=None)
def oracle_block_shapes(spec, seq):
    """Descending block sizes of every labelled zero-sum partition of seq.

    Cached: the fold and the profile tests read the same sequences.
    """
    return frozenset(
        tuple(sorted((len(b) for b in blocks), reverse=True))
        for blocks in _zero_sum_partitions(spec, seq)
    )


def shape_valuation(n, p, shape):
    """v_p of a partition term with these block sizes: sum v_p(n) + v_p((|B|-1)!)."""
    r = _legendre(n, p) - _legendre(n - 1, p)
    return sum(r + _legendre(b - 1, p) for b in shape)


def oracle_shape_valuations(spec, p, seq):
    """{shape: valuation} over the labelled zero-sum partitions of seq."""
    return {s: shape_valuation(spec.order, p, s) for s in oracle_block_shapes(spec, seq)}


def oracle_min_valuation(spec, p, seq):
    """Least shape valuation over the labelled zero-sum partitions, or None."""
    return min(oracle_shape_valuations(spec, p, seq).values(), default=None)


def _primes(n):
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]


def _indices(spec, mono):
    return tuple(index_of(spec, g) for g in monomial_sequence(spec, mono))


def _assert_fold_matches_oracle(spec, mono):
    seq = _indices(spec, mono)
    for p in _primes(spec.order):
        assert _min_valuation(spec, p, mono) == oracle_min_valuation(spec, p, seq)


@pytest.mark.parametrize(
    "factors", [(4,), (2, 2), (5,), (7,), (8,), (2, 4), (2, 2, 2)], ids=str
)
def test_block_shapes_match_labelled_enumeration(factors):
    # the fold's least valuation against the least over the labelled shapes
    spec = GroupSpec(factors)
    for mono in sorted(hall_support(spec)):
        _assert_fold_matches_oracle(spec, mono)


def automorphism_representatives(spec):
    """The least member of each automorphism orbit of the Hall support.

    The monomials the `padic-certificate` check folds: no automorphism
    image of them is smaller.
    """
    maps = automorphisms(spec)
    return [m for m in hall_support(spec) if all(relabel(m, phi) >= m for phi in maps)]


@pytest.mark.parametrize("factors", [(9,), (3, 3)], ids=str)
def test_block_shapes_match_labelled_enumeration_on_orbit_representatives(factors):
    # the representatives the `padic-certificate` check folds
    spec = GroupSpec(factors)
    for mono in automorphism_representatives(spec):
        _assert_fold_matches_oracle(spec, mono)


@pytest.mark.parametrize("factors, count", [((4,), 8), ((8,), 264), ((9,), 481)], ids=str)
def test_orbit_stream_keeps_the_least_member_of_each_automorphism_orbit(factors, count):
    # the monomials the `padic-certificate` row folds, against the test-side filter
    from operator import itemgetter

    from cayley_immanants.supports import orbit_stream

    spec = GroupSpec(factors)
    reps = orbit_stream(spec, [itemgetter(*phi) for phi in automorphisms(spec)])
    assert [mono for mono, _ in reps] == automorphism_representatives(spec)
    assert len(reps) == count
    maps = automorphisms(spec)
    assert all(len({relabel(mono, phi) for phi in maps}) == size for mono, size in reps)


def test_block_shapes_of_empty_and_non_zero_sum_multisets():
    # the empty multiset has the one empty shape, a non-zero-sum one none
    assert oracle_block_shapes(C4, ()) == frozenset({()})
    cases = [((0, 0, 0, 0), (), 0), ((0, 1, 0, 0), (1,), None), ((3, 1, 0, 0), (0, 0, 0, 1), None)]
    for counts, seq, expected in cases:
        assert _min_valuation(C4, 2, counts) == oracle_min_valuation(C4, 2, seq) == expected


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_block_shapes_depend_only_on_the_multiset(data):
    # any zero-sum multiset of size at most n, in any order of its positions,
    # at every prime dividing n (both of them at C6)
    spec = data.draw(
        st.sampled_from([C3, C4, C5, C6, C2xC2, GroupSpec((2, 4)), GroupSpec((3, 3))]),
        label="spec",
    )
    n = spec.order
    head = data.draw(st.lists(st.integers(0, n - 1), max_size=min(n - 1, 7)), label="head")
    table = add_table(spec)
    total = 0
    for s in head:
        total = table[total][s]
    seq = data.draw(st.permutations(head + [neg_table(spec)[total]]), label="sequence")
    counts = [0] * n
    for s in seq:
        counts[s] += 1
    for p in _primes(n):
        assert oracle_min_valuation(spec, p, tuple(seq)) == _min_valuation(spec, p, tuple(counts))


def oracle_anchored_blocks(spec, seq):
    """{(size, residual counts): number of labelled blocks} by brute force.

    seq[0] must hold the least element of seq.  The blocks are the subsets
    of the positions that contain 0 and sum to zero.
    """
    n = spec.order
    table = add_table(spec)
    groups = {}
    for mask in range(1, 1 << len(seq), 2):
        total = 0
        residual = [0] * n
        for i, s in enumerate(seq):
            if mask >> i & 1:
                total = table[total][s]
            else:
                residual[s] += 1
        if total == 0:
            key = (bin(mask).count("1"), tuple(residual))
            groups[key] = groups.get(key, 0) + 1
    return groups


def _blocks_by_key(spec, counts):
    blocks = _anchored_blocks(spec, counts)
    by_key = {(size, residual): ways for size, ways, residual in blocks}
    assert len(by_key) == len(blocks)  # one entry per block contents
    return by_key


def affine_representatives(spec):
    """The least monomial of each affine orbit: the ones `det_coeff` is read on."""
    return [orbit[0] for orbit in oracle_orbits(spec)]


@pytest.mark.parametrize(
    "factors, monomials",
    [pytest.param(f, hall_support, id=str(f)) for f in [(4,), (2, 2), (5,), (6,), (2, 4)]]
    + [pytest.param(f, affine_representatives, id=str(f))
       for f in [(7,), (9,), (3, 3), (2, 2, 2)]],
)
def test_anchored_blocks_match_subset_enumeration(factors, monomials):
    # monomial_sequence lists the elements in index order, so seq[0] is the anchor
    spec = GroupSpec(factors)
    for mono in monomials(spec):
        assert _blocks_by_key(spec, mono) == oracle_anchored_blocks(spec, _indices(spec, mono))


def test_anchored_blocks_of_the_empty_multiset():
    assert _anchored_blocks(C4, (0, 0, 0, 0)) == []


@pytest.mark.parametrize(
    "spec, counts, sizes",
    [
        # the anchor is the only kind: its zero sums are the multiples of its order
        (C4, (0, 0, 4, 0), {2, 4}),
        (C4, (0, 3, 0, 0), set()),
        (C3, (3, 0, 0), {1, 2, 3}),
        (C9, (0, 0, 0, 7, 0, 0, 0, 0, 0), {3, 6}),
        # the last kind's order 2 is below its count 4: j in {0, 2, 4}
        (C6, (1, 0, 0, 4, 0, 0), {1, 3, 5}),
        (C6, (0, 0, 2, 3, 0, 0), set()),
        (C6, (0, 0, 3, 3, 0, 0), {3, 5}),
    ],
    ids=str,
)
def test_anchored_blocks_solve_the_last_kind(spec, counts, sizes):
    seq = [g for g, c in enumerate(counts) for _ in range(c)]
    blocks = _blocks_by_key(spec, counts)
    assert blocks == oracle_anchored_blocks(spec, seq)
    assert {size for size, _ in blocks} == sizes


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_anchored_blocks_of_shuffled_non_zero_sum_multisets(data):
    # the blocks through the anchor exist whether or not the whole multiset
    # sums to zero; the other positions may come in any order
    spec = data.draw(
        st.sampled_from([C3, C4, C5, C6, C2xC2, GroupSpec((2, 4)), GroupSpec((3, 3))]),
        label="spec",
    )
    n = spec.order
    seq = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n - 1), label="head")
    table = add_table(spec)
    total = 0
    for s in seq:
        total = table[total][s]
    if total == 0:
        seq.append(1)  # one nonzero element more, still at most n in all
    seq = data.draw(st.permutations(seq), label="sequence")
    first = seq.index(min(seq))
    seq[0], seq[first] = seq[first], seq[0]
    counts = [0] * n
    for s in seq:
        counts[s] += 1
    assert _blocks_by_key(spec, tuple(counts)) == oracle_anchored_blocks(spec, seq)


def test_det_coeff_c3_values():
    assert det_coeff(C3, (1, 1, 1)) == 3
    assert det_coeff(C3, (3, 0, 0)) == -1


def test_det_coeff_matches_bruteforce():
    for spec in (C3, C4, C5, C2xC2, C6, GroupSpec((2, 3))):
        det = determinant(spec)
        for mono in sorted(hall_support(spec)):
            assert det_coeff(spec, mono) == det.coefficient(mono)


def test_count_pd_c3():
    assert (count_P(C3), count_D(C3)) == (4, 4)


def test_count_d_matches_bruteforce_support():
    for spec in (C4, C5, C2xC2, C6, GroupSpec((2, 3))):
        assert count_D(spec) == determinant(spec).support_size
        assert count_P(spec) == permanent(spec).support_size


@pytest.mark.parametrize(
    "factors, size",
    [((3,), 4), ((6,), 80), ((9,), 2704), ((3, 3), 2710), ((2, 4), 819),
     ((2, 2, 2), 835), ((10,), 9252), ((11,), 32066)],
    ids=str,
)
def test_closed_form_P_matches_hall_enumeration(factors, size):
    spec = GroupSpec(factors)
    assert count_P(spec) == len(hall_support(spec)) == size


def test_closed_form_P_refuses_a_sum_not_divisible_by_the_order(monkeypatch):
    # the closed form is always divisible, so only a stub reaches the guard
    from cayley_immanants import supports

    real = supports.elements
    monkeypatch.setattr(supports, "elements", lambda spec: real(spec)[:-1])
    with pytest.raises(ArithmeticError, match="129 not divisible by 5"):
        count_P(C5)


def test_hall_envelope_admits_c13_and_refuses_c14():
    from cayley_immanants import errors, immanants, supports

    assert immanants.EnvelopeError is supports.EnvelopeError is errors.EnvelopeError
    budget = supports.MAX_HALL_MONOMIALS
    assert count_P(GroupSpec((13,))) == 400024 <= budget
    supports.check_hall_envelope(GroupSpec((13,)))
    for factors in [(14,), (15,), (2, 2, 2, 2), (20,)]:
        spec = GroupSpec(factors)
        assert count_P(spec) > budget
        with pytest.raises(errors.EnvelopeError, match=spec.name):
            supports.check_hall_envelope(spec)
        with pytest.raises(errors.EnvelopeError):
            hall_support(spec)


def test_every_order_from_14_up_is_refused_and_above_100_by_the_order_alone(monkeypatch):
    # the identity's term of the closed form bounds P >= C(2n-1, n)/n, which
    # grows with n and is over the envelope from order 14 on; up to order 100
    # the refusal names the exact P, above it the bound, and counts nothing
    from cayley_immanants import errors, supports

    budget = supports.MAX_HALL_MONOMIALS
    assert math.comb(25, 13) <= 13 * budget < math.comb(27, 14)
    for factors in [(14,), (2, 7), (2, 2, 2, 2), (100,), (2, 50)]:
        spec = GroupSpec(factors)
        p = count_P(spec)
        assert p * spec.order >= math.comb(2 * spec.order - 1, spec.order)
        with pytest.raises(errors.EnvelopeError,
                           match=f"^{spec.name} has {p} zero-sum monomials, above the "
                                 f"enumeration envelope of {budget}$"):
            supports.check_hall_envelope(spec)
    counted = []
    monkeypatch.setattr(supports, "count_P", counted.append)
    for factors, bound in [((101,), "C(201, 101)/101"), ((2, 4001), "C(16003, 8002)/8002"),
                           ((8009,), "C(16017, 8009)/8009"),
                           ((10**6,), "C(1999999, 1000000)/1000000")]:
        spec = GroupSpec(factors)
        with pytest.raises(errors.EnvelopeError,
                           match=rf"^{spec.name} has at least {re.escape(bound)} zero-sum "
                                 rf"monomials, above the enumeration envelope of {budget}$"):
            supports.check_hall_envelope(spec)
    assert counted == []


def test_the_walk_refuses_above_the_envelope_before_any_table():
    # hall_support and orbit_stream hold no check of their own: they refuse
    # through the walk they read
    from cayley_immanants import errors, supports

    spec = GroupSpec((14,))
    supports._completions.cache_clear()

    def visit(mono):
        raise AssertionError(f"the walk visited {mono}")

    readers = (lambda: supports._walk_hall_support(spec, visit),
               lambda: hall_support(spec),
               lambda: supports.orbit_stream(spec, []))
    for read in readers:
        with pytest.raises(errors.EnvelopeError, match="c14 has 1432860 zero-sum monomials"):
            read()
    assert supports._completions.cache_info().misses == 0


def test_hall_support_is_a_fresh_walk_per_call():
    # the walk is the one holder of the Hall support: no call keeps a copy
    first, second = hall_support(C4), hall_support(C4)
    assert first == second
    assert first is not second
    assert not hasattr(hall_support, "cache_info")


@pytest.mark.parametrize("factors", [(8,), (9,), (2, 4), (3, 3)], ids=str)
def test_orbit_weighted_counts_match_per_monomial_scan(factors):
    spec = GroupSpec(factors)
    support = sorted(hall_support(spec))
    assert count_D(spec) == sum(1 for m in support if det_coeff(spec, m) != 0)
    hook = [m for m in support if near_hook_scalar_numerator(spec, m) != 0]
    cohook = [m for m in hook if det_coeff(spec, m) != 0]
    assert count_I_nearhook(spec) == (len(hook), len(cohook))



def relabel(mono, r):
    """The monomial with x_g renamed x_{r[g]}."""
    image = [0] * len(mono)
    for g, e in enumerate(mono):
        image[r[g]] = e
    return tuple(image)


@functools.lru_cache(maxsize=None)
def oracle_orbits(spec):
    """The affine orbits of the Hall support, each ascending, by least member.

    The test-side labelling: each monomial of `hall_support(spec)` that no
    orbit holds yet starts one, its images under every map of
    `affine_maps(spec)` by `relabel`.  It shares no code with the pullbacks
    or the least-member test of `orbit_representatives`, and it checks that
    the orbits stay in the Hall support and partition it.
    """
    support = hall_support(spec)
    members = set(support)
    labelled = set()
    orbits = []
    for mono in support:
        if mono in labelled:
            continue
        orbit = sorted({relabel(mono, r) for r in affine_maps(spec)})
        assert labelled.isdisjoint(orbit) and members.issuperset(orbit)
        labelled.update(orbit)
        orbits.append(tuple(orbit))
    assert len(labelled) == len(support)
    return tuple(orbits)


LABEL_SPECS = [
    GroupSpec(f)
    for f in ((2,), (3,), (4,), (2, 2), (5,), (6,), (7,), (8,), (2, 4), (2, 2, 2))
]


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_per_monomial_rows_are_the_hall_support_valued_per_orbit(data):
    spec = data.draw(st.sampled_from(LABEL_SPECS), label="spec")
    support = hall_support(spec)
    assert all(a < b for a, b in zip(support, support[1:]))
    rows = list(per_monomial(spec, lambda rep: rep))
    assert [mono for mono, _ in rows] == list(support)
    # each row carries the least member of its oracle orbit
    least = {mono: orbit[0] for orbit in oracle_orbits(spec) for mono in orbit}
    assert all(rep == least[mono] for mono, rep in rows)
    assert len(rows) == count_P(spec)


def test_per_monomial_refuses_a_map_that_leaves_the_hall_support(fake_affine_maps):
    # swapping x_0 and x_1 of c4 is a bijection but not an affine map
    fake_affine_maps([(0, 1, 2, 3), (1, 0, 2, 3)])
    with pytest.raises(ArithmeticError, match=r"\(1, 0, 2, 3\).*outside the Hall support of c4"):
        per_monomial(C4, lambda rep: 1)


def test_orbit_representatives_hold_one_entry_per_spec():
    # affine orbits only: no map set is a parameter, so none is a cache key
    spec = GroupSpec((6,))
    with pytest.raises(TypeError):
        orbit_representatives(spec, affine_maps)
    with pytest.raises(TypeError):
        orbit_representatives(spec=spec)
    with pytest.raises(TypeError):
        per_monomial(spec, lambda rep: None, affine_maps)
    orbit_representatives.cache_clear()
    list(per_monomial(spec, lambda rep: None))
    reps = orbit_representatives(spec)
    info = orbit_representatives.cache_info()
    assert (info.currsize, info.hits, info.misses) == (1, 1, 1)
    assert sum(size for _, size in reps) == count_P(spec)


def test_affine_maps_are_checked_once_per_spec():
    # the representative scan and every expansion reuse the checked pullbacks
    from cayley_immanants import supports

    spec = GroupSpec((2, 4))
    supports._affine_pullbacks.cache_clear()
    orbit_representatives.cache_clear()
    for _ in range(3):
        list(per_monomial(spec, lambda rep: rep))
    info = supports._affine_pullbacks.cache_info()
    assert (info.misses, info.hits) == (1, 3)
    # the scan's move-to-front swaps reorder a copy, not the cached tuple
    identity = tuple(range(spec.order))
    assert [pullback(identity) for pullback in supports._affine_pullbacks(spec)] == list(
        affine_maps(spec))


def test_per_monomial_refuses_images_that_miss_the_orbit_size(monkeypatch):
    # a representative whose recorded size disagrees with its images would
    # give rows that are not the P Hall monomials; no value is read after it
    import cayley_immanants.supports as supports

    spec = GroupSpec((5,))
    (rep, size), *rest = orbit_representatives(spec)
    for wrong in (size + 1, size - 1):
        monkeypatch.setattr(supports, "orbit_representatives",
                            lambda spec: ((rep, wrong), *rest))
        calls = []
        with pytest.raises(ArithmeticError, match=f"{size} images under the relabellings "
                                                  f"of c5, not its orbit size {wrong}"):
            per_monomial(spec, calls.append)
        assert calls == []


def test_per_monomial_reads_each_representative_once():
    spec = GroupSpec((2, 4))
    calls = []

    def value(rep):
        calls.append(rep)
        return rep

    rows = list(per_monomial(spec, value))
    assert calls == [orbit[0] for orbit in oracle_orbits(spec)]
    assert [mono for mono, _ in rows] == sorted(hall_support(spec))
    maps = affine_maps(spec)
    for mono, rep in rows:
        assert rep <= mono
        assert mono in {relabel(rep, r) for r in maps}


@pytest.mark.parametrize("order", range(2, 13))
def test_orbit_representatives_are_the_first_members_of_the_labels(order):
    # the oracle's orbits, ordered by their least members, against the stream
    for spec in _abelian_groups_of_order(order):
        expected = [(orbit[0], len(orbit)) for orbit in oracle_orbits(spec)]
        assert list(orbit_representatives(spec)) == expected


def burnside_orbit_count(spec, maps):
    """(1/|A|) sum_r |Fix(r)|: a monomial fixed by r is constant on r's cycles.

    |Fix(r)| counts exponents per cycle by a (degree, sum) DP: a cycle of
    length L with element sum s adds L*e to the degree and e*s to the sum.
    """
    n = spec.order
    add = add_table(spec)
    total = 0
    for r in maps:
        seen = set()
        states = {(0, 0): 1}
        for start in range(n):
            if start in seen:
                continue
            length, cycle_sum, g = 0, 0, start
            while g not in seen:
                seen.add(g)
                length += 1
                cycle_sum = add[cycle_sum][g]
                g = r[g]
            grown = collections.Counter()
            for (degree, psum), ways in states.items():
                while degree <= n:
                    grown[degree, psum] += ways
                    degree += length
                    psum = add[psum][cycle_sum]
            states = grown
        total += states[n, 0]
    orbits, rest = divmod(total, len(maps))
    if rest:
        raise ArithmeticError(f"Burnside sum {total} not divisible by {len(maps)}")
    return orbits


@pytest.mark.parametrize(
    "factors",
    [spec.factors for order in range(2, 14) for spec in _abelian_groups_of_order(order)],
    ids=str,
)
def test_orbit_count_matches_burnside(factors):
    # all 17 groups of order 2 to 13
    spec = GroupSpec(factors)
    reps = orbit_representatives(spec)
    assert len(reps) == burnside_orbit_count(spec, affine_maps(spec))
    assert [mono for mono, _ in reps] == sorted(mono for mono, _ in reps)
    assert sum(size for _, size in reps) == count_P(spec)


@pytest.fixture
def fake_affine_maps(monkeypatch):
    """Swap the map set that `orbit_representatives` reads, on cold caches.

    The checked pullbacks are cached per spec, so each swap clears them.
    """
    from cayley_immanants import supports

    def clear():
        orbit_representatives.cache_clear()
        supports._affine_pullbacks.cache_clear()

    def swap(maps):
        clear()
        monkeypatch.setattr(supports, "affine_maps", lambda spec: maps)

    clear()
    yield swap
    clear()


@pytest.mark.parametrize(
    "maps, message",
    [(((0, 1, 2, 3), (1, 0, 2, 3)), r"\(1, 0, 2, 3\).*outside the Hall support of c4"),
     (((1, 2, 3, 0), (3, 0, 1, 2), (2, 3, 0, 1)), r"lack the identity \(0, 1, 2, 3\)")],
    ids=["non-affine", "no-identity"],
)
def test_orbit_representatives_refuse_a_map_set_that_is_no_group_action(
    fake_affine_maps, maps, message
):
    # refused before any orbit size is divided out: no ZeroDivisionError
    fake_affine_maps(maps)
    with pytest.raises(ArithmeticError, match=message) as caught:
        orbit_representatives(C4)
    assert type(caught.value) is ArithmeticError


def test_orbit_representatives_refuse_orbit_sizes_that_miss_P(fake_affine_maps, monkeypatch):
    # {identity, g -> g+1} is not closed, so counting the maps that fix a
    # monomial does not give its orbit size
    fake_affine_maps((tuple(range(5)), (1, 2, 3, 4, 0)))
    with pytest.raises(ArithmeticError, match="orbit sizes of c5 sum to 29, not to P = 26"):
        orbit_representatives(C5)
    from cayley_immanants import supports

    fake_affine_maps(affine_maps(C5))
    real = supports.count_P
    monkeypatch.setattr(supports, "count_P", lambda spec: real(spec) + 1)
    with pytest.raises(ArithmeticError, match="sum to 26, not to P = 27"):
        orbit_representatives(C5)


def test_counts_store_no_hall_support(hall_support_calls):
    # the counts read the stream of representatives, not a listed support
    spec = GroupSpec((3, 3))
    orbit_representatives.cache_clear()
    count_D(spec)
    count_I_nearhook(spec)
    assert hall_support_calls == []
    assert orbit_representatives.cache_info().currsize == 1


def test_near_hook_coeff_c2():
    stats = perm_class_stats(C2, (2, 0))
    assert near_hook_coeff(C2, (2, 0), stats) == (1, 1)


def test_near_hook_scalar_zero_for_odd_order():
    for spec in (C3, C5, GroupSpec((3, 3))):
        for mono in hall_support(spec):
            assert near_hook_scalar_numerator(spec, mono) == 0
            stats = perm_class_stats(spec, mono)
            assert near_hook_coeff(spec, mono, stats) == (0, 0)


def test_near_hook_coeff_matches_bruteforce():
    for spec in (C4, C6, C2xC2, GroupSpec((2, 3))):
        n = spec.order
        hook = immanant(spec, Partition((n - 1, 1)))
        cohook = immanant(spec, Partition((2,) + (1,) * (n - 2)))
        for mono in sorted(hall_support(spec)):
            stats = perm_class_stats(spec, mono)
            expected = (hook.coefficient(mono), cohook.coefficient(mono))
            assert near_hook_coeff(spec, mono, stats) == expected


def test_scalar_factor_parity_two_mod_four():
    # |G| = 2 mod 4 forces the scalar numerator away from zero on the support
    for spec in (C2, C6, GroupSpec((2, 3)), GroupSpec((10,))):
        assert spec.order % 4 == 2
        for mono in hall_support(spec):
            assert near_hook_scalar_numerator(spec, mono) != 0


def test_count_I_nearhook_odd_is_zero():
    assert count_I_nearhook(C5) == (0, 0)
    assert count_I_nearhook(GroupSpec((3, 3))) == (0, 0)


def test_count_I_nearhook_c6_matches_bruteforce():
    n = 6
    hook_poly = immanant(C6, Partition((5, 1)))
    cohook_poly = immanant(C6, Partition((2, 1, 1, 1, 1)))
    assert count_I_nearhook(C6) == (hook_poly.support_size, cohook_poly.support_size)
    assert count_I_nearhook(C6) == (count_P(C6), count_D(C6))


def test_legendre():
    assert _legendre(3, 2) == 1
    assert _legendre(8, 3) == 2
    assert _legendre(10, 2) == 8
    for m in range(1, 40):
        for p in (2, 3, 5):
            v = 0
            f = math.factorial(m)
            while f % p == 0:
                f //= p
                v += 1
            assert _legendre(m, p) == v


def test_padic_profile_c4_all_zero():
    profile = padic_profile(C4, ((0,),) * 4)
    assert profile.p == 2 and profile.r == 2
    assert profile.min_valuation == 3
    assert profile.strictly_minimal
    shapes = oracle_shape_valuations(C4, 2, (0, 0, 0, 0))
    # hand-computed: valuation k*r + sum v_2((b-1)!) per shape, all partitions
    # qualify over the zero sequence
    assert shapes == {(4,): 3, (3, 1): 5, (2, 2): 4, (2, 1, 1): 6, (1, 1, 1, 1): 8}


def test_padic_profile_is_not_strictly_minimal_on_a_tie(monkeypatch):
    # by Result 1 no valid input ties the one-block term, so only a stub can
    # show that the zero-sum fold calls a tie not strictly minimal
    from cayley_immanants import supports

    monkeypatch.setattr(supports, "_block_valuations",
                        lambda spec, p, counts: iter([(spec.order, 3), (1, 3)]))
    profile = _counts_profile(C4, (4, 0, 0, 0))
    assert profile.min_valuation == 3
    assert not profile.strictly_minimal


def _prime_powers(limit):
    primes = [p for p in range(2, limit + 1) if all(p % q for q in range(2, p))]
    return [(p, r) for p in primes for r in range(1, limit.bit_length()) if p**r <= limit]


def test_block_size_bound_separates_by_exactly_one():
    # the least multi-block cost of a composition is one above the
    # one-block value (p^r - 1)/(p - 1) at every prime power up to 256
    powers = _prime_powers(256)
    assert len(powers) == 70 and (2, 8) in powers and (251, 1) in powers
    for p, r in powers:
        assert _least_split_valuation(p, r) == (p**r - 1) // (p - 1) + 1, (p, r)


def test_block_size_bound_matches_every_composition():
    # the DP against the least over all compositions, listed, at n <= 16
    for p, r in _prime_powers(16):
        n = p**r
        costs = [
            sum(r + _legendre(s - 1, p) for s in parts)
            for k in range(2, n + 1)
            for cuts in itertools.combinations(range(1, n), k - 1)
            for parts in [[b - a for a, b in zip((0, *cuts), (*cuts, n))]]
        ]
        assert _least_split_valuation(p, r) == min(costs), (p, r)


def test_a_tied_block_size_bound_refuses_the_certificate(monkeypatch):
    # v_2(2!) stubbed to -1 makes the split 3 + 1 of c4 cost 2 + (-1) + 2 + 0 = 3,
    # the one-block value itself: a tie is no certificate
    from cayley_immanants import supports

    real = supports._legendre
    monkeypatch.setattr(supports, "_legendre", lambda m, p: real(m, p) - 2 * (m == 2))
    assert _least_split_valuation(2, 2) == 3
    with pytest.raises(ArithmeticError, match="does not separate .* at order 4"):
        block_size_certificate(C4)
    with pytest.raises(ArithmeticError, match="at order 4"):
        padic_profile(C4, ((0,),) * 4)


def test_padic_profile_c4_0022():
    profile = padic_profile(C4, ((0,), (0,), (2,), (2,)))
    shapes = oracle_shape_valuations(C4, 2, (0, 0, 2, 2))
    assert shapes == {(4,): 3, (3, 1): 5, (2, 2): 4, (2, 1, 1): 6}
    assert profile.min_valuation == 3
    assert profile.strictly_minimal


def test_padic_profile_c9_one_block_valuation():
    profile = padic_profile(C9, ((0,),) * 9)
    assert profile.p == 3 and profile.r == 2
    assert profile.min_valuation == 4
    assert profile.strictly_minimal


@pytest.mark.parametrize("factors", [(4,), (2, 2), (8,), (2, 4), (2, 2, 2)], ids=str)
def test_padic_profile_matches_labelled_shapes(factors):
    # least valuation over all shapes; one block strictly below every other shape
    spec = GroupSpec(factors)
    n = spec.order
    for mono in sorted(hall_support(spec)):
        profile = padic_profile(spec, monomial_sequence(spec, mono))
        values = oracle_shape_valuations(spec, profile.p, _indices(spec, mono))
        one_block = values.pop((n,))
        assert profile.min_valuation == min([one_block, *values.values()])
        assert profile.strictly_minimal == all(v > one_block for v in values.values())


def test_padic_profile_rejects_bad_input():
    with pytest.raises(ValueError):
        padic_profile(C6, ((0,),) * 6)
    with pytest.raises(ValueError):
        padic_profile(C4, ((1,), (0,), (0,), (0,)))


def test_valuation_profile_is_an_immutable_value():
    profile = block_size_certificate(GroupSpec((8,)))
    same = ValuationProfile(p=2, r=3, min_valuation=7, strictly_minimal=True)
    assert profile == same and hash(profile) == hash(same)
    assert profile != ValuationProfile(2, 3, 7, False)
    with pytest.raises(AttributeError):
        profile.min_valuation = 0
    assert pickle.loads(pickle.dumps(profile)) == profile
    assert repr(profile) == "ValuationProfile(p=2, r=3, min_valuation=7, strictly_minimal=True)"


def test_padic_certificate_forces_nonzero_det_coeff():
    # strict minimality of the one-block valuation over every Hall monomial
    for spec in (C4, C2xC2, GroupSpec((2, 4))):
        for mono in sorted(hall_support(spec)):
            profile = padic_profile(spec, monomial_sequence(spec, mono))
            assert profile.strictly_minimal
            assert det_coeff(spec, mono) != 0


@pytest.mark.parametrize("factors", [(4,), (2, 2), (8,), (2, 4), (2, 2, 2)], ids=str)
def test_padic_profiles_match_per_monomial_profiles(factors, capsys):
    # the streamed rows of `padic --all` against a per-monomial profile,
    # and the zero-sum fold on every monomial, with no orbit filter
    spec = GroupSpec(factors)
    assert main(["padic", "--group", spec.name, "--all"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["sequence", "min_valuation", "strictly_minimal"]
    support = sorted(hall_support(spec))
    assert len(rows) == len(support) + 1
    certificate = block_size_certificate(spec)
    for row, mono in zip(rows[1:], support, strict=True):
        seq = monomial_sequence(spec, mono)
        profile = padic_profile(spec, seq)
        assert profile == certificate == _counts_profile(spec, mono)
        assert row == [" ".join(":".join(map(str, g)) for g in seq),
                       str(profile.min_valuation), str(profile.strictly_minimal)]


def test_downstream_counts_isomorphism_invariant():
    # factor order never matters: full counts at order 6, Hall size at order 12
    a, b = GroupSpec((2, 3)), GroupSpec((3, 2))
    assert a.canonical_form() == b.canonical_form() == (6,)
    c6 = GroupSpec((6,))
    triples = [
        (count_P(s), count_D(s), count_I_nearhook(s)) for s in (a, b, c6)
    ]
    assert triples[0] == triples[1] == triples[2]
    assert count_P(GroupSpec((2, 6))) == count_P(GroupSpec((6, 2)))


def test_monomial_sequence_lex_labelling():
    assert monomial_sequence(C3, (1, 1, 1)) == ((0,), (1,), (2,))
    assert monomial_sequence(C3, (3, 0, 0)) == ((0,), (0,), (0,))
    assert monomial_sequence(C4, (0, 2, 0, 2)) == ((1,), (1,), (3,), (3,))
