import functools
import hashlib
import itertools
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayley_immanants.characters import Partition, mn_character, partitions_of, twin_diff_char
from cayley_immanants.groups import (
    GroupSpec,
    affine_maps,
    automorphisms,
    doubling_counts,
    neg_table,
    parse_group,
    perm_parity,
)
from cayley_immanants.immanants import (
    EnvelopeError,
    PermClassStats,
    _class_walk,
    determinant,
    immanant,
    immanant_orbits,
    orbit_support_size,
    perm_class_stats,
    permanent,
    twin_difference,
    twin_orbits,
)
from cayley_immanants.polynomials import GroupPolynomial
from cayley_immanants.supports import (
    _counts_profile,
    hall_support,
    near_hook_scalar_numerator,
    orbit_representatives,
)
from test_polynomials import monomial_of_perm
from test_supports import (
    _indices,
    labelled_det_coeff,
    monomial_sequence,
    oracle_block_shapes,
    oracle_orbits,
    relabel,
)

C2 = GroupSpec((2,))
C3 = GroupSpec((3,))
C4 = GroupSpec((4,))
C5 = GroupSpec((5,))
C6 = GroupSpec((6,))
C7 = GroupSpec((7,))
C2xC2 = GroupSpec((2, 2))


def char_weights(lam: Partition) -> dict:
    """chi^lam on every class of S_n, keyed by descending cycle lengths."""
    return {mu.parts: mn_character(lam, mu) for mu in partitions_of(lam.weight)}


def twin_weights(n: int) -> dict:
    """The twin difference's class function on every class of S_n."""
    return {mu.parts: twin_diff_char(mu) for mu in partitions_of(n)}


@functools.lru_cache(maxsize=None)
def brute_histogram(spec: GroupSpec) -> dict:
    """monomial -> Counter of descending cycle lengths, over all n! permutations."""
    n = spec.order
    hist: dict = {}
    for images in itertools.permutations(range(n)):
        seen = [False] * n
        lengths = []
        for u in range(n):
            size = 0
            while not seen[u]:
                seen[u] = True
                u = images[u]
                size += 1
            if size:
                lengths.append(size)
        mono = monomial_of_perm(spec, images)
        hist.setdefault(mono, Counter())[tuple(sorted(lengths, reverse=True))] += 1
    return hist


def brute_terms(spec: GroupSpec, weights) -> dict:
    """The brute-force oracle of the census fold: nonzero sum of weight(type) per monomial."""
    terms = {}
    for mono, types in brute_histogram(spec).items():
        coeff = sum(weights[t] * c for t, c in types.items())
        if coeff:
            terms[mono] = coeff
    return terms


DET_C3 = GroupPolynomial.from_terms(
    C3, {(3, 0, 0): -1, (0, 3, 0): -1, (0, 0, 3): -1, (1, 1, 1): 3}
)
PER_C3 = GroupPolynomial.from_terms(
    C3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1, (1, 1, 1): 3}
)


def test_c3_ground_truth():
    assert immanant(C3, Partition((1, 1, 1))) == DET_C3
    assert immanant(C3, Partition((3,))) == PER_C3


def test_c2_det_per():
    assert determinant(C2) == GroupPolynomial.from_terms(C2, {(2, 0): 1, (0, 2): -1})
    assert permanent(C2) == GroupPolynomial.from_terms(C2, {(2, 0): 1, (0, 2): 1})


def test_near_hook_immanants_vanish_on_c5():
    assert immanant(C5, Partition((4, 1))).support_size == 0
    assert immanant(C5, Partition((2, 1, 1, 1))).support_size == 0


def test_weight_mismatch_and_envelope():
    with pytest.raises(ValueError):
        immanant(C5, Partition((3, 1)))
    with pytest.raises(EnvelopeError):
        determinant(GroupSpec((12,)))
    with pytest.raises(ValueError):
        twin_difference(C5)


def test_perm_class_stats_refuses_above_the_sweep_envelope():
    # `support --report full` reaches the class walk through this route
    with pytest.raises(EnvelopeError, match="group order 11"):
        perm_class_stats(GroupSpec((11,)), (11,) + (0,) * 10)


def test_perm_class_stats_takes_a_list_or_a_tuple():
    # the memoized walk needs a hashable key; a list is turned into a tuple
    for mono in sorted(hall_support(C6)):
        assert perm_class_stats(C6, list(mono)) == perm_class_stats(C6, mono)


def test_perm_class_stats_c3_all_distinct():
    stats = perm_class_stats(C3, (1, 1, 1))
    assert stats.p_m == 3
    assert stats.d_m == 3


def test_perm_class_stats_x0_power():
    for spec in (C3, C4, C6, C2xC2):
        n = spec.order
        stats = perm_class_stats(spec, (n,) + (0,) * (n - 1))
        assert stats.p_m >= 1
        # negation is the only permutation over a cyclic group of odd order
        if n % 2 == 1:
            assert stats.p_m == 1


def test_perm_class_stats_c4_x1_fourth():
    # u + sigma(u) = 1 forces sigma(u) = 1 - u, which is a permutation:
    # the class is the single involution (0 1)(2 3), of positive sign
    stats = perm_class_stats(C4, (0, 4, 0, 0))
    assert stats.p_m == 1
    assert stats.d_m == 1


def test_perm_class_stats_match_det_per_coefficients():
    for spec in (C3, C4, C2xC2, C5):
        per = permanent(spec)
        det = determinant(spec)
        for mono in sorted(per.terms):
            stats = perm_class_stats(spec, mono)
            assert stats.p_m == per.coefficient(mono)
            assert stats.d_m == det.coefficient(mono)
        # a monomial outside the support has an empty class
        n = spec.order
        absent = (n - 1, 1) + (0,) * (n - 2)
        if absent not in per.terms:
            empty = perm_class_stats(spec, absent)
            assert empty == PermClassStats(0, 0)


def brute_first_image_split(spec: GroupSpec) -> dict:
    """monomial -> (count, signed count) per sigma(0), over all n! permutations."""
    n = spec.order
    split: dict = {}
    for images in itertools.permutations(range(n)):
        mono = monomial_of_perm(spec, images)
        counts, signed = split.setdefault(mono, ([0] * n, [0] * n))
        counts[images[0]] += 1
        signed[images[0]] += perm_parity(images)
    return split


def test_translation_fiber_counts():
    # per-a class sizes refine p_m and d_m proportionally to the exponents
    for spec in (C3, C4, C2xC2, C5, C6, C7):
        n = spec.order
        for mono, (counts, signed) in brute_first_image_split(spec).items():
            stats = perm_class_stats(spec, mono)
            for a in range(n):
                assert n * counts[a] == mono[a] * stats.p_m
                assert n * signed[a] == mono[a] * stats.d_m


def combination(*scaled) -> dict:
    """The terms of sum_i c_i * p_i for (c_i, p_i) pairs, cancelled terms dropped."""
    total = Counter()
    for scale, poly in scaled:
        for mono, coeff in poly.terms.items():
            total[mono] += scale * coeff
    return {mono: coeff for mono, coeff in total.items() if coeff}


def expand_table(spec: GroupSpec, table) -> dict:
    """The nonzero terms of an orbit table, expanded over the test-side orbits.

    The table must hold every orbit of `oracle_orbits`, in ascending order
    of its least member, with the orbit's size.
    """
    orbits = oracle_orbits(spec)
    assert [(rep, size) for rep, size, _ in table] == [(o[0], len(o)) for o in orbits]
    return {mono: coeff for orbit, (_, _, coeff) in zip(orbits, table) if coeff
            for mono in orbit}


def test_regular_character_identity_polynomials():
    # sum over lam of dim(lam) * imm_lam = n! * prod_a x_{2a}
    from cayley_immanants.characters import dimension

    for spec in (C2, C3, C4, C2xC2, C5, C6):
        n = spec.order
        total = combination(*((dimension(lam), immanant(spec, lam)) for lam in partitions_of(n)))
        assert total == {tuple(doubling_counts(spec)): math.factorial(n)}


def test_conjugate_shape_is_sign_twisted_sweep():
    # imm of the conjugate shape folds each census with the sign-twisted
    # column; for lam = (n) that is the determinant, read from det_coeff
    for spec in (C4, C5, C6, C2xC2):
        n = spec.order
        for lam in partitions_of(n):
            weights = char_weights(lam)
            twisted = {
                mu: (-1 if sum(c - 1 for c in mu) % 2 else 1) * w
                for mu, w in weights.items()
            }
            folded = [(rep, size, sum(twisted[mu] * c for mu, c in _class_walk(spec, rep)))
                      for rep, size in orbit_representatives(spec)]
            assert list(immanant_orbits(spec, lam.conjugate())) == folded


def test_c6_near_hook_supports_match_det_per():
    assert frozenset(immanant(C6, Partition((5, 1))).terms) == frozenset(permanent(C6).terms)
    assert (frozenset(immanant(C6, Partition((2, 1, 1, 1, 1))).terms)
            == frozenset(determinant(C6).terms))


def test_twin_difference_c7_zero():
    assert twin_difference(C7).support_size == 0


def test_twin_difference_c6_x0_coefficient():
    diff = twin_difference(C6)
    assert diff.coefficient((6, 0, 0, 0, 0, 0)) == -3
    assert diff.support_size > 0
    # agrees with the two immanants computed separately
    direct = combination((1, immanant(C6, Partition((4, 1, 1)))),
                         (-1, immanant(C6, Partition((2, 2, 2)))))
    assert diff.terms == direct


def test_twin_difference_matches_immanant_difference_c7():
    direct = combination((1, immanant(C7, Partition((4, 1, 1, 1)))),
                         (-1, immanant(C7, Partition((2, 2, 2, 1)))))
    assert twin_difference(C7).terms == direct == {}
    assert orbit_support_size(twin_orbits(C7)) == 0


def test_negation_monomial_in_every_support():
    # sigma: a -> -a always contributes x_0^n
    for spec in (C3, C4, C6, C2xC2):
        n = spec.order
        assert (n,) + (0,) * (n - 1) in permanent(spec).terms
        images = tuple(neg_table(spec))
        assert monomial_of_perm(spec, images) == (n,) + (0,) * (n - 1)


ORACLE_SPECS = [GroupSpec((n,)) for n in range(2, 9)] + [
    GroupSpec((2, 2)), GroupSpec((2, 4)), GroupSpec((2, 2, 2))
]


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=str)
def test_sweep_matches_brute_force_oracle(spec):
    # every orbit table, expanded test-side and through per_monomial
    n = spec.order
    for lam in partitions_of(n):
        expected = brute_terms(spec, char_weights(lam))
        table = immanant_orbits(spec, lam)
        assert expand_table(spec, table) == immanant(spec, lam).terms == expected, lam
        assert orbit_support_size(table) == len(expected)
    if n >= 6:
        expected = brute_terms(spec, twin_weights(n))
        assert expand_table(spec, twin_orbits(spec)) == twin_difference(spec).terms == expected


@pytest.mark.parametrize(
    "factors, lam", [((3, 3), (4, 1, 1, 1, 1, 1)), ((9,), (1,) * 9)], ids=str
)
def test_sweep_matches_brute_force_oracle_order_9(factors, lam):
    spec = GroupSpec(factors)
    expected = brute_terms(spec, char_weights(Partition(lam)))
    assert expand_table(spec, immanant_orbits(spec, Partition(lam))) == expected


# sha256 of every immanant's sorted terms, partition by partition, then the
# twin difference's, as the engine gave them before it kept orbit tables
EXPANDED_SHA256 = {
    "c8": "72f65ae124d3ff19d227ba7fb100316bfd2ce6fe82432c122c0b59c20bb88464",
    "c2xc4": "397b652fa3ac0178fd7438fa300d67ff93a96c462ad69d78c255cbda9aa7adff",
    "c9": "bb45fafc8e88c934d95f27150a8aa71d8dcf59444c70fc707a30dd58372f0ded",
    "c3xc3": "c0ee6babb79ce31a910429991c20c8d538ec88d7c65e4ae72671a08530cba408",
}


@pytest.mark.parametrize("name", sorted(EXPANDED_SHA256))
def test_expanded_tables_keep_every_immanant(name):
    spec = parse_group(name)
    digest = hashlib.sha256()
    for lam in partitions_of(spec.order):
        terms = expand_table(spec, immanant_orbits(spec, lam))
        assert immanant(spec, lam).terms == terms
        digest.update(repr((lam.parts, sorted(terms.items()))).encode())
    terms = expand_table(spec, twin_orbits(spec))
    digest.update(repr(("twin", sorted(terms.items()))).encode())
    assert digest.hexdigest() == EXPANDED_SHA256[name]


def test_orbit_tables_refuse_what_the_polynomials_refuse():
    with pytest.raises(ValueError, match="partition weight 4 != group order 5"):
        immanant_orbits(C5, Partition((3, 1)))
    with pytest.raises(EnvelopeError, match="group order 11"):
        immanant_orbits(GroupSpec((11,)), Partition((1,) * 11))
    with pytest.raises(ValueError, match="group order >= 6, got 5"):
        twin_orbits(C5)
    with pytest.raises(EnvelopeError, match="group order 11"):
        twin_orbits(GroupSpec((11,)))


@pytest.mark.parametrize("spec", ORACLE_SPECS + [GroupSpec((9,))], ids=str)
def test_determinant_matches_brute_force_oracle(spec):
    # the determinant reads det_coeff, not the class walks that _sweep folds
    sign = char_weights(Partition((1,) * spec.order))
    assert determinant(spec).terms == brute_terms(spec, sign)


def test_determinant_matches_the_class_walks_at_c10():
    c10 = GroupSpec((10,))
    sign = char_weights(Partition((1,) * 10))
    walked = [(rep, size, sum(sign[mu] * c for mu, c in _class_walk(c10, rep)))
              for rep, size in orbit_representatives(c10)]
    assert list(immanant_orbits(c10, Partition((1,) * 10))) == walked


def class_size_mismatches(spec: GroupSpec, census) -> list[tuple[int, ...]]:
    """Cycle types mu whose walked count is not the class size n!/z_mu.

    census(spec, rep) is a walk's census; it is weighted by the orbit size
    and summed over the orbit representatives of the Hall support.  This
    sees a lost, doubled or misfiled permutation, not one charged to the
    wrong monomial within its cycle type.
    """
    n = spec.order
    walked = Counter()
    for rep, size in orbit_representatives(spec):
        for lengths, count in census(spec, rep):
            walked[lengths] += size * count
    class_size = {}
    for lam in partitions_of(n):
        z = 1
        for length, mult in Counter(lam.parts).items():
            z *= length**mult * math.factorial(mult)
        class_size[lam.parts] = math.factorial(n) // z
    return sorted(mu for mu in walked.keys() | class_size.keys()
                  if walked[mu] != class_size.get(mu))


@pytest.mark.parametrize("factors", [(8,), (2, 4), (9,), (3, 3), (10,)], ids=str)
def test_walked_censuses_sum_to_the_class_sizes(factors):
    assert class_size_mismatches(GroupSpec(factors), _class_walk) == []


def _census_with(spec: GroupSpec, change):
    """_class_walk, with change applied to the census of the first
    representative whose class holds two cycle types."""
    target = next(rep for rep, _ in orbit_representatives(spec)
                  if len(_class_walk(spec, rep)) >= 2)

    def census(group, rep):
        if rep != target:
            return _class_walk(group, rep)
        counts = dict(_class_walk(group, rep))
        change(counts)
        return tuple(sorted(counts.items()))

    return census


def test_class_size_oracle_sees_a_permutation_moved_between_cycle_types():
    def move(counts):
        source, sink = sorted(counts)[:2]
        counts[source] -= 1
        counts[sink] += 1

    c8 = GroupSpec((8,))
    assert len(class_size_mismatches(c8, _census_with(c8, move))) == 2


def test_class_size_oracle_sees_an_added_permutation():
    def add(counts):
        counts[min(counts)] += 1

    c8 = GroupSpec((8,))
    assert len(class_size_mismatches(c8, _census_with(c8, add))) == 1


def test_determinant_walks_no_class():
    _class_walk.cache_clear()
    determinant(GroupSpec((8,)))
    assert _class_walk.cache_info().misses == 0


SMALL_SPECS = [GroupSpec((n,)) for n in range(2, 8)] + [GroupSpec((2, 2))]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_relabelling_keeps_oracle_coefficients(data):
    # the invariance the orbit engine relies on, checked on the oracle alone
    spec = data.draw(st.sampled_from(SMALL_SPECS), label="spec")
    r = data.draw(st.sampled_from(affine_maps(spec)), label="map")
    lam = data.draw(st.sampled_from(partitions_of(spec.order)), label="lam")
    terms = brute_terms(spec, char_weights(lam))
    for mono in hall_support(spec):
        assert terms.get(relabel(mono, r), 0) == terms.get(mono, 0)
    members = oracle_orbits(spec)
    assert sum(map(len, members)) == len(hall_support(spec))
    assert set().union(*members) == set(hall_support(spec))


def oracle_invariants(spec, mono):
    """p_m and d_m from the n! oracle, the labelled det sum, the scalar numerator."""
    types = brute_histogram(spec)[mono]
    p_m = sum(types.values())
    d_m = sum(-c if (spec.order - len(t)) % 2 else c for t, c in types.items())
    return (
        p_m,
        d_m,
        labelled_det_coeff(spec, monomial_sequence(spec, mono)),
        near_hook_scalar_numerator(spec, mono),
    )


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_formula_path_values_are_constant_on_affine_orbits(data):
    # what count_D, count_I_nearhook and `support --report full` weight or copy
    spec = data.draw(st.sampled_from(SMALL_SPECS), label="spec")
    orbit = data.draw(st.sampled_from(oracle_orbits(spec)), label="orbit")
    rep = orbit[0]
    r = data.draw(st.sampled_from(affine_maps(spec)), label="map")
    assert relabel(rep, r) in orbit
    expected = oracle_invariants(spec, rep)
    for mono in orbit:
        assert oracle_invariants(spec, mono) == expected


PRIME_POWER_SPECS = [GroupSpec(f) for f in ((2,), (3,), (4,), (2, 2), (5,), (7,))]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_padic_profile_is_constant_on_automorphism_orbits(data):
    # the padic-certificate check folds only the least member of each
    # automorphism orbit, so the fold must give the image the same profile
    spec = data.draw(st.sampled_from(PRIME_POWER_SPECS), label="spec")
    mono = data.draw(st.sampled_from(hall_support(spec)), label="monomial")
    phi = data.draw(st.sampled_from(automorphisms(spec)), label="automorphism")
    image = relabel(mono, phi)
    assert image in hall_support(spec)
    assert _counts_profile(spec, image) == _counts_profile(spec, mono)
    assert oracle_block_shapes(spec, _indices(spec, image)) == oracle_block_shapes(
        spec, _indices(spec, mono))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_cached_census_equals_a_fresh_walk(data):
    # the memo is keyed on (group, monomial): groups of one order that share
    # a monomial, such as c4 and c2xc2 with x_0^4, keep their own census
    spec = data.draw(st.sampled_from(ORACLE_SPECS), label="spec")
    mono = data.draw(st.sampled_from(sorted(hall_support(spec))), label="mono")
    for other in ORACLE_SPECS:
        if other.order == spec.order and mono in hall_support(other):
            assert _class_walk(other, mono) == _class_walk.__wrapped__(other, mono)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_class_stats_do_not_depend_on_call_order(data):
    # the sweeps and perm_class_stats read one shared census; none may alter it
    spec = data.draw(st.sampled_from(ORACLE_SPECS), label="spec")
    n = spec.order
    _class_walk.cache_clear()
    monos = sorted(hall_support(spec))
    before = [perm_class_stats(spec, mono) for mono in monos]
    immanant(spec, Partition((n - 1, 1)))
    if n >= 6:
        twin_difference(spec)
    assert [perm_class_stats(spec, mono) for mono in monos] == before
