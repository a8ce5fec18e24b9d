import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayley_immanants.groups import GroupSpec, add_table, neg_table, parse_group
from cayley_immanants.minors import specialized_det
from cayley_immanants.polynomials import GroupPolynomial, Monomial, RationalSpecialization

C2 = GroupSpec((2,))
C3 = GroupSpec((3,))


def monomial_of_perm(spec: GroupSpec, images: tuple[int, ...]) -> Monomial:
    """Exponent vector of prod_a x_{a + sigma(a)} for sigma given as indices."""
    n = spec.order
    if sorted(images) != list(range(n)):
        raise ValueError("images do not form a permutation of the group elements")
    table = add_table(spec)
    exp = [0] * n
    for u in range(n):
        exp[table[u][images[u]]] += 1
    return tuple(exp)


def polynomial_from_json_dict(data: dict) -> GroupPolynomial:
    """The inverse of GroupPolynomial.to_json_dict."""
    group = parse_group(data["group"])
    terms = {tuple(t["exp"]): int(t["coeff"]) for t in data["terms"]}
    return GroupPolynomial.from_terms(group, terms)


def test_monomial_of_identity_on_c3():
    # a + a over C3 runs through 0, 2, 1: one of each variable
    assert monomial_of_perm(C3, (0, 1, 2)) == (1, 1, 1)


def test_monomial_of_negation_is_x0_power():
    for spec in (C3, GroupSpec((2, 2)), GroupSpec((6,))):
        m = monomial_of_perm(spec, tuple(neg_table(spec)))
        assert m == (spec.order,) + (0,) * (spec.order - 1)


def test_monomial_of_swap_on_c2():
    assert monomial_of_perm(C2, (1, 0)) == (0, 2)


def test_monomial_degree_is_group_order():
    spec = GroupSpec((2, 3))
    for images in itertools.permutations(range(6)):
        if sum(images[:2]) % 5 == 0:  # thin the 720 cases
            assert sum(monomial_of_perm(spec, images)) == 6


def test_non_bijection_rejected():
    with pytest.raises(ValueError):
        monomial_of_perm(C3, (0, 0, 2))


def test_coefficient_of_absent_monomial_is_zero():
    p = GroupPolynomial.from_terms(C3, {(3, 0, 0): 2})
    assert p.coefficient((1, 1, 1)) == 0
    assert p.coefficient((3, 0, 0)) == 2


def test_mixed_group_rejected():
    p = GroupPolynomial.from_terms(C2, {(2, 0): 1})
    with pytest.raises(ValueError, match="different group"):
        p.evaluate(RationalSpecialization(C3, [1, 2, 3]))


def test_zero_coefficients_dropped_on_build():
    p = GroupPolynomial.from_terms(C3, {(3, 0, 0): 0, (1, 1, 1): 3})
    assert frozenset(p.terms) == frozenset({(1, 1, 1)})


def test_evaluate_examples():
    det_c3 = GroupPolynomial.from_terms(
        C3, {(3, 0, 0): -1, (0, 3, 0): -1, (0, 0, 3): -1, (1, 1, 1): 3}
    )
    rho = RationalSpecialization(C3, [1, 0, 0])
    assert det_c3.evaluate(rho) == -1

    per_c2 = GroupPolynomial.from_terms(C2, {(2, 0): 1, (0, 2): 1})
    assert per_c2.evaluate(RationalSpecialization(C2, [2, 3])) == 13

    zero = GroupPolynomial.from_terms(C3, {})
    assert zero.support_size == 0
    assert zero.evaluate(RationalSpecialization(C3, [7, 8, 9])) == 0


def test_evaluate_exact_rationals():
    p = GroupPolynomial.from_terms(C2, {(1, 1): 1})
    rho = RationalSpecialization(C2, (Fraction(1, 3), Fraction(3, 5)))
    assert p.evaluate(rho) == Fraction(1, 5)



@pytest.mark.parametrize(
    "values", [(0.1, 0.2, 0.3), (1, 2, 0.5), (Fraction(1, 2), 1, "3")]
)
def test_specialization_refuses_values_that_are_not_exact(values):
    # a float's binary value would pass for an exact rational in evaluate
    with pytest.raises(TypeError, match="int or Fraction"):
        RationalSpecialization(C3, values)


def test_specialization_keeps_ints_and_fractions():
    rho = RationalSpecialization(C3, (1, Fraction(1, 2), Fraction(3)))
    assert rho.values == (1, Fraction(1, 2), 3)
    assert RationalSpecialization(C3, (1, 2, 3)).values == (1, 2, 3)


def test_list_built_specialization_reads_the_minor_table():
    # the minor tables are memoized on the specialization, which must hash
    listed = RationalSpecialization(C3, [1, 2, 4])
    tupled = RationalSpecialization(C3, (1, 2, 4))
    assert listed.values == (1, 2, 4) and listed == tupled
    # det(x_{a+b}) on c3 is 3xyz - x^3 - y^3 - z^3
    assert specialized_det(C3, listed) == specialized_det(C3, tupled) == -49


coeffs = st.integers(-50, 50)


@st.composite
def c3_polys(draw):
    monos = [(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1), (2, 1, 0), (0, 1, 2)]
    return GroupPolynomial.from_terms(
        C3, {m: draw(coeffs) for m in draw(st.sets(st.sampled_from(monos), max_size=6))}
    )


@given(c3_polys(), c3_polys(), coeffs, st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))
@settings(max_examples=60)
def test_evaluate_is_linear(p, q, c, x0, x1, x2):
    rho = RationalSpecialization(C3, [x0, x1, x2])
    merged = dict(p.terms)
    for mono, coeff in q.terms.items():
        merged[mono] = merged.get(mono, 0) + c * coeff
    combined = GroupPolynomial.from_terms(C3, merged)
    assert combined.evaluate(rho) == p.evaluate(rho) + c * q.evaluate(rho)


@given(c3_polys())
@settings(max_examples=40)
def test_json_roundtrip(p):
    data = json.loads(json.dumps(p.to_json_dict()))
    assert polynomial_from_json_dict(data) == p


def test_json_roundtrip_all_small_immanants():
    # exhaustive over every immanant of C3, C4 and C2xC2
    from cayley_immanants.characters import partitions_of
    from cayley_immanants.immanants import immanant

    for spec in (C3, GroupSpec((4,)), GroupSpec((2, 2))):
        for lam in partitions_of(spec.order):
            poly = immanant(spec, lam)
            data = json.loads(json.dumps(poly.to_json_dict()))
            assert polynomial_from_json_dict(data) == poly


def test_json_canonical_order_and_string_coeffs():
    p = GroupPolynomial.from_terms(
        C3, {(1, 1, 1): 3, (0, 0, 3): -1, (3, 0, 0): 10**25}
    )
    data = p.to_json_dict()
    assert data["group"] == "c3"
    exps = [tuple(t["exp"]) for t in data["terms"]]
    assert exps == sorted(exps)
    assert all(isinstance(t["coeff"], str) for t in data["terms"])
    assert polynomial_from_json_dict(data).coefficient((3, 0, 0)) == 10**25
