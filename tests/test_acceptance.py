"""Acceptance gate: every criterion of the build contract, at exact tolerance.

Each test covers one numbered criterion and prints a single pass/fail line;
run with `pytest tests/test_acceptance.py -v -s` to see them.  Everything is
exact integer or rational equality; there are no tolerances to tune.
"""

import math
from collections import Counter
from functools import lru_cache

from cayley_immanants.characters import (
    Partition,
    char_n3_3,
    char_n3_111,
    cohook_char,
    dimension,
    hook_char_n11,
    mn_character,
    partitions_of,
    twin_diff_char,
)
from cayley_immanants.groups import add_table, doubling_counts, parse_group
from cayley_immanants.immanants import (
    determinant,
    immanant,
    perm_class_stats,
    permanent,
    twin_difference,
)
from cayley_immanants.minors import (
    F1,
    T2,
    T12,
    inverse_profile,
    jacobi_check,
    lemma43_scalars,
    random_specialization,
    reduction_check,
    specialized_det,
)
from cayley_immanants.polynomials import GroupPolynomial
from cayley_immanants.supports import (
    count_D,
    count_I_nearhook,
    count_P,
    hall_support,
    near_hook_coeff,
    near_hook_scalar_numerator,
    padic_profile,
)
from test_supports import monomial_sequence

SEED = 1


def report(number, label):
    def decorator(fn):
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"criterion {number:2d} [{label}]: FAIL")
                raise
            print(f"criterion {number:2d} [{label}]: PASS")

        wrapper.__name__ = fn.__name__
        return wrapper

    return decorator


@lru_cache(maxsize=None)
def G(name):
    return parse_group(name)


@report(1, "c3 ground truth")
def test_criterion_1_c3_ground_truth():
    spec = G("c3")
    det_expected = GroupPolynomial.from_terms(
        spec, {(3, 0, 0): -1, (0, 3, 0): -1, (0, 0, 3): -1, (1, 1, 1): 3}
    )
    per_expected = GroupPolynomial.from_terms(
        spec, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1, (1, 1, 1): 3}
    )
    assert determinant(spec) == det_expected
    assert permanent(spec) == per_expected
    assert count_P(spec) == 4
    assert count_D(spec) == 4


@report(2, "Hall: permanent support is the zero-sum support")
def test_criterion_2_hall_support():
    for name in ("c4", "c5", "c6", "c7", "c8", "c2xc2", "c2xc4", "c3xc3"):
        spec = G(name)
        assert frozenset(permanent(spec).terms) == frozenset(hall_support(spec)), name


@report(3, "partition-lattice determinant coefficients")
def test_criterion_3_det_coefficients():
    from cayley_immanants.supports import det_coeff

    for name in ("c4", "c5", "c6", "c7", "c2xc2", "c2xc4"):
        spec = G(name)
        det = determinant(spec)
        for mono in sorted(hall_support(spec)):
            # determinant() reads det_coeff too; the class walk is independent
            walked = perm_class_stats(spec, mono).d_m
            assert det_coeff(spec, mono) == det.coefficient(mono) == walked, (name, mono)


@report(4, "prime powers have P = D")
def test_criterion_4_prime_power_pd():
    names = ("c2", "c3", "c4", "c2xc2", "c5", "c7", "c8", "c2xc4",
             "c2xc2xc2", "c9", "c3xc3")
    for name in names:
        spec = G(name)
        p, d = count_P(spec), count_D(spec)
        assert p == d, (name, p, d)
        if spec.order <= 8:
            assert permanent(spec).support_size == p, name
            assert determinant(spec).support_size == d, name
            walked = [perm_class_stats(spec, m).d_m for m in hall_support(spec)]
            assert sum(map(bool, walked)) == d, name


@report(5, "p-adic certificate: one-block term strictly minimal")
def test_criterion_5_padic_certificate():
    for name in ("c4", "c8", "c9"):
        spec = G(name)
        for mono in sorted(hall_support(spec)):
            profile = padic_profile(spec, monomial_sequence(spec, mono))
            assert profile.strictly_minimal, (name, mono)


@report(6, "odd order: near-hook immanants vanish")
def test_criterion_6_odd_near_hooks_vanish():
    for name in ("c3", "c5", "c7", "c9", "c3xc3"):
        spec = G(name)
        n = spec.order
        assert immanant(spec, Partition((n - 1, 1))).support_size == 0, name
        assert immanant(spec, Partition((2,) + (1,) * (n - 2))).support_size == 0, name
        for mono in hall_support(spec):
            assert near_hook_scalar_numerator(spec, mono) == 0, (name, mono)


@report(7, "2 mod 4: near-hook supports equal P and D")
def test_criterion_7_two_mod_four_counts():
    c6 = G("c6")
    hook = immanant(c6, Partition((5, 1)))
    cohook = immanant(c6, Partition((2, 1, 1, 1, 1)))
    assert count_I_nearhook(c6) == (hook.support_size, cohook.support_size)
    assert count_I_nearhook(c6) == (count_P(c6), count_D(c6))

    c10 = G("c10")  # formula path only: no 10! sweep happens here
    assert count_I_nearhook(c10) == (count_P(c10), count_D(c10))


@report(8, "near-hook master formula matches brute force")
def test_criterion_8_master_formula():
    for name in ("c6", "c7"):
        spec = G(name)
        n = spec.order
        hook = immanant(spec, Partition((n - 1, 1)))
        cohook = immanant(spec, Partition((2,) + (1,) * (n - 2)))
        for mono in sorted(hall_support(spec)):
            stats = perm_class_stats(spec, mono)
            expected = (hook.coefficient(mono), cohook.coefficient(mono))
            assert near_hook_coeff(spec, mono, stats) == expected, (name, mono)


@report(9, "odd order >= 7: twin immanants coincide")
def test_criterion_9_twin_difference_zero():
    for name in ("c7", "c9", "c3xc3"):
        assert twin_difference(G(name)).support_size == 0, name


@report(10, "even cyclic: twin difference at x_0^n")
def test_criterion_10_twin_x0_coefficient():
    for name, expected in (("c6", -3), ("c8", 5)):
        spec = G(name)
        n = spec.order
        assert expected == (3 - n) * (-1) ** ((n - 2) // 2)
        mono = (n,) + (0,) * (n - 1)
        assert twin_difference(spec).coefficient(mono) == expected, name


@report(11, "inverse and minor identities at seeded specializations")
def test_criterion_11_minor_identities():
    # convolution residuals (M Y = I for Y = (y_{a+b})), complementary minors
    for name in ("c3", "c4", "c5", "c6", "c7", "c8", "c2xc2", "c2xc4", "c2xc2xc2"):
        spec = G(name)
        n = spec.order
        add = add_table(spec)
        for i in range(5):
            rho = random_specialization(spec, SEED + i)
            profile = inverse_profile(spec, rho)  # raises unless M Y = I
            for s in range(n):
                residual = sum(rho.values[r] * profile.y[add[r][s]] for r in range(n))
                assert residual == (1 if s == 0 else 0), (name, s)
            jacobi_check(spec, rho)  # raises on the first differing minor

    # odd-order scalar identities
    for name in ("c3", "c5", "c7", "c9"):
        spec = G(name)
        for i in range(5):
            rho = random_specialization(spec, SEED + i)
            assert F1(spec, rho) == specialized_det(spec, rho), name
            assert T12(spec, rho) == T2(spec, rho), name
            lemma43_scalars(spec, rho)  # raises on any broken proof identity

    # matrix-general principal-minor reduction
    for name in ("c6", "c7", "c8", "c9"):
        spec = G(name)
        twin = twin_difference(spec)
        for i in range(5):
            rho = random_specialization(spec, SEED + i)
            reduction_check(spec, rho, twin=twin)  # raises unless both sides agree


@report(12, "character layer: closed forms and regular character")
def test_criterion_12_character_layer():
    for n in range(6, 10):
        hook = Partition((n - 1, 1))
        cohook = Partition((2,) + (1,) * (n - 2))
        h3 = Partition((n - 3, 1, 1, 1))
        j3 = Partition((n - 3, 3))
        twin_a = Partition((4,) + (1,) * (n - 4))
        twin_b = Partition((2, 2, 2) + (1,) * (n - 6))
        for mu in partitions_of(n):
            assert hook_char_n11(mu) == mn_character(hook, mu), (n, mu)
            assert cohook_char(mu) == mn_character(cohook, mu), (n, mu)
            assert char_n3_111(mu) == mn_character(h3, mu), (n, mu)
            assert char_n3_3(mu) == mn_character(j3, mu), (n, mu)
            expected = mn_character(twin_a, mu) - mn_character(twin_b, mu)
            assert twin_diff_char(mu) == expected, (n, mu)

    for name in ("c2", "c3", "c4", "c2xc2", "c5", "c6"):
        spec = G(name)
        n = spec.order
        total = Counter()
        for lam in partitions_of(n):
            for mono, coeff in immanant(spec, lam).terms.items():
                total[mono] += dimension(lam) * coeff
        nonzero = {mono: coeff for mono, coeff in total.items() if coeff}
        assert nonzero == {tuple(doubling_counts(spec)): math.factorial(n)}, name
