import itertools
import json
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayley_immanants.groups import (
    GroupSpec,
    add_table,
    double_table,
    neg_table,
    parse_group,
    perm_parity,
)
from cayley_immanants import minors
from cayley_immanants.cli import main
from cayley_immanants.immanants import twin_difference
from cayley_immanants.minors import (
    F1,
    T2,
    T12,
    IdentityCheckError,
    JacobiReport,
    _clear_denominators,
    bareiss_det,
    gamma_expression,
    inverse_profile,
    jacobi_check,
    lemma43_scalars,
    random_specialization,
    reduction_check,
    specialized_det,
)
from cayley_immanants.polynomials import GroupPolynomial, RationalSpecialization

C2 = GroupSpec((2,))
C3 = GroupSpec((3,))
C4 = GroupSpec((4,))
C5 = GroupSpec((5,))
C6 = GroupSpec((6,))
C7 = GroupSpec((7,))


def leibniz_det(rows):
    """Independent determinant oracle: the permutation-sum definition."""
    n = len(rows)
    total = Fraction(0)
    for images in itertools.permutations(range(n)):
        prod = Fraction(perm_parity(images))
        for i in range(n):
            prod *= rows[i][images[i]]
        total += prod
    return total


# --- oracles: exact routes the package no longer takes ----------------------


def cayley_matrix(spec, rho):
    """The specialized matrix (x_{a+b}) in element-index order."""
    add = add_table(spec)
    vals = rho.values
    n = spec.order
    return [[vals[add[a][b]] for b in range(n)] for a in range(n)]


def exact_det(rows) -> Fraction:
    """Exact determinant of a rational matrix via row-wise denominator clearing."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    cleared = []
    scale = 1
    for row in rows:
        ints, mult = _clear_denominators(row)
        cleared.append(ints)
        scale *= mult
    return Fraction(bareiss_det(cleared), scale)


def gauss_jordan_inverse(matrix):
    """The full inverse by Gauss-Jordan elimination in Fractions."""
    n = len(matrix)
    aug = [
        [Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(matrix)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [v / pv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def oracle_y(spec, rho):
    """y from the Gauss-Jordan inverse: its row 0 is (y_(0+b)) = y, element 0 being zero."""
    return tuple(gauss_jordan_inverse(cayley_matrix(spec, rho))[0])


def test_bareiss_against_leibniz():
    rng = random.Random(5)
    for n in range(1, 5):
        for _ in range(20):
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            assert bareiss_det(rows) == leibniz_det(rows)


def test_exact_det_with_fractions():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(2, 7)]]
    assert exact_det(rows) == leibniz_det(rows)


_INTS = st.integers(-20, 20)
_FRACTIONS = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))


@st.composite
def _rational_matrices(draw):
    """Square matrices of ints, of Fractions, or of rows that mix the two."""
    n = draw(st.integers(0, 4))
    kind = draw(st.sampled_from(("ints", "fractions", "mixed")))
    entries = {"ints": _INTS, "fractions": _FRACTIONS, "mixed": _INTS | _FRACTIONS}[kind]
    return [[draw(entries) for _ in range(n)] for _ in range(n)]


@settings(max_examples=150, deadline=None)
@given(_rational_matrices())
def test_exact_det_matches_leibniz(rows):
    det = exact_det(rows)
    assert isinstance(det, Fraction)
    assert det == leibniz_det(rows)


@pytest.mark.parametrize("rows", [[[0.5]], [[1, 2], [Fraction(1, 3), 0.25]]])
def test_exact_det_refuses_floats(rows):
    # a float's binary value would pass for an exact rational
    with pytest.raises(TypeError, match="int or Fraction"):
        exact_det(rows)


def test_empty_minor_is_one():
    assert bareiss_det([]) == 1
    assert exact_det([]) == 1


def test_singular_matrix_det_zero():
    assert bareiss_det([[1, 2], [2, 4]]) == 0


# mostly zeros, so that many pivots are zero and rows are exchanged
_SPARSE_INTS = st.sampled_from((0, 0, 0, 1, -1, 2, -3, 7))


@st.composite
def _systems(draw):
    n = draw(st.integers(1, 5))
    rows = [[draw(_SPARSE_INTS) for _ in range(n)] for _ in range(n)]
    return rows, [draw(_INTS) for _ in range(n)]


@settings(max_examples=150, deadline=None)
@given(_systems())
def test_bareiss_solve_gives_the_cramer_numerators(system):
    # Y_k is det(rows) times y_k: the determinant with column k replaced by
    # the right-hand side, here by the Leibniz formula
    rows, column = system
    det = leibniz_det(rows)
    if det == 0:
        with pytest.raises(ValueError, match="singular"):
            minors.bareiss_solve(rows, column)
        return
    numerators = tuple(
        leibniz_det([row[:k] + [b] + row[k + 1:] for row, b in zip(rows, column)])
        for k in range(len(rows)))
    assert minors.bareiss_solve(rows, column) == (numerators, det)


def test_random_specialization_deterministic():
    a = random_specialization(C5, seed=42)
    b = random_specialization(C5, seed=42)
    assert a.values == b.values
    assert random_specialization(C5, seed=43).values != a.values
    assert all(1 <= v <= 32 for v in a.values)
    with pytest.raises(ValueError):
        random_specialization(C5, seed=1, value_range=1)


def test_permutation_matrix_specialization():
    # x_0 = 1 and x_g = 0 gives the permutation matrix of a -> -a
    rho = RationalSpecialization(C3, [1, 0, 0])
    assert specialized_det(C3, rho) == -1


def test_all_equal_specialization_singular():
    for spec in (C2, C3, C4):
        rho = RationalSpecialization(spec, [5] * spec.order)
        assert specialized_det(spec, rho) == 0
        with pytest.raises(ValueError):
            inverse_profile(spec, rho)


def test_inverse_profile_c2():
    rho = RationalSpecialization(C2, [2, 1])
    profile = inverse_profile(C2, rho)
    assert profile.y == (Fraction(2, 3), Fraction(-1, 3))
    assert profile.delta == 3


def test_convolution_residuals_exactly_zero():
    for spec in (C3, C4, C5, GroupSpec((2, 2)), C6):
        n = spec.order
        add = add_table(spec)
        for seed in range(3):
            rho = random_specialization(spec, seed)
            y = inverse_profile(spec, rho).y
            for s in range(n):
                residual = sum(
                    (rho.values[r] * y[add[r][s]] for r in range(n)), Fraction(0)
                )
                assert residual == (1 if s == 0 else 0)


def test_inverse_matrix_identity():
    # the theorem on the oracle route alone: the Gauss-Jordan inverse is
    # (y_{a+b}) for y its row 0, and it is the inverse of M
    for spec in (C3, C4, GroupSpec((2, 2))):
        rho = random_specialization(spec, seed=7)
        m = cayley_matrix(spec, rho)
        inv = gauss_jordan_inverse(m)
        add = add_table(spec)
        n = spec.order
        for a in range(n):
            for b in range(n):
                assert inv[a][b] == inv[0][add[a][b]]
                entry = sum((m[a][r] * inv[r][b] for r in range(n)), Fraction(0))
                assert entry == (1 if a == b else 0)


def test_determinant_polynomial_matches_bareiss():
    # the symbolic determinant evaluated at random points equals the
    # fraction-free elimination value of the specialized matrix
    from cayley_immanants.immanants import determinant

    for spec in (C3, C4, GroupSpec((2, 2)), C5):
        det_poly = determinant(spec)
        for seed in range(3):
            rho = random_specialization(spec, seed)
            assert det_poly.evaluate(rho) == specialized_det(spec, rho)


def test_f1_equals_det_for_odd_order():
    for spec in (C3, C5, C7, GroupSpec((3, 3))):
        for seed in (1, 2):
            rho = random_specialization(spec, seed)
            assert F1(spec, rho) == specialized_det(spec, rho)


def test_f1_c2_is_twice_x0_squared():
    rho = RationalSpecialization(C2, [3, 2])
    assert F1(C2, rho) == 2 * 9
    assert F1(C2, rho) != specialized_det(C2, rho)


def test_t12_equals_t2_for_odd_order():
    for spec in (C3, C5, C7):
        for seed in (1, 2):
            rho = random_specialization(spec, seed)
            assert T12(spec, rho) == T2(spec, rho)


def test_t12_t2_differ_for_even_order_generically():
    rho = random_specialization(C4, seed=3)
    assert T12(C4, rho) != T2(C4, rho)


def test_gamma_vanishes_on_repeated_indices():
    for spec in (C4, C5, C6):
        rho = random_specialization(spec, seed=9)
        y = inverse_profile(spec, rho).y
        n = spec.order
        for i in range(n):
            for k in range(n):
                assert gamma_expression(spec, y, i, i, k) == 0
                assert gamma_expression(spec, y, i, k, i) == 0
                assert gamma_expression(spec, y, k, i, i) == 0


def test_gamma_symmetric():
    rho = random_specialization(C5, seed=2)
    y = inverse_profile(C5, rho).y
    for i, j, k in itertools.combinations(range(5), 3):
        vals = {
            gamma_expression(C5, y, *perm)
            for perm in itertools.permutations((i, j, k))
        }
        assert len(vals) == 1


def test_jacobi_check_passes():
    for spec in (C3, C4, C5, C6, GroupSpec((2, 2))):
        for seed in range(2):
            report = jacobi_check(spec, random_specialization(spec, seed))  # raises on a miss
            n = spec.order
            assert report.checked == n + math.comb(n, 2) + math.comb(n, 3)


def test_lemma43_scalars_odd_groups():
    for spec in (C3, C5):
        for seed in range(2):
            rho = random_specialization(spec, seed)
            c_val, s_val, b1, b2, b3, b4, b5 = lemma43_scalars(spec, rho)
            assert b2 == s_val
            assert b1 == c_val
            assert (b3, b4, b5) == (spec.order * s_val, s_val, s_val)


def test_lemma43_refuses_even_order():
    rho = random_specialization(C4, seed=1)
    with pytest.raises(ValueError):
        lemma43_scalars(C4, rho)


def test_reduction_check_c6_and_c7():
    twin7 = twin_difference(C7)
    assert twin7.support_size == 0
    for seed in range(2):
        rho = random_specialization(C7, seed)
        reduction_check(C7, rho, twin=twin7)  # raises unless both sides agree
        assert twin7.evaluate(rho) == 0

    twin6 = twin_difference(C6)
    saw_nonzero = False
    for seed in range(3):
        rho = random_specialization(C6, seed)
        reduction_check(C6, rho, twin=twin6)
        saw_nonzero = saw_nonzero or twin6.evaluate(rho) != 0
    assert saw_nonzero


def test_reduction_check_rejects_small_groups():
    with pytest.raises(ValueError):
        reduction_check(C5, random_specialization(C5, seed=1), GroupPolynomial.from_terms(C5, {}))


def test_identity_check_error_fields():
    err = IdentityCheckError("B2 = S", Fraction(1), Fraction(2))
    assert err.equation == "B2 = S"
    assert "B2 = S" in str(err)


# --- the shared minor table against the per-call routes it replaced -------


def oracle_minor(spec, rho, removed):
    """A fresh exact_det of the principal submatrix, no table involved."""
    m = cayley_matrix(spec, rho)
    keep = [i for i in range(spec.order) if i not in removed]
    return exact_det([[m[r][c] for c in keep] for r in keep])


def oracle_sums(spec, rho):
    """F1, T2 and T12 from one fresh determinant per term, as their definitions read."""
    m = cayley_matrix(spec, rho)
    n = spec.order
    f1 = sum((m[i][i] * oracle_minor(spec, rho, {i}) for i in range(n)), Fraction(0))
    t2 = sum(
        (m[i][j] * m[j][i] * oracle_minor(spec, rho, {i, j})
         for i, j in itertools.combinations(range(n), 2)),
        Fraction(0),
    )
    t12 = sum(
        (m[i][i] * m[j][k] * m[k][j] * oracle_minor(spec, rho, {i, j, k})
         for j, k in itertools.combinations(range(n), 2)
         for i in range(n) if i not in (j, k)),
        Fraction(0),
    )
    return f1, t2, t12


def oracle_jacobi(spec, rho):
    """(checked, violations): every 1-, 2-, 3-subset minor against its y form."""
    n = spec.order
    y = oracle_y(spec, rho)
    delta = oracle_minor(spec, rho, set())
    add, dbl = add_table(spec), double_table(spec)
    checked, violations = 0, []
    subsets = [(i,) for i in range(n)]
    subsets += list(itertools.combinations(range(n), 2))
    subsets += list(itertools.combinations(range(n), 3))
    for subset in subsets:
        if len(subset) == 1:
            (i,) = subset
            rhs = delta * y[dbl[i]]
        elif len(subset) == 2:
            i, j = subset
            rhs = delta * (y[dbl[i]] * y[dbl[j]] - y[add[i][j]] ** 2)
        else:
            rhs = delta * gamma_expression(spec, y, *subset)
        lhs = oracle_minor(spec, rho, set(subset))
        checked += 1
        if lhs != rhs:
            violations.append((subset, lhs, rhs))
    return checked, violations


def oracle_scalars(spec, rho):
    """C, S and B1..B5 summed in Fraction arithmetic, term by term."""
    n = spec.order
    add, dbl, negs = add_table(spec), double_table(spec), neg_table(spec)
    x = rho.values
    y = oracle_y(spec, rho)
    c_val = sum(
        (x[s] ** 2 * y[t] * y[add[dbl[s]][negs[t]]] for s in range(n) for t in range(n)),
        Fraction(0),
    )
    s_val = sum((x[s] ** 2 * y[s] ** 2 for s in range(n)), Fraction(0))
    b = [Fraction(0)] * 5
    for i, j, k in itertools.product(range(n), repeat=3):
        w = x[dbl[i]] * x[add[j][k]] ** 2
        y2i, y2j, y2k = y[dbl[i]], y[dbl[j]], y[dbl[k]]
        yij, yik, yjk = y[add[i][j]], y[add[i][k]], y[add[j][k]]
        b[0] += w * y2i * y2j * y2k
        b[1] += w * yij * yik * yjk
        b[2] += w * y2i * yjk**2
        b[3] += w * y2j * yik**2
        b[4] += w * y2k * yij**2
    return (c_val, s_val, *b)


def _fraction_specialization(spec, seed):
    """Nonsingular values with denominators up to 9, so clearing is exercised."""
    rng = random.Random(seed)
    while True:
        values = tuple(
            Fraction(rng.randint(1, 32), rng.randint(1, 9)) for _ in range(spec.order)
        )
        rho = RationalSpecialization(spec, values, seed)
        if oracle_minor(spec, rho, set()) != 0:
            return rho


_TABLE_CASES = {
    "c3": (C3, random_specialization(C3, 1)),
    "c5": (C5, random_specialization(C5, 2)),
    "c7": (C7, random_specialization(C7, 3)),
    "c2xc4": (GroupSpec((2, 4)), random_specialization(GroupSpec((2, 4)), 4)),
    "c5-fractions": (C5, _fraction_specialization(C5, 5)),
}


@pytest.mark.parametrize("spec, rho", _TABLE_CASES.values(), ids=_TABLE_CASES.keys())
def test_minor_table_matches_fresh_determinants(spec, rho):
    minors._minor_table.cache_clear()
    assert specialized_det(spec, rho) == oracle_minor(spec, rho, set())
    assert (F1(spec, rho), T2(spec, rho), T12(spec, rho)) == oracle_sums(spec, rho)
    checked, violations = oracle_jacobi(spec, rho)
    assert violations == []
    assert jacobi_check(spec, rho) == JacobiReport(checked=checked)
    # every minor of the table's integer matrix N = scale * M, read back
    table = minors._minor_table(spec, rho)
    n = spec.order
    assert len(table.dets) == 1 + n + math.comb(n, 2) + math.comb(n, 3)
    for removed, det in table.dets.items():
        kept = n - len(removed)
        assert det == oracle_minor(spec, rho, set(removed)) * table.scale**kept
    if any(v.denominator != 1 for v in rho.values):
        assert table.scale > 1


_ODD_CASES = {name: case for name, case in _TABLE_CASES.items() if case[0].order % 2}


@pytest.mark.parametrize("spec, rho", _ODD_CASES.values(), ids=_ODD_CASES.keys())
def test_integer_scalar_sums_match_fraction_loop(spec, rho):
    minors._minor_table.cache_clear()
    assert lemma43_scalars(spec, rho) == oracle_scalars(spec, rho)


def test_specializations_with_one_seed_never_share_a_table():
    # same seed, different --range: different values, so different minors
    minors._minor_table.cache_clear()
    narrow = random_specialization(C5, seed=3, value_range=8)
    wide = random_specialization(C5, seed=3, value_range=64)
    assert narrow.seed == wide.seed and narrow.values != wide.values
    for rho in (narrow, wide, narrow):
        jacobi_check(C5, rho)  # raises on a differing minor
        assert (F1(C5, rho), T2(C5, rho), T12(C5, rho)) == oracle_sums(C5, rho)
    assert minors._minor_table(C5, narrow) is not minors._minor_table(C5, wide)
    for rho in (narrow, wide):
        table = minors._minor_table(C5, rho)
        for removed, det in table.dets.items():
            assert det == oracle_minor(C5, rho, set(removed)) * table.scale ** (5 - len(removed))


@st.composite
def _tree_cases(draw):
    """(rows, depth): small integer matrices, many with zero pivots on the way."""
    n = draw(st.integers(0, 8))
    rows = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n)]
    if n and draw(st.booleans()):
        for i in range(n):
            rows[i][i] = 0
    if n >= 2 and draw(st.booleans()):
        # row 1 a multiple of row 0 on the first k columns: the leading
        # k x k block is singular
        k = draw(st.integers(2, n))
        factor = draw(st.integers(-2, 2))
        rows[1][:k] = [factor * v for v in rows[0][:k]]
    return rows, draw(st.integers(0, 3))


@settings(max_examples=300, deadline=None)
@given(_tree_cases())
def test_minor_tree_matches_bareiss_on_every_principal_submatrix(case):
    rows, depth = case
    n = len(rows)
    dets = minors._principal_minors(rows, depth)
    subsets = [s for k in range(depth + 1) for s in itertools.combinations(range(n), k)]
    assert sorted(dets) == sorted(subsets)
    for removed in subsets:
        keep = [i for i in range(n) if i not in removed]
        assert dets[removed] == bareiss_det([[rows[r][c] for c in keep] for r in keep])


def test_minor_tree_falls_back_below_a_zero_pivot():
    # a zero diagonal: every pivot of the tree's first column is 0
    rows = [[0 if r == c else r + 2 * c + 1 for c in range(5)] for r in range(5)]
    dets = minors._principal_minors(rows, 2)
    for removed, det in dets.items():
        keep = [i for i in range(5) if i not in removed]
        assert det == leibniz_det([[rows[r][c] for c in keep] for r in keep])


# --- the certified inverse profile ------------------------------------------

_INVERSE_GROUPS = (
    "c2", "c3", "c4", "c5", "c6", "c7", "c8", "c2xc2", "c2xc4", "c9", "c3xc3",
)


@pytest.mark.parametrize("name", _INVERSE_GROUPS)
def test_inverse_profile_matches_gauss_jordan(name):
    spec = parse_group(name)
    minors._minor_table.cache_clear()
    points = (random_specialization(spec, 11), _fraction_specialization(spec, 12))
    assert any(v.denominator != 1 for v in points[1].values)
    for rho in points:
        profile = inverse_profile(spec, rho)
        assert profile.y == oracle_y(spec, rho)
        assert profile.delta == exact_det(cayley_matrix(spec, rho))


@pytest.fixture
def corrupt_y1(monkeypatch):
    """One Cramer numerator, Y_1, comes out one too large from the solve.

    Only the Cramer solution goes through `bareiss_solve`, so every minor
    stays true.
    """
    true_solve = minors.bareiss_solve

    def corrupted(rows, column):
        ys, det = true_solve(rows, column)
        return (ys[0], ys[1] + 1, *ys[2:]), det

    monkeypatch.setattr(minors, "bareiss_solve", corrupted)
    minors._minor_table.cache_clear()
    yield
    minors._minor_table.cache_clear()


_CONV_EQUATION = r"sum_r x_r y_\(r\+s\) = \[s = 0\] at s="


@pytest.mark.parametrize("read", [inverse_profile, jacobi_check, lemma43_scalars])
def test_every_profile_read_checks_the_residual(corrupt_y1, read):
    rho = random_specialization(C5, seed=1)
    for _ in range(2):  # a failed profile is not cached: the next read fails too
        with pytest.raises(IdentityCheckError, match=_CONV_EQUATION):
            read(C5, rho)


def test_minors_command_fails_on_a_corrupted_inverse(corrupt_y1, capsys):
    code = main(["minors", "--group", "c5", "--seeds", "2", "--checks", "conv,jacobi,scalars"])
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert code == 1
    for name in ("conv", "jacobi", "scalars"):
        assert checks[name]["status"] == "fail", name
        witness = checks[name]["counterexample"]
        assert witness["seed"] == 1
        assert witness["equation"].startswith("sum_r x_r y_(r+s) = [s = 0] at s=")
        assert witness["lhs"] != witness["rhs"]


def _run_cli(capsys, *argv):
    code = main(list(argv))
    return code, json.loads(capsys.readouterr().out)


@pytest.fixture
def corrupt_minor_1(monkeypatch):
    """The table's integer minor det N(1|1) comes out one too large; delta,
    the Cramer solves and so the inverse profile stay true."""
    true_minors = minors._principal_minors

    def corrupted(rows, depth):
        dets = true_minors(rows, depth)
        dets[(1,)] += 1
        return dets

    monkeypatch.setattr(minors, "_principal_minors", corrupted)
    minors._minor_table.cache_clear()
    yield
    minors._minor_table.cache_clear()


def test_jacobi_check_fails_on_a_corrupted_minor(corrupt_minor_1, capsys):
    rho = random_specialization(C5, seed=1)
    inverse_profile(C5, rho)  # the profile still certifies
    with pytest.raises(IdentityCheckError, match=r"^complementary minor \[1\]: "):
        jacobi_check(C5, rho)

    code, doc = _run_cli(capsys, "minors", "--group", "c5", "--seeds", "2",
                         "--checks", "conv,jacobi")
    assert code == 1
    assert doc["checks"]["conv"] == {"status": "pass", "counterexample": None}
    witness = doc["checks"]["jacobi"]["counterexample"]
    assert doc["checks"]["jacobi"]["status"] == "fail"
    assert (witness["seed"], witness["equation"]) == (1, "complementary minor [1]")
    assert witness["lhs"] != witness["rhs"]

    code, doc = _run_cli(capsys, "verify", "--suite", "jacobi", "--groups", "c5")
    assert code == 1
    (report,) = doc["reports"]
    assert report["status"] == "fail"
    assert report["witness"].startswith("complementary minor [1]: ")
    assert report["witness"].endswith(" at seed 1")


_REDUCTION = "twin = F1 - det + 2*(T12 - T2)"


def test_reduction_check_fails_on_a_twin_with_one_coefficient_off(monkeypatch, capsys):
    from cayley_immanants import verify

    def twin_off_by_one(spec):
        terms = dict(twin_difference(spec).terms)
        x0_power = (spec.order,) + (0,) * (spec.order - 1)
        terms[x0_power] = terms.get(x0_power, 0) + 1
        return GroupPolynomial.from_terms(spec, terms)

    rho = random_specialization(C6, seed=1)
    with pytest.raises(IdentityCheckError, match=re.escape(_REDUCTION)):
        reduction_check(C6, rho, twin=twin_off_by_one(C6))

    monkeypatch.setattr(verify, "twin_difference", twin_off_by_one)
    code, doc = _run_cli(capsys, "minors", "--group", "c6", "--seeds", "2",
                         "--checks", "reduction")
    assert code == 1
    witness = doc["checks"]["reduction"]["counterexample"]
    assert doc["checks"]["reduction"]["status"] == "fail"
    assert (witness["seed"], witness["equation"]) == (1, _REDUCTION)
    assert witness["lhs"] != witness["rhs"]

    code, doc = _run_cli(capsys, "verify", "--suite", "scalars", "--groups", "c6")
    assert code == 1
    by_theorem = {r["theorem"]: r for r in doc["reports"]}
    assert by_theorem["odd-order-minor-scalars"]["status"] == "skipped"
    reduction = by_theorem["principal-minor-reduction"]
    assert reduction["status"] == "fail"
    assert reduction["witness"].startswith(_REDUCTION + ": ")


def _assert_scalars_fail_on(monkeypatch, capsys, name, equation):
    # only minors' T2 or T12 is off: lemma43_scalars reads it, verify's t2t12
    # check does not
    true_value = getattr(minors, name)
    monkeypatch.setattr(minors, name, lambda spec, rho: true_value(spec, rho) + 1)
    with pytest.raises(IdentityCheckError, match=re.escape(equation)):
        lemma43_scalars(C5, random_specialization(C5, seed=1))

    code, doc = _run_cli(capsys, "minors", "--group", "c5", "--seeds", "2",
                         "--checks", "scalars")
    assert code == 1
    witness = doc["checks"]["scalars"]["counterexample"]
    assert (witness["seed"], witness["equation"]) == (1, equation)
    assert witness["lhs"] != witness["rhs"]

    code, doc = _run_cli(capsys, "verify", "--suite", "scalars", "--groups", "c5")
    assert code == 1
    by_theorem = {r["theorem"]: r for r in doc["reports"]}
    assert by_theorem["principal-minor-reduction"]["status"] == "skipped"
    scalars = by_theorem["odd-order-minor-scalars"]
    assert scalars["status"] == "fail"
    assert scalars["witness"].startswith(equation + ": ")


def test_lemma43_scalars_fail_on_a_wrong_t2(monkeypatch, capsys):
    _assert_scalars_fail_on(monkeypatch, capsys, "T2", "2*T2 = delta*(C - n*S)")


def test_lemma43_scalars_fail_on_a_wrong_t12(monkeypatch, capsys):
    _assert_scalars_fail_on(monkeypatch, capsys, "T12", "2*T12 = delta*(C - n*S)")


# The counterexamples these faults gave when every identity was compared in
# Fraction arithmetic; the integer comparisons must name the same equation
# with the same two sides.
_PINNED_WITNESSES = {
    "jacobi": {"seed": 1, "equation": "complementary minor [1]",
               "lhs": "24071", "rhs": "24070"},
    "conv": {"seed": 1, "equation": "sum_r x_r y_(r+s) = [s = 0] at s=0",
             "lhs": "22765516/22765511", "rhs": "1"},
    "scalars": {"seed": 1, "equation": "2*T2 = delta*(C - n*S)",
                "lhs": "-116568272", "rhs": "-116568274"},
    "reduction": {"seed": 1, "equation": _REDUCTION,
                  "lhs": "-9427536051", "rhs": "-9428067492"},
}


def _witness(capsys, group, check):
    code, doc = _run_cli(capsys, "minors", "--group", group, "--seeds", "2", "--checks", check)
    assert code == 1
    return doc["checks"][check]["counterexample"]


def test_integer_checks_give_the_pinned_witness_of_a_corrupted_minor(corrupt_minor_1, capsys):
    assert _witness(capsys, "c5", "jacobi") == _PINNED_WITNESSES["jacobi"]


def test_integer_checks_give_the_pinned_witness_of_a_corrupted_inverse(corrupt_y1, capsys):
    assert _witness(capsys, "c5", "conv") == _PINNED_WITNESSES["conv"]


def test_integer_checks_give_the_pinned_witness_of_a_wrong_t2(monkeypatch, capsys):
    true_t2 = minors.T2
    monkeypatch.setattr(minors, "T2", lambda spec, rho: true_t2(spec, rho) + 1)
    assert _witness(capsys, "c5", "scalars") == _PINNED_WITNESSES["scalars"]


def test_integer_checks_give_the_pinned_witness_of_a_wrong_twin(monkeypatch, capsys):
    from cayley_immanants import verify

    def twin_off_by_one(spec):
        terms = dict(twin_difference(spec).terms)
        x0_power = (spec.order,) + (0,) * (spec.order - 1)
        terms[x0_power] = terms.get(x0_power, 0) + 1
        return GroupPolynomial.from_terms(spec, terms)

    monkeypatch.setattr(verify, "twin_difference", twin_off_by_one)
    assert _witness(capsys, "c6", "reduction") == _PINNED_WITNESSES["reduction"]


# --- Lemma 4.3: B4 = S is implied by B5 = S ----------------------------------


@pytest.mark.parametrize("spec", [C3, C5, C7], ids=["c3", "c5", "c7"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_b4_and_b5_sums_agree_for_any_x_and_y(spec, data):
    # swapping j and k maps each B4 term w*y_2j*y_(i+k)^2 to the B5 term
    # w*y_2k*y_(i+j)^2, and w = x_2i*x_(j+k)^2 is symmetric in j and k, so
    # B4 = B5 holds for every x and y and `B4 = S` can only fail with `B5 = S`
    n = spec.order
    vector = st.lists(st.integers(-50, 50), min_size=n, max_size=n)
    x, y = data.draw(vector), data.draw(vector)
    add, dbl = add_table(spec), double_table(spec)
    b4 = b5 = 0
    for i, j, k in itertools.product(range(n), repeat=3):
        w = x[dbl[i]] * x[add[j][k]] ** 2
        b4 += w * y[dbl[j]] * y[add[i][k]] ** 2
        b5 += w * y[dbl[k]] * y[add[i][j]] ** 2
    assert b4 == b5


def test_minor_routes_refuse_a_specialization_of_another_group():
    # a c4 point read as a c2xc2 one, or a c7 point read at c5, would
    # compute on another matrix
    c4_point = random_specialization(C4, 1)
    c7_point = random_specialization(GroupSpec((7,)), 1)
    for spec, rho in ((GroupSpec((2, 2)), c4_point), (C5, c7_point)):
        for route in (specialized_det, inverse_profile, F1):
            with pytest.raises(ValueError, match="specialization is for a different group"):
                route(spec, rho)
