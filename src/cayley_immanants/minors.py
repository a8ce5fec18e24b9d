"""Exact-rational verification of the inverse/minor identities.

Everything here is exact: every determinant is a fraction-free Bareiss
elimination on one integer matrix, the inverse's generating values y come
from Cramer determinants on that same matrix, and the convolution residual
sum_r x_r y_(r+s) = [s = 0] certifies them.  That residual is the matrix
identity M*Y = I for Y = (y_(a+b)), so it also proves the inverse
group-Hankel.  Identity checks compare rationals for equality, never within
a tolerance, and have one failure convention: a check raises
IdentityCheckError(equation, lhs, rhs) at its first broken equation, and
none returns a failure.

Each specialization (spec, rho) gets one table, kept in a small LRU cache:
the Cayley matrix with its denominators cleared in integers (every row holds
the same values x_g, so one common denominator serves the whole matrix),
delta, the certified inverse profile, and every principal minor the checks
read, each computed the first time it is asked for.  F1, T2, T12, the Jacobi
check, the Lemma 4.3 scalars and the reduction all read that table, so a
minor shared by several checks or seeds is eliminated once.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm

from .errors import IdentityCheckError
from .groups import GroupSpec, add_table, double_table, neg_table
from .polynomials import GroupPolynomial, RationalSpecialization


def bareiss_det(rows: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix; empty matrix gives 1."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(map(int, row)) for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i, row_k = m[i], m[k]
            factor = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def _clear_denominators(values) -> tuple[list[int], int]:
    """Integer numerators over the least common denominator of int/Fraction values.

    Anything without numerator/denominator (a float, say) is refused: its
    binary value would pass for an exact one.
    """
    try:
        mult = lcm(*(v.denominator for v in values))
        return [v.numerator * (mult // v.denominator) for v in values], mult
    except AttributeError:
        raise TypeError(f"exact arithmetic needs int or Fraction entries: {values!r}") from None


def specialized_det(spec: GroupSpec, rho: RationalSpecialization) -> Fraction:
    return _minor_table(spec, rho).minor(())


MAX_RETRIES = 16


def random_specialization(
    spec: GroupSpec, seed: int, value_range: int = 32
) -> RationalSpecialization:
    """Seeded integer specialization with a nonzero determinant.

    Values are uniform on [1, value_range]; singular draws are resampled up
    to MAX_RETRIES times (practically unreachable for value_range >= 8).
    """
    if value_range < 2:
        raise ValueError("value_range must be at least 2")
    rng = random.Random(seed)
    n = spec.order
    for _ in range(MAX_RETRIES):
        values = tuple(Fraction(rng.randint(1, value_range)) for _ in range(n))
        rho = RationalSpecialization(spec, values, seed)
        if specialized_det(spec, rho) != 0:
            return rho
    raise RuntimeError(
        f"no nonsingular specialization for {spec.name} after {MAX_RETRIES} draws"
    )


@dataclass(frozen=True)
class InverseProfile:
    """The inverse's generating values y_g and the determinant at rho."""

    y: tuple[Fraction, ...]
    delta: Fraction


class _MinorTable:
    """The exact values the minor checks read at one specialization.

    The matrix is cleared once: M = N / scale with N an integer matrix, so
    the principal minor on k kept indices is det N[keep] / scale**k, and a
    product of k entries of M is one of N over scale**k.  Each minor, keyed
    by its sorted tuple of removed indices, is eliminated the first time it
    is asked for; the sums F1, T2 and T12 and the inverse profile are
    computed once each.
    """

    def __init__(self, spec: GroupSpec, rho: RationalSpecialization) -> None:
        self.spec = spec
        self.rho = rho
        ints, self.scale = _clear_denominators(rho.values)
        add = add_table(spec)
        n = spec.order
        self.ints = [[ints[add[a][b]] for b in range(n)] for a in range(n)]
        self.minors: dict[tuple[int, ...], Fraction] = {}

    def minor(self, removed: tuple[int, ...]) -> Fraction:
        """det A(removed|removed); removed is sorted, () gives delta."""
        value = self.minors.get(removed)
        if value is None:
            keep = [i for i in range(self.spec.order) if i not in removed]
            rows = self.ints
            det = bareiss_det([[rows[r][c] for c in keep] for r in keep])
            value = self.minors[removed] = Fraction(det, self.scale ** len(keep))
        return value

    @cached_property
    def profile(self) -> InverseProfile:
        # M y = e_0 is the convolution system sum_r x_r y_(r+s) = [s = 0]
        # with its equations reordered (row a of M is equation s = -a), so
        # Cramer on N with column t := scale*e_0 gives y_t.  The residuals
        # are the entries of M Y - I: (M Y)[a][c] = sum_r x_r y_(r+c-a).
        n = self.spec.order
        delta = self.minor(())
        if delta == 0:
            raise ValueError("specialized matrix is singular")
        det_n = delta * self.scale**n
        e0 = [self.scale] + [0] * (n - 1)
        ys = tuple(
            bareiss_det([row[:t] + [e0[r]] + row[t + 1:] for r, row in enumerate(self.ints)])
            / det_n
            for t in range(n)
        )
        add = add_table(self.spec)
        x = self.rho.values
        for s in range(n):
            residual = sum(x[r] * ys[add[r][s]] for r in range(n))
            expected = 1 if s == 0 else 0
            if residual != expected:
                raise IdentityCheckError(
                    f"sum_r x_r y_(r+s) = [s = 0] at s={s}", residual, expected
                )
        return InverseProfile(y=ys, delta=delta)

    @cached_property
    def f1(self) -> Fraction:
        m = self.ints
        total = sum((m[i][i] * self.minor((i,)) for i in range(len(m))), Fraction(0))
        return total / self.scale

    @cached_property
    def t2(self) -> Fraction:
        m = self.ints
        total = Fraction(0)
        for i, j in itertools.combinations(range(len(m)), 2):
            total += m[i][j] * m[j][i] * self.minor((i, j))
        return total / self.scale**2

    @cached_property
    def t12(self) -> Fraction:
        # each sorted triple a<b<c collects its three (i | j<k) splits
        m = self.ints
        total = Fraction(0)
        for a, b, c in itertools.combinations(range(len(m)), 3):
            weight = (
                m[a][a] * m[b][c] * m[c][b]
                + m[b][b] * m[a][c] * m[c][a]
                + m[c][c] * m[a][b] * m[b][a]
            )
            if weight:
                total += weight * self.minor((a, b, c))
        return total / self.scale**3


# Bounded: one table per specialization, and the minor checks of one call
# visit the seeds in turn, every check at a seed before the next seed, so a
# call reads one table at a time however many seeds it asks for.
@lru_cache(maxsize=8)
def _minor_table(spec: GroupSpec, rho: RationalSpecialization) -> _MinorTable:
    return _MinorTable(spec, rho)


def inverse_profile(spec: GroupSpec, rho: RationalSpecialization) -> InverseProfile:
    """The inverse's generating values y and delta, certified before they are read.

    y solves M y = e_0 by Cramer on the table's integer matrix; every
    convolution residual sum_r x_r y_(r+s) - [s = 0] must then be zero, or
    IdentityCheckError names the first equation that fails.  The residuals
    are the entries of M Y - I for Y = (y_(a+b)), so a profile that is
    returned is the group-Hankel inverse.
    """
    return _minor_table(spec, rho).profile


def F1(spec: GroupSpec, rho: RationalSpecialization) -> Fraction:
    """sum_i a_ii det A(i|i) over the specialized Cayley matrix."""
    return _minor_table(spec, rho).f1


def T2(spec: GroupSpec, rho: RationalSpecialization) -> Fraction:
    """sum_{i<j} a_ij a_ji det A(i,j|i,j)."""
    return _minor_table(spec, rho).t2


def T12(spec: GroupSpec, rho: RationalSpecialization) -> Fraction:
    """sum over i not in {j,k}, j<k of a_ii a_jk a_kj det A(i,j,k|i,j,k)."""
    return _minor_table(spec, rho).t12


def gamma_expression(
    spec: GroupSpec, y: tuple[Fraction, ...], i: int, j: int, k: int
) -> Fraction:
    """The symmetric five-term minor expression in the y values.

    Adopted verbatim for every index triple; its vanishing at repeated
    indices is a checked consequence, not part of the definition.
    """
    add = add_table(spec)
    dbl = double_table(spec)
    y2i, y2j, y2k = y[dbl[i]], y[dbl[j]], y[dbl[k]]
    yij, yik, yjk = y[add[i][j]], y[add[i][k]], y[add[j][k]]
    return (
        y2i * y2j * y2k
        + 2 * yij * yik * yjk
        - y2i * yjk**2
        - y2j * yik**2
        - y2k * yij**2
    )


@dataclass(frozen=True)
class JacobiReport:
    """How many complementary-minor identities a passing check compared."""

    checked: int


def jacobi_check(spec: GroupSpec, rho: RationalSpecialization) -> JacobiReport:
    """Compare every principal minor of size n-1, n-2, n-3 with its y form.

    The subsets run by size, each size in lexicographic order; the first
    minor that differs raises IdentityCheckError naming its removed indices.
    """
    n = spec.order
    table = _minor_table(spec, rho)
    y, delta = table.profile.y, table.profile.delta
    add = add_table(spec)
    dbl = double_table(spec)
    y_forms = itertools.chain(
        (((i,), delta * y[dbl[i]]) for i in range(n)),
        (((i, j), delta * (y[dbl[i]] * y[dbl[j]] - y[add[i][j]] ** 2))
         for i, j in itertools.combinations(range(n), 2)),
        (((i, j, k), delta * gamma_expression(spec, y, i, j, k))
         for i, j, k in itertools.combinations(range(n), 3)),
    )
    checked = 0
    for subset, rhs in y_forms:
        lhs = table.minor(subset)
        if lhs != rhs:
            raise IdentityCheckError(f"complementary minor {list(subset)}", lhs, rhs)
        checked += 1
    return JacobiReport(checked=checked)


def lemma43_scalars(
    spec: GroupSpec, rho: RationalSpecialization
) -> tuple[Fraction, Fraction, Fraction, Fraction, Fraction, Fraction, Fraction]:
    """The proof scalars (C, S, B1..B5), with every intermediate identity checked.

    Requires odd group order; each B value is computed from its defining
    triple sum and compared against the reductions the convolution equations
    force.  The first broken equation raises, naming itself.
    """
    n = spec.order
    if n % 2 == 0:
        raise ValueError("the scalar identities assume odd group order")
    add = add_table(spec)
    dbl = double_table(spec)
    negs = neg_table(spec)
    profile = inverse_profile(spec, rho)
    delta = profile.delta
    # The sums run on integer numerators over the common denominators dx of
    # x and dy of y; each sum is divided by its power of dx*dy once, at the end.
    x, dx = _clear_denominators(rho.values)
    y, dy = _clear_denominators(profile.y)
    cs_den = dx**2 * dy**2
    c_val = Fraction(
        sum(x[s] ** 2 * y[t] * y[add[dbl[s]][negs[t]]] for s in range(n) for t in range(n)),
        cs_den,
    )
    s_val = Fraction(sum(x[s] ** 2 * y[s] ** 2 for s in range(n)), cs_den)

    b1 = b2 = b3 = b4 = b5 = 0
    for i in range(n):
        x2i = x[dbl[i]]
        y2i = y[dbl[i]]
        for j in range(n):
            y2j = y[dbl[j]]
            yij = y[add[i][j]]
            for k in range(n):
                w = x2i * x[add[j][k]] ** 2
                y2k = y[dbl[k]]
                yik = y[add[i][k]]
                yjk = y[add[j][k]]
                b1 += w * y2i * y2j * y2k
                b2 += w * yij * yik * yjk
                b3 += w * y2i * yjk**2
                b4 += w * y2j * yik**2
                b5 += w * y2k * yij**2
    b_den = dx**3 * dy**3
    b1, b2, b3, b4, b5 = (Fraction(b, b_den) for b in (b1, b2, b3, b4, b5))

    t2 = T2(spec, rho)
    t12 = T12(spec, rho)
    checks = [
        ("2*T2 = delta*(C - n*S)", 2 * t2, delta * (c_val - n * s_val)),
        ("B1 = C", b1, c_val),
        ("B2 = S", b2, s_val),
        ("B3 = n*S", b3, n * s_val),
        ("B4 = S", b4, s_val),
        ("B5 = S", b5, s_val),
        ("2*T12 = delta*(C - n*S)", 2 * t12, delta * (c_val - n * s_val)),
    ]
    for equation, lhs, rhs in checks:
        if lhs != rhs:
            raise IdentityCheckError(equation, lhs, rhs)
    return (c_val, s_val, b1, b2, b3, b4, b5)


def reduction_check(
    spec: GroupSpec,
    rho: RationalSpecialization,
    twin: GroupPolynomial,
) -> None:
    """Check the twin-immanant difference against F1 - det + 2(T12 - T2).

    The identity is matrix-general, so it holds for even groups too.  The
    caller computes the twin polynomial once and passes it for every seed.
    Unequal sides raise IdentityCheckError.
    """
    if spec.order < 6:
        raise ValueError("both twin shapes need group order >= 6")
    lhs = twin.evaluate(rho)
    rhs = F1(spec, rho) - specialized_det(spec, rho) + 2 * (T12(spec, rho) - T2(spec, rho))
    if lhs != rhs:
        raise IdentityCheckError("twin = F1 - det + 2*(T12 - T2)", lhs, rhs)
