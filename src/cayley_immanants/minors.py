"""Exact verification of the inverse/minor identities, in integers.

The specialized Cayley matrix is cleared once: M = N / scale with N an
integer matrix (every row holds the same values x_g, so one common
denominator serves the whole matrix).  Every determinant is a fraction-free
elimination (Bareiss, Math. Comp. 1968) on N.  The convolution, Jacobi and
Lemma 4.3 identities are compared as integer equations, and a `Fraction` is
built only for a return value or for the two sides of a failure; the
reduction compares the returned values of the twin, F1, det, T2 and T12,
each one integer divided once by scale**n.

The principal minors come from one elimination tree per specialization.
The tree decides the indices in order, each a pivot or left out, with at
most three left out.  After pivots P, every remaining entry of the Bareiss
matrix is the bordered minor det N[P+r, P+c] (Sylvester's identity), so
leaving an index out only drops its row and column, and minors whose
left-out sets share a prefix share the eliminations of that prefix.  A zero
pivot would be divided by at the next step, so the minors below it go to
`bareiss_det`, which exchanges rows.

The inverse's generating values are y = Y / D with D = det N and Y the
Cramer numerators of M y = e_0, all from one elimination (`bareiss_solve`).
The convolution residual sum_r x_r y_(r+s) = [s = 0] certifies them; it is
the matrix identity M*Y = I for Y = (y_(a+b)), so it also proves the inverse
group-Hankel.  The complementary-minor identity det A(S|S) = delta * form(y)
is compared as det N(S|S) * D**(|S|-1) * scale**|S| = form(Y), the form
being homogeneous of degree |S|.  F1, T2 and T12 are integer sums over
scale**n, and the Lemma 4.3 sums run on X = scale*x and Y over the common
denominator scale * D.
Identity checks have one failure convention: a check raises
IdentityCheckError(equation, lhs, rhs) at its first broken equation, with
both sides as the exact rationals the equation names, and none returns a
failure.

Each specialization (spec, rho) gets one table, kept in a small LRU cache:
N, its principal minors, the certified Cramer solution and the sums F1, T2
and T12, each computed the first time it is read.  The Jacobi check, the
Lemma 4.3 scalars and the reduction all read that table, so one tree and
one Cramer elimination serve every check at a seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial

from .errors import IdentityCheckError
from .groups import GroupSpec, add_table, double_table, neg_table
from .polynomials import GroupPolynomial, RationalSpecialization, _clear_denominators


def _eliminate(m: list[list[int]]) -> int:
    """Fraction-free elimination of m in place; the sign of its row exchanges.

    m is n x n, or n x (n+1) with a right-hand column that the row operations
    carry along.  Row k ends as row k of the echelon form U, and the sign
    times U[n-1][n-1] is the determinant.  0 if a column has no pivot.
    """
    n = len(m)
    width = len(m[0])
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
            for j in range(k + 1, width):
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign


def bareiss_det(rows: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix; empty matrix gives 1."""
    if not rows:
        return 1
    m = [list(map(int, row)) for row in rows]
    return _eliminate(m) * m[-1][-1]


def bareiss_solve(rows: list[list[int]], column: list[int]) -> tuple[tuple[int, ...], int]:
    """(Y, D) for the integer system rows * y = column: D = det(rows) and Y = D * y.

    Y_k is the k-th Cramer numerator, the determinant of rows with column k
    replaced by column.  One elimination of rows augmented with column gives
    U and the carried column c, then Y_k = (D * c_k - sum_(j>k) U_kj * Y_j) /
    U_kk, exact since Y = adj(rows) * column.  ValueError if D = 0.
    """
    n = len(rows)
    m = [[*map(int, row), int(b)] for row, b in zip(rows, column)]
    det = _eliminate(m) * m[-1][n - 1]
    if det == 0:
        raise ValueError("matrix is singular")
    ys = [0] * n
    for k in reversed(range(n)):
        row = m[k]
        ys[k] = (det * row[n] - sum(row[j] * ys[j] for j in range(k + 1, n))) // row[k]
    return tuple(ys), det


def _principal_minors(rows: list[list[int]], depth: int) -> dict[tuple[int, ...], int]:
    """det of every principal submatrix that leaves out at most depth indices.

    Keyed by the sorted tuple of left-out indices, so the keys are exactly
    the subsets of range(n) with at most depth members.  One walk of the
    module docstring's tree: at index i, rows and columns off, off+1, ... of a
    hold the Bareiss matrix of the undecided indices i..n-1 after the
    node's pivots, and prev is its last pivot, det N over those pivots.
    Leaving i out moves off on; pivoting on i eliminates into a new matrix.
    """
    n = len(rows)
    dets: dict[tuple[int, ...], int] = {}

    def walk(i, a, off, prev, removed):
        if i == n:
            dets[removed] = prev
            return
        if len(removed) < depth:
            walk(i + 1, a, off + 1, prev, removed + (i,))
        top = a[off]
        pivot = top[off]
        if pivot == 0 and i + 1 < n:
            for size in range(depth - len(removed) + 1):
                for extra in itertools.combinations(range(i + 1, n), size):
                    left_out = removed + extra
                    keep = [j for j in range(n) if j not in left_out]
                    dets[left_out] = bareiss_det([[rows[r][c] for c in keep] for r in keep])
            return
        # plain index loops: on CPython 3.11 they beat a comprehension per row
        m = len(a)
        eliminated = []
        for r in range(off + 1, m):
            row = a[r]
            factor = row[off]
            new = [0] * (m - off - 1)
            for c in range(off + 1, m):
                new[c - off - 1] = (row[c] * pivot - factor * top[c]) // prev
            eliminated.append(new)
        walk(i + 1, eliminated, 0, pivot, removed)

    walk(0, rows, 0, 1, ())
    return dets


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
    product of k entries of M is one of N over scale**k.  The first read of
    a minor fills `dets`, det N for every left-out set of at most three
    indices, from one elimination tree; the Cramer solution and the sums F1,
    T2 and T12 are computed once each.
    """

    def __init__(self, spec: GroupSpec, rho: RationalSpecialization) -> None:
        if rho.group != spec:
            raise ValueError("specialization is for a different group")
        self.spec = spec
        self.x, self.scale = _clear_denominators(rho.values)
        add = add_table(spec)
        n = spec.order
        self.ints = [[self.x[add[a][b]] for b in range(n)] for a in range(n)]

    @cached_property
    def dets(self) -> dict[tuple[int, ...], int]:
        return _principal_minors(self.ints, 3)

    def minor(self, removed: tuple[int, ...]) -> Fraction:
        """det A(removed|removed); removed is sorted, () gives delta."""
        return Fraction(self.dets[removed], self.scale ** (self.spec.order - len(removed)))

    @cached_property
    def cramer(self) -> tuple[tuple[int, ...], int]:
        """(Y, D): y = Y / D solves M y = e_0 and D = det N, certified.

        M y = e_0 is the convolution system sum_r x_r y_(r+s) = [s = 0] with
        its equations reordered (row a of M is equation s = -a), so Y is the
        Cramer numerators of N y = scale*e_0.  The residuals are the entries
        of M Y - I: (M Y)[a][c] = sum_r x_r y_(r+c-a); cleared of scale * D
        they are integers.
        """
        n = self.spec.order
        det_n = self.dets[()]
        if det_n == 0:
            raise ValueError("specialized matrix is singular")
        ys, _ = bareiss_solve(self.ints, [self.scale] + [0] * (n - 1))
        add = add_table(self.spec)
        x = self.x
        unit = self.scale * det_n
        for s in range(n):
            residual = sum(x[r] * ys[add[r][s]] for r in range(n))
            if residual != (unit if s == 0 else 0):
                raise IdentityCheckError(
                    f"sum_r x_r y_(r+s) = [s = 0] at s={s}",
                    Fraction(residual, unit),
                    1 if s == 0 else 0,
                )
        return ys, det_n

    @cached_property
    def profile(self) -> InverseProfile:
        ys, det_n = self.cramer
        return InverseProfile(
            y=tuple(Fraction(v, det_n) for v in ys),
            delta=Fraction(det_n, self.scale ** self.spec.order),
        )

    @cached_property
    def f1(self) -> Fraction:
        m, dets = self.ints, self.dets
        total = sum(m[i][i] * dets[(i,)] for i in range(len(m)))
        return Fraction(total, self.scale ** len(m))

    @cached_property
    def t2(self) -> Fraction:
        m, dets = self.ints, self.dets
        total = sum(
            m[i][j] * m[j][i] * dets[(i, j)]
            for i, j in itertools.combinations(range(len(m)), 2)
        )
        return Fraction(total, self.scale ** len(m))

    @cached_property
    def t12(self) -> Fraction:
        # each sorted triple a<b<c collects its three (i | j<k) splits
        m, dets = self.ints, self.dets
        total = 0
        for a, b, c in itertools.combinations(range(len(m)), 3):
            weight = (
                m[a][a] * m[b][c] * m[c][b]
                + m[b][b] * m[a][c] * m[c][a]
                + m[c][c] * m[a][b] * m[b][a]
            )
            if weight:
                total += weight * dets[(a, b, c)]
        return Fraction(total, self.scale ** len(m))


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
    spec: GroupSpec, y: tuple[int | Fraction, ...], i: int, j: int, k: int
) -> int | Fraction:
    """The symmetric five-term minor expression in the y values (or in Y = D*y).

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
    With A = N / scale and y = Y / D each comparison is the integer equation
    det N(S|S) * D**(|S|-1) * scale**|S| = form(Y).
    """
    n = spec.order
    table = _minor_table(spec, rho)
    ys, det_n = table.cramer
    dets = table.dets
    add = add_table(spec)
    dbl = double_table(spec)
    # det A(S|S) / delta as a form in y, one per size |S| = 1, 2, 3
    y_forms = (
        lambda y, i: y[dbl[i]],
        lambda y, i, j: y[dbl[i]] * y[dbl[j]] - y[add[i][j]] ** 2,
        partial(gamma_expression, spec),
    )
    checked = 0
    for size, form in enumerate(y_forms, start=1):
        cleared = det_n ** (size - 1) * table.scale**size
        for subset in itertools.combinations(range(n), size):
            if dets[subset] * cleared != form(ys, *subset):
                profile = table.profile
                raise IdentityCheckError(
                    f"complementary minor {list(subset)}",
                    table.minor(subset),
                    profile.delta * form(profile.y, *subset),
                )
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
    table = _minor_table(spec, rho)
    # The sums run on the integers X = scale*x and Y = D*y, so C and S are
    # sums over u**2 and B1..B5 sums over u**3, with u = scale*D.
    y, det_n = table.cramer
    x, scale = table.x, table.scale
    u = scale * det_n
    c = sum(x[s] ** 2 * y[t] * y[add[dbl[s]][negs[t]]] for s in range(n) for t in range(n))
    s_sum = sum(x[s] ** 2 * y[s] ** 2 for s in range(n))

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

    t2 = T2(spec, rho)
    t12 = T12(spec, rho)
    # delta*(C - n*S) with delta = D / scale**n
    reduced = (det_n * (c - n * s_sum), scale**n * u**2)
    # (equation, lhs, rhs), each side a (numerator, denominator) pair
    checks = [
        ("2*T2 = delta*(C - n*S)", (2 * t2.numerator, t2.denominator), reduced),
        ("B1 = C", (b1, u**3), (c, u**2)),
        ("B2 = S", (b2, u**3), (s_sum, u**2)),
        ("B3 = n*S", (b3, u**3), (n * s_sum, u**2)),
        ("B4 = S", (b4, u**3), (s_sum, u**2)),
        ("B5 = S", (b5, u**3), (s_sum, u**2)),
        ("2*T12 = delta*(C - n*S)", (2 * t12.numerator, t12.denominator), reduced),
    ]
    for equation, (lhs, lhs_den), (rhs, rhs_den) in checks:
        if lhs * rhs_den != rhs * lhs_den:
            raise IdentityCheckError(equation, Fraction(lhs, lhs_den), Fraction(rhs, rhs_den))
    return (
        Fraction(c, u**2),
        Fraction(s_sum, u**2),
        *(Fraction(b, u**3) for b in (b1, b2, b3, b4, b5)),
    )


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
