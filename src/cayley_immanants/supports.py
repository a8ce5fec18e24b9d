"""Support counts and coefficient formulas that avoid full n! enumeration.

Three independent routes to determinant coefficients live here and in the
engine: the labelled zero-sum set-partition sum (the partition-lattice
formula), its multiset-level regrouping with binomial weights (same sum,
memoized across monomials), and the engine's permutation-class walks over
the orbits of the Hall support.  Tests pin all three against each other and
against a brute-force sum over all n! permutations at small orders.

The counts D and I_(n-1,1), I_(2,1^(n-2)) evaluate one representative per
orbit of `groups.affine_maps` and weight it by the orbit size: det_coeff and
the near-hook scalar are constant on those orbits.  The p-adic profile reads
the block shapes of the zero-sum partitions, which a translation changes, so
`padic_profiles` uses the orbits of `groups.automorphisms` only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from .errors import EnvelopeError
from .groups import (
    Element,
    GroupSpec,
    _prime_factorization,
    add_table,
    affine_maps,
    automorphisms,
    doubling_counts,
    elements,
    index_of,
    neg_table,
    negation_parity,
)
from .polynomials import Monomial

if TYPE_CHECKING:
    from .immanants import PermClassStats


@lru_cache(maxsize=None)
def _multiple_table(spec: GroupSpec) -> tuple[tuple[int, ...], ...]:
    """_multiple_table[a][k] = index of k * elements[a], for k = 0..n."""
    n = spec.order
    add = add_table(spec)
    rows = []
    for a in range(n):
        row = [0]
        for _ in range(n):
            row.append(add[row[-1]][a])
        rows.append(tuple(row))
    return tuple(rows)


# The largest Hall support `hall_support` materialises.  Measured: c13
# (400,024 monomials) needed 180 MB, c14 (1,432,860) needed 733 MB.
MAX_HALL_MONOMIALS = 500_000


def check_hall_envelope(spec: GroupSpec) -> None:
    """Refuse a group whose Hall support is over MAX_HALL_MONOMIALS.

    Reads the closed-form count, so the refusal costs O(n), not an
    enumeration.
    """
    p = count_P_closed(spec)
    if p > MAX_HALL_MONOMIALS:
        raise EnvelopeError(
            f"{spec.name} has {p} zero-sum monomials, above the enumeration "
            f"envelope of {MAX_HALL_MONOMIALS}"
        )


@lru_cache(maxsize=None)
def hall_support(spec: GroupSpec) -> frozenset[Monomial]:
    """All degree-n exponent vectors whose weighted element sum is zero.

    By Hall's theorem these are exactly the monomials of the permanent.
    Raises EnvelopeError, before enumerating, above MAX_HALL_MONOMIALS.
    """
    check_hall_envelope(spec)
    n = spec.order
    add = add_table(spec)
    mult = _multiple_table(spec)
    out: list[Monomial] = []
    exp = [0] * n

    def descend(pos: int, remaining: int, psum: int) -> None:
        if pos == n - 1:
            if add[psum][mult[pos][remaining]] == 0:
                exp[pos] = remaining
                out.append(tuple(exp))
            return
        for k in range(remaining, -1, -1):
            exp[pos] = k
            descend(pos + 1, remaining - k, add[psum][mult[pos][k]])
        exp[pos] = 0

    descend(0, n, 0)
    return frozenset(out)


def count_P_closed(spec: GroupSpec) -> int:
    """|Hall support| in closed form: (1/n) sum_d N_d C(2n/d - 1, n/d).

    N_d counts the elements (equally, the characters) of order d; a
    character of order d gives prod_g (1 - chi(g) t) = (1 - t^d)^(n/d).
    O(n) and enumeration-free, so it is an oracle for `hall_support`.
    """
    n = spec.order
    total = 0
    for g in elements(spec):
        d = math.lcm(*(f // math.gcd(r, f) for r, f in zip(g, spec.factors)))
        total += math.comb(2 * n // d - 1, n // d)
    if total % n:
        raise ArithmeticError(f"closed-form P sum {total} not divisible by {n}")
    return total // n


@lru_cache(maxsize=None)
def hall_orbits(
    spec: GroupSpec, relabellings=affine_maps
) -> tuple[tuple[Monomial, ...], ...]:
    """The Hall support split into orbits of `relabellings(spec)`.

    `relabellings` returns index maps g -> r[g] that form a group, by
    default `groups.affine_maps`.  Each orbit is a tuple led by its
    lexicographically least monomial, its representative; orbits come in
    the order of their representatives.
    """
    n = spec.order
    maps = relabellings(spec)
    seen: set[Monomial] = set()
    orbits = []
    for mono in sorted(hall_support(spec)):
        if mono in seen:
            continue
        orbit = {mono}
        for r in maps:
            image = [0] * n
            for g, e in enumerate(mono):
                image[r[g]] = e
            orbit.add(tuple(image))
        seen |= orbit
        orbit.discard(mono)
        orbits.append((mono, *orbit))
    return tuple(orbits)


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


@lru_cache(maxsize=None)
def _anchored_block_sum(spec: GroupSpec, counts: tuple[int, ...]) -> int:
    """labelled_det_coeff regrouped by block contents, memoized on multisets.

    The block containing one fixed copy of the smallest present element is
    chosen as a zero-sum sub-multiset; binomials count the labelled ways.
    Residual states repeat heavily across monomials, which is what makes the
    order-10 formula path affordable.
    """
    n = spec.order
    anchor = -1
    for g, c in enumerate(counts):
        if c:
            anchor = g
            break
    if anchor < 0:
        return 1
    add = add_table(spec)
    mult = _multiple_table(spec)
    kinds = [g for g in range(anchor + 1, n) if counts[g]]
    total = 0
    chosen = [0] * n

    def pick(pos: int, psum: int, size: int, ways: int) -> None:
        nonlocal total
        if pos == len(kinds):
            if psum == 0:
                residual = list(counts)
                for g in range(n):
                    residual[g] -= chosen[g]
                term = (-1) ** (size - 1) * n * math.factorial(size - 1)
                total += ways * term * _anchored_block_sum(spec, tuple(residual))
            return
        g = kinds[pos]
        for j in range(counts[g] + 1):
            chosen[g] = j
            pick(pos + 1, add[psum][mult[g][j]], size + j, ways * math.comb(counts[g], j))
        chosen[g] = 0

    for j in range(1, counts[anchor] + 1):
        chosen[anchor] = j
        pick(0, mult[anchor][j], j, math.comb(counts[anchor] - 1, j - 1))
    chosen[anchor] = 0
    return total


def det_coeff(spec: GroupSpec, mono: Monomial) -> int:
    """Coefficient of the monomial in det(M_G), by the partition formula.

    negation_parity relates the Cayley matrix to its Toeplitz companion; the
    division by the exponent factorials is guaranteed exact.
    """
    n = spec.order
    if len(mono) != n or sum(mono) != n:
        raise ValueError(f"monomial {mono!r} is not a degree-{n} exponent vector")
    num = negation_parity(spec) * _anchored_block_sum(spec, tuple(mono))
    denom = 1
    for e in mono:
        denom *= math.factorial(e)
    if num % denom:
        raise ArithmeticError(
            f"partition-formula value {num} not divisible by {denom} at {mono!r}"
        )
    return num // denom


def count_P(spec: GroupSpec) -> int:
    """Number of monomials of the permanent (the Hall support size)."""
    return len(hall_support(spec))


def count_D(spec: GroupSpec) -> int:
    """Number of monomials of the determinant.

    Every determinant monomial is a permanent monomial (same permutation
    sum, different weights), so only the Hall support is scanned, one
    representative per affine orbit.
    """
    return sum(len(o) for o in hall_orbits(spec) if det_coeff(spec, o[0]) != 0)


def near_hook_scalar_numerator(spec: GroupSpec, mono: Monomial) -> int:
    """sum_a r(a) * lambda_a - n: n times the master-formula scalar."""
    r = doubling_counts(spec)
    return sum(r[a] * e for a, e in enumerate(mono)) - spec.order


def near_hook_coeff(
    spec: GroupSpec, mono: Monomial, stats: PermClassStats
) -> tuple[int, int]:
    """Coefficients of the monomial in imm_(n-1,1) and imm_(2,1^(n-2)).

    Both are the master-formula scalar times p_m resp. d_m; the divisions
    by n must be exact or the supplied stats are inconsistent.
    """
    n = spec.order
    if len(mono) != n or sum(mono) != n:
        raise ValueError(f"monomial {mono!r} is not a degree-{n} exponent vector")
    num = near_hook_scalar_numerator(spec, mono)
    hook, hook_rem = divmod(num * stats.p_m, n)
    cohook, cohook_rem = divmod(num * stats.d_m, n)
    if hook_rem or cohook_rem:
        raise ArithmeticError(
            f"master-formula scalar {num}/{n} times class stats is not integral "
            f"at {mono!r}: p_m={stats.p_m}, d_m={stats.d_m}"
        )
    return hook, cohook


def count_I_nearhook(spec: GroupSpec) -> tuple[int, int]:
    """Support sizes of imm_(n-1,1) and imm_(2,1^(n-2)), formula path only.

    On the Hall support p_m > 0 always, so the hook count needs just the
    scalar; the cohook count additionally needs d_m, taken from the
    partition formula.  No n! sweep is involved at any order.  Both tests
    run once per affine orbit, which then counts with its size.
    """
    hook = cohook = 0
    for orbit in hall_orbits(spec):
        if near_hook_scalar_numerator(spec, orbit[0]) != 0:
            hook += len(orbit)
            if det_coeff(spec, orbit[0]) != 0:
                cohook += len(orbit)
    return hook, cohook


def _legendre(m: int, p: int) -> int:
    """v_p(m!) by Legendre's formula."""
    total = 0
    q = p
    while q <= m:
        total += m // q
        q *= p
    return total


@dataclass(frozen=True)
class ValuationProfile:
    """p-adic valuations of the partition-formula terms of one sequence."""

    p: int
    r: int
    terms: tuple[tuple[tuple[int, ...], int], ...]
    one_block_valuation: int
    strictly_minimal: bool


def padic_profile(spec: GroupSpec, sequence) -> ValuationProfile:
    """Valuation of every zero-sum-partition term, grouped by block shape.

    Only defined for groups of prime-power order and zero-sum sequences;
    strictly_minimal records whether the one-block term sits strictly below
    every multi-block term, which certifies a nonzero coefficient.
    """
    n = spec.order
    factorization = _prime_factorization(n)
    if len(factorization) != 1:
        raise ValueError(f"group order {n} is not a prime power")
    (p, r), = factorization.items()
    if len(sequence) != n:
        raise ValueError(f"sequence length {len(sequence)} != group order {n}")
    seq = tuple(index_of(spec, g) for g in sequence)
    add = add_table(spec)
    total = 0
    for s in seq:
        total = add[total][s]
    if total != 0:
        raise ValueError("sequence is not zero-sum")

    shape_val: dict[tuple[int, ...], int] = {}
    for blocks in _zero_sum_partitions(spec, seq):
        shape = tuple(sorted((len(b) for b in blocks), reverse=True))
        if shape not in shape_val:
            k = len(shape)
            shape_val[shape] = k * r + sum(_legendre(b - 1, p) for b in shape)
    one_block = r + _legendre(n - 1, p)
    if shape_val.get((n,)) != one_block:
        raise ArithmeticError(
            f"one-block valuation {shape_val.get((n,))} != r + v_p((n-1)!) = {one_block}"
        )
    strictly = all(v > one_block for shape, v in shape_val.items() if len(shape) >= 2)
    return ValuationProfile(
        p=p,
        r=r,
        terms=tuple(sorted(shape_val.items())),
        one_block_valuation=one_block,
        strictly_minimal=strictly,
    )


def padic_profiles(spec: GroupSpec) -> list[tuple[Monomial, ValuationProfile]]:
    """(monomial, padic_profile of its sequence) over the Hall support, sorted.

    The profile is computed once per orbit of `groups.automorphisms` and
    shared by the orbit: an automorphism maps zero-sum blocks to zero-sum
    blocks of the same sizes.  Translations do not, so affine orbits would
    be wrong here.
    """
    rows = []
    for orbit in hall_orbits(spec, automorphisms):
        profile = padic_profile(spec, monomial_sequence(spec, orbit[0]))
        rows.extend((mono, profile) for mono in orbit)
    rows.sort(key=lambda row: row[0])
    return rows


def sorted_hall_support(spec: GroupSpec) -> list[Monomial]:
    """Hall support in lexicographic exponent order, for deterministic output."""
    return sorted(hall_support(spec))


def monomial_sequence(spec: GroupSpec, mono: Monomial) -> tuple[Element, ...]:
    """The lexicographically smallest labelling of a monomial as a sequence."""
    els = elements(spec)
    seq: list[Element] = []
    for i, e in enumerate(mono):
        seq.extend([els[i]] * e)
    return tuple(seq)
