"""Support counts and coefficient formulas that avoid full n! enumeration.

Determinant coefficients come from the partition-lattice formula, a sum
over the zero-sum set partitions of a sequence's positions.  Production
code evaluates it on multisets only, with one recursion and two folds:
`_anchored_blocks` lists the zero-sum blocks through one fixed copy of the
least present element, with their binomial counts of labelled ways and
their residual multisets.  It enumerates the copies of every element kind
but the last and solves for the last kind's (`_cancellers`).
`_anchored_block_sum` folds the blocks into the signed partition sum, and
`_min_valuation` into the least p-adic valuation of a partition term (a
min-plus fold, since the valuation adds up over blocks); each fold is
memoized on residual multisets.  The labelled enumeration of the
partitions is a test oracle (`tests/test_supports.py`); the tests pin it,
the multiset routes and the engine's permutation-class walks against each
other and against a brute-force sum over all n! permutations at small
orders.

The Hall support is enumerated in lexicographic order by one walk,
`_walk_hall_support`, which descends only into exponents that the
completion table `_completions` says can still be completed.  Orbits reach
every caller by one route, `orbit_stream`: one pass of the walk that keeps
each orbit's least member and its size under a given group of maps.  The
orbits of `groups.affine_maps`, on which det_coeff, the near-hook scalar
and every immanant coefficient are constant, are its cached affine entry
point `orbit_representatives`.  D and I_(n-1,1), I_(2,1^(n-2)) sum orbit
sizes over them, as the immanants' orbit tables do, and `per_monomial`
gives each one's value to its images, the orbit, only where rows are the
output: `support --report full` and a `GroupPolynomial`.  The affine maps
are checked once per group (`_affine_pullbacks`).  The `padic-certificate`
row streams the orbits of `groups.automorphisms` instead.  No route keeps
the walk: `hall_support` lists it afresh per call, for the checks that read
every monomial (`hall-permanent-support`, the odd-order scalar loop and the
master formula).

The p-adic profile is a size certificate: a term's valuation charges each
block by its size alone, so `block_size_certificate` bounds every
multi-block term of every Hall monomial at once.  The zero-sum fold is its
oracle, which `_counts_profile` reads and the `padic-certificate` row
compares with it on the least member of each automorphism orbit.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import itemgetter, sub
from typing import TYPE_CHECKING, NamedTuple

from .errors import EnvelopeError
from .groups import (
    GroupSpec,
    _prime_factorization,
    add_table,
    affine_maps,
    doubling_counts,
    elements,
    index_of,
    neg_table,
    negation_parity,
)

if TYPE_CHECKING:
    from .immanants import PermClassStats
    from .polynomials import Monomial


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


# The largest Hall support that is enumerated.  It bounds time only: the
# routes that hold all P monomials at once sit under the order-10 sweep
# envelope, and `support --group c13` and `padic --group c13 --all`
# (400,024 monomials) stream at about 20 and 19 MB.  c14 has 1,432,860.
MAX_HALL_MONOMIALS = 500_000


def check_hall_envelope(spec: GroupSpec) -> None:
    """Refuse a group whose Hall support is over MAX_HALL_MONOMIALS.

    Reads the closed-form count, so the refusal costs O(n), not an
    enumeration.
    """
    p = count_P(spec)
    if p > MAX_HALL_MONOMIALS:
        raise EnvelopeError(
            f"{spec.name} has {p} zero-sum monomials, above the enumeration "
            f"envelope of {MAX_HALL_MONOMIALS}"
        )


@lru_cache(maxsize=None)
def _completions(spec: GroupSpec) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """_completions[pos][rem][psum]: the ways to complete a Hall monomial.

    Counts the exponents e_pos..e_(n-1) that sum to rem and bring the
    weighted sum psum + sum_i e_i * elements[i] to zero.  It holds
    n * (n+1) * n ints, and [0][n][0] is the Hall support size P.
    """
    n = spec.order
    add = add_table(spec)
    mult = _multiple_table(spec)
    last = n - 1
    table = [tuple(
        tuple(int(add[psum][mult[last][rem]] == 0) for psum in range(n))
        for rem in range(n + 1)
    )]
    for pos in range(last - 1, -1, -1):
        after = table[-1]
        table.append(tuple(
            tuple(sum(after[rem - k][add[psum][mult[pos][k]]] for k in range(rem + 1))
                  for psum in range(n))
            for rem in range(n + 1)
        ))
    return tuple(reversed(table))


def _walk_hall_support(spec: GroupSpec, visit) -> None:
    """Call visit(monomial) on every Hall monomial, in lexicographic order.

    The one enumeration behind `hall_support`, `orbit_stream` and the rows
    of `padic --all`; no route keeps a copy.  Raises EnvelopeError, before
    any table is built, above MAX_HALL_MONOMIALS.  The backtracking tries
    exponents in increasing order and descends only into exponents that
    `_completions` says can still be completed, so every branch ends in a
    monomial, and the last exponent is what the degree leaves.
    """
    check_hall_envelope(spec)
    n = spec.order
    add = add_table(spec)
    mult = _multiple_table(spec)
    completions = _completions(spec)
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}

    def live_exponents(pos: int, rem: int, psum: int) -> tuple[int, ...]:
        # the exponents k at pos that leave a completion; equal tuples are
        # stored once
        after = completions[pos + 1]
        ks = tuple(k for k in range(rem + 1) if after[rem - k][add[psum][mult[pos][k]]])
        return shared.setdefault(ks, ks)

    live = [[[live_exponents(pos, rem, psum) for psum in range(n)] for rem in range(n + 1)]
            for pos in range(n - 1)]
    exp = [0] * n
    penult = n - 2

    def descend(pos: int, remaining: int, psum: int) -> None:
        # every position is written on the way down, so none is reset
        if pos == penult:
            for k in live[pos][remaining][psum]:
                exp[pos] = k
                exp[pos + 1] = remaining - k
                visit(tuple(exp))
            return
        step = add[psum]
        multiples = mult[pos]
        for k in live[pos][remaining][psum]:
            exp[pos] = k
            descend(pos + 1, remaining - k, step[multiples[k]])

    descend(0, n, 0)


def hall_support(spec: GroupSpec) -> tuple[Monomial, ...]:
    """All degree-n exponent vectors whose weighted element sum is zero, ascending.

    By Hall's theorem these are exactly the monomials of the permanent.  A
    fresh tuple per call, listed from the walk, which raises EnvelopeError
    above MAX_HALL_MONOMIALS.
    """
    out: list[Monomial] = []
    _walk_hall_support(spec, out.append)
    return tuple(out)


def count_P(spec: GroupSpec) -> int:
    """Number of monomials of the permanent (the Hall support size).

    Closed form (1/n) sum_d N_d C(2n/d - 1, n/d), where N_d counts the
    elements (equally, the characters) of order d; a character of order d
    gives prod_g (1 - chi(g) t) = (1 - t^d)^(n/d).  O(n) and
    enumeration-free, so it is an oracle for the walk.
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
def _affine_pullbacks(spec: GroupSpec) -> tuple[itemgetter, ...]:
    """Pullbacks through `affine_maps(spec)`, checked once per spec to keep the Hall support.

    Pulling a monomial m back through a bijection r gives the weighted sum
    sum_h m_h * r^-1(h), so an affine r keeps the Hall support; at order 3
    and above the monomials x_a x_b x_(-a-b) x_0^(n-3) show that no other
    bijection does.  Raises ArithmeticError, naming the map, for a map that
    is not an affine bijection, and for a map set without the identity.  The
    images of a monomial are its orbit: pulling back through r relabels by
    r's inverse, which is in the group too.  A map set that fails is not
    cached, so every call on it raises.
    """
    n = spec.order
    add = add_table(spec)
    neg = neg_table(spec)
    units = [index_of(spec, tuple(int(i == j) for i in range(spec.rank)))
             for j in range(spec.rank)]
    maps = tuple(affine_maps(spec))
    for r in maps:
        # r is affine iff r(g + e) - r(g) = r(e) - r(0) on every generator e
        if sorted(r) != list(range(n)) or any(
            add[r[g]][add[r[e]][neg[r[0]]]] != r[add[g][e]] for e in units for g in range(n)
        ):
            raise ArithmeticError(f"relabelling {r!r} is not an affine bijection, so it takes "
                                  f"Hall monomials outside the Hall support of {spec.name}")
    identity = tuple(range(n))
    if identity not in maps:
        raise ArithmeticError(f"the relabellings of {spec.name} lack the identity {identity!r}")
    return tuple(itemgetter(*r) for r in maps)


def orbit_stream(spec: GroupSpec, pullbacks) -> tuple[tuple[Monomial, int], ...]:
    """(least member, orbit size) per orbit of a map group on the Hall support, ascending.

    pullbacks pull a monomial back through each map of the group, as
    `_affine_pullbacks` does.  One pass over the Hall enumeration keeps only
    the least members: a monomial is one iff no pulled-back image is
    smaller, and its orbit size is |A| over the number of maps that fix it.
    Raises ArithmeticError if the maps are not a group acting on the Hall
    support: a stabilizer whose size does not divide |A|, or orbit sizes
    that do not sum to P.  The walk raises EnvelopeError, before any table
    is built, above MAX_HALL_MONOMIALS.  Uncached: `orbit_representatives`
    keeps the affine orbits, and the `padic-certificate` row reads the
    automorphism orbits once per group.
    """
    pullbacks = list(pullbacks)  # reordered by the visits below
    n_maps = len(pullbacks)
    reps: list[tuple[Monomial, int]] = []

    def visit(mono: Monomial) -> None:
        fixed = 0
        for i, pullback in enumerate(pullbacks):
            image = pullback(mono)
            if image < mono:
                # neighbouring monomials tend to fall to the same map, so
                # it is tried first on the next one
                pullbacks[0], pullbacks[i] = pullback, pullbacks[0]
                return
            fixed += image == mono
        size, rest = divmod(n_maps, fixed)
        if rest:
            raise ArithmeticError(f"{fixed} relabellings of {spec.name} fix {mono!r}, "
                                  f"which does not divide the {n_maps} maps")
        reps.append((mono, size))

    _walk_hall_support(spec, visit)
    total = sum(size for _, size in reps)
    if total != count_P(spec):
        raise ArithmeticError(f"orbit sizes of {spec.name} sum to {total}, "
                              f"not to P = {count_P(spec)}")
    return tuple(reps)


@lru_cache(maxsize=None)
def orbit_representatives(spec: GroupSpec, /) -> tuple[tuple[Monomial, int], ...]:
    """(least member, orbit size) per affine orbit of the Hall support, ascending.

    The orbit route of the counts and of the rows (`per_monomial`):
    `orbit_stream` over the checked pullbacks of `affine_maps(spec)`, kept
    once per spec.  Raises ArithmeticError if the affine maps are not a
    group acting on the Hall support (a map that leaves it, no identity, or
    a failed guard of the stream), and EnvelopeError above
    MAX_HALL_MONOMIALS before the affine maps are built.
    """
    check_hall_envelope(spec)
    return orbit_stream(spec, _affine_pullbacks(spec))


def per_monomial(spec: GroupSpec, value):
    """An iterator of (monomial, value) over the Hall support, in lexicographic order.

    `value` must be constant on the affine orbits: it is called once per
    orbit, on the representative from `orbit_representatives`, and its
    result is given to every image of the representative.  Every call is
    made before this returns, so a value that raises does so before the
    first row.  Raises ArithmeticError if the images of a representative do
    not number its orbit size, so the rows are exactly the P Hall monomials.
    """
    reps = orbit_representatives(spec)
    pullbacks = _affine_pullbacks(spec)
    rows = []
    for rep, size in reps:
        orbit = {pullback(rep) for pullback in pullbacks}
        if len(orbit) != size:
            raise ArithmeticError(f"{rep!r} has {len(orbit)} images under the relabellings "
                                  f"of {spec.name}, not its orbit size {size}")
        result = value(rep)
        rows.extend([(mono, result) for mono in orbit])
    rows.sort(key=itemgetter(0))
    return iter(rows)


@lru_cache(maxsize=None)
def _cancellers(spec: GroupSpec) -> tuple[tuple[int, tuple[int | None, ...]], ...]:
    """(ord g, first) per element g, to solve psum + j*g = 0 for j.

    first[psum] is the least j >= 0 that solves it, or None if no multiple
    of g cancels psum; the other solutions are first[psum] + ord g, ...
    """
    n = spec.order
    neg = neg_table(spec)
    rows = []
    for row in _multiple_table(spec):
        order = row.index(0, 1)
        first: list[int | None] = [None] * n
        for j in range(order):
            first[neg[row[j]]] = j
        rows.append((order, tuple(first)))
    return tuple(rows)


def _anchored_blocks(
    spec: GroupSpec, counts: tuple[int, ...]
) -> list[tuple[int, int, tuple[int, ...]]]:
    """The zero-sum blocks through one fixed copy of the least present element.

    counts is a multiset of at most n elements, like a length-n sequence and
    its residuals.  Each block is returned as (size, ways, residual): ways
    counts the labelled position sets with its contents, and residual is
    counts without it.  Every set partition of the positions has exactly one
    block through the anchor copy, so both partition folds below recurse
    over these blocks.  The empty multiset has none.  The copies of every
    kind but the last are enumerated; the last kind's are solved for with
    `_cancellers`, so no branch is spent on a nonzero sum.
    """
    n = spec.order
    anchor = next((g for g, c in enumerate(counts) if c), None)
    if anchor is None:
        return []
    add = add_table(spec)
    mult = _multiple_table(spec)
    cancel = _cancellers(spec)
    kinds = [g for g in range(anchor + 1, n) if counts[g]]
    last = len(kinds) - 1
    blocks = []
    chosen = [0] * n

    def emit(size: int) -> None:
        ways = math.comb(counts[anchor] - 1, chosen[anchor] - 1)
        for g in kinds:
            ways *= math.comb(counts[g], chosen[g])
        blocks.append((size, ways, tuple(map(sub, counts, chosen))))

    def pick(pos: int, psum: int, size: int) -> None:
        g = kinds[pos]
        if pos == last:
            order, first = cancel[g]
            if first[psum] is not None:
                for j in range(first[psum], counts[g] + 1, order):
                    chosen[g] = j
                    emit(size + j)
        else:
            for j in range(counts[g] + 1):
                chosen[g] = j
                pick(pos + 1, add[psum][mult[g][j]], size + j)
        chosen[g] = 0

    if kinds:
        for j in range(1, counts[anchor] + 1):
            chosen[anchor] = j
            pick(0, mult[anchor][j], j)
    else:
        # the anchor is the only kind: a block holds a multiple of its order
        order = cancel[anchor][0]
        for j in range(order, counts[anchor] + 1, order):
            chosen[anchor] = j
            emit(j)
    return blocks


@lru_cache(maxsize=None)
def _anchored_block_sum(spec: GroupSpec, counts: tuple[int, ...]) -> int:
    """The zero-sum set-partition sum of a multiset, memoized on multisets.

    The sum runs over the zero-sum set partitions of the n labelled positions
    of any sequence with these counts, each partition weighted by
    (-1)^(n-k) n^k prod (|B|-1)! over its k blocks.  It is regrouped by block
    contents: each block of `_anchored_blocks` contributes its labelled ways
    times its own factor times the sum of its residual.  Residual states
    repeat heavily across monomials, which is what makes the order-10
    formula path affordable.
    """
    if not any(counts):
        return 1
    n = spec.order
    total = 0
    for size, ways, residual in _anchored_blocks(spec, counts):
        term = (-1) ** (size - 1) * n * math.factorial(size - 1)
        total += ways * term * _anchored_block_sum(spec, residual)
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


def count_D(spec: GroupSpec) -> int:
    """Number of monomials of the determinant.

    Every determinant monomial is a permanent monomial (same permutation
    sum, different weights), so only the Hall support is scanned, one
    representative per affine orbit, weighted by its orbit size.
    """
    return sum(size for rep, size in orbit_representatives(spec)
               if det_coeff(spec, rep) != 0)


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
    run once per affine orbit, weighted by its orbit size.
    """
    hook = cohook = 0
    for rep, size in orbit_representatives(spec):
        if near_hook_scalar_numerator(spec, rep) != 0:
            hook += size
            if det_coeff(spec, rep) != 0:
                cohook += size
    return hook, cohook


def _legendre(m: int, p: int) -> int:
    """v_p(m!) by Legendre's formula."""
    total = 0
    q = p
    while q <= m:
        total += m // q
        q *= p
    return total


def _block_valuations(spec: GroupSpec, p: int, counts: tuple[int, ...]):
    """(size, least valuation) per anchored block whose residual partitions.

    The valuation of a partition term, v_p(n^k prod (|B|-1)!), adds up over
    its blocks: v_p(n) + v_p((|B|-1)!) each.  So a block's least value is
    its own plus the least value of its residual; blocks whose residual is
    not zero-sum are skipped.
    """
    r = _prime_factorization(spec.order)[p]
    for size, _, residual in _anchored_blocks(spec, counts):
        rest = _min_valuation(spec, p, residual)
        if rest is not None:
            yield size, r + _legendre(size - 1, p) + rest


@lru_cache(maxsize=None)
def _min_valuation(spec: GroupSpec, p: int, counts: tuple[int, ...]) -> int | None:
    """Least p-adic valuation of a zero-sum set-partition term of a multiset.

    The min-plus twin of `_anchored_block_sum`: 0 for the empty multiset,
    None if there is no zero-sum partition.  Residual states repeat across
    the sequences of one group, so the memo is shared by all of them.
    """
    if not any(counts):
        return 0
    return min((v for _, v in _block_valuations(spec, p, counts)), default=None)


class ValuationProfile(NamedTuple):
    """Least p-adic valuation of the partition-formula terms of one sequence."""

    p: int
    r: int
    min_valuation: int
    strictly_minimal: bool


def _prime_power(spec: GroupSpec) -> tuple[int, int]:
    """(p, r) with |G| = p^r; ValueError for an order that is not a prime power."""
    factorization = _prime_factorization(spec.order)
    if len(factorization) != 1:
        raise ValueError(f"group order {spec.order} is not a prime power")
    (p, r), = factorization.items()
    return p, r


def _least_split_valuation(p: int, r: int) -> int:
    """Least sum of r + v_p((s-1)!) over the compositions of p^r into >= 2 parts s.

    A min-plus DP over the running total, O(n^2) for n = p^r.
    """
    n = p**r
    cost = [r + _legendre(s - 1, p) for s in range(n + 1)]  # cost[0] is never read
    # least[m]: the least cost of a composition of m, 0 for the empty one
    least = [0] * n
    for m in range(1, n):
        least[m] = min(least[m - s] + cost[s] for s in range(1, m + 1))
    return min(least[n - s] + cost[s] for s in range(1, n))


def block_size_certificate(spec: GroupSpec) -> ValuationProfile:
    """The p-adic profile of every Hall monomial of a group of order n = p^r.

    A partition term n^k prod (|B|-1)! has valuation sum_B r + v_p((|B|-1)!),
    which reads block sizes only.  The one-block term, (p^r - 1)/(p - 1), is
    zero-sum on every Hall monomial, and `_least_split_valuation` bounds
    every other term (restricting to zero-sum partitions only raises it).
    The bound separates by Result 1's lemma: every s < p^r has digit sum
    S_p(s-1) <= r(p-1) - 1, so by Legendre a part costs r + v_p((s-1)!) >=
    s/(p-1), and >= 2 parts cost >= p^r/(p-1) > (p^r - 1)/(p - 1).  It is
    computed on each call all the same: ArithmeticError, naming the order,
    if it does not separate; ValueError if n is not a prime power.
    """
    p, r = _prime_power(spec)
    one_block = (spec.order - 1) // (p - 1)
    if _least_split_valuation(p, r) <= one_block:
        raise ArithmeticError(f"the block-size bound does not separate the one-block "
                              f"term at order {spec.order}")
    return ValuationProfile(p=p, r=r, min_valuation=one_block, strictly_minimal=True)


def padic_profile(spec: GroupSpec, sequence) -> ValuationProfile:
    """`block_size_certificate`, for a zero-sum sequence of length n only.

    Anything else raises ValueError.  strictly_minimal certifies a nonzero
    coefficient: the one-block term sits below every multi-block term.
    """
    n = spec.order
    if len(sequence) != n:
        raise ValueError(f"sequence length {len(sequence)} != group order {n}")
    add = add_table(spec)
    total = 0
    for g in sequence:
        total = add[total][index_of(spec, g)]
    if total != 0:
        raise ValueError("sequence is not zero-sum")
    return block_size_certificate(spec)


def _counts_profile(spec: GroupSpec, counts: tuple[int, ...]) -> ValuationProfile:
    """The zero-sum fold's profile of a Hall monomial's sequences.

    The independent route to `block_size_certificate`.  It is constant on
    the orbits of `groups.automorphisms`, which map zero-sum blocks to
    zero-sum blocks of the same sizes.
    """
    p, r = _prime_power(spec)
    one_block = None
    multi_block = []
    for size, v in _block_valuations(spec, p, counts):
        if size == spec.order:
            one_block = v
        else:
            multi_block.append(v)
    if one_block is None:
        raise ArithmeticError("zero-sum sequence has no one-block partition")
    return ValuationProfile(p, r, min([one_block, *multi_block]),
                            strictly_minimal=all(v > one_block for v in multi_block))
