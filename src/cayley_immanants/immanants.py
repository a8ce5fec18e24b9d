"""Exact immanants of the Cayley-table matrix (x_{a+b}).

The coefficient of a monomial m in imm_lam is the sum of chi^lam(type sigma)
over the permutation class P(m) = {sigma : prod_u x_{u+sigma(u)} = m}.
Conjugating sigma by an affine map u -> phi(u) + gamma (phi an automorphism)
keeps its cycle type and relabels m by g -> phi(g) + 2*gamma, so every
coefficient is constant on the orbits of those relabellings.  The engine's
one result is therefore the orbit table (`immanant_orbits`, `twin_orbits`):
(representative, orbit size, coefficient) for each entry of
`supports.orbit_representatives`.  A question that is constant on orbits,
such as whether an immanant vanishes or how many terms it has
(`orbit_support_size`), folds the table.  `immanant` and `twin_difference`
expand it through `supports.per_monomial` into a `GroupPolynomial`, for the
callers that need every monomial.

The determinant (lam = 1^n) reads the partition formula
`supports.det_coeff`, which `count_D` already evaluates on the same
representatives, and walks no class.  Every other immanant walks P(m) for
each representative (536 walks instead of 10! permutations at c10).

One walk gives the cycle-type census of P(m), and every immanant other than
the determinant, the twin difference and (p_m, d_m) are folds over that
census.  `_class_walk` is therefore a per-process memo keyed on (group,
monomial): within one process each census is walked once, however many
immanants read it.  The memo holds one entry per distinct walk the process
asked for (536 for every other immanant of c10, 699 for `verify --suite
all`) and is emptied by `_class_walk.cache_clear()`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

from .characters import (
    Partition,
    mn_character,
    partitions_of,
    twin_diff_char,
)
from .errors import EnvelopeError
from .groups import GroupSpec, add_table
from .polynomials import GroupPolynomial, Monomial
from .supports import det_coeff, orbit_representatives, per_monomial

MAX_SWEEP_ORDER = 10

# (orbit representative, orbit size, coefficient) per affine orbit of the
# Hall support, in `orbit_representatives` order
OrbitTable = tuple[tuple[Monomial, int, int], ...]


def check_sweep_envelope(spec: GroupSpec) -> None:
    """Refuse a group above MAX_SWEEP_ORDER before any class walk.

    Every route into `_class_walk` calls it: the immanants, the twin
    difference and `perm_class_stats`.
    """
    if spec.order > MAX_SWEEP_ORDER:
        raise EnvelopeError(
            f"group order {spec.order} exceeds the immanant envelope "
            f"({MAX_SWEEP_ORDER}); use the formula paths instead"
        )


@lru_cache(maxsize=None)
def _class_walk(
    spec: GroupSpec, mono: Monomial
) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Count the permutations sigma with prod_u x_{u+sigma(u)} = mono.

    Capacity-constrained backtracking: sigma(u) may only be an unused b with
    remaining demand for x_{u+b}, so the cost scales with the class size,
    not n!.  Returns the census as (descending cycle lengths, count) pairs
    sorted by lengths, immutable because the memo hands the same object to
    every caller.  The memo grows by one entry per distinct (spec, mono)
    walked: at most C(2n-1, n) per group of order n, and only after
    `check_sweep_envelope` has admitted the group.
    """
    n = spec.order
    # (b, u + b) for every image b of u that mono has a variable for
    moves = [
        [(b, g) for b, g in enumerate(row) if mono[g] > 0]
        for row in add_table(spec)
    ]
    capacity = list(mono)
    images = [0] * n
    used = [False] * n
    visited = [0] * n
    stamp = 0
    counts: dict[tuple[int, ...], int] = {}

    def descend(u: int) -> None:
        nonlocal stamp
        if u == n:
            stamp += 1
            lengths = []
            for u0 in range(n):
                if visited[u0] != stamp:
                    size = 0
                    v = u0
                    while visited[v] != stamp:
                        visited[v] = stamp
                        v = images[v]
                        size += 1
                    lengths.append(size)
            lengths.sort(reverse=True)
            key = tuple(lengths)
            counts[key] = counts.get(key, 0) + 1
            return
        for b, g in moves[u]:
            if not used[b] and capacity[g] > 0:
                used[b] = True
                capacity[g] -= 1
                images[u] = b
                descend(u + 1)
                used[b] = False
                capacity[g] += 1

    descend(0)
    # key on the cached partition tuples, so the memo's entries share their
    # cycle types instead of holding a copy each (tracemalloc: 1.27 -> 0.77
    # MB for the 536 entries of c10)
    shared = {p.parts: p.parts for p in partitions_of(n)}
    return tuple(sorted((shared[lengths], c) for lengths, c in counts.items()))


def _census_fold(spec: GroupSpec, class_function) -> OrbitTable:
    """The orbit table whose coefficient is sum_{sigma in P(rep)} class_function(type(sigma)).

    class_function is read once per cycle type of S_n, then one class walk
    per orbit representative of the Hall support.
    """
    weights = {mu.parts: class_function(mu) for mu in partitions_of(spec.order)}
    return tuple(
        (rep, size, sum(weights[lengths] * c for lengths, c in _class_walk(spec, rep)))
        for rep, size in orbit_representatives(spec)
    )


def immanant_orbits(spec: GroupSpec, lam: Partition) -> OrbitTable:
    """The orbit table of imm_lam: (representative, orbit size, coefficient).

    One entry per `orbit_representatives(spec)` entry, in its order, zero
    coefficients included.  For the sign partition 1^n (the determinant) the
    coefficient comes from the partition formula `supports.det_coeff`, so no
    class is walked; every other lam folds the class census.
    """
    check_sweep_envelope(spec)
    if lam.weight != spec.order:
        raise ValueError(
            f"partition weight {lam.weight} != group order {spec.order}"
        )
    if lam.parts == (1,) * spec.order:
        return tuple((rep, size, det_coeff(spec, rep))
                     for rep, size in orbit_representatives(spec))
    return _census_fold(spec, partial(mn_character, lam))


def twin_orbits(spec: GroupSpec) -> OrbitTable:
    """The orbit table of imm_(4,1^(n-4)) - imm_(2,2,2,1^(n-6)), in one census fold."""
    check_sweep_envelope(spec)
    n = spec.order
    if n < 6:
        raise ValueError(f"both twin shapes need group order >= 6, got {n}")
    return _census_fold(spec, twin_diff_char)


def orbit_support_size(table: OrbitTable) -> int:
    """The number of terms of the table's polynomial: the sizes of its nonzero orbits."""
    return sum(size for _, size, coeff in table if coeff)


def _expand(spec: GroupSpec, table: OrbitTable) -> GroupPolynomial:
    """The table's polynomial: each coefficient given to its representative's orbit."""
    coeffs = {rep: coeff for rep, _, coeff in table}
    # zero rows are dropped before from_terms checks each row (all P of them
    # for a vanishing twin)
    return GroupPolynomial.from_terms(
        spec, {mono: coeff for mono, coeff in per_monomial(spec, coeffs.__getitem__) if coeff})


def immanant(spec: GroupSpec, lam: Partition) -> GroupPolynomial:
    """imm_lam of the Cayley-table matrix of the group, exactly: its orbit table expanded."""
    return _expand(spec, immanant_orbits(spec, lam))


def determinant(spec: GroupSpec) -> GroupPolynomial:
    return immanant(spec, Partition((1,) * spec.order))


def permanent(spec: GroupSpec) -> GroupPolynomial:
    return immanant(spec, Partition((spec.order,)))


def twin_difference(spec: GroupSpec) -> GroupPolynomial:
    """imm_(4,1^(n-4)) - imm_(2,2,2,1^(n-6)): the twin orbit table expanded."""
    return _expand(spec, twin_orbits(spec))


@dataclass(frozen=True)
class PermClassStats:
    """Statistics of the permutation class P(m) producing one monomial."""

    p_m: int
    d_m: int


def perm_class_stats(spec: GroupSpec, mono: Monomial) -> PermClassStats:
    """p_m = |P(m)| and d_m, the signed count of P(m)."""
    check_sweep_envelope(spec)
    n = spec.order
    if len(mono) != n or sum(mono) != n:
        raise ValueError(f"monomial {mono!r} is not a degree-{n} exponent vector")
    p = d = 0
    for lengths, count in _class_walk(spec, tuple(mono)):
        p += count
        d += -count if (n - len(lengths)) % 2 else count
    return PermClassStats(p, d)
