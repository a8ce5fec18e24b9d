"""Finite abelian groups as products of cyclic factors.

Elements are residue vectors (plain tuples); every operation is a pure
function of an immutable :class:`GroupSpec`.  The element enumeration order
is mixed-radix lexicographic with the zero vector first, and that order fixes
row/column and exponent-vector indexing for the whole package.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import lru_cache

Element = tuple[int, ...]

_FACTOR_RE = re.compile(r"c(\d+)$")


@dataclass(frozen=True)
class GroupSpec:
    """A finite abelian group presented as C_{d1} x ... x C_{dk}."""

    factors: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.factors:
            raise ValueError("a group needs at least one cyclic factor")
        for d in self.factors:
            if not isinstance(d, int) or d < 2:
                raise ValueError(f"cyclic factor must be an integer >= 2, got {d!r}")

    @property
    def order(self) -> int:
        n = 1
        for d in self.factors:
            n *= d
        return n

    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def name(self) -> str:
        return "x".join(f"c{d}" for d in self.factors)

    def canonical_form(self) -> tuple[int, ...]:
        """Invariant factors d1 | d2 | ... | dk, ascending.

        Two specs with equal canonical forms are isomorphic and behave
        identically in every downstream count.
        """
        return _invariant_factors(self.factors)

    def __str__(self) -> str:
        return self.name


def parse_group(text: str) -> GroupSpec:
    """Parse the CLI grammar "c<d1>xc<d2>x...", e.g. "c3" or "c2xc4"."""
    parts = text.strip().lower().split("x")
    factors = []
    for part in parts:
        m = _FACTOR_RE.match(part)
        if m is None:
            raise ValueError(f"malformed group spec {text!r} (expected e.g. 'c2xc6')")
        d = int(m.group(1))
        if d < 2:
            raise ValueError(f"cyclic factor must be >= 2 in group spec {text!r}")
        factors.append(d)
    return GroupSpec(tuple(factors))


def _prime_factorization(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _invariant_factors(factors: tuple[int, ...]) -> tuple[int, ...]:
    # Collect, per prime, the exponents from all cyclic factors (descending);
    # the i-th invariant factor (from the top) multiplies the i-th largest
    # prime-power contribution of every prime.
    per_prime: dict[int, list[int]] = {}
    for d in factors:
        for p, e in _prime_factorization(d).items():
            per_prime.setdefault(p, []).append(e)
    slots = max((len(v) for v in per_prime.values()), default=0)
    for exps in per_prime.values():
        exps.sort(reverse=True)
    invariants = []
    for i in range(slots):
        q = 1
        for p, exps in per_prime.items():
            if i < len(exps):
                q *= p ** exps[i]
        invariants.append(q)
    return tuple(reversed(invariants))


@lru_cache(maxsize=None)
def elements(spec: GroupSpec) -> tuple[Element, ...]:
    """All n elements in mixed-radix lexicographic order, zero first."""
    return tuple(itertools.product(*(range(d) for d in spec.factors)))


@lru_cache(maxsize=None)
def _index_map(spec: GroupSpec) -> dict[Element, int]:
    return {a: i for i, a in enumerate(elements(spec))}


def index_of(spec: GroupSpec, a: Element) -> int:
    _check_element(spec, a)
    return _index_map(spec)[a]


def _check_element(spec: GroupSpec, a: Element) -> None:
    if len(a) != spec.rank:
        raise ValueError(f"element {a!r} has rank {len(a)}, group has rank {spec.rank}")
    for r, d in zip(a, spec.factors):
        if not 0 <= r < d:
            raise ValueError(f"residue {r} out of range [0, {d}) in element {a!r}")


def add(spec: GroupSpec, a: Element, b: Element) -> Element:
    _check_element(spec, a)
    _check_element(spec, b)
    return tuple((x + y) % d for x, y, d in zip(a, b, spec.factors))


def neg(spec: GroupSpec, a: Element) -> Element:
    _check_element(spec, a)
    return tuple((-x) % d for x, d in zip(a, spec.factors))


def double(spec: GroupSpec, a: Element) -> Element:
    return add(spec, a, a)


# Index-level tables.  The enumeration engines work on element indices, not
# residue vectors; these tables make that arithmetic a couple of list lookups.

@lru_cache(maxsize=None)
def add_table(spec: GroupSpec) -> tuple[tuple[int, ...], ...]:
    """add_table[i][j] = index of elements[i] + elements[j]."""
    els = elements(spec)
    idx = _index_map(spec)
    return tuple(
        tuple(idx[tuple((x + y) % d for x, y, d in zip(a, b, spec.factors))] for b in els)
        for a in els
    )


@lru_cache(maxsize=None)
def neg_table(spec: GroupSpec) -> tuple[int, ...]:
    """neg_table[i] = index of -elements[i]."""
    idx = _index_map(spec)
    return tuple(idx[neg(spec, a)] for a in elements(spec))


@lru_cache(maxsize=None)
def double_table(spec: GroupSpec) -> tuple[int, ...]:
    """double_table[i] = index of 2 * elements[i]."""
    idx = _index_map(spec)
    return tuple(idx[double(spec, a)] for a in elements(spec))


@lru_cache(maxsize=None)
def doubling_counts(spec: GroupSpec) -> tuple[int, ...]:
    """doubling_counts[i] = r(a) = |{g : 2g = a}| for a = elements[i]."""
    counts = [0] * spec.order
    for j in double_table(spec):
        counts[j] += 1
    return tuple(counts)


def perm_parity(images: tuple[int, ...]) -> int:
    """Sign of a permutation given as an image vector on 0..n-1."""
    n = len(images)
    seen = [False] * n
    cycles = 0
    for u0 in range(n):
        if not seen[u0]:
            cycles += 1
            u = u0
            while not seen[u]:
                seen[u] = True
                u = images[u]
    return -1 if (n - cycles) % 2 else 1


def negation_parity(spec: GroupSpec) -> int:
    """Sign of the permutation a -> -a on elements(spec).

    Relates det(M_G) to det of the Toeplitz companion (x_{a-b}), whose
    columns differ by this permutation.
    """
    return perm_parity(neg_table(spec))


def automorphisms(spec: GroupSpec) -> list[tuple[int, ...]]:
    """Every automorphism phi of the group, as index maps phi[g].

    Each cyclic generator may go to any element whose order divides its
    factor; that choice fixes a homomorphism, which is kept when it is a
    bijection.
    """
    els = elements(spec)
    idx = _index_map(spec)
    n = spec.order
    choices = [
        [h for h in els if all(d * r % f == 0 for r, f in zip(h, spec.factors))]
        for d in spec.factors
    ]
    out = []
    for gens in itertools.product(*choices):
        phi = tuple(
            idx[tuple(
                sum(c * h[j] for c, h in zip(g, gens)) % f
                for j, f in enumerate(spec.factors)
            )]
            for g in els
        )
        if len(set(phi)) == n:
            out.append(phi)
    return out


def affine_maps(spec: GroupSpec) -> list[tuple[int, ...]]:
    """The relabellings g -> phi(g) + 2*gamma of the group's elements.

    Conjugating a permutation sigma by the affine map u -> phi(u) + gamma
    keeps its cycle type and relabels the monomial prod_u x_{u+sigma(u)}
    by exactly this map, so immanant coefficients are constant on its
    orbits.  One index tuple per distinct (phi, 2*gamma).
    """
    add = add_table(spec)
    shifts = sorted(set(double_table(spec)))
    return [
        tuple(add[phi[g]][s] for g in range(spec.order))
        for phi in automorphisms(spec)
        for s in shifts
    ]
