"""Integer partitions and symmetric-group character values.

A partition serves as a shape lam and as a cycle type mu, the class of the
permutations whose cycle lengths are its parts (its weight is their degree).
Character evaluation goes through recursive border-strip removal, memoized
on (shape parts, cycle lengths).  The closed forms for near-hook and
depth-three shapes are plain polynomials in the cycle counts c1, c2, c3 and
are cross-checked against the recursive rule in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True, order=True)
class Partition:
    """A partition as a weakly decreasing tuple of positive parts."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        # mn_character's cache is keyed on the parts, so a list would make
        # the call unhashable
        object.__setattr__(self, "parts", tuple(self.parts))
        for p in self.parts:
            if not isinstance(p, int) or p < 1:
                raise ValueError(f"parts must be positive integers, got {self.parts!r}")
        if any(self.parts[i] < self.parts[i + 1] for i in range(len(self.parts) - 1)):
            raise ValueError(f"parts must be weakly decreasing, got {self.parts!r}")

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def sign(self) -> int:
        """The sign of a permutation of this cycle type."""
        return -1 if (self.weight - len(self.parts)) % 2 else 1

    def count(self, i: int) -> int:
        """c_i: the number of parts equal to i, the i-cycles of a cycle type."""
        return self.parts.count(i)

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram."""
        if not self.parts:
            return Partition(())
        cols = tuple(
            sum(1 for p in self.parts if p > j) for j in range(self.parts[0])
        )
        return Partition(cols)

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.parts)) + ")"


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, in descending lexicographic order."""
    return tuple(Partition(p) for p in _partition_tuples(n, n))


@lru_cache(maxsize=None)
def _partition_tuples(n: int, cap: int) -> tuple[tuple[int, ...], ...]:
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, cap), 0, -1):
        for rest in _partition_tuples(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def binom(m: int, k: int) -> int:
    """Binomial coefficient as a polynomial in m: m(m-1)...(m-k+1)/k!.

    Defined for every integer m (0 for k < 0), so e.g. C(-1, 3) = -1.  The
    closed character forms below need this extension at fixed-point-free
    classes; the nonnegative range agrees with the combinatorial value.
    """
    if k < 0:
        return 0
    num = 1
    for i in range(k):
        num *= m - i
    return num // math.factorial(k)


def mn_character(lam: Partition, mu: Partition) -> int:
    """chi^lam on the class of cycle type mu, by recursive border-strip removal."""
    if lam.weight != mu.weight:
        raise ValueError(
            f"partition weight {lam.weight} != permutation degree {mu.weight}"
        )
    return _mn(lam.parts, mu.parts)


@lru_cache(maxsize=None)
def _mn(parts: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    if not cycles:
        return 1
    strip, rest = cycles[0], cycles[1:]
    # beta numbers: strictly decreasing first-column hook lengths
    rows = len(parts)
    beta = [parts[i] + (rows - 1 - i) for i in range(rows)]
    bset = set(beta)
    total = 0
    for b in beta:
        c = b - strip
        if c < 0 or c in bset:
            continue
        height = sum(1 for x in beta if c < x < b)
        nbeta = sorted((bset - {b}) | {c}, reverse=True)
        nparts = tuple(nbeta[j] - (rows - 1 - j) for j in range(rows))
        nparts = tuple(p for p in nparts if p > 0)
        total += (-1) ** height * _mn(nparts, rest)
    return total


def dimension(lam: Partition) -> int:
    """chi^lam at the identity, by the hook-length formula."""
    n = lam.weight
    conj = lam.conjugate().parts
    d = math.factorial(n)
    for i, row in enumerate(lam.parts):
        for j in range(row):
            hook = (row - j) + (conj[j] - i) - 1
            if d % hook != 0:
                raise ArithmeticError("hook-length product does not divide n!")
            d //= hook
    return d


def hook_char_n11(mu: Partition) -> int:
    """chi^(n-1,1): fixed points minus one."""
    if mu.weight < 2:
        raise ValueError("shape (n-1,1) needs degree >= 2")
    return mu.count(1) - 1


def cohook_char(mu: Partition) -> int:
    """chi^(2,1^(n-2)): the sign-twisted near-hook character."""
    if mu.weight < 2:
        raise ValueError("shape (2,1^(n-2)) needs degree >= 2")
    return mu.sign * (mu.count(1) - 1)


def char_n3_111(mu: Partition) -> int:
    """chi^(n-3,1,1,1) as a polynomial in the cycle counts."""
    if mu.weight < 6:
        raise ValueError("closed form used on degree >= 6 only")
    c1, c2, c3 = mu.count(1), mu.count(2), mu.count(3)
    return binom(c1 - 1, 3) - (c1 - 1) * c2 + c3


def char_n3_3(mu: Partition) -> int:
    """chi^(n-3,3) as a polynomial in the cycle counts."""
    if mu.weight < 6:
        raise ValueError("closed form used on degree >= 6 only")
    c1, c2, c3 = mu.count(1), mu.count(2), mu.count(3)
    return binom(c1, 3) - binom(c1, 2) + (c1 - 1) * c2 + c3


def twin_diff_char(mu: Partition) -> int:
    """chi^(4,1^(n-4)) - chi^(2,2,2,1^(n-6)) in closed form.

    Equals sign * (c1 - 1) * (1 - 2*c2); the two shapes are the conjugates of
    (n-3,1,1,1) and (n-3,3), so this is the sign twist of the difference of
    the two closed forms above.
    """
    if mu.weight < 6:
        raise ValueError("both twin shapes need degree >= 6")
    return mu.sign * (mu.count(1) - 1) * (1 - 2 * mu.count(2))
