"""Sparse exact-integer polynomials in the group variables x_g.

A monomial is an exponent tuple indexed by elements(spec) order; a
polynomial maps monomials to nonzero arbitrary-precision integers.  Every
immanant produced by the engine lives here.  Values are immutable by
convention: all operations return new objects.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .groups import GroupSpec

Monomial = tuple[int, ...]


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


@dataclass(frozen=True)
class RationalSpecialization:
    """An exact-rational value for every x_g, indexed by element order."""

    group: GroupSpec
    values: tuple[Fraction, ...]
    seed: int | None = None

    def __post_init__(self) -> None:
        # the minor tables are memoized on the specialization, so a list
        # would make it unhashable
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) != self.group.order:
            raise ValueError("specialization must assign a value to every element")
        # a float's binary value would pass for an exact rational
        if not all(isinstance(v, (int, Fraction)) for v in self.values):
            raise TypeError(f"exact arithmetic needs int or Fraction values: {self.values!r}")
        # hashed once: every minor read looks its table up by the specialization
        object.__setattr__(self, "_hash", hash((self.group, self.values, self.seed)))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True)
class GroupPolynomial:
    group: GroupSpec
    terms: dict[Monomial, int] = field(default_factory=dict)

    @classmethod
    def from_terms(cls, group: GroupSpec, terms) -> "GroupPolynomial":
        """Build from any monomial -> coefficient mapping, dropping zeros."""
        n = group.order
        clean: dict[Monomial, int] = {}
        for mono, coeff in dict(terms).items():
            if len(mono) != n:
                raise ValueError(f"exponent vector length {len(mono)} != group order {n}")
            if any(e < 0 for e in mono):
                raise ValueError(f"negative exponent in {mono!r}")
            if coeff:
                clean[tuple(mono)] = int(coeff)
        return cls(group, clean)

    @property
    def support_size(self) -> int:
        return len(self.terms)

    def coefficient(self, mono: Monomial) -> int:
        return self.terms.get(tuple(mono), 0)

    def evaluate(self, rho: RationalSpecialization) -> Fraction:
        """Exact value at the specialization; no floating point anywhere.

        The values are cleared once to integers over their common
        denominator; each term is raised to the top degree d of the
        polynomial in integers, and the sum is divided by the denominator's
        d-th power once.
        """
        if rho.group != self.group:
            raise ValueError("specialization is for a different group")
        vals, den = _clear_denominators(rho.values)
        degree = max(map(sum, self.terms), default=0)
        total = 0
        for mono, coeff in self.terms.items():
            term = coeff * den ** (degree - sum(mono))
            for v, e in zip(vals, mono):
                if e:
                    term *= v**e
            total += term
        return Fraction(total, den**degree)

    def json_terms(self) -> Iterator[dict]:
        """The terms as JSON-ready dicts, lexicographic on exponent vectors.

        One dict is built per step: the CLI streams them, and
        `to_json_dict` lists them.
        """
        terms = self.terms
        return ({"exp": list(mono), "coeff": str(terms[mono])} for mono in sorted(terms))

    def to_json_dict(self) -> dict:
        return {"group": self.group.name, "terms": list(self.json_terms())}
