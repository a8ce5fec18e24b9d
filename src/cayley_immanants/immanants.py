"""Exact immanants of the Cayley-table matrix (x_{a+b}).

Every immanant is one sweep over all n! permutations of the group in
lexicographic image order, weighting each monomial by the character of the
permutation's cycle type.  With IMM_THREADS above 1 the sweep is split by
sigma(0) over a process pool; if the pool cannot start, the sweep runs
serially and says so on stderr.
"""

from __future__ import annotations

import itertools
import os
import sys
from dataclasses import dataclass

from .characters import (
    CycleType,
    Partition,
    mn_character,
    partitions_of,
    twin_diff_char,
)
from .groups import GroupSpec, add_table
from .polynomials import GroupPolynomial, Monomial

MAX_SWEEP_ORDER = 10


class EnvelopeError(ValueError):
    """A full-enumeration request above the supported group order."""


def _check_envelope(spec: GroupSpec) -> None:
    if spec.order > MAX_SWEEP_ORDER:
        raise EnvelopeError(
            f"group order {spec.order} exceeds the n! enumeration envelope "
            f"({MAX_SWEEP_ORDER}); use the formula paths instead"
        )


def _char_weights(lam: Partition) -> dict[tuple[int, ...], int]:
    """chi^lam on every class of S_n, keyed by descending cycle lengths."""
    n = lam.weight
    return {
        p.parts: mn_character(lam, CycleType(p.parts)) for p in partitions_of(n)
    }


def _twin_weights(n: int) -> dict[tuple[int, ...], int]:
    return {p.parts: twin_diff_char(CycleType(p.parts)) for p in partitions_of(n)}


def _sweep_terms(
    spec: GroupSpec, weights: dict[tuple[int, ...], int], first: int | None = None
) -> dict[Monomial, int]:
    """Accumulate weight(type(sigma)) per monomial over permutations of G.

    With `first` set, only permutations with sigma(0) = first are visited;
    that is the partitioning used by parallel workers.
    """
    n = spec.order
    add = [list(row) for row in add_table(spec)]
    terms: dict[Monomial, int] = {}
    visited = [0] * n
    stamp = 0
    if first is None:
        perms = itertools.permutations(range(n))
    else:
        rest = [v for v in range(n) if v != first]
        perms = ((first,) + tail for tail in itertools.permutations(rest))
    for images in perms:
        stamp += 1
        lengths = []
        for u0 in range(n):
            if visited[u0] != stamp:
                size = 0
                u = u0
                while visited[u] != stamp:
                    visited[u] = stamp
                    u = images[u]
                    size += 1
                lengths.append(size)
        lengths.sort(reverse=True)
        w = weights[tuple(lengths)]
        if w == 0:
            continue
        exp = [0] * n
        for u in range(n):
            exp[add[u][images[u]]] += 1
        key = tuple(exp)
        if key in terms:
            terms[key] += w
        else:
            terms[key] = w
    return terms


def _sweep_block_task(args):
    factors, weights, first = args
    return _sweep_terms(GroupSpec(factors), weights, first)


def resolve_workers() -> int:
    """Worker count from the IMM_THREADS environment variable (0 = auto)."""
    raw = os.environ.get("IMM_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        raise ValueError(f"IMM_THREADS must be an integer, got {raw!r}")
    if workers == 0:
        workers = os.cpu_count() or 1
    if workers < 0:
        raise ValueError("worker count cannot be negative")
    return workers


def _sweep(spec: GroupSpec, weights: dict[tuple[int, ...], int]) -> dict[Monomial, int]:
    workers = resolve_workers()
    n = spec.order
    if workers <= 1 or n < 4:
        return _sweep_terms(spec, weights)
    try:
        import multiprocessing as mp

        ctx = mp.get_context("fork")
        tasks = [(spec.factors, weights, first) for first in range(n)]
        with ctx.Pool(min(workers, n)) as pool:
            partials = pool.map(_sweep_block_task, tasks)
    except (ImportError, OSError, ValueError) as exc:
        print(
            f"warning: worker pool unavailable ({type(exc).__name__}: {exc}); "
            "sweeping serially",
            file=sys.stderr,
        )
        return _sweep_terms(spec, weights)
    merged: dict[Monomial, int] = {}
    for part in partials:
        for key, w in part.items():
            new = merged.get(key, 0) + w
            if new:
                merged[key] = new
            else:
                merged.pop(key, None)
    return merged


def immanant(spec: GroupSpec, lam: Partition) -> GroupPolynomial:
    """imm_lam of the Cayley-table matrix of the group, exactly."""
    _check_envelope(spec)
    if lam.weight != spec.order:
        raise ValueError(
            f"partition weight {lam.weight} != group order {spec.order}"
        )
    return GroupPolynomial.from_terms(spec, _sweep(spec, _char_weights(lam)))


def determinant(spec: GroupSpec) -> GroupPolynomial:
    return immanant(spec, Partition((1,) * spec.order))


def permanent(spec: GroupSpec) -> GroupPolynomial:
    return immanant(spec, Partition((spec.order,)))


def twin_difference(spec: GroupSpec) -> GroupPolynomial:
    """imm_(4,1^(n-4)) - imm_(2,2,2,1^(n-6)) in a single weighted sweep."""
    _check_envelope(spec)
    n = spec.order
    if n < 6:
        raise ValueError(f"both twin shapes need group order >= 6, got {n}")
    return GroupPolynomial.from_terms(spec, _sweep(spec, _twin_weights(n)))


@dataclass(frozen=True)
class PermClassStats:
    """Statistics of the permutation class P(m) producing one monomial."""

    p_m: int
    d_m: int
    per_a_counts: tuple[int, ...]
    per_a_signed: tuple[int, ...]


def perm_class_stats(spec: GroupSpec, mono: Monomial) -> PermClassStats:
    """Enumerate exactly the permutations with prod x_{u+sigma(u)} = mono.

    Capacity-constrained backtracking: sigma(u) may only be an unused b with
    remaining demand for x_{u+b}.  Cost scales with the class size, not n!.
    """
    n = spec.order
    if len(mono) != n or sum(mono) != n:
        raise ValueError(f"monomial {mono!r} is not a degree-{n} exponent vector")
    add = add_table(spec)
    capacity = list(mono)
    images = [0] * n
    used = [False] * n
    p = d = 0
    per_a = [0] * n
    per_a_signed = [0] * n

    def descend(u: int) -> None:
        nonlocal p, d
        if u == n:
            sign = 1
            seen = [False] * n
            for s in range(n):
                if not seen[s]:
                    size = 0
                    v = s
                    while not seen[v]:
                        seen[v] = True
                        v = images[v]
                        size += 1
                    if size % 2 == 0:
                        sign = -sign
            p += 1
            d += sign
            per_a[images[0]] += 1
            per_a_signed[images[0]] += sign
            return
        row = add[u]
        for b in range(n):
            if not used[b] and capacity[row[b]] > 0:
                used[b] = True
                capacity[row[b]] -= 1
                images[u] = b
                descend(u + 1)
                used[b] = False
                capacity[row[b]] += 1

    descend(0)
    return PermClassStats(p, d, tuple(per_a), tuple(per_a_signed))
