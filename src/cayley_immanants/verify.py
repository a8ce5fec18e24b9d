"""One-shot verification suites: every theorem-level check behind the CLI.

One ordered table, CHECKS, holds the theorem checks.  A row names its suite
and theorem, its default groups, a body(spec, seed) that returns None or a
failure witness, and params(spec) for the report.  One runner takes the
(check, group) rows of the requested suites in table order, and `_report`
sorts each outcome into pass, fail, skipped or error.  Group lists default
to the orders the checks were designed around and can be overridden, though
not by an empty list; all randomness is derived from the caller's seed.

The runner shards the rows by group (the S_6..S_9 row is a shard of its
own), since rows on different groups share no memo entry.  The shard indices
go on a pipe, largest group order first.  This process and one `os.fork`ed
worker per further CPU read it until it is empty; a worker pickles its
(row index, report) pairs back over a pipe of its own and leaves by
`os._exit`.  Each report is put back at its row index, so the output does
not depend on which process ran a row.  With one CPU or one shard nothing
forks.  A worker that exits nonzero, or a row that comes back without a
report, is a crash (RuntimeError), and every worker is reaped before the
runner returns.  Forking assumes a process with no threads, as the CLI is.
Within a shard, a group's rows run back to back, so its class walks, orbit
stream and minor tables are built once.

Every immanant coefficient is constant on the affine orbits of the Hall
support, so a check whose answer is too folds the orbit tables of
`immanant_orbits` and `twin_orbits` and expands no row: the near-hook zero
tests and counts, the permanent's term count, the walked D, the odd-order
twin, the x_0^n twin coefficient and the regular-character sum.  The
`padic-certificate` row reads the least member of each automorphism orbit
from `supports.orbit_stream`.  Only the checks that compare or evaluate
single monomials expand a `GroupPolynomial`: `c3-ground-truth`, the master
formula, the reduction twin and `hall-permanent-support`, which reads the
permanent's sorted monomials and the Hall walk in lockstep.

The suite_<name> functions are the runner bound to each suite; they stay
only because the benchmark tracer wraps them by name.  The exact minor
checks live in a second table, MINOR_CHECKS, which the jacobi/scalars rows
(`_minor_witness`) and the `minors` command run in one loop: seeds outer,
checks inner, so all checks at a seed read one minor table.  A check leaves
the loop's dict of live checks at its first counterexample or exception; the
loop reads no clock.  A minor check has one way to fail: it raises
IdentityCheckError at its first broken equation, and that equation and its
two sides are the counterexample.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter
from typing import Callable, NamedTuple, NoReturn

from .characters import (
    Partition,
    char_n3_3,
    char_n3_111,
    cohook_char,
    dimension,
    hook_char_n11,
    mn_character,
    partitions_of,
    twin_diff_char,
)
from . import supports
from .errors import EnvelopeError, IdentityCheckError
from .groups import (
    GroupSpec,
    _prime_factorization,
    automorphisms,
    double_table,
    doubling_counts,
    parse_group,
)
from .immanants import (
    determinant,
    immanant,
    immanant_orbits,
    orbit_support_size,
    perm_class_stats,
    permanent,
    twin_difference,
    twin_orbits,
)
from .minors import (
    F1,
    T2,
    T12,
    inverse_profile,
    jacobi_check,
    lemma43_scalars,
    random_specialization,
    reduction_check,
    specialized_det,
)
from .polynomials import GroupPolynomial
from .supports import (
    block_size_certificate,
    count_D,
    count_I_nearhook,
    count_P,
    hall_support,
    near_hook_coeff,
    near_hook_scalar_numerator,
    orbit_representatives,
)

HALL_GROUPS = ("c4", "c5", "c6", "c7", "c8", "c2xc2", "c2xc4", "c3xc3")
PRIME_POWER_GROUPS = (
    "c2", "c3", "c4", "c2xc2", "c5", "c7", "c8", "c2xc4", "c2xc2xc2", "c9", "c3xc3",
)
PADIC_GROUPS = ("c4", "c8", "c9")
ODD_GROUPS = ("c3", "c5", "c7", "c9", "c3xc3")
TWIN_GROUPS = ("c7", "c9", "c3xc3")
JACOBI_GROUPS = ("c3", "c4", "c5", "c6", "c7", "c8", "c2xc2", "c2xc4", "c2xc2xc2")
SCALAR_GROUPS = ("c3", "c5", "c7", "c9")
REDUCTION_GROUPS = ("c6", "c7", "c8", "c9")
REGULAR_CHAR_GROUPS = ("c2", "c3", "c4", "c2xc2", "c5", "c6")
TWO_MOD_FOUR_GROUPS = ("c6", "c10")
MASTER_FORMULA_GROUPS = ("c6", "c7")

MINOR_SEEDS = 5
REDUCTION_SEEDS = 3


@dataclass
class VerifyReport:
    """Machine-parseable outcome of one theorem check on one group."""

    theorem: str
    group: str
    params: dict = field(default_factory=dict)
    status: str = "pass"  # pass, fail, skipped or error
    witness: str | dict | None = None
    seconds: float = 0.0

    def to_json_dict(self, with_timings: bool = False) -> dict:
        out = {
            "theorem": self.theorem,
            "group": self.group,
            "params": self.params,
            "status": self.status,
            "witness": self.witness,
        }
        if with_timings:
            out["seconds"] = round(self.seconds, 3)
        return out


class SkipCheck(Exception):
    """A check whose theorem hypothesis the group does not satisfy."""


def _require(condition: bool, reason: str) -> None:
    if not condition:
        raise SkipCheck(reason)


def _report(theorem: str, group: str, params: dict, outcome, seconds: float = 0.0) -> VerifyReport:
    """Sort a check's outcome: None passes, a witness fails, and an exception
    is a skip (unmet hypothesis or envelope), a failure (broken identity or
    arithmetic) or a crash, whose traceback goes to stderr.
    """
    status, witness = ("pass" if outcome is None else "fail"), outcome
    if isinstance(outcome, (EnvelopeError, SkipCheck)):
        status, witness = "skipped", str(outcome)
    elif isinstance(outcome, (IdentityCheckError, ArithmeticError, ValueError)):
        status, witness = "fail", f"{type(outcome).__name__}: {outcome}"
    elif isinstance(outcome, Exception):
        traceback.print_exception(outcome, file=sys.stderr)
        status, witness = "error", f"{type(outcome).__name__}: {outcome}"
    return VerifyReport(theorem, group, params, status, witness, seconds)


def _run(theorem: str, group: str, params: dict, fn, *args) -> VerifyReport:
    start = time.perf_counter()
    try:
        outcome = fn(*args)
    except Exception as exc:  # noqa: BLE001 - a crash is reported; the other checks still run
        outcome = exc
    return _report(theorem, group, params, outcome, time.perf_counter() - start)


def exit_code(reports: list[VerifyReport]) -> int:
    """0 if every check passed or was skipped, 4 if one crashed, else 1 if one failed."""
    statuses = {r.status for r in reports}
    if "error" in statuses:
        return 4
    return 1 if "fail" in statuses else 0


def _groups(names, override, max_order):
    chosen = tuple(names if override is None else override)
    if not chosen:
        raise ValueError("an empty group list checks nothing")
    specs = [parse_group(name) for name in chosen]
    if max_order is not None:
        specs = [s for s in specs if s.order <= max_order]
    return specs


class MinorCheck(NamedTuple):
    """An exact minor identity checked at seeded random points.

    body(spec, rho) returns if the identity holds at rho and raises
    IdentityCheckError, naming the first broken equation, if not; a
    uses_twin body also takes twin=, the twin-immanant difference, swept once
    per group rather than once per seed.  odd_order and min_order are the
    identity's hypothesis.
    """

    body: Callable
    odd_order: bool = False
    min_order: int = 1
    uses_twin: bool = False


def _f1_body(spec, rho):
    lhs, rhs = F1(spec, rho), specialized_det(spec, rho)
    if lhs != rhs:
        raise IdentityCheckError("F1 = det", lhs, rhs)


def _t2t12_body(spec, rho):
    lhs, rhs = T12(spec, rho), T2(spec, rho)
    if lhs != rhs:
        raise IdentityCheckError("T12 = T2", lhs, rhs)


MINOR_CHECKS = {
    "conv": MinorCheck(inverse_profile),
    "jacobi": MinorCheck(jacobi_check),
    "f1": MinorCheck(_f1_body, odd_order=True),
    "t2t12": MinorCheck(_t2t12_body, odd_order=True),
    "scalars": MinorCheck(lemma43_scalars, odd_order=True),
    "reduction": MinorCheck(reduction_check, min_order=6, uses_twin=True),
}


def _minor_outcomes(
    names, spec: GroupSpec, seeds: int, seed: int, value_range: int = 32
) -> dict[str, dict | None | Exception]:
    """The outcome of each named minor check over seeds seed, seed+1, ...

    Hypotheses are tested, and the twin swept, before the first seed; then
    one specialization is drawn per seed and every live check runs at it
    before the next, so they read one minor table per seed.  An outcome is
    the check's first counterexample, taken from the IdentityCheckError it
    raised, None, or the exception that stopped it; a draw that raises stops
    every live check.
    """
    outcomes: dict = dict.fromkeys(names)
    live = {}  # name -> body of each check with no outcome yet
    for name in outcomes:
        check = MINOR_CHECKS[name]
        try:
            _require(not check.odd_order or spec.order % 2 == 1, "odd order required")
            _require(spec.order >= check.min_order, f"group order below {check.min_order}")
            live[name] = (partial(check.body, twin=twin_difference(spec)) if check.uses_twin
                          else check.body)
        except Exception as exc:  # noqa: BLE001 - sorted per check by _report
            outcomes[name] = exc
    for s in range(seed, seed + seeds):
        if not live:
            break
        try:
            rho = random_specialization(spec, s, value_range)
        except Exception as exc:  # noqa: BLE001 - every live check's outcome
            outcomes.update(dict.fromkeys(live, exc))
            break
        for name, body in live.items():
            try:
                body(spec, rho)
            except IdentityCheckError as exc:
                outcomes[name] = {"seed": s, "equation": exc.equation, "lhs": str(exc.lhs),
                                  "rhs": str(exc.rhs)}
            except Exception as exc:  # noqa: BLE001 - sorted per check by _report
                outcomes[name] = exc
        live = {name: body for name, body in live.items() if outcomes[name] is None}
    return outcomes


def run_minor_checks(
    names, spec: GroupSpec, seeds: int, seed: int = 1, value_range: int = 32
) -> list[VerifyReport]:
    """One report per named minor check; a failure's witness is its counterexample.

    No name or fewer than one seed would check nothing: ValueError.
    """
    if not names:
        raise ValueError("no minor check named")
    if seeds < 1:
        raise ValueError(f"seeds must be at least 1, got {seeds}")
    for name in names:
        if name not in MINOR_CHECKS:
            raise ValueError(f"unknown check {name!r} (choose from {', '.join(MINOR_CHECKS)})")
    outcomes = _minor_outcomes(names, spec, seeds, seed, value_range)
    return [_report(name, spec.name, {}, outcomes[name]) for name in names]


def _minor_witness(names, seeds: int, spec: GroupSpec, seed: int) -> str | None:
    for outcome in _minor_outcomes(names, spec, seeds, seed).values():
        if isinstance(outcome, Exception):
            raise outcome
        if outcome is not None:
            return "{equation}: {lhs} != {rhs} at seed {seed}".format(**outcome)
    return None


DET_C3 = {(3, 0, 0): -1, (0, 3, 0): -1, (0, 0, 3): -1, (1, 1, 1): 3}
PER_C3 = {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1, (1, 1, 1): 3}


def _require_prime_power(spec: GroupSpec) -> None:
    n = spec.order
    _require(len(_prime_factorization(n)) == 1, f"order {n} is not a prime power")


def _near_hook_shapes(n: int) -> tuple[Partition, Partition]:
    """The hook (n-1,1) and the cohook (2,1^(n-2))."""
    return Partition((n - 1, 1)), Partition((2,) + (1,) * (n - 2))


def _near_hook_counts(spec: GroupSpec) -> tuple[int, int]:
    """The term counts of imm_(n-1,1) and imm_(2,1^(n-2)), folded from their orbit tables."""
    return tuple(orbit_support_size(immanant_orbits(spec, lam))
                 for lam in _near_hook_shapes(spec.order))


def _near_hook_path(spec: GroupSpec) -> str:
    """Up to order 8 the near-hook counts are also read off the engine."""
    return "bruteforce" if spec.order <= 8 else "formula"


def _c3_ground_truth(spec, seed):
    _require(spec.factors == (3,), f"{spec.name} is not c3")
    if determinant(spec) != GroupPolynomial.from_terms(spec, DET_C3):
        return "det(M_C3) differs from the expanded form"
    if permanent(spec) != GroupPolynomial.from_terms(spec, PER_C3):
        return "per(M_C3) differs from the expanded form"
    if (count_P(spec), count_D(spec)) != (4, 4):
        return f"(P, D)(C3) = {(count_P(spec), count_D(spec))} != (4, 4)"
    return None


def _hall_permanent_support(spec, seed):
    # the engine expands orbit_representatives and the check reads the walk,
    # both ascending, so a monomial lost by one route fails at the first
    # position where they part; the closed form sees one lost by both
    hall = hall_support(spec)
    for i, (got, walked) in enumerate(itertools.zip_longest(sorted(permanent(spec).terms), hall)):
        if got != walked:
            return f"support mismatch at monomial {i}: permanent {got}, Hall walk {walked}"
    closed = count_P(spec)
    if len(hall) != closed:
        return f"|hall_support| = {len(hall)} != closed-form P = {closed}"
    return None


def _prime_power_p_equals_d(spec, seed):
    _require_prime_power(spec)
    # D first: it refuses a group above the Hall envelope before P is counted
    d, p = count_D(spec), count_P(spec)
    if p != d:
        return f"P = {p} != D = {d}"
    if spec.order <= 8:
        if orbit_support_size(immanant_orbits(spec, Partition((spec.order,)))) != p:
            return "formula P differs from the immanant engine"
        # the engine's determinant reads det_coeff, as count_D does, so D is
        # checked against the signed counts of the class walks, one per orbit
        walked = sum(size for rep, size in orbit_representatives(spec)
                     if perm_class_stats(spec, rep).d_m)
        if walked != d:
            return "formula D differs from the immanant engine"
    return None


def _padic_certificate(spec, seed):
    _require_prime_power(spec)
    supports.check_hall_envelope(spec)  # before the certificate's DP and the automorphisms
    certificate = block_size_certificate(spec)
    # the zero-sum fold is constant on automorphism orbits, so it is read on
    # each orbit's least member
    pullbacks = [itemgetter(*phi) for phi in automorphisms(spec)]
    for mono, _ in supports.orbit_stream(spec, pullbacks):
        profile = supports._counts_profile(spec, mono)
        if profile != certificate:
            return f"zero-sum fold gives {profile}, not the size certificate, at {mono}"
    return None


def _odd_order_near_hooks_vanish(spec, seed):
    _require(spec.order % 2 == 1, f"order {spec.order} is not odd")
    hook, cohook = _near_hook_counts(spec)
    if hook:
        return f"imm_(n-1,1) has {hook} terms"
    if cohook:
        return f"imm_(2,1^(n-2)) has {cohook} terms"
    for mono in hall_support(spec):
        if near_hook_scalar_numerator(spec, mono) != 0:
            return f"scalar numerator nonzero at {mono}"
    return None


def _two_mod_four_near_hook_counts(spec, seed):
    _require(spec.order % 4 == 2, f"order {spec.order} is not 2 mod 4")
    counts = count_I_nearhook(spec)
    if _near_hook_path(spec) == "bruteforce":
        if counts != _near_hook_counts(spec):
            return f"formula counts {counts} differ from the immanant engine"
    expected = (count_P(spec), count_D(spec))
    if counts != expected:
        return f"(I_hook, I_cohook) = {counts} != (P, D) = {expected}"
    return None


def _near_hook_master_formula(spec, seed):
    hook, cohook = (immanant(spec, lam) for lam in _near_hook_shapes(spec.order))
    for mono in hall_support(spec):
        got = near_hook_coeff(spec, mono, perm_class_stats(spec, mono))
        expected = (hook.coefficient(mono), cohook.coefficient(mono))
        if got != expected:
            return f"coefficient mismatch {got} != {expected} at {mono}"
    return None


def _odd_order_twin_immanants(spec, seed):
    _require(spec.order % 2 == 1 and spec.order >= 7, f"order {spec.order} is not odd and >= 7")
    terms = orbit_support_size(twin_orbits(spec))
    if terms:
        return f"twin difference has {terms} terms"
    return None


def _even_cyclic_twin_x0_coefficient(spec, seed):
    n = spec.order
    _require(
        spec.rank == 1 and n % 2 == 0 and n >= 6,
        f"{spec.name} is not an even cyclic group of order >= 6",
    )
    expected = (3 - n) * (-1) ** ((n - 2) // 2)
    # the orbit of x_0^n is {x_(2*gamma)^n}; its least member, the table's
    # representative, puts n at the largest index of 2G
    top = max(double_table(spec))
    least = tuple(n if g == top else 0 for g in range(n))
    got = {rep: coeff for rep, _, coeff in twin_orbits(spec)}[least]
    if got != expected:
        return f"[x_0^{n}] twin difference = {got} != {expected}"
    return None


def _closed_character_forms(spec, seed):
    for n in range(6, 10):
        hook = Partition((n - 1, 1))
        cohook = Partition((2,) + (1,) * (n - 2))
        h3 = Partition((n - 3, 1, 1, 1))
        j3 = Partition((n - 3, 3))
        twin_a = Partition((4,) + (1,) * (n - 4))
        twin_b = Partition((2, 2, 2) + (1,) * (n - 6))
        for mu in partitions_of(n):
            pairs = [
                (hook_char_n11(mu), mn_character(hook, mu)),
                (cohook_char(mu), mn_character(cohook, mu)),
                (char_n3_111(mu), mn_character(h3, mu)),
                (char_n3_3(mu), mn_character(j3, mu)),
                (twin_diff_char(mu), mn_character(twin_a, mu) - mn_character(twin_b, mu)),
            ]
            for got, expected in pairs:
                if got != expected:
                    return f"closed form {got} != MN {expected} on class {mu.parts}"
    return None


def _regular_character_identity(spec, seed):
    # sum_lam dim(lam) imm_lam = n! prod_a x_{2a}, folded per orbit: the
    # doubling monomial is fixed by every affine map, so the sum must be n!
    # on its orbit of size 1 and 0 on every other orbit
    n = spec.order
    tables = [(dimension(lam), immanant_orbits(spec, lam)) for lam in partitions_of(n)]
    sums = [(rep, size, sum(dim * table[k][2] for dim, table in tables))
            for k, (rep, size, _) in enumerate(tables[0][1])]
    if [entry for entry in sums if entry[2]] != [(doubling_counts(spec), 1, math.factorial(n))]:
        return "regular-character sum differs from n! * prod x_{2a}"
    return None


class Check(NamedTuple):
    """One theorem of one suite, checked on each group of a default list.

    body(spec, seed) returns None or a failure witness, and params(spec) is
    the report's params.  groups is None for a check on no group.
    """

    suite: str
    theorem: str
    groups: tuple[str, ...] | None
    body: Callable
    params: Callable


def _no_params(spec):
    return {}


def _order_param(spec):
    return {"order": spec.order}


# Every theorem-level check, in report order; "all" runs the suites in the
# order they first appear here.
CHECKS = (
    Check("hall", "c3-ground-truth", ("c3",), _c3_ground_truth, _no_params),
    Check("hall", "hall-permanent-support", HALL_GROUPS, _hall_permanent_support, _no_params),
    Check("thm13", "prime-power-P-equals-D", PRIME_POWER_GROUPS, _prime_power_p_equals_d,
          _order_param),
    Check("thm13", "padic-certificate", PADIC_GROUPS, _padic_certificate, _no_params),
    Check("thm14", "odd-order-near-hooks-vanish", ODD_GROUPS, _odd_order_near_hooks_vanish,
          _no_params),
    Check("thm14", "two-mod-four-near-hook-counts", TWO_MOD_FOUR_GROUPS,
          _two_mod_four_near_hook_counts, lambda spec: {"path": _near_hook_path(spec)}),
    Check("thm14", "near-hook-master-formula", MASTER_FORMULA_GROUPS, _near_hook_master_formula,
          _no_params),
    Check("thm15", "odd-order-twin-immanants", TWIN_GROUPS, _odd_order_twin_immanants,
          _no_params),
    Check("prop42", "even-cyclic-twin-x0-coefficient", ("c6", "c8"),
          _even_cyclic_twin_x0_coefficient, _order_param),
    Check("jacobi", "jacobi-complementary-minors", JACOBI_GROUPS,
          partial(_minor_witness, ("conv", "jacobi"), MINOR_SEEDS),
          lambda spec: {"seeds": MINOR_SEEDS}),
    Check("scalars", "odd-order-minor-scalars", SCALAR_GROUPS,
          partial(_minor_witness, ("f1", "t2t12", "scalars"), MINOR_SEEDS),
          lambda spec: {"seeds": MINOR_SEEDS}),
    Check("scalars", "principal-minor-reduction", REDUCTION_GROUPS,
          partial(_minor_witness, ("reduction",), REDUCTION_SEEDS),
          lambda spec: {"seeds": REDUCTION_SEEDS}),
    Check("charlayer", "closed-character-forms", None, _closed_character_forms, _no_params),
    Check("charlayer", "regular-character-identity", REGULAR_CHAR_GROUPS,
          _regular_character_identity, _no_params),
)


def _rows(suites, groups, max_order) -> list[tuple[Check, GroupSpec | None]]:
    """The (check, group) rows of the suites, in table order; None is S_6..S_9."""
    rows = []
    for check in CHECKS:
        if check.suite not in suites:
            continue
        if check.groups is None:
            # A check on S_6..S_9, not on a group, runs only when neither
            # --groups nor a --max-order below 9 narrows the suite.
            if groups is None and (max_order is None or max_order >= 9):
                rows.append((check, None))
            continue
        rows.extend((check, spec) for spec in _groups(check.groups, groups, max_order))
    return rows


def _shards(rows) -> list[list[int]]:
    """Row indices grouped by group, largest group order first, ties in table order.

    A group's rows form one shard, so its class walks, orbit stream and minor
    tables stay in one process's memo.  The S_6..S_9 row is a shard of its
    own, run last.
    """
    by_spec: dict[GroupSpec | None, list[int]] = {}
    for i, (_, spec) in enumerate(rows):
        by_spec.setdefault(spec, []).append(i)

    def order(shard):
        spec = rows[shard[0]][1]
        return 0 if spec is None else spec.order

    return sorted(by_spec.values(), key=order, reverse=True)


def _worker_count(shards: int) -> int:
    """How many processes drain the shard queue, this one included."""
    return min(len(os.sched_getaffinity(0)), shards)


_INDEX_BYTES = 4  # one shard index on the queue pipe


def _drain(queue: int, rows, shards, seed: int) -> list[tuple[int, VerifyReport]]:
    """Run the shards read off the queue until it is empty: (row index, report) pairs."""
    pairs = []
    while index := os.read(queue, _INDEX_BYTES):
        for i in shards[int.from_bytes(index, "little")]:
            check, spec = rows[i]
            group = "s6..s9" if spec is None else spec.name
            pairs.append((i, _run(check.theorem, group, check.params(spec), check.body, spec,
                                  seed)))
    return pairs


def _work(queue: int, rows, shards, seed: int, result: int) -> NoReturn:
    """A forked worker: drain the queue, pickle its pairs into the result pipe, exit.

    It leaves by os._exit, so it never unwinds into its caller's frames and
    never flushes a buffer it inherited.  Any exception exits nonzero.
    """
    import pickle

    code = 1
    try:
        with open(result, "wb") as pipe:
            pickle.dump(_drain(queue, rows, shards, seed), pipe)
        code = 0
    except BaseException:  # noqa: BLE001 - the worker exits here; the parent sees the code
        traceback.print_exc()
    finally:
        try:
            sys.stderr.flush()
        finally:
            os._exit(code)


def _forked_pairs(queue: int, rows, shards, seed: int, workers: int):
    """Drain the queue here and in `workers` forked processes; every (row, report) pair.

    With workers <= 0 nothing forks and this process drains the queue alone.
    A worker that exits nonzero raises RuntimeError.  Every worker is reaped
    before this returns or raises, and one still running is killed first.
    """
    import pickle
    import signal

    sys.stdout.flush()
    sys.stderr.flush()  # a worker must not write the parent's buffered text again
    results: list[int] = []  # read end of each worker's result pipe
    running: list[int] = []  # pids not yet reaped
    try:
        for _ in range(workers):
            result, into = os.pipe()
            results.append(result)
            try:
                pid = os.fork()
                if pid == 0:
                    _work(queue, rows, shards, seed, into)
            finally:
                os.close(into)
            running.append(pid)
        pairs = _drain(queue, rows, shards, seed)
        for pid, result in zip(list(running), results):
            with open(result, "rb", closefd=False) as pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            running.remove(pid)
            if status != 0:
                raise RuntimeError(
                    f"a verify worker exited with code {os.waitstatus_to_exitcode(status)}")
            pairs += pickle.loads(data)
        return pairs
    finally:
        for result in results:
            os.close(result)
        for pid in running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _run_checks(suites, groups=None, max_order=None, seed: int = 1) -> list[VerifyReport]:
    """One report per (check, group) row of the suites, in table order.

    The shards go on a pipe as fixed-width indices, largest group first.  This
    process and up to one forked worker per further CPU read it until it is
    empty, and each report is put back at its row index.
    """
    rows = _rows(suites, groups, max_order)
    shards = _shards(rows)
    queue, feed = os.pipe()
    try:
        os.write(feed, b"".join(i.to_bytes(_INDEX_BYTES, "little") for i in range(len(shards))))
    finally:
        os.close(feed)
    try:
        pairs = _forked_pairs(queue, rows, shards, seed, _worker_count(len(shards)) - 1)
    finally:
        os.close(queue)
    reports: list = [None] * len(rows)
    for i, report in pairs:
        reports[i] = report
    missing = sum(report is None for report in reports)
    if missing:
        raise RuntimeError(f"{missing} of {len(rows)} verify rows came back without a report")
    return reports


_SUITE_FUNCS = {s: partial(_run_checks, (s,)) for s in dict.fromkeys(c.suite for c in CHECKS)}
SUITES = (*_SUITE_FUNCS, "all")
# Bound only because perfbench/inproc.py traces suite_* and patches _SUITE_FUNCS;
# run_suite calls _run_checks itself.
globals().update({f"suite_{name}": fn for name, fn in _SUITE_FUNCS.items()})


def run_suite(suite: str, groups=None, max_order=None, seed: int = 1) -> list[VerifyReport]:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r} (choose from {', '.join(SUITES)})")
    suites = tuple(_SUITE_FUNCS) if suite == "all" else (suite,)
    return _run_checks(suites, groups, max_order, seed)
