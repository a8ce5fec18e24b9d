"""One-shot verification suites: every theorem-level check behind the CLI.

Each suite returns machine-parseable reports, which `_report` sorts into
pass, fail, skipped or error.  Group lists default to the orders the checks
were designed around and can be overridden, though not by an empty list;
all randomness is derived from the caller's seed.  The exact minor checks
live in one table, MINOR_CHECKS, which the jacobi/scalars suites and the
`minors` command run in one loop: seeds outer, checks inner, so all checks
at a seed read one minor table.
"""

from __future__ import annotations

import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .characters import (
    CycleType,
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
from .errors import EnvelopeError
from .groups import (
    GroupSpec,
    _prime_factorization,
    doubling_counts,
    parse_group,
)
from .immanants import (
    determinant,
    immanant,
    perm_class_stats,
    permanent,
    twin_difference,
)
from .minors import (
    F1,
    T2,
    T12,
    IdentityCheckError,
    inverse_profile,
    jacobi_check,
    lemma43_scalars,
    random_specialization,
    reduction_check,
    specialized_det,
)
from .polynomials import GroupPolynomial
from .supports import (
    count_D,
    count_I_nearhook,
    count_P,
    hall_support,
    near_hook_coeff,
    near_hook_scalar_numerator,
    padic_profiles,
    per_monomial,
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


def _report(theorem: str, group: str, params: dict, outcome, seconds: float) -> VerifyReport:
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


def _run(theorem: str, group: str, params: dict, fn) -> VerifyReport:
    start = time.perf_counter()
    try:
        outcome = fn()
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

    body(spec, rho, twin) returns None or an (equation, lhs, rhs) failure; an
    IdentityCheckError it raises is the same failure.  twin is the twin-immanant
    difference when uses_twin is set (swept once per group, not once per seed),
    else None.  odd_order and min_order are the identity's hypothesis.
    """

    body: Callable
    odd_order: bool = False
    min_order: int = 1
    uses_twin: bool = False


def _conv_body(spec, rho, twin):
    inverse_profile(spec, rho)  # raises on the first nonzero convolution residual
    return None


def _jacobi_body(spec, rho, twin):
    report = jacobi_check(spec, rho)
    if report.passed:
        return None
    subset, lhs, rhs = report.violations[0]
    return f"complementary minor {list(subset)}", lhs, rhs


def _f1_body(spec, rho, twin):
    lhs, rhs = F1(spec, rho), specialized_det(spec, rho)
    return None if lhs == rhs else ("F1 = det", lhs, rhs)


def _t2t12_body(spec, rho, twin):
    lhs, rhs = T12(spec, rho), T2(spec, rho)
    return None if lhs == rhs else ("T12 = T2", lhs, rhs)


def _scalars_body(spec, rho, twin):
    lemma43_scalars(spec, rho)
    return None


def _reduction_body(spec, rho, twin):
    report = reduction_check(spec, rho, twin=twin)
    if report.passed:
        return None
    return "twin = F1 - det + 2*(T12 - T2)", report.twin_value, report.minor_value


MINOR_CHECKS = {
    "conv": MinorCheck(_conv_body),
    "jacobi": MinorCheck(_jacobi_body),
    "f1": MinorCheck(_f1_body, odd_order=True),
    "t2t12": MinorCheck(_t2t12_body, odd_order=True),
    "scalars": MinorCheck(_scalars_body, odd_order=True),
    "reduction": MinorCheck(_reduction_body, min_order=6, uses_twin=True),
}


def _minor_outcomes(
    names, spec: GroupSpec, seeds: int, seed: int, value_range: int = 32
) -> list[tuple[dict | None | Exception, float]]:
    """(outcome, seconds) per named minor check over seeds seed, seed+1, ...

    Hypotheses are tested, and the twin swept, before the first seed; then
    every live check runs at a seed before the next, so they read one minor
    table per seed.  An outcome is the check's first counterexample, None, or
    the exception that stopped it.
    """
    checks = [MINOR_CHECKS[name] for name in names]
    outcomes: list = [None] * len(checks)
    seconds = [0.0] * len(checks)
    twins: list = [None] * len(checks)
    for i, check in enumerate(checks):
        start = time.perf_counter()
        try:
            _require(not check.odd_order or spec.order % 2 == 1, "odd order required")
            _require(spec.order >= check.min_order, f"group order below {check.min_order}")
            twins[i] = twin_difference(spec) if check.uses_twin else None
        except Exception as exc:  # noqa: BLE001 - sorted per check by _report
            outcomes[i] = exc
        seconds[i] = time.perf_counter() - start
    live = [i for i in range(len(checks)) if outcomes[i] is None]
    for s in range(seed, seed + seeds):
        for i in live:
            start = time.perf_counter()
            failure = None
            try:
                rho = random_specialization(spec, s, value_range)
                failure = checks[i].body(spec, rho, twins[i])
            except IdentityCheckError as exc:
                failure = exc.equation, exc.lhs, exc.rhs
            except Exception as exc:  # noqa: BLE001 - sorted per check by _report
                outcomes[i] = exc
            if failure is not None:
                equation, lhs, rhs = failure
                outcomes[i] = {"seed": s, "equation": equation, "lhs": str(lhs), "rhs": str(rhs)}
            seconds[i] += time.perf_counter() - start
        live = [i for i in live if outcomes[i] is None]
    return list(zip(outcomes, seconds))


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
    return [
        _report(name, spec.name, {}, outcome, seconds)
        for name, (outcome, seconds) in zip(names, outcomes)
    ]


def _minor_witness(names, spec: GroupSpec, seeds: int, seed: int) -> str | None:
    for outcome, _ in _minor_outcomes(names, spec, seeds, seed):
        if isinstance(outcome, Exception):
            raise outcome
        if outcome is not None:
            return "{equation}: {lhs} != {rhs} at seed {seed}".format(**outcome)
    return None


DET_C3 = {(3, 0, 0): -1, (0, 3, 0): -1, (0, 0, 3): -1, (1, 1, 1): 3}
PER_C3 = {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1, (1, 1, 1): 3}


def suite_hall(groups=None, max_order=None, seed=1) -> list[VerifyReport]:
    reports = []
    for spec in _groups(("c3",), groups, max_order):

        def c3_ground_truth(spec=spec):
            _require(spec.factors == (3,), f"{spec.name} is not c3")
            if determinant(spec) != GroupPolynomial.from_terms(spec, DET_C3):
                return "det(M_C3) differs from the expanded form"
            if permanent(spec) != GroupPolynomial.from_terms(spec, PER_C3):
                return "per(M_C3) differs from the expanded form"
            if (count_P(spec), count_D(spec)) != (4, 4):
                return f"(P, D)(C3) = {(count_P(spec), count_D(spec))} != (4, 4)"
            return None

        reports.append(_run("c3-ground-truth", spec.name, {}, c3_ground_truth))
    for spec in _groups(HALL_GROUPS, groups, max_order):

        def check(spec=spec):
            got = permanent(spec).support()
            expected = frozenset(hall_support(spec))
            if got != expected:
                extra = sorted(got ^ expected)[:3]
                return f"support mismatch, e.g. {extra}"
            # the engine reads its monomials from hall_support, so a missing
            # orbit would be missing from both sides above
            closed = count_P(spec)
            if len(expected) != closed:
                return f"|hall_support| = {len(expected)} != closed-form P = {closed}"
            return None

        reports.append(_run("hall-permanent-support", spec.name, {}, check))
    return reports


def suite_thm13(groups=None, max_order=None, seed=1) -> list[VerifyReport]:
    reports = []
    for spec in _groups(PRIME_POWER_GROUPS, groups, max_order):

        def check(spec=spec):
            _require(
                len(_prime_factorization(spec.order)) == 1,
                f"order {spec.order} is not a prime power",
            )
            p, d = count_P(spec), count_D(spec)
            if p != d:
                return f"P = {p} != D = {d}"
            if spec.order <= 8:
                if permanent(spec).support_size != p:
                    return "formula P differs from the immanant engine"
                # the engine's determinant reads det_coeff, as count_D does,
                # so D is checked against the signed counts of the class walks
                walked = sum(1 for _, d_m in per_monomial(
                    spec, lambda rep: perm_class_stats(spec, rep).d_m) if d_m)
                if walked != d:
                    return "formula D differs from the immanant engine"
            return None

        reports.append(
            _run("prime-power-P-equals-D", spec.name, {"order": spec.order}, check)
        )
    for spec in _groups(PADIC_GROUPS, groups, max_order):

        def check(spec=spec):
            _require(
                len(_prime_factorization(spec.order)) == 1,
                f"order {spec.order} is not a prime power",
            )
            for mono, profile in padic_profiles(spec):
                if not profile.strictly_minimal:
                    return f"one-block term not strictly minimal at {mono}"
            return None

        reports.append(_run("padic-certificate", spec.name, {}, check))
    return reports


def suite_thm14(groups=None, max_order=None, seed=1) -> list[VerifyReport]:
    reports = []
    for spec in _groups(ODD_GROUPS, groups, max_order):

        def check(spec=spec):
            n = spec.order
            _require(n % 2 == 1, f"order {n} is not odd")
            hook = immanant(spec, Partition((n - 1, 1)))
            if not hook.is_zero:
                return f"imm_(n-1,1) has {hook.support_size} terms"
            cohook = immanant(spec, Partition((2,) + (1,) * (n - 2)))
            if not cohook.is_zero:
                return f"imm_(2,1^(n-2)) has {cohook.support_size} terms"
            for mono in hall_support(spec):
                if near_hook_scalar_numerator(spec, mono) != 0:
                    return f"scalar numerator nonzero at {mono}"
            return None

        reports.append(_run("odd-order-near-hooks-vanish", spec.name, {}, check))

    for spec in _groups(TWO_MOD_FOUR_GROUPS, groups, max_order):
        path = "bruteforce" if spec.order <= 8 else "formula"

        def check(spec=spec, path=path):
            n = spec.order
            _require(n % 4 == 2, f"order {n} is not 2 mod 4")
            counts = count_I_nearhook(spec)
            if path == "bruteforce":
                hook = immanant(spec, Partition((n - 1, 1)))
                cohook = immanant(spec, Partition((2,) + (1,) * (n - 2)))
                if counts != (hook.support_size, cohook.support_size):
                    return f"formula counts {counts} differ from the immanant engine"
            expected = (count_P(spec), count_D(spec))
            if counts != expected:
                return f"(I_hook, I_cohook) = {counts} != (P, D) = {expected}"
            return None

        reports.append(
            _run("two-mod-four-near-hook-counts", spec.name, {"path": path}, check)
        )

    for spec in _groups(MASTER_FORMULA_GROUPS, groups, max_order):

        def check(spec=spec):
            n = spec.order
            hook = immanant(spec, Partition((n - 1, 1)))
            cohook = immanant(spec, Partition((2,) + (1,) * (n - 2)))
            for mono in hall_support(spec):
                stats = perm_class_stats(spec, mono)
                got = near_hook_coeff(spec, mono, stats)
                expected = (hook.coefficient(mono), cohook.coefficient(mono))
                if got != expected:
                    return f"coefficient mismatch {got} != {expected} at {mono}"
            return None

        reports.append(_run("near-hook-master-formula", spec.name, {}, check))
    return reports


def suite_thm15(groups=None, max_order=None, seed=1) -> list[VerifyReport]:
    reports = []
    for spec in _groups(TWIN_GROUPS, groups, max_order):

        def check(spec=spec):
            _require(
                spec.order % 2 == 1 and spec.order >= 7,
                f"order {spec.order} is not odd and >= 7",
            )
            diff = twin_difference(spec)
            if not diff.is_zero:
                return f"twin difference has {diff.support_size} terms"
            return None

        reports.append(_run("odd-order-twin-immanants", spec.name, {}, check))
    return reports


def suite_prop42(groups=None, max_order=None, seed=1) -> list[VerifyReport]:
    reports = []
    for spec in _groups(("c6", "c8"), groups, max_order):

        def check(spec=spec):
            n = spec.order
            _require(
                spec.rank == 1 and n % 2 == 0 and n >= 6,
                f"{spec.name} is not an even cyclic group of order >= 6",
            )
            expected = (3 - n) * (-1) ** ((n - 2) // 2)
            mono = (n,) + (0,) * (n - 1)
            got = twin_difference(spec).coefficient(mono)
            if got != expected:
                return f"[x_0^{n}] twin difference = {got} != {expected}"
            return None

        reports.append(
            _run("even-cyclic-twin-x0-coefficient", spec.name, {"order": spec.order}, check)
        )
    return reports


def suite_jacobi(groups=None, max_order=None, seed=1) -> list[VerifyReport]:
    return [
        _run("jacobi-complementary-minors", spec.name, {"seeds": MINOR_SEEDS},
             lambda spec=spec: _minor_witness(("conv", "jacobi"), spec, MINOR_SEEDS, seed))
        for spec in _groups(JACOBI_GROUPS, groups, max_order)
    ]


def suite_scalars(groups=None, max_order=None, seed=1) -> list[VerifyReport]:
    reports = [
        _run("odd-order-minor-scalars", spec.name, {"seeds": MINOR_SEEDS},
             lambda spec=spec: _minor_witness(("f1", "t2t12", "scalars"), spec, MINOR_SEEDS, seed))
        for spec in _groups(SCALAR_GROUPS, groups, max_order)
    ]
    reports += [
        _run("principal-minor-reduction", spec.name, {"seeds": REDUCTION_SEEDS},
             lambda spec=spec: _minor_witness(("reduction",), spec, REDUCTION_SEEDS, seed))
        for spec in _groups(REDUCTION_GROUPS, groups, max_order)
    ]
    return reports


def suite_charlayer(groups=None, max_order=None, seed=1) -> list[VerifyReport]:
    reports = []

    def closed_forms():
        for n in range(6, 10):
            hook = Partition((n - 1, 1))
            cohook = Partition((2,) + (1,) * (n - 2))
            h3 = Partition((n - 3, 1, 1, 1))
            j3 = Partition((n - 3, 3))
            twin_a = Partition((4,) + (1,) * (n - 4))
            twin_b = Partition((2, 2, 2) + (1,) * (n - 6))
            for p in partitions_of(n):
                mu = CycleType(p.parts)
                pairs = [
                    (hook_char_n11(mu), mn_character(hook, mu)),
                    (cohook_char(mu), mn_character(cohook, mu)),
                    (char_n3_111(mu), mn_character(h3, mu)),
                    (char_n3_3(mu), mn_character(j3, mu)),
                    (
                        twin_diff_char(mu),
                        mn_character(twin_a, mu) - mn_character(twin_b, mu),
                    ),
                ]
                for got, expected in pairs:
                    if got != expected:
                        return f"closed form {got} != MN {expected} on class {mu.lengths}"
        return None

    # The closed forms are checked on S_6..S_9, not on a group: they run only
    # when neither --groups nor a --max-order below 9 narrows the suite.
    if groups is None and (max_order is None or max_order >= 9):
        reports.append(_run("closed-character-forms", "s6..s9", {}, closed_forms))
    for spec in _groups(REGULAR_CHAR_GROUPS, groups, max_order):

        def check(spec=spec):
            n = spec.order
            total = GroupPolynomial.zero(spec)
            for lam in partitions_of(n):
                total = total.add_scaled(immanant(spec, lam), dimension(lam))
            expected = GroupPolynomial.from_terms(
                spec, {tuple(doubling_counts(spec)): math.factorial(n)}
            )
            if total != expected:
                return "regular-character sum differs from n! * prod x_{2a}"
            return None

        reports.append(_run("regular-character-identity", spec.name, {}, check))
    return reports


# The single ordered registry of suites; "all" runs them in this order.
_SUITE_FUNCS = {
    "hall": suite_hall,
    "thm13": suite_thm13,
    "thm14": suite_thm14,
    "thm15": suite_thm15,
    "prop42": suite_prop42,
    "jacobi": suite_jacobi,
    "scalars": suite_scalars,
    "charlayer": suite_charlayer,
}
SUITES = (*_SUITE_FUNCS, "all")


def run_suite(suite: str, groups=None, max_order=None, seed: int = 1) -> list[VerifyReport]:
    if suite == "all":
        return [r for fn in _SUITE_FUNCS.values() for r in fn(groups, max_order, seed)]
    if suite not in _SUITE_FUNCS:
        raise ValueError(f"unknown suite {suite!r} (choose from {', '.join(SUITES)})")
    return _SUITE_FUNCS[suite](groups, max_order, seed)
