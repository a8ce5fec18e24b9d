"""Command-line entry point.

Subcommands: imm, twin, support, padic, minors, verify, explore,
search-pd-gap.  Output is JSON on stdout (CSV for padic) unless --out is
given; all randomness sits behind --seed.  Exit codes: 0 ok, 1 check failed
(a verify check, or an IdentityCheckError or ArithmeticError anywhere), 2
usage or parse error, 3 enumeration envelope exceeded, 4 any other exception,
with its traceback on stderr (4 wins over 1).  search-pd-gap writes one
progress line per group to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import json
import sys
import time
import traceback
from collections.abc import Iterator

from .characters import Partition, partitions_of
from .errors import EnvelopeError
from .groups import GroupSpec, _prime_factorization, parse_group
from .immanants import (
    check_sweep_envelope,
    immanant,
    perm_class_stats,
    twin_difference,
)
from .minors import IdentityCheckError
from .supports import (
    check_hall_envelope,
    count_D,
    count_I_nearhook,
    count_P,
    det_coeff,
    monomial_sequence,
    near_hook_coeff,
    padic_profile,
    padic_profiles,
    per_monomial,
)
from .verify import MINOR_CHECKS, SUITES, exit_code, run_minor_checks, run_suite


def _group_arg(text: str) -> GroupSpec:
    try:
        return parse_group(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _name_list(text: str) -> list[str]:
    """A comma list of names; an empty list or name selects nothing and a
    repeated name would run its check twice, so both are refused.
    """
    names = text.split(",")
    if "" in names:
        raise argparse.ArgumentTypeError(f"empty name in comma list {text!r}")
    if len(set(names)) != len(names):
        raise argparse.ArgumentTypeError(f"repeated name in comma list {text!r}")
    return names


def _partition_arg(text: str) -> Partition:
    try:
        parts = tuple(int(p) for p in text.split(","))
        return Partition(parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad partition {text!r}: {exc}")


def _emit(payload: str | Iterator[str], out: str | None) -> None:
    """Write a CSV string or streamed JSON chunks to --out or to stdout.

    Chunks are joined into blocks of 4096 before writing, since one write
    per chunk is slow on a pipe.  Stdout always ends with a newline; a file
    gets the payload as it is.
    """
    chunks = iter((payload,) if isinstance(payload, str) else payload)
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as handle:
        last = ""
        while block := "".join(itertools.islice(chunks, 4096)):
            handle.write(block)
            last = block
        if not out and not last.endswith("\n"):
            handle.write("\n")


def _json(data) -> Iterator[str]:
    return json.JSONEncoder(indent=2, sort_keys=True).iterencode(data)


def cmd_imm(args) -> int:
    spec = args.group
    poly = immanant(spec, args.partition)
    doc = poly.to_json_dict()
    summary = {
        "group": spec.name,
        "partition": list(args.partition.parts),
        "mode": "bruteforce",
        "support_size": poly.support_size,
    }
    if args.out:
        # the file carries the bare polynomial schema; stdout the summary
        _emit(_json(doc), args.out)
        summary["out"] = args.out
        _emit(_json(summary), None)
    else:
        _emit(_json(doc | summary), None)
    return 0


def cmd_twin(args) -> int:
    poly = twin_difference(args.group)
    doc = {"group": args.group.name, "support_size": poly.support_size}
    if args.out:
        _emit(_json(poly.to_json_dict()), args.out)
        doc["out"] = args.out
    _emit(_json(doc), None)
    return 0


def cmd_support(args) -> int:
    spec = args.group
    if args.report == "full":
        # the rows walk classes: refuse before the Hall support or any count
        check_hall_envelope(spec)
        check_sweep_envelope(spec)
    hook, cohook = count_I_nearhook(spec)
    doc = {
        "group": spec.name,
        "P": count_P(spec),
        "D": count_D(spec),
        "I_hook": hook,
        "I_cohook": cohook,
    }
    if args.report == "full":
        # every column is constant on an affine orbit

        def row(rep):
            stats = perm_class_stats(spec, rep)
            h, c = near_hook_coeff(spec, rep, stats)
            return {
                "p_m": stats.p_m,
                "d_m": stats.d_m,
                "det_coeff": det_coeff(spec, rep),
                "hook_coeff": h,
                "cohook_coeff": c,
            }

        doc["monomials"] = [{"exp": list(mono)} | values
                            for mono, values in per_monomial(spec, row)]
    _emit(_json(doc), args.out)
    return 0


def _format_element(element) -> str:
    return ":".join(str(r) for r in element)


def _parse_sequence(text: str):
    out = []
    for chunk in text.split(","):
        residues = tuple(int(r) for r in chunk.strip().split(":"))
        out.append(residues)
    return tuple(out)


def cmd_padic(args) -> int:
    spec = args.group
    if len(_prime_factorization(spec.order)) != 1:
        print(f"error: {spec.name} does not have prime-power order", file=sys.stderr)
        return 2
    if args.all:
        profiles = [(monomial_sequence(spec, m), prof) for m, prof in padic_profiles(spec)]
    else:
        seq = _parse_sequence(args.sequence)
        profiles = [(seq, padic_profile(spec, seq))]
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["sequence", "min_valuation", "strictly_minimal"])
    for seq, profile in profiles:
        rendered = " ".join(_format_element(g) for g in seq)
        writer.writerow([rendered, profile.min_valuation, profile.strictly_minimal])
    _emit(buffer.getvalue(), args.out)
    return 0


def cmd_minors(args) -> int:
    names = args.checks or list(MINOR_CHECKS)
    reports = run_minor_checks(names, args.group, args.seeds, args.seed, args.range)
    checks = {r.theorem: {"status": r.status, "counterexample": r.witness} for r in reports}
    _emit(_json({"group": args.group.name, "seeds": args.seeds, "checks": checks}), args.out)
    return exit_code(reports)


def cmd_verify(args) -> int:
    reports = run_suite(args.suite, groups=args.groups, max_order=args.max_order,
                        seed=args.seed)
    if not reports:
        # a run that checks nothing must not report a pass
        print(f"error: --groups/--max-order leave no check in suite {args.suite!r}",
              file=sys.stderr)
        return 2
    doc = {
        "suite": args.suite,
        "reports": [r.to_json_dict(with_timings=args.timings) for r in reports],
        "passed": exit_code(reports) == 0,
    }
    _emit(_json(doc), args.out)
    return exit_code(reports)


def cmd_explore(args) -> int:
    n = args.n
    spec = GroupSpec((n,))
    if n % 2 == 0 or n < 7:
        print("error: conjecture 3 concerns odd n >= 7", file=sys.stderr)
        return 2
    poly = immanant(spec, Partition((n - 2, 1, 1)))
    doc = {
        "conjecture": 3,
        "group": spec.name,
        "I_(n-2,1,1)": poly.support_size,
        "P": count_P(spec),
        "equal": poly.support_size == count_P(spec),
        "note": "reported for exploration; no result is asserted",
    }
    _emit(_json(doc), args.out)
    return 0


def _abelian_groups_of_order(order: int) -> list[GroupSpec]:
    specs = [[]]
    for p, e in sorted(_prime_factorization(order).items()):
        extended = []
        for lam in partitions_of(e):
            factors = [p**part for part in lam.parts]
            extended.extend(base + factors for base in specs)
        specs = extended
    # present each group by its invariant factors, e.g. c6 rather than c2xc3
    return sorted(
        {GroupSpec(GroupSpec(tuple(sorted(f))).canonical_form()) for f in specs},
        key=lambda s: s.factors,
    )


def cmd_search_pd_gap(args) -> int:
    specs = [
        spec
        for order in range(2, args.max_order + 1)
        for spec in _abelian_groups_of_order(order)
    ]
    for spec in specs:
        check_hall_envelope(spec)  # refuse the whole run before any count
    rows = []
    gap_orders = set()
    for spec in specs:
        order = spec.order
        start = time.perf_counter()
        p, d = count_P(spec), count_D(spec)
        print(
            f"order {order:3d}  {spec.name:<12} P = {p:7d}  D = {d:7d}  "
            f"{'D<P' if d < p else '   '}  ({time.perf_counter() - start:.1f}s)",
            file=sys.stderr,
            flush=True,
        )
        rows.append({"group": spec.name, "order": order, "P": p, "D": d,
                     "gap": d < p})
        if d < p:
            gap_orders.add(order)
    doc = {
        "max_order": args.max_order,
        "groups": rows,
        "gap_orders": sorted(gap_orders),
        "note": "reported for exploration; no result is asserted",
    }
    _emit(_json(doc), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cayley-imm",
        description="Exact immanants of Cayley-table matrices of finite abelian groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, group=True):
        if group:
            p.add_argument("--group", type=_group_arg, required=True,
                           help="group spec, e.g. c3 or c2xc4")
        p.add_argument("--out", help="write output to this file instead of stdout")

    p = sub.add_parser("imm", help="compute one immanant as a sparse polynomial")
    add_common(p)
    p.add_argument("--partition", type=_partition_arg, required=True,
                   help="comma-separated decreasing parts, e.g. 4,1,1,1")
    p.set_defaults(func=cmd_imm)

    p = sub.add_parser("twin", help="support size of the twin-immanant difference")
    add_common(p)
    p.set_defaults(func=cmd_twin)

    p = sub.add_parser("support", help="P, D and near-hook support counts")
    add_common(p)
    p.add_argument("--report", choices=("counts", "full"), default="counts")
    p.set_defaults(func=cmd_support)

    p = sub.add_parser("padic", help="valuation profiles of zero-sum sequences")
    add_common(p)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--all", action="store_true",
                      help="profile every zero-sum multiset of length n")
    mode.add_argument("--sequence",
                      help="one sequence, elements comma-separated, residues colon-joined")
    p.set_defaults(func=cmd_padic)

    p = sub.add_parser("minors", help="exact minor-identity checks at random points")
    add_common(p)
    p.add_argument("--seeds", type=_int_at_least(1), default=5)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--range", type=_int_at_least(2), default=32)
    p.add_argument("--checks", type=_name_list,
                   help=f"comma list from: {','.join(MINOR_CHECKS)}")
    p.set_defaults(func=cmd_minors)

    p = sub.add_parser("verify", help="run a theorem-verification suite")
    p.add_argument("--suite", choices=SUITES, required=True)
    p.add_argument("--groups", type=_name_list,
                   help="comma list of group specs overriding the defaults")
    p.add_argument("--max-order", type=int, default=None)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--timings", action="store_true",
                   help="include wall times (breaks byte-identical output)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("explore", help="numerical exploration of open items")
    p.add_argument("--conjecture", type=int, required=True, choices=(3,))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("search-pd-gap", help="orders where D < P (report only)")
    p.add_argument("--max-order", type=_int_at_least(2), required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_search_pd_gap)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EnvelopeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IdentityCheckError, ArithmeticError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except Exception:  # noqa: BLE001 - a crash is exit 4, never a failed check's 1
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
