"""Command-line entry point.

Subcommands: imm, twin, support, padic, minors, verify, explore,
search-pd-gap.  Output is JSON on stdout (CSV for padic) unless --out is
given; all randomness sits behind --seed.  Exit codes: 0 ok, 1 check failed
(a verify check, or an IdentityCheckError or ArithmeticError anywhere), 2
usage or parse error or an --out file that cannot be opened (probed before
the command runs), 3 enumeration envelope exceeded, 4 any other exception,
with its traceback on stderr (4 wins over 1), 141 (as for SIGPIPE) stdout
closed by its reader, e.g. `head`.
search-pd-gap writes one progress line per group to stderr.

The package loads each layer on first read (see `__init__`), and this module
reads immanants, characters and verify only inside the commands and
arguments that use them, so `support` and `padic` load neither those nor
polynomials and minors.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from collections.abc import Iterator

from . import characters, immanants, verify
from .errors import EnvelopeError, IdentityCheckError
from .groups import GroupSpec, _prime_factorization, elements, parse_group
from .supports import (
    _prime_power,
    _walk_hall_support,
    block_size_certificate,
    check_hall_envelope,
    count_D,
    count_I_nearhook,
    count_P,
    det_coeff,
    near_hook_coeff,
    padic_profile,
    per_monomial,
)


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


def _partition_arg(text: str) -> characters.Partition:
    try:
        parts = tuple(int(p) for p in text.split(","))
        return characters.Partition(parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad partition {text!r}: {exc}")


def _open(out: str | None):
    """The --out file to write, or stdout (left open); ValueError if it cannot be opened."""
    if not out:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(out, "w")
    except OSError as exc:
        raise ValueError(f"cannot open --out file: {exc}") from None


def _probe(out: str | None) -> bool:
    """Open the --out file before the command runs; True if this created it.

    An existing file is opened for appending, so it keeps its bytes until
    the command writes it.  ValueError, as from `_open`, if it cannot be
    opened, so a bad path costs no computation.
    """
    if not out:
        return False
    existed = os.path.lexists(out)
    try:
        open(out, "a").close()
    except OSError as exc:
        raise ValueError(f"cannot open --out file: {exc}") from None
    return not existed


def _emit(doc, out: str | None) -> None:
    """Write doc as `_json` text to --out or to stdout, block by block.

    Stdout ends with a newline; a file gets the JSON text alone.
    """
    with _open(out) as handle:
        for block in _json(doc):
            handle.write(block)
        if not out:
            handle.write("\n")


# The writer joins its pieces into one block per this many array elements,
# since one write per piece is slow on a pipe and one write for the whole
# document holds all of it.
_BLOCK_ROWS = 256
_encode_str = json.encoder.encode_basestring_ascii
_int_repr = int.__repr__


def _dumps(value, newline: str) -> str:
    """json.dumps text of any value, re-indented to sit after newline."""
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", newline)


def _leaf(value, newline: str) -> str | None:
    """The text of a value that holds no array element to stream, else None.

    newline is a line break and the value's indent.  str, int and a nonempty
    list or tuple of ints take fast paths; a dict with a key that is not a
    str, and every other value that is not a container or an iterator, goes
    through json.dumps.
    """
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is int:
        return _int_repr(value)
    if kind is list or kind is tuple:
        if value and all(type(item) is int for item in value):
            inner = newline + "  "
            return "[" + inner + ("," + inner).join(map(_int_repr, value)) + newline + "]"
        return None
    if kind is dict:
        return None if all(type(key) is str for key in value) else _dumps(value, newline)
    return None if isinstance(value, Iterator) else _dumps(value, newline)


def _write(value, newline: str, parts: list[str]) -> Iterator[None]:
    """Append the text of a container to parts; yield after each array element.

    value is a str-keyed dict, a list, a tuple or an iterator, which is
    written as an array as it is consumed.
    """
    inner = newline + "  "
    if type(value) is dict:
        opener, closer, is_array = "{", "}", False
        items = ((_encode_str(key) + ": ", value[key]) for key in sorted(value))
    else:
        opener, closer, is_array = "[", "]", True
        items = (("", item) for item in value)
    separator = opener + inner
    for prefix, item in items:
        parts.append(separator + prefix)
        separator = "," + inner
        text = _leaf(item, inner)
        if text is None:
            yield from _write(item, inner, parts)
        else:
            parts.append(text)
        if is_array:
            yield
    # an empty container is written as "{}" or "[]"
    parts.append(newline + closer if separator[0] == "," else opener + closer)


def _json(data) -> Iterator[str]:
    """The text of json.dumps(data, indent=2, sort_keys=True), in blocks.

    A block holds about _BLOCK_ROWS array elements, so a document whose rows
    come from an iterator is never held whole.  An iterator anywhere in data
    is written as an array.
    """
    text = _leaf(data, "\n")
    if text is not None:
        yield text
        return
    parts: list[str] = []
    for rows, _ in enumerate(_write(data, "\n", parts), 1):
        if rows % _BLOCK_ROWS == 0:
            yield "".join(parts)
            parts.clear()
    yield "".join(parts)


def cmd_imm(args) -> int:
    spec = args.group
    poly = immanants.immanant(spec, args.partition)
    doc = {"group": spec.name, "terms": poly.json_terms()}
    summary = {
        "group": spec.name,
        "partition": list(args.partition.parts),
        "mode": "bruteforce",
        "support_size": poly.support_size,
    }
    if args.out:
        # the file carries the bare polynomial schema; stdout the summary
        _emit(doc, args.out)
        summary["out"] = args.out
        _emit(summary, None)
    else:
        _emit(doc | summary, None)
    return 0


def cmd_twin(args) -> int:
    spec = args.group
    if args.out:
        # only the file's rows expand the orbit table
        poly = immanants.twin_difference(spec)
        _emit({"group": spec.name, "terms": poly.json_terms()}, args.out)
        doc = {"group": spec.name, "support_size": poly.support_size, "out": args.out}
    else:
        doc = {"group": spec.name,
               "support_size": immanants.orbit_support_size(immanants.twin_orbits(spec))}
    _emit(doc, None)
    return 0


def cmd_support(args) -> int:
    spec = args.group
    if args.report == "full":
        # the rows walk classes: refuse before the Hall support or any count
        check_hall_envelope(spec)
        immanants.check_sweep_envelope(spec)
    hook, cohook = count_I_nearhook(spec)
    doc = {
        "group": spec.name,
        "P": count_P(spec),
        "D": count_D(spec),
        "I_hook": hook,
        "I_cohook": cohook,
    }
    if args.report == "full":
        # every column is constant on an affine orbit; per_monomial evaluates
        # every representative before it returns, so a failing row prints nothing

        def row(rep):
            stats = immanants.perm_class_stats(spec, rep)
            h, c = near_hook_coeff(spec, rep, stats)
            # d_m and det_coeff are one coefficient by two routes
            coeff = det_coeff(spec, rep)
            if coeff != stats.d_m:
                raise ArithmeticError(f"class walk d_m = {stats.d_m} != partition formula "
                                      f"det_coeff = {coeff} at {rep!r}")
            return {
                "p_m": stats.p_m,
                "d_m": stats.d_m,
                "det_coeff": coeff,
                "hook_coeff": h,
                "cohook_coeff": c,
            }

        doc["monomials"] = ({"exp": list(mono)} | values
                            for mono, values in per_monomial(spec, row))
    _emit(doc, args.out)
    return 0


def _format_element(element) -> str:
    return ":".join(str(r) for r in element)


def _parse_sequence(text: str):
    out = []
    for chunk in text.split(","):
        residues = tuple(int(r) for r in chunk.strip().split(":"))
        out.append(residues)
    return tuple(out)


# padic --all writes its CSV rows this many at a time.
_CSV_BLOCK_ROWS = 4096


def cmd_padic(args) -> int:
    spec = args.group
    # refuse a composite order, then a run above the Hall envelope or a bad
    # sequence, all before the certificate's O(n^2) DP
    _prime_power(spec)
    if args.all:
        check_hall_envelope(spec)
        labels = [_format_element(g) for g in elements(spec)]
        # every zero-sum sequence has this profile
        profile = block_size_certificate(spec)
    else:
        seq = _parse_sequence(args.sequence)
        profile = padic_profile(spec, seq)  # refuses a wrong length or a nonzero sum
    # no field ever needs CSV quoting: a sequence is digits, colons and
    # spaces, and the other two fields are an int and a bool
    tail = f",{profile.min_valuation},{profile.strictly_minimal}\r\n"
    with _open(args.out) as handle:
        handle.write("sequence,min_valuation,strictly_minimal\r\n")
        if args.all:
            # rows stream from the walk: each element label as often as its
            # exponent, in element order, the lexicographically smallest labelling
            rows = []

            def visit(mono):
                rows.append(" ".join([label for label, e in zip(labels, mono) for _ in range(e)])
                            + tail)
                if len(rows) == _CSV_BLOCK_ROWS:
                    handle.write("".join(rows))
                    rows.clear()

            _walk_hall_support(spec, visit)
            handle.write("".join(rows))
        else:
            handle.write(" ".join(map(_format_element, seq)) + tail)
    return 0


def cmd_minors(args) -> int:
    names = args.checks or list(verify.MINOR_CHECKS)
    reports = verify.run_minor_checks(names, args.group, args.seeds, args.seed, args.range)
    checks = {r.theorem: {"status": r.status, "counterexample": r.witness} for r in reports}
    _emit({"group": args.group.name, "seeds": args.seeds, "checks": checks}, args.out)
    return verify.exit_code(reports)


def cmd_verify(args) -> int:
    reports = verify.run_suite(args.suite, groups=args.groups, max_order=args.max_order,
                               seed=args.seed)
    if not reports:
        # a run that checks nothing must not report a pass
        print(f"error: --groups/--max-order leave no check in suite {args.suite!r}",
              file=sys.stderr)
        return 2
    doc = {
        "suite": args.suite,
        "reports": [r.to_json_dict(with_timings=args.timings) for r in reports],
        "passed": verify.exit_code(reports) == 0,
    }
    _emit(doc, args.out)
    return verify.exit_code(reports)


def cmd_explore(args) -> int:
    n = args.n
    spec = GroupSpec((n,))
    if n % 2 == 0 or n < 7:
        print("error: conjecture 3 concerns odd n >= 7", file=sys.stderr)
        return 2
    terms = immanants.orbit_support_size(
        immanants.immanant_orbits(spec, characters.Partition((n - 2, 1, 1))))
    doc = {
        "conjecture": 3,
        "group": spec.name,
        "I_(n-2,1,1)": terms,
        "P": count_P(spec),
        "equal": terms == count_P(spec),
        "note": "reported for exploration; no result is asserted",
    }
    _emit(doc, args.out)
    return 0


def _abelian_groups_of_order(order: int) -> list[GroupSpec]:
    specs = [[]]
    for p, e in sorted(_prime_factorization(order).items()):
        extended = []
        for lam in characters.partitions_of(e):
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
    _emit(doc, args.out)
    return 0


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser that adds its `deferred` arguments when it parses.

    `minors --checks` and `verify --suite` name the checks of verify's
    registry; they are added only when their command is parsed, so no other
    command loads verify.
    """

    def __init__(self, *args, deferred=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._deferred = deferred

    def parse_known_args(self, args=None, namespace=None):
        if self._deferred is not None:
            self._deferred(self)
            self._deferred = None
        return super().parse_known_args(args, namespace)


def _minors_checks_argument(p) -> None:
    p.add_argument("--checks", type=_name_list,
                   help=f"comma list from: {','.join(verify.MINOR_CHECKS)}")


def _verify_arguments(p) -> None:
    p.add_argument("--suite", choices=verify.SUITES, required=True)
    p.add_argument("--groups", type=_name_list,
                   help="comma list of group specs overriding the defaults")
    p.add_argument("--max-order", type=int, default=None)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--timings", action="store_true",
                   help="include wall times (breaks byte-identical output)")
    p.add_argument("--out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cayley-imm",
        description="Exact immanants of Cayley-table matrices of finite abelian groups",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)

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

    p = sub.add_parser("minors", help="exact minor-identity checks at random points",
                       deferred=_minors_checks_argument)
    add_common(p)
    p.add_argument("--seeds", type=_int_at_least(1), default=5)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--range", type=_int_at_least(2), default=32)
    p.set_defaults(func=cmd_minors)

    p = sub.add_parser("verify", help="run a theorem-verification suite",
                       deferred=_verify_arguments)
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
    created = False
    try:
        created = _probe(args.out)
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # the flush at exit would fail again and print; /dev/null takes it
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
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
        import traceback  # read on a crash only: importing it costs every call ~4 ms

        traceback.print_exc()
        return 4
    finally:
        # a run that stopped before it wrote leaves no file of the probe's
        if created and os.path.getsize(args.out) == 0:
            os.remove(args.out)


if __name__ == "__main__":
    sys.exit(main())
