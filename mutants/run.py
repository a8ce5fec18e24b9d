"""Mutation runner: does tier-1 catch each of a fixed list of one-line faults?

    python3 mutants/run.py                      # every mutant
    python3 mutants/run.py jacobi-raise f1-raise  # the named ones

Run from anywhere; it reads the checkout it sits in and writes nothing there.
Each mutant is one (file, old, new) edit.  For each, the checkout (less .git,
caches and benchmark results) is copied to a temporary directory, the edit
is applied there, and tier-1 runs in that copy with `pytest -x -q`.  A
mutant is *caught* when a test fails (the first failing test is named),
*survived* when every test passes, and *equivalent* when the list documents
that no test can tell it from the real code; an equivalent mutant is not
run, but its edit must still apply.  The unmutated copy runs first: if it
fails, no mutant is tried.

An edit whose old text does not occur exactly once in its file is stale and
stops the run before any test does.  The exit code is 0 when every
non-equivalent mutant was caught, else 1.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 900


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    equivalent: str | None = None  # why no test can tell it apart


MINORS = "src/cayley_immanants/minors.py"
POLYNOMIALS = "src/cayley_immanants/polynomials.py"
VERIFY = "src/cayley_immanants/verify.py"
SUPPORTS = "src/cayley_immanants/supports.py"
CLI = "src/cayley_immanants/cli.py"
IMMANANTS = "src/cayley_immanants/immanants.py"

MUTANTS = (
    # every raise of an exact minor identity, replaced by pass
    Mutant("conv-raise", MINORS,
           '                raise IdentityCheckError(\n'
           '                    f"sum_r x_r y_(r+s) = [s = 0] at s={s}",\n'
           '                    Fraction(residual, unit),\n'
           '                    1 if s == 0 else 0,\n'
           '                )\n',
           "                pass\n"),
    Mutant("jacobi-raise", MINORS,
           '                raise IdentityCheckError(\n'
           '                    f"complementary minor {list(subset)}",\n'
           '                    table.minor(subset),\n'
           '                    profile.delta * form(profile.y, *subset),\n'
           '                )\n',
           "                pass\n"),
    Mutant("scalars-raise", MINORS,
           "            raise IdentityCheckError(equation, Fraction(lhs, lhs_den), "
           "Fraction(rhs, rhs_den))",
           "            pass"),
    Mutant("reduction-raise", MINORS,
           '        raise IdentityCheckError("twin = F1 - det + 2*(T12 - T2)", lhs, rhs)',
           "        pass"),
    Mutant("f1-raise", VERIFY,
           '        raise IdentityCheckError("F1 = det", lhs, rhs)',
           "        pass"),
    Mutant("t2t12-raise", VERIFY,
           '        raise IdentityCheckError("T12 = T2", lhs, rhs)',
           "        pass"),
    Mutant("b4-equation-deleted", MINORS,
           '        ("B4 = S", (b4, u**3), (s_sum, u**2)),\n', "",
           equivalent="B4 = B5 for every x and y (swap j and k; w is symmetric in them), "
                      "so B4 = S fails only where B5 = S does"),
    # the other lemma 4.3 sums are computed inline, with no route to patch:
    # one factor dropped from each
    Mutant("b1-sum", MINORS,
           "                b1 += w * y2i * y2j * y2k", "                b1 += w * y2i * y2j"),
    Mutant("b2-sum", MINORS,
           "                b2 += w * yij * yik * yjk", "                b2 += w * yij * yik"),
    Mutant("b3-sum", MINORS,
           "                b3 += w * y2i * yjk**2", "                b3 += w * yjk**2"),
    Mutant("b5-sum", MINORS,
           "                b5 += w * y2k * yij**2", "                b5 += w * yij**2"),
    # the integer comparisons: the Jacobi check clears scale**|S|, and
    # evaluate divides by the denominator's power at the top degree
    Mutant("jacobi-scale-power", MINORS,
           "        cleared = det_n ** (size - 1) * table.scale**size",
           "        cleared = det_n ** (size - 1) * table.scale ** (size - 1)"),
    Mutant("evaluate-degree-minus-one", POLYNOMIALS,
           "        return Fraction(total, den**degree)",
           "        return Fraction(total, den ** (degree - 1))"),
    # the principal-minor tree: the zero-pivot fallback, Bareiss's division by
    # the previous pivot, and the bound on the indices left out
    Mutant("tree-no-zero-pivot-fallback", MINORS,
           "        if pivot == 0 and i + 1 < n:", "        if False:"),
    Mutant("tree-divides-by-new-pivot", MINORS,
           "                new[c - off - 1] = (row[c] * pivot - factor * top[c]) // prev",
           "                new[c - off - 1] = (row[c] * pivot - factor * top[c]) // pivot"),
    Mutant("tree-one-more-left-out", MINORS,
           "        if len(removed) < depth:", "        if len(removed) <= depth:"),
    # the mutation survey's survivors, since covered by a test each
    Mutant("thm13-walked-d", VERIFY,
           "        if walked != d:", "        if False:"),
    Mutant("count-p-divisibility", SUPPORTS,
           "    if total % n:\n"
           '        raise ArithmeticError(f"closed-form P sum {total} not divisible by {n}")\n',
           ""),
    Mutant("padic-strictly-minimal", SUPPORTS,
           "strictly_minimal=all(v > one_block for v in multi_block)",
           "strictly_minimal=all(v >= one_block for v in multi_block)"),
    Mutant("certificate-non-strict", SUPPORTS,
           "    if _least_split_valuation(p, r) <= one_block:",
           "    if _least_split_valuation(p, r) < one_block:"),
    Mutant("padic-certificate-fold", VERIFY,
           "        if profile != certificate:", "        if False:"),
    Mutant("hall-envelope-non-strict", SUPPORTS,
           "    if p > MAX_HALL_MONOMIALS:", "    if p >= MAX_HALL_MONOMIALS:",
           equivalent="no group has exactly 500,000 Hall monomials: P jumps from "
                      "400,024 (c13) to 1,432,860 (c14)"),
    # the second mutation survey's survivors: one verify comparison each
    Mutant("odd-order-scalar-loop", VERIFY,
           "        if near_hook_scalar_numerator(spec, mono) != 0:", "        if False:"),
    Mutant("two-mod-four-engine", VERIFY,
           "        if counts != _near_hook_counts(spec):", "        if False:"),
    Mutant("master-formula", VERIFY,
           "        if got != expected:\n            return f\"coefficient mismatch",
           "        if False:\n            return f\"coefficient mismatch"),
    Mutant("odd-order-twin", VERIFY,
           "    if terms:\n        return f\"twin difference",
           "    if False:\n        return f\"twin difference"),
    Mutant("even-cyclic-twin-x0", VERIFY,
           "    if got != expected:\n        return f\"[x_0^",
           "    if False:\n        return f\"[x_0^"),
    Mutant("regular-character", VERIFY,
           "    if [entry for entry in sums if entry[2]] != "
           "[(doubling_counts(spec), 1, math.factorial(n))]:",
           "    if False:"),
    Mutant("closed-character-forms", VERIFY,
           "                if got != expected:", "                if False:"),
    # the folds of the orbit tables: the hook's zero test, the permanent's
    # term count against P, the character column, the term count itself
    Mutant("odd-order-hook-fold", VERIFY,
           "    if hook:\n", "    if False:\n"),
    Mutant("thm13-engine-P", VERIFY,
           "        if orbit_support_size(immanant_orbits(spec, Partition((spec.order,)))) != p:",
           "        if False:"),
    Mutant("wrong-character-column", IMMANANTS,
           "    return _census_fold(spec, partial(mn_character, lam))",
           "    return _census_fold(spec, partial(mn_character, lam.conjugate()))"),
    Mutant("orbit-count-not-size", IMMANANTS,
           "    return sum(size for _, size, coeff in table if coeff)",
           "    return sum(1 for _, size, coeff in table if coeff)"),
    # the engine mutants of the second mutation survey
    Mutant("block-sign", SUPPORTS,
           "        term = (-1) ** (size - 1) * n * math.factorial(size - 1)",
           "        term = (-1) ** size * n * math.factorial(size - 1)"),
    Mutant("canceller-step-1", SUPPORTS,
           "                for j in range(first[psum], counts[g] + 1, order):",
           "                for j in range(first[psum], counts[g] + 1):"),
    Mutant("cohook-without-det-coeff", SUPPORTS,
           "            if det_coeff(spec, rep) != 0:\n                cohook += size\n",
           "            cohook += size\n"),
    Mutant("min-valuation-default-0", SUPPORTS,
           "    return min((v for _, v in _block_valuations(spec, p, counts)), default=None)",
           "    return min((v for _, v in _block_valuations(spec, p, counts)), default=0)"),
    # the answers folded from the orbit tables instead of rows: the walked D
    # sums orbit sizes, and x_0^n's orbit sits under its least member
    Mutant("thm13-walked-d-counts-orbits", VERIFY,
           "        walked = sum(size for rep, size in orbit_representatives(spec)",
           "        walked = sum(1 for rep, size in orbit_representatives(spec)"),
    Mutant("x0-orbit-least-index", VERIFY,
           "    top = max(double_table(spec))", "    top = min(double_table(spec))"),
    # the orbit stream's guard on a map set that is not a group
    Mutant("orbit-stream-stabilizer-guard", SUPPORTS,
           "        if rest:\n            raise ArithmeticError(f\"{fixed} relabellings",
           "        if False:\n            raise ArithmeticError(f\"{fixed} relabellings"),
    # a specialization read at another group, the p-adic refusals after the
    # DP, one draw per check and a hash per lookup
    Mutant("minor-table-group-check", MINORS,
           '        if rho.group != spec:\n'
           '            raise ValueError("specialization is for a different group")\n', ""),
    Mutant("padic-dp-before-refusals", CLI,
           "    _prime_power(spec)\n    if args.all:",
           "    block_size_certificate(spec)\n    if args.all:"),
    Mutant("padic-composite-check-removed", CLI,
           "    _prime_power(spec)\n    if args.all:", "    if args.all:"),
    Mutant("minor-draw-per-check", VERIFY,
           "                bodies[i](spec, rho)",
           "                bodies[i](spec, random_specialization(spec, s, value_range))"),
    Mutant("specialization-hash-per-lookup", POLYNOMIALS,
           "        return self._hash", "        return hash((self.group, self.values, self.seed))"),
    # the rows' orbit expansion: order, one value per orbit, the size guard
    Mutant("per-monomial-unsorted", SUPPORTS,
           "    rows.sort(key=itemgetter(0))\n", ""),
    Mutant("per-monomial-first-value", SUPPORTS,
           "        result = value(rep)", "        result = rows[0][1] if rows else value(rep)"),
    Mutant("per-monomial-size-guard", SUPPORTS,
           "        if len(orbit) != size:", "        if False:"),
    # the JSON writer: the STDOUT_SHA256 pins read its layout and key order
    Mutant("writer-int-list-one-line", CLI,
           '            return "[" + inner + ("," + inner).join(map(_int_repr, value)) + newline + "]"',
           '            return "[" + ", ".join(map(_int_repr, value)) + "]"'),
    Mutant("writer-keys-unsorted", CLI,
           "for key in sorted(value))", "for key in value)"),
    # the sharded verify runner's crash checks
    Mutant("worker-status-ignored", VERIFY,
           "            if status != 0:", "            if False:"),
    Mutant("missing-report-ignored", VERIFY,
           "    if missing:", "    if False:"),
    # an --out path that cannot be opened would be found after the run
    Mutant("out-probe-skipped", CLI,
           "        created = _probe(args.out)\n", ""),
    # the walk as the one holder of the Hall support: the permanent read in
    # lockstep to the end of both routes, and the envelope refused in the walk
    Mutant("hall-lockstep-stops-at-the-shorter", VERIFY,
           "enumerate(itertools.zip_longest(sorted(permanent(spec).terms), hall))",
           "enumerate(zip(sorted(permanent(spec).terms), hall))"),
    Mutant("walk-envelope-check-removed", SUPPORTS,
           "    check_hall_envelope(spec)\n    n = spec.order\n    add = add_table(spec)\n",
           "    n = spec.order\n    add = add_table(spec)\n"),
    # the two routes of one determinant coefficient in `support --report full`
    Mutant("support-row-d-m-unchecked", CLI,
           "            if coeff != stats.d_m:", "            if False:"),
    # the Cramer solve's back-substitution skips U_(k,k+1)
    Mutant("back-substitution-off-by-one", MINORS,
           "sum(row[j] * ys[j] for j in range(k + 1, n))",
           "sum(row[j] * ys[j] for j in range(k + 2, n))"),
    # start-up: every command would load verify to name its checks
    Mutant("eager-verify-import", CLI,
           "from . import characters, immanants, verify\n",
           "from . import characters, immanants, verify\nfrom .verify import SUITES\n"),
)


def _copy_checkout(into: Path) -> None:
    shutil.copytree(ROOT, into, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".hypothesis", ".pytest_cache", "results", "mutants"))


def _apply(tree: Path, mutant: Mutant) -> None:
    path = tree / mutant.file
    text = path.read_text()
    path.write_text(text.replace(mutant.old, mutant.new))


def _tier1(tree: Path) -> tuple[bool, str, float]:
    """(passed, first failing test or pass count, seconds) of `pytest -x -q` in tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--continue-on-collection-errors"],
            cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, f"timed out after {TIMEOUT_S} s", time.perf_counter() - start
    seconds = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0:
        return True, lines[-1] if lines else "", seconds
    failed = [line.split(" - ")[0] for line in lines if line.startswith(("FAILED", "ERROR"))]
    return False, failed[0] if failed else f"pytest exit {proc.returncode}", seconds


def _stale(mutants) -> list[str]:
    out = []
    for mutant in mutants:
        count = (ROOT / mutant.file).read_text().count(mutant.old)
        if count != 1:
            out.append(f"{mutant.name}: old text occurs {count} times in {mutant.file}")
    return out


def main(argv: list[str]) -> int:
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in argv if name not in by_name]
    if unknown:
        print(f"unknown mutant(s) {', '.join(unknown)} (choose from {', '.join(by_name)})",
              file=sys.stderr)
        return 2
    chosen = [by_name[name] for name in argv] or list(MUTANTS)
    stale = _stale(chosen)
    if stale:
        print("stale edits:\n  " + "\n  ".join(stale), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        baseline = Path(scratch) / "baseline"
        _copy_checkout(baseline)
        passed, detail, seconds = _tier1(baseline)
        print(f"{'baseline':24} {'pass' if passed else 'FAIL':10} {seconds:6.1f} s  {detail}",
              flush=True)
        if not passed:
            return 1
        survivors = 0
        for mutant in chosen:
            if mutant.equivalent:
                print(f"{mutant.name:24} {'equivalent':10} {'':8}  {mutant.equivalent}",
                      flush=True)
                continue
            tree = Path(scratch) / mutant.name
            _copy_checkout(tree)
            _apply(tree, mutant)
            passed, detail, seconds = _tier1(tree)
            survivors += passed
            print(f"{mutant.name:24} {'SURVIVED' if passed else 'caught':10} {seconds:6.1f} s  "
                  f"{detail}", flush=True)
            shutil.rmtree(tree)
    run = sum(not m.equivalent for m in chosen)
    print(f"{run - survivors} of {run} caught, {survivors} survived, "
          f"{len(chosen) - run} documented equivalent")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
