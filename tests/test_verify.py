import os
import time

import pytest

from cayley_immanants.characters import Partition
from cayley_immanants.errors import EnvelopeError
from cayley_immanants.groups import GroupSpec
from cayley_immanants.immanants import _class_walk, immanant, perm_class_stats
from cayley_immanants.polynomials import GroupPolynomial
from cayley_immanants.supports import hall_support, orbit_representatives
from cayley_immanants.verify import VerifyReport, run_suite


def statuses(reports):
    return {(r.theorem, r.group): r.status for r in reports}


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nope")


def test_hall_suite_small():
    reports = run_suite("hall", max_order=6)
    assert reports
    assert all(r.status == "pass" for r in reports)
    assert ("c3-ground-truth", "c3") in statuses(reports)


def _without_pure_powers(real):
    """real with the orbit of the pure powers x_g^n dropped from its result."""

    def without(spec):
        return tuple(m for m in real(spec) if max(m) < spec.order)

    return without


def test_hall_check_catches_an_orbit_missing_from_hall_support(monkeypatch):
    # the engine expands the orbit representatives, so it keeps the orbit
    # that the stored support lost
    from cayley_immanants import supports, verify

    monkeypatch.setattr(supports, "hall_support", _without_pure_powers(supports.hall_support))
    monkeypatch.setattr(verify, "hall_support", _without_pure_powers(verify.hall_support))
    reports = run_suite("hall", groups=["c5"])
    assert statuses(reports)[("hall-permanent-support", "c5")] == "fail"
    assert reports[-1].witness == ("support mismatch at monomial 0: permanent (0, 0, 0, 0, 5), "
                                   "Hall walk (0, 0, 1, 3, 1)")


def test_hall_check_reads_both_routes_to_their_ends(monkeypatch):
    # the engine loses only its greatest monomial: the walk still has it
    # after the permanent has ended, and the closed form agrees with the walk
    from cayley_immanants import verify

    real = verify.permanent

    def permanent(spec):
        terms = dict(real(spec).terms)
        del terms[max(terms)]
        return GroupPolynomial.from_terms(spec, terms)

    monkeypatch.setattr(verify, "permanent", permanent)
    reports = run_suite("hall", groups=["c5"])
    assert statuses(reports)[("hall-permanent-support", "c5")] == "fail"
    assert reports[-1].witness == ("support mismatch at monomial 25: permanent None, "
                                   "Hall walk (5, 0, 0, 0, 0)")


def test_hall_check_catches_an_orbit_missing_from_both_routes(monkeypatch):
    # the same orbit lost by the check's support and by the engine's
    # permanent: the sides agree, and only the closed form sees the gap
    from cayley_immanants import verify

    def permanent(spec):
        return GroupPolynomial.from_terms(
            spec, {m: 1 for m in _without_pure_powers(hall_support)(spec)})

    monkeypatch.setattr(verify, "hall_support", _without_pure_powers(verify.hall_support))
    monkeypatch.setattr(verify, "permanent", permanent)
    reports = run_suite("hall", groups=["c5"])
    assert statuses(reports)[("hall-permanent-support", "c5")] == "fail"
    assert reports[-1].witness == "|hall_support| = 21 != closed-form P = 26"


def test_thm13_suite_small():
    reports = run_suite("thm13", max_order=8)
    assert all(r.status == "pass" for r in reports)
    assert ("padic-certificate", "c8") in statuses(reports)


def test_thm13_check_catches_a_walked_d_m_that_differs_from_count_d(monkeypatch):
    # count_D and the engine's determinant both read det_coeff, so only the
    # class walks can disagree with them
    from cayley_immanants import verify
    from cayley_immanants.immanants import PermClassStats

    real = verify.perm_class_stats
    monkeypatch.setattr(verify, "perm_class_stats",
                        lambda spec, mono: PermClassStats(real(spec, mono).p_m, 0))
    report = run_suite("thm13", groups=["c5"])[0]
    assert (report.theorem, report.status) == ("prime-power-P-equals-D", "fail")
    assert report.witness == "formula D differs from the immanant engine"


def test_thm13_check_compares_p_with_the_permanent_folded_per_orbit(monkeypatch):
    # count_P is the closed form; only the permanent's orbit table changes
    from cayley_immanants import verify

    monkeypatch.setattr(verify, "immanant_orbits", _zero_table)
    report = run_suite("thm13", groups=["c5"])[0]
    assert (report.theorem, report.status) == ("prime-power-P-equals-D", "fail")
    assert report.witness == "formula P differs from the immanant engine"


def test_padic_certificate_check_fails_where_the_fold_ties(monkeypatch):
    # the size certificate never reads the zero-sum fold, so a tie in the
    # fold shows only in the comparison
    from cayley_immanants import supports

    monkeypatch.setattr(supports, "_block_valuations",
                        lambda spec, p, counts: iter([(spec.order, 3), (1, 3)]))
    (report,) = run_suite("thm13", groups=["c4"])[1:]
    assert (report.theorem, report.status) == ("padic-certificate", "fail")
    assert report.witness == (
        "zero-sum fold gives ValuationProfile(p=2, r=2, min_valuation=3, strictly_minimal=False), "
        "not the size certificate, at (0, 0, 0, 4)")


def test_padic_certificate_check_fails_on_a_tied_block_size_bound(monkeypatch):
    # v_2(2!) stubbed to -1: the split 3 + 1 of c4 costs the one-block value
    from cayley_immanants import supports

    real = supports._legendre
    monkeypatch.setattr(supports, "_legendre", lambda m, p: real(m, p) - 2 * (m == 2))
    (report,) = run_suite("thm13", groups=["c4"])[1:]
    assert (report.theorem, report.status) == ("padic-certificate", "fail")
    assert report.witness == ("ArithmeticError: the block-size bound does not separate "
                              "the one-block term at order 4")


def test_odd_order_near_hook_check_reads_the_scalar_on_every_monomial(monkeypatch):
    # the engine's hook and cohook vanish; only the scalar loop reads the stub
    from cayley_immanants import verify

    monkeypatch.setattr(verify, "near_hook_scalar_numerator", lambda spec, mono: mono[1])
    (report,) = run_suite("thm14", groups=["c3"])[:1]
    assert (report.theorem, report.status) == ("odd-order-near-hooks-vanish", "fail")
    assert report.witness == "scalar numerator nonzero at (0, 3, 0)"


def _zero_table(spec, lam):
    return tuple((rep, size, 0) for rep, size in orbit_representatives(spec))


def _first_orbit_nonzero(table):
    """The table with its first orbit's coefficient set to 1."""
    (rep, size, _), *rest = table
    return ((rep, size, 1), *rest)


def test_odd_order_near_hook_check_sums_the_sizes_of_nonzero_orbits(monkeypatch):
    # one orbit of the hook's table made nonzero: the witness counts its
    # terms, the orbit of x_2^3 under the three shifts of c3
    from cayley_immanants import verify

    real = verify.immanant_orbits
    monkeypatch.setattr(verify, "immanant_orbits",
                        lambda spec, lam: _first_orbit_nonzero(real(spec, lam)))
    (report,) = run_suite("thm14", groups=["c3"])[:1]
    assert (report.theorem, report.status) == ("odd-order-near-hooks-vanish", "fail")
    assert report.witness == "imm_(n-1,1) has 3 terms"


def test_two_mod_four_check_compares_the_formula_counts_with_the_engine(monkeypatch):
    # count_P and count_D read no immanant, so only the engine side changes
    from cayley_immanants import verify

    monkeypatch.setattr(verify, "immanant_orbits", _zero_table)
    report = {r.theorem: r for r in run_suite("thm14", groups=["c6"])}[
        "two-mod-four-near-hook-counts"]
    assert report.status == "fail"
    assert report.witness == "formula counts (80, 68) differ from the immanant engine"


def test_master_formula_check_compares_every_coefficient(monkeypatch):
    from cayley_immanants import verify

    real = verify.near_hook_coeff
    monkeypatch.setattr(verify, "near_hook_coeff",
                        lambda spec, mono, stats: tuple(v + 1 for v in real(spec, mono, stats)))
    report = {r.theorem: r for r in run_suite("thm14", groups=["c7"])}[
        "near-hook-master-formula"]
    assert report.status == "fail"
    assert report.witness == "coefficient mismatch (1, 1) != (0, 0) at (0, 0, 0, 0, 0, 0, 7)"


def test_odd_order_twin_check_fails_on_a_nonzero_twin(monkeypatch):
    # the first orbit of c7, x_6^7, has 7 members: its seven shifts
    from cayley_immanants import verify

    real = verify.twin_orbits
    monkeypatch.setattr(verify, "twin_orbits", lambda spec: _first_orbit_nonzero(real(spec)))
    (report,) = run_suite("thm15", groups=["c7"])
    assert (report.theorem, report.status) == ("odd-order-twin-immanants", "fail")
    assert report.witness == "twin difference has 7 terms"


def test_even_cyclic_twin_check_reads_the_x0_coefficient(monkeypatch):
    # the orbit of x_0^6 is {x_0^6, x_2^6, x_4^6}; the twin table holds it
    # under its least member x_4^6, here made to read 1
    from cayley_immanants import verify

    real = verify.twin_orbits
    monkeypatch.setattr(verify, "twin_orbits", lambda spec: tuple(
        (rep, size, 1 if rep == (0, 0, 0, 0, 6, 0) else coeff)
        for rep, size, coeff in real(spec)))
    (report,) = run_suite("prop42", groups=["c6"])
    assert (report.theorem, report.status) == ("even-cyclic-twin-x0-coefficient", "fail")
    assert report.witness == "[x_0^6] twin difference = 1 != -3"


def test_regular_character_check_sums_every_immanant(monkeypatch):
    # the permanent left out of the sum sum_lam dim(lam) imm_lam
    from cayley_immanants import verify

    real = verify.immanant_orbits
    monkeypatch.setattr(verify, "immanant_orbits", lambda spec, lam: (
        _zero_table(spec, lam) if lam.parts == (spec.order,) else real(spec, lam)))
    (report,) = run_suite("charlayer", groups=["c3"])
    assert (report.theorem, report.status) == ("regular-character-identity", "fail")
    assert report.witness == "regular-character sum differs from n! * prod x_{2a}"


def test_closed_character_check_compares_every_closed_form(monkeypatch):
    from cayley_immanants import verify

    real = verify.hook_char_n11
    monkeypatch.setattr(verify, "hook_char_n11", lambda mu: real(mu) + (mu.parts == (6,)))
    # a check on S_6..S_9, not on a group: it runs only without --groups
    report = run_suite("charlayer")[0]
    assert (report.theorem, report.status) == ("closed-character-forms", "fail")
    assert report.witness == "closed form 0 != MN -1 on class (6,)"


def test_thm14_hypothesis_skip():
    reports = run_suite("thm14", groups=["c4"], max_order=6)
    st = statuses(reports)
    assert st[("odd-order-near-hooks-vanish", "c4")] == "skipped"


def test_hall_envelope_is_a_skip_and_enumerates_nothing(hall_support_calls):
    # one group is one shard, so the rows run in this process
    from cayley_immanants import supports

    supports._completions.cache_clear()
    reports = run_suite("thm14", groups=["c14"])
    refused = {(r.theorem, r.group): r for r in reports}[
        ("two-mod-four-near-hook-counts", "c14")]
    assert refused.status == "skipped"
    assert "above the enumeration envelope" in refused.witness
    assert hall_support_calls == []
    assert supports._completions.cache_info().misses == 0


def test_thm13_rows_skip_above_the_envelope_before_their_own_work(monkeypatch):
    # c8009 is prime, so both rows meet their hypothesis; the envelope refuses
    # them before any automorphism, the certificate's DP or an exact P
    from cayley_immanants import supports, verify

    computed = []

    def refused(name):
        def spy(*args):
            computed.append(name)
            raise AssertionError(f"{name} computed above the envelope")
        return spy

    monkeypatch.setattr(verify, "automorphisms", refused("automorphisms"))
    monkeypatch.setattr(supports, "_least_split_valuation", refused("DP"))
    monkeypatch.setattr(supports, "count_P", refused("count_P"))
    monkeypatch.setattr(verify, "count_P", refused("count_P"))
    reports = run_suite("thm13", groups=["c8009"])  # one shard: no fork
    witness = ("c8009 has at least C(16017, 8009)/8009 zero-sum monomials, above the "
               "enumeration envelope of 500000")
    assert [(r.theorem, r.status, r.witness) for r in reports] == [
        ("prime-power-P-equals-D", "skipped", witness),
        ("padic-certificate", "skipped", witness),
    ]
    assert verify.exit_code(reports) == 0
    assert computed == []


def test_c9_suites_walk_each_representative_once():
    # hook and cohook (odd-order-near-hooks-vanish), the twin of thm15 and
    # the twin of principal-minor-reduction all read one census per
    # representative; thm14 itself is not run, since its master-formula check
    # would walk every Hall monomial of c9
    c9 = GroupSpec((9,))
    _class_walk.cache_clear()
    immanant(c9, Partition((8, 1)))
    immanant(c9, Partition((2,) + (1,) * 7))
    for suite in ("thm15", "scalars"):
        assert all(r.status == "pass" for r in run_suite(suite, groups=["c9"]))
    info = _class_walk.cache_info()
    assert info.misses == len(orbit_representatives(c9)) == 70
    assert info.hits >= 210
    # the envelope refuses before the memo sees the call
    with pytest.raises(EnvelopeError):
        perm_class_stats(GroupSpec((11,)), (11,) + (0,) * 10)
    assert _class_walk.cache_info().currsize == info.currsize


def test_all_suites_walk_699_distinct_classes(monkeypatch):
    # each distinct (group, monomial) is walked once; the determinant walks
    # none, and thm13 reads the walks of its representatives from the memo.
    # One process runs every shard, so this memo sees every walk.
    from cayley_immanants import verify

    monkeypatch.setattr(verify, "_worker_count", lambda shards: 1)
    _class_walk.cache_clear()
    reports = run_suite("all")
    assert all(r.status in ("pass", "skipped") for r in reports)
    info = _class_walk.cache_info()
    assert (info.misses, info.hits + info.misses) == (699, 2306)


def test_all_suites_expand_18_orbit_tables(monkeypatch):
    # only the checks that compare or evaluate single monomials expand an
    # orbit table into rows: c3-ground-truth 2, hall-permanent-support 8,
    # near-hook-master-formula 4 and the reduction twin 4; the walked D and
    # the x_0^n twin fold their tables
    from cayley_immanants import immanants, supports, verify

    assert not hasattr(verify, "per_monomial")
    real = supports.per_monomial
    calls = []

    def counting(spec, value):
        calls.append(spec.name)
        return real(spec, value)

    monkeypatch.setattr(immanants, "per_monomial", counting)
    monkeypatch.setattr(verify, "_worker_count", lambda shards: 1)
    reports = run_suite("all")
    assert all(r.status in ("pass", "skipped") for r in reports)
    assert len(calls) == 18


def test_padic_certificate_refuses_automorphisms_that_are_not_a_group(monkeypatch):
    # c8's automorphisms u -> 3u, 5u, 7u less the last: x_6^8 is fixed by
    # the identity and by 5u, and 2 does not divide the 3 maps left
    from cayley_immanants import verify

    real = verify.automorphisms
    monkeypatch.setattr(verify, "automorphisms", lambda spec: real(spec)[:-1])
    reports = {r.theorem: r for r in run_suite("thm13", groups=["c8"])}
    report = reports["padic-certificate"]
    assert report.status == "fail"
    assert report.witness == ("ArithmeticError: 2 relabellings of c8 fix "
                              "(0, 0, 0, 0, 0, 0, 8, 0), which does not divide the 3 maps")
    assert reports["prime-power-P-equals-D"].status == "pass"


def test_each_group_runs_in_exactly_one_shard():
    # so a forked run makes the same 699 walks as one process: no group's
    # census is walked in two processes
    from cayley_immanants import verify

    rows = verify._rows(tuple(verify._SUITE_FUNCS), None, None)
    shards = verify._shards(rows)
    assert len(rows) == 61
    assert sorted(i for shard in shards for i in shard) == list(range(61))
    shard_of = {}
    for k, shard in enumerate(shards):
        assert shard == sorted(shard)  # table order inside a shard
        for i in shard:
            assert shard_of.setdefault(rows[i][1], k) == k
    assert len(shards) == len(shard_of) == 14
    assert [rows[i][0].theorem for i in shards[-1]] == ["closed-character-forms"]
    orders = [rows[shard[0]][1].order for shard in shards[:-1]]
    assert orders == sorted(orders, reverse=True) and orders[0] == 10
    # one process per CPU, never more processes than shards
    assert verify._worker_count(len(shards)) == min(len(os.sched_getaffinity(0)), 14)
    assert verify._worker_count(1) == 1


def test_forked_workers_report_what_one_process_reports(monkeypatch):
    # three processes on any host, so the fork path runs even with one CPU
    from cayley_immanants import verify

    def rows(reports):
        return [r.to_json_dict() for r in reports]

    monkeypatch.setattr(verify, "_worker_count", lambda shards: 3)
    forked = rows(run_suite("all"))
    monkeypatch.setattr(verify, "_worker_count", lambda shards: 1)
    assert forked == rows(run_suite("all"))
    assert len(forked) == 61


def test_all_suites_build_one_minor_table_per_specialization(monkeypatch):
    # a group's jacobi, scalars and reduction rows run back to back in its
    # shard, so the small table cache never evicts a table that is read again
    from cayley_immanants import minors, verify

    built = []

    class CountingTable(minors._MinorTable):
        def __init__(self, spec, rho):
            built.append((spec, rho))
            super().__init__(spec, rho)

    monkeypatch.setattr(minors, "_MinorTable", CountingTable)
    monkeypatch.setattr(verify, "_worker_count", lambda shards: 1)
    minors._minor_table.cache_clear()
    try:
        reports = run_suite("all")
    finally:
        minors._minor_table.cache_clear()
    assert all(r.status in ("pass", "skipped") for r in reports)
    assert len(built) == len(set(built)) == 52


def test_thm15_and_prop42():
    reports = run_suite("thm15", max_order=7)
    assert statuses(reports) == {("odd-order-twin-immanants", "c7"): "pass"}
    reports = run_suite("prop42")
    assert all(r.status == "pass" for r in reports)


def test_jacobi_suite_small():
    reports = run_suite("jacobi", max_order=5, seed=3)
    assert reports
    assert all(r.status == "pass" for r in reports)


def test_scalars_suite_small():
    reports = run_suite("scalars", max_order=7, seed=2)
    st = statuses(reports)
    assert st[("odd-order-minor-scalars", "c3")] == "pass"
    assert st[("principal-minor-reduction", "c6")] == "pass"
    assert all(s == "pass" for s in st.values())


def test_envelope_reported_as_skipped():
    reports = run_suite("thm15", groups=["c13"])
    assert [r.status for r in reports] == ["skipped"]


def test_report_serialization():
    report = VerifyReport("t", "c3", {"k": 1}, "pass", None, 0.125)
    data = report.to_json_dict()
    assert "seconds" not in data
    data = report.to_json_dict(with_timings=True)
    assert data["seconds"] == 0.125


def test_all_is_every_registered_suite_in_order():
    from cayley_immanants.verify import _SUITE_FUNCS, SUITES

    assert SUITES == (*_SUITE_FUNCS, "all")

    def rows(reports):
        return [r.to_json_dict() for r in reports]

    expected = [r for name in _SUITE_FUNCS for r in rows(run_suite(name, max_order=4))]
    assert rows(run_suite("all", max_order=4)) == expected


def test_max_order_filters_fixed_groups():
    from cayley_immanants.groups import parse_group

    reports = run_suite("thm14", max_order=5)
    assert reports
    assert all(parse_group(r.group).order <= 5 for r in reports)
    reports = run_suite("all", max_order=4)
    assert reports
    assert all(parse_group(r.group).order <= 4 for r in reports)
    st = statuses(run_suite("hall", groups=["c5"]))
    assert st == {("c3-ground-truth", "c5"): "skipped", ("hall-permanent-support", "c5"): "pass"}


FIVE_MINOR_CHECKS = ("conv", "jacobi", "f1", "t2t12", "scalars")


def test_minor_checks_build_one_table_per_seed(monkeypatch):
    # more seeds than minors._minor_table keeps: each check must still find
    # its seed's table, so nine seeds build nine tables, not one per check
    from cayley_immanants import minors
    from cayley_immanants.groups import GroupSpec
    from cayley_immanants.verify import run_minor_checks

    built = []

    class CountingTable(minors._MinorTable):
        def __init__(self, spec, rho):
            built.append(rho.seed)
            super().__init__(spec, rho)

    monkeypatch.setattr(minors, "_MinorTable", CountingTable)
    minors._minor_table.cache_clear()
    try:
        reports = run_minor_checks(FIVE_MINOR_CHECKS, GroupSpec((7,)), seeds=9)
    finally:
        minors._minor_table.cache_clear()
    assert [r.status for r in reports] == ["pass"] * 5
    assert sorted(built) == list(range(1, 10))


def test_minor_checks_at_c11_build_one_tree_per_seed_and_eliminate_only_cramer(monkeypatch):
    # every principal minor of a seed comes from its one elimination tree,
    # and the n Cramer numerators from one elimination of the augmented
    # matrix (one elimination per numerator made 3 * 11 = 33; eliminating
    # each of the 232 minors on its own too made 3 * (232 + 11) = 729)
    from cayley_immanants import minors
    from cayley_immanants.groups import GroupSpec
    from cayley_immanants.verify import run_minor_checks

    trees, eliminations = [], []
    true_tree, true_eliminate = minors._principal_minors, minors._eliminate

    def counting_tree(rows, depth):
        trees.append((len(rows), depth))
        return true_tree(rows, depth)

    def counting_eliminate(m):
        eliminations.append((len(m), len(m[0])))
        return true_eliminate(m)

    monkeypatch.setattr(minors, "_principal_minors", counting_tree)
    monkeypatch.setattr(minors, "_eliminate", counting_eliminate)
    minors._minor_table.cache_clear()
    try:
        reports = run_minor_checks(FIVE_MINOR_CHECKS, GroupSpec((11,)), seeds=3)
    finally:
        minors._minor_table.cache_clear()
    assert [r.status for r in reports] == ["pass"] * 5
    assert trees == [(11, 3)] * 3
    assert eliminations == [(11, 12)] * 3


def test_minor_checks_draw_one_specialization_per_seed(monkeypatch, built_tables):
    # every check at a seed reads the one drawn point, so the table cache
    # finds it by identity and compares no two specializations; each point
    # hashes its 11 values once
    from fractions import Fraction

    from cayley_immanants.polynomials import RationalSpecialization
    from cayley_immanants.verify import run_minor_checks

    compared, hashed = [], []
    real_eq, real_hash = RationalSpecialization.__eq__, Fraction.__hash__

    def counting_eq(self, other):
        compared.append(self.seed)
        return real_eq(self, other)

    def counting_hash(self):
        hashed.append(self)
        return real_hash(self)

    monkeypatch.setattr(RationalSpecialization, "__eq__", counting_eq)
    monkeypatch.setattr(Fraction, "__hash__", counting_hash)
    reports = run_minor_checks(FIVE_MINOR_CHECKS, GroupSpec((11,)), seeds=3)
    assert [r.status for r in reports] == ["pass"] * 5
    assert compared == []
    assert built_tables == [1, 2, 3]
    assert len(hashed) == 3 * 11


def test_minor_checks_report_each_first_failure_in_check_order(monkeypatch):
    # f1 breaks at seed 3 and t2t12 at seed 2: each report names its own
    # first failing seed, and a suite's witness is the first check's
    from fractions import Fraction

    from cayley_immanants import verify
    from cayley_immanants.groups import GroupSpec

    real_det, real_t2 = verify.specialized_det, verify.T2
    monkeypatch.setattr(verify, "specialized_det", lambda spec, rho: (
        Fraction(0) if rho.seed == 3 else real_det(spec, rho)))
    monkeypatch.setattr(verify, "T2", lambda spec, rho: (
        Fraction(-1) if rho.seed == 2 else real_t2(spec, rho)))
    c5 = GroupSpec((5,))
    reports = verify.run_minor_checks(("conv", "f1", "t2t12"), c5, seeds=4)
    assert [r.status for r in reports] == ["pass", "fail", "fail"]
    assert [r.witness and r.witness["seed"] for r in reports] == [None, 3, 2]
    witness = verify._minor_witness(("f1", "t2t12"), 4, c5, 1)
    assert witness.startswith("F1 = det: ") and witness.endswith(" at seed 3")


def test_a_failed_draw_stops_every_live_check(monkeypatch, capsys):
    # t2t12 breaks at seed 1 and leaves the loop; the draw of seed 2 raises,
    # and that is the outcome of conv and f1, both still live
    import json
    from fractions import Fraction

    from cayley_immanants import verify
    from cayley_immanants.cli import main
    from cayley_immanants.groups import GroupSpec

    real_draw, real_t2 = verify.random_specialization, verify.T2

    def draw(spec, seed, value_range):
        if seed == 2:
            raise RuntimeError("no specialization at seed 2")
        return real_draw(spec, seed, value_range)

    monkeypatch.setattr(verify, "random_specialization", draw)
    monkeypatch.setattr(verify, "T2", lambda spec, rho: (
        Fraction(-1) if rho.seed == 1 else real_t2(spec, rho)))
    reports = verify.run_minor_checks(("conv", "f1", "t2t12"), GroupSpec((5,)), seeds=3)
    assert [r.status for r in reports] == ["error", "error", "fail"]
    assert [r.witness for r in reports[:2]] == ["RuntimeError: no specialization at seed 2"] * 2
    assert (reports[2].witness["seed"], reports[2].witness["equation"]) == (1, "T12 = T2")
    capsys.readouterr()
    assert main(["minors", "--group", "c5", "--seeds", "3", "--checks", "conv,f1,t2t12"]) == 4
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert {name: check["status"] for name, check in checks.items()} == {
        "conv": "error", "f1": "error", "t2t12": "fail"}


def test_empty_group_list_is_refused():
    with pytest.raises(ValueError, match="empty group list"):
        run_suite("hall", groups=[])


def test_minor_checks_without_a_seed_are_refused():
    from cayley_immanants.groups import GroupSpec
    from cayley_immanants.verify import run_minor_checks

    for factors in [(5,), (4,)]:
        with pytest.raises(ValueError, match="seeds"):
            run_minor_checks(("f1",), GroupSpec(factors), seeds=0)


def test_minor_checks_without_a_name_are_refused():
    from cayley_immanants.groups import GroupSpec
    from cayley_immanants.verify import run_minor_checks

    with pytest.raises(ValueError, match="no minor check"):
        run_minor_checks((), GroupSpec((5,)), seeds=2)


@pytest.fixture
def built_tables(monkeypatch):
    """The seeds of the minor tables built while the test runs."""
    from cayley_immanants import minors

    built = []

    class CountingTable(minors._MinorTable):
        def __init__(self, spec, rho):
            built.append(rho.seed)
            super().__init__(spec, rho)

    monkeypatch.setattr(minors, "_MinorTable", CountingTable)
    minors._minor_table.cache_clear()
    yield built
    minors._minor_table.cache_clear()


def test_reduction_sweeps_its_twin_once_and_only_when_it_applies(monkeypatch, built_tables):
    from cayley_immanants import verify
    from cayley_immanants.groups import GroupSpec

    swept = []

    def counting_twin(spec):
        swept.append(spec.name)
        return real_twin(spec)

    real_twin = verify.twin_difference
    monkeypatch.setattr(verify, "twin_difference", counting_twin)
    (report,) = verify.run_minor_checks(("reduction",), GroupSpec((7,)), seeds=3)
    assert report.status == "pass"
    assert swept == ["c7"]
    built_tables.clear()
    (report,) = verify.run_minor_checks(("reduction",), GroupSpec((5,)), seeds=3)
    assert report.status == "skipped"
    assert swept == ["c7"] and built_tables == []


def test_a_crash_stops_its_own_check_and_the_rest_go_on(monkeypatch, built_tables):
    # t2t12 crashes at seed 2; conv and f1 still check seeds 3 and 4
    from cayley_immanants import verify
    from cayley_immanants.groups import GroupSpec

    real_t2 = verify.T2

    def t2_crashing_at_seed_2(spec, rho):
        if rho.seed == 2:
            raise KeyError("boom")
        return real_t2(spec, rho)

    monkeypatch.setattr(verify, "T2", t2_crashing_at_seed_2)
    reports = verify.run_minor_checks(("conv", "f1", "t2t12"), GroupSpec((5,)), seeds=4)
    assert [r.status for r in reports] == ["pass", "pass", "error"]
    assert reports[2].witness == "KeyError: 'boom'"
    assert sorted(built_tables) == [1, 2, 3, 4]


def _wait_for(path, seconds=30):
    """Wait until a forked worker has made the file, at most `seconds`."""
    deadline = time.monotonic() + seconds
    while not path.exists() and time.monotonic() < deadline:
        time.sleep(0.01)


def test_an_interrupted_parent_kills_and_reaps_a_running_worker(monkeypatch, tmp_path):
    # the worker's check would run for a minute; this process stops as soon
    # as the worker has started it
    from cayley_immanants import verify

    class Stop(BaseException):
        pass

    parent = os.getpid()
    started = tmp_path / "started"

    def body(spec, seed):
        if os.getpid() != parent:
            started.touch()
            time.sleep(60)
            return None
        _wait_for(started)
        raise Stop

    check = verify.Check("hall", "stops-the-parent", ("c3", "c4"), body, verify._no_params)
    monkeypatch.setattr(verify, "CHECKS", (check,))
    monkeypatch.setattr(verify, "_worker_count", lambda shards: 2)
    start = time.monotonic()
    with pytest.raises(Stop):
        run_suite("hall")
    assert started.exists()
    assert time.monotonic() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_worker_that_returns_too_few_reports_is_a_crash(monkeypatch, tmp_path):
    # the worker exits 0 but hands back one pair fewer than it ran
    from cayley_immanants import verify

    parent = os.getpid()
    ran = tmp_path / "ran"
    real_drain = verify._drain

    def body(spec, seed):
        if os.getpid() != parent:
            ran.touch()
        _wait_for(ran)
        return None

    def drain(*args):
        pairs = real_drain(*args)
        return pairs if os.getpid() == parent else pairs[:-1]

    check = verify.Check("hall", "loses-a-report", ("c3", "c4", "c5"), body, verify._no_params)
    monkeypatch.setattr(verify, "CHECKS", (check,))
    monkeypatch.setattr(verify, "_drain", drain)
    monkeypatch.setattr(verify, "_worker_count", lambda shards: 2)
    with pytest.raises(RuntimeError, match="of 3 verify rows came back without a report"):
        run_suite("hall")
    assert ran.exists()
