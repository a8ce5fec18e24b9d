import os
import time

import pytest

from cayley_immanants.characters import Partition
from cayley_immanants.errors import EnvelopeError
from cayley_immanants.groups import GroupSpec, affine_maps
from cayley_immanants.immanants import _class_walk, immanant, perm_class_stats
from cayley_immanants.supports import hall_orbits
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


def test_hall_check_catches_an_orbit_missing_from_hall_support(monkeypatch):
    # the engine reads hall_support too, so only the closed form sees the gap
    from cayley_immanants import supports, verify

    real = supports.hall_support

    def without_pure_powers(spec):
        return tuple(m for m in real(spec) if max(m) < spec.order)

    supports.hall_orbits.cache_clear()
    monkeypatch.setattr(supports, "hall_support", without_pure_powers)
    monkeypatch.setattr(verify, "hall_support", without_pure_powers)
    try:
        reports = run_suite("hall", groups=["c5"])
    finally:
        supports.hall_orbits.cache_clear()
    assert statuses(reports)[("hall-permanent-support", "c5")] == "fail"
    assert "closed-form P" in reports[-1].witness


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


def test_thm14_hypothesis_skip():
    reports = run_suite("thm14", groups=["c4"], max_order=6)
    st = statuses(reports)
    assert st[("odd-order-near-hooks-vanish", "c4")] == "skipped"


def test_hall_envelope_is_a_skip_and_enumerates_nothing():
    from cayley_immanants import supports

    supports.hall_support.cache_clear()
    reports = run_suite("thm14", groups=["c14"])
    refused = {(r.theorem, r.group): r for r in reports}[
        ("two-mod-four-near-hook-counts", "c14")]
    assert refused.status == "skipped"
    assert "above the enumeration envelope" in refused.witness
    assert supports.hall_support.cache_info().currsize == 0


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
    assert info.misses == max(hall_orbits(c9, affine_maps)) + 1 == 70
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
    witness = verify._minor_witness(("f1", "t2t12"), c5, 4, 1)
    assert witness.startswith("F1 = det: ") and witness.endswith(" at seed 3")


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
