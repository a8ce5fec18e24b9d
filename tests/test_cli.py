import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cayley_immanants
from cayley_immanants.cli import main
from cayley_immanants.errors import EnvelopeError
from cayley_immanants.groups import GroupSpec
from cayley_immanants.minors import IdentityCheckError


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_imm_c3_det(capsys):
    code, doc = run_json(capsys, "imm", "--group", "c3", "--partition", "1,1,1")
    assert code == 0
    assert doc["support_size"] == 4
    assert doc["group"] == "c3"
    coeffs = {tuple(t["exp"]): int(t["coeff"]) for t in doc["terms"]}
    assert coeffs == {(3, 0, 0): -1, (0, 3, 0): -1, (0, 0, 3): -1, (1, 1, 1): 3}


def test_imm_c3_per(capsys):
    code, doc = run_json(capsys, "imm", "--group", "c3", "--partition", "3")
    assert code == 0
    assert doc["support_size"] == 4


def test_imm_c5_near_hook_empty(capsys):
    code, doc = run_json(capsys, "imm", "--group", "c5", "--partition", "4,1")
    assert code == 0
    assert doc["support_size"] == 0
    assert doc["terms"] == []


def test_imm_out_file(tmp_path, capsys):
    target = tmp_path / "poly.json"
    code, summary = run_json(
        capsys, "imm", "--group", "c3", "--partition", "1,1,1", "--out", str(target)
    )
    assert code == 0
    assert summary["support_size"] == 4
    assert "terms" not in summary
    saved = json.loads(target.read_text())
    assert len(saved["terms"]) == 4


def test_bad_group_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["imm", "--group", "c1", "--partition", "1"])
    assert err.value.code == 2


def test_bad_partition_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["imm", "--group", "c4", "--partition", "1,2,1"])
    assert err.value.code == 2


def test_envelope_exit_code(capsys):
    code = main(["imm", "--group", "c12", "--partition", "11,1"])
    assert code == 3


def test_determinant_keeps_the_sweep_envelope(capsys):
    # the determinant walks no class, but `imm` still refuses above order 10
    # before the Hall support is built
    from cayley_immanants import supports

    supports.hall_support.cache_clear()
    code = main(["imm", "--group", "c11", "--partition", ",".join(["1"] * 11)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "exceeds the immanant envelope" in captured.err
    assert supports.hall_support.cache_info().currsize == 0


def test_hall_envelope_refuses_before_any_table(capsys):
    # c14 has 1,432,860 Hall monomials: the closed form refuses it before the
    # completion table or the enumeration is built
    from cayley_immanants import groups, supports

    supports.hall_support.cache_clear()
    supports._completions.cache_clear()
    supports.orbit_representatives.cache_clear()
    groups.affine_maps.cache_clear()
    code = main(["support", "--group", "c14"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "enumeration envelope" in captured.err
    assert supports.hall_support.cache_info().currsize == 0
    assert supports._completions.cache_info().currsize == 0
    assert supports._completions.cache_info().misses == 0
    assert supports.orbit_representatives.cache_info().currsize == 0
    assert groups.affine_maps.cache_info().currsize == 0
    # a direct labelling call is refused before its map set is built too
    with pytest.raises(EnvelopeError):
        supports.hall_orbits(GroupSpec((14,)), groups.affine_maps)
    assert supports._completions.cache_info().misses == 0
    assert groups.affine_maps.cache_info().currsize == 0


# Runs a command and prints its exit code and peak RSS in kilobytes.  Linux
# counts the memory of the process that forks into a child's peak, so the
# command is started from this small launcher, not from the test process.
LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:])
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def test_cold_support_c12_stores_no_hall_support():
    # the counts stream orbit representatives; the stored Hall support and
    # its labelling peaked at 45 MB here
    src = Path(cayley_immanants.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-m", "cayley_immanants", "support", "--group", "c12"]
    out = subprocess.run([sys.executable, "-c", LAUNCHER, *argv], env=env, check=True,
                         capture_output=True, text=True).stdout
    *doc, last = out.splitlines()
    code, peak_kb = map(int, last.split())
    assert code == 0
    assert json.loads("\n".join(doc)) == {"D": 86500, "I_cohook": 59820, "I_hook": 77160,
                                          "P": 112720, "group": "c12"}
    assert peak_kb < 30 * 1024


def test_partition_weight_mismatch_exit_code(capsys):
    code = main(["imm", "--group", "c4", "--partition", "3,1,1"])
    assert code == 2


def test_twin_c7(capsys):
    code, doc = run_json(capsys, "twin", "--group", "c7")
    assert code == 0
    assert doc == {"group": "c7", "support_size": 0}


def test_support_counts_c3(capsys):
    code, doc = run_json(capsys, "support", "--group", "c3")
    assert code == 0
    assert (doc["P"], doc["D"]) == (4, 4)
    assert (doc["I_hook"], doc["I_cohook"]) == (0, 0)


def test_support_counts_c6(capsys):
    code, doc = run_json(capsys, "support", "--group", "c6")
    assert code == 0
    assert (doc["P"], doc["D"]) == (80, 68)
    assert (doc["I_hook"], doc["I_cohook"]) == (80, 68)


def test_support_full_report(capsys):
    code, doc = run_json(capsys, "support", "--group", "c4", "--report", "full")
    assert code == 0
    assert len(doc["monomials"]) == doc["P"] == 10
    row = doc["monomials"][0]
    assert set(row) == {"exp", "p_m", "d_m", "det_coeff", "hook_coeff", "cohook_coeff"}
    assert all(r["d_m"] == r["det_coeff"] for r in doc["monomials"])


def test_padic_all_c4(capsys):
    code, out = run_cli(capsys, "padic", "--group", "c4", "--all")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 10
    assert all(r["strictly_minimal"] == "True" for r in rows)
    assert {r["sequence"] for r in rows} >= {"0 0 0 0", "1 1 1 1", "0 0 2 2"}


def test_padic_single_sequence(capsys):
    code, out = run_cli(capsys, "padic", "--group", "c4", "--sequence", "0,0,2,2")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows == [
        {"sequence": "0 0 2 2", "min_valuation": "3", "strictly_minimal": "True"}
    ]


def test_padic_product_group_sequence(capsys):
    code, out = run_cli(
        capsys, "padic", "--group", "c2xc2", "--sequence", "0:0,1:1,0:1,1:0"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["sequence"] == "0:0 1:1 0:1 1:0"


def test_padic_rejects_composite_order(capsys):
    code = main(["padic", "--group", "c6", "--all"])
    assert code == 2


def test_padic_requires_mode(capsys):
    with pytest.raises(SystemExit) as err:
        main(["padic", "--group", "c4"])
    assert err.value.code == 2
    assert "one of the arguments --all --sequence is required" in capsys.readouterr().err


def test_padic_refuses_all_with_sequence(capsys):
    with pytest.raises(SystemExit) as err:
        main(["padic", "--group", "c4", "--all", "--sequence", "0,0,2,2"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed with argument" in captured.err


def test_minors_c5_all_pass(capsys):
    code, doc = run_json(capsys, "minors", "--group", "c5", "--seeds", "2")
    assert code == 0
    statuses = {name: entry["status"] for name, entry in doc["checks"].items()}
    assert statuses["conv"] == statuses["jacobi"] == "pass"
    assert statuses["f1"] == statuses["t2t12"] == statuses["scalars"] == "pass"
    assert statuses["reduction"] == "skipped"


def test_minors_c6_even_skips(capsys):
    code, doc = run_json(
        capsys, "minors", "--group", "c6", "--seeds", "1", "--checks", "f1,reduction"
    )
    assert code == 0
    assert doc["checks"]["f1"]["status"] == "skipped"
    assert doc["checks"]["reduction"]["status"] == "pass"


def test_minors_unknown_check(capsys):
    code = main(["minors", "--group", "c5", "--checks", "bogus"])
    assert code == 2


def test_verify_prop42(capsys):
    code, doc = run_json(capsys, "verify", "--suite", "prop42")
    assert code == 0
    assert doc["passed"]
    assert {r["group"] for r in doc["reports"]} == {"c6", "c8"}


def test_verify_byte_identical(capsys):
    _, first = run_cli(capsys, "verify", "--suite", "prop42", "--seed", "1")
    _, second = run_cli(capsys, "verify", "--suite", "prop42", "--seed", "1")
    assert first == second


def test_verify_groups_override_and_skip(capsys):
    code, doc = run_json(
        capsys, "verify", "--suite", "thm15", "--groups", "c7,c6"
    )
    assert code == 0
    by_group = {r["group"]: r["status"] for r in doc["reports"]}
    assert by_group == {"c7": "pass", "c6": "skipped"}


def test_verify_ignores_a_stray_imm_threads(capsys, monkeypatch):
    # the engine has no worker setting: a junk value must not fail a theorem
    monkeypatch.setenv("IMM_THREADS", "lots")
    code, doc = run_json(capsys, "verify", "--suite", "thm15")
    assert code == 0
    assert {r["status"] for r in doc["reports"]} == {"pass"}


def test_verify_max_order_filter(capsys):
    code, doc = run_json(capsys, "verify", "--suite", "hall", "--max-order", "5")
    assert code == 0
    orders = {r["group"] for r in doc["reports"]}
    assert "c8" not in orders and "c4" in orders


@pytest.mark.parametrize("argv", [
    ("--suite", "jacobi", "--max-order", "2"),
    ("--suite", "charlayer", "--max-order", "1"),
])
def test_verify_that_checks_nothing_is_a_usage_error(capsys, argv):
    code = main(["verify", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "leave no check" in captured.err


@pytest.mark.parametrize("argv", [
    ("support", "--group", "c14"),
    ("support", "--group", "c20", "--report", "full"),
    ("padic", "--group", "c16", "--all"),
    ("search-pd-gap", "--max-order", "14"),
])
def test_hall_envelope_refuses_before_enumerating(capsys, argv):
    from cayley_immanants import supports

    supports.hall_support.cache_clear()
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    # the refusal comes first: no group was counted, not even the small ones
    assert "above the enumeration envelope" in captured.err
    assert "order" not in captured.err
    assert supports.hall_support.cache_info().currsize == 0


@pytest.mark.parametrize("group", ["c11", "c12", "c13"])
def test_support_full_report_refuses_above_the_sweep_envelope(capsys, group):
    # c13 passes the Hall envelope, but its rows would walk order-13 classes
    from cayley_immanants import supports

    supports.hall_support.cache_clear()
    code = main(["support", "--group", group, "--report", "full"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "exceeds the immanant envelope" in captured.err
    assert supports.hall_support.cache_info().currsize == 0


@pytest.mark.parametrize("argv", [
    ("minors", "--group", "c5", "--checks", ""),
    ("minors", "--group", "c5", "--checks", "conv,"),
    ("verify", "--suite", "prop42", "--groups", ""),
    ("verify", "--suite", "prop42", "--groups", "c6,,c8"),
])
def test_empty_selection_is_a_usage_error(capsys, argv):
    # an empty list would select nothing, not fall back to every check or group
    with pytest.raises(SystemExit) as err:
        main(list(argv))
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "empty name in comma list" in captured.err


@pytest.mark.parametrize("argv", [
    ("minors", "--group", "c5", "--checks", "f1,f1"),
    ("minors", "--group", "c5", "--checks", "conv,f1,conv"),
    ("verify", "--suite", "thm15", "--groups", "c7,c7"),
])
def test_repeated_selection_is_a_usage_error(capsys, argv):
    # a repeated name would run its check twice, not select anything more
    with pytest.raises(SystemExit) as err:
        main(list(argv))
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "repeated name in comma list" in captured.err


def test_explore_conjecture3(capsys):
    code, doc = run_json(capsys, "explore", "--conjecture", "3", "--n", "7")
    assert code == 0
    assert doc["P"] == doc["I_(n-2,1,1)"]
    assert doc["equal"] is True
    assert "no result is asserted" in doc["note"]


def test_explore_rejects_even_n(capsys):
    assert main(["explore", "--conjecture", "3", "--n", "6"]) == 2


def test_explore_rejects_unknown_conjecture(capsys):
    with pytest.raises(SystemExit) as err:
        main(["explore", "--conjecture", "4", "--n", "7"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice: 4" in captured.err


@pytest.mark.parametrize("max_order", ["1", "0", "-3"])
def test_search_pd_gap_rejects_orders_that_search_nothing(capsys, max_order):
    with pytest.raises(SystemExit) as err:
        main(["search-pd-gap", "--max-order", max_order])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"must be at least 2, got {max_order}" in captured.err


def test_search_pd_gap(capsys):
    code, doc = run_json(capsys, "search-pd-gap", "--max-order", "6")
    assert code == 0
    assert doc["gap_orders"] == [6]
    by_name = {row["group"]: row for row in doc["groups"]}
    assert by_name["c6"]["P"] == 80 and by_name["c6"]["D"] == 68
    assert by_name["c4"]["gap"] is False
    assert by_name["c2xc2"]["gap"] is False


@pytest.mark.parametrize("argv", [("--seeds", "0"), ("--seeds", "-3"), ("--range", "1")])
def test_minors_rejects_counts_that_check_nothing(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(["minors", "--group", "c5", *argv])
    assert err.value.code == 2


def test_forced_failure_names_one_equation(capsys, monkeypatch):
    from fractions import Fraction

    from cayley_immanants import verify

    monkeypatch.setattr(verify, "specialized_det", lambda spec, rho: Fraction(0))
    code, doc = run_json(capsys, "minors", "--group", "c5", "--seeds", "2", "--checks", "f1")
    assert code == 1
    counterexample = doc["checks"]["f1"]["counterexample"]
    assert set(counterexample) == {"seed", "equation", "lhs", "rhs"}
    assert counterexample["rhs"] == "0"
    code, doc = run_json(capsys, "verify", "--suite", "scalars", "--groups", "c5")
    assert code == 1 and doc["passed"] is False
    (report,) = [r for r in doc["reports"] if r["status"] == "fail"]
    assert report["witness"].startswith(counterexample["equation"] + ": ")


def _raise_key_error(*args, **kwargs):
    raise KeyError("boom")


def test_crashing_check_is_an_error_and_the_rest_still_report(capsys, monkeypatch):
    from cayley_immanants import supports, verify

    monkeypatch.setattr(supports, "_counts_profile", _raise_key_error)
    code, doc = run_json(capsys, "verify", "--suite", "thm13", "--max-order", "4")
    assert code == 4 and doc["passed"] is False
    by_theorem = {(r["theorem"], r["group"]): r for r in doc["reports"]}
    crashed = by_theorem[("padic-certificate", "c4")]
    assert crashed["status"] == "error"
    assert crashed["witness"] == "KeyError: 'boom'"
    assert by_theorem[("prime-power-P-equals-D", "c4")]["status"] == "pass"

    monkeypatch.setattr(verify, "T2", _raise_key_error)
    code, doc = run_json(
        capsys, "minors", "--group", "c5", "--seeds", "1", "--checks", "conv,t2t12"
    )
    assert code == 4
    assert doc["checks"]["conv"]["status"] == "pass"
    assert doc["checks"]["t2t12"] == {"status": "error", "counterexample": "KeyError: 'boom'"}


def test_a_worker_that_dies_is_a_crash_and_every_worker_is_reaped(capsys, monkeypatch, tmp_path):
    # the check dies in any forked worker; in this process it waits until one
    # has died, so the worker is sure to take a shard
    from cayley_immanants import verify

    parent = os.getpid()
    died = tmp_path / "died"

    def body(spec, seed):
        if os.getpid() != parent:
            died.touch()
            os._exit(9)
        deadline = time.monotonic() + 30
        while not died.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        return None

    check = verify.Check("hall", "dies-in-a-worker", ("c3", "c4", "c5"), body, verify._no_params)
    monkeypatch.setattr(verify, "CHECKS", (check,))
    monkeypatch.setattr(verify, "_worker_count", lambda shards: 2)
    with pytest.raises(RuntimeError, match="exited with code 9"):
        verify.run_suite("hall")
    died.unlink()
    code, out = run_cli(capsys, "verify", "--suite", "hall")
    assert (code, out) == (4, "")
    assert died.exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "exc",
    [ArithmeticError("partition-formula value 3 not divisible by 2"),
     IdentityCheckError("F1 = det", 1, 0)],
    ids=["ArithmeticError", "IdentityCheckError"],
)
def test_failed_check_outside_verify_exits_1_with_a_message(capsys, monkeypatch, exc):
    from cayley_immanants import supports

    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(supports, "det_coeff", fail)
    code = main(["support", "--group", "c5"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {type(exc).__name__}: {exc}\n"


def test_crash_outside_verify_exits_4_with_a_traceback(capsys, tmp_path):
    # an --out path whose directory does not exist
    code = main(["support", "--group", "c3", "--out", str(tmp_path / "missing" / "out.json")])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.err.startswith("Traceback")
    assert "FileNotFoundError" in captured.err


def test_verify_charlayer_selectable(capsys):
    code, doc = run_json(capsys, "verify", "--suite", "charlayer")
    assert code == 0
    assert len(doc["reports"]) == 7


def test_search_pd_gap_progress_goes_to_stderr(capsys):
    main(["search-pd-gap", "--max-order", "4"])
    captured = capsys.readouterr()
    assert json.loads(captured.out)["max_order"] == 4
    assert [line.split()[2] for line in captured.err.splitlines()] == ["c2", "c3", "c2xc2", "c4"]


# sha256 of stdout for fixed calls (of the written file, for `--out FILE`):
# a refactor must leave these bytes unchanged.
STDOUT_SHA256 = {
    "imm --group c2xc4 --partition 3,2,1,1,1":
        "60de1bdf2f72639cbd11579699671454ca5d66d44e4cf8adcea1cb999b2b4c59",
    "imm --group c2xc2xc2 --partition 2,2,2,1,1":
        "27b53a05275f78080fce32848ff56bca246150cf52a97e904d09daff2279b670",
    "twin --group c8":
        "57a76299209c7c5e9bfeb444f7f68ac0bec7484df59db638e7793854984dbc04",
    "imm --group c5 --partition 3,1,1 --out FILE":
        "8de205397259727d40e51740dcf81a62caf626f79342ed8d197cfdb2ba750c99",
    "imm --group c4 --partition 2,1,1":
        "b1d3ea68d1c06ed8ba48850a3968bfbbd25921b4937ab4088544d0796c478407",
    "twin --group c6":
        "d7599b9650aec39014003a2b3d5290cf671b8da8eeb2ec0b5733a2fe0071d21f",
    "support --group c6 --report full":
        "71534368fd5082fb6be854666356302808ba0fb2b0ba6d746aef522045fd91ae",
    "padic --group c4 --all":
        "db948cc830c4c687bf8d8482c94a684efa3c87e975123893b3702429f7f9bd6d",
    "minors --group c5 --seeds 2":
        "1e3c6bd11937b96b71104d86355adbe8ad27b620bcd12e0198ba24d806fe9beb",
    "verify --suite hall --max-order 6":
        "7720cd6ab9aaa9167e9efda9768314b2a72f832109fd634b71d221ab150e670f",
    # largest orbits: 20 (c10) and 16 (c2xc4) affine; 4 (c8) and 48 (c3xc3)
    # under automorphisms, the orbits that `padic` uses
    "support --group c10 --report full":
        "d2ffe0dbc0da5d4a01b05dcf7e19efa91b4438cf232f3538e8672044b073547a",
    "support --group c2xc4 --report full":
        "81024a9580f5416dcadc46b9b9400c2bffd8594ac2a16fb14a1c5f463fb006e6",
    "padic --group c8 --all":
        "61afd84aad70986f1f481c6cbce39f58db0e56cf619c272957ecf03d41893ed4",
    "padic --group c3xc3 --all":
        "c06ba00c149a84d54166b8857b7fc0b3c5bd844a25589812dc51c5de5481eaf6",
    # the two non-cyclic 2-groups of order 8
    "padic --group c2xc2xc2 --all":
        "02d7f116ccf5ff2fb3ef2b6f7ca3be339e49959d3af0946b92be3e5321c84af9",
    "padic --group c2xc4 --all":
        "cca2180de95f92ae0ef668e9181f7ed931cde597fdb0358ab8b6957128048c1d",
    # every exact-minor check, through `minors` and through `verify`
    "minors --group c7 --seeds 2 --checks conv,jacobi,f1,t2t12,scalars,reduction":
        "d07b8253e85bab69efb36828efe07b64a301bea0c9aac5360d89ff5a2c5f58f0",
    "verify --suite scalars --max-order 7 --seed 2":
        "8b2abcbf2d283be7ffca6a7ba7639f92c3315d2a2ddd9969a457260ef643afb6",
    # the minors call of the benchmark's `verify` workload
    "minors --group c11 --seeds 3 --seed 1 --checks conv,jacobi,f1,t2t12,scalars":
        "fab9335f9afc9e30b63c514c56827e741f06ab2f5ebaf49d02da6ff8e89e5623",
    # the headline command, as `perfbench/workloads.py` pins it; run after
    # other tests have filled the per-process caches, with its rows in
    # per-group forked workers on a host with more than one CPU
    "verify --suite all --seed 1":
        "36df352ee8f715f8e080c49624b504410a543b2bedb91f2f67f2ee9ddcc15920",
}


@pytest.mark.parametrize("call", sorted(STDOUT_SHA256))
def test_stdout_is_byte_identical(capsys, tmp_path, call):
    path = tmp_path / "out.json"
    code, out = run_cli(capsys, *call.replace("FILE", str(path)).split())
    assert code == 0
    data = path.read_bytes() if "FILE" in call else out.encode()
    assert hashlib.sha256(data).hexdigest() == STDOUT_SHA256[call]
