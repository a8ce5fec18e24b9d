"""Checks of the benchmark's own correctness handling; each takes seconds."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def test_wrong_digest_is_counted_not_raised(monkeypatch, capsys, tmp_path):
    call = ("support", "--group", "c3")
    tiny = workloads.Workload("tiny", "calls", ((call, 1),))
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", tiny)
    monkeypatch.setitem(workloads.PINNED, " ".join(call), "0" * 64)
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    assert run.main(["--workload", "tiny", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["attempted"] == 2 * run.SETUP_PER_GAP + 1
    assert result["metrics"]["wall_s"]["value"] > 0


def test_unpinned_seed_needs_a_passing_report():
    argv = workloads.expand(workloads.WORKLOADS["verify"].calls[0][0], 10**9)
    assert " ".join(argv) not in workloads.PINNED
    assert workloads.check_output(argv, 0, b'{"passed": true}') is None
    assert workloads.check_output(argv, 0, b'{"passed": false}') is not None
    assert workloads.check_output(argv, 0, b"not json") is not None
    assert workloads.check_output(argv, 1, b'{"passed": true}') is not None
    minors = {"checks": {"conv": {"status": "pass"}, "f1": {"status": "fail"}}}
    assert workloads.check_output(argv, 0, json.dumps(minors).encode())


def test_refuses_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
