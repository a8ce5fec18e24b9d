"""Benchmark of the `cayley-imm` CLI, run cold, one fresh interpreter per call.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from `src/` and
needs no build.  `--workload all` runs every workload and prints each
end-to-end metric by name with its unit.

Untraced (`--trace 0`): one discarded warm-up call, then passes over the
workload's calls until `--seconds` would be exceeded, at least one pass.
SETUP_PER_GAP no-work calls run before the first pass and after each of its
calls; their median is `setup_s`.  Each call is a separate
`python3 -m cayley_immanants` process; its peak RSS comes from `os.wait4`.

Traced (`--trace 1`): the same calls run in one fresh interpreter, once plain
and once with spans around each layer's public functions (see inproc.py).

A call fails on a nonzero exit or on stdout that does not match its pinned
sha256.  The last stdout line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  Each run also writes its conditions,
calls and metrics to `perfbench/results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# The no-work calls are spread over the first pass, not run in one block,
# so a short slow spell of the host does not move them all.
SETUP_PER_GAP = 4
RESULTS = HERE / "results"


@dataclass
class Call:
    argv: tuple[str, ...]
    wall_s: float
    rss_mb: float
    returncode: int
    error: str | None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("IMM_THREADS", None)  # the engine's default of one worker applies
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_process(cmd: list[str], env: dict[str, str]) -> tuple[float, float, int, bytes, bytes]:
    """Run cmd; return wall seconds, its own peak RSS in MB, exit code, stdout, stderr.

    The child is reaped with os.wait4, whose rusage covers that child
    alone; RUSAGE_CHILDREN would carry the largest earlier child forward.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT)
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, out, err[0]


def run_cli(argv: tuple[str, ...], env: dict[str, str]) -> Call:
    cmd = [sys.executable, "-m", "cayley_immanants", *argv]
    wall, rss, rc, out, err = run_process(cmd, env)
    call = Call(argv, wall, rss, rc, workloads.check_output(argv, rc, out))
    if call.error:
        tail = err.decode(errors="replace").strip().splitlines()[-3:]
        print(f"FAILED {' '.join(argv)}: {call.error} {tail}", file=sys.stderr)
    return call


def conditions() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "loadavg_start": loadavg(),
    }


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, if there is one.

    `git rev-parse` also finds a ref kept only in packed-refs, and a `.git`
    file of a worktree.  No enclosing repository is consulted.
    """
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    """sha256 over src/ file names and contents: identifies the code measured."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload: workloads.Workload, seed: int, seconds: float, env) -> tuple[dict, list[Call]]:
    """The untraced run: end-to-end metrics and every timed call."""
    run_cli(workloads.SETUP_CALL, env)  # warm-up: .pyc files and page cache

    def setup_calls() -> list[Call]:
        return [run_cli(workloads.SETUP_CALL, env) for _ in range(SETUP_PER_GAP)]

    setup = setup_calls()
    argvs = workload.argvs(seed)
    calls: list[Call] = []
    passes: list[float] = []
    start = time.perf_counter()
    while True:
        batch = []
        for argv in argvs:
            batch.append(run_cli(argv, env))
            if not passes:
                setup += setup_calls()
        calls.extend(batch)
        passes.append(sum(c.wall_s for c in batch))
        if time.perf_counter() - start + passes[-1] > seconds:
            break
    wall = statistics.median(passes)
    metrics = {
        "wall_s": metric(wall, "s"),
        "setup_s": metric(statistics.median(c.wall_s for c in setup), "s"),
        "peak_rss_mb": metric(max(c.rss_mb for c in calls), "MB"),
        "work_per_s": metric(workload.work / wall, "1/s"),
    }
    return metrics, setup + calls


def run_inproc(workload: str, seed: int, env, spans: Path | None) -> dict:
    cmd = [sys.executable, str(HERE / "inproc.py"), "--workload", workload, "--seed", str(seed)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    wall, _, rc, out, err = run_process(cmd, env)
    if rc != 0:
        sys.stderr.write(err.decode(errors="replace"))
        raise SystemExit(f"in-process run of {workload} exited with {rc}")
    return json.loads(out.decode().strip().splitlines()[-1])


def trace(workload: workloads.Workload, seed: int, env, stamp: str) -> tuple[dict, list[dict]]:
    """The traced run: per-layer metrics, and tracing overhead against a plain run."""
    run_cli(workloads.SETUP_CALL, env)  # warm-up, as in the untraced run
    plain = run_inproc(workload.name, seed, env, None)
    spans = RESULTS / f"spans-{workload.name}-s{seed}-{stamp}.json"
    traced = run_inproc(workload.name, seed, env, spans)
    metrics = traced["metrics"]
    overhead = (sum(c["wall_s"] for c in traced["calls"])
                - sum(c["wall_s"] for c in plain["calls"]))
    metrics["trace.overhead_s"] = metric(overhead, "s")
    for c in plain["calls"] + traced["calls"] + traced["probe_calls"]:
        if c["error"]:
            print(f"FAILED in-process {' '.join(c['argv'])}: {c['error']}", file=sys.stderr)
    return metrics, plain["calls"] + traced["calls"] + traced["probe_calls"]


def summary_lines(name: str, metrics: dict, attempted: int, failed: int) -> list[str]:
    """Every end-to-end metric by name, with the throughput named per workload."""
    unit = workloads.WORKLOADS[name].unit
    lines = [f"{name}.{k} = {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
    if "work_per_s" in metrics:
        lines.append(f"{name}.{unit}_per_s = {metrics['work_per_s']['value']:.6g} 1/s")
    lines.append(f"{name}.error_rate = {failed / attempted:.6g} failed/attempted")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cayley_immanants" / "cli.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'cayley_immanants'} is missing",
              file=sys.stderr)
        return 2
    env = child_env()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    RESULTS.mkdir(exist_ok=True)
    combined: dict = {}
    attempted = failed = 0
    for name in names:
        workload = workloads.WORKLOADS[name]
        stamp = time.strftime("%Y%m%dT%H%M%S")
        record = {"workload": name, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "conditions": conditions()}
        if args.trace:
            metrics, calls = trace(workload, args.seed, env, stamp)
            errors = [c["error"] for c in calls]
            record["calls"] = calls
        else:
            metrics, timed = measure(workload, args.seed, args.seconds, env)
            errors = [c.error for c in timed]
            record["calls"] = [
                {"argv": list(c.argv), "wall_s": c.wall_s, "rss_mb": c.rss_mb,
                 "returncode": c.returncode, "error": c.error} for c in timed]
        record["conditions"]["loadavg_end"] = loadavg()
        record["metrics"] = metrics
        n_failed = sum(1 for e in errors if e)
        attempted += len(errors)
        failed += n_failed
        out = RESULTS / f"{name}-s{args.seed}-t{args.trace}-{stamp}.json"
        out.write_text(json.dumps(record, indent=1))
        print(json.dumps(record["conditions"]), file=sys.stderr)
        for line in summary_lines(name, metrics, len(errors), n_failed):
            print(line)
        if len(names) == 1:
            combined = metrics
        else:
            combined.update({f"{name}.{k}": m for k, m in metrics.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
