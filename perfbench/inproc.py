"""Run one workload's CLI calls inside one fresh interpreter, traced or not.

    python3 perfbench/inproc.py --workload verify --seed 1 [--spans FILE]

Every call goes through `cayley_immanants.cli.main` in the order the
workload lists it.  Before each call every `lru_cache` in the package is
cleared, so each call pays its own cache fills as a separate CLI process
would.  With `--spans`, the public functions of each layer are wrapped from
outside; every call records spans `[name, start, end, parent, run_id]` in
memory, and they are written to FILE when the run ends.  The last stdout
line is one JSON object: per-call results and, when traced, the per-layer
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import os
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

# Functions wrapped by the tracer, by module: attribute -> span family.
# Families name the per-layer metric they feed.
TRACED = {
    "groups": {
        "add_table": "groups.tables",
        "neg_table": "groups.tables",
        "doubling_counts": "groups.tables",
    },
    "characters": {
        "mn_character": "characters.weights",
        "twin_diff_char": "characters.weights",
    },
    "immanants": {
        "immanant": "immanants.sweep",
        "determinant": "immanants.sweep",
        "permanent": "immanants.sweep",
        "twin_difference": "immanants.sweep",
        "perm_class_stats": "immanants.class_stats",
    },
    "supports": {
        "hall_support": "supports.hall",
        "count_I_nearhook": "supports.det_coeff",
        "count_D": "supports.det_coeff",
        "padic_profile": "supports.padic",
    },
    "minors": {
        "specialized_det": "minors.det",
        "jacobi_check": "minors.jacobi",
        "F1": "minors.scalars",
        "T2": "minors.scalars",
        "T12": "minors.scalars",
        "lemma43_scalars": "minors.scalars",
    },
    "verify": {
        f"suite_{s}": f"verify.{s}"
        for s in ("hall", "thm13", "thm14", "thm15", "prop42", "jacobi",
                  "scalars", "charlayer")
    },
    "cli": {
        "_json": "cli.json",
        "cmd_imm": "cli.cmd_imm",
        "cmd_twin": "cli.cmd_twin",
    },
}

# Work a span did, read from its arguments and result.
EXTRA = {
    "immanants.sweep": lambda args, result: math.factorial(args[0].order),
    "immanants.class_stats": lambda args, result: result.p_m,
    "supports.hall": lambda args, result: len(result),
    "minors.jacobi": lambda args, result: result.checked,
}

NAME, START, END, PARENT, RUN, EXTRA_VALUE = range(6)


class Tracer:
    """Spans kept in memory; a wrapper per traced function."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.run_id = 0

    def wrap(self, family: str, fn):
        if hasattr(fn, "cache_info"):
            # A fresh cache around the traced body: spans mark cold fills
            # only, and a hit costs what it costs untraced.
            return functools.lru_cache(**fn.cache_parameters())(
                self.wrap(family, fn.__wrapped__))
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        extra = EXTRA.get(family)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [family, clock(), 0.0, stack[-1] if stack else -1, self.run_id, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()
            if extra is not None:
                span[EXTRA_VALUE] = extra(args, result)
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Replace each traced function wherever the package refers to it."""
        # run_suite dispatches through this dict, not the module names.
        suites = vars(modules["verify"])["_SUITE_FUNCS"]
        for mod_name, table in TRACED.items():
            for attr, family in table.items():
                original = getattr(modules[mod_name], attr)
                wrapper = self.wrap(family, original)
                for module in modules.values():
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                for key, value in list(suites.items()):
                    if value is original:
                        suites[key] = wrapper
        poly_cls = modules["polynomials"].GroupPolynomial
        poly_cls.to_json_dict = self.wrap("polynomials.to_json_dict", poly_cls.to_json_dict)


def _caches(modules: dict) -> list:
    found = []
    for module in modules.values():
        for value in vars(module).values():
            if hasattr(value, "cache_clear") and getattr(value, "__module__", None) == module.__name__:
                found.append(value)
    return found


def run_calls(argvs, modules, caches, memo, tracer=None):
    """Run each argv through cli.main; return one record per call."""
    cli = modules["cli"]
    records = []
    for run_id, argv in enumerate(argvs):
        for cache in caches:
            cache.cache_clear()
        if tracer is not None:
            tracer.run_id = run_id
        buffer = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buffer):
                rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001 - the call fails, the run goes on
            traceback.print_exc()
            rc = -1
        wall = time.perf_counter() - start
        info = memo.cache_info()
        error = workloads.check_output(argv, rc, buffer.getvalue().encode())
        records.append({
            "argv": list(argv), "wall_s": wall, "error": error,
            "memo_hits": info.hits, "memo_misses": info.misses,
            "memo_entries": info.currsize,
        })
    return records


def _children(spans):
    kids = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            kids[span[PARENT]].append(i)
    return kids


def _outermost(spans, family):
    """Spans of a family with no ancestor of the same family."""
    out = []
    for i, span in enumerate(spans):
        if span[NAME] != family:
            continue
        p = span[PARENT]
        while p >= 0 and spans[p][NAME] != family:
            p = spans[p][PARENT]
        if p < 0:
            out.append(i)
    return out


def _duration(span):
    return span[END] - span[START]


def _total(spans, family, exclude=()):
    """Time in the family's outermost spans, minus nested spans of `exclude`."""
    kids = _children(spans)
    total = 0.0
    for i in _outermost(spans, family):
        total += _duration(spans[i])
        todo = list(kids[i])
        while todo:
            j = todo.pop()
            if spans[j][NAME] in exclude:
                total -= _duration(spans[j])
            else:
                todo.extend(kids[j])
    return total


def layer_metrics(spans, records, import_s, probe):
    kids = _children(spans)

    def self_time(family):
        return sum(
            _duration(s) - sum(_duration(spans[k]) for k in kids[i])
            for i, s in enumerate(spans) if s[NAME] == family
        )

    def extra_sum(family, outermost=False):
        idx = _outermost(spans, family) if outermost else [
            i for i, s in enumerate(spans) if s[NAME] == family]
        return sum(spans[i][EXTRA_VALUE] or 0 for i in idx)

    sweep_s = self_time("immanants.sweep")
    perms = extra_sum("immanants.sweep", outermost=True)
    serialize = _total(spans, "polynomials.to_json_dict") + sum(
        _duration(s) for s in spans
        if s[NAME] == "cli.json" and s[PARENT] >= 0
        and spans[s[PARENT]][NAME] in ("cli.cmd_imm", "cli.cmd_twin")
    )
    hits = sum(r["memo_hits"] for r in records)
    lookups = hits + sum(r["memo_misses"] for r in records)
    metrics = {
        "cli.import_s": (import_s, "s"),
        "groups.tables_s": (_total(spans, "groups.tables"), "s"),
        "characters.weights_s": (_total(spans, "characters.weights"), "s"),
        "immanants.sweep_s": (sweep_s, "s"),
        "immanants.perms_per_s": (perms / sweep_s if sweep_s else 0.0, "1/s"),
        "immanants.sweep_workers2_s": (probe.get("workers2_s", 0.0), "s"),
        "immanants.pool_speedup": (probe.get("speedup", 0.0), "ratio"),
        "polynomials.serialize_s": (serialize, "s"),
        "supports.hall_s": (_total(spans, "supports.hall"), "s"),
        "supports.hall_monomials": (extra_sum("supports.hall"), "count"),
        "supports.det_coeff_s": (
            _total(spans, "supports.det_coeff", exclude=("supports.hall",)), "s"),
        "supports.memo_entries": (sum(r["memo_entries"] for r in records), "count"),
        "supports.memo_hits": (hits, "count"),
        "supports.memo_hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
        "supports.padic_s": (_total(spans, "supports.padic"), "s"),
        "immanants.class_stats_s": (_total(spans, "immanants.class_stats"), "s"),
        "immanants.class_perms": (extra_sum("immanants.class_stats"), "count"),
        "minors.det_s": (_total(spans, "minors.det"), "s"),
        "minors.jacobi_s": (_total(spans, "minors.jacobi"), "s"),
        "minors.jacobi_minors": (extra_sum("minors.jacobi"), "count"),
        "minors.scalars_s": (_total(spans, "minors.scalars"), "s"),
    }
    for suite in TRACED["verify"].values():
        metrics[suite + "_s"] = (_total(spans, suite), "s")
    return {k: {"value": v if u == "count" else float(v), "unit": u}
            for k, (v, u) in metrics.items()}


def pool_probe(workload, seed, spans, modules, caches, memo, tracer):
    """Repeat the workload's first `imm` call with IMM_THREADS=2.

    The pool is used nowhere else; its output must match the pinned digest
    of the serial call.  The speedup compares the two calls' immanant spans.
    """
    argvs = workload.argvs(seed)
    first = next((i for i, a in enumerate(argvs) if a[0] == "imm"), None)
    if first is None:
        return {}, []
    serial = [s for s in spans if s[NAME] == "immanants.sweep" and s[RUN] == first]
    mark = len(spans)
    os.environ["IMM_THREADS"] = "2"
    try:
        probe_records = run_calls([argvs[first]], modules, caches, memo, tracer)
    finally:
        del os.environ["IMM_THREADS"]
    pooled = [s for s in spans[mark:] if s[NAME] == "immanants.sweep"]
    workers2 = _duration(pooled[0]) if pooled else 0.0
    speedup = _duration(serial[0]) / workers2 if serial and workers2 else 0.0
    # Keep the probe's spans out of the workload's per-layer sums.
    del spans[mark:]
    return {"workers2_s": workers2, "speedup": speedup}, probe_records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", help="trace, and write the spans to this file")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    os.environ.pop("IMM_THREADS", None)
    start = time.perf_counter()
    import cayley_immanants.cli  # noqa: F401 - timed package import
    import_s = time.perf_counter() - start
    modules = {
        name: sys.modules[f"cayley_immanants.{name}"]
        for name in ("groups", "characters", "polynomials", "immanants",
                     "supports", "minors", "verify", "cli")
    }
    tracer = None
    if args.spans:
        tracer = Tracer()
        tracer.install(modules)
    caches = _caches(modules)  # after install: the tracer adds its own caches
    memo = modules["supports"]._anchored_block_sum
    records = run_calls(workload.argvs(args.seed), modules, caches, memo, tracer)
    doc = {"calls": records}
    if tracer is not None:
        probe, probe_records = pool_probe(
            workload, args.seed, tracer.spans, modules, caches, memo, tracer)
        doc["probe_calls"] = probe_records
        doc["metrics"] = layer_metrics(tracer.spans, records, import_s, probe)
        keys = ("name", "start", "end", "parent", "run_id")
        with open(args.spans, "w") as handle:
            json.dump([dict(zip(keys, s)) for s in tracer.spans], handle)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
