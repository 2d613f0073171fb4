#!/usr/bin/env python3
"""burchlab benchmark: three workloads, end-to-end metrics, per-layer traces.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, one process each

With --workload, one workload runs in this process: set-up (import plus
input parsing), then whole passes over the workload's calls until --seconds
is used up (at least one pass), every report checked against its golden or
stored reference.  Set-up is timed again a few times before the passes and
after every call, so that its median samples the whole run.  Times are in
reference seconds, corrected for the CPU's speed by speed.SpeedProbe; raw
wall time is printed too.  --trace 1 adds one
traced pass after the untraced ones and reports per-layer numbers instead of
the end-to-end ones.  The last stdout line is the JSON result; the lines
before it name every metric with its unit.  Without --workload, each
workload runs in a fresh child process, one after another, and a summary of
all of them is printed and written under perfbench/out/.

Exit codes: 0 all outputs correct, 1 some output wrong, 2 the program
cannot be imported (no result line is printed then).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from speed import PlainClock, SpeedProbe  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, SetupError, build_calls, import_package  # noqa: E402

OUT_DIR = HERE / "out"
# set-up samples taken before the passes, and after each call
SETUP_FIRST = 3
SETUP_BETWEEN = 2

END_TO_END = [("norm_wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

# Jobs with a time of their own.  ex_structure (about 10 ms) runs, is checked
# and counts in norm_wall_s, but gets no metric.
JOB_METRICS = {
    "corpus": ["ex_m2_3vars", "ex_bione", "ex_jn", "ex_m2_2vars"],
    "theorem-a": ["k", "R_x", "random2"],
    "bar-deep": ["bar_ainf", "bar_dg"],
}

# metric name -> traced function name
HOT = {
    "groebner.normal_form": "groebner.Ideal.normal_form",
    "groebner.standard_monomials": "groebner.Ideal.standard_monomials",
    "groebner.module_groebner": "groebner.module_groebner",
    "linalg.SparseEchelon.insert": "linalg.SparseEchelon.insert",
    "complexes.strand_columns": "complexes.GradedFreeComplex.strand_columns",
    "complexes.homology_dims": "complexes.GradedFreeComplex.homology_dims",
    "taylor.check_leibniz": "taylor.DgAlgebra.check_leibniz",
    "tate.acyclic_closure": "tate.acyclic_closure",
    "tate.homology_cycle_generators": "tate.homology_cycle_generators",
    "dgmodule.build_semifree_resolution": "dgmodule.build_semifree_resolution",
    "contraction.minimalize": "contraction.minimalize",
    "resolve.resolve_over_R": "resolve.resolve_over_R",
    "resolve.kernel_gens_over_R": "resolve.kernel_gens_over_R",
    "resolve.minimal_module_generators": "resolve.minimal_module_generators",
    "krank.krank_strand": "krank.krank_strand",
    "bar.BarComplex": "bar.BarComplex.__init__",
    "bar.exactness_check": "bar.BarComplex.exactness_check",
    "ainfty.AInfAlgebra.op": "ainfty.AInfAlgebra.op",
    "ainfty.AInfModule.op": "ainfty.AInfModule.op",
    "cycles.project_to_minimal": "cycles.project_to_minimal",
    "cycles.splitting_check": "cycles.splitting_check",
}

COUNTERS = [
    ("bar.words", "count", "lower"),
    ("contraction.eliminated", "count", "lower"),
    ("groebner.module_groebner.basis_size", "count", "lower"),
    ("resolve.betti_total", "count", "lower"),
    ("taylor.leibniz_pairs", "count", "lower"),
    ("dgmodule.generators", "count", "lower"),
    ("tate.variables", "count", "lower"),
    ("cycles.survivors", "count", "higher"),
    ("ainfty.op.distinct_ratio", "ratio", "higher"),
]


def per_layer_spec() -> list:
    """(name, unit, better) of every per-layer metric, in output order."""
    spec = [("raw_wall_s", "s", "lower"),
            ("traced_wall_s", "s", "lower"), ("untraced_s", "s", "lower"),
            ("tracer_cost_s", "s", "lower"), ("tracing_overhead_s", "s", "lower")]
    spec += [(f"job.{j}_s", "s", "lower") for w in WORKLOADS for j in JOB_METRICS[w]]
    for layer in LAYERS:
        spec += [(f"{layer}.calls", "count", "lower"), (f"{layer}.self_s", "s", "lower"),
                 (f"{layer}.errors", "count", "lower")]
    for name in HOT:
        spec += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    return spec + COUNTERS


# -- machine -------------------------------------------------------------------


def git_commit(root: Path):
    """HEAD of the checkout, or None when it is not a git repository."""
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine_info(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "commit": git_commit(HERE.parent),
            "seed": seed}


# -- measuring -----------------------------------------------------------------


def _package_entries() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "burchlab" or n.startswith("burchlab.")}


def setup_sample(workload: str, seed: int, clock=PlainClock()) -> float:
    """Reference seconds of one more fresh import and input parsing.

    The package modules in use are put back afterwards, so that imports
    made at call time keep resolving to the modules the calls were bound to.
    """
    saved = _package_entries()
    gc.collect()
    mark = clock.mark()
    build_calls(workload, seed, import_package())
    seconds = clock.since(mark)[1]
    for name in _package_entries():
        del sys.modules[name]
    sys.modules.update(saved)
    return seconds


def setup(workload: str, seed: int, clock=PlainClock()):
    """Import and parse once for use, then SETUP_FIRST more times for timing.

    Returns (modules, calls, set-up reference seconds of every sample).
    """
    gc.collect()
    mark = clock.mark()
    mods = import_package()
    calls = build_calls(workload, seed, mods)
    times = [clock.since(mark)[1]]
    times += [setup_sample(workload, seed, clock) for _ in range(SETUP_FIRST)]
    return mods, calls, times


def run_pass(calls, after_call=None, clock=PlainClock()) -> dict:
    """One timed pass over the calls; a call that raises is recorded and skipped.

    after_call runs after each call, outside the timed region.  wall is the
    sum of the calls' reference seconds, raw_wall the sum of their raw seconds.
    """
    gc.collect()
    durations, raw, reports, errors = {}, {}, {}, {}
    for call in calls:
        mark = clock.mark()
        try:
            reports[call.name] = call.run()
        except Exception as e:  # a failing call is counted, the pass goes on
            errors[call.name] = f"raised {type(e).__name__}: {e}"
        raw[call.name], durations[call.name] = clock.since(mark)
        if after_call is not None:
            after_call()
    return {"wall": sum(durations.values()), "raw_wall": sum(raw.values()),
            "durations": durations, "reports": reports, "errors": errors}


def check_pass(calls, result: dict) -> dict:
    """Check every report of a pass, outside its timed region."""
    for call in calls:
        if call.name in result["reports"]:
            reason = call.check(result["reports"][call.name])
            if reason is not None:
                result["errors"][call.name] = reason
    return result


def measure(calls, seconds: float, after_call=None, clock=PlainClock()) -> list:
    """Whole passes until the next one would end after `seconds`."""
    passes, lengths = [], []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(check_pass(calls, run_pass(calls, after_call, clock)))
        lengths.append(time.perf_counter() - t0)
        if time.perf_counter() - t_start + statistics.median(lengths) > seconds:
            return passes


def install_counters(tracer: Tracer) -> dict:
    counts = {name: 0 for name, _, _ in COUNTERS}
    op_keys = set()

    def add(name, value):
        counts[name] += value

    def bar_words(args, kwargs, result):
        add("bar.words", sum(len(ws) for ws in args[0].words.values()))

    def eliminated(args, kwargs, result):
        big = sum(len(v) for v in result.big.degrees.values())
        add("contraction.eliminated", big - sum(len(v) for v in result.small.degrees.values()))

    def leibniz_pairs(args, kwargs, result):
        cx = args[0].complex
        through = args[1] if len(args) > 1 else kwargs.get("through")
        top = cx.top() if through is None else through
        rank = {n: len(v) for n, v in cx.degrees.items()}
        add("taylor.leibniz_pairs", sum(rank.get(a, 0) * rank.get(b, 0)
                                        for a in range(top + 1) for b in range(top + 1 - a)))

    def op_key(tag):
        def observe(args, kwargs, result):
            op_keys.add((tag, id(args[0]), args[1:], tuple(sorted(kwargs.items()))))
        return observe

    tracer.observers.update({
        "bar.BarComplex.__init__": bar_words,
        "contraction.minimalize": eliminated,
        "groebner.module_groebner": lambda a, k, r: add("groebner.module_groebner.basis_size", len(r)),
        "resolve.resolve_over_R": lambda a, k, r: add(
            "resolve.betti_total", sum(len(v) for v in r.degrees.values())),
        "taylor.DgAlgebra.check_leibniz": leibniz_pairs,
        "cycles.project_to_minimal": lambda a, k, r: add("cycles.survivors", r[1]),
        "ainfty.AInfAlgebra.op": op_key("alg"),
        "ainfty.AInfModule.op": op_key("mod"),
    })
    return {"counts": counts, "op_keys": op_keys}


def traced_pass(mods, calls, untraced_wall: float, spans_path: Path, header: dict):
    """One traced pass in raw seconds; untraced_wall is the untraced raw wall."""
    tracer = Tracer()
    obs = install_counters(tracer)
    tracer.install(mods)
    try:
        result = run_pass(calls)
    finally:
        tracer.uninstall()
    check_pass(calls, result)
    fns = tracer.fns
    metrics = {
        "traced_wall_s": result["wall"],
        "tracing_overhead_s": result["wall"] - untraced_wall,
        "untraced_s": tracer.outside_s(result["wall"]),
        "tracer_cost_s": tracer.cost_s(),
    }
    layers = tracer.layer_totals()
    for layer, v in layers.items():
        metrics[f"{layer}.calls"] = v["calls"]
        metrics[f"{layer}.self_s"] = v["self_s"]
        metrics[f"{layer}.errors"] = v["errors"]
    for name, fn in HOT.items():
        st = fns.get(fn)
        metrics[f"{name}.calls"] = st.calls if st else 0
        metrics[f"{name}.self_s"] = st.self_s if st else 0.0
    counts = obs["counts"]
    counts["dgmodule.generators"] = getattr(fns.get("dgmodule.SemifreeDgModule.add_generator"), "calls", 0)
    counts["tate.variables"] = getattr(fns.get("tate.TateAlgebra.adjoin"), "calls", 0)
    op_calls = sum(getattr(fns.get(f"ainfty.{c}.op"), "calls", 0) for c in ("AInfAlgebra", "AInfModule"))
    counts["ainfty.op.distinct_ratio"] = len(obs["op_keys"]) / op_calls if op_calls else 0.0
    metrics.update(counts)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_spans(spans_path, header)
    return result, metrics


def run_workload(args) -> int:
    machine = machine_info(args.seed)
    with SpeedProbe() as probe:
        try:
            mods, calls, setup_times = setup(args.workload, args.seed, probe)
        except SetupError as e:
            print(f"set-up failed: {e}", file=sys.stderr)
            return 2
        print(f"machine: {json.dumps(machine)}")
        print(f"workload: {args.workload}, calls: {[c.name for c in calls]}")
        passes = measure(calls, args.seconds, lambda: setup_times.extend(
            setup_sample(args.workload, args.seed, probe) for _ in range(SETUP_BETWEEN)), probe)
    setup_s = statistics.median(setup_times)
    attempted = len(calls) * len(passes)
    failures = [(name, reason) for p in passes for name, reason in p["errors"].items()]
    norm_wall_s = statistics.median(p["wall"] for p in passes)
    raw_wall_s = statistics.median(p["raw_wall"] for p in passes)
    jobs = {f"job.{j}_s": statistics.median(p["durations"][j] for p in passes)
            for j in JOB_METRICS[args.workload]}
    shown = {"setup_s": (setup_s, "s"), "norm_wall_s": (norm_wall_s, "s"),
             "wall_s": (raw_wall_s, "s"), "speed": (probe.factor(), "1"),
             "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
             "fail_frac": (len(failures) / attempted, "1"),
             **{k: (v, "s") for k, v in jobs.items()}}
    metrics = {name: shown[name] for name, _ in END_TO_END}
    print(f"passes: {len(passes)}, set-up samples: {len(setup_times)}, "
          f"speed samples: {len(probe.samples)}")

    if args.trace:
        header = {"workload": args.workload, "machine": machine}
        spans_path = OUT_DIR / f"spans-{args.workload}.jsonl.gz"
        result, layer_metrics = traced_pass(mods, calls, raw_wall_s, spans_path, header)
        layer_metrics["raw_wall_s"] = raw_wall_s
        attempted += len(calls)
        failures += list(result["errors"].items())
        untraced_reports = passes[-1]["reports"]
        strip = mods["report"].strip_timing
        for name, rep in result["reports"].items():
            if name in untraced_reports and strip(rep) != strip(untraced_reports[name]):
                failures.append((name, "traced report differs from the untraced one"))
        # jobs of the other workloads read 0
        layer_metrics.update({f"job.{j}_s": 0.0 for w in WORKLOADS for j in JOB_METRICS[w]})
        layer_metrics.update(jobs)
        units = {name: unit for name, unit, _ in per_layer_spec()}
        metrics = {name: (layer_metrics[name], units[name]) for name, _, _ in per_layer_spec()}
        print(f"spans: {spans_path}")

    for name, reason in failures:
        print(f"FAILED {name}: {reason}")
    for name, (value, unit) in {**shown, **metrics}.items():
        print(f"{name:<44} {value:.6g} {unit}")
    out = {"correct": not failures, "attempted": attempted, "failed": len(failures),
           "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}
    print(json.dumps(out))
    return 0 if not failures else 1


def run_all(args) -> int:
    """Every workload in a fresh child process, one after another."""
    summary, worst = {}, 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        print(f"== {workload} (exit {proc.returncode})")
        print("\n".join(lines[:-1]))
        if proc.returncode == 2 or not lines:
            sys.stderr.write(proc.stderr)
            return 2
        summary[workload] = json.loads(lines[-1])
        worst = max(worst, proc.returncode)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"results-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"machine": machine_info(args.seed), "seconds": args.seconds,
                                "results": summary}, indent=2) + "\n")
    print(f"results: {path}")
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload here (default: all, one child process each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
