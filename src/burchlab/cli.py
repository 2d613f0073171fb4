"""burchlab command line: parse a job, run a pipeline, emit a report.

    burchlab <command> --job job.json [--cap N] [--prime P]
             [--regime dg|ainf|auto] [--out report.json]

Commands: burch, resolve, bar, cycles, verify-general, verify-golod, and
corpus (runs every bundled example concurrently, bounded by
BURCHLAB_THREADS, and compares against the golden reports).

Exit codes: 0 all assertions hold or are vacuous, 1 a verified bound
failed, 2 input error, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from importlib import resources

from .errors import BoundViolation, InputError, ResourceCapError
from .jobs import COMMANDS, JobSpec, load_job, parse_job
from .pipeline import (bar_report, cycles_report, resolve_report,
                       verify_general, verify_golod)
from .report import assemble, reports_equal, serialize, strip_timing

EXIT_OK = 0
EXIT_BOUND = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


def run_command(command: str, spec: JobSpec) -> tuple:
    """Dispatch one job; returns (body dict, exit code)."""
    ctx = spec.context()
    if command == "burch":
        body = {"burch": ctx.burch_summary()}
        return body, EXIT_OK
    pres = spec.presentation(ctx)
    if command == "resolve":
        body = resolve_report(ctx, pres, spec.caps)
        return body, EXIT_OK
    if command == "bar":
        regime = spec.regime
        if regime == "auto":
            regime = "ainf"
        body = bar_report(ctx, pres, spec.caps, regime)
        return body, EXIT_OK
    if command == "cycles":
        regime = spec.regime
        if regime == "auto":
            regime = "ainf" if ctx.index >= 2 else "dg"
        body = cycles_report(ctx, pres, spec.caps, regime)
        code = EXIT_OK if body.get("bounds", {}).get("allHold", True) else EXIT_BOUND
        return body, code
    if command == "verify-general":
        body = verify_general(ctx, pres, spec.caps)
        code = EXIT_OK if body["bounds"]["allHold"] or body["bounds"]["vacuous"] else EXIT_BOUND
        return body, code
    if command == "verify-golod":
        body = verify_golod(ctx, pres, spec.caps)
        code = EXIT_OK if body["bounds"]["allHold"] or body["bounds"]["vacuous"] else EXIT_BOUND
        return body, code
    raise InputError(f"unknown command {command!r}")


def corpus_entries():
    base = resources.files("burchlab").joinpath("corpus")
    names = sorted(p.name for p in base.iterdir() if p.name.endswith(".json"))
    return [(name, base.joinpath(name)) for name in names]


def run_corpus(threads: int | None, out_path: str | None) -> int:
    """Run every bundled job, compare against goldens, aggregate exit codes."""
    entries = corpus_entries()
    golden_base = resources.files("burchlab").joinpath("corpus", "golden")

    def one(entry):
        name, path = entry
        spec = parse_job(path.read_text(encoding="utf-8"))
        command = spec.command or "burch"
        t0 = time.perf_counter()
        try:
            body, code = run_command(command, spec)
        except ResourceCapError as e:
            return name, {"error": str(e)}, EXIT_RESOURCE, time.perf_counter() - t0
        report = assemble(command, spec.to_dict(), body, code)
        golden = golden_base.joinpath(name)
        match = None
        if golden.is_file():
            expected = json.loads(golden.read_text(encoding="utf-8"))
            match = reports_equal(expected, report)
            if not match:
                code = max(code, EXIT_BOUND)
        report["goldenMatch"] = match
        return name, report, code, time.perf_counter() - t0

    if threads is None:
        threads = int(os.environ.get("BURCHLAB_THREADS", "4"))
    results = []
    with ThreadPoolExecutor(max_workers=max(1, threads)) as pool:
        for res in pool.map(one, entries):
            results.append(res)

    worst = EXIT_OK
    summary = []
    for name, report, code, dt in results:
        worst = max(worst, code)
        line = f"{name}: exit {code}, {dt:.1f}s"
        if isinstance(report, dict) and report.get("goldenMatch") is not None:
            line += f", golden {'ok' if report['goldenMatch'] else 'MISMATCH'}"
        summary.append(line)
        print(line)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(serialize({
                "schemaVersion": 1,
                "command": "corpus",
                "results": {name: strip_timing(rep) if isinstance(rep, dict) else rep
                            for name, rep, _, _ in results},
            }))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="burchlab",
        description="Burch indices, bar resolutions and k-summands of syzygies, exactly.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--job", help="job JSON file (not used by 'corpus')")
    parser.add_argument("--cap", type=int, help="override caps.homDegree")
    parser.add_argument("--prime", type=int, help="override the coefficient prime p")
    parser.add_argument("--regime", choices=["dg", "ainf", "auto"], help="override the regime")
    parser.add_argument("--out", help="write the JSON report here")
    parser.add_argument("--threads", type=int, help="corpus parallelism (default BURCHLAB_THREADS)")
    args = parser.parse_args(argv)

    try:
        if args.command == "corpus":
            return run_corpus(args.threads, args.out)
        if not args.job:
            raise InputError(f"command {args.command!r} needs --job")
        spec = load_job(args.job)
        if args.cap is not None:
            spec.caps.hom_degree = args.cap
        if args.prime is not None:
            spec.prime = args.prime
            spec.context()  # revalidate under the new prime
        if args.regime is not None:
            spec.regime = args.regime
        body, code = run_command(args.command, spec)
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceCapError as e:
        print(f"resource cap: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except BoundViolation as e:
        print(f"BOUND VIOLATION (would falsify a verified statement): {e}", file=sys.stderr)
        return EXIT_BOUND

    report = assemble(args.command, spec.to_dict(), body, code)
    text = serialize(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if code == EXIT_BOUND:
        print("BOUND VIOLATION: a verified inequality failed; see report", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
