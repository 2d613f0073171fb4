"""burchlab command line: parse a job, run a pipeline, emit a report.

    burchlab <command> --job job.json [--cap N] [--prime P]
             [--regime dg|ainf|auto] [--out report.json]

Commands: burch, resolve, bar, cycles, verify-general, verify-golod, and
corpus (runs every bundled example as written, one after another, and
compares each against its golden report; it takes only --out).

Exit codes: 0 every asserted bound holds (a vacuous bound holds), 1 a
verified bound failed (the report's bounds.allHold is false), 2 input
error, 3 resource cap exceeded, 4 internal error (a self-check of the
program failed, or any other exception escaped: a bug, not a falsified
bound).  A failure is one stderr line, never a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from importlib import resources

from .errors import InputError, InternalCheckError, ResourceCapError
from .jobs import COMMANDS, JobSpec, check_hom_degree, load_job, parse_job
from .pipeline import bar_report, resolve_report, verify_general, verify_golod
from .report import SCHEMA_VERSION, assemble, reports_equal, serialize, strip_timing

EXIT_OK = 0
EXIT_BOUND = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4

# exceptions a job may end with: (type, exit code, stderr prefix)
FAILURES = (
    (InputError, EXIT_INPUT, "input error"),
    (ResourceCapError, EXIT_RESOURCE, "resource cap"),
    (InternalCheckError, EXIT_INTERNAL, "internal error (a self-check failed)"),
)
FAILURE_TYPES = tuple(t for t, _, _ in FAILURES)


def failure_exit(e: Exception) -> tuple:
    """(exit code, stderr prefix) for an exception a job ended with.  One
    outside the FAILURE_TYPES is a bug too: exit 4, named by its type."""
    return next(((code, prefix) for t, code, prefix in FAILURES if isinstance(e, t)),
                (EXIT_INTERNAL, f"internal error ({type(e).__name__})"))


def run_command(command: str, spec: JobSpec) -> tuple:
    """Dispatch one job; returns (body dict, exit code).

    The exit code is EXIT_BOUND iff the body has bounds and bounds.allHold
    is false; a body without bounds asserts no bound.  Every body but
    burch's ends with timingSeconds, the wall time of the whole job from
    building the ring data on.  Every command but burch works degree by
    degree over R and needs R Artinian; this is the one place that checks.
    """
    t0 = time.perf_counter()
    ctx = spec.context()
    if command == "burch":
        return {"burch": ctx.burch_summary()}, EXIT_OK
    if ctx.ideal.table().top is None:
        raise InputError(f"{command} needs an Artinian quotient: R = Q/I must vanish "
                         "in every large degree")
    pres = spec.presentation(ctx)
    if command == "resolve":
        body = resolve_report(ctx, pres, spec.caps)
    elif command == "bar":
        body = bar_report(ctx, pres, spec.caps, "ainf" if spec.regime == "auto" else spec.regime)
    elif command == "cycles":
        if ctx.index < 1:
            raise InputError("cycle construction needs Burch index >= 1")
        golod = spec.regime == "ainf" or (spec.regime == "auto" and ctx.index >= 2)
        body = (verify_golod if golod else verify_general)(ctx, pres, spec.caps)
    elif command == "verify-general":
        body = verify_general(ctx, pres, spec.caps)
    elif command == "verify-golod":
        body = verify_golod(ctx, pres, spec.caps)
    else:
        raise InputError(f"unknown command {command!r}")
    body["timingSeconds"] = round(time.perf_counter() - t0, 3)
    return body, EXIT_BOUND if "bounds" in body and not body["bounds"]["allHold"] else EXIT_OK


def corpus_entries():
    base = resources.files("burchlab").joinpath("corpus")
    names = sorted(p.name for p in base.iterdir() if p.name.endswith(".json"))
    return [(name, base.joinpath(name)) for name in names]


def run_corpus(out_path: str | None) -> int:
    """Run every bundled job in turn, compare against goldens, aggregate exit codes."""
    if out_path:
        write_report(out_path, "")  # an unwritable --out fails before the first job
    golden_base = resources.files("burchlab").joinpath("corpus", "golden")
    worst = EXIT_OK
    results = {}
    for name, path in corpus_entries():
        t0 = time.perf_counter()
        try:
            spec = parse_job(path.read_text(encoding="utf-8"))
            command = spec.command or "burch"
            body, code = run_command(command, spec)
        except Exception as e:
            code, prefix = failure_exit(e)
            report = {"error": str(e) if isinstance(e, FAILURE_TYPES) else f"{prefix}: {e}"}
        else:
            report = assemble(command, spec.to_dict(), body, code)
            golden = golden_base.joinpath(name)
            match = None
            if golden.is_file():
                expected = json.loads(golden.read_text(encoding="utf-8"))
                match = reports_equal(expected, report)
                if not match:
                    code = max(code, EXIT_BOUND)
            report["goldenMatch"] = match
        line = f"{name}: exit {code}, {time.perf_counter() - t0:.1f}s"
        if "error" in report:
            line += f", error: {report['error']}"
        if report.get("goldenMatch") is not None:
            line += f", golden {'ok' if report['goldenMatch'] else 'MISMATCH'}"
        print(line, flush=True)
        worst = max(worst, code)
        results[name] = strip_timing(report)
    if out_path:
        write_report(out_path, serialize({
            "schemaVersion": SCHEMA_VERSION,
            "command": "corpus",
            "results": results,
        }))
    return worst


def write_report(path: str, text: str):
    """Write a report to --out; a path that cannot be written is an input error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise InputError(f"cannot write {path}: {e.strerror or e}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="burchlab",
        description="Burch indices, bar resolutions and k-summands of syzygies, exactly.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--job", help="job JSON file (refused by 'corpus')")
    parser.add_argument("--cap", type=int, help="override caps.homDegree")
    parser.add_argument("--prime", type=int, help="override the coefficient prime p")
    parser.add_argument("--regime", choices=["dg", "ainf", "auto"], help="override the regime")
    parser.add_argument("--out", help="write the JSON report here")
    args = parser.parse_args(argv)

    try:
        if args.command == "corpus":
            given = [f"--{name}" for name in ("job", "cap", "prime", "regime")
                     if getattr(args, name) is not None]
            if given:
                raise InputError(f"corpus runs each bundled job as written; "
                                 f"it takes no {', '.join(given)}")
            return run_corpus(args.out)
        if not args.job:
            raise InputError(f"command {args.command!r} needs --job")
        spec = load_job(args.job)
        if args.cap is not None:
            spec.caps.hom_degree = check_hom_degree(args.cap)
        if args.prime is not None:
            spec.prime = args.prime
            spec.ideal()  # revalidate under the new prime
        if args.regime is not None:
            spec.regime = args.regime
        body, code = run_command(args.command, spec)
        text = serialize(assemble(args.command, spec.to_dict(), body, code))
        if args.out:
            write_report(args.out, text)
        else:
            sys.stdout.write(text)
    except Exception as e:
        code, prefix = failure_exit(e)
        print(f"{prefix}: {e}", file=sys.stderr)
        return code

    if code == EXIT_BOUND:
        print("BOUND VIOLATION: a verified inequality failed; see report", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
