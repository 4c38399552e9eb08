"""cwtower benchmark: closed-loop ``build-verify`` and ``homology`` workloads.

    python3 perfbench/run.py --workload build-verify --seed 1 --seconds 50 --trace 0

One process and one client, with no threads: every operation is a call of
``cwtower.cli.main(argv)``, exactly as ``cwtower build|homology|verify``
runs, and the next one starts when it returns.  A pass is one run through
the workload's fixed, seed-shuffled operation list; passes repeat for
about ``--seconds``, and for at least 100 operations.  Every output is
checked against the frozen reference after its timer stops.

Set-up (interpreter start, imports, input generation and, for
``homology``, building the tower directories it reads) runs in a fresh
child process, several times, and ``setup_s`` is the median, so the
parent's ``peak_rss_mb`` covers only the timed operations.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced passes and prints the per-layer metrics of one pass,
from wrappers installed by ``tracing.py``, plus the tracing overhead.  The
last line of standard output is one JSON object.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3
MIN_SAMPLES = 100  # so that at least ten samples lie beyond op_p90_s
SETUP_TIMEOUT_S = 150
WORK_DIR = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)
import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.PLANNERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", default=os.path.join(HERE, "reference.json"),
                    help="frozen reference outputs (default: %(default)s)")
    ap.add_argument("--setup-only", metavar="DIR",
                    help="internal: write the inputs and set-up towers into DIR")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cwtower", "__init__.py")):
        print(f"error: cwtower sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_only:
        return set_up(args.workload, args.seed, args.setup_only)
    work = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    try:
        return bench(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_cli(cli, argv):
    """One operation: (exit code or error text, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as e:
        code = f"exit {e.code}: {err.getvalue().strip()}"
    except Exception:
        code = traceback.format_exc(limit=3)
    if code != 0 and isinstance(code, int):
        code = f"exit {code}: {err.getvalue().strip()}"
    return code, out.getvalue()


def set_up(workload, seed, work):
    """Child process: write the inputs and build the towers a workload reads."""
    import cwtower.cli as cli

    plan = inputs.plan(workload, seed, work)
    inputs.write_files(plan, work)
    for target, cap, out in plan.towers:
        code, _ = run_cli(cli, ["build", os.path.join(work, target), "--out",
                                os.path.join(work, out), "--max-dim", str(cap)])
        if code != 0:
            print(f"error: set-up build of {target} failed: {code}", file=sys.stderr)
            return 1
    return 0


def time_set_up(args, work):
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-only", work],
            timeout=SETUP_TIMEOUT_S)
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up exited {proc.returncode}")
    return times


class Pass:
    def __init__(self):
        self.latencies = []
        self.failures = []


def run_pass(cli, plan, checker, tracer, first, pass_no):
    """One closed-loop pass over the operation list."""
    p = Pass()
    for i, op in enumerate(plan.ops):
        if op.kind == "build":
            shutil.rmtree(op.extra["out"], ignore_errors=True)
        if tracer is not None:
            tracer.begin_op(f"{pass_no}:{i}")
            tracer.install()
        t0 = perf_counter()
        code, out = run_cli(cli, op.argv)
        dt = perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
            tracer.end_op()
        p.latencies.append(dt)
        problems = checker.check(op, code, out)
        if not problems and first and op.extra.get("structural"):
            problems = checks.structural_problems(op.extra["out"],
                                                  checker.entry(op.target)["cells"])
        if problems:
            p.failures.append((op.name, problems))
    return p


def bench(args, work):
    setup_times = time_set_up(args, work)

    import cwtower.cli as cli

    plan = inputs.plan(args.workload, args.seed, work)
    with open(args.reference) as fh:
        checker = checks.Checker(json.load(fh), plan)
    setup_failures = []
    for target, cap, out in plan.towers:
        got = checks.tree_digest(os.path.join(work, out))
        if got != checker.entry(target)["tower"][str(cap)]:
            setup_failures.append(f"set-up tower {out} digest {got} differs from reference")

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
    passes, traced, untraced = [], [], []
    first_spans = None
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        use_tracer = tracer if args.trace and len(passes) % 2 == 0 else None
        if use_tracer is not None:
            tracer.reset()
        p = run_pass(cli, plan, checker, use_tracer, not passes, len(passes))
        passes.append(p)
        wall = sum(p.latencies)
        if use_tracer is not None:
            traced.append((wall, tracer.metrics()))
            if first_spans is None:
                first_spans = list(tracer.spans)
        else:
            untraced.append(wall)
        # stop before a pass that would end more than half a pass after
        # --seconds (so a run measures --seconds on average), once the run
        # holds MIN_SAMPLES operations (and, traced, an untraced pass)
        now = perf_counter()
        enough = len(passes) * len(plan.ops) >= MIN_SAMPLES and (untraced or not args.trace)
        if enough and now - start + (now - pass_start) / 2 > args.seconds:
            break

    samples = [t for p in passes for t in p.latencies]
    failures = [f for p in passes for f in p.failures]
    for name, problems in failures[:10]:
        print(f"FAIL {name}: {'; '.join(problems)[:500]}", file=sys.stderr)
    for problem in setup_failures:
        print(f"FAIL {problem}", file=sys.stderr)
    attempted, failed = len(samples), len(failures)
    walls = [sum(p.latencies) for p in passes]

    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes of"
          f" {len(plan.ops)} operations, {attempted} samples, closed loop, 1 client")
    print("pass wall times (s): " + " ".join(f"{w:.3f}" for w in walls))
    report = {
        "wall_s": (statistics.median(untraced if args.trace else walls), "s"),
        "op_p50_s": (statistics.median(samples), "s"),
        "op_p90_s": (statistics.quantiles(samples, n=10, method="inclusive")[8], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
        "fail_ratio": (failed / attempted, "ratio"),
    }
    for name, (value, unit) in report.items():
        print(f"{name} {value:.6g} {unit}")

    correct = failed == 0 and not setup_failures
    if args.trace:
        layer, problems = layer_metrics(traced, untraced)
        for problem in problems:
            print(f"FAIL {problem}", file=sys.stderr)
        correct = correct and not problems
        for name, (value, unit) in layer.items():
            print(f"{name} {value:.6g} {unit}")
        spans = os.path.join(WORK_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
        tracing.write_spans(first_spans, spans)
        print(f"spans of the first traced pass written to {spans}")
        metrics = layer
    else:
        metrics = {k: v for k, v in report.items() if k != "fail_ratio"}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


def layer_metrics(traced, untraced):
    """Per-pass layer metrics: exact counters from the first traced pass
    (they must agree across traced passes), times as medians."""
    problems = []
    first = traced[0][1]
    for _, m in traced[1:]:
        for key in tracing.EXACT:
            if m.get(key, 0) != first.get(key, 0):
                problems.append(f"counter {key} differs between passes:"
                                f" {first.get(key, 0)} vs {m.get(key, 0)}")
    traced_wall = statistics.median(w for w, _ in traced)
    first["trace.wall_s"] = traced_wall
    first["trace.overhead_s"] = traced_wall - statistics.median(untraced)
    out = {}
    for key, unit in tracing.PER_LAYER:
        if unit == "s" and not key.startswith("trace."):
            out[key] = (statistics.median(m.get(key, 0.0) for _, m in traced), unit)
        else:
            out[key] = (first.get(key, 0), unit)
    return out, problems


if __name__ == "__main__":
    sys.exit(main())
