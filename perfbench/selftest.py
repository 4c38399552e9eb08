"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, each with short runs:

1. Two traced runs of each workload on one seed report every per-layer
   metric of BENCHMARK.json, and the exact counters repeat exactly.
2. An untraced run reports exactly the end-to-end metrics of
   BENCHMARK.json.
3. A deliberately wrong reference (point cap-3 cells 236 -> 237, circle
   stage-3 H_3 984 -> 1017) makes both workloads report failures.
4. In a directory that holds only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero without printing a result.

Exits 0 if every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench", "selftest")
sys.path.insert(0, HERE)
import tracing  # noqa: E402

SEED = 7


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return proc, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            problems.append(what)

    per_layer = [m["name"] for m in spec["per_layer"]]
    expect(per_layer == [name for name, _ in tracing.PER_LAYER],
           "BENCHMARK.json per_layer lists tracing.PER_LAYER")
    end_to_end = sorted(m["name"] for m in spec["end_to_end"])

    for w in spec["workloads"]:
        name = w["name"]
        first, second = run(name, 1)[1], run(name, 1)[1]
        expect(first is not None and second is not None, f"{name}: traced runs finish")
        if first is None or second is None:
            continue
        expect(first["correct"] and second["correct"], f"{name}: traced runs correct")
        expect(sorted(first["metrics"]) == sorted(per_layer),
               f"{name}: every per-layer metric present")
        exact = [k for k in per_layer if k in tracing.EXACT or k.endswith(".calls")]
        differ = [k for k in exact
                  if first["metrics"][k]["value"] != second["metrics"][k]["value"]]
        expect(not differ, f"{name}: {len(exact)} exact counters repeat across runs"
                           + (f" (differ: {differ})" if differ else ""))

    os.makedirs(SCRATCH, exist_ok=True)
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)
    ref["named"]["point"]["cells"][3] = 237
    ref["named"]["circle"]["betti"]["3"][3][3] = 1017
    wrong = os.path.join(SCRATCH, "wrong-reference.json")
    with open(wrong, "w") as fh:
        json.dump(ref, fh)
    for name in ("build-verify", "homology"):
        _, good = run(name, 0)
        expect(good is not None and good["correct"] and good["failed"] == 0
               and sorted(good["metrics"]) == end_to_end,
               f"{name}: untraced run correct, with the end-to-end metrics")
        _, bad = run(name, 0, "--reference", wrong)
        expect(bad is not None and not bad["correct"] and bad["failed"] > 0,
               f"{name}: a wrong reference value is reported as a failure")

    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, _ = run("homology", 0, cwd=bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without the program the benchmark fails and prints no result")
    shutil.rmtree(SCRATCH)
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
