"""Regenerate ``reference.json`` from the program in ``src/``.

    python3 perfbench/make_reference.py

Run it only when the program's outputs are meant to change; the file is
the frozen reference every benchmark run is checked against.  It covers
every target any seed can draw: all graphs with at most four generators
and all face-closed subcomplexes of Delta^2 (the named corpus among
them).  The named corpus is also checked here against values fixed by
hand: the cells per stage at cap 3, and H_3 = Z^984 at stage 3 of the
circle tower (1017 cells minus rank d_3 = 33).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
from cwtower.cli import main as cli_main  # noqa: E402

NAMED_CELLS = {"point": [1, 1, 8, 236], "interval": [2, 3, 20, 575],
               "circle": [3, 6, 36, 1017], "disk": [3, 6, 37, 1032]}
CIRCLE_STAGE3_BETTI = [1, 1, 0, 984]


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    if code != 0:
        raise SystemExit(f"{argv} exited {code}")
    return buf.getvalue()


def describe(work, name, cx, caps, stage_caps):
    """Cells, tower digests and homology digests of one target."""
    path = os.path.join(work, name + ".sset")
    with open(path, "w") as fh:
        fh.write(cx.text())
    ent = {"tower": {}, "homology": {"sset": checks.digest(run(["homology", path]))}}
    betti = {}
    for cap in caps:
        out = os.path.join(work, f"{name}-{cap}")
        growth = run(["build", path, "--out", out, "--max-dim", str(cap)])
        ent["cells"] = [int(row.split(",")[2]) for row in growth.splitlines()[1:]]
        ent["tower"][str(cap)] = checks.tree_digest(out)
        if cap in stage_caps:
            outs = [run(["homology", out, "--stage", str(k)]) for k in range(cap + 1)]
            ent["homology"][str(cap)] = [checks.digest(o) for o in outs]
            betti[str(cap)] = [checks.parse_betti(o) for o in outs]
        shutil.rmtree(out)
    return ent, betti


def main():
    work = os.path.join(ROOT, ".perfbench", "reference")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ref = {"named": {}, "targets": {}}
    jobs = [(f"g{k}", inputs.graph_complex(nv, edges), (2,), (2,))
            for k, (nv, edges) in enumerate(inputs.all_graphs())]
    named_of = {g: n for n, g in inputs.NAMED.items()}
    for k, gens in enumerate(inputs.all_subcomplexes()):
        name = named_of.get(gens, f"s{k}")
        stage_caps = (2, 3) if name in named_of.values() else (2,)
        jobs.append((name, inputs.d2_complex(gens), (2, 3), stage_caps))
    for name, cx, caps, stage_caps in jobs:
        key = checks.digest(cx.text())
        ent, betti = describe(work, name, cx, caps, stage_caps)
        old = ref["targets"].setdefault(key, ent)
        for field in ("tower", "homology"):
            old[field].update(ent[field])
        if len(ent["cells"]) > len(old["cells"]):
            old["cells"] = ent["cells"]
        if name in NAMED_CELLS:
            if ent["cells"] != NAMED_CELLS[name]:
                raise SystemExit(f"{name}: cells {ent['cells']} != {NAMED_CELLS[name]}")
            ref["named"][name] = {"cells": ent["cells"], "betti": betti}
        print(name, key, ent["cells"], flush=True)
    if ref["named"]["circle"]["betti"]["3"][3] != CIRCLE_STAGE3_BETTI:
        raise SystemExit("circle stage 3 homology moved")
    for name, cap in (("point", 3), ("interval", 2)):
        path = os.path.join(work, name + ".sset")
        out = run(["verify", "--suite", "connectivity", path, "--max-dim", str(cap),
                   "--simply-connected"])
        key = checks.digest(inputs.d2_complex(inputs.NAMED[name]).text())
        ref["targets"][key].setdefault("connectivity", {})[str(cap)] = checks.digest(out)
    shutil.rmtree(work)
    text = json.dumps(ref, indent=1, sort_keys=True)
    # one line per innermost list keeps the file short enough to read
    text = re.sub(r"\[[^\[\]{}]*\]", lambda m: " ".join(m.group(0).split()), text)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        fh.write(text + "\n")


if __name__ == "__main__":
    main()
