"""
Text formats and the command line front end
===========================================

Every object has a deterministic text form: .sset files for complexes,
.smap files for maps, and a directory layout for whole towers.  The
``cwtower`` command builds, verifies, and computes homology from these
files; this script drives it in-process through ``cli.main``.
"""

import tempfile
from pathlib import Path

from cwtower import boundary_simplex, format_sset, load_tower
from cwtower.cli import main

work = Path(tempfile.mkdtemp(prefix="cwtower_demo_"))

# serialize the circle and build its tower from the file
circle = work / "circle.sset"
circle.write_text(format_sset(boundary_simplex(2)))
print("--- cwtower build ---")
code = main(["build", str(circle), "--out", str(work / "tower"), "--dot"])
print("exit code:", code)

# the directory round-trips to an identical tower
tower = load_tower(work / "tower")
print()
print("reloaded tower: cap", tower.cap)
print("growth table:", (work / "tower" / "growth.csv").read_text().split())

# homology straight from the serialized tower
print("--- cwtower homology ---")
main(["homology", str(work / "tower"), "--stage", "2"])

# one of the theorem suites, driven from files
print("--- cwtower verify ---")
family = work / "family.txt"
family.write_text("subset 0:0 0:1 1:0\nsubset 0:0 0:2 1:1\n")
code = main(["verify", "--suite", "intersect", str(circle), str(family)])
print("exit code:", code)
