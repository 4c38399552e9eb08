"""Reference outputs and correctness checks, all run outside the timed region.

``reference.json`` is frozen from the program (``make_reference.py``)
and keyed by the sha256 of each target's ``.sset`` text.  The named corpus
also carries hand-checked values: cells per stage at cap 3 and Betti
numbers per stage.  Independent of the reference, every homology answer
must satisfy the Euler-characteristic identity, and the cap-2 builds
outside the named corpus are checked structurally and recounted by brute
force through stage 2.
"""

from __future__ import annotations

import hashlib
import os
import re

GROWTH_HEADER = "stage,dimension,new-cells,cumulative-generators"


def digest(text) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def tree_digest(root) -> str:
    """sha256 over the sorted relative paths and bytes of a directory."""
    h = hashlib.sha256()
    for dirpath, dirs, files in os.walk(root):
        dirs.sort()
        for name in sorted(files):
            full = os.path.join(dirpath, name)
            h.update(os.path.relpath(full, root).encode() + b"\0")
            with open(full, "rb") as fh:
                h.update(fh.read())
            h.update(b"\0")
    return h.hexdigest()[:16]


def growth_text(cells) -> str:
    rows, total = [GROWTH_HEADER], 0
    for n, c in enumerate(cells):
        total += c
        rows.append(f"{n},{n},{c},{total}")
    return "\n".join(rows) + "\n"


_BETTI = re.compile(r"^degree=(\d+) betti=(\d+) torsion=\[([0-9;]*)\] group=")


def parse_betti(out):
    """Betti numbers from ``cwtower homology`` output, or None if malformed
    or if there is torsion (no target in this benchmark has any)."""
    betti = []
    for i, line in enumerate(out.splitlines()):
        m = _BETTI.match(line)
        if not m or int(m.group(1)) != i or m.group(3):
            return None
        betti.append(int(m.group(2)))
    return betti


def euler(counts) -> int:
    return sum((-1) ** d * c for d, c in enumerate(counts))


class Checker:
    """Checks one operation's exit code and output against the reference."""

    def __init__(self, reference, plan):
        self.ref = reference
        self.plan = plan

    def entry(self, rel):
        key = digest(self.plan.files[rel])
        try:
            return self.ref["targets"][key]
        except KeyError:
            raise KeyError(f"no reference for {rel} (key {key})") from None

    def named(self, rel):
        name = os.path.basename(rel)[:-len(".sset")]
        return self.ref["named"].get(name)

    def check(self, op, code, out):
        """A list of problems; empty if the output is correct."""
        if code != 0:
            return [f"exit code {code}"]
        try:
            return getattr(self, "_" + op.kind.replace("-", "_"))(op, out)
        except KeyError as e:
            return [str(e)]

    def _build(self, op, out):
        ent = self.entry(op.target)
        cells = ent["cells"][:op.cap + 1]
        problems = []
        named = self.named(op.target)
        if named and named["cells"][:op.cap + 1] != cells:
            problems.append(f"reference cells {cells} disagree with named"
                            f" {named['cells']}")
        if out != growth_text(cells):
            problems.append("growth table differs from reference")
        got = tree_digest(op.extra["out"])
        if got != ent["tower"][str(op.cap)]:
            problems.append(f"tower digest {got} differs from reference")
        return problems

    def _homology_stage(self, op, out):
        ent = self.entry(op.target)
        k = op.extra["stage"]
        problems = self._homology_common(out, ent["homology"][str(op.cap)][k],
                                         ent["cells"][:k + 1])
        named = self.named(op.target)
        if named:
            want = named["betti"][str(op.cap)][k]
            if parse_betti(out) != want:
                problems.append(f"betti {parse_betti(out)} != frozen {want}")
        return problems

    def _homology_sset(self, op, out):
        ent = self.entry(op.target)
        return self._homology_common(out, ent["homology"]["sset"],
                                     self.plan.complexes[op.target].counts)

    def _homology_common(self, out, want_digest, counts):
        problems = []
        if digest(out) != want_digest:
            problems.append("homology lines differ from reference")
        betti = parse_betti(out)
        if betti is None:
            problems.append("malformed homology output")
        elif euler(betti) != euler(counts):
            problems.append(f"Euler characteristic {euler(betti)} of {betti}"
                            f" != {euler(counts)} from cell counts {counts}")
        return problems

    def _connectivity(self, op, out):
        problems = _all_pass(out)
        want = self.entry(op.target)["connectivity"][str(op.cap)]
        if digest(out) != want:
            problems.append("connectivity lines differ from reference")
        return problems

    def _functor(self, op, out):
        return _lines(out, ["PASS functor identity-law", "PASS functor naturality",
                            "PASS functor composition-law"])

    def _subcomplex(self, op, out):
        return _lines(out, ["PASS subcomplex-inclusion"])

    def _variant(self, op, out):
        return _lines(out, [f"PASS variant-coincidence stage={n}"
                            for n in range(op.cap + 1)])

    def _intersect(self, op, out):
        cells = self.entry(op.target)["cells"]
        want, total = [], 0
        for n in range(op.cap + 1):
            total += cells[n]
            want.append(f"PASS intersection stage={n} lhs={total} rhs={total}")
        return _lines(out, want)


def _all_pass(out):
    lines = out.splitlines()
    if not lines or any(not line.startswith("PASS ") for line in lines):
        return ["not every line is PASS"]
    return []


def _lines(out, want):
    got = out.splitlines()
    return [] if got == want else [f"output {got} != expected {want}"]


# ---------------------------------------------------------------------------
# Structural checks and brute-force recount of a built tower
# ---------------------------------------------------------------------------

def structural_problems(path, cells):
    """Check every stage, projection and square of a tower directory, and
    recount the cells of stages 1 and 2 by exhaustive search."""
    from cwtower import load_tower, map_errors, square_commutes, validate

    tower = load_tower(path)
    problems = []
    for n, stage in enumerate(tower.stages):
        if validate(stage):
            problems.append(f"stage {n} fails validate")
        if map_errors(tower.projections[n]):
            problems.append(f"projection {n} fails map_errors")
        if map_errors(tower.inclusions[n]):
            problems.append(f"inclusion {n} fails map_errors")
        for sq in tower.squares[n]:
            if not square_commutes(sq, tower.projections[n - 1]):
                problems.append(f"stage {n}: a square does not commute")
                break
    counts = [len(tower.squares[n]) for n in range(1, min(tower.cap, 2) + 1)]
    brute = brute_force_cells(tower)[:len(counts)]
    if counts != brute or cells[1:len(counts) + 1] != brute:
        problems.append(f"brute-force cells {brute} != tower {counts}"
                        f" / reference {cells[1:len(counts) + 1]}")
    return problems


def _t(s):
    """A cwtower Simplex as a plain (word, dim, index) tuple."""
    return (tuple(s.word), s.gen.dim, s.gen.index)


def _s0(v):
    return ((0,), 0, v[2])


def brute_force_cells(tower):
    """Cells of stages 1 and 2 over the empty domain, by filtering every
    tuple (x_0 .. x_n) of simplices of the previous stage.

    An n-cell is a pair (attaching map, disk) with p . attach = disk on the
    boundary.  An attaching map from the boundary of Delta^n is a tuple of
    (n-1)-simplices with d_i x_j = d_(j-1) x_i for i < j, and a disk is an
    n-simplex b of the target with d_i b = p(x_i).  Only dimensions up to
    2 occur, so the degenerate simplices are written out by hand.
    """
    B = tower.B
    out = []
    if tower.cap >= 1:
        p0 = tower.projections[0]
        verts = [((), 0, v) for v in range(tower.stages[0].count(0))]
        disks = {}
        for b in _one_simplices(B):
            key = _one_faces(B, b)
            disks[key] = disks.get(key, 0) + 1
        out.append(sum(disks.get((_t(p0.assign[0][x0[2]]), _t(p0.assign[0][x1[2]])), 0)
                       for x0 in verts for x1 in verts))
    if tower.cap >= 2:
        A1, p1 = tower.stages[1], tower.projections[1]
        xs = _one_simplices(A1)
        xf = {x: _one_faces(A1, x) for x in xs}

        def p(x):
            if x[0]:
                return _s0(_t(p1.assign[0][x[2]]))
            return _t(p1.assign[1][x[2]])

        disks = {}
        for b in _two_simplices(B):
            key = _two_faces(B, b)
            disks[key] = disks.get(key, 0) + 1
        count = 0
        for x0 in xs:
            for x1 in xs:
                if xf[x1][0] != xf[x0][0]:
                    continue
                for x2 in xs:
                    if xf[x2][0] == xf[x0][1] and xf[x2][1] == xf[x1][1]:
                        count += disks.get((p(x0), p(x1), p(x2)), 0)
        out.append(count)
    return out


def _one_simplices(X):
    return ([((), 1, e) for e in range(X.count(1))]
            + [((0,), 0, v) for v in range(X.count(0))])


def _one_faces(X, s):
    if s[0]:
        v = ((), 0, s[2])
        return (v, v)
    return tuple(_t(f) for f in X.faces[1][s[2]])


def _two_simplices(X):
    return ([((), 2, t) for t in range(X.count(2))]
            + [((w,), 1, e) for w in (0, 1) for e in range(X.count(1))]
            + [((1, 0), 0, v) for v in range(X.count(0))])


def _two_faces(X, s):
    word, dim, i = s
    if dim == 2:
        return tuple(_t(f) for f in X.faces[2][i])
    if dim == 0:
        return (_s0(((), 0, i)),) * 3
    e = ((), 1, i)
    d0, d1 = _one_faces(X, e)
    if word == (0,):
        return (e, e, _s0(d1))
    return (_s0(d0), e, e)
