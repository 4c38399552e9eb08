"""Seeded inputs and operation lists for the benchmark workloads.

The benchmark writes every input file itself, in the ``v1`` text formats,
so the program under test sees only generated files and a change to the
program's own writers cannot change the inputs.

Targets are small complexes whose faces are all nondegenerate:

* the named corpus: point, interval, circle (the boundary of Delta^2) and
  disk (Delta^2);
* 1-dimensional graphs with at most four generators;
* face-closed subcomplexes of Delta^2.

Graph draws are stratified: each pass holds one graph from every
(vertex count, edge count) class, so the seed changes incidences but not
the mix of sizes.  Subcomplexes of Delta^2 are all taken.  This keeps the
cost of a pass close to constant across seeds; the ``verify`` families
and every operation order are drawn from the seed.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass, field

# Delta^2, with generators indexed as cwtower.standard_simplex(2) indexes
# them: vertices 0..2, edges by vertex pair (01, 02, 12), one triangle.
D2_EDGES = ((0, 1), (0, 2), (1, 2))
D2_GENS = ([(0, v) for v in range(3)] + [(1, e) for e in range(3)] + [(2, 0)])
BOUNDARY_GENS = frozenset(g for g in D2_GENS if g[0] < 2)
DISK_GENS = frozenset(D2_GENS)

NAMED = {
    "point": frozenset({(0, 0)}),
    "interval": frozenset({(0, 0), (0, 1), (1, 0)}),
    "circle": BOUNDARY_GENS,
    "disk": DISK_GENS,
}


@dataclass(frozen=True)
class Complex:
    """Generator counts and face tables; ``faces[d][g]`` lists the indices
    of the d+1 nondegenerate (d-1)-generators d_0 .. d_d."""

    counts: tuple
    faces: tuple

    def text(self) -> str:
        counts = list(self.counts)
        while counts and counts[-1] == 0:
            counts.pop()
        lines = ["sset v1", f"dims {len(counts)}"]
        for d, c in enumerate(counts):
            lines.append(f"dim {d} count {c}")
            for g in range(c):
                line = f"gen {d}:{g}"
                if d:
                    line += " faces " + " ".join(
                        f"(|{d - 1}:{i})" for i in self.faces[d][g])
                lines.append(line)
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcomplexes of Delta^2
# ---------------------------------------------------------------------------

def is_face_closed(gens) -> bool:
    for d, i in gens:
        if d == 1 and not all((0, v) in gens for v in D2_EDGES[i]):
            return False
        if d == 2 and not all((1, e) in gens for e in range(3)):
            return False
    return True


def all_subcomplexes(ambient=DISK_GENS):
    """Every nonempty face-closed generator set inside ``ambient``."""
    gens = sorted(ambient)
    out = []
    for r in range(1, len(gens) + 1):
        for combo in itertools.combinations(gens, r):
            s = frozenset(combo)
            if is_face_closed(s):
                out.append(s)
    return out


def shape(gens):
    """The (vertices, edges, triangles) class of a generator set."""
    return tuple(sum(1 for g in gens if g[0] == d) for d in range(3))


def d2_complex(gens) -> Complex:
    """A subcomplex of Delta^2 as a complex of its own, indices renumbered
    in increasing ambient order (as cwtower.subcomplex does)."""
    index = subcomplex_index(gens)
    verts = sorted(i for d, i in gens if d == 0)
    edges = sorted(i for d, i in gens if d == 1)
    faces = [[() for _ in verts],
             [(index[(0, D2_EDGES[e][1])], index[(0, D2_EDGES[e][0])])
              for e in edges]]
    if (2, 0) in gens:
        faces.append([(index[(1, 2)], index[(1, 1)], index[(1, 0)])])
    counts = (len(verts), len(edges), 1 if (2, 0) in gens else 0)
    return Complex(counts, tuple(tuple(r) for r in faces))


def subcomplex_index(gens):
    """Ambient generator -> index inside the renumbered subcomplex."""
    index = {}
    for d in range(3):
        for k, i in enumerate(sorted(i for dd, i in gens if dd == d)):
            index[(d, i)] = k
    return index


def inclusion_text(small, big) -> str:
    """The ``.smap`` of the inclusion of one subcomplex of Delta^2 in another."""
    si, bi = subcomplex_index(small), subcomplex_index(big)
    lines = ["smap v1"]
    for g in sorted(small, key=lambda g: (g[0], si[g])):
        lines.append(f"gen {g[0]}:{si[g]} -> (|{g[0]}:{bi[g]})")
    return "\n".join(lines) + "\n"


def family_text(members) -> str:
    return "".join("subset " + " ".join(f"{d}:{i}" for d, i in sorted(m)) + "\n"
                   for m in members)


# ---------------------------------------------------------------------------
# 1-dimensional graphs
# ---------------------------------------------------------------------------

def graph_complex(nv, edges) -> Complex:
    """``edges`` lists (d_0, d_1) vertex pairs; loops are allowed."""
    return Complex((nv, len(edges)),
                   (tuple(() for _ in range(nv)), tuple(tuple(e) for e in edges)))


GRAPH_CLASSES = [(nv, ne) for nv in (1, 2, 3) for ne in range(0, 5 - nv)]


def all_graphs():
    """Every graph with at most four generators, as (nv, edges)."""
    out = []
    for nv, ne in GRAPH_CLASSES:
        pairs = list(itertools.product(range(nv), repeat=2))
        for edges in itertools.product(pairs, repeat=ne):
            out.append((nv, edges))
    return out


# ---------------------------------------------------------------------------
# Seeded draws
# ---------------------------------------------------------------------------

def seeded_graphs(rng):
    """One graph drawn from each graph class, with its name."""
    graphs = {}
    for nv, edges in all_graphs():
        graphs.setdefault((nv, len(edges)), []).append(edges)
    out = []
    for nv, ne in GRAPH_CLASSES:
        edges = rng.choice(graphs[(nv, ne)])
        out.append((f"g{nv}v" + "".join(f"-{a}{b}" for a, b in edges),
                    graph_complex(nv, edges)))
    return out


def distinct_subcomplexes():
    """One generator set per distinct renumbered subcomplex of Delta^2 (12).

    Every subcomplex of Delta^2 is taken, not a seeded draw: there are only
    12 up to renumbering, and their build times differ by up to 1.5x for
    one (vertices, edges) class, which would otherwise move op_p50_s from
    seed to seed by more than the host noise.
    """
    out = {}
    for gens in all_subcomplexes():
        out.setdefault(d2_complex(gens).text(), gens)
    return list(out.values())


def subcomplex_name(gens):
    return "s" + "".join(f"{d}{i}" for d, i in sorted(gens))


def pick(rng, cls, within=DISK_GENS, containing=frozenset()):
    """A uniformly drawn face-closed set of shape ``cls`` (vertices, edges,
    triangles) with containing <= s <= within."""
    return rng.choice([s for s in all_subcomplexes(within)
                       if shape(s) == cls and containing <= s])


# Shape classes of subcomplexes of Delta^2: a point, two points, an
# interval, three points, an interval and a point, a path of two edges,
# the circle and the disk.
P, P2, I, P3, IP, V, C, D = ((1, 0, 0), (2, 0, 0), (2, 1, 0), (3, 0, 0),
                             (3, 1, 0), (3, 2, 0), (3, 3, 0), (3, 3, 1))

# The cap-2 suites, as shape classes; the seed picks which vertices and
# edges.  Fixing the shapes keeps the cost mix of a pass the same from
# seed to seed: drawing whole families at random moved op_p50_s by up to
# 30 % between seeds.
FUNCTOR_CHAINS = [(P, I, C), (P, P3, V), (P2, I, V), (I, V, D), (P3, IP, C),
                  (P, P2, IP), (I, IP, V), (V, C, D)]
SUBCOMPLEX_PAIRS = [(P, I), (P2, P3), (I, IP), (P3, V), (IP, V), (V, C), (I, C), (C, D)]
VARIANT_SHAPES = [P, P2, I, P3, IP, V, C, D]
INTERSECT_FAMILIES = [(BOUNDARY_GENS, [I, I]), (BOUNDARY_GENS, [V, V]),
                      (BOUNDARY_GENS, [I, V, C]), (BOUNDARY_GENS, [IP, V]),
                      (DISK_GENS, [V, D]), (DISK_GENS, [I, C]),
                      (DISK_GENS, [IP, IP, V]), (DISK_GENS, [C, D])]


def random_interval(rng, e=None):
    """An edge of Delta^2 with its two vertices (edge ``e`` if given)."""
    if e is None:
        e = rng.randrange(3)
    return frozenset({(1, e)} | {(0, v) for v in D2_EDGES[e]})


# ---------------------------------------------------------------------------
# Workload plans
# ---------------------------------------------------------------------------

@dataclass
class Op:
    """One CLI invocation and what its output must be.

    ``kind`` selects the check; ``target`` names the complex or tower the
    reference is keyed by; ``extra`` carries what the check needs.
    """

    name: str
    argv: list
    kind: str
    target: str = ""
    cap: int = 0
    extra: dict = field(default_factory=dict)


@dataclass
class Plan:
    files: dict            # relative path -> text
    towers: list           # (target relpath, cap, out relpath) built in set-up
    ops: list
    complexes: dict        # relative path -> Complex (for reference keys)


def plan(workload, seed, work):
    """Files, set-up towers and the shuffled operation list of a workload."""
    rng = random.Random(f"{workload}:{seed}")
    p = Plan(files={}, towers=[], ops=[], complexes={})
    for add_ops in PLANNERS[workload]:
        add_ops(p, rng, work)
    rng.shuffle(p.ops)
    return p


def _add_complex(p, rel, cx):
    p.files[rel] = cx.text()
    p.complexes[rel] = cx


def _targets(p, rng):
    """Write the targets: the named corpus, the other subcomplexes of
    Delta^2 and the seeded graphs.  Returns the named names, the other
    names, and the names of the subcomplexes with exactly one edge."""
    named = [(n, d2_complex(g)) for n, g in NAMED.items()]
    shapes = [s for s in distinct_subcomplexes() if s not in NAMED.values()]
    others = [(subcomplex_name(s), d2_complex(s)) for s in shapes] + seeded_graphs(rng)
    for n, cx in named + others:
        _add_complex(p, f"in/{n}.sset", cx)
    one_edge = [subcomplex_name(s) for s in shapes if shape(s)[1] == 1]
    return [n for n, _ in named], [n for n, _ in others], one_edge


def _plan_build(p, rng, work):
    named, others, one_edge = _targets(p, rng)
    # The subcomplexes with one edge besides the interval are also built at
    # cap 3 (0.7-0.8 s each, as the interval), so that op_p90_s falls among
    # several operations rather than on the interval's alone.
    jobs = ([(n, c) for n in named for c in (2, 3)] + [(n, 2) for n in others]
            + [(n, 3) for n in one_edge])
    for k, (n, cap) in enumerate(jobs):
        out = os.path.join(work, "out", f"{k:02d}-{n}-{cap}")
        p.ops.append(Op(f"build {n} cap {cap}",
                        ["build", os.path.join(work, f"in/{n}.sset"),
                         "--out", out, "--max-dim", str(cap)],
                        "build", f"in/{n}.sset", cap,
                        {"out": out, "structural": n in others and cap == 2}))


# Cap-3 towers read by ``homology``.  The disk's is left to ``build``:
# reading all four makes a pass about 13 s, too long for three in a run.
HOMOLOGY_CAP3 = ("point", "interval", "circle")


def _plan_homology(p, rng, work):
    named, others, _ = _targets(p, rng)
    towers = ([(n, 3) for n in HOMOLOGY_CAP3] + [(n, 2) for n in named]
              + [(n, 2) for n in others])
    for n, cap in towers:
        rel = f"towers/{n}-{cap}"
        p.towers.append((f"in/{n}.sset", cap, rel))
        for k in range(cap + 1):
            p.ops.append(Op(f"homology {n} cap {cap} stage {k}",
                            ["homology", os.path.join(work, rel), "--stage", str(k)],
                            "homology-stage", f"in/{n}.sset", cap, {"stage": k}))
    for n in named + others:
        p.ops.append(Op(f"homology {n}.sset",
                        ["homology", os.path.join(work, f"in/{n}.sset")],
                        "homology-sset", f"in/{n}.sset"))
    for n, cap in (("point", 3), ("interval", 2)):
        p.ops.append(Op(f"connectivity {n} cap {cap}",
                        ["verify", "--suite", "connectivity",
                         os.path.join(work, f"in/{n}.sset"),
                         "--max-dim", str(cap), "--simply-connected"],
                        "connectivity", f"in/{n}.sset", cap))


def _plan_verify(p, rng, work):
    k = 0

    def sub(gens):
        rel = f"in/{subcomplex_name(gens)}.sset"
        if rel not in p.files:
            _add_complex(p, rel, d2_complex(gens))
        return os.path.join(work, rel)

    def aux(stem, text):
        nonlocal k
        rel = f"in/{stem}{k:02d}"
        k += 1
        p.files[rel] = text
        return os.path.join(work, rel)

    def suite(kind, cap, label, args, target=""):
        p.ops.append(Op(f"{kind} cap {cap} {label}",
                        ["verify", "--suite", kind] + args + ["--max-dim", str(cap)],
                        kind, target, cap))

    def functor(cap, c, b, a):
        suite("functor", cap, "<".join(map(subcomplex_name, (a, b, c))),
              [sub(a), sub(b), aux("map", inclusion_text(a, b)),
               "--then", sub(c), aux("map", inclusion_text(b, c))])

    def subcx(cap, b, a):
        suite("subcomplex", cap, "<".join(map(subcomplex_name, (a, b))),
              [sub(a), sub(b), aux("map", inclusion_text(a, b))])

    def intersect(cap, ambient, members):
        # the reference is keyed by the intersection, whose tower size
        # both sides of every PASS line must equal
        total = sub(frozenset.intersection(*members))
        suite("intersect", cap, " & ".join(map(subcomplex_name, members)),
              [sub(ambient), aux("family", family_text(members))],
              os.path.relpath(total, work))

    def variant(cap, a):
        suite("variant", cap, subcomplex_name(a), [sub(a)])

    for ca, cb, cc in FUNCTOR_CHAINS:
        c = pick(rng, cc)
        b = pick(rng, cb, c)
        functor(2, c, b, pick(rng, ca, b))
    for ca, cb in SUBCOMPLEX_PAIRS:
        b = pick(rng, cb)
        subcx(2, b, pick(rng, ca, b))
    for amb, classes in INTERSECT_FAMILIES:
        v = frozenset({(0, rng.randrange(3))})
        intersect(2, amb, [pick(rng, cls, amb, v) for cls in classes])
    for cls in VARIANT_SHAPES:
        variant(2, pick(rng, cls))
    # cap 3: one suite of each kind, on shapes of fixed size (the seed picks
    # the vertices and edges), because a cap-3 suite costs 0.3-3 s and its
    # size would otherwise dominate the spread between seeds
    iv = random_interval(rng)
    ends = frozenset(g for g in iv if g[0] == 0)
    functor(3, iv, ends, frozenset({rng.choice(sorted(ends))}))
    iv = random_interval(rng)
    subcx(3, iv, frozenset({rng.choice(sorted(g for g in iv if g[0] == 0))}))
    intersect(3, BOUNDARY_GENS, [random_interval(rng, e)
                                 for e in rng.sample(range(3), 2)])
    variant(3, random_interval(rng))


# ``build`` and ``verify`` share one workload: on a 2-core host the run
# length limits how steady the figures are, and the time a full round of
# runs may take allows 50-s runs only for two workloads.
PLANNERS = {"build-verify": (_plan_build, _plan_verify), "homology": (_plan_homology,)}


def write_files(p, work):
    for rel, text in p.files.items():
        path = os.path.join(work, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(text)
