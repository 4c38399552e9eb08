"""Batch command line front end.

Subcommands:

    build      factor a map through a staged cell complex and serialize it
    verify     run a theorem suite and report one line per check
    homology   integral homology of a complex or of a built stage

Exit codes: 0 pass, 1 check failure, 2 input error (a malformed input,
or an output that cannot be written), 3 budget exceeded.
The search budget, a non-negative integer, bounds the join steps of each
build, over all of its stages.  It may be overridden with the
CWTOWER_BUDGET environment variable; an explicit --budget flag of build
and verify wins, and both refuse (exit 2) a --max-dim above 3 without
one.  homology takes no budget flag.  On a tower directory, homology
--stage k replays stages 0..k from the directory's inputs under that
budget (exit 3 if the replay exceeds it) and refuses (exit 2) a
directory whose files for those stages differ from the replay, checking
each stage before building the next; stage files above k are not read.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from functools import cache

from .core import (
    SimplexRef,
    SimplicialSet,
    ValidationError,
    compose,
    empty_map,
    identity_map,
)
from .homsearch import DEFAULT_BUDGET, BudgetExceeded
from .factorization import (
    VARIANTS,
    build_tower,
    check_intersection,
    check_subcomplex,
    compose_tower_maps,
    cw_tower,
    identity_tower_map,
    induced_tower_map,
    is_cellular,
)
from .homology import (
    chain_complex,
    connectivity_report,
    homology_groups,
    homology_of_complex,
)
from .textio import (
    ParseError,
    growth_csv,
    load_tower,
    parse_smap,
    parse_sset,
    read_text,
    save_tower,
    tower_meta,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_BUDGET = 3


def _load_sset(path):
    return parse_sset(read_text(path))


def _budget(flag=None, max_dim=None):
    """The --budget value, else CWTOWER_BUDGET, else the default; never negative.

    A --max-dim above 3 needs an explicit --budget: the square count grows
    doubly exponentially with the dimension.
    """
    if max_dim is not None and max_dim > 3 and flag is None:
        raise ParseError(
            f"max-dim {max_dim} grows doubly-exponentially; pass an"
            " explicit --budget to allow it")
    if flag is not None:
        if flag < 0:
            raise ParseError(f"--budget must be a non-negative integer, got {flag}")
        return flag
    env = os.environ.get("CWTOWER_BUDGET")
    if not env:
        return DEFAULT_BUDGET
    try:
        value = int(env)
    except ValueError:
        value = -1
    if value < 0:
        raise ParseError(
            f"CWTOWER_BUDGET must be a non-negative integer, got {env!r}")
    return value


@contextmanager
def _writing(path):
    """Report an output under ``path`` that cannot be written as an input error."""
    try:
        yield
    except OSError as exc:
        raise ParseError(f"cannot write {exc.filename or path}: {exc.strerror}") from None


def _emit(line):
    print(line)


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def cmd_build(args):
    if bool(args.domain) != bool(args.map):
        raise ParseError("--domain requires --map" if args.domain else "--map requires --domain")
    B = _load_sset(args.target)
    if args.domain:
        f = parse_smap(read_text(args.map), _load_sset(args.domain), B)
    else:
        f = empty_map(B)
    tower = build_tower(f, args.max_dim, args.variant, _budget(args.budget, args.max_dim))
    with _writing(args.out):
        save_tower(tower, args.out)
        if args.dot:
            _write_dot(tower, args.out)
    for line in growth_csv(tower).splitlines():
        _emit(line)
    return EXIT_OK


def _write_dot(tower, out):
    top = tower.top
    lines = ["graph skeleton {"]
    for v in range(top.count(0)):
        lines.append(f'  v{v} [label="{v}"];')
    for e in range(top.count(1)):
        a = top.faces[1][e][1].gen.index
        b = top.faces[1][e][0].gen.index
        lines.append(f"  v{a} -- v{b};")
    lines.append("}")
    with open(os.path.join(out, "skeleton.dot"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    lines = ["digraph growth {", "  rankdir=LR;"]
    prev = "A"
    lines.append(f'  A [label="A ({tower.A.total_generators} gens)"];')
    for n in range(tower.cap + 1):
        node = f"A{n}"
        lines.append(
            f'  {node} [label="stage {n} ({tower.stages[n].total_generators} gens)"];')
        lines.append(f"  {prev} -> {node};")
        prev = node
    lines.append("}")
    with open(os.path.join(out, "growth.dot"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _parse_family(text):
    family = []
    for no, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] != "subset":
            raise ParseError("family lines start with 'subset'", no)
        gens = set()
        for tok in parts[1:]:
            try:
                d, i = tok.split(":")
                gens.add(SimplexRef(int(d), int(i)))
            except (ValueError, ValidationError):
                raise ParseError(f"bad generator id {tok!r}", no)
        family.append(gens)
    if not family:
        raise ParseError("family file lists no subsets")
    return family


# the inputs each suite reads, in order
_PAIR = "B.sset B'.sset map.smap"
SUITE_INPUTS = {"functor": _PAIR, "subcomplex": _PAIR, "intersect": "X.sset family.txt",
                "connectivity": "B.sset", "variant": "B.sset"}


def cmd_verify(args):
    usage = SUITE_INPUTS[args.suite]
    want, got = len(usage.split()), len(args.inputs)
    if got < want:
        raise ParseError(f"suite {args.suite!r} needs {usage}")
    if got > want:
        plural = "s" if want > 1 else ""
        raise ParseError(f"suite {args.suite!r} takes {want} input{plural}, got {got}")
    if args.then and args.suite != "functor":
        raise ParseError("--then requires --suite functor")
    if args.simply_connected and args.suite != "connectivity":
        raise ParseError("--simply-connected requires --suite connectivity")
    budget = _budget(args.budget, args.max_dim)
    failures = 0

    def report(name, ok, detail=""):
        nonlocal failures
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        _emit(f"{status} {name}" + (f" {detail}" if detail else ""))

    if args.suite == "variant":
        # the cellular tower equals the all-maps tower through stage n
        # exactly when every square of stages 1..n is cellular
        B = _load_sset(args.inputs[0])
        tower = cw_tower(B, args.max_dim, budget=budget)
        same = True
        for n in range(args.max_dim + 1):
            same = same and (n == 0 or is_cellular(tower.squares[n]))
            report(f"variant-coincidence stage={n}", same)

    elif args.suite == "connectivity":
        B = _load_sset(args.inputs[0])
        tower = cw_tower(B, args.max_dim, budget=budget)
        for n in range(args.max_dim + 1):
            rep = connectivity_report(tower, n, args.simply_connected)
            for check, ok in rep.checks.items():
                report(f"connectivity stage={n} {check}", ok)

    elif args.suite == "subcomplex":
        B, Bp, g = _load_pair_with_map(args)
        T = cw_tower(B, args.max_dim, budget=budget)
        Tp = cw_tower(Bp, args.max_dim, budget=budget)
        tm = induced_tower_map(empty_map(SimplicialSet.empty()), g, T, Tp)
        ok, witness = check_subcomplex(tm)
        detail = "" if ok else (
            f"stage={witness[0]} generator={witness[1].dim}:{witness[1].index}")
        report("subcomplex-inclusion", ok, detail)

    elif args.suite == "functor":
        B, Bp, g = _load_pair_with_map(args)
        T = cw_tower(B, args.max_dim, budget=budget)
        Tp = cw_tower(Bp, args.max_dim, budget=budget)
        e = empty_map(SimplicialSet.empty())
        ident = induced_tower_map(e, identity_map(B), T, T)
        ok = ident.stage_maps == identity_tower_map(T).stage_maps
        report("functor identity-law", ok)
        tm = induced_tower_map(e, g, T, Tp)
        report("functor naturality", True)  # construction validates exactly
        if args.then:
            Bpp = _load_sset(args.then[0])
            h = parse_smap(read_text(args.then[1]), Bp, Bpp)
            Tpp = cw_tower(Bpp, args.max_dim, budget=budget)
            tm2 = induced_tower_map(e, h, Tp, Tpp)
            direct = induced_tower_map(e, compose(h, g), T, Tpp)
            ok = compose_tower_maps(tm2, tm).stage_maps == direct.stage_maps
            report("functor composition-law", ok)

    elif args.suite == "intersect":
        X = _load_sset(args.inputs[0])
        family = _parse_family(read_text(args.inputs[1]))
        ok, reports = check_intersection(X, family, args.max_dim, budget=budget)
        for rep in reports:
            report(f"intersection stage={rep['stage']}", rep["equal"],
                   f"lhs={rep['intersection_size']}"
                   f" rhs={rep['tower_of_intersection_size']}")

    return EXIT_CHECK_FAILED if failures else EXIT_OK


def _load_pair_with_map(args):
    B = _load_sset(args.inputs[0])
    Bp = _load_sset(args.inputs[1])
    g = parse_smap(read_text(args.inputs[2]), B, Bp)
    return B, Bp, g


# ---------------------------------------------------------------------------
# homology
# ---------------------------------------------------------------------------

def cmd_homology(args):
    if args.degree is not None and args.degree < 0:
        raise ParseError(f"--degree {args.degree} must be >= 0")
    if os.path.isdir(args.input):
        meta = tower_meta(args.input)
        _, cap, _ = meta
        stage = cap if args.stage is None else args.stage
        if not 0 <= stage <= cap:
            raise ParseError(f"--stage {stage} is out of range 0..{cap}")
        X = load_tower(args.input, upto=stage, budget=_budget(), _meta=meta).top
    elif args.stage is not None:
        raise ParseError("--stage requires a tower directory input")
    else:
        X = _load_sset(args.input)
    cc = chain_complex(X)
    if args.degree is None:
        groups = homology_groups(cc)
    else:
        groups = [homology_of_complex(cc, args.degree)]
    rows = []
    for H in groups:
        torsion = ";".join(str(d) for d in H.torsion)
        rows.append((H.dim, H.betti, torsion))
        _emit(f"degree={H.dim} betti={H.betti} torsion=[{torsion}] group={H}")
    if args.csv:
        with _writing(args.csv), open(args.csv, "w") as fh:
            fh.write("degree,betti,torsion\n")
            for i, b, t in rows:
                fh.write(f"{i},{b},{t}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@cache
def make_parser():
    """The argument parser, built once per process: parsing does not change it."""
    ap = argparse.ArgumentParser(prog="cwtower", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build and serialize a staged factorization")
    b.add_argument("target", help="target simplicial set (.sset)")
    b.add_argument("--domain", help="domain simplicial set (default: empty)")
    b.add_argument("--map", help="input map domain -> target (.smap)")
    b.add_argument("--max-dim", "-N", type=int, default=2)
    b.add_argument("--variant", choices=VARIANTS, default="all-maps")
    b.add_argument("--budget", type=int, default=None)
    b.add_argument("--out", required=True, help="output tower directory")
    b.add_argument("--dot", action="store_true",
                   help="also emit 1-skeleton and stage-growth DOT files")
    b.set_defaults(func=cmd_build)

    v = sub.add_parser("verify", help="run a theorem suite")
    v.add_argument("--suite", required=True,
                   choices=list(SUITE_INPUTS))
    v.add_argument("inputs", nargs="+",
                   help="suite inputs: complexes, maps, or a family file")
    v.add_argument("--then", nargs=2, metavar=("SSET", "SMAP"),
                   help="second square for the composition law (functor suite)")
    v.add_argument("--max-dim", "-N", type=int, default=2)
    v.add_argument("--budget", type=int, default=None)
    v.add_argument("--simply-connected", action="store_true")
    v.set_defaults(func=cmd_verify)

    h = sub.add_parser("homology", help="integral homology report")
    h.add_argument("input", help=".sset file or tower directory")
    h.add_argument("--stage", type=int, default=None)
    h.add_argument("--degree", type=int, default=None)
    h.add_argument("--csv", help="also write a CSV report")
    h.set_defaults(func=cmd_homology)
    return ap


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except BudgetExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
