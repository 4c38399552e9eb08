"""Acceptance gate: one printed PASS/FAIL line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines; each
criterion is also an ordinary assertion, so a plain pytest run fails red
if any criterion regresses.
"""

import os
import random
import time
from itertools import product

from cwtower import (
    SimplicialSet,
    boundary_simplex,
    check_intersection,
    check_subcomplex,
    compose,
    compose_tower_maps,
    connectivity_report,
    cw_tower,
    empty_map,
    enumerate_maps,
    enumerate_squares,
    attach_cells,
    format_smap,
    format_square,
    format_sset,
    homology,
    identity_map,
    identity_tower_map,
    induced_homology_map,
    induced_tower_map,
    is_simplicial_subset,
    standard_simplex,
    subcomplex,
)
from cwtower.cli import main
from cwtower.core import Simplex, SimplexRef, SimplicialMap, boundary_inclusion

from util import SEED, oracle_enumerate_maps, random_one_dim_target

R = SimplexRef
EDGE01 = {R(0, 0), R(0, 1), R(1, 0)}
EDGE02 = {R(0, 0), R(0, 2), R(1, 1)}
EDGE12 = {R(0, 1), R(0, 2), R(1, 2)}


def emit(number, name, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {name}")
    assert ok, f"criterion {number}: {name}"


def test_criterion_1_point_tower():
    t0 = time.monotonic()
    T = cw_tower(standard_simplex(0), 2)
    ok = [s.counts for s in T.stages] == [(1,), (1, 1), (1, 1, 8)]
    h1 = homology(T.stages[2], 1)
    h2 = homology(T.stages[2], 2)
    ok = ok and h1.is_trivial() and (h2.betti, h2.torsion) == (7, ())
    for n in range(3):
        ok = ok and connectivity_report(T, n, simply_connected_B=True).all_true()
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    emit(1, f"point tower growth, homology, connectivity ({elapsed:.2f}s)", ok)


def test_criterion_2_circle_tower():
    t0 = time.monotonic()
    T = cw_tower(boundary_simplex(2), 2)
    ok = T.stages[1].counts == (3, 6)
    ok = ok and homology(T.stages[1], 1).betti == 4
    p1 = induced_homology_map(T.projections[1], 1)
    ok = ok and p1.is_epi and p1.target.betti == 1
    ok = ok and induced_homology_map(T.projections[2], 1).is_iso
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    emit(2, f"circle tower H1 epi then iso ({elapsed:.2f}s)", ok)


def collapse_to_point(B):
    assign = []
    for d in range(len(B.counts)):
        word = tuple(range(d - 1, -1, -1))
        assign.append(tuple(Simplex(word, R(0, 0)) for _ in range(B.counts[d])))
    return SimplicialMap(B, standard_simplex(0), tuple(assign))


def test_criterion_3_functor_laws():
    e = empty_map(SimplicialSet.empty())
    ok = True
    # identity law
    for B in (standard_simplex(0), boundary_simplex(2)):
        T = cw_tower(B, 2)
        tm = induced_tower_map(e, identity_map(B), T, T)
        ident = identity_tower_map(T)
        ok = ok and all(format_smap(tm.stage_maps[n])
                        == format_smap(ident.stage_maps[n]) for n in range(3))
    # composition law on >= 5 composable pairs, including non-injective g
    B2 = boundary_simplex(2)
    edge, incl_e = subcomplex(B2, EDGE01)
    vertex, incl_v = subcomplex(edge, {R(0, 0)})
    pairs = [
        (incl_e, collapse_to_point(B2)),                  # g2 non-injective
        (incl_e, identity_map(B2)),
        (identity_map(edge), incl_e),
        (incl_v, incl_e),
        (collapse_to_point(edge), identity_map(standard_simplex(0))),
        (incl_v, collapse_to_point(edge)),                # g2 non-injective
    ]
    for g1, g2 in pairs:
        T = cw_tower(g1.dom, 2)
        Tm = cw_tower(g1.cod, 2)
        Tp = cw_tower(g2.cod, 2)
        stacked = compose_tower_maps(induced_tower_map(e, g2, Tm, Tp),
                                     induced_tower_map(e, g1, T, Tm))
        direct = induced_tower_map(e, compose(g2, g1), T, Tp)
        ok = ok and all(format_smap(stacked.stage_maps[n])
                        == format_smap(direct.stage_maps[n]) for n in range(3))
    emit(3, "functor identity and composition laws, byte-identical", ok)


def test_criterion_4_subcomplex_suite():
    e = empty_map(SimplicialSet.empty())
    B2 = boundary_simplex(2)
    D2 = standard_simplex(2)
    pairs = [
        subcomplex(standard_simplex(1), {R(0, 0)}),   # vertex in edge
        subcomplex(B2, EDGE01),                       # edge in circle
        subcomplex(D2, set(B2.generators())),         # circle in disk
        subcomplex(B2, EDGE01 | EDGE02),              # wedge of two edges
        subcomplex(B2, {R(0, 2)}),                    # vertex in circle
    ]
    ok = True
    for S, incl in pairs:
        T = cw_tower(S, 2)
        Tp = cw_tower(incl.cod, 2)
        tm = induced_tower_map(e, incl, T, Tp)
        passed, _ = check_subcomplex(tm)
        ok = ok and passed
        ok = ok and all(is_simplicial_subset(tm.stage_maps[n]) for n in range(3))
    emit(4, "stage maps of 5 inclusion pairs are subcomplex inclusions", ok)


def test_criterion_5_intersection_suite():
    families = [
        [EDGE01, EDGE02],
        [{R(0, 0)}, {R(0, 1)}],
        [EDGE01, EDGE02, EDGE12],   # empty total intersection
    ]
    ok = True
    for family in families:
        passed, reports = check_intersection(boundary_simplex(2), family, 2)
        ok = ok and passed and all(r["equal"] for r in reports)
    emit(5, "intersection commutes with tower stages for 3 families", ok)


def corpus():
    B2 = boundary_simplex(2)
    return [standard_simplex(0), standard_simplex(1), B2,
            subcomplex(B2, EDGE01 | EDGE02)[0]]


def test_criterion_6_variant_coincidence():
    ok = True
    for B in corpus():
        serials = []
        for variant in ("all-maps", "cellular"):
            T = cw_tower(B, 2, variant)
            serials.append("".join(
                format_sset(T.stages[n]) + format_smap(T.inclusions[n])
                + format_smap(T.projections[n])
                + "".join(format_square(sq) for sq in T.squares[n])
                for n in range(3)))
        ok = ok and serials[0] == serials[1]
    emit(6, "variants byte-identical on every corpus input", ok)


def test_criterion_7_oracle_equivalence_and_pushouts():
    rng = random.Random(SEED)
    domains = [standard_simplex(0), standard_simplex(1), boundary_simplex(1),
               boundary_simplex(2)]
    ok = True
    for trial in range(100):
        X = random_one_dim_target(rng)
        K = domains[trial % len(domains)]
        got = [format_smap(f) for f in enumerate_maps(K, X)]
        want = [format_smap(f) for f in oracle_enumerate_maps(K, X)]
        ok = ok and got == want
    # pushout universality on small instances
    X = standard_simplex(0)
    p = enumerate_maps(X, standard_simplex(0))[0]
    squares = enumerate_squares(1, p)
    X2, incl, _ = attach_cells(X, squares, p)
    interval = standard_simplex(1)
    bincl = boundary_inclusion(1)
    for Z in (standard_simplex(0), standard_simplex(1), boundary_simplex(2)):
        all_maps = enumerate_maps(X2, Z)
        for q in enumerate_maps(X, Z):
            options = [[d for d in enumerate_maps(interval, Z)
                        if compose(d, bincl) == compose(q, sq.attach)]
                       for sq in squares]
            for family in product(*options):
                mediating = [
                    u for u in all_maps
                    if compose(u, incl) == q
                    and all(u.assign[1][X.count(1) + k] == family[k].assign[1][0]
                            for k in range(len(squares)))
                ]
                ok = ok and len(mediating) == 1
    emit(7, "search matches raw oracle on 100 targets; pushouts universal", ok)


def test_criterion_8_build_determinism(tmp_path, capsys):
    ok = True
    for idx, B in enumerate(corpus()):
        src = tmp_path / f"in_{idx}.sset"
        src.write_text(format_sset(B))
        trees = []
        for run in ("a", "b"):
            out = tmp_path / f"{idx}_{run}"
            code = main(["build", str(src), "--out", str(out)])
            ok = ok and code == 0
            tree = {}
            for dirpath, _, files in os.walk(out):
                for name in sorted(files):
                    full = os.path.join(dirpath, name)
                    tree[os.path.relpath(full, out)] = open(full, "rb").read()
            trees.append(tree)
        ok = ok and trees[0] == trees[1]
    capsys.readouterr()  # drop the growth tables printed by the builds
    emit(8, "independent builds byte-identical on every corpus input", ok)
