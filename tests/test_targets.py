"""Towers over targets with torsion, degenerate faces and H_2.

The minimal 2-sphere, real projective plane and torus are written as
``.sset`` text in ``tests/data``; the boundary of Delta^3 is
``boundary_simplex(3)``.  Each tower is checked against a frozen digest
and against the paper's claim that p_n: A_n -> B is n-connected, here
read off homology: H_i(p_n) is an isomorphism for i < n.  On these
towers and those of the point, interval, circle and disk, the dense
boundary matrices of every stage square to zero.
"""

import os

import numpy as np
import pytest

from cwtower import (
    SimplicialMap,
    boundary_simplex,
    chain_complex,
    check_intersection,
    cw_tower,
    empty_map,
    homology,
    induced_homology_map,
    induced_tower_map,
    parse_sset,
    save_tower,
    standard_simplex,
)
from cwtower.core import Simplex, SimplexRef, SimplicialSet
from cwtower.textio import read_text

from util import boundary_matrix, tree_sha256

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
R = SimplexRef


def target(name):
    if name == "boundary3":
        return boundary_simplex(3)
    return parse_sset(read_text(os.path.join(DATA, name + ".sset")))


TARGETS = ("sphere2", "rp2", "torus", "boundary3")

# sha256 of the cap-3 tower directories (stage-3 cells: sphere2 602,
# rp2 383, torus 575, boundary3 1622)
GOLDEN_CAP3 = {
    "sphere2": "81206d176dfb013beac7ab9370ece5a2a1dd250811b58e635ab89072a62f55f0",
    "rp2": "cea5f7db123d8b3d8d900d4800d395b401bce3d54a7ef38d32085c90564cc570",
    "torus": "e1e32dd03ecaba8620dfbde9eb207c66e7d9371b47c4ba802159fc3c64ebc019",
    "boundary3": "c776d41c21ef0cd14027cc778389edf06fa588755ff5110b792ccf7b76756891",
}


@pytest.fixture(scope="module")
def towers():
    return {name: cw_tower(target(name), 3) for name in TARGETS}


@pytest.mark.parametrize("name", TARGETS)
def test_golden_digest_cap_3(towers, tmp_path, name):
    save_tower(towers[name], tmp_path / name)
    assert tree_sha256(tmp_path / name) == GOLDEN_CAP3[name]


CORPUS = {"point": standard_simplex(0), "interval": standard_simplex(1),
          "circle": boundary_simplex(2), "disk": standard_simplex(2)}


@pytest.mark.parametrize("name", [*CORPUS, *TARGETS])
def test_boundary_squares_to_zero(towers, name):
    # the dense reference for d d = 0, which chain_complex does not check
    T = towers[name] if name in towers else cw_tower(CORPUS[name], 3)
    for X in T.stages:
        cc = chain_complex(X)
        for n in range(2, len(cc.ranks)):
            d = [boundary_matrix(cc, k).astype(np.int64) for k in (n - 1, n)]
            assert not (d[0] @ d[1]).any(), (name, X.dim, n)


@pytest.mark.parametrize("name", TARGETS)
def test_projections_are_homology_isomorphisms_below_n(towers, name):
    T = towers[name]
    for n in range(1, 4):
        for i in range(n):
            assert induced_homology_map(T.projections[n], i).is_iso, (n, i)


def test_rp2_torsion_is_kept(towers):
    T = towers["rp2"]
    assert str(homology(T.B, 1)) == "Z/2"
    for n in (2, 3):
        H = homology(T.stages[n], 1)
        assert (H.betti, H.torsion, str(H)) == (0, (2,), "Z/2")


def test_naturality_rp2_to_point(towers):
    T, Tp = towers["rp2"], cw_tower(standard_simplex(0), 3)
    # every d-generator to the degenerate s_{d-1} .. s_0 of the point
    g = SimplicialMap(T.B, Tp.B, tuple(
        (Simplex(tuple(range(d - 1, -1, -1)), R(0, 0)),) * c
        for d, c in enumerate(T.B.counts)))
    tm = induced_tower_map(empty_map(SimplicialSet.empty()), g, T, Tp)
    assert [fn.cod for fn in tm.stage_maps] == Tp.stages


def test_naturality_boundary3_to_sphere2(towers):
    T, Tp = towers["boundary3"], towers["sphere2"]
    v, e = Simplex((), R(0, 0)), Simplex((0,), R(0, 0))
    # one triangle onto sigma, the other three onto the degenerate s_1 s_0 v
    tri = [Simplex((), R(2, 0))] + [Simplex((1, 0), R(0, 0))] * 3
    g = SimplicialMap(T.B, Tp.B, ((v,) * 4, (e,) * 6, tuple(tri)))
    tm = induced_tower_map(empty_map(SimplicialSet.empty()), g, T, Tp)
    assert len(tm.stage_maps) == 4
    # sigma is hit, so H_2 of the map is onto at the top stage
    assert induced_homology_map(tm.stage_maps[3], 2).is_epi


def test_intersection_of_two_faces_of_boundary3():
    X = boundary_simplex(3)
    faces = []
    for k in (0, 1):
        edges = {X.faces[2][k][i].gen for i in range(3)}
        verts = {X.faces[1][e.index][i].gen for e in edges for i in range(2)}
        faces.append({R(2, k)} | edges | verts)
    ok, reports = check_intersection(X, faces, 3)
    assert ok
    assert [(r["intersection_size"], r["tower_of_intersection_size"])
            for r in reports] == [(2, 2), (5, 5), (25, 25), (600, 600)]
