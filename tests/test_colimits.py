from itertools import product

import pytest

from cwtower import (
    AttachmentSquare,
    SimplicialSet,
    ValidationError,
    attach_cells,
    boundary_simplex,
    compose,
    cw_tower,
    empty_map,
    enumerate_maps,
    enumerate_squares,
    identity_map,
    is_simplicial_subset,
    square_commutes,
    stage_zero,
    standard_simplex,
    validate,
)
from cwtower.core import Simplex, SimplexRef, SimplicialMap, boundary_inclusion

from util import vertex_with_loop


def point_projection(X):
    return enumerate_maps(X, standard_simplex(0))[0]


class TestAttachCells:
    def test_empty_square_list(self):
        X = standard_simplex(0)
        p = point_projection(X)
        X2, incl, p2 = attach_cells(X, [], p)
        assert X2 == X and incl == identity_map(X) and p2 == p

    def test_attach_loop_to_point(self):
        X = standard_simplex(0)
        p = point_projection(X)
        squares = enumerate_squares(1, p)
        X2, incl, p2 = attach_cells(X, squares, p)
        assert X2.counts == (1, 1)
        assert X2.faces[1][0] == (Simplex((), SimplexRef(0, 0)),) * 2
        assert validate(X2) == []

    def test_six_edges_over_circle(self):
        B = boundary_simplex(2)
        A0 = SimplicialSet.build([3], [[(), (), ()]])
        p = SimplicialMap(A0, B, (tuple(Simplex((), SimplexRef(0, i)) for i in range(3)),))
        squares = enumerate_squares(1, p)
        X2, incl, p2 = attach_cells(A0, squares, p)
        assert X2.counts == (3, 6)
        assert validate(X2) == []

    def test_invariants(self):
        B = boundary_simplex(2)
        T = cw_tower(B, 2)
        for n in (1, 2):
            X, p = T.stages[n - 1], T.projections[n - 1]
            X2, incl, p2 = attach_cells(X, T.squares[n], p)
            # only dimension n grows, by exactly the square count
            for d in range(max(len(X.counts), len(X2.counts))):
                expected = X.count(d) + (len(T.squares[n]) if d == n else 0)
                assert X2.count(d) == expected
            assert is_simplicial_subset(incl)
            assert compose(p2, incl) == p

    def test_dimension_mismatch_rejected(self):
        X = standard_simplex(0)
        p = point_projection(X)
        sq1 = enumerate_squares(1, p)
        X2, _, p2 = attach_cells(X, sq1, p)
        sq2 = enumerate_squares(2, p2)
        with pytest.raises(ValidationError):
            attach_cells(X2, [sq2[0], sq1[0]], p2)

    def test_commutativity_violation_rejected(self):
        X = standard_simplex(0)
        p = point_projection(X)
        squares = enumerate_squares(1, p)
        other = SimplicialSet.build([2], [[(), ()]])
        q = SimplicialMap(X, other, ((Simplex((), SimplexRef(0, 1)),),))
        with pytest.raises(ValidationError):
            attach_cells(X, squares, q)  # squares were built over p, not q

    def test_mismatched_disk_rejected(self):
        # same domains and codomains as a real square, but the disk's
        # boundary is not the image of the attaching map
        T = cw_tower(boundary_simplex(2), 1)
        p = T.projections[0]
        good = T.squares[1]
        bad = AttachmentSquare(1, good[0].attach, good[-1].disk)
        assert not square_commutes(bad, p)
        with pytest.raises(ValidationError, match="does not commute"):
            attach_cells(T.stages[0], good[:1] + [bad], p)


class TestStageZero:
    def test_empty_over_point(self):
        A0, incl, p0 = stage_zero(SimplicialSet.empty(), empty_map(standard_simplex(0)))
        assert A0.counts == (1,)

    def test_empty_over_circle(self):
        A0, incl, p0 = stage_zero(SimplicialSet.empty(), empty_map(boundary_simplex(2)))
        assert A0.counts == (3,)
        for b in range(3):
            assert p0.assign[0][b] == Simplex((), SimplexRef(0, b))

    def test_identity_of_point(self):
        pt = standard_simplex(0)
        A0, incl, p0 = stage_zero(pt, identity_map(pt))
        assert A0.counts == (2,)
        assert p0.assign[0][0] == p0.assign[0][1] == Simplex((), SimplexRef(0, 0))
        assert is_simplicial_subset(incl)


class TestUnionThrough:
    def test_base_and_stages(self):
        T = cw_tower(standard_simplex(0), 2)
        assert T.A == SimplicialSet.empty()
        assert T.stages[0] == stage_zero(T.A, T.f)[0]
        assert T.stages[2].counts == (1, 1, 8)


class TestPushoutUniversality:
    def test_unique_mediating_map(self):
        # X = point, one 1-square over the point; X' = vertex with loop.
        # For every q: X -> Z and compatible disk map, exactly one map
        # X' -> Z restricts correctly.
        X = standard_simplex(0)
        p = point_projection(X)
        squares = enumerate_squares(1, p)
        X2, incl, _ = attach_cells(X, squares, p)
        interval = standard_simplex(1)
        bincl = boundary_inclusion(1)
        for Z in (standard_simplex(0), standard_simplex(1), vertex_with_loop()):
            all_maps = enumerate_maps(X2, Z)
            for q in enumerate_maps(X, Z):
                options = []
                for sq in squares:
                    boundary_image = compose(q, sq.attach)
                    options.append([d for d in enumerate_maps(interval, Z)
                                    if compose(d, bincl) == boundary_image])
                for family in product(*options):
                    mediating = [
                        u for u in all_maps
                        if compose(u, incl) == q
                        and all(u.assign[1][X.count(1) + k] == family[k].assign[1][0]
                                for k in range(len(squares)))
                    ]
                    assert len(mediating) == 1
