import gc
import hashlib
import os
import weakref
from itertools import product

import numpy as np
import pytest

from cwtower import (
    AttachmentSquare,
    SimplicialSet,
    ValidationError,
    attach_cells,
    boundary_simplex,
    build_tower,
    chain_complex,
    check_intersection,
    compose,
    cw_tower,
    empty_map,
    enumerate_maps,
    enumerate_squares,
    format_sset,
    identity_map,
    induced_tower_map,
    parse_sset,
    save_tower,
    square_commutes,
    stage_zero,
    standard_simplex,
    validate,
)
from cwtower import core
from cwtower.core import AppendedRow, Simplex, SimplexRef, SimplicialMap, boundary_inclusion
from cwtower.core import appended, inclusion, with_generators
from cwtower.homsearch import SquareRow, SquareTable
from cwtower.textio import read_text

from util import assert_stage_glues_oracle, oracle_enumerate_squares, oracle_square_line
from util import CONSTRUCTIONS, constructed, eager_faces, is_simplicial_subset, vertex_with_loop


def point_projection(X):
    return enumerate_maps(X, standard_simplex(0))[0]


class TestAttachCells:
    def test_empty_square_list(self):
        X = standard_simplex(0)
        p = point_projection(X)
        X2, p2 = attach_cells(X, [], p)
        assert X2 == X and p2 == p

    def test_attach_loop_to_point(self):
        X = standard_simplex(0)
        p = point_projection(X)
        squares = enumerate_squares(SquareTable(1, p))
        X2, p2 = attach_cells(X, squares, p)
        assert X2.counts == (1, 1)
        assert X2.faces[1][0] == (Simplex((), SimplexRef(0, 0)),) * 2
        assert validate(X2) == []

    def test_six_edges_over_circle(self):
        B = boundary_simplex(2)
        A0 = SimplicialSet.build([3], [[(), (), ()]])
        p = SimplicialMap(A0, B, (tuple(Simplex((), SimplexRef(0, i)) for i in range(3)),))
        squares = enumerate_squares(SquareTable(1, p))
        X2, p2 = attach_cells(A0, squares, p)
        assert X2.counts == (3, 6)
        assert validate(X2) == []

    def test_invariants(self):
        B = boundary_simplex(2)
        T = cw_tower(B, 2)
        for n in (1, 2):
            X, p = T.stages[n - 1], T.projections[n - 1]
            X2, p2 = attach_cells(X, T.squares[n], p)
            incl = inclusion(X, X2)
            # only dimension n grows, by exactly the square count
            for d in range(max(len(X.counts), len(X2.counts))):
                expected = X.count(d) + (len(T.squares[n]) if d == n else 0)
                assert X2.count(d) == expected
            assert is_simplicial_subset(incl)
            assert compose(p2, incl) == p

    def test_commutativity_violation_rejected(self):
        X = standard_simplex(0)
        p = point_projection(X)
        squares = enumerate_squares(SquareTable(1, p))
        other = SimplicialSet.build([2], [[(), ()]])
        q = SimplicialMap(X, other, ((Simplex((), SimplexRef(0, 1)),),))
        with pytest.raises(ValidationError, match="square 0 was not found over the projection"):
            attach_cells(X, squares, q)  # squares were built over p, not q

    def test_mismatched_disk_rejected(self):
        # a row of a second search over the same projection, whose square 1
        # has the attaching map of one real square and the disk of another
        T = cw_tower(boundary_simplex(2), 1)
        p = T.projections[0]
        good = T.squares[1]
        again = enumerate_squares(SquareTable(1, p)).table
        bad = AttachmentSquare(again, good[0].facets, good[-1].top)
        assert again is not good.table and not square_commutes(bad, p)
        row = SquareRow(again, [good[0].facets, bad.facets], [good[0].top, bad.top])
        with pytest.raises(ValidationError, match="square 1: attaching square does not commute"):
            attach_cells(T.stages[0], row, p)

    @pytest.mark.parametrize("B", [standard_simplex(0), standard_simplex(1),
                                   boundary_simplex(2), standard_simplex(2)],
                             ids=["point", "interval", "circle", "disk"])
    def test_map_built_squares_glue_like_ranked_ones(self, B):
        # the generic search's squares, pairs of maps, are the cells of the
        # stage in order; gluing the ranked squares again gives the same stage
        T = cw_tower(B, 3)
        for n in range(1, 4):
            X, p = T.stages[n - 1], T.projections[n - 1]
            assert_stage_glues_oracle(T, n, oracle_enumerate_squares(n, p))
            got = attach_cells(X, T.squares[n], p)
            assert got == (T.stages[n], T.projections[n]), f"stage {n}"

    def test_ranked_square_with_another_disk_rejected(self):
        T = cw_tower(boundary_simplex(2), 1)
        p = T.projections[0]
        good = T.squares[1]
        assert good[0].table is good[-1].table
        bad = AttachmentSquare(good.table, good[0].facets, good[-1].top)
        assert not square_commutes(bad, p)
        row = SquareRow(good.table, [good[0].facets, bad.facets], [good[0].top, bad.top])
        with pytest.raises(ValidationError, match="square 1: attaching square does not commute"):
            attach_cells(T.stages[0], row, p)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_facet_rows_of_the_wrong_width_rejected(self, n):
        T = cw_tower(standard_simplex(0), 3)
        X, p, table = T.stages[n - 1], T.projections[n - 1], T.squares[n].table
        for width in (n, n + 2, 1):
            row = SquareRow(table, np.zeros((2, width), dtype=np.int64), [0, 0])
            with pytest.raises(ValidationError) as err:
                attach_cells(X, row, p)
            assert str(err.value) == (
                f"attach_cells: the facet rows are {width} wide, not n + 1 = {n + 1}")

    def test_square_outside_the_stage_rejected(self):
        # a square of the circle's stage 1 cannot be ranked over the point's
        T = cw_tower(boundary_simplex(2), 1)
        P = cw_tower(standard_simplex(0), 1)
        with pytest.raises(ValidationError, match="does not land in X"):
            attach_cells(P.stages[0], T.squares[1][:1], P.projections[0])


def full_walk(X):
    """``validate`` of a fresh copy of X, which carries no report set by gluing."""
    return validate(SimplicialSet(X.counts, X.faces, X.labels))


def broken_point_row():
    """Stage 2 of the point tower, its projection, and a row of one square
    over it whose disk commutes but whose facets break d_i x_j = d_{j-1} x_i."""
    T = cw_tower(standard_simplex(0), 2)
    p = T.projections[2]
    return T.stages[2], SquareRow(SquareTable(3, p), [(0, 0, 0, 1)], [0]), p


def glued_unchecked(X, row, p):
    """The stage and projection that gluing the row's cells onto X gives,
    made without ``attach_cells``, so the facets are not checked."""
    table, n = row.table, row.table.n
    faces = [tuple(map(table.cand_a[n - 1].__getitem__, fs)) for fs in row.facets.tolist()]
    X2 = with_generators(X, n, len(faces), lambda start, stop: faces[start:stop], row.lines)
    disks = map(table.cand_b[n].__getitem__, row.tops.tolist())
    return X2, SimplicialMap(X2, p.cod, appended(p.assign, n, disks))


class TestStageReport:
    @pytest.mark.parametrize("construction", CONSTRUCTIONS)
    @pytest.mark.parametrize("B", [standard_simplex(0), standard_simplex(1),
                                   boundary_simplex(2), standard_simplex(2)],
                             ids=["point", "interval", "circle", "disk"])
    def test_equals_the_full_walk_cap_3(self, B, construction, monkeypatch):
        walked, walk = [], core._validation_report
        monkeypatch.setattr(core, "_validation_report", lambda X: walked.append(X) or walk(X))
        T = constructed(cw_tower(B, 3), construction)
        for X in T.stages:
            chain_complex(X)
        # every stage was checked where it was glued, none by the full walk
        assert {id(X) for X in walked}.isdisjoint(map(id, T.stages))
        assert all(X.checked_report == () for X in T.stages)
        monkeypatch.undo()
        for X in T.stages:
            assert validate(X) == [] == full_walk(X)

    def test_failed_identity_is_refused(self):
        X, row, p = broken_point_row()
        with pytest.raises(ValidationError) as err:
            attach_cells(X, row, p)
        assert str(err.value) == "square 0: d_0 x_3 != d_2 x_0"
        # the full walk of the glued set finds the same pair
        walk = full_walk(glued_unchecked(X, row, p)[0])
        assert walk[0].startswith("generator 3:0: d_0 d_3 != d_2 d_0")
        good = enumerate_squares(row.table)[0]
        row = SquareRow(row.table, [good.facets, row.facets[0]], [good.top, row.tops[0]])
        with pytest.raises(ValidationError, match=r"^square 1: d_0 x_3 != d_2 x_0$"):
            attach_cells(X, row, p)

    def test_unclean_previous_stage_falls_back_to_the_full_walk(self):
        X3, p3 = glued_unchecked(*broken_point_row())
        X4, _ = attach_cells(X3, enumerate_squares(SquareTable(4, p3))[:5], p3)
        want = full_walk(X4)
        assert want and list(X4.checked_report) == want == validate(X4)
        with pytest.raises(ValidationError) as err:
            chain_complex(X4)
        assert str(err.value) == "invalid simplicial set: " + "; ".join(want[:4])

    def test_no_reference_cycle(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            T = cw_tower(boundary_simplex(2), 2)
            kept = weakref.ref(T.stages[2])
            below = weakref.ref(T.stages[1])
            assert kept().checked_report == ()  # set where it was glued
            del T
            assert kept() is None and below() is None
        finally:
            if enabled:
                gc.enable()


class TestStageZero:
    def test_empty_over_point(self):
        A0, p0 = stage_zero(empty_map(standard_simplex(0)))
        assert A0.counts == (1,)

    def test_empty_over_circle(self):
        A0, p0 = stage_zero(empty_map(boundary_simplex(2)))
        assert A0.counts == (3,)
        for b in range(3):
            assert p0.assign[0][b] == Simplex((), SimplexRef(0, b))

    def test_identity_of_point(self):
        pt = standard_simplex(0)
        A0, p0 = stage_zero(identity_map(pt))
        assert A0.counts == (2,)
        assert p0.assign[0][0] == p0.assign[0][1] == Simplex((), SimplexRef(0, 0))
        assert is_simplicial_subset(inclusion(pt, A0))

    def test_domain_generators_come_first(self):
        # A's generators above dimension 0 keep their indices in A0
        A = standard_simplex(2)
        A0, _ = stage_zero(identity_map(A))
        assert is_simplicial_subset(inclusion(A, A0))
        assert validate(A0) == []
        assert hashlib.sha256(format_sset(A0).encode()).hexdigest() == (
            "b4f952f2fca919765410cfdf67bc4d4bd7f9bd0b6679af79735d24f866f92501")


class TestLabelView:
    """attach_cells keeps no label strings: a stage's row of new labels is a
    view over its table, facets and disks that makes a label when read."""

    @pytest.mark.parametrize("B", [standard_simplex(0), standard_simplex(1),
                                   boundary_simplex(2), standard_simplex(2)],
                             ids=["point", "interval", "circle", "disk"])
    def test_view_is_the_tuple_of_square_lines(self, B):
        T = cw_tower(B, 3)
        for n in range(1, 4):
            X, row = T.stages[n], T.stages[n].labels[n]
            want = tuple(oracle_square_line(n, sq.attach, sq.disk) for sq in T.squares[n])
            assert isinstance(row, AppendedRow) and len(row) == len(want)
            assert row == want and want == row and hash(row) == hash(want)
            assert tuple(row) == want and row[1:] == want[1:] and row[-1] == want[-1]
            plain = SimplicialSet(X.counts, X.faces, tuple(map(tuple, X.labels)))
            assert X == plain and plain == X and hash(X) == hash(plain)
            assert format_sset(X) == format_sset(plain)

    def test_view_follows_the_domain_labels(self):
        A = standard_simplex(2)
        T = build_tower(identity_map(A), 2)
        row, sq = T.stages[1].labels[1], T.squares[1]
        assert row[:3] == A.labels[1] == ("01", "02", "12")
        assert len(row) == 3 + len(sq) and row[3] == oracle_square_line(1, sq[0].attach,
                                                                       sq[0].disk)
        with pytest.raises(IndexError):
            row[len(row)]

    def test_suites_that_write_nothing_make_no_label(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a label was made")

        monkeypatch.setattr(SquareTable, "lines", refuse)
        X = boundary_simplex(2)
        edges = [{SimplexRef(0, 0), SimplexRef(0, 1), SimplexRef(1, 0)},
                 {SimplexRef(0, 0), SimplexRef(0, 2), SimplexRef(1, 1)}]
        assert check_intersection(X, edges, 3)[0]
        T = cw_tower(X, 3)
        induced_tower_map(empty_map(SimplicialSet.empty()), identity_map(X), T, T)


RP2 = parse_sset(read_text(os.path.join(os.path.dirname(__file__), "data", "rp2.sset")))


class TestFaceView:
    """attach_cells builds no face tuple: a stage's row of faces is a view
    that makes the new cells' faces from their squares' facets when read."""

    @pytest.mark.parametrize("f", [
        empty_map(standard_simplex(0)), empty_map(standard_simplex(1)),
        empty_map(boundary_simplex(2)), empty_map(standard_simplex(2)), empty_map(RP2),
        identity_map(standard_simplex(2))],
        ids=["point", "interval", "circle", "disk", "rp2", "disk-identity"])
    def test_view_is_the_eager_gather(self, f):
        T = build_tower(f, 3)
        for n, (below, X) in enumerate(zip([f.dom, *T.stages], T.stages)):
            row, new = X.faces[n], X.count(n) - below.count(n)
            want = tuple(below.faces[n] if n <= below.dim else ())
            want += eager_faces(T.squares[n]) if n else ((),) * new
            assert isinstance(row, AppendedRow) and row.count == new
            assert row == want and want == row and hash(row) == hash(want)
            assert tuple(row) == want and row[1:] == want[1:] and row[-1] == want[-1]
            assert [row[g] for g in range(len(row))] == list(want)
            with pytest.raises(IndexError):
                row[len(row)]

    def test_build_and_save_make_no_top_face(self, tmp_path, monkeypatch):
        faces = SquareRow.faces

        def refuse_top(row, start, stop):
            assert row.table.n < 3, "a face of a stage-3 cell was made"
            return faces(row, start, stop)

        monkeypatch.setattr(SquareRow, "faces", refuse_top)
        T = cw_tower(boundary_simplex(2), 3)
        save_tower(T, tmp_path / "t")
        with pytest.raises(AssertionError, match="stage-3 cell"):
            chain_complex(T.top)


class TestUnionThrough:
    def test_base_and_stages(self):
        T = cw_tower(standard_simplex(0), 2)
        assert T.A == SimplicialSet.empty()
        assert T.stages[0] == stage_zero(T.f)[0]
        assert T.stages[2].counts == (1, 1, 8)


class TestPushoutUniversality:
    def test_unique_mediating_map(self):
        # X = point, one 1-square over the point; X' = vertex with loop.
        # For every q: X -> Z and compatible disk map, exactly one map
        # X' -> Z restricts correctly.
        X = standard_simplex(0)
        p = point_projection(X)
        squares = enumerate_squares(SquareTable(1, p))
        X2, _ = attach_cells(X, squares, p)
        incl = inclusion(X, X2)
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
