import random

import pytest

from cwtower import (
    Simplex,
    SimplexRef,
    SimplicialMap,
    SimplicialSet,
    ValidationError,
    boundary_inclusion,
    boundary_simplex,
    face,
    identity_map,
    standard_simplex,
    subcomplex,
    validate,
)
from cwtower.core import degenerate, face_closure_errors

from util import SEED, is_simplicial_subset, vertex_with_loop

V = lambda i: Simplex((), SimplexRef(0, i))


class TestStandardObjects:
    def test_point(self):
        assert standard_simplex(0).counts == (1,)

    def test_interval(self):
        assert standard_simplex(1).counts == (2, 1)

    def test_triangle(self):
        assert standard_simplex(2).counts == (3, 3, 1)

    def test_boundary_counts(self):
        assert boundary_simplex(1).counts == (2,)
        assert boundary_simplex(2).counts == (3, 3)
        assert boundary_simplex(3).counts == (4, 6, 4)

    def test_boundary_of_point_rejected(self):
        with pytest.raises(ValidationError):
            boundary_simplex(0)

    def test_standard_simplices_validate(self):
        for n in range(5):
            assert validate(standard_simplex(n)) == []
        for n in range(1, 5):
            assert validate(boundary_simplex(n)) == []


class TestNormalForm:
    def test_face_annihilates_degeneracy(self):
        X = standard_simplex(0)
        s0v = Simplex((0,), SimplexRef(0, 0))
        assert face(X, s0v, 0) == V(0)
        assert face(X, s0v, 1) == V(0)

    def test_face_commutes_past_degeneracy(self):
        # d_0 s_1 e = s_0 d_0 e for an edge e
        X = standard_simplex(1)
        e = SimplexRef(1, 0)
        s1e = Simplex((1,), e)
        expected = degenerate(X.face_of_generator(e, 0), (0,))
        assert face(X, s1e, 0) == expected

    def test_face_without_degeneracy_is_the_stored_face(self):
        X = standard_simplex(2)
        top = Simplex((), SimplexRef(2, 0))
        for i in range(3):
            assert face(X, top, i) is X.faces[2][0][i]
        # d_0 s_0 of an edge cancels the degeneracy: the edge's stored face
        s0e = Simplex((0,), SimplexRef(1, 0))
        assert face(X, face(X, s0e, 0), 1) is X.faces[1][0][1]

    def test_normalize_wrapper(self):
        X = standard_simplex(0)
        s0v = Simplex((0,), SimplexRef(0, 0))
        assert degenerate(face(X, s0v, 0), ()) == V(0)
        assert degenerate(V(0), (0,)) == s0v

    def test_words_must_be_strictly_decreasing(self):
        with pytest.raises(ValidationError):
            Simplex((0, 1), SimplexRef(0, 0))
        with pytest.raises(ValidationError):
            Simplex((1, 1), SimplexRef(0, 0))

    def test_word_size_bound(self):
        with pytest.raises(ValidationError):
            Simplex((1,), SimplexRef(0, 0))

    def test_simplicial_identity_on_random_degenerate_simplices(self):
        # d_i d_j = d_{j-1} d_i (i < j) must hold on degenerate simplices too
        rng = random.Random(SEED)
        X = standard_simplex(3)
        gens = list(X.generators())
        for _ in range(200):
            g = rng.choice(gens)
            s = Simplex((), g)
            for _ in range(rng.randint(1, 3)):
                s = degenerate(s, (rng.randrange(s.dim + 1),))
            while s.dim < 2:
                s = degenerate(s, (rng.randrange(s.dim + 1),))
            d = s.dim
            j = rng.randint(1, d)
            i = rng.randrange(j)
            assert face(X, face(X, s, j), i) == face(X, face(X, s, i), j - 1)


class TestValidate:
    def test_triangle_clean(self):
        assert validate(standard_simplex(2)) == []

    def test_empty_clean(self):
        assert validate(SimplicialSet.empty()) == []

    def test_mutated_face_is_reported(self):
        X = standard_simplex(2)
        faces = [list(map(list, X.faces[d])) for d in range(3)]
        # redirect one face of the 2-simplex to the wrong edge
        faces[2][0][0] = Simplex((), SimplexRef(1, 0))
        broken = SimplicialSet(X.counts, tuple(tuple(map(tuple, f)) for f in faces),
                               X.labels)
        report = validate(broken)
        assert report
        assert any("2:0" in line for line in report)

    def test_dangling_reference_reported(self):
        X = SimplicialSet.build([1, 1], [[()], [(V(0), Simplex((), SimplexRef(0, 5)))]])
        report = validate(X)
        assert any("dangling" in line for line in report)

    def test_bad_face_messages(self):
        # a dangling generator, a wrong dimension, both, and a good face
        faces2 = (Simplex((), SimplexRef(1, 4)), V(0), Simplex((), SimplexRef(0, 3)))
        X = SimplicialSet.build([1, 1, 1, 1], [[()], [(V(0), V(0))], [faces2],
                                               [(Simplex((0,), SimplexRef(1, 0)),) * 4]])
        assert validate(X) == [
            "generator 2:0 face 0: dangling generator reference 1:4",
            "generator 2:0 face 1: simplex has dimension 0, expected 1",
            "generator 2:0 face 2: dangling generator reference 0:3",
            "generator 2:0 face 2: simplex has dimension 0, expected 1",
        ]

    def test_report_computed_once_and_equality_unchanged(self):
        X = standard_simplex(3)
        Y = SimplicialSet(X.counts, X.faces, X.labels)
        assert validate(X) == [] and X.checked_report == ()
        assert X.checked_report is X.checked_report
        assert "checked_report" in vars(X) and "checked_report" not in vars(Y)
        assert X == Y and hash(X) == hash(Y)
        with pytest.raises(AttributeError):
            X.counts = ()


class TestSubsets:
    def test_boundary_inclusion_is_subset(self):
        assert is_simplicial_subset(boundary_inclusion(2))

    def test_collapse_is_not(self):
        f = SimplicialMap(standard_simplex(1), standard_simplex(0),
                          ((V(0), V(0)), (Simplex((0,), SimplexRef(0, 0)),)))
        assert not is_simplicial_subset(f)

    def test_identity_is_subset(self):
        assert is_simplicial_subset(identity_map(boundary_simplex(3)))

    def test_subset_implies_mono_on_degenerates(self):
        incl = boundary_inclusion(2)
        seen = set()
        for g in incl.dom.generators():
            for j in range(g.dim + 1):
                s = Simplex((j,), g)
                img = incl(s)
                assert img not in seen
                seen.add(img)

    def test_not_face_closed_rejected(self):
        X = boundary_simplex(2)
        assert face_closure_errors(X, {SimplexRef(1, 0)})
        with pytest.raises(ValidationError):
            subcomplex(X, {SimplexRef(1, 0)})

    def test_vertex_with_loop_validates(self):
        assert validate(vertex_with_loop()) == []
