import random
from itertools import combinations
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cwtower import (
    SimplicialSet,
    ValidationError,
    boundary_simplex,
    build_tower,
    compose,
    cw_tower,
    enumerate_maps,
    enumerate_squares,
    format_smap,
    format_square,
    identity_map,
    square_commutes,
    standard_simplex,
    subcomplex,
)
from cwtower.core import Simplex, SimplexRef, SimplicialMap, face_closure_errors
from cwtower.core import validate
from cwtower.homsearch import Budget, BudgetExceeded, SquareRow, SquareTable
from cwtower.homsearch import simplex_candidates

from util import (
    SEED,
    assert_stage_glues_oracle,
    oracle_enumerate_maps,
    oracle_enumerate_squares,
    oracle_square_line,
    random_one_dim_target,
    square_maps,
    vertex_with_loop,
)


def two_points():
    return SimplicialSet.build([2], [[(), ()]])


def subcomplexes_of_disk():
    """Every face-closed generator subset of Delta^2, as a complex."""
    D = standard_simplex(2)
    gens = list(D.generators())
    out = []
    for k in range(len(gens) + 1):
        for chosen in map(set, combinations(gens, k)):
            if not face_closure_errors(D, chosen):
                out.append(subcomplex(D, chosen)[0])
    return out


def assert_squares_match_oracle(B, cap):
    T = cw_tower(B, cap)
    for n in range(1, cap + 1):
        p = T.projections[n - 1]
        assert square_maps(T.squares[n]) == oracle_enumerate_squares(n, p), f"stage {n}"


class TestEnumerateMaps:
    def test_point_to_point(self):
        assert len(enumerate_maps(standard_simplex(0), standard_simplex(0))) == 1

    def test_interval_to_point(self):
        maps = enumerate_maps(standard_simplex(1), standard_simplex(0))
        assert len(maps) == 1
        assert maps[0].assign[1][0] == Simplex((0,), SimplexRef(0, 0))

    def test_two_points_to_two_points(self):
        assert len(enumerate_maps(boundary_simplex(1), two_points())) == 4

    def test_sphere_to_vertex_with_loop(self):
        # each of the 3 boundary edges goes to the loop or the degenerate
        # vertex independently: 2^3 maps
        assert len(enumerate_maps(boundary_simplex(2), vertex_with_loop())) == 8

    def test_empty_domain(self):
        assert len(enumerate_maps(SimplicialSet.empty(), boundary_simplex(2))) == 1

    def test_empty_codomain(self):
        assert enumerate_maps(standard_simplex(0), SimplicialSet.empty()) == []

    def test_canonical_order_and_determinism(self):
        X = vertex_with_loop()
        K = boundary_simplex(2)
        a = [format_smap(f) for f in enumerate_maps(K, X)]
        b = [format_smap(f) for f in enumerate_maps(K, X)]
        assert a == b
        # lexicographic in the candidate order (word, then generator)
        keys = [tuple(s for row in f.assign for s in row) for f in enumerate_maps(K, X)]
        assert keys == sorted(keys)

    def test_candidates_sorted_and_unique(self):
        X = vertex_with_loop()
        cands = simplex_candidates(X, 2)
        assert cands == sorted(cands)
        assert len(set(cands)) == len(cands)

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceeded):
            enumerate_maps(boundary_simplex(2), vertex_with_loop(), budget=3)

    def test_matches_raw_oracle_on_random_targets(self):
        rng = random.Random(SEED)
        domains = [standard_simplex(0), standard_simplex(1), boundary_simplex(1),
                   boundary_simplex(2)]
        for trial in range(100):
            X = random_one_dim_target(rng)
            K = domains[trial % len(domains)]
            got = [format_smap(f) for f in enumerate_maps(K, X)]
            want = [format_smap(f) for f in oracle_enumerate_maps(K, X)]
            assert got == want, f"trial {trial}"

    def test_matches_raw_oracle_on_two_dimensional_target(self):
        X = standard_simplex(2)
        for K in (boundary_simplex(2), standard_simplex(1)):
            got = [format_smap(f) for f in enumerate_maps(K, X)]
            want = [format_smap(f) for f in oracle_enumerate_maps(K, X)]
            assert got == want


class TestEnumerateSquares:
    def test_point_over_point(self):
        p = enumerate_maps(standard_simplex(0), standard_simplex(0))[0]
        # A_0 = one vertex over B = point
        squares = enumerate_squares(SquareTable(1, p))
        assert len(squares) == 1

    def test_three_vertices_over_circle(self):
        B = boundary_simplex(2)
        A0 = SimplicialSet.build([3], [[(), (), ()]])
        p = SimplicialMap(A0, B, (tuple(Simplex((), SimplexRef(0, i)) for i in range(3)),))
        squares = enumerate_squares(SquareTable(1, p))
        assert len(squares) == 6

    def test_loop_stage_over_point(self):
        X = vertex_with_loop()
        B = standard_simplex(0)
        p = enumerate_maps(X, B)[0]
        squares = enumerate_squares(SquareTable(2, p))
        assert len(squares) == 8

    def test_all_squares_commute(self):
        X = vertex_with_loop()
        p = enumerate_maps(X, standard_simplex(0))[0]
        for sq in enumerate_squares(SquareTable(2, p)):
            assert square_commutes(sq, p)

    def test_order_is_deterministic(self):
        X = vertex_with_loop()
        p = enumerate_maps(X, standard_simplex(0))[0]
        a = [format_square(sq) for sq in enumerate_squares(SquareTable(2, p))]
        b = [format_square(sq) for sq in enumerate_squares(SquareTable(2, p))]
        assert a == b

    @pytest.mark.parametrize("B", [standard_simplex(0), standard_simplex(1),
                                   boundary_simplex(2), standard_simplex(2)],
                             ids=["point", "interval", "circle", "disk"])
    def test_matches_oracle_in_order_on_corpus(self, B):
        assert_squares_match_oracle(B, 3)

    def test_matches_oracle_in_order_on_subcomplexes_of_disk(self):
        subs = subcomplexes_of_disk()
        assert len(subs) == 19
        for B in subs:
            assert_squares_match_oracle(B, 3 if B.total_generators <= 3 else 2)

    def test_matches_oracle_in_order_on_random_targets(self):
        rng = random.Random(SEED)
        for _ in range(40):
            assert_squares_match_oracle(random_one_dim_target(rng), 2)

    def test_ranked_squares_compare_as_their_maps(self):
        # over the vertex with a loop, the constant attaching map of one
        # vertex bounds two disks: the degenerate edge and the loop
        X = standard_simplex(0)
        p = SimplicialMap(X, vertex_with_loop(), ((Simplex((), SimplexRef(0, 0)),),))
        squares = enumerate_squares(SquareTable(1, p))
        assert len(squares) == 2 and squares[0].facets == squares[1].facets
        assert squares[0] != squares[1]
        for sq, again in zip(squares, enumerate_squares(SquareTable(1, p))):
            # two searches, two tables: compared by their facet and disk simplices
            assert sq.table is not again.table
            assert sq == again and hash(sq) == hash(again)
            assert (sq.attach, sq.disk) == (again.attach, again.disk)
            assert square_commutes(sq, p)
        # the same simplices over another target are another square
        (pt_sq,) = enumerate_squares(SquareTable(1, enumerate_maps(X, standard_simplex(0))[0]))
        twin = next(sq for sq in squares if sq.disk.assign == pt_sq.disk.assign)
        assert twin.attach == pt_sq.attach and twin.disk != pt_sq.disk
        assert twin != pt_sq

    def test_table_needs_positive_dimension(self):
        p = enumerate_maps(vertex_with_loop(), standard_simplex(0))[0]
        with pytest.raises(ValidationError, match="needs n >= 1"):
            SquareTable(0, p)

    def test_join_steps_charged_to_shared_budget(self):
        X = vertex_with_loop()
        p = enumerate_maps(X, standard_simplex(0))[0]
        budget = Budget(100)
        enumerate_squares(SquareTable(2, p), budget)
        # 2 choices of x_0, 2 of x_1 for each, 2 of x_2 for each pair
        assert budget.used == 2 + 4 + 8
        enumerate_squares(SquareTable(2, p), budget)
        assert budget.used == 28
        with pytest.raises(BudgetExceeded) as exc:
            enumerate_squares(SquareTable(2, p), Budget(13))
        assert exc.value.budget == 13 and exc.value.used > 13

    def test_count_monotone_under_inclusion(self):
        # squares over a subcomplex map to distinct squares over the ambient
        from cwtower import SimplicialSet, empty_map, induced_tower_map

        Bp = boundary_simplex(2)
        B, incl = subcomplex(Bp, {SimplexRef(0, 0), SimplexRef(0, 1), SimplexRef(1, 0)})
        T = cw_tower(B, 2)
        Tp = cw_tower(Bp, 2)
        tm = induced_tower_map(empty_map(SimplicialSet.empty()), incl, T, Tp)
        for n in (1, 2):
            target_keys = {oracle_square_line(n, sq.attach, sq.disk) for sq in Tp.squares[n]}
            images = [
                oracle_square_line(n, compose(tm.stage_maps[n - 1], sq.attach),
                                   compose(incl, sq.disk))
                for sq in T.squares[n]
            ]
            assert len(set(images)) == len(images)
            assert set(images) <= target_keys


def vertex(v):
    return Simplex((), SimplexRef(0, v))


def target_of(nv, edges, triangles):
    """A complex from vertex count, edges (d_0, d_1) and triangles given as
    ranks into its 1-simplex candidates (edges and degenerate vertices)."""
    faces = [[()] * nv, [(vertex(a), vertex(b)) for a, b in edges]]
    ones = simplex_candidates(SimplicialSet.build([nv, len(edges)], faces), 1)
    return SimplicialSet.build([nv, len(edges), len(triangles)], faces + [
        [tuple(ones[r] for r in t) for t in triangles]])


@st.composite
def small_targets(draw):
    """Complexes of dimension <= 2 with up to 3 vertices, 3 edges (loops
    allowed) and 2 triangles, whose faces may be degenerate."""
    nv = draw(st.integers(1, 3))
    edges = draw(st.lists(st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1)),
                          max_size=3))
    X1 = target_of(nv, edges, [])
    ones = range(len(simplex_candidates(X1, 1)))
    shells = [t for t in product(ones, repeat=3) if not validate(target_of(nv, edges, [t]))]
    triangles = draw(st.lists(st.sampled_from(shells), max_size=2)) if shells else []
    return target_of(nv, edges, triangles)


class TestRandomTargets:
    """The face-index join against the generic search, on random targets."""

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @example(target_of(1, [(0, 0)], []))                          # a loop
    @example(target_of(1, [(0, 0)], [(0, 0, 0), (1, 1, 1)]))      # triangles on a loop
    @example(target_of(2, [(1, 0)], [(2, 0, 0)]))                 # d_0 is s_0 of vertex 1
    @given(small_targets())
    def test_squares_and_stages_match_the_oracle(self, B):
        assert not validate(B)
        T = cw_tower(B, 2)
        for n in (1, 2):
            oracle = oracle_enumerate_squares(n, T.projections[n - 1])
            assert square_maps(T.squares[n]) == oracle, f"stage {n}"
            assert_stage_glues_oracle(T, n, oracle)


class TestFacetsAndDisk:
    def test_square_is_its_facets_and_disk(self):
        # a square's maps are read off its facets' faces and its disk's
        # faces, and are the maps of the generic search
        T = cw_tower(standard_simplex(1), 3)
        for n in (1, 2, 3):
            for sq in T.squares[n]:
                t = sq.table
                assert sq.attach.assign[n - 1] == tuple(t.cand_a[n - 1][x] for x in sq.facets[::-1])
                assert sq.disk.assign[n] == (t.cand_b[n][sq.top],)
            p = T.projections[n - 1]
            assert square_maps(T.squares[n]) == oracle_enumerate_squares(n, p)


TABLE_FIELDS = ("cand_a", "rank_a", "faces_a", "tokens_a",
                "cand_b", "rank_b", "faces_b", "tokens_b", "p_top")


def assert_grown_tables_fresh(T):
    """Every table of T's stages, grown from the table below it as the
    build grows them, equals a table built from scratch, field by field."""
    table = None
    for n in range(1, T.cap + 1):
        table = SquareTable(n, T.projections[n - 1], table)
        fresh = SquareTable(n, T.projections[n - 1])
        built = [sq.table for sq in T.squares[n][:1]]
        for t in [table] + built:
            for name in TABLE_FIELDS:
                assert getattr(t, name) == getattr(fresh, name), (n, name)


class TestGrowingTable:
    """A tower grows one search table: stage n's table keeps the candidates
    of the table below it and adds only its new top dimensions."""

    @pytest.mark.parametrize("variant", ["all-maps", "cellular"])
    @pytest.mark.parametrize("B", [standard_simplex(0), standard_simplex(1),
                                   boundary_simplex(2), standard_simplex(2)],
                             ids=["point", "interval", "circle", "disk"])
    def test_corpus_at_cap_3(self, B, variant):
        assert_grown_tables_fresh(cw_tower(B, 3, variant))

    def test_point_at_cap_4(self):
        assert_grown_tables_fresh(cw_tower(standard_simplex(0), 4, budget=10**9))

    def test_domain_with_generators_above_the_stage(self):
        # A = Delta^2 has a 2-generator before stage 2 appends any
        A = standard_simplex(2)
        for f in (identity_map(A), enumerate_maps(A, standard_simplex(1))[3]):
            assert_grown_tables_fresh(build_tower(f, 3))

    def test_stage_table_keeps_its_own_rows(self):
        # growing stage n + 1's table leaves stage n's table as it was
        T = cw_tower(standard_simplex(1), 3)
        t2, t3 = T.squares[2][0].table, T.squares[3][0].table
        assert len(t2.cand_a) == 2 and len(t2.cand_b) == 3
        assert len(t3.cand_a) == 3 and len(t3.cand_b) == 4
        assert t3.cand_a[1] is t2.cand_a[1] and t3.tokens_b[2] is t2.tokens_b[2]

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1))
    def test_random_one_dimensional_targets(self, seed):
        assert_grown_tables_fresh(cw_tower(random_one_dim_target(random.Random(seed)), 2))


class TestRankEquality:
    """Squares and rows compare by ranks: candidates depend only on n, the
    stage and the target, so two builds of one tower rank alike."""

    def test_rows_of_two_builds_compare_the_stage_once(self, monkeypatch):
        T, T2 = cw_tower(boundary_simplex(2), 3), cw_tower(boundary_simplex(2), 3)
        assert T.squares[3].table is not T2.squares[3].table
        calls, real = [], SimplicialSet.__eq__
        monkeypatch.setattr(SimplicialSet, "__eq__",
                            lambda a, b: calls.append(1) or real(a, b))
        assert T.squares[3] == T2.squares[3] and len(calls) <= 2
        assert T.squares[2][5:9] == T2.squares[2][5:9] != T2.squares[2][5:8]

    def test_row_over_another_target_unequal(self):
        # the point's stage 1 and the loop's: one vertex each, so the same
        # stage, and square 0 has the same ranks over different disks
        row = cw_tower(standard_simplex(0), 1).squares[1]
        loop = cw_tower(vertex_with_loop(), 1).squares[1][:1]
        assert (row.facets, row.tops) == (loop.facets, loop.tops)
        assert row.table.p.dom == loop.table.p.dom
        assert row != loop and loop != row and row[0] != loop[0]

    def test_edited_disk_rank_unequal(self):
        row = cw_tower(boundary_simplex(2), 2).squares[2]
        tops = list(row.tops)
        tops[-1] = (tops[-1] + 1) % len(row.table.cand_b[2])
        edited = SquareRow(row.table, row.facets, tops)
        assert row != edited and edited != row and row[-1] != edited[-1]
        assert row[:-1] == edited[:-1]

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_squares_equal_exactly_when_their_maps_are(self, seed, same):
        # two independent builds, of one target or of two
        B = random_one_dim_target(random.Random(seed))
        B2 = B if same else random_one_dim_target(random.Random(seed + 1))
        T, T2 = cw_tower(B, 2), cw_tower(B2, 2)
        for a in (sq for n in (1, 2) for sq in T.squares[n][:12]):
            for b in (sq for n in (1, 2) for sq in T2.squares[n][:12]):
                assert (a == b) == ((a.attach, a.disk) == (b.attach, b.disk))
                if a == b:
                    assert hash(a) == hash(b)
