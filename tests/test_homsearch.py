import random
from itertools import combinations

import pytest

from cwtower import (
    SimplicialSet,
    boundary_simplex,
    compose,
    cw_tower,
    enumerate_maps,
    enumerate_squares,
    format_smap,
    format_square,
    square_commutes,
    standard_simplex,
    subcomplex,
)
from cwtower.core import Simplex, SimplexRef, SimplicialMap, face_closure_errors
from cwtower.homsearch import Budget, BudgetExceeded, simplex_candidates

from util import (
    SEED,
    oracle_enumerate_maps,
    oracle_enumerate_squares,
    random_one_dim_target,
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
        assert T.squares[n] == oracle_enumerate_squares(n, p), f"stage {n}"


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
        squares = enumerate_squares(1, p)
        assert len(squares) == 1

    def test_three_vertices_over_circle(self):
        B = boundary_simplex(2)
        A0 = SimplicialSet.build([3], [[(), (), ()]])
        p = SimplicialMap(A0, B, (tuple(Simplex((), SimplexRef(0, i)) for i in range(3)),))
        squares = enumerate_squares(1, p)
        assert len(squares) == 6

    def test_loop_stage_over_point(self):
        X = vertex_with_loop()
        B = standard_simplex(0)
        p = enumerate_maps(X, B)[0]
        squares = enumerate_squares(2, p)
        assert len(squares) == 8

    def test_all_squares_commute(self):
        X = vertex_with_loop()
        p = enumerate_maps(X, standard_simplex(0))[0]
        for sq in enumerate_squares(2, p):
            assert square_commutes(sq, p)

    def test_order_is_deterministic(self):
        X = vertex_with_loop()
        p = enumerate_maps(X, standard_simplex(0))[0]
        a = [format_square(sq) for sq in enumerate_squares(2, p)]
        b = [format_square(sq) for sq in enumerate_squares(2, p)]
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

    def test_join_steps_charged_to_shared_budget(self):
        X = vertex_with_loop()
        p = enumerate_maps(X, standard_simplex(0))[0]
        budget = Budget(100)
        enumerate_squares(2, p, budget)
        # 2 choices of x_0, 2 of x_1 for each, 2 of x_2 for each pair
        assert budget.used == 2 + 4 + 8
        enumerate_squares(2, p, budget)
        assert budget.used == 28
        with pytest.raises(BudgetExceeded) as exc:
            enumerate_squares(2, p, Budget(13))
        assert exc.value.budget == 13 and exc.value.used > 13

    def test_count_monotone_under_inclusion(self):
        # squares over a subcomplex map to distinct squares over the ambient
        from cwtower import cw_tower
        from cwtower.homsearch import AttachmentSquare
        from cwtower import SimplicialSet, empty_map, induced_tower_map

        Bp = boundary_simplex(2)
        B, incl = subcomplex(Bp, {SimplexRef(0, 0), SimplexRef(0, 1), SimplexRef(1, 0)})
        T = cw_tower(B, 2)
        Tp = cw_tower(Bp, 2)
        tm = induced_tower_map(empty_map(SimplicialSet.empty()), incl, T, Tp)
        for n in (1, 2):
            target_keys = {format_square(sq) for sq in Tp.squares[n]}
            images = [
                format_square(AttachmentSquare(
                    n, compose(tm.stage_maps[n - 1], sq.attach),
                    compose(incl, sq.disk)))
                for sq in T.squares[n]
            ]
            assert len(set(images)) == len(images)
            assert set(images) <= target_keys
