import pytest

from cwtower import (
    SimplicialSet,
    ValidationError,
    boundary_simplex,
    build_tower,
    check_intersection,
    check_subcomplex,
    compose,
    compose_tower_maps,
    cw_tower,
    empty_map,
    format_smap,
    format_square,
    format_sset,
    identity_map,
    identity_tower_map,
    induced_tower_map,
    is_simplicial_subset,
    standard_simplex,
    subcomplex,
    validate,
)
from cwtower.core import Simplex, SimplexRef, SimplicialMap
from cwtower.factorization import is_cellular

R = SimplexRef
EDGE01 = {R(0, 0), R(0, 1), R(1, 0)}
EDGE02 = {R(0, 0), R(0, 2), R(1, 1)}
EDGE12 = {R(0, 1), R(0, 2), R(1, 2)}


def tower_serial(tower):
    parts = []
    for n in range(tower.cap + 1):
        parts.append(format_sset(tower.stages[n]))
        parts.append(format_smap(tower.inclusions[n]))
        parts.append(format_smap(tower.projections[n]))
        parts.extend(format_square(sq) for sq in tower.squares[n])
    return "".join(parts)


class TestBuildTower:
    def test_point_tower_stage_sizes(self):
        T = cw_tower(standard_simplex(0), 2)
        assert [s.counts for s in T.stages] == [(1,), (1, 1), (1, 1, 8)]

    def test_circle_tower_stage_one(self):
        T = cw_tower(boundary_simplex(2), 1)
        assert [s.counts for s in T.stages] == [(3,), (3, 6)]

    def test_point_identity_tower(self):
        pt = standard_simplex(0)
        T = build_tower(pt, identity_map(pt), 1)
        assert T.stages[0].counts == (2,)
        assert T.stages[1].counts == (2, 4)  # 2^2 boundary maps, 1 disk map

    def test_all_stages_validate(self):
        for B in (standard_simplex(0), boundary_simplex(2), standard_simplex(1)):
            T = cw_tower(B, 2)
            for n in range(3):
                assert validate(T.stages[n]) == []
                assert is_simplicial_subset(T.inclusions[n])
                prev = T.f if n == 0 else T.projections[n - 1]
                assert compose(T.projections[n], T.inclusions[n]) == prev

    def test_stage_growth_law(self):
        T = cw_tower(boundary_simplex(2), 2)
        for n in (1, 2):
            for d in range(len(T.stages[n].counts)):
                expected = T.stages[n - 1].count(d) + (
                    len(T.squares[n]) if d == n else 0)
                assert T.stages[n].count(d) == expected

    def test_determinism(self):
        B = boundary_simplex(2)
        assert tower_serial(cw_tower(B, 2)) == tower_serial(cw_tower(B, 2))

    def test_empty_target(self):
        T = cw_tower(SimplicialSet.empty(), 2)
        assert all(s == SimplicialSet.empty() for s in T.stages)

    def test_bad_variant_rejected(self):
        with pytest.raises(ValidationError):
            cw_tower(standard_simplex(0), 1, variant="minimal")


class TestVariantCoincidence:
    @pytest.mark.parametrize("build", [
        lambda: standard_simplex(0),
        lambda: standard_simplex(1),
        lambda: boundary_simplex(2),
    ])
    def test_both_variants_agree(self, build):
        B = build()
        assert tower_serial(cw_tower(B, 2, "all-maps")) == \
            tower_serial(cw_tower(B, 2, "cellular"))

    def test_filter_is_identity(self):
        T = cw_tower(standard_simplex(0), 2)
        for n in (1, 2):
            assert all(is_cellular(sq.attach) for sq in T.squares[n])

    def test_cellular_build_asserts_every_stage(self, never_cellular):
        with pytest.raises(AssertionError, match="stage 1"):
            cw_tower(standard_simplex(0), 2, "cellular")
        assert cw_tower(standard_simplex(0), 2).stages[2].counts == (1, 1, 8)


def collapse_to_point(B):
    pt = standard_simplex(0)
    v = Simplex((), R(0, 0))
    assign = []
    for d in range(len(B.counts)):
        word = tuple(range(d - 1, -1, -1))
        assign.append(tuple(Simplex(word, R(0, 0)) for _ in range(B.counts[d])))
    return SimplicialMap(B, pt, tuple(assign))


class TestFunctorLaws:
    def corpus(self):
        """Commuting squares (empty domains): includes non-injective maps."""
        B2 = boundary_simplex(2)
        pt = standard_simplex(0)
        edge, incl_e = subcomplex(B2, EDGE01)
        vertex, incl_v = subcomplex(standard_simplex(1), {R(0, 0)})
        wedge, incl_w = subcomplex(B2, EDGE01 | EDGE02)
        return [
            identity_map(B2),
            incl_e,
            incl_v,
            incl_w,
            collapse_to_point(B2),          # non-injective
            collapse_to_point(standard_simplex(1)),  # non-injective
        ]

    def test_identity_law(self):
        for B in (standard_simplex(0), boundary_simplex(2)):
            T = cw_tower(B, 2)
            tm = induced_tower_map(empty_map(SimplicialSet.empty()), identity_map(B), T, T)
            ident = identity_tower_map(T)
            for n in range(3):
                assert tm.stage_maps[n] == ident.stage_maps[n]

    def test_induced_maps_valid_on_corpus(self):
        for g in self.corpus():
            T = cw_tower(g.dom, 2)
            Tp = cw_tower(g.cod, 2)
            tm = induced_tower_map(empty_map(SimplicialSet.empty()), g, T, Tp)
            assert len(tm.stage_maps) == 3

    def test_composition_law(self):
        B2 = boundary_simplex(2)
        edge, incl_e = subcomplex(B2, EDGE01)
        pairs = [
            (incl_e, collapse_to_point(B2)),          # edge -> circle -> point
            (incl_e, identity_map(B2)),
            (identity_map(edge), incl_e),
            (subcomplex(edge, {R(0, 0)})[1], incl_e),  # vertex -> edge -> circle
            (collapse_to_point(edge), identity_map(standard_simplex(0))),
        ]
        e = empty_map(SimplicialSet.empty())
        for g1, g2 in pairs:
            T = cw_tower(g1.dom, 2)
            Tm = cw_tower(g1.cod, 2)
            Tp = cw_tower(g2.cod, 2)
            tm1 = induced_tower_map(e, g1, T, Tm)
            tm2 = induced_tower_map(e, g2, Tm, Tp)
            direct = induced_tower_map(e, compose(g2, g1), T, Tp)
            stacked = compose_tower_maps(tm2, tm1)
            for n in range(3):
                assert format_smap(stacked.stage_maps[n]) == \
                    format_smap(direct.stage_maps[n])

    def test_nonempty_domain_functoriality(self):
        # the simplicial model needs no cellularity hypothesis on f
        pt = standard_simplex(0)
        B = standard_simplex(1)
        g = subcomplex(B, {R(0, 0)})[1]
        T = build_tower(pt, identity_map(pt), 1)
        Tp = build_tower(pt, g, 1)
        tm = induced_tower_map(identity_map(pt), g, T, Tp)
        assert compose(Tp.projections[1], tm.stage_maps[1]) == \
            compose(g, T.projections[1])

    def test_variant_mismatch_rejected(self):
        B = standard_simplex(0)
        T = cw_tower(B, 1, "all-maps")
        Tp = cw_tower(B, 1, "cellular")
        with pytest.raises(ValidationError):
            induced_tower_map(empty_map(SimplicialSet.empty()), identity_map(B), T, Tp)


class TestSubcomplexTheorem:
    def inclusion_pairs(self):
        B2 = boundary_simplex(2)
        D2 = standard_simplex(2)
        D1 = standard_simplex(1)
        pairs = [
            subcomplex(D1, {R(0, 0)}),                        # vertex in edge
            subcomplex(B2, EDGE01),                           # edge in circle
            subcomplex(D2, set(B2.generators())),             # circle in disk
            subcomplex(B2, EDGE01 | EDGE02),                  # wedge of 2 edges
            subcomplex(B2, {R(0, 2)}),                        # vertex in circle
            subcomplex(D2, EDGE01),                           # edge in disk
        ]
        return pairs

    def test_inclusions_induce_subcomplex_inclusions(self):
        e = empty_map(SimplicialSet.empty())
        for S, incl in self.inclusion_pairs():
            T = cw_tower(S, 2)
            Tp = cw_tower(incl.cod, 2)
            ok, witness = check_subcomplex(induced_tower_map(e, incl, T, Tp))
            assert ok, witness

    def test_collapse_fails_at_stage_zero(self):
        B2 = boundary_simplex(2)
        T = cw_tower(B2, 1)
        Tp = cw_tower(standard_simplex(0), 1)
        tm = induced_tower_map(empty_map(SimplicialSet.empty()), collapse_to_point(B2), T, Tp)
        ok, witness = check_subcomplex(tm)
        assert not ok
        assert witness[0] == 0

    def test_identity_passes(self):
        B2 = boundary_simplex(2)
        T = cw_tower(B2, 1)
        tm = induced_tower_map(empty_map(SimplicialSet.empty()), identity_map(B2), T, T)
        assert check_subcomplex(tm) == (True, None)


class TestIntersectionTheorem:
    def test_adjacent_edges(self):
        ok, reports = check_intersection(boundary_simplex(2), [EDGE01, EDGE02], 2)
        assert ok
        assert [r["equal"] for r in reports] == [True, True, True]

    def test_singleton_family(self):
        B2 = boundary_simplex(2)
        ok, _ = check_intersection(B2, [set(B2.generators())], 2)
        assert ok

    def test_disjoint_vertices(self):
        ok, reports = check_intersection(boundary_simplex(2),
                                         [{R(0, 0)}, {R(0, 1)}], 2)
        assert ok
        assert reports[-1]["tower_of_intersection_size"] == 0

    def test_three_edges_empty_total_intersection(self):
        ok, _ = check_intersection(boundary_simplex(2),
                                   [EDGE01, EDGE02, EDGE12], 2)
        assert ok

    def test_non_face_closed_rejected(self):
        with pytest.raises(ValidationError):
            check_intersection(boundary_simplex(2), [{R(1, 0)}], 1)
