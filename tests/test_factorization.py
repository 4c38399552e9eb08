import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cwtower.factorization
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
    enumerate_maps,
    format_smap,
    format_square,
    format_sset,
    identity_map,
    identity_tower_map,
    induced_tower_map,
    load_tower,
    save_tower,
    standard_simplex,
    subcomplex,
    validate,
)
from cwtower.core import Simplex, SimplexRef, SimplicialMap
from cwtower.cli import main
from cwtower.core import map_errors
from cwtower.homsearch import AttachmentSquare

from util import check_tower_map, is_cellular_map, is_simplicial_subset
from util import face_closure, small_targets, walked_intersection, walked_subcomplex_witness
from util import oracle_induced_stage_maps
from util import random_one_dim_target
from util import vertex_with_loop
from util import CONSTRUCTIONS, constructed

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
        T = build_tower(identity_map(pt), 1)
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

    def test_equality_leaves_the_inclusions_out(self, monkeypatch):
        T, T2 = cw_tower(boundary_simplex(2), 3), cw_tower(boundary_simplex(2), 3)
        calls, real = [], SimplicialSet.__eq__
        monkeypatch.setattr(SimplicialSet, "__eq__",
                            lambda a, b: calls.append(1) or real(a, b))

        def eq_calls(compare):
            calls.clear()
            assert compare()
            return len(calls)

        # the inclusions are fixed by the stages, and comparing them would
        # compare every stage twice more; A, B and cap are read off f and
        # the stages, so they are not compared apart
        def fields(U):
            return U.f, U.stages, U.projections

        assert eq_calls(lambda: T == T2) == eq_calls(lambda: fields(T) == fields(T2))
        assert eq_calls(lambda: T.inclusions == T2.inclusions) > 0
        p = T2.projections[3]
        rows = [list(r) for r in p.assign]
        rows[3][0] = rows[3][-1]
        edited = SimplicialMap(p.dom, p.cod, tuple(map(tuple, rows)))
        assert dataclasses.replace(T2, projections=T2.projections[:3] + [edited]) != T

    def test_bad_variant_rejected(self):
        # there is one construction, and the budget is keyword-only, so a
        # variant is refused at the call, not taken for the budget
        B = standard_simplex(0)
        for build in (lambda: cw_tower(B, 2, "cellular"),
                      lambda: build_tower(empty_map(B), 2, "cellular"),
                      lambda: next(cwtower.factorization.tower_stages(empty_map(B), 2, "cellular")),
                      lambda: cw_tower(B, 1, variant="minimal")):
            with pytest.raises(TypeError):
                build()


class TestVariantCoincidence:
    @pytest.mark.parametrize("build", [
        lambda: standard_simplex(0),
        lambda: standard_simplex(1),
        lambda: boundary_simplex(2),
    ])
    def test_both_variants_agree(self, build):
        # the cellular construction keeps the squares whose attaching map is
        # cellular: it attaches the same squares when the oracle keeps all
        T = cw_tower(build(), 2)
        for row in T.squares[1:]:
            assert row.table.cellular
            assert [sq for sq in row if is_cellular_map(sq.attach)] == list(row)

    def test_filter_is_identity(self):
        T = cw_tower(standard_simplex(0), 2)
        for n in (1, 2):
            assert all(is_cellular_map(sq.attach) for sq in T.squares[n])


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
        # every stage map passes the cell-by-cell walk and map_errors: the
        # corpus, a nonempty domain, and the maps of the intersection suite
        # for the circle's two edges at vertex 1 (members, then the total)
        e, D1, B2 = empty_map(SimplicialSet.empty()), standard_simplex(1), boundary_simplex(2)
        cases = [(e, g, empty_map(g.dom), empty_map(g.cod)) for g in self.corpus()]
        cases.append((identity_map(D1), collapse_to_point(D1), identity_map(D1),
                      collapse_to_point(D1)))
        for gens in (EDGE01, EDGE12, {R(0, 1)}):
            incl = subcomplex(B2, gens)[1]
            cases.append((e, incl, empty_map(incl.dom), empty_map(B2)))
        for f, g, base, base_p in cases:
            tm = induced_tower_map(f, g, build_tower(base, 3), build_tower(base_p, 3))
            assert len(tm.stage_maps) == 4
            check_tower_map(tm, 3)
            for n, fn in enumerate(tm.stage_maps):
                assert map_errors(fn) == [], n

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
        T = build_tower(identity_map(pt), 1)
        Tp = build_tower(g, 1)
        tm = induced_tower_map(identity_map(pt), g, T, Tp)
        assert compose(Tp.projections[1], tm.stage_maps[1]) == \
            compose(g, T.projections[1])

    def test_composition_law_with_nonempty_domains(self):
        # the point at vertex 0 of the interval, then the interval, then the
        # interval over a point: A = pt and A' = Delta^1 have different
        # counts, so the gather must skip A''s generators, not A's
        pt, D1 = standard_simplex(0), standard_simplex(1)
        at0, collapse = subcomplex(D1, {R(0, 0)})[1], collapse_to_point(D1)
        T, Tm, Tp = (build_tower(h, 2) for h in (at0, identity_map(D1), collapse))
        tm1 = induced_tower_map(at0, identity_map(D1), T, Tm)
        tm2 = induced_tower_map(identity_map(D1), collapse, Tm, Tp)
        direct = induced_tower_map(at0, collapse, T, Tp)
        stacked = compose_tower_maps(tm2, tm1)
        assert stacked == direct
        assert stacked.stage_maps == direct.stage_maps == oracle_induced_stage_maps(
            at0, collapse, T, Tp)

    def test_equality_reads_f_g_and_cells(self):
        T = cw_tower(boundary_simplex(2), 2)
        e = empty_map(SimplicialSet.empty())
        tm = induced_tower_map(e, identity_map(T.B), T, T)
        assert tm == identity_tower_map(T)
        cells = tm.cells[2].copy()
        cells[[0, 1]] = cells[[1, 0]]
        assert tm != dataclasses.replace(tm, cells=[*tm.cells[:2], cells])
        assert tm != dataclasses.replace(tm, cells=tm.cells[:2])
        rotate = enumerate_maps(T.B, T.B)[1]
        assert rotate != identity_map(T.B)
        assert tm != dataclasses.replace(tm, g=rotate)

    def test_stage_maps_match_compose_keyed_oracle(self):
        e = empty_map(SimplicialSet.empty())
        cases = [(e, g, cw_tower(g.dom, 2), cw_tower(g.cod, 2)) for g in self.corpus()]
        vertex, incl_v = subcomplex(standard_simplex(1), {R(0, 0)})
        cases.append((e, incl_v, cw_tower(vertex, 3), cw_tower(standard_simplex(1), 3)))
        # A = Delta^1 has a 1-generator, so stage 1 keeps cells below the new ones
        D1 = standard_simplex(1)
        collapse = collapse_to_point(D1)
        cases.append((identity_map(D1), collapse, build_tower(identity_map(D1), 2),
                      build_tower(collapse, 2)))
        for f, g, T, Tp in cases:
            tm = induced_tower_map(f, g, T, Tp)
            assert tm.stage_maps == oracle_induced_stage_maps(f, g, T, Tp)

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(st.randoms(use_true_random=False))
    def test_laws_on_random_maps(self, rng):
        # random maps g: B -> B' and h: B' -> B'' between random 1-dimensional
        # targets, at cap 2
        B, Bp, Bpp = (random_one_dim_target(rng) for _ in range(3))
        g, h = rng.choice(enumerate_maps(B, Bp)), rng.choice(enumerate_maps(Bp, Bpp))
        T, Tp, Tpp = (cw_tower(X, 2) for X in (B, Bp, Bpp))
        e = empty_map(SimplicialSet.empty())
        tm = induced_tower_map(e, g, T, Tp)
        assert tm.stage_maps == oracle_induced_stage_maps(e, g, T, Tp)
        ident = induced_tower_map(e, identity_map(B), T, T)
        assert ident.stage_maps == identity_tower_map(T).stage_maps
        direct = induced_tower_map(e, compose(h, g), T, Tpp)
        assert compose_tower_maps(induced_tower_map(e, h, Tp, Tpp), tm).stage_maps == \
            direct.stage_maps


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

    def counted(self, monkeypatch, name):
        """The first arguments of every call of factorization's ``name``."""
        calls, real = [], getattr(cwtower.factorization, name)

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(cwtower.factorization, name, counting)
        return calls

    def test_each_distinct_tower_built_once(self, monkeypatch):
        # labelled, the circle's two edges are two complexes: the ambient,
        # two edge and one vertex tower; unlabelled they are one complex
        builds = self.counted(monkeypatch, "cw_tower")
        X = boundary_simplex(2)
        want = check_intersection(X, [EDGE01, EDGE02], 3)
        assert want[0] and len(builds) == 4
        builds.clear()
        plain = SimplicialSet.build(X.counts, X.faces)
        assert check_intersection(plain, [EDGE01, EDGE02], 3) == want
        assert len(builds) == 3

    def test_equal_inclusions_mapped_once(self, monkeypatch):
        # the members and their intersection are one inclusion
        maps = self.counted(monkeypatch, "induced_tower_map")
        builds = self.counted(monkeypatch, "cw_tower")
        ok, reports = check_intersection(boundary_simplex(2), [EDGE01, set(EDGE01)], 2)
        assert ok and len(maps) == 1 and len(builds) == 2
        assert [r["intersection_size"] for r in reports] == [
            r["intersection_size"] for r in check_intersection(boundary_simplex(2),
                                                               [EDGE01], 2)[1]]

    @pytest.fixture
    def no_builds(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a tower was built")

        monkeypatch.setattr(cwtower.factorization, "cw_tower", refuse)
        monkeypatch.setattr(cwtower.factorization, "build_tower", refuse)

    def test_non_face_closed_rejected(self, no_builds):
        with pytest.raises(ValidationError, match="^subset 1: subset is not face-closed:"
                           " face 0 of 1:0 escapes"):
            check_intersection(boundary_simplex(2), [EDGE01, {R(1, 0)}], 4)

    def test_unknown_generator_rejected(self, no_builds):
        with pytest.raises(ValidationError, match="^subset 0: .*generator 1:9 not in"
                           " ambient complex"):
            check_intersection(boundary_simplex(2), [EDGE01 | {R(1, 9)}, EDGE02], 4)


def two_triangles():
    """Two 2-generators on the boundary of Delta^2, and its map onto Delta^2
    that sends both to the top simplex: one to one below dimension 2."""
    D2 = standard_simplex(2)
    S = SimplicialSet.build([3, 3, 2], [D2.faces[0], D2.faces[1], D2.faces[2] * 2])
    rows = identity_map(D2).assign
    return SimplicialMap(S, D2, (rows[0], rows[1], rows[2] * 2))


class TestArrayChecksAgainstTheWalks:
    """``check_subcomplex`` and ``check_intersection`` read the cell arrays;
    the walks over the stage maps that they replaced are their references."""

    def tower_maps(self):
        e = empty_map(SimplicialSet.empty())
        B2, D1, D2 = boundary_simplex(2), standard_simplex(1), standard_simplex(2)
        out = []
        for B in (standard_simplex(0), D1, B2, D2, vertex_with_loop()):
            T = cw_tower(B, 3)
            out += [identity_tower_map(T), induced_tower_map(e, identity_map(B), T, T)]
        gs = [*TestFunctorLaws().corpus(),
              *(incl for _, incl in TestSubcomplexTheorem().inclusion_pairs()),
              *enumerate_maps(vertex_with_loop(), vertex_with_loop()), two_triangles()]
        out += [induced_tower_map(e, g, cw_tower(g.dom, 3), cw_tower(g.cod, 3)) for g in gs]
        collapse = collapse_to_point(D1)
        out.append(induced_tower_map(identity_map(D1), collapse,
                                     build_tower(identity_map(D1), 3), build_tower(collapse, 3)))
        return out

    def test_subcomplex_witness(self):
        stages = set()
        for tm in self.tower_maps():
            got = check_subcomplex(tm)
            assert got == walked_subcomplex_witness(tm)
            stages.add(got[1] and got[1][0])
        # passing maps, and witnesses at stages 0, 1 and 2
        assert stages == {None, 0, 1, 2}

    def test_repeated_cell_at_stage_two(self):
        # A = Delta^2 has a 2-generator, so stage 2's new cells start at 2:1
        T = build_tower(identity_map(standard_simplex(2)), 2)
        tm = identity_tower_map(T)
        cells = tm.cells[2].copy()
        k = 5
        cells[k] = cells[2]
        bad = dataclasses.replace(tm, cells=[*tm.cells[:2], cells])
        assert T.A.count(2) == 1 and len(cells) > k
        assert check_subcomplex(bad) == (False, (2, R(2, T.A.count(2) + k)))
        assert check_subcomplex(bad) == walked_subcomplex_witness(bad)

    @settings(max_examples=25, deadline=None, database=None, derandomize=True)
    @given(small_targets(max_vertices=2), small_targets(max_vertices=2), st.data())
    def test_subcomplex_witness_on_random_maps(self, B, Bp, data):
        maps = enumerate_maps(B, Bp)
        if not maps:
            return
        g = data.draw(st.sampled_from(maps))
        e = empty_map(SimplicialSet.empty())
        tm = induced_tower_map(e, g, cw_tower(B, 2), cw_tower(Bp, 2))
        assert check_subcomplex(tm) == walked_subcomplex_witness(tm)

    @pytest.mark.parametrize("X, family, cap", [
        (boundary_simplex(2), [EDGE01, EDGE02], 3),
        (boundary_simplex(2), [{R(0, 0)}, {R(0, 1)}], 2),
        (boundary_simplex(2), [EDGE01, EDGE02, EDGE12], 2),
        (boundary_simplex(2), [set(boundary_simplex(2).generators())], 2),
        (standard_simplex(2), [EDGE01 | EDGE02, EDGE01 | EDGE12], 2),
    ], ids=["adjacent-edges", "disjoint-vertices", "three-edges", "singleton", "disk-wedges"])
    def test_intersection(self, X, family, cap):
        assert check_intersection(X, family, cap) == walked_intersection(X, family, cap)

    @settings(max_examples=25, deadline=None, database=None, derandomize=True)
    @given(small_targets(), st.data())
    def test_intersection_on_random_families(self, X, data):
        gens = sorted(X.generators())
        family = [face_closure(X, data.draw(st.sets(st.sampled_from(gens), max_size=3)))
                  for _ in range(data.draw(st.integers(1, 3)))]
        assert check_intersection(X, family, 2) == walked_intersection(X, family, 2)

    def test_non_injective_stage_map_refused(self, monkeypatch):
        # the first member's stage-1 map sends its cells 1:0 and 1:1 to one cell
        real = cwtower.factorization.induced_tower_map
        folded = []

        def fold(*args):
            tm = real(*args)
            cells = tm.cells[1].copy()
            cells[1] = cells[0]
            folded.append(dataclasses.replace(tm, cells=[tm.cells[0], cells, *tm.cells[2:]]))
            return folded[-1]

        monkeypatch.setattr(cwtower.factorization, "induced_tower_map", fold)
        with pytest.raises(ValidationError, match=r"^stage map is not a subset inclusion"
                           r" \(generator 1:1\)$"):
            check_intersection(boundary_simplex(2), [EDGE01, EDGE02], 2)
        assert walked_subcomplex_witness(folded[0]) == (False, (1, R(1, 1)))

    def test_stage_zero_mismatch_fails_every_stage(self, monkeypatch):
        # the tower of the intersection, vertex 0, is sent to vertex 2: a
        # stage's image holds the vertices, so every stage differs, although
        # the cells above stage 0 still match
        real = cwtower.factorization.induced_tower_map

        def moved(f, g, T, Tp):
            tm = real(f, g, T, Tp)
            if g.dom.counts == (1,):
                tm = dataclasses.replace(tm, cells=[tm.cells[0] + 2, *tm.cells[1:]])
            return tm

        monkeypatch.setattr(cwtower.factorization, "induced_tower_map", moved)
        ok, reports = check_intersection(boundary_simplex(2), [EDGE01, EDGE02], 2)
        assert not ok
        assert [(r["equal"], r["intersection_size"], r["tower_of_intersection_size"])
                for r in reports] == [(False, 1, 1), (False, 2, 2), (False, 10, 10)]

    def test_larger_member_intersection_fails(self, monkeypatch):
        # one stage-1 cell of the first member is sent to a cell of the
        # second: the members then share one more cell than the tower of
        # their intersection holds
        X, e = boundary_simplex(2), empty_map(SimplicialSet.empty())
        (SA, inclA), (SB, inclB) = subcomplex(X, EDGE01), subcomplex(X, EDGE02)
        a = induced_tower_map(e, inclA, cw_tower(SA, 2), cw_tower(X, 2)).cells[1]
        b = induced_tower_map(e, inclB, cw_tower(SB, 2), cw_tower(X, 2)).cells[1]
        k = next(k for k, c in enumerate(a) if c not in b)
        real = cwtower.factorization.induced_tower_map

        def shared(f, g, T, Tp):
            tm = real(f, g, T, Tp)
            if g == inclA:
                cells = tm.cells[1].copy()
                cells[k] = next(c for c in b if c not in a)
                tm = dataclasses.replace(tm, cells=[tm.cells[0], cells, *tm.cells[2:]])
            return tm

        monkeypatch.setattr(cwtower.factorization, "induced_tower_map", shared)
        ok, reports = check_intersection(X, [EDGE01, EDGE02], 2)
        assert not ok
        assert [(r["equal"], r["intersection_size"] - r["tower_of_intersection_size"])
                for r in reports] == [(True, 0), (False, 1), (False, 1)]


def with_stage_map(tm, n, edit):
    """``tm`` with stage map n's cell images in dimension n edited by ``edit``."""
    fn = tm.stage_maps[n]
    rows = [list(r) for r in fn.assign]
    edit(rows[n])
    bad = dataclasses.replace(tm)
    bad.stage_maps = list(tm.stage_maps)
    bad.stage_maps[n] = SimplicialMap(fn.dom, fn.cod, tuple(map(tuple, rows)))
    return bad


class TestTowerMapCheck:
    def test_identity_passes(self):
        T = cw_tower(standard_simplex(0), 2)
        check_tower_map(identity_tower_map(T), 2)

    def test_swapped_cells_rejected(self):
        # 2-cells 0 and 1 of the point tower lie over the same disk, but
        # their faces differ, so the swap is not simplicial
        T = cw_tower(standard_simplex(0), 2)
        tm = identity_tower_map(T)

        def swap(row):
            row[0], row[1] = row[1], row[0]

        bad = with_stage_map(tm, 2, swap)
        assert map_errors(bad.stage_maps[2])
        with pytest.raises(ValidationError, match="stage 2: induced map is not simplicial"):
            check_tower_map(bad, 2)

    def test_cell_over_another_disk_rejected(self):
        # over a vertex with a loop, the constant attaching map bounds two
        # disks (the degenerate edge and the loop): two 1-cells with the
        # same faces over different disks
        B = vertex_with_loop()
        T = cw_tower(B, 1)
        tm = identity_tower_map(T)
        sq = T.squares[1]
        k = next(k for k in range(len(sq) - 1) if sq[k].facets == sq[k + 1].facets)
        assert T.projections[1].assign[1][k] != T.projections[1].assign[1][k + 1]

        def over_other_disk(row):
            row[k] = row[k + 1]

        bad = with_stage_map(tm, 1, over_other_disk)
        assert not map_errors(bad.stage_maps[1])
        with pytest.raises(ValidationError, match="stage 1: .* with the projections"):
            check_tower_map(bad, 1)

    def test_old_cell_moved_in_a_later_stage_rejected(self):
        # stage 2 sends the point tower's 1-cell, which stage 1 fixes, to the
        # degenerate edge on the vertex
        tm = identity_tower_map(cw_tower(standard_simplex(0), 2))
        f2 = tm.stage_maps[2]
        rows = list(f2.assign)
        rows[1] = (Simplex((0,), SimplexRef(0, 0)),)
        tm.stage_maps[2] = SimplicialMap(f2.dom, f2.cod, tuple(rows))
        with pytest.raises(ValidationError, match="stage 2: induced map does not commute"
                           " with the stage inclusions"):
            check_tower_map(tm, 2)

    def test_cell_sent_outside_the_stage_rejected(self):
        T = cw_tower(standard_simplex(0), 1)

        def away(row):
            row[0] = Simplex((), SimplexRef(1, 99))

        with pytest.raises(ValidationError, match="stage 1: image of cell 1:0"):
            check_tower_map(with_stage_map(identity_tower_map(T), 1, away), 1)

    def test_square_map_not_simplicial_rejected(self):
        # f sends the interval's edge to a degenerate edge on vertex 0, so
        # f(d_0 e) = 1 but d_0 f(e) = 0; the square over the point commutes
        I, pt = standard_simplex(1), standard_simplex(0)
        v = [Simplex((), R(0, i)) for i in (0, 1)]
        f = SimplicialMap(I, I, ((v[0], v[1]), (Simplex((0,), R(0, 0)),)))
        to_pt = SimplicialMap(I, pt, ((v[0], v[0]), (Simplex((0,), R(0, 0)),)))
        assert map_errors(f) and compose(to_pt, f) == to_pt
        T = build_tower(to_pt, 1)
        with pytest.raises(ValidationError, match="invalid square map"):
            induced_tower_map(f, identity_map(pt), T, T)


class TestSquareMatchRefusals:
    """``induced_tower_map`` refuses what its square match cannot place."""

    def refusal(self, row):
        T = cw_tower(boundary_simplex(2), 2)
        Tp = dataclasses.replace(T, squares=[*T.squares[:2], row(T)])
        with pytest.raises(ValidationError) as err:
            induced_tower_map(empty_map(SimplicialSet.empty()), identity_map(T.B), T, Tp)
        return str(err.value)

    def test_image_square_missing(self):
        assert self.refusal(lambda T: T.squares[2][1:]) == \
            "stage 2: image square not found in target tower (towers are inconsistent)"

    def test_row_over_another_projection(self):
        assert self.refusal(lambda T: cw_tower(standard_simplex(2), 2).squares[2]) == \
            "stage 2: squares are not over the stage projection"


class TestDanglingFace:
    """A map whose domain or codomain has a dangling face is refused with
    that set's report, before any face is read."""

    REPORT = "generator 1:0 face 1: dangling generator reference 0:5"

    def sets(self):
        v = [Simplex((), R(0, i)) for i in range(2)]
        bad = SimplicialSet.build([2, 1], [[(), ()], [(v[1], Simplex((), R(0, 5)))]])
        pt = standard_simplex(0)
        assert validate(bad) == [self.REPORT]
        return bad, pt, SimplicialMap(bad, pt, ((v[0], v[0]), (Simplex((0,), R(0, 0)),)))

    def test_domain(self):
        bad, pt, f = self.sets()
        assert map_errors(f) == [f"domain: {self.REPORT}"]
        with pytest.raises(ValidationError, match=f"^invalid input map: domain: {self.REPORT}$"):
            build_tower(f, 1)
        T = dataclasses.replace(cw_tower(pt, 1), f=empty_map(bad))
        with pytest.raises(ValidationError, match=f"^invalid square map: domain: {self.REPORT}$"):
            induced_tower_map(empty_map(SimplicialSet.empty()), f, T, cw_tower(pt, 1))

    def test_codomain(self):
        bad, pt, _ = self.sets()
        g = SimplicialMap(pt, bad, ((Simplex((), R(0, 0)),),))
        assert map_errors(g) == [f"codomain: {self.REPORT}"]
        with pytest.raises(ValidationError, match=f"^invalid input map: codomain: {self.REPORT}$"):
            cw_tower(bad, 1)
        Tp = dataclasses.replace(cw_tower(pt, 1), f=empty_map(bad))
        with pytest.raises(ValidationError, match=f"^invalid square map: codomain: {self.REPORT}$"):
            induced_tower_map(empty_map(SimplicialSet.empty()), g, cw_tower(pt, 1), Tp)


class TestNoPerSquareMaps:
    """Builds and induced maps work on facets and disks: no square builds
    its attaching map or its disk map."""

    @pytest.fixture
    def no_square_maps(self, monkeypatch):
        def refuse(sq):
            raise AssertionError("a square built its maps")

        monkeypatch.setattr(AttachmentSquare, "attach", property(refuse))
        monkeypatch.setattr(AttachmentSquare, "disk", property(refuse))

    @pytest.mark.parametrize("construction", CONSTRUCTIONS)
    def test_build(self, no_square_maps, construction):
        T = constructed(cw_tower(boundary_simplex(2), 3), construction)
        assert [len(s) for s in T.squares] == [0, 6, 36, 1017]
        with pytest.raises(AssertionError, match="built its maps"):
            T.squares[1][0].attach

    def test_induced_map(self, no_square_maps):
        X = boundary_simplex(2)
        pt, incl = subcomplex(X, {R(0, 0)})
        tm = induced_tower_map(empty_map(SimplicialSet.empty()), incl,
                               cw_tower(pt, 3), cw_tower(X, 3))
        assert check_subcomplex(tm) == (True, None)

    def test_variant_suite(self, no_square_maps, tmp_path, capsys):
        circle = tmp_path / "circle.sset"
        circle.write_text(format_sset(boundary_simplex(2)))
        assert main(["verify", "--suite", "variant", str(circle), "--max-dim", "3"]) == 0
        assert capsys.readouterr().out.count("PASS variant-coincidence") == 4

    @pytest.mark.parametrize("B", [standard_simplex(0), standard_simplex(1),
                                   boundary_simplex(2), standard_simplex(2)],
                             ids=["point", "interval", "circle", "disk"])
    def test_format_square_is_the_cell_label(self, no_square_maps, B):
        T = cw_tower(B, 3)
        for n in range(1, 4):
            labels = T.stages[n].labels[n][T.stages[n - 1].count(n):]
            assert [format_square(sq) for sq in T.squares[n]] == list(labels), n

    def test_cellular_read_from_the_table(self):
        T = cw_tower(standard_simplex(1), 2)
        for sq in T.squares[2]:
            assert sq.table.cellular and "attach" not in vars(sq)
            assert is_cellular_map(sq.attach)


class TestNoSquareObjects:
    """Builds, writes, replays, suites and homology read each stage's
    squares off its row's ranks: none of them makes a square object."""

    @pytest.fixture(autouse=True)
    def no_squares(self, monkeypatch):
        def refuse(sq, *args):
            raise AssertionError("a square object was made")

        monkeypatch.setattr(AttachmentSquare, "__init__", refuse)

    def test_refused(self):
        with pytest.raises(AssertionError, match="square object"):
            cw_tower(boundary_simplex(2), 1).squares[1][0]

    @pytest.mark.parametrize("construction", CONSTRUCTIONS)
    def test_build_save_and_replay(self, tmp_path, construction):
        T = constructed(cw_tower(boundary_simplex(2), 3), construction)
        assert [len(row) for row in T.squares] == [0, 6, 36, 1017]
        save_tower(T, tmp_path / "t")
        assert load_tower(tmp_path / "t") == T

    def test_intersection(self):
        ok, reports = check_intersection(boundary_simplex(2), [EDGE01, EDGE02], 3)
        assert ok and len(reports) == 4

    def test_suites_and_homology(self, tmp_path, capsys):
        pt, iv, X = standard_simplex(0), standard_simplex(1), boundary_simplex(2)
        S, incl = subcomplex(X, EDGE01)
        files = {"pt.sset": format_sset(pt), "iv.sset": format_sset(iv),
                 "g.smap": format_smap(enumerate_maps(pt, iv)[0]),
                 "e.sset": format_sset(S), "c.sset": format_sset(X),
                 "i.smap": format_smap(incl)}
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        path = {name: str(tmp_path / name) for name in files}
        for argv in (["functor", path["pt.sset"], path["iv.sset"], path["g.smap"]],
                     ["subcomplex", path["e.sset"], path["c.sset"], path["i.smap"]]):
            assert main(["verify", "--suite", *argv, "--max-dim", "3"]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert lines and all(line.startswith("PASS ") for line in lines)
        assert main(["build", path["c.sset"], "--max-dim", "3",
                     "--out", str(tmp_path / "t")]) == 0
        capsys.readouterr()
        assert main(["homology", str(tmp_path / "t"), "--stage", "3"]) == 0
        assert capsys.readouterr().out
