import dataclasses
import importlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import smith_normal_form as sympy_smith_normal_form

from cwtower import (
    ValidationError,
    boundary_simplex,
    chain_complex,
    connectivity_report,
    cw_tower,
    enumerate_maps,
    homology,
    identity_map,
    induced_homology_map,
    smith_normal_form,
    standard_simplex,
)
from cwtower.homology import _dense_solve, homology_groups, zeros

from util import (
    SEED,
    all_true,
    boundary_matrix,
    chain_map_matrix,
    homology_map_matrix,
    int_matrix,
    integer_determinant,
    invariant_factors,
    kernel_basis,
    path_components,
    pi0_verdicts,
    random_one_dim_target,
    solve_int,
    vertex_with_loop,
)


class TestChainComplex:
    def test_point(self):
        cc = chain_complex(standard_simplex(0))
        assert cc.ranks == (1,)

    def test_circle_boundary_columns_sum_to_zero(self):
        cc = chain_complex(boundary_simplex(2))
        d1 = boundary_matrix(cc, 1)
        assert d1.shape == (3, 3)
        for col in range(3):
            assert sum(d1[r, col] for r in range(3)) == 0

    def test_degenerate_faces_dropped(self):
        # the loop's two faces are the same vertex, d1 column is zero
        cc = chain_complex(vertex_with_loop())
        assert boundary_matrix(cc, 1)[0, 0] == 0

    def test_point_tower_stage_two_boundary_row(self):
        T = cw_tower(standard_simplex(0), 2)
        A2 = T.stages[2]
        cc = chain_complex(A2)
        got = [int(v) for v in boundary_matrix(cc, 2)[0]]
        # independent oracle: signed count of nondegenerate faces hitting
        # the unique 1-cell
        want = []
        for g in range(A2.count(2)):
            t = 0
            for i in range(3):
                s = A2.faces[2][g][i]
                if not s.is_degenerate:
                    t += (-1) ** i
            want.append(t)
        assert got == want == [1, 0, 2, 1, 0, -1, 1, 0]

    def test_boundary_squares_to_zero(self):
        for X in (standard_simplex(3), boundary_simplex(3),
                  cw_tower(boundary_simplex(2), 2).top):
            cc = chain_complex(X)
            for n in range(2, len(cc.ranks)):
                prod = boundary_matrix(cc, n - 1) @ boundary_matrix(cc, n)
                assert not prod.any()


class TestSmithNormalForm:
    def assert_snf(self, M):
        U, D, V = smith_normal_form(M)
        assert (U @ M @ V == D).all()
        assert abs(integer_determinant(U)) == 1
        assert abs(integer_determinant(V)) == 1
        diag = [int(D[i, i]) for i in range(min(D.shape))]
        k = sum(1 for d in diag if d != 0)
        assert all(d >= 0 for d in diag)
        assert diag[k:] == [0] * (len(diag) - k)
        for i in range(k - 1):
            assert diag[i + 1] % diag[i] == 0

    def test_zero_matrix(self):
        _, D, _ = smith_normal_form(int_matrix([[0, 0], [0, 0]]))
        assert not D.any()

    def test_known_example(self):
        assert invariant_factors(int_matrix([[2, 4], [6, 8]])) == (2, 4)

    def test_identity(self):
        assert invariant_factors(int_matrix([[1, 0], [0, 1]])) == (1, 1)

    def test_random_matrices(self):
        rng = random.Random(SEED)
        for _ in range(50):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            M = int_matrix([[rng.randint(-9, 9) for _ in range(n)]
                            for _ in range(m)])
            self.assert_snf(M)

    def test_large_entries_stay_exact(self):
        M = int_matrix([[10**30, 1], [0, 10**30]])
        U, D, V = smith_normal_form(M)
        assert (U @ M @ V == D).all()
        assert int(D[0, 0]) * int(D[1, 1]) == 10**60

    def test_kernel_and_solve(self):
        M = int_matrix([[1, 2, 3], [2, 4, 6]])
        K = kernel_basis(M)
        assert K.shape[1] == 2
        assert not (M @ K).any()
        b = int_matrix([[6], [12]])
        x = solve_int(M, b)
        assert x is not None and (M @ x == b).all()
        assert solve_int(int_matrix([[2]]), int_matrix([[3]])) is None


# Found by sizing the sparse path: the kernel basis the dense Smith form
# gave for [[1,-1,-1,4,6,-1,6],[6,1,4,1,4,4,-3],[6,6,-1,-3,4,1,0]].  Its own
# Smith form once grew entries past 4,000 digits without finishing.
GROWTH_REGRESSION = [
    [4985853, 599281948, 387916938, 101952600],
    [-6841844, -822365521, -532319580, -139904603],
    [-4424276, -531782373, -344224268, -90469262],
    [-3075555, -369670865, -239289020, -62890107],
    [-646713, -77732622, -50316551, -13224231],
    [71857, 8636958, 5590728, 1469359],
    [397, 47718, 30888, 8118],
]


class TestSmithRegression:
    def test_entry_growth_matrix(self):
        K = int_matrix(GROWTH_REGRESSION)
        U, D, V = smith_normal_form(K)
        assert (U @ K @ V == D).all()
        assert abs(integer_determinant(U)) == 1
        assert abs(integer_determinant(V)) == 1
        assert [int(D[i, i]) for i in range(4)] == [1, 1, 1, 1]
        assert not D[4:, :].any()


def _matrices(entries, max_rows=6, max_cols=6):
    def shaped(mn):
        m, n = mn
        return st.lists(st.lists(entries, min_size=n, max_size=n),
                        min_size=m, max_size=m).map(lambda rows: int_matrix(rows, n))
    return st.tuples(st.integers(0, max_rows), st.integers(0, max_cols)).flatmap(shaped)


# dense small entries, and the +-1-sparse shape of boundary matrices
MATRICES = st.one_of(_matrices(st.integers(-9, 9)),
                     _matrices(st.sampled_from([-1, 0, 0, 0, 1])))
ORACLE = settings(max_examples=150, deadline=None, database=None, derandomize=True)


def _dense_smith(M):
    """(diagonal, V): the dense Smith form's nonzero diagonal and column transform."""
    _, D, V = smith_normal_form(M)
    return tuple(int(D[i, i]) for i in range(min(D.shape)) if D[i, i] != 0), V


class TestSparseAgainstOracles:
    @ORACLE
    @given(MATRICES)
    def test_invariant_factors(self, M):
        S = sympy_smith_normal_form(Matrix(M.shape[0], M.shape[1], list(M.flat)),
                                    domain=ZZ)
        want = tuple(abs(int(S[i, i])) for i in range(min(S.shape)) if S[i, i] != 0)
        assert invariant_factors(M) == want == _dense_smith(M)[0]

    @ORACLE
    @given(MATRICES)
    def test_kernel_basis_spans_the_dense_kernel(self, M):
        K = kernel_basis(M)
        diag, V = _dense_smith(M)
        dense = V[:, len(diag):]
        assert K.shape == dense.shape
        assert not (M @ K).any()
        assert _dense_solve(K, dense) is not None
        assert _dense_solve(dense, K) is not None

    @ORACLE
    @given(MATRICES, st.data())
    def test_solve_int_agrees_with_dense_solver(self, A, data):
        m, n = A.shape
        k = data.draw(st.integers(0, 3))

        def block(rows):
            row = st.lists(st.integers(-4, 4), min_size=k, max_size=k)
            return int_matrix(data.draw(st.lists(row, min_size=rows, max_size=rows)), k)

        # half the right-hand sides are solvable by construction
        B = A @ block(n) if data.draw(st.booleans()) and n else block(m)
        X = solve_int(A, B)
        assert (X is None) == (_dense_solve(A, B) is None)
        if X is not None:
            assert X.shape == (n, k)
            assert (A @ X == B).all()

    def test_no_right_hand_side_factors_nothing(self, monkeypatch):
        h = importlib.import_module("cwtower.homology")

        def refuse(*args, **kwargs):
            raise AssertionError("eliminated a matrix for an empty right-hand side")

        monkeypatch.setattr(h, "_eliminate", refuse)
        X = solve_int(int_matrix([[1, 2], [3, 4], [5, 6]]), zeros(3, 0))
        assert X.shape == (2, 0)


class TestHomologyGroups:
    @pytest.mark.parametrize("n", range(4))
    def test_standard_simplex_contractible(self, n):
        X = standard_simplex(n)
        assert homology(X, 0).betti == 1
        for i in range(1, n + 2):
            assert homology(X, i).is_trivial()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_boundary_is_a_sphere(self, n):
        X = boundary_simplex(n)
        assert homology(X, 0).betti == (2 if n == 1 else 1)
        for i in range(1, n):
            expected = 1 if i == n - 1 else 0
            assert homology(X, i).betti == expected
            assert homology(X, i).torsion == ()

    def test_point_tower_homology(self):
        T = cw_tower(standard_simplex(0), 2)
        assert homology(T.stages[1], 1).betti == 1
        h1 = homology(T.stages[2], 1)
        assert h1.is_trivial()
        h2 = homology(T.stages[2], 2)
        assert (h2.betti, h2.torsion) == (7, ())

    def test_circle_tower_stage_one(self):
        T = cw_tower(boundary_simplex(2), 1)
        assert homology(T.stages[1], 1).betti == 4

    def test_all_degrees_at_once(self):
        for X in (boundary_simplex(3), vertex_with_loop(),
                  cw_tower(boundary_simplex(2), 2).top):
            cc = chain_complex(X)
            groups = homology_groups(cc)  # checks the Euler characteristic
            assert groups == [homology(X, i) for i in range(len(cc.ranks))]
            euler = sum((-1) ** i * r for i, r in enumerate(cc.ranks))
            assert euler == sum((-1) ** H.dim * H.betti for H in groups)

    def test_str(self):
        assert str(homology(boundary_simplex(2), 1)) == "Z"
        assert str(homology(standard_simplex(1), 1)) == "0"


class TestInducedMaps:
    def test_identity_is_iso(self):
        for X in (boundary_simplex(2), vertex_with_loop()):
            for i in (0, 1):
                hm = induced_homology_map(identity_map(X), i)
                assert hm.is_iso and hm.is_epi

    def test_circle_stage_one_epi_not_iso(self):
        T = cw_tower(boundary_simplex(2), 1)
        hm = induced_homology_map(T.projections[1], 1)
        assert hm.is_epi and not hm.is_iso

    def test_circle_stage_two_iso(self):
        T = cw_tower(boundary_simplex(2), 2)
        hm = induced_homology_map(T.projections[2], 1)
        assert hm.is_iso

    def test_point_tower_degree_one_iso_at_stage_two(self):
        T = cw_tower(standard_simplex(0), 2)
        assert induced_homology_map(T.projections[2], 1).is_iso
        assert not induced_homology_map(T.projections[1], 1).is_iso

    def test_functoriality_of_matrices(self):
        # the matrix of p_2 in degree 1 equals (matrix of p over the
        # inclusion) since bases are fixed per space and degree
        T = cw_tower(boundary_simplex(2), 2)
        from cwtower import compose
        p1 = T.projections[1]
        f = compose(T.projections[2], T.inclusions[2])
        a = homology_map_matrix(p1, 1)
        b = homology_map_matrix(f, 1)
        assert (a == b).all()
        # tie the matrices to induced_homology_map: the circle has no
        # 2-simplices, so H_1 of the target is its cycle lattice and the
        # map is onto exactly when the matrix has unit Smith factors
        assert boundary_matrix(chain_complex(p1.cod), 2).size == 0
        onto = invariant_factors(a) == (1,) * a.shape[0]
        hp, hf = induced_homology_map(p1, 1), induced_homology_map(f, 1)
        assert hp == hf
        assert hp.is_epi == onto

    def test_chain_map_matrix_of_collapse(self):
        X = vertex_with_loop()
        p = identity_map(standard_simplex(0))
        from cwtower import enumerate_maps
        f = enumerate_maps(X, standard_simplex(0))[0]
        M = chain_map_matrix(f, 1)
        assert M.shape == (0, 1)


class TestConnectivity:
    def test_path_components(self):
        assert path_components(boundary_simplex(2)) == [0, 0, 0]
        assert path_components(boundary_simplex(1)) == [0, 1]

    def test_point_tower_reports(self):
        T = cw_tower(standard_simplex(0), 2)
        r1 = connectivity_report(T, 1, simply_connected_B=True)
        assert all_true(r1)
        r2 = connectivity_report(T, 2, simply_connected_B=True)
        assert all_true(r2)
        assert r2.caveats

    def test_circle_tower_reports(self):
        T = cw_tower(boundary_simplex(2), 2)
        r = connectivity_report(T, 1)
        assert r.checks == {"pi0_surjective": True, "pi0_bijective": True, "h1_epi": True}

    def test_flag_refused_when_target_has_h1(self):
        T = cw_tower(boundary_simplex(2), 1)
        with pytest.raises(ValidationError):
            connectivity_report(T, 1, simply_connected_B=True)

    def test_stage_out_of_range(self):
        T = cw_tower(standard_simplex(0), 1)
        with pytest.raises(ValidationError):
            connectivity_report(T, 2)


def _pi0_maps():
    """Up to 20 maps between each pair of small complexes, connected or not."""
    rng = random.Random(SEED)
    spaces = [standard_simplex(0), boundary_simplex(1), boundary_simplex(2),
              standard_simplex(1)] + [random_one_dim_target(rng) for _ in range(8)]
    return [f for K in spaces for X in spaces for f in enumerate_maps(K, X)[:20]]


class TestPi0FromH0:
    """H_0(f) is onto, or an isomorphism, exactly when f is on path components."""

    def test_h0_map_against_union_find(self):
        seen = set()
        for f in _pi0_maps():
            h0 = induced_homology_map(f, 0)
            assert (h0.is_epi, h0.is_iso) == pi0_verdicts(f)
            seen.add(pi0_verdicts(f))
        assert seen == {(False, False), (True, False), (True, True)}

    def test_report_against_union_find(self):
        T = cw_tower(standard_simplex(0), 1)
        for f in _pi0_maps():
            checks = connectivity_report(dataclasses.replace(T, projections=[f, f]), 1).checks
            assert (checks["pi0_surjective"], checks["pi0_bijective"]) == pi0_verdicts(f)


@pytest.mark.parametrize("B, cap, simply_connected", [
    (standard_simplex(0), 3, True),
    (standard_simplex(1), 2, True),
    (boundary_simplex(2), 2, False),
])
def test_each_degree_is_computed_once(monkeypatch, B, cap, simply_connected):
    module = importlib.import_module("cwtower.homology")
    degrees = []
    real = module.induced_homology_map

    def counted(f, i, *complexes):
        degrees.append(i)
        return real(f, i, *complexes)

    monkeypatch.setattr(module, "induced_homology_map", counted)
    T = cw_tower(B, cap)
    for n in range(cap + 1):
        degrees.clear()
        connectivity_report(T, n, simply_connected)
        top = n if simply_connected and n >= 2 else min(n, 1)
        assert sorted(degrees) == list(range(top + 1)), f"stage {n}: {degrees}"
