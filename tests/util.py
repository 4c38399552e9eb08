"""Shared test helpers: brute-force oracles and random instance generators."""

import hashlib
import os
from itertools import product

import numpy as np
from hypothesis import strategies as st

from cwtower import (
    Simplex,
    SimplexRef,
    SimplicialMap,
    SimplicialSet,
    ValidationError,
    boundary_inclusion,
    boundary_simplex,
    compose,
    cw_tower,
    empty_map,
    enumerate_maps,
    induced_tower_map,
    map_errors,
    standard_simplex,
    subcomplex,
)
from cwtower.core import face, simplex_errors, subset_witness, validate
from cwtower.homology import (
    HomologyMap,
    _add,
    _apply,
    _chain_map_columns,
    _eliminate,
    _factors,
    _kernel,
    chain_complex,
    smith_normal_form,
    zeros,
)
from cwtower.homsearch import simplex_candidates
from cwtower.textio import format_simplex

SEED = 20240817


def oracle_enumerate_maps(K, X):
    """Raw exhaustive oracle: try every assignment, filter by face-compatibility.

    Independent of the backtracking search; candidate lists are iterated
    in the same canonical order, so the output order is the canonical one.
    """
    gens = [SimplexRef(d, g) for d in range(len(K.counts)) for g in range(K.counts[d])]
    cand = {d: simplex_candidates(X, d) for d in {g.dim for g in gens}}
    out = []
    for combo in product(*[cand[g.dim] for g in gens]):
        table = {}
        for ref, tgt in zip(gens, combo):
            table[ref] = tgt
        assign = tuple(
            tuple(table[SimplexRef(d, g)] for g in range(K.counts[d]))
            for d in range(len(K.counts)))
        f = SimplicialMap(K, X, assign)
        if not map_errors(f):
            out.append(f)
    return out


def oracle_enumerate_squares(n, p_prev):
    """Attaching squares by generic search, independent of the face-index join.

    Every map of the boundary of Delta^n into the stage is paired with
    every map of Delta^n into the target that restricts to it over
    p_prev, in (attach, disk) order: the canonical square order.  A square
    is the pair of maps (attach, disk).
    """
    incl = boundary_inclusion(n)
    by_restriction = {}
    for d in enumerate_maps(standard_simplex(n), p_prev.cod):
        by_restriction.setdefault(compose(d, incl), []).append(d)
    return [(a, d)
            for a in enumerate_maps(boundary_simplex(n), p_prev.dom)
            for d in by_restriction.get(compose(p_prev, a), ())]


def square_maps(squares):
    """The (attach, disk) map pairs of ranked squares, to compare with the oracle."""
    return [(sq.attach, sq.disk) for sq in squares]


def oracle_square_line(n, attach, disk):
    """The line of the square (attach, disk), formatted from its two maps
    token by token, independent of the table tokens behind the labels."""
    def tokens(f):
        return " ".join(format_simplex(s) for row in f.assign for s in row)
    return f"square n={n} attach[{tokens(attach)}] disk[{tokens(disk)}]"


def eager_faces(row):
    """The faces of a square row's cells, made at once: ``cand_a[n - 1]``
    gathered at the facets, one tuple per cell.  The reference for the row
    of faces that ``attach_cells`` appends, which makes them when read."""
    cand = np.array(row.table.cand_a[row.table.n - 1], dtype=object)
    return tuple(map(tuple, cand[row.facets].tolist()))


def assert_stage_glues_oracle(T, n, oracle):
    """Stage n of T has one new cell per oracle square, in order: its faces
    are the attaching map's images of d_0 .. d_n and its projection is the
    disk's top simplex."""
    X, new = T.stages[n], len(oracle)
    assert X.count(n) - T.stages[n - 1].count(n) == new, f"stage {n}"
    if new:
        assert list(X.faces[n][-new:]) == [a.assign[n - 1][::-1] for a, _ in oracle]
        assert list(T.projections[n].assign[n][-new:]) == [d.assign[n][0] for _, d in oracle]


def oracle_induced_stage_maps(f, g, T, Tp):
    """The stage maps of ``induced_tower_map``, squares keyed by composite maps.

    Independent of the rank tables: the cell of a square (attach, disk)
    of T goes to the cell of the square (f_{n-1} . attach, g . disk) of
    Tp, found by comparing assignment tables.
    """
    ap = Tp.A.count(0)
    assign0 = (f.assign[0] if f.assign else ()) + tuple(
        Simplex((), SimplexRef(0, ap + g.assign[0][b].gen.index))
        for b in range(T.B.count(0)))
    stage_maps = [SimplicialMap(T.stages[0], Tp.stages[0], tuple(
        assign0 if d == 0 else f.assign[d] for d in range(len(T.stages[0].counts))))]
    for n in range(1, min(T.cap, Tp.cap) + 1):
        prev = stage_maps[-1]
        index_of = {(sq.attach.assign, sq.disk.assign): i
                    for i, sq in enumerate(Tp.squares[n])}
        table = [list(prev.assign[d]) if d < len(prev.assign) else []
                 for d in range(len(T.stages[n].counts))]
        base = Tp.stages[n - 1].count(n)
        for sq in T.squares[n]:
            key = (compose(prev, sq.attach).assign, compose(g, sq.disk).assign)
            table[n].append(Simplex((), SimplexRef(n, base + index_of[key])))
        stage_maps.append(SimplicialMap(T.stages[n], Tp.stages[n], tuple(map(tuple, table))))
    return stage_maps


def check_tower_map(tm, cap):
    """Check the stage maps of ``tm`` through ``cap`` cell by cell: the
    reference for the square match of ``induced_tower_map``.

    The map f_n of stage n must restrict to f_{n-1} (to f for n = 0)
    through the two towers' inclusions.  A tower only appends, so both
    inclusions send a generator to the one of the same index, and the
    restriction holds exactly when each row of f_n begins with the row of
    f_{n-1}.  On each cell c that stage n appends, f_n must be simplicial,
    f_n(d_i c) = d_i f_n(c), and commute with the projections,
    p'_n(f_n c) = g(p_n c).  The older cells are covered by the previous
    stage.  Raises ``ValidationError`` naming the first cell that fails.
    """
    T, Tp, g = tm.source, tm.target, tm.g
    for n in range(cap + 1):
        fn, X, Xp = tm.stage_maps[n], T.stages[n], Tp.stages[n]
        if fn.dom != X or fn.cod != Xp:
            raise ValidationError(f"stage {n}: induced map does not run between"
                                  " the stages")
        fa, prev = fn.assign, (tm.f if n == 0 else tm.stage_maps[n - 1]).assign
        if any(row is not old and row[:len(old)] != old for row, old in zip(fa, prev)):
            raise ValidationError(f"stage {n}: induced map does not commute"
                                  " with the stage inclusions")
        p, pp = T.projections[n], Tp.projections[n]
        for d, count in enumerate(X.counts):
            for c in range(len(prev[d]) if d < len(prev) else 0, count):
                y = fa[d][c]
                errs = simplex_errors(Xp, y, d)
                if errs:
                    raise ValidationError(f"stage {n}: image of cell {d}:{c}: {errs[0]}")
                if pp(y) != g(p.assign[d][c]):
                    raise ValidationError(f"stage {n}: induced map does not commute"
                                          " with the projections")
                for i, s in enumerate(X.faces[d][c]):
                    if fn(s) != face(Xp, y, i):
                        raise ValidationError(f"stage {n}: induced map is not simplicial"
                                              f" at d_{i} of cell {d}:{c}")


def walked_subcomplex_witness(tm):
    """``check_subcomplex`` by the walk it replaced, the reference for its
    array reading: the first ``subset_witness`` over the stage maps."""
    for n, fn in enumerate(tm.stage_maps):
        w = subset_witness(fn)
        if w is not None:
            return False, (n, w)
    return True, None


def image_sets(tm):
    """The image of each stage map of ``tm``, a subset inclusion, as a set
    of (dim, index) pairs of target generators."""
    out = []
    for f in tm.stage_maps:
        assert subset_witness(f) is None
        out.append({(d, f.assign[d][g].gen.index)
                    for d in range(len(f.dom.counts)) for g in range(f.dom.counts[d])})
    return out


def walked_intersection(X, subsets, cap):
    """``check_intersection``'s (ok, reports), from the image sets of the
    stage maps: per stage, the intersection of the members' images against
    the image of the tower of their intersection."""
    ambient, e = cw_tower(X, cap), empty_map(SimplicialSet.empty())

    def images(gens):
        S, incl = subcomplex(X, gens)
        return image_sets(induced_tower_map(e, incl, cw_tower(S, cap), ambient))

    members = [images(gens) for gens in subsets]
    total = images(set.intersection(*map(set, subsets)))
    ok, reports = True, []
    for n in range(cap + 1):
        lhs = set.intersection(*[imgs[n] for imgs in members])
        ok = ok and lhs == total[n]
        reports.append({"stage": n, "intersection_size": len(lhs),
                        "tower_of_intersection_size": len(total[n]), "equal": lhs == total[n]})
    return ok, reports


def face_closure(X, gens):
    """The smallest face-closed generator set of X holding ``gens``."""
    out, todo = set(), list(gens)
    while todo:
        ref = todo.pop()
        if ref not in out:
            out.add(ref)
            if ref.dim:
                todo.extend(X.face_of_generator(ref, i).gen for i in range(ref.dim + 1))
    return out


def random_one_dim_target(rng, max_gens=4):
    """A random well-formed complex with vertices and edges only."""
    nv = rng.randint(1, max(1, max_gens - 1))
    ne = rng.randint(0, max_gens - nv)
    faces1 = [
        (Simplex((), SimplexRef(0, rng.randrange(nv))),
         Simplex((), SimplexRef(0, rng.randrange(nv))))
        for _ in range(ne)
    ]
    return SimplicialSet.build([nv, ne], [[() for _ in range(nv)], faces1])


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
def small_targets(draw, max_vertices=3):
    """Complexes of dimension <= 2 with up to ``max_vertices`` vertices, 3
    edges (loops allowed) and 2 triangles, whose faces may be degenerate
    (as in the minimal S^2 and RP^2).  Each triangle is drawn among the
    shells that ``validate`` accepts."""
    nv = draw(st.integers(1, max_vertices))
    edges = draw(st.lists(st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1)),
                          max_size=3))
    X1 = target_of(nv, edges, [])
    ones = range(len(simplex_candidates(X1, 1)))
    shells = [t for t in product(ones, repeat=3) if not validate(target_of(nv, edges, [t]))]
    triangles = draw(st.lists(st.sampled_from(shells), max_size=2)) if shells else []
    return target_of(nv, edges, triangles)


def vertex_with_loop():
    v = Simplex((), SimplexRef(0, 0))
    return SimplicialSet.build([1, 1], [[()], [(v, v)]])


def integer_determinant(M):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = M.shape[0]
    if M.shape != (n, n):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    a = [[int(x) for x in row] for row in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def is_simplicial_subset(f):
    """True iff f is the inclusion of a simplicial subset."""
    return subset_witness(f) is None


def is_cellular_map(f):
    """True iff the simplicial map f carries each k-skeleton into the k-skeleton."""
    return all(s.gen.dim <= d for d, row in enumerate(f.assign) for s in row)


# The paper's construction attaches all squares; the cellular one only those
# whose attaching map is cellular.  Every simplicial attaching map is, so the
# cellular construction is the built tower once each stage's table says so.
CONSTRUCTIONS = ("all-maps", "cellular")


def constructed(T, construction):
    """The tower that ``construction`` builds from T's input map: T itself,
    checked stage by stage for the cellular one."""
    if construction == "cellular":
        for n in range(1, T.cap + 1):
            assert T.squares[n].table.cellular, f"stage {n}: an attaching map is not cellular"
    return T


def all_true(report):
    """Every facet of a ``ConnectivityReport`` holds."""
    return all(report.checks.values())


def path_components(X):
    """Vertex -> component id, via union-find over nondegenerate edges."""
    parent = list(range(X.count(0)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for e in range(X.count(1)):
        a = find(X.faces[1][e][0].gen.index)
        b = find(X.faces[1][e][1].gen.index)
        if a != b:
            parent[a] = b
    roots = {}
    comp = []
    for v in range(X.count(0)):
        r = find(v)
        if r not in roots:
            roots[r] = len(roots)
        comp.append(roots[r])
    return comp


def pi0_verdicts(f):
    """(onto, bijective) for the map f induces on path components, by union-find."""
    comp_dom, comp_cod = path_components(f.dom), path_components(f.cod)
    image = {comp_dom[v]: comp_cod[s.gen.index]
             for v, s in enumerate(f.assign[0] if f.assign else ())}
    onto = set(image.values()) == set(comp_cod)
    return onto, onto and len(set(image.values())) == len(set(comp_dom))


# Dense adapters over the sparse-column homology kernels

def _dense(cols, nrows):
    """A dense object-dtype integer matrix with these sparse columns."""
    out = np.zeros((nrows, len(cols)), dtype=object)
    for j, col in enumerate(cols):
        for i, v in col.items():
            out[i, j] = v
    return out


def int_matrix(rows, ncols=0):
    """An object-dtype integer matrix from nested lists."""
    rows = [list(map(int, r)) for r in rows]
    return np.array(rows, dtype=object) if rows else np.zeros((0, ncols), dtype=object)


def _columns(M):
    """The sparse columns of a dense integer matrix."""
    return [{i: int(v) for i, v in enumerate(M[:, j]) if v != 0} for j in range(M.shape[1])]


def invariant_factors(M):
    return _factors(_columns(M), M.shape[0])


def kernel_basis(M):
    """Columns forming a basis of the integer kernel lattice of M."""
    return _dense(_kernel(_columns(M), M.shape[0]), M.shape[1])


def solve_int(A, B):
    """An integer X with A X = B, or None if no integral solution exists."""
    X = _solve(_columns(A), A.shape[0], _columns(B))
    return None if X is None else _dense(X, A.shape[1])


# The per-degree presentation of induced homology maps: the reference for
# ``induced_homology_map``, which reads its verdicts off invariant factors.

def _dense_solve(A, B):
    """An integer X with A X = B by Smith form, or None if none exists."""
    U, D, V = smith_normal_form(A)
    C = U @ B
    m, n = A.shape
    Y = zeros(n, B.shape[1])
    for i in range(m):
        d = D[i, i] if i < min(m, n) else 0
        for j in range(B.shape[1]):
            c = C[i, j]
            if d == 0:
                if c != 0:
                    return None
            else:
                if c % d != 0:
                    return None
                Y[i, j] = c // d
    return V @ Y


def _solve(cols, nrows, rhs):
    """Sparse columns X with M X = B (B given by ``rhs``), or None."""
    if not rhs:
        return []
    red = _eliminate(cols, nrows, track=True)
    R, rcols = red.residual()
    rrows = sorted({i for j in rcols for i in red.cols[j]})
    at = {i: a for a, i in enumerate(rrows)}
    ys = []
    C = zeros(len(rrows), len(rhs))
    for k, b in enumerate(rhs):
        # each pivot row fixes y at its pivot column
        b = dict(b)
        y = {}
        for r, c, u in red.pivots:
            t = b.get(r)
            if t:
                y[c] = t * u
                _add(b, -t * u, red.cols[c])
        for i, v in b.items():
            if i not in at:
                return None
            C[at[i], k] = v
        ys.append(y)
    if C.any():
        Z = _dense_solve(R, C)
        if Z is None:
            return None
        for k, y in enumerate(ys):
            for a, j in enumerate(rcols):
                if Z[a, k] != 0:
                    y[j] = int(Z[a, k])
    return [_apply(red.V, y) for y in ys]


def _presentation(cc, i):
    """(K, W) as sparse columns: K a basis of the cycle lattice, coker(W) presenting H_i."""
    K = _kernel(cc.boundary_columns(i), cc.rank(i - 1))
    return K, _solve(K, cc.rank(i), cc.boundary_columns(i + 1))


def _cycle_map(f, i, KX, KY, ccY):
    """The matrix, as sparse columns, of f on the cycle lattices with bases KX, KY."""
    F = _chain_map_columns(f, i)
    return _solve(KY, ccY.rank(i), [_apply(F, z) for z in KX])


def oracle_induced_homology_map(f, i, ccX=None, ccY=None):
    """The map f induces on H_i, from presentations of both sides: H_i(f)
    is onto when its matrix and Y's relations have unit invariant factors,
    and one to one when every kernel vector modulo Y's relations is a
    combination of X's relations."""
    ccX = chain_complex(f.dom) if ccX is None else ccX
    ccY = chain_complex(f.cod) if ccY is None else ccY
    KX, WX = _presentation(ccX, i)
    KY, WY = _presentation(ccY, i)
    T = _cycle_map(f, i, KX, KY, ccY)
    kY = len(KY)
    factors = _factors(T + WY, kY)
    epi = len(factors) == kY and all(d == 1 for d in factors)
    kX = len(KX)
    L = [{a: v for a, v in x.items() if a < kX}
         for x in _kernel(T + [{a: -v for a, v in w.items()} for w in WY], kY)]
    mono = _solve(WX, kX, L) is not None
    return HomologyMap(degree=i, is_epi=epi, is_iso=epi and mono)


def boundary_matrix(cc, n):
    """The boundary matrix of a chain complex in degree n (rank_{n-1} x rank_n), dense."""
    return _dense(cc.boundary_columns(n), cc.rank(n - 1))


def chain_map_matrix(f, i):
    """The degree-i matrix of the map f induces on normalized chains."""
    return _dense(_chain_map_columns(f, i), f.cod.count(i))


def homology_map_matrix(f, i):
    """The matrix of the map f induces on the cycle lattices, in the bases
    that ``ChainComplex.cycles`` fixes per space and degree."""
    ccX, ccY = chain_complex(f.dom), chain_complex(f.cod)
    KX, KY = ccX.cycles(i), ccY.cycles(i)
    return _dense(_cycle_map(f, i, KX, KY, ccY), len(KY))


def row_sha256(row):
    """sha256 of a stage's squares in order: per square, a line of its
    facet ranks and then its disk rank."""
    h = hashlib.sha256()
    facets = np.asarray(row.facets, dtype=np.int64).reshape(len(row), -1).tolist()
    for xs, b in zip(facets, np.asarray(row.tops, dtype=np.int64).tolist()):
        h.update((" ".join(map(str, xs)) + f" {b}\n").encode())
    return h.hexdigest()


def tree_sha256(root):
    """sha256 over the sorted relative paths and bytes of a directory."""
    h = hashlib.sha256()
    for dirpath, dirs, files in os.walk(root):
        dirs.sort()
        for name in sorted(files):
            full = os.path.join(dirpath, name)
            h.update(os.path.relpath(full, root).encode() + b"\0")
            with open(full, "rb") as fh:
                h.update(fh.read())
            h.update(b"\0")
    return h.hexdigest()
