"""Shared test helpers: brute-force oracles and random instance generators."""

import hashlib
import os
from itertools import product

import numpy as np

from cwtower import (
    Simplex,
    SimplexRef,
    SimplicialMap,
    SimplicialSet,
    boundary_inclusion,
    boundary_simplex,
    compose,
    enumerate_maps,
    map_errors,
    standard_simplex,
)
from cwtower.core import subset_witness
from cwtower.homology import (
    _apply,
    _chain_map_columns,
    _factors,
    _kernel,
    _presentation,
    _solve,
    chain_complex,
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


def boundary_matrix(cc, n):
    """The boundary matrix of a chain complex in degree n (rank_{n-1} x rank_n), dense."""
    return _dense(cc.boundary_columns(n), cc.rank(n - 1))


def chain_map_matrix(f, i):
    """The degree-i matrix of the map f induces on normalized chains."""
    return _dense(_chain_map_columns(f, i), f.cod.count(i))


def homology_map_matrix(f, i):
    """The matrix of the map f induces on H_i, in the cycle-lattice bases
    that ``induced_homology_map`` fixes per space and degree."""
    ccX, ccY = chain_complex(f.dom), chain_complex(f.cod)
    (KX, _), (KY, _) = _presentation(ccX, i), _presentation(ccY, i)
    F = _chain_map_columns(f, i)
    return _dense(_solve(KY, ccY.rank(i), [_apply(F, z) for z in KX]), len(KY))


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
