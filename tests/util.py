"""Shared test helpers: brute-force oracles and random instance generators."""

from itertools import product

from cwtower import (
    AttachmentSquare,
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
from cwtower.homsearch import simplex_candidates

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
    p_prev, in (attach, disk) order: the canonical square order.
    """
    incl = boundary_inclusion(n)
    by_restriction = {}
    for d in enumerate_maps(standard_simplex(n), p_prev.cod):
        by_restriction.setdefault(compose(d, incl), []).append(d)
    return [AttachmentSquare(n, a, d)
            for a in enumerate_maps(boundary_simplex(n), p_prev.dom)
            for d in by_restriction.get(compose(p_prev, a), ())]


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
