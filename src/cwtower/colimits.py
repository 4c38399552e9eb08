"""Batch cell attachment along boundary inclusions, and the stage-0 coproduct.

``attach_cells`` glues one new nondegenerate n-generator per attaching
square, appended after the existing generators in list order, so the
construction is deterministic and stage subsets are literal index
ranges.  It works on the squares' ranks in the ``SquareTable`` of
(n, p): the commutativity check, the new faces and the labels.
"""

from __future__ import annotations

from .core import (
    Simplex,
    SimplexRef,
    SimplicialMap,
    SimplicialSet,
    ValidationError,
    disjoint_union,
    identity_map,
    standard_simplex,
)
from .homsearch import SquareTable
from .textio import square_text


def attach_cells(X: SimplicialSet, squares, p: SimplicialMap):
    """Attach one n-cell per square to X, over the projection p: X -> B.

    Returns (X2, incl, p2) where incl: X -> X2 is a subset inclusion and
    p2 restricts to p on X and maps each new cell by its square's disk.
    Every square is ranked against the table of (n, p) and checked to
    commute exactly on ranks: p sends the attaching map's image of each
    boundary generator to the disk's image of it.  A square that cannot
    be ranked against X and p is rejected.
    """
    squares = list(squares)
    if not squares:
        return X, identity_map(X), p
    n = squares[0].n
    if p.dom != X:
        raise ValidationError("attach_cells: the projection does not start at X")
    table = SquareTable.over(n, p, squares)
    p_a = table.p_a
    ranked = []
    for k, sq in enumerate(squares):
        if sq.n != n:
            raise ValidationError(
                f"square {k} has dimension {sq.n}, expected {n}")
        r = sq.ranks(table)
        if r is None and sq.attach.cod != X:
            raise ValidationError(f"square {k}: attaching map does not land in X")
        if r is None or any(tuple(map(p_a[d].__getitem__, r[0][d])) != r[1][d]
                            for d in range(n)):
            raise ValidationError(f"square {k}: attaching square does not commute")
        ranked.append(r)

    ndims = max(len(X.counts), n + 1)
    counts = [X.count(d) for d in range(ndims)]
    faces = [list(X.faces[d]) if d < len(X.counts) else [] for d in range(ndims)]
    labels = [list(X.labels[d]) if d < len(X.counts) else [] for d in range(ndims)]
    # order[i]: the boundary generator that is face i of Delta^n's top generator
    top = SimplexRef(n, 0)
    order = [standard_simplex(n).face_of_generator(top, i).gen.index for i in range(n + 1)]
    cand, tok_a, tok_b = table.cand_a[n - 1], table.tokens_a, table.tokens_b
    last = None
    for rows, disk_rows in ranked:
        if rows is not last:  # the squares of one attaching map come together
            last = rows
            edge = rows[n - 1]
            attach = [tok_a[d][x] for d, row in enumerate(rows) for x in row]
        faces[n].append(tuple(cand[edge[j]] for j in order))
        labels[n].append(square_text(
            n, attach, [tok_b[d][y] for d, row in enumerate(disk_rows) for y in row]))
    counts[n] += len(ranked)
    X2 = SimplicialSet(tuple(counts), tuple(tuple(r) for r in faces),
                       tuple(tuple(r) for r in labels))

    incl = SimplicialMap(X, X2, tuple(
        tuple(Simplex((), SimplexRef(d, g)) for g in range(X.counts[d]))
        for d in range(len(X.counts))))
    p_assign = [list(p.assign[d]) if d < len(p.assign) else [] for d in range(ndims)]
    p_assign[n].extend(table.cand_b[n][disk_rows[n][0]] for _, disk_rows in ranked)
    p2 = SimplicialMap(X2, p.cod, tuple(tuple(r) for r in p_assign))
    return X2, incl, p2


def stage_zero(A: SimplicialSet, f: SimplicialMap):
    """The coproduct of A with one new vertex per vertex of the target.

    Maps of a point into B are exactly the vertices of B, so stage 0
    adjoins one labeled vertex per vertex of B.  Returns (A0, incl, p0).
    """
    if f.dom != A:
        raise ValidationError("stage_zero: map does not start at A")
    B = f.cod
    points = SimplicialSet.build(
        [B.count(0)], [[() for _ in range(B.count(0))]],
        [[f"point->{b}" for b in range(B.count(0))]])
    A0, iA, iP = disjoint_union(A, points)
    p_assign = [list(f.assign[d]) if d < len(f.assign) else []
                for d in range(len(A0.counts))]
    for b in range(B.count(0)):
        p_assign[0].append(Simplex((), SimplexRef(0, b)))
    p0 = SimplicialMap(A0, B, tuple(tuple(r) for r in p_assign))
    return A0, iA, p0
