"""Batch cell attachment along boundary inclusions, and the stage-0 coproduct.

``attach_cells`` glues one new nondegenerate n-generator per attaching
square, appended after the existing generators in list order, so the
construction is deterministic and stage subsets are literal index
ranges.  A square is its facets and its disk, ranks in the
``SquareTable`` of (n, p), and the commutativity check, the new faces
and the labels all work on those ranks.  The stage it returns is checked
from its new cells, on ranks, only when ``chain_complex`` asks for its
validity.
"""

from __future__ import annotations

from functools import cache, partial
from operator import itemgetter

from .core import (
    Simplex,
    SimplexRef,
    SimplicialMap,
    SimplicialSet,
    ValidationError,
    disjoint_union,
    identity_map,
)
from .textio import square_text


def attach_cells(X: SimplicialSet, squares, p: SimplicialMap):
    """Attach one n-cell per square to X, over the projection p: X -> B.

    Returns (X2, incl, p2) where incl: X -> X2 is a subset inclusion and
    p2 restricts to p on X and maps each new cell by its square's disk.
    Every square is its facets (x_0 .. x_n) and its disk b, ranks in the
    table that the list shares, which must be over (n, p).  Each is
    checked to commute on ranks, which is the one condition its ranks do
    not give by construction: the faces of b are p(x_0) .. p(x_n).  The
    new cell's faces are x_0 .. x_n.

    X2 is not validated here.  It gets a deferred check (``defer_report``)
    that ``chain_complex`` runs: X's report must be clean, and every new
    cell must satisfy d_i x_j = d_{j-1} x_i for i < j, compared as ranks
    in the table's face table; if either fails, the full ``validate`` walk
    of X2 gives the report, so verdicts and messages are those of
    ``validate``.
    """
    squares = list(squares)
    if not squares:
        return X, identity_map(X), p
    n = squares[0].n
    if p.dom != X:
        raise ValidationError("attach_cells: the projection does not start at X")
    table = squares[0].table
    faces_b, p_top = table.faces_b[n], table.p_top
    last = None
    for k, sq in enumerate(squares):
        if sq.n != n:
            raise ValidationError(
                f"square {k} has dimension {sq.n}, expected {n}")
        t = sq.table
        if t is not table or k == 0:  # every table of (n, p) ranks alike
            if t.p.dom != X:
                raise ValidationError(f"square {k}: attaching map does not land in X")
            if t.p != p:
                raise ValidationError(f"square {k} was not found over the projection")
        if sq.facets is not last:  # one attaching map's squares come together
            last = sq.facets
            below = tuple(map(p_top.__getitem__, last))
        if faces_b[sq.top] != below:
            raise ValidationError(f"square {k}: attaching square does not commute")

    ndims = max(len(X.counts), n + 1)
    counts = [X.count(d) for d in range(ndims)]
    faces = [list(X.faces[d]) if d < len(X.counts) else [] for d in range(ndims)]
    labels = [list(X.labels[d]) if d < len(X.counts) else [] for d in range(ndims)]
    cand, disk_text = table.cand_a[n - 1], table.disk_text
    last = None
    cells = []
    for sq in squares:
        if sq.facets is not last:
            last = facets = sq.facets
            cells.append(facets)
            # facet j is the image of d_j, so it is face j of the new cell
            cell = tuple(map(cand.__getitem__, facets))
            attach = table.attach_text(facets)
        faces[n].append(cell)
        labels[n].append(square_text(n, attach, disk_text[sq.top]))
    counts[n] += len(squares)
    X2 = SimplicialSet(tuple(counts), tuple(tuple(r) for r in faces),
                       tuple(tuple(r) for r in labels))
    X2.defer_report(partial(_attached_report, X, table.faces_a[n - 1], cells))

    incl = SimplicialMap(X, X2, tuple(
        tuple(Simplex((), SimplexRef(d, g)) for g in range(X.counts[d]))
        for d in range(len(X.counts))))
    p_assign = [list(p.assign[d]) if d < len(p.assign) else [] for d in range(ndims)]
    p_assign[n].extend(table.cand_b[n][sq.top] for sq in squares)
    p2 = SimplicialMap(X2, p.cod, tuple(tuple(r) for r in p_assign))
    return X2, incl, p2


@cache
def _identity_plan(n):
    """Two itemgetters over the concatenated face ranks of x_0 .. x_n (n
    per facet, n >= 2): they read d_i x_j and d_{j-1} x_i for every i < j."""
    pairs = [(i, j) for j in range(n + 1) for i in range(j)]
    return (itemgetter(*[j * n + i for i, j in pairs]),
            itemgetter(*[i * n + j - 1 for i, j in pairs]))


def _attached_report(X, faces, cells, X2):
    """``validate``'s report of X2, which is X plus one cell per facet tuple
    of ``cells``: empty when X is clean and every tuple satisfies the
    simplicial identities on the rank face table ``faces``, else the full
    walk of X2.  The faces of an old simplex are the same in X and X2."""
    if not X.checked_report:
        n = len(cells[0]) - 1
        if n < 2:  # a 1-cell's faces are vertices: no identity to check
            return ()
        lhs, rhs = _identity_plan(n)
        flat = (sum(map(faces.__getitem__, xs), ()) for xs in cells)
        if all(lhs(f) == rhs(f) for f in flat):
            return ()
    return X2.validation_report


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
