"""Batch cell attachment along boundary inclusions, and stage 0.

A tower only appends.  ``stage_zero`` appends one vertex per vertex of
the target after A's generators, and ``attach_cells`` appends one new
nondegenerate n-generator per attaching square after the existing
generators, in row order, so the construction is deterministic, stage
subsets are literal index ranges, and every stage inclusion is
``core.inclusion``, read off the two stages.  The squares are one
``SquareRow``: the facets and disks of each square, ranks in the
``SquareTable`` of (n, p), and the commutativity check, the new faces
and the labels all read those ranks.
The stage it returns is checked from its new cells, on ranks, only when
``chain_complex`` asks for its validity.
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
    appended,
    with_generators,
)
from .homsearch import SquareRow


def attach_cells(X: SimplicialSet, squares: SquareRow, p: SimplicialMap):
    """Attach one n-cell per square of the row to X, over p: X -> B.

    Returns (X2, p2).  A tower only appends: X2 is X with the new n-cells
    after its generators, and p2 is p with the new cells' disks appended.
    Square k is its facets (x_0 .. x_n) and its disk b, ranks in the
    row's table, which is checked once to be over (n, p).  Each square is
    checked to commute on ranks, the one condition its ranks do not give
    by construction: the faces of b are p(x_0) .. p(x_n).  The new cell's
    faces are x_0 .. x_n, and its label, the square's line, is made only
    when it is read (a ``LabelRow`` over the row's ``line``).

    X2 is not validated here.  It gets a deferred check (``defer_report``)
    that ``chain_complex`` runs: X's report must be clean, and every new
    cell must satisfy d_i x_j = d_{j-1} x_i for i < j, compared as ranks
    in the table's face table; if either fails, the full ``validate`` walk
    of X2 gives the report, so verdicts and messages are those of
    ``validate``.
    """
    if not squares:
        return X, p
    table = squares.table
    n = table.n
    if p.dom != X:
        raise ValidationError("attach_cells: the projection does not start at X")
    if table.p.dom != X:
        raise ValidationError("square 0: attaching map does not land in X")
    if table.p != p:
        raise ValidationError("square 0 was not found over the projection")
    faces_b, p_top, cand = table.faces_b[n], table.p_top, table.cand_a[n - 1]
    last = None
    faces = []
    for k, (xs, b) in enumerate(zip(squares.facets, squares.tops)):
        if xs is not last:  # one attaching map's squares come together
            last = xs
            below = tuple(map(p_top.__getitem__, xs))
            # facet j is the image of d_j, so it is face j of the new cell
            cell = tuple(map(cand.__getitem__, xs))
        if faces_b[b] != below:
            raise ValidationError(f"square {k}: attaching square does not commute")
        faces.append(cell)
    X2 = with_generators(X, n, faces, squares.line)
    X2.defer_report(partial(_attached_report, X, table.faces_a[n - 1], squares.facets))
    disks = table.cand_b[n]
    p2 = SimplicialMap(X2, p.cod, appended(p.assign, n, map(disks.__getitem__, squares.tops)))
    return X2, p2


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


def stage_zero(f: SimplicialMap):
    """A = f.dom with one new vertex appended per vertex of the target.

    Maps of a point into B are exactly the vertices of B, so stage 0
    adjoins one labeled vertex per vertex of B.  A tower only appends, so
    these come after A's generators.  Returns (A0, p0).
    """
    nb = f.cod.count(0)
    A0 = with_generators(f.dom, 0, [()] * nb, "point->{}".format)
    p0 = SimplicialMap(A0, f.cod, appended(
        f.assign, 0, [Simplex((), SimplexRef(0, b)) for b in range(nb)]))
    return A0, p0
