"""Batch cell attachment along boundary inclusions, and stage 0.

A tower only appends.  ``stage_zero`` appends one vertex per vertex of
the target after A's generators, and ``attach_cells`` appends one new
nondegenerate n-generator per attaching square after the existing
generators, in row order, so the construction is deterministic, stage
subsets are literal index ranges, and every stage inclusion is
``core.inclusion``, read off the two stages.  The squares are one
``SquareRow``: the facets and disks of each square, ranks in the
``SquareTable`` of (n, p), and the checks, the new faces and the labels
all read those ranks; the faces and labels are made only when read.  A
stage is checked once, where its cells are glued: glued onto a valid
set, it is valid, and its ``checked_report`` is set to ``()`` without
the full walk.
"""

from __future__ import annotations

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
    row's table, which is checked once to be over (n, p).  Every square is
    checked on the rank arrays for the two conditions its ranks do not
    give by construction: it commutes (the faces of b are p(x_0) ..
    p(x_n)), and its facets fit together, d_i x_j = d_{j-1} x_i for i < j,
    which makes the new cell a simplex of X2.  A failure is refused by
    name: the first square, in row order, that breaks the first condition
    or identity to fail.  The new cell's faces, x_0 .. x_n, and its label,
    the square's line, are made only when they are read (an
    ``AppendedRow`` over the row's ``faces`` and one over its ``lines``).

    So X2 is valid when X is: its ``checked_report`` is then ``()`` at
    once, and else the full ``validate`` walk of X2.
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
    facets, tops = squares.facets, squares.tops
    if facets.shape[1] != n + 1:
        raise ValidationError(
            f"attach_cells: the facet rows are {facets.shape[1]} wide, not n + 1 = {n + 1}")
    wrong = table.faces_b[n][tops] != table.p_top[facets]
    if wrong.any():
        k = int(wrong.any(axis=1).argmax())
        raise ValidationError(f"square {k}: attaching square does not commute")
    ranks = table.faces_a[n - 1]  # a 1-cell's facets are vertices: nothing to fit
    for j in range(1, n + 1) if n > 1 else ():
        for i in range(j):  # one pair at a time: two row-long temporaries
            wrong = ranks[:, i][facets[:, j]] != ranks[:, j - 1][facets[:, i]]
            if wrong.any():
                raise ValidationError(
                    f"square {int(wrong.argmax())}: d_{i} x_{j} != d_{j - 1} x_{i}")
    # facet j is the image of d_j, so it is face j of the new cell
    X2 = with_generators(X, n, len(squares), squares.faces, squares.lines)
    if not X.checked_report:
        vars(X2)["checked_report"] = ()
    disks = table.cand_b[n]
    p2 = SimplicialMap(X2, p.cod, appended(p.assign, n, map(disks.__getitem__, tops.tolist())))
    return X2, p2


def stage_zero(f: SimplicialMap):
    """A = f.dom with one new vertex appended per vertex of the target.

    Maps of a point into B are exactly the vertices of B, so stage 0
    adjoins one labeled vertex per vertex of B.  A tower only appends, so
    these come after A's generators, and A0 is valid when A is.  Returns
    (A0, p0).
    """
    nb = f.cod.count(0)
    A0 = with_generators(f.dom, 0, nb, lambda start, stop: [()] * (stop - start),
                         lambda start, stop: [f"point->{b}" for b in range(start, stop)])
    if not f.dom.checked_report:
        vars(A0)["checked_report"] = ()
    p0 = SimplicialMap(A0, f.cod, appended(
        f.assign, 0, [Simplex((), SimplexRef(0, b)) for b in range(nb)]))
    return A0, p0
