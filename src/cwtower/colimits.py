"""Batch cell attachment along boundary inclusions, and the stage-0 coproduct.

``attach_cells`` glues one new nondegenerate n-generator per attaching
square, appended after the existing generators in list order, so the
construction is deterministic and stage subsets are literal index
ranges.
"""

from __future__ import annotations

from .core import (
    Simplex,
    SimplexRef,
    SimplicialMap,
    SimplicialSet,
    ValidationError,
    boundary_inclusion,
    disjoint_union,
    identity_map,
)
from .textio import format_square, simplex_formatter


def attach_cells(X: SimplicialSet, squares, p: SimplicialMap):
    """Attach one n-cell per square to X, over the projection p: X -> B.

    Returns (X2, incl, p2) where incl: X -> X2 is a subset inclusion and
    p2 restricts to p on X and maps each new cell by its square's disk.
    Every square is checked to commute exactly over p.
    """
    squares = list(squares)
    if not squares:
        return X, identity_map(X), p
    n = squares[0].n
    incl_n = boundary_inclusion(n)
    image = {}
    for k, sq in enumerate(squares):
        if sq.n != n:
            raise ValidationError(
                f"square {k} has dimension {sq.n}, expected {n}")
        if sq.attach.cod != X:
            raise ValidationError(f"square {k}: attaching map does not land in X")
        if not _commutes(sq, p, incl_n, image):
            raise ValidationError(f"square {k}: attaching square does not commute")

    ndims = max(len(X.counts), n + 1)
    counts = [X.count(d) for d in range(ndims)]
    faces = [list(X.faces[d]) if d < len(X.counts) else [] for d in range(ndims)]
    labels = [list(X.labels[d]) if d < len(X.counts) else [] for d in range(ndims)]
    top = Simplex((), SimplexRef(n, 0))  # top generator of Delta^n
    token = simplex_formatter()  # the squares share their simplices
    for sq in squares:
        # faces of Delta^n's top generator are the boundary generators,
        # with the same indexing in the boundary complex
        fs = tuple(sq.attach.assign[n - 1][sq.disk.dom.face_of_generator(top.gen, i).gen.index]
                   for i in range(n + 1))
        faces[n].append(fs)
        labels[n].append(format_square(sq, token))
        counts[n] += 1
    X2 = SimplicialSet(tuple(counts), tuple(tuple(r) for r in faces),
                       tuple(tuple(r) for r in labels))

    incl = SimplicialMap(X, X2, tuple(
        tuple(Simplex((), SimplexRef(d, g)) for g in range(X.counts[d]))
        for d in range(len(X.counts))))
    p_assign = [list(p.assign[d]) if d < len(p.assign) else [] for d in range(ndims)]
    for sq in squares:
        p_assign[n].append(sq.disk.assign[n][0])
    p2 = SimplicialMap(X2, p.cod, tuple(tuple(r) for r in p_assign))
    return X2, incl, p2


def _commutes(sq, p, incl_n, image):
    """p . attach == disk . incl_n, compared generator by generator.

    incl_n is the identity on generator indices, so the right side sends
    a boundary generator g to disk[g].  ``image`` memoises p.
    """
    a, d = sq.attach, sq.disk
    if a.dom != incl_n.dom or d.dom != incl_n.cod or a.cod != p.dom or d.cod != p.cod:
        return False
    for ra, rd in zip(a.assign, d.assign):
        for s, t in zip(ra, rd):
            ps = image.get(s)
            if ps is None:
                ps = image[s] = p(s)
            if ps != t:
                return False
    return True


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
