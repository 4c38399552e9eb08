"""Staged functorial factorization A -> A_0 -> ... -> A_N -> B.

``build_tower`` runs the dimension-staged construction: stage 0 adjoins
one vertex per vertex of the target, and stage n attaches one n-cell per
commutative attaching square over the previous projection, in the order
of its ``SquareRow`` (``Tower.squares[n]``).  Cell identity is square
identity, so subcomplex and intersection checks compare generator indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property, reduce

import numpy as np

from .core import (
    Simplex,
    SimplexRef,
    SimplicialMap,
    SimplicialSet,
    ValidationError,
    appended,
    compose,
    empty_map,
    identity_map,
    inclusion,
    map_errors,
    subcomplex,
    subset_witness,
)
from .homsearch import (
    DEFAULT_BUDGET,
    Budget,
    BudgetExceeded,
    SquareTable,
    enumerate_squares,
    match_rows,
)
from .colimits import attach_cells, stage_zero


@dataclass
class Tower:
    """The staged factorization of f: A -> B, truncated at ``cap``.

    ``stages[n]`` is A_n, ``projections[n]`` is p_n: A_n -> B, and
    ``squares[n]`` is the ``SquareRow`` of stage n, its attaching squares
    in order (``squares[0]`` is empty).  A tower only appends: A_n is
    A_{n-1} with new generators after the old ones (A_{-1} = A), so the
    stage inclusions are read off the stages, and p_n is p_{n-1} with the
    new cells' images appended.

    Equality leaves out the squares, which the stages and projections fix
    (cell k of stage n has its square's facets as faces and its disk as
    projection): comparing them would compare each stage again.
    """

    f: SimplicialMap
    stages: list
    projections: list
    squares: list = field(compare=False)

    @property
    def A(self) -> SimplicialSet:
        return self.f.dom

    @property
    def B(self) -> SimplicialSet:
        return self.f.cod

    @property
    def cap(self) -> int:
        return len(self.stages) - 1

    @property
    def top(self) -> SimplicialSet:
        return self.stages[self.cap]

    @cached_property
    def inclusions(self):
        """``inclusions[n]`` is ``inclusion(stages[n-1], stages[n])``, with
        stages[-1] = A, made when first read."""
        return [inclusion(X, Y) for X, Y in zip([self.A, *self.stages], self.stages)]


def build_tower(f: SimplicialMap, cap, *, budget=DEFAULT_BUDGET) -> Tower:
    """Run the staged construction of f: A -> B up to dimension ``cap``.

    ``budget`` bounds the join steps of the square search over all
    stages together; exceeding it raises ``BudgetExceeded``.  Every
    attaching map is cellular (``SquareTable.cellular``), so a construction
    that attached only cellular squares would build this same tower.
    """
    for tower in tower_stages(f, cap, budget=budget):
        pass
    return tower


def tower_stages(f: SimplicialMap, cap, *, budget=DEFAULT_BUDGET):
    """``build_tower`` one stage at a time: yields the tower truncated at n
    for n = 0..cap, building stage n only when it is asked for."""
    if cap < 0:
        raise ValidationError("cap must be >= 0")
    errs = map_errors(f)
    if errs:
        raise ValidationError("invalid input map: " + "; ".join(errs[:4]))

    A0, p0 = stage_zero(f)
    stages, projections, squares = [A0], [p0], [[]]
    steps, table = Budget(budget), None
    for n in range(cap + 1):
        if n >= 1:
            table = SquareTable(n, projections[-1], table)
            try:
                sqs = enumerate_squares(table, steps)
            except BudgetExceeded as e:
                cells = stages[-1].total_generators - f.dom.total_generators
                raise BudgetExceeded(e.budget, e.used, e.unit,
                                     f"stage {n}, {cells} cells built") from e
            Xn, pn = attach_cells(stages[-1], sqs, projections[-1])
            stages.append(Xn)
            projections.append(pn)
            squares.append(sqs)
        yield Tower(f, list(stages), list(projections), list(squares))


def cw_tower(B: SimplicialSet, cap, *, budget=DEFAULT_BUDGET) -> Tower:
    """The tower of the unique map from the empty simplicial set to B."""
    return build_tower(empty_map(B), cap, budget=budget)


# ---------------------------------------------------------------------------
# Induced tower maps
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class TowerMap:
    """Stagewise map between towers induced by a commuting square (f, g).

    Cells are indexed by squares, so the map is f on A plus one int64 array
    per stage: ``cells[n][k]`` is the target's stage-n generator that the
    k-th generator appended at stage n goes to.  Tower maps are equal when
    their towers, f, g and cells are.
    """

    source: Tower
    target: Tower
    f: SimplicialMap
    g: SimplicialMap
    cells: list

    def __eq__(self, other):
        return (isinstance(other, TowerMap) and len(self.cells) == len(other.cells)
                and (self.source, self.target, self.f, self.g)
                == (other.source, other.target, other.f, other.g)
                and all(map(np.array_equal, self.cells, other.cells)))

    @cached_property
    def stage_maps(self):
        """The stage maps f_n: A_n -> A'_n, made from f and cells when first read."""
        return list(self._stage_maps())

    def _stage_maps(self):
        """Yield f_0, f_1, ...: f_{n-1} (f for n = 0) with stage n's new cells sent to cells[n]."""
        assign = self.f.assign
        for n, new in enumerate(self.cells):
            assign = appended(assign, n, (Simplex((), SimplexRef(n, c)) for c in new.tolist()))
            yield SimplicialMap(self.source.stages[n], self.target.stages[n], assign)


def induced_tower_map(f: SimplicialMap, g: SimplicialMap, T: Tower, Tp: Tower) -> TowerMap:
    """The functorial map between towers over the square (f: A -> A', g: B -> B').

    Stage 0 carries the vertex indexed by a vertex b of B to the vertex
    indexed by g(b); stage n carries the cell of a square (attach, disk)
    to the cell of (f_{n-1} . attach, g . disk).  A square is its facets
    and its disk, so squares are matched on those ranks: each
    (n-1)-candidate of the source table is mapped once through f_{n-1},
    and each n-simplex of B once through g, to its rank in the target
    table, and the image of the square (x_0 .. x_n; b) is the target
    square (f_{n-1} x_0 .. f_{n-1} x_n; g b).

    The match is the check: it refuses a square missing from the target, a
    simplex outside the target table and a table over another projection,
    and whatever it accepts is a map of towers, stage by stage:
    - on A's generators f_n is f, and an f or g that fails ``map_errors``,
      or a square (f, g) that does not commute, is refused first;
    - the vertex over b goes to the vertex over g(b), which Tp's stage 0
      projects to g(b);
    - the cell c of (x; b) goes to the Tp cell whose row ``match_rows``
      found equal to (img_a[x]; img_b[b]).  Those ranks are exact, the
      ranks of f_{n-1}(s) and g(s).  ``attach_cells`` gave that cell the
      faces cand_a[facets] and the projection cand_b[top], so
      d_i f_n(c) = f_{n-1}(d_i c) and p'_n(f_n c) = g(p_n c);
    - each row of f_n extends that of f_{n-1}: f_n restricts to f_{n-1}.
    The tests keep the cell-by-cell walk as the reference.
    """
    if f.dom != T.A or f.cod != Tp.A or g.dom != T.B or g.cod != Tp.B:
        raise ValidationError("square does not connect the two towers")
    errs = map_errors(f) + map_errors(g)
    if errs:
        raise ValidationError("invalid square map: " + "; ".join(errs[:4]))
    if compose(g, T.f) != compose(Tp.f, f):
        raise ValidationError("square (f, g) does not commute with the tower maps")

    # stage 0 is f on A, then the vertex of b goes to the vertex of g(b),
    # which stage 0 of Tp appends after A'
    tm = TowerMap(source=T, target=Tp, f=f, g=g, cells=[Tp.A.count(0) + np.array(
        [g.assign[0][b].gen.index for b in range(T.B.count(0))], dtype=np.int64)])
    # the match of stage n reads f_{n-1}, made from the cells found so far
    below = tm._stage_maps()
    for n in range(1, min(T.cap, Tp.cap) + 1):
        tm.cells.append(_square_images(n, next(below), g, T, Tp) if T.squares[n]
                        else np.empty(0, dtype=np.int64))
    return tm


def _square_images(n, prev, g, T: Tower, Tp: Tower):
    """The cells of Tp's stage n that T's stage-n cells go to, by facets and disk."""
    missing = ValidationError(f"stage {n}: image square not found in target tower"
                              " (towers are inconsistent)")
    if not Tp.squares[n]:
        raise missing
    src, tgt = T.squares[n].table, Tp.squares[n].table
    if src.p != T.projections[n - 1] or tgt.p != Tp.projections[n - 1]:
        raise ValidationError(f"stage {n}: squares are not over the stage projection")
    # each candidate's image rank: the facets through prev, the disks through g
    try:
        img_a = np.array([tgt.rank_a[n - 1][prev(s)] for s in src.cand_a[n - 1]], dtype=np.int64)
        img_b = np.array([tgt.rank_b[n][g(s)] for s in src.cand_b[n]], dtype=np.int64)
    except KeyError:
        raise ValidationError(f"stage {n}: a stage map leaves its target") from None
    # find each image square among Tp's, whose squares are distinct
    row, there = T.squares[n], Tp.squares[n]
    order, hi, counts = match_rows(max(len(tgt.cand_a[n - 1]), len(tgt.cand_b[n])),
                                   np.column_stack((there.facets, there.tops)),
                                   np.column_stack((img_a[row.facets], img_b[row.tops])))
    if not counts.all():
        raise missing
    return Tp.stages[n - 1].count(n) + order[hi - 1]


def compose_tower_maps(tm2: TowerMap, tm1: TowerMap) -> TowerMap:
    """Stagewise composition; tm1's target tower must be tm2's source."""
    if tm1.target is not tm2.source and tm1.target != tm2.source:
        raise ValidationError("tower maps do not compose")
    # tm1's new cells at stage n are tm2's source generators after A''s
    A = tm2.source.A
    cells = [c2[c1 - A.count(n)] for n, (c1, c2) in enumerate(zip(tm1.cells, tm2.cells))]
    return TowerMap(source=tm1.source, target=tm2.target,
                    f=compose(tm2.f, tm1.f), g=compose(tm2.g, tm1.g), cells=cells)


def identity_tower_map(T: Tower) -> TowerMap:
    return TowerMap(source=T, target=T, f=identity_map(T.A), g=identity_map(T.B),
                    cells=[np.arange(T.A.count(n), X.count(n)) for n, X in enumerate(T.stages)])


# ---------------------------------------------------------------------------
# Theorem checkers
# ---------------------------------------------------------------------------

def check_subcomplex(tm: TowerMap):
    """True iff every stage map is a subset inclusion; witness on failure.

    Returns (ok, witness) where witness is (stage, generator) for the
    first offending generator, or None.  Stage 0 holds all of f; above it,
    stage n adds only n-cells sent to cells after A''s, so its first
    offender is the first repeated entry of ``cells[n]``.
    """
    w = subset_witness(next(tm._stage_maps()))
    if w is not None:
        return False, (0, w)
    for n, cells in enumerate(tm.cells[1:], start=1):
        order = cells.argsort(kind="stable")  # a repeat sorts after its first entry
        repeats = order[1:][cells[order[1:]] == cells[order[:-1]]]
        if len(repeats):
            return False, (n, SimplexRef(n, tm.source.A.count(n) + int(repeats.min())))
    return True, None


def check_intersection(X: SimplicialSet, subsets, cap, budget=DEFAULT_BUDGET):
    """Does tower-building commute with intersecting subcomplexes of X?

    ``subsets`` is a family of face-closed generator subsets of X.  Both
    sides are compared inside the tower of X: the intersection of the
    stage images of the member towers must equal, exactly and at every
    stage through ``cap``, the stage image of the tower of the total
    intersection.  Every member is checked before any tower is built.
    Stage n's image is the cells of stages 0..n (A is empty), one to one.

    Returns (ok, reports), one report dict per stage.
    """
    subsets = [set(s) for s in subsets]
    if not subsets:
        raise ValidationError("check_intersection needs at least one subset")
    members = []
    for i, gens in enumerate(subsets):
        try:
            members.append(subcomplex(X, gens))
        except ValidationError as err:
            raise ValidationError(f"subset {i}: {err}") from None
    S_total, incl_total = subcomplex(X, set.intersection(*subsets))
    # each distinct tower and tower map is made once, judged by equality
    @cache
    def tower(K):
        return cw_tower(K, cap, budget=budget)

    @cache
    def image(incl):
        tm = induced_tower_map(e, incl, tower(incl.dom), ambient)
        ok, witness = check_subcomplex(tm)
        if not ok:
            raise ValidationError("stage map is not a subset inclusion"
                                  f" (generator {witness[1].dim}:{witness[1].index})")
        return tm.cells

    ambient, e = tower(X), empty_map(SimplicialSet.empty())
    images = [image(incl) for _, incl in members]

    ok, lhs_size, rhs_size = True, 0, 0
    reports = []
    for n, rhs in enumerate(image(incl_total)):
        lhs = reduce(lambda a, b: a[np.isin(a, b, assume_unique=True)], [c[n] for c in images])
        ok = ok and len(lhs) == len(rhs) and bool(np.isin(rhs, lhs, assume_unique=True).all())
        lhs_size, rhs_size = lhs_size + len(lhs), rhs_size + len(rhs)
        reports.append({"stage": n, "intersection_size": lhs_size,
                        "tower_of_intersection_size": rhs_size, "equal": ok})
    return ok, reports
