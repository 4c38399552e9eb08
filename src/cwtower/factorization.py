"""Staged functorial factorization A -> A_0 -> ... -> A_N -> B.

``build_tower`` runs the dimension-staged construction: stage 0 adjoins
one vertex per vertex of the target, and stage n attaches one n-cell for
every commutative attaching square over the previous projection.  Cell
identity is square identity, which makes the subcomplex and intersection
checks literal set operations on generator indices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Simplex,
    SimplexRef,
    SimplicialMap,
    SimplicialSet,
    ValidationError,
    compose,
    empty_map,
    identity_map,
    map_errors,
    subcomplex,
    subset_witness,
)
from .homsearch import DEFAULT_BUDGET, Budget, BudgetExceeded, enumerate_squares
from .colimits import attach_cells, stage_zero

VARIANTS = ("all-maps", "cellular")


@dataclass
class Tower:
    """The staged factorization of f: A -> B, truncated at ``cap``.

    ``stages[n]`` is A_n, ``inclusions[n]`` is the subset inclusion
    A_{n-1} -> A_n (with A_{-1} = A), ``projections[n]`` is p_n: A_n -> B,
    and ``squares[n]`` is the ordered attaching-square list of stage n
    (``squares[0]`` is empty).
    """

    A: SimplicialSet
    B: SimplicialSet
    f: SimplicialMap
    cap: int
    variant: str
    stages: list
    inclusions: list
    projections: list
    squares: list

    @property
    def top(self) -> SimplicialSet:
        return self.stages[self.cap]


def is_cellular(f: SimplicialMap) -> bool:
    """True iff f carries each k-skeleton into the k-skeleton.

    In the simplicial model the image of a k-generator has total
    dimension k, so this holds for every simplicial map; the check is
    kept executable so the variant coincidence is observable.
    """
    for d in range(len(f.dom.counts)):
        for g in range(f.dom.counts[d]):
            if f.assign[d][g].gen.dim > d:
                return False
    return True


def build_tower(A: SimplicialSet, f: SimplicialMap, cap, variant="all-maps",
                budget=DEFAULT_BUDGET) -> Tower:
    """Run the staged construction up to dimension ``cap``.

    ``budget`` bounds the join steps of the square search over all
    stages together; exceeding it raises ``BudgetExceeded``.  Every
    square is cellular, so ``cellular`` builds the same tower and asserts it.
    """
    for tower in tower_stages(A, f, cap, variant, budget):
        pass
    return tower


def tower_stages(A: SimplicialSet, f: SimplicialMap, cap, variant="all-maps",
                 budget=DEFAULT_BUDGET):
    """``build_tower`` one stage at a time: yields the tower truncated at n
    for n = 0..cap, building stage n only when it is asked for."""
    if variant not in VARIANTS:
        raise ValidationError(f"unknown variant {variant!r}")
    if cap < 0:
        raise ValidationError("cap must be >= 0")
    if f.dom != A:
        raise ValidationError("input map does not start at A")
    errs = map_errors(f)
    if errs:
        raise ValidationError("invalid input map: " + "; ".join(errs[:4]))

    A0, i0, p0 = stage_zero(A, f)
    stages, inclusions, projections, squares = [A0], [i0], [p0], [[]]
    steps = Budget(budget)
    for n in range(cap + 1):
        if n >= 1:
            try:
                sqs = enumerate_squares(n, projections[-1], steps)
            except BudgetExceeded as e:
                cells = stages[-1].total_generators - A.total_generators
                raise BudgetExceeded(e.budget, e.used, e.unit,
                                     f"stage {n}, {cells} cells built") from e
            if variant == "cellular" and not all(is_cellular(sq.attach) for sq in sqs):
                raise AssertionError(f"stage {n}: an attaching map is not cellular")
            Xn, incl, pn = attach_cells(stages[-1], sqs, projections[-1])
            stages.append(Xn)
            inclusions.append(incl)
            projections.append(pn)
            squares.append(sqs)
        yield Tower(A=A, B=f.cod, f=f, cap=n, variant=variant, stages=list(stages),
                    inclusions=list(inclusions), projections=list(projections),
                    squares=list(squares))


def cw_tower(B: SimplicialSet, cap, variant="all-maps", budget=DEFAULT_BUDGET) -> Tower:
    """The tower of the unique map from the empty simplicial set to B."""
    return build_tower(SimplicialSet.empty(), empty_map(B), cap, variant, budget)


# ---------------------------------------------------------------------------
# Induced tower maps
# ---------------------------------------------------------------------------

@dataclass
class TowerMap:
    """Stagewise map between towers induced by a commuting square (f, g)."""

    source: Tower
    target: Tower
    f: SimplicialMap
    g: SimplicialMap
    stage_maps: list


def induced_tower_map(f: SimplicialMap, g: SimplicialMap, T: Tower, Tp: Tower) -> TowerMap:
    """The functorial map between towers over the square (f: A -> A', g: B -> B').

    Stage 0 carries the vertex indexed by a vertex b of B to the vertex
    indexed by g(b); stage n carries the cell of a square (attach, disk)
    to the cell of (f_{n-1} . attach, g . disk).
    """
    if T.variant != Tp.variant:
        raise ValidationError("towers were built with different variants")
    if f.dom != T.A or f.cod != Tp.A or g.dom != T.B or g.cod != Tp.B:
        raise ValidationError("square does not connect the two towers")
    if compose(g, T.f) != compose(Tp.f, f):
        raise ValidationError("square (f, g) does not commute with the tower maps")
    cap = min(T.cap, Tp.cap)

    # stage 0: the A-part keeps its indices, adjoined vertices reindex by g
    ap_verts = Tp.A.count(0)
    assign0 = []
    for i in range(T.A.count(0)):
        # A' generators keep their indices inside A'_0
        assign0.append(f.assign[0][i])
    for b in range(T.B.count(0)):
        gb = g.assign[0][b].gen.index
        assign0.append(Simplex((), SimplexRef(0, ap_verts + gb)))
    table = []
    for d in range(len(T.stages[0].counts)):
        table.append(tuple(assign0) if d == 0 else tuple(f.assign[d]))
    stage_maps = [SimplicialMap(T.stages[0], Tp.stages[0], tuple(table))]

    for n in range(1, cap + 1):
        prev = stage_maps[-1]
        index_of = {(sq.n, sq.attach.assign, sq.disk.assign): i
                    for i, sq in enumerate(Tp.squares[n])}
        base_p = Tp.stages[n - 1].count(n)
        table = [list(prev.assign[d]) if d < len(prev.assign) else []
                 for d in range(len(T.stages[n].counts))]
        for sq in T.squares[n]:
            key = (n, compose(prev, sq.attach).assign, compose(g, sq.disk).assign)
            if key not in index_of:
                raise ValidationError(
                    f"stage {n}: image square not found in target tower"
                    " (towers are inconsistent)")
            table[n].append(Simplex((), SimplexRef(n, base_p + index_of[key])))
        stage_maps.append(SimplicialMap(T.stages[n], Tp.stages[n],
                                        tuple(tuple(r) for r in table)))

    tm = TowerMap(source=T, target=Tp, f=f, g=g, stage_maps=stage_maps)
    _check_tower_map(tm, cap)
    return tm


def _check_tower_map(tm: TowerMap, cap):
    T, Tp = tm.source, tm.target
    for n in range(cap + 1):
        fn = tm.stage_maps[n]
        prev = tm.f if n == 0 else tm.stage_maps[n - 1]
        if compose(fn, T.inclusions[n]) != compose(Tp.inclusions[n], prev):
            raise ValidationError(f"stage {n}: induced map does not commute"
                                  " with the stage inclusions")
        if compose(Tp.projections[n], fn) != compose(tm.g, T.projections[n]):
            raise ValidationError(f"stage {n}: induced map does not commute"
                                  " with the projections")


def compose_tower_maps(tm2: TowerMap, tm1: TowerMap) -> TowerMap:
    """Stagewise composition; tm1's target tower must be tm2's source."""
    if tm1.target is not tm2.source and tm1.target != tm2.source:
        raise ValidationError("tower maps do not compose")
    cap = min(len(tm1.stage_maps), len(tm2.stage_maps))
    stage_maps = [compose(tm2.stage_maps[n], tm1.stage_maps[n]) for n in range(cap)]
    return TowerMap(source=tm1.source, target=tm2.target,
                    f=compose(tm2.f, tm1.f), g=compose(tm2.g, tm1.g),
                    stage_maps=stage_maps)


def identity_tower_map(T: Tower) -> TowerMap:
    return TowerMap(source=T, target=T, f=identity_map(T.A), g=identity_map(T.B),
                    stage_maps=[identity_map(T.stages[n]) for n in range(T.cap + 1)])


# ---------------------------------------------------------------------------
# Theorem checkers
# ---------------------------------------------------------------------------

def check_subcomplex(tm: TowerMap):
    """True iff every stage map is a subset inclusion; witness on failure.

    Returns (ok, witness) where witness is (stage, generator) for the
    first offending generator, or None.
    """
    for n, fn in enumerate(tm.stage_maps):
        w = subset_witness(fn)
        if w is not None:
            return False, (n, w)
    return True, None


def check_intersection(X: SimplicialSet, subsets, cap, variant="all-maps",
                       budget=DEFAULT_BUDGET):
    """Does tower-building commute with intersecting subcomplexes of X?

    ``subsets`` is a family of face-closed generator subsets of X.  Both
    sides are compared inside the tower of X: the intersection of the
    stage images of the member towers must equal, exactly and at every
    stage through ``cap``, the stage image of the tower of the total
    intersection.

    Returns (ok, reports), one report dict per stage.
    """
    subsets = [set(s) for s in subsets]
    if not subsets:
        raise ValidationError("check_intersection needs at least one subset")
    ambient = cw_tower(X, cap, variant, budget)
    e = empty_map(SimplicialSet.empty())

    member_images = []
    for gens in subsets:
        S, incl = subcomplex(X, gens)
        T = build_tower(SimplicialSet.empty(), empty_map(S), cap, variant, budget)
        tm = induced_tower_map(e, incl, T, ambient)
        member_images.append([_image_generators(tm.stage_maps[n])
                              for n in range(cap + 1)])
    S_total, incl_total = subcomplex(X, set.intersection(*subsets))
    T_total = build_tower(SimplicialSet.empty(), empty_map(S_total), cap,
                          variant, budget)
    tm_total = induced_tower_map(e, incl_total, T_total, ambient)

    ok = True
    reports = []
    for n in range(cap + 1):
        lhs = set.intersection(*[imgs[n] for imgs in member_images])
        rhs = _image_generators(tm_total.stage_maps[n])
        equal = lhs == rhs
        ok = ok and equal
        reports.append({"stage": n, "intersection_size": len(lhs),
                        "tower_of_intersection_size": len(rhs), "equal": equal})
    return ok, reports


def _image_generators(f: SimplicialMap):
    """Generator image set of a subset inclusion, as (dim, index) pairs."""
    w = subset_witness(f)
    if w is not None:
        raise ValidationError(
            f"stage map is not a subset inclusion (generator {w.dim}:{w.index})")
    return {(d, f.assign[d][g].gen.index)
            for d in range(len(f.dom.counts)) for g in range(f.dom.counts[d])}
