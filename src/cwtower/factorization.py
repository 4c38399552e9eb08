"""Staged functorial factorization A -> A_0 -> ... -> A_N -> B.

``build_tower`` runs the dimension-staged construction: stage 0 adjoins
one vertex per vertex of the target, and stage n attaches one n-cell per
commutative attaching square over the previous projection, in the order
of its ``SquareRow`` (``Tower.squares[n]``).  Cell identity is square
identity, so subcomplex and intersection checks compare generator indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import chain

from .core import (
    Simplex,
    SimplexRef,
    SimplicialMap,
    SimplicialSet,
    ValidationError,
    appended,
    compose,
    empty_map,
    face,
    identity_map,
    inclusion,
    map_errors,
    simplex_errors,
    subcomplex,
    subset_witness,
)
from .homsearch import (
    DEFAULT_BUDGET,
    Budget,
    BudgetExceeded,
    SquareTable,
    enumerate_squares,
)
from .colimits import attach_cells, stage_zero

VARIANTS = ("all-maps", "cellular")


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

    A: SimplicialSet
    B: SimplicialSet
    f: SimplicialMap
    cap: int
    variant: str
    stages: list
    projections: list
    squares: list = field(compare=False)

    @property
    def top(self) -> SimplicialSet:
        return self.stages[self.cap]

    @cached_property
    def inclusions(self):
        """``inclusions[n]`` is ``inclusion(stages[n-1], stages[n])``, with
        stages[-1] = A, made when first read."""
        return [inclusion(X, Y) for X, Y in zip([self.A, *self.stages], self.stages)]


def is_cellular(squares) -> bool:
    """True iff every attaching map of ``squares`` (a square or a row of
    them) carries each k-skeleton into the k-skeleton, as read off the
    dimensions of their table's candidates, without building a map.

    In the simplicial model the image of a k-generator has total
    dimension k, so this holds for every simplicial map; the check is
    kept executable so the variant coincidence is observable.
    """
    return squares.table.cellular


def build_tower(f: SimplicialMap, cap, variant="all-maps", budget=DEFAULT_BUDGET) -> Tower:
    """Run the staged construction of f: A -> B up to dimension ``cap``.

    ``budget`` bounds the join steps of the square search over all
    stages together; exceeding it raises ``BudgetExceeded``.  Every
    square is cellular, so ``cellular`` builds the same tower and asserts it.
    """
    for tower in tower_stages(f, cap, variant, budget):
        pass
    return tower


def tower_stages(f: SimplicialMap, cap, variant="all-maps", budget=DEFAULT_BUDGET):
    """``build_tower`` one stage at a time: yields the tower truncated at n
    for n = 0..cap, building stage n only when it is asked for."""
    if variant not in VARIANTS:
        raise ValidationError(f"unknown variant {variant!r}")
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
            if variant == "cellular" and not is_cellular(sqs):
                raise AssertionError(f"stage {n}: an attaching map is not cellular")
            Xn, pn = attach_cells(stages[-1], sqs, projections[-1])
            stages.append(Xn)
            projections.append(pn)
            squares.append(sqs)
        yield Tower(A=f.dom, B=f.cod, f=f, cap=n, variant=variant, stages=list(stages),
                    projections=list(projections), squares=list(squares))


def cw_tower(B: SimplicialSet, cap, variant="all-maps", budget=DEFAULT_BUDGET) -> Tower:
    """The tower of the unique map from the empty simplicial set to B."""
    return build_tower(empty_map(B), cap, variant, budget)


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
    to the cell of (f_{n-1} . attach, g . disk).  A square is its facets
    and its disk, so squares are matched on those ranks: each
    (n-1)-candidate of the source table is mapped once through f_{n-1},
    and each n-simplex of B once through g, to its rank in the target
    table, and the image of the square (x_0 .. x_n; b) is the target
    square (f_{n-1} x_0 .. f_{n-1} x_n; g b).  ``_check_tower_map`` then
    checks the result exactly, cell by cell.
    """
    if T.variant != Tp.variant:
        raise ValidationError("towers were built with different variants")
    if f.dom != T.A or f.cod != Tp.A or g.dom != T.B or g.cod != Tp.B:
        raise ValidationError("square does not connect the two towers")
    errs = map_errors(f) + map_errors(g)
    if errs:
        raise ValidationError("invalid square map: " + "; ".join(errs[:4]))
    if compose(g, T.f) != compose(Tp.f, f):
        raise ValidationError("square (f, g) does not commute with the tower maps")
    cap = min(T.cap, Tp.cap)

    # stage 0 is f on A, then the vertex of b goes to the vertex of g(b),
    # which stage 0 of Tp appends after A'
    ap = Tp.A.count(0)
    stage_maps = [SimplicialMap(T.stages[0], Tp.stages[0], appended(f.assign, 0, [
        Simplex((), SimplexRef(0, ap + g.assign[0][b].gen.index))
        for b in range(T.B.count(0))]))]
    for n in range(1, cap + 1):
        prev = stage_maps[-1]
        new = _square_images(n, prev, g, T, Tp) if T.squares[n] else ()
        stage_maps.append(SimplicialMap(T.stages[n], Tp.stages[n],
                                        appended(prev.assign, n, new)))

    tm = TowerMap(source=T, target=Tp, f=f, g=g, stage_maps=stage_maps)
    _check_tower_map(tm, cap)
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
        img_a = [tgt.rank_a[n - 1][prev(s)] for s in src.cand_a[n - 1]]
        img_b = [tgt.rank_b[n][g(s)] for s in src.cand_b[n]]
    except KeyError:
        raise ValidationError(f"stage {n}: a stage map leaves its target") from None
    base_p = Tp.stages[n - 1].count(n)
    out = []
    for xs, b in zip(T.squares[n].facets, T.squares[n].tops):
        i = Tp.squares[n].index.get((tuple(map(img_a.__getitem__, xs)), img_b[b]))
        if i is None:
            raise missing
        out.append(Simplex((), SimplexRef(n, base_p + i)))
    return out


def _check_tower_map(tm: TowerMap, cap):
    """Check the stage maps of ``tm`` through ``cap`` exactly, stage by stage.

    The map f_n of stage n must restrict to f_{n-1} (to f for n = 0)
    through the two towers' inclusions.  A tower only appends, so both
    inclusions send a generator to the one of the same index, and the
    restriction holds exactly when each row of f_n begins with the row of
    f_{n-1}.  On each cell c that stage n appends, f_n must be simplicial,
    f_n(d_i c) = d_i f_n(c), and commute with the projections,
    p'_n(f_n c) = g(p_n c), compared as integers off the towers' stored
    faces and projections.  The older cells need no second look: they
    are covered by the previous stage, because p_n . i_n = p_{n-1} in
    every tower that ``attach_cells`` builds.
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
            lo, top = (len(prev[d]) if d < len(prev) else 0), Xp.count(d)
            ys = fa[d][lo:count]
            if ys and all(not y.word and y.gen.dim == d and y.gen.index < top for y in ys):
                # each distinct stored face and disk is mapped once, to an
                # integer that equal simplices share; the cells compare those
                ints, at = {}, [y.gen.index for y in ys]
                below = chain.from_iterable(map(Xp.faces[d].__getitem__, at))
                if (_integers(ints, fn, chain.from_iterable(X.faces[d][lo:count]))
                        == _integers(ints, None, below)
                        and _integers(ints, g, p.assign[d][lo:count])
                        == _integers(ints, None, map(pp.assign[d].__getitem__, at))):
                    continue
            for c, y in enumerate(ys, lo):  # name the first cell that fails
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


def _integers(ints, image, simplices):
    """The integers in ``ints`` of image(s) for the stored simplices s, in
    order; each distinct s is mapped once, and equal images share one."""
    simplices = list(simplices)
    keys = list(map(id, simplices))
    memo = {k: ints.setdefault(s if image is None else image(s), len(ints))
            for k, s in dict(zip(keys, simplices)).items()}
    return list(map(memo.__getitem__, keys))


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


def check_intersection(X: SimplicialSet, subsets, cap, budget=DEFAULT_BUDGET):
    """Does tower-building commute with intersecting subcomplexes of X?

    ``subsets`` is a family of face-closed generator subsets of X.  Both
    sides are compared inside the tower of X: the intersection of the
    stage images of the member towers must equal, exactly and at every
    stage through ``cap``, the stage image of the tower of the total
    intersection.  Every member is checked before any tower is built.

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
        return [_image_generators(fn) for fn in tm.stage_maps]

    ambient, e = tower(X), empty_map(SimplicialSet.empty())
    member_images = [image(incl) for _, incl in members]
    total_images = image(incl_total)

    ok = True
    reports = []
    for n in range(cap + 1):
        lhs = set.intersection(*[imgs[n] for imgs in member_images])
        rhs = total_images[n]
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
