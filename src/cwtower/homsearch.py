"""Exhaustive enumeration of simplicial maps and attaching squares.

``enumerate_maps`` backtracks over generators in order of increasing
dimension, assigning each generator a target simplex (in normal form)
and pruning on the first violated face equation.  ``enumerate_squares``
uses the Yoneda reduction instead: a map of Delta^n is an n-simplex, and
a map of its boundary is a compatible tuple of (n-1)-simplices.  Output
order is canonical: lexicographic on generator assignments by dimension
then index, with candidate simplices ordered by degeneracy word then
generator.

The squares of one search hold integer ranks into one ``SquareTable``
of candidate simplices, not ``SimplicialMap``s; gluing, labelling and
induced tower maps work on those ranks, and a square builds its maps
only when they are asked for.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations

from .core import (
    Simplex,
    SimplexRef,
    SimplicialMap,
    SimplicialSet,
    ValidationError,
    boundary_inclusion,
    boundary_simplex,
    compose,
    degenerate,
    face,
    standard_simplex,
)

DEFAULT_BUDGET = 10_000_000


class BudgetExceeded(RuntimeError):
    """A search did more steps than its budget allows."""

    def __init__(self, budget, used, unit, context=""):
        self.budget = budget
        self.used = used
        self.unit = unit
        self.context = context
        msg = f"search budget of {budget} {unit} exceeded: {used} used"
        if context:
            msg += f" ({context})"
        super().__init__(msg)


class Budget:
    """The join steps one build may take, shared by all of its stages.

    A join step is one partial boundary tuple visited by
    ``enumerate_squares``; ``used`` counts the steps taken so far.
    """

    def __init__(self, limit=DEFAULT_BUDGET):
        self.limit = limit
        self.used = 0


def simplex_candidates(X: SimplicialSet, total_dim):
    """All simplices of X of the given total dimension, in canonical order."""
    out = []
    for m in range(min(total_dim, X.dim) + 1):
        length = total_dim - m
        for combo in combinations(range(total_dim), length):
            word = tuple(reversed(combo))
            for idx in range(X.counts[m]):
                out.append(Simplex(word, SimplexRef(m, idx)))
    out.sort()
    return out


def enumerate_maps(K: SimplicialSet, X: SimplicialSet, budget=DEFAULT_BUDGET):
    """Every simplicial map K -> X, each exactly once, in canonical order."""
    gens = list(K.generators())
    cands = {d: simplex_candidates(X, d) for d in {g.dim for g in gens}}
    assign = {}
    results = []
    visited = 0

    def compatible(ref, target):
        for i in range(ref.dim + 1):
            fs = face(K, Simplex((), ref), i)
            img = degenerate(assign[fs.gen], fs.word)
            if img != face(X, target, i):
                return False
        return True

    def extend(pos):
        nonlocal visited
        if pos == len(gens):
            table = tuple(
                tuple(assign[SimplexRef(d, g)] for g in range(K.counts[d]))
                for d in range(len(K.counts)))
            results.append(SimplicialMap(K, X, table))
            return
        ref = gens[pos]
        for target in cands[ref.dim]:
            visited += 1
            if visited > budget:
                raise BudgetExceeded(budget, visited, "partial assignments",
                                     f"enumerate_maps at generator {ref.dim}:{ref.index}")
            if ref.dim >= 1 and not compatible(ref, target):
                continue
            assign[ref] = target
            extend(pos + 1)
            del assign[ref]

    extend(0)
    return results


class SquareTable:
    """The candidate simplices of one stage and of the target, as ranks.

    One ``enumerate_squares`` call builds one table for (n, p) and every
    square it returns shares it.  ``cand_a[d]`` lists the d-simplices of
    the stage A = p.dom for d < n and ``cand_b[d]`` those of the target
    B = p.cod for d <= n, in ``simplex_candidates`` order; ``rank_a`` and
    ``rank_b`` invert them, and ``p_a[d][r]`` is the rank in ``cand_b[d]``
    of p applied to ``cand_a[d][r]``.
    """

    def __init__(self, n, p: SimplicialMap):
        self.n, self.p = n, p
        A, B = p.dom, p.cod
        self.cand_a = [simplex_candidates(A, d) for d in range(n)]
        self.cand_b = [simplex_candidates(B, d) for d in range(n + 1)]
        self.rank_a = [{s: r for r, s in enumerate(c)} for c in self.cand_a]
        self.rank_b = [{s: r for r, s in enumerate(c)} for c in self.cand_b]
        self.p_a = [[self.rank_b[d][p(s)] for s in c] for d, c in enumerate(self.cand_a)]

    @classmethod
    def over(cls, n, p: SimplicialMap, squares=()):
        """The table of (n, p): the first square's, if it was built for
        (n, p), else a new one."""
        for sq in squares[:1]:
            t = sq.table
            if t is not None and t.n == n and t.p == p:
                return t
        return cls(n, p)

    @cached_property
    def tokens_a(self):
        """``format_simplex`` of every candidate of A, each formatted once."""
        from .textio import format_simplex
        return [list(map(format_simplex, c)) for c in self.cand_a]

    @cached_property
    def tokens_b(self):
        """``format_simplex`` of every candidate of B, each formatted once."""
        from .textio import format_simplex
        return [list(map(format_simplex, c)) for c in self.cand_b]


class AttachmentSquare:
    """One commutative attaching square for an n-cell.

    ``attach`` maps the boundary of Delta^n into the current stage;
    ``disk`` maps Delta^n into the target.  The square commutes exactly
    against the stage projection (checked by ``square_commutes``).

    A square from ``enumerate_squares`` holds ranks: ``rows[d][g]`` is the
    rank of attach's image of boundary generator d:g in ``table.cand_a[d]``
    and ``disk_rows[d][g]`` that of disk's image of d:g in
    ``table.cand_b[d]``.  It builds ``attach`` and ``disk`` only when they
    are asked for.  ``AttachmentSquare(n, attach, disk)`` holds the maps
    and no table; ``ranks`` ranks it against a table when it is used.
    Equality and hashing are those of (n, attach, disk) either way.
    """

    def __init__(self, n, attach: SimplicialMap, disk: SimplicialMap):
        if n < 1:
            raise ValidationError("attaching squares exist in dimension >= 1")
        self.n = n
        self.table = self.rows = self.disk_rows = None
        self.__dict__["attach"] = attach
        self.__dict__["disk"] = disk

    @classmethod
    def of_ranks(cls, table: SquareTable, rows, disk_rows):
        """A square held as its ranks in ``table``, as ``enumerate_squares`` makes it."""
        sq = cls.__new__(cls)
        sq.n, sq.table, sq.rows, sq.disk_rows = table.n, table, rows, disk_rows
        return sq

    @cached_property
    def attach(self) -> SimplicialMap:
        ca = self.table.cand_a
        return SimplicialMap(boundary_simplex(self.n), self.table.p.dom, tuple(
            tuple(ca[d][r] for r in row) for d, row in enumerate(self.rows)))

    @cached_property
    def disk(self) -> SimplicialMap:
        cb = self.table.cand_b
        return SimplicialMap(standard_simplex(self.n), self.table.p.cod, tuple(
            tuple(cb[d][r] for r in row) for d, row in enumerate(self.disk_rows)))

    def ranks(self, table: SquareTable):
        """(rows, disk_rows) of this square against ``table``, or None if its
        maps do not run from the boundary of Delta^n and Delta^n into the
        table's stage and target."""
        t = self.table
        if t is table or (t is not None and t.n == table.n and t.p == table.p):
            return self.rows, self.disk_rows
        a, d = self.attach, self.disk
        if (self.n != table.n or a.dom != boundary_simplex(self.n)
                or d.dom != standard_simplex(self.n)
                or a.cod != table.p.dom or d.cod != table.p.cod):
            return None
        try:
            return (tuple(tuple(table.rank_a[k][s] for s in row)
                          for k, row in enumerate(a.assign)),
                    tuple(tuple(table.rank_b[k][s] for s in row)
                          for k, row in enumerate(d.assign)))
        except KeyError:  # an image of the wrong dimension or generator
            return None

    def __eq__(self, other):
        if not isinstance(other, AttachmentSquare):
            return NotImplemented
        if self.table is not None and self.table is other.table:
            return self.rows == other.rows and self.disk_rows == other.disk_rows
        return (self.n, self.attach, self.disk) == (other.n, other.attach, other.disk)

    def __hash__(self):
        return hash((self.n, self.attach, self.disk))

    def __repr__(self):
        return f"AttachmentSquare(n={self.n}, attach={self.attach!r}, disk={self.disk!r})"


def square_commutes(sq: AttachmentSquare, p: SimplicialMap) -> bool:
    """Exact commutativity p . attach == disk . (boundary inclusion)."""
    if sq.attach.cod != p.dom:
        return False
    incl = boundary_inclusion(sq.n)
    return compose(p, sq.attach) == compose(sq.disk, incl)


def enumerate_squares(n, p_prev: SimplicialMap, budget: Budget | None = None):
    """All attaching squares of dimension n over the stage projection p_prev.

    A disk Delta^n -> B is an n-simplex b of B, and an attaching map from
    the boundary of Delta^n to A is a tuple (x_0 .. x_n) of
    (n-1)-simplices of A with d_i x_j = d_{j-1} x_i for i < j, x_i being
    the image of the face d_i of Delta^n.  The tuples are built by a join
    on a face index, and each is paired with the disks whose faces
    (d_0 b .. d_n b) are (p x_0 .. p x_n).  Squares come in the order of
    (attach, disk) under the canonical map order.

    Simplices are handled as ranks in ``simplex_candidates`` order, so a
    rank tuple sorts like the simplices it stands for.  The squares hold
    those ranks and share one ``SquareTable``.  Every join step is charged
    to ``budget`` (a fresh ``Budget()`` if none is given).
    """
    if n < 1:
        raise ValidationError("enumerate_squares needs n >= 1")
    if budget is None:
        budget = Budget()
    table = SquareTable(n, p_prev)
    A, B = p_prev.dom, p_prev.cod
    cand_a, cand_b, rank_a, rank_b = table.cand_a, table.cand_b, table.rank_a, table.rank_b
    # faces_a[d][r]: ranks of the faces of the simplex of rank r in dim d
    faces_a = [None] + [
        [tuple(rank_a[d - 1][face(A, s, i)] for i in range(d + 1)) for s in cand_a[d]]
        for d in range(1, n)]
    p_a = table.p_a
    disks = {}
    for b, s in enumerate(cand_b[n]):
        key = tuple(rank_b[n - 1][face(B, s, i)] for i in range(n + 1))
        disks.setdefault(key, []).append(b)

    # x_j joins on its first j faces: d_i x_j = d_{j-1} x_i for i < j
    top = faces_a[n - 1] if n > 1 else [()] * len(cand_a[n - 1])
    index = [{} for _ in range(n + 1)]
    for r, fs in enumerate(top):
        for j in range(n + 1):
            index[j].setdefault(fs[:j], []).append(r)
    left = budget.limit - budget.used
    steps = 0
    partial = [()]
    for j in range(n + 1):
        grown = []
        for xs in partial:
            bucket = index[j].get(tuple(top[x][j - 1] for x in xs) if n > 1 else (), ())
            steps += len(bucket)
            if steps > left:
                budget.used += steps
                raise BudgetExceeded(budget.limit, budget.used, "join steps")
            grown.extend(xs + (x,) for x in bucket)
        partial = grown
    budget.used += steps

    # a lower generator of the boundary is face k of a generator one up
    bnd = boundary_simplex(n)
    parents = [[next((t, k) for t, fs in enumerate(bnd.faces[d + 1])
                     for k, f in enumerate(fs) if f.gen.index == g)
                for g in range(bnd.counts[d])]
               for d in range(n - 1)]
    found = []
    for xs in partial:
        matches = disks.get(tuple(p_a[n - 1][x] for x in xs))
        if matches is None:
            continue
        # the facet with index k in Delta^n omits vertex n - k
        rows = [None] * (n - 1) + [xs[::-1]]
        for d in range(n - 2, -1, -1):
            up, fa = rows[d + 1], faces_a[d + 1]
            rows[d] = tuple(fa[up[t]][k] for t, k in parents[d])
        found.append((tuple(rows), matches))
    found.sort(key=lambda item: item[0])

    out = []
    for rows, matches in found:
        lower = tuple(tuple(map(p_a[d].__getitem__, row)) for d, row in enumerate(rows))
        out.extend(AttachmentSquare.of_ranks(table, rows, lower + ((b,),)) for b in matches)
    return out
