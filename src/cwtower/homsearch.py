"""Exhaustive enumeration of simplicial maps and attaching squares.

``enumerate_maps`` backtracks over generators in order of increasing
dimension, assigning each generator a target simplex (in normal form)
and pruning on the first violated face equation.  ``enumerate_squares``
uses the Yoneda reduction instead: a map of Delta^n is an n-simplex, and
a map of its boundary is a compatible tuple of (n-1)-simplices.  Output
order is canonical: lexicographic on generator assignments by dimension
then index, with candidate simplices ordered by degeneracy word then
generator.

By the Yoneda reduction an attaching square is its facets x_0 .. x_n
and its disk b, and that is the only kind of square there is: ranks into
the one ``SquareTable`` of candidate simplices that all squares of one
search share, which holds the face tables of the candidates as ranks.
A search returns one ``SquareRow``: the table, the facets and the disks.
A square's lower rows, sort key and line are gathered from its facets'
faces by one plan per n, and its maps are built only when asked for;
gluing, labels and induced tower maps read the row's ranks.
"""

from __future__ import annotations

from functools import cache, cached_property
from itertools import accumulate, combinations
from math import comb
from operator import getitem, itemgetter

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
    """All simplices of X of the given total dimension, in canonical order:
    by degeneracy word, which fixes the generator's dimension, then index."""
    words = sorted((tuple(reversed(combo)), m) for m in range(min(total_dim, X.dim) + 1)
                   for combo in combinations(range(total_dim), total_dim - m))
    return [Simplex(word, SimplexRef(m, i)) for word, m in words for i in range(X.counts[m])]


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


@cache
def _yoneda_plan(m):
    """How to read the Yoneda map of an m-simplex off rank face tables.

    The generators of Delta^m, in flat order (by dimension, then index),
    are its vertex subsets, and the Yoneda map of an m-simplex x sends a
    subset to the face of x it spans.  Returns (dims, steps, bounds):
    ``dims[q]`` is the dimension of flat generator q; ``steps`` lists,
    from the top down, (q, parent, i) where generator q is the face d_i
    of the generator ``parent`` one dimension up (the top generator is
    last); ``bounds`` splits the flat order into rows by dimension.
    """
    flat = [s for k in range(m + 1) for s in combinations(range(m + 1), k + 1)]
    at = {s: q for q, s in enumerate(flat)}
    steps = []
    for q in range(len(flat) - 2, -1, -1):
        s = flat[q]
        # the least vertex v missing from s is vertex number v of s + {v}
        v = next(v for v in range(m + 1) if v not in s)
        steps.append((q, at[tuple(sorted(s + (v,)))], v))
    ends = list(accumulate(comb(m + 1, k + 1) for k in range(m + 1)))
    return tuple(len(s) - 1 for s in flat), tuple(steps), tuple(zip([0] + ends, ends))


def _yoneda(m, faces, count):
    """The flat Yoneda ranks (``_yoneda_plan`` order) of the m-simplices
    0..count-1, read off ``faces[d][r]``, the face ranks of rank r in dim d."""
    dims, steps, _ = _yoneda_plan(m)
    cols = [None] * len(dims)
    cols[-1] = range(count)
    for q, parent, i in steps:
        up = faces[dims[parent]]
        cols[q] = [up[r][i] for r in cols[parent]]
    return list(zip(*cols))


@cache
def _gather_plan(n):
    """The gather of an attaching map from its facets, one per n.

    For facets (x_0 .. x_n), x_j being the image of the face d_j of
    Delta^n, the itemgetter returned reads the whole map, flat in the
    generator order of the boundary of Delta^n, off the concatenated
    Yoneda tuples of x_0 .. x_n: a boundary generator is a vertex subset
    S, and it is read in the facet of the largest vertex j missing from S.
    """
    inner = {s: q for q, s in enumerate(
        s for k in range(n) for s in combinations(range(n), k + 1))}
    items = []
    for k in range(n):
        for s in combinations(range(n + 1), k + 1):
            j = max(v for v in range(n + 1) if v not in s)
            items.append(j * len(inner) + inner[tuple(v - (v > j) for v in s)])
    return itemgetter(*items)


def _rows(flat, n):
    """Flat ranks in Delta^n's generator order, split into rows by dimension."""
    return tuple(flat[a:b] for a, b in _yoneda_plan(n)[2])


def _grow(X, top, cand=(), rank=(), faces=(), tokens=()):
    """The candidates of X through dimension ``top``, their ranks, the ranks
    ``faces[d][r]`` in ``cand[d - 1]`` of the faces of ``cand[d][r]`` and
    their tokens, keeping the rows given below dimension ``top``."""
    from .textio import format_simplex
    cand, rank, faces, tokens = (list(rows[:top]) for rows in (cand, rank, faces, tokens))
    for d in range(len(cand), top + 1):
        cand.append(simplex_candidates(X, d))
        rank.append({s: r for r, s in enumerate(cand[d])})
        tokens.append(list(map(format_simplex, cand[d])))
        gens = X.faces[d] if d < len(X.counts) else ()
        faces.append([tuple(map(rank[d - 1].__getitem__, gens[s.gen.index] if not s.word
                                else [face(X, s, i) for i in range(d + 1)]))
                      for s in cand[d]] if d else None)
    return cand, rank, faces, tokens


class SquareTable:
    """The candidate simplices of one stage and of the target, as ranks.

    One ``enumerate_squares`` call searches one table for (n, p) and every
    square it returns shares it.  ``cand_a[d]`` lists the d-simplices of
    the stage A = p.dom for d < n and ``cand_b[d]`` those of the target
    B = p.cod for d <= n, in ``simplex_candidates`` order; ``rank_a`` and
    ``rank_b`` invert them.  ``faces_a[d][r]`` and ``faces_b[d][r]`` are
    the ranks of the faces of candidate r, ``tokens_a[d][r]`` and
    ``tokens_b[d][r]`` their texts, and ``p_top[x]`` is the rank in
    ``cand_b[n - 1]`` of p applied to ``cand_a[n - 1][x]``.  A tower grows
    one table (``below``), so each candidate is listed, ranked and
    formatted once per tower.

    A square is its facets (x_0 .. x_n), ranks in ``cand_a[n - 1]``, and
    its disk b, a rank in ``cand_b[n]``.  Everything else about it is read
    off the face tables: ``attach_flat`` gathers the attaching map from the
    facets' Yoneda tuples, ``yoneda_b[b]`` is the Yoneda map of b, and
    ``line`` reads their tokens from ``token_rows``, the row each rank indexes.
    """

    def __init__(self, n, p: SimplicialMap, below: SquareTable | None = None):
        if n < 1:
            raise ValidationError("a square table needs n >= 1")
        self.n, self.p = n, p
        # ``below``, the table of stage n - 1, holds A's candidates below
        # n - 1 and B's below n: stage n - 1 appended only (n - 1)-generators
        a = (below.cand_a, below.rank_a, below.faces_a, below.tokens_a) if below else ()
        b = (below.cand_b, below.rank_b, below.faces_b, below.tokens_b) if below else ()
        self.cand_a, self.rank_a, self.faces_a, self.tokens_a = _grow(p.dom, n - 1, *a)
        self.cand_b, self.rank_b, self.faces_b, self.tokens_b = _grow(p.cod, n, *b)
        self.p_top = [self.rank_b[n - 1][p(s)] for s in self.cand_a[n - 1]]

    @cached_property
    def token_rows(self):
        """The token rows that attaching-map and disk ranks index, made on first use."""
        dims = _yoneda_plan(self.n)[0]
        return [self.tokens_a[d] for d in dims[:-1]], [self.tokens_b[d] for d in dims]

    @cached_property
    def yoneda_a(self):
        """The flat Yoneda ranks of every candidate of ``cand_a[n - 1]``."""
        return _yoneda(self.n - 1, self.faces_a, len(self.cand_a[-1]))

    @cached_property
    def yoneda_b(self):
        """The flat Yoneda ranks of every candidate of ``cand_b[n]``."""
        return _yoneda(self.n, self.faces_b, len(self.cand_b[-1]))

    @cached_property
    def cellular(self):
        """Every candidate of total dimension d lies on a generator of
        dimension at most d, so every map into the stage that the table
        ranks carries k-skeleta into k-skeleta."""
        return all(s.gen.dim <= d for d, c in enumerate(self.cand_a) for s in c)

    def attach_flat(self, facets):
        """The attaching map of ``facets``: ranks, flat in boundary generator order."""
        y = self.yoneda_a
        return _gather_plan(self.n)(sum(map(y.__getitem__, facets), ()))

    @cached_property
    def disk_text(self):
        """``[b]``: the tokens of the Yoneda map of disk b, joined by spaces."""
        return [" ".join(map(getitem, self.token_rows[1], y)) for y in self.yoneda_b]

    def line(self, facets, top):
        """The line of the square (facets, top), which is its cell's label."""
        attach = " ".join(map(getitem, self.token_rows[0], self.attach_flat(facets)))
        return f"square n={self.n} attach[{attach}] disk[{self.disk_text[top]}]"

    def ranks_alike(self, other: SquareTable):
        """Do ranks mean the same simplices?  That depends on n, stage and target."""
        return self is other or (self.n == other.n and self.p.dom == other.p.dom
                                 and self.p.cod == other.p.cod)


class AttachmentSquare:
    """One commutative attaching square for an n-cell.

    Its attaching map sends the boundary of Delta^n into the stage
    ``table.p.dom`` and its disk map sends Delta^n into the target
    ``table.p.cod``.  By the Yoneda reduction a square is its facets and
    its disk: the images x_0 .. x_n of the faces d_0 .. d_n of Delta^n,
    which fix the attaching map, held as ``facets`` (ranks in
    ``table.cand_a[n - 1]``), and the n-simplex b that the disk map is,
    held as ``top`` (a rank in ``table.cand_b[n]``).  The maps ``attach``
    and ``disk`` are read off the table only when they are asked for.

    Two squares are equal exactly when their maps are: when their ranks
    are, in tables whose ranks mean the same simplices.
    """

    def __init__(self, table: SquareTable, facets, top):
        self.n, self.table, self.facets, self.top = table.n, table, facets, top

    @cached_property
    def attach(self) -> SimplicialMap:
        t = self.table
        rows = _rows(t.attach_flat(self.facets), self.n)[:-1]
        return SimplicialMap(boundary_simplex(self.n), t.p.dom, tuple(
            tuple(map(t.cand_a[d].__getitem__, row)) for d, row in enumerate(rows)))

    @cached_property
    def disk(self) -> SimplicialMap:
        """The Yoneda map of the disk simplex."""
        t = self.table
        return SimplicialMap(standard_simplex(self.n), t.p.cod, tuple(
            tuple(map(t.cand_b[d].__getitem__, row))
            for d, row in enumerate(_rows(t.yoneda_b[self.top], self.n))))

    def __eq__(self, other):
        if not isinstance(other, AttachmentSquare):
            return NotImplemented
        return (self.facets == other.facets and self.top == other.top
                and self.table.ranks_alike(other.table))

    def __hash__(self):
        return hash((self.n, self.facets, self.top))

    def __repr__(self):
        return f"AttachmentSquare(n={self.n}, attach={self.attach!r}, disk={self.disk!r})"


class SquareRow:
    """The attaching squares of one stage, in order: one table, two rank rows.

    Square k is its facets ``facets[k]`` and its disk ``tops[k]``, ranks in
    ``table``.  The row reads as a sequence of ``AttachmentSquare``s, each
    made only when indexed; a slice is a row.  Rows compare by ranks.
    """

    def __init__(self, table: SquareTable, facets, tops):
        self.table, self.facets, self.tops = table, facets, tops

    def __len__(self):
        return len(self.tops)

    def __getitem__(self, k):
        kind = SquareRow if isinstance(k, slice) else AttachmentSquare
        return kind(self.table, self.facets[k], self.tops[k])

    def __eq__(self, other):
        if not isinstance(other, SquareRow):
            return NotImplemented
        return (self.tops == other.tops and self.facets == other.facets
                and self.table.ranks_alike(other.table))

    def line(self, k):
        """The line of square k, which labels its cell."""
        return self.table.line(self.facets[k], self.tops[k])

    @cached_property
    def index(self):
        """The position of each square, keyed by its (facets, top)."""
        return {sq: k for k, sq in enumerate(zip(self.facets, self.tops))}


def square_commutes(sq: AttachmentSquare, p: SimplicialMap) -> bool:
    """Exact commutativity p . attach == disk . (boundary inclusion)."""
    if sq.attach.cod != p.dom:
        return False
    incl = boundary_inclusion(sq.n)
    return compose(p, sq.attach) == compose(sq.disk, incl)


def enumerate_squares(table: SquareTable, budget: Budget | None = None):
    """All attaching squares of the table's dimension n over its projection p.

    A disk Delta^n -> B is an n-simplex b of B, and an attaching map from
    the boundary of Delta^n to A is a tuple (x_0 .. x_n) of
    (n-1)-simplices of A with d_i x_j = d_{j-1} x_i for i < j, x_i being
    the image of the face d_i of Delta^n.  The tuples are built by a join
    on a face index, and each is paired with the disks whose faces
    (d_0 b .. d_n b) are (p x_0 .. p x_n).  Squares come in the order of
    (attach, disk) under the canonical map order.

    Simplices are handled as ranks in ``simplex_candidates`` order, so a
    rank tuple sorts like the simplices it stands for: a tuple's sort key
    is its attaching map, gathered as ranks from its facets' faces.  The
    squares are returned as one ``SquareRow`` over ``table``.  Every join
    step is charged to ``budget`` (a fresh ``Budget()`` if none is given).
    """
    if budget is None:
        budget = Budget()
    n = table.n
    disks = {}
    for b, fs in enumerate(table.faces_b[n]):
        disks.setdefault(fs, []).append(b)

    # x_j joins on its first j faces: d_i x_j = d_{j-1} x_i for i < j
    top = table.faces_a[n - 1] if n > 1 else [()] * len(table.cand_a[0])
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

    p_top, attach_flat = table.p_top, table.attach_flat
    found = []
    for xs in partial:
        matches = disks.get(tuple(map(p_top.__getitem__, xs)))
        if matches is not None:
            found.append((attach_flat(xs), xs, matches))
    found.sort(key=itemgetter(0))
    return SquareRow(table, [xs for _, xs, matches in found for _ in matches],
                     [b for _, _, matches in found for b in matches])
